/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one interval spent in one layer: {name, start, end,
 * parent, group}. Spans are recorded from the benchmark's own code
 * around its calls into the library, kept in memory, and written out
 * once at the end as trace-event JSON (Chrome and Perfetto open it).
 * A layer's self time is its spans' duration minus the part covered
 * by their child spans.
 *
 * With recording off, begin() does nothing, so the same traced
 * sequence can run with and without spans to measure their overhead.
 */

#ifndef UASIM_PERF_SPANS_HH
#define UASIM_PERF_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uasim::perf {

class Tracer
{
  public:
    explicit Tracer(bool recording) : recording_(recording) {}

    bool recording() const { return recording_; }

    /// Open a span named @p name (a string literal) under the
    /// innermost open span. @return its id, or -1 when not recording.
    int begin(const char *name, int group = -1);

    /// Close span @p id (ignored for -1). Spans close innermost first.
    void end(int id);

    /// Register a group label (e.g. a trace key). @return its id.
    int group(const std::string &label);

    /// Summed self time per span name, in seconds.
    std::map<std::string, double> selfSeconds() const;

    /// Trace-event JSON of every span, tagged with @p workload.
    std::string traceEventJson(const std::string &workload) const;

  private:
    struct Span {
        const char *name;
        std::int64_t start;  //!< ns since the tracer's epoch
        std::int64_t end;
        int parent;
        int group;
    };

    std::int64_t now() const;

    bool recording_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<std::string> groups_;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, int group = -1)
        : t_(t), id_(t.begin(name, group))
    {}
    ~SpanScope() { t_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace uasim::perf

#endif // UASIM_PERF_SPANS_HH
