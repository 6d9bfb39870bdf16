#include "spans.hh"

#include <chrono>
#include <cstdio>

namespace uasim::perf {

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Tracer::begin(const char *name, int group)
{
    if (!recording_)
        return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    if (group < 0 && parent >= 0)
        group = spans_[parent].group;
    spans_.push_back({name, now(), 0, parent, group});
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end = now();
    open_.pop_back();
}

int
Tracer::group(const std::string &label)
{
    groups_.push_back(label);
    return int(groups_.size()) - 1;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.name] += double(s.end - s.start - childNs[i]) * 1e-9;
    }
    return out;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + '"';
}

} // namespace

std::string
Tracer::traceEventJson(const std::string &workload) const
{
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d,",
                      s.name, double(s.start - epoch) * 1e-3,
                      double(s.end - s.start) * 1e-3, i, s.parent);
        out += buf;
        out += "\"workload\":" + jsonString(workload) + ",\"group\":" +
               jsonString(s.group >= 0 ? groups_[s.group] : "") + "}}";
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    return out + "]}\n";
}

} // namespace uasim::perf
