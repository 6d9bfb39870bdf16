/**
 * @file
 * The traced run: one more execution of a workload, single-threaded,
 * by the benchmark itself, calling each layer's public functions in
 * the order the sweep does and recording a span around every call.
 *
 *  - emulate: TraceJob::record (KernelBench::recordTrace)
 *  - store_write: TraceStore::startRecord, Recorder::append, commit
 *  - store_open: TraceStore::openReader, loadSummary
 *  - decode: TraceCursor::nextBlock
 *  - replay.<backend>: the per-cell models makeBatchedTimingModel
 *    multiplexes for a mixed-backend group (makeTimingModel)
 *  - replay.batched: the BatchedPipelineSim an all-pipeline group gets
 *  - campaign.publish / campaign.merge: saveResultFile of each chunk,
 *    mergeShardResults + saveResultFile of the merged artifact
 *
 * For the warm workloads the sequence starts with the set-up's store
 * warm-up (emulate + store_write into a fresh store), then runs the
 * iteration from that store. Its cells must equal the timed run's bit
 * for bit.
 */

#ifndef UASIM_PERF_TRACED_HH
#define UASIM_PERF_TRACED_HH

#include <map>
#include <string>
#include <vector>

#include "workload.hh"

namespace uasim::perf {

/// One per-layer metric value and its unit.
struct LayerMetric {
    double value = 0;
    const char *unit = "";
};

struct TracedRun {
    double seconds = 0;  //!< host time of the whole traced sequence
    std::vector<core::ResultCell> cells;  //!< in plan cell order
    /// Replay work as SweepStats counts it, to tie this run to the
    /// timed one: decode passes that fed timing models, the payload
    /// bytes they decoded, and the records fed to timing models.
    std::uint64_t replayPasses = 0, decodeBytes = 0, instrsReplayed = 0;
    /// Per-layer metrics measured by this run, by metric name.
    std::map<std::string, LayerMetric> layers;
    std::string traceJson;  //!< trace-event JSON when spans were on
};

/**
 * Run the traced sequence of @p w. @p last is the timed run's last
 * iteration (campaign_warm publishes and merges with its artifact
 * identities). With @p recordSpans false no span is recorded, which
 * gives the sequence's untraced time.
 * @throws std::runtime_error if the library fails or the warm store
 * misses a trace.
 */
TracedRun runTraced(const Workload &w, const Iteration &last,
                    bool recordSpans);

} // namespace uasim::perf

#endif // UASIM_PERF_TRACED_HH
