/**
 * @file
 * SweepPlan / SweepRunner: the declarative record-once/replay-many
 * experiment grid.
 *
 * A plan names a set of trace jobs (anything that can emit an
 * address-normalized record stream: a KernelBench variant, a custom
 * strategy loop, a decoder-stage microbenchmark) and a set of core
 * configurations, plus the cells of the grid to evaluate. The runner
 * records each referenced trace exactly once (keyed cache), replays
 * it into a fresh timing model per cell (built through the
 * timing::TimingModel factory, so the runner never names a concrete
 * backend), and shards the work across a thread pool. Results land in
 * cell order regardless of scheduling, so reports are byte-identical
 * from 1 thread to N.
 *
 * With a persistent store attached (attachStore), "once" extends
 * across processes: each cacheable trace job probes the store first,
 * replays from disk on a hit, and records through to disk on a miss,
 * so repeated grid invocations warm-start instead of re-emulating.
 *
 * Exactness: replaying a recorded trace into a timing model is
 * bit-identical to streaming the emulation straight into the model
 * (tests/sweep_test.cc locks this), so a sweep produces exactly the
 * simulated cycles the hand-rolled per-cell loops did - it just
 * emulates each unique trace once instead of once per cell.
 */

#ifndef UASIM_CORE_SWEEP_HH
#define UASIM_CORE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>  // uasim-lint: allow(sim-determinism)
#include <vector>

#include "core/experiment.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_store.hh"

namespace uasim::core {

/**
 * One recordable workload. @p record must be self-contained and
 * deterministic: it builds its own emulation state (planes, emitter,
 * AddrNormalizer) and streams the normalized records into the sink,
 * so the runner can invoke it from any worker thread.
 */
struct TraceJob {
    std::string key;  //!< unique identity; the trace-cache key
    std::function<void(trace::TraceSink &)> record;
    /**
     * Whether the persistent trace store may serve this job. Must be
     * false for jobs whose value is a side effect of running @p
     * record (e.g. filling a captured stats slot) rather than the
     * emitted record stream - a store hit replays the stream from
     * disk and never invokes @p record. The key of a cacheable job
     * must encode everything the stream depends on (workload sizes,
     * seeds, warmup history), because entries outlive the process.
     */
    bool cacheable = true;
};

/// One timing configuration of the grid.
struct ConfigJob {
    std::string label;
    timing::CoreConfig cfg;
};

/**
 * One grid point: simulate trace @p trace on configuration
 * @p config, or - with config == mixOnly - just record the trace's
 * instruction mix (a Table III style cell).
 */
struct SweepCell {
    static constexpr int mixOnly = -1;

    int trace = 0;
    int config = mixOnly;
};

/**
 * How a multi-timing-cell trace group is replayed.
 *
 * Batched (the default) advances every cell of the group from one
 * pass over the record stream (timing::makeBatchedTimingModel): all
 * "pipeline" cells run on the shared-window BatchedPipelineSim (one
 * per predictor geometry), even in a group that mixes backends, and
 * every other cell on its own model fed from the same pass. PerCell
 * re-walks the buffer once per cell with a standalone per-cell model
 * (timing::makeTimingModel).
 * The two are bit-identical in every simulated field
 * (tests/batched_replay_test.cc and timing_model_test.cc's split
 * cases are the differential harnesses), so
 * PerCell exists as the reference oracle and for debugging, not as a
 * different model.
 */
enum class ReplayMode { Batched, PerCell };

/// Parse a --replay-mode value. @return false on an unknown name.
bool parseReplayMode(const std::string &name, ReplayMode &mode);

/// "batched" or "percell".
const char *replayModeName(ReplayMode mode);

/// Declarative sweep description.
class SweepPlan
{
  public:
    /**
     * Register a trace job; jobs with a key already in the plan are
     * deduplicated (the trace cache key), so callers can mechanically
     * re-add the same workload per grid axis.
     * @return the trace index for addCell().
     */
    int addTrace(TraceJob job);

    /// Register a core configuration. @return its index.
    int addConfig(std::string label, timing::CoreConfig cfg);

    /// Add one grid point (config index, or SweepCell::mixOnly).
    void addCell(int trace, int config);

    /// Add the full traces x configs cross product.
    void crossProduct();

    const std::vector<TraceJob> &traces() const { return traces_; }
    const std::vector<ConfigJob> &configs() const { return configs_; }
    const std::vector<SweepCell> &cells() const { return cells_; }

  private:
    std::vector<TraceJob> traces_;
    std::vector<ConfigJob> configs_;
    std::vector<SweepCell> cells_;
    // Key lookup only, never iterated: order cannot leak into results.
    std::unordered_map<std::string, int> traceIndex_;  // uasim-lint: allow(sim-determinism)
};

/// Outcome of one grid point, in plan cell order.
struct SweepCellResult {
    std::string traceKey;
    std::string configLabel;  //!< empty for mix-only cells
    timing::SimResult sim;    //!< zeroed for mix-only cells
    trace::InstrMix mix;      //!< mix of the recorded trace
    std::uint64_t traceInstrs = 0;
};

/**
 * Aggregate runner statistics (for BENCH_*.json artifacts).
 *
 * Invariants, independent of thread count and of which execution path
 * a group took: every unique trace is obtained exactly once - by
 * emulation (counted in tracesRecorded/instrsRecorded) or from the
 * persistent store (tracesLoaded/instrsLoaded) - and instrsReplayed
 * is the summed trace length over all timing cells (a group whose
 * single timing cell is streamed directly still accounts its
 * instructions as replayed). Without a store, tracesLoaded and
 * tracesStored are zero and tracesRecorded covers every trace. Time
 * is split by pass kind: pure record passes (recordSeconds), pure
 * buffer-replay passes (replaySeconds), fused single-consumer
 * record+simulate passes (streamSeconds), and pure store reads -
 * summary probes and buffer loads (loadSeconds). A store hit on a
 * single-timing-cell group streams the decoded records straight into
 * the simulator; that fused disk-read+simulate pass is accounted as
 * replaySeconds, like the in-memory replay it replaces.
 */
struct SweepStats {
    /// Maximum worker concurrency of the run: group workers times the
    /// widest intra-group replay-shard fan-out used (informational).
    int threads = 0;
    std::uint64_t tracesRecorded = 0;  //!< traces obtained by emulation
    std::uint64_t tracesLoaded = 0;    //!< traces replayed from the store
    std::uint64_t tracesStored = 0;    //!< entries written to the store
    std::uint64_t cellsRun = 0;
    std::uint64_t instrsRecorded = 0;  //!< emulated records, all traces
    std::uint64_t instrsLoaded = 0;    //!< records read from the store
    std::uint64_t instrsReplayed = 0;  //!< records fed to timing sims
    /**
     * Decode/replay passes over trace record streams that fed timing
     * simulators: a fused or streamed single-cell group is 1 pass, a
     * batched multi-cell group is 1 pass per replay shard (spare
     * thread budget splits a group's cells across up to
     * min(threads, cells) shards, each running its own pass - 1 when
     * the sweep has at least as many groups as threads), a per-cell
     * multi-cell group is 1 pass per timing cell, and mix-only groups
     * contribute none. Informational (it describes how the run
     * executed, not what was simulated): instrsReplayed stays the
     * summed trace length over all timing cells in every mode.
     */
    std::uint64_t replayPasses = 0;
    /**
     * Encoded UATRACE2 payload bytes run through the block decoder,
     * summed over every decode pass (a trace decoded by S shards
     * counts S times - the honest amount of decode work done).
     * Informational; zero without a store (in-memory replay feeds
     * already-decoded records).
     */
    std::uint64_t decodeBytes = 0;
    /// Payload bytes served zero-copy from an mmap'd store entry,
    /// counted once per opened trace. Informational.
    std::uint64_t bytesMapped = 0;
    double recordSeconds = 0;  //!< pure record passes, summed across workers
    double replaySeconds = 0;  //!< buffer-replay passes, summed across workers
    double streamSeconds = 0;  //!< fused record+simulate fast-path passes
    double loadSeconds = 0;    //!< store-read passes, summed across workers
    /// Time inside TraceCursor::nextBlock during store-hit replay,
    /// summed across all shards (a subset of replaySeconds).
    double decodeSeconds = 0;
    double wallSeconds = 0;
};

/**
 * Executes a SweepPlan.
 *
 * Work unit = one trace group (a trace plus all cells that reference
 * it): the worker records the trace once, replays it into every
 * cell's simulator, frees the buffer, and moves on. Groups are
 * sharded over the pool with an atomic cursor; results are written
 * into preallocated cell slots, so output order is deterministic and
 * thread-count independent.
 *
 * When the plan has fewer groups than threads, the spare budget is
 * spent *inside* multi-cell groups: a group's timing cells split
 * across up to min(threads, cells) replay shards, each running its
 * own decode/replay pass (cells are mutually independent, so the
 * split is bit-identical to one pass - tests/sweep_test.cc locks it).
 * A single-big-group sweep therefore uses the full --threads
 * allowance instead of one thread.
 */
class SweepRunner
{
  public:
    /// @param threads worker count; 0 = hardware concurrency.
    explicit SweepRunner(int threads = 0);

    /**
     * Attach a persistent trace store under @p dir (creating it if
     * needed). Cacheable trace jobs then probe the store before
     * recording: a hit replays the stored stream into every cell of
     * the group with zero re-emulation, a miss records through to
     * disk for the next run. Replayed results are bit-identical to
     * in-memory recording (tests/sweep_test.cc locks the disk path
     * too).
     * @throws std::runtime_error if the directory cannot be created.
     */
    void attachStore(const std::string &dir);

    /// The attached store, or nullptr.
    trace::TraceStore *store() const { return store_.get(); }

    /// Select how multi-cell groups replay (default Batched).
    void setReplayMode(ReplayMode mode) { replayMode_ = mode; }
    ReplayMode replayMode() const { return replayMode_; }

    /**
     * Force every timing cell onto one TimingModel backend ("pipeline",
     * "ooo", ...; see timing::timingModelNames). Applied as an override
     * of CoreConfig::model when the runner copies each cell's config,
     * so plans keep encoding the paper grid and the backend stays a
     * run-time axis. Empty (the default) leaves each config's own
     * model field in charge. An unknown name surfaces as
     * std::invalid_argument from the factory when run() reaches the
     * first timing cell.
     */
    void setTimingModel(std::string model)
    {
        timingModel_ = std::move(model);
    }
    const std::string &timingModel() const { return timingModel_; }

    /// Run the plan. @return per-cell results in plan cell order.
    std::vector<SweepCellResult> run(const SweepPlan &plan);

    /// Statistics of the most recent run().
    const SweepStats &stats() const { return stats_; }

    int threads() const { return threads_; }

  private:
    int threads_;
    SweepStats stats_;
    std::unique_ptr<trace::TraceStore> store_;
    ReplayMode replayMode_ = ReplayMode::Batched;
    std::string timingModel_;  //!< backend override; empty = per-config
};

/**
 * TraceJob for @p execs executions of a paper kernel variant
 * (KernelBench::recordTrace on a freshly seeded bench; the key
 * encodes spec/variant/execs/seed and, when nonzero, warmupCalls).
 *
 * @p warmupCalls reproduces shared-bench measurement history: the
 * bench is first advanced by that many untraced calls of @p execs
 * executions each, so the recording matches the trace a hand-rolled
 * grid loop would have produced at that call position. Kernel outputs
 * are bit-exact across variants, so warming up with the job's own
 * variant reproduces the state of any interleaved-variant history of
 * the same call count. Only needed when
 * KernelSpec::traceStateInvariant(variant) is false.
 */
TraceJob kernelTraceJob(const KernelSpec &spec, h264::Variant variant,
                        int execs, std::uint64_t seed = 12345,
                        int warmupCalls = 0);

} // namespace uasim::core

#endif // UASIM_CORE_SWEEP_HH
