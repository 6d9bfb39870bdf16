/**
 * @file
 * TimingModel: the trace-replay contract every timing backend
 * implements, and the factory that selects a backend by name.
 *
 * A timing backend consumes an address-normalized InstrRecord stream
 * (it is a TraceSink, so emulation, trace buffers and the persistent
 * store all feed it the same way) and produces one SimResult - the
 * simResultFields() counter table of core/result.hh. Everything above
 * this interface (SweepRunner, the benches, bench_util's shared
 * flags) is model-agnostic: it selects a backend through
 * CoreConfig::model and the makeTimingModel()/makeBatchedTimingModel()
 * factories, never by naming a concrete simulator class.
 *
 * Backends:
 *   "pipeline"  PipelineSim (timing/pipeline.hh) - the Turandot-like
 *               in-flight-window model of the paper's Table II runs,
 *               with BatchedPipelineSim as its one-pass multi-cell
 *               engine: every "pipeline" cell of a batched group runs
 *               on it, whatever the group's other cells are.
 *   "ooo"       OoOPipelineSim (timing/ooo_pipeline.hh) - an
 *               out-of-order core with a ROB/issue-queue split, a
 *               store-set memory-dependence predictor, and a
 *               decoupled issue width.
 *
 * Stream-pure invariants shared by every backend: the fetch stage
 * predicts and trains the branch predictor exactly once per branch,
 * in program order, so instruction counts, branch counts, mispredict
 * bits and unaligned-op counts are pure functions of the stream -
 * identical across backends while cycle timing differs
 * (tests/timing_model_test.cc is the cross-model differential
 * harness).
 */

#ifndef UASIM_TIMING_MODEL_HH
#define UASIM_TIMING_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/sink.hh"

namespace uasim::timing {

/**
 * One timing backend instance simulating one core configuration.
 * Feed the record stream through the TraceSink interface (append /
 * appendBlock), then finalize() exactly once to drain the machine and
 * read the counter table.
 */
class TimingModel : public trace::TraceSink
{
  public:
    ~TimingModel() override = default;

    /// Drain the machine and return the final statistics. Idempotent.
    virtual SimResult finalize() = 0;

    /// The configuration this model simulates.
    virtual const CoreConfig &config() const = 0;
};

/**
 * One batched replay engine advancing N independent timing cells from
 * a single pass over the record stream. Per-cell results are
 * bit-identical to feeding the same stream into N standalone
 * TimingModels of the same configs.
 */
class BatchedTimingModel : public trace::TraceSink
{
  public:
    ~BatchedTimingModel() override = default;

    /// Drain every cell and return per-cell results, in constructor
    /// config order. Idempotent.
    virtual std::vector<SimResult> finalizeAll() = 0;

    virtual int cellCount() const = 0;
};

/// Registered backend names, in presentation order.
const std::vector<std::string> &timingModelNames();

/// True when @p name names a registered backend.
bool isTimingModel(const std::string &name);

/**
 * Construct the backend selected by @p cfg.model.
 * @throws std::invalid_argument on an unknown model name (callers
 * with a command line validate through isTimingModel first and exit 2).
 */
std::unique_ptr<TimingModel> makeTimingModel(const CoreConfig &cfg);

/**
 * Construct a batched engine for @p cfgs (one cell per entry;
 * duplicates allowed). The group is split by engine: the "pipeline"
 * cells that share a bpredLog2Entries run on one BatchedPipelineSim
 * (one instance per distinct geometry, in order of first
 * appearance), and every other cell on its own makeTimingModel()
 * instance; finalizeAll() returns results in @p cfgs order. When one
 * BatchedPipelineSim covers every cell (a uniform "pipeline" group),
 * that engine itself is returned. Each cell is bit-identical to a
 * standalone makeTimingModel() of its config.
 * @throws std::invalid_argument if any entry names an unknown model
 * or fails CoreConfig::validate().
 */
std::unique_ptr<BatchedTimingModel>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs);

} // namespace uasim::timing

#endif // UASIM_TIMING_MODEL_HH
