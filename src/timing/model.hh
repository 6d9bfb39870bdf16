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
 * Backends, both run by the one engine, BatchedPipelineSim
 * (timing/batched_pipeline.hh), as a per-cell issue policy:
 *   "pipeline"  the Turandot-like in-flight-window model of the
 *               paper's Table II runs.
 *   "ooo"       an out-of-order core: issue scans every waiting
 *               instruction under its own issue width, and a
 *               store-set memory-dependence predictor decides when an
 *               aliasing load may speculate.
 * makeTimingModel() is that engine's one-cell case;
 * makeBatchedTimingModel() runs a whole group of cells in one pass.
 * Tests diff both against a per-cell reference model that lives in
 * tests/ only (tests/reference_pipeline.hh).
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
 * Construct the one-cell engine for @p cfg (a BatchedPipelineSim of
 * M=1 running @p cfg.model's issue policy).
 * @throws std::invalid_argument if @p cfg fails CoreConfig::validate(),
 * an unknown model name included (callers with a command line
 * validate through isTimingModel first and exit 2).
 */
std::unique_ptr<TimingModel> makeTimingModel(const CoreConfig &cfg);

/**
 * Construct a batched engine for @p cfgs (one cell per entry;
 * duplicates allowed). The group is split by predictor geometry
 * only: the cells that share a bpredLog2Entries, "pipeline" and "ooo"
 * alike, run on one BatchedPipelineSim (one instance per distinct
 * geometry, in order of first appearance); finalizeAll() returns
 * results in @p cfgs order. A one-geometry group (Fig 9's ten cells,
 * say) gets the BatchedPipelineSim itself. Cells never interact, so
 * each is bit-identical to a makeTimingModel() of its config.
 * @throws std::invalid_argument if any entry fails
 * CoreConfig::validate() (which rejects an unknown model name).
 */
std::unique_ptr<BatchedTimingModel>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs);

} // namespace uasim::timing

#endif // UASIM_TIMING_MODEL_HH
