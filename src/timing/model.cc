#include "timing/model.hh"

#include <stdexcept>
#include <utility>

#include "timing/batched_pipeline.hh"
#include "timing/ooo_pipeline.hh"
#include "timing/pipeline.hh"

namespace uasim::timing {

namespace {

/**
 * A group split by engine: the "pipeline" cells run on one
 * BatchedPipelineSim per predictor geometry (its shared mispredict
 * precompute needs a single bpredLog2Entries), in order of first
 * appearance, and every other cell on its own TimingModel. Cells
 * never interact, so each result is bit-identical to its standalone
 * model whichever part runs it.
 */
class SplitBatchedModel : public BatchedTimingModel
{
  public:
    explicit SplitBatchedModel(const std::vector<CoreConfig> &cfgs)
    {
        std::vector<std::vector<CoreConfig>> batchCfgs;
        for (const auto &cfg : cfgs) {
            if (cfg.model != "pipeline") {
                route_.push_back({-1, singles_.size()});
                singles_.push_back(makeTimingModel(cfg));
                continue;
            }
            std::size_t b = 0;
            while (b < batchCfgs.size() &&
                   batchCfgs[b].front().bpredLog2Entries !=
                       cfg.bpredLog2Entries)
                ++b;
            if (b == batchCfgs.size())
                batchCfgs.emplace_back();
            route_.push_back({int(b), batchCfgs[b].size()});
            batchCfgs[b].push_back(cfg);
        }
        batches_.reserve(batchCfgs.size());
        for (const auto &group : batchCfgs)
            batches_.push_back(std::make_unique<BatchedPipelineSim>(group));
    }

    /// The sole batched part when it covers every cell (a uniform
    /// "pipeline" group), moved out; nullptr otherwise.
    std::unique_ptr<BatchedTimingModel>
    takeSoleBatch()
    {
        if (batches_.size() != 1 || !singles_.empty())
            return nullptr;
        return std::move(batches_.front());
    }

    void
    append(const trace::InstrRecord &rec) override
    {
        appendBlock(&rec, 1);
    }

    void
    appendBlock(const trace::InstrRecord *recs, std::size_t n) override
    {
        for (auto &batch : batches_)
            batch->appendBlock(recs, n);
        for (auto &cell : singles_)
            cell->appendBlock(recs, n);
    }

    std::vector<SimResult>
    finalizeAll() override
    {
        std::vector<std::vector<SimResult>> batched;
        batched.reserve(batches_.size());
        for (auto &batch : batches_)
            batched.push_back(batch->finalizeAll());
        std::vector<SimResult> out;
        out.reserve(route_.size());
        for (const Route &r : route_) {
            out.push_back(r.batch < 0
                              ? singles_[r.index]->finalize()
                              : batched[std::size_t(r.batch)][r.index]);
        }
        return out;
    }

    int cellCount() const override { return int(route_.size()); }

  private:
    /// Where one cell runs: batched part @c batch, or its own model
    /// in singles_ when @c batch is -1; @c index within that part.
    struct Route {
        int batch;
        std::size_t index;
    };

    std::vector<Route> route_;  //!< one per cell, constructor order
    std::vector<std::unique_ptr<BatchedPipelineSim>> batches_;
    std::vector<std::unique_ptr<TimingModel>> singles_;
};

} // namespace

const std::vector<std::string> &
timingModelNames()
{
    static const std::vector<std::string> names = {"pipeline", "ooo"};
    return names;
}

bool
isTimingModel(const std::string &name)
{
    for (const auto &n : timingModelNames()) {
        if (n == name)
            return true;
    }
    return false;
}

std::unique_ptr<TimingModel>
makeTimingModel(const CoreConfig &cfg)
{
    if (cfg.model == "pipeline")
        return std::make_unique<PipelineSim>(cfg);
    if (cfg.model == "ooo")
        return std::make_unique<OoOPipelineSim>(cfg);
    throw std::invalid_argument("unknown timing model \"" + cfg.model +
                                "\"");
}

std::unique_ptr<BatchedTimingModel>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs)
{
    // An unknown model name throws from makeTimingModel().
    auto split = std::make_unique<SplitBatchedModel>(cfgs);
    if (auto whole = split->takeSoleBatch())
        return whole;
    return split;
}

} // namespace uasim::timing
