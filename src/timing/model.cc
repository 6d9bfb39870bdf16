#include "timing/model.hh"

#include <utility>

#include "timing/batched_pipeline.hh"

namespace uasim::timing {

namespace {

/// makeTimingModel()'s engine: a one-cell BatchedPipelineSim.
class SingleCellModel : public TimingModel
{
  public:
    explicit SingleCellModel(const CoreConfig &cfg) : batch_({cfg}) {}

    void
    append(const trace::InstrRecord &rec) override
    {
        batch_.append(rec);
    }

    void
    appendBlock(const trace::InstrRecord *recs, std::size_t n) override
    {
        batch_.appendBlock(recs, n);
    }

    SimResult finalize() override { return batch_.finalizeAll().front(); }

  private:
    BatchedPipelineSim batch_;
};

/**
 * A group that mixes predictor geometries: one BatchedPipelineSim per
 * bpredLog2Entries value (its shared mispredict precompute runs a
 * single predictor), in order of first appearance. Cells never
 * interact, so each result is bit-identical to a one-cell engine of
 * its config whichever part runs it.
 */
class SplitBatchedModel : public BatchedTimingModel
{
  public:
    explicit SplitBatchedModel(
        std::vector<std::unique_ptr<BatchedPipelineSim>> batches,
        std::vector<std::pair<std::size_t, std::size_t>> route)
        : batches_(std::move(batches)), route_(std::move(route))
    {
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
        for (const auto &[batch, index] : route_)
            out.push_back(batched[batch][index]);
        return out;
    }

    int cellCount() const override { return int(route_.size()); }

  private:
    std::vector<std::unique_ptr<BatchedPipelineSim>> batches_;
    /// Per cell, constructor order: (batch, index within it).
    std::vector<std::pair<std::size_t, std::size_t>> route_;
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
    return std::make_unique<SingleCellModel>(cfg);
}

std::unique_ptr<BatchedTimingModel>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs)
{
    std::vector<std::vector<CoreConfig>> groups;
    std::vector<std::pair<std::size_t, std::size_t>> route;
    route.reserve(cfgs.size());
    for (const auto &cfg : cfgs) {
        std::size_t b = 0;
        while (b < groups.size() &&
               groups[b].front().bpredLog2Entries != cfg.bpredLog2Entries)
            ++b;
        if (b == groups.size())
            groups.emplace_back();
        route.emplace_back(b, groups[b].size());
        groups[b].push_back(cfg);
    }
    // Each BatchedPipelineSim validates its cells.
    std::vector<std::unique_ptr<BatchedPipelineSim>> batches;
    batches.reserve(groups.size());
    for (const auto &group : groups)
        batches.push_back(std::make_unique<BatchedPipelineSim>(group));
    if (batches.size() == 1)
        return std::move(batches.front());
    return std::make_unique<SplitBatchedModel>(std::move(batches),
                                               std::move(route));
}

} // namespace uasim::timing
