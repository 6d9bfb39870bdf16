#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>

#include "spans.hh"
#include "timing/batched_pipeline.hh"
#include "timing/model.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace uasim::perf {

namespace fs = std::filesystem;

namespace {

/// Work counted at the layer boundaries.
struct Counters {
    std::uint64_t emulateInstrs = 0;
    std::uint64_t storeRecords = 0, storeBytes = 0, storeFailed = 0;
    std::uint64_t probes = 0, hits = 0;
    std::uint64_t decodeRecords = 0, decodeBytes = 0, decodePasses = 0;
    std::set<std::string> decodedTraces;
    std::uint64_t pipelineRecCells = 0, oooRecCells = 0;
    std::uint64_t batchedRecCells = 0, batchedRecords = 0;
    std::uint64_t pipelineCells = 0, pipelineBatchedCells = 0;
    std::uint64_t chunks = 0;
};

/// Span name of a per-cell replay on backend @p model.
const char *
replaySpan(const std::string &model)
{
    if (model == "pipeline")
        return "replay.pipeline";
    if (model == "ooo")
        return "replay.ooo";
    return "replay.other";
}

/**
 * The emulation appends into a block; each full block goes to the
 * store recorder inside a store_write span, so emulation and store
 * writes time apart without a clock read per record.
 */
class StagedRecorder : public trace::TraceSink
{
  public:
    StagedRecorder(Tracer &t, trace::TraceStore::Recorder *rec,
                   Counters &c)
        : t_(t), rec_(rec), c_(c)
    {}

    void
    append(const trace::InstrRecord &r) override
    {
        mix_.add(r);
        block_[n_++] = r;
        if (n_ == std::size(block_))
            flush();
    }

    void
    flush()
    {
        if (rec_ && n_ > 0) {
            SpanScope s(t_, "store_write");
            rec_->appendBlock(block_, n_);
            c_.storeRecords += n_;
        }
        n_ = 0;
    }

    const trace::InstrMix &mix() const { return mix_; }

  private:
    Tracer &t_;
    trace::TraceStore::Recorder *rec_;
    Counters &c_;
    trace::InstrMix mix_;
    trace::InstrRecord block_[1024];
    std::size_t n_ = 0;
};

/// Emulate @p job and record it into @p store. @return its mix.
trace::InstrMix
recordTrace(const core::TraceJob &job, trace::TraceStore &store, Tracer &t,
            Counters &c)
{
    SpanScope emulate(t, "emulate");
    std::unique_ptr<trace::TraceStore::Recorder> rec;
    {
        SpanScope s(t, "store_write");
        rec = store.startRecord(job.key);
    }
    if (!rec)
        ++c.storeFailed;
    auto staged = std::make_unique<StagedRecorder>(t, rec.get(), c);
    job.record(*staged);
    staged->flush();
    c.emulateInstrs += staged->mix().total();
    if (rec) {
        try {
            SpanScope s(t, "store_write");
            rec->commit();
            c.storeBytes += fs::file_size(store.entryPath(job.key));
        } catch (const std::exception &) {
            ++c.storeFailed;
        }
    }
    return staged->mix();
}

/**
 * Execute @p plan's groups one after another the way SweepRunner does
 * with sweepThreads workers: the same store probes, the same replay
 * shard split, the same engine per shard.
 */
std::vector<core::ResultCell>
runGroups(const core::SweepPlan &plan, trace::TraceStore &store, Tracer &t,
          Counters &c)
{
    std::vector<std::vector<int>> groups(plan.traces().size());
    for (int i = 0; i < int(plan.cells().size()); ++i)
        groups[std::size_t(plan.cells()[std::size_t(i)].trace)].push_back(i);
    const int nGroups = int(std::count_if(
        groups.begin(), groups.end(),
        [](const auto &g) { return !g.empty(); }));
    const int poolSize = std::max(1, std::min(sweepThreads, nGroups));
    const int shardBudget = std::max(1, sweepThreads / poolSize);

    std::vector<core::ResultCell> cells(plan.cells().size());
    for (std::size_t tr = 0; tr < groups.size(); ++tr) {
        if (groups[tr].empty())
            continue;
        const core::TraceJob &job = plan.traces()[tr];
        SpanScope group(t, "sweep.group",
                        t.recording() ? t.group(job.key) : -1);

        std::vector<int> timingCis;
        std::vector<timing::CoreConfig> cfgs;
        for (int ci : groups[tr]) {
            const core::SweepCell &cell = plan.cells()[std::size_t(ci)];
            if (cell.config == core::SweepCell::mixOnly)
                continue;
            timingCis.push_back(ci);
            cfgs.push_back(plan.configs()[std::size_t(cell.config)].cfg);
        }

        trace::InstrMix mix;
        if (timingCis.empty()) {
            std::optional<trace::TraceSummary> sum;
            {
                SpanScope s(t, "store_open");
                sum = store.loadSummary(job.key);
            }
            ++c.probes;
            if (sum) {
                ++c.hits;
                mix = sum->mix;
            } else {
                mix = recordTrace(job, store, t, c);
            }
        } else {
            std::unique_ptr<trace::TraceReader> reader;
            {
                SpanScope s(t, "store_open");
                reader = store.openReader(job.key);
            }
            ++c.probes;
            if (!reader)
                throw std::runtime_error("warm store misses " + job.key);
            ++c.hits;
            mix = reader->mix();

            const std::size_t n = cfgs.size();
            const int nShards = std::min<int>(shardBudget, int(n));
            for (int k = 0; k < nShards; ++k) {
                const std::size_t lo = n * std::size_t(k) / nShards;
                const std::size_t hi = n * std::size_t(k + 1) / nShards;
                const std::vector<timing::CoreConfig> slice(
                    cfgs.begin() + long(lo), cfgs.begin() + long(hi));
                // Ask the library which engine this shard gets; a
                // mixed group's multiplexer runs one model per cell,
                // which is what runs here, cell by cell.
                std::unique_ptr<timing::BatchedTimingModel> batch =
                    timing::makeBatchedTimingModel(slice);
                const bool batched =
                    dynamic_cast<timing::BatchedPipelineSim *>(batch.get());
                std::vector<std::unique_ptr<timing::TimingModel>> models;
                if (!batched) {
                    batch.reset();
                    for (const auto &cfg : slice)
                        models.push_back(timing::makeTimingModel(cfg));
                }

                trace::TraceCursor cur = reader->cursor();
                trace::InstrRecord block[1024];
                for (;;) {
                    std::size_t got = 0;
                    {
                        SpanScope s(t, "decode");
                        got = cur.nextBlock(block, std::size(block));
                    }
                    if (got == 0)
                        break;
                    c.decodeRecords += got;
                    if (batched) {
                        SpanScope s(t, "replay.batched");
                        batch->appendBlock(block, got);
                    } else {
                        for (std::size_t i = 0; i < models.size(); ++i) {
                            SpanScope s(t, replaySpan(slice[i].model));
                            models[i]->appendBlock(block, got);
                        }
                    }
                }
                ++c.decodePasses;
                c.decodeBytes += reader->payloadBytes();
                c.decodedTraces.insert(job.key);

                const std::uint64_t recs = reader->count();
                if (batched) {
                    std::vector<timing::SimResult> sims;
                    {
                        SpanScope s(t, "replay.batched");
                        sims = batch->finalizeAll();
                    }
                    for (std::size_t i = lo; i < hi; ++i)
                        cells[std::size_t(timingCis[i])].sim = sims[i - lo];
                    c.batchedRecCells += recs * (hi - lo);
                    c.batchedRecords += recs;
                    c.pipelineCells += hi - lo;
                    c.pipelineBatchedCells += hi - lo;
                } else {
                    for (std::size_t i = lo; i < hi; ++i) {
                        const std::string &model = slice[i - lo].model;
                        SpanScope s(t, replaySpan(model));
                        cells[std::size_t(timingCis[i])].sim =
                            models[i - lo]->finalize();
                        if (model == "pipeline") {
                            c.pipelineRecCells += recs;
                            ++c.pipelineCells;
                        } else if (model == "ooo") {
                            c.oooRecCells += recs;
                        }
                    }
                }
            }
        }

        for (int ci : groups[tr]) {
            const core::SweepCell &cell = plan.cells()[std::size_t(ci)];
            core::ResultCell &out = cells[std::size_t(ci)];
            out.trace = job.key;
            if (cell.config != core::SweepCell::mixOnly)
                out.config = plan.configs()[std::size_t(cell.config)].label;
            out.mix = mix;
            out.traceInstrs = mix.total();
        }
    }
    return cells;
}

/// The campaign iteration: each shard's groups, its chunk publishes,
/// then the merge - with the timed run's artifact identities.
std::vector<core::ResultCell>
runCampaign(const Workload &w, const Iteration &last,
            trace::TraceStore &store, const std::string &dir, Tracer &t,
            Counters &c)
{
    const core::Campaign &camp = *w.campaign;
    const int configs = camp.configCount();
    fs::create_directories(dir + "/chunks");
    std::vector<core::BenchResult> shards = last.shardArtifacts;
    for (int s = 0; s < w.shardCount; ++s) {
        SpanScope shard(t, "campaign.shard");
        const std::vector<int> chunks =
            core::Campaign::shardChunks(camp.chunkCount(), s, w.shardCount);
        const std::vector<core::ResultCell> cells =
            runGroups(camp.buildPlan(chunks), store, t, c);
        for (std::size_t k = 0; k < chunks.size(); ++k) {
            const std::string file = camp.chunkFileName(chunks[k]);
            core::BenchResult chunk =
                core::loadResultFile(last.chunkDir + "/" + file);
            chunk.cells.assign(cells.begin() + long(k) * configs,
                               cells.begin() + long(k + 1) * configs);
            SpanScope publish(t, "campaign.publish");
            core::saveResultFile(chunk, dir + "/chunks/" + file, false);
            ++c.chunks;
        }
        shards.at(std::size_t(s)).cells = cells;
    }
    SpanScope merge(t, "campaign.merge");
    core::BenchResult merged = core::mergeShardResults(shards);
    core::saveResultFile(merged, dir + "/BENCH_" + camp.name() + ".json");
    return merged.cells;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

TracedRun
runTraced(const Workload &w, const Iteration &last, bool recordSpans)
{
    const std::string dir = w.dir + "/traced";
    fs::remove_all(dir);
    fs::create_directories(dir);

    Tracer t(recordSpans);
    Counters c;
    TracedRun out;
    const auto t0 = std::chrono::steady_clock::now();
    {
        SpanScope root(t, "traced");
        trace::TraceStore store(dir + "/store");
        if (w.id != WorkloadId::RecordCold) {
            SpanScope warm(t, "setup.warm_store");
            for (const core::TraceJob &job : w.plan.traces()) {
                SpanScope g(t, "sweep.group",
                            t.recording() ? t.group(job.key) : -1);
                recordTrace(job, store, t, c);
            }
        }
        SpanScope iteration(t, "iteration");
        out.cells = w.id == WorkloadId::CampaignWarm
                        ? runCampaign(w, last, store, dir, t, c)
                        : runGroups(w.plan, store, t, c);
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.replayPasses = c.decodePasses;
    out.decodeBytes = c.decodeBytes;
    out.instrsReplayed =
        c.pipelineRecCells + c.oooRecCells + c.batchedRecCells;
    if (!recordSpans)
        return out;

    const std::map<std::string, double> self = t.selfSeconds();
    auto busy = [&self](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto &m = out.layers;
    const double emulated = double(c.emulateInstrs);
    m["emulate.instrs"] = {emulated, "count"};
    m["emulate.busy_s"] = {busy("emulate"), "s"};
    m["emulate.minstr_per_s"] = {ratio(emulated, busy("emulate")) / 1e6,
                                 "Minstr/s"};

    const double stored = double(c.storeRecords);
    const double bytes = double(c.storeBytes);
    m["store_write.records"] = {stored, "count"};
    m["store_write.bytes"] = {bytes, "B"};
    m["store_write.bytes_per_rec"] = {ratio(bytes, stored), "B/rec"};
    m["store_write.busy_s"] = {busy("store_write"), "s"};
    m["store_write.mb_per_s"] = {ratio(bytes, busy("store_write")) / 1e6,
                                 "MB/s"};
    m["store_write.failed"] = {double(c.storeFailed), "count"};

    m["store_open.probes"] = {double(c.probes), "count"};
    m["store_open.hits"] = {double(c.hits), "count"};
    m["store_open.hit_ratio"] = {ratio(double(c.hits), double(c.probes)),
                                 "ratio"};
    m["store_open.busy_s"] = {busy("store_open"), "s"};

    const double decoded = double(c.decodeRecords);
    m["decode.records"] = {decoded, "count"};
    m["decode.bytes"] = {double(c.decodeBytes), "B"};
    m["decode.passes_per_trace"] = {
        ratio(double(c.decodePasses), double(c.decodedTraces.size())),
        "count"};
    m["decode.busy_s"] = {busy("decode"), "s"};
    m["decode.mrec_per_s"] = {ratio(decoded, busy("decode")) / 1e6,
                              "Mrec/s"};

    const struct {
        const char *name;
        std::uint64_t recCells;
    } engines[] = {{"replay.pipeline", c.pipelineRecCells},
                   {"replay.ooo", c.oooRecCells},
                   {"replay.batched", c.batchedRecCells}};
    for (const auto &e : engines) {
        const std::string n = e.name;
        m[n + ".rec_cells"] = {double(e.recCells), "count"};
        m[n + ".busy_s"] = {busy(e.name), "s"};
        m[n + ".mrec_cell_per_s"] = {
            ratio(double(e.recCells), busy(e.name)) / 1e6, "Mrec_cell/s"};
    }
    m["replay.batched.mean_m"] = {
        ratio(double(c.batchedRecCells), double(c.batchedRecords)), "cells"};
    m["replay.pipeline.batched_share"] = {
        ratio(double(c.pipelineBatchedCells), double(c.pipelineCells)),
        "ratio"};

    m["campaign.publish_s"] = {busy("campaign.publish"), "s"};
    m["campaign.merge_s"] = {busy("campaign.merge"), "s"};
    m["campaign.chunks"] = {double(c.chunks), "count"};

    out.traceJson = t.traceEventJson(workloadName(w.id));
    return out;
}

} // namespace uasim::perf
