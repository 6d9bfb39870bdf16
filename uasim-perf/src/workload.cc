#include "workload.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <stdexcept>
#include <string>

#include "digest.hh"
#include "timing/model.hh"
#include "trace/sink.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace uasim::perf {

namespace fs = std::filesystem;

namespace {

// Workload sizes. Each iteration is sized to take one to two seconds
// on a 4-core host, so a run of the benchmark's length repeats it
// often enough for a steady median.
constexpr int campaignExecs = 96;
constexpr int recordExecs = 1000;
constexpr int wideExecs = 2000;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
campaignText(WorkloadId id, std::uint64_t seed)
{
    const std::string head = "[campaign]\nname = perf_" +
                             std::string(workloadName(id)) + "\nexecs = " +
                             std::to_string(id == WorkloadId::CampaignWarm
                                                ? campaignExecs
                                                : wideExecs) +
                             "\nseed = " + std::to_string(seed) + "\n";
    if (id == WorkloadId::CampaignWarm) {
        return head + "[workload]\nkernels = paper\n"
                      "variants = altivec, unaligned\n"
                      "[core]\nbase = 4w\n"
                      "[axes]\nmodel = pipeline, ooo\n"
                      "lat.unalignedLoadExtra = 0, 1, 2, 4, 6\n";
    }
    return head + "[workload]\nkernels = luma16x16\nvariants = unaligned\n"
                  "[core]\nbase = 4w\nmodel = pipeline\n"
                  "[axes]\nlat.unalignedLoadExtra = 0, 1, 2, 4\n"
                  "lat.unalignedStoreExtra = 0, 1, 2, 4\n";
}

/// The Table III plan of bench/table3_instr_count: every Table III
/// spec under every variant, plus each family's altivec/unaligned
/// pair at a quarter of the executions.
core::SweepPlan
tableThreePlan(std::uint64_t seed, std::vector<core::KernelSpec> &specs)
{
    core::SweepPlan plan;
    specs = core::tableThreeSpecs();
    for (const core::KernelSpec &spec : core::tableThreeSpecs()) {
        for (int v = 0; v < h264::numVariants; ++v) {
            const int t = plan.addTrace(core::kernelTraceJob(
                spec, static_cast<h264::Variant>(v), recordExecs, seed));
            plan.addCell(t, core::SweepCell::mixOnly);
        }
    }
    const std::pair<h264::KernelId, std::vector<int>> families[] = {
        {h264::KernelId::LumaMc, {16, 8, 4}},
        {h264::KernelId::ChromaMc, {8, 4}},
        {h264::KernelId::Idct, {8, 4}},
        {h264::KernelId::Sad, {16, 8, 4}},
    };
    for (const auto &[kernel, sizes] : families) {
        for (int size : sizes) {
            const core::KernelSpec spec{kernel, size, false};
            specs.push_back(spec);
            for (h264::Variant v :
                 {h264::Variant::Altivec, h264::Variant::Unaligned}) {
                const int t = plan.addTrace(
                    core::kernelTraceJob(spec, v, recordExecs / 4, seed));
                plan.addCell(t, core::SweepCell::mixOnly);
            }
        }
    }
    return plan;
}

/// Reset the kernel's resident-memory high-water mark to the current
/// footprint, after handing the heap's free memory back to the
/// kernel, so the peak does not count what earlier work left free.
/// @return false where the kernel does not support it.
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    return f && (f << "5").flush();
}

/// VmHWM in MB: the peak since the last reset (or process start).
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

/// Sum the stats of one sweep into the iteration's: the store
/// counters the assertions read and the busy and wall seconds.
void
addStats(core::SweepStats &sum, const core::SweepStats &s)
{
    sum.threads = std::max(sum.threads, s.threads);
    sum.tracesRecorded += s.tracesRecorded;
    sum.tracesLoaded += s.tracesLoaded;
    sum.tracesStored += s.tracesStored;
    sum.instrsReplayed += s.instrsReplayed;
    sum.replayPasses += s.replayPasses;
    sum.decodeBytes += s.decodeBytes;
    sum.recordSeconds += s.recordSeconds;
    sum.replaySeconds += s.replaySeconds;
    sum.streamSeconds += s.streamSeconds;
    sum.loadSeconds += s.loadSeconds;
    sum.wallSeconds += s.wallSeconds;
}

void
expect(bool ok, const std::string &what, std::vector<std::string> &out)
{
    if (!ok)
        out.push_back(what);
}

/// Warm-store assertions: every trace was loaded, none was recorded.
void
expectWarm(const core::SweepStats &s, std::size_t traces,
           std::vector<std::string> &out)
{
    expect(s.tracesLoaded == traces,
           "warm store served " + std::to_string(s.tracesLoaded) + " of " +
               std::to_string(traces) + " traces",
           out);
    expect(s.tracesRecorded == 0 && s.tracesStored == 0,
           "warm run recorded " + std::to_string(s.tracesRecorded) +
               " traces",
           out);
}

Iteration
runCampaign(const Workload &w)
{
    Iteration it;
    const std::string artDir = w.dir + "/artifacts";
    fs::remove_all(artDir);

    core::CampaignRunOptions opt;
    opt.sharded = true;
    opt.shardCount = w.shardCount;
    opt.jsonDir = artDir;
    opt.threads = sweepThreads;
    opt.traceCache = w.storeDir;

    const auto t0 = Clock::now();
    std::vector<core::CampaignRunOutcome> outcomes;
    for (int s = 0; s < w.shardCount; ++s) {
        opt.shard = s;
        outcomes.push_back(core::runCampaignShard(*w.campaign, opt));
    }
    std::vector<core::BenchResult> shards;
    for (const auto &o : outcomes)
        shards.push_back(o.artifact);
    core::BenchResult merged = core::mergeShardResults(shards);
    core::saveResultFile(merged,
                         artDir + "/BENCH_" + w.campaign->name() + ".json");
    it.wallS = secondsSince(t0);

    for (const auto &o : outcomes) {
        expect(o.skipped == 0 && o.executed == int(o.chunks.size()),
               "campaign shard skipped " + std::to_string(o.skipped) +
                   " chunks",
               it.violations);
        expectWarm(o.artifact.stats, o.chunks.size(), it.violations);
        addStats(it.stats, o.artifact.stats);
    }
    expect(merged.cells.size() == w.plan.cells().size(),
           "merged artifact has " + std::to_string(merged.cells.size()) +
               " cells",
           it.violations);
    it.cells = std::move(merged.cells);
    it.shardArtifacts = std::move(shards);
    it.chunkDir = outcomes.front().chunkDir;
    it.storeMb = directoryMb(w.storeDir);
    return it;
}

Iteration
runSweep(const Workload &w)
{
    Iteration it;
    const bool cold = w.storeDir.empty();
    const std::string storeDir = cold ? w.dir + "/store" : w.storeDir;
    if (cold)
        fs::remove_all(storeDir);

    const auto t0 = Clock::now();
    core::SweepRunner runner(sweepThreads);
    runner.attachStore(storeDir);
    const std::vector<core::SweepCellResult> results = runner.run(w.plan);
    it.wallS = secondsSince(t0);

    it.stats = runner.stats();
    for (const auto &r : results)
        it.cells.push_back(toResultCell(r));
    const std::size_t traces = w.plan.traces().size();
    if (cold) {
        expect(it.stats.tracesRecorded == traces &&
                   it.stats.tracesStored == traces &&
                   it.stats.tracesLoaded == 0,
               "cold store recorded " +
                   std::to_string(it.stats.tracesRecorded) + " and stored " +
                   std::to_string(it.stats.tracesStored) + " of " +
                   std::to_string(traces) + " traces",
               it.violations);
        for (const auto &job : w.plan.traces()) {
            expect(fs::exists(runner.store()->entryPath(job.key)),
                   "no store entry for " + job.key, it.violations);
        }
    } else {
        expectWarm(it.stats, traces, it.violations);
    }
    it.storeMb = directoryMb(storeDir);
    return it;
}

} // namespace

const std::vector<WorkloadId> &
allWorkloads()
{
    static const std::vector<WorkloadId> ids = {WorkloadId::CampaignWarm,
                                                WorkloadId::RecordCold,
                                                WorkloadId::WideGroupWarm};
    return ids;
}

const char *
workloadName(WorkloadId id)
{
    switch (id) {
    case WorkloadId::CampaignWarm:
        return "campaign_warm";
    case WorkloadId::RecordCold:
        return "record_cold";
    case WorkloadId::WideGroupWarm:
        return "wide_group_warm";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, WorkloadId &id)
{
    for (WorkloadId w : allWorkloads()) {
        if (name == workloadName(w)) {
            id = w;
            return true;
        }
    }
    return false;
}

Workload
describeWorkload(WorkloadId id, std::uint64_t seed)
{
    Workload w;
    w.id = id;
    w.seed = seed;
    if (id == WorkloadId::RecordCold) {
        w.plan = tableThreePlan(seed, w.specs);
        return w;
    }
    w.campaign = core::Campaign::parse(campaignText(id, seed));
    w.shardCount = id == WorkloadId::CampaignWarm ? 2 : 1;
    std::vector<int> all(std::size_t(w.campaign->chunkCount()));
    for (int j = 0; j < w.campaign->chunkCount(); ++j)
        all[std::size_t(j)] = j;
    w.plan = w.campaign->buildPlan(all);
    w.specs = w.campaign->kernels();
    return w;
}

Workload
setUp(WorkloadId id, std::uint64_t seed, const std::string &dir)
{
    Workload w = describeWorkload(id, seed);
    w.dir = dir;

    if (id != WorkloadId::RecordCold) {
        w.storeDir = dir + "/warm-store";
        core::SweepPlan warm;
        for (const core::TraceJob &job : w.plan.traces())
            warm.addCell(warm.addTrace(job), core::SweepCell::mixOnly);
        core::SweepRunner runner(sweepThreads);
        runner.attachStore(w.storeDir);
        runner.run(warm);
        if (runner.stats().tracesStored != warm.traces().size())
            throw std::runtime_error("set-up stored " +
                                     std::to_string(
                                         runner.stats().tracesStored) +
                                     " of " +
                                     std::to_string(warm.traces().size()) +
                                     " traces");
    }
    return w;
}

Iteration
runIteration(const Workload &w)
{
    const bool rssReset = resetPeakRss();
    Iteration it = w.id == WorkloadId::CampaignWarm ? runCampaign(w)
                                                    : runSweep(w);
    it.peakRssMb = rssReset ? peakRssMb() : 0;
    return it;
}

std::size_t
referenceCheck(const Workload &w, const std::vector<core::ResultCell> &cells,
               std::size_t &checked, std::vector<std::string> &why)
{
    const auto &plan = w.plan;
    std::size_t bad = 0;
    checked = 0;
    auto compare = [&](const core::ResultCell &want,
                       const core::ResultCell &got, const char *what) {
        ++checked;
        if (cellDigest(want) == cellDigest(got))
            return;
        ++bad;
        if (why.size() < 8)
            why.push_back(std::string(what) + ": " + got.trace + " | " +
                          got.config + " differs from the sweep's result");
    };

    // Cells of each trace, in plan order.
    std::vector<std::vector<std::size_t>> byTrace(plan.traces().size());
    for (std::size_t i = 0; i < plan.cells().size(); ++i)
        byTrace[std::size_t(plan.cells()[i].trace)].push_back(i);

    std::unique_ptr<trace::TraceStore> coldStore;
    if (w.id == WorkloadId::RecordCold)
        coldStore = std::make_unique<trace::TraceStore>(w.dir + "/store");

    for (std::size_t t = 0; t < byTrace.size(); ++t) {
        if (byTrace[t].empty())
            continue;
        const core::TraceJob &job = plan.traces()[t];
        // The timing cell to recompute: rotate through the configs so
        // every backend and latency is covered across the traces.
        std::size_t pick = byTrace[t][(t + w.seed) % byTrace[t].size()];
        const core::SweepCell &cell = plan.cells()[pick];

        core::ResultCell ref;
        ref.trace = job.key;
        trace::CountingSink counter;
        if (cell.config == core::SweepCell::mixOnly) {
            job.record(counter);
        } else {
            const auto &cfg = plan.configs()[std::size_t(cell.config)];
            ref.config = cfg.label;
            auto sim = timing::makeTimingModel(cfg.cfg);
            trace::TeeSink tee(counter, *sim);
            job.record(tee);
            ref.sim = sim->finalize();
        }
        ref.mix = counter.mix();
        ref.traceInstrs = ref.mix.total();
        compare(ref, cells.at(pick), "direct emulation");

        if (coldStore) {
            // What the store holds must decode to the recorded trace.
            core::ResultCell back = ref;
            trace::CountingSink readBack;
            try {
                trace::TraceReader reader(coldStore->entryPath(job.key),
                                          job.key);
                reader.drainTo(readBack);
                back.mix = readBack.mix();
                back.traceInstrs = reader.count();
            } catch (const std::exception &) {
                back.traceInstrs = ~std::uint64_t(0);  // unreadable entry
            }
            compare(back, cells.at(pick), "store read-back");
        }
    }
    return bad;
}

std::size_t
verifyKernels(const Workload &w, std::size_t &checked,
              std::vector<std::string> &why)
{
    std::size_t bad = 0;
    checked = 0;
    for (const core::KernelSpec &spec : w.specs) {
        ++checked;
        core::KernelBench bench(spec, w.seed);
        if (bench.verifyVariants())
            continue;
        ++bad;
        why.push_back("kernel " + spec.name() +
                      " differs from its scalar reference");
    }
    return bad;
}

core::ResultCell
toResultCell(const core::SweepCellResult &r)
{
    return core::ResultCell{r.traceKey, r.configLabel, r.traceInstrs, r.sim,
                            r.mix};
}

double
directoryMb(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    }
    return double(bytes) / 1e6;
}

} // namespace uasim::perf
