/**
 * @file
 * Locks the sweep engine's guarantees (core/sweep.hh):
 *  - replaying a recorded trace into the reference model
 *    (tests/reference_pipeline.hh) is bit-identical to streaming the
 *    emulation into it directly;
 *  - results and SweepStats cell/instruction counts are identical for
 *    1 and N worker threads;
 *  - duplicate addTrace keys dedupe to one recording;
 *  - every timing cell matches a test-local per-cell oracle (one
 *    reference model per cell over a TraceBuffer), for any shard
 *    count, from memory or from the store;
 *  - a group whose single timing cell is streamed from the emulation
 *    still populates every mix-only cell and accounts its
 *    instructions as both recorded and replayed, on both backends;
 *  - kernelTraceJob's warmupCalls reproduces shared-bench history;
 *  - a group mixing backends and predictor geometries is split by
 *    the batched factory without changing any cell;
 *  - with a persistent store attached, a warm run replays every
 *    cacheable trace from disk with zero re-emulation and results
 *    bit-identical to the in-memory path, corrupt entries (truncated,
 *    or failing mid-decode under a valid checksum) fall back to
 *    re-recording with no stats from the failed pass, and
 *    non-cacheable jobs bypass the store;
 *  - an unknown timing model fails the run before it emulates or
 *    stores anything, and leaves valid store entries in place;
 *  - cells whose configs differ only in knobs their trace never
 *    reads share one engine cell: on a Fig-9-shaped grid, cold and
 *    warm, every cell still matches the oracle under its own name,
 *    instrsReplayed counts every cell and replayPasses the distinct
 *    configs; a store entry whose mix section disagrees with its
 *    payload is re-recorded.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "reference_pipeline.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"

using namespace uasim;
using core::KernelBench;
using core::KernelSpec;
using core::SweepCell;
using core::SweepPlan;
using core::SweepRunner;
using h264::KernelId;
using h264::Variant;

namespace {

void
expectSimEqual(const timing::SimResult &a, const timing::SimResult &b)
{
    EXPECT_EQ(a.core, b.core);
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(a.*(f.member), b.*(f.member)) << "counter " << f.name;
}

void
expectMixEqual(const trace::InstrMix &a, const trace::InstrMix &b)
{
    for (int c = 0; c < trace::numInstrClasses; ++c) {
        auto cls = static_cast<trace::InstrClass>(c);
        EXPECT_EQ(a.count(cls), b.count(cls));
    }
}

void
expectResultsEqual(const std::vector<core::SweepCellResult> &a,
                   const std::vector<core::SweepCellResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].traceKey, b[i].traceKey);
        EXPECT_EQ(a[i].configLabel, b[i].configLabel);
        EXPECT_EQ(a[i].traceInstrs, b[i].traceInstrs);
        expectSimEqual(a[i].sim, b[i].sim);
        expectMixEqual(a[i].mix, b[i].mix);
    }
}

/// Fresh per-test store directory (removed on destruction).
struct StoreDir {
    explicit StoreDir(const char *name)
        : path(::testing::TempDir() + "/uasim_sweep_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~StoreDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/**
 * The per-cell reference for @p plan: record each trace into a
 * TraceBuffer and replay it into one reference model per timing cell
 * (the oracle batched_replay_test's perCellResults uses), filling
 * every cell like SweepRunner::run does.
 */
std::vector<core::SweepCellResult>
perCellOracle(const SweepPlan &plan)
{
    std::vector<trace::TraceBuffer> buffers(plan.traces().size());
    for (std::size_t t = 0; t < buffers.size(); ++t)
        plan.traces()[t].record(buffers[t]);
    std::vector<core::SweepCellResult> out(plan.cells().size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const SweepCell &cell = plan.cells()[i];
        const trace::TraceBuffer &buf = buffers[std::size_t(cell.trace)];
        auto &res = out[i];
        res.traceKey = plan.traces()[std::size_t(cell.trace)].key;
        res.mix = buf.mix();
        res.traceInstrs = buf.size();
        if (cell.config == SweepCell::mixOnly)
            continue;
        const core::ConfigJob &cfg = plan.configs()[std::size_t(cell.config)];
        res.configLabel = cfg.label;
        timing::ReferencePipeline sim(cfg.cfg);
        buf.replayInto(sim);
        res.sim = sim.finalize();
    }
    return out;
}

} // namespace

TEST(SweepReplay, BitIdenticalToDirectStreaming)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::Idct, 4, false},  // state-sensitive scalar path
    };
    const Variant variants[] = {Variant::Scalar, Variant::Unaligned};
    const int execs = 6;
    auto cfg = timing::CoreConfig::fourWayOoO();

    for (const auto &spec : specs) {
        for (auto variant : variants) {
            KernelBench direct(spec);
            auto want = direct.simulate(variant, cfg, execs);

            trace::TraceBuffer buf;
            KernelBench recorder(spec);
            recorder.recordTrace(variant, execs, buf);
            EXPECT_EQ(buf.size(), buf.mix().total());

            timing::ReferencePipeline sim(cfg);
            buf.replayInto(sim);
            expectSimEqual(want, sim.finalize());
        }
    }
}

TEST(SweepPlan, AddTraceDedupesKeys)
{
    SweepPlan plan;
    int recorded = 0;
    auto job = [&recorded](trace::TraceSink &) { ++recorded; };
    int a = plan.addTrace({"dup", job});
    int b = plan.addTrace({"dup", job});
    int c = plan.addTrace({"other", job});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_EQ(plan.traces().size(), 2u);

    // Both cells reference the single deduped recording.
    plan.addCell(a, SweepCell::mixOnly);
    plan.addCell(b, SweepCell::mixOnly);
    SweepRunner runner(1);
    auto results = runner.run(plan);
    EXPECT_EQ(recorded, 1);
    EXPECT_EQ(runner.stats().tracesRecorded, 1u);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].traceKey, "dup");
    EXPECT_EQ(results[1].traceKey, "dup");
}

TEST(SweepRunner, ResultsAndStatsThreadCountInvariant)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::Idct, 4, false},
    };
    const int execs = 4;

    auto makePlan = [&]() {
        SweepPlan plan;
        plan.addConfig("2w", timing::CoreConfig::twoWayInOrder());
        plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
        for (const auto &spec : specs) {
            for (auto variant : {Variant::Altivec, Variant::Unaligned}) {
                int t = plan.addTrace(
                    core::kernelTraceJob(spec, variant, execs));
                plan.addCell(t, 0);
                plan.addCell(t, 1);
                plan.addCell(t, SweepCell::mixOnly);
            }
        }
        return plan;
    };

    auto planA = makePlan();
    auto planB = makePlan();
    SweepRunner one(1);
    SweepRunner four(4);
    auto a = one.run(planA);
    auto b = four.run(planB);
    EXPECT_EQ(one.threads(), 1);
    EXPECT_EQ(four.threads(), 4);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].traceKey, b[i].traceKey);
        EXPECT_EQ(a[i].configLabel, b[i].configLabel);
        EXPECT_EQ(a[i].traceInstrs, b[i].traceInstrs);
        expectSimEqual(a[i].sim, b[i].sim);
        expectMixEqual(a[i].mix, b[i].mix);
    }

    const auto &sa = one.stats();
    const auto &sb = four.stats();
    EXPECT_EQ(sa.threads, 1);
    EXPECT_GT(sb.threads, 1);
    EXPECT_EQ(sa.tracesRecorded, sb.tracesRecorded);
    EXPECT_EQ(sa.cellsRun, sb.cellsRun);
    EXPECT_EQ(sa.instrsRecorded, sb.instrsRecorded);
    EXPECT_EQ(sa.instrsReplayed, sb.instrsReplayed);
    EXPECT_EQ(sa.cellsRun, std::uint64_t(planA.cells().size()));
    EXPECT_EQ(sa.tracesRecorded,
              std::uint64_t(planA.traces().size()));
}

TEST(SweepRunner, SingleTimingCellGroupPopulatesAllCells)
{
    // One trace whose group mixes one timing cell with mix-only
    // cells, on both backends. A cold run streams the emulation
    // straight into the cell's one-cell batched model; a warm run
    // feeds that model from the store. Either way every cell is
    // filled, the timing cell matches the per-cell oracle over the
    // full counter table, and the group is one replay pass.
    for (const char *model : {"pipeline", "ooo"}) {
        SCOPED_TRACE(model);
        auto makePlan = [model] {
            SweepPlan plan;
            auto cfg = timing::CoreConfig::fourWayOoO();
            cfg.model = model;
            int c = plan.addConfig("4w", cfg);
            int t = plan.addTrace(core::kernelTraceJob(
                {KernelId::Sad, 8, false}, Variant::Unaligned, 4));
            plan.addCell(t, SweepCell::mixOnly);
            plan.addCell(t, c);
            plan.addCell(t, SweepCell::mixOnly);
            return plan;
        };
        const auto want = perCellOracle(makePlan());
        StoreDir dir((std::string("one_cell_") + model).c_str());

        SweepRunner cold(1);
        cold.attachStore(dir.path);
        const auto results = cold.run(makePlan());
        ASSERT_EQ(results.size(), 3u);
        expectResultsEqual(want, results);

        EXPECT_GT(results[1].sim.cycles, 0u);
        EXPECT_EQ(results[1].configLabel, "4w");
        for (const auto &cell : results) {
            EXPECT_FALSE(cell.traceKey.empty());
            EXPECT_GT(cell.mix.total(), 0u);
            EXPECT_EQ(cell.traceInstrs, results[1].traceInstrs);
            expectMixEqual(cell.mix, results[1].mix);
        }
        // Mix-only cells carry no simulation.
        EXPECT_EQ(results[0].sim.cycles, 0u);
        EXPECT_EQ(results[0].configLabel, "");
        EXPECT_EQ(results[2].sim.cycles, 0u);

        // The streamed pass counts its instructions as both recorded
        // and replayed, and its time as streamSeconds.
        const auto &cs = cold.stats();
        EXPECT_EQ(cs.tracesRecorded, 1u);
        EXPECT_EQ(cs.tracesStored, 1u);
        EXPECT_EQ(cs.cellsRun, 3u);
        EXPECT_EQ(cs.instrsRecorded, results[1].traceInstrs);
        EXPECT_EQ(cs.instrsReplayed, results[1].traceInstrs);
        EXPECT_EQ(cs.replayPasses, 1u);
        EXPECT_EQ(cs.replaySeconds, 0.0);

        SweepRunner warm(1);
        warm.attachStore(dir.path);
        expectResultsEqual(want, warm.run(makePlan()));
        const auto &ws = warm.stats();
        EXPECT_EQ(ws.tracesRecorded, 0u);
        EXPECT_EQ(ws.tracesLoaded, 1u);
        EXPECT_EQ(ws.instrsReplayed, results[1].traceInstrs);
        EXPECT_EQ(ws.replayPasses, 1u);
        EXPECT_GT(ws.decodeBytes, 0u);
        EXPECT_EQ(ws.streamSeconds, 0.0);
    }
}

namespace {

/// Mixed plan exercising every store path: multi-config replay
/// groups, a single-timing-cell (fused/stream) group, mix-only
/// groups, and a warmed-up state-sensitive scalar IDCT trace.
SweepPlan
makeStorePlan()
{
    SweepPlan plan;
    int c2 = plan.addConfig("2w", timing::CoreConfig::twoWayInOrder());
    int c4 = plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
    const KernelSpec sad{KernelId::Sad, 16, false};
    const KernelSpec idct{KernelId::Idct, 4, false};
    const int execs = 4;

    int multi = plan.addTrace(
        core::kernelTraceJob(sad, Variant::Unaligned, execs));
    plan.addCell(multi, c2);
    plan.addCell(multi, c4);
    plan.addCell(multi, SweepCell::mixOnly);

    int fused = plan.addTrace(
        core::kernelTraceJob(sad, Variant::Altivec, execs));
    plan.addCell(fused, c4);

    int mix_only = plan.addTrace(
        core::kernelTraceJob(idct, Variant::Unaligned, execs));
    plan.addCell(mix_only, SweepCell::mixOnly);

    int warmed = plan.addTrace(
        core::kernelTraceJob(idct, Variant::Scalar, execs, 12345, 2));
    plan.addCell(warmed, c2);
    plan.addCell(warmed, c4);
    return plan;
}


/// One trace group, 16 timing cells: the worst case for group-level
/// parallelism (pool collapses to one worker) and the best case for
/// intra-group cell sharding. Every cell has its own lvxu latency on
/// a trace that issues lvxu, so no two cells share an engine cell and
/// the group really has 16 cells to shard.
SweepPlan
makeSingleBigGroupPlan(int execs = 4)
{
    const KernelSpec spec{KernelId::Sad, 16, false};
    SweepPlan plan;
    int t = plan.addTrace(
        core::kernelTraceJob(spec, Variant::Unaligned, execs));
    for (int i = 0; i < 16; ++i) {
        auto cfg = (i % 2) ? timing::CoreConfig::fourWayOoO()
                           : timing::CoreConfig::twoWayInOrder();
        cfg.lat.unalignedLoadExtra = i;
        plan.addCell(t, plan.addConfig("c" + std::to_string(i), cfg));
    }
    return plan;
}

} // namespace

TEST(SweepStore, WarmRunReplaysFromDiskBitIdentical)
{
    StoreDir dir("warm");
    auto baseline = SweepRunner(1).run(makeStorePlan());

    SweepRunner cold(1);
    cold.attachStore(dir.path);
    auto coldResults = cold.run(makeStorePlan());
    expectResultsEqual(baseline, coldResults);
    const auto &cs = cold.stats();
    EXPECT_EQ(cs.tracesRecorded, 4u);
    EXPECT_EQ(cs.tracesStored, 4u);
    EXPECT_EQ(cs.tracesLoaded, 0u);

    SweepRunner warm(1);
    warm.attachStore(dir.path);
    auto warmResults = warm.run(makeStorePlan());
    expectResultsEqual(baseline, warmResults);
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesRecorded, 0u) << "warm run must re-record "
                                        "zero traces";
    EXPECT_EQ(ws.tracesLoaded, 4u);
    EXPECT_EQ(ws.tracesStored, 0u);
    EXPECT_EQ(ws.instrsRecorded, 0u);
    EXPECT_EQ(ws.instrsLoaded, cs.instrsRecorded);
    // A store hit changes where the records come from, never how
    // many times the group replays them or what gets simulated.
    EXPECT_EQ(ws.replayPasses, cs.replayPasses);
    EXPECT_EQ(ws.instrsReplayed, cs.instrsReplayed);

    // Warm with a thread pool: still bit-identical, still zero
    // re-recording.
    SweepRunner warm4(4);
    warm4.attachStore(dir.path);
    expectResultsEqual(baseline, warm4.run(makeStorePlan()));
    EXPECT_EQ(warm4.stats().tracesRecorded, 0u);
}

TEST(SweepStore, CorruptEntryFallsBackToRecordingAndHeals)
{
    StoreDir dir("heal");
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    auto baseline = cold.run(makeStorePlan());

    // Truncate one published entry (the multi-cell SAD trace).
    const auto plan = makeStorePlan();
    const std::string victim = plan.traces()[0].key;
    const auto path = cold.store()->entryPath(victim);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    SweepRunner heal(1);
    heal.attachStore(dir.path);
    auto healed = heal.run(makeStorePlan());
    expectResultsEqual(baseline, healed);
    EXPECT_EQ(heal.stats().tracesRecorded, 1u);
    EXPECT_EQ(heal.stats().tracesLoaded, 3u);
    EXPECT_EQ(heal.stats().tracesStored, 1u);

    // The re-recorded entry is valid again.
    SweepRunner warm(1);
    warm.attachStore(dir.path);
    expectResultsEqual(baseline, warm.run(makeStorePlan()));
    EXPECT_EQ(warm.stats().tracesLoaded, 4u);
}

TEST(SweepStore, UnknownTimingModelKeepsStoreEntries)
{
    // A run that fails on its configuration, not on its input, must
    // leave valid store entries where they are. A one-cell group
    // builds its model before it would re-record, so a discarded
    // entry would stay lost.
    auto makePlan = [] {
        SweepPlan plan;
        int t = plan.addTrace(core::kernelTraceJob(
            {KernelId::Sad, 8, false}, Variant::Unaligned, 4));
        plan.addCell(
            t, plan.addConfig("4w", timing::CoreConfig::fourWayOoO()));
        return plan;
    };
    StoreDir dir("bad_model");
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    const auto want = cold.run(makePlan());

    SweepRunner bad(1);
    bad.attachStore(dir.path);
    bad.setTimingModel("no-such-model");
    EXPECT_THROW(bad.run(makePlan()), std::invalid_argument);
    EXPECT_TRUE(std::filesystem::exists(
        cold.store()->entryPath(makePlan().traces()[0].key)));

    SweepRunner warm(1);
    warm.attachStore(dir.path);
    expectResultsEqual(want, warm.run(makePlan()));
    EXPECT_EQ(warm.stats().tracesLoaded, 1u);

    // A cold multi-cell group must fail before it emulates, so no
    // entry is published for a run that cannot replay it.
    StoreDir fresh("bad_model_cold");
    SweepRunner coldBad(1);
    coldBad.attachStore(fresh.path);
    coldBad.setTimingModel("no-such-model");
    SweepPlan twoCells = makePlan();
    twoCells.addCell(
        0, twoCells.addConfig("2w", timing::CoreConfig::twoWayInOrder()));
    EXPECT_THROW(coldBad.run(twoCells), std::invalid_argument);
    EXPECT_TRUE(std::filesystem::is_empty(fresh.path));
}

TEST(SweepStore, NonCacheableJobsBypassTheStore)
{
    StoreDir dir("nocache");
    int runs = 0;
    auto makePlan = [&runs]() {
        SweepPlan plan;
        plan.addTrace({"side-effect", [&runs](trace::TraceSink &) {
                           ++runs;
                       },
                       /*cacheable=*/false});
        plan.addCell(0, SweepCell::mixOnly);
        return plan;
    };

    SweepRunner first(1);
    first.attachStore(dir.path);
    first.run(makePlan());
    SweepRunner second(1);
    second.attachStore(dir.path);
    second.run(makePlan());

    EXPECT_EQ(runs, 2) << "non-cacheable jobs must run every time";
    EXPECT_EQ(first.stats().tracesStored, 0u);
    EXPECT_EQ(second.stats().tracesLoaded, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(SweepTraceJob, WarmupReproducesSharedBenchHistory)
{
    // Scalar IDCT traces depend on the bench's accumulated plane
    // state; a warmed-up trace job must reproduce the hand-rolled
    // shared-bench call sequence exactly.
    const KernelSpec spec{KernelId::Idct, 4, false};
    EXPECT_FALSE(spec.traceStateInvariant(Variant::Scalar));
    EXPECT_TRUE(spec.traceStateInvariant(Variant::Altivec));

    const int execs = 4;
    auto cfg = timing::CoreConfig::twoWayInOrder();

    KernelBench shared(spec);
    shared.advanceState(Variant::Scalar, execs);
    shared.advanceState(Variant::Scalar, execs);
    auto want = shared.simulate(Variant::Scalar, cfg, execs);

    auto job = core::kernelTraceJob(spec, Variant::Scalar, execs,
                                    12345, 2);
    timing::ReferencePipeline sim(cfg);
    job.record(sim);
    expectSimEqual(want, sim.finalize());
}

// ---- replay against the per-cell oracle ----

TEST(SweepReplay, MatchesPerCellOracleWithOnePassPerGroup)
{
    SweepRunner runner(1);
    const auto got = runner.run(makeStorePlan());
    const auto want = perCellOracle(makeStorePlan());
    expectResultsEqual(want, got);

    // makeStorePlan groups: two multi-cell (2 timing cells each), one
    // single-cell, one mix-only. Each group with timing cells replays
    // in ONE pass at one thread; mix-only groups replay nothing.
    EXPECT_EQ(runner.stats().replayPasses, 3u);

    // The simulated instrsReplayed accounting (instructions times
    // timing cells) must NOT depend on the pass count - it gates
    // bit-exactly in uasim-report.
    std::uint64_t timingInstrs = 0;
    for (const auto &cell : want) {
        if (!cell.configLabel.empty())
            timingInstrs += cell.traceInstrs;
    }
    EXPECT_EQ(runner.stats().instrsReplayed, timingInstrs);
    EXPECT_EQ(runner.stats().cellsRun, std::uint64_t(want.size()));
}

TEST(SweepReplay, ThreadCountInvariant)
{
    auto runWith = [](int threads) {
        SweepRunner runner(threads);
        auto results = runner.run(makeStorePlan());
        return std::pair(std::move(results), runner.stats());
    };
    auto [r1, s1] = runWith(1);
    auto [r4, s4] = runWith(4);

    expectResultsEqual(r1, r4);
    expectResultsEqual(perCellOracle(makeStorePlan()), r4);
    EXPECT_EQ(s1.replayPasses, s4.replayPasses);
    EXPECT_EQ(s1.instrsReplayed, s4.instrsReplayed);
}

TEST(SweepReplay, SingleCellAndMixOnlyPassAccounting)
{
    // Single-timing-cell group: one streamed pass.
    SweepPlan fused;
    int cfg = fused.addConfig("4w", timing::CoreConfig::fourWayOoO());
    KernelBench bench({KernelId::Sad, 8, false});
    fused.addTrace(bench.traceJob(Variant::Unaligned, 4));
    fused.addCell(0, cfg);
    SweepRunner runner(1);
    runner.run(fused);
    EXPECT_EQ(runner.stats().replayPasses, 1u);

    // Mix-only group: no replay at all.
    SweepPlan mixOnly;
    KernelBench bench2({KernelId::Sad, 8, false});
    mixOnly.addTrace(bench2.traceJob(Variant::Unaligned, 4));
    mixOnly.addCell(0, SweepCell::mixOnly);
    SweepRunner mixRunner(1);
    mixRunner.run(mixOnly);
    EXPECT_EQ(mixRunner.stats().replayPasses, 0u);
}

// ---- intra-group cell sharding (single big group) ----

TEST(SweepSharding, SingleBigGroupUsesFullThreadBudget)
{
    // Before sharding, a 1-group sweep at --threads 8 ran on one
    // thread (the pool is sized by group count). Now the group's 16
    // cells split across min(threads, cells) replay shards - more
    // than one worker must participate, bit-identically.
    SweepRunner one(1);
    SweepRunner eight(8);
    auto a = one.run(makeSingleBigGroupPlan());
    auto b = eight.run(makeSingleBigGroupPlan());
    expectResultsEqual(a, b);
    expectResultsEqual(perCellOracle(makeSingleBigGroupPlan()), b);

    // 1 thread: one batched pass over the group. 8 threads: 8 shards,
    // each running its own pass - honest pass accounting - and
    // stats().threads reports the fan-out actually used.
    EXPECT_EQ(one.stats().replayPasses, 1u);
    EXPECT_EQ(one.stats().threads, 1);
    EXPECT_EQ(eight.stats().replayPasses, 8u);
    EXPECT_EQ(eight.stats().threads, 8);

    // The simulated accounting is shard-invariant (it gates).
    EXPECT_EQ(one.stats().instrsReplayed, eight.stats().instrsReplayed);
    EXPECT_EQ(one.stats().cellsRun, eight.stats().cellsRun);
    EXPECT_EQ(one.stats().instrsRecorded, eight.stats().instrsRecorded);
}

TEST(SweepSharding, WarmStoreShardedReplayBitIdenticalAndAccounted)
{
    StoreDir dir("sharded_warm");
    auto baseline = SweepRunner(1).run(makeSingleBigGroupPlan());

    SweepRunner cold(8);
    cold.attachStore(dir.path);
    expectResultsEqual(baseline, cold.run(makeSingleBigGroupPlan()));
    EXPECT_EQ(cold.stats().tracesRecorded, 1u);
    EXPECT_EQ(cold.stats().tracesLoaded, 0u);
    // Cold replay feeds already-decoded records from the in-memory
    // buffer; no payload bytes go through the block decoder.
    EXPECT_EQ(cold.stats().decodeBytes, 0u);
    EXPECT_EQ(cold.stats().bytesMapped, 0u);

    SweepRunner warm(8);
    warm.attachStore(dir.path);
    expectResultsEqual(baseline, warm.run(makeSingleBigGroupPlan()));
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesRecorded, 0u);
    EXPECT_EQ(ws.tracesLoaded, 1u);
    EXPECT_EQ(ws.replayPasses, 8u);
    EXPECT_EQ(ws.instrsReplayed, cold.stats().instrsReplayed);

    // Each shard decodes the whole payload (decode work counts per
    // pass); mapped bytes count once per opened trace.
    EXPECT_GT(ws.decodeBytes, 0u);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_GT(ws.bytesMapped, 0u);
    EXPECT_EQ(ws.decodeBytes, ws.replayPasses * ws.bytesMapped);
#endif
}

TEST(SweepSharding, MixedBackendAndGeometryGroupMatchesPerCell)
{
    // One trace x 8 cells that mix "pipeline" and "ooo" and two
    // predictor geometries: the batched factory splits each replay
    // slice by geometry. At 4 threads the group is cut into 4 shards of
    // 2 cells: mixed backends, mixed geometries, mixed backends, and
    // one uniform pipeline pair. Every run, from the in-memory buffer
    // or a warm store, must match per-cell replay.
    struct Cell {
        const char *model;
        int bpredLog2;
    };
    const Cell cells[] = {
        {"pipeline", 12}, {"ooo", 12},      {"pipeline", 2},
        {"pipeline", 12}, {"ooo", 2},       {"pipeline", 2},
        {"pipeline", 12}, {"pipeline", 12},
    };
    auto makePlan = [&cells] {
        SweepPlan plan;
        // A branchy trace, so the two predictor geometries disagree.
        int t = plan.addTrace(core::kernelTraceJob(
            {KernelId::Idct, 4, false}, Variant::Unaligned, 4));
        for (int i = 0; i < 8; ++i) {
            auto cfg = timing::CoreConfig::preset(i % 3);
            cfg.model = cells[i].model;
            cfg.bpredLog2Entries = cells[i].bpredLog2;
            cfg.lat.unalignedLoadExtra = i % 5;
            plan.addCell(t, plan.addConfig("c" + std::to_string(i), cfg));
        }
        return plan;
    };

    const auto want = perCellOracle(makePlan());
    ASSERT_EQ(want.size(), 8u);

    StoreDir dir("mixed_group");
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    expectResultsEqual(want, cold.run(makePlan()));
    EXPECT_EQ(cold.stats().tracesRecorded, 1u);

    for (bool warmStore : {false, true}) {
        for (int threads : {1, 4}) {
            SCOPED_TRACE(std::string(warmStore ? "warm store" : "memory") +
                         ", " + std::to_string(threads) + " threads");
            SweepRunner runner(threads);
            if (warmStore)
                runner.attachStore(dir.path);
            expectResultsEqual(want, runner.run(makePlan()));
            const auto &st = runner.stats();
            EXPECT_EQ(st.replayPasses, std::uint64_t(threads));
            EXPECT_EQ(st.instrsReplayed, 8 * want[0].traceInstrs);
            if (warmStore) {
                EXPECT_EQ(st.tracesRecorded, 0u);
                EXPECT_EQ(st.tracesLoaded, 1u);
            }
        }
    }
}

// ---- a store entry that passes its checksum but fails to decode ----

namespace {

/**
 * Rewrite @p key's store entry so its payload turns bad past the
 * runner's first 1024-record decode block: one record's class byte
 * becomes the out-of-range class 63, and the payload checksum is
 * recomputed, so the entry opens cleanly and fails mid-decode (the
 * corruption TraceIoCorruption.InvalidClassByteRejected plants).
 */
/// UATRACE2 file bytes for @p key, @p mix and @p payload with every
/// header hash computed, so the entry opens cleanly whatever the
/// payload and the mix say.
std::string
entryBytes(const std::string &key, std::uint64_t count,
           const trace::InstrMix &mix, const std::string &payload)
{
    trace::wire::Header h;
    h.keyBytes = std::uint32_t(key.size());
    h.recordCount = count;
    h.payloadBytes = payload.size();
    h.payloadHash = trace::wire::fnv1a(payload.data(), payload.size());
    h.keyHash = trace::wire::fnv1a(key.data(), key.size());
    const std::string section = trace::wire::serializeMix(mix);
    h.mixHash = trace::wire::fnv1a(section.data(), section.size());
    return h.serialize() + key + section + payload;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

void
plantBadClassByte(const trace::TraceStore &store, const std::string &key)
{
    const std::string path = store.entryPath(key);
    const std::string file = readFile(path);
    trace::TraceReader reader(path, key);
    ASSERT_GT(reader.count(), 1100u) << "trace too short to fail "
                                        "past the first decode block";
    const std::size_t payloadAt = file.size() - reader.payloadBytes();
    std::string payload = file.substr(payloadAt);

    // Walk to a record boundary inside the second decode block.
    const std::uint64_t victim = 1024 + (reader.count() - 1024) / 2;
    const auto *base = reinterpret_cast<const std::uint8_t *>(payload.data());
    const std::uint8_t *p = base;
    trace::wire::RecordDecoder dec;
    trace::InstrRecord rec;
    for (std::uint64_t i = 0; i < victim; ++i)
        dec.decode(p, base + payload.size(), rec);

    // The rebuild reproduces the writer's layout byte for byte.
    ASSERT_TRUE(entryBytes(key, reader.count(), reader.mix(), payload) ==
                file);
    payload[std::size_t(p - base)] = char(0x3f);  // cls 63
    writeFile(path,
              entryBytes(key, reader.count(), reader.mix(), payload));
}

/**
 * Rewrite @p key's store entry so its mix section moves @p moved
 * VecLoadU counts to VecLoad: the total and every hash stay valid,
 * so the entry opens cleanly and reports a mix its payload does not
 * have.
 */
void
plantMovedLvxuCounts(const trace::TraceStore &store, const std::string &key,
                     std::uint64_t moved)
{
    const std::string path = store.entryPath(key);
    const std::string file = readFile(path);
    trace::TraceReader reader(path, key);
    const std::string payload =
        file.substr(file.size() - reader.payloadBytes());
    trace::InstrMix mix;
    for (int c = 0; c < trace::numInstrClasses; ++c) {
        auto cls = static_cast<trace::InstrClass>(c);
        std::uint64_t n = reader.mix().count(cls);
        if (cls == trace::InstrClass::VecLoadU) {
            ASSERT_GE(n, moved);
            n -= moved;
        } else if (cls == trace::InstrClass::VecLoad) {
            n += moved;
        }
        mix.add(cls, n);
    }
    writeFile(path, entryBytes(key, reader.count(), mix, payload));
}

} // namespace

TEST(SweepStore, MidDecodeFailureFallsBackToRecordingAndHeals)
{
    // A one-cell group (one streamed pass) and the 16-cell big group
    // at 8 threads (8 cursor shards over one mapping): either way the
    // failed store hit is discarded, the group re-records and stores
    // a healed entry, and the failed passes leave no trace in stats.
    for (bool bigGroup : {false, true}) {
        SCOPED_TRACE(bigGroup ? "16-cell group, 8 threads"
                              : "one-cell group, 1 thread");
        // 16 executions: a trace of more than two decode blocks.
        auto makePlan = [bigGroup] {
            if (bigGroup)
                return makeSingleBigGroupPlan(16);
            SweepPlan plan;
            int t = plan.addTrace(core::kernelTraceJob(
                {KernelId::Sad, 16, false}, Variant::Unaligned, 16));
            plan.addCell(
                t, plan.addConfig("4w", timing::CoreConfig::fourWayOoO()));
            return plan;
        };
        const int threads = bigGroup ? 8 : 1;
        StoreDir dir(bigGroup ? "mid_decode_big" : "mid_decode_one");
        const auto want = perCellOracle(makePlan());

        SweepRunner cold(threads);
        cold.attachStore(dir.path);
        expectResultsEqual(want, cold.run(makePlan()));
        ASSERT_EQ(cold.stats().tracesStored, 1u);
        plantBadClassByte(*cold.store(), makePlan().traces()[0].key);
        if (HasFatalFailure())
            return;

        SweepRunner heal(threads);
        heal.attachStore(dir.path);
        expectResultsEqual(want, heal.run(makePlan()));
        const auto &hs = heal.stats();
        EXPECT_EQ(hs.tracesRecorded, 1u);
        EXPECT_EQ(hs.tracesLoaded, 0u);
        EXPECT_EQ(hs.tracesStored, 1u);
        EXPECT_EQ(hs.instrsLoaded, 0u);
        EXPECT_EQ(hs.decodeSeconds, 0.0);
        EXPECT_EQ(hs.decodeBytes, 0u);
        EXPECT_EQ(hs.bytesMapped, 0u);
        EXPECT_EQ(hs.replayPasses, cold.stats().replayPasses);
        EXPECT_EQ(hs.instrsReplayed, cold.stats().instrsReplayed);

        // The next run loads the healed entry.
        SweepRunner warm(threads);
        warm.attachStore(dir.path);
        expectResultsEqual(want, warm.run(makePlan()));
        EXPECT_EQ(warm.stats().tracesRecorded, 0u);
        EXPECT_EQ(warm.stats().tracesLoaded, 1u);
    }
}

// ---- cells that share one engine cell ----

namespace {

/// Fig 9 in small: the altivec and unaligned variants of one kernel,
/// each on both backends at three lvxu/stvxu latencies. Every config
/// is named after its label, as campaigns name theirs.
SweepPlan
makeFig9Plan()
{
    SweepPlan plan;
    std::vector<int> configs;
    for (const char *model : {"pipeline", "ooo"}) {
        for (int extra : {0, 2, 6}) {
            auto cfg = timing::CoreConfig::fourWayOoO();
            cfg.model = model;
            cfg.lat.unalignedLoadExtra = extra;
            cfg.lat.unalignedStoreExtra = extra;
            cfg.name = std::string(model) + "/+" + std::to_string(extra);
            configs.push_back(plan.addConfig(cfg.name, cfg));
        }
    }
    for (auto variant : {Variant::Altivec, Variant::Unaligned}) {
        int t = plan.addTrace(core::kernelTraceJob(
            {KernelId::Sad, 16, false}, variant, 4));
        for (int c : configs)
            plan.addCell(t, c);
    }
    return plan;
}

/// The altivec group's 6 cells share 2 engine cells (one per
/// backend); the unaligned group's 6 are all distinct.
constexpr std::uint64_t fig9DistinctConfigs = 2 + 6;

} // namespace

TEST(SweepDedup, Fig9GridMatchesPerCellOracleColdAndWarm)
{
    const auto want = perCellOracle(makeFig9Plan());
    ASSERT_EQ(want.size(), 12u);
    // The plan's premise: the altivec trace issues no lvxu/stvxu, the
    // unaligned one does, and there its latency changes the cycles.
    EXPECT_EQ(want[0].mix.count(trace::InstrClass::VecLoadU), 0u);
    EXPECT_EQ(want[0].mix.count(trace::InstrClass::VecStoreU), 0u);
    EXPECT_GT(want[6].mix.count(trace::InstrClass::VecLoadU), 0u);
    EXPECT_NE(want[6].sim.cycles, want[7].sim.cycles);
    std::uint64_t allCellsInstrs = 0;
    for (const auto &cell : want)
        allCellsInstrs += cell.traceInstrs;

    StoreDir dir("dedup_fig9");
    // 12 threads: each group's shard budget (6) covers all its cells,
    // so every distinct config gets its own pass; 1 thread: one pass
    // per group.
    const struct {
        bool warm;
        int threads;
        std::uint64_t passes;
    } runs[] = {
        {false, 12, fig9DistinctConfigs},
        {true, 12, fig9DistinctConfigs},
        {true, 1, 2},
    };
    for (const auto &r : runs) {
        SCOPED_TRACE(std::string(r.warm ? "warm, " : "cold, ") +
                     std::to_string(r.threads) + " threads");
        SweepRunner runner(r.threads);
        runner.attachStore(dir.path);
        const auto got = runner.run(makeFig9Plan());
        expectResultsEqual(want, got);
        for (const auto &cell : got)
            EXPECT_EQ(cell.sim.core, cell.configLabel);
        const auto &st = runner.stats();
        EXPECT_EQ(st.tracesLoaded, r.warm ? 2u : 0u);
        EXPECT_EQ(st.cellsRun, 12u);
        EXPECT_EQ(st.instrsReplayed, allCellsInstrs);
        EXPECT_EQ(st.replayPasses, r.passes);
    }
}

TEST(SweepStore, StoredMixDisagreeingWithPayloadReRecords)
{
    // The dedup trusts a store entry's mix before the pass, so a mix
    // section that lies about lvxu is caught at the end of that pass:
    // the entry is discarded and re-recorded, and every cell matches
    // the per-cell oracle. Moving one count is the smallest lie;
    // moving all of them would merge the unaligned group's latency
    // cells if the lie went unchecked.
    const auto want = perCellOracle(makeFig9Plan());
    const std::string key = makeFig9Plan().traces()[1].key;
    for (bool all : {false, true}) {
        SCOPED_TRACE(all ? "every lvxu count moved" : "one lvxu count moved");
        StoreDir dir(all ? "mix_lie_all" : "mix_lie_one");
        SweepRunner cold(1);
        cold.attachStore(dir.path);
        expectResultsEqual(want, cold.run(makeFig9Plan()));
        const std::uint64_t lvxu =
            want[6].mix.count(trace::InstrClass::VecLoadU);
        plantMovedLvxuCounts(*cold.store(), key, all ? lvxu : 1);
        if (HasFatalFailure())
            return;

        SweepRunner warm(1);
        warm.attachStore(dir.path);
        expectResultsEqual(want, warm.run(makeFig9Plan()));
        const auto &ws = warm.stats();
        EXPECT_EQ(ws.tracesLoaded, 1u);
        EXPECT_EQ(ws.tracesRecorded, 1u);
        EXPECT_EQ(ws.tracesStored, 1u);

        // The re-recorded entry carries the payload's own mix.
        trace::TraceReader healed(cold.store()->entryPath(key), key);
        expectMixEqual(healed.mix(), want[6].mix);
    }
}
