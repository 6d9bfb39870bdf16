/**
 * @file
 * Locks the sweep engine's guarantees (core/sweep.hh):
 *  - replaying a recorded trace into PipelineSim is bit-identical to
 *    streaming the emulation into the model directly;
 *  - results and SweepStats cell/instruction counts are identical for
 *    1 and N worker threads;
 *  - duplicate addTrace keys dedupe to one recording;
 *  - a group whose single timing cell takes the streamed fast path
 *    still populates every mix-only cell and accounts its
 *    instructions as both recorded and replayed;
 *  - kernelTraceJob's warmupCalls reproduces shared-bench history;
 *  - a group mixing backends and predictor geometries replays
 *    bit-identically to per-cell replay, sharded or not, from memory
 *    or from the store;
 *  - with a persistent store attached, a warm run replays every
 *    cacheable trace from disk with zero re-emulation and results
 *    bit-identical to the in-memory path, corrupt entries fall back
 *    to re-recording, and non-cacheable jobs bypass the store.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "timing/pipeline.hh"
#include "trace/trace_buffer.hh"

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

            timing::PipelineSim sim(cfg);
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
    // One trace whose group mixes a streamed timing cell with
    // mix-only cells: the fast path must fill every cell and count
    // its instructions as both recorded and replayed.
    SweepPlan plan;
    int cfg = plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
    KernelBench bench({KernelId::Sad, 8, false});
    int t = plan.addTrace(bench.traceJob(Variant::Unaligned, 4));
    plan.addCell(t, SweepCell::mixOnly);
    plan.addCell(t, cfg);
    plan.addCell(t, SweepCell::mixOnly);

    SweepRunner runner(1);
    auto results = runner.run(plan);
    ASSERT_EQ(results.size(), 3u);

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

    const auto &stats = runner.stats();
    EXPECT_EQ(stats.tracesRecorded, 1u);
    EXPECT_EQ(stats.cellsRun, 3u);
    EXPECT_EQ(stats.instrsRecorded, results[1].traceInstrs);
    EXPECT_EQ(stats.instrsReplayed, results[1].traceInstrs);

    // The streamed result is the same one the buffered path produces.
    SweepPlan buffered;
    int c2 = buffered.addConfig("4w",
                                timing::CoreConfig::fourWayOoO());
    KernelBench bench2({KernelId::Sad, 8, false});
    int t2 = buffered.addTrace(bench2.traceJob(Variant::Unaligned, 4));
    buffered.addCell(t2, c2);
    buffered.addCell(t2, c2);  // two timing cells force the buffer
    SweepRunner bufRunner(1);
    auto bufResults = bufRunner.run(buffered);
    ASSERT_EQ(bufResults.size(), 2u);
    expectSimEqual(results[1].sim, bufResults[0].sim);
    expectSimEqual(bufResults[0].sim, bufResults[1].sim);
    EXPECT_EQ(bufRunner.stats().instrsReplayed,
              2 * bufResults[0].traceInstrs);
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
    timing::PipelineSim sim(cfg);
    job.record(sim);
    expectSimEqual(want, sim.finalize());
}

// ---- replay modes (batched vs per-cell) ----

TEST(SweepReplayMode, ParseAndName)
{
    core::ReplayMode mode;
    ASSERT_TRUE(core::parseReplayMode("batched", mode));
    EXPECT_EQ(mode, core::ReplayMode::Batched);
    ASSERT_TRUE(core::parseReplayMode("percell", mode));
    EXPECT_EQ(mode, core::ReplayMode::PerCell);
    EXPECT_FALSE(core::parseReplayMode("", mode));
    EXPECT_FALSE(core::parseReplayMode("Batched", mode));
    EXPECT_FALSE(core::parseReplayMode("per-cell", mode));
    EXPECT_STREQ(core::replayModeName(core::ReplayMode::Batched),
                 "batched");
    EXPECT_STREQ(core::replayModeName(core::ReplayMode::PerCell),
                 "percell");
}

TEST(SweepReplayMode, BatchedIsTheDefaultAndBitIdenticalToPerCell)
{
    SweepRunner batched(1);
    EXPECT_EQ(batched.replayMode(), core::ReplayMode::Batched);
    auto a = batched.run(makeStorePlan());

    SweepRunner percell(1);
    percell.setReplayMode(core::ReplayMode::PerCell);
    auto b = percell.run(makeStorePlan());
    expectResultsEqual(a, b);

    // makeStorePlan groups: two multi-cell (2 timing cells each), one
    // fused single-cell, one mix-only. Batched replays each multi-
    // cell group in ONE pass; percell re-walks the buffer per cell.
    // Mix-only groups replay nothing in either mode.
    EXPECT_EQ(batched.stats().replayPasses, 3u);
    EXPECT_EQ(percell.stats().replayPasses, 5u);

    // The simulated instrsReplayed accounting (instructions times
    // timing cells) must NOT depend on the pass count - it gates
    // bit-exactly in uasim-report.
    EXPECT_EQ(batched.stats().instrsReplayed,
              percell.stats().instrsReplayed);
    EXPECT_EQ(batched.stats().cellsRun, percell.stats().cellsRun);
    EXPECT_EQ(batched.stats().instrsRecorded,
              percell.stats().instrsRecorded);
}

TEST(SweepReplayMode, ThreadCountInvariantInBothModes)
{
    auto runWith = [](core::ReplayMode mode, int threads) {
        SweepRunner runner(threads);
        runner.setReplayMode(mode);
        auto results = runner.run(makeStorePlan());
        return std::pair(std::move(results), runner.stats());
    };
    auto [b1, sb1] = runWith(core::ReplayMode::Batched, 1);
    auto [b4, sb4] = runWith(core::ReplayMode::Batched, 4);
    auto [p1, sp1] = runWith(core::ReplayMode::PerCell, 1);
    auto [p4, sp4] = runWith(core::ReplayMode::PerCell, 4);

    expectResultsEqual(b1, b4);
    expectResultsEqual(b1, p1);
    expectResultsEqual(b1, p4);

    EXPECT_EQ(sb1.replayPasses, sb4.replayPasses);
    EXPECT_EQ(sp1.replayPasses, sp4.replayPasses);
    EXPECT_EQ(sb1.instrsReplayed, sp4.instrsReplayed);
}

TEST(SweepReplayMode, ColdWarmStoreBitIdenticalUnderBatched)
{
    StoreDir dir("batched_warm");
    auto baseline = SweepRunner(1).run(makeStorePlan());

    SweepRunner cold(1);
    cold.attachStore(dir.path);
    auto coldResults = cold.run(makeStorePlan());
    expectResultsEqual(baseline, coldResults);
    const auto &cs = cold.stats();
    EXPECT_EQ(cs.tracesRecorded, 4u);
    EXPECT_EQ(cs.tracesLoaded, 0u);

    SweepRunner warm(1);
    warm.attachStore(dir.path);
    auto warmResults = warm.run(makeStorePlan());
    expectResultsEqual(baseline, warmResults);
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesRecorded, 0u);
    EXPECT_EQ(ws.tracesLoaded, 4u);

    // A store hit changes where the records come from, never how
    // many times the group replays them or what gets simulated.
    EXPECT_EQ(ws.replayPasses, cs.replayPasses);
    EXPECT_EQ(ws.instrsReplayed, cs.instrsReplayed);

    // Warm per-cell replay agrees too (store-hit percell path).
    SweepRunner warmPercell(1);
    warmPercell.setReplayMode(core::ReplayMode::PerCell);
    warmPercell.attachStore(dir.path);
    expectResultsEqual(baseline, warmPercell.run(makeStorePlan()));
    EXPECT_EQ(warmPercell.stats().tracesLoaded, 4u);
    EXPECT_GT(warmPercell.stats().replayPasses, ws.replayPasses);
}

TEST(SweepReplayMode, SingleCellAndMixOnlyPassAccounting)
{
    // Fused single-timing-cell group: one streamed pass.
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

namespace {

/// One trace group, 16 timing cells: the worst case for group-level
/// parallelism (pool collapses to one worker) and the best case for
/// intra-group cell sharding.
SweepPlan
makeSingleBigGroupPlan()
{
    const KernelSpec spec{KernelId::Sad, 16, false};
    SweepPlan plan;
    int t = plan.addTrace(core::kernelTraceJob(spec, Variant::Unaligned, 4));
    for (int i = 0; i < 16; ++i) {
        auto cfg = (i % 2) ? timing::CoreConfig::fourWayOoO()
                           : timing::CoreConfig::twoWayInOrder();
        plan.addCell(t, plan.addConfig("c" + std::to_string(i), cfg));
    }
    return plan;
}

} // namespace

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

    // PerCell mode shards too and stays bit-identical: 8 shards of 2
    // cells, each cell still its own pass.
    SweepRunner percell(8);
    percell.setReplayMode(core::ReplayMode::PerCell);
    expectResultsEqual(a, percell.run(makeSingleBigGroupPlan()));
    EXPECT_EQ(percell.stats().replayPasses, 16u);
    EXPECT_EQ(percell.stats().threads, 8);
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
    // slice by engine. At 4 threads the group is cut into 4 shards of
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

    SweepRunner percell(1);
    percell.setReplayMode(core::ReplayMode::PerCell);
    const auto want = percell.run(makePlan());
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
            EXPECT_EQ(st.instrsReplayed, percell.stats().instrsReplayed);
            if (warmStore) {
                EXPECT_EQ(st.tracesRecorded, 0u);
                EXPECT_EQ(st.tracesLoaded, 1u);
            }
        }
    }
}
