/**
 * @file
 * Differential harness for the batched replay engine
 * (timing/batched_pipeline.hh): for any record stream and any config
 * grid of "pipeline" and "ooo" cells, BatchedPipelineSim must produce
 * per-cell SimResults bit-identical to one test-only reference model
 * per config (ReferencePipeline, tests/reference_pipeline.hh) fed the
 * same stream. Coverage:
 *  - real kernel traces (KernelBench::recordTrace) across the paper
 *    presets under both backends and randomized (seeded) config grids
 *    that mutate every CoreConfig knob, the backend and the "ooo"
 *    knobs (issueWidth, storeSetLog2, memReplayPenalty) included,
 *    with inflight windows spanning the 1024-entry producer-ready-ring
 *    boundary;
 *  - a store-set stream on which the "ooo" oracle really speculates,
 *    replays and then waits on trained pairs;
 *  - degenerate grids: a single cell, duplicate configs;
 *  - synthetic dependence chains long enough to wrap the ready ring;
 *  - append() vs appendBlock() chunk-boundary equivalence and the
 *    empty stream;
 *  - the enforced constructor precondition: invalid configs, unknown
 *    backends and mixed predictor geometries throw before anything
 *    is sized;
 *  - CoreConfig::canonicalFor soundness: on every paper kernel trace
 *    a random config and its canonical form give identical results,
 *    and on a misaligned-lvxu trace the knob it may reset does move
 *    the cycles.
 * Every comparison iterates core::simResultFields(), so a counter
 * added to SimResult is automatically diffed here — modeling it in
 * one engine but not the other fails the harness by construction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "reference_pipeline.hh"
#include "timing/batched_pipeline.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"

using namespace uasim;
using core::KernelBench;
using core::KernelSpec;
using h264::KernelId;
using h264::Variant;
using timing::BatchedPipelineSim;
using timing::CoreConfig;
using trace::InstrClass;
using trace::InstrRecord;

namespace {

/// Per-cell oracle: one fresh reference model per config over the
/// stream (its issue policy chosen by CoreConfig::model).
std::vector<timing::SimResult>
perCellResults(const std::vector<CoreConfig> &cfgs,
               const std::vector<InstrRecord> &records)
{
    std::vector<timing::SimResult> out;
    out.reserve(cfgs.size());
    for (const auto &cfg : cfgs) {
        timing::ReferencePipeline sim(cfg);
        for (const auto &rec : records)
            sim.append(rec);
        out.push_back(sim.finalize());
    }
    return out;
}

/// Batched run over the same stream, fed through appendBlock.
std::vector<timing::SimResult>
batchedResults(const std::vector<CoreConfig> &cfgs,
               const std::vector<InstrRecord> &records)
{
    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    return batch.finalizeAll();
}

/// Compare two SimResults counter-by-counter via the shared field
/// table (core/result.hh), so new counters cannot dodge the diff.
void
expectFieldsIdentical(const timing::SimResult &want,
                      const timing::SimResult &got,
                      const std::string &label)
{
    EXPECT_EQ(want.core, got.core) << label;
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(want.*(f.member), got.*(f.member))
            << label << ": counter " << f.name;
}

/// The harness proper: batched vs per-cell over one stream.
void
expectBitIdentical(const std::vector<CoreConfig> &cfgs,
                   const std::vector<InstrRecord> &records,
                   const std::string &label)
{
    auto want = perCellResults(cfgs, records);
    auto got = batchedResults(cfgs, records);
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i)
        expectFieldsIdentical(want[i], got[i],
                              label + " cell " + std::to_string(i) +
                                  " (" + cfgs[i].name + ")");
}

/// Record @p execs executions of a kernel into a plain record vector.
std::vector<InstrRecord>
kernelRecords(const KernelSpec &spec, Variant variant, int execs)
{
    trace::BufferSink sink;
    KernelBench bench(spec);
    bench.recordTrace(variant, execs, sink);
    return sink.records();
}

/**
 * Seeded random CoreConfig exercising every knob the timing model
 * reads. Values stay in plausible machine ranges (all >= 1 where the
 * model divides or reserves), but deliberately include tiny queues,
 * in-order cores with different lookaheads, single-ported caches, and
 * windows big enough to cross the 1024-entry ready-ring floor.
 */
CoreConfig
randomConfig(std::mt19937_64 &rng, int idx)
{
    auto pick = [&rng](int lo, int hi) {
        return int(lo + std::int64_t(rng() % std::uint64_t(hi - lo + 1)));
    };
    CoreConfig c = CoreConfig::preset(pick(0, 2));
    c.name = "rand" + std::to_string(idx);
    c.outOfOrder = (rng() & 1) != 0;
    c.inorderLookahead = pick(1, 8);
    c.fetchWidth = pick(1, 8);
    c.retireWidth = pick(1, 8);
    // One in four grids gets a window past the 1024 ready-ring floor.
    c.inflight = (rng() % 4 == 0) ? pick(1025, 2048) : pick(4, 256);
    c.issueQ = pick(2, 64);
    c.branchQ = pick(1, 16);
    c.ibuffer = pick(2, 48);
    c.units.fx = pick(1, 3);
    c.units.fp = pick(1, 2);
    c.units.ls = pick(1, 2);
    c.units.br = pick(1, 2);
    c.units.vi = pick(1, 2);
    c.units.vperm = pick(1, 2);
    c.units.vcmplx = pick(1, 2);
    c.gprPhys = pick(40, 4096);
    c.fprPhys = pick(40, 256);
    c.vprPhys = pick(40, 256);
    c.dReadPorts = pick(1, 3);
    c.dWritePorts = pick(1, 2);
    c.missMax = pick(1, 8);
    c.storeQ = pick(4, 32);
    c.lat.intMul = pick(1, 5);
    c.lat.fpAlu = pick(1, 8);
    c.lat.load = pick(1, 6);
    c.lat.unalignedLoadExtra = pick(0, 6);
    c.lat.unalignedStoreExtra = pick(0, 4);
    c.lat.mispredictPenalty = pick(4, 20);
    c.lat.branchResolve = pick(1, 4);
    c.lat.vecSimple = pick(1, 3);
    c.lat.vecPerm = pick(1, 3);
    c.lat.vecComplex = pick(1, 6);
    c.mem.parallelBanks = (rng() & 1) != 0;
    c.mem.l2Latency = pick(6, 20);
    c.mem.memLatency = pick(100, 300);
    // The backend and the "ooo" knobs ("pipeline" cells must ignore
    // the latter, which the oracle checks as well).
    c.model = (rng() & 1) != 0 ? "ooo" : "pipeline";
    c.issueWidth = pick(0, 8);
    c.storeSetLog2 = pick(1, 12);
    c.memReplayPenalty = pick(0, 12);
    return c;
}

/// Serial dependence chain of @p n IntAlu records (each depends on
/// its predecessor), long enough to wrap any ready ring under test.
std::vector<InstrRecord>
chainRecords(int n)
{
    std::vector<InstrRecord> recs;
    recs.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
        InstrRecord rec{};
        rec.id = std::uint64_t(i) + 1;
        rec.pc = 0x1000 + std::uint64_t(i % 64) * 4;
        rec.cls = InstrClass::IntAlu;
        if (i > 0)
            rec.deps[0] = rec.id - 1;
        recs.push_back(rec);
    }
    return recs;
}

} // namespace

TEST(BatchedReplay, PresetGridOnKernelTraces)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::Idct, 4, true},
    };
    const Variant variants[] = {Variant::Scalar, Variant::Altivec,
                                Variant::Unaligned};
    std::vector<CoreConfig> cfgs;
    for (const std::string model : {"pipeline", "ooo"}) {
        for (int p = 0; p < 3; ++p) {
            CoreConfig c = CoreConfig::preset(p);
            c.model = model;
            cfgs.push_back(c);
        }
    }
    for (const auto &spec : specs) {
        for (auto variant : variants) {
            auto records = kernelRecords(spec, variant, 4);
            ASSERT_FALSE(records.empty());
            expectBitIdentical(cfgs, records,
                               spec.name() + "/" +
                                   std::string(
                                       h264::variantName(variant)));
        }
    }
}

TEST(BatchedReplay, RandomizedConfigGrids)
{
    // Three seeded grids of six random configs each (either backend),
    // replaying a real unaligned vector trace (the densest feature
    // mix: vector loads/stores, line crossings, store forwarding,
    // branches).
    auto records =
        kernelRecords({KernelId::ChromaMc, 8, false}, Variant::Unaligned, 4);
    ASSERT_FALSE(records.empty());
    for (std::uint64_t seed : {1u, 20260807u, 0xdecafu}) {
        std::mt19937_64 rng(seed);
        std::vector<CoreConfig> cfgs;
        for (int i = 0; i < 6; ++i)
            cfgs.push_back(randomConfig(rng, i));
        expectBitIdentical(cfgs, records,
                           "seed " + std::to_string(seed));
    }
}

TEST(BatchedReplay, StoreSetSpeculationAndTrainedWaits)
{
    // Loads that partially overlap the store just before them (so
    // they can never forward, only wait or speculate), whose stores
    // issue late behind a multiply. Pair A (store pc 0x1000, load pc
    // 0x1008) runs twice per iteration, then pair B (0x1004, 0x1108).
    // In an SSIT of 4 to 64 entries both loads share one entry and
    // the stores do not, so each pair's violation retrains the entry
    // away from the other pair: A's second instance waits, its first
    // speculates again. A 1024-entry SSIT separates the pairs, so
    // nearly every instance waits. Independent misses keep the MSHR
    // file busy, so speculating loads also meet MSHR-full retries.
    // The "ooo" oracle must take violations and trained waits on this
    // stream, and every batched cell must match it bit for bit.
    std::vector<InstrRecord> records;
    std::uint64_t id = 0;
    auto push = [&](std::uint64_t pc, InstrClass cls, std::uint64_t addr,
                    unsigned size, std::uint64_t dep) {
        InstrRecord rec{};
        rec.id = ++id;
        rec.pc = pc;
        rec.cls = cls;
        rec.addr = addr;
        rec.size = std::uint8_t(size);
        rec.deps[0] = dep;
        records.push_back(rec);
        return rec.id;
    };
    const int iters = 600;
    for (int i = 0; i < iters; ++i) {
        const std::uint64_t base = 0x10000 + std::uint64_t(i % 8) * 64;
        for (int k = 0; k < 3; ++k) {
            const bool pairB = k == 2;
            const std::uint64_t at = base + std::uint64_t(k) * 0x1000;
            const auto mul = push(0x3000, InstrClass::IntMul, 0, 0, 0);
            push(pairB ? 0x1004 : 0x1000, InstrClass::Store, at + 4, 8, mul);
            const auto ld = push(pairB ? 0x1108 : 0x1008,
                                 InstrClass::VecLoadU, at, 16, 0);
            push(0x3004, InstrClass::IntAlu, 0, 0, ld);
        }
        push(0x2000, InstrClass::Load,
             0x4000000 + std::uint64_t(i) * 4096, 8, 0);
    }
    const std::uint64_t aliasingLoads = 3 * std::uint64_t(iters);

    std::vector<CoreConfig> cfgs;
    for (int p = 0; p < 3; ++p) {
        CoreConfig c = CoreConfig::preset(p);
        c.model = "ooo";
        c.name = "ooo-" + std::to_string(p);
        c.storeSetLog2 = p == 0 ? 2 : (p == 1 ? 3 : 10);
        c.issueWidth = p;
        c.memReplayPenalty = 3 + 4 * p;
        c.missMax = 1 + p;
        cfgs.push_back(c);
    }
    cfgs.push_back(CoreConfig::fourWayOoO());  // a "pipeline" cell too

    for (const auto &cfg : cfgs) {
        if (cfg.model != "ooo")
            continue;
        timing::ReferencePipeline oracle(cfg);
        oracle.appendBlock(records.data(), records.size());
        (void)oracle.finalize();
        EXPECT_GT(oracle.memOrderReplays(), 0u) << cfg.name;
        EXPECT_LT(oracle.memOrderReplays(), aliasingLoads) << cfg.name;
    }
    expectBitIdentical(cfgs, records, "store-set");
}

TEST(BatchedReplay, SingleCellGrid)
{
    auto records =
        kernelRecords({KernelId::Sad, 16, false}, Variant::Altivec, 4);
    expectBitIdentical({CoreConfig::fourWayOoO()}, records, "1-cell");
}

TEST(BatchedReplay, DuplicateConfigsProduceIdenticalCells)
{
    auto records =
        kernelRecords({KernelId::Idct, 8, false}, Variant::Scalar, 3);
    auto cfg = CoreConfig::eightWayOoO();
    const std::vector<CoreConfig> cfgs = {cfg, cfg, cfg};
    auto got = batchedResults(cfgs, records);
    ASSERT_EQ(got.size(), 3u);
    // All duplicates identical to each other and to the oracle.
    auto want = perCellResults({cfg}, records);
    for (std::size_t i = 0; i < got.size(); ++i)
        expectFieldsIdentical(want[0], got[i],
                              "dup cell " + std::to_string(i));
}

TEST(BatchedReplay, InflightSpansReadyRingBoundary)
{
    // Regression companion to Pipeline.ReadyRingScalesWithInflight:
    // a 2048-deep window over a 6000-long serial chain wraps the 1024
    // ready-ring floor; the batched engine must size its per-cell
    // ring exactly like the oracle and stay bit-identical while a
    // small-window cell shares the same pass.
    CoreConfig big = CoreConfig::fourWayOoO();
    big.name = "big-window";
    big.inflight = 2048;
    big.issueQ = 4096;
    big.gprPhys = 4096;
    CoreConfig small = CoreConfig::twoWayInOrder();
    auto records = chainRecords(6000);
    expectBitIdentical({big, small}, records, "ring-boundary");

    // Sanity on the oracle itself: a serial chain cannot retire in
    // fewer cycles than its length (the PR 3 aliasing symptom).
    auto want = perCellResults({big}, records);
    EXPECT_GE(want[0].cycles, std::uint64_t(records.size()));
}

TEST(BatchedReplay, SingleReadPortSerializedBanksTerminates)
{
    // Regression: a line-crossing load on a serialized-bank machine
    // demanded a second read port even when the config has only one,
    // making the load permanently unissuable - the oracle's feed
    // backpressure loop then spun forever. (Unreachable from the
    // paper presets, which pair parallelBanks with >= 2 ports; the
    // randomized differential grids here flushed it out.) A
    // single-ported core now serializes the second bank access, and
    // both engines must agree on the resulting timing.
    CoreConfig c = CoreConfig::twoWayInOrder();
    c.name = "1-port-serial-banks";
    c.mem.parallelBanks = false;
    ASSERT_EQ(c.dReadPorts, 1);
    auto records = kernelRecords({KernelId::ChromaMc, 8, false},
                                 Variant::Unaligned, 4);
    expectBitIdentical({c, CoreConfig::fourWayOoO()}, records,
                       "serial-banks");
}

TEST(BatchedReplay, AppendMatchesAppendBlockAcrossChunkBoundaries)
{
    auto records =
        kernelRecords({KernelId::LumaMc, 16, false}, Variant::Altivec, 2);
    ASSERT_GT(records.size(), 512u);  // spans multiple 256-rec chunks
    const std::vector<CoreConfig> cfgs = {CoreConfig::twoWayInOrder(),
                                          CoreConfig::fourWayOoO()};

    auto blockWise = batchedResults(cfgs, records);

    // One record at a time through the TraceSink hook.
    BatchedPipelineSim oneByOne(cfgs);
    for (const auto &rec : records)
        oneByOne.append(rec);
    auto single = oneByOne.finalizeAll();

    // Deliberately awkward split sizes straddling the 256 chunk size.
    BatchedPipelineSim ragged(cfgs);
    std::size_t off = 0, step = 1;
    while (off < records.size()) {
        std::size_t n = std::min(step, records.size() - off);
        ragged.appendBlock(records.data() + off, n);
        off += n;
        step = step * 3 + 1;  // 1, 4, 13, 40, 121, 364, ...
    }
    auto raggedRes = ragged.finalizeAll();

    ASSERT_EQ(blockWise.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expectFieldsIdentical(blockWise[i], single[i],
                              "append() cell " + std::to_string(i));
        expectFieldsIdentical(blockWise[i], raggedRes[i],
                              "ragged cell " + std::to_string(i));
    }
}

TEST(BatchedReplay, EmptyStreamFinalizes)
{
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO(),
                                          CoreConfig::twoWayInOrder()};
    auto got = batchedResults(cfgs, {});
    auto want = perCellResults(cfgs, {});
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].instrs, 0u);
        expectFieldsIdentical(want[i], got[i],
                              "empty cell " + std::to_string(i));
    }
}

TEST(BatchedReplay, FinalizeAllIsIdempotent)
{
    auto records =
        kernelRecords({KernelId::Sad, 8, false}, Variant::Scalar, 2);
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO()};
    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    auto first = batch.finalizeAll();
    auto second = batch.finalizeAll();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectFieldsIdentical(first[i], second[i], "idempotent");
}

TEST(BatchedReplay, RejectsBadGroupsBeforeSizing)
{
    // Every config is validated before the shared predictor is sized:
    // 31 would otherwise allocate a 2 GiB table first, and 32-40 are
    // out-of-range shifts.
    for (int log2 : {0, 29, 31, 32, 40}) {
        CoreConfig bad = CoreConfig::fourWayOoO();
        bad.bpredLog2Entries = log2;
        EXPECT_THROW(BatchedPipelineSim({bad}), std::invalid_argument)
            << "bpredLog2Entries " << log2;
    }
    // A bad cell anywhere in the group, not just the first.
    CoreConfig badLater = CoreConfig::twoWayInOrder();
    badLater.inflight = 0;
    EXPECT_THROW(BatchedPipelineSim({CoreConfig::fourWayOoO(), badLater}),
                 std::invalid_argument);

    // An "ooo" cell's SSIT is not sized before validation either.
    CoreConfig hugeSsit = CoreConfig::fourWayOoO();
    hugeSsit.model = "ooo";
    hugeSsit.storeSetLog2 = 40;
    EXPECT_THROW(BatchedPipelineSim({CoreConfig::fourWayOoO(), hugeSsit}),
                 std::invalid_argument);

    // The precondition: "pipeline" and "ooo" cells only, one
    // predictor geometry.
    CoreConfig ooo = CoreConfig::fourWayOoO();
    ooo.model = "ooo";
    EXPECT_NO_THROW(BatchedPipelineSim({CoreConfig::fourWayOoO(), ooo}));
    CoreConfig unknown = CoreConfig::fourWayOoO();
    unknown.model = "turandot";
    EXPECT_THROW(BatchedPipelineSim({ooo, unknown}), std::invalid_argument);
    CoreConfig otherGeometry = CoreConfig::fourWayOoO();
    otherGeometry.bpredLog2Entries = 10;
    EXPECT_THROW(
        BatchedPipelineSim({CoreConfig::fourWayOoO(), otherGeometry}),
        std::invalid_argument);
}

TEST(BatchedReplay, NonDefaultPredictorGeometry)
{
    // The shared predictor takes the group's geometry, not the
    // default 4K-entry table.
    auto records =
        kernelRecords({KernelId::LumaMc, 8, false}, Variant::Unaligned, 3);
    std::vector<CoreConfig> cfgs = {CoreConfig::twoWayInOrder(),
                                    CoreConfig::eightWayOoO()};
    for (auto &cfg : cfgs)
        cfg.bpredLog2Entries = 4;
    expectBitIdentical(cfgs, records, "bpred 2^4");
}

TEST(BatchedReplay, CanonicalConfigIsSoundOnKernelTraces)
{
    // CoreConfig::canonicalFor(mix) may reset only knobs no record of
    // the trace reads, so the sweep can run one engine cell for every
    // config with the same canonical form. On every paper kernel trace
    // the oracle must give a seeded random config and its canonical
    // form identical results.
    std::mt19937_64 rng(0xca70);
    int resets = 0;
    for (const auto &spec : core::paperKernelGrid()) {
        for (auto variant :
             {Variant::Scalar, Variant::Altivec, Variant::Unaligned}) {
            const auto records = kernelRecords(spec, variant, 2);
            trace::InstrMix mix;
            for (const auto &rec : records)
                mix.add(rec);
            for (int i = 0; i < 2; ++i) {
                const CoreConfig cfg = randomConfig(rng, i);
                const CoreConfig canon = cfg.canonicalFor(mix);
                if (!(canon == cfg))
                    ++resets;
                const auto want = perCellResults({cfg}, records);
                const auto got = perCellResults({canon}, records);
                expectFieldsIdentical(
                    want[0], got[0],
                    spec.name() + "/" +
                        std::string(h264::variantName(variant)) +
                        " config " + std::to_string(i));
            }
        }
    }
    EXPECT_GT(resets, 0) << "no config was canonicalized";

    // Not vacuous: where the trace issues misaligned lvxu, the knob
    // moves the cycles, and canonicalFor keeps the configs apart.
    const auto records =
        kernelRecords({KernelId::LumaMc, 16, false}, Variant::Unaligned, 2);
    trace::InstrMix mix;
    for (const auto &rec : records)
        mix.add(rec);
    CoreConfig fast = CoreConfig::fourWayOoO();
    CoreConfig slow = fast;
    slow.lat.unalignedLoadExtra = 6;
    const auto results = perCellResults({fast, slow}, records);
    EXPECT_GT(results[0].unalignedVecOps, 0u);
    EXPECT_NE(results[0].cycles, results[1].cycles);
    EXPECT_FALSE(fast.canonicalFor(mix) == slow.canonicalFor(mix));
}
