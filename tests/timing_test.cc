/**
 * @file
 * Tests for the superscalar pipeline model: basic invariants, width
 * scaling, dependence serialization, load latency, store-to-load
 * forwarding, branch misprediction, unaligned-access latency, and the
 * branch predictor. The single-engine cases run on the test-only
 * reference model (tests/reference_pipeline.hh). The analytic
 * latency/throughput checks (EngineTiming: width and FX-unit bounds,
 * dependence chains, load and unaligned latency, aligned lvxu, store
 * forwarding, MSHR limits, mispredict fetch stalls) run on both
 * backends - "pipeline" and "ooo", each on the reference model and as
 * a cell of the library's batched engine - and hold with the same
 * bounds on all four: their streams exercise no mechanism where the
 * backends differ by design (no aliasing stores that fail to
 * forward).
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "reference_pipeline.hh"
#include "timing/branch_pred.hh"
#include "timing/model.hh"
#include "trace/emitter.hh"
#include "trace/trace_io.hh"
#include "vmx/buffer.hh"
#include "vmx/scalarops.hh"
#include "vmx/vecops.hh"

using namespace uasim;
using timing::CoreConfig;
using timing::ReferencePipeline;
using trace::InstrClass;
using trace::InstrRecord;

namespace {

/// Feed n independent instructions of one class.
timing::SimResult
runIndependent(const CoreConfig &cfg, InstrClass cls, int n)
{
    ReferencePipeline sim(cfg);
    trace::Emitter em(sim);
    for (int i = 0; i < n; ++i)
        em.emit(cls, std::source_location::current());
    return sim.finalize();
}

/// Feed a serial dependence chain of n instructions.
timing::SimResult
runChain(const CoreConfig &cfg, InstrClass cls, int n)
{
    ReferencePipeline sim(cfg);
    trace::Emitter em(sim);
    trace::Dep prev{};
    for (int i = 0; i < n; ++i)
        prev = em.emit(cls, std::source_location::current(), prev);
    return sim.finalize();
}

/// One engine an analytic timing check runs on: a backend, replayed on
/// the reference model or as a one-cell batched group
/// (makeBatchedTimingModel, i.e. BatchedPipelineSim).
struct Engine {
    const char *model;
    bool batched;
};

class EngineTiming : public ::testing::TestWithParam<Engine>
{
  protected:
    /// Record the stream @p gen emits, then replay it on this engine.
    timing::SimResult
    run(CoreConfig cfg,
        const std::function<void(trace::Emitter &)> &gen) const
    {
        trace::BufferSink sink;
        trace::Emitter em(sink);
        gen(em);
        const auto &recs = sink.records();
        cfg.model = GetParam().model;
        if (GetParam().batched) {
            auto batch = timing::makeBatchedTimingModel({cfg});
            batch->appendBlock(recs.data(), recs.size());
            return batch->finalizeAll().front();
        }
        ReferencePipeline sim(cfg);
        sim.appendBlock(recs.data(), recs.size());
        return sim.finalize();
    }
};

} // namespace

TEST(Pipeline, RetiresEverythingFed)
{
    for (int p = 0; p < 3; ++p) {
        auto r = runIndependent(CoreConfig::preset(p), InstrClass::IntAlu,
                                1000);
        EXPECT_EQ(r.instrs, 1000u) << r.core;
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(Pipeline, WiderCoreIsFasterOnParallelWork)
{
    auto r2 = runIndependent(CoreConfig::twoWayInOrder(),
                             InstrClass::IntAlu, 4000);
    auto r4 = runIndependent(CoreConfig::fourWayOoO(),
                             InstrClass::IntAlu, 4000);
    auto r8 = runIndependent(CoreConfig::eightWayOoO(),
                             InstrClass::IntAlu, 4000);
    EXPECT_LT(r4.cycles, r2.cycles);
    EXPECT_LT(r8.cycles, r4.cycles);
}

// The analytic checks below run on every engine: each backend both
// standalone and batched.

TEST_P(EngineTiming, DependenceChainSerializes)
{
    CoreConfig cfg = CoreConfig::eightWayOoO();
    auto stream = [](bool chained) {
        return [chained](trace::Emitter &em) {
            trace::Dep prev{};
            for (int i = 0; i < 1000; ++i) {
                prev = em.emit(InstrClass::VecComplex,
                               std::source_location::current(),
                               chained ? prev : trace::Dep{});
            }
        };
    };
    auto par = run(cfg, stream(false));
    auto ser = run(cfg, stream(true));
    // Chain: one per vecComplex latency (4); parallel: bound by the
    // 2 VCMPLX units.
    EXPECT_GE(ser.cycles, 4000u);
    EXPECT_LT(par.cycles, 1000u);
}

TEST_P(EngineTiming, LoadLatencyAppearsInChains)
{
    CoreConfig cfg = CoreConfig::fourWayOoO();
    vmx::AlignedBuffer buf(256, 0);
    const int n = 500;
    // Pointer-chase-like chain: load feeding the next load's address.
    auto r = run(cfg, [&](trace::Emitter &em) {
        trace::Dep prev{};
        for (int i = 0; i < n; ++i) {
            prev = em.emitMem(InstrClass::Load,
                              reinterpret_cast<std::uint64_t>(buf.data()),
                              4, std::source_location::current(), prev);
        }
    });
    // Each hit costs the 4-cycle load-to-use latency.
    EXPECT_GE(r.cycles, std::uint64_t(n) * 4);
    EXPECT_LE(r.cycles, std::uint64_t(n) * 4 + 600);
}

TEST_P(EngineTiming, UnalignedExtraLatencySlowsChains)
{
    vmx::AlignedBuffer buf(256, 4);  // unaligned base
    auto runExtra = [&](int extra) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        return run(cfg, [&](trace::Emitter &em) {
            trace::Dep prev{};
            for (int i = 0; i < 400; ++i) {
                prev = em.emitMem(
                    InstrClass::VecLoadU,
                    reinterpret_cast<std::uint64_t>(buf.data()), 16,
                    std::source_location::current(), prev);
            }
        });
    };
    auto base = runExtra(0);
    auto plus2 = runExtra(2);
    auto plus6 = runExtra(6);
    EXPECT_GT(plus2.cycles, base.cycles + 700u);
    EXPECT_GT(plus6.cycles, plus2.cycles + 1500u);
    EXPECT_EQ(base.unalignedVecOps, 400u);
}

TEST_P(EngineTiming, StoreToLoadForwarding)
{
    vmx::AlignedBuffer buf(256, 0);
    auto addr = reinterpret_cast<std::uint64_t>(buf.data());
    auto r = run(CoreConfig::fourWayOoO(), [&](trace::Emitter &em) {
        for (int i = 0; i < 100; ++i) {
            auto st = em.emitMem(InstrClass::Store, addr, 8,
                                 std::source_location::current());
            em.emitMem(InstrClass::Load, addr, 8,
                       std::source_location::current(), st);
        }
    });
    EXPECT_GE(r.storeForwards, 90u);
}

TEST_P(EngineTiming, MshrLimitThrottlesMisses)
{
    // Independent loads all missing to memory: more MSHRs -> more
    // memory-level parallelism -> fewer cycles.
    auto runMshrs = [&](int mshrs) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.missMax = mshrs;
        return run(cfg, [](trace::Emitter &em) {
            for (int i = 0; i < 200; ++i) {
                em.emitMem(InstrClass::Load,
                           0x40000000ull + std::uint64_t(i) * 4096, 8,
                           std::source_location::current());
            }
        });
    };
    auto few = runMshrs(1);
    auto many = runMshrs(8);
    EXPECT_GT(few.cycles, many.cycles * 3);
}

TEST_P(EngineTiming, IpcNeverExceedsWidth)
{
    for (int p = 0; p < 3; ++p) {
        CoreConfig cfg = CoreConfig::preset(p);
        auto r = run(cfg, [](trace::Emitter &em) {
            for (int i = 0; i < 5000; ++i)
                em.emit(InstrClass::IntAlu, std::source_location::current());
        });
        EXPECT_LE(r.ipc(), double(cfg.fetchWidth) + 1e-9) << r.core;
    }
}

TEST_P(EngineTiming, FxUnitThroughputBindsIntAlu)
{
    // 2-way has 2 FX units: 4000 independent adds need >= 2000 cycles.
    auto r = run(CoreConfig::twoWayInOrder(), [](trace::Emitter &em) {
        for (int i = 0; i < 4000; ++i)
            em.emit(InstrClass::IntAlu, std::source_location::current());
    });
    EXPECT_GE(r.cycles, 2000u);
    EXPECT_LE(r.cycles, 2300u);  // and not much more
}

TEST_P(EngineTiming, AlignedLvxuPaysNoPenalty)
{
    vmx::AlignedBuffer buf(256, 0);  // aligned base
    auto runExtra = [&](int extra) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        return run(cfg, [&](trace::Emitter &em) {
            trace::Dep prev{};
            for (int i = 0; i < 400; ++i) {
                prev = em.emitMem(
                    InstrClass::VecLoadU,
                    reinterpret_cast<std::uint64_t>(buf.data()), 16,
                    std::source_location::current(), prev);
            }
        });
    };
    EXPECT_EQ(runExtra(0).cycles, runExtra(6).cycles);
}

TEST_P(EngineTiming, MispredictsStallFetch)
{
    auto runPattern = [&](bool random_pattern) {
        return run(CoreConfig::fourWayOoO(), [&](trace::Emitter &em) {
            std::uint64_t lcg = 12345;
            for (int i = 0; i < 2000; ++i) {
                bool taken;
                if (random_pattern) {
                    lcg = lcg * 6364136223846793005ull + 13;
                    taken = (lcg >> 40) & 1;
                } else {
                    taken = true;
                }
                em.emitBranch(taken, std::source_location::current());
                for (int k = 0; k < 3; ++k)
                    em.emit(InstrClass::IntAlu,
                            std::source_location::current());
            }
        });
    };
    auto predictable = runPattern(false);
    auto random = runPattern(true);
    EXPECT_LT(predictable.mispredictRate(), 0.02);
    EXPECT_GT(random.mispredictRate(), 0.3);
    EXPECT_GT(random.cycles, predictable.cycles * 2);
    EXPECT_GT(random.fetchStallCycles, predictable.fetchStallCycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineTiming,
    ::testing::Values(Engine{"pipeline", false}, Engine{"pipeline", true},
                      Engine{"ooo", false}, Engine{"ooo", true}),
    [](const ::testing::TestParamInfo<Engine> &info) {
        return std::string(info.param.model) +
            (info.param.batched ? "_batched" : "_percell");
    });

TEST(Pipeline, InOrderSlowerThanOoOOnMixedChain)
{
    // Alternating long-latency loads and independent ALU work: OoO
    // overlaps them, in-order stalls.
    vmx::AlignedBuffer buf(8192, 0);
    auto run = [&](CoreConfig cfg) {
        cfg.units = {2, 1, 1, 1, 1, 1, 1};
        cfg.fetchWidth = 2;
        ReferencePipeline sim(cfg);
        trace::Emitter em(sim);
        auto base = reinterpret_cast<std::uint64_t>(buf.data());
        trace::Dep prev{};
        for (int i = 0; i < 500; ++i) {
            auto ld = em.emitMem(InstrClass::Load, base + (i % 64) * 8,
                                 8, std::source_location::current(),
                                 prev);
            prev = em.emit(InstrClass::IntAlu,
                           std::source_location::current(), ld);
            for (int k = 0; k < 4; ++k)
                em.emit(InstrClass::IntAlu,
                        std::source_location::current());
        }
        return sim.finalize();
    };
    CoreConfig in_order = CoreConfig::twoWayInOrder();
    CoreConfig ooo = CoreConfig::fourWayOoO();
    ooo.name = "ooo2";
    auto r_in = run(in_order);
    auto r_ooo = run(ooo);
    EXPECT_LT(r_ooo.cycles, r_in.cycles);
}

TEST(Pipeline, CacheStatsPlumbedThrough)
{
    CoreConfig cfg = CoreConfig::fourWayOoO();
    ReferencePipeline sim(cfg);
    trace::Emitter em(sim);
    for (int i = 0; i < 64; ++i) {
        em.emitMem(InstrClass::Load,
                   0x1000ull + std::uint64_t(i % 4) * 131072, 8,
                   std::source_location::current());
    }
    auto r = sim.finalize();
    EXPECT_GT(r.l1dAccesses, 0u);
    EXPECT_GT(r.l1dMisses, 0u);
    EXPECT_LE(r.l1dMisses, r.l1dAccesses);
}

TEST(Pipeline, TableTwoPresets)
{
    auto c2 = CoreConfig::twoWayInOrder();
    EXPECT_FALSE(c2.outOfOrder);
    EXPECT_EQ(c2.fetchWidth, 2);
    EXPECT_EQ(c2.retireWidth, 4);
    EXPECT_EQ(c2.inflight, 80);
    EXPECT_EQ(c2.units.fx, 2);
    EXPECT_EQ(c2.dReadPorts, 1);
    EXPECT_EQ(c2.missMax, 2);

    auto c4 = CoreConfig::fourWayOoO();
    EXPECT_TRUE(c4.outOfOrder);
    EXPECT_EQ(c4.fetchWidth, 4);
    EXPECT_EQ(c4.retireWidth, 6);
    EXPECT_EQ(c4.inflight, 160);
    EXPECT_EQ(c4.units.ls, 2);
    EXPECT_EQ(c4.gprPhys, 80);

    auto c8 = CoreConfig::eightWayOoO();
    EXPECT_EQ(c8.fetchWidth, 8);
    EXPECT_EQ(c8.retireWidth, 12);
    EXPECT_EQ(c8.inflight, 255);
    EXPECT_EQ(c8.units.vperm, 2);
    EXPECT_EQ(c8.dReadPorts, 4);
}

TEST(Pipeline, UnitMapping)
{
    using timing::Unit;
    using timing::unitFor;
    EXPECT_EQ(unitFor(InstrClass::IntAlu), Unit::FX);
    EXPECT_EQ(unitFor(InstrClass::IntMul), Unit::FX);
    EXPECT_EQ(unitFor(InstrClass::Load), Unit::LS);
    EXPECT_EQ(unitFor(InstrClass::VecLoadU), Unit::LS);
    EXPECT_EQ(unitFor(InstrClass::Branch), Unit::BR);
    EXPECT_EQ(unitFor(InstrClass::VecSimple), Unit::VI);
    EXPECT_EQ(unitFor(InstrClass::VecPerm), Unit::VPERM);
    EXPECT_EQ(unitFor(InstrClass::VecComplex), Unit::VCMPLX);
}

TEST(Pipeline, DestRegFiles)
{
    using timing::destRegFile;
    using timing::RegFile;
    EXPECT_EQ(destRegFile(InstrClass::Load), RegFile::GPR);
    EXPECT_EQ(destRegFile(InstrClass::VecLoadU), RegFile::VPR);
    EXPECT_EQ(destRegFile(InstrClass::Store), RegFile::None);
    EXPECT_EQ(destRegFile(InstrClass::Branch), RegFile::None);
    EXPECT_EQ(destRegFile(InstrClass::FpAlu), RegFile::FPR);
}

TEST(Pipeline, OfflineTraceFileEqualsOnline)
{
    // The MET-style flow: record a trace to disk, replay it through a
    // fresh simulator, and get bit-identical results to feeding the
    // records online.
    vmx::AlignedBuffer buf(8192, 7);
    auto gen = [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        vmx::ScalarOps so(em);
        vmx::VecOps vo(em);
        vmx::CPtr p = so.lip(buf.data());
        vmx::SInt acc = so.li(0);
        for (int i = 0; i < 400; ++i) {
            vmx::Vec v = vo.lvxu(p, (i * 48) % 4096);
            vmx::Vec w = vo.addu8(v, v);
            vo.stvxu(w, vmx::Ptr{buf.data() + 4096}, (i * 16) % 2048);
            acc = so.addi(acc, 1);
            so.loopBranch(i + 1 < 400);
        }
    };

    CoreConfig cfg = CoreConfig::fourWayOoO();
    cfg.lat.unalignedLoadExtra = 1;

    ReferencePipeline online(cfg);
    gen(online);
    auto r_online = online.finalize();

    std::string path = ::testing::TempDir() + "/uasim_offline.trace";
    {
        trace::FileSink file(path);
        gen(file);
    }
    ReferencePipeline offline(cfg);
    {
        trace::TraceReader reader(path);
        reader.drainTo(offline);
    }
    auto r_offline = offline.finalize();
    std::remove(path.c_str());

    EXPECT_EQ(r_online.cycles, r_offline.cycles);
    EXPECT_EQ(r_online.instrs, r_offline.instrs);
    EXPECT_EQ(r_online.mispredicts, r_offline.mispredicts);
    EXPECT_EQ(r_online.l1dMisses, r_offline.l1dMisses);
    EXPECT_EQ(r_online.unalignedVecOps, r_offline.unalignedVecOps);
}

TEST(Pipeline, ReadyRingScalesWithInflight)
{
    // Regression for the fixed 1024-entry producer-ready ring: with a
    // scaled CoreConfig whose in-flight window exceeds it, two live
    // instructions aliased a slot and a waiting producer read as
    // "long retired" (ready), letting dependence chains issue early
    // and corrupting the timing. The ring is now sized from
    // cfg.inflight, so a serial chain can never finish in fewer
    // cycles than its length.
    CoreConfig cfg = CoreConfig::fourWayOoO();
    cfg.inflight = 2048;
    cfg.issueQ = 4096;
    cfg.gprPhys = 4096;
    const int n = 6000;
    auto r = runChain(cfg, InstrClass::IntAlu, n);
    EXPECT_EQ(r.instrs, std::uint64_t(n));
    EXPECT_GE(r.cycles, std::uint64_t(n));

    // Scaling only the window (not the machine width) must not make
    // a dependence-free stream slower.
    auto wide = runIndependent(cfg, InstrClass::IntAlu, n);
    auto base = runIndependent(CoreConfig::fourWayOoO(),
                               InstrClass::IntAlu, n);
    EXPECT_LE(wide.cycles, base.cycles);
}

TEST(Pipeline, PredictorSizeDefaultMatchesTableII)
{
    // The paper's predictor (4K-entry gshare) is shared by all three
    // Table II machines; making the size sweepable must not move the
    // default out from under the published figures.
    EXPECT_EQ(CoreConfig{}.bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::twoWayInOrder().bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::fourWayOoO().bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::eightWayOoO().bpredLog2Entries, 12);
}

TEST(Pipeline, PredictorSizeIsSweepable)
{
    // bpredLog2Entries plumbs through CoreConfig into the model: a
    // 2-entry table cannot hold the history-disambiguated TTTN
    // pattern that the Table II-sized table learns almost perfectly.
    auto run = [](int log2) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.bpredLog2Entries = log2;
        ReferencePipeline sim(cfg);
        trace::Emitter em(sim);
        for (int i = 0; i < 4000; ++i) {
            em.emitBranch((i % 4) != 3,
                          std::source_location::current());
            em.emit(InstrClass::IntAlu,
                    std::source_location::current());
        }
        return sim.finalize();
    };
    auto tiny = run(1);
    auto tableII = run(12);
    EXPECT_EQ(tiny.branches, tableII.branches);
    EXPECT_GT(tiny.mispredicts, tableII.mispredicts + 200);
    EXPECT_GT(tiny.cycles, tableII.cycles);
}

TEST(Pipeline, ValidateRejectsBadConfigs)
{
    EXPECT_NO_THROW(CoreConfig{}.validate());
    EXPECT_NO_THROW(CoreConfig::eightWayOoO().validate());
    auto bad = [](auto &&poke) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        poke(cfg);
        return cfg;
    };
    EXPECT_THROW(bad([](CoreConfig &c) { c.fetchWidth = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.bpredLog2Entries = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.bpredLog2Entries = 40; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.storeSetLog2 = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.model.clear(); })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.model = "turandot"; })
                     .validate(),
                 std::invalid_argument);
    // Every constructor path must throw before sizing anything.
    const CoreConfig noWindow = bad([](CoreConfig &c) { c.inflight = 0; });
    EXPECT_THROW((void)timing::makeTimingModel(noWindow),
                 std::invalid_argument);
    EXPECT_THROW((void)timing::makeBatchedTimingModel({noWindow}),
                 std::invalid_argument);
    EXPECT_THROW(ReferencePipeline{noWindow}, std::invalid_argument);
}

TEST(BranchPredictor, LearnsBias)
{
    timing::BranchPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.update(0x1000, true);
    EXPECT_TRUE(bp.predict(0x1000));
    for (int i = 0; i < 100; ++i)
        bp.update(0x1000, false);
    EXPECT_FALSE(bp.predict(0x1000));
}

TEST(BranchPredictor, LearnsShortPeriodicPattern)
{
    timing::BranchPredictor bp;
    // Period-4 pattern TTTN: gshare history disambiguates.
    auto pattern = [](int i) { return (i % 4) != 3; };
    int mispredicts = 0;
    for (int i = 0; i < 4000; ++i) {
        bool taken = pattern(i);
        if (i > 1000 && bp.predict(0x2000) != taken)
            ++mispredicts;
        bp.update(0x2000, taken);
    }
    EXPECT_LT(mispredicts, 150);
}
