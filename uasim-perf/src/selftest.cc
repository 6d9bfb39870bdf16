/**
 * @file
 * uasim_perf_selftest: checks of the benchmark's own machinery.
 *
 *  - the digest check catches any single flipped counter, mix count,
 *    trace length or cell identity;
 *  - digests survive a write/parse round trip;
 *  - a different seed changes every trace key of every workload.
 *
 * Exit code 0 when every check passes.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "digest.hh"
#include "workload.hh"

using namespace uasim;
using namespace uasim::perf;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

core::ResultCell
sampleCell()
{
    core::ResultCell c;
    c.trace = "luma16x16/unaligned/96/12345";
    c.config = "model=pipeline,lat.unalignedLoadExtra=2";
    c.sim.core = "4w";
    std::uint64_t v = 1000;
    for (const core::SimResultField &f : core::simResultFields())
        c.sim.*f.member = v++;
    for (int k = 0; k < trace::numInstrClasses; ++k)
        c.mix.add(static_cast<trace::InstrClass>(k), 10 + std::uint64_t(k));
    c.traceInstrs = c.mix.total();
    return c;
}

/// Does the digest check flag @p changed against @p base?
bool
caught(const core::ResultCell &base, const core::ResultCell &changed)
{
    std::vector<std::string> why;
    const std::vector<core::ResultCell> want = {base, base};
    const std::vector<core::ResultCell> got = {base, changed};
    return countMismatches(digestCells(want), digestCells(got), why) == 1;
}

void
digestCatchesFlips()
{
    const core::ResultCell base = sampleCell();
    check(!caught(base, base), "identical cells must match");
    for (const core::SimResultField &f : core::simResultFields()) {
        for (int bit : {0, 17, 63}) {
            core::ResultCell c = base;
            c.sim.*f.member ^= std::uint64_t(1) << bit;
            check(caught(base, c), std::string("flipped bit in ") + f.name);
        }
    }
    for (int k = 0; k < trace::numInstrClasses; ++k) {
        core::ResultCell c = base;
        c.mix.add(static_cast<trace::InstrClass>(k), 1);
        check(caught(base, c), "mix class " + std::to_string(k));
    }
    core::ResultCell c = base;
    ++c.traceInstrs;
    check(caught(base, c), "trace length");
    c = base;
    c.sim.core = "2w";
    check(caught(base, c), "core name");
    c = base;
    c.config += "x";
    check(caught(base, c), "config label");
    c = base;
    c.trace.back() = '6';
    check(caught(base, c), "trace key");

    const auto d = digestCells({base, c});
    const auto back = parseDigests("# comment\n" + formatDigests(d));
    std::vector<std::string> why;
    check(back.size() == 2 && countMismatches(d, back, why) == 0,
          "digest file round trip");
}

void
seedChangesTraceKeys()
{
    for (WorkloadId id : allWorkloads()) {
        const Workload a = describeWorkload(id, defaultSeed);
        const Workload b = describeWorkload(id, defaultSeed + 1);
        std::set<std::string> keysA;
        for (const auto &job : a.plan.traces())
            keysA.insert(job.key);
        check(!keysA.empty() &&
                  a.plan.traces().size() == b.plan.traces().size(),
              std::string(workloadName(id)) + ": same grid at both seeds");
        for (const auto &job : b.plan.traces()) {
            check(!keysA.count(job.key),
                  std::string(workloadName(id)) + ": key " + job.key +
                      " does not depend on the seed");
        }
    }
}

} // namespace

int
main()
{
    digestCatchesFlips();
    seedChangesTraceKeys();
    std::printf("uasim_perf_selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}
