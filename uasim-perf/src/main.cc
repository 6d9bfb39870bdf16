/**
 * @file
 * uasim_perf: time one workload end to end, check every simulated
 * output, and print the result as one JSON line.
 *
 *   uasim_perf --workload NAME --seed N --seconds S --trace 0|1
 *              [--write-digest]
 *
 * Run it from the repository root (run.py does): it reads the
 * committed digests from uasim-perf/digests/, works under
 * .bench_build/uasim-perf/work/ and writes the traced run's
 * trace-event JSON to .bench_build/uasim-perf/traces/.
 *
 * The iterations repeat until S seconds have passed. With --trace 0,
 * set-up repeats for a tenth of a second after each iteration; setup_s
 * is the total set-up time divided by the number of set-ups. With
 * --trace 1 the workload is
 * executed once more, single-threaded, with a span around every layer
 * call (see traced.hh), and the per-layer metrics are printed instead
 * of the end-to-end ones. The exit code is 0 only when every output
 * check passed; a human-readable summary goes to stderr.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "digest.hh"
#include "traced.hh"
#include "workload.hh"

using namespace uasim;
using namespace uasim::perf;

namespace {

struct Args {
    WorkloadId workload = WorkloadId::CampaignWarm;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    bool writeDigest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "uasim_perf: %s\nusage: uasim_perf --workload "
                 "campaign_warm|record_cold|wide_group_warm --seed N "
                 "--seconds S --trace 0|1 [--write-digest]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-digest") {
            a.writeDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseWorkload(v, a.workload))
                usage(("unknown workload " + v).c_str());
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            a.trace = v == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile of @p v (linear interpolation between order statistics).
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / double(v.size());
}

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
}

std::string
digestPath(const Args &a)
{
    return std::string("uasim-perf/digests/") + workloadName(a.workload) +
           ".seed" + std::to_string(defaultSeed) + ".txt";
}

/// sim.<backend>.* over the cells simulated on each backend.
void
addSimMetrics(const Workload &w, const std::vector<core::ResultCell> &cells,
              std::vector<Metric> &out)
{
    std::map<std::string, std::string> modelOf;
    for (const core::ConfigJob &c : w.plan.configs())
        modelOf[c.label] = c.cfg.model;
    for (const char *backend : {"pipeline", "ooo"}) {
        timing::SimResult sum;
        for (const core::ResultCell &cell : cells) {
            if (cell.config.empty() || modelOf[cell.config] != backend)
                continue;
            sum.cycles += cell.sim.cycles;
            sum.instrs += cell.sim.instrs;
            sum.l1dAccesses += cell.sim.l1dAccesses;
            sum.l1dMisses += cell.sim.l1dMisses;
            sum.unalignedVecOps += cell.sim.unalignedVecOps;
            sum.lineCrossings += cell.sim.lineCrossings;
            sum.fetchStallCycles += cell.sim.fetchStallCycles;
        }
        const std::string p = std::string("sim.") + backend + ".";
        out.push_back({p + "cycles", double(sum.cycles), "cycles"});
        out.push_back({p + "ipc", sum.ipc(), "instr/cycle"});
        out.push_back({p + "l1d_miss_ratio",
                       sum.l1dAccesses ? double(sum.l1dMisses) /
                                             double(sum.l1dAccesses)
                                       : 0.0,
                       "ratio"});
        out.push_back({p + "unaligned_ops", double(sum.unalignedVecOps),
                       "count"});
        out.push_back({p + "line_crossings", double(sum.lineCrossings),
                       "count"});
        out.push_back({p + "fetch_stall_cycles", double(sum.fetchStallCycles),
                       "cycles"});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const char *name = workloadName(args.workload);
    const std::string dir = std::string(".bench_build/uasim-perf/work/") +
                            name;

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> why;

    try {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const Workload w = setUp(args.workload, args.seed, dir);

        // setup_s: with --trace 0, set-up repeats for a tenth of a
        // second after every timed iteration (and at least five times
        // in all), and setup_s is the total time of those set-ups
        // divided by their number. The host's speed moves between
        // levels within seconds, so set-ups spread over the whole run
        // see the same host as the iterations; a window in one place
        // follows one level.
        std::vector<double> setupS;
        auto timeSetUps = [&](double minSeconds) {
            const auto start = Clock::now();
            do {
                // A warm set-up records a store, which the next must
                // not find; a cold one writes nothing, and must leave
                // the last iteration's store for the checks below.
                if (!w.storeDir.empty()) {
                    std::filesystem::remove_all(dir);
                    std::filesystem::create_directories(dir);
                }
                const auto t0 = Clock::now();
                setUp(args.workload, args.seed, dir);
                setupS.push_back(secondsSince(t0));
            } while (secondsSince(start) < minSeconds);
        };

        // Timed iterations until the run's time is spent. The first
        // iteration's cells are the expected output of the others.
        std::vector<double> wallS, rssMb, workRate, busyS, effs, idleS;
        Iteration last;
        std::vector<CellDigest> expected;
        const auto runStart = Clock::now();
        do {
            Iteration it;
            try {
                it = runIteration(w);
            } catch (const std::exception &e) {
                attempted += w.plan.cells().size();
                failed += w.plan.cells().size();
                why.push_back(std::string("iteration failed: ") + e.what());
                break;
            }
            const std::vector<CellDigest> got = digestCells(it.cells);
            attempted += it.cells.size();
            if (!it.violations.empty()) {
                failed += it.cells.size();
                why.insert(why.end(), it.violations.begin(),
                           it.violations.end());
            } else if (expected.empty()) {
                expected = got;
            } else {
                failed += countMismatches(expected, got, why);
            }
            double work = 0;
            for (const core::ResultCell &c : it.cells)
                work += double(c.traceInstrs);
            const core::SweepStats &s = it.stats;
            const double busy = s.recordSeconds + s.replaySeconds +
                                s.streamSeconds + s.loadSeconds;
            const double capacity = double(s.threads) * s.wallSeconds;
            wallS.push_back(it.wallS);
            rssMb.push_back(it.peakRssMb);
            workRate.push_back(work / it.wallS / 1e6);
            busyS.push_back(busy);
            effs.push_back(capacity > 0 ? busy / capacity : 0);
            idleS.push_back(std::max(0.0, capacity - busy));
            last = std::move(it);
            if (!args.trace)
                timeSetUps(0.1);
        } while (secondsSince(runStart) < args.seconds);
        while (!args.trace && setupS.size() < 5)
            timeSetUps(0);

        if (args.writeDigest) {
            if (args.seed != defaultSeed || failed)
                usage("--write-digest needs the default seed and a clean run");
            std::ofstream f(digestPath(args));
            f << "# uasim-perf " << name << " per-cell digests, seed "
              << defaultSeed << "\n# trace key\tconfig\tFNV-1a 64 over "
                 "every simResultFields() counter, the mix and the length\n"
              << formatDigests(expected);
            if (!f.flush())
                throw std::runtime_error("cannot write " + digestPath(args));
        }
        if (args.seed == defaultSeed && !expected.empty()) {
            std::ifstream f(digestPath(args));
            std::stringstream text;
            text << f.rdbuf();
            if (!f)
                throw std::runtime_error("cannot read " + digestPath(args));
            const auto committed = parseDigests(text.str());
            attempted += expected.size();
            failed += countMismatches(committed, expected, why);
        }
        if (!last.cells.empty()) {
            std::size_t checked = 0;
            failed += referenceCheck(w, last.cells, checked, why);
            attempted += checked;
        }
        {
            std::size_t checked = 0;
            failed += verifyKernels(w, checked, why);
            attempted += checked;
        }

        std::vector<Metric> metrics;
        if (!args.trace) {
            metrics = {
                {"wall_s", median(wallS), "s"},
                {"setup_s", mean(setupS), "s"},
                {"sweep_mrec_per_s", median(workRate), "Mrec/s"},
                {"peak_rss_mb", median(rssMb), "MB"},
                {"store_mb", last.storeMb, "MB"},
            };
        } else if (!last.cells.empty()) {
            // The traced sequence with spans off, then on: the
            // difference is the tracing overhead. Each must produce
            // the timed run's cells and do the replay work the timed
            // run's SweepStats report - the same decode passes over
            // the same bytes - or its layer figures describe another
            // sweep than the library's; then every cell of it fails.
            const TracedRun off = runTraced(w, last, false);
            const TracedRun on = runTraced(w, last, true);
            const core::SweepStats &s = last.stats;
            for (const TracedRun *tr : {&off, &on}) {
                attempted += tr->cells.size();
                std::size_t bad = countMismatches(
                    digestCells(last.cells), digestCells(tr->cells), why);
                if (tr->replayPasses != s.replayPasses ||
                    tr->decodeBytes != s.decodeBytes ||
                    tr->instrsReplayed != s.instrsReplayed) {
                    why.push_back(
                        "traced run replayed " +
                        std::to_string(tr->instrsReplayed) +
                        " record-cells in " +
                        std::to_string(tr->replayPasses) +
                        " decode passes over " +
                        std::to_string(tr->decodeBytes) +
                        " B; the sweep " +
                        std::to_string(s.instrsReplayed) + " in " +
                        std::to_string(s.replayPasses) + " over " +
                        std::to_string(s.decodeBytes) + " B");
                    bad = tr->cells.size();
                }
                failed += bad;
            }
            for (const auto &[n, v] : on.layers)
                metrics.push_back({n, v.value, v.unit});
            metrics.push_back({"sweep.busy_s", median(busyS), "s"});
            metrics.push_back({"sweep.parallel_eff", median(effs), "ratio"});
            metrics.push_back({"sweep.idle_s", median(idleS), "s"});
            addSimMetrics(w, last.cells, metrics);
            metrics.push_back({"trace.overhead_frac",
                               (on.seconds - off.seconds) / off.seconds,
                               "ratio"});
            const std::string traceDir = ".bench_build/uasim-perf/traces";
            const std::string traceOut = traceDir + "/" + name + ".seed" +
                                         std::to_string(args.seed) + ".json";
            std::filesystem::create_directories(traceDir);
            std::ofstream f(traceOut);
            f << on.traceJson;
            if (!f.flush())
                throw std::runtime_error("cannot write " + traceOut);
            std::fprintf(stderr, "trace events: %s\n", traceOut.c_str());
        }

        // Human-readable summary.
        std::fprintf(stderr,
                     "%s seed %llu: %zu iterations, wall_s median %.4f "
                     "q1 %.4f q3 %.4f",
                     name, static_cast<unsigned long long>(args.seed),
                     wallS.size(), median(wallS), quantile(wallS, 0.25),
                     quantile(wallS, 0.75));
        // The highest percentile with at least ten samples beyond it.
        if (wallS.size() >= 20) {
            const double p = 1.0 - 10.0 / double(wallS.size());
            std::fprintf(stderr, " p%.0f %.4f", p * 100,
                         quantile(wallS, p));
        }
        std::fprintf(stderr,
                     "; %zu set-ups, mean %.6f min %.6f max %.6f; "
                     "failed_frac %llu/%llu\n",
                     setupS.size(), mean(setupS), quantile(setupS, 0),
                     quantile(setupS, 1),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
        const std::pair<const char *, const std::vector<double> *>
            samples[] = {{"wall_s", &wallS},
                         {"sweep busy_s", &busyS},
                         {"setup_s", &setupS}};
        for (const auto &[label, values] : samples) {
            std::fprintf(stderr, "%s samples:", label);
            for (std::size_t i = 0; i < values->size() && i < 100; ++i)
                std::fprintf(stderr, " %.4g", (*values)[i]);
            std::fprintf(stderr, values->size() > 100 ? " ...\n" : "\n");
        }
        for (const std::string &line : why)
            std::fprintf(stderr, "  check: %s\n", line.c_str());

        // The stores can be large; the traces stay.
        std::filesystem::remove_all(dir);
        if (attempted == 0) {
            std::fprintf(stderr, "uasim_perf: nothing was checked\n");
            return 1;
        }
        const std::string line =
            resultLine(failed == 0, attempted, failed, metrics);
        std::printf("%s\n", line.c_str());
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uasim_perf: %s\n", e.what());
        return 1;
    }
}
