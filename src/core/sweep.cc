#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>  // uasim-lint: allow(sim-determinism)
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "timing/model.hh"
#include "trace/trace_buffer.hh"

namespace uasim::core {

namespace {

// Wall-clock feeds only the *Seconds informational stats, never a
// simulated counter: the artifact differ ignores these fields.
using Clock = std::chrono::steady_clock;  // uasim-lint: allow(sim-determinism)

double
secondsSince(Clock::time_point start)
{
    // uasim-lint: allow(sim-determinism)
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cells of one trace, prepartitioned (the runner's work unit).
struct TraceGroup {
    int trace = 0;
    std::vector<int> cellIndices;
};

} // namespace

int
SweepPlan::addTrace(TraceJob job)
{
    auto [it, inserted] =
        traceIndex_.try_emplace(job.key, int(traces_.size()));
    if (inserted)
        traces_.push_back(std::move(job));
    return it->second;
}

int
SweepPlan::addConfig(std::string label, timing::CoreConfig cfg)
{
    configs_.push_back({std::move(label), std::move(cfg)});
    return int(configs_.size()) - 1;
}

void
SweepPlan::addCell(int trace, int config)
{
    cells_.push_back({trace, config});
}

void
SweepPlan::crossProduct()
{
    for (int t = 0; t < int(traces_.size()); ++t) {
        for (int c = 0; c < int(configs_.size()); ++c)
            addCell(t, c);
    }
}

SweepRunner::SweepRunner(int threads)
{
    if (threads <= 0) {
        threads = int(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    threads_ = threads;
}

void
SweepRunner::attachStore(const std::string &dir)
{
    store_ = std::make_unique<trace::TraceStore>(dir);
}

std::vector<SweepCellResult>
SweepRunner::run(const SweepPlan &plan)
{
    const auto wallStart = Clock::now();
    stats_ = SweepStats{};

    // Partition cells into per-trace groups, preserving plan order
    // within each group.
    std::vector<TraceGroup> groups(plan.traces().size());
    for (int t = 0; t < int(groups.size()); ++t)
        groups[t].trace = t;
    for (int i = 0; i < int(plan.cells().size()); ++i)
        groups[plan.cells()[i].trace].cellIndices.push_back(i);
    std::erase_if(groups, [](const TraceGroup &g) {
        return g.cellIndices.empty();
    });

    // The configs the runner simulates: the backend override is
    // applied on the runner's private copy, so the plan keeps
    // describing the grid and the runner decides which model
    // simulates it. Every timing cell's config is validated here,
    // before any worker starts, so a bad one fails the run before
    // anything is emulated or written to the store.
    std::vector<timing::CoreConfig> cfgs;
    cfgs.reserve(plan.configs().size());
    for (const ConfigJob &job : plan.configs()) {
        cfgs.push_back(job.cfg);
        if (!timingModel_.empty())
            cfgs.back().model = timingModel_;
    }
    for (const SweepCell &cell : plan.cells()) {
        if (cell.config != SweepCell::mixOnly)
            cfgs[std::size_t(cell.config)].validate();
    }

    std::vector<SweepCellResult> results(plan.cells().size());

    struct WorkerTotals {
        std::uint64_t recorded = 0, loaded = 0, replayed = 0,
                      traces = 0, tracesLoaded = 0, tracesStored = 0,
                      cells = 0, replayPasses = 0, decodeBytes = 0,
                      bytesMapped = 0;
        double recordSec = 0, replaySec = 0, streamSec = 0,
               loadSec = 0, decodeSec = 0;
        int maxShards = 1;  //!< widest intra-group shard fan-out used

        void
        merge(const WorkerTotals &o)
        {
            recorded += o.recorded;
            loaded += o.loaded;
            replayed += o.replayed;
            traces += o.traces;
            tracesLoaded += o.tracesLoaded;
            tracesStored += o.tracesStored;
            cells += o.cells;
            replayPasses += o.replayPasses;
            decodeBytes += o.decodeBytes;
            bytesMapped += o.bytesMapped;
            recordSec += o.recordSec;
            replaySec += o.replaySec;
            streamSec += o.streamSec;
            loadSec += o.loadSec;
            decodeSec += o.decodeSec;
            maxShards = std::max(maxShards, o.maxShards);
        }
    };

    // Group workers: one per trace group, capped by the group count.
    // Thread budget the group level cannot use (fewer groups than
    // threads - the single-big-group shape) is spent *inside* the
    // groups as replay shards, so --threads N engages N workers
    // either way.
    const int poolSize =
        std::max(1, std::min<int>(threads_, int(groups.size())));
    const int shardBudget = std::max(1, threads_ / poolSize);

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abortRun{false};
    std::mutex totalsMutex;
    WorkerTotals totals;
    std::exception_ptr firstError;
    std::mutex errorMutex;

    auto worker = [&]() {
        WorkerTotals local;

        try {
            for (;;) {
                // Stop the whole pool at the first failure instead of
                // draining (and then discarding) the remaining groups.
                if (abortRun.load(std::memory_order_relaxed))
                    break;
                std::size_t gi =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (gi >= groups.size())
                    break;
                const TraceGroup &group = groups[gi];
                const TraceJob &job = plan.traces()[group.trace];

                // The group's timing cells, in plan order (the shard
                // split below partitions these contiguously, so the
                // result layout never depends on shard count).
                std::vector<int> timingCis;
                std::vector<timing::CoreConfig> timingCfgs;
                for (int ci : group.cellIndices) {
                    const SweepCell &cell = plan.cells()[ci];
                    if (cell.config == SweepCell::mixOnly)
                        continue;
                    timingCis.push_back(ci);
                    timingCfgs.push_back(cfgs[std::size_t(cell.config)]);
                }
                const int timingCells = int(timingCis.size());

                trace::TraceStore *store =
                    (store_ && job.cacheable) ? store_.get() : nullptr;

                // Replay every timing cell from one record source.
                // When the trace's mix is known before the pass (@p
                // known: a store hit or a buffered miss), cells whose
                // CoreConfig::canonicalFor(mix) configs are equal,
                // name aside, share one engine cell: they differ only
                // in knobs no instruction of the trace reads, so their
                // results are equal. The distinct configs are cut into
                // min(shardBudget, distinct) contiguous slices; each
                // slice is one batched model fed by its own feed(sink,
                // totals) pass, which returns the records it fed. Slice
                // 0 runs on this thread, the rest on short-lived
                // threads. Cells are mutually independent, so any split
                // fills identical results (tests/batched_replay_test.cc
                // and the sharding cases in tests/sweep_test.cc); only
                // pass count and wall time differ. After the join every
                // cell takes its engine cell's result under its own
                // name. Each slice counts into its own totals, which
                // merge into the worker's only when every slice
                // succeeded: the first exception rethrows here with no
                // partial accounting, so a store hit that falls back to
                // re-recording starts from a clean slate. Each pass's
                // time lands in @p seconds; instrsReplayed counts the
                // trace once per timing cell, shared or not.
                auto replay = [&](double WorkerTotals::*seconds,
                                  const trace::InstrMix *known,
                                  auto &&feed) {
                    std::vector<timing::CoreConfig> distinct;
                    std::vector<std::size_t> engineCell;
                    engineCell.reserve(timingCfgs.size());
                    for (const timing::CoreConfig &cfg : timingCfgs) {
                        timing::CoreConfig key =
                            known ? cfg.canonicalFor(*known) : cfg;
                        key.name.clear();
                        auto it = std::find(distinct.begin(),
                                            distinct.end(), key);
                        engineCell.push_back(
                            std::size_t(it - distinct.begin()));
                        if (it == distinct.end())
                            distinct.push_back(std::move(key));
                    }
                    const std::size_t cellsN = distinct.size();
                    const int nShards =
                        std::min<int>(shardBudget, int(cellsN));
                    std::vector<timing::SimResult> sims(cellsN);
                    std::vector<std::uint64_t> shardRecords(nShards);
                    std::vector<WorkerTotals> shardTotals(nShards);
                    std::vector<std::exception_ptr> shardErrors(nShards);
                    auto pass = [&](int k) {
                        const std::size_t lo =
                            cellsN * std::size_t(k) / nShards;
                        const std::size_t hi =
                            cellsN * std::size_t(k + 1) / nShards;
                        WorkerTotals &lt = shardTotals[k];
                        try {
                            auto t0 = Clock::now();
                            auto batch = timing::makeBatchedTimingModel(
                                std::vector<timing::CoreConfig>(
                                    distinct.begin() + lo,
                                    distinct.begin() + hi));
                            shardRecords[k] = feed(*batch, lt);
                            auto part = batch->finalizeAll();
                            std::move(part.begin(), part.end(),
                                      sims.begin() + lo);
                            lt.*seconds += secondsSince(t0);
                            ++lt.replayPasses;
                        } catch (...) {
                            shardErrors[k] = std::current_exception();
                        }
                    };
                    {
                        // jthread joins on destruction, so every started
                        // shard is joined even if a later one fails to
                        // start.
                        std::vector<std::jthread> shardPool;
                        shardPool.reserve(nShards - 1);
                        for (int k = 1; k < nShards; ++k)
                            shardPool.emplace_back(pass, k);
                        pass(0);
                    }
                    for (auto &e : shardErrors) {
                        if (e)
                            std::rethrow_exception(e);
                    }
                    for (std::size_t i = 0; i < timingCis.size(); ++i) {
                        timing::SimResult &sim = results[timingCis[i]].sim;
                        sim = sims[engineCell[i]];
                        sim.core = timingCfgs[i].name;
                    }
                    for (const auto &st : shardTotals)
                        local.merge(st);
                    // Every pass feeds the whole trace.
                    local.replayed += shardRecords[0] * timingCis.size();
                    local.maxShards = std::max(local.maxShards, nShards);
                };

                trace::InstrMix mix;
                bool fromStore = false;

                // Store probe, shaped per group kind so a hit never
                // materializes state the cells don't need: a mix-only
                // group reads just the header's validated mix section
                // (no payload decode at all); a timing group opens the
                // entry zero-copy (mmap where available) and every
                // replay slice decodes it through its own TraceCursor.
                // Replay equivalence keeps every hit bit-identical to
                // recording in-process. A payload that fails mid-decode
                // (valid checksum, corrupt stream) is discarded like any
                // corrupt entry and the group falls through to
                // re-recording, which overwrites any result slots the
                // failed pass filled.
                if (store && timingCells == 0) {
                    auto t0 = Clock::now();
                    if (auto sum = store->loadSummary(job.key)) {
                        mix = sum->mix;
                        local.loadSec += secondsSince(t0);
                        local.loaded += sum->count;
                        ++local.tracesLoaded;
                        fromStore = true;
                    }
                } else if (store) {
                    if (auto reader = store->openReader(job.key)) {
                        try {
                            replay(&WorkerTotals::replaySec, &reader->mix(),
                                   [&reader](trace::TraceSink &sink,
                                             WorkerTotals &lt) {
                                trace::TraceCursor cur = reader->cursor();
                                trace::InstrRecord block[1024];
                                for (;;) {
                                    auto d0 = Clock::now();
                                    const std::size_t got = cur.nextBlock(
                                        block, std::size(block));
                                    lt.decodeSec += secondsSince(d0);
                                    if (got == 0)
                                        break;
                                    sink.appendBlock(block, got);
                                }
                                lt.decodeBytes += reader->payloadBytes();
                                return reader->count();
                            });
                            mix = reader->mix();
                            if (reader->mapped()) {
                                local.bytesMapped +=
                                    reader->payloadBytes();
                            }
                            local.loaded += reader->count();
                            ++local.tracesLoaded;
                            fromStore = true;
                        } catch (const std::runtime_error &e) {
                            // A decode error (every config was
                            // validated before the workers started).
                            store->discardEntry(job.key, e.what());
                        }
                    }
                }

                // Write-through recorder for a store miss; a failed
                // store write degrades to an uncached run, never a
                // failed sweep.
                std::unique_ptr<trace::TraceStore::Recorder> recorder;
                if (store && !fromStore)
                    recorder = store->startRecord(job.key);
                // One emulation pass into @p sink, tee'd to the recorder.
                auto record = [&](trace::TraceSink &sink) {
                    if (recorder) {
                        trace::TeeSink tee(sink, *recorder);
                        job.record(tee);
                    } else {
                        job.record(sink);
                    }
                };
                auto commitRecorder = [&]() {
                    if (!recorder)
                        return;
                    try {
                        recorder->commit();
                        ++local.tracesStored;
                    } catch (const std::exception &e) {
                        std::fprintf(stderr,
                                     "trace-store: cannot persist "
                                     "\"%s\": %s; continuing\n",
                                     job.key.c_str(), e.what());
                    }
                    recorder.reset();
                };

                if (fromStore) {
                    // All cells already filled by the probe above.
                } else if (timingCells == 0) {
                    auto t0 = Clock::now();
                    trace::CountingSink counter;
                    record(counter);
                    mix = counter.mix();
                    local.recordSec += secondsSince(t0);
                    local.recorded += mix.total();
                    commitRecorder();
                } else if (timingCells == 1) {
                    // One consumer: stream the emulation straight into
                    // its one-cell model, with no buffer (replay
                    // equivalence makes this bit-identical to the
                    // buffered path). Its mix is known only after the
                    // pass, and one cell has nothing to share, so it
                    // runs its own config as is. The pass interleaves
                    // record and replay work, so its time is accounted
                    // as streamSeconds, and its instructions count as
                    // both recorded and replayed, keeping the
                    // instruction totals identical to the buffered
                    // path's.
                    trace::CountingSink counter;
                    replay(&WorkerTotals::streamSec, nullptr,
                           [&](trace::TraceSink &sim, WorkerTotals &) {
                        trace::TeeSink tee(counter, sim);
                        record(tee);
                        return counter.mix().total();
                    });
                    mix = counter.mix();
                    local.recorded += mix.total();
                    commitRecorder();
                } else {
                    // Several consumers: record once into memory, then
                    // every replay slice walks the buffer.
                    trace::TraceBuffer buffer;
                    auto t0 = Clock::now();
                    record(buffer);
                    mix = buffer.mix();
                    local.recordSec += secondsSince(t0);
                    local.recorded += buffer.size();
                    commitRecorder();
                    replay(&WorkerTotals::replaySec, &buffer.mix(),
                           [&buffer](trace::TraceSink &sink,
                                     WorkerTotals &) {
                        buffer.replayInto(sink);
                        return std::uint64_t(buffer.size());
                    });
                }

                for (int ci : group.cellIndices) {
                    const SweepCell &cell = plan.cells()[ci];
                    auto &res = results[ci];
                    res.traceKey = job.key;
                    if (cell.config != SweepCell::mixOnly) {
                        res.configLabel =
                            plan.configs()[cell.config].label;
                    }
                    res.mix = mix;
                    res.traceInstrs = mix.total();
                    ++local.cells;
                }
                if (!fromStore)
                    ++local.traces;
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            abortRun.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(totalsMutex);
        totals.merge(local);
    };

    if (poolSize <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(poolSize);
        for (int i = 0; i < poolSize; ++i)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    stats_.threads = poolSize * std::max(1, totals.maxShards);
    stats_.tracesRecorded = totals.traces;
    stats_.tracesLoaded = totals.tracesLoaded;
    stats_.tracesStored = totals.tracesStored;
    stats_.cellsRun = totals.cells;
    stats_.instrsRecorded = totals.recorded;
    stats_.instrsLoaded = totals.loaded;
    stats_.instrsReplayed = totals.replayed;
    stats_.replayPasses = totals.replayPasses;
    stats_.decodeBytes = totals.decodeBytes;
    stats_.bytesMapped = totals.bytesMapped;
    stats_.recordSeconds = totals.recordSec;
    stats_.replaySeconds = totals.replaySec;
    stats_.streamSeconds = totals.streamSec;
    stats_.loadSeconds = totals.loadSec;
    stats_.decodeSeconds = totals.decodeSec;
    stats_.wallSeconds = secondsSince(wallStart);
    return results;
}

TraceJob
kernelTraceJob(const KernelSpec &spec, h264::Variant variant,
               int execs, std::uint64_t seed, int warmupCalls)
{
    std::string key = spec.name();
    key += '/';
    key += h264::variantName(variant);
    key += '/';
    key += std::to_string(execs);
    key += '/';
    key += std::to_string(seed);
    if (warmupCalls > 0) {
        key += "/w";
        key += std::to_string(warmupCalls);
    }
    return {std::move(key), [spec, variant, execs, seed, warmupCalls](
                                trace::TraceSink &sink) {
                KernelBench bench(spec, seed);
                for (int k = 0; k < warmupCalls; ++k)
                    bench.advanceState(variant, execs);
                bench.recordTrace(variant, execs, sink);
            }};
}

} // namespace uasim::core
