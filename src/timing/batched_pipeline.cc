#include "timing/batched_pipeline.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace uasim::timing {

using trace::InstrClass;
using trace::InstrRecord;

namespace {

/// Validate @p cfgs and the constructor precondition; return the
/// shared predictor's log2 size (12 for an empty group).
unsigned
checkedGeometry(const std::vector<CoreConfig> &cfgs)
{
    // Same rule as PipelineSim: reject a bad group before sizing
    // anything from it (the shared predictor table, any cell).
    for (const auto &cfg : cfgs) {
        cfg.validate();
        if (cfg.model != "pipeline") {
            throw std::invalid_argument(
                "BatchedPipelineSim: cell \"" + cfg.name +
                "\" has model \"" + cfg.model +
                "\", not \"pipeline\"");
        }
        if (cfg.bpredLog2Entries != cfgs.front().bpredLog2Entries) {
            throw std::invalid_argument(
                "BatchedPipelineSim: cells mix bpredLog2Entries " +
                std::to_string(cfgs.front().bpredLog2Entries) +
                " and " + std::to_string(cfg.bpredLog2Entries));
        }
    }
    return cfgs.empty() ? 12u : unsigned(cfgs.front().bpredLog2Entries);
}

} // namespace

BatchedPipelineSim::Cell::Cell(const CoreConfig &config)
    : cfg(config), mem(config.mem)
{
    res.core = cfg.name;
    storeQ.reserve(cfg.storeQ);
    mshr.reserve(cfg.missMax);
    waiting.reserve(std::size_t(std::max(1, cfg.issueQ)) +
                    std::size_t(std::max(1, cfg.branchQ)));
    const auto inflight = std::size_t(std::max(1, cfg.inflight));
    readyRing.resize(
        std::bit_ceil(std::max(minRingSize, 2 * inflight)));
    ringMask = readyRing.size() - 1;
    ringWatch.resize(readyRing.size());
    // Live slots span pending-overflow + fetch buffer + ROB.
    const auto ibuffer = std::size_t(std::max(1, cfg.ibuffer));
    slots.resize(std::bit_ceil(ibuffer + inflight + 2));
    slotMask = slots.size() - 1;
    pendingCap = std::size_t(2 * cfg.ibuffer);
}

BatchedPipelineSim::BatchedPipelineSim(const std::vector<CoreConfig> &cfgs)
    : bpred_(checkedGeometry(cfgs))
{
    cells_.reserve(cfgs.size());
    std::size_t maxSpan = 1;
    for (const auto &cfg : cfgs) {
        cells_.emplace_back(cfg);
        // pending (cap 2*ibuffer, +1 transient) + fetch buffer + ROB.
        const auto span = 3 * std::size_t(std::max(1, cfg.ibuffer)) +
            std::size_t(std::max(1, cfg.inflight)) + 2;
        maxSpan = std::max(maxSpan, span);
    }
    // A whole appendBlock chunk is staged before the laggiest cell
    // advances, so the window needs chunk headroom past every span.
    window_.resize(std::bit_ceil(maxSpan + chunkRecords + 8));
    windowMispred_.resize(window_.size());
    winMask_ = window_.size() - 1;
}

int
BatchedPipelineSim::Cell::renameLimit(RegFile rf) const
{
    // 32 architected registers are always allocated; the rest rename.
    switch (rf) {
      case RegFile::GPR: return std::max(1, cfg.gprPhys - 32);
      case RegFile::FPR: return std::max(1, cfg.fprPhys - 32);
      case RegFile::VPR: return std::max(1, cfg.vprPhys - 32);
      default: return 1 << 30;
    }
}

int *
BatchedPipelineSim::Cell::renameCounter(RegFile rf)
{
    switch (rf) {
      case RegFile::GPR: return &gprInflight;
      case RegFile::FPR: return &fprInflight;
      case RegFile::VPR: return &vprInflight;
      default: return nullptr;
    }
}

int
BatchedPipelineSim::Cell::classLatency(InstrClass cls) const
{
    switch (cls) {
      case InstrClass::IntAlu:     return cfg.lat.intAlu;
      case InstrClass::IntMul:     return cfg.lat.intMul;
      case InstrClass::FpAlu:      return cfg.lat.fpAlu;
      case InstrClass::Branch:     return cfg.lat.branchResolve;
      case InstrClass::VecSimple:  return cfg.lat.vecSimple;
      case InstrClass::VecComplex: return cfg.lat.vecComplex;
      case InstrClass::VecPerm:    return cfg.lat.vecPerm;
      default:                     return 1;
    }
}

void
BatchedPipelineSim::stageRecord(const InstrRecord &rec)
{
    window_[feedSeq_ & winMask_] = rec;
    // Branch outcomes are stream-pure: predict and train once, in
    // program order, exactly as every per-cell fetch stage would.
    bool mispred = false;
    if (rec.cls == InstrClass::Branch) {
        mispred = bpred_.predict(rec.pc) != rec.taken;
        bpred_.update(rec.pc, rec.taken);
    }
    windowMispred_[feedSeq_ & winMask_] = mispred ? 1 : 0;
    ++feedSeq_;
}

void
BatchedPipelineSim::advanceCell(Cell &cell, std::uint64_t fedEnd)
{
    // Same backpressure rule as PipelineSim::feed(), one record at a
    // time: stage, then pump cycles while pending exceeds the cap.
    while (cell.fed < fedEnd) {
        ++cell.fed;
        while (cell.fed - cell.fetchPos > cell.pendingCap)
            cycleCell(cell);
    }
}

void
BatchedPipelineSim::append(const InstrRecord &rec)
{
    appendBlock(&rec, 1);
}

void
BatchedPipelineSim::appendBlock(const InstrRecord *recs, std::size_t n)
{
    assert(!finalized_);
    while (n > 0) {
        const std::size_t chunk = std::min(n, chunkRecords);
        for (std::size_t i = 0; i < chunk; ++i)
            stageRecord(recs[i]);
        // Cell-major: each cell consumes the whole staged chunk while
        // its machine state is cache-hot.
        for (auto &cell : cells_)
            advanceCell(cell, feedSeq_);
        recs += chunk;
        n -= chunk;
    }
}

std::vector<SimResult>
BatchedPipelineSim::finalizeAll()
{
    std::vector<SimResult> out;
    out.reserve(cells_.size());
    if (!finalized_) {
        for (auto &cell : cells_) {
            assert(cell.fed == feedSeq_);
            // Guard against pathological deadlock, as
            // PipelineSim::finalize() does.
            std::uint64_t limit = cell.now + 1000000 +
                1000 * (cell.fed - cell.retirePos);
            while (cell.retirePos < cell.fed) {
                cycleCell(cell);
                if (cell.now > limit)
                    break;  // report what we have rather than hang
            }
            cell.res.cycles = cell.now;
            const auto &l1d = cell.mem.l1d().stats();
            cell.res.l1dAccesses = l1d.accesses;
            cell.res.l1dMisses = l1d.misses;
            cell.res.l2Misses = cell.mem.l2().stats().misses;
            cell.res.l1iMisses = cell.mem.l1i().stats().misses;
        }
        finalized_ = true;
    }
    for (const auto &cell : cells_)
        out.push_back(cell.res);
    return out;
}

void
BatchedPipelineSim::cycleCell(Cell &cell)
{
    ++cell.now;
    for (int u = 0; u < numUnits; ++u)
        cell.unitTokens[u] = 0;
    cell.unitTokens[int(Unit::FX)] = cell.cfg.units.fx;
    cell.unitTokens[int(Unit::FP)] = cell.cfg.units.fp;
    cell.unitTokens[int(Unit::LS)] = cell.cfg.units.ls;
    cell.unitTokens[int(Unit::BR)] = cell.cfg.units.br;
    cell.unitTokens[int(Unit::VI)] = cell.cfg.units.vi;
    cell.unitTokens[int(Unit::VPERM)] = cell.cfg.units.vperm;
    cell.unitTokens[int(Unit::VCMPLX)] = cell.cfg.units.vcmplx;
    cell.readPorts = cell.cfg.dReadPorts;
    cell.writePorts = cell.cfg.dWritePorts;
    cell.issueTokens = cell.cfg.fetchWidth;

    // Release completed misses.
    if (!cell.mshr.empty()) {
        std::erase_if(cell.mshr, [&cell](std::uint64_t c) {
            return c <= cell.now;
        });
    }

    const std::uint64_t preRetire = cell.retirePos;
    const std::uint64_t preDispatch = cell.dispatchPos;
    const std::uint64_t preFetch = cell.fetchPos;
    const std::uint64_t preStall = cell.fetchStallUntil;

    retireStage(cell);
    issueStage(cell);
    dispatchStage(cell);
    fetchStage(cell);

    // issueTokens only decrements on a successful issue, so a full
    // budget after all four stages means nothing issued this cycle.
    if (preRetire == cell.retirePos && preDispatch == cell.dispatchPos &&
        preFetch == cell.fetchPos && preStall == cell.fetchStallUntil &&
        cell.issueTokens == cell.cfg.fetchWidth) {
        idleJump(cell);
    }
}

void
BatchedPipelineSim::idleJump(Cell &cell)
{
    // The cycle that just ran was provably idle: no stage moved a
    // cursor, nothing issued, and the fetch stall horizon did not
    // move. Every remaining blocker is purely time-driven, so the
    // earliest cycle at which anything can change is the minimum of:
    //
    //  - the ROB head's completion cycle (an un-issued head is
    //    covered by its waiting-list wake bound instead);
    //  - the head store's forward-ready cycle (realignment pipe);
    //  - the earliest MSHR release (frees miss capacity for both the
    //    issue and the store-drain path);
    //  - the fetch stall horizon (icache fill / mispredict redirect);
    //  - every cached wake bound on the waiting list (sound lower
    //    bounds on the next possible issue; wake == 0 entries sit
    //    beyond the in-order lookahead and cannot issue before the
    //    list front moves, which is itself an event above, and
    //    wake == notReady entries wait on a producer issuing, also
    //    an event above).
    //
    // Jumping now to just before that minimum is unobservable except
    // for fetchStallCycles, which the oracle increments once per
    // halted cycle - replicated arithmetically below. Blockers that
    // can clear without a timestamp (port or token shortage, store
    // aliasing, MSHR-full issue retries) always leave a wake bound of
    // now + 1, which forbids the jump.
    std::uint64_t t = notReady;
    if (cell.retirePos < cell.dispatchPos) {
        const Slot &head = cell.slots[cell.retirePos & cell.slotMask];
        if (head.state == State::Issued) {
            if (head.readyCycle > cell.now) {
                t = head.readyCycle;
            } else if (!cell.storeQ.empty() &&
                       cell.storeQ.front().fwdReady > cell.now &&
                       cell.storeQ.front().id == winRec(cell.retirePos).id) {
                t = cell.storeQ.front().fwdReady;
            }
        }
    }
    for (auto c : cell.mshr)
        t = std::min(t, c);  // post-erase entries are all > now
    if (cell.fetchStallUntil > cell.now)
        t = std::min(t, cell.fetchStallUntil);
    for (const auto seq : cell.waiting) {
        const std::uint64_t wake = cell.slots[seq & cell.slotMask].wake;
        if (wake == 0 || wake >= wakeMshrFull)
            continue;
        if (wake <= cell.now)
            return;  // stale bound; take the next cycle normally
        t = std::min(t, wake);
    }
    if (t == notReady || t <= cell.now + 1)
        return;

    const std::uint64_t delta = t - cell.now - 1;
    if (cell.haltBranchId)
        cell.res.fetchStallCycles += delta;
    else if (cell.fetchStallUntil > cell.now + 1)
        cell.res.fetchStallCycles += std::min(
            delta, cell.fetchStallUntil - (cell.now + 1));
    cell.now = t - 1;
}

void
BatchedPipelineSim::retireStage(Cell &cell)
{
    int retired = 0;
    while (cell.retirePos < cell.dispatchPos &&
           retired < cell.cfg.retireWidth) {
        Slot &head = cell.slots[cell.retirePos & cell.slotMask];
        const InstrRecord &rec = winRec(cell.retirePos);
        if (head.state != State::Issued || head.readyCycle > cell.now)
            break;

        if (rec.isStore()) {
            // Drain the store: needs a write port and, on a miss, an
            // MSHR. The store buffer hides the fill latency.
            if (cell.writePorts <= 0)
                break;
            // Find the SQ entry (always the oldest).
            assert(!cell.storeQ.empty() &&
                   cell.storeQ.front().id == rec.id);
            if (cell.storeQ.front().fwdReady > cell.now)
                break;  // store pipeline (realignment) still busy
            bool would_miss =
                !cell.mem.l1d().probe(cell.mem.l1d().lineAddr(rec.addr));
            if (would_miss &&
                cell.mshr.size() >=
                    static_cast<std::size_t>(cell.cfg.missMax)) {
                break;
            }
            auto acc = cell.mem.dataAccess(rec.addr, rec.size, true,
                                           cell.now);
            if (acc.l1Miss)
                cell.mshr.push_back(cell.now + acc.extraLatency);
            if (acc.crossedLine) {
                ++cell.res.lineCrossings;
                if (!cell.cfg.mem.parallelBanks && cell.writePorts >= 2)
                    --cell.writePorts;
            }
            --cell.writePorts;
            cell.storeQ.erase(cell.storeQ.begin());
        }

        if (auto *ctr = cell.renameCounter(destRegFile(rec.cls)))
            --*ctr;
        ++cell.res.instrs;
        ++cell.retirePos;
        ++retired;
    }
}

bool
BatchedPipelineSim::tryIssue(Cell &cell, std::uint64_t seq)
{
    Slot &slot = cell.slots[seq & cell.slotMask];
    const InstrRecord &rec = winRec(seq);
    // Default retry bound: transient resource shortage, recheck next
    // cycle (tokens and ports refresh, queues can drain).
    slot.wake = cell.now + 1;
    // Producer check first (the oracle checks unit tokens first, but
    // every failure path up to the issue commit is side-effect-free,
    // so the order is unobservable): a producer-blocked slot yields a
    // cacheable wake bound, a token-blocked one does not.
    std::uint64_t depWake = 0;
    for (auto d : rec.deps) {
        if (d)
            depWake = std::max(depWake, cell.readyCycleOf(d));
    }
    if (depWake > cell.now) {
        // Sound until any dep's ring entry is rewritten; register
        // this slot as a watcher on every index read so setReady
        // zeroes the bound when that happens.
        for (auto d : rec.deps) {
            if (d)
                cell.watchDep(d, seq);
        }
        slot.wake = depWake;
        return false;
    }
    int unit = int(unitFor(rec.cls));
    if (cell.unitTokens[unit] <= 0)
        return false;

    if (rec.isLoad()) {
        if (cell.readPorts <= 0)
            return false;
        // Store-to-load aliasing against older, undrained stores.
        const StoreEntry *blocker = nullptr;
        const StoreEntry *forwarder = nullptr;
        for (const auto &se : cell.storeQ) {
            if (se.id >= rec.id)
                break;
            std::uint64_t s_end = se.addr + se.size;
            std::uint64_t l_end = rec.addr + rec.size;
            bool overlap = se.addr < l_end && rec.addr < s_end;
            if (!overlap)
                continue;
            bool contains = se.addr <= rec.addr && l_end <= s_end;
            if (contains && se.issued && se.fwdReady <= cell.now) {
                forwarder = &se;     // youngest containing store wins
                blocker = nullptr;
            } else {
                blocker = &se;
                forwarder = nullptr;
            }
        }
        if (blocker) {
            // The classification of this load is decided by the last
            // overlapping older store, and drains (front-first) never
            // remove it before it issues - so the earliest the
            // verdict can change is a computable event. An unissued
            // blocker flips at its own issue (a setReady on its id,
            // so the watch fires); an issued containing blocker
            // becomes a forwarder exactly at fwdReady. A partial
            // overlap persists until the store drains, which has no
            // timestamp - retry next cycle as before.
            if (!blocker->issued) {
                cell.watchDep(blocker->id, seq);
                slot.wake = notReady;
            } else if (blocker->addr <= rec.addr &&
                       rec.addr + rec.size <=
                           blocker->addr + blocker->size &&
                       blocker->fwdReady > cell.now) {
                slot.wake = blocker->fwdReady;
            }
            return false;
        }

        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (forwarder) {
            ++cell.res.storeForwards;
        } else {
            auto &l1d = cell.mem.l1d();
            // Mirrors PipelineSim via the shared
            // CoreConfig::crossingLoadNeedsSecondPort() rule, run
            // before the cache access so a port-starved retry cannot
            // touch cache state.
            bool crosses =
                l1d.lineAddr(rec.addr) !=
                l1d.lineAddr(rec.addr + rec.size - 1);
            if (crosses && cell.cfg.crossingLoadNeedsSecondPort() &&
                cell.readPorts < 2) {
                return false;
            }
            bool would_miss =
                !l1d.probe(l1d.lineAddr(rec.addr)) ||
                (crosses &&
                 !l1d.probe(l1d.lineAddr(rec.addr + rec.size - 1)));
            if (would_miss &&
                cell.mshr.size() >=
                    static_cast<std::size_t>(cell.cfg.missMax)) {
                // Only a full MSHR file blocks this load (no older
                // overlapping store reached this far): idle-stable,
                // so it does not veto an idle jump.
                slot.wake = wakeMshrFull;
                return false;
            }
            auto acc = cell.mem.dataAccess(rec.addr, rec.size, false,
                                           cell.now);
            extra = acc.extraLatency;
            if (acc.crossedLine) {
                ++cell.res.lineCrossings;
                if (cell.cfg.crossingLoadNeedsSecondPort())
                    --cell.readPorts;
            }
            if (acc.l1Miss)
                cell.mshr.push_back(cell.now + cell.cfg.lat.load + extra);
        }
        if (runtime_unaligned) {
            ++cell.res.unalignedVecOps;
            extra += cell.cfg.lat.unalignedLoadExtra;
        }
        --cell.readPorts;
        slot.readyCycle = cell.now + cell.cfg.lat.load + extra;
    } else if (rec.isStore()) {
        // Address generation / data hand-off to the store queue.
        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (runtime_unaligned) {
            ++cell.res.unalignedVecOps;
            extra = cell.cfg.lat.unalignedStoreExtra;
        }
        slot.readyCycle = cell.now + 1;
        for (auto &se : cell.storeQ) {
            if (se.id == rec.id) {
                se.issued = true;
                se.fwdReady = cell.now + 1 + extra;
                break;
            }
        }
    } else if (rec.cls == InstrClass::Branch) {
        std::uint64_t resolve = cell.now + cell.cfg.lat.branchResolve;
        slot.readyCycle = resolve;
        ++cell.res.branches;
        if (mispredAt(seq)) {
            ++cell.res.mispredicts;
            cell.fetchStallUntil = std::max(
                cell.fetchStallUntil,
                resolve + cell.cfg.lat.mispredictPenalty);
            if (cell.haltBranchId == rec.id)
                cell.haltBranchId = 0;
        }
    } else {
        slot.readyCycle = cell.now + cell.classLatency(rec.cls);
    }

    --cell.unitTokens[unit];
    --cell.issueTokens;
    slot.state = State::Issued;
    cell.setReady(rec.id, slot.readyCycle);
    if (rec.cls == InstrClass::Branch)
        --cell.waitingBranch;
    else
        --cell.waitingNonBranch;
    return true;
}

void
BatchedPipelineSim::issueStage(Cell &cell)
{
    // Scan only the Waiting slots (in ROB order): tryIssue is
    // side-effect-free for slots it is never called on, so skipping
    // Issued slots reproduces PipelineSim's full-ROB walk exactly.
    auto &waiting = cell.waiting;
    const std::size_t n = waiting.size();
    std::size_t keep = 0;
    std::size_t i = 0;
    if (cell.cfg.outOfOrder) {
        for (; i < n; ++i) {
            if (cell.issueTokens <= 0)
                break;
            const std::uint64_t seq = waiting[i];
            const std::uint64_t wake =
                cell.slots[seq & cell.slotMask].wake;
            if ((wake > cell.now && wake != wakeMshrFull) ||
                !tryIssue(cell, seq))
                waiting[keep++] = seq;
        }
    } else {
        // Near-program-order issue with a bounded static-scheduling
        // window (see CoreConfig::inorderLookahead); the lookahead
        // counts Waiting slots examined, as PipelineSim's walk does -
        // a wake-skipped slot was still examined by the oracle's walk,
        // so it consumes lookahead all the same.
        int seen = 0;
        for (; i < n; ++i) {
            if (cell.issueTokens <= 0)
                break;
            const std::uint64_t seq = waiting[i];
            const std::uint64_t wake =
                cell.slots[seq & cell.slotMask].wake;
            if ((wake > cell.now && wake != wakeMshrFull) ||
                !tryIssue(cell, seq))
                waiting[keep++] = seq;
            if (++seen >= cell.cfg.inorderLookahead) {
                ++i;
                break;
            }
        }
    }
    if (keep != i) {
        for (; i < n; ++i)
            waiting[keep++] = waiting[i];
        waiting.resize(keep);
    }
}

void
BatchedPipelineSim::dispatchStage(Cell &cell)
{
    int dispatched = 0;
    while (cell.dispatchPos < cell.fetchPos &&
           dispatched < cell.cfg.fetchWidth) {
        const InstrRecord &rec = winRec(cell.dispatchPos);
        if (cell.dispatchPos - cell.retirePos >=
            static_cast<std::uint64_t>(cell.cfg.inflight)) {
            break;
        }
        bool is_branch = rec.cls == InstrClass::Branch;
        if (is_branch && cell.waitingBranch >= cell.cfg.branchQ)
            break;
        if (!is_branch && cell.waitingNonBranch >= cell.cfg.issueQ)
            break;
        RegFile rf = destRegFile(rec.cls);
        int *ctr = cell.renameCounter(rf);
        if (ctr && *ctr >= cell.renameLimit(rf))
            break;
        if (rec.isStore()) {
            if (cell.storeQ.size() >=
                static_cast<std::size_t>(cell.cfg.storeQ)) {
                break;
            }
            StoreEntry se;
            se.id = rec.id;
            se.addr = rec.addr;
            se.size = rec.size;
            cell.storeQ.push_back(se);
        }
        if (ctr)
            ++*ctr;
        if (is_branch)
            ++cell.waitingBranch;
        else
            ++cell.waitingNonBranch;
        cell.setReady(rec.id, notReady);
        cell.waiting.push_back(cell.dispatchPos);
        ++cell.dispatchPos;
        ++dispatched;
    }
}

void
BatchedPipelineSim::fetchStage(Cell &cell)
{
    if (cell.now < cell.fetchStallUntil || cell.haltBranchId) {
        ++cell.res.fetchStallCycles;
        return;
    }
    int fetched = 0;
    while (cell.fetchPos < cell.fed && fetched < cell.cfg.fetchWidth &&
           cell.fetchPos - cell.dispatchPos <
               static_cast<std::uint64_t>(cell.cfg.ibuffer)) {
        const InstrRecord &rec = winRec(cell.fetchPos);

        // Instruction-cache access per new line.
        std::uint64_t line = cell.mem.l1i().lineAddr(rec.pc);
        if (line != cell.lastFetchLine) {
            auto acc = cell.mem.fetchAccess(rec.pc, cell.now);
            cell.lastFetchLine = line;
            if (acc.extraLatency > 0) {
                cell.fetchStallUntil = cell.now + acc.extraLatency;
                return;
            }
        }

        Slot &slot = cell.slots[cell.fetchPos & cell.slotMask];
        slot.state = State::Waiting;
        slot.readyCycle = 0;
        slot.wake = 0;

        if (rec.cls == InstrClass::Branch && mispredAt(cell.fetchPos)) {
            cell.haltBranchId = rec.id;
            ++cell.fetchPos;
            return;  // fetch halts behind the mispredict
        }
        ++cell.fetchPos;
        ++fetched;
    }
}

} // namespace uasim::timing
