/**
 * @file
 * Batched multi-configuration replay: one decoded trace record
 * advances N independent timing-cell states in a single pass.
 *
 * A BatchedPipelineSim holds one machine state per CoreConfig of a
 * sweep group and consumes the instruction stream exactly once,
 * instead of the per-cell path's one full replay per configuration.
 * Every cell's simulated counters are bit-identical to feeding the
 * same stream into a standalone PipelineSim with the same config
 * (tests/batched_replay_test.cc is the differential harness that
 * locks this cell for cell; the per-cell path stays available as the
 * reference oracle behind SweepRunner's ReplayMode::PerCell).
 *
 * Why it is faster than N PipelineSims, while staying bit-identical:
 *
 *  - **Shared record window.** All cells consume the same records in
 *    the same order, and each cell's pending/fetch-buffer/ROB windows
 *    are contiguous ranges of that one sequence (fetch, dispatch and
 *    retire all pop from the front). So the stream is materialized
 *    once in a power-of-two window ring and each cell keeps three
 *    cursors into it, instead of copying every record through three
 *    std::deques per cell.
 *  - **Stream-pure branch prediction.** PipelineSim queries and
 *    trains the gshare predictor exactly once per record, in fetch
 *    (= program) order, regardless of cycle timing - so the predicted
 *    direction of every branch is a pure function of the stream. The
 *    batch precomputes one mispredict bit per record with a single
 *    shared predictor instead of running one table per cell. (The
 *    I-cache and data hierarchy are NOT shareable - they couple
 *    through the unified L2, whose contents depend on per-cell issue
 *    timing - so each cell owns a full MemoryHierarchy.)
 *  - **Waiting-list issue scan.** PipelineSim's issue stage walks the
 *    whole ROB (up to cfg.inflight entries) every cycle even when
 *    almost all slots are already issued. Only Waiting slots can
 *    issue, tryIssue is side-effect-free for slots it is never called
 *    on, and dispatch bounds the waiting population by issueQ +
 *    branchQ - so the batch scans a compact ordered list of waiting
 *    slots (same slots, same order, same per-cycle token state:
 *    bit-identical decisions at a fraction of the memory traffic).
 *  - **Wakeup-cached issue attempts.** A failed tryIssue is pure, so
 *    skipping a retry that is certain to fail again is unobservable.
 *    When a slot is blocked on producers, the max producer ready
 *    cycle is a sound earliest-retry bound - sound *until* any of
 *    the dep's ready-ring entries is rewritten (a producer issuing,
 *    or an aliasing id overwriting the tagged slot, which makes the
 *    dep read as ready immediately). Every rewrite goes through
 *    setReady, so each cached bound registers its ROB slot as a
 *    watcher on the ring indices it read, and setReady zeroes the
 *    wake of exactly those watchers (push invalidation: one producer
 *    issuing wakes just its own consumers; a watcher-list overflow
 *    degrades to flushing every cached bound, which is always safe).
 *    Resource-blocked slots (tokens, ports, store queue) retry next
 *    cycle as before. Net effect: the oracle's ~16 failed issue
 *    attempts per cycle collapse to one integer compare each.
 *  - **Idle-cycle event jump.** Under long-latency stalls (an L2 or
 *    memory miss pins the ROB head for hundreds of cycles) most
 *    cycles move no cursor and issue nothing. After such a provably
 *    idle cycle every remaining blocker is time-driven, so the clock
 *    jumps to the earliest of head completion, store forward-ready,
 *    MSHR release, fetch-stall horizon and cached wake bounds,
 *    accruing the skipped fetch-stall cycles arithmetically. Any
 *    blocker that can clear without a timestamp leaves a wake bound
 *    of now + 1, which forbids the jump (see idleJump()).
 *
 * Field-table rule (core/result.hh): a counter added to SimResult
 * must be accumulated here as well as in PipelineSim, and
 * batched_replay_test compares the two engines over the full
 * simResultFields() table - a counter wired into only one engine
 * fails the harness instead of silently diverging.
 */

#ifndef UASIM_TIMING_BATCHED_PIPELINE_HH
#define UASIM_TIMING_BATCHED_PIPELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/hierarchy.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "timing/results.hh"
#include "trace/sink.hh"

namespace uasim::timing {

class BatchedPipelineSim : public BatchedTimingModel
{
  public:
    /**
     * One machine state per entry of @p cfgs (duplicates allowed;
     * every cell is simulated independently). Precondition, enforced:
     * every entry is a valid "pipeline" cell and all share one
     * bpredLog2Entries (the shared mispredict precompute runs a
     * single predictor). makeBatchedTimingModel() splits any other
     * group, giving each predictor geometry's "pipeline" cells one
     * BatchedPipelineSim and every other cell its own TimingModel.
     * @throws std::invalid_argument on a violation, before sizing
     * anything from the configs.
     */
    explicit BatchedPipelineSim(const std::vector<CoreConfig> &cfgs);

    /// TraceSink hook: feed one record to every cell.
    void append(const trace::InstrRecord &rec) override;

    /// Feed a decoded block to every cell, cell-major per chunk so a
    /// cell's working state stays cache-hot across the whole chunk.
    void appendBlock(const trace::InstrRecord *recs,
                     std::size_t n) override;

    /**
     * Drain every cell and return per-cell results, in constructor
     * config order. Idempotent.
     */
    std::vector<SimResult> finalizeAll() override;

    int cellCount() const override { return int(cells_.size()); }

  private:
    enum class State : std::uint8_t { Waiting, Issued };

    /// Per-cell view of one in-flight record (the record itself lives
    /// once in the shared window).
    struct Slot {
        std::uint64_t readyCycle = 0;
        /// Cached earliest-retry cycle while Waiting. 0 = no cached
        /// bound, run the real checks; notReady = blocked until a
        /// watched ready-ring index is rewritten (setReady zeroes
        /// this through the watcher list); wakeMshrFull = see below.
        std::uint64_t wake = 0;
        State state = State::Waiting;
    };

    struct StoreEntry {
        std::uint64_t id = 0;
        std::uint64_t addr = 0;
        std::uint64_t fwdReady = 0;
        unsigned size = 0;
        bool issued = false;
    };

    struct ReadyEntry {
        std::uint64_t id = 0;
        std::uint64_t cycle = 0;
    };

    /// Watcher list of one ready-ring index: the ROB seqs whose
    /// cached wake bound must be dropped when the index is rewritten.
    /// Sized for an in-flight fan-out of 3 consumers; beyond that the
    /// overflow flag makes the next rewrite flush every cached bound
    /// of the cell (always safe, just slower).
    struct RingWatch {
        std::array<std::uint64_t, 3> seq{};
        std::uint8_t n = 0;
        bool overflow = false;
    };

    /**
     * One independent machine. Its pending / fetch-buffer / ROB
     * contents are the contiguous record ranges [fetchPos, fed),
     * [dispatchPos, fetchPos) and [retirePos, dispatchPos) of the
     * shared sequence.
     */
    struct Cell {
        explicit Cell(const CoreConfig &config);

        CoreConfig cfg;
        mem::MemoryHierarchy mem;

        std::uint64_t now = 0;
        std::uint64_t fed = 0;        //!< records fed to this cell
        std::uint64_t fetchPos = 0;   //!< first un-fetched record
        std::uint64_t dispatchPos = 0;
        std::uint64_t retirePos = 0;
        std::size_t pendingCap = 0;   //!< 2 * cfg.ibuffer (feed rule)

        std::vector<Slot> slots;      //!< ring over [retirePos, fetchPos)
        std::size_t slotMask = 0;
        std::vector<ReadyEntry> readyRing;
        std::size_t ringMask = 0;
        std::vector<StoreEntry> storeQ;
        std::vector<std::uint64_t> mshr;
        /// Seqs of Waiting ROB slots, in ROB (= program) order.
        std::vector<std::uint64_t> waiting;
        /// Per-ready-ring-index watcher lists for push invalidation
        /// of cached wake bounds.
        std::vector<RingWatch> ringWatch;

        std::uint64_t fetchStallUntil = 0;
        std::uint64_t haltBranchId = 0;
        std::uint64_t lastFetchLine = ~std::uint64_t{0};

        int gprInflight = 0;
        int fprInflight = 0;
        int vprInflight = 0;
        int waitingNonBranch = 0;
        int waitingBranch = 0;

        int unitTokens[numUnits] = {};
        int readPorts = 0;
        int writePorts = 0;
        int issueTokens = 0;

        SimResult res;

        int renameLimit(RegFile rf) const;
        int *renameCounter(RegFile rf);
        int classLatency(trace::InstrClass cls) const;

        std::uint64_t
        readyCycleOf(std::uint64_t id) const
        {
            if (!id)
                return 0;
            const auto &e = readyRing[id & ringMask];
            return e.id == id ? e.cycle : 0;
        }

        void
        setReady(std::uint64_t id, std::uint64_t cycle)
        {
            const auto idx = id & ringMask;
            auto &e = readyRing[idx];
            e.id = id;
            e.cycle = cycle;
            RingWatch &wt = ringWatch[idx];
            if (wt.overflow) {
                // A past registration did not fit: conservatively
                // drop every cached bound (a zero wake only forces a
                // re-run of the real checks, never a wrong skip).
                for (auto s : waiting)
                    slots[s & slotMask].wake = 0;
                wt.overflow = false;
                wt.n = 0;
            } else if (wt.n) {
                // A stale watcher (its slot issued, retired or was
                // reused since) at worst re-zeroes a reused slot's
                // wake - also just a forced recheck.
                for (std::uint8_t k = 0; k < wt.n; ++k)
                    slots[wt.seq[k] & slotMask].wake = 0;
                wt.n = 0;
            }
        }

        /// Register @p seq's cached wake bound as depending on
        /// producer id @p d's ready-ring index.
        void
        watchDep(std::uint64_t d, std::uint64_t seq)
        {
            RingWatch &wt = ringWatch[d & ringMask];
            for (std::uint8_t k = 0; k < wt.n; ++k) {
                if (wt.seq[k] == seq)
                    return;
            }
            if (wt.n < wt.seq.size())
                wt.seq[wt.n++] = seq;
            else
                wt.overflow = true;
        }
    };

    static constexpr std::uint64_t notReady = ~std::uint64_t{0};

    /// Wake sentinel for a load blocked only by a full MSHR file: it
    /// must re-run the real checks every executed cycle (another
    /// access can bring its line in, removing the miss), but during a
    /// provably idle window the cache cannot change, so the block
    /// provably holds until the earliest MSHR release - which is
    /// already an idleJump candidate, so the sentinel simply does not
    /// veto the jump the way a now + 1 bound does.
    static constexpr std::uint64_t wakeMshrFull = ~std::uint64_t{0} - 1;

    /// Same floor as PipelineSim::minRingSize: the producer-ready ring
    /// is bit_ceil(max(1024, 2 * inflight)) so id aliasing behaviour -
    /// part of the simulated semantics - matches the oracle exactly.
    static constexpr std::size_t minRingSize = 1024;

    /// appendBlock chunk size; the shared window is sized so a whole
    /// chunk can be staged past the laggiest cell's retire cursor.
    static constexpr std::size_t chunkRecords = 256;

    const trace::InstrRecord &
    winRec(std::uint64_t seq) const
    {
        return window_[seq & winMask_];
    }

    bool
    mispredAt(std::uint64_t seq) const
    {
        return windowMispred_[seq & winMask_] != 0;
    }

    void stageRecord(const trace::InstrRecord &rec);
    void advanceCell(Cell &cell, std::uint64_t fedEnd);

    void cycleCell(Cell &cell);
    void idleJump(Cell &cell);
    void retireStage(Cell &cell);
    void issueStage(Cell &cell);
    void dispatchStage(Cell &cell);
    void fetchStage(Cell &cell);
    bool tryIssue(Cell &cell, std::uint64_t seq);

    std::vector<trace::InstrRecord> window_;  //!< shared record ring
    std::vector<std::uint8_t> windowMispred_; //!< per-record mispredict
    std::size_t winMask_ = 0;
    std::uint64_t feedSeq_ = 0;  //!< total records appended

    BranchPredictor bpred_;  //!< shared: outcomes are stream-pure

    std::vector<Cell> cells_;
    bool finalized_ = false;
};

} // namespace uasim::timing

#endif // UASIM_TIMING_BATCHED_PIPELINE_HH
