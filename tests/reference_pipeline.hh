/**
 * @file
 * The per-cell reference oracle of the timing tests: a plain,
 * obviously-correct cycle-level model of one core, against which the
 * library's one engine (BatchedPipelineSim, timing/batched_pipeline.hh)
 * is diffed over the full simResultFields() table. It is built only
 * into the test suites (tests/CMakeLists.txt), never into libuasim.
 *
 * The model consumes InstrRecords in program order (it is a
 * TraceSink, so emulated kernels can stream straight into it) and
 * advances a cycle-level machine:
 *
 *   fetch -> dispatch(rename) -> issue -> execute -> retire
 *
 * Modeled mechanisms, per Table II of the paper: fetch/dispatch/issue
 * width, in-order vs out-of-order issue, per-class functional-unit
 * pools (FX/FP/LS/BR/VI/VPERM/VCMPLX), issue-queue and branch-queue
 * capacities, ROB (in-flight) limit, physical-register rename limits,
 * D-cache read/write ports, MSHR (outstanding-miss) limit, a store
 * queue with store-to-load forwarding, a gshare branch predictor with
 * front-end redirect penalty, the L1/L2 hierarchy, and the alignment
 * network's extra latency for dynamically unaligned lvxu/stvxu.
 *
 * Wrong-path execution is approximated the standard trace-driven way:
 * fetch halts at a mispredicted branch and resumes a redirect penalty
 * after the branch resolves.
 *
 * CoreConfig::model picks the issue policy. A "pipeline" core walks
 * the in-flight window under fetchWidth issue tokens, bounded by
 * inorderLookahead unless outOfOrder, and every load that aliases an
 * undrained older store waits for it. An "ooo" core differs in four
 * places:
 *  - issue walks every waiting slot, with no lookahead bound
 *    (outOfOrder/inorderLookahead are ignored);
 *  - issue tokens come from the resolved issueWidth (0 = fetchWidth);
 *  - a StoreSetPredictor (timing/store_set.hh) decides whether such a
 *    load waits, keyed by the pc each store-queue entry carries;
 *  - an untrained load speculates past its blocker: it trains the
 *    pair, pays memReplayPenalty and counts in memOrderReplays().
 */

#ifndef UASIM_TESTS_REFERENCE_PIPELINE_HH
#define UASIM_TESTS_REFERENCE_PIPELINE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mem/hierarchy.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "timing/results.hh"
#include "timing/store_set.hh"
#include "trace/sink.hh"

namespace uasim::timing {

class ReferencePipeline : public TimingModel
{
  public:
    /// @throws std::invalid_argument on an invalid @p cfg, before
    /// sizing anything from it.
    explicit ReferencePipeline(const CoreConfig &cfg);

    /// TraceSink hook: stream one instruction (program order).
    void append(const trace::InstrRecord &rec) override;

    /// Drain the machine and return the final statistics.
    SimResult finalize() override;

    /// Memory-order violations an "ooo" core took (loads that
    /// speculated past an older overlapping store and paid
    /// memReplayPenalty); always 0 for "pipeline". Not part of
    /// SimResult: it is visible in cycles either way.
    std::uint64_t memOrderReplays() const { return memOrderReplays_; }

  private:
    enum class State : std::uint8_t { Waiting, Issued };

    struct Slot {
        trace::InstrRecord rec;
        std::uint64_t readyCycle = 0;
        State state = State::Waiting;
        bool mispredict = false;
    };

    struct StoreEntry {
        std::uint64_t id = 0;
        std::uint64_t pc = 0;  //!< the "ooo" store-set lookup key
        std::uint64_t addr = 0;
        std::uint64_t fwdReady = 0;  //!< cycle data becomes forwardable
        unsigned size = 0;
        bool issued = false;
    };

    // -- pipeline stages (called once per cycle, youngest stage last) --
    void cycle();
    void retireStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /// Attempt to issue one slot; @return true if it issued.
    bool tryIssue(Slot &slot);

    /// Ready cycle of a producer (0 if long retired, MAX if not issued).
    std::uint64_t
    readyCycleOf(std::uint64_t id) const
    {
        if (!id)
            return 0;
        const auto &e = readyRing_[id & ringMask_];
        return e.id == id ? e.cycle : 0;
    }

    void
    setReady(std::uint64_t id, std::uint64_t cycle)
    {
        auto &e = readyRing_[id & ringMask_];
        e.id = id;
        e.cycle = cycle;
    }

    bool depsReady(const trace::InstrRecord &rec) const;

    static constexpr std::uint64_t notReady = ~std::uint64_t{0};

    /**
     * Floor for the producer-ready ring. The ring is sized at
     * construction to a power of two with at least 2x headroom over
     * cfg.inflight: live ids span at most the in-flight window, so
     * doubling it guarantees two live instructions can never alias a
     * slot (aliasing would silently corrupt dependency timing).
     */
    static constexpr std::size_t minRingSize = 1024;

    struct ReadyEntry {
        std::uint64_t id = 0;
        std::uint64_t cycle = 0;
    };

    CoreConfig cfg_;
    mem::MemoryHierarchy mem_;
    BranchPredictor bpred_;
    int issueWidth_ = 1;  //!< per-cycle issue tokens
    /// Engaged exactly for an "ooo" core, and so also its policy flag.
    std::optional<StoreSetPredictor> storeSets_;
    std::uint64_t memOrderReplays_ = 0;

    std::uint64_t now_ = 0;

    std::deque<trace::InstrRecord> pending_;  //!< staged by append()
    std::deque<Slot> fetchBuf_;               //!< fetched, not dispatched
    std::deque<Slot> rob_;                    //!< dispatched, not retired
    std::vector<ReadyEntry> readyRing_;       //!< sized from cfg.inflight
    std::size_t ringMask_ = 0;
    std::vector<StoreEntry> storeQ_;
    std::vector<std::uint64_t> mshr_;         //!< miss completion cycles

    // Fetch redirection state.
    std::uint64_t fetchStallUntil_ = 0;
    std::uint64_t haltBranchId_ = 0;  //!< fetch halted behind this branch
    std::uint64_t lastFetchLine_ = ~std::uint64_t{0};

    // Rename occupancy.
    int gprInflight_ = 0;
    int fprInflight_ = 0;
    int vprInflight_ = 0;

    // Issue-queue occupancy (waiting entries only).
    int waitingNonBranch_ = 0;
    int waitingBranch_ = 0;

    // Per-cycle resource tokens.
    int unitTokens_[numUnits] = {};
    int readPorts_ = 0;
    int writePorts_ = 0;
    int issueTokens_ = 0;

    SimResult res_;
    bool finalized_ = false;

    int *renameCounter(RegFile rf);
};

} // namespace uasim::timing

#endif // UASIM_TESTS_REFERENCE_PIPELINE_HH
