/**
 * @file
 * Store-set memory-dependence predictor (Chrysos & Emer, simplified)
 * of the "ooo" backend, shared by the engine's "ooo" cells and the
 * tests' reference model (tests/reference_pipeline.hh) so the policy
 * is written once.
 *
 * The SSIT maps a pc to a store-set id (0 = untrained). A load whose
 * set matches an older undrained store's set is predicted dependent
 * and waits; the store queue itself plays the LFST role (the
 * caller's blocker scan already names the precise in-flight store).
 */

#ifndef UASIM_TIMING_STORE_SET_HH
#define UASIM_TIMING_STORE_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uasim::timing {

class StoreSetPredictor
{
  public:
    /// A 2^@p log2Entries-entry SSIT (CoreConfig::storeSetLog2,
    /// validated by the caller).
    explicit StoreSetPredictor(int log2Entries)
        : ssit_(std::size_t(1) << log2Entries, 0)
    {
    }

    /// True when the load at @p loadPc is predicted to depend on the
    /// store at @p storePc: both pcs map to one trained set.
    bool
    predictsDependence(std::uint64_t loadPc, std::uint64_t storePc) const
    {
        const std::uint32_t lset = ssit_[index(loadPc)];
        return lset && ssit_[index(storePc)] == lset;
    }

    /// Record a load/store ordering violation: merge both pcs into
    /// one store set so the next instance of the pair waits.
    void
    train(std::uint64_t loadPc, std::uint64_t storePc)
    {
        std::uint32_t set = ssit_[index(storePc)];
        if (!set) {
            set = allocSet();
            ssit_[index(storePc)] = set;
        }
        ssit_[index(loadPc)] = set;
    }

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        return std::size_t(pc >> 2) & (ssit_.size() - 1);
    }

    /// Allocate a store-set id (cycling through [1, tableSize)).
    std::uint32_t
    allocSet()
    {
        const auto sets = std::uint32_t(ssit_.size());
        nextSet_ = nextSet_ + 1 < sets ? nextSet_ + 1 : 1;
        return nextSet_;
    }

    std::vector<std::uint32_t> ssit_;
    std::uint32_t nextSet_ = 0;
};

} // namespace uasim::timing

#endif // UASIM_TIMING_STORE_SET_HH
