/**
 * @file
 * Instruction-mix statistics in the shape of the paper's Table III.
 */

#ifndef UASIM_TRACE_MIX_HH
#define UASIM_TRACE_MIX_HH

#include <array>
#include <cstdint>
#include <string>

#include "trace/instr.hh"

namespace uasim::trace {

/**
 * Per-class dynamic instruction counts.
 *
 * Provides both raw per-class counters and the column grouping used by
 * Table III of the paper: Total / Int / Loads / Stores / Branches /
 * Altivec {Load, Store, Simple, Complex, Perm}. The unaligned vector
 * memory classes fold into the Altivec Load / Store columns.
 */
class InstrMix
{
  public:
    InstrMix() { counts_.fill(0); }

    /// Account one record.
    void
    add(const InstrRecord &rec)
    {
        ++counts_[static_cast<int>(rec.cls)];
    }

    /// Account @p n instructions of class @p cls.
    void
    add(InstrClass cls, std::uint64_t n = 1)
    {
        counts_[static_cast<int>(cls)] += n;
    }

    /// Merge another mix into this one.
    InstrMix &operator+=(const InstrMix &other);

    /// Raw count for one class.
    std::uint64_t
    count(InstrClass cls) const
    {
        return counts_[static_cast<int>(cls)];
    }

    /// Total dynamic instructions.
    std::uint64_t total() const;

    /// @name Table III column groups
    /// @{
    std::uint64_t intOps() const;       //!< IntAlu + IntMul
    std::uint64_t scalarLoads() const { return count(InstrClass::Load); }
    std::uint64_t scalarStores() const { return count(InstrClass::Store); }
    std::uint64_t branches() const { return count(InstrClass::Branch); }
    std::uint64_t vecLoads() const;     //!< VecLoad + VecLoadU
    std::uint64_t vecStores() const;    //!< VecStore + VecStoreU
    std::uint64_t vecSimple() const { return count(InstrClass::VecSimple); }
    std::uint64_t vecComplex() const
    {
        return count(InstrClass::VecComplex);
    }
    std::uint64_t vecPerm() const { return count(InstrClass::VecPerm); }
    std::uint64_t vecTotal() const;     //!< all vector classes
    /// @}

    bool operator==(const InstrMix &) const = default;

    /// Reset all counters.
    void clear() { counts_.fill(0); }

    /// One CSV row: class counts in enum order.
    std::string toCsv() const;

    /// Human-readable multi-line dump.
    std::string format() const;

  private:
    std::array<std::uint64_t, numInstrClasses> counts_;
};

} // namespace uasim::trace

#endif // UASIM_TRACE_MIX_HH
