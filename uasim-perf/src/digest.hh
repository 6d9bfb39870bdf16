/**
 * @file
 * Per-cell output digests: the benchmark's check that every simulated
 * number is what it should be.
 *
 * A cell's digest is FNV-1a 64 over its identity (trace key, config
 * label, core name) and every value the simulator produced for it:
 * each simResultFields() counter, each instruction-class count of the
 * mix, and the trace length. Flipping any one of them changes the
 * digest, so comparing digests compares the whole cell bit for bit.
 */

#ifndef UASIM_PERF_DIGEST_HH
#define UASIM_PERF_DIGEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.hh"

namespace uasim::perf {

/// One cell's identity and digest.
struct CellDigest {
    std::string trace;
    std::string config;  //!< empty for mix-only cells
    std::uint64_t digest = 0;
};

/// Digest of one result cell.
std::uint64_t cellDigest(const core::ResultCell &cell);

/// Digests of @p cells, in order.
std::vector<CellDigest> digestCells(const std::vector<core::ResultCell> &cells);

/**
 * Compare @p got against @p want cell by cell. Cells present in one
 * list and not at the same position of the other count as mismatched.
 * @return the number of mismatching cells; the first few are
 * described in @p why.
 */
std::size_t countMismatches(const std::vector<CellDigest> &want,
                            const std::vector<CellDigest> &got,
                            std::vector<std::string> &why);

/// Digest file text: one "<trace>\t<config>\t<hex16>" line per cell.
std::string formatDigests(const std::vector<CellDigest> &cells);

/// Parse formatDigests() output ('#' lines are comments).
/// @throws std::runtime_error on a malformed line.
std::vector<CellDigest> parseDigests(const std::string &text);

} // namespace uasim::perf

#endif // UASIM_PERF_DIGEST_HH
