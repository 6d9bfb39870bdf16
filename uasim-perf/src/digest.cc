#include "digest.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "trace/trace_io.hh"

namespace uasim::perf {

namespace {

void
mixIn(std::uint64_t &h, const std::string &s)
{
    // Length first, so ("ab","c") and ("a","bc") digest differently.
    const std::uint64_t n = s.size();
    h = trace::wire::fnv1a(&n, sizeof(n), h);
    h = trace::wire::fnv1a(s.data(), s.size(), h);
}

void
mixIn(std::uint64_t &h, std::uint64_t v)
{
    h = trace::wire::fnv1a(&v, sizeof(v), h);
}

} // namespace

std::uint64_t
cellDigest(const core::ResultCell &cell)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    mixIn(h, cell.trace);
    mixIn(h, cell.config);
    mixIn(h, cell.sim.core);
    for (const core::SimResultField &f : core::simResultFields())
        mixIn(h, cell.sim.*f.member);
    for (int c = 0; c < trace::numInstrClasses; ++c)
        mixIn(h, cell.mix.count(static_cast<trace::InstrClass>(c)));
    mixIn(h, cell.traceInstrs);
    return h;
}

std::vector<CellDigest>
digestCells(const std::vector<core::ResultCell> &cells)
{
    std::vector<CellDigest> out;
    out.reserve(cells.size());
    for (const core::ResultCell &c : cells)
        out.push_back({c.trace, c.config, cellDigest(c)});
    return out;
}

std::size_t
countMismatches(const std::vector<CellDigest> &want,
                const std::vector<CellDigest> &got,
                std::vector<std::string> &why)
{
    const std::size_t n = std::max(want.size(), got.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool same = i < want.size() && i < got.size() &&
                          want[i].trace == got[i].trace &&
                          want[i].config == got[i].config &&
                          want[i].digest == got[i].digest;
        if (same)
            continue;
        ++bad;
        if (why.size() < 8) {
            const CellDigest &c = i < got.size() ? got[i] : want[i];
            why.push_back("cell " + std::to_string(i) + " (" + c.trace +
                          " | " + c.config + ") differs from expected");
        }
    }
    return bad;
}

std::string
formatDigests(const std::vector<CellDigest> &cells)
{
    std::string out;
    char hex[17];
    for (const CellDigest &c : cells) {
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, c.digest);
        out += c.trace + '\t' + c.config + '\t' + hex + '\n';
    }
    return out;
}

std::vector<CellDigest>
parseDigests(const std::string &text)
{
    std::vector<CellDigest> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t a = line.find('\t');
        const std::size_t b =
            a == std::string::npos ? a : line.find('\t', a + 1);
        if (b == std::string::npos || line.size() - b - 1 != 16)
            throw std::runtime_error("malformed digest line: " + line);
        CellDigest c;
        c.trace = line.substr(0, a);
        c.config = line.substr(a + 1, b - a - 1);
        std::size_t used = 0;
        c.digest = std::stoull(line.substr(b + 1), &used, 16);
        if (used != 16)
            throw std::runtime_error("malformed digest line: " + line);
        out.push_back(std::move(c));
    }
    return out;
}

} // namespace uasim::perf
