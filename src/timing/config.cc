#include "timing/config.hh"

#include <stdexcept>

#include "timing/model.hh"

namespace uasim::timing {

namespace {

void
requirePositive(const char *field, int v)
{
    if (v < 1) {
        throw std::invalid_argument(
            std::string("CoreConfig: ") + field + " must be >= 1");
    }
}

} // namespace

void
CoreConfig::validate() const
{
    requirePositive("fetchWidth", fetchWidth);
    requirePositive("retireWidth", retireWidth);
    requirePositive("inflight", inflight);
    requirePositive("issueQ", issueQ);
    requirePositive("branchQ", branchQ);
    requirePositive("ibuffer", ibuffer);
    requirePositive("storeQ", storeQ);
    requirePositive("dReadPorts", dReadPorts);
    requirePositive("dWritePorts", dWritePorts);
    requirePositive("missMax", missMax);
    requirePositive("inorderLookahead", inorderLookahead);
    if (bpredLog2Entries < 1 || bpredLog2Entries > 28) {
        throw std::invalid_argument(
            "CoreConfig: bpredLog2Entries out of range [1, 28]");
    }
    if (storeSetLog2 < 1 || storeSetLog2 > 28) {
        throw std::invalid_argument(
            "CoreConfig: storeSetLog2 out of range [1, 28]");
    }
    if (issueWidth < 0) {
        throw std::invalid_argument(
            "CoreConfig: issueWidth must be >= 0 (0 = fetchWidth)");
    }
    if (memReplayPenalty < 0) {
        throw std::invalid_argument(
            "CoreConfig: memReplayPenalty must be >= 0");
    }
    if (!isTimingModel(model)) {
        throw std::invalid_argument("CoreConfig: unknown timing model \"" +
                                    model + "\"");
    }
    if (mem.memBWBytesPerCycle < 0) {
        throw std::invalid_argument(
            "CoreConfig: mem.memBWBytesPerCycle must be >= 0 "
            "(0 = unthrottled)");
    }
}

CoreConfig
CoreConfig::twoWayInOrder()
{
    CoreConfig c;
    c.name = "2w";
    c.outOfOrder = false;
    // Narrow dual-issue embedded-style core: little room for static
    // scheduling around the strict pair-issue constraints.
    c.inorderLookahead = 2;
    c.fetchWidth = 2;
    c.retireWidth = 4;
    c.inflight = 80;
    c.issueQ = 10;
    c.branchQ = 5;
    c.ibuffer = 12;
    c.units = {2, 1, 1, 1, 1, 1, 1};
    c.gprPhys = c.fprPhys = c.vprPhys = 60;
    c.dReadPorts = 1;
    c.dWritePorts = 1;
    c.missMax = 2;
    c.storeQ = 16;
    return c;
}

CoreConfig
CoreConfig::fourWayOoO()
{
    CoreConfig c;
    c.name = "4w";
    c.outOfOrder = true;
    c.fetchWidth = 4;
    c.retireWidth = 6;
    c.inflight = 160;
    c.issueQ = 20;
    c.branchQ = 12;
    c.ibuffer = 24;
    c.units = {3, 2, 2, 2, 2, 1, 1};
    c.gprPhys = c.fprPhys = c.vprPhys = 80;
    c.dReadPorts = 2;
    c.dWritePorts = 1;
    c.missMax = 4;
    c.storeQ = 24;
    return c;
}

CoreConfig
CoreConfig::eightWayOoO()
{
    CoreConfig c;
    c.name = "8w";
    c.outOfOrder = true;
    c.fetchWidth = 8;
    c.retireWidth = 12;
    c.inflight = 255;
    c.issueQ = 40;
    c.branchQ = 40;
    c.ibuffer = 48;
    c.units = {6, 4, 4, 4, 4, 2, 2};
    c.gprPhys = c.fprPhys = c.vprPhys = 128;
    c.dReadPorts = 4;
    c.dWritePorts = 2;
    c.missMax = 8;
    c.storeQ = 32;
    return c;
}

CoreConfig
CoreConfig::canonicalFor(const trace::InstrMix &mix) const
{
    CoreConfig c = *this;
    const LatencyConfig defaults;
    if (mix.count(trace::InstrClass::VecLoadU) == 0)
        c.lat.unalignedLoadExtra = defaults.unalignedLoadExtra;
    if (mix.count(trace::InstrClass::VecStoreU) == 0)
        c.lat.unalignedStoreExtra = defaults.unalignedStoreExtra;
    return c;
}

const char *const CoreConfig::presetNames[3] = {"2w", "4w", "8w"};

CoreConfig
CoreConfig::preset(int idx)
{
    switch (idx) {
      case 0: return twoWayInOrder();
      case 1: return fourWayOoO();
      default: return eightWayOoO();
    }
}

} // namespace uasim::timing
