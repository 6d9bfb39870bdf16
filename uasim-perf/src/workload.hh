/**
 * @file
 * The benchmark's three workloads: their grids, set-up, one timed
 * iteration each, and the output checks that do not need a second
 * execution path.
 *
 *  - campaign_warm: the Fig 9 campaign grid (paper kernels x
 *    {altivec, unaligned} x model {pipeline, ooo} x five unaligned
 *    load latencies) run as two campaign shards and merged, from a
 *    trace store warmed in set-up. Replay-bound; every group mixes
 *    backends, so it runs on the per-cell engines.
 *  - record_cold: the Table III mix-only cells recorded into an empty
 *    trace store made fresh for each iteration. Emulation and store
 *    writes do all the work; nothing is replayed.
 *  - wide_group_warm: one long trace x 16 pipeline configs from a
 *    warm store. The single group splits into replay shards on the
 *    batched engine, each decoding the stored trace on its own.
 *
 * Every workload input is a function of the seed: it is the campaign
 * seed and the KernelBench seed, and so part of every trace key.
 */

#ifndef UASIM_PERF_WORKLOAD_HH
#define UASIM_PERF_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"

namespace uasim::perf {

/// The seed the committed digests are taken at.
constexpr std::uint64_t defaultSeed = 12345;

/// Sweep workers of every timed run.
constexpr int sweepThreads = 4;

enum class WorkloadId { CampaignWarm, RecordCold, WideGroupWarm };

const std::vector<WorkloadId> &allWorkloads();
const char *workloadName(WorkloadId id);
/// @return false for an unknown name.
bool parseWorkload(const std::string &name, WorkloadId &id);

/// A workload after set-up.
struct Workload {
    WorkloadId id = WorkloadId::CampaignWarm;
    std::uint64_t seed = defaultSeed;
    /// The grid, for the workloads defined as a campaign.
    std::optional<core::Campaign> campaign;
    int shardCount = 1;  //!< campaign shards run in sequence
    /// The whole grid; its cell order is the order of every result.
    core::SweepPlan plan;
    std::vector<core::KernelSpec> specs;  //!< kernels the grid runs
    std::string dir;       //!< private scratch directory
    std::string storeDir;  //!< the warm store; empty for record_cold
};

/// The workload's grid at @p seed, built without running anything.
Workload describeWorkload(WorkloadId id, std::uint64_t seed);

/**
 * Set-up: describe the workload, and for the warm workloads record
 * every trace into a fresh store under @p dir, an existing directory
 * that must not hold a store yet.
 * @throws std::runtime_error if any of that fails.
 */
Workload setUp(WorkloadId id, std::uint64_t seed, const std::string &dir);

/// One timed iteration and what it left behind.
struct Iteration {
    double wallS = 0;      //!< host seconds, sweep or campaign to artifact
    double peakRssMb = 0;  //!< peak resident memory during the iteration
    double storeMb = 0;    //!< trace-store bytes on disk afterwards
    /// Store counters, replay and decode work, busy and wall seconds,
    /// summed over the iteration's sweeps.
    core::SweepStats stats;
    std::vector<core::ResultCell> cells;  //!< in plan cell order
    /// Store-state or artifact assertions that failed.
    std::vector<std::string> violations;
    /// campaign_warm: the shard artifacts, in shard order.
    std::vector<core::BenchResult> shardArtifacts;
    std::string chunkDir;  //!< campaign_warm: published chunk artifacts
};

/// Run one iteration. Work files of the previous iteration are
/// removed first, outside the timed region.
Iteration runIteration(const Workload &w);

/**
 * Recompute cells on the most direct path the library has - the
 * emulation streamed straight into one per-cell timing model, no
 * store, no batching, one thread - and compare them with @p cells:
 * one timing cell per trace (rotating through the configs) and every
 * mix-only cell. For record_cold it also reads back every entry the
 * last iteration stored and checks its records against the cell.
 * @return the number of cells that differ; @p checked gets the
 * number compared.
 */
std::size_t referenceCheck(const Workload &w,
                           const std::vector<core::ResultCell> &cells,
                           std::size_t &checked,
                           std::vector<std::string> &why);

/**
 * Check every kernel the grid runs against its scalar reference
 * (KernelBench::verifyVariants at the workload's seed).
 * @return the number of kernels that differ; @p checked gets the
 * number checked.
 */
std::size_t verifyKernels(const Workload &w, std::size_t &checked,
                          std::vector<std::string> &why);

/// A sweep cell result as an artifact cell.
core::ResultCell toResultCell(const core::SweepCellResult &r);

/// Summed size of the regular files under @p dir, in MB.
double directoryMb(const std::string &dir);

} // namespace uasim::perf

#endif // UASIM_PERF_WORKLOAD_HH
