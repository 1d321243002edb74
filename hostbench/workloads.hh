/**
 * @file
 * The benchmark's named workloads. All three use the ROADMAP
 * re-anchor cluster shape (N=10, C=8, m=2 -> 160 closed-loop hardware
 * contexts, each issuing its next transaction only after the previous
 * one commits) at 150k keys with the HashTable store. Simulated caches
 * start cold: nothing is warmed before the measured runOne() call.
 */

#ifndef HOSTBENCH_WORKLOADS_HH_
#define HOSTBENCH_WORKLOADS_HH_

#include <array>
#include <cstdint>
#include <string_view>

#include "core/runner.hh"

namespace hostbench
{

struct Workload
{
    std::string_view name;
    hades::protocol::EngineKind engine;
    hades::workload::AppKind app;
    /** Fixed commit count per context: each run is a batch job. */
    std::uint64_t txnsPerContext;
    /**
     * Lanes of the threaded variant, 0 for none. Timed runs use 1 lane:
     * with as many threads as cores, one core lent to another process
     * stalls every window barrier, and the threaded run's host time
     * swung by 3x between invocations. The variant is checked against
     * the serial run in every invocation and timed in the traced pass.
     */
    std::uint32_t threadedLanes;
};

inline constexpr std::array<Workload, 3> kWorkloads{{
    // Most contended: squashes, lock-mode fallbacks, Bloom checks and
    // the two spin-poll sites do most of the host work.
    {"ycsb_a_hades", hades::protocol::EngineKind::Hades,
     hades::workload::AppKind::YcsbA, 100, 0},
    // Software OCC path: version locks, no Bloom checks, no fallbacks.
    {"tpcc_baseline", hades::protocol::EngineKind::Baseline,
     hades::workload::AppKind::Tpcc, 100, 0},
    // Read-mostly and uncontended; its threaded variant has 3 worker
    // lanes plus the coordinator thread.
    {"tatp_hades", hades::protocol::EngineKind::Hades,
     hades::workload::AppKind::Tatp, 1000, 3},
}};

inline const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

/** The timed (1-lane) spec of @p w under ClusterConfig::seed = @p seed. */
inline hades::core::RunSpec
makeSpec(const Workload &w, std::uint64_t seed)
{
    hades::core::RunSpec spec;
    spec.cluster.numNodes = 10;
    spec.cluster.coresPerNode = 8;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = seed;
    spec.engine = w.engine;
    spec.mix = {{w.app, hades::kvs::StoreKind::HashTable}};
    spec.txnsPerContext = w.txnsPerContext;
    spec.scaleKeys = 150'000;
    // Timed runs never audit, whatever the build's default.
    spec.audit = false;
    return spec;
}

/** The threaded variant of makeSpec(), for w.threadedLanes > 0. */
inline hades::core::RunSpec
makeThreadedSpec(const Workload &w, std::uint64_t seed)
{
    hades::core::RunSpec spec = makeSpec(w, seed);
    spec.shards = w.threadedLanes;
    return spec;
}

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH_
