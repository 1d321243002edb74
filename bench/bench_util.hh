/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Every bench binary regenerates one table or figure of the paper: it
 * sweeps the relevant configurations through core::runOne(), registers
 * each simulation as a google-benchmark case (so the suite integrates
 * with standard tooling), and prints the same rows/series the paper
 * reports, normalized the same way.
 */

#ifndef HADES_BENCH_BENCH_UTIL_HH_
#define HADES_BENCH_BENCH_UTIL_HH_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "sweep.hh"

namespace hades::bench
{

/** The eleven Figure 9 workloads, in the paper's order. */
inline std::vector<core::MixEntry>
figure9Workloads()
{
    using workload::AppKind;
    using kvs::StoreKind;
    return {
        {AppKind::Tpcc, StoreKind::HashTable},
        {AppKind::Tatp, StoreKind::HashTable},
        {AppKind::Smallbank, StoreKind::HashTable},
        {AppKind::YcsbA, StoreKind::HashTable},
        {AppKind::YcsbB, StoreKind::HashTable},
        {AppKind::YcsbA, StoreKind::Map},
        {AppKind::YcsbB, StoreKind::Map},
        {AppKind::YcsbA, StoreKind::BTree},
        {AppKind::YcsbB, StoreKind::BTree},
        {AppKind::YcsbA, StoreKind::BPlusTree},
        {AppKind::YcsbB, StoreKind::BPlusTree},
    };
}

/** Human label of one mix entry ("HT-wA", "TPCC", ...). */
inline std::string
entryLabel(const core::MixEntry &e)
{
    using workload::AppKind;
    switch (e.app) {
      case AppKind::Tpcc:
      case AppKind::Tatp:
      case AppKind::Smallbank:
        return workload::appKindName(e.app);
      default:
        return std::string(kvs::storeKindName(e.store)) + "-" +
               workload::appKindName(e.app);
    }
}

/** The three engine configurations, in reporting order. */
inline std::vector<protocol::EngineKind>
allEngines()
{
    return {protocol::EngineKind::Baseline,
            protocol::EngineKind::HadesHybrid,
            protocol::EngineKind::Hades};
}

/** Register a google-benchmark case that runs @p spec once. Results
 *  come from the shared Sweep, so the parallel prefill in main() and
 *  the summary tables all observe the same runs. */
inline void
reportRun(benchmark::State &state, const std::string &key,
          const core::RunSpec &spec)
{
    for (auto _ : state) {
        const auto &res = Sweep::instance().get(key, spec);
        benchmark::DoNotOptimize(res.stats.committed);
    }
    const auto &res = Sweep::instance().get(key, spec);
    state.counters["txn_per_s"] = res.throughputTps;
    state.counters["mean_us"] = res.meanLatencyUs;
    state.counters["p95_us"] = res.p95LatencyUs;
    state.counters["squash_rate"] = res.squashRate;
}

/** One workload's gains over Baseline (higher is better): throughput
 *  ratios for Figure 9, inverted mean-latency ratios for Figure 10. */
struct ShapeRow
{
    std::string workload;
    double hybrid = 0; //!< HADES-H gain over Baseline
    double hades = 0;  //!< HADES gain over Baseline
};

/**
 * The paper's shape for Figures 9 and 10: on every workload HADES >=
 * HADES-H >= Baseline, and both geomean gains exceed 1. Prints each
 * violation and returns false if there is one; the figure binaries
 * then exit non-zero, so a model change that silently breaks the
 * shape fails their smoke ctests.
 */
inline bool
paperShapeHolds(const std::vector<ShapeRow> &rows)
{
    bool ok = true;
    double geo_hybrid = 0, geo_hades = 0;
    for (const auto &r : rows) {
        if (!(r.hades >= r.hybrid && r.hybrid >= 1.0)) {
            std::printf("SHAPE VIOLATION %s: want HADES >= HADES-H >= "
                        "Baseline, got gains %.2f (HADES-H) / %.2f "
                        "(HADES)\n",
                        r.workload.c_str(), r.hybrid, r.hades);
            ok = false;
        }
        geo_hybrid += std::log(r.hybrid);
        geo_hades += std::log(r.hades);
    }
    geo_hybrid = std::exp(geo_hybrid / double(rows.size()));
    geo_hades = std::exp(geo_hades / double(rows.size()));
    if (!(geo_hybrid > 1.0 && geo_hades > 1.0)) {
        std::printf("SHAPE VIOLATION geomean: want both gains > 1, got "
                    "%.2f (HADES-H) / %.2f (HADES)\n",
                    geo_hybrid, geo_hades);
        ok = false;
    }
    return ok;
}

/** Print a header for the summary table the paper's figure shows. */
inline void
printHeader(const char *figure, const char *what)
{
    std::printf("\n==== %s: %s ====\n", figure, what);
}

} // namespace hades::bench

#endif // HADES_BENCH_BENCH_UTIL_HH_
