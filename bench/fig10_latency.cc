/**
 * @file
 * Figure 10: mean transaction latency normalized to Baseline, broken
 * into Execution / Validation / Commit phases, for the eleven
 * workloads on the default cluster.
 *
 * Paper shape: HADES-H and HADES cut mean latency by 54% and 60% on
 * average; Execution dominates the Baseline latency, Validation is the
 * second contributor, and the HADES variants report only Execution and
 * Validation phases (their commit work is offloaded to hardware and
 * rolled into Validation).
 *
 * Each engine's mean is printed next to its phases. The phases cover
 * only the committing attempt; the rest of the mean is squashed
 * attempts, retry backoff and fallback wait. The binary exits non-zero
 * when the per-workload order or the geomeans break the paper's shape
 * (paperShapeHolds).
 */

#include "bench_util.hh"

namespace hades::bench
{
namespace
{

core::RunSpec
specFor(protocol::EngineKind engine, const core::MixEntry &entry)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = {entry};
    spec.txnsPerContext = 100;
    spec.scaleKeys = 150'000;
    return spec;
}

std::string
keyFor(protocol::EngineKind engine, const core::MixEntry &entry)
{
    return "fig10/" + entryLabel(entry) + "/" +
           protocol::engineKindName(engine);
}

void
runCase(benchmark::State &state)
{
    auto entry = figure9Workloads()[std::size_t(state.range(0))];
    auto engine = allEngines()[std::size_t(state.range(1))];
    reportRun(state, keyFor(engine, entry), specFor(engine, entry));
}

BENCHMARK(runCase)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 10, 1),
                   benchmark::CreateDenseRange(0, 2, 1)})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void
registerRuns(Sweep &sweep)
{
    for (const auto &entry : figure9Workloads())
        for (auto engine : allEngines())
            sweep.add(keyFor(engine, entry), specFor(engine, entry));
}

} // namespace
} // namespace hades::bench

int
main(int argc, char **argv)
{
    using namespace hades;
    using namespace hades::bench;

    Sweep &sweep = Sweep::instance();
    sweep.parseArgs(&argc, argv);
    benchmark::Initialize(&argc, argv);
    registerRuns(sweep);
    sweep.runAll();
    benchmark::RunSpecifiedBenchmarks();

    printHeader("Figure 10",
                "mean txn latency (us) with phase breakdown, and the "
                "mean normalized to Baseline");
    std::printf("%-12s | %-27s | %-21s | %-21s | %6s %6s\n", "workload",
                "Baseline mean exec/val/com", "HADES-H mean exec/val",
                "HADES mean exec/val", "H-H/B", "H/B");
    double red_h = 0, red_hh = 0;
    int n = 0;
    std::vector<ShapeRow> shape;
    for (const auto &entry : figure9Workloads()) {
        const core::RunResult *r[3];
        int i = 0;
        for (auto engine : allEngines())
            r[i++] = &Sweep::instance().get(
                keyFor(engine, entry), specFor(engine, entry));
        const double hh = r[1]->meanLatencyUs / r[0]->meanLatencyUs;
        const double h = r[2]->meanLatencyUs / r[0]->meanLatencyUs;
        std::printf("%-12s | %6.1f %6.1f %6.1f %6.1f | %7.1f %6.1f "
                    "%6.1f | %7.1f %6.1f %6.1f | %6.2f %6.2f\n",
                    entryLabel(entry).c_str(), r[0]->meanLatencyUs,
                    r[0]->execUs, r[0]->validationUs, r[0]->commitUs,
                    r[1]->meanLatencyUs, r[1]->execUs,
                    r[1]->validationUs, r[2]->meanLatencyUs,
                    r[2]->execUs, r[2]->validationUs, hh, h);
        shape.push_back({entryLabel(entry), 1.0 / hh, 1.0 / h});
        red_hh += hh;
        red_h += h;
        ++n;
    }
    std::printf("mean latency reduction: HADES-H %.0f%%, HADES %.0f%%  "
                "(paper: 54%% / 60%%)\n",
                100.0 * (1.0 - red_hh / n), 100.0 * (1.0 - red_h / n));
    const bool shape_ok = paperShapeHolds(shape);
    sweep.finish("fig10_latency");
    benchmark::Shutdown();
    return shape_ok ? 0 : 1;
}
