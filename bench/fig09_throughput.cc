/**
 * @file
 * Figure 9: transaction throughput of Baseline, HADES-H, and HADES on
 * the eleven evaluated workloads, normalized to Baseline, on the
 * default N=5, C=5, m=2 cluster.
 *
 * Paper shape: both HADES variants beat Baseline on every workload
 * (averages 2.7x for HADES and 2.3x for HADES-H), HADES >= HADES-H,
 * with the largest gains on TPC-C and the write-intensive workloads.
 * The binary exits non-zero when the per-workload order or the
 * geomeans break that shape (paperShapeHolds).
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
    spec.txnsPerContext = 120;
    spec.scaleKeys = 150'000;
    return spec;
}

void
runCase(benchmark::State &state)
{
    auto entry = figure9Workloads()[std::size_t(state.range(0))];
    auto engine = allEngines()[std::size_t(state.range(1))];
    std::string key = "fig9/" + entryLabel(entry) + "/" +
                      protocol::engineKindName(engine);
    reportRun(state, key, specFor(engine, entry));
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
            sweep.add("fig9/" + entryLabel(entry) + "/" +
                          protocol::engineKindName(engine),
                      specFor(engine, entry));
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

    printHeader("Figure 9", "throughput normalized to Baseline "
                            "(N=5, C=5, m=2)");
    std::printf("%-12s %12s %12s %12s | %8s %8s\n", "workload",
                "Baseline", "HADES-H", "HADES", "H-H/B", "HADES/B");
    double geo_h = 0, geo_hh = 0;
    int n = 0;
    std::vector<ShapeRow> shape;
    for (const auto &entry : figure9Workloads()) {
        double tps[3] = {};
        int i = 0;
        for (auto engine : allEngines()) {
            std::string key = "fig9/" + entryLabel(entry) + "/" +
                              protocol::engineKindName(engine);
            tps[i++] = Sweep::instance()
                           .get(key, specFor(engine, entry))
                           .throughputTps;
        }
        std::printf("%-12s %12.0f %12.0f %12.0f | %8.2f %8.2f\n",
                    entryLabel(entry).c_str(), tps[0], tps[1], tps[2],
                    tps[1] / tps[0], tps[2] / tps[0]);
        shape.push_back({entryLabel(entry), tps[1] / tps[0],
                         tps[2] / tps[0]});
        geo_hh += std::log(tps[1] / tps[0]);
        geo_h += std::log(tps[2] / tps[0]);
        ++n;
    }
    std::printf("%-12s %12s %12s %12s | %8.2f %8.2f  "
                "(paper: 2.3x / 2.7x)\n",
                "geomean", "", "", "", std::exp(geo_hh / n),
                std::exp(geo_h / n));
    const bool shape_ok = paperShapeHolds(shape);
    sweep.finish("fig09_throughput");
    benchmark::Shutdown();
    return shape_ok ? 0 : 1;
}
