/**
 * @file
 * Per-layer probes: each times one call of a module's public entry
 * point, with inputs sized from the workload's spec and from the
 * counts of a finished run (e.g. the largest write footprint).
 */

#ifndef HOSTBENCH_PROBES_HH_
#define HOSTBENCH_PROBES_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "spans.hh"
#include "workload/workloads.hh"

namespace hostbench
{

struct ProbeResult
{
    std::string metric; //!< e.g. "bloom.insert_ns"
    double nsPerCall = 0;
};

/**
 * Run every probe once, each inside a span of @p rec (may be null).
 * @p gen is a generator of the spec's workload, already bound.
 */
std::vector<ProbeResult> runProbes(const hades::core::RunSpec &spec,
                                   const hades::core::RunResult &res,
                                   hades::workload::WorkloadGenerator &gen,
                                   SpanRecorder *rec, std::uint64_t run);

} // namespace hostbench

#endif // HOSTBENCH_PROBES_HH_
