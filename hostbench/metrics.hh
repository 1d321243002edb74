/**
 * @file
 * Metric arithmetic and correctness checks of the benchmark, kept free
 * of timing so the benchmark's tests can exercise them directly.
 */

#ifndef HOSTBENCH_METRICS_HH_
#define HOSTBENCH_METRICS_HH_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/result_hash.hh"
#include "core/runner.hh"

namespace hostbench
{

/** Median of @p v (mean of the middle two for an even count). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** @p count per committed transaction (0 when nothing committed). */
inline double
perCommit(std::uint64_t count, std::uint64_t committed)
{
    return committed ? double(count) / double(committed) : 0;
}

/** Transactions a spec asks for: N * C * m * txnsPerContext. */
inline std::uint64_t
requestedTxns(const hades::core::RunSpec &spec)
{
    const auto &c = spec.cluster;
    return std::uint64_t{c.numNodes} * c.coresPerNode * c.slotsPerCore *
           spec.txnsPerContext;
}

/**
 * core::hashResult over the fields an audited and an unaudited run of
 * one spec share: the audit outcome block is cleared first (the
 * sharded-execution block is already outside the hash). Equal
 * fingerprints mean "the same simulated run".
 */
inline std::uint64_t
fingerprint(hades::core::RunResult r)
{
    r.audited = false;
    r.auditedCommits = 0;
    r.auditedAborts = 0;
    r.auditGraphEdges = 0;
    r.auditChecks = 0;
    return hades::core::hashResult(r);
}

/** What one timed run must satisfy. */
struct Expectation
{
    std::uint64_t committed = 0;
    /** hashResult of the first timed run of this seed (0: not yet). */
    std::uint64_t hash = 0;
    /** Fingerprint of the audited 1-lane run of the same spec. */
    std::uint64_t fingerprint = 0;
    /** The run must have used worker threads without a serial rerun. */
    bool threaded = false;
};

/** Every way @p r misses @p e; empty means the run is correct. */
inline std::vector<std::string>
checkRun(const hades::core::RunResult &r, const Expectation &e)
{
    std::vector<std::string> problems;
    if (r.stats.committed != e.committed)
        problems.push_back("committed " + std::to_string(r.stats.committed) +
                           " != requested " + std::to_string(e.committed));
    if (e.hash && hades::core::hashResult(r) != e.hash)
        problems.push_back("hashResult differs from the first run");
    if (fingerprint(r) != e.fingerprint)
        problems.push_back("fingerprint differs from the audited run");
    if (e.threaded && !r.shardsThreaded)
        problems.push_back("run fell back from the threaded executor");
    if (r.serialRerun)
        problems.push_back("run was redone serially (serialRerun)");
    return problems;
}

/** Transactions attempted and failed over an invocation's runs. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Record one run: a run that fails its check fails all its
     *  transactions, otherwise the uncommitted ones fail. */
    void
    add(std::uint64_t requested, std::uint64_t committed, bool correct)
    {
        attempted += requested;
        if (!correct)
            failed += requested;
        else if (committed < requested)
            failed += requested - committed;
    }

    /** Share of attempted transactions that committed correctly. */
    double
    committedShare() const
    {
        return attempted ? double(attempted - failed) / double(attempted)
                         : 0;
    }
};

} // namespace hostbench

#endif // HOSTBENCH_METRICS_HH_
