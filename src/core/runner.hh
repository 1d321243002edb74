/**
 * @file
 * Experiment runner: builds a cluster (System), binds workloads,
 * instantiates one of the three protocol engines, drives every
 * hardware context with a stream of transactions, and collects the
 * metrics the paper's figures report.
 *
 * This is the top of the public API: every bench binary and example is
 * a thin wrapper over RunSpec -> runOne()/runMix().
 */

#ifndef HADES_CORE_RUNNER_HH_
#define HADES_CORE_RUNNER_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "common/config.hh"
#include "core/counters.hh"
#include "kvs/kvs.hh"
#include "protocol/engine.hh"
#include "replica/replication.hh"
#include "txn/txn_stats.hh"
#include "workload/workloads.hh"

namespace hades::core
{

/** One workload of a (possibly space-shared) run. */
struct MixEntry
{
    workload::AppKind app = workload::AppKind::YcsbA;
    kvs::StoreKind store = kvs::StoreKind::HashTable;
};

/** Everything one simulation needs. */
struct RunSpec
{
    ClusterConfig cluster;
    protocol::EngineKind engine = protocol::EngineKind::Baseline;
    /** Workloads; cores are split into contiguous blocks, one per
     *  entry (Figures 14/15 space sharing). */
    std::vector<MixEntry> mix{MixEntry{}};
    /** Committed transactions each hardware context contributes. */
    std::uint64_t txnsPerContext = 200;
    /** Scaled table size handed to the generators. */
    std::uint64_t scaleKeys = 100'000;
    /** Section V-A fault tolerance (degree 0 = off; HADES engine). */
    replica::ReplicationConfig replication;
    /** Run the correctness auditor (serializability + invariant
     *  checks) over this run; a violation aborts the process. On by
     *  default in debug/audit builds. Purely observational: audited
     *  and unaudited runs produce identical results. */
    bool audit = audit::kDefaultEnabled;
    /**
     * Kernel shard count (1 = the serial oracle). Any value produces
     * bit-identical results: shards > 1 runs one worker thread per
     * shard when the spec qualifies for threaded execution (no faults
     * / recovery / replication / audit / membership / SLO / admission,
     * uniform or all-local placement -- see DESIGN.md section 11);
     * every other spec runs on the serial kernel. The window width is
     * the network lookahead, ClusterConfig::netRoundTrip / 2.
     */
    std::uint32_t shards = 1;
};

/** Metrics extracted from one simulation. */
struct RunResult
{
    std::string label;
    txn::EngineStats stats;

    /** The scalar counters: the Result and Meta rows of counters.hh
     *  (replication, faults, recovery, grey failure, membership, audit
     *  outcomes, and how the run executed). All zero when the
     *  subsystem they describe is off. */
#define HADES_RESULT_MEMBER(home, type, member, key, group)                   \
    HADES_COUNTER_HOME_##home(, , type member{};, , )
    HADES_COUNTERS(HADES_RESULT_MEMBER, HADES_COUNTER_NO_SLOT)
#undef HADES_RESULT_MEMBER

    double throughputTps = 0;  //!< committed transactions per second
    double meanLatencyUs = 0;  //!< committed txn mean latency
    double p95LatencyUs = 0;   //!< committed txn tail latency
    double p50LatencyUs = 0;

    /** Mean phase latencies (us) of committed transactions. */
    double execUs = 0, validationUs = 0, commitUs = 0;

    /** Table I overhead category share of total transaction time
     *  (Baseline / HADES-H local path; zero for HADES). */
    std::array<double, std::size_t(txn::Overhead::NumCategories)>
        overheadShare{};

    /** Share of total transaction time not attributed to a Table I
     *  category ("Other Time" in Figure 3). */
    double otherShare = 0;

    /** Squash rate: squashes / attempts. */
    double squashRate = 0;
    /** LLC speculative-eviction squashes / committed (Section VIII-C). */
    double evictionSquashRate = 0;
    /** Bloom filter false positives / conflict checks (VIII-C). */
    double bfFalsePositiveRate = 0;
};

/**
 * Walks the counter table over @p r (a RunResult, const or not):
 * row(CounterInfo, value&) for every row in table order, where value
 * refers into @p r or @p r.stats, and slot(CounterSlot) at each SLOT.
 */
template <class Result, class RowFn, class SlotFn>
void
forEachCounter(Result &r, RowFn &&row, SlotFn &&slot)
{
#define HADES_VISIT_ROW(home, type, member, key, group)                       \
    row(CounterInfo{CounterHome::home,                                        \
                    HADES_COUNTER_HOME_##home(key, key, key,                  \
                                              counterKey(#member), key),      \
                    group},                                                   \
        HADES_COUNTER_HOME_##home(                                            \
            r.stats.member, r.stats.member, r.member, r.stats.member,         \
            r.stats.squashes[std::size_t(txn::SquashReason::member)]));
#define HADES_VISIT_SLOT(name) slot(CounterSlot::name);
    HADES_COUNTERS(HADES_VISIT_ROW, HADES_VISIT_SLOT)
#undef HADES_VISIT_SLOT
#undef HADES_VISIT_ROW
}

/** Run one configuration to completion. */
RunResult runOne(const RunSpec &spec);

/** Engine factory (exposed for tests and examples). */
std::unique_ptr<protocol::TxnEngine> makeEngine(
    protocol::EngineKind kind, protocol::System &sys,
    std::uint32_t payload_bytes);

/** Record footprint (bytes) for an engine kind at a payload size. */
std::uint32_t engineRecordBytes(protocol::EngineKind kind,
                                std::uint32_t payload_bytes);

} // namespace hades::core

#endif // HADES_CORE_RUNNER_HH_
