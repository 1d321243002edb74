/**
 * @file
 * The counter table: one row per scalar counter of RunResult and
 * txn::EngineStats. Both structs declare their counter members from
 * it, and EngineStats::merge(), hashResult(), runResultJson() and
 * counterSummary() iterate it, so adding a counter is one row here
 * plus its copy-out assignment in runner.cc.
 *
 * HADES_COUNTERS(ROW, SLOT) expands ROW(home, type, member, key, group)
 * once per row and SLOT(name) where hand-written fields (arrays,
 * histograms, the derived latency/rate doubles) fold in.
 *
 *  home    Stats   EngineStats member; merge() sums it; JSON "stats"
 *          Peak    EngineStats member; merge() takes the max
 *          Result  RunResult member; JSON top level
 *          Meta    RunResult member describing how the run executed
 *                  (sharded-execution metadata): reported, never hashed
 *          Mirror  no storage: reads stats.<member> and re-reports it
 *                  at top level under that Stats row's key (key nullptr)
 *          Squash  no storage: reads stats.squashes[SquashReason::<member>]
 *  type    member type (std::uint64_t, std::uint32_t, bool, Tick)
 *  key     JSON key, also the summary's `key=value` label
 *  group   CLI summary line label (nullptr: printed by its Mirror row);
 *          lines print in order of first appearance
 *
 * Row order is the determinism hash's fold order (DESIGN.md section 8):
 * moving, inserting or deleting a row changes every pinned digest.
 *
 * Rows whose key does not say it all:
 *  total_busy_ticks        core busy time of transactions (for Figure 3's
 *                          "Other Time")
 *  max_lines_read/written  largest per-txn cache-line footprints
 *                          (Section VIII-C quotes at most 76 / 40)
 *  net_messages/bytes      network totals snapshot, filled by the runner
 *  timeout_resends         commit-phase resends after an Ack timeout
 *  reliable_resends        reliable one-way resends (Validation, Squash,
 *                          replica traffic) after a missing confirmation
 *  retry_budget_deferrals  squash retries paced because the node's
 *                          admission retry budget was exhausted
 *  partition_heals         partition windows whose heal instant the run
 *                          reached
 *  divergent_records       live backup images that disagree with ground
 *                          truth at end of run (replication + recovery)
 *  drain_duration_events   drain-step events from drain start to leave
 *  serial_rerun            the threaded executor hit a hard gate and the
 *                          reported run was redone on the deterministic
 *                          sharded executor
 */

#ifndef HADES_CORE_COUNTERS_HH_
#define HADES_CORE_COUNTERS_HH_

#include <cstdint>
#include <string_view>

// clang-format off
#define HADES_COUNTERS(ROW, SLOT)                                                               \
    ROW(Stats,  std::uint64_t, committed,             "committed",               "txns")        \
    ROW(Stats,  std::uint64_t, attempts,              "attempts",                "txns")        \
    ROW(Stats,  std::uint64_t, lockModeFallbacks,     "lock_mode_fallbacks",     "lock-mode")   \
    SLOT(StatsArrays)                                                                           \
    ROW(Stats,  Tick,          totalBusyTicks,        "total_busy_ticks",        "cpu")         \
    ROW(Stats,  std::uint64_t, bfConflictChecks,      "bf_conflict_checks",      "bloom")       \
    ROW(Stats,  std::uint64_t, bfFalsePositives,      "bf_false_positives",      "bloom")       \
    ROW(Peak,   std::uint64_t, maxLinesRead,          "max_lines_read",          "footprint")   \
    ROW(Peak,   std::uint64_t, maxLinesWritten,       "max_lines_written",       "footprint")   \
    ROW(Stats,  std::uint64_t, netMessages,           "net_messages",            "network")     \
    ROW(Stats,  std::uint64_t, netBytes,              "net_bytes",               "network")     \
    ROW(Stats,  std::uint64_t, timeoutResends,        "timeout_resends",         nullptr)       \
    ROW(Stats,  std::uint64_t, reliableResends,       "reliable_resends",        nullptr)       \
    ROW(Stats,  std::uint64_t, retryBudgetDeferrals,  "retry_budget_deferrals",  nullptr)       \
    ROW(Result, Tick,          simTime,               "sim_time_ps",             "txns")        \
    SLOT(Derived)                                                                               \
    ROW(Result, std::uint64_t, replicatedCommits,     "replicated_commits",      "replication") \
    ROW(Result, std::uint64_t, replicationAborts,     "replication_aborts",      "replication") \
    SLOT(Retired)                                                                               \
    ROW(Result, std::uint64_t, faultDrops,            "fault_drops",             "faults")      \
    ROW(Result, std::uint64_t, faultDuplicates,       "fault_duplicates",        "faults")      \
    ROW(Result, std::uint64_t, faultDelays,           "fault_delays",            "faults")      \
    ROW(Result, std::uint64_t, faultNicStalls,        "fault_nic_stalls",        "faults")      \
    ROW(Result, std::uint64_t, faultCrashDrops,       "fault_crash_drops",       "faults")      \
    ROW(Result, std::uint64_t, partitionDrops,        "partition_drops",         "faults")      \
    ROW(Result, std::uint64_t, partitionHeals,        "partition_heals",         "faults")      \
    ROW(Result, std::uint64_t, corruptDrops,          "corrupt_drops",           "faults")      \
    ROW(Result, std::uint64_t, netRetransmits,        "net_retransmits",         "recovery")    \
    ROW(Mirror, std::uint64_t, timeoutResends,        nullptr,                   "recovery")    \
    ROW(Mirror, std::uint64_t, reliableResends,       nullptr,                   "recovery")    \
    ROW(Squash, std::uint64_t, CommitTimeout,         "timeout_squashes",        "recovery")    \
    ROW(Result, bool,          recoveryEnabled,       "recovery_enabled",        "crash-recov") \
    ROW(Result, std::uint64_t, leaseProbes,           "lease_probes",            "cm group")    \
    ROW(Result, std::uint64_t, viewChanges,           "view_changes",            "crash-recov") \
    ROW(Result, std::uint64_t, promotedRecords,       "promoted_records",        "crash-recov") \
    ROW(Result, std::uint64_t, inDoubtCommitted,      "indoubt_committed",       "crash-recov") \
    ROW(Result, std::uint64_t, inDoubtAborted,        "indoubt_aborted",         "crash-recov") \
    ROW(Result, std::uint64_t, replayedWrites,        "replayed_writes",         "crash-recov") \
    ROW(Result, std::uint64_t, resyncedImages,        "resynced_images",         "crash-recov") \
    ROW(Result, std::uint64_t, fencedStaleMessages,   "fenced_stale_messages",   "crash-recov") \
    ROW(Result, std::uint64_t, cmFailovers,           "cm_failovers",            "cm group")    \
    ROW(Result, std::uint64_t, quorumRefusals,        "quorum_refusals",         "cm group")    \
    ROW(Result, std::uint64_t, staleLeaseGrants,      "stale_lease_grants",      "cm group")    \
    ROW(Result, std::uint64_t, divergentRecords,      "divergent_records",       "cm group")    \
    ROW(Result, std::uint64_t, greyDelays,            "grey_delays",             "grey")        \
    ROW(Result, std::uint64_t, stragglerReserves,     "straggler_reserves",      "grey")        \
    ROW(Result, std::uint64_t, sloSamples,            "slo_samples",             "slo")         \
    ROW(Result, std::uint64_t, sloSuspectTransitions, "slo_suspect_transitions", "slo")         \
    ROW(Result, std::uint64_t, sloDegradedTransitions, "slo_degraded_transitions", "slo")       \
    ROW(Result, std::uint64_t, hedgedSends,           "hedged_sends",            "hedging")     \
    ROW(Result, std::uint64_t, hedgeWins,             "hedge_wins",              "hedging")     \
    ROW(Result, std::uint64_t, admittedTxns,          "admitted_txns",           "admission")   \
    ROW(Result, std::uint64_t, shedTxns,              "shed_txns",               "admission")   \
    ROW(Mirror, std::uint64_t, retryBudgetDeferrals,  nullptr,                   "admission")   \
    ROW(Result, std::uint64_t, quarantines,           "quarantines",             "hedging")     \
    ROW(Result, bool,          membershipEnabled,     "membership_enabled",      "membership")  \
    ROW(Result, bool,          membershipComplete,    "membership_complete",     "membership")  \
    ROW(Result, std::uint64_t, recordsMigrated,       "records_migrated",        "membership")  \
    ROW(Result, std::uint64_t, migrationBatches,      "migration_batches",       "membership")  \
    ROW(Result, std::uint64_t, drainDurationEvents,   "drain_duration_events",   "membership")  \
    ROW(Result, std::uint64_t, joinsCompleted,        "joins_completed",         "membership")  \
    ROW(Squash, std::uint64_t, StalePlacement,        "stale_placement_retries", "membership")  \
    ROW(Result, bool,          audited,               "audited",                 "audit")       \
    ROW(Result, std::uint64_t, auditedCommits,        "audited_commits",         "audit")       \
    ROW(Result, std::uint64_t, auditedAborts,         "audited_aborts",          "audit")       \
    ROW(Result, std::uint64_t, auditGraphEdges,       "audit_graph_edges",       "audit")       \
    ROW(Result, std::uint64_t, auditChecks,           "audit_checks",            "audit")       \
    ROW(Meta,   std::uint32_t, shardsUsed,            "shards_used",             "kernel")      \
    ROW(Meta,   bool,          shardsThreaded,        "shards_threaded",         "kernel")      \
    ROW(Meta,   std::uint64_t, shardWindows,          "shard_windows",           "kernel")      \
    ROW(Meta,   std::uint64_t, crossShardEvents,      "cross_shard_events",      "kernel")      \
    ROW(Meta,   bool,          serialRerun,           "serial_rerun",            "kernel")
// clang-format on

/** HADES_COUNTER_HOME_<home>(stats, peak, result, mirror, squash)
 *  selects the argument for a row's home (Meta rows are stored like
 *  Result rows). */
#define HADES_COUNTER_HOME_Stats(s, p, r, m, q) s
#define HADES_COUNTER_HOME_Peak(s, p, r, m, q) p
#define HADES_COUNTER_HOME_Result(s, p, r, m, q) r
#define HADES_COUNTER_HOME_Meta(s, p, r, m, q) r
#define HADES_COUNTER_HOME_Mirror(s, p, r, m, q) m
#define HADES_COUNTER_HOME_Squash(s, p, r, m, q) q

/** SLOT callback for expansions with no hand-written part. */
#define HADES_COUNTER_NO_SLOT(name)

namespace hades::core
{

enum class CounterHome : std::uint8_t
{
    Stats,
    Peak,
    Result,
    Meta,
    Mirror,
    Squash,
};

/** Where the hand-written fields fold in (the SLOT rows). */
enum class CounterSlot : std::uint8_t
{
    StatsArrays, //!< squashes + overheadTicks; JSON: squashes, latency_*
    Derived,     //!< latency/phase/rate doubles and overheadShare
    Retired,     //!< the removed lost_replica_messages counter
};

/** One row's columns, as forEachCounter() hands them to a sink. */
struct CounterInfo
{
    CounterHome home;
    const char *key;
    const char *group;

    bool hashed() const { return home != CounterHome::Meta; }
    /** Emitted inside the JSON "stats" object (else at top level). */
    bool
    inStats() const
    {
        return home == CounterHome::Stats || home == CounterHome::Peak;
    }
};

/** Key of the first row named @p member: a Mirror row's key. */
constexpr const char *
counterKey(std::string_view member)
{
#define HADES_COUNTER_KEY(home, type, m, key, group)                          \
    if (member == #m)                                                         \
        return key;
    HADES_COUNTERS(HADES_COUNTER_KEY, HADES_COUNTER_NO_SLOT)
#undef HADES_COUNTER_KEY
    return nullptr;
}

} // namespace hades::core

#endif // HADES_CORE_COUNTERS_HH_
