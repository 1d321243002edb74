/**
 * @file
 * Per-engine statistics: throughput, latency phases, squash reasons, the
 * Table I software-overhead categories (Figure 3), and Bloom filter
 * false-positive accounting (Section VIII-C).
 */

#ifndef HADES_TXN_TXN_STATS_HH_
#define HADES_TXN_TXN_STATS_HH_

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/counters.hh"

namespace hades::txn
{

/** The software overhead categories of Table I / Figure 3. */
enum class Overhead : std::uint8_t
{
    ManageSets,       //!< manage the Read and Write sets
    UpdateVersion,    //!< bump record version before a write
    ReadAtomicity,    //!< per-line version checks + non-zero-copy reads
    RdBeforeWr,       //!< read the whole record before writing it
    ConflictDetection,//!< re-read versions during validation
    NumCategories,
};

/** Name for printing Figure 3 rows. */
inline const char *
overheadName(Overhead o)
{
    switch (o) {
      case Overhead::ManageSets:
        return "ManageRdWrSets";
      case Overhead::UpdateVersion:
        return "UpdateVersion";
      case Overhead::ReadAtomicity:
        return "ReadAtomicity";
      case Overhead::RdBeforeWr:
        return "RdBeforeWr";
      case Overhead::ConflictDetection:
        return "ConflictDetection";
      case Overhead::NumCategories:
        break;
    }
    return "?";
}

/** Why a transaction attempt was squashed. */
enum class SquashReason : std::uint8_t
{
    EagerLocalConflict, //!< L-L conflict detected at access time (HADES)
    LazyConflict,       //!< squashed by a committing transaction
    LockFailure,        //!< failed to partially lock a directory
    ValidationFailure,  //!< version mismatch in software validation
    LockBusy,           //!< SW lock CAS lost (Baseline/HADES-H)
    LlcEviction,        //!< speculative line evicted from the LLC
    ReplicaTimeout,     //!< a replica update was lost / not acked
    CommitTimeout,      //!< commit-phase Acks never arrived (faults)
    NodeFailure,        //!< a participant crashed permanently (recovery)
    StalePlacement,     //!< record migrated mid-attempt (membership)
    Shed,               //!< refused by admission control (overload)
    NumReasons,
};

inline const char *
squashReasonName(SquashReason r)
{
    switch (r) {
      case SquashReason::EagerLocalConflict:
        return "EagerLocalConflict";
      case SquashReason::LazyConflict:
        return "LazyConflict";
      case SquashReason::LockFailure:
        return "LockFailure";
      case SquashReason::ValidationFailure:
        return "ValidationFailure";
      case SquashReason::LockBusy:
        return "LockBusy";
      case SquashReason::LlcEviction:
        return "LlcEviction";
      case SquashReason::ReplicaTimeout:
        return "ReplicaTimeout";
      case SquashReason::CommitTimeout:
        return "CommitTimeout";
      case SquashReason::NodeFailure:
        return "NodeFailure";
      case SquashReason::StalePlacement:
        return "StalePlacement";
      case SquashReason::Shed:
        return "Shed";
      case SquashReason::NumReasons:
        break;
    }
    return "?";
}

/** Aggregate statistics for one engine over one simulation. */
struct EngineStats
{
    /** The scalar counters: the Stats and Peak rows of core/counters.hh
     *  (commits, attempts, Bloom checks, footprints, network snapshot,
     *  resends, ...). */
#define HADES_STATS_MEMBER(home, type, member, key, group)                    \
    HADES_COUNTER_HOME_##home(type member{};, type member{};, , , )
    HADES_COUNTERS(HADES_STATS_MEMBER, HADES_COUNTER_NO_SLOT)
#undef HADES_STATS_MEMBER

    std::array<std::uint64_t,
               static_cast<std::size_t>(SquashReason::NumReasons)>
        squashes{};

    /** End-to-end latency of committed transactions (Ticks), measured
     *  from first-attempt start to commit completion. */
    stats::Histogram latency;

    /** Phase time of committed transactions (Ticks). */
    stats::Accumulator execPhase;
    stats::Accumulator validationPhase;
    stats::Accumulator commitPhase;

    /** Table I overhead categories (Baseline / HADES-H local path). */
    std::array<Tick,
               static_cast<std::size_t>(Overhead::NumCategories)>
        overheadTicks{};

    std::uint64_t
    totalSquashes() const
    {
        std::uint64_t n = 0;
        for (auto s : squashes)
            n += s;
        return n;
    }

    void
    addOverhead(Overhead o, Tick t)
    {
        overheadTicks[static_cast<std::size_t>(o)] += t;
    }

    Tick
    overhead(Overhead o) const
    {
        return overheadTicks[static_cast<std::size_t>(o)];
    }

    void
    addSquash(SquashReason r)
    {
        squashes[static_cast<std::size_t>(r)] += 1;
    }

    /** Sums every counter row except the Peak rows (largest per-txn
     *  footprints), which take the max. */
    void
    merge(const EngineStats &o)
    {
#define HADES_MERGE_MEMBER(home, type, member, key, group)                    \
    HADES_COUNTER_HOME_##home(member += o.member;,                            \
                              member = std::max(member, o.member);, , , )
        HADES_COUNTERS(HADES_MERGE_MEMBER, HADES_COUNTER_NO_SLOT)
#undef HADES_MERGE_MEMBER
        for (std::size_t i = 0; i < squashes.size(); ++i)
            squashes[i] += o.squashes[i];
        latency.merge(o.latency);
        execPhase.merge(o.execPhase);
        validationPhase.merge(o.validationPhase);
        commitPhase.merge(o.commitPhase);
        for (std::size_t i = 0; i < overheadTicks.size(); ++i)
            overheadTicks[i] += o.overheadTicks[i];
    }
};

} // namespace hades::txn

#endif // HADES_TXN_TXN_STATS_HH_
