/**
 * @file
 * Record metadata for the software protocols: versions, locks, and
 * incarnations (Figure 1 header fields).
 *
 * One table exists per node, covering the records homed there. The
 * Baseline engine manipulates it with local CAS or RDMA CAS timing; the
 * table itself is the functional ground truth that makes conflicts
 * between concurrent transactions real rather than scripted.
 */

#ifndef HADES_TXN_VERSION_TABLE_HH_
#define HADES_TXN_VERSION_TABLE_HH_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace hades::txn
{

/** Version/lock state of one record. */
struct RecordMeta
{
    std::uint64_t version = 0;
    /** Packed GlobalTxId of the lock holder; 0 = unlocked. */
    std::uint64_t lockOwner = 0;
    std::uint64_t incarnation = 0;
};

/** Per-node record metadata table. */
class VersionTable
{
  public:
    /** Current metadata of @p record (created zeroed on first touch). */
    RecordMeta &of(std::uint64_t record) { return meta_[record]; }

    /** Read-only view; returns a default entry if never touched. */
    RecordMeta
    peek(std::uint64_t record) const
    {
        auto it = meta_.find(record);
        return it == meta_.end() ? RecordMeta{} : it->second;
    }

    /**
     * Functional CAS on the record lock (local CAS or RDMA CAS).
     * @return true if the lock was free and is now held by @p owner.
     */
    bool
    tryLock(std::uint64_t record, std::uint64_t owner)
    {
        RecordMeta &m = of(record);
        if (m.lockOwner != 0 && m.lockOwner != owner)
            return false;
        m.lockOwner = owner;
        return true;
    }

    /** Release the lock if @p owner holds it. */
    void
    unlock(std::uint64_t record, std::uint64_t owner)
    {
        RecordMeta &m = of(record);
        if (m.lockOwner == owner)
            m.lockOwner = 0;
    }

    /** Bump the record's version (commit applies the write). */
    void bumpVersion(std::uint64_t record) { of(record).version += 1; }

    /**
     * Crash recovery: release every lock held by @p owner (a dead
     * transaction that will never send its unlocks). Deterministic:
     * matching records are collected and released in sorted order.
     * @return number of locks released.
     */
    std::uint64_t
    releaseOwnedBy(std::uint64_t owner)
    {
        std::vector<std::uint64_t> held;
        // hades-analyze: unordered-iter-ok (collected, sorted below)
        for (const auto &[record, m] : meta_)
            if (m.lockOwner == owner)
                held.push_back(record);
        std::sort(held.begin(), held.end());
        for (std::uint64_t r : held)
            meta_[r].lockOwner = 0;
        return held.size();
    }

    /** Crash recovery: install migrated metadata for @p record (lock
     *  cleared -- a dead owner's lock must not travel to the new
     *  home). */
    void
    installMigrated(std::uint64_t record, const RecordMeta &m)
    {
        meta_[record] = RecordMeta{m.version, 0, m.incarnation};
    }

    std::size_t touched() const { return meta_.size(); }

    /** Owners currently holding record locks, sorted and deduplicated
     *  (crash recovery scans these for a dead coordinator's locks). */
    std::vector<std::uint64_t>
    lockOwners() const
    {
        std::vector<std::uint64_t> owners;
        // hades-analyze: unordered-iter-ok (collected, sorted below)
        for (const auto &[record, m] : meta_)
            if (m.lockOwner != 0)
                owners.push_back(m.lockOwner);
        std::sort(owners.begin(), owners.end());
        owners.erase(std::unique(owners.begin(), owners.end()),
                     owners.end());
        return owners;
    }

    /** Number of records currently lock-held (leak checks). */
    std::size_t
    lockedCount() const
    {
        std::size_t n = 0;
        // hades-analyze: unordered-iter-ok (order-insensitive count)
        for (const auto &[record, m] : meta_)
            n += m.lockOwner != 0;
        return n;
    }

  private:
    std::unordered_map<std::uint64_t, RecordMeta> meta_;
};

} // namespace hades::txn

#endif // HADES_TXN_VERSION_TABLE_HH_
