/**
 * @file
 * Functional ground truth: the committed value of every record.
 *
 * The timing model decides *when* things happen; this store decides
 * *what* the data is. All three protocol engines buffer writes during
 * execution and apply them here exactly at their serialization point, so
 * the test suite can check serializability properties (conservation,
 * exactly-once increments) against the same store regardless of engine.
 *
 * Every write also bumps a per-record version counter. The counter is
 * protocol-independent (unlike the VersionTable the software engines
 * manage) and exists for the correctness auditor: stamping each read
 * and each applied write with the ground-truth version at that instant
 * reconstructs the version order the serializability audit needs.
 *
 * Storage is internally bucketed by the record's home node (when the
 * runner wires the placement function in via shard()): a record's
 * committed state lives in its home node's bucket, so under threaded
 * sharded execution -- where every ground-truth access for a record
 * happens on the home node's lane -- buckets are lane-disjoint and the
 * maps never rehash across threads. The external interface is
 * unchanged and the contents are independent of the bucket count.
 */

#ifndef HADES_TXN_GROUND_TRUTH_HH_
#define HADES_TXN_GROUND_TRUTH_HH_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace hades::txn
{

/** Committed record values (defaults to 0 for untouched records). */
class GroundTruth
{
  public:
    /** Maps a record id to its home node (mem::Placement::homeOf). */
    using HomeFn = std::function<std::uint32_t(std::uint64_t)>;

    /**
     * Partition storage into one bucket per home node. Must be called
     * before any write (the runner wires it right after building the
     * System). Without it everything lives in one bucket, which is
     * correct for every single-threaded execution mode.
     */
    void
    shard(std::uint32_t num_homes, HomeFn home_of)
    {
        buckets_.resize(num_homes > 0 ? num_homes : 1);
        homeOf_ = std::move(home_of);
    }

    std::int64_t
    read(std::uint64_t record) const
    {
        const Bucket &b = bucketFor(record);
        auto it = b.values.find(record);
        return it == b.values.end() ? 0 : it->second;
    }

    /** Install a new value; returns the version it installed. */
    std::uint64_t
    write(std::uint64_t record, std::int64_t v)
    {
        Bucket &b = bucketFor(record);
        b.values[record] = v;
        return ++b.versions[record];
    }

    /** Version of the last committed write (0 = never written). */
    std::uint64_t
    version(std::uint64_t record) const
    {
        const Bucket &b = bucketFor(record);
        auto it = b.versions.find(record);
        return it == b.versions.end() ? 0 : it->second;
    }

    /** Sum over a record id range [first, last] (invariant checks). */
    std::int64_t
    sumRange(std::uint64_t first, std::uint64_t last) const
    {
        std::int64_t s = 0;
        for (std::uint64_t r = first; r <= last; ++r)
            s += read(r);
        return s;
    }

    std::size_t
    touched() const
    {
        std::size_t n = 0;
        for (const Bucket &b : buckets_)
            n += b.values.size();
        return n;
    }

    /** All records ever written, in sorted (deterministic) order.
     *  Recovery and the replica-divergence check iterate this. */
    std::vector<std::uint64_t>
    touchedRecords() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(touched());
        for (const Bucket &b : buckets_)
            // hades-analyze: unordered-iter-ok (sorted below)
            for (const auto &kv : b.values)
                out.push_back(kv.first);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    struct Bucket
    {
        std::unordered_map<std::uint64_t, std::int64_t> values;
        std::unordered_map<std::uint64_t, std::uint64_t> versions;
    };

    const Bucket &
    bucketFor(std::uint64_t record) const
    {
        if (buckets_.size() == 1 || !homeOf_)
            return buckets_[0];
        return buckets_[homeOf_(record) % buckets_.size()];
    }

    Bucket &
    bucketFor(std::uint64_t record)
    {
        return const_cast<Bucket &>(
            std::as_const(*this).bucketFor(record));
    }

    std::vector<Bucket> buckets_{1};
    HomeFn homeOf_;
};

} // namespace hades::txn

#endif // HADES_TXN_GROUND_TRUTH_HH_
