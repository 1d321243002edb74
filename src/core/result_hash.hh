/**
 * @file
 * Determinism-hash helper shared by the differential test suites and
 * the chaos fuzzer's threaded-messaging differential.
 *
 * hashResult() folds every *semantic* RunResult field into one FNV-1a
 * digest, in counter-table order (core/counters.hh): two runs are "the
 * same run" iff their digests match. The Meta rows (sharded-execution
 * metadata: shardsUsed, shardsThreaded, shardWindows, crossShardEvents,
 * serialRerun) are deliberately excluded -- they describe how the run
 * executed, not what it computed, and the whole point of a
 * differential harness is that runs with different shard counts hash
 * equal.
 */

#ifndef HADES_CORE_RESULT_HASH_HH_
#define HADES_CORE_RESULT_HASH_HH_

#include <bit>
#include <cstdint>
#include <string>

#include "core/runner.hh"

namespace hades::core
{

/** FNV-1a over every observable RunResult field. Doubles are hashed by
 *  bit pattern: "close" is not "equal" for a determinism contract. */
class ResultHasher
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        u64(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t
hashResult(const RunResult &r)
{
    ResultHasher h;
    h.str(r.label);
    forEachCounter(
        r,
        [&](const CounterInfo &c, auto v) {
            if (c.hashed())
                h.u64(static_cast<std::uint64_t>(v));
        },
        [&](CounterSlot slot) {
            switch (slot) {
              case CounterSlot::StatsArrays:
                for (auto s : r.stats.squashes)
                    h.u64(s);
                for (auto t : r.stats.overheadTicks)
                    h.u64(static_cast<std::uint64_t>(t));
                break;
              case CounterSlot::Derived:
                h.d(r.throughputTps);
                h.d(r.meanLatencyUs);
                h.d(r.p95LatencyUs);
                h.d(r.p50LatencyUs);
                h.d(r.execUs);
                h.d(r.validationUs);
                h.d(r.commitUs);
                for (double s : r.overheadShare)
                    h.d(s);
                h.d(r.otherShare);
                h.d(r.squashRate);
                h.d(r.evictionSquashRate);
                h.d(r.bfFalsePositiveRate);
                break;
              case CounterSlot::Retired:
                // Retired lost_replica_messages slot: keeps the digests.
                h.u64(0);
                break;
            }
        });
    return h.value();
}

} // namespace hades::core

#endif // HADES_CORE_RESULT_HASH_HH_
