/**
 * @file
 * The hardware-only HADES protocol engine (Section V-A, Table II).
 *
 * Per transaction attempt the engine maintains the hardware the paper
 * adds: a Local read BF and a split Local write BF (Module 3), the
 * Recorded RD/WR filter bits (Module 1, modeled as exact sets), WrTX ID
 * tags in the home node's LLC directory (Module 2), Remote read/write
 * BFs in the NICs of remote nodes (Module 4a), and the per-transaction
 * remote-write tables in the local NIC (Module 4b).
 *
 * Conflict policy (Section IV-B): L-L conflicts are detected eagerly at
 * access time (the second accessor squashes itself); conflicts with at
 * least one remote access are detected lazily when the first transaction
 * commits (the committer squashes the other).
 *
 * The remote path (Module 4a/4b and the commit verbs) is shared with
 * HADES-H; see HadesRemoteEngine.
 */

#ifndef HADES_PROTOCOL_HADES_HH_
#define HADES_PROTOCOL_HADES_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "bloom/split_write_bloom.hh"
#include "protocol/hades_remote.hh"

namespace hades::protocol
{

/** Hardware-only HADES engine. */
class HadesEngine : public HadesRemoteEngine
{
  public:
    HadesEngine(System &sys, std::uint32_t payload_bytes);
    ~HadesEngine() override;

    EngineKind kind() const override { return EngineKind::Hades; }

    std::uint32_t
    recordBytes(std::uint32_t payload_bytes) const override
    {
        // HADES needs no record metadata (Table I row 2).
        return txn::RecordLayout{payload_bytes}.hwBytes();
    }

  private:
    /** Live hardware state of one attempt: the remote path's state
     *  plus the core filters of the local path (Module 3). */
    struct Attempt : RemoteAttempt
    {
        Attempt(const ClusterConfig &cfg, std::uint64_t llc_sets)
            : localReadBf(cfg.coreReadBf.bits, cfg.coreReadBf.numHashes),
              localWriteBf(cfg.coreWriteBf, llc_sets)
        {}

        bloom::BloomFilter localReadBf;
        bloom::SplitWriteBloomFilter localWriteBf;
    };

    using AttemptPtr = std::shared_ptr<Attempt>;

    sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                      bool &committed) override;

    /** Timed local read/write with eager L-L conflict detection. */
    sim::Task localAccess(ExecCtx ctx, AttemptPtr at, AddrRange range,
                          bool is_write);

    /** The commit sequence of Table II (both sides). */
    sim::Task commit(ExecCtx ctx, AttemptPtr at);

    /** Undo all speculative state of a squashed/finished attempt. */
    sim::Task cleanupAborted(ExecCtx ctx, AttemptPtr at);

    /** Local transactions at @p y whose core filters cover @p line. */
    void localVictims(NodeId y, std::uint64_t id, Addr line,
                      std::vector<std::uint64_t> &victims) override;

    /** Registry of running local attempts, per node (Module 3 bank).
     *  Ordered: eager conflict scans iterate a node's registry and
     *  their enumeration order picks squash victims. */
    std::vector<std::map<std::uint64_t, AttemptPtr>> localTxns_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_HADES_HH_
