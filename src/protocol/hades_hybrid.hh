/**
 * @file
 * HADES-H: the hybrid hardware-software protocol of Section V-D.
 *
 * Remote operations use the HADES NIC hardware (cache-line granularity,
 * Remote read/write BFs in the home node's NIC, Intend-to-commit / Ack /
 * Validation verbs). Local operations run in software exactly like
 * SW-Impl: records are augmented as in Figure 1, local reads/writes are
 * tracked at record granularity in Read and Write sets, and local
 * conflicts are found by a software Local Validation (version re-reads)
 * after all Acks arrive.
 *
 * Of the processor-side hardware only the partial directory-locking
 * primitive survives: at commit the local record addresses are passed
 * to the NIC, which builds the equivalent of LocalRead/WriteBF and
 * installs them in a Locking Buffer.
 */

#ifndef HADES_PROTOCOL_HADES_HYBRID_HH_
#define HADES_PROTOCOL_HADES_HYBRID_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "protocol/hades_remote.hh"

namespace hades::protocol
{

/** Hybrid HW/SW engine (HADES-H). */
class HadesHybridEngine : public HadesRemoteEngine
{
  public:
    HadesHybridEngine(System &sys, std::uint32_t payload_bytes)
        : HadesRemoteEngine(sys, payload_bytes)
    {}

    EngineKind kind() const override { return EngineKind::HadesHybrid; }

    std::uint32_t
    recordBytes(std::uint32_t payload_bytes) const override
    {
        // Local operations are software: records carry Figure 1 metadata.
        return txn::RecordLayout{payload_bytes}.swBytes();
    }

  private:
    struct LocalReadEntry
    {
        std::uint64_t record;
        std::uint64_t version;
    };

    struct LocalWriteEntry
    {
        std::uint64_t record;
        std::uint64_t version;
        std::int64_t value;
    };

    /** The remote path's state plus the software local path (record
     *  granularity) and the NIC-built local filters of commit. */
    struct Attempt : RemoteAttempt
    {
        explicit Attempt(const ClusterConfig &cfg)
            : nicLocalReadBf(cfg.nicReadBf.bits, cfg.nicReadBf.numHashes),
              nicLocalWriteBf(cfg.nicWriteBf.bits,
                              cfg.nicWriteBf.numHashes)
        {}

        std::vector<LocalReadEntry> localReads;
        std::vector<LocalWriteEntry> localWrites;
        bloom::BloomFilter nicLocalReadBf;
        bloom::BloomFilter nicLocalWriteBf;
    };

    using AttemptPtr = std::shared_ptr<Attempt>;

    sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                      bool &committed) override;

    /** Software local read/write at record granularity (SW-Impl path). */
    sim::Task localAccess(ExecCtx ctx, AttemptPtr at,
                          const txn::Request &req,
                          std::vector<std::int64_t> &read_vals);

    /** Commit: NIC-built local BFs + HADES remote flow + Local
     *  Validation. */
    sim::Task commit(ExecCtx ctx, AttemptPtr at);

    /** Undo all speculative state of a squashed/finished attempt. */
    sim::Task cleanupAborted(ExecCtx ctx, AttemptPtr at);

    /** All sw-layout cache lines of a record (header + payload). */
    std::vector<Addr> recordLines(std::uint64_t record) const;

    /** All in-flight attempts by id. Keeps the AttemptControl the
     *  SquashRouter points to alive after a NodeDead unwind (which
     *  skips the normal epilogue), so recovery's in-doubt scan reads
     *  valid control blocks. Ordered for deterministic enumeration. */
    // hades-analyze: lane-escape-ok (writes are recoveryOn()-gated; recovery specs never certify for threaded execution)
    std::map<std::uint64_t, AttemptPtr> attempts_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_HADES_HYBRID_HH_
