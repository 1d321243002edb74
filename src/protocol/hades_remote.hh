/**
 * @file
 * The HADES remote path, shared by HADES (Section V-A) and HADES-H
 * (Section V-D).
 *
 * Both engines reach remote records through the same NIC hardware:
 * cache-line RDMA fetches that insert into the Remote read/write BFs of
 * the home node's NIC (Module 4a), the per-transaction remote-write
 * tables of the local NIC (Module 4b), and the Intend-to-commit / Ack /
 * Validation verbs at commit. They differ only in the local path: HADES
 * tracks local accesses in core Bloom filters and LLC WrTX ID tags,
 * HADES-H in FaRM-style software read/write sets. This class holds the
 * remote path and the attempt state it needs; the subclasses hold the
 * local path and sequence the shared commit steps themselves.
 *
 * Model notes (documented deviations):
 *  - Squash notifications go to all victims at once, one Squash per
 *    victim coordinator, handled on that coordinator's lane
 *    (TxnEngine::squashVictims); the paper's narrow window where two
 *    mutually-conflicting commits could cross is closed by the outcome
 *    protocol -- a committer that finds a victim already uncommittable
 *    (or whose victim's coordinator never answers) squashes itself
 *    instead. Fault-free, abort cleanup is awaited before the next
 *    attempt epoch begins.
 *  - The Locking Buffer copy installed by a remote commit includes the
 *    Intend-to-commit address list in addition to RemoteWriteBF, so
 *    fully-written lines (which the paper deliberately keeps out of the
 *    write BF) are also protected during the commit window.
 */

#ifndef HADES_PROTOCOL_HADES_REMOTE_HH_
#define HADES_PROTOCOL_HADES_REMOTE_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "protocol/engine.hh"

namespace hades::protocol
{

/** Base of the two engines that use the HADES NIC remote path. */
class HadesRemoteEngine : public TxnEngine
{
  public:
    HadesRemoteEngine(System &sys, std::uint32_t payload_bytes)
        : TxnEngine(sys), layout_(payload_bytes),
          itcBusy_(sys.config.numNodes)
    {}

  protected:
    /** Attempt state of the remote path; each subclass extends it with
     *  the state of its local path. */
    // hades-analyze: lane-escape-ok (coordinator-lane state: every mutable field is written either by the coordinator's own events or by ack/squash deliveries routed to the coordinator's lane through the window-barrier mailboxes; remote handlers read only immutable fields -- id, homeNode -- plus faultsOn()-gated flags that only matter on the serial executors)
    struct RemoteAttempt
    {
        AttemptControl ctrl;
        /** Module 1 Recorded RD/WR bits + locally-cached remote lines. */
        std::unordered_set<Addr> recordedRd, recordedWr;
        /** Buffered writes: record -> (home, value). Ordered: commit
         *  iterates it and the order reaches message/write timing. */
        std::map<std::uint64_t, std::pair<NodeId, std::int64_t>>
            writeBuffer;
        /** Remote nodes this attempt touched (Module 4b lower struct). */
        std::set<NodeId> nodesInvolved;
        /** Backup nodes holding staged replica updates (Section V-A). */
        std::set<NodeId> replicaNodes;
        std::uint32_t acksPending = 0;
        /** Nodes whose commit Ack arrived (dedupes replayed Acks and
         *  selects the targets of a timeout resend). */
        std::set<NodeId> ackedBy;
        /** Backups whose replica-staging Ack arrived. */
        std::set<NodeId> replicaAckedBy;
        /** Intend-to-commit address list per node, kept for resends. */
        std::map<NodeId, std::vector<Addr>> itcLines;
        /** Remote record values (and ground-truth versions) captured at
         *  the home node when the RDMA fetch returns. Reads are served
         *  from here, so the coordinator never touches another home's
         *  ground-truth bucket (the store is lane-partitioned by home). */
        std::map<std::uint64_t, std::pair<std::int64_t, std::uint64_t>>
            remoteReadCache;
        bool localDirLocked = false;
        bool finished = false;
        std::uint64_t id = 0; //!< packed gid | epoch (WrTX ID value)
        std::uint64_t auditId = 0; //!< auditor observation (0 = off)
        NodeId homeNode = 0;
    };

    using RemotePtr = std::shared_ptr<RemoteAttempt>;

    /** Replica-staging plan: backup -> (record, value) updates. */
    using ReplicaPlan =
        std::map<NodeId,
                 std::vector<std::pair<std::uint64_t, std::int64_t>>>;

    /** Both HADES engines fall back by running optimistic attempts
     *  without the squash cap while holding the fallback token. The
     *  paper instead pre-locks all data; the token models the same
     *  "guaranteed progress" property with the hardware we have. */
    sim::Task attemptPessimistic(ExecCtx ctx,
                                 const txn::TxnProgram &prog) override;

    /** Give a fresh attempt its epoch-tagged id and home node, and
     *  register it with the squash router and the auditor. */
    void beginAttempt(ExecCtx ctx, RemoteAttempt &at);

    /** Squash accounting of an attempt that threw @p sq. Returns false
     *  when recovery already resolved the attempt (and decided its
     *  audit fate), so its unwind must neither count nor clean up. */
    bool noteSquash(const RemoteAttempt &at, const Squashed &sq);

    /** Mark @p at finished and unregister it from the squash router;
     *  when it committed (@p ok), also drop its NIC local state and
     *  account its execution phase [@p exec_start, @p exec_end). */
    void retireAttempt(ExecCtx ctx, RemoteAttempt &at, bool ok,
                       Tick exec_start, Tick exec_end);

    /** Per-attempt drain check: this attempt's Locking Buffer entry
     *  and NIC local state at its own node must be gone. */
    void auditDrained(ExecCtx ctx, std::uint64_t id);

    /** Partially lock the local directory (Figure 7): install the
     *  local filters of @p at in a Locking Buffer, squashing on a
     *  conflict and waiting while the bank is exhausted. */
    sim::Task lockLocalDirectory(ExecCtx ctx, RemotePtr at,
                                 const bloom::AddressFilter &read_bf,
                                 const bloom::AddressFilter &write_bf,
                                 const std::vector<Addr> &write_lines);

    /** Timed remote read/write (RDMA + NIC BF insertion at the home).
     *  @p record identifies the fetched record so a read can cache its
     *  value/version for the lane-local read path. */
    sim::Task remoteAccess(ExecCtx ctx, RemotePtr at, NodeId home,
                           std::uint64_t record, AddrRange range,
                           bool is_write);

    /** Value a read of remote @p record returns: the attempt's own
     *  buffered write (invisible to the history audit), else the value
     *  the RDMA fetch carried back. */
    std::int64_t remoteReadValue(const RemoteAttempt &at,
                                 std::uint64_t record);

    /** L-R conflicts at commit: squash every remote transaction whose
     *  NIC filters at this node cover one of @p local_write_lines. */
    sim::Task squashRemoteConflicts(
        ExecCtx ctx, RemotePtr at,
        const std::vector<Addr> &local_write_lines);

    /** Send Intend-to-commit to every involved node; arms acksPending. */
    void postIntendToCommit(ExecCtx ctx, const RemotePtr &at);

    /** Stage the replica updates of @p plan plus the buffered writes
     *  on their backups (Section V-A); each staging Ack counts toward
     *  acksPending, and a deadline squashes the attempt if one is
     *  missing. */
    void stageReplicas(ExecCtx ctx, const RemotePtr &at,
                       ReplicaPlan plan);

    /** Wait for every commit and staging Ack (faults on: with the
     *  Intend-to-commit resend chain armed). */
    sim::Task awaitAcks(ExecCtx ctx, RemotePtr at);

    /** Serialization-point record: draw the commit sequence (with
     *  replication on) and journal the decided remote writes (with
     *  recovery on), both atomically with the caller's local applies.
     *  Returns the commit sequence (0 without replication). */
    std::uint64_t recordDecision(const RemotePtr &at);

    /** Send Validation with the buffered updates to every involved
     *  node. @p bump_versions: the home also bumps the software record
     *  versions (HADES-H, whose local path validates against them). */
    void postValidations(ExecCtx ctx, const RemotePtr &at,
                         bool bump_versions);

    /** Promote staged replica images to permanent durable storage (the
     *  Validation of Section V-A's two-phase durability). */
    void promoteReplicas(ExecCtx ctx, const RemotePtr &at,
                         std::uint64_t commit_seq);

    /** Abort path: tell every involved node to drop this attempt's
     *  filters and locks. Fault-free the teardown is awaited (round
     *  trips), so the next attempt epoch starts only after every
     *  involved node has dropped this one's state. */
    sim::Task releaseRemote(ExecCtx ctx, RemotePtr at);

    /** Abort path: drop staged replica images (Section V-A). */
    void discardReplicas(ExecCtx ctx, const RemotePtr &at);

    /** Throw sim::NodeDead if the attempt's node crashed permanently
     *  (fail-stop: the coroutine stack unwinds instead of executing
     *  on), else Squashed if a squash request is pending. */
    void
    checkSquash(const RemoteAttempt &at) const
    {
        if (sys_.network.nodeDead(at.homeNode))
            throw sim::NodeDead{};
        if (at.ctrl.squashRequested)
            throw Squashed{at.ctrl.reason};
    }

    /** Probe one BF and account the check + false positives. */
    bool probeFilter(const bloom::AddressFilter &bf, Addr line,
                     bool truth);

    /** Local-path hook of handleIntendToCommit: append the local
     *  transactions running at @p y (other than committer @p id) whose
     *  filters cover @p line. HADES-H has none: its local transactions
     *  self-detect conflicts in their own Local Validation. */
    virtual void
    localVictims(NodeId /*y*/, std::uint64_t /*id*/, Addr /*line*/,
                 std::vector<std::uint64_t> & /*victims*/)
    {}

    /** Expand an address range into its cache-line addresses. */
    static std::vector<Addr> linesOf(AddrRange range);

    txn::RecordLayout layout_;

  private:
    /** Process an Intend-to-commit at remote node @p y (NIC offload).
     *  Runs as a coroutine on y's lane; every structure it touches --
     *  y's Locking Buffer, y's NIC filters with their exact shadow
     *  sets, y's local-transaction registry -- is owned by that lane.
     *  NoBuffer retries are bounded: a capped number of rounds breaks
     *  distributed waits-for cycles on exhausted banks (the committer
     *  is squashed, releasing its own buffers). */
    sim::Task handleIntendToCommit(NodeId y, RemotePtr at,
                                   std::vector<Addr> write_lines);

    /** Fire-and-forget wrapper: runs handleIntendToCommit as a
     *  detached coroutine from the message-delivery event, absorbing
     *  the unwind exceptions (NodeDead, SerialRerunNeeded) that have
     *  no coordinator frame to land in here. A delivery that finds a
     *  handler for the same attempt still running at @p y (itcBusy_)
     *  returns without acting. */
    sim::DetachedTask spawnIntendToCommit(NodeId y, RemotePtr at,
                                          std::vector<Addr> write_lines);

    /** Send one commit Ack from @p y back to the committer (idempotent
     *  at the receiver via RemoteAttempt::ackedBy). */
    void postCommitAck(RemotePtr at, NodeId y);

    /**
     * Faults-on only: timer chain that re-posts Intend-to-commit to
     * nodes that have not Acked; after maxCommitResends rounds the
     * committer squashes itself (CommitTimeout) and retries.
     */
    void armCommitResend(ExecCtx ctx, RemotePtr at, std::uint32_t round);

    /** Per node: attempts whose Intend-to-commit handler is running
     *  there (see spawnIntendToCommit). */
    // hades-analyze: lane-escape-ok (per-node shard: itcBusy_[y] is touched only by Intend-to-commit deliveries at y, which run on y's lane)
    std::vector<std::set<std::uint64_t>> itcBusy_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_HADES_REMOTE_HH_
