/**
 * @file
 * Abstract transaction engine interface plus the timing helpers shared
 * by the three protocol implementations (Baseline / HADES / HADES-H).
 */

#ifndef HADES_PROTOCOL_ENGINE_HH_
#define HADES_PROTOCOL_ENGINE_HH_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "protocol/system.hh"
#include "sim/task.hh"
#include "txn/program.hh"
#include "txn/record.hh"
#include "txn/txn_stats.hh"

namespace hades::protocol
{

/** Thrown inside an attempt coroutine when the attempt is squashed. */
struct Squashed
{
    txn::SquashReason reason;
};

/** Which of the three evaluated configurations an engine implements. */
enum class EngineKind
{
    Baseline,
    Hades,
    HadesHybrid,
};

inline const char *
engineKindName(EngineKind k)
{
    switch (k) {
      case EngineKind::Baseline:
        return "Baseline";
      case EngineKind::Hades:
        return "HADES";
      case EngineKind::HadesHybrid:
        return "HADES-H";
    }
    return "?";
}

/**
 * Shared state of one batched fan-out awaiting one reply per node
 * (Baseline lock / validation batches, Squash notifications). Replies
 * are idempotent per node, so duplicated or retransmitted response
 * deliveries cannot over-release the waiter; `closed` discards replies
 * that arrive after the coordinator abandoned the batch. The waiter is
 * notified exactly when the pending set empties.
 */
// hades-analyze: lane-escape-ok (coordinator-lane state: remote handlers never touch the tracker directly, they post the reply back to the coordinator, whose delivery handler calls reply() on the coordinator's own lane)
struct Fanout
{
    /** Ordered: resend paths iterate the survivors, and that order
     *  reaches message timing under faults. */
    std::set<NodeId> pending;
    bool anyFail = false;
    bool closed = false;
    sim::AutoResetEvent wake;

    void
    reply(sim::Kernel &kernel, NodeId node, bool ok)
    {
        if (closed || pending.erase(node) == 0)
            return; // stale batch or duplicate reply
        if (!ok)
            anyFail = true;
        if (pending.empty())
            wake.notify(kernel);
    }
};

/** A distributed transaction protocol implementation. */
class TxnEngine
{
  public:
    explicit TxnEngine(System &sys)
        : sys_(sys), statsByNode_(sys.config.numNodes + 1),
          epochsByNode_(sys.config.numNodes)
    {
    }
    virtual ~TxnEngine() = default;

    virtual EngineKind kind() const = 0;
    const char *name() const { return engineKindName(kind()); }

    /**
     * Execute one transaction to commit, retrying on squashes: after
     * each squashed attempt the retry passes the admission retry gate
     * and an exponential backoff, and once maxSquashesBeforeLockMode
     * attempts were squashed the transaction commits through the
     * pessimistic fallback. Completes when the transaction committed.
     */
    sim::Task
    run(ExecCtx ctx, const txn::TxnProgram &prog)
    {
        const Tick start = sys_.kernel.now();
        std::uint32_t squash_count = 0;
        for (;;) {
            throwIfNodeDead(ctx);
            st().attempts += 1;
            bool committed = false;
            co_await attempt(ctx, prog, committed);
            if (committed)
                break;
            squash_count += 1;
            co_await retryGate(ctx);
            if (squash_count >=
                sys_.config.tuning.maxSquashesBeforeLockMode) {
                st().lockModeFallbacks += 1;
                co_await attemptPessimistic(ctx, prog);
                break;
            }
            co_await sim::Delay{sys_.kernel, backoff(squash_count)};
        }
        st().committed += 1;
        st().latency.add(std::uint64_t(sys_.kernel.now() - start));
    }

    /**
     * In-memory footprint a record of @p payload_bytes needs under this
     * engine's layout (SW metadata or bare payload).
     */
    virtual std::uint32_t recordBytes(std::uint32_t payload_bytes)
        const = 0;

    /**
     * Aggregate statistics over the whole run. Counters are kept in
     * per-node buckets (so each shard lane only touches its own nodes'
     * buckets) and merged on read; the merge is bit-exact because every
     * accumulated sample is an integer-valued double far below 2^53.
     */
    txn::EngineStats
    stats() const
    {
        txn::EngineStats out;
        for (const auto &s : statsByNode_)
            out.merge(s);
        return out;
    }

    /** The system this engine runs against (recovery operates on it). */
    System &system() { return sys_; }

    /**
     * Crash-recovery hook: @p node was declared permanently dead by a
     * view change. Releases the pessimistic-fallback token if the dead
     * node held it, so surviving fallback transactions make progress.
     */
    void
    onNodeDead(NodeId node)
    {
        if (tokenBusy_ && tokenOwner_ == node)
            tokenBusy_ = false;
    }

    /** Node holding the pessimistic-fallback token, if any. */
    std::optional<NodeId>
    tokenHolder() const
    {
        return tokenBusy_ ? std::optional<NodeId>(tokenOwner_)
                          : std::nullopt;
    }

    /** Record one admission-control shed of a would-be transaction at
     *  @p node (the driver calls this when admit() refuses; the
     *  transaction never starts, so no attempt is charged). */
    void
    noteShed(NodeId node)
    {
        statsByNode_[node < sys_.config.numNodes ? node
                                                 : sys_.config.numNodes]
            .addSquash(txn::SquashReason::Shed);
    }

  protected:
    /** One optimistic attempt of @p prog; sets @p committed when it
     *  committed, leaves it false when the attempt was squashed. */
    virtual sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                              bool &committed) = 0;

    /** Lock-mode fallback after repeated squashes (Section VI); always
     *  commits. Runs under the fallback token (see acquireToken). */
    virtual sim::Task attemptPessimistic(ExecCtx ctx,
                                         const txn::TxnProgram &prog) = 0;

    /** Core compute resource of a context. */
    sim::ComputeResource &
    coreOf(const ExecCtx &ctx)
    {
        return *sys_.node(ctx.node).cores[ctx.core];
    }

    Tick cycles(std::int64_t n) const { return sys_.cycles(n); }

    /**
     * Timed multi-line access from a core: the first line pays the full
     * hierarchy latency; subsequent lines stream behind it.
     */
    Tick
    accessLines(NodeId node, CoreId core, Addr base, std::uint32_t lines)
    {
        if (lines == 0)
            return 0;
        auto &memsys = sys_.node(node).memory;
        Tick worst = 0;
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr line = lineAddr(base) + Addr{i} * kCacheLineBytes;
            worst = std::max(worst, memsys.access(core, line).latency);
        }
        return worst + Tick(lines - 1) * cycles(kStreamCycles);
    }

    /** Timed multi-line access by a NIC servicing an RDMA request. */
    Tick
    nicAccessLines(NodeId node, Addr base, std::uint32_t lines)
    {
        if (lines == 0)
            return 0;
        auto &memsys = sys_.node(node).memory;
        Tick worst = 0;
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr line = lineAddr(base) + Addr{i} * kCacheLineBytes;
            worst = std::max(worst, memsys.nicAccess(line).latency);
        }
        return worst + Tick(lines - 1) * cycles(kStreamCycles);
    }

    /** Cycle cost of copying @p bytes in software. */
    std::int64_t
    copyCycles(std::uint64_t bytes) const
    {
        const auto &c = sys_.config.costs;
        return std::int64_t(bytes / std::max(1u, c.copyBytesPerCycle)) + 1;
    }

    /** Exponential backoff with jitter before a retry. */
    Tick
    backoff(std::uint32_t attempt)
    {
        std::uint32_t shift = std::min(attempt, 6u);
        std::int64_t base =
            std::int64_t(sys_.config.tuning.retryBackoffBaseCycles) << shift;
        return cycles(base + std::int64_t(sys_.rng().below(
                                 std::uint64_t(base) + 1)));
    }

    /** Uniform Find-LLC-Tags latency in [min, max] cycles (Table III). */
    Tick
    findTagsLatency()
    {
        const auto &cfg = sys_.config;
        std::uint32_t span = cfg.findTagsMaxCycles -
                             cfg.findTagsMinCycles + 1;
        return cycles(cfg.findTagsMinCycles +
                      std::int64_t(sys_.rng().below(span)));
    }

    /**
     * Timed read of a read-only index structure homed at @p home with
     * client-side caching (standard practice in FaRM-family stores:
     * internal index nodes are cached at the client, and the structures
     * are immutable between resize epochs, so the reads need no
     * conflict tracking). Resident lines are served from the local
     * hierarchy; missing lines are fetched with one RDMA read and then
     * fill the local caches.
     */
    sim::Task
    indexRead(ExecCtx ctx, NodeId home, AddrRange range)
    {
        auto &core = coreOf(ctx);
        auto &mem = sys_.node(ctx.node).memory;
        std::vector<Addr> missing;
        for (Addr line = range.firstLine(); line <= range.lastLine();
             line += kCacheLineBytes) {
            if (home == ctx.node) {
                co_await core.occupy(
                    mem.access(ctx.core, line).latency);
            } else if (auto acc = mem.cachedAccess(ctx.core, line)) {
                co_await core.occupy(acc->latency);
            } else {
                missing.push_back(line);
            }
        }
        if (missing.empty())
            co_return;
        co_await core.occupy(cycles(sys_.config.costs.rdmaPostCycles));
        co_await sys_.network.roundTrip(
            net::MsgType::RdmaRead, ctx.node, home, 24,
            std::uint32_t(missing.size()) * kCacheLineBytes,
            [&]() -> Tick {
                Tick t = 0;
                for (Addr l : missing)
                    t += sys_.node(home).memory.nicAccess(l).latency /
                         4;
                return t;
            });
        for (Addr l : missing)
            mem.access(ctx.core, l); // fill the local caches
    }

    /** Layout of the record a request targets (index nodes carry their
     *  own size; data records use the run default @p def). */
    static txn::RecordLayout
    layoutOf(const txn::Request &req, const txn::RecordLayout &def)
    {
        return req.recordPayloadBytes
                   ? txn::RecordLayout{req.recordPayloadBytes}
                   : def;
    }

    /** True when the fault-injection layer is active. Every recovery
     *  code path (timers, resends, extra Acks) is gated on this so
     *  fault-free runs stay bit-identical to the pre-fault simulator. */
    bool faultsOn() const { return sys_.config.faults.enabled; }

    /** True when the crash-recovery subsystem is configured; the
     *  engines mirror write sets / participants into AttemptControl
     *  only under this gate (fault-free runs stay untouched). */
    bool recoveryOn() const { return sys_.config.recovery.enabled; }

    /** True when elastic membership (planned joins/drains with live
     *  record migration) is configured; the engines record each
     *  attempt's record footprint into AttemptControl only under this
     *  gate, so membership-free runs stay bit-identical. Quarantine
     *  (SLO-triggered drains) reuses the migration machinery, so it
     *  needs the same footprints even without scheduled joins/drains. */
    bool
    membershipOn() const
    {
        return sys_.config.membership.enabled() ||
               (sys_.config.slo.enabled && sys_.config.slo.quarantine);
    }

    /**
     * Hedging decision for a remote access of @p record homed at
     * @p home, coordinated from @p ctx.node: fill @p out and return
     * true when the SLO tracker classifies the home as Suspect (or
     * worse) and a live backup replica exists to duplicate the request
     * to. The hedge copy runs the same destination handler as the
     * primary copy -- exactly a wire duplicate with an alternate path,
     * which the protocol already absorbs (idempotent delivery) -- so
     * home-side conflict tracking is never bypassed.
     */
    bool
    hedgeTarget(const ExecCtx &ctx, NodeId home, std::uint64_t record,
                net::HedgeSpec &out)
    {
        if (!sys_.slo || !sys_.slo->config().hedgeReads ||
            !sys_.replicas || home == ctx.node)
            return false;
        if (sys_.slo->classify(ctx.node, home) ==
            net::PeerHealth::Healthy)
            return false;
        for (NodeId b : sys_.replicas->backupsOf(record, home)) {
            if (b == ctx.node || b == home ||
                sys_.network.nodeDead(b))
                continue;
            out.backup = b;
            out.delay = sys_.config.netRoundTrip *
                        Tick(sys_.slo->config().hedgeDelayPct) / 100;
            return true;
        }
        return false;
    }

    /**
     * SLO-adaptive replica-ack deadline: stretch @p base by the worst
     * observed slowness across every peer the attempt's ack counter
     * awaits -- the @p plan backups plus, for the HADES engines,
     * @p also_awaited (the Intend-to-commit fan-out shares the same
     * counter, so a slow ITC ack must not lose the race against an
     * un-inflated deadline). A fail-slow peer then reads as slow
     * instead of dead -- without this, a fixed deadline false-timeouts
     * every commit touching the victim and the retry loop goes
     * metastable (the hedged read path cannot help, since the replica
     * set is fixed). Identity when the SLO tracker is off or still
     * warming up.
     */
    template <class Plan>
    Tick
    replicaDeadline(const ExecCtx &ctx, const Plan &plan, Tick base,
                    const std::set<NodeId> *also_awaited = nullptr) const
    {
        if (!sys_.slo)
            return base;
        std::uint32_t worst = 100;
        for (const auto &kv : plan)
            worst = std::max(worst,
                             sys_.slo->inflationPct(ctx.node, kv.first));
        if (also_awaited)
            for (NodeId y : *also_awaited)
                worst = std::max(worst,
                                 sys_.slo->inflationPct(ctx.node, y));
        return base * Tick(worst) / 100;
    }

    /**
     * Fail-stop guard for retry loops: a context that slept through
     * its own node's failure (retry backoff, admission deferral) must
     * not open a fresh attempt. The view change resolves every
     * in-flight transaction of the dead coordinator through the
     * squash router, so an attempt begun *after* that resolution is
     * adopted by nothing and would dangle in the audit forever.
     */
    void
    throwIfNodeDead(const ExecCtx &ctx) const
    {
        if (faultsOn() && sys_.network.nodeDead(ctx.node))
            throw sim::NodeDead{};
    }

    /**
     * Admission-control retry gate, awaited after a squash before the
     * retry backoff. An exhausted per-node retry budget *paces* the
     * retry -- wait, re-ask, up to maxRetryDeferrals times -- then
     * proceeds regardless: budgets shape load under a retry storm,
     * they never strand a transaction.
     */
    sim::Task
    retryGate(const ExecCtx &ctx)
    {
        AdmissionController *adm = sys_.admission.get();
        if (!adm)
            co_return;
        std::uint32_t waits = 0;
        while (!adm->retryAllowed(ctx.node) &&
               waits < adm->config().maxRetryDeferrals) {
            st().retryBudgetDeferrals += 1;
            co_await sim::Delay{sys_.kernel, adm->retryPace(waits)};
            waits += 1;
        }
        adm->noteRetry(ctx.node);
    }

    /**
     * Protocol-level resend timeout for attempt @p attempt: capped
     * exponential in retryTimeoutBase..retryTimeoutCap plus up to 25%
     * jitter. Only called on faults-on paths, so the RNG draw does not
     * perturb fault-free runs.
     */
    Tick
    resendTimeout(std::uint32_t attempt)
    {
        Tick base = sys_.config.tuning.retryTimeoutBase
                    << std::min(attempt, 4u);
        base = std::min(base, sys_.config.tuning.retryTimeoutCap);
        return base + Tick(sys_.rng().below(std::uint64_t(base / 4) + 1));
    }

    /**
     * One-way message with protocol-level reliability. Fault-free this
     * is exactly Network::post. With faults enabled the destination
     * confirms every delivered copy with a small Ack, and the sender
     * re-posts on a capped-exponential timer until confirmed -- so
     * @p handler runs once per delivered copy and MUST be idempotent.
     */
    void
    reliablePost(net::MsgType type, NodeId src, NodeId dst,
                 std::uint32_t bytes, std::function<void()> handler)
    {
        if (!faultsOn()) {
            sys_.network.post(type, src, dst, bytes,
                              std::move(handler));
            return;
        }
        auto rs = std::make_shared<ReliableSend>();
        rs->type = type;
        rs->src = src;
        rs->dst = dst;
        rs->bytes = bytes;
        rs->handler = std::move(handler);
        reliableAttempt(std::move(rs), 0);
    }

    /**
     * Stats bucket of the node whose context is currently executing
     * (control bucket outside any node context). Engines charge every
     * counter through this accessor so counting is lane-local under
     * sharded execution and the merged totals are shard-invariant.
     */
    txn::EngineStats &
    st()
    {
        NodeId n = sys_.kernel.currentNode();
        return statsByNode_[n < sys_.config.numNodes ? n
                                                     : sys_.config.numNodes];
    }

    /**
     * The pessimistic lock-mode fallback serializes on a cluster-wide
     * token, which the threaded executor cannot reproduce
     * bit-identically. Engines call this at the top of the fallback:
     * under threaded execution it asks the runner for a transparent
     * re-run on the (fully general) serial kernel and unwinds the
     * attempt. On the serial kernel it is a no-op.
     */
    void
    ensureSerialForLockMode()
    {
        if (sys_.kernel.threadedActive()) {
            sys_.kernel.requestSerialRerun();
            throw sim::SerialRerunNeeded{};
        }
    }

    /**
     * Await one reply per node of a fan-out. Fault-free this is a
     * single wait for the last reply. With faults on it calls
     * @p repost for every unresponsive node on a capped-exponential
     * timer and fails the batch (Fanout::anyFail) after
     * ClusterConfig::maxCommitResends rounds. Fanout::closed is set on
     * every exit so late deliveries of stale batches are discarded.
     */
    sim::Task
    awaitFanout(std::shared_ptr<Fanout> fo,
                std::function<void(NodeId)> repost)
    {
        if (fo->pending.empty()) {
            fo->closed = true;
            co_return;
        }
        if (!faultsOn()) {
            co_await fo->wake.wait();
            fo->closed = true;
            co_return;
        }
        // Wake on either the last reply or a resend timer; the
        // generation counter discards timers from earlier rounds.
        auto gen = std::make_shared<std::uint32_t>(0);
        for (std::uint32_t round = 0;; ++round) {
            std::uint32_t g = ++*gen;
            sys_.kernel.schedule(resendTimeout(round), [this, fo, gen, g] {
                if (*gen == g && !fo->closed && !fo->pending.empty())
                    fo->wake.notify(sys_.kernel);
            });
            co_await fo->wake.wait();
            if (fo->pending.empty())
                break;
            if (round >= sys_.config.tuning.maxCommitResends) {
                // Give up on the unresponsive nodes and fail the batch;
                // `closed` below makes any late deliveries inert.
                fo->anyFail = true;
                break;
            }
            for (NodeId n : fo->pending) {
                st().timeoutResends += 1;
                repost(n);
            }
        }
        fo->closed = true;
    }

    /**
     * Squash every transaction in @p victims on behalf of node @p from
     * (whose lane the caller is executing on), all at once, as the
     * HADES NIC sends its Squash notifications. A victim coordinated on
     * @p from is squashed directly (its control block is lane-local).
     * The others are grouped by coordinator node: each node gets one
     * Squash carrying all of its victim ids, handled on that
     * coordinator's own lane, and the replies are awaited together
     * through awaitFanout. @p uncommittable is set when a victim was
     * already past its serialization point, or a coordinator never
     * answered: either way the caller must back off before its own
     * serialization point, or two conflicting transactions could both
     * commit. Every cross-node squash shows up in the Squash message
     * counters.
     */
    sim::Task
    squashVictims(NodeId from, std::vector<std::uint64_t> victims,
                  txn::SquashReason why, bool &uncommittable)
    {
        std::map<NodeId, std::vector<std::uint64_t>> by_node;
        for (std::uint64_t v : victims) {
            const NodeId vnode = System::txnNode(v);
            if (vnode < sys_.config.numNodes && vnode != from)
                by_node[vnode].push_back(v);
            else if (sys_.routerFor(v).squash(sys_.kernel, v, why) ==
                     SquashOutcome::Uncommittable)
                uncommittable = true;
        }
        if (by_node.empty())
            co_return;
        auto fo = std::make_shared<Fanout>();
        auto post = [this, fo, from, why, &by_node](NodeId vnode) {
            const auto &ids = by_node.at(vnode);
            // hades-analyze: verb-reliability-ok (awaitFanout re-posts the Squash to every coordinator that has not replied)
            sys_.network.post(
                net::MsgType::Squash, from, vnode,
                std::uint32_t(8 * ids.size() + 8),
                [this, fo, from, vnode, why, ids] {
                    bool ok = true;
                    for (std::uint64_t v : ids)
                        if (sys_.routerFor(v).squash(sys_.kernel, v, why) ==
                            SquashOutcome::Uncommittable)
                            ok = false;
                    // hades-analyze: verb-reliability-ok (Squash reply; a lost one leaves the node pending, and awaitFanout re-posts the Squash)
                    sys_.network.post(net::MsgType::Squash, vnode, from, 16,
                                      [this, fo, vnode, ok] {
                                          fo->reply(sys_.kernel, vnode, ok);
                                      });
                });
        };
        for (const auto &entry : by_node) {
            fo->pending.insert(entry.first);
            post(entry.first);
        }
        co_await awaitFanout(fo, post);
        if (fo->anyFail)
            uncommittable = true;
    }

    /** Per-line streaming cost after the first line of a bulk access. */
    static constexpr std::int64_t kStreamCycles = 4;

    /**
     * Fresh attempt id of context @p ctx: its packed id tagged with the
     * context's next attempt epoch, so a retry is distinguishable from
     * its squashed predecessor (WrTX IDs, lock owners, staged replica
     * images and journal entries never alias across attempts). Epochs
     * are stored per node so the bookkeeping stays lane-local.
     */
    std::uint64_t
    epochTaggedId(const ExecCtx &ctx)
    {
        const std::uint64_t epoch =
            epochsByNode_[ctx.node][ctx.packed()]++ & 0x3fff;
        return ctx.packed() | (epoch << kEpochShift);
    }

    /**
     * Take the cluster-wide pessimistic-fallback token (Section VI),
     * which serializes lock-mode transactions: running several at once
     * creates lock convoys on skewed workloads. Polls every microsecond
     * while another fallback holds it.
     */
    sim::Task
    acquireToken(ExecCtx ctx)
    {
        while (tokenBusy_) {
            co_await sim::Delay{sys_.kernel, us(1)};
            // Fail-stop: the pure-Delay wait has no occupy() to throw
            // for a dead node, and onNodeDead frees the token if its
            // holder died.
            if (sys_.network.nodeDead(ctx.node))
                throw sim::NodeDead{};
        }
        tokenBusy_ = true;
        tokenOwner_ = ctx.node;
    }

    void releaseToken() { tokenBusy_ = false; }

    /** Value a write request stores: a delta, or the value read by an
     *  earlier request of the program plus the delta. */
    static std::int64_t
    writeValue(const txn::Request &req,
               const std::vector<std::int64_t> &read_vals)
    {
        return req.derivedFromReadIdx >= 0
                   ? read_vals[std::size_t(req.derivedFromReadIdx)] +
                         req.delta
                   : req.delta;
    }

    System &sys_;
    /** Per-node stats buckets + control bucket (see st()). */
    std::vector<txn::EngineStats> statsByNode_;
    /** Per-node attempt-epoch counters (see epochTaggedId()). */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        epochsByNode_;

  private:
    /** Bit position of the attempt epoch inside an attempt id. */
    static constexpr unsigned kEpochShift = 48;

    /** Pessimistic-fallback token, with its holder so recovery can
     *  release it when the holder dies (see onNodeDead). */
    bool tokenBusy_ = false;
    NodeId tokenOwner_ = 0;

    /** In-flight reliablePost state, owned by the kernel closures. */
    // hades-analyze: lane-escape-ok (constructed only when faults are on -- fault-free reliablePost degenerates to a plain post -- and fault-injected traffic is hard-gated by Network::refuseIfThreaded)
    struct ReliableSend
    {
        net::MsgType type{};
        NodeId src = 0;
        NodeId dst = 0;
        std::uint32_t bytes = 0;
        std::function<void()> handler;
        bool confirmed = false;
    };

    void
    reliableAttempt(std::shared_ptr<ReliableSend> rs, std::uint32_t n)
    {
        if (rs->confirmed)
            return;
        // Fail-stop: a permanently dead endpoint ends the resend chain
        // (the message can never be confirmed; recovery owns whatever
        // the post was trying to accomplish).
        if (sys_.network.nodeDead(rs->src) ||
            sys_.network.nodeDead(rs->dst))
            return;
        // Optional resend budget (RobustnessTuning::maxReliableResends;
        // 0 = unbounded): under a never-healing partition the Ack may
        // be unreachable forever, and an exhausted chain simply stops
        // -- the protocol-level timeouts above own further recovery.
        const std::uint32_t cap = sys_.config.tuning.maxReliableResends;
        if (cap > 0 && n > cap)
            return;
        if (n > 0)
            st().reliableResends += 1;
        sys_.network.post(rs->type, rs->src, rs->dst, rs->bytes,
                          [this, rs] {
                              rs->handler();
                              // Confirm this delivered copy; the Ack is
                              // itself lossy, so the sender may resend
                              // (handler idempotency absorbs it).
                              sys_.network.post(
                                  net::MsgType::Ack, rs->dst, rs->src, 8,
                                  [rs] { rs->confirmed = true; });
                          });
        sys_.kernel.schedule(resendTimeout(n), [this, rs, n] {
            if (!rs->confirmed)
                reliableAttempt(rs, n + 1);
        });
    }
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_ENGINE_HH_
