#include "protocol/hades_remote.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::protocol
{

using net::MsgType;
using txn::SquashReason;

std::vector<Addr>
HadesRemoteEngine::linesOf(AddrRange range)
{
    std::vector<Addr> out;
    for (Addr l = range.firstLine(); l <= range.lastLine();
         l += kCacheLineBytes)
        out.push_back(l);
    return out;
}

bool
HadesRemoteEngine::probeFilter(const bloom::AddressFilter &bf, Addr line,
                               bool truth)
{
    st().bfConflictChecks += 1;
    bool hit = bf.mayContain(line);
    if (hit && !truth)
        st().bfFalsePositives += 1;
    if (sys_.audit)
        sys_.audit->noteFilterProbe(hit, truth, "hades-conflict-probe");
    return hit;
}

sim::Task
HadesRemoteEngine::attemptPessimistic(ExecCtx ctx,
                                      const txn::TxnProgram &prog)
{
    ensureSerialForLockMode();
    co_await acquireToken(ctx);
    for (;;) {
        throwIfNodeDead(ctx);
        st().attempts += 1;
        bool committed = false;
        co_await attempt(ctx, prog, committed);
        if (committed)
            break;
        co_await sim::Delay{sys_.kernel, backoff(4)};
    }
    releaseToken();
}

void
HadesRemoteEngine::beginAttempt(ExecCtx ctx, RemoteAttempt &at)
{
    at.id = epochTaggedId(ctx);
    at.homeNode = ctx.node;
    sys_.routerFor(at.id).add(at.id, &at.ctrl);
    if (sys_.audit) {
        at.auditId = sys_.audit->begin(at.id);
        at.ctrl.auditId = at.auditId;
    }
}

bool
HadesRemoteEngine::noteSquash(const RemoteAttempt &at, const Squashed &sq)
{
    if (at.ctrl.resolvedByRecovery)
        return false;
    st().addSquash(at.ctrl.squashRequested ? at.ctrl.reason : sq.reason);
    if (sys_.audit)
        sys_.audit->noteAbort(at.auditId);
    return true;
}

void
HadesRemoteEngine::retireAttempt(ExecCtx ctx, RemoteAttempt &at, bool ok,
                                 Tick exec_start, Tick exec_end)
{
    at.finished = true;
    at.ctrl.finished = true;
    sys_.routerFor(at.id).remove(at.id);
    if (!ok)
        return;
    sys_.node(ctx.node).nic.clearLocalState(at.id);
    st().execPhase.add(double(exec_end - exec_start));
    st().validationPhase.add(double(sys_.kernel.now() - exec_end));
    if (sys_.audit)
        sys_.audit->noteCommit(at.auditId);
}

void
HadesRemoteEngine::auditDrained(ExecCtx ctx, std::uint64_t id)
{
    auto &n = sys_.node(ctx.node);
    sys_.audit->noteDrained("locking-buffer", ctx.node,
                            n.lockBank.held(id) ? 1 : 0);
    sys_.audit->noteDrained("nic-local-state", ctx.node,
                            n.nic.hasLocalState(id) ? 1 : 0);
}

sim::Task
HadesRemoteEngine::lockLocalDirectory(ExecCtx ctx, RemotePtr at,
                                      const bloom::AddressFilter &read_bf,
                                      const bloom::AddressFilter &write_bf,
                                      const std::vector<Addr> &write_lines)
{
    auto &node = sys_.node(ctx.node);
    for (;;) {
        auto acq = node.lockBank.tryAcquire(at->id, read_bf, write_bf,
                                            write_lines);
        if (acq == bloom::AcquireResult::Acquired) {
            if (sys_.audit)
                sys_.audit->noteLockAcquire(at->id);
            break;
        }
        if (acq == bloom::AcquireResult::Conflict)
            throw Squashed{SquashReason::LockFailure};
        // Bank exhausted: wait for a committing transaction to drain.
        // Commits hold buffers for network round trips, so retrying
        // faster than a fraction of an RTT just burns simulation events.
        co_await sim::Delay{sys_.kernel, ns(200)};
        checkSquash(*at);
    }
    at->localDirLocked = true;
}

sim::Task
HadesRemoteEngine::remoteAccess(ExecCtx ctx, RemotePtr at, NodeId home,
                                std::uint64_t record, AddrRange range,
                                bool is_write)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    const auto lines = linesOf(range);

    // Already-fetched lines are served from the local copies.
    bool all_cached = true;
    for (Addr line : lines) {
        bool cached = is_write ? at->recordedWr.contains(line)
                               : (at->recordedRd.contains(line) ||
                                  at->recordedWr.contains(line));
        all_cached &= cached;
    }
    if (all_cached) {
        for (Addr line : lines) {
            co_await core.occupy(
                sys_.node(ctx.node).memory.access(ctx.core, line)
                    .latency);
        }
        co_return;
    }

    at->nodesInvolved.insert(home);
    auto &nic4b = sys_.node(ctx.node).nic.localState(at->id);
    nic4b.nodesInvolved.insert(home);

    // Partially-written lines must be fetched (and go into the remote
    // write BF); fully-written lines are neither fetched nor filtered --
    // their addresses travel with the Intend-to-commit at commit.
    std::vector<Addr> filter_lines; // lines to insert into the NIC BF
    std::vector<Addr> fetch_lines;  // lines brought to the local node
    if (is_write) {
        for (Addr line : lines) {
            bool full = line >= range.base &&
                        line + kCacheLineBytes <= range.end();
            if (!full) {
                filter_lines.push_back(line);
                fetch_lines.push_back(line);
            }
        }
        nic4b.writesByNode[home].push_back(range);
        nic4b.bufferedBytes += range.bytes;
    } else {
        filter_lines = lines;
        fetch_lines = lines;
    }

    // Fully-written lines need no exec-time message at all: the data is
    // buffered locally and their addresses travel with Intend-to-commit.
    if (!fetch_lines.empty()) {
        co_await core.occupy(cycles(sys_.config.costs.rdmaPostCycles));
        // The response of a read fetch carries the record's committed
        // value back; at_dst captures it (with its ground-truth
        // version) into the caller's frame, and the caller installs it
        // into the attempt's read cache below. Both the filter inserts
        // and the ground-truth lookup run at the home node -- under
        // worker threads that is the home's own lane, the only lane
        // allowed to touch the home's NIC filters and data bucket.
        std::int64_t fetched_val = 0;
        std::uint64_t fetched_ver = 0;
        for (;;) {
            bool blocked = false;
            // Filter inserts and the data read always act on the home
            // node's state (a hedge copy served by a backup replica is
            // a wire duplicate: the home's conflict tracking still sees
            // every access, and duplicate inserts are idempotent).
            auto at_dst = [&]() -> Tick {
                auto &ynode = sys_.node(home);
                for (Addr line : lines) {
                    if (ynode.lockBank.accessBlocked(line, is_write,
                                                     at->id)) {
                        blocked = true;
                        return sys_.cycles(20);
                    }
                }
                auto &filters = ynode.nic.remoteFilters(at->id);
                for (Addr line : filter_lines) {
                    if (is_write)
                        filters.insertWrite(line);
                    else
                        filters.insertRead(line);
                }
                if (!is_write) {
                    fetched_val = sys_.data.read(record);
                    fetched_ver = sys_.data.version(record);
                }
                Tick t = sys_.cycles(
                    std::int64_t(sys_.config.crcHashCycles) *
                    std::int64_t(filter_lines.size()));
                for (Addr line : fetch_lines)
                    t += ynode.memory.nicAccess(line).latency / 4;
                return t;
            };
            const std::uint32_t resp_bytes =
                std::uint32_t(fetch_lines.size()) * kCacheLineBytes;
            net::HedgeSpec hedge;
            if (!is_write && hedgeTarget(ctx, home, record, hedge)) {
                co_await sys_.network.hedgedRoundTrip(
                    MsgType::RdmaRead, ctx.node, home, hedge, 24,
                    resp_bytes, at_dst);
            } else {
                co_await sys_.network.roundTrip(
                    MsgType::RdmaRead, ctx.node, home, 24, resp_bytes,
                    at_dst);
            }
            if (!blocked)
                break;
            co_await sim::Delay{kernel, ns(300)};
            checkSquash(*at);
        }
        if (!is_write)
            at->remoteReadCache[record] = {fetched_val, fetched_ver};
    }

    // The fetched lines now live in the local caches.
    for (Addr line : fetch_lines) {
        sys_.node(ctx.node).memory.access(ctx.core, line);
        if (is_write)
            at->recordedWr.insert(line);
        else
            at->recordedRd.insert(line);
    }
    if (is_write) {
        // Non-fetched (fully written) lines are buffered locally too.
        for (Addr line : lines)
            at->recordedWr.insert(line);
    }
}

std::int64_t
HadesRemoteEngine::remoteReadValue(const RemoteAttempt &at,
                                   std::uint64_t record)
{
    auto wit = at.writeBuffer.find(record);
    if (wit != at.writeBuffer.end())
        return wit->second.second;
    // The value (and its ground-truth version) traveled back with the
    // RDMA fetch; reading sys_.data here would touch the remote home's
    // bucket from this lane. A conflicting commit between fetch and use
    // squashes us via the NIC read filter, so a committed attempt never
    // observes a stale cached value.
    auto cit = at.remoteReadCache.find(record);
    always_assert(cit != at.remoteReadCache.end(),
                  "remote read missed the fetch cache");
    if (sys_.audit)
        sys_.audit->noteRead(at.auditId, record, cit->second.second);
    return cit->second.first;
}

sim::Task
HadesRemoteEngine::squashRemoteConflicts(
    ExecCtx ctx, RemotePtr at, const std::vector<Addr> &local_write_lines)
{
    auto &node = sys_.node(ctx.node);
    const std::uint64_t id = at->id;

    // Snapshot the victims before squashing any: squashing remote
    // victims awaits their replies, and the NIC's remote-filter
    // map mutates while this frame is suspended (new filters install,
    // cleanup messages erase entries), so iterating it across awaits
    // would be invalid. The filters' exact shadow sets double as the
    // probe ground truth -- both live at this node, on this lane.
    std::vector<std::uint64_t> victims;
    for (Addr line : local_write_lines) {
        for (const auto &[k, filters] : node.nic.remote()) {
            if (k == id)
                continue;
            bool hit = probeFilter(filters.readBf, line,
                                   filters.readsContain(line)) ||
                       probeFilter(filters.writeBf, line,
                                   filters.writesContain(line));
            if (hit)
                victims.push_back(k);
        }
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    bool uncommittable = false;
    co_await squashVictims(ctx.node, std::move(victims),
                           SquashReason::LazyConflict, uncommittable);
    if (uncommittable) {
        // A victim is past its serialization point (or its coordinator
        // never answered); the only safe resolution is to squash
        // ourselves.
        sys_.routerFor(id).squash(sys_.kernel, id,
                                  SquashReason::LazyConflict);
    }
    checkSquash(*at);
    co_await coreOf(ctx).occupy(
        cycles(2 * std::int64_t(local_write_lines.size()) + 10));
    checkSquash(*at);
}

void
HadesRemoteEngine::postIntendToCommit(ExecCtx ctx, const RemotePtr &at)
{
    at->acksPending = std::uint32_t(at->nodesInvolved.size());
    auto &nic4b = sys_.node(ctx.node).nic.localState(at->id);
    for (NodeId y : at->nodesInvolved) {
        std::vector<Addr> itc_lines;
        auto wit = nic4b.writesByNode.find(y);
        if (wit != nic4b.writesByNode.end()) {
            for (const auto &range : wit->second)
                for (Addr l : linesOf(range))
                    itc_lines.push_back(l);
            std::sort(itc_lines.begin(), itc_lines.end());
            itc_lines.erase(
                std::unique(itc_lines.begin(), itc_lines.end()),
                itc_lines.end());
        }
        at->itcLines[y] = itc_lines; // kept for timeout resends
        // hades-analyze: verb-reliability-ok (initial send; armCommitResend re-posts from itcLines until Ack or CommitTimeout squash)
        sys_.network.post(
            MsgType::IntendToCommit, ctx.node, y,
            std::uint32_t(8 * itc_lines.size() + 16),
            [this, y, at, itc_lines] {
                spawnIntendToCommit(y, at, itc_lines);
            });
    }
}

void
HadesRemoteEngine::stageReplicas(ExecCtx ctx, const RemotePtr &at,
                                 ReplicaPlan plan)
{
    // Each backup stages the update in temporary durable storage,
    // persists it, and Acks; a lost update (failure injection) leaves
    // the Ack count short and the deadline below aborts the transaction.
    for (const auto &[rec, hv] : at->writeBuffer)
        for (NodeId b : sys_.replicas->backupsOf(rec, hv.first))
            plan[b].emplace_back(rec, hv.second);
    if (plan.empty())
        return;
    at->acksPending += std::uint32_t(plan.size());
    const Tick persist = sys_.replicas->config().persistLatency();
    // Replica acks are RTT observations too: without them the tracker
    // is blind to a slow backup (hedge wins attribute the read samples
    // to the fast replica) and replicaDeadline never inflates.
    const Tick sentAt = sys_.kernel.now();
    const NodeId obs = ctx.node;
    auto ack = [this, at, sentAt, obs](NodeId b) {
        if (sys_.slo)
            sys_.slo->observe(obs, b, sys_.kernel.now() - sentAt);
        if (at->finished || at->ctrl.squashRequested)
            return;
        if (!at->replicaAckedBy.insert(b).second)
            return; // replayed staging Ack
        if (at->acksPending > 0) {
            at->acksPending -= 1;
            if (at->acksPending == 0)
                at->ctrl.wake.notify(sys_.kernel);
        }
    };
    for (auto &[b, updates] : plan) {
        at->replicaNodes.insert(b);
        const std::uint64_t id_c = at->id;
        auto payload = updates;
        if (b == ctx.node) {
            sys_.kernel.schedule(persist, [this, id_c, payload, ack, b] {
                auto &store = sys_.replicas->store(b);
                for (const auto &[rec, val] : payload)
                    store.stage(id_c, rec, val);
                ack(b);
            });
        } else {
            NodeId x = ctx.node;
            sys_.network.post(
                MsgType::RdmaWrite, ctx.node, b,
                std::uint32_t(payload.size() *
                              (layout_.payloadBytes() + 16)),
                [this, id_c, payload, ack, persist, b, x] {
                    auto &store = sys_.replicas->store(b);
                    for (const auto &[rec, val] : payload)
                        store.stage(id_c, rec, val);
                    // Persist, then Ack over the wire.
                    sys_.kernel.schedule(persist, [this, ack, b, x] {
                        sys_.network.post(MsgType::Ack, b, x, 16,
                                          [ack, b] { ack(b); });
                    });
                });
        }
    }
    Tick deadline = replicaDeadline(
        ctx, plan, 4 * sys_.config.netRoundTrip + 2 * persist + us(2),
        &at->nodesInvolved);
    sys_.kernel.schedule(deadline, [this, at] {
        if (!at->finished && !at->ctrl.uncommittable &&
            at->acksPending > 0) {
            sys_.routerFor(at->id).squash(sys_.kernel, at->id,
                                          SquashReason::ReplicaTimeout);
        }
    });
}

sim::Task
HadesRemoteEngine::awaitAcks(ExecCtx ctx, RemotePtr at)
{
    // Faults on: a lost Intend-to-commit or Ack would strand the wait
    // below, so arm the commit resend timer chain (CommitTimeout squash
    // after maxCommitResends fruitless rounds).
    if (faultsOn() && at->acksPending > 0)
        armCommitResend(ctx, at, 0);
    while (at->acksPending > 0 && !at->ctrl.squashRequested)
        co_await at->ctrl.wake.wait();
    checkSquash(*at);
}

std::uint64_t
HadesRemoteEngine::recordDecision(const RemotePtr &at)
{
    std::uint64_t commit_seq = 0;
    if (sys_.replicas) {
        commit_seq = sys_.replicas->nextCommitSeq();
        at->ctrl.commitSeq = commit_seq;
        at->ctrl.decisionRecorded = true;
        if (recoveryOn())
            // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch, and the in-doubt scan resolves entries by attempt id)
            sys_.decisionLog[at->id] = commit_seq;
        for (const auto &[record, hv] : at->writeBuffer)
            sys_.replicas->noteCommittedWrite(record, commit_seq);
    }
    // Journal the decided remote writes: if a Validation never lands
    // (either endpoint crashes permanently), the view change replays
    // the entry so the committed write is not lost.
    if (recoveryOn()) {
        for (const auto &[record, hv] : at->writeBuffer)
            if (hv.first != at->homeNode)
                // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch and replay is idempotent per record)
                sys_.pendingApplies[{at->id, record}] =
                    PendingApply{hv.first, hv.second, at->auditId};
    }
    return commit_seq;
}

void
HadesRemoteEngine::postValidations(ExecCtx ctx, const RemotePtr &at,
                                   bool bump_versions)
{
    const std::uint64_t id = at->id;
    const std::uint64_t aid = at->auditId;
    for (NodeId y : at->nodesInvolved) {
        std::uint32_t bytes = 16;
        std::vector<std::pair<std::uint64_t, std::int64_t>> updates;
        for (const auto &[record, hv] : at->writeBuffer) {
            if (hv.first == y) {
                updates.emplace_back(record, hv.second);
                bytes += layout_.payloadLines() * kCacheLineBytes;
            }
        }
        reliablePost(
            MsgType::Validation, ctx.node, y, bytes,
            [this, y, id, aid, updates, bump_versions] {
                auto &ynode = sys_.node(y);
                // Replay guard: the first delivery clears the filters,
                // so a duplicated/re-sent Validation must not re-apply
                // writes (or re-bump versions, which is not idempotent)
                // over a lock some later transaction now holds.
                if (faultsOn() && !ynode.nic.hasRemoteFilters(id))
                    return;
                for (const auto &[record, value] : updates) {
                    std::uint64_t v = sys_.data.write(record, value);
                    if (sys_.audit)
                        sys_.audit->noteWrite(aid, record, v);
                    if (bump_versions)
                        ynode.versions.bumpVersion(record);
                    nicAccessLines(y, sys_.placement.addrOf(record),
                                   layout_.payloadLines());
                    if (recoveryOn())
                        // hades-analyze: epoch-fence-ok (journal retirement keyed by attempt id; a view change that already replayed the entry makes this erase a no-op)
                        sys_.pendingApplies.erase({id, record});
                }
                ynode.lockBank.release(id);
                ynode.nic.clearRemoteFilters(id);
            });
    }
}

void
HadesRemoteEngine::promoteReplicas(ExecCtx ctx, const RemotePtr &at,
                                   std::uint64_t commit_seq)
{
    if (!sys_.replicas || at->replicaNodes.empty())
        return;
    const std::uint64_t id = at->id;
    sys_.replicas->noteCommit();
    for (NodeId b : at->replicaNodes) {
        if (b == ctx.node) {
            sys_.replicas->store(b).promote(id, commit_seq);
        } else {
            // promote() is idempotent: replayed copies are no-ops, and
            // max-seq-wins absorbs reordered deliveries.
            reliablePost(MsgType::Validation, ctx.node, b, 16,
                         [this, b, id, commit_seq] {
                             sys_.replicas->store(b).promote(id,
                                                             commit_seq);
                         });
        }
    }
}

sim::Task
HadesRemoteEngine::releaseRemote(ExecCtx ctx, RemotePtr at)
{
    const std::uint64_t id = at->id;
    // Each handler runs on its node's own lane. Fault-free the teardown
    // is awaited round trips: the next attempt epoch must not start
    // until every remote node has processed the cleanup, or a stale
    // Intend-to-commit retry could lock for this (dead) epoch after its
    // successor already began (the audit's lock-epoch monotonicity
    // invariant). With faults on, cleanup instead rides the reliable
    // channel fire-and-forget -- a lost message must not stall the
    // retry loop forever, and the serial-only coordinator-flag guards
    // in handleIntendToCommit cover the stale-retry window; both
    // handler operations are idempotent under replay.
    for (NodeId y : at->nodesInvolved) {
        if (!faultsOn()) {
            co_await sys_.network.roundTrip(
                MsgType::Squash, ctx.node, y, 16, 16, [&]() -> Tick {
                    sys_.node(y).lockBank.release(id);
                    sys_.node(y).nic.clearRemoteFilters(id);
                    return sys_.cycles(20);
                });
        } else {
            reliablePost(MsgType::Squash, ctx.node, y, 16,
                         [this, y, id] {
                             sys_.node(y).lockBank.release(id);
                             sys_.node(y).nic.clearRemoteFilters(id);
                         });
        }
    }
}

void
HadesRemoteEngine::discardReplicas(ExecCtx ctx, const RemotePtr &at)
{
    if (!sys_.replicas || at->replicaNodes.empty())
        return;
    const std::uint64_t id = at->id;
    sys_.replicas->noteAbort();
    for (NodeId b : at->replicaNodes) {
        if (b == ctx.node) {
            sys_.replicas->store(b).discard(id);
        } else {
            reliablePost(MsgType::Squash, ctx.node, b, 16,
                         [this, b, id] {
                             sys_.replicas->store(b).discard(id);
                         });
        }
    }
}

sim::DetachedTask
HadesRemoteEngine::spawnIntendToCommit(NodeId y, RemotePtr at,
                                       std::vector<Addr> write_lines)
{
    // One handler per (node, attempt) at a time. A duplicated or resent
    // delivery (faults only) that lands while an earlier one is still
    // working -- say, awaiting its victims' squashes -- must not act:
    // finding the lock held, it would re-ack before the victims are
    // squashed. The earlier handler acks when it is done.
    const std::uint64_t id = at->id;
    if (!itcBusy_[y].insert(id).second)
        co_return;
    try {
        co_await handleIntendToCommit(y, at, std::move(write_lines));
    } catch (const sim::NodeDead &) {
        // Fail-stop unwind of the remote handler; recovery tears the
        // dead node's state down, nothing to finish here.
    } catch (const sim::SerialRerunNeeded &) {
        // The rerun flag is already set; the run is being abandoned.
    }
    itcBusy_[y].erase(id);
}

sim::Task
HadesRemoteEngine::handleIntendToCommit(NodeId y, RemotePtr at,
                                        std::vector<Addr> write_lines)
{
    auto &kernel = sys_.kernel;
    auto &ynode = sys_.node(y);
    const std::uint64_t id = at->id;

    // Serial executors only: with faults on, a duplicated or resent
    // delivery can arrive after the committer finished or was squashed
    // (its cleanup messages take care of the state here). Fault-free
    // there is exactly one delivery and it precedes any cleanup on
    // this (src,dst) channel, so the coordinator-side flags need not
    // -- and, under worker threads, must not -- be read on y's lane.
    if (faultsOn() && (at->finished || at->ctrl.squashRequested))
        co_return;

    // Idempotency guard (duplicated or timeout-resent delivery, both
    // faults-only, after the first handler finished): if this node's
    // directory is already partially locked for the committer -- or
    // the committer is already past its serialization point --
    // re-acquiring would corrupt the Locking Buffer bank. Just confirm
    // with another Ack; the committer dedupes by node. The held()
    // probe is y-local and so runs unconditionally.
    if (ynode.lockBank.held(id) ||
        (faultsOn() && at->ctrl.uncommittable)) {
        co_await sim::Delay{kernel, sys_.cycles(20)};
        postCommitAck(at, y);
        co_return;
    }

    // Step 1 (remote): partially lock y's directory for the committer.
    for (int tries = 0;; ++tries) {
        // Re-fetched each round: the map cell can be erased (and the
        // reference invalidated) by a cleanup delivery while this
        // frame sleeps between retries.
        auto &filters = ynode.nic.remoteFilters(id);
        if (sys_.audit) {
            sys_.audit->checkFilterCovers(filters.readBf,
                                          filters.readLines,
                                          "hades-nic-read-bf");
            sys_.audit->checkFilterCovers(filters.writeBf,
                                          filters.writeLines,
                                          "hades-nic-write-bf");
        }
        bloom::BloomFilter write_filter = filters.writeBf;
        for (Addr line : write_lines)
            write_filter.insert(line); // cover fully-written lines too
        auto acq = ynode.lockBank.tryAcquire(id, filters.readBf,
                                             write_filter, write_lines);
        if (acq == bloom::AcquireResult::Acquired)
            break;
        if (acq == bloom::AcquireResult::Conflict ||
            /* NoBuffer, out of retries: */ tries >= 64) {
            // Squash the committer. The retry bound matters:
            // committers hold their local buffers while waiting here,
            // so unbounded retries could form a distributed waits-for
            // cycle between exhausted banks.
            bool ignored = false;
            co_await squashVictims(y, std::vector<std::uint64_t>(1, id),
                                   SquashReason::LockFailure, ignored);
            co_return;
        }
        co_await sim::Delay{kernel, ns(200)};
        // The committer may have been squashed while we slept; its
        // cleanup delivery then already dropped our filters and lock
        // here, and re-acquiring would leak a Locking Buffer entry
        // forever. The filters' presence is the y-local liveness
        // signal (the first delivery materialized them above).
        if (!ynode.nic.hasRemoteFilters(id))
            co_return;
    }
    if (sys_.audit)
        sys_.audit->noteLockAcquire(id);

    // Step 2 (remote): conflicts on y's data with any transaction.
    // Snapshot the victims before squashing any (remote squashes await
    // replies; y's NIC filter map and y's local-transaction
    // registry both mutate while this frame is suspended). Probe truth
    // comes from y-owned state only: the filters' exact shadow sets
    // for remote transactions, the local path's own state for y-homed
    // ones.
    std::vector<std::uint64_t> victims;
    for (Addr line : write_lines) {
        for (const auto &[k, kf] : ynode.nic.remote()) {
            if (k == id)
                continue;
            bool hit = probeFilter(kf.readBf, line,
                                   kf.readsContain(line)) ||
                       probeFilter(kf.writeBf, line,
                                   kf.writesContain(line));
            if (hit)
                victims.push_back(k);
        }
        localVictims(y, id, line, victims);
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    bool uncommittable = false;
    co_await squashVictims(y, std::move(victims),
                           SquashReason::LazyConflict, uncommittable);
    if (uncommittable) {
        // A victim is past its serialization point (or its coordinator
        // never answered); the conservative ordering rule squashes the
        // committer instead.
        bool ignored = false;
        co_await squashVictims(y, std::vector<std::uint64_t>(1, id),
                               SquashReason::LazyConflict, ignored);
        ynode.lockBank.release(id);
        co_return;
    }

    // Step 3 (remote): send the Ack after the NIC processing time.
    Tick work = sys_.cycles(20 + 2 * std::int64_t(write_lines.size()));
    co_await sim::Delay{kernel, work};
    postCommitAck(at, y);
}

void
HadesRemoteEngine::postCommitAck(RemotePtr at, NodeId y)
{
    sys_.network.post(MsgType::Ack, y, at->homeNode, 16, [this, at, y] {
        if (at->finished || at->ctrl.squashRequested)
            return;
        if (!at->ackedBy.insert(y).second)
            return; // duplicated/re-sent Ack: already counted
        if (at->acksPending > 0) {
            at->acksPending -= 1;
            if (at->acksPending == 0)
                at->ctrl.wake.notify(sys_.kernel);
        }
    });
}

void
HadesRemoteEngine::armCommitResend(ExecCtx ctx, RemotePtr at,
                                   std::uint32_t round)
{
    sys_.kernel.schedule(resendTimeout(round), [this, ctx, at, round] {
        if (at->finished || at->ctrl.uncommittable ||
            at->ctrl.squashRequested || at->acksPending == 0)
            return;
        if (round >= sys_.config.tuning.maxCommitResends) {
            // Out of resend budget: a peer is unreachable (crashed or
            // partitioned). Squash-and-retry from a clean slate.
            sys_.routerFor(at->id).squash(sys_.kernel, at->id,
                                          SquashReason::CommitTimeout);
            return;
        }
        for (NodeId y : at->nodesInvolved) {
            if (at->ackedBy.contains(y))
                continue;
            st().timeoutResends += 1;
            const std::vector<Addr> itc_lines = at->itcLines[y];
            sys_.network.post(
                MsgType::IntendToCommit, ctx.node, y,
                std::uint32_t(8 * itc_lines.size() + 16),
                [this, y, at, itc_lines] {
                    spawnIntendToCommit(y, at, itc_lines);
                });
        }
        armCommitResend(ctx, at, round + 1);
    });
}

} // namespace hades::protocol
