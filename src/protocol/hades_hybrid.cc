#include "protocol/hades_hybrid.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::protocol
{

using txn::Overhead;
using txn::SquashReason;

std::vector<Addr>
HadesHybridEngine::recordLines(std::uint64_t record) const
{
    Addr base = sys_.placement.addrOf(record);
    std::vector<Addr> out;
    for (std::uint32_t i = 0; i < layout_.swLines(); ++i)
        out.push_back(lineAddr(base) + Addr{i} * kCacheLineBytes);
    return out;
}

sim::Task
HadesHybridEngine::localAccess(ExecCtx ctx, AttemptPtr at,
                               const txn::Request &req,
                               std::vector<std::int64_t> &read_vals)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    const auto &costs = sys_.config.costs;
    const Addr base = sys_.placement.addrOf(req.record);
    const txn::RecordLayout lay = layoutOf(req, layout_);
    const std::uint32_t record_lines = lay.swLines();

    // Software accesses still traverse the directory when they miss in
    // the private caches, so a partially locked directory stalls them.
    int stall_guard = 0;
    while (node.lockBank.accessBlocked(lineAddr(base), req.isWrite,
                                       at->id)) {
        co_await sim::Delay{kernel, cycles(sys_.config.llcCycles)};
        checkSquash(*at);
        always_assert(++stall_guard < 1000000,
                      "HADES-H local access stall did not resolve");
    }

    if (req.isWrite) {
        const std::int64_t value = writeValue(req, read_vals);
        auto it = std::find_if(at->localWrites.begin(),
                               at->localWrites.end(),
                               [&](const LocalWriteEntry &w) {
                                   return w.record == req.record;
                               });
        if (it != at->localWrites.end()) {
            co_await core.occupy(cycles(costs.setWalkCycles));
            it->value = value;
            co_return;
        }

        // RD before WR at record granularity.
        Tick t0 = kernel.now();
        co_await core.occupy(
            accessLines(ctx.node, ctx.core, base, record_lines));
        st().addOverhead(Overhead::RdBeforeWr, kernel.now() - t0);

        const auto m = node.versions.peek(req.record);
        t0 = kernel.now();
        co_await core.occupy(
            cycles(costs.setInsertCycles +
                   copyCycles(lay.payloadBytes())));
        st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
        at->localWrites.push_back(
            LocalWriteEntry{req.record, m.version, value});
    } else {
        auto wit = std::find_if(at->localWrites.begin(),
                                at->localWrites.end(),
                                [&](const LocalWriteEntry &w) {
                                    return w.record == req.record;
                                });
        if (wit != at->localWrites.end()) {
            co_await core.occupy(cycles(costs.setWalkCycles));
            read_vals.push_back(wit->value);
            co_return;
        }

        co_await core.occupy(
            accessLines(ctx.node, ctx.core, base, record_lines));
        const auto m = node.versions.peek(req.record);
        std::int64_t value = sys_.data.read(req.record);
        // Capture the ground-truth version at the same instant as the
        // value: simulated time passes below before the entry lands in
        // the read set.
        const std::uint64_t gt_version = sys_.data.version(req.record);

        // Read atomicity: per-line version compares + copy-out.
        Tick t0 = kernel.now();
        co_await core.occupy(cycles(
            std::int64_t(costs.atomicityCheckPerLineCycles) *
                lay.payloadLines() +
            copyCycles(lay.payloadBytes())));
        st().addOverhead(Overhead::ReadAtomicity, kernel.now() - t0);

        if (!req.isIndex) {
            t0 = kernel.now();
            co_await core.occupy(cycles(costs.setInsertCycles));
            st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
            at->localReads.push_back(
                LocalReadEntry{req.record, m.version});
            read_vals.push_back(value);
            if (sys_.audit)
                sys_.audit->noteRead(at->auditId, req.record,
                                     gt_version);
        }
    }
}

sim::Task
HadesHybridEngine::commit(ExecCtx ctx, AttemptPtr at)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    const auto &costs = sys_.config.costs;
    const std::uint64_t id = at->id;

    // --- Build the NIC-resident local BFs from the software sets ------------
    std::vector<Addr> local_write_lines;
    {
        std::uint32_t hashed = 0;
        for (const auto &r : at->localReads) {
            for (Addr line : recordLines(r.record)) {
                at->nicLocalReadBf.insert(line);
                at->ctrl.localReadLines.insert(line);
                ++hashed;
            }
        }
        for (const auto &w : at->localWrites) {
            for (Addr line : recordLines(w.record)) {
                at->nicLocalWriteBf.insert(line);
                at->ctrl.localWriteLines.insert(line);
                local_write_lines.push_back(line);
                ++hashed;
            }
        }
        // Software passes the addresses to the NIC; the NIC hashes them.
        co_await core.occupy(
            cycles(costs.rdmaPostCycles +
                   std::int64_t(sys_.config.crcHashCycles) * hashed));
        checkSquash(*at);
    }
    // The NIC-built filters must cover the exact local footprint.
    if (sys_.audit) {
        sys_.audit->checkFilterCovers(at->nicLocalReadBf,
                                      at->ctrl.localReadLines,
                                      "hybrid-nic-local-read-bf");
        sys_.audit->checkFilterCovers(at->nicLocalWriteBf,
                                      at->ctrl.localWriteLines,
                                      "hybrid-nic-local-write-bf");
    }

    // --- Partially lock the local directory ---------------------------------
    co_await lockLocalDirectory(ctx, at, at->nicLocalReadBf,
                                at->nicLocalWriteBf, local_write_lines);

    // --- L-R conflicts: LocalWriteBF vs the NIC's remote filters -------------
    co_await squashRemoteConflicts(ctx, at, local_write_lines);

    // --- Intend-to-commit to involved remote nodes ---------------------------
    postIntendToCommit(ctx, at);
    // Section V-A replica updates ride the two-phase commit as in HADES,
    // gated on the recovery subsystem: the hybrid engine had no
    // replication before crash recovery existed, and keeping the extra
    // round trip out of recovery-off runs preserves their timing.
    if (sys_.replicas && recoveryOn()) {
        ReplicaPlan plan;
        for (const auto &w : at->localWrites)
            for (NodeId b : sys_.replicas->backupsOf(w.record, ctx.node))
                plan[b].emplace_back(w.record, w.value);
        stageReplicas(ctx, at, std::move(plan));
    }
    co_await awaitAcks(ctx, at);

    // --- Local Validation (software, Section V-D) ----------------------------
    {
        Tick t0 = kernel.now();
        bool failed = false;
        for (const auto &r : at->localReads) {
            Addr base = sys_.placement.addrOf(r.record);
            if (node.lockBank.accessBlocked(lineAddr(base), false, id)) {
                failed = true; // another commit owns these lines
                break;
            }
            co_await core.occupy(
                accessLines(ctx.node, ctx.core, base, 1) +
                cycles(costs.versionCompareCycles));
            if (node.versions.peek(r.record).version != r.version) {
                failed = true;
                break;
            }
        }
        if (!failed) {
            for (const auto &w : at->localWrites) {
                Addr base = sys_.placement.addrOf(w.record);
                co_await core.occupy(
                    accessLines(ctx.node, ctx.core, base, 1) +
                    cycles(costs.versionCompareCycles));
                if (node.versions.peek(w.record).version != w.version) {
                    failed = true;
                    break;
                }
            }
        }
        st().addOverhead(Overhead::ConflictDetection,
                           kernel.now() - t0);
        checkSquash(*at);
        if (failed)
            throw Squashed{SquashReason::ValidationFailure};
    }

    // Serialization point: the transaction can no longer fail. With
    // replication on, the commit decision record (sequence draw), the
    // remote-write journal, the local ground-truth applies below and
    // the staged-image promotions all land in this one resumption, so
    // recovery observes either no decision or a fully recorded one. The
    // Validation posts below run in a *later* resumption; the journal
    // keeps a crash in between from losing them.
    at->ctrl.uncommittable = true;
    const std::uint64_t commit_seq = recordDecision(at);
    if (sys_.replicas)
        for (const auto &w : at->localWrites)
            sys_.replicas->noteCommittedWrite(w.record, commit_seq);
    promoteReplicas(ctx, at, commit_seq);

    // --- Apply local updates (atomic instant), then charge the time ----------
    {
        Tick apply_ticks = 0;
        Tick t_version = 0;
        for (const auto &w : at->localWrites) {
            std::uint64_t v = sys_.data.write(w.record, w.value);
            if (sys_.audit)
                sys_.audit->noteWrite(at->auditId, w.record, v);
            node.versions.bumpVersion(w.record);
            apply_ticks += accessLines(ctx.node, ctx.core,
                                       sys_.placement.addrOf(w.record),
                                       layout_.payloadLines());
            apply_ticks += cycles(copyCycles(layout_.payloadBytes()));
            t_version += cycles(costs.versionUpdateCycles);
        }
        st().addOverhead(Overhead::UpdateVersion, t_version);
        co_await core.occupy(apply_ticks + t_version);
    }

    // --- Validation + updates to remote nodes --------------------------------
    postValidations(ctx, at, /*bump_versions=*/true);

    // --- Unlock and clear ------------------------------------------------------
    co_await core.occupy(cycles(6));
    node.lockBank.release(id);
    at->localDirLocked = false;
}

sim::Task
HadesHybridEngine::cleanupAborted(ExecCtx ctx, AttemptPtr at)
{
    auto &node = sys_.node(ctx.node);
    node.lockBank.release(at->id); // unconditional: also reclaims guards
    at->localDirLocked = false;
    node.nic.clearLocalState(at->id);

    discardReplicas(ctx, at);
    co_await releaseRemote(ctx, at);
}

sim::Task
HadesHybridEngine::attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                           bool &committed)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);

    auto at = std::make_shared<Attempt>(sys_.config);
    beginAttempt(ctx, *at);
    const std::uint64_t id = at->id;
    // The keep-alive registry only matters when recovery can observe
    // an attempt after a NodeDead unwind; registering unconditionally
    // would also mutate an engine-wide map from every coordinator lane
    // under the threaded executor (hades-analyze: lane-escape).
    if (recoveryOn())
        attempts_[id] = at;

    const Tick exec_start = kernel.now();
    Tick exec_end = exec_start;

    bool ok = false;
    bool aborted = false;
    try {
        std::vector<std::int64_t> read_vals;
        co_await core.occupy(cycles(prog.setupCycles));
        checkSquash(*at);

        for (const auto &req : prog.requests) {
            co_await core.occupy(cycles(prog.computeCyclesPerRequest));
            checkSquash(*at);

            const NodeId home = sys_.placement.homeOf(req.record);
            // Membership: publish the footprint so a migration batch
            // defers (and squash-retries) rather than moving a record
            // this attempt resolved a home for.
            if (membershipOn() && !req.isIndex)
                at->ctrl.recordsTouched.insert(req.record);
            if (req.isIndex && !req.isWrite) {
                const txn::RecordLayout lay = layoutOf(req, layout_);
                co_await indexRead(
                    ctx, home,
                    AddrRange{sys_.placement.addrOf(req.record),
                              lay.swBytes()});
                if (home == ctx.node) {
                    // The software local path still pays the node
                    // consistency check.
                    Tick ti = kernel.now();
                    co_await coreOf(ctx).occupy(cycles(
                        std::int64_t(sys_.config.costs
                                         .atomicityCheckPerLineCycles) *
                        lay.payloadLines()));
                    st().addOverhead(Overhead::ReadAtomicity,
                                       kernel.now() - ti);
                }
            } else if (home == ctx.node) {
                co_await localAccess(ctx, at, req, read_vals);
            } else {
                const Addr base =
                    sys_.placement.addrOf(req.record) +
                    layoutOf(req, layout_).swPayloadOffset();
                const std::uint32_t size =
                    req.sizeBytes
                        ? req.sizeBytes
                        : layoutOf(req, layout_).payloadBytes();
                AddrRange range{base + req.offsetBytes, size};
                co_await remoteAccess(ctx, at, home, req.record, range,
                                      req.isWrite);
                if (req.isWrite) {
                    at->writeBuffer[req.record] = {
                        home, writeValue(req, read_vals)};
                } else if (!req.isIndex) {
                    read_vals.push_back(
                        remoteReadValue(*at, req.record));
                }
            }
            checkSquash(*at);
        }
        exec_end = kernel.now();

        st().maxLinesRead = std::max(
            st().maxLinesRead, std::uint64_t(at->recordedRd.size()));
        st().maxLinesWritten = std::max(
            st().maxLinesWritten, std::uint64_t(at->recordedWr.size()));

        co_await commit(ctx, at);
        ok = true;
    } catch (const Squashed &sq) {
        aborted = noteSquash(*at, sq); // cleanup awaited below
    }
    if (aborted)
        co_await cleanupAborted(ctx, at);

    retireAttempt(ctx, *at, ok, exec_start, exec_end);
    if (recoveryOn())
        attempts_.erase(id);
    committed = ok;

    // Per-attempt drain check of local hardware state (remote state
    // drains asynchronously; checked again at end of run).
    if (sys_.audit)
        auditDrained(ctx, id);
}

} // namespace hades::protocol
