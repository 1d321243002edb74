#include "protocol/hades.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::protocol
{

using txn::SquashReason;

HadesEngine::HadesEngine(System &sys, std::uint32_t payload_bytes)
    : HadesRemoteEngine(sys, payload_bytes)
{
    localTxns_.resize(sys.config.numNodes);
    // Evicting a speculatively-written LLC line squashes its owner.
    for (auto &node : sys_.nodes) {
        node->memory.llc().setSquashHook([this](std::uint64_t tx) {
            sys_.routerFor(tx).squash(sys_.kernel, tx,
                               SquashReason::LlcEviction);
        });
    }
}

HadesEngine::~HadesEngine()
{
    for (auto &node : sys_.nodes)
        node->memory.llc().setSquashHook(nullptr);
}

sim::Task
HadesEngine::localAccess(ExecCtx ctx, AttemptPtr at, AddrRange range,
                         bool is_write)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    auto &llc = node.memory.llc();
    const auto lines = linesOf(range);

    // Multi-line reads use a transient Locking Buffer read guard for
    // atomicity instead of per-record version checks (Table I row 3).
    bool guard_held = false;
    if (!is_write && lines.size() > 1) {
        for (int tries = 0; tries < 64; ++tries) {
            if (node.lockBank.acquireReadGuard(at->id, lines)) {
                guard_held = true;
                if (sys_.audit)
                    sys_.audit->noteLockAcquire(at->id);
                break;
            }
            co_await sim::Delay{kernel, cycles(100)};
            checkSquash(*at);
        }
        if (guard_held) {
            co_await core.occupy(cycles(
                std::int64_t(sys_.config.crcHashCycles) *
                std::int64_t(lines.size())));
        }
    }

    for (Addr line : lines) {
        bool need_dir = is_write ? !at->recordedWr.contains(line)
                                 : !(at->recordedRd.contains(line) ||
                                     at->recordedWr.contains(line));
        // Latency of the data access itself.
        co_await core.occupy(
            node.memory.access(ctx.core, line).latency);

        if (!need_dir)
            continue;

        // First access by this transaction: it must reach the
        // directory/LLC for conflict detection (Module 1 semantics).
        int stall_guard = 0;
        while (node.lockBank.accessBlocked(line, is_write, at->id)) {
            co_await sim::Delay{kernel, cycles(sys_.config.llcCycles)};
            checkSquash(*at);
            always_assert(++stall_guard < 1000000,
                          "directory stall did not resolve");
        }

        // Charge the BF hashing up front: the tag check + filter probe
        // + tag set below are one atomic directory operation in the
        // hardware, so no simulated time may pass inside the block.
        co_await core.occupy(cycles(sys_.config.crcHashCycles));
        checkSquash(*at);

        // WrTX ID tag check (Module 2): eager L-L detection.
        std::uint64_t tag = llc.wrTxIdOf(line);
        if (tag != 0 && tag != at->id) {
            if (guard_held)
                node.lockBank.release(at->id);
            throw Squashed{SquashReason::EagerLocalConflict};
        }

        if (is_write) {
            // Check every other local transaction's LocalReadBF.
            for (auto &[oid, other] : localTxns_[ctx.node]) {
                if (oid == at->id)
                    continue;
                bool truth = other->ctrl.localReadLines.contains(line);
                if (probeFilter(other->localReadBf, line, truth)) {
                    if (guard_held)
                        node.lockBank.release(at->id);
                    throw Squashed{SquashReason::EagerLocalConflict};
                }
            }
            at->localWriteBf.insert(line);
            at->ctrl.localWriteLines.insert(line);
            llc.setWrTxId(line, at->id);
            at->recordedWr.insert(line);
            // An eviction squash fired by setWrTxId targets us directly.
            checkSquash(*at);
        } else {
            at->localReadBf.insert(line);
            at->ctrl.localReadLines.insert(line);
            at->recordedRd.insert(line);
        }
    }

    if (guard_held)
        node.lockBank.release(at->id);
}


sim::Task
HadesEngine::commit(ExecCtx ctx, AttemptPtr at)
{
    auto &core = coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    auto &llc = node.memory.llc();
    const std::uint64_t id = at->id;

    // --- Step 1: partially lock the local directory --------------------------
    co_await core.occupy(findTagsLatency());
    std::vector<Addr> local_write_lines = llc.linesWrittenBy(id);
    // Find-LLC-Tags must enumerate exactly the lines this attempt
    // wrote, all covered by the split WrBF signature -- unless an
    // eviction squash already tore tags out from under us (the squash
    // throws at the next checkSquash).
    if (sys_.audit && !at->ctrl.squashRequested) {
        sys_.audit->noteFindTags(id, local_write_lines,
                                 at->ctrl.localWriteLines,
                                 &at->localWriteBf);
        sys_.audit->checkFilterCovers(at->localReadBf,
                                      at->ctrl.localReadLines,
                                      "hades-core-read-bf");
    }
    co_await core.occupy(cycles(8)); // load BFs into the Locking Buffer
    co_await lockLocalDirectory(ctx, at, at->localReadBf, at->localWriteBf,
                                local_write_lines);

    // --- Step 2: local data vs. remote transactions -------------------------
    co_await squashRemoteConflicts(ctx, at, local_write_lines);

    // --- Step 3: Intend-to-commit to all involved remote nodes --------------
    // Replica updates ride the same two-phase commit (Section V-A).
    postIntendToCommit(ctx, at);
    if (sys_.replicas)
        stageReplicas(ctx, at, {});
    co_await awaitAcks(ctx, at);

    // All Acks received: the transaction can no longer be squashed.
    at->ctrl.uncommittable = true;

    // --- Step 4: clear local speculative state ------------------------------
    co_await core.occupy(findTagsLatency());
    // Serialization point. Everything from here through the Validation
    // and promote posts of step 5 runs in this one resumption (no
    // simulated time passes), so the decision record is atomic with the
    // applies: recovery observes either no decision (safe to abort --
    // the client was never acked) or a decision whose local writes are
    // already in ground truth.
    const std::uint64_t commit_seq = recordDecision(at);
    for (const auto &[record, hv] : at->writeBuffer) {
        if (hv.first == ctx.node) {
            std::uint64_t v = sys_.data.write(record, hv.second);
            if (sys_.audit)
                sys_.audit->noteWrite(at->auditId, record, v);
        }
    }
    llc.clearTxTags(id, /*invalidate=*/false);

    // --- Step 5: Validation + updates to the remote nodes --------------------
    postValidations(ctx, at, /*bump_versions=*/false);
    promoteReplicas(ctx, at, commit_seq);

    // --- Step 6: unlock the local directory and clear local state ------------
    co_await core.occupy(cycles(6));
    node.lockBank.release(id);
    at->localDirLocked = false;
}

sim::Task
HadesEngine::cleanupAborted(ExecCtx ctx, AttemptPtr at)
{
    auto &node = sys_.node(ctx.node);

    // Invalidate speculative lines and drop all local hardware state.
    // The Locking Buffer release is unconditional: it also reclaims a
    // transient read guard if the squash landed mid-read.
    node.memory.llc().clearTxTags(at->id, /*invalidate=*/true);
    node.lockBank.release(at->id);
    at->localDirLocked = false;
    node.nic.clearLocalState(at->id);

    co_await releaseRemote(ctx, at);
    discardReplicas(ctx, at);
}

void
HadesEngine::localVictims(NodeId y, std::uint64_t id, Addr line,
                          std::vector<std::uint64_t> &victims)
{
    for (auto &[oid, other] : localTxns_[y]) {
        if (oid == id)
            continue;
        bool truth_rd = other->ctrl.localReadLines.contains(line);
        bool truth_wr = other->ctrl.localWriteLines.contains(line);
        if (probeFilter(other->localReadBf, line, truth_rd) ||
            probeFilter(other->localWriteBf, line, truth_wr))
            victims.push_back(oid);
    }
}

sim::Task
HadesEngine::attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                     bool &committed)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);

    auto at = std::make_shared<Attempt>(
        sys_.config, sys_.node(ctx.node).memory.llc().numSets());
    beginAttempt(ctx, *at);
    const std::uint64_t id = at->id;
    localTxns_[ctx.node][id] = at;

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
            const Addr base = sys_.placement.addrOf(req.record);
            const std::uint32_t size =
                req.sizeBytes ? req.sizeBytes
                              : layoutOf(req, layout_).payloadBytes();
            AddrRange range{base + req.offsetBytes, size};

            // Membership: publish the footprint so a migration batch
            // defers (and squash-retries) rather than moving a record
            // this attempt resolved a home for.
            if (membershipOn() && !req.isIndex)
                at->ctrl.recordsTouched.insert(req.record);

            if (req.isIndex && !req.isWrite) {
                // Client-cached read-only index structures need no
                // conflict tracking (see TxnEngine::indexRead).
                co_await indexRead(ctx, home, range);
            } else if (home == ctx.node) {
                co_await localAccess(ctx, at, range, req.isWrite);
            } else {
                co_await remoteAccess(ctx, at, home, req.record, range,
                                      req.isWrite);
            }
            checkSquash(*at);

            if (req.isWrite) {
                at->writeBuffer[req.record] = {home,
                                               writeValue(req, read_vals)};
            } else if (!req.isIndex) {
                // Index reads return structure pointers, not values;
                // keep read_vals indices consistent across engines.
                if (home != ctx.node) {
                    read_vals.push_back(remoteReadValue(*at, req.record));
                } else if (auto wit = at->writeBuffer.find(req.record);
                           wit != at->writeBuffer.end()) {
                    // Read-your-own-write: served from the write
                    // buffer, invisible to the history audit.
                    read_vals.push_back(wit->second.second);
                } else {
                    read_vals.push_back(sys_.data.read(req.record));
                    if (sys_.audit) {
                        sys_.audit->noteRead(
                            at->auditId, req.record,
                            sys_.data.version(req.record));
                    }
                }
            }
        }
        exec_end = kernel.now();

        // recordedRd/Wr span local and remote lines: they are the full
        // per-transaction footprint (Section VIII-C quotes <=76 / <=40).
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
    localTxns_[ctx.node].erase(id);
    committed = ok;

    // Per-attempt drain check: every piece of this attempt's local
    // hardware state must be gone (remote state drains asynchronously
    // and is re-checked at end of run).
    if (sys_.audit) {
        sys_.audit->noteDrained(
            "llc-wrtx-tags", ctx.node,
            sys_.node(ctx.node).memory.llc().numLinesWrittenBy(id));
        auditDrained(ctx, id);
    }
}

} // namespace hades::protocol
