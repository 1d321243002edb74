#include "audit/auditor.hh"

#include <cstdio>

#include "audit/history_graph.hh"
#include "common/log.hh"

namespace hades::audit
{

namespace
{

/** Lock-owner id layout (mirrors the engines' epoch tagging). */
constexpr unsigned kEpochShift = 48;
constexpr std::uint64_t kEpochMask = 0x3fff;

std::string
fmt(const char *format, std::uint64_t a, std::uint64_t b,
    std::uint64_t c)
{
    char buf[192];
    std::snprintf(buf, sizeof buf, format, (unsigned long long)a,
                  (unsigned long long)b, (unsigned long long)c);
    return std::string(buf);
}

} // namespace

void
Auditor::violation(ViolationKind kind, std::string detail)
{
    report_.violations.push_back(Violation{kind, std::move(detail)});
}

TxnObservation *
Auditor::find(std::uint64_t obs)
{
    if (obs == 0 || obs > observations_.size())
        return nullptr;
    return &observations_[obs - 1];
}

std::uint64_t
Auditor::begin(std::uint64_t engine_id)
{
    TxnObservation o;
    o.id = observations_.size() + 1;
    o.engineId = engine_id;
    observations_.push_back(std::move(o));
    return observations_.back().id;
}

void
Auditor::noteRead(std::uint64_t obs, std::uint64_t record,
                  std::uint64_t version)
{
    if (TxnObservation *o = find(obs))
        o->reads.push_back(ReadObs{record, version});
}

void
Auditor::noteWrite(std::uint64_t obs, std::uint64_t record,
                   std::uint64_t version)
{
    if (TxnObservation *o = find(obs))
        o->writes.push_back(WriteObs{record, version});
}

void
Auditor::noteCommit(std::uint64_t obs)
{
    if (TxnObservation *o = find(obs)) {
        always_assert(!o->aborted, "audit: commit after abort");
        o->committed = true;
    }
}

void
Auditor::noteAbort(std::uint64_t obs)
{
    if (TxnObservation *o = find(obs)) {
        always_assert(!o->committed, "audit: abort after commit");
        o->aborted = true;
    }
}

void
Auditor::noteFilterProbe(bool may_contain, bool truth, const char *site)
{
    report_.filterProbesChecked += 1;
    if (truth && !may_contain) {
        violation(ViolationKind::BloomFalseNegative,
                  std::string("filter at ") + site +
                      " missed an address it provably contains");
    }
}

void
Auditor::checkFilterCovers(const bloom::AddressFilter &bf,
                           const std::unordered_set<Addr> &exact,
                           const char *site)
{
    // hades-analyze: unordered-iter-ok (order-insensitive sweep)
    for (Addr line : exact) {
        report_.filterProbesChecked += 1;
        if (!bf.mayContain(line)) {
            violation(ViolationKind::BloomFalseNegative,
                      std::string("filter at ") + site + ": " +
                          fmt("line %llx inserted but mayContain is "
                              "false",
                              line, 0, 0));
        }
    }
}

void
Auditor::checkFilterCovers(const bloom::AddressFilter &bf,
                           const std::set<Addr> &exact,
                           const char *site)
{
    for (Addr line : exact) {
        report_.filterProbesChecked += 1;
        if (!bf.mayContain(line)) {
            violation(ViolationKind::BloomFalseNegative,
                      std::string("filter at ") + site + ": " +
                          fmt("line %llx inserted but mayContain is "
                              "false",
                              line, 0, 0));
        }
    }
}

void
Auditor::noteFindTags(std::uint64_t engine_id,
                      const std::vector<Addr> &found,
                      const std::unordered_set<Addr> &exact,
                      const bloom::SplitWriteBloomFilter *split)
{
    report_.findTagsChecked += 1;
    for (Addr line : found) {
        if (!exact.count(line)) {
            violation(ViolationKind::FindTagsMismatch,
                      fmt("txn %llx: Find-LLC-Tags returned line %llx "
                          "the txn never wrote",
                          engine_id, line, 0));
        }
        if (split) {
            if (!split->mayContain(line)) {
                violation(ViolationKind::BloomFalseNegative,
                          fmt("txn %llx: split write BF misses "
                              "written line %llx",
                              engine_id, line, 0));
            }
            std::uint64_t set = split->llcSetOf(line);
            if (!split->bf2BitSet(split->bf2BitOf(set))) {
                violation(ViolationKind::FindTagsMismatch,
                          fmt("txn %llx: WrBF2 enable bit clear for "
                              "LLC set %llu of written line %llx",
                              engine_id, set, line));
            }
        }
    }
    if (found.size() != exact.size()) {
        // Tagged lines were lost (e.g. stale tags invalidated, or an
        // eviction raced the commit without squashing the owner).
        violation(ViolationKind::FindTagsMismatch,
                  fmt("txn %llx: Find-LLC-Tags returned %llu line(s), "
                      "but the txn wrote %llu",
                      engine_id, found.size(), exact.size()));
    }
}

void
Auditor::noteLockAcquire(std::uint64_t owner)
{
    report_.lockAcquiresChecked += 1;
    const std::uint64_t ctx = owner & ~(kEpochMask << kEpochShift);
    const std::uint64_t epoch = (owner >> kEpochShift) & kEpochMask;
    auto [it, fresh] = lockEpochs_.emplace(ctx, epoch);
    if (fresh)
        return;
    // The 14-bit epoch field wraps; treat a huge backwards jump as a
    // wrap rather than a regression.
    if (epoch < it->second && it->second - epoch < kEpochMask / 2) {
        violation(ViolationKind::LockEpochRegression,
                  fmt("context %llx acquired a lock with epoch %llu "
                      "after epoch %llu",
                      ctx, epoch, it->second));
    }
    it->second = epoch;
}

void
Auditor::noteDrained(const char *structure, NodeId node,
                     std::uint64_t leftover)
{
    if (leftover != 0) {
        violation(ViolationKind::StateLeak,
                  std::string(structure) + ": " +
                      fmt("%llu stale entr(ies) at node %llu", leftover,
                          node, 0));
    }
}

AuditReport
Auditor::finalize()
{
    always_assert(!finalized_, "audit: finalize called twice");
    finalized_ = true;
    auditHistory(observations_, report_);
    return report_;
}

} // namespace hades::audit
