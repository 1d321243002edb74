#include "mem/llc_directory.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::mem
{

LlcDirectory::LlcDirectory(std::uint64_t size_bytes, std::uint32_t ways)
    : sets_(size_bytes / (std::uint64_t{kCacheLineBytes} * ways)),
      ways_(ways)
{
    always_assert(sets_ >= 1, "LLC has no sets");
    array_.resize(sets_ * ways_);
}

LlcDirectory::Way *
LlcDirectory::find(Addr line)
{
    Way *base = &array_[setOf(line) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (base[w].valid && base[w].line == line)
            return &base[w];
    return nullptr;
}

const LlcDirectory::Way *
LlcDirectory::find(Addr line) const
{
    return const_cast<LlcDirectory *>(this)->find(line);
}

bool
LlcDirectory::probe(Addr line)
{
    if (Way *w = find(line)) {
        w->lru = ++stamp_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

void
LlcDirectory::evict(Way &victim)
{
    if (victim.wrTxId != 0) {
        // Evicting a speculatively-written line squashes its transaction
        // (Section V-A, "Transaction Squash").
        ++specEvictions_;
        std::uint64_t owner = victim.wrTxId;
        auto it = writers_.find(owner);
        if (it != writers_.end()) {
            it->second.erase(victim.line);
            if (it->second.empty())
                writers_.erase(it);
        }
        victim.wrTxId = 0;
        victim.valid = false;
        if (squashHook_)
            squashHook_(owner);
        return;
    }
    victim.valid = false;
}

void
LlcDirectory::insert(Addr line)
{
    if (Way *w = find(line)) {
        w->lru = ++stamp_;
        return;
    }
    Way *base = &array_[setOf(line) * ways_];
    // Pass 1: a free way.
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!base[w].valid) {
            base[w] = Way{true, line, ++stamp_, 0};
            return;
        }
    }
    // Pass 2: LRU among non-speculative lines (TX-aware replacement).
    Way *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (base[w].wrTxId == 0 &&
            (!victim || base[w].lru < victim->lru)) {
            victim = &base[w];
        }
    }
    // Pass 3: every way is speculative; evict the LRU one (squash).
    if (!victim) {
        victim = &base[0];
        for (std::uint32_t w = 1; w < ways_; ++w)
            if (base[w].lru < victim->lru)
                victim = &base[w];
    }
    evict(*victim);
    *victim = Way{true, line, ++stamp_, 0};
}

std::uint64_t
LlcDirectory::wrTxIdOf(Addr line) const
{
    const Way *w = find(line);
    return w ? w->wrTxId : 0;
}

void
LlcDirectory::setWrTxId(Addr line, std::uint64_t tx_id)
{
    always_assert(tx_id != 0, "WrTX ID 0 is reserved for 'untagged'");
    insert(line);
    Way *w = find(line);
    // If the insert itself squashed tx_id (pathological single-set
    // thrash), the caller will observe its own squash flag; still tag.
    if (w->wrTxId != 0 && w->wrTxId != tx_id) {
        // Overwriting another transaction's speculative line must have
        // been cleared by conflict detection first; treat as model bug.
        panic("setWrTxId over a line tagged by another transaction");
    }
    if (w->wrTxId == 0)
        writers_[tx_id].insert(line);
    w->wrTxId = tx_id;
}

std::vector<Addr>
LlcDirectory::linesWrittenBy(std::uint64_t tx_id) const
{
    std::vector<Addr> out;
    auto it = writers_.find(tx_id);
    if (it == writers_.end())
        return out;
    // The exact index is a hash set; sort so the enumeration order the
    // protocol engines act on is platform-independent.
    out.assign(it->second.begin(), it->second.end()); // sorted below
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
LlcDirectory::numLinesWrittenBy(std::uint64_t tx_id) const
{
    auto it = writers_.find(tx_id);
    return it == writers_.end() ? 0 : it->second.size();
}

void
LlcDirectory::clearTxTags(std::uint64_t tx_id, bool invalidate)
{
    auto it = writers_.find(tx_id);
    if (it == writers_.end())
        return;
    // Per-line untag/invalidate is order-insensitive (no LRU stamps).
    // hades-analyze: unordered-iter-ok (order-insensitive untag)
    for (Addr line : it->second) {
        if (Way *w = find(line)) {
            w->wrTxId = 0;
            if (invalidate)
                w->valid = false;
        }
    }
    writers_.erase(it);
}

} // namespace hades::mem
