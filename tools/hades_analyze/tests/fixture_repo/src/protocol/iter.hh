// R3X/R4X fixtures: the unordered container and the pointer-keyed
// maps are declared HERE while the loops live in iter.cc -- the
// cross-file resolution a line-based regex cannot do.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

namespace fx::protocol
{

struct Widget;

struct WidgetLess
{
    bool operator()(const Widget *a, const Widget *b) const;
};

struct Table
{
    std::unordered_map<std::uint64_t, std::uint64_t> byKey;
    std::map<std::uint64_t, std::uint64_t> ordered;
};

class Scan
{
  public:
    std::uint64_t run() const;          // expect: unordered-iter
    std::uint64_t runOrdered() const;   // ordered map: clean
    std::uint64_t runWaived() const;    // hades-analyze marker: clean

  private:
    Table tbl_;
    std::map<Widget *, int> byPtr;                // EXPECT: pointer-order
    std::map<Widget *, int, WidgetLess> byPtrCmp; // comparator: clean
    std::set<const Widget *> ptrs; // hades-analyze: pointer-order-ok (fixture: suppressed pointer key)
};

} // namespace fx::protocol
