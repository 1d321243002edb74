#include "iter.hh"

namespace fx::protocol
{

std::uint64_t
Scan::run() const
{
    std::uint64_t sum = 0;
    for (const auto &kv : tbl_.byKey) // EXPECT: unordered-iter
        sum += kv.second;
    return sum;
}

std::uint64_t
Scan::runOrdered() const
{
    std::uint64_t sum = 0;
    for (const auto &kv : tbl_.ordered)
        sum += kv.second;
    return sum;
}

std::uint64_t
Scan::runWaived() const
{
    std::uint64_t sum = 0;
    // hades-analyze: unordered-iter-ok (fixture: order-insensitive sum)
    for (const auto &kv : tbl_.byKey)
        sum += kv.second;
    return sum;
}

} // namespace fx::protocol
