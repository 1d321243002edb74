// Telemetry (A4) fixture: result-struct members that are and are not
// counter-table rows. The hand-declared row members stand in for what
// the clang frontend sees after macro expansion.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "counters.hh"

namespace fx::core
{

struct EngineStats
{
    FX_COUNTERS(FX_DECLARE_STATS)
    std::uint64_t droppedStat = 0;         // EXPECT: telemetry -- no row
    std::uint64_t committed = 0;           // table row: clean
    std::array<std::uint64_t, 4> squashes{}; // named aggregate: clean
};

struct RunResult
{
    EngineStats stats;          // named aggregate: clean
    std::uint64_t good = 0;     // table row: clean
    double rate = 0;            // derived double: clean
    std::uint64_t lost = 0;     // EXPECT: telemetry -- no row
    std::vector<int> samples;   // EXPECT: telemetry -- unnamed aggregate
    std::uint64_t waived = 0; // hades-analyze: telemetry-ok (fixture: intentionally unreported)
};

} // namespace fx::core
