// Telemetry (A4) fixture: result-struct members that are and are not
// counter-table rows. In the real tree row members come from the
// table's macro expansion, which the parser skips; the hand-declared
// row members here show that a member named by a ROW line passes.
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
