// Telemetry (A4) fixture counter table: the rows the result structs
// may hold besides named aggregates and derived doubles.
#pragma once

#define FX_COUNTERS(ROW)                                                      \
    ROW(Stats, std::uint64_t, committed, "committed")                         \
    ROW(Result, std::uint64_t, good, "good")
