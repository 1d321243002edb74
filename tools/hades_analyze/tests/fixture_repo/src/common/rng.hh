// Determinism (rng) fixture: the file that owns the randomness
// primitive may spell it.
#pragma once

#include <random>

namespace fx
{

struct Rng
{
    std::mt19937_64 engine;
};

} // namespace fx
