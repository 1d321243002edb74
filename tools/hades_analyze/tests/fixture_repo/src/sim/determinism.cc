// Determinism-spelling fixtures (rng, wall-clock, thread-identity,
// float-control): a violating, a clean and a suppressed case each.
// Comments and strings never match: std::random_device, time(nullptr).
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

namespace fx::sim
{

int
randomness()
{
    std::random_device dev; // EXPECT: rng
    // hades-analyze: rng-ok (fixture: seeds a test-only generator)
    std::mt19937 waived(1);
    const char *log = "std::mt19937 in a string is fine";
    return int(dev()) + int(waived()) + log[0] + std::rand(); // EXPECT: rng
}

long
clocks()
{
    auto now = std::chrono::steady_clock::now(); // EXPECT: wall-clock
    long t = time(nullptr);                      // EXPECT: wall-clock
    long sim = runtime(0); // a call merely ending in "time": clean
    // hades-analyze: wall-clock-ok (fixture: progress log only)
    auto log = std::chrono::system_clock::now();
    return t + sim + now.time_since_epoch().count() +
           log.time_since_epoch().count();
}

bool
threads(std::thread::id owner) // EXPECT: thread-identity
{
    // hades-analyze: thread-identity-ok (fixture: debug assertion)
    return owner == std::this_thread::get_id();
}

struct Control
{
    double ewmaRtt = 0;          // EXPECT: float-control
    std::uint64_t sloQ8Rtt = 0;  // fixed point: clean
    double meanLatencyUs = 0;    // report metric: clean
    // hades-analyze: float-control-ok (fixture: exported report value)
    double healthScore = 0;

    void
    observe(std::uint64_t rtt)
    {
        retryBudgetLeft += 0.5; // EXPECT: float-control
        sloQ8Rtt += rtt;
    }

    double retryBudgetLeft = 0; // EXPECT: float-control
};

} // namespace fx::sim
