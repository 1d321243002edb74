/**
 * @file
 * Machine-speed reference: a fixed piece of work that shares no code
 * with the simulator, timed next to every timed run so that host-time
 * figures can be stated at a nominal machine speed. On a shared host
 * the speed of a core drifts by tens of percent over minutes; the
 * reference drifts with it, the simulator's code does not change it.
 */

#ifndef HOSTBENCH_CALIBRATE_HH_
#define HOSTBENCH_CALIBRATE_HH_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <vector>

namespace hostbench
{

class SpeedReference
{
  public:
    /** Seconds the reference took on the machine the bounds were set
     *  on (4-vCPU KVM guest, Xeon at 2.1 GHz), at its usual speed. */
    static constexpr double kNominalSeconds = 0.28;

    SpeedReference() : next_(kChase), keys_(kMapEntries)
    {
        // One random cycle through kChase slots (Sattolo's algorithm).
        std::iota(next_.begin(), next_.end(), 0u);
        std::uint64_t x = 0x5eed;
        for (std::uint32_t i = kChase - 1; i > 0; --i)
            std::swap(next_[i], next_[mix(x) % i]);
        for (std::uint64_t k = 0; k < kMapEntries; ++k) {
            keys_[k] = mix(x);
            map_[keys_[k]] = k;
        }
    }

    /** Time one pass of the reference work. */
    double
    seconds()
    {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0xbe7c4;
        std::uint64_t sink = 0;

        // Binary-heap traffic, like the event queue's.
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            heap;
        for (std::uint32_t i = 0; i < kHeapOps; ++i) {
            heap.push(mix(x) >> 20);
            if (heap.size() > 2048) {
                sink += heap.top();
                heap.pop();
            }
        }
        // Hash-map probes, like the version and tag tables'.
        for (std::uint32_t i = 0; i < kMapOps; ++i) {
            auto it = map_.find(keys_[mix(x) & (kMapEntries - 1)]);
            sink += it == map_.end() ? 1 : it->second;
        }
        // Dependent loads over a working set larger than a core's caches.
        std::uint32_t p = 0;
        for (std::uint32_t i = 0; i < kChaseOps; ++i)
            p = next_[p];
        sink += p;

        asm volatile("" : : "g"(&sink) : "memory");
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    static constexpr std::uint32_t kChase = 1u << 22;     // 16 MB
    static constexpr std::uint64_t kMapEntries = 1u << 18;
    static constexpr std::uint32_t kHeapOps = 1u << 20;
    static constexpr std::uint32_t kMapOps = 1u << 20;
    static constexpr std::uint32_t kChaseOps = 1u << 20;

    static std::uint64_t
    mix(std::uint64_t &x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> keys_;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
};

} // namespace hostbench

#endif // HOSTBENCH_CALIBRATE_HH_
