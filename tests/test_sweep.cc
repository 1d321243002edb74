/**
 * @file
 * Tests for the parallel sweep runner (core::runMany).
 *
 *  - validateSpec() rejects each malformed field.
 *  - A bad spec in the middle of a batch fails in place without
 *    disturbing its neighbours.
 *  - Results are ordered by spec index and identical for any job
 *    count (this file is also the TSan lane's data-race probe).
 *  - On machines with enough hardware threads, a 16-spec sweep on 8
 *    workers must be substantially faster than one worker.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/sweep.hh"

namespace
{

using namespace hades;

core::RunSpec
tinySpec(std::uint64_t seed)
{
    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.mix = {core::MixEntry{workload::AppKind::YcsbA,
                               kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 3;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = seed;
    spec.txnsPerContext = 8;
    spec.scaleKeys = 4000;
    return spec;
}

TEST(Sweep, ValidateSpecRejectsMalformedSpecs)
{
    EXPECT_TRUE(core::validateSpec(tinySpec(1)).empty());

    auto no_mix = tinySpec(1);
    no_mix.mix.clear();
    EXPECT_FALSE(core::validateSpec(no_mix).empty());

    auto one_node = tinySpec(1);
    one_node.cluster.numNodes = 1;
    EXPECT_FALSE(core::validateSpec(one_node).empty());

    auto no_cores = tinySpec(1);
    no_cores.cluster.coresPerNode = 0;
    EXPECT_FALSE(core::validateSpec(no_cores).empty());

    auto no_slots = tinySpec(1);
    no_slots.cluster.slotsPerCore = 0;
    EXPECT_FALSE(core::validateSpec(no_slots).empty());

    auto over_replicated = tinySpec(1);
    over_replicated.replication.degree = 3; // == numNodes
    EXPECT_FALSE(core::validateSpec(over_replicated).empty());
}

TEST(Sweep, BadSpecFailsInPlaceWithoutDisturbingNeighbours)
{
    std::vector<core::RunSpec> specs{tinySpec(1), tinySpec(2),
                                     tinySpec(3)};
    specs[1].mix.clear();

    const auto serial0 = core::runOne(specs[0]);
    const auto serial2 = core::runOne(specs[2]);

    core::SweepOptions opts;
    opts.jobs = 2;
    const auto out = core::runMany(specs, opts);
    ASSERT_EQ(out.size(), 3u);

    EXPECT_TRUE(out[0].ok);
    EXPECT_FALSE(out[1].ok);
    EXPECT_FALSE(out[1].error.empty());
    EXPECT_TRUE(out[2].ok);

    EXPECT_EQ(out[0].result.stats.committed, serial0.stats.committed);
    EXPECT_EQ(out[0].result.simTime, serial0.simTime);
    EXPECT_EQ(out[2].result.stats.committed, serial2.stats.committed);
    EXPECT_EQ(out[2].result.simTime, serial2.simTime);
}

TEST(Sweep, ResultsAreOrderedAndJobCountInvariant)
{
    std::vector<core::RunSpec> specs;
    for (std::uint64_t s = 0; s < 16; ++s)
        specs.push_back(tinySpec(s));

    core::SweepOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = core::runMany(specs, serial_opts);

    core::SweepOptions parallel_opts;
    parallel_opts.jobs = 8;
    const auto parallel = core::runMany(specs, parallel_opts);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(serial[i].index, i);
        EXPECT_EQ(parallel[i].index, i);
        EXPECT_EQ(parallel[i].result.stats.committed,
                  serial[i].result.stats.committed);
        EXPECT_EQ(parallel[i].result.simTime, serial[i].result.simTime);
        EXPECT_EQ(parallel[i].result.stats.netMessages,
                  serial[i].result.stats.netMessages);
        EXPECT_EQ(parallel[i].result.throughputTps,
                  serial[i].result.throughputTps);
    }
}

TEST(Sweep, ShardDimensionIsResultInvariantAcrossTheMatrix)
{
    // The sweep matrix gained an executor dimension (RunSpec::shards):
    // the same model spec at shards {1, 2, 4} must produce one result,
    // regardless of how many sweep workers carry the runs. Kernel
    // worker threads (inside a run) compose with sweep worker threads
    // (across runs) here, which also makes this the TSan lane's probe
    // for the combination. Auditing would keep the runs off worker
    // threads, so it stays off whatever the build's default.
    std::vector<core::RunSpec> specs;
    for (std::uint64_t s = 0; s < 4; ++s)
        for (std::uint32_t shards : {1u, 2u, 4u}) {
            auto spec = tinySpec(s);
            spec.audit = false;
            spec.shards = shards;
            specs.push_back(spec);
        }

    core::SweepOptions opts;
    opts.jobs = 4;
    const auto out = core::runMany(specs, opts);
    ASSERT_EQ(out.size(), specs.size());
    for (std::size_t base = 0; base < out.size(); base += 3) {
        ASSERT_TRUE(out[base].ok) << out[base].error;
        EXPECT_EQ(out[base].result.shardsUsed, 1u);
        for (std::size_t j = 1; j < 3; ++j) {
            const auto &ref = out[base].result;
            ASSERT_TRUE(out[base + j].ok) << out[base + j].error;
            const auto &res = out[base + j].result;
            EXPECT_EQ(res.simTime, ref.simTime);
            EXPECT_EQ(res.stats.committed, ref.stats.committed);
            EXPECT_EQ(res.stats.netMessages, ref.stats.netMessages);
            EXPECT_EQ(res.throughputTps, ref.throughputTps);
            EXPECT_EQ(res.shardsUsed,
                      std::min(specs[base + j].shards, 3u));
        }
    }
}

TEST(Sweep, JobsZeroMeansAllHardwareThreads)
{
    std::vector<core::RunSpec> specs{tinySpec(7), tinySpec(8)};
    core::SweepOptions opts;
    opts.jobs = 0;
    const auto out = core::runMany(specs, opts);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].ok);
    EXPECT_TRUE(out[1].ok);
}

#if defined(__SANITIZER_ACTIVE__) || defined(__SANITIZE_ADDRESS__) ||  \
    defined(__SANITIZE_THREAD__)
#define HADES_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HADES_UNDER_SANITIZER 1
#endif
#endif
#ifndef HADES_UNDER_SANITIZER
#define HADES_UNDER_SANITIZER 0
#endif

// Timing assertions belong in tests, not src/: the determinism lint
// bans wall-clock use only inside the simulator itself.
TEST(Sweep, ParallelSweepIsFasterWhenCoresExist)
{
    if (std::thread::hardware_concurrency() < 8 || HADES_UNDER_SANITIZER)
        GTEST_SKIP() << "needs >= 8 hardware threads and no sanitizer "
                        "for a meaningful timing comparison";

    std::vector<core::RunSpec> specs;
    for (std::uint64_t s = 0; s < 16; ++s) {
        auto spec = tinySpec(100 + s);
        spec.txnsPerContext = 60; // long enough to dwarf thread setup
        spec.scaleKeys = 20'000;
        specs.push_back(spec);
    }

    using Clock = std::chrono::steady_clock;
    core::SweepOptions one;
    one.jobs = 1;
    const auto t0 = Clock::now();
    (void)core::runMany(specs, one);
    const auto serial_s = std::chrono::duration<double>(Clock::now() - t0)
                              .count();

    core::SweepOptions eight;
    eight.jobs = 8;
    const auto t1 = Clock::now();
    (void)core::runMany(specs, eight);
    const auto parallel_s =
        std::chrono::duration<double>(Clock::now() - t1).count();

    // The acceptance target is >= 3x on an unloaded 8-core machine;
    // assert a loose 2x so CI noise cannot flake the suite.
    EXPECT_GE(serial_s / parallel_s, 2.0)
        << "serial " << serial_s << "s vs parallel " << parallel_s
        << "s";
}

} // namespace
