/**
 * @file
 * Golden-run determinism regression (PR 3 tentpole contract).
 *
 * Every simulation must be a pure function of its RunSpec: re-running
 * the same spec serially, through runMany() with one worker, or through
 * runMany() with eight workers must reproduce every RunResult field
 * bit-for-bit. The matrix spans the three engines, two workloads, fault
 * injection on/off, and the correctness auditor on/off, so a
 * determinism regression in any of those layers trips this test.
 *
 * Golden.MatchesPinnedHashes additionally pins each spec's result hash
 * to a literal constant, so a refactor that silently changes modelled
 * results fails even though it is still self-consistent.
 *
 * Telemetry.EveryCounterReachesEverySink checks the counter table
 * (core/counters.hh) end to end: every row reaches the JSON, the CLI
 * summary and (Meta rows excepted) the result hash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "core/result_hash.hh"
#include "core/result_json.hh"
#include "core/runner.hh"
#include "core/sweep.hh"

namespace
{

using namespace hades;
using hades::core::hashResult;

/** The golden matrix: engines x workloads x faults x audit, sized to
 *  finish in seconds while still exercising every protocol path. */
std::vector<core::RunSpec>
goldenSpecs()
{
    const protocol::EngineKind engines[] = {
        protocol::EngineKind::Baseline,
        protocol::EngineKind::HadesHybrid,
        protocol::EngineKind::Hades,
    };
    const core::MixEntry workloads[] = {
        {workload::AppKind::YcsbA, kvs::StoreKind::HashTable},
        {workload::AppKind::Tpcc, kvs::StoreKind::HashTable},
    };

    std::vector<core::RunSpec> specs;
    for (auto engine : engines) {
        for (const auto &entry : workloads) {
            for (bool faults : {false, true}) {
                for (bool audit : {false, true}) {
                    core::RunSpec spec;
                    spec.engine = engine;
                    spec.mix = {entry};
                    spec.cluster.numNodes = 3;
                    spec.cluster.coresPerNode = 2;
                    spec.cluster.slotsPerCore = 2;
                    spec.txnsPerContext = 10;
                    spec.scaleKeys = 4000;
                    spec.audit = audit;
                    if (faults) {
                        spec.cluster.faults.enabled = true;
                        spec.cluster.faults.dropAll(0.02);
                        spec.cluster.faults.dupAll(0.01);
                        spec.cluster.faults.delayAll(0.02);
                    }
                    specs.push_back(spec);
                }
            }
        }
    }
    return specs;
}

/** The golden matrix plus rows for the paths the engines share: a
 *  permanent crash with replication and recovery on (HADES remote path
 *  and teardown under a view change), and an early lock-mode fallback
 *  (the shared retry loop and fallback token) for every engine. */
std::vector<core::RunSpec>
pinnedSpecs()
{
    auto specs = goldenSpecs();
    for (auto engine : {protocol::EngineKind::Hades,
                        protocol::EngineKind::HadesHybrid}) {
        core::RunSpec spec;
        spec.engine = engine;
        spec.mix = {{workload::AppKind::Smallbank,
                     kvs::StoreKind::HashTable}};
        spec.cluster.numNodes = 5;
        spec.cluster.coresPerNode = 2;
        spec.cluster.slotsPerCore = 2;
        spec.cluster.tuning.retryTimeoutBase = us(4);
        spec.cluster.tuning.retryTimeoutCap = us(32);
        spec.cluster.tuning.maxCommitResends = 6;
        spec.txnsPerContext = 8;
        spec.scaleKeys = 4000;
        spec.replication.degree = 2;
        spec.cluster.faults.enabled = true;
        FaultConfig::NodeEvent ev;
        ev.node = 2;
        ev.at = us(30);
        ev.crash = true;
        ev.forever = true;
        spec.cluster.faults.nodeEvents.push_back(ev);
        spec.cluster.recovery.enabled = true;
        specs.push_back(spec);
    }
    for (auto engine : {protocol::EngineKind::Baseline,
                        protocol::EngineKind::HadesHybrid,
                        protocol::EngineKind::Hades}) {
        core::RunSpec spec;
        spec.engine = engine;
        spec.mix = {{workload::AppKind::YcsbA,
                     kvs::StoreKind::HashTable}};
        spec.cluster.numNodes = 3;
        spec.cluster.coresPerNode = 2;
        spec.cluster.slotsPerCore = 2;
        spec.cluster.tuning.maxSquashesBeforeLockMode = 2;
        spec.txnsPerContext = 10;
        spec.scaleKeys = 4000;
        specs.push_back(spec);
    }
    return specs;
}

/** One line naming a pinned spec in a failure report. */
std::string
describe(const core::RunSpec &spec)
{
    return std::string(protocol::engineKindName(spec.engine)) +
           " app=" + std::to_string(int(spec.mix[0].app)) +
           " faults=" + std::to_string(spec.cluster.faults.enabled) +
           " audit=" + std::to_string(spec.audit) +
           " crash=" +
           std::to_string(!spec.cluster.faults.nodeEvents.empty()) +
           " lockModeAfter=" +
           std::to_string(spec.cluster.tuning.maxSquashesBeforeLockMode);
}

/**
 * hashResult() of each pinnedSpecs() row, in order. A change that keeps
 * modelled results must leave every value unchanged; a change that
 * alters them on purpose re-pins them and says which moved and why.
 * The values assume IEEE-754 doubles compiled without -ffast-math and
 * without FMA contraction (the default GCC/Clang x86-64 flags); a
 * toolchain that fuses or reorders floating-point operations
 * legitimately produces other hashes.
 */
constexpr std::uint64_t kPinnedHashes[] = {
    0x3e160af52e8c2ef8ULL, 0x8d115a810781a586ULL,
    0x97322f90f1d2cb29ULL, 0xbb0f9af10af75fa0ULL,
    0xde0d9852f87d231bULL, 0xb47982e0397060c1ULL,
    0xe0c538ee6b2825b8ULL, 0xfa01361e35b3f82eULL,
    0x5a803f3ee10094afULL, 0xdd79e2e036392318ULL,
    0x5e07bad237cbdbceULL, 0xcf1735ea252877ebULL,
    0x21ef35418ffb5713ULL, 0xeda4ee2c78e3609cULL,
    0xee43207b6258b474ULL, 0x15ce0f93ace91a4bULL,
    0x72715db7d433ba35ULL, 0x7ed921f3f0f80671ULL,
    0x8e7af84c8ed53102ULL, 0xd705c58e648cefa4ULL,
    0x16e75807805db8d5ULL, 0xbb8658e8506ae85aULL,
    0x3aacdebd03b991f3ULL, 0xc7198d27614b6920ULL,
    // Permanent crash, replication degree 2, recovery on.
    0xdda526e2a3f50ce7ULL, 0x1efca6a3a168119aULL,
    // maxSquashesBeforeLockMode = 2.
    0x47c9c8853e8079b8ULL, 0x47c897f71b3dcd2cULL,
    0xd9c6e445019e1f5dULL,
};

TEST(Golden, MatchesPinnedHashes)
{
    const auto specs = pinnedSpecs();
    ASSERT_EQ(specs.size(), std::size(kPinnedHashes));
    std::string mismatches;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto got = hashResult(core::runOne(specs[i]));
        if (got == kPinnedHashes[i])
            continue;
        char line[96];
        std::snprintf(line, sizeof line, "got 0x%016llx, pinned 0x%016llx",
                      static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(kPinnedHashes[i]));
        mismatches += "  spec " + std::to_string(i) + " (" +
                      describe(specs[i]) + "): " + line + "\n";
    }
    EXPECT_TRUE(mismatches.empty())
        << "result hashes differ from the pinned goldens:\n"
        << mismatches;
}

TEST(Golden, SerialRerunIsBitIdentical)
{
    for (const auto &spec : goldenSpecs()) {
        const auto first = hashResult(core::runOne(spec));
        const auto second = hashResult(core::runOne(spec));
        EXPECT_EQ(first, second)
            << "engine=" << int(spec.engine)
            << " app=" << int(spec.mix[0].app)
            << " faults=" << spec.cluster.faults.enabled
            << " audit=" << spec.audit;
    }
}

TEST(Golden, RunManyMatchesSerialAtAnyJobCount)
{
    const auto specs = goldenSpecs();

    std::vector<std::uint64_t> serial;
    serial.reserve(specs.size());
    for (const auto &spec : specs)
        serial.push_back(hashResult(core::runOne(spec)));

    for (unsigned jobs : {1u, 8u}) {
        core::SweepOptions opts;
        opts.jobs = jobs;
        const auto outcomes = core::runMany(specs, opts);
        ASSERT_EQ(outcomes.size(), specs.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok)
                << "jobs=" << jobs << " i=" << i << ": "
                << outcomes[i].error;
            EXPECT_EQ(outcomes[i].index, i);
            EXPECT_EQ(hashResult(outcomes[i].result), serial[i])
                << "jobs=" << jobs << " spec " << i
                << " diverged from the serial run";
        }
    }
}

TEST(Telemetry, EveryCounterReachesEverySink)
{
    const core::RunResult empty;
    const std::uint64_t empty_hash = hashResult(empty);
    std::size_t rows = 0;
    core::forEachCounter(
        empty, [&](const core::CounterInfo &, auto) { ++rows; },
        [](core::CounterSlot) {});
    ASSERT_GT(rows, 60u);

    for (std::size_t target = 0; target < rows; ++target) {
        // Put a distinct sentinel in row `target` of a default result.
        core::RunResult r;
        core::CounterInfo info{};
        std::string text;
        std::size_t i = 0;
        core::forEachCounter(
            r,
            [&](const core::CounterInfo &c, auto &v) {
                if (i++ != target)
                    return;
                using T = std::remove_reference_t<decltype(v)>;
                if constexpr (std::is_same_v<T, bool>) {
                    v = true;
                    text = "true";
                } else {
                    v = T(1000 + 7 * target);
                    text = std::to_string(v);
                }
                info = c;
            },
            [](core::CounterSlot) {});
        SCOPED_TRACE(info.key);

        const std::string json = core::runResultJson(r);
        const std::size_t stats_at = json.find("\"stats\":{");
        ASSERT_NE(stats_at, std::string::npos);
        const std::size_t at =
            json.find("\"" + std::string(info.key) + "\":" + text,
                      info.inStats() ? stats_at : 0);
        EXPECT_TRUE(at != std::string::npos &&
                    (info.inStats() || at < stats_at))
            << json;

        const std::string summary = core::counterSummary(r);
        EXPECT_NE(summary.find(std::string(info.key) + "=" + text),
                  std::string::npos)
            << summary;

        if (info.hashed())
            EXPECT_NE(hashResult(r), empty_hash);
        else
            EXPECT_EQ(hashResult(r), empty_hash);
    }
}

} // namespace
