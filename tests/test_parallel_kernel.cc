/**
 * @file
 * Differential and property tests for the threaded parallel DES
 * kernel.
 *
 * The contract under test: RunSpec::shards selects an *executor*, not
 * a model. A spec the runner certifies for worker threads (fault-free,
 * unaudited messaging workloads: per-lane NIC port state,
 * window-delayed cross-lane delivery) must reproduce the serial
 * oracle's RunResult bit-for-bit at any shard count; every other spec
 * runs on the serial kernel itself. The first half of this file checks
 * the window scheduler's own invariants on synthetic event graphs; the
 * second half runs the differential matrices through the full
 * simulator and compares FNV digests of the complete result
 * (src/core/result_hash.hh).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/result_hash.hh"
#include "core/runner.hh"
#include "net/network.hh"
#include "sim/kernel.hh"

namespace
{

using namespace hades;
using hades::core::hashResult;

// ===========================================================================
// Window-scheduler property tests (synthetic kernels, no model)
// ===========================================================================

void
configureSharded(sim::Kernel &k, std::uint32_t shards,
                 std::uint32_t nodes, Tick window)
{
    sim::ShardPlan plan;
    plan.shards = shards;
    plan.numNodes = nodes;
    plan.windowTicks = window;
    k.configureSharding(plan);
}

TEST(ShardProperty, LaneAssignmentIsAPureFunctionOfNodeId)
{
    // Shard placement must not depend on anything but (node, shards):
    // no hashing of pointers, no registration order, no thread ids.
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (NodeId n = 0; n < 200; ++n) {
            const auto lane = sim::Kernel::laneOf(n, shards);
            EXPECT_EQ(lane, n % shards);
            EXPECT_EQ(lane, sim::Kernel::laneOf(n, shards))
                << "laneOf must be referentially transparent";
            EXPECT_LT(lane, shards);
        }
        // The control rank (timers, drivers, harness events) always
        // lives on lane 0 so every executor agrees where it runs.
        EXPECT_EQ(sim::Kernel::laneOf(sim::kControlNode, shards), 0u);
    }
}

TEST(ShardProperty, BarrierCountMatchesHorizonOverWindow)
{
    // Conservative no-skip advancement: the threaded executor crosses
    // every window boundary between 0 and the last event time exactly
    // once, so windowBarriers() == floor(lastWhen / window)
    // (equivalently, the final window end is the least multiple of the
    // window strictly above the horizon). Every hop changes lanes, so
    // the step must be at least the window (the lookahead).
    for (Tick window : {Tick(64), Tick(100), Tick(1000)}) {
        for (Tick step : {window, window + 37, 5 * window / 2}) {
            sim::Kernel k;
            configureSharded(k, 2, 2, window);
            constexpr int kHops = 25;
            int hops = 0;
            std::function<void()> ping = [&] {
                if (++hops >= kHops)
                    return;
                NodeId dst = NodeId(hops % 2);
                k.scheduleAs(dst, step, ping);
            };
            k.scheduleAs(0, step, ping);
            EXPECT_TRUE(k.run());
            const Tick last = Tick(kHops) * step;
            EXPECT_EQ(k.now(), last);
            EXPECT_EQ(k.windowBarriers(),
                      std::uint64_t(last / window))
                << "window=" << window << " step=" << step;
        }
    }
}

TEST(ShardProperty, ThreadedCrossShardDeliveryIsExactlyOnceAndOrdered)
{
    // A strict ping-pong across the two lanes, one hop per window, so
    // every delivery crosses a mailbox and a barrier. Exactly-once,
    // exact timestamps, alternating nodes.
    constexpr Tick kWindow = 100;
    constexpr int kHops = 12;
    sim::Kernel k;
    configureSharded(k, 2, 2, kWindow);

    std::vector<std::pair<NodeId, Tick>> trace;
    int hops = 0;
    std::function<void()> ping = [&] {
        trace.emplace_back(k.currentNode(), k.now());
        if (++hops >= kHops)
            return;
        k.scheduleAs(NodeId(hops % 2), kWindow, ping);
    };
    k.scheduleAs(0, kWindow, ping);

    EXPECT_TRUE(k.run());
    ASSERT_EQ(trace.size(), std::size_t(kHops));
    for (int i = 0; i < kHops; ++i) {
        EXPECT_EQ(trace[i].first, NodeId(i % 2));
        EXPECT_EQ(trace[i].second, Tick(i + 1) * kWindow);
    }
    EXPECT_GE(k.windowBarriers(), std::uint64_t(kHops - 1));
    EXPECT_EQ(k.crossShardEvents(), std::uint64_t(kHops - 1));
}

TEST(ShardProperty, ThreadedAllToAllMailboxesDeliverExactlyOnceInOrder)
{
    // Every node floods every other node with sequenced messages, one
    // batch per window, under the std::barrier executor: all 56
    // (src,dst) mailboxes are live at every barrier. Each message must
    // arrive exactly once, on the destination's lane, in global time
    // order per lane, and in FIFO send order per (src,dst) pair.
    constexpr Tick kWindow = 100;
    constexpr std::uint32_t kNodes = 8;
    constexpr int kRounds = 10;
    sim::Kernel k;
    configureSharded(k, 4, kNodes, kWindow);

    struct Delivery
    {
        NodeId src;
        Tick when;
        int seq;
    };
    // inbox[dst] is written only by dst's lane; sent[src][dst] is
    // bumped only by src's lane at send time. No cross-lane state.
    std::vector<std::vector<Delivery>> inbox(kNodes);
    std::array<std::array<int, kNodes>, kNodes> sent{};

    std::function<void(NodeId, int)> round = [&](NodeId src, int r) {
        EXPECT_EQ(k.currentNode(), src);
        if (r >= kRounds)
            return;
        for (NodeId dst = 0; dst < kNodes; ++dst) {
            if (dst == src)
                continue;
            const int seq = sent[src][dst]++;
            k.scheduleAs(dst, kWindow, [&, src, dst, seq] {
                inbox[dst].push_back({src, k.now(), seq});
            });
        }
        k.scheduleAs(src, kWindow,
                     [&round, src, r] { round(src, r + 1); });
    };
    for (NodeId n = 0; n < kNodes; ++n)
        k.scheduleAs(n, kWindow + n, [&round, n] { round(n, 0); });

    EXPECT_TRUE(k.run());

    std::size_t total = 0;
    for (NodeId dst = 0; dst < kNodes; ++dst) {
        total += inbox[dst].size();
        std::array<int, kNodes> nextSeq{};
        for (std::size_t i = 0; i < inbox[dst].size(); ++i) {
            const auto &d = inbox[dst][i];
            if (i > 0) {
                ASSERT_LE(inbox[dst][i - 1].when, d.when)
                    << "lane of node " << dst
                    << " ran deliveries out of time order";
            }
            ASSERT_EQ(d.seq, nextSeq[d.src]++)
                << "mailbox " << d.src << "->" << dst
                << " delivered out of send order (or dropped / "
                << "duplicated a message)";
        }
        for (NodeId src = 0; src < kNodes; ++src) {
            if (src != dst) {
                EXPECT_EQ(nextSeq[src], kRounds)
                    << "mailbox " << src << "->" << dst
                    << " lost messages";
            }
        }
    }
    EXPECT_EQ(total, std::size_t(kNodes) * (kNodes - 1) * kRounds);
    EXPECT_GT(k.crossShardEvents(), 0u);
}

TEST(ShardProperty, PerLaneNicPortStateIsIsolatedAcrossExecutors)
{
    // The same one-way messaging program through the real interconnect
    // model, serial vs threaded over 4 lanes. Each node's TX port and
    // statistics slot are lane-owned, so the per-node message/byte
    // telemetry -- and every arrival instant -- must be bit-identical
    // across executors. A lane leaking into another lane's port state
    // would skew serialization timing or the per-node counters.
    constexpr std::uint32_t kNodes = 8;
    constexpr int kMsgs = 12;
    ClusterConfig cfg;
    cfg.numNodes = kNodes;

    struct Snapshot
    {
        std::vector<std::uint64_t> msgs, bytes;
        std::vector<std::vector<Tick>> arrivals;
        Tick end = 0;
    };
    auto runOnce = [&](bool threaded) {
        sim::Kernel k;
        if (threaded)
            configureSharded(k, 4, kNodes, cfg.netRoundTrip / 2);
        net::Network net(k, cfg);
        Snapshot s;
        s.arrivals.resize(kNodes);
        for (NodeId src = 0; src < kNodes; ++src) {
            for (int i = 0; i < kMsgs; ++i) {
                // Sends must originate on the sender's lane; the
                // kick-off delay clears the first window barrier.
                k.scheduleAs(src, us(1) * (1 + i) + Tick(src) * 100,
                             [&, src, i] {
                    NodeId dst = NodeId((src + 1 + i) % kNodes);
                    if (dst == src)
                        dst = (dst + 1) % kNodes;
                    net.post(net::MsgType::Validation, src, dst,
                             32 + 16 * (i % 5), [&s, dst, &k] {
                                 s.arrivals[dst].push_back(k.now());
                             });
                });
            }
        }
        EXPECT_TRUE(k.run());
        for (NodeId n = 0; n < kNodes; ++n) {
            s.msgs.push_back(net.nodeMessages(n));
            s.bytes.push_back(net.nodeBytes(n));
        }
        s.end = k.now();
        EXPECT_EQ(net.totalMessages(), std::uint64_t(kNodes) * kMsgs);
        return s;
    };

    const auto serial = runOnce(false);
    const auto threaded = runOnce(true);
    EXPECT_EQ(serial.end, threaded.end);
    for (NodeId n = 0; n < kNodes; ++n) {
        EXPECT_GT(serial.msgs[n], 0u) << "node " << n << " never sent";
        EXPECT_EQ(serial.msgs[n], threaded.msgs[n])
            << "per-node message count diverged at node " << n;
        EXPECT_EQ(serial.bytes[n], threaded.bytes[n])
            << "per-node byte count diverged at node " << n;
        EXPECT_EQ(serial.arrivals[n], threaded.arrivals[n])
            << "arrival schedule diverged at node " << n;
    }
}

TEST(ShardPropertyDeathTest, ThreadedLookaheadViolationIsRefused)
{
    // The 2us NIC round trip is the lookahead floor: a cross-shard
    // event inside the current window would race the other lane's
    // execution, so the kernel must refuse it loudly rather than
    // silently diverge. (Only reachable through a model bug; the
    // runner certifies window <= RT/2 before enabling threads.)
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Kernel k;
            configureSharded(k, 2, 2, Tick(100));
            k.scheduleAs(0, 10, [&k] {
                // now=10, window end=100: a hop landing at 20 is
                // inside the window -> lookahead violation.
                k.scheduleAs(1, 10, [] {});
            });
            k.run();
        },
        "lookahead violated");
}

// ===========================================================================
// Threaded messaging differential: serial oracle vs worker threads
// ===========================================================================

/** Uniform-placement messaging spec: remote picks dominate, so every
 *  transaction pushes RDMA / Intend-to-commit / Ack traffic through
 *  the cross-lane mailboxes. This is the spec family PR 8 certifies
 *  for worker threads. */
core::RunSpec
messagingSpec(protocol::EngineKind engine,
              std::vector<core::MixEntry> mix)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = std::move(mix);
    spec.cluster.numNodes = 8;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.txnsPerContext = 6;
    spec.scaleKeys = 6000;
    // Keep the optimistic path live: the zipfian hot set can push one
    // straggler past the default 48-squash lock-mode threshold, whose
    // runtime serial-rerun escape hatch is covered separately by
    // LockModeFallbackTriggersDeterministicRerun.
    spec.cluster.tuning.maxSquashesBeforeLockMode = 10000;
    return spec;
}

/**
 * The threaded-messaging contract, per spec: the run must certify for
 * worker threads, and at shard counts {2,4,8} the threaded result and
 * a threaded re-run (scheduling-jitter determinism) must both hash
 * identical to the serial oracle.
 */
void
expectThreadedMessagingInvariant(const core::RunSpec &spec,
                                 const char *tag)
{
    const auto oracle = core::runOne(spec);
    EXPECT_GT(oracle.stats.netMessages, 0u)
        << tag << ": spec stopped messaging; nothing cross-lane here";
    const auto want = hashResult(oracle);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        auto sharded = spec;
        sharded.shards = shards;
        const auto res = core::runOne(sharded);
        EXPECT_TRUE(res.shardsThreaded)
            << tag << ": fault-free uniform messaging must certify "
            << "for worker threads";
        EXPECT_FALSE(res.serialRerun)
            << tag << ": certified run hit a serial-only path";
        EXPECT_EQ(hashResult(res), want)
            << tag << ": threaded shards=" << shards
            << " diverged from the serial oracle (committed="
            << res.stats.committed << " vs " << oracle.stats.committed
            << ", simTime=" << res.simTime << " vs " << oracle.simTime
            << ")";
        const auto rerun = core::runOne(sharded);
        EXPECT_EQ(hashResult(rerun), want)
            << tag << ": threaded shards=" << shards
            << " is not deterministic across runs";
    }
}

class ThreadedMessagingDifferential
    : public ::testing::TestWithParam<protocol::EngineKind>
{};

TEST_P(ThreadedMessagingDifferential, UniformWorkloadMatrix)
{
    const auto hash = kvs::StoreKind::HashTable;
    using workload::AppKind;
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(), {core::MixEntry{AppKind::YcsbA, hash}}),
        "ycsb-a");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(), {core::MixEntry{AppKind::YcsbB, hash}}),
        "ycsb-b");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(),
                      {core::MixEntry{AppKind::Smallbank, hash}}),
        "smallbank");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(),
                      {core::MixEntry{AppKind::YcsbA, hash},
                       core::MixEntry{AppKind::Smallbank, hash}}),
        "mix2");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ThreadedMessagingDifferential,
    ::testing::Values(protocol::EngineKind::Baseline,
                      protocol::EngineKind::HadesHybrid,
                      protocol::EngineKind::Hades),
    [](const auto &info) {
        switch (info.param) {
          case protocol::EngineKind::Baseline:
            return std::string("Baseline");
          case protocol::EngineKind::Hades:
            return std::string("Hades");
          default:
            return std::string("HadesH");
        }
    });

// ===========================================================================
// Threaded-executor certification behavior
// ===========================================================================

/** All-local OLTP spec that qualifies for worker threads. */
core::RunSpec
certifiedSpec(workload::AppKind app)
{
    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.mix = {core::MixEntry{app, kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 8;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.forcedLocalFraction = 1.0;
    spec.txnsPerContext = 10;
    spec.scaleKeys = 8000;
    spec.audit = false;
    return spec;
}

TEST(ShardThreaded, CertifiedRunUsesThreadsAndMatchesSerial)
{
    for (auto app : {workload::AppKind::Tpcc,
                     workload::AppKind::Tatp}) {
        auto spec = certifiedSpec(app);
        const auto want = hashResult(core::runOne(spec));
        for (std::uint32_t shards : {2u, 4u, 8u}) {
            auto sharded = spec;
            sharded.shards = shards;
            const auto res = core::runOne(sharded);
            EXPECT_TRUE(res.shardsThreaded)
                << "all-local OLTP must certify for worker threads";
            EXPECT_EQ(hashResult(res), want)
                << "threaded shards=" << shards << " diverged";
        }
    }
}

TEST(ShardThreaded, AdmittedShapesRunThreadedWithoutSerialRerun)
{
    // Certification soundness, admitting side: every spec shape the
    // runner certifies (all app kinds, uniform or forced-full-local
    // placement, faults/recovery/replication/audit all off) must
    // actually run on worker threads and never trip the
    // SerialRerunNeeded escape hatch -- the static certification has
    // to be conservative enough that no admitted run reaches a
    // serial-only path.
    using workload::AppKind;
    const AppKind apps[] = {
        AppKind::YcsbA,     AppKind::YcsbB,        AppKind::YcsbE,
        AppKind::YcsbWriteOnly, AppKind::YcsbHalf, AppKind::YcsbReadOnly,
        AppKind::Tpcc,      AppKind::Tatp,         AppKind::Smallbank,
    };
    for (auto app : apps) {
        for (double frac : {-1.0, 1.0}) {
            const auto store = app == AppKind::YcsbE
                                   ? kvs::StoreKind::BPlusTree
                                   : kvs::StoreKind::HashTable;
            auto spec = messagingSpec(protocol::EngineKind::Hades,
                                      {core::MixEntry{app, store}});
            spec.cluster.forcedLocalFraction = frac;
            spec.txnsPerContext = 3; // breadth over depth
            spec.shards = 8;
            const auto res = core::runOne(spec);
            EXPECT_TRUE(res.shardsThreaded)
                << "app=" << int(app) << " frac=" << frac
                << " should be certified";
            EXPECT_FALSE(res.serialRerun)
                << "app=" << int(app) << " frac=" << frac
                << " was admitted but hit a serial-only path";
        }
    }
}

TEST(ShardThreaded, DecertifiedShapesStayOffThreadsAndMatchSerial)
{
    // Certification soundness, refusing side: each decertifying flag
    // keeps worker threads off, and the run falls back to the serial
    // kernel transparently -- one lane, no window barriers, the serial
    // oracle's result bit-for-bit, and no SerialRerunNeeded retry (the
    // static gate, not the runtime escape hatch, must catch these).
    using Mutate = std::function<void(core::RunSpec &)>;
    const std::pair<const char *, Mutate> shapes[] = {
        {"audit", [](core::RunSpec &s) { s.audit = true; }},
        {"faults",
         [](core::RunSpec &s) {
             s.cluster.faults.enabled = true;
             s.cluster.faults.dropAll(0.02);
         }},
        {"recovery",
         [](core::RunSpec &s) {
             s.replication.degree = 2;
             s.cluster.faults.enabled = true;
             s.cluster.recovery.enabled = true;
         }},
        {"replication",
         [](core::RunSpec &s) { s.replication.degree = 2; }},
        {"fractional-locality",
         [](core::RunSpec &s) { s.cluster.forcedLocalFraction = 0.5; }},
    };
    for (const auto &[name, mutate] : shapes) {
        auto spec = messagingSpec(
            protocol::EngineKind::Hades,
            {core::MixEntry{workload::AppKind::YcsbA,
                            kvs::StoreKind::HashTable}});
        spec.txnsPerContext = 3;
        mutate(spec);
        const auto want = hashResult(core::runOne(spec));
        auto sharded = spec;
        sharded.shards = 4;
        const auto res = core::runOne(sharded);
        EXPECT_FALSE(res.shardsThreaded)
            << name << " must decertify the spec";
        EXPECT_EQ(res.shardsUsed, 1u)
            << name << ": a decertified spec must run serially";
        EXPECT_EQ(res.shardWindows, 0u) << name;
        EXPECT_FALSE(res.serialRerun)
            << name << " should be caught statically, not via the "
            << "runtime rerun";
        EXPECT_EQ(hashResult(res), want)
            << name << ": serial fallback diverged";
    }
}

TEST(ShardThreaded, LockModeFallbackTriggersDeterministicRerun)
{
    // Brutal contention forces the pessimistic lock-mode path, which
    // the threaded executor refuses: the run must be transparently
    // redone on the serial kernel and still match the oracle.
    auto spec = certifiedSpec(workload::AppKind::Tpcc);
    spec.scaleKeys = 64;
    spec.cluster.tuning.maxSquashesBeforeLockMode = 1;
    const auto oracle = core::runOne(spec);
    ASSERT_GT(oracle.stats.lockModeFallbacks, 0u)
        << "spec no longer reaches lock mode; tighten the contention";
    const auto want = hashResult(oracle);
    spec.shards = 4;
    const auto res = core::runOne(spec);
    EXPECT_TRUE(res.serialRerun)
        << "the threaded executor silently ran the lock-mode path";
    EXPECT_FALSE(res.shardsThreaded);
    EXPECT_EQ(res.shardsUsed, 1u);
    EXPECT_EQ(res.shardWindows, 0u);
    EXPECT_EQ(hashResult(res), want);
}

TEST(ShardThreaded, ShardCountClampsToClusterSize)
{
    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.mix = {core::MixEntry{workload::AppKind::YcsbA,
                               kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 4;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.txnsPerContext = 8;
    spec.scaleKeys = 4000;
    spec.audit = false;
    const auto want = hashResult(core::runOne(spec));
    spec.shards = 64; // 4-node cluster
    const auto res = core::runOne(spec);
    EXPECT_EQ(res.shardsUsed, 4u);
    EXPECT_EQ(hashResult(res), want);
}

} // namespace
