/**
 * @file
 * The benchmark's own tests: metric arithmetic, the per-run
 * correctness check, and the span recorder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/result_hash.hh"
#include "core/runner.hh"

#include "metrics.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace hades;
using namespace hostbench;

namespace
{

/** A run small enough for a unit test (milliseconds of host time). */
core::RunSpec
tinySpec()
{
    core::RunSpec spec;
    spec.cluster.numNodes = 3;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = 5;
    spec.engine = protocol::EngineKind::Hades;
    spec.mix = {{workload::AppKind::YcsbA, kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 10;
    spec.scaleKeys = 2'000;
    spec.audit = false;
    return spec;
}

Expectation
expectationFor(const core::RunSpec &spec, const core::RunResult &r)
{
    Expectation e;
    e.committed = requestedTxns(spec);
    e.hash = core::hashResult(r);
    e.fingerprint = fingerprint(r);
    return e;
}

} // namespace

TEST(Metrics, MedianOfOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Metrics, PerCommitGuardsZero)
{
    EXPECT_DOUBLE_EQ(perCommit(300, 100), 3);
    EXPECT_DOUBLE_EQ(perCommit(300, 0), 0);
}

TEST(Metrics, RequestedTxnsIsNodesCoresSlotsTxns)
{
    EXPECT_EQ(requestedTxns(makeSpec(*findWorkload("ycsb_a_hades"), 1)),
              10u * 8 * 2 * 100);
    EXPECT_EQ(requestedTxns(makeSpec(*findWorkload("tpcc_baseline"), 1)),
              10u * 8 * 2 * 100);
    EXPECT_EQ(requestedTxns(makeSpec(*findWorkload("tatp_hades"), 1)),
              10u * 8 * 2 * 1000);
}

TEST(Metrics, TallyCountsUncommittedAndWholeFailedRuns)
{
    Tally t;
    t.add(100, 100, true);
    EXPECT_EQ(t.attempted, 100u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_DOUBLE_EQ(t.committedShare(), 1.0);
    t.add(100, 90, true);  // ten never committed
    t.add(100, 100, false); // a failed check fails the whole run
    EXPECT_EQ(t.attempted, 300u);
    EXPECT_EQ(t.failed, 110u);
    EXPECT_DOUBLE_EQ(t.committedShare(), 190.0 / 300.0);
    EXPECT_DOUBLE_EQ(Tally{}.committedShare(), 0);
}

TEST(Workloads, TimedSpecsPinTheExecutionMode)
{
    for (const Workload &w : kWorkloads) {
        core::RunSpec spec = makeSpec(w, 77);
        EXPECT_FALSE(spec.audit) << w.name;
        EXPECT_EQ(spec.cluster.seed, 77u);
        EXPECT_EQ(spec.scaleKeys, 150'000u);
        ASSERT_EQ(spec.mix.size(), 1u);
        EXPECT_EQ(spec.mix[0].store, kvs::StoreKind::HashTable);
    }
    const Workload &tatp = *findWorkload("tatp_hades");
    EXPECT_EQ(makeSpec(tatp, 1).shards, 1u);
    EXPECT_EQ(makeThreadedSpec(tatp, 1).shards, 3u);
    EXPECT_EQ(findWorkload("ycsb_a_hades")->threadedLanes, 0u);
    EXPECT_EQ(findWorkload("no_such_workload"), nullptr);
}

TEST(Fingerprint, RepeatsAndMatchesTheAuditedRun)
{
    core::RunSpec spec = tinySpec();
    core::RunResult a = core::runOne(spec);
    Expectation e = expectationFor(spec, a);
    EXPECT_TRUE(checkRun(core::runOne(spec), e).empty());

    core::RunSpec audited = spec;
    audited.audit = true;
    core::RunResult r = core::runOne(audited);
    ASSERT_TRUE(r.audited);
    EXPECT_NE(core::hashResult(r), core::hashResult(a));
    EXPECT_EQ(fingerprint(r), fingerprint(a));
}

TEST(Fingerprint, PerturbedResultFailsTheCheck)
{
    core::RunSpec spec = tinySpec();
    core::RunResult good = core::runOne(spec);
    Expectation e = expectationFor(spec, good);
    ASSERT_TRUE(checkRun(good, e).empty());

    core::RunResult bad = good;
    bad.p95LatencyUs += 0.5;
    EXPECT_EQ(checkRun(bad, e).size(), 2u); // hash and fingerprint

    bad = good;
    bad.stats.netMessages += 1;
    EXPECT_FALSE(checkRun(bad, e).empty());

    bad = good;
    bad.stats.committed -= 1;
    EXPECT_EQ(checkRun(bad, e).size(), 3u); // count, hash, fingerprint

    // How the run executed is not what it computed.
    core::RunResult other_lanes = good;
    other_lanes.shardsUsed = 4;
    other_lanes.crossShardEvents = 99;
    EXPECT_TRUE(checkRun(other_lanes, e).empty());
}

TEST(Fingerprint, ThreadedExpectationRejectsFallbacks)
{
    core::RunSpec spec = tinySpec();
    core::RunResult r = core::runOne(spec);
    Expectation e = expectationFor(spec, r);
    e.threaded = true;
    EXPECT_EQ(checkRun(r, e).size(), 1u); // not threaded
    r.shardsThreaded = true;
    EXPECT_TRUE(checkRun(r, e).empty());
    r.serialRerun = true;
    EXPECT_EQ(checkRun(r, e).size(), 1u);
}

TEST(Spans, NestAndWriteOut)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "setup", 3);
        ScopedSpan inner(&rec, "setup.System", 3);
    }
    { ScopedSpan next(&rec, "runOne", 4); }
    { ScopedSpan off(nullptr, "ignored", 5); }
    const auto &s = rec.spans();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, -1);
    EXPECT_EQ(s[2].run, 4u);
    EXPECT_LE(s[0].startNs, s[1].startNs);
    EXPECT_LE(s[1].endNs, s[0].endNs);

    std::string path = ::testing::TempDir() + "hostbench_spans.json";
    ASSERT_TRUE(rec.write(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"name\": \"setup.System\""),
              std::string::npos);
    std::remove(path.c_str());
}
