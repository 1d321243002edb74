#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "bloom/bloom_filter.hh"
#include "bloom/locking_buffer.hh"
#include "bloom/split_write_bloom.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "kvs/kvs.hh"
#include "mem/address_space.hh"
#include "mem/llc_directory.hh"
#include "net/network.hh"
#include "sim/kernel.hh"
#include "sim/task.hh"
#include "txn/version_table.hh"

#include "metrics.hh"

namespace hostbench
{

using namespace hades;

namespace
{

/** Keep @p v observable so the timed work is not optimized away. */
template <class T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

/**
 * Median nanoseconds per call of @p calls (which performs @p n calls)
 * over @p batches timed batches, after one untimed warm-up batch.
 */
double
nsPerCall(const std::function<void(std::uint64_t)> &calls,
          std::uint64_t n, int batches = 15)
{
    calls(n);
    std::vector<double> ns;
    for (int b = 0; b < batches; ++b) {
        auto t0 = std::chrono::steady_clock::now();
        calls(n);
        auto t1 = std::chrono::steady_clock::now();
        ns.push_back(
            double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t1 - t0)
                       .count()) /
            double(n));
    }
    return median(ns);
}

/** @p n random cache-line addresses below @p span_bytes. */
std::vector<Addr>
randomLines(Rng &rng, std::size_t n, std::uint64_t span_bytes)
{
    std::vector<Addr> lines(n);
    for (Addr &a : lines)
        a = rng.below(span_bytes / kCacheLineBytes) * kCacheLineBytes;
    return lines;
}

constexpr std::size_t kInputs = 4096; // power of two: index with a mask

sim::Task
delayOnce(sim::Kernel &k)
{
    co_await sim::Delay{k, 1};
}

sim::DetachedTask
delayLoop(sim::Kernel &k, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        co_await delayOnce(k);
}

sim::DetachedTask
roundTripLoop(net::Network &net, std::uint32_t nodes, std::uint64_t n,
              std::uint32_t resp_bytes)
{
    for (std::uint64_t i = 0; i < n; ++i)
        co_await net.roundTrip(net::MsgType::RdmaRead, 0,
                               NodeId(1 + i % (nodes - 1)), 16,
                               resp_bytes);
}

} // namespace

std::vector<ProbeResult>
runProbes(const core::RunSpec &spec, const core::RunResult &res,
          workload::WorkloadGenerator &gen, SpanRecorder *rec,
          std::uint64_t run)
{
    const ClusterConfig &cfg = spec.cluster;
    const std::uint64_t llc_bytes = cfg.llcBytesPerCore * cfg.coresPerNode;
    const std::uint32_t record_bytes =
        core::engineRecordBytes(spec.engine, cfg.recordPayloadBytes);
    const std::size_t lines_read =
        std::max<std::uint64_t>(1, res.stats.maxLinesRead);
    const std::size_t lines_written =
        std::max<std::uint64_t>(1, res.stats.maxLinesWritten);
    Rng rng{cfg.seed ^ 0x686f737462656e63ULL};
    const std::vector<Addr> lines = randomLines(rng, kInputs, 4 * llc_bytes);
    constexpr std::uint64_t kMask = kInputs - 1;
    std::uint64_t sink = 0;

    std::vector<ProbeResult> out;
    auto probe = [&](const char *metric,
                     const std::function<void(std::uint64_t)> &calls,
                     std::uint64_t n) {
        ScopedSpan span(rec, metric, run);
        out.push_back({metric, nsPerCall(calls, n)});
    };

    // ---- sim ---------------------------------------------------------------
    {
        // The queue depth runOne() reserves for this cluster.
        const std::size_t depth =
            std::size_t{cfg.numNodes} * cfg.contextsPerNode() * 8 + 64;
        sim::Kernel k;
        k.reserve(depth);
        probe("sim.schedule_run_ns", [&](std::uint64_t n) {
            for (std::uint64_t done = 0; done < n; done += depth) {
                for (std::size_t i = 0; i < depth; ++i)
                    k.schedule(Tick(1 + rng.below(1024)),
                               [&sink] { ++sink; });
                k.run();
            }
        }, depth * 32);
        probe("sim.delay_resume_ns", [&](std::uint64_t n) {
            delayLoop(k, n);
            k.run();
        }, 20'000);
    }

    // ---- net ---------------------------------------------------------------
    {
        sim::Kernel k;
        net::Network network(k, cfg);
        probe("net.round_trip_ns", [&](std::uint64_t n) {
            roundTripLoop(network, cfg.numNodes, n, record_bytes);
            k.run();
        }, 10'000);
    }

    // ---- bloom -------------------------------------------------------------
    {
        bloom::BloomFilter bf(cfg.coreReadBf.bits, cfg.coreReadBf.numHashes);
        probe("bloom.insert_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                bf.insert(lines[i & kMask]);
            keep(bf);
        }, 100'000);

        bloom::BloomFilter read_bf(cfg.coreReadBf.bits,
                                   cfg.coreReadBf.numHashes);
        for (std::size_t i = 0; i < lines_read; ++i)
            read_bf.insert(lines[i]);
        probe("bloom.may_contain_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                sink += read_bf.mayContain(lines[i & kMask]);
        }, 100'000);

        bloom::SplitWriteBloomFilter write_bf(cfg.coreWriteBf,
                                              cfg.llcSets());
        for (std::size_t i = 0; i < lines_written; ++i)
            write_bf.insert(lines[i]);
        probe("bloom.candidate_sets_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                sink += write_bf.candidateLlcSets().size();
        }, 200);

        // Every Locking Buffer of a node held, each by a committer with
        // the workload's largest footprint.
        bloom::LockingBufferBank bank(cfg.lockingBuffersPerNode
                                          ? cfg.lockingBuffersPerNode
                                          : 2 * cfg.contextsPerNode());
        for (std::uint64_t owner = 1; owner <= bank.capacity(); ++owner) {
            bloom::BloomFilter r(cfg.coreReadBf.bits,
                                 cfg.coreReadBf.numHashes);
            bloom::SplitWriteBloomFilter w(cfg.coreWriteBf, cfg.llcSets());
            for (std::size_t i = 0; i < lines_read; ++i)
                r.insert(lines[rng.below(kInputs)]);
            for (std::size_t i = 0; i < lines_written; ++i)
                w.insert(lines[rng.below(kInputs)]);
            always_assert(bank.tryAcquire(owner, r, w, {}) ==
                              bloom::AcquireResult::Acquired,
                          "probe could not fill the Locking Buffers");
        }
        probe("bloom.access_blocked_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                sink += bank.accessBlocked(lines[i & kMask], i & 1, 0);
        }, 20'000);
    }

    // ---- mem ---------------------------------------------------------------
    {
        // Twice the LLC's lines, so probes both hit and miss.
        mem::LlcDirectory llc(llc_bytes, cfg.llcWays);
        const std::vector<Addr> llc_lines =
            randomLines(rng, 2 * llc_bytes / kCacheLineBytes, 4 * llc_bytes);
        probe("mem.llc_probe_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                Addr line = llc_lines[i % llc_lines.size()];
                if (!llc.probe(line))
                    llc.insert(line);
            }
        }, 100'000);

        // The tags of one node's in-flight writers, each at the
        // workload's largest write footprint.
        mem::LlcDirectory tagged(llc_bytes, cfg.llcWays);
        const std::uint64_t writers = cfg.contextsPerNode();
        for (std::uint64_t tx = 1; tx <= writers; ++tx)
            for (std::size_t i = 0; i < lines_written; ++i)
                tagged.setWrTxId(lines[(tx * lines_written + i) & kMask],
                                 tx);
        probe("mem.lines_written_by_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                sink += tagged.linesWrittenBy(1 + i % writers).size();
        }, 20'000);
    }

    // ---- txn ---------------------------------------------------------------
    {
        txn::VersionTable versions;
        std::vector<std::uint64_t> records(kInputs);
        for (auto &r : records)
            r = rng.below(gen.numRecords());
        probe("txn.lock_bump_unlock_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t r = records[i & kMask];
                sink += versions.tryLock(r, 7);
                versions.bumpVersion(r);
                versions.unlock(r, 7);
            }
        }, 100'000);
    }

    // ---- kvs ---------------------------------------------------------------
    {
        mem::Placement placement(cfg.numNodes, spec.scaleKeys,
                                 record_bytes);
        kvs::HashTableKvs store(cfg.numNodes);
        store.populate(placement, spec.scaleKeys);
        std::vector<kvs::IndexStep> steps;
        std::vector<Key> keys(kInputs);
        for (Key &key : keys)
            key = rng.below(spec.scaleKeys);
        probe("kvs.lookup_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                steps.clear();
                store.lookup(keys[i & kMask], steps);
                sink += steps.size();
            }
        }, 100'000);
    }

    // ---- workload ----------------------------------------------------------
    {
        Rng wrng{cfg.seed};
        probe("workload.next_txn_ns", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                txn::TxnProgram prog =
                    gen.next(wrng, NodeId(i % cfg.numNodes));
                keep(prog);
            }
        }, 20'000);
    }

    keep(sink);
    return out;
}

} // namespace hostbench
