/**
 * @file
 * hostbench: times core::runOne from outside on one named workload.
 *
 *   hostbench check --workload W --seed S
 *       Untimed: runs the spec on 1 lane with the auditor on, and prints
 *       the run's fingerprint as JSON. A workload's threaded variant is
 *       run once too and must run threaded with the same fingerprint.
 *       Exits non-zero if a check fails.
 *   hostbench time --workload W --seed S --seconds T --trace 0|1
 *                  --expect-fingerprint HEX [--out-dir DIR]
 *       Times set-up and repeated runOne calls for about T seconds,
 *       checks every run, and prints the result as the last line of
 *       standard output: end-to-end metrics with --trace 0, per-layer
 *       metrics (spans, counts and layer probes) with --trace 1.
 */

#include <sys/resource.h>
#include <time.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/result_hash.hh"
#include "core/runner.hh"
#include "protocol/system.hh"

#include "calibrate.hh"
#include "metrics.hh"
#include "probes.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace hades;
using namespace hostbench;

namespace
{

/** A second seed, never used while tuning, that later claims must also
 *  hold on. */
constexpr std::uint64_t kHeldOutSeed = 7919;

/** Set-up is repeated this often per invocation; its median is kept. */
constexpr int kSetupReps = 15;

struct Args
{
    std::string mode, workload, expectFingerprint, outDir;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench check|time --workload W "
                 "--seed S [--seconds T --trace 0|1 --expect-fingerprint "
                 "HEX --out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("flag without a value");
        std::string opt = argv[i], val = argv[i + 1];
        if (opt == "--workload")
            a.workload = val;
        else if (opt == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (opt == "--seconds")
            a.seconds = std::atof(val.c_str());
        else if (opt == "--trace")
            a.trace = val == "1";
        else if (opt == "--expect-fingerprint")
            a.expectFingerprint = val;
        else if (opt == "--out-dir")
            a.outDir = val;
        else
            usage("unknown flag");
    }
    if (a.mode != "check" && a.mode != "time")
        usage("mode must be check or time");
    return a;
}

std::string
num(double v)
{
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** One (name, value, unit) metric line of the result. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
resultJson(bool correct, const Tally &tally,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(tally.attempted);
    s += ", \"failed\": " + std::to_string(tally.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    return s + "}}";
}

int
runCheck(const Workload &w, const Args &args)
{
    core::RunSpec spec = makeSpec(w, args.seed);
    spec.shards = 1;
    spec.audit = true; // a violation panics inside runOne
    core::RunResult r = core::runOne(spec);
    bool ok = r.audited && r.stats.committed == requestedTxns(spec);
    // The threaded variant must run threaded and equal the serial run.
    std::size_t threaded_problems = 0;
    if (w.threadedLanes) {
        Expectation e;
        e.committed = requestedTxns(spec);
        e.fingerprint = fingerprint(r);
        e.threaded = true;
        for (const std::string &p :
             checkRun(core::runOne(makeThreadedSpec(w, args.seed)), e)) {
            std::fprintf(stderr, "hostbench: threaded variant: %s\n",
                         p.c_str());
            ++threaded_problems;
        }
    }
    ok = ok && threaded_problems == 0;
    std::printf("{\"ok\": %s, \"fingerprint\": \"%s\", \"committed\": %llu, "
                "\"audited_commits\": %llu, \"audit_checks\": %llu, "
                "\"threaded_lanes\": %u, \"threaded_problems\": %zu}\n",
                ok ? "true" : "false", hex(fingerprint(r)).c_str(),
                (unsigned long long)r.stats.committed,
                (unsigned long long)r.auditedCommits,
                (unsigned long long)r.auditChecks, w.threadedLanes,
                threaded_problems);
    return ok ? 0 : 1;
}

/** The set-up runOne performs, timed per phase by the benchmark. */
struct SetupTimes
{
    double workload = 0, system = 0, engine = 0;
    double total() const { return workload + system + engine; }
};

/** A constructed, bound cluster (generator, System, engine). */
struct Cluster
{
    std::unique_ptr<workload::WorkloadGenerator> gen;
    std::unique_ptr<protocol::System> sys;
    std::unique_ptr<protocol::TxnEngine> engine;
};

Cluster
setUp(const core::RunSpec &spec, SetupTimes &t, SpanRecorder *rec,
      std::uint64_t run)
{
    ScopedSpan whole(rec, "setup", run);
    Cluster c;
    workload::WorkloadConfig wcfg;
    wcfg.numNodes = spec.cluster.numNodes;
    wcfg.forcedLocalFraction = spec.cluster.forcedLocalFraction;
    wcfg.scaleKeys = spec.scaleKeys;

    auto t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan s(rec, "setup.makeWorkload", run);
        c.gen = workload::makeWorkload(spec.mix[0].app, spec.mix[0].store,
                                       wcfg);
    }
    t.workload = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan s(rec, "setup.System", run);
        c.sys = std::make_unique<protocol::System>(
            spec.cluster, c.gen->numRecords(),
            core::engineRecordBytes(spec.engine,
                                    spec.cluster.recordPayloadBytes),
            spec.replication);
    }
    t.system = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan s(rec, "setup.bind", run);
        c.gen->bind(c.sys->placement, 0);
    }
    t.workload += secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan s(rec, "setup.makeEngine", run);
        c.engine = core::makeEngine(spec.engine, *c.sys,
                                    spec.cluster.recordPayloadBytes);
    }
    t.engine = secondsSince(t0);
    return c;
}

/** One timed runOne call. */
struct Timed
{
    double wall = 0, cpu = 0;
    /** Reference seconds, averaged over the passes before and after. */
    double ref = 0;
    bool traced = false;
};

int
runTime(const Workload &w, const Args &args)
{
    const core::RunSpec spec = makeSpec(w, args.seed);
    const std::uint64_t requested = requestedTxns(spec);
    SpanRecorder recorder;
    SpanRecorder *rec = args.trace ? &recorder : nullptr;
    std::uint64_t run = 0;

    // ---- set-up, timed by the benchmark ------------------------------------
    std::vector<double> setup_total, setup_workload, setup_system,
        setup_engine;
    for (int i = 0; i < kSetupReps; ++i) {
        SetupTimes t;
        setUp(spec, t, rec, run++);
        setup_total.push_back(t.total());
        setup_workload.push_back(t.workload);
        setup_system.push_back(t.system);
        setup_engine.push_back(t.engine);
    }

    // ---- timed runOne calls ------------------------------------------------
    Expectation expect;
    expect.committed = requested;
    expect.fingerprint =
        std::strtoull(args.expectFingerprint.c_str(), nullptr, 16);
    Tally tally;
    bool correct = expect.fingerprint != 0;
    auto check = [&](const core::RunResult &r, const Expectation &e) {
        auto problems = checkRun(r, e);
        for (const std::string &p : problems)
            std::fprintf(stderr, "hostbench: %s: %s\n",
                         std::string(w.name).c_str(), p.c_str());
        correct = correct && problems.empty();
        tally.add(requested, r.stats.committed, problems.empty());
    };
    std::vector<Timed> timed;
    core::RunResult first;
    // The traced pass alternates untraced and traced calls, so both see
    // the same machine state; at least two of each.
    const std::size_t min_reps = args.trace ? 4 : 3;
    SpeedReference reference;
    double ref_before = reference.seconds();
    const auto start = std::chrono::steady_clock::now();
    while (timed.size() < min_reps || secondsSince(start) < args.seconds) {
        Timed t;
        t.traced = args.trace && timed.size() % 2 == 1;
        double cpu0 = processCpuSeconds();
        auto t0 = std::chrono::steady_clock::now();
        core::RunResult r;
        {
            ScopedSpan s(t.traced ? rec : nullptr, "runOne", run++);
            r = core::runOne(spec);
        }
        t.wall = secondsSince(t0);
        t.cpu = processCpuSeconds() - cpu0;
        const double ref_after = reference.seconds();
        t.ref = (ref_before + ref_after) / 2;
        ref_before = ref_after;
        check(r, expect);
        if (timed.empty()) {
            first = r;
            expect.hash = core::hashResult(r);
        }
        timed.push_back(t);
    }

    std::vector<double> wall, cpu, wall_traced, ref;
    for (const Timed &t : timed) {
        (t.traced ? wall_traced : wall).push_back(t.wall);
        if (!t.traced)
            cpu.push_back(t.cpu);
        ref.push_back(t.ref);
    }
    // Host times are stated at the reference's nominal machine speed.
    const double scale = SpeedReference::kNominalSeconds / median(ref);
    const double committed = double(first.stats.committed);
    const double host_cps = committed / (median(wall) * scale);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"host_commits_per_s", host_cps, "1/s"},
            {"host_cpu_s", median(cpu) * scale, "s"},
            {"setup_s", median(setup_total) * scale, "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"committed_share", tally.committedShare(), "ratio"},
        };
    } else {
        // The threaded variant (traced pass only): its speed-up over the
        // serial runs above and its lane counters.
        core::RunResult lanes = first;
        double threaded_speedup = 0;
        if (w.threadedLanes) {
            Expectation e = expect;
            e.threaded = true;
            const core::RunSpec tspec = makeThreadedSpec(w, args.seed);
            std::vector<double> twall;
            for (int i = 0; i < 2; ++i) {
                auto t0 = std::chrono::steady_clock::now();
                {
                    ScopedSpan s(rec, "runOne.threaded", run++);
                    lanes = core::runOne(tspec);
                }
                twall.push_back(secondsSince(t0));
                check(lanes, e);
            }
            threaded_speedup = median(wall) / median(twall);
        }
        const auto &st = first.stats;
        const double traced_cps =
            committed / (median(wall_traced) * scale);
        metrics = {
            {"core.host_commits_per_s_traced", traced_cps, "1/s"},
            {"core.trace_overhead_commits_per_s", host_cps - traced_cps,
             "1/s"},
            {"core.machine_speed", scale, "ratio"},
            {"core.setup_workload_s", median(setup_workload) * scale, "s"},
            {"core.setup_system_s", median(setup_system) * scale, "s"},
            {"core.setup_engine_s", median(setup_engine) * scale, "s"},
            {"core.sim_tps", first.throughputTps, "1/s"},
            {"core.sim_p50_us", first.p50LatencyUs, "us"},
            {"core.sim_p95_us", first.p95LatencyUs, "us"},
            {"core.exec_us", first.execUs, "us"},
            {"core.validation_us", first.validationUs, "us"},
            {"core.commit_us", first.commitUs, "us"},
            {"sim.threaded_speedup", threaded_speedup, "ratio"},
            {"sim.shard_windows_per_commit",
             perCommit(lanes.shardWindows, st.committed), "count"},
            {"sim.cross_shard_events_per_commit",
             perCommit(lanes.crossShardEvents, st.committed), "count"},
            {"sim.serial_rerun", lanes.serialRerun ? 1.0 : 0.0, "count"},
            {"net.messages_per_commit",
             perCommit(st.netMessages, st.committed), "count"},
            {"net.bytes_per_commit", perCommit(st.netBytes, st.committed),
             "bytes"},
            {"bloom.checks_per_commit",
             perCommit(st.bfConflictChecks, st.committed), "count"},
            {"bloom.false_positive_rate", first.bfFalsePositiveRate,
             "ratio"},
            {"protocol.useful_attempt_ratio",
             st.attempts ? double(st.committed) / double(st.attempts) : 0,
             "ratio"},
            {"protocol.squashes_per_commit",
             perCommit(st.totalSquashes(), st.committed), "count"},
            {"protocol.lock_mode_fallbacks", double(st.lockModeFallbacks),
             "count"},
        };
        SetupTimes ignored;
        Cluster c = setUp(spec, ignored, nullptr, run);
        for (const ProbeResult &p :
             runProbes(spec, first, *c.gen, rec, run++))
            metrics.push_back({p.metric, p.nsPerCall, "ns"});
    }

    // Context recorded with every result (not part of the metric set).
    double load[3] = {0, 0, 0};
    getloadavg(load, 3);
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::string walls, refs;
    for (const Timed &t : timed) {
        walls += (walls.empty() ? "" : ", ") + num(t.wall);
        refs += (refs.empty() ? "" : ", ") + num(t.ref);
    }
    std::string context =
        "{\"workload\": \"" + std::string(w.name) +
        "\", \"seed\": " + std::to_string(args.seed) +
        ", \"held_out_seed\": " + std::to_string(kHeldOutSeed) +
        ", \"trace\": " + (args.trace ? "1" : "0") +
        ", \"build_type\": \"" HOSTBENCH_BUILD_TYPE "\", \"ndebug\": " +
        (ndebug ? "true" : "false") +
        ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"loadavg\": [" + num(load[0]) + ", " + num(load[1]) + ", " +
        num(load[2]) + "], \"runs\": " + std::to_string(timed.size()) +
        ", \"run_wall_s\": [" + walls + "], \"reference_s\": [" + refs +
        "], \"speed_scale\": " + num(scale) +
        ", \"raw_host_commits_per_s\": " + num(committed / median(wall)) +
        ", \"raw_host_cpu_s\": " + num(median(cpu)) +
        ", \"raw_setup_s\": " + num(median(setup_total)) +
        ", \"fingerprint\": \"" + hex(fingerprint(first)) +
        "\"}";
    const std::string result = resultJson(correct, tally, metrics);

    if (!args.outDir.empty()) {
        std::string stem = args.outDir + "/" + std::string(w.name) +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        if (FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
            std::fprintf(f, "{\"context\": %s,\n \"result\": %s}\n",
                         context.c_str(), result.c_str());
            std::fclose(f);
        }
        if (rec && !recorder.write(stem + "-spans.json"))
            std::fprintf(stderr, "hostbench: could not write spans\n");
    }
    std::printf("%s\n%s\n", context.c_str(), result.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *w = findWorkload(args.workload);
    if (!w)
        usage("unknown workload");
    return args.mode == "check" ? runCheck(*w, args) : runTime(*w, args);
}
