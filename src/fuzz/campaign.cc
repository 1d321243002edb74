#include "fuzz/campaign.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/log.hh"
#include "core/result_hash.hh"
#include "core/result_json.hh"
#include "core/sweep.hh"

namespace hades::fuzz
{

using protocol::EngineKind;

namespace
{

constexpr EngineKind kEngines[] = {EngineKind::Baseline,
                                   EngineKind::Hades,
                                   EngineKind::HadesHybrid};

/**
 * The threadedMessaging gene's scenario: per engine, the fault-free
 * uniform-messaging spec on worker threads against the same spec on
 * the serial oracle. The family is unaudited (audit decertifies the
 * threads), so the failure signal is differential: a digest mismatch
 * means the threaded executor computed a different run.
 */
FuzzVerdict
runThreadedDifferential(const Genome &g, const FuzzRunOptions &opt)
{
    std::vector<core::RunSpec> specs;
    for (EngineKind k : kEngines) {
        core::RunSpec threaded = threadedSpecFor(g, k, opt.smoke);
        core::RunSpec serial = threaded;
        serial.shards = 1;
        specs.push_back(serial);
        specs.push_back(threaded);
    }

    core::SweepOptions sweep;
    sweep.jobs = std::max(1u, opt.jobs);
    auto outcomes = core::runMany(specs, sweep);

    std::vector<const core::RunOutcome *> byIndex(specs.size(), nullptr);
    for (const auto &o : outcomes)
        byIndex[o.index] = &o;

    FuzzVerdict v;
    for (std::size_t e = 0; e < std::size(kEngines); ++e) {
        const char *engine = protocol::engineKindName(kEngines[e]);
        const auto *serial = byIndex[2 * e];
        const auto *threaded = byIndex[2 * e + 1];
        if (!serial->ok || !threaded->ok) {
            v.failed = true;
            v.engine = engine;
            v.error = !serial->ok ? serial->error : threaded->error;
            return v;
        }
        const auto want = core::hashResult(serial->result);
        const auto got = core::hashResult(threaded->result);
        if (got != want) {
            v.failed = true;
            v.engine = engine;
            v.error = "threaded_divergence serial=" +
                      std::to_string(want) + " threaded=" +
                      std::to_string(got) + " shards=" +
                      std::to_string(specs[2 * e + 1].shards);
            return v;
        }
    }
    return v;
}

} // namespace

FuzzVerdict
runGenome(const Genome &g, const FuzzRunOptions &opt)
{
    // Audit violations and invariant failures must become failed
    // RunOutcomes the shrinker can chew on, not process aborts. Set
    // before runMany spawns workers; runMany joins them all before
    // returning, so the write never races a reader.
    setPanicThrows(true);

    std::vector<core::RunSpec> specs;
    for (EngineKind k : kEngines)
        specs.push_back(specFor(g, k, opt.smoke));

    core::SweepOptions sweep;
    sweep.jobs = std::max(1u, opt.jobs);
    auto outcomes = core::runMany(specs, sweep);

    FuzzVerdict v;
    for (const auto &o : outcomes) {
        const char *engine =
            protocol::engineKindName(specs[o.index].engine);
        if (!o.ok) {
            v.failed = true;
            v.engine = engine;
            v.error = o.error;
            break;
        }
        if (o.result.divergentRecords > 0) {
            v.failed = true;
            v.engine = engine;
            v.divergentRecords = o.result.divergentRecords;
            v.error = "divergent_records=" +
                      std::to_string(o.result.divergentRecords);
            break;
        }
    }
    if (!v.failed && g.threadedMessaging)
        v = runThreadedDifferential(g, opt);
    return v;
}

Genome
shrinkGenome(const Genome &g, const FuzzRunOptions &opt,
             std::uint32_t max_runs, std::uint32_t &runs_used)
{
    Genome best = g;
    runs_used = 0;
    auto stillFails = [&](const Genome &candidate) {
        if (runs_used >= max_runs)
            return false;
        ++runs_used;
        return runGenome(candidate, opt).failed;
    };

    // The threaded-messaging gene first: dropping it removes the whole
    // worker-thread differential from the scenario, so a failure that
    // survives lives in the audited fault family and replays without
    // threads at all. When the collapse fails, the bug needs the
    // threaded executor -- exactly what the artifact must record.
    if (best.threadedMessaging) {
        Genome candidate = best;
        candidate.threadedMessaging = false;
        if (stillFails(candidate))
            best = candidate;
    }

    // Lane count next: the shard gene only sizes the threaded replay
    // (max(shards, 2) lanes; the audited fault scenario always runs
    // serially), so shards = 1 either changes nothing or leaves the
    // smallest two-lane replay. It only "fails" to shrink when the bug
    // needs more lanes -- exactly the case where keeping the shard
    // count in the artifact matters.
    if (best.shards > 1) {
        Genome candidate = best;
        candidate.shards = 1;
        if (stillFails(candidate))
            best = candidate;
    }

    // ddmin over the event list: drop [start, start+chunk), keep the
    // removal when the failure survives, restart with big chunks after
    // any progress so freshly adjacent events can go in one bite.
    bool progress = true;
    while (progress && !best.events.empty() && runs_used < max_runs) {
        progress = false;
        for (std::size_t chunk =
                 std::max<std::size_t>(best.events.size() / 2, 1);
             chunk >= 1 && !progress; chunk /= 2) {
            for (std::size_t start = 0;
                 start < best.events.size() && !progress;
                 start += chunk) {
                Genome candidate = best;
                const auto first =
                    candidate.events.begin() + std::ptrdiff_t(start);
                const auto last =
                    candidate.events.begin() +
                    std::ptrdiff_t(
                        std::min(start + chunk, candidate.events.size()));
                candidate.events.erase(first, last);
                if (stillFails(candidate)) {
                    best = candidate;
                    progress = true;
                }
            }
            if (chunk == 1)
                break;
        }
    }

    // Smaller workloads replay faster; try a couple of reductions.
    for (std::uint32_t txns : {2u, 3u}) {
        if (txns >= best.txnsPerContext)
            continue;
        Genome candidate = best;
        candidate.txnsPerContext = txns;
        if (stillFails(candidate)) {
            best = candidate;
            break;
        }
    }
    return best;
}

namespace
{

/** The bug-hook demo needs a permanent crash to trigger the injected
 *  skip-resync defect; give genomes that drew none a deterministic one. */
void
ensureCrash(Genome &g)
{
    for (const FuzzEvent &e : g.events)
        if (e.kind == EventKind::CrashForever)
            return;
    FuzzEvent e;
    e.kind = EventKind::CrashForever;
    e.a = std::uint32_t(g.seed % g.nodes);
    e.at = us(20);
    g.events.push_back(e);
}

} // namespace

CampaignReport
runCampaign(const CampaignOptions &opt)
{
    CampaignReport report;
    FuzzRunOptions run{opt.smoke, opt.jobs};
    GenomeLimits lim;
    lim.maxEvents = opt.maxEvents;

    for (std::uint32_t i = 0; i < opt.genomes; ++i) {
        const std::uint64_t seed = opt.seedBase + i;
        Genome g = randomGenome(seed, lim);
        if (opt.bugHook) {
            g.bugHook = true;
            ensureCrash(g);
        }
        FuzzVerdict v = runGenome(g, run);
        report.genomesRun += 1;
        if (!v.failed) {
            if (!opt.quiet)
                std::printf("fuzz seed=%" PRIu64 " events=%zu ok\n",
                            seed, g.events.size());
            continue;
        }
        report.failures += 1;
        if (!opt.quiet)
            std::printf("fuzz seed=%" PRIu64 " events=%zu FAILED "
                        "(%s: %s); shrinking...\n",
                        seed, g.events.size(), v.engine.c_str(),
                        v.error.c_str());
        std::uint32_t runs_used = 0;
        Genome shrunk = shrinkGenome(g, run, opt.shrinkRuns, runs_used);
        FuzzVerdict sv = runGenome(shrunk, run);
        report.haveRepro = true;
        report.repro = shrunk;
        report.verdict = sv.failed ? sv : v;
        if (!opt.quiet)
            std::printf("fuzz seed=%" PRIu64 " shrunk %zu -> %zu events "
                        "in %u runs (%s)\n",
                        seed, g.events.size(), shrunk.events.size(),
                        runs_used, report.verdict.error.c_str());
        if (!opt.outPath.empty()) {
            const std::string note = "seed " + std::to_string(seed) +
                                     " " + report.verdict.engine + ": " +
                                     report.verdict.error;
            core::writeJsonFile(opt.outPath,
                                genomeJson(shrunk, note));
            if (!opt.quiet)
                std::printf("fuzz repro written to %s\n",
                            opt.outPath.c_str());
        }
        break; // first failure is the artifact; rest of matrix moot
    }
    return report;
}

} // namespace hades::fuzz
