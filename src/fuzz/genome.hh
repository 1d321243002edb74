/**
 * @file
 * Chaos-fuzzer genome: a compact, seeded description of one fault
 * scenario (drop/dup/delay/corrupt probabilities, NIC stalls, partition
 * windows, node pauses, permanent crashes, and elastic-membership
 * joins/drains) that decodes into a FaultConfig / MembershipConfig and
 * an audited, recovery-enabled RunSpec.
 *
 * Decoding applies every safety clamp (bounded windows, partitions
 * that always heal, at most two distinct permanent-crash victims) so
 * that *any* subset of a genome's events is a valid scenario -- the
 * property delta-debugging shrinking relies on. A genome serializes to
 * a replayable JSON repro artifact (`hades-fuzz-repro-v1`) and parses
 * back bit-identically.
 */

#ifndef HADES_FUZZ_GENOME_HH_
#define HADES_FUZZ_GENOME_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/runner.hh"

namespace hades::fuzz
{

/** One gene: a single fault-plan perturbation. */
enum class EventKind : std::uint8_t
{
    DropVerb,     //!< per-verb message-loss probability
    DupVerb,      //!< per-verb duplicate-delivery probability
    DelayVerb,    //!< per-verb reorder-delay probability
    CorruptVerb,  //!< per-verb CRC-corruption probability
    NicStall,     //!< source-NIC backpressure bursts
    DropFirst,    //!< deterministically drop the first N sends of a verb
    Partition,    //!< link partition window (always heals)
    PauseNode,    //!< transient whole-node pause window
    CrashForever, //!< permanent fail-stop (recovery takes over)
    JoinNode,     //!< elastic membership: hold the last node out as a
                  //!< spare and admit it mid-run (live rebalance)
    DrainNode,    //!< elastic membership: planned-drain a fixed member
                  //!< mid-run (live record migration to survivors)
    SlowNic,      //!< grey fault: slow every copy touching a node; arms
                  //!< the SLO tracker + hedged reads (the mitigation)
    SlowLink,     //!< grey fault: inflate one directed link's latency
    ShedStorm,    //!< overload: tight admission control + retry budget
                  //!< (idempotent flag decode)
    NumKinds,
};

const char *eventKindName(EventKind k);
/** @return false if @p name names no EventKind. */
bool eventKindFromName(const std::string &name, EventKind &out);

/** One fault event. Fields are interpreted per kind; out-of-range
 *  values are clamped at decode time, never rejected. */
struct FuzzEvent
{
    EventKind kind = EventKind::DropVerb;
    std::uint32_t verb = 0; //!< net::MsgType index (mod kNumVerbs)
    double prob = 0;        //!< probability knobs (clamped per kind)
    std::uint32_t a = 0;    //!< node: victim / partition source
    std::uint32_t b = 0;    //!< node: partition destination
    Tick at = 0;            //!< window start
    Tick until = 0;         //!< window end (clamped; never kTickMax)
    bool symmetric = false; //!< partition both directions
    std::uint32_t count = 0; //!< DropFirst budget

    bool operator==(const FuzzEvent &) const = default;
};

/** A full scenario: cluster shape + fault events + optional seeded
 *  bug hook (the shrinking demo's known-injected defect). */
struct Genome
{
    std::uint64_t seed = 1;          //!< mixes cluster and fault RNG seeds
    std::uint32_t nodes = 5;
    std::uint32_t txnsPerContext = 6;
    /** Worker-thread lane count of the threadedMessaging replay
     *  (threadedSpecFor uses max(shards, 2)). The audited fault
     *  scenario ignores it: it is never thread-certified and runs on
     *  the serial kernel. The shrinker tries collapsing it to 1. */
    std::uint32_t shards = 1;
    /** TEST-ONLY: decode sets RecoveryConfig::testSkipImageResync so a
     *  crash leaves divergent backups behind (see config.hh). */
    bool bugHook = false;
    /** Threaded-messaging gene: in addition to the audited fault
     *  scenario, the campaign replays the genome's cluster shape as a
     *  fault-free, unaudited uniform-messaging run on worker threads
     *  (>= 2 lanes) and diffs it against the serial oracle -- fuzzing
     *  the PR 8 thread-certified executor family. The shrinker tries
     *  collapsing this gene before touching the event list, so repro
     *  artifacts keep it only when the failure lives in the threaded
     *  executor itself. */
    bool threadedMessaging = false;
    std::vector<FuzzEvent> events;

    bool operator==(const Genome &) const = default;
};

/** Generation bounds for randomGenome(). */
struct GenomeLimits
{
    std::uint32_t maxEvents = 12;
};

/** Deterministically generate a genome from @p seed alone. */
Genome randomGenome(std::uint64_t seed, const GenomeLimits &lim = {});

/**
 * Decode the genome's events into @p cc's FaultConfig / RecoveryConfig,
 * applying the safety clamps:
 *  - probabilities capped (drop/delay/corrupt <= 0.35, dup <= 0.5,
 *    NIC stall <= 0.2) so retry machinery always makes progress;
 *  - every window bounded (partitions always heal, pauses end);
 *  - at most two distinct CrashForever victims (extra victims are
 *    ignored), so with 5+ nodes and replication degree 2 every record
 *    keeps a live copy and the CM group keeps a live member;
 *  - membership genes decode canonically (any number of JoinNode
 *    events schedule ONE join of the last node at the earliest
 *    clamped instant; DrainNode likewise drains node 1), so the
 *    decode stays order-independent and every event subset keeps a
 *    live migration destination even with two crash victims;
 *  - grey genes (SlowNic/SlowLink) decode to bounded-window
 *    FaultConfig::GreyEvents with a clamped factor and arm the SLO
 *    tracker + hedged reads; overlapping windows stack additively,
 *    so the decode is order-independent without canonicalization;
 *  - ShedStorm decodes as an idempotent flag: any number of genes
 *    arm the same tight admission-control config.
 */
void applyEvents(const Genome &g, ClusterConfig &cc);

/** Build the audited, recovery-enabled smallbank RunSpec the campaign
 *  runs for one engine. Pure function of (genome, engine, smoke). */
core::RunSpec specFor(const Genome &g, protocol::EngineKind engine,
                      bool smoke);

/** Build the fault-free, unaudited uniform-messaging RunSpec the
 *  threadedMessaging gene adds: the genome's cluster shape on
 *  max(shards, 2) worker-threaded lanes, thread-certifiable by
 *  construction (no faults, no recovery, no replication, no audit).
 *  The serial oracle for the differential is the same spec at
 *  shards = 1. Pure function of (genome, engine, smoke). */
core::RunSpec threadedSpecFor(const Genome &g,
                              protocol::EngineKind engine, bool smoke);

/** Serialize as a `hades-fuzz-repro-v1` JSON object (one line).
 *  @p note is an optional human-readable annotation (e.g. the failure
 *  the repro reproduces); empty means omitted. */
std::string genomeJson(const Genome &g, const std::string &note = {});

/** Parse genomeJson() output (unknown keys are skipped, so annotated
 *  repro artifacts replay fine). @return false and set @p err on
 *  malformed input. */
bool parseGenomeJson(const std::string &text, Genome &out,
                     std::string &err);

} // namespace hades::fuzz

#endif // HADES_FUZZ_GENOME_HH_
