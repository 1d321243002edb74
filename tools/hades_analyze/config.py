"""HADES-specific facts the rules are parameterized on.

Everything here is a *named system invariant* with a home in DESIGN.md:
the lane-confinement discipline of section 11, the PR 4 epoch-fencing
rules of section 9, the counter-table contract of section 8, and the
determinism rules of section 6. Keeping them in one module makes the encoded model of the
system reviewable at a glance.
"""

import re

# --- A1 lane-safety ---------------------------------------------------------

# Modules whose mutable state the lane-escape pass inventories: the
# protocol engines, the interconnect, and recovery/replication. (sim/
# is the kernel itself; core/ is the runner, which executes outside
# event context.)
A1_TARGET_DIRS = ("src/protocol", "src/net", "src/recovery",
                  "src/replica")

# Subsystems the runner's threaded certification statically excludes
# (DESIGN.md section 11: faults, recovery, replication, and audit all
# keep a spec on the serial kernel), so their state is never touched
# by concurrent lanes.
A1_UNCERTIFIED_DIRS = ("src/recovery", "src/replica", "src/fault",
                       "src/audit", "src/fuzz")

# Functions that abort the threaded attempt before touching shared
# state (the hard gates). Anything downstream of a call to one of
# these never executes in a threaded run.
A1_GATE_FUNCS = {"refuseIfThreaded", "ensureSerialForLockMode"}

# Per-node accessors: each returns a reference into per-node sharded
# state selected by the *executing* node, so writes through them are
# lane-local by construction (see TxnEngine::st, System::rng,
# System::routerFor).
A1_NODE_ACCESSORS = {"st", "rng", "routerFor", "routerForNode"}

# Subscript spellings that select per-node state by the executing or
# addressed node (per-node arrays like txPort_[src], statsByNode_[n]).
A1_NODE_INDEX_RE = re.compile(
    r"\b(node|src|dst|home|n|ctx\.node|currentNode|laneOf|lane|"
    r"self|peer|coord)\b")

# Writer-function name patterns that run during experiment setup (no
# events in flight), not in per-node event-handler context.
A1_SETUP_FUNC_RE = re.compile(
    r"^(configure\w*|set[A-Z]\w*|reset\w*|init\w*|shard|attach\w*|"
    r"enable\w*|bind\w*|register\w*|reserve)$")

# The runner executes on the main thread outside kernel.run() -- its
# own statements are prologue/epilogue, never event context.
# driveContext is the exception (a coroutine that hops onto a node
# lane), and so is any lambda it schedules.
A1_RUNNER_FILES = ("src/core/",)
A1_RUNNER_EXCEPT = {"driveContext"}

# --- A2 verb reliability ----------------------------------------------------

# One-way posts of these verbs are protocol-level replies/confirms:
# the *sender of the original message* owns the retry (commit-fanout
# Ack-timeout resends, reliablePost confirm-Acks), so a bare post is
# the correct idiom.
A2_REPLY_VERBS = {"Ack"}

# Functions that ARE the registered reliability path; bare posts
# inside them are the retry mechanism itself. armCommitResend is the
# commit-phase timeout: it re-posts IntendToCommit to every peer whose
# Ack is missing until the resend budget squashes the transaction.
A2_RELIABILITY_WRAPPERS = {"reliablePost", "reliableAttempt",
                           "armCommitResend"}

# One-sided RDMA verbs ride an RC queue pair: the NIC itself
# retransmits until completion (same delivery guarantee roundTrip
# models), so a post of these needs no protocol-level retry.
A2_NIC_VERBS = {"RdmaRead", "RdmaWrite", "RdmaCas"}

# --- A3 epoch fencing -------------------------------------------------------

# View-changed state (PR 4): mutating any of these outside the view
# change itself requires comparing a configuration epoch first, or an
# explicit epoch-fence-ok justification naming the covering fence.
A3_VIEW_STATE_FIELDS = {"pendingApplies", "decisionLog"}

# The view-change executor and the recovery manager own epoch
# advancement; their mutations happen at the single atomic view-change
# event (DESIGN.md section 9) and are fenced by construction.
A3_OWNER_CLASS_RE = re.compile(r"\bRecoveryManager\b")

A3_EPOCH_RE = re.compile(r"epoch", re.IGNORECASE)

# --- A4 telemetry: the counter table -----------------------------------------

# Scalar counters are declared once, as ROW(home, type, member, ...)
# lines of this X-macro table; the structs, hash, JSON and CLI summary
# all expand it (DESIGN.md section 8).
A4_TABLE_FILE = "src/core/counters.hh"
A4_ROW_RE = re.compile(r"^\s*ROW\(\s*\w+\s*,\s*[\w:]+\s*,\s*(\w+)", re.M)

A4_CLASSES = ("RunResult", "EngineStats")

# Members the structs may declare by hand besides table rows and
# derived `double` report values: the aggregates whose sinks are
# hand-written around the table's SLOT rows.
A4_AGGREGATES = {
    "label", "stats", "squashes", "overheadTicks", "latency",
    "execPhase", "validationPhase", "commitPhase", "overheadShare",
}

# --- R3X / R4X --------------------------------------------------------------

R3_UNORDERED_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\b")

R4_ORDERED_TMPL_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset|priority_queue)\s*<")

# --- R1/R2/R5/R6 determinism spellings ---------------------------------------

# Identifiers that hold smoothed *control* state: anything the
# simulation branches on (SLO classification, admission, budgets).
_CONTROL_NAME = (r"\w*(?:[Ee]wma|[Ss]lo[A-Z_]|SLO|[Hh]ealth[A-Z_]|"
                 r"[Rr]etry[Bb]udget|[Aa]dmission)\w*")

# rule -> (pattern over a line's code tokens, message, files that own
# the primitive). Comments and string literals are never matched.
DET_SPELLINGS = {
    # R1: all randomness flows through the seeded Rng.
    "rng": (
        re.compile(
            r"\b(?:std::)?(?:rand|srand|rand_r|drand48|lrand48)\(|"
            r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|"
            r"\bstd::minstd_rand0?\b|\bstd::default_random_engine\b"),
        "uncontrolled randomness; draw from the seeded Rng "
        "(common/rng.hh)",
        {"src/common/rng.hh"}),
    # R2: simulated time comes from the kernel.
    "wall-clock": (
        re.compile(
            r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b|"
            r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\(|"
            r"(?<![\w:.])time\((?:NULL|nullptr|0|&)"),
        "wall-clock time; simulated time only",
        {"src/common/time.hh"}),
    # R5: the OS thread running a lane is arbitrary under the threaded
    # executor; lane identity comes from laneOf(node).
    "thread-identity": (
        re.compile(r"\bstd::this_thread::get_id\(|\bpthread_self\(|"
                   r"(?<![\w:])gettid\(|\bstd::thread::id\b"),
        "thread identity as data; lane identity comes from "
        "laneOf(node), not the OS thread",
        set()),
    # R6: control decisions use fixed-point state (the Q8 EWMA in
    # src/net/slo_tracker.hh) so they flip at the same sample on every
    # platform; derived report metrics may stay double.
    "float-control": (
        re.compile(
            r"\b(?:float|double) (?:\w+ )?%s ?[;={]|"
            r"\b%s ?(?:\+=|-=|\*=)[^;]*(?:\d\.\d*\b|\bfloat\b|\bdouble\b)"
            % (_CONTROL_NAME, _CONTROL_NAME)),
        "floating-point accumulation in control state; smoothed "
        "SLO/admission state must be fixed-point",
        set()),
}

# --- suppression ------------------------------------------------------------

SUPPRESS_RE = re.compile(
    r"hades-analyze:\s*([a-z0-9-]+)-ok(?:\s*\(([^)]*)\))?")

ALL_RULES = (
    "lane-escape", "verb-reliability", "epoch-fence",
    "telemetry", "unordered-iter", "pointer-order", "rng", "wall-clock",
    "thread-identity", "float-control", "suppression",
)
