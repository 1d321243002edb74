"""hades-analyze: semantic lint suite for the HADES tree.

The analyzer proves (or inventories) four families of HADES-specific
invariants that regex lints cannot see:

  A1 lane-safety       which mutable engine/network/recovery state is
                       confined to one kernel shard lane -- the static
                       precondition for certifying messaging specs for
                       the threaded executor.
  A2 verb reliability  every one-way post of a net::MsgType verb has
                       a registered reliability/retry path. (Switch
                       totality over enums is the compiler's job:
                       src/ builds with -Werror=switch and
                       -Werror=switch-enum.)
  A3 epoch fencing     handlers that mutate view-changed state compare
                       a configuration epoch first (PR 4's stale-epoch
                       fencing rule).
  A4 telemetry         RunResult/EngineStats declare every scalar
                       counter as a row of the counter table
                       (src/core/counters.hh), which drives the hash,
                       the hades-sweep-v1 JSON and the CLI summary.

plus cross-file R3X/R4X (unordered iteration, pointer-keyed
ordering, resolved across files) and the determinism spelling rules
R1 rng, R2 wall-clock, R5 thread-identity and R6 float-control.

One frontend builds the semantic IR: parse_fallback, a built-in C++
tokenizer and structural parser that needs no compiler, so CI and
every development machine run the same analysis.

Suppression syntax (the justification is mandatory):

    // hades-analyze: <rule>-ok (why this is safe)

on the flagged line or the line directly above it.
"""

__version__ = "1.0"
