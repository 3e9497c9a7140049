#!/usr/bin/env bash
# Full offline CI gate for the ric workspace.
#
# Runs the same checks the repository expects before every merge:
#   1. release build          (cargo build --release)
#   2. test suite, fast       (cargo test -q; heavy tests are #[ignore]d)
#   3. fault injection        (cargo test --test guard_robustness)
#   4. plan A/B               (cargo test --test plan_differential: cost-based
#                              plans must be verdict-identical to plans
#                              compiled without statistics (the static
#                              greedy order) on every decision)
#   5. engine A/B             (cargo test --test engine_differential: the
#                              naive oracle and the planned engine must
#                              return identical verdicts, witnesses, and
#                              search counters on the exact search, and
#                              identical verdict kinds with certified
#                              counterexamples on the bounded search)
#   6. allocation bound       (cargo test --release --test alloc_per_valuation:
#                              an exact RCDP decision's allocations must not
#                              grow with the valuations it walks, and an
#                              RCQP E2 search's must not grow with its
#                              candidates or E2 checks)
#   7. E2 search A/B          (cargo test --test rcqp_e2_differential: the
#                              RCQP maximal-subset search visits the same
#                              subsets on every engine, returns identical
#                              verdicts and witnesses, and every witness is
#                              certified Complete by RCDP; then the rcqp
#                              unit tests that pin the search against the
#                              full enumeration: the same verdicts and
#                              witnesses, exactly the orbit leaders of a
#                              brute force, 52 E2 checks instead of 256 and
#                              the exact candidate counts; the settle-point
#                              cut must keep the brute force's maximal
#                              subsets and must break when one meeting pair
#                              is dropped; the id check's overlay must
#                              answer as the base it stands for; and the
#                              public e2_check still fails a D_V that is not
#                              partially closed)
#   8. reason A/B             (cargo test --test reason_differential: the
#                              symbolic pre-decision prover — certified
#                              V-minimization and static verdicts — must be
#                              verdict- and witness-identical to the full-V
#                              prepared path; the input contract
#                              (reasoned_decisions_match_prepared_full_v and
#                              the static-complete and cover-hit cases):
#                              databases that are not partially closed run
#                              through the search path, the static path and
#                              a cover hit, and must be refused with
#                              NotPartiallyClosed exactly when the full V
#                              fails; the analysis/reasoning split test; then the
#                              analyze_setting example runs, printing the
#                              analysis report and the reasoned diagnostics)
#   9. checkpoint/resume      (cargo test --test resume_differential, then
#                              RIC_RESUME_K=2,5: K-installment decisions must
#                              be identical to uninterrupted runs; then the
#                              guarded_decisions example runs, including its
#                              budget-escalation loop over Request::resume)
#  10. monitor differential   (cargo test --test monitor_differential, then
#                              a RIC_TXN_BATCH={1,8} matrix: every
#                              incremental verdict must equal a from-scratch
#                              decision after every txn) and the monitor
#                              metamorphic suite (inversion, coalescing,
#                              splitting, monotonicity) plus the
#                              tombstone-edge suite (net no-op txns, digest
#                              stability, inversion across tombstones) and
#                              the rung suite (adversarial undo, anchor, and
#                              recert cases against from-scratch decisions;
#                              the recert and anchor rungs allocate the same
#                              on a 4x larger database, --release; a stream
#                              over every rung is probe-capture neutral);
#                              then the monitor_stream example runs, its
#                              repair step replaying the verdict by undo
#  11. panic-path faults      (guard_robustness sink-flush test plus the
#                              ric-trace torn-record suite)
#  12. paper properties       (cargo test --test paper_properties)
#  13. static analysis        (cargo test -p ric-analysis, cargo test
#                              -p ric-reason, which hold the proof-validator
#                              mutation tests: a CQ -> IND rewriter that
#                              drops an atom or loses a join equality, a
#                              Rule B drop whose p_j(Dm) is not a subset,
#                              and a cover claim against a non-containing
#                              body must each be refused with RIC031/RIC043;
#                              cargo test --test analysis_properties; and a
#                              guard that no random certification battery
#                              (SplitMix64, CERTIFY_ROUNDS, sample_database)
#                              reappears in the analyzer or reasoner)
#  14. bench artifacts        (regen_tables --deadline-ms guard; the run
#                              fails if a checked Table I/II verdict
#                              disagrees with its oracle or an artifact
#                              write fails, and also streams a JSONL
#                              decision trace; then one bench_bars run:
#                              BENCH_BARS.json must report all_ok — every
#                              bar holds (monitor >=5x, static >=2x/>=10x,
#                              resume <=1.10x) with identical verdicts in
#                              every cell, and no bar workload draws an
#                              Error-level analyzer diagnostic. Both run in
#                              a temp dir, so the tracked BENCH_*.json files
#                              are never rewritten by CI)
#  15. trace smoke            (the trace_decision example and the
#                              regen_tables --trace stream must round-trip
#                              through the ric-trace CLI: tree, prune, plan,
#                              and diff all parse and render; a malformed
#                              trace is rejected with a nonzero exit)
#  16. disabled probes        (cargo test -p ric-telemetry disabled_probe:
#                              Probe::disabled adds zero events, traced or
#                              not)
#  17. full test suite        (cargo test -q -- --include-ignored)
#  18. determinism lint       (scripts/lint_determinism.sh: no std hash
#                              containers or wall-clock reads in library
#                              crates outside the audited allowlist)
#  19. formatting             (cargo fmt --check)
#  20. lints                  (cargo clippy --all-targets -D warnings)
#  21. lints, workspace       (cargo clippy --workspace -D warnings)
#  22. lints, unwrap ban      (clippy -D clippy::unwrap_used/expect_used on
#                              library code; tests are exempt via clippy.toml)
#  23. docs                   (RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps:
#                              broken intra-doc links are build errors)
#  24. benchmark self-test    (python3 perfbench/selftest.py --seconds 1:
#                              builds perfbench against the library, so a
#                              removed entry point it calls fails here; traced
#                              counts and verdict digests must repeat exactly)
#
# Everything runs with --offline: the default build has zero third-party
# dependencies, so no network access is ever required. The proptest suites
# are feature-gated (`cargo test --features proptest`) and are NOT part of
# this gate — they need an environment that can fetch crates.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."
root="${PWD}"

step() { printf '\n== %s ==\n' "$*"; }

step "build (release, offline)"
cargo build --release --offline

step "tests (fast tier: heavy instances are #[ignore]d)"
cargo test -q --offline

step "fault injection (deadline / cancel / panic degradation paths)"
cargo test -q --offline --test guard_robustness

# Plan A/B: the planned engine fixes join orders from cost estimates but
# must change nothing else — every decision's verdict (and witness) under
# cost-based plans must be identical to plans compiled without statistics,
# which take the static greedy order.
step "plan differential suite (cost-based vs static-order verdict identity)"
cargo test -q --offline --test plan_differential

# Engine A/B: every decision checks its candidates through one check chosen
# from the engine; the naive oracle (materialized unions on values) and the
# planned engine (compiled delta checks on dense ids) must agree on every
# exact verdict, witness, and search counter, and on every bounded verdict
# kind with certified counterexamples.
step "engine differential suite (naive vs planned verdict identity)"
cargo test -q --offline --test engine_differential

# Allocation bound: the exact search binds dense ids and reuses one arena,
# so two decisions over the same database whose valuation counts differ
# more than 10x must allocate within a small fixed margin of each other;
# likewise two E2 searches whose candidate counts differ more than 4x.
step "allocation bound (no allocation per valuation or candidate, --release)"
cargo test -q --offline --release --test alloc_per_valuation

# E2 search A/B: the RCQP maximal-subset search must visit the same subsets
# and run the same E2 checks on every engine, with identical verdicts and
# witnesses, each witness certified by RCDP; the search collapsed to one
# maximal subset per orbit and cut at settle points must agree with the
# full enumeration; and the id check's overlay must answer as its base.
step "rcqp E2 differential suite (engine identity of the E2 search)"
cargo test -q --offline --test rcqp_e2_differential
step "rcqp orbit collapse and settle points (agree with the full enumeration)"
cargo test -q --offline -p ric-complete --lib -- --exact \
    rcqp::tests::maximal_subsets_match_brute_force \
    rcqp::tests::e2_search_checks_one_subset_per_orbit \
    rcqp::tests::collapsed_search_matches_full_enumeration \
    rcqp::tests::bound_mask_holds_only_the_chosen_entries \
    check::tests::pushed_rows_check_as_the_base_does \
    characterize::tests::e2_check_rejects_dv_that_is_not_partially_closed

# Reason A/B: the symbolic pre-decision prover may drop implied constraints
# and short-circuit statically decided settings, but every verdict, witness,
# and pinned counter must match the full-V prepared path, and every path must
# refuse exactly the databases that are not partially closed
# (reasoned_decisions_match_prepared_full_v and the static-complete and
# cover-hit cases). Analysis does not reason: the example prints its report
# and, next to it, the reasoner's diagnostics from a reasoned preparation.
step "reason differential suite (reasoned vs full-V verdict identity, input contract)"
cargo test -q --offline --test reason_differential
step "analysis and reasoned diagnostics (the analyze_setting example runs to completion)"
cargo run -q --release --offline --example analyze_setting > /dev/null

# Resume equivalence: a decision finished in K installments must be
# verdict-, witness-, and counter-identical to one uninterrupted run. The
# suite honours RIC_RESUME_K, so pin the K set explicitly alongside the
# default run.
step "checkpoint/resume differential suite (default K set {2,5})"
cargo test -q --offline --test resume_differential
step "checkpoint/resume differential suite (RIC_RESUME_K=2,5)"
RIC_RESUME_K=2,5 cargo test -q --offline --test resume_differential
step "budget escalation (the guarded_decisions example runs to completion)"
cargo run -q --release --offline --example guarded_decisions > /dev/null

# Monitor differential: after EVERY transaction in a seeded stream, the
# incremental verdict must equal a from-scratch prepared decision on the
# same state. The suite honours RIC_TXN_BATCH (ops per transaction), so pin
# the batch sizes explicitly alongside the default run.
step "monitor differential suite (incremental vs from-scratch, default)"
cargo test -q --offline --test monitor_differential
for batch in 1 8; do
  step "monitor differential suite (RIC_TXN_BATCH=${batch})"
  RIC_TXN_BATCH="${batch}" cargo test -q --offline --test monitor_differential
done

# Monitor metamorphic: inverse transactions restore state bitwise, op
# coalescing and singleton splitting change nothing observable, and
# insert-only streams keep Complete verdicts monotone.
step "monitor metamorphic suite (inversion, coalescing, splitting, monotonicity)"
cargo test -q --offline --test monitor_metamorphic

# Tombstone edges: insert→delete and delete→reinsert within one txn are net
# no-ops, the state digest is content-addressed (stable across commuting op
# orderings), and an inverse restores it across mixed tombstones.
step "monitor tombstone-edge suite (net no-ops, digest stability, inversion)"
cargo test -q --offline --test monitor_tombstone_edges

# Monitor rungs: every shortcut (exact undo, Complete anchors,
# counterexample recertification) attacked where it could go wrong and
# compared with a from-scratch decision; the recert and anchor rungs must
# allocate the same on a database 4x larger; and a stream over every rung
# must be identical with probe capture on and off.
step "monitor rung suite (adversarial shortcuts, O(|delta|) allocations, --release)"
cargo test -q --offline --release --test monitor_rungs

# The streaming example end to end: registration, a verdict flip, anchored
# growth, a partial-closure break and its repair (an exact undo), and a
# footprint skip.
step "monitor example (the monitor_stream example runs to completion)"
cargo run -q --release --offline --example monitor_stream > /dev/null

# Panic path: an injected panic must still flush buffered telemetry sinks,
# and a torn trace record must be rejected, not rendered.
step "panic-path faults (sink flush, torn trace records)"
cargo test -q --offline --test guard_robustness flushed_on_the_facade_panic_path
cargo test -q --offline -p ric-bench --test trace_load

step "paper-property suite (monotonicity, C1-C4, witnesses, Prop 2.1)"
cargo test -q --offline --test paper_properties

step "static analysis suite (diagnostics, proven downgrades, validator mutations, gated dispatch)"
cargo test -q --offline -p ric-analysis
cargo test -q --offline -p ric-reason
cargo test -q --offline --test analysis_properties
# The analyzer and the reasoner justify conclusions by proofs; a sampling
# battery must not come back.
if grep -rnE 'SplitMix64|CERTIFY_ROUNDS|sample_database' crates/analysis/src crates/reason/src; then
    echo "a random certification battery reappeared in ric-analysis or ric-reason" >&2
    exit 1
fi

# Regenerate the table artifacts under a wall-clock guard: regen_tables exits
# nonzero when a checked verdict disagrees with its ground-truth oracle (a
# cell cut short by the deadline records `checked: false` instead) or when
# an artifact cannot be written. The same run streams a JSONL decision trace
# for the smoke step below. The bench binaries write cwd-relative paths, so
# they run inside a temp dir: fresh wall-clock micros would otherwise
# rewrite the tracked BENCH_*.json files on every CI run.
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
bench() {
  (cd "${trace_dir}" && cargo run -q --release --offline --manifest-path "${root}/Cargo.toml" \
    -p ric-bench --bin "$@")
}
step "bench artifact regeneration (BENCH_TABLE*.json + decision trace, deadline-guarded)"
bench regen_tables -- --deadline-ms 15000 --trace "${trace_dir}/regen.jsonl" > /dev/null

# Timing bars: one bench_bars run lints every bar workload through the
# analyzer, times every suite on interleaved A/B pairs, and writes
# BENCH_BARS.json. Require the artifact's own verdict — the run fails if any
# bar misses (monitor >=5x, static >=2x/>=10x, resume <=1.10x at the median)
# or any cell sees a verdict mismatch between its arms.
step "timing bars (BENCH_BARS.json: every bar holds, verdicts identical)"
bench bench_bars > /dev/null
grep -q '"all_ok": true' "${trace_dir}/BENCH_BARS.json" || {
  echo "ci.sh: BENCH_BARS.json regenerated with all_ok != true" >&2
  exit 1
}

# The observability round trip: every JSONL trace the workspace emits must
# parse and render through the ric-trace CLI, and a malformed trace must be
# rejected loudly (exit 1), not rendered as garbage.
step "trace smoke (JSONL decision traces round-trip through ric-trace)"
ric_trace() { cargo run -q --release --offline -p ric-bench --bin ric-trace -- "$@"; }
cargo run -q --release --offline --example trace_decision \
  > "${trace_dir}/example.jsonl" 2> /dev/null
for trace in example regen; do
  ric_trace tree  "${trace_dir}/${trace}.jsonl" > /dev/null
  ric_trace prune "${trace_dir}/${trace}.jsonl" > /dev/null
  ric_trace plan  "${trace_dir}/${trace}.jsonl" > /dev/null
done
ric_trace diff "${trace_dir}/example.jsonl" "${trace_dir}/regen.jsonl" > /dev/null
ric_trace diff BENCH_TABLE1.json BENCH_TABLE1.json > /dev/null
ric_trace diff BENCH_BARS.json "${trace_dir}/BENCH_BARS.json" > /dev/null
head -1 "${trace_dir}/example.jsonl" > "${trace_dir}/truncated.jsonl"
if ric_trace tree "${trace_dir}/truncated.jsonl" > /dev/null 2>&1; then
  echo "ci.sh: ric-trace accepted a malformed trace (unclosed decision span)" >&2
  exit 1
fi

# Tracing must be free when off: a disabled probe records zero events and
# never runs a note closure, with or without a TraceState attached.
step "disabled probes add zero events"
cargo test -q --offline -p ric-telemetry disabled_probe

step "tests (full: --include-ignored picks up the heavy instances)"
cargo test -q --offline -- --include-ignored

# Determinism lint: std hash containers and wall-clock reads in library
# crates are banned outside the audited allowlist — either would let run-to-
# run nondeterminism leak into verdicts, witnesses, or artifacts.
step "determinism lint (no HashMap/HashSet or wall-clock in library crates)"
bash scripts/lint_determinism.sh

step "formatting"
cargo fmt --all -- --check

step "clippy (all targets, warnings are errors)"
cargo clippy --all-targets --offline -- -D warnings

# Library code is held to the fatal bar across every workspace crate (the
# --all-targets pass above already covers tests, examples, and benches; this
# pass pins the library surface explicitly so a lint regression in any crate
# fails CI even if target filtering above changes).
step "clippy (workspace libraries, warnings are errors)"
cargo clippy --workspace --offline -- -D warnings

# Library code must not unwrap/expect: every invariant is either a typed
# error or an explicit unreachable!() with its justification. Tests keep
# unwrap ergonomics via clippy.toml (allow-unwrap-in-tests/expect-in-tests).
step "clippy (unwrap/expect ban on library code)"
cargo clippy --offline -p ric-complete -p ric -p ric-plan -p ric-monitor -p ric-reason -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Docs are part of the API contract: a broken intra-doc link or malformed
# doc attribute fails CI rather than shipping a dead reference.
step "docs (rustdoc, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

# The benchmark is a separate cargo package that calls the facade; building
# and self-testing it here catches an entry point it uses going missing.
step "benchmark self-test (perfbench builds, counts and digests repeat)"
python3 perfbench/selftest.py --seconds 1

printf '\nci.sh: all checks passed\n'
