#!/usr/bin/env bash
# Repository verification gate. Stages (pass one as $1, default `all`):
#
#   lint   — formatting and clippy of the workspace and of the `perf`
#            benchmark package, rustdoc of the workspace (fast; no build
#            artifacts needed)
#   gates  — release build (the `perf` benchmark package too, with its
#            unit tests), tier-1 and workspace tests (the suites over
#            process-wide state once more at 16 test threads), the four
#            examples run to completion, and
#            every behavioural gate: manifest determinism + baselines,
#            Table I, guideline stats, Fig. 2, Table II on all twelve
#            circuits, the N-detect baseline, the p1 sweep, the library
#            ablation, checkpoint/resume, warm cross-run cache, perf
#            trajectory (the resilient flow driver at 1 and 4 threads); no
#            fault may end Aborted in any of their manifests
#   server — flow-service storm: hundreds of concurrent submissions under
#            injected worker crashes / queue-full sheds, plus
#            checkpoint-backed preemption, direct-run result
#            equivalence, and the live event stream
#            (conservation replayed offline by flow_tail, stream digest
#            byte-identical across worker counts)
#   recover— crash-durability storm: the flow service SIGKILLed across
#            multiple generations over one write-ahead journal (with
#            injected poison/stall jobs and torn journal appends, plus a
#            parent-side torn-tail corruption pass); every accepted job
#            must reach exactly one terminal outcome and recovered
#            results must match direct runs
#   all    — everything, in order
#
# CI runs `lint`, `gates`, `server`, and `recover` as parallel jobs.
# Run from anywhere; everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint() {
  echo "== cargo fmt --check"
  cargo fmt --all --check
  # `perf` is its own package outside the workspace, so the workspace runs
  # above and below never reach it; an API change can leave it unformatted
  # or warning.
  cargo fmt --manifest-path perf/Cargo.toml --check

  echo "== cargo clippy (workspace and perf package, all targets, -D warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
  cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings

  echo "== cargo doc (workspace, no deps, -D warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

run_gates() {
  echo "== cargo build --release"
  cargo build --release --workspace

  echo "== cargo build --release (perf benchmark package)"
  # `perf` is its own package outside the workspace; it calls the flow's
  # option structs, so an API change that breaks it must fail here rather
  # than when the benchmark first runs.
  cargo build --release --offline --manifest-path perf/Cargo.toml

  echo "== cargo test --release (perf benchmark package)"
  # Its quartiles, the compare classification, and the metric names, units
  # and bounds it shares with BENCHMARK.json.
  cargo test --release --offline --manifest-path perf/Cargo.toml

  echo "== cargo test -q (tier-1)"
  cargo test -q

  echo "== cargo test (workspace crates: unit tests, proptests, integration tests)"
  # Tier-1 tests only the root package; the crates' own suites (e.g. the
  # compaction and PODEM equivalence proptests) gate here.
  cargo test --workspace --exclude rsyn --release -q

  echo "== parallel safety (suites over process-wide cache roots and server injection plans)"
  # Recording is scoped per thread, so no test takes an observability
  # lock; tests that share the cache root or a server injection plan
  # serialise on locks kept next to that state. Sixteen test threads per
  # binary surface a test that shares state without one.
  cargo test --release -q -p rsyn-observe -p rsyn-cache -p rsyn-server -- --test-threads 16
  cargo test --release -q --test cache_equivalence -- --test-threads 16

  # The gates assert exact manifests; an inherited cache directory would
  # add cache traffic (and counters) the baselines don't carry. Every
  # cache-aware gate below opts in with an explicit per-run directory.
  unset RSYN_CACHE_DIR

  echo "== examples (release build; each must exit 0)"
  # Clippy and the test runs only compile the examples; running them keeps
  # every crate API they call exercised. None writes a file.
  cargo build --release --examples
  for example in quickstart cluster_map aes_flow sparc_exu_resynth; do
    echo "   $example"
    "target/release/examples/$example" >/dev/null
  done

  echo "== manifest smoke gate (smallest benchmark, threads 1 vs 4)"
  # Run the smallest Table I benchmark at two worker counts; the stable part
  # of the manifests must be byte-identical, and the single-thread manifest
  # must match the checked-in baseline exactly (counters and results).
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  CHECK=target/release/check_manifest
  # Every fault is decided (a confirmed test, or a PODEM or SAT proof):
  # no manifest a gate produces may count an Aborted fault.
  DECIDED=(--zero atpg.aborted --zero flow.aborted)

  RSYN_MANIFEST_DIR="$SMOKE_DIR/t1" target/release/table1 --threads 1 sparc_tlu >/dev/null
  RSYN_MANIFEST_DIR="$SMOKE_DIR/t4" target/release/table1 --threads 4 sparc_tlu >/dev/null
  "$CHECK" --determinism "$SMOKE_DIR/t1/manifest-table1.json" "$SMOKE_DIR/t4/manifest-table1.json"
  "$CHECK" --no-timings "${DECIDED[@]}" results/baselines/manifest-table1.json \
    "$SMOKE_DIR/t1/manifest-table1.json"

  RSYN_MANIFEST_DIR="$SMOKE_DIR/gs" target/release/guideline_stats sparc_tlu >/dev/null
  "$CHECK" --no-timings "${DECIDED[@]}" results/baselines/manifest-guideline_stats.json \
    "$SMOKE_DIR/gs/manifest-guideline_stats.json"

  echo "== Table I gate (the paper's four circuits, exact text)"
  # The committed results/table1.txt is the gate: every column of the
  # regenerated table must match it exactly.
  RSYN_MANIFEST_DIR="$SMOKE_DIR/table1" target/release/table1 --threads 2 \
    | diff results/table1.txt -
  "$CHECK" --determinism "${DECIDED[@]}" \
    "$SMOKE_DIR/table1/manifest-table1.json" "$SMOKE_DIR/table1/manifest-table1.json"

  echo "== guideline_stats gate (per-category counts and worst guidelines, exact text)"
  # Translation keeps the first guideline that produced a fault as its
  # provenance; the committed results/guideline_stats.txt pins the counts
  # and the worst-guideline table that depend on it.
  RSYN_MANIFEST_DIR="$SMOKE_DIR/gstats" target/release/guideline_stats \
    | diff results/guideline_stats.txt -
  "$CHECK" --determinism "${DECIDED[@]}" \
    "$SMOKE_DIR/gstats/manifest-guideline_stats.json" "$SMOKE_DIR/gstats/manifest-guideline_stats.json"

  echo "== Fig. 2 gate (sparc_exu cluster series at q = 25%, exact text)"
  RSYN_MANIFEST_DIR="$SMOKE_DIR/fig2" target/release/fig2_phases sparc_exu 25 \
    | diff results/fig2_phases.txt -

  echo "== Table II gate (all twelve circuits at q <= 5: every column but Rtime, manifest exact)"
  # The paper's main experiment. Rtime, the last column, is a ratio of
  # wall times; every other column of every row must match the committed
  # results/table2_q5.txt, and the run's counters and results must match
  # the committed manifest.
  RSYN_MANIFEST_DIR="$SMOKE_DIR/table2" target/release/table2 --max-q 5 --threads 2 \
    sparc_ffu sparc_lsu sparc_tlu systemcaes sparc_ifu aes_core tv80 sparc_exu wb_conmax \
    sparc_fpu sparc_spu des_perf >"$SMOKE_DIR/table2_q5.txt"
  diff <(awk 'NR > 2 { NF-- } { print }' results/table2_q5.txt) \
    <(awk 'NR > 2 { NF-- } { print }' "$SMOKE_DIR/table2_q5.txt")
  "$CHECK" --no-timings "${DECIDED[@]}" results/baselines/manifest-table2.json \
    "$SMOKE_DIR/table2/manifest-table2.json"

  echo "== N-detect baseline gate (sparc_exu test counts at N = 1, 3, 5, exact text)"
  RSYN_MANIFEST_DIR="$SMOKE_DIR/ndetect" target/release/baseline_ndetect sparc_exu \
    | diff results/baseline_ndetect.txt -

  echo "== p1 calibration gate (sparc_exu p1 sweep, exact text)"
  RSYN_MANIFEST_DIR="$SMOKE_DIR/sweep_p1" target/release/sweep_p1 sparc_exu \
    | diff results/sweep_p1.txt -
  "$CHECK" --determinism "${DECIDED[@]}" \
    "$SMOKE_DIR/sweep_p1/manifest-sweep_p1.json" "$SMOKE_DIR/sweep_p1/manifest-sweep_p1.json"

  echo "== library ablation gate (restricted library vs targeted resynthesis, exact text)"
  RSYN_MANIFEST_DIR="$SMOKE_DIR/ablation" target/release/ablation_library \
    | diff results/ablation_library.txt -
  "$CHECK" --determinism "${DECIDED[@]}" \
    "$SMOKE_DIR/ablation/manifest-ablation_library.json" \
    "$SMOKE_DIR/ablation/manifest-ablation_library.json"

  echo "== checkpoint/resume determinism gate"
  # A clean checkpointed run through the resilient flow driver, resumed
  # from its first checkpoint, must re-write the later checkpoints
  # byte-identically and land on the byte-identical stable manifest.
  SMOKE=target/release/resilience_smoke
  RSYN_MANIFEST_DIR="$SMOKE_DIR/cm" "$SMOKE" --threads 4 \
    --checkpoint-dir "$SMOKE_DIR/ck" sparc_tlu >/dev/null
  RSYN_MANIFEST_DIR="$SMOKE_DIR/rm" "$SMOKE" --threads 4 \
    --resume "$SMOKE_DIR/ck/checkpoint-resilience-001.json" \
    --checkpoint-dir "$SMOKE_DIR/rk" sparc_tlu >/dev/null
  for ck in "$SMOKE_DIR"/rk/checkpoint-resilience-[0-9]*.json; do
    "$CHECK" --determinism "$SMOKE_DIR/ck/$(basename "$ck")" "$ck"
  done
  "$CHECK" --determinism "$SMOKE_DIR/cm/manifest-resilience.json" \
    "$SMOKE_DIR/rm/manifest-resilience.json"

  echo "== warm-cache gate (cold vs warm runs over a shared RSYN_CACHE_DIR)"
  # A cold run with the cross-run cache enabled must match the cache-free
  # baseline exactly outside the `cache.*` counter namespace; a warm second
  # run (same cache directory, fresh process) must hit the verdict cache
  # and still produce the byte-identical stable manifest — at the cold
  # run's thread count and at a different one. Finally, corrupting every
  # on-disk entry must be detected, degrade to recompute, and leave the
  # manifest unchanged.
  CACHE_DIR="$SMOKE_DIR/cache"
  REQUIRE_HITS=(--require cache.hit)
  RSYN_CACHE_DIR="$CACHE_DIR" RSYN_MANIFEST_DIR="$SMOKE_DIR/c1" \
    target/release/table1 --threads 1 sparc_tlu >/dev/null
  "$CHECK" --no-timings --ignore cache. "${DECIDED[@]}" \
    results/baselines/manifest-table1.json "$SMOKE_DIR/c1/manifest-table1.json"
  RSYN_CACHE_DIR="$CACHE_DIR" RSYN_MANIFEST_DIR="$SMOKE_DIR/w1" \
    target/release/table1 --threads 1 sparc_tlu >/dev/null
  "$CHECK" --determinism --ignore cache. "${REQUIRE_HITS[@]}" "${DECIDED[@]}" \
    "$SMOKE_DIR/c1/manifest-table1.json" "$SMOKE_DIR/w1/manifest-table1.json"
  RSYN_CACHE_DIR="$CACHE_DIR" RSYN_MANIFEST_DIR="$SMOKE_DIR/w4" \
    target/release/table1 --threads 4 sparc_tlu >/dev/null
  "$CHECK" --determinism --ignore cache. "${REQUIRE_HITS[@]}" "${DECIDED[@]}" \
    "$SMOKE_DIR/c1/manifest-table1.json" "$SMOKE_DIR/w4/manifest-table1.json"
  # Corruption: truncate every stored entry by one byte (breaks the payload
  # checksum), so every disk lookup must report Corrupt and recompute.
  find "$CACHE_DIR" -name '*.bin' -exec truncate -s -1 {} +
  RSYN_CACHE_DIR="$CACHE_DIR" RSYN_MANIFEST_DIR="$SMOKE_DIR/wc" \
    target/release/table1 --threads 1 sparc_tlu >/dev/null
  "$CHECK" --determinism --ignore cache. --require cache.corrupt "${DECIDED[@]}" \
    "$SMOKE_DIR/c1/manifest-table1.json" "$SMOKE_DIR/wc/manifest-table1.json"
  # Every analysis a process runs is stored, not only its first: a warm
  # default Table I (four circuits, four analyses, one process) must serve
  # all four from the cache — no miss — and print the committed table.
  TABLE1_CACHE="$SMOKE_DIR/cache-table1"
  RSYN_CACHE_DIR="$TABLE1_CACHE" RSYN_MANIFEST_DIR="$SMOKE_DIR/t1c" \
    target/release/table1 --threads 2 >/dev/null
  RSYN_CACHE_DIR="$TABLE1_CACHE" RSYN_MANIFEST_DIR="$SMOKE_DIR/t1w" \
    target/release/table1 --threads 2 | diff results/table1.txt -
  "$CHECK" --determinism --ignore cache. --require cache.hit --zero cache.miss "${DECIDED[@]}" \
    "$SMOKE_DIR/t1c/manifest-table1.json" "$SMOKE_DIR/t1w/manifest-table1.json"

  echo "== perf-trajectory gate (structured tracing + BENCH_flow regression bands)"
  # A traced flow run must emit a non-empty Chrome trace, its BENCH_flow.json
  # deterministic section (counters, histograms, results) must be
  # byte-identical across worker counts, and the single-thread manifest must
  # stay inside the regression bands of the checked-in trajectory baseline:
  # exact on counters/results, a 200x band on span wall times (generous —
  # CI machines vary wildly; tighten to catch structural regressions only),
  # catastrophic-only 1000x on everything else volatile. Each run gets its
  # own fresh cache directory: both run cold, so the deterministic
  # `cache.miss` counter agrees and the `span.cache.*` timings exist.
  TRACE=target/release/trace_report
  RSYN_CACHE_DIR="$SMOKE_DIR/pc1" "$TRACE" --threads 1 --out "$SMOKE_DIR/f1" sparc_tlu >/dev/null
  RSYN_CACHE_DIR="$SMOKE_DIR/pc4" "$TRACE" --threads 4 --out "$SMOKE_DIR/f4" sparc_tlu >/dev/null
  "$CHECK" --determinism "$SMOKE_DIR/f1/BENCH_flow.json" "$SMOKE_DIR/f4/BENCH_flow.json"
  for t in "$SMOKE_DIR"/f1/trace.json "$SMOKE_DIR"/f4/trace.json; do
    grep -q '"ph":"X"' "$t" || { echo "perf gate FAILED: $t has no complete events"; exit 1; }
  done
  # The simulation kernel and the cache layer must stay inside the measured
  # trajectory: their spans record (volatile) wall times in every traced
  # run. If they vanish, the corresponding layer was silently bypassed.
  for span in span.sim.build.wall_ms span.sim.good.wall_ms span.cache.lookup.wall_ms; do
    grep -q "\"$span\"" "$SMOKE_DIR/f1/BENCH_flow.json" \
      || { echo "perf gate FAILED: $span missing from BENCH_flow.json"; exit 1; }
  done
  "$CHECK" --timing-tolerance 1000 --band span.=200 --band run.wall_ms=200 "${DECIDED[@]}" \
    results/baselines/BENCH_flow.json "$SMOKE_DIR/f1/BENCH_flow.json"
}

run_server() {
  echo "== cargo build --release (server storm + event tail + manifest checker)"
  cargo build --release -p rsyn-bench --bin server_storm --bin flow_tail --bin check_manifest

  # Same hygiene as the gates: the storm's equivalence phase compares
  # server results against direct runs, so neither side may see an
  # inherited cross-run cache (a cache hit would also skip the ATPG
  # shard events the stream gate expects).
  unset RSYN_CACHE_DIR

  echo "== flow-service storm gate (injection, preemption, equivalence, event stream)"
  # The bin asserts its own gates: zero lost jobs (conservation law over
  # the scheduling stats), every armed server fate (worker crashes,
  # queue-full sheds) fired at its exact ordinal count, preempted jobs resumed from their checkpoints, every
  # completed job's result digest byte-identical to a direct
  # rsyn_core::run of the same (netlist, options), the live event stream
  # conserving (one terminal per admission), and the per-job stream
  # digest byte-identical at 1/2/8 workers. On top of that, the
  # manifest must carry nonzero shed/retry/resume counters — the three
  # recovery paths a refactor could silently disconnect.
  STORM_DIR="$(mktemp -d)"
  trap 'rm -rf "$STORM_DIR"' EXIT
  RSYN_MANIFEST_DIR="$STORM_DIR" target/release/server_storm --inject --threads 4 \
    --work-dir "$STORM_DIR/work" --events-out "$STORM_DIR/events.ndjson"
  target/release/check_manifest --determinism \
    --require server.shed --require server.retry --require server.resume \
    "$STORM_DIR/manifest-server_storm.json" "$STORM_DIR/manifest-server_storm.json"

  echo "== event-conservation gate (flow_tail over the exported NDJSON stream)"
  # The exported stream must replay to the same conservation verdict
  # offline: flow_tail exits nonzero on any admitted job without exactly
  # one terminal per admission, non-monotone or gappy iteration
  # progress, lag markers, or malformed NDJSON lines.
  target/release/flow_tail --digest-out "$STORM_DIR/events.digest" \
    "$STORM_DIR/events.ndjson" >/dev/null
}

run_recover() {
  echo "== cargo build --release (crash storm + manifest checker)"
  cargo build --release -p rsyn-bench --bin crash_storm --bin check_manifest

  # Same hygiene as the server stage: the equivalence pass compares
  # recovered results against direct runs, so neither side may see an
  # inherited cross-run cache.
  unset RSYN_CACHE_DIR

  echo "== crash-durability gate (SIGKILL generations, journal recovery, conservation)"
  # The bin asserts its own gates: >= 3 kill/recover generations over one
  # write-ahead journal, every accepted job terminal exactly once (no
  # losses, no conflicting duplicates, no invented jobs), quarantine
  # fired for exactly the injected poison job, the stalled job reclaimed
  # by the watchdog, and recovered result fingerprints byte-identical to
  # direct rsyn_core::run digests — through injected torn/truncated
  # journal appends and a parent-side torn-tail corruption. On top, the
  # manifest must carry nonzero recovered-jobs and journal-compaction
  # counters: recovery (or the compaction it performs on a clean replay)
  # that never fires is a gate failure, not a quiet no-op.
  RECOVER_DIR="$(mktemp -d)"
  trap 'rm -rf "$RECOVER_DIR"' EXIT
  RSYN_MANIFEST_DIR="$RECOVER_DIR" target/release/crash_storm --inject --threads 4 \
    --work-dir "$RECOVER_DIR/work"
  target/release/check_manifest --determinism \
    --require server.recovered.jobs --require server.journal.compacted \
    "$RECOVER_DIR/manifest-crash_storm.json" "$RECOVER_DIR/manifest-crash_storm.json"
}

STAGE="${1:-all}"
case "$STAGE" in
  lint) run_lint ;;
  gates) run_gates ;;
  server) run_server ;;
  recover) run_recover ;;
  all)
    run_lint
    run_gates
    run_server
    run_recover
    ;;
  *)
    echo "usage: $0 [lint|gates|server|recover|all]" >&2
    exit 2
    ;;
esac

echo "verify ($STAGE): OK"
