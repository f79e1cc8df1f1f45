#!/usr/bin/env bash
# CI entry point: build, test, lint, run the benchmarks, and run the trace
# and experiment golden gates. Everything here is deterministic apart from
# the timings; bench_e2e regenerates BENCH_e2e.json (each experiment's wall
# time and per-section split, Table 2's fill counts and the tracing
# overhead), so regressions show up in the artifact. Gate outputs are left
# in trace_run1/, trace_run2/ and experiment_runs/ for upload.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --workspace

echo "==> rustfmt (first-party crates and the rand shim; compat/proptest is vendored as-is)"
cargo fmt --check -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench -p rand

echo "==> tests"
cargo test -q --workspace

echo "==> engine lockstep proptest (2048 cases, release)"
# The completion lookup decides every virtual timestamp, so the lockstep
# against the naive engine gets more cases per push than the in-file 192.
PROPTEST_CASES=2048 cargo test --release -q -p hiway-sim --test incremental_vs_reference

echo "==> max-min fill oracle proptests (2048 cases, release)"
# Every fill that replays the previous fill's rounds is held to a fresh
# full scan bit for bit, with keys freed and reused between fills.
PROPTEST_CASES=2048 cargo test --release -q -p hiway-sim --lib netfair

echo "==> RM grant oracle proptest (2048 cases, release)"
# The grant walk reads each leaf's requests from its range of the queue
# and stops once no alive node fits any pending shape; it is held to the
# snapshot full scan on every round: same containers, same spread cursor.
PROPTEST_CASES=2048 cargo test --release -q -p hiway-yarn --lib rm::tests::change_flag_matches_scanning_every_round

echo "==> ChaCha refill oracle proptests (2048 cases, release)"
# Every random draw in the workspace comes from StdRng; the eight-lane AVX2
# refill is held to the scalar block function word for word, at counters
# next to a carry and the u64 wrap, and under mixed draws that straddle
# every buffer boundary.
PROPTEST_CASES=2048 cargo test --release -q -p rand --lib lane_oracle

echo "==> trace render oracle proptest (2048 cases, release)"
# Each manager's trace is rendered from the store's own documents by
# position; it is held to write_trace of the events it recorded, with two
# managers, memo keys and imports interleaved on one store.
PROPTEST_CASES=2048 cargo test --release -q -p hiway-core --test prop_trace_render

echo "==> chaos proptest (256 cases, debug: invariants checked before every fault)"
# Chaos drops attempts in every phase, so this exercises the driver's one
# stale-event guard (an event whose attempt is gone) far more than the
# in-file 12 cases do. About 10 s.
PROPTEST_CASES=256 cargo test -q -p hiway-core --test prop_chaos

echo "==> perfbench (builds the benchmark against the workspace, runs its small-shape tests)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness smoke (each workload at paper scale, --seconds 1)"
# A pass whose workflow digest drifts from perfbench/digests.txt counts as
# failed, so a behaviour change in any layer a workload uses fails here.
mkdir -p experiment_runs
for w in snv-cuneiform montage-heft snv-static-weak; do
  last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seconds 1 2> "experiment_runs/perfbench.$w.log" | tail -n 1) || true
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) echo "perfbench $w correct" ;;
    *)
      echo "FAIL: perfbench $w is not correct: $last" >&2
      cat "experiment_runs/perfbench.$w.log" >&2
      exit 1
      ;;
  esac
done

echo "==> clippy (first-party crates and the rand shim; compat/proptest is vendored as-is)"
# The rand shim holds the hand-written AVX2 ChaCha kernel, so it is linted
# like first-party code; it also requires a SAFETY comment on every unsafe
# block.
cargo clippy --all-targets -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench -p rand -- -D warnings

echo "==> end-to-end benchmark (the ten experiments serially, each matched against results/)"
# Two passes, profiler off then on; about 9 s per pass on 2 cores. Exits
# non-zero if any experiment's serial output drifts from its golden file.
./target/release/bench_e2e BENCH_e2e.json

echo "==> trace determinism gate (same seed, twice, byte-identical)"
./target/release/hiway-trace --out-dir trace_run1 > /dev/null
./target/release/hiway-trace --out-dir trace_run2 > /dev/null
for f in trace.perfetto.json trace.events.jsonl trace.gantt.txt; do
  if ! cmp -s "trace_run1/$f" "trace_run2/$f"; then
    echo "FAIL: $f differs between two identically-seeded runs" >&2
    exit 1
  fi
done
echo "trace artifacts byte-identical across runs"

echo "==> experiment golden gates (each bin twice, byte-identical, matches results/)"
# Every experiment bin; on 2 cores Fig 4 takes about 3 s, Table 2 about
# 2 s and Fig 6 about 1.3 s, the rest about 0.8 s together.
for bin in table1 fig4 table2 fig6 fig8 fig9 ablation multiwf chaos resume; do
  ./target/release/$bin > "experiment_runs/$bin.txt"
  ./target/release/$bin > "experiment_runs/$bin.run2.txt"
  if ! cmp -s "experiment_runs/$bin.txt" "experiment_runs/$bin.run2.txt"; then
    echo "FAIL: $bin experiment is not deterministic across runs" >&2
    diff "experiment_runs/$bin.txt" "experiment_runs/$bin.run2.txt" >&2 || true
    exit 1
  fi
  if ! cmp -s "experiment_runs/$bin.txt" "results/$bin.txt"; then
    echo "FAIL: $bin output drifted from results/$bin.txt" >&2
    diff "results/$bin.txt" "experiment_runs/$bin.txt" >&2 || true
    exit 1
  fi
  echo "$bin deterministic, matches results/$bin.txt"
done

echo "CI OK"
