#!/usr/bin/env bash
# CI entry point: build, test, lint, and smoke-run the engine benchmark.
# Everything here is deterministic; the bench smoke also regenerates
# BENCH_engine.json so regressions in the engine hot path show up as a
# speedup drop in the artifact.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --workspace

echo "==> rustfmt (first-party crates; compat/ shims are vendored as-is)"
cargo fmt --check -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench

echo "==> tests"
cargo test -q --workspace

echo "==> clippy (first-party crates; compat/ shims are vendored as-is)"
cargo clippy --all-targets -p hiway -p hiway-obs -p hiway-sim -p hiway-hdfs -p hiway-yarn \
  -p hiway-format -p hiway-lang -p hiway-provdb -p hiway-core \
  -p hiway-workloads -p hiway-recipes -p hiway-bench -- -D warnings

echo "==> engine benchmark smoke"
./target/release/bench_engine --quick BENCH_engine.json
cat BENCH_engine.json

echo "==> observability overhead smoke"
./target/release/bench_obs --quick BENCH_obs.json
cat BENCH_obs.json

echo "==> provenance store benchmark smoke"
./target/release/bench_provdb --quick BENCH_provdb.json
cat BENCH_provdb.json

echo "==> trace determinism gate (same seed, twice, byte-identical)"
./target/release/hiway-trace --out-dir /tmp/hiway_trace1 > /dev/null
./target/release/hiway-trace --out-dir /tmp/hiway_trace2 > /dev/null
for f in trace.perfetto.json trace.events.jsonl trace.gantt.txt; do
  if ! cmp -s "/tmp/hiway_trace1/$f" "/tmp/hiway_trace2/$f"; then
    echo "FAIL: $f differs between two identically-seeded runs" >&2
    exit 1
  fi
done
echo "trace artifacts byte-identical across runs"

echo "==> experiment golden gates (each bin twice, byte-identical, matches results/)"
# Fig 4, Table 2 and Fig 6 take about 30 s each and are not gated yet.
for bin in table1 fig8 fig9 ablation multiwf chaos resume; do
  ./target/release/$bin > "/tmp/${bin}_run1.txt"
  ./target/release/$bin > "/tmp/${bin}_run2.txt"
  if ! cmp -s "/tmp/${bin}_run1.txt" "/tmp/${bin}_run2.txt"; then
    echo "FAIL: $bin experiment is not deterministic across runs" >&2
    diff "/tmp/${bin}_run1.txt" "/tmp/${bin}_run2.txt" >&2 || true
    exit 1
  fi
  if ! cmp -s "/tmp/${bin}_run1.txt" "results/$bin.txt"; then
    echo "FAIL: $bin output drifted from results/$bin.txt" >&2
    diff "results/$bin.txt" "/tmp/${bin}_run1.txt" >&2 || true
    exit 1
  fi
  echo "$bin deterministic, matches results/$bin.txt"
done

echo "CI OK"
