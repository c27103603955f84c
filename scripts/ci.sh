#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, the complete test suite
# and a criterion smoke pass (every benchmark body runs once).
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release
# The store gates below run hc-store's checker, which the root build
# does not produce.
cargo build --release -p hc-store --bin storecheck

echo "== cargo test"
cargo test --workspace -q

echo "== kernel x frontend matrix agreement suite (five backends, full registry)"
# Release mode: the debug workspace run above covers dct8/idct4/fir32 but
# skips the 16x16 IDCT (tens of minutes under the un-optimized
# interpreter); this pass sweeps the complete registry.
cargo test -q --release --test kernel_matrix

echo "== criterion smoke (each bench body once)"
cargo bench -p hc-bench -- --test

echo "== perfsnap smoke (batched engine must beat scalar compiled)"
HC_THREADS=2 ./target/release/perfsnap >/dev/null
awk -F'[:,]' '
  /"batched_speedup_vs_compiled"/ {
    seen = 1
    if ($2 + 0 < 1.0) {
      print "batched engine slower than scalar compiled: " $2; exit 1
    }
    print "batched speedup vs compiled:" $2
  }
  END { if (!seen) { print "batched_speedup_vs_compiled missing from BENCH_sim.json"; exit 1 } }
' BENCH_sim.json

echo "== perfsnap smoke (per-cone JIT must beat the tape interpreter)"
if [ "$(uname -m)" = "x86_64" ]; then
  awk -F'[:,]' '
    /"native_speedup_vs_compiled"/ {
      seen = 1
      if ($2 + 0 < 3.0) {
        print "native JIT too slow vs compiled tape: " $2 "x (need >= 3.0)"; exit 1
      }
      print "native speedup vs compiled:" $2 "x"
    }
    END { if (!seen) { print "native_speedup_vs_compiled missing from BENCH_sim.json"; exit 1 } }
  ' BENCH_sim.json
else
  echo "skipping native JIT gate: $(uname -m) is not x86_64 (engine falls back to the tape interpreter)"
fi

echo "== perfsnap smoke (vector JIT must beat the interpreted batched engine)"
# The engine-only ratio, not the harness one: AXI protocol simulation is
# paid identically by both batched engines and would dilute the gate.
# perfsnap's run already contains the A/B twin — the interpreted figures
# come from an engine built under an HC_NO_NATIVE_BATCHED override.
if [ "$(uname -m)" = "x86_64" ] && grep -q avx2 /proc/cpuinfo; then
  awk -F'[:,]' '
    /"native_batched_active"/ {
      if ($2 !~ /true/) { print "vector JIT inactive on an AVX2 host"; exit 1 }
    }
    /"native_batched_speedup_vs_batched"/ {
      seen = 1
      if ($2 + 0 < 2.0) {
        print "vector JIT too slow vs interpreted batched engine: " $2 "x (need >= 2.0)"; exit 1
      }
      print "native batched speedup vs interpreted batched (engine-only):" $2 "x"
    }
    END { if (!seen) { print "native_batched_speedup_vs_batched missing from BENCH_sim.json"; exit 1 } }
  ' BENCH_sim.json
  echo "== forced-fallback A/B twin (differential suite under HC_NO_NATIVE_BATCHED=1)"
  # The whole file runs, including the FSM commit proptest
  # (vector_tier_fsm_commit_matches_interpreter).
  HC_NO_NATIVE_BATCHED=1 cargo test -q -p hc-sim --test native_batched_differential
else
  echo "skipping vector JIT gate: host has no AVX2 (engine falls back to the interpreted batched path)"
fi

echo "== perfsnap smoke (tape backend optimizer must pay for itself)"
awk -F'[:,]' '
  /"tapeopt_speedup"/ {
    seen = 1
    if ($2 + 0 < 1.2) {
      print "tape-opt build too slow vs HC_NO_TAPE_OPT=1 build: " $2 "x (need >= 1.2)"; exit 1
    }
    print "tape-opt speedup vs raw tape:" $2 "x"
  }
  END { if (!seen) { print "tapeopt_speedup missing from BENCH_sim.json"; exit 1 } }
' BENCH_sim.json
awk '
  # The first "fused" key belongs to the top-level tapeopt object — the
  # measured IDCT design must show real superinstruction fusion.
  /"fused"/ && !seen {
    seen = 1
    split($0, kv, /"fused": */); split(kv[2], v, /[,}]/)
    if (v[1] + 0 <= 0) { print "no superinstructions fused on the IDCT design"; exit 1 }
    print "superinstructions fused on the IDCT design: " v[1]
  }
  END { if (!seen) { print "tapeopt.fused missing from BENCH_sim.json"; exit 1 } }
' BENCH_sim.json

echo "== perfsnap matrix gate (every kernel x frontend cell present and agreeing)"
# 4 registry kernels x 7 frontends; each entry is emitted only after
# measure_cell verified the cell bit-exact against the kernel's golden
# model, and must carry a positive simulated throughput.
awk -v want=28 '
  /"matrix\./ {
    n++
    if (!/"agreement": true/) { print "matrix cell without agreement: " $0; exit 1 }
    split($0, kv, /"throughput_mops": */); split(kv[2], v, /[,}]/)
    if (v[1] + 0 <= 0) { print "matrix cell without throughput: " $0; exit 1 }
  }
  END {
    if (n != want) { print "expected " want " matrix cells in BENCH_sim.json, found " n; exit 1 }
    print "matrix cells OK: " n " kernel x frontend entries agree with golden"
  }
' BENCH_sim.json

echo "== perfsnap smoke (memoized fig1 sweep must beat the cold pipeline)"
awk -F'[:,]' '
  /"fig1_speedup"/  { speedup = $2 + 0; seen_s = 1 }
  /"threads"/       { threads = $2 + 0; seen_t = 1 }
  END {
    if (!seen_s || !seen_t) { print "fig1_speedup/threads missing from BENCH_sim.json"; exit 1 }
    if (threads >= 2 && speedup < 1.2) {
      print "fig1 parallel sweep too slow: " speedup "x on " threads " workers (need >= 1.2)"; exit 1
    }
    print "fig1 sweep speedup: " speedup "x on " threads " workers"
  }
' BENCH_sim.json

echo "== traced perfsnap (HC_TRACE must emit a valid, complete Chrome trace)"
# Keep the untraced run as the recorded benchmark artifact; the traced
# rerun exists only to validate the trace and bound the tracing cost.
extract_rate() {
  awk -F'[:,]' '/"compiled_cycles_per_sec"/ { print $2 + 0 }' "$1"
}
baseline_rate="$(extract_rate BENCH_sim.json)"
cp BENCH_sim.json BENCH_sim_untraced.json
HC_TRACE=trace.json HC_THREADS=2 ./target/release/perfsnap >/dev/null
./target/release/tracecheck trace.json
traced_rate="$(extract_rate BENCH_sim.json)"
mv BENCH_sim_untraced.json BENCH_sim.json
rm -f trace.json
awk -v base="$baseline_rate" -v traced="$traced_rate" 'BEGIN {
  if (base + 0 <= 0 || traced + 0 <= 0) {
    print "compiled_cycles_per_sec missing from a perfsnap run"; exit 1
  }
  ratio = traced / base
  if (ratio < 0.95) {
    printf "tracing costs too much: %.0f -> %.0f cycles/sec (%.3fx, need >= 0.95)\n", base, traced, ratio
    exit 1
  }
  printf "tracing overhead OK: %.0f -> %.0f cycles/sec (%.3fx)\n", base, traced, ratio
}'

echo "== traced table2 + fig1 (HC_TRACE must flush from every tool, not just perfsnap)"
# Run in a scratch directory so the traced runs leave the committed CSVs
# alone; then compare what they wrote against those CSVs: Table II and
# Fig. 1 go through the one measurement pipeline and must reproduce
# byte for byte.
repo="$PWD"
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && HC_TRACE=table2.trace.json "$repo/target/release/table2" >/dev/null)
(cd "$trace_dir" && HC_TRACE=fig1.trace.json "$repo/target/release/fig1" >/dev/null)
./target/release/tracecheck "$trace_dir/table2.trace.json"
./target/release/tracecheck "$trace_dir/fig1.trace.json"
cmp "$trace_dir/table2.csv" table2.csv
cmp "$trace_dir/fig1.csv" fig1.csv
echo "table2.csv and fig1.csv reproduced byte for byte"
rm -rf "$trace_dir"

echo "== hc-serve load test (A/B: sharded front-half cache vs single mutex)"
# Two separate processes because the shard count is pinned at first cache
# touch: a baseline run forced to one shard, then the sharded default.
# Both replay 64 concurrent mixed clients (cache-hot sweeps, cache-cold
# modules, DSE bursts) and must finish error-free.
HC_SERVE_THREADS=4 HC_CACHE_SHARDS=1 ./target/release/loadgen \
  --clients 64 --requests 4 --key serve_single_shard --skip-stress
HC_SERVE_THREADS=4 ./target/release/loadgen \
  --clients 64 --requests 4 --key serve
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
  /^  "serve_single_shard": \{/ { section = "base" }
  /^  "serve": \{/              { section = "sharded" }
  section == "base" {
    if (/"errors"/)         { split($0, v, /[:,]/); base_err = v[2] + 0 }
    if (/"ok"/)             { split($0, v, /[:,]/); base_ok = v[2] + 0 }
    if (/"throughput_rps"/) { split($0, v, /[:,]/); base_rps = v[2] + 0 }
    if (/"hit_rate"/)       { split($0, v, /[:,]/); base_hit = v[2] + 0; seen_base = 1 }
  }
  section == "sharded" {
    if (/"errors"/ && !seen_serve_err)   { split($0, v, /[:,]/); err = v[2] + 0; seen_serve_err = 1 }
    if (/"ok"/)             { split($0, v, /[:,]/); ok = v[2] + 0 }
    if (/"throughput_rps"/) { split($0, v, /[:,]/); rps = v[2] + 0 }
    if (/"hit_rate"/)       { split($0, v, /[:,]/); hit = v[2] + 0 }
    if (/"p99_ms"/)         { split($0, v, /[:,]/); p99 = v[2] + 0 }
    if (/"speedup"/)        { split($0, v, /[:,]/); stress = v[2] + 0 }
    seen_serve = 1
  }
  END {
    if (!seen_base || !seen_serve) { print "serve/serve_single_shard missing from BENCH_sim.json"; exit 1 }
    if (base_err + err != 0) { print "loadgen clients saw errors: " base_err "+" err; exit 1 }
    if (ok != 256 || base_ok != 256) { print "loadgen lost requests: " base_ok "/" ok " of 256"; exit 1 }
    if (p99 > 8000) { print "serve p99 too slow: " p99 " ms (need <= 8000)"; exit 1 }
    if (hit < base_hit - 0.05) { print "sharded hit rate regressed: " hit " vs " base_hit; exit 1 }
    if (rps < 0.85 * base_rps) { print "sharded cache slower than single mutex: " rps " vs " base_rps " req/s"; exit 1 }
    if (ncpu >= 2 && stress < 0.95) { print "sharded stress A/B lost to the single mutex on " ncpu " cores: " stress "x"; exit 1 }
    printf "serve load OK: %.0f req/s (single-mutex %.0f), p99 %.0f ms, hit rate %.3f (base %.3f), stress %.2fx on %d cpu(s)\n", \
      rps, base_rps, p99, hit, base_hit, stress, ncpu
  }
' BENCH_sim.json

echo "== persistent store warm start (perfsnap A/B against a shared HC_STORE_DIR)"
# Two processes sharing one store directory: the cold run fills it, the
# warm run must answer nearly the whole fig. 1 front-half sweep from disk.
# The canonical BENCH_sim.json stays the store-less run recorded above.
store_dir="$(mktemp -d)"
cp BENCH_sim.json BENCH_sim_prestore.json
HC_STORE_DIR="$store_dir" HC_THREADS=2 ./target/release/perfsnap >/dev/null
cold_first="$(awk -F'[:,]' '/"fig1_first_sweep_seconds"/ { print $2 + 0 }' BENCH_sim.json)"
HC_STORE_DIR="$store_dir" HC_THREADS=2 ./target/release/perfsnap >/dev/null
warm_first="$(awk -F'[:,]' '/"fig1_first_sweep_seconds"/ { print $2 + 0 }' BENCH_sim.json)"
warm_rate="$(awk -F'[:,]' '/"store_front_hit_rate"/ { print $2 + 0 }' BENCH_sim.json)"
mv BENCH_sim_prestore.json BENCH_sim.json
./target/release/storecheck "$store_dir"
awk -v cold="$cold_first" -v warm="$warm_first" -v rate="$warm_rate" 'BEGIN {
  if (cold + 0 <= 0 || warm + 0 <= 0) {
    print "fig1_first_sweep_seconds missing from a perfsnap run"; exit 1
  }
  if (rate < 0.95) {
    printf "warm front-half hit rate too low: %.4f (need >= 0.95)\n", rate; exit 1
  }
  if (warm > 0.5 * cold) {
    printf "warm first sweep too slow: %.3fs vs %.3fs cold (need <= 0.5x)\n", warm, cold
    exit 1
  }
  printf "warm start OK: first sweep %.3fs -> %.3fs (%.2fx), front hit rate %.4f\n", \
    cold, warm, cold / warm, rate
}'
rm -rf "$store_dir"

echo "== hc-serve persistent store A/B (cold vs warm across two processes)"
# Same shape as the warm-start gate, through the HTTP service: the warm
# server process must answer the cold process's deterministic cold-module
# synths and sweep measurements from the shared store, and the store must
# still pass a CRC sweep after concurrent writes.
serve_store="$(mktemp -d)"
HC_SERVE_THREADS=4 HC_STORE_DIR="$serve_store" ./target/release/loadgen \
  --clients 16 --requests 4 --key serve_store_cold --skip-stress
HC_SERVE_THREADS=4 HC_STORE_DIR="$serve_store" ./target/release/loadgen \
  --clients 16 --requests 4 --key serve_store_warm --skip-stress
./target/release/storecheck "$serve_store"
rm -rf "$serve_store"
awk '
  /^  "serve_store_cold": \{/ { section = "cold" }
  /^  "serve_store_warm": \{/ { section = "warm" }
  section == "cold" {
    if (/"errors"/)        { split($0, v, /[:,]/); cold_err = v[2] + 0 }
    if (/"store_enabled"/) { seen_cold = 1 }
  }
  section == "warm" {
    if (/"errors"/)           { split($0, v, /[:,]/); warm_err = v[2] + 0 }
    if (/"store_enabled"/)    { enabled = ($0 ~ /true/); seen_warm = 1 }
    if (/"store_hits"/)       { split($0, v, /[:,]/); shits = v[2] + 0 }
    if (/"store_front_hits"/) { split($0, v, /[:,]/); sfront = v[2] + 0 }
  }
  END {
    if (!seen_cold || !seen_warm) { print "serve_store_cold/warm missing from BENCH_sim.json"; exit 1 }
    if (cold_err + warm_err != 0) { print "store A/B clients saw errors: " cold_err "+" warm_err; exit 1 }
    if (!enabled) { print "warm loadgen ran without the store enabled"; exit 1 }
    if (shits + sfront < 1) { print "warm server never hit the persistent store"; exit 1 }
    printf "serve store A/B OK: warm run answered %d lookups from the store (%d front records)\n", \
      shits, sfront
  }
' BENCH_sim.json

echo "CI OK"
