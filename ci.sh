#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repo root before committing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

# Seeded stress: each row below runs in release mode once per seed
# (RNA_CHAOS_SEED reseeds the scenario without recompiling), under a
# watchdog so a protocol deadlock fails CI with a timeout instead of
# hanging it. Columns: stanza | extra env | package | test args | timeout.
#
# * chaos — the fault, chaos and fault-injection suites.
# * recovery — controller kills, checkpoint/resume roundtrips and
#   PS-shard failover.
# * churn — mid-run joins, graceful retirements, evictions and the online
#   zeta-split regroup in all three worlds.
# * compressed-hop — the worker-side wire codec over real sockets, across
#   two lossy codecs (RNA_HOP_CODEC); every combination must complete its
#   rounds with frame-exact socket-measured byte totals.
# * coordinator-kill — coordinator kill + restart-from-disk with worker
#   reconnects, hostile-handshake rejection, the same-seed counter replay,
#   and the chaos matrix through the real-socket fault proxy (the seed
#   reseeds the proxy's plan).
SEEDED_STRESS=(
  "chaos||rna-experiments|--test chaos --test fault_tolerance|600"
  "chaos||rna-runtime|--test fault_injection|600"
  "recovery||rna-experiments|--test recovery|600"
  "churn||rna-experiments|--test churn|600"
  "compressed-hop|RNA_HOP_CODEC=fp16|rna-runtime|--test process_world compressed_hop_smoke|600"
  "compressed-hop|RNA_HOP_CODEC=int8|rna-runtime|--test process_world compressed_hop_smoke|600"
  "coordinator-kill||rna-runtime|--test coordinator_death|600"
)
echo "==> seeded stress (3 seeds per row, --release, watchdogged)"
for row in "${SEEDED_STRESS[@]}"; do
  IFS='|' read -r stanza extra_env package test_args limit <<<"${row}"
  for seed in 11 23 37; do
    echo "    ${stanza} seed ${seed} ${extra_env} ${package} ${test_args}"
    # shellcheck disable=SC2086 # extra_env and test_args split on purpose
    env RNA_CHAOS_SEED="${seed}" ${extra_env} timeout "${limit}" \
      cargo test -q --release -p "${package}" ${test_args}
  done
done

echo "==> faults bench smoke (watchdogged)"
timeout 900 cargo bench -q --bench faults

# Recovery floor: checkpoint roundtrips must be bit-exact and both worlds
# must survive their injected controller deaths, measured fresh in this
# run. The report lands at the repo root as the tracked baseline.
echo "==> recovery bench (--check, writes BENCH_PR4.json)"
timeout 600 cargo run -q --release -p rna-bench --bin recovery -- \
  --check --out BENCH_PR4.json

# Data-path perf floor: the fused reduce kernels must beat the seed's
# naive clone-scale-add path by >=2x, measured fresh in this run. The
# report lands at the repo root as the tracked baseline.
echo "==> data-path bench (--check, writes BENCH_PR3.json)"
timeout 600 cargo run -q --release -p rna-bench --bin datapath -- \
  --check --out BENCH_PR3.json

# Wire-compression floor: fp16 must shrink the gradient wire >=1.9x and
# top-k (k=10%) >=3.5x versus lossless, lossy runs must finish no later on
# the virtual clock, measured fresh in this run. The report lands at the
# repo root as the tracked baseline.
echo "==> codec bench (--check, writes BENCH_PR5.json)"
timeout 600 cargo run -q --release -p rna-bench --bin codec -- \
  --check --out BENCH_PR5.json

# Elasticity floor: the admission snapshot must roundtrip bit-exactly,
# the gray-straggler run must commit a topology swap that rehomes PS keys
# without eating its round budget, and the threaded churn run must account
# every membership event, measured fresh in this run. The report lands at
# the repo root as the tracked baseline.
echo "==> churn bench (--check, writes BENCH_PR7.json)"
timeout 600 cargo run -q --release -p rna-bench --bin churn -- \
  --check --out BENCH_PR7.json

# Scale + SIMD floor: the 100k-worker DES round must complete, the AVX2
# codec kernels must hold their GB/s floors where the host has them, and
# same-seed replays must be bit-identical across scalar, SIMD, and
# chunk-parallel dispatch. The report lands at the repo root as the
# tracked baseline.
echo "==> scale bench (--check, writes BENCH_scale.json)"
timeout 600 cargo run -q --release -p rna-bench --bin scale -- \
  --check --out BENCH_scale.json

# Compressed-hop floor: full process-world runs per codec with the byte
# totals measured at the coordinator's sockets, not charged by formula.
# The check fails unless fp16 wire bytes stay <= 0.55x the lossless
# equivalent, the fp16 round rate stays within 10% of raw-f32 (the codec
# runs in the worker, off the coordinator's critical path), and the
# encode-into-frame path never loses to encode-then-memcpy. The report
# lands at the repo root as the tracked baseline.
echo "==> compressed-hop bench (--check, writes BENCH_PR10.json)"
timeout 600 cargo build -q --release -p rna-runtime --bin rna-worker
timeout 600 cargo run -q --release -p rna-bench --bin hop -- \
  --check --out BENCH_PR10.json

# Process-world smoke: real subprocesses over TCP on ephemeral localhost
# ports, including a genuine SIGKILL + rejoin and a severed socket. A
# wedged coordinator (or a leaked worker holding a socket open) fails CI
# by timeout instead of hanging it.
echo "==> process-world smoke (real sockets + SIGKILL, watchdogged)"
timeout 600 cargo test -q --release -p rna-runtime --test process_world
timeout 600 cargo test -q --release -p rna-experiments --test three_worlds

# Codec property tests in debug mode: roundtrip invariants, error-feedback
# telescoping, and frame-size models get their debug_assert! coverage.
# The proto fuzz tests cover the socket-fed frame decoding path.
echo "==> codec + proto property tests (debug)"
timeout 600 cargo test -q -p rna-tensor codec
timeout 600 cargo test -q -p rna-runtime proto

# Scalar-reference parity: the whole tensor suite again with SIMD dispatch
# forced off, so the portable fallback path (what non-AVX2 hosts run) gets
# the same debug_assert! coverage as the vector path.
echo "==> tensor + bulk-draw tests with forced-scalar dispatch (debug)"
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q -p rna-tensor
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q -p rna-simnet bulk

# Zero-alloc guarantee: the debug-only allocation counter must show that
# warm pooled rounds allocate nothing (vacuous in release, so run debug).
# Covers the simulator pool and the threaded controller's reduce region.
echo "==> pooled data-path alloc check (debug)"
timeout 600 cargo test -q -p rna-core --test pooling

# Worker wire-encode zero-alloc assert: the same counter guards the
# worker's encode-into-frame path (a debug_assert inside the worker
# process — steady-state pushes may not allocate a tensor buffer). Run
# the smoke in debug with a real codec so the assert executes in the
# spawned debug workers; a violation aborts the worker and fails the run.
echo "==> worker encode zero-alloc assert (debug, int8 wire)"
RNA_HOP_CODEC=int8 timeout 600 cargo test -q -p rna-runtime \
  --test process_world compressed_hop_smoke

# The repository benchmark is a package of its own (perfbench/, outside the
# workspace): build it and run its unit tests, so a library API change that
# breaks the benchmark fails CI.
echo "==> perfbench build + unit tests"
timeout 900 cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> CI green"
