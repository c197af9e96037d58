#!/usr/bin/env sh
# Full local verification: release build, workspace tests, lint, and a
# tiny end-to-end figure3 smoke that exercises the parallel sweep path.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> figure3 smoke (--scale 64 --nodes 8 --jobs 2)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 >/dev/null

# Bounded model-checking sweep (fixed seeds, well under a minute): 500
# litmus cases under schedule perturbation must run clean on both
# machines, and a planted protocol bug must be caught. On failure
# tt-check prints the seed; reproduce with `tt-check replay --seed S`.
echo "==> tt-check smoke (500 seeds clean + planted bug caught)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500 --planted-bug

# KV-serving smoke (tt-serve): the same sweep twice, once on one sweep
# worker and once on two. Latency percentiles and cycle counts print to
# stdout (wall rates go to stderr), so the two tables must be
# byte-identical.
echo "==> kv_bench smoke (--jobs 1 vs --jobs 2, identical stdout)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 >/tmp/kv_a.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 1 >/tmp/kv_b.txt
cmp /tmp/kv_a.txt /tmp/kv_b.txt

# --fault-rate 0 must be cycle-neutral: with no fault schedule nothing
# is wrapped in the reliable transport and the table stays byte-
# identical. A nonzero rate runs the same sweep over a lossy network
# and must complete every request.
echo "==> kv_bench fault smoke (--fault-rate 0 byte-identical; lossy sweep completes)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 --fault-rate 0 >/tmp/kv_c.txt
cmp /tmp/kv_a.txt /tmp/kv_c.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 \
    --fault-rate 30 >/dev/null
rm -f /tmp/kv_a.txt /tmp/kv_b.txt /tmp/kv_c.txt

# Lossy-path golden: the 32-node sweep at 10 permille loss crosses the
# reliable transport's retransmit timers on every packet. Its stdout
# must match the committed snapshot byte for byte: host-side speedups
# of the transport or the event queue may not move a single cycle.
echo "==> kv_bench lossy golden (--nodes 32 --fault-rate 10 vs results/kv_bench_32_fault10.txt)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 32 --fault-rate 10 --jobs 1 >/tmp/kv_lossy32.txt
cmp /tmp/kv_lossy32.txt results/kv_bench_32_fault10.txt
rm -f /tmp/kv_lossy32.txt

# Lossy-network fault fuzzing: 200 seeds with a per-seed fault schedule
# (drops, duplicates, detected corruption, transient partitions) drawn
# from the case seed; the stock Stache behind the reliable transport
# must pass the full invariant set and the differential final-image
# check on every seed. On failure tt-check prints the seed; reproduce
# with `tt-check replay --seed S --faults`. A planted transport bug
# (retransmission without duplicate suppression) must be caught and
# shrunk to a minimal fault schedule.
echo "==> tt-check fault fuzz (200 lossy seeds clean + planted transport bug caught)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 200 --faults
cargo run --release -p tt-bench --bin tt-check -- \
    run --seeds 300 --faults --planted-bug

# Fault-schedule determinism: one forced fault seed replayed twice must
# produce byte-identical output (cycles and event counts), proving the
# fault schedule is keyed off deterministic state, not host timing.
echo "==> tt-check fault replay determinism (--fault-seed, replayed twice)"
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 >/tmp/ttfr_a.txt
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 >/tmp/ttfr_b.txt
cmp /tmp/ttfr_a.txt /tmp/ttfr_b.txt
rm -f /tmp/ttfr_a.txt /tmp/ttfr_b.txt

# KV litmus family: put/get races over tt-serve key slots, run
# differentially on three machines (Stache-served, write-update-served,
# DirNNB) with word-for-word image agreement, then a lossy window.
echo "==> tt-check kv (200 seeds + 100 lossy seeds)"
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 200
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 100 --faults

# Big-machine smoke: a 256-node mesh figure-3 point. The cycle table
# must be bit-identical between one and two sweep workers, and the heap
# high-water mark per node must stay within 2x of the committed
# results/BENCH_figure3_256_mesh.json snapshot — the guard that keeps
# the compact directory state compact.
echo "==> figure3 big-machine smoke (256-node mesh, --jobs 1 vs 2 + memory guard)"
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 1 \
    --json /tmp/fig3_mesh256.json >/tmp/fig3_mesh256_a.txt
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 2 \
    >/tmp/fig3_mesh256_b.txt
cmp /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt
new_bpn=$(grep -o '"bytes_per_node": [0-9]*' /tmp/fig3_mesh256.json \
    | head -1 | tr -dc 0-9)
old_bpn=$(grep -o '"bytes_per_node": [0-9]*' results/BENCH_figure3_256_mesh.json \
    | head -1 | tr -dc 0-9)
if [ "$new_bpn" -gt $((old_bpn * 2)) ]; then
    echo "FAIL: 256-node mesh bytes/node regressed >2x: $new_bpn vs snapshot $old_bpn"
    exit 1
fi
echo "    bytes/node $new_bpn (snapshot $old_bpn, guard 2x)"
rm -f /tmp/fig3_mesh256.json /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt

echo "==> examples build"
cargo build --release --examples

echo "==> verify OK"
