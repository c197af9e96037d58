#!/usr/bin/env sh
# Full local verification: release build, workspace tests, lint, the
# benchmark's own build and tests, and end-to-end smokes of the sweep
# binaries and tt-check.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark (perfbench/, a Cargo workspace of its own) builds the
# simulator crates through path dependencies and nothing else compiles
# it: build and test it here so an API break in crates/* fails now, not
# first in the benchmark pipeline.
echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Every crate and binary must document to its own path: two targets that
# share a doc directory overwrite each other's pages.
echo "==> cargo doc --workspace --no-deps (no output filename collision)"
cargo doc --workspace --no-deps >/tmp/tt_doc.txt 2>&1 || { cat /tmp/tt_doc.txt; exit 1; }
if grep -q "output filename collision" /tmp/tt_doc.txt; then
    grep "output filename collision" /tmp/tt_doc.txt
    echo "FAIL: cargo doc output filename collision"
    exit 1
fi
rm -f /tmp/tt_doc.txt

# Checks a written --json sweep report against the record schema
# documented in crates/bench/src/json.rs: every point has string `point`
# and `system` and integer `cycles`; figure3 points carry
# `cost.bytes_per_node`; lossy kv_bench points carry `kv.get.p99` and
# `kv.fault.retransmits`.
check_json_points() {
    python3 - "$1" "$2" <<'PY'
import json, sys
path, kind = sys.argv[1], sys.argv[2]
points = json.load(open(path))["points"]
assert points, f"{path}: no points"
is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
for p in points:
    assert isinstance(p["point"], str) and isinstance(p["system"], str), p
    assert is_int(p["cycles"]), p
    if kind == "figure3":
        assert is_int(p["cost"]["bytes_per_node"]), p
    else:
        assert is_int(p["kv"]["get"]["p99"]), p
        assert is_int(p["kv"]["fault"]["retransmits"]), p
print(f"    {len(points)} {kind} points match the record schema")
PY
}

echo "==> figure3 smoke (--scale 64 --nodes 8 --jobs 2, --json checked)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 --json /tmp/fig3_smoke.json >/dev/null
check_json_points /tmp/fig3_smoke.json figure3
rm -f /tmp/fig3_smoke.json

# Bounded model-checking sweep (fixed seeds, well under a minute): 500
# litmus cases under schedule perturbation must run clean on both
# machines, and a planted protocol bug must be caught. On failure
# tt-check prints the seed; reproduce with `tt-check replay --seed S`.
echo "==> tt-check smoke (500 seeds clean + planted bug caught and shrunk)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500 --planted-bug \
    --out /tmp/ttcheck_planted.json
# The --out report must record the catch: not clean, with a shrunk shape.
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
assert r["clean"] is False, "planted bug not recorded as a failure"
assert r["failure"]["shrunk"] is not None, "planted-bug failure was not shrunk"
' /tmp/ttcheck_planted.json
rm -f /tmp/ttcheck_planted.json

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
    --nodes 32 --fault-rate 10 --jobs 1 --json /tmp/kv_lossy32.json >/tmp/kv_lossy32.txt
cmp /tmp/kv_lossy32.txt results/kv_bench_32_fault10.txt
check_json_points /tmp/kv_lossy32.json kv_lossy
rm -f /tmp/kv_lossy32.txt /tmp/kv_lossy32.json

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

# The same fault-replay determinism for the KV family: one forced fault
# schedule replayed twice must print identical cycles on all three legs.
echo "==> tt-check kv fault replay determinism (--fault-seed, replayed twice)"
cargo run --release -p tt-bench --bin tt-check -- \
    kv --seed 5 --faults --fault-seed 64023 >/tmp/ttkv_a.txt
cargo run --release -p tt-bench --bin tt-check -- \
    kv --seed 5 --faults --fault-seed 64023 >/tmp/ttkv_b.txt
cmp /tmp/ttkv_a.txt /tmp/ttkv_b.txt
rm -f /tmp/ttkv_a.txt /tmp/ttkv_b.txt

# Big-machine smoke: a 256-node mesh figure-3 point. The cycle table
# must be bit-identical between one and two sweep workers, every point's
# cycles must equal the committed results/BENCH_figure3_256_mesh.json
# snapshot (host-side speedups of the routed network may not move a
# cycle), and the heap high-water mark per node must stay within 2x of
# that snapshot — the guard that keeps the compact directory state
# compact.
echo "==> figure3 big-machine smoke (256-node mesh, --jobs 1 vs 2 + cycles + memory guard)"
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 1 \
    --json /tmp/fig3_mesh256.json >/tmp/fig3_mesh256_a.txt
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 2 \
    >/tmp/fig3_mesh256_b.txt
cmp /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt
points='"point": "[^"]*", "system": "[^"]*", "cycles": [0-9]*'
grep -o "$points" /tmp/fig3_mesh256.json >/tmp/fig3_mesh256_got.txt
grep -o "$points" results/BENCH_figure3_256_mesh.json >/tmp/fig3_mesh256_want.txt
if [ ! -s /tmp/fig3_mesh256_want.txt ] \
    || ! cmp -s /tmp/fig3_mesh256_want.txt /tmp/fig3_mesh256_got.txt; then
    echo "FAIL: 256-node mesh cycles differ from results/BENCH_figure3_256_mesh.json:"
    diff /tmp/fig3_mesh256_want.txt /tmp/fig3_mesh256_got.txt || true
    exit 1
fi
echo "    cycles of $(wc -l </tmp/fig3_mesh256_got.txt) points match the snapshot"
new_bpn=$(grep -o '"bytes_per_node": [0-9]*' /tmp/fig3_mesh256.json \
    | head -1 | tr -dc 0-9)
old_bpn=$(grep -o '"bytes_per_node": [0-9]*' results/BENCH_figure3_256_mesh.json \
    | head -1 | tr -dc 0-9)
if [ "$new_bpn" -gt $((old_bpn * 2)) ]; then
    echo "FAIL: 256-node mesh bytes/node regressed >2x: $new_bpn vs snapshot $old_bpn"
    exit 1
fi
echo "    bytes/node $new_bpn (snapshot $old_bpn, guard 2x)"
rm -f /tmp/fig3_mesh256.json /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt \
    /tmp/fig3_mesh256_got.txt /tmp/fig3_mesh256_want.txt

echo "==> examples build"
cargo build --release --examples

echo "==> verify OK"
