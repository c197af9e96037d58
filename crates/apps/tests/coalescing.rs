//! Compute-coalescing equivalence: [`coalesce_computes`] applied to a
//! real application's op stream must preserve, for every processor,
//! (a) the sequence of non-compute ops — so barriers and accesses stay
//! aligned — and (b) the total compute cycles between consecutive
//! non-compute ops. Simulated clock trajectories are built from exactly
//! those two quantities, so this pins the invariant coalescing relies on
//! (tt-check's `coalesce` perturbation applies it to litmus scripts).

use tt_apps::barnes::{Barnes, BarnesParams};
use tt_apps::em3d::{Em3d, Em3dParams};
use tt_apps::ocean::{Ocean, OceanParams};
use tt_apps::{DataSet, PhasedApp, PhasedWorkload};
use tt_base::workload::{coalesce_computes, Op, Workload};
use tt_base::NodeId;

const PROCS: usize = 4;

/// Pulls every chunk for `cpu` and concatenates the ops.
fn drain<A: PhasedApp>(w: &mut PhasedWorkload<A>, cpu: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    while let Some(chunk) = w.next_chunk(NodeId::new(cpu as u16)) {
        ops.extend(chunk);
    }
    ops
}

/// Collapses an op stream into its timing skeleton: the non-compute ops
/// in order, with the summed compute cycles preceding each one (and a
/// trailing sum).
fn skeleton(ops: &[Op]) -> (Vec<Op>, Vec<u64>) {
    let mut syncs = Vec::new();
    let mut sums = vec![0u64];
    for op in ops {
        match op {
            Op::Compute(c) => *sums.last_mut().unwrap() += *c as u64,
            other => {
                syncs.push(*other);
                sums.push(0);
            }
        }
    }
    (syncs, sums)
}

/// `ops` with its compute runs merged.
fn coalesced(ops: &[Op]) -> Vec<Op> {
    let mut merged = ops.to_vec();
    coalesce_computes(&mut merged);
    merged
}

fn assert_equivalent<A: PhasedApp>(app: A) {
    let mut w = PhasedWorkload::new(app);
    for cpu in 0..PROCS {
        let p = drain(&mut w, cpu);
        let m = coalesced(&p);
        assert!(
            m.len() <= p.len(),
            "cpu {cpu}: coalescing must never grow the op stream"
        );
        let (p_syncs, p_sums) = skeleton(&p);
        let (m_syncs, m_sums) = skeleton(&m);
        assert_eq!(
            p_syncs, m_syncs,
            "cpu {cpu}: non-compute op sequence changed (barrier misalignment)"
        );
        assert_eq!(
            p_sums, m_sums,
            "cpu {cpu}: compute cycles between sync ops changed"
        );
    }
}

fn em3d() -> Em3d {
    let mut p = Em3dParams::table3(DataSet::Small, PROCS);
    p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, 64, 4 * PROCS);
    Em3d::new(p)
}

fn ocean() -> Ocean {
    let mut p = OceanParams::table3(DataSet::Small, PROCS);
    p.n = 16;
    Ocean::new(p)
}

fn barnes() -> Barnes {
    let mut p = BarnesParams::table3(DataSet::Small, PROCS);
    p.bodies = tt_apps::datasets::scaled(p.bodies, 64, 4 * PROCS);
    Barnes::new(p)
}

#[test]
fn coalescing_preserves_em3d_timing_skeleton() {
    assert_equivalent(em3d());
}

#[test]
fn coalescing_preserves_ocean_timing_skeleton() {
    assert_equivalent(ocean());
}

#[test]
fn coalescing_preserves_barnes_timing_skeleton() {
    assert_equivalent(barnes());
}

#[test]
fn coalescing_shrinks_compute_runs() {
    // The optimization must actually do something: barnes emits runs of
    // per-body Compute ops, so the merged stream must be strictly
    // shorter while the timing skeleton (checked above) is unchanged.
    let mut w = PhasedWorkload::new(barnes());
    let streams: Vec<Vec<Op>> = (0..PROCS).map(|c| drain(&mut w, c)).collect();
    let plain: usize = streams.iter().map(Vec::len).sum();
    let merged: usize = streams.iter().map(|ops| coalesced(ops).len()).sum();
    assert!(
        merged < plain,
        "expected coalescing to drop ops ({merged} vs {plain})"
    );
}
