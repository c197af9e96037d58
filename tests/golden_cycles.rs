//! Golden cycle tables for the fault-free paths: every Figure 3 bar and
//! every Figure 4 EM3D point at smoke scale on 8 nodes, one kv_bench
//! point per server variant, and a 16-node routed mesh point on both
//! machines. Together they cover the event queue's same-cycle order,
//! the barrier release, both machines' drivers and the network's
//! route/link model, so a host-side refactor that moves one cycle fails
//! here under `cargo test -q`.
//!
//! The values are the model's outputs, not tolerances. A change that
//! moves them on purpose updates them in the same commit and says why.

use tempest_typhoon::apps::{run_kv_update, AppId, DataSet};
use tempest_typhoon::base::Topology;
use tempest_typhoon::serve::{run_kv_stache, KvParams, KvVariant};
use tt_bench::{
    bench_config, build_app, figure3_point, figure4_point, run_system, smoke, sync_for, System,
    FIGURE3_POINTS, FIGURE4_PCTS,
};

/// The Figure 3 grid of one application: `(typhoon, dirnnb)` cycles per
/// bar, in `FIGURE3_POINTS` order.
fn figure3_row(app: AppId) -> Vec<(u64, u64)> {
    let cfg = bench_config(smoke::NODES);
    FIGURE3_POINTS
        .into_iter()
        .map(|(set, cache)| {
            let p = figure3_point(app, set, cache, smoke::SCALE, &cfg);
            (p.typhoon.raw(), p.dirnnb.raw())
        })
        .collect()
}

#[test]
fn figure3_em3d_matches_golden() {
    assert_eq!(
        figure3_row(AppId::Em3d),
        [
            (146404, 109028),
            (146404, 109028),
            (141587, 99901),
            (141587, 99901),
            (497288, 364497)
        ]
    );
}

#[test]
fn figure3_ocean_matches_golden() {
    assert_eq!(
        figure3_row(AppId::Ocean),
        [
            (19421, 13889),
            (19421, 13889),
            (19292, 13661),
            (19292, 13661),
            (58708, 50151)
        ]
    );
}

#[test]
fn figure3_mp3d_matches_golden() {
    assert_eq!(
        figure3_row(AppId::Mp3d),
        [
            (90925, 37217),
            (90925, 37217),
            (90925, 37217),
            (90925, 37217),
            (325029, 175061)
        ]
    );
}

#[test]
fn figure3_barnes_matches_golden() {
    assert_eq!(
        figure3_row(AppId::Barnes),
        [
            (37157, 24281),
            (37157, 24281),
            (35927, 18917),
            (35927, 18917),
            (152220, 92013)
        ]
    );
}

#[test]
fn figure3_appbt_matches_golden() {
    assert_eq!(
        figure3_row(AppId::Appbt),
        [
            (165919, 148174),
            (161223, 140051),
            (161067, 139978),
            (161067, 139978),
            (161067, 139978)
        ]
    );
}

/// `[DirNNB, Typhoon/Stache, Typhoon/Update]` cycles per remote-edge
/// fraction, in `FIGURE4_PCTS` order.
#[test]
fn figure4_matches_golden() {
    let cfg = bench_config(smoke::NODES);
    let got: Vec<[u64; 3]> = FIGURE4_PCTS
        .into_iter()
        .map(|pct| {
            figure4_point(pct, smoke::SCALE, &cfg)
                .cycles
                .map(|c| c.raw())
        })
        .collect();
    assert_eq!(
        got,
        [
            [253003, 253003, 252945],
            [731153, 992664, 496662],
            [883988, 1273786, 593465],
            [940725, 1387725, 636273],
            [962707, 1441474, 654805],
            [975663, 1448934, 660629],
        ]
    );
}

/// One fault-free kv_bench point (50/50 mix, skew 0.9, the binary's
/// default key count, request count and value size) per variant:
/// `(cycles, get p99, put p99)`.
fn kv_point(variant: KvVariant) -> (u64, u64, u64) {
    let mut p = KvParams::small(variant);
    p.nodes = smoke::NODES;
    p.keys = 2048;
    p.write_pct = 50;
    p.requests_per_node = 256;
    p.mean_interarrival = 500.0;
    p.value_words = 4;
    let cfg = bench_config(p.nodes);
    let out = match variant {
        KvVariant::Stache => run_kv_stache(&cfg, &p),
        KvVariant::Update => run_kv_update(&cfg, &p),
    };
    assert_eq!(out.lat.requests(), p.requests_per_node * p.nodes as u64);
    (
        out.cycles.raw(),
        out.lat.get.quantile(0.99),
        out.lat.put.quantile(0.99),
    )
}

#[test]
fn kv_stache_matches_golden() {
    assert_eq!(kv_point(KvVariant::Stache), (151731, 26112, 26624));
}

#[test]
fn kv_update_matches_golden() {
    assert_eq!(kv_point(KvVariant::Update), (138268, 7808, 7296));
}

/// EM3D on a 16-node 2-D mesh: hop-count latencies and per-link
/// occupancy on both machines. `(typhoon, dirnnb)` cycles.
#[test]
fn mesh16_em3d_matches_golden() {
    let mut cfg = bench_config(16);
    cfg.topology = Topology::Mesh2D { width: 0 };
    let run = |system: System| {
        let app = build_app(
            AppId::Em3d,
            DataSet::Small,
            smoke::SCALE,
            cfg.nodes,
            sync_for(AppId::Em3d, system),
        );
        run_system(system, &cfg, app).cycles.raw()
    };
    assert_eq!(
        (run(System::TyphoonStache), run(System::Dirnnb)),
        (89851, 56771)
    );
}
