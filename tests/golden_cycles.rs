//! Golden cycle tables for the fault-free paths: every Figure 3 bar and
//! every Figure 4 EM3D point at smoke scale on 8 nodes, one kv_bench
//! point per server variant, and 16-node routed mesh and fat-tree points
//! on both machines. Together they cover the event queue's same-cycle
//! order, the barrier release, both machines' drivers and the network's
//! route/link model, so a host-side refactor that moves one cycle fails
//! here under `cargo test -q`.
//!
//! The values are the model's outputs, not tolerances. A change that
//! moves them on purpose updates them in the same commit and says why.

use tempest_typhoon::apps::{run_kv_update, AppId, DataSet};
use tempest_typhoon::base::stats::Report;
use tempest_typhoon::base::Topology;
use tempest_typhoon::serve::{run_kv_stache, KvOutcome, KvParams, KvVariant};
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
            let p = figure3_point(app, set, cache, smoke::SCALE, &cfg, 1);
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
            figure4_point(pct, smoke::SCALE, &cfg, 1)
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
    let out = kv_outcome(variant);
    (
        out.cycles.raw(),
        out.lat.get.quantile(0.99),
        out.lat.put.quantile(0.99),
    )
}

/// The run behind [`kv_point`].
fn kv_outcome(variant: KvVariant) -> KvOutcome {
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
    out
}

#[test]
fn kv_stache_matches_golden() {
    assert_eq!(kv_point(KvVariant::Stache), (151731, 26112, 26624));
}

#[test]
fn kv_update_matches_golden() {
    assert_eq!(kv_point(KvVariant::Update), (138268, 7808, 7296));
}

/// EM3D Small on 16 nodes over a routed `topology`: hop-count
/// latencies and per-link occupancy on both machines. `(typhoon,
/// dirnnb)` cycles.
fn routed16_em3d(topology: Topology) -> (u64, u64) {
    let mut cfg = bench_config(16);
    cfg.topology = topology;
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
    (run(System::TyphoonStache), run(System::Dirnnb))
}

#[test]
fn mesh16_em3d_matches_golden() {
    assert_eq!(routed16_em3d(Topology::Mesh2D { width: 0 }), (89851, 56771));
}

#[test]
fn fat_tree16_em3d_matches_golden() {
    assert_eq!(
        routed16_em3d(Topology::FatTree { arity: 4 }),
        (91198, 58520)
    );
}

/// Every row of a `Report`, in order, as `(name, value)`.
fn rows(report: &Report) -> Vec<(String, f64)> {
    report.iter().map(|r| (r.name.clone(), r.value)).collect()
}

fn assert_report(got: &Report, want: &[(&str, f64)]) {
    let want: Vec<(String, f64)> = want.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(rows(got), want);
}

/// The EM3D Small / 4 KB Figure 3 bar on one system: its whole report.
fn em3d_small_4k_report(system: System) -> Report {
    let mut cfg = bench_config(smoke::NODES);
    cfg.cpu.cache_bytes = FIGURE3_POINTS[0].1;
    let app = build_app(
        AppId::Em3d,
        FIGURE3_POINTS[0].0,
        smoke::SCALE,
        cfg.nodes,
        sync_for(AppId::Em3d, system),
    );
    run_system(system, &cfg, app).report
}

/// The whole report of the EM3D Small / 4 KB bar on Typhoon/Stache:
/// a refactor that moves a counter between rows fails here even when
/// the cycles hold.
#[test]
fn em3d_small_4k_typhoon_report_matches_golden() {
    assert_report(
        &em3d_small_4k_report(System::TyphoonStache),
        &[
            ("machine.cycles", 146404.0),
            ("machine.nodes", 8.0),
            ("machine.barriers", 9.0),
            ("cpu.ops", 57077.0),
            ("cpu.reads", 44000.0),
            ("cpu.writes", 5000.0),
            ("cpu.compute_cycles", 184000.0),
            ("cpu.local_misses", 4717.0),
            ("cpu.upgrades", 849.0),
            ("cpu.block_faults", 3893.0),
            ("cpu.page_faults", 112.0),
            ("cpu.fault_stall_cycles", 645279.0),
            ("cpu.barrier_wait_cycles", 104309.0),
            ("cpu.call_stall_cycles", 0.0),
            ("cpu.cache_hits", 45132.0),
            ("cpu.cache_misses", 7761.0),
            ("cpu.tlb_misses", 128.0),
            ("cpu.rtlb_misses", 0.0),
            ("cpu.idle_cycles", 0.0),
            ("np.handlers", 15367.0),
            ("np.instructions", 316140.0),
            ("np.messages", 11362.0),
            ("np.busy_cycles", 485001.0),
            ("np.bulk_packets", 0.0),
            ("net.packets", 11362.0),
            ("net.bytes", 233240.0),
            ("net.local_packets", 0.0),
            ("stache.block_faults", 3893.0),
            ("stache.page_faults", 112.0),
            ("stache.ro_requests", 3028.0),
            ("stache.rw_requests", 0.0),
            ("stache.home_requests", 3893.0),
            ("stache.invals_sent", 2653.0),
            ("stache.recalls_sent", 0.0),
            ("stache.writebacks_sent", 0.0),
            ("stache.replacements", 0.0),
            ("stache.sharer_overflows", 4.0),
            ("stache.home_faults", 865.0),
            ("stache.deferred_requests", 0.0),
        ],
    );
}

/// The same bar on DirNNB.
#[test]
fn em3d_small_4k_dirnnb_report_matches_golden() {
    assert_report(
        &em3d_small_4k_report(System::Dirnnb),
        &[
            ("machine.cycles", 109028.0),
            ("machine.nodes", 8.0),
            ("machine.barriers", 9.0),
            ("cpu.ops", 53072.0),
            ("cpu.reads", 44000.0),
            ("cpu.writes", 5000.0),
            ("cpu.compute_cycles", 184000.0),
            ("cpu.local_misses", 2330.0),
            ("cpu.remote_misses", 3257.0),
            ("cpu.upgrades", 852.0),
            ("cpu.miss_stall_cycles", 442692.0),
            ("cpu.barrier_wait_cycles", 70204.0),
            ("cpu.cache_hits", 44297.0),
            ("cpu.cache_misses", 4703.0),
            ("cpu.tlb_misses", 128.0),
            ("cpu.idle_cycles", 0.0),
            ("dir.ops", 5710.0),
            ("dir.invalidations", 2653.0),
            ("dir.recalls", 723.0),
            ("dir.writebacks", 360.0),
            ("dir.deferred", 12.0),
            ("net.packets", 11820.0),
            ("net.bytes", 246064.0),
        ],
    );
}

/// The `kv_update` point's report: its CPUs idle in `WaitUntil` and
/// suspend in `UserCall`, so the front end's idle and call-stall rows
/// are pinned too.
#[test]
fn kv_update_report_matches_golden() {
    assert_report(
        &kv_outcome(KvVariant::Update).report,
        &[
            ("machine.cycles", 138268.0),
            ("machine.nodes", 8.0),
            ("machine.barriers", 0.0),
            ("cpu.ops", 18928.0),
            ("cpu.reads", 4965.0),
            ("cpu.writes", 5275.0),
            ("cpu.compute_cycles", 20480.0),
            ("cpu.local_misses", 1888.0),
            ("cpu.upgrades", 0.0),
            ("cpu.block_faults", 1282.0),
            ("cpu.page_faults", 207.0),
            ("cpu.fault_stall_cycles", 298412.0),
            ("cpu.barrier_wait_cycles", 0.0),
            ("cpu.call_stall_cycles", 411820.0),
            ("cpu.cache_hits", 8352.0),
            ("cpu.cache_misses", 3170.0),
            ("cpu.tlb_misses", 244.0),
            ("cpu.rtlb_misses", 0.0),
            ("cpu.idle_cycles", 229157.0),
            ("np.handlers", 18602.0),
            ("np.instructions", 266252.0),
            ("np.messages", 14010.0),
            ("np.busy_cycles", 543787.0),
            ("np.bulk_packets", 0.0),
            ("net.packets", 14010.0),
            ("net.bytes", 392280.0),
            ("net.local_packets", 0.0),
            ("stache.block_faults", 0.0),
            ("stache.page_faults", 207.0),
            ("stache.ro_requests", 0.0),
            ("stache.rw_requests", 0.0),
            ("stache.home_requests", 0.0),
            ("stache.invals_sent", 0.0),
            ("stache.recalls_sent", 0.0),
            ("stache.writebacks_sent", 0.0),
            ("stache.replacements", 0.0),
            ("stache.sharer_overflows", 0.0),
            ("stache.home_faults", 0.0),
            ("stache.deferred_requests", 0.0),
            ("kv.gets", 993.0),
            ("kv.puts", 1055.0),
            ("kvu.gets_served", 1282.0),
            ("kvu.copies_installed", 1282.0),
            ("kvu.writes_applied", 2110.0),
            ("kvu.updates_sent", 3883.0),
            ("kvu.updates_applied", 3883.0),
            ("kvu.stale_updates", 0.0),
            ("kvu.deferred_gets", 9.0),
            ("kvu.deferred_writes", 25.0),
        ],
    );
}
