//! The benchmark's instruments must not perturb what they measure: a run
//! with the workload and protocol decorators and the counting tracer
//! installed gives bit-identical cycles, reports and latency histograms
//! to an undecorated run, and the benchmark's own plumbing matches the
//! simulator's public one-call runners.

use std::time::Instant;

use tt_apps::em3d::SyncMode;
use tt_apps::{AppId, DataSet};
use tt_base::{FaultSpec, SystemConfig};
use tt_bench::System;
use tt_perfbench::layers::Probe;
use tt_perfbench::suite::{self, Input, Outcome, RunSpec, Server};
use tt_serve::{KvParams, KvVariant};

fn app_spec(server: Server, app: AppId, seed: u64) -> RunSpec {
    let mut cfg = tt_bench::bench_config(8);
    cfg.seed = suite::mix_seed(cfg.seed, seed);
    cfg.cpu.cache_bytes = 4 * 1024;
    RunSpec {
        label: format!("{app} small"),
        server,
        cfg,
        input: Input::App {
            app,
            set: DataSet::Small,
            scale: 64,
        },
        seed,
        bar: None,
    }
}

fn kv_spec(server: Server, write_pct: u32) -> RunSpec {
    let variant = if server == Server::KvStache {
        KvVariant::Stache
    } else {
        KvVariant::Update
    };
    let mut params = KvParams::small(variant);
    params.write_pct = write_pct;
    params.skew = 1.2;
    let mut cfg = SystemConfig::test_config(params.nodes);
    cfg.fault = Some(FaultSpec::uniform(cfg.seed, 30));
    RunSpec {
        label: "kv small".into(),
        server,
        cfg,
        input: Input::Kv(params),
        seed: 0,
        bar: None,
    }
}

/// Runs `spec` plain and decorated; asserts identical model outputs and
/// returns the decorated run's layer totals.
fn assert_transparent(spec: &RunSpec) -> tt_perfbench::layers::LayerTotals {
    let plain = suite::run(spec, None);
    let probe = Probe::new(Instant::now(), 1);
    let traced = suite::run(spec, Some(&probe));
    assert_eq!(
        plain.cycles, traced.cycles,
        "{}: decorators changed cycles",
        spec.label
    );
    assert_eq!(
        plain.report, traced.report,
        "{}: decorators changed the report",
        spec.label
    );
    assert_eq!(
        plain.lat, traced.lat,
        "{}: decorators changed latencies",
        spec.label
    );
    assert_eq!(plain.digest(), traced.digest());
    probe.totals()
}

#[test]
fn decorated_paper_points_are_bit_identical() {
    for (server, app) in [
        (Server::Stache, AppId::Em3d),
        (Server::Dirnnb, AppId::Em3d),
        (Server::Stache, AppId::Ocean),
    ] {
        let t = assert_transparent(&app_spec(server, app, 3));
        assert!(
            t.gen_ops > 0 && t.gen_s > 0.0,
            "workload decorator saw no chunks"
        );
        if server.is_typhoon() {
            assert!(
                t.handlers.iter().sum::<u64>() > 0,
                "protocol decorator saw no handlers"
            );
            assert!(t.events.iter().sum::<u64>() > 0, "tracer saw no events");
        }
    }
    let update = RunSpec {
        input: Input::Em3dFig4 {
            pct_remote: 0.5,
            scale: 64,
        },
        ..app_spec(Server::Em3dUpdate, AppId::Em3d, 3)
    };
    assert_transparent(&update);
}

#[test]
fn decorated_lossy_kv_points_are_bit_identical() {
    for (server, write_pct) in [
        (Server::KvStache, 50),
        (Server::KvUpdate, 50),
        (Server::KvUpdate, 5),
    ] {
        let t = assert_transparent(&kv_spec(server, write_pct));
        assert!(
            t.transport_s > 0.0,
            "no decorator outside the reliable transport"
        );
        let inner: f64 = t.handler_s.iter().sum();
        assert!(
            t.transport_s > inner,
            "the transport-side time must include the protocol's"
        );
    }
}

/// The benchmark's KV plumbing (a decorator slot on each side of the
/// transport) must be the same machine `tt_serve::run_kv` builds.
#[test]
fn kv_plumbing_matches_run_kv() {
    for server in [Server::KvStache, Server::KvUpdate] {
        let spec = kv_spec(server, 50);
        let Input::Kv(params) = &spec.input else {
            unreachable!()
        };
        let reference = match server {
            Server::KvStache => tt_serve::run_kv_stache(&spec.cfg, params),
            _ => tt_apps::run_kv_update(&spec.cfg, params),
        };
        let ours: Outcome = suite::run(&spec, None);
        assert_eq!(ours.cycles, reference.cycles);
        assert_eq!(ours.report, reference.report);
        assert_eq!(ours.lat.as_ref(), Some(&reference.lat));
    }
}

/// At seed 0 the benchmark builds applications exactly as `tt_bench::build_app` does.
#[test]
fn seed_zero_apps_match_build_app() {
    for app in AppId::ALL {
        for (server, system) in [
            (Server::Stache, System::TyphoonStache),
            (Server::Dirnnb, System::Dirnnb),
        ] {
            let spec = app_spec(server, app, 0);
            let reference = tt_bench::run_system(
                system,
                &spec.cfg,
                tt_bench::build_app(app, DataSet::Small, 64, 8, SyncMode::Barrier),
            );
            let ours = suite::run(&spec, None);
            assert_eq!(ours.cycles, reference.cycles, "{app} on {}", server.name());
            assert_eq!(ours.report, reference.report, "{app} on {}", server.name());
        }
    }
}

#[test]
fn every_workload_is_defined_and_seeded() {
    for name in suite::WORKLOADS {
        let a = suite::workload_runs(name, 1).expect("known workload");
        let b = suite::workload_runs(name, 2).expect("known workload");
        assert!(!a.is_empty());
        assert_ne!(
            a[0].cfg.seed, b[0].cfg.seed,
            "{name}: the seed must reach the machine"
        );
        assert!(
            a.iter().all(|s| s.cfg.sim_threads == 1),
            "{name}: sequential engine only"
        );
    }
    assert!(suite::workload_runs("nope", 1).is_none());
}
