//! The three workloads, and how one simulation run is built and run.
//!
//! Every run goes through the same public entry points a user of the
//! simulator calls: the application constructors behind
//! `tt_bench::build_app`, `KvWorkload::new`, `TyphoonMachine::new`/`run`
//! and `DirnnbMachine::new`/`run`, always on the default sequential
//! engine. A run is split into set-up (workload and machine
//! construction) and the machine's `run()` call, timed separately.

use std::time::Instant;

use tt_apps::appbt::{Appbt, AppbtParams};
use tt_apps::barnes::{Barnes, BarnesParams};
use tt_apps::em3d::{Em3d, Em3dParams, SyncMode};
use tt_apps::mp3d::{Mp3d, Mp3dParams};
use tt_apps::ocean::{Ocean, OceanParams};
use tt_apps::{AppId, DataSet, KvUpdateProtocol, PhasedWorkload};
use tt_base::alloc_stats;
use tt_base::stats::Report;
use tt_base::workload::{Layout, Workload};
use tt_base::{Cycles, FaultSpec, NodeId, SystemConfig, Topology};
use tt_bench::{System, FIGURE3_POINTS};
use tt_dirnnb::DirnnbMachine;
use tt_serve::{KvLatency, KvParams, KvStacheProtocol, KvVariant, KvWorkload, SharedKvLatency};
use tt_stache::{Em3dUpdateProtocol, Reliable, StacheProtocol};
use tt_tempest::Protocol;
use tt_typhoon::TyphoonMachine;

use crate::layers::{CountingTracer, Probe, Role, TimedProtocol, TimedWorkload};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["paper32", "mesh256", "kv_lossy"];

/// Data-set divisor of the Figure 3 grid in `paper32`.
pub const PAPER_SCALE: usize = 16;
/// Data-set divisor of the Figure 4 EM3D point in `paper32`.
pub const FIG4_SCALE: usize = 64;
/// Data-set divisor of the `mesh256` points.
pub const MESH_SCALE: usize = 16;
/// Loss rate of `kv_lossy`, per mille (drop and duplicate; corrupt at half).
pub const KV_FAULT_PERMILLE: u32 = 10;

/// The machine-plus-protocol a run simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Server {
    /// All-hardware DirNNB.
    Dirnnb,
    /// Typhoon running Stache.
    Stache,
    /// Typhoon running the EM3D delayed-update protocol.
    Em3dUpdate,
    /// Typhoon serving KV requests over Stache.
    KvStache,
    /// Typhoon serving KV requests with the write-update protocol.
    KvUpdate,
}

impl Server {
    /// Every server, in metric order.
    pub const ALL: [Server; 5] = [
        Server::Dirnnb,
        Server::Stache,
        Server::Em3dUpdate,
        Server::KvStache,
        Server::KvUpdate,
    ];

    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Server::Dirnnb => "dirnnb",
            Server::Stache => "typhoon_stache",
            Server::Em3dUpdate => "typhoon_update",
            Server::KvStache => "kv_stache",
            Server::KvUpdate => "kv_update",
        }
    }

    /// Whether the run is on the Typhoon machine.
    pub fn is_typhoon(self) -> bool {
        self != Server::Dirnnb
    }

    fn system(self) -> System {
        match self {
            Server::Dirnnb => System::Dirnnb,
            Server::Em3dUpdate => System::TyphoonUpdate,
            _ => System::TyphoonStache,
        }
    }
}

/// What a run's workload is.
#[derive(Clone, Debug)]
pub enum Input {
    /// One of the five applications at a Table 3 data set / `scale`.
    App {
        /// Application.
        app: AppId,
        /// Data set.
        set: DataSet,
        /// Data-set divisor.
        scale: usize,
    },
    /// The Figure 4 EM3D point (large set, eight iterations).
    Em3dFig4 {
        /// Fraction of non-local edges.
        pct_remote: f64,
        /// Data-set divisor.
        scale: usize,
    },
    /// Open-loop Zipfian KV serving.
    Kv(KvParams),
}

/// One simulation run of a workload.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Human-readable point name.
    pub label: String,
    /// Machine and protocol.
    pub server: Server,
    /// Machine configuration (seeded).
    pub cfg: SystemConfig,
    /// Workload input.
    pub input: Input,
    /// The benchmark seed the application generators are perturbed by.
    pub seed: u64,
    /// Index of the Figure 3 bar this run is one half of.
    pub bar: Option<usize>,
}

/// Perturbs a generator's default seed by the benchmark seed; seed 0
/// keeps the repository's defaults, so `--seed 0` reproduces the figure
/// binaries exactly.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn base_config(nodes: usize, seed: u64) -> SystemConfig {
    let mut cfg = tt_bench::bench_config(nodes);
    cfg.seed = mix_seed(cfg.seed, seed);
    cfg
}

/// The runs making up `workload` at `seed`, or `None` for an unknown name.
pub fn workload_runs(workload: &str, seed: u64) -> Option<Vec<RunSpec>> {
    let mut runs = Vec::new();
    match workload {
        "paper32" => {
            for (a, app) in AppId::ALL.into_iter().enumerate() {
                for (p, (set, cache)) in FIGURE3_POINTS.into_iter().enumerate() {
                    for server in [Server::Stache, Server::Dirnnb] {
                        let mut cfg = base_config(32, seed);
                        cfg.cpu.cache_bytes = cache;
                        runs.push(RunSpec {
                            label: format!("{app} {set:?}/{}K", cache / 1024),
                            server,
                            cfg,
                            input: Input::App {
                                app,
                                set,
                                scale: PAPER_SCALE,
                            },
                            seed,
                            bar: Some(a * FIGURE3_POINTS.len() + p),
                        });
                    }
                }
            }
            // Figure 4 isolates the protocol effect: owner placement for
            // the DirNNB comparator and caches large enough that capacity
            // misses do not drown the coherence traffic.
            for server in [Server::Dirnnb, Server::Stache, Server::Em3dUpdate] {
                let mut cfg = base_config(32, seed);
                cfg.dirnnb.placement = tt_base::config::DirPlacement::Owner;
                cfg.cpu.cache_bytes = 256 * 1024;
                runs.push(RunSpec {
                    label: "em3d fig4 50%".into(),
                    server,
                    cfg,
                    input: Input::Em3dFig4 {
                        pct_remote: 0.5,
                        scale: FIG4_SCALE,
                    },
                    seed,
                    bar: None,
                });
            }
        }
        "mesh256" => {
            for app in [AppId::Em3d, AppId::Ocean] {
                for server in [Server::Stache, Server::Dirnnb] {
                    let mut cfg = base_config(256, seed);
                    cfg.topology = Topology::Mesh2D { width: 0 };
                    cfg.cpu.cache_bytes = 256 * 1024;
                    runs.push(RunSpec {
                        label: format!("{app} Large/256K mesh"),
                        server,
                        cfg,
                        input: Input::App {
                            app,
                            set: DataSet::Large,
                            scale: MESH_SCALE,
                        },
                        seed,
                        bar: None,
                    });
                }
            }
        }
        "kv_lossy" => {
            for write_pct in [5, 50] {
                for skew in [0.9, 1.2] {
                    for (server, variant) in [
                        (Server::KvStache, KvVariant::Stache),
                        (Server::KvUpdate, KvVariant::Update),
                    ] {
                        let mut cfg = base_config(32, seed);
                        cfg.fault = Some(FaultSpec::uniform(cfg.seed, KV_FAULT_PERMILLE));
                        let mut p = KvParams::small(variant);
                        p.nodes = 32;
                        p.keys = 2048;
                        p.requests_per_node = 128;
                        p.value_words = 4;
                        p.mean_interarrival = 500.0;
                        p.write_pct = write_pct;
                        p.skew = skew;
                        p.seed = mix_seed(p.seed, seed);
                        runs.push(RunSpec {
                            label: format!("kv {}/{} skew {skew}", 100 - write_pct, write_pct),
                            server,
                            cfg,
                            input: Input::Kv(p),
                            seed,
                            bar: None,
                        });
                    }
                }
            }
        }
        _ => return None,
    }
    Some(runs)
}

/// Builds one of the five applications the way `tt_bench::build_app`
/// does, with the generator seeds perturbed by the benchmark seed.
fn build_app(
    app: AppId,
    set: DataSet,
    scale: usize,
    procs: usize,
    sync: SyncMode,
    seed: u64,
) -> Box<dyn Workload> {
    let scale = scale.max(1);
    match app {
        AppId::Em3d => {
            let mut p = Em3dParams::table3(set, procs);
            p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, scale, 4 * procs);
            p.sync = sync;
            p.seed = mix_seed(p.seed, seed);
            Box::new(PhasedWorkload::new(Em3d::new(p)))
        }
        AppId::Ocean => {
            let mut p = OceanParams::table3(set, procs);
            let factor = (scale as f64).sqrt();
            p.n = ((p.n as f64 / factor) as usize).max(8);
            Box::new(PhasedWorkload::new(Ocean::new(p)))
        }
        AppId::Mp3d => {
            let mut p = Mp3dParams::table3(set, procs);
            p.molecules = tt_apps::datasets::scaled(p.molecules, scale, 4 * procs);
            p.cells_per_side = ((p.molecules as f64 / 4.0).cbrt().ceil() as usize).max(4);
            p.seed = mix_seed(p.seed, seed);
            Box::new(PhasedWorkload::new(Mp3d::new(p)))
        }
        AppId::Barnes => {
            let mut p = BarnesParams::table3(set, procs);
            p.bodies = tt_apps::datasets::scaled(p.bodies, scale, 4 * procs);
            p.seed = mix_seed(p.seed, seed);
            Box::new(PhasedWorkload::new(Barnes::new(p)))
        }
        AppId::Appbt => {
            let mut p = AppbtParams::table3(set, procs);
            let factor = (scale as f64).cbrt();
            p.n = ((p.n as f64 / factor) as usize).max(6);
            Box::new(PhasedWorkload::new(Appbt::new(p)))
        }
    }
}

fn build_workload(spec: &RunSpec) -> Box<dyn Workload> {
    let nodes = spec.cfg.nodes;
    match &spec.input {
        Input::App { app, set, scale } => {
            let sync = tt_bench::sync_for(*app, spec.server.system());
            build_app(*app, *set, *scale, nodes, sync, spec.seed)
        }
        Input::Em3dFig4 { pct_remote, scale } => {
            let mut p = Em3dParams::table3(DataSet::Large, nodes);
            p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, *scale, 4 * nodes);
            p.pct_remote = *pct_remote;
            p.sync = tt_bench::sync_for(AppId::Em3d, spec.server.system());
            p.iterations = 8;
            p.seed = mix_seed(p.seed, spec.seed);
            Box::new(PhasedWorkload::new(Em3d::new(p)))
        }
        Input::Kv(p) => Box::new(KvWorkload::new(p.clone())),
    }
}

/// A run whose workload and machine are built but not yet run.
pub(crate) enum Prepared {
    /// A Typhoon machine; KV runs carry their latency collector.
    Typhoon(Box<TyphoonMachine>, Option<SharedKvLatency>),
    /// A DirNNB machine.
    Dirnnb(Box<DirnnbMachine>),
}

/// Builds the workload and machine of `spec`. Given a probe, the workload
/// and every protocol are wrapped in timing decorators and Typhoon gets a
/// counting tracer, all reporting to it.
pub(crate) fn prepare(spec: &RunSpec, probe: Option<&Probe>) -> Prepared {
    let mut workload = build_workload(spec);
    if let Some(p) = probe {
        let layer = if matches!(spec.input, Input::Kv(_)) {
            "serve.gen"
        } else {
            "apps.gen"
        };
        workload = Box::new(TimedWorkload::new(workload, p.clone(), layer));
    }
    let wrap = |inner: Box<dyn Protocol>, role: Role| -> Box<dyn Protocol> {
        match probe {
            Some(p) => Box::new(TimedProtocol::new(inner, p.clone(), role)),
            None => inner,
        }
    };
    let cfg = spec.cfg.clone();
    let mut shared = None;
    let mut machine = match spec.server {
        Server::Dirnnb => return Prepared::Dirnnb(Box::new(DirnnbMachine::new(cfg, workload))),
        Server::Stache => TyphoonMachine::new(cfg, workload, &|id, layout, cfg| {
            wrap(
                Box::new(StacheProtocol::new(id, layout, cfg)),
                Role::Protocol,
            )
        }),
        Server::Em3dUpdate => TyphoonMachine::new(cfg, workload, &|id, layout, cfg| {
            wrap(
                Box::new(Em3dUpdateProtocol::new(id, layout, cfg)),
                Role::Protocol,
            )
        }),
        Server::KvStache | Server::KvUpdate => {
            let Input::Kv(params) = &spec.input else {
                panic!("{}: a KV server needs a KV input", spec.label)
            };
            // The same plumbing as `tt_serve::run_kv`, with room for a
            // decorator on each side of the reliable transport.
            let lat: SharedKvLatency = Default::default();
            let kv = params.kv_layout();
            let server = spec.server;
            let factory = |node: NodeId, layout: &Layout, cfg: &SystemConfig| {
                let inner: Box<dyn Protocol> = match server {
                    Server::KvStache => {
                        Box::new(KvStacheProtocol::new(node, layout, cfg, lat.clone()))
                    }
                    _ => Box::new(KvUpdateProtocol::new(
                        node,
                        layout,
                        cfg,
                        kv.clone(),
                        lat.clone(),
                    )),
                };
                let inner = wrap(inner, Role::Protocol);
                if cfg.fault.is_some() {
                    wrap(Box::new(Reliable::new(inner)), Role::Transport)
                } else {
                    inner
                }
            };
            let machine = TyphoonMachine::new(cfg, workload, &factory);
            shared = Some(lat);
            machine
        }
    };
    if let Some(p) = probe {
        machine.set_tracer(Box::new(CountingTracer::new(p.clone())));
    }
    Prepared::Typhoon(Box::new(machine), shared)
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated execution time.
    pub cycles: Cycles,
    /// Machine and protocol statistics.
    pub report: Report,
    /// Merged request latencies (KV runs).
    pub lat: Option<KvLatency>,
    /// Host seconds building the workload and machine.
    pub setup_s: f64,
    /// Host seconds inside the machine's `run()`.
    pub run_s: f64,
    /// Heap high-water mark from set-up through the run.
    pub peak_bytes: u64,
    /// Heap allocations during the run.
    pub allocs: u64,
}

impl Outcome {
    /// A digest of every model output: cycles, the full report and the
    /// latency histograms. Equal digests mean bit-identical results.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.write(&self.cycles.raw().to_le_bytes());
        for row in self.report.iter() {
            h.write(row.name.as_bytes());
            h.write(&row.value.to_bits().to_le_bytes());
        }
        if let Some(lat) = &self.lat {
            h.write(format!("{lat:?}").as_bytes());
        }
        h.0
    }

    /// A report counter, 0 when absent.
    pub fn counter(&self, name: &str) -> f64 {
        self.report.get(name).unwrap_or(0.0)
    }
}

/// 64-bit FNV-1a.
pub(crate) struct Fnv(pub(crate) u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Builds and runs `spec`, timing set-up and `run()` separately.
pub fn run(spec: &RunSpec, probe: Option<&Probe>) -> Outcome {
    alloc_stats::reset_peak();
    let t0 = Instant::now();
    let prepared = prepare(spec, probe);
    let setup_s = t0.elapsed().as_secs_f64();
    let allocs_before = alloc_stats::alloc_count();
    let (cycles, report, lat, run_s, allocs) = match prepared {
        Prepared::Dirnnb(mut m) => {
            let t = Instant::now();
            let r = m.run();
            let run_s = t.elapsed().as_secs_f64();
            (
                r.cycles,
                r.report,
                None,
                run_s,
                alloc_stats::alloc_count() - allocs_before,
            )
        }
        Prepared::Typhoon(mut m, shared) => {
            let t = Instant::now();
            let r = m.run();
            let run_s = t.elapsed().as_secs_f64();
            let allocs = alloc_stats::alloc_count() - allocs_before;
            drop(m); // folds every node's latency sink and every probe
            let lat =
                shared.map(|s| std::mem::take(&mut *s.lock().expect("latency collector poisoned")));
            (r.cycles, r.report, lat, run_s, allocs)
        }
    };
    Outcome {
        cycles,
        report,
        lat,
        setup_s,
        run_s,
        peak_bytes: alloc_stats::peak_bytes(),
        allocs,
    }
}

/// Requests a KV run must complete (0 for other runs).
pub(crate) fn expected_requests(spec: &RunSpec) -> u64 {
    match &spec.input {
        Input::Kv(p) => p.requests_per_node * p.nodes as u64,
        _ => 0,
    }
}
