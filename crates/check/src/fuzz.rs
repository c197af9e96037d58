//! The fuzz engine: one run / fuzz / replay / shrink path for every
//! check family.
//!
//! One `u64` seed determines everything: the case shape
//! ([`Family::shape`]), the scripts the shape generates, and the
//! schedule perturbation ([`FuzzOptions::perturb_for`]). A seed's run is
//! therefore bit-exactly reproducible — replay is just [`run_seed`]
//! again — and a failure report only needs the seed.
//!
//! A family supplies three things: its shape (the seed draw, how it is
//! displayed, and its shape-shrink candidates), its legs and their
//! scripts, and its predicted final image. The engine does the rest:
//! it runs each leg under `catch`, extracts the final images, and
//! holds them against each other and the prediction.
//!
//! - [`Family::Litmus`] ([`crate::litmus`]): `tt-typhoon` with the Stache
//!   protocol under the invariant engine, then `tt-dirnnb`, the
//!   all-hardware baseline, under the same tie-breaking seed.
//! - [`Family::Kv`] ([`crate::kvlitmus`]): Typhoon with Stache, Typhoon
//!   with the KV write-update server, then DirNNB.
//!
//! Perturbations only touch *legal* nondeterminism (same-cycle
//! ordering, latency within the network band, compute coalescing,
//! direct execution, lossy-network schedules behind the reliable
//! transport, routed topologies), so any divergence — a panic, an
//! invariant trip, or an image mismatch — is a bug.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use tt_apps::kv_update::KvUpdateProtocol;
use tt_base::workload::{coalesce_computes, Layout, Op, ScriptWorkload, Workload};
use tt_base::{Cycles, DetRng, FaultSpec, NodeId, SystemConfig, Topology, VAddr};
use tt_dirnnb::DirnnbMachine;
use tt_mem::Tag;
use tt_serve::{KvLayout, SharedKvLatency};
use tt_stache::{reliable_vn_policy, Reliable, ReliableConfig, StacheProtocol};
use tt_tempest::Protocol;
use tt_typhoon::TyphoonMachine;

use crate::invariants::{InvariantChecker, DEFAULT_EVENT_BUDGET};
use crate::kvlitmus::{KvLitmus, KvLitmusConfig};
use crate::litmus::{Litmus, LitmusConfig};
use crate::scenarios::SkipInvalidate;

/// Builds one node's protocol instance (same shape as
/// [`TyphoonMachine::new`]'s constructor argument).
pub type ProtocolFactory<'a> = &'a dyn Fn(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol>;

/// The stock factory: the real Stache protocol.
pub fn stache_factory(id: NodeId, layout: &Layout, cfg: &SystemConfig) -> Box<dyn Protocol> {
    Box::new(StacheProtocol::new(id, layout, cfg))
}

/// Schedule perturbations for one run — all within the machines' legal
/// nondeterminism, all derived from the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerturbConfig {
    /// Shuffle same-cycle event ordering with this seed (None = the
    /// deterministic FIFO order production runs use).
    pub tie_shuffle: Option<u64>,
    /// Extra per-packet network latency, uniform in `0..=jitter_max`
    /// cycles on top of the configured base latency (0 = no jitter).
    /// Per-link FIFO order is preserved by construction.
    pub jitter_max: u64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Coalesce adjacent compute ops before running.
    pub coalesce: bool,
    /// Run CPUs in direct-execution (event-frontier) mode.
    pub direct_execution: bool,
    /// Lossy-network fault schedule for the Typhoon legs (`None` =
    /// perfect network). When set, the Stache legs run wrapped in the
    /// [`Reliable`] transport, the invariant budget widens (retries
    /// inflate the event count), and the DirNNB leg stays fault-free as
    /// the reference: faults may cost cycles but must never change the
    /// final memory image. Fault decisions are pure hashes of per-link
    /// state, so a seed replays its schedule bit-exactly.
    pub fault: Option<FaultSpec>,
    /// Interconnect model for the Typhoon legs. Routed topologies
    /// (mesh/fat-tree) change latencies — and therefore cycles — but
    /// must never change the final memory image. The DirNNB reference
    /// leg always runs `Ideal`, mirroring the
    /// fault-free pristine-reference rule.
    pub topology: Topology,
}

impl PerturbConfig {
    /// Derives the perturbation from a seed. New dimensions are drawn
    /// *after* the existing ones so old seeds keep their historical
    /// shapes.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(3);
        PerturbConfig {
            tie_shuffle: if rng.chance(0.75) { Some(rng.next_u64()) } else { None },
            jitter_max: rng.below(4),
            jitter_seed: rng.next_u64(),
            coalesce: rng.chance(0.5),
            direct_execution: rng.chance(0.5),
            fault: None,
            topology: {
                // Draws of two retired dimensions (simulator threads and
                // window policy), discarded so later draws keep their values.
                let _ = (rng.below(3), rng.chance(0.5));
                // Drawn last (newest dimension): half the seeds keep the
                // ideal pipe, the rest split between the routed topologies
                // with derived shape parameters (width/arity 0).
                match rng.below(4) {
                    0 | 1 => Topology::Ideal,
                    2 => Topology::Mesh2D { width: 0 },
                    _ => Topology::FatTree { arity: 0 },
                }
            },
        }
    }

    /// No perturbation at all (production schedule).
    pub fn none() -> Self {
        PerturbConfig {
            tie_shuffle: None,
            jitter_max: 0,
            jitter_seed: 0,
            coalesce: false,
            direct_execution: false,
            fault: None,
            topology: Topology::Ideal,
        }
    }

    /// The Typhoon legs' configuration on `nodes` nodes: `seed` feeds
    /// the machines' RNG streams, and the execution mode, fault schedule
    /// and topology come from this perturbation.
    pub fn system_config(&self, nodes: usize, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::test_config(nodes);
        cfg.seed = seed;
        cfg.direct_execution = self.direct_execution;
        cfg.fault = self.fault;
        cfg.topology = self.topology;
        cfg
    }

    /// A Typhoon leg under this perturbation: `factory`'s protocol,
    /// behind the [`Reliable`] transport when a fault schedule is set,
    /// with the tie-shuffle and network jitter applied.
    pub fn typhoon(
        &self,
        cfg: SystemConfig,
        workload: Box<dyn Workload>,
        factory: ProtocolFactory,
        transport: ReliableConfig,
    ) -> TyphoonMachine {
        let mut m = if self.fault.is_some() {
            let reliable = |id: NodeId, layout: &Layout, cfg: &SystemConfig| -> Box<dyn Protocol> {
                Box::new(Reliable::with_config(factory(id, layout, cfg), transport))
            };
            TyphoonMachine::new(cfg, workload, &reliable)
        } else {
            TyphoonMachine::new(cfg, workload, factory)
        };
        if let Some(seed) = self.tie_shuffle {
            m.set_tie_shuffle(seed);
        }
        if self.jitter_max > 0 {
            m.set_net_jitter(self.jitter_seed, Cycles::new(self.jitter_max));
        }
        m
    }

    /// The invariant engine for a Typhoon leg touching `blocks`. Under a
    /// fault schedule it accepts the transport's ack handler and widens
    /// its livelock watchdog (every retry and ack is an extra event).
    pub fn checker(&self, blocks: Vec<VAddr>) -> InvariantChecker {
        let checker = InvariantChecker::new(blocks);
        if self.fault.is_some() {
            checker
                .with_policy(reliable_vn_policy(tt_stache::vn_policy()))
                .with_budget(DEFAULT_EVENT_BUDGET * 4)
        } else {
            checker
        }
    }

    /// The DirNNB reference leg for the Typhoon legs' configuration
    /// `cfg`: the same tie-shuffle, but never faults or a routed
    /// topology. It is the pristine ideal-network reference a lossy or
    /// routed Typhoon leg's final image is held against. Jitter is a
    /// Typhoon network knob; DirNNB latencies come from its cost tables.
    pub fn dirnnb(&self, cfg: &SystemConfig, workload: Box<dyn Workload>) -> DirnnbMachine {
        let mut cfg = cfg.clone();
        cfg.fault = None;
        cfg.topology = Topology::Ideal;
        let mut m = DirnnbMachine::new(cfg, workload);
        if let Some(seed) = self.tie_shuffle {
            m.set_tie_shuffle(seed);
        }
        m
    }

    /// One-step-simpler schedules, in the order the shrinker tries
    /// them: each dimension moved toward the production schedule alone.
    fn simpler(&self) -> Vec<PerturbConfig> {
        let mut out = Vec::new();
        if self.tie_shuffle.is_some() {
            out.push(PerturbConfig { tie_shuffle: None, ..self.clone() });
        }
        if self.jitter_max > 0 {
            out.push(PerturbConfig { jitter_max: 0, jitter_seed: 0, ..self.clone() });
        }
        if self.coalesce {
            out.push(PerturbConfig { coalesce: false, ..self.clone() });
        }
        if self.direct_execution {
            out.push(PerturbConfig { direct_execution: false, ..self.clone() });
        }
        if self.topology != Topology::Ideal {
            out.push(PerturbConfig { topology: Topology::Ideal, ..self.clone() });
        }
        if let Some(fs) = self.fault {
            for zeroed in [
                FaultSpec { drop_permille: 0, ..fs },
                FaultSpec { dup_permille: 0, ..fs },
                FaultSpec { corrupt_permille: 0, ..fs },
                FaultSpec { partition_permille: 0, ..fs },
            ] {
                if zeroed != fs {
                    out.push(PerturbConfig { fault: Some(zeroed), ..self.clone() });
                }
            }
            out.push(PerturbConfig { fault: None, ..self.clone() });
        }
        out
    }
}

/// The stock Stache protocol with the planted bug: an `INV` is
/// acknowledged without invalidating (see [`SkipInvalidate`]).
fn skip_invalidate_factory(id: NodeId, layout: &Layout, cfg: &SystemConfig) -> Box<dyn Protocol> {
    Box::new(SkipInvalidate::new(id, layout, cfg))
}

/// The check families the engine drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Seed-generated litmus cases over contended blocks
    /// ([`LitmusConfig`]): Typhoon/Stache against DirNNB.
    Litmus,
    /// Put/get races over `tt-serve` key slots ([`KvLitmusConfig`]):
    /// Typhoon/Stache and the write-update server against DirNNB.
    Kv,
}

impl Family {
    /// The case shape this family draws from `seed`.
    pub fn shape(self, seed: u64) -> Shape {
        match self {
            Family::Litmus => Shape::Litmus(LitmusConfig::from_seed(seed)),
            Family::Kv => Shape::Kv(KvLitmusConfig::from_seed(seed)),
        }
    }
}

/// The shape of one case, in its family's terms.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// A [`Family::Litmus`] case.
    Litmus(LitmusConfig),
    /// A [`Family::Kv`] case.
    Kv(KvLitmusConfig),
}

impl Shape {
    /// The seed that generated (or, after shrinking, accompanies) the
    /// case.
    pub fn seed(&self) -> u64 {
        match self {
            Shape::Litmus(c) => c.seed,
            Shape::Kv(c) => c.seed,
        }
    }

    /// The shape's dimensions as `(name, value)` pairs, in display
    /// order (failure lines and JSON reports).
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match self {
            Shape::Litmus(c) => c.fields(),
            Shape::Kv(c) => c.fields(),
        }
    }

    /// One-step-smaller shapes, in the order the shrinker tries them.
    /// KV shapes have none yet: only their schedule shrinks.
    fn smaller(&self) -> Vec<Shape> {
        match self {
            Shape::Litmus(c) => c.smaller().into_iter().map(Shape::Litmus).collect(),
            Shape::Kv(_) => Vec::new(),
        }
    }

    /// Generates the case: deterministic in the shape.
    fn case(&self) -> Case {
        match self {
            Shape::Litmus(c) => Litmus::generate(c).into_case(),
            Shape::Kv(c) => KvLitmus::generate(c).into_case(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            write!(f, "{}{name}={value}", if i == 0 { "" } else { " " })?;
        }
        Ok(())
    }
}

/// A generated case as the engine runs it: the legs, in run order, and
/// what their final images must equal.
pub(crate) struct Case {
    /// Shared-segment layout of every leg.
    pub layout: Layout,
    /// The machine runs.
    pub legs: Vec<Leg>,
    /// Block base addresses the invariant engine watches.
    pub blocks: Vec<VAddr>,
    /// Predicted final value of every written word.
    pub finals: Vec<(VAddr, u64)>,
    /// The failure stage of an image mismatch.
    pub differential: &'static str,
    /// Stache frame budget of the Typhoon legs, if the shape caps it.
    pub stache_capacity_bytes: Option<usize>,
}

/// One machine run of a case.
pub(crate) struct Leg {
    /// The leg's name in image-mismatch messages and [`CaseResult`].
    pub name: &'static str,
    /// The failure stage if the run panics.
    pub stage: &'static str,
    /// What the scripts run on.
    pub machine: Machine,
    /// Per-node op scripts (index = node).
    pub scripts: Vec<Vec<Op>>,
}

/// The machine and protocol of a [`Leg`].
pub(crate) enum Machine {
    /// Typhoon with Stache (or the planted bug) under the invariant
    /// engine.
    Stache,
    /// Typhoon with the KV write-update server. No invariant engine:
    /// home ReadWrite alongside sharer ReadOnly copies is this
    /// protocol's intended tag state and violates SWMR by design.
    KvUpdate(KvLayout),
    /// DirNNB, the fault-free, ideal-network reference.
    Dirnnb,
}

/// Compact one-line rendering of a fault schedule for failure reports.
fn fault_summary(f: &FaultSpec) -> String {
    format!(
        "faults[seed={} drop={}‰ dup={}‰ corrupt={}‰ partition={}‰/{}x{}]",
        f.seed,
        f.drop_permille,
        f.dup_permille,
        f.corrupt_permille,
        f.partition_permille,
        f.partition_epoch,
        f.partition_run
    )
}

/// A clean case's vitals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// Completion time of every leg, in run order, by leg name.
    pub cycles: Vec<(&'static str, Cycles)>,
    /// Events the invariant engine observed.
    pub events: u64,
}

impl fmt::Display for CaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (leg, cycles) in &self.cycles {
            write!(f, "{leg} {cycles} cycles, ")?;
        }
        write!(f, "{} events observed", self.events)
    }
}

/// A caught failure: which seed, which shape, which stage, and the
/// panic or mismatch message. `shrunk` is filled in by [`shrink`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// The seed that produced the case.
    pub seed: u64,
    /// The case shape that failed.
    pub shape: Shape,
    /// The schedule perturbation in force.
    pub perturb: PerturbConfig,
    /// Which stage failed: a leg (`"typhoon"`, `"kv-update"`, ...) or
    /// the image differential (`"differential"`, `"kv-differential"`).
    pub stage: &'static str,
    /// The panic message or mismatch description.
    pub message: String,
    /// A smaller shape that still fails, if [`shrink`] ran.
    pub shrunk: Option<Shape>,
    /// A simpler perturbation/fault schedule that still fails, if
    /// [`shrink`] ran: each schedule dimension is delta-debugged toward
    /// the production schedule one at a time.
    pub shrunk_perturb: Option<PerturbConfig>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {} [{} stage] {}", self.seed, self.stage, self.shape)?;
        if let Some(fs) = &self.perturb.fault {
            write!(f, " {}", fault_summary(fs))?;
        }
        if self.perturb.topology != Topology::Ideal {
            write!(f, " topology={}", self.perturb.topology)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.shrunk {
            write!(f, " (shrunk to {s})")?;
        }
        if let Some(p) = &self.shrunk_perturb {
            write!(
                f,
                " (schedule shrunk to tie={} jitter={} coalesce={} direct={} \
                 topology={} {})",
                p.tie_shuffle.is_some(),
                p.jitter_max,
                p.coalesce,
                p.direct_execution,
                p.topology,
                match &p.fault {
                    Some(fs) => fault_summary(fs),
                    None => "no-faults".to_string(),
                }
            )?;
        }
        Ok(())
    }
}

/// Serializes panic-hook swapping so concurrent fuzz runs (e.g. test
/// threads) don't clobber each other's hooks.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f`, converting a panic into its message. The default panic
/// hook is silenced for the duration: the fuzzer *expects* failures and
/// reports them itself.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(prev);
    drop(guard);
    out.map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Reconstructs the word at `addr` from a finished Typhoon machine:
/// prefer the writable copy (SWMR makes it unique), then any readable
/// copy, then the home node's memory.
fn typhoon_word(m: &TyphoonMachine, addr: VAddr) -> u64 {
    let nodes = m.config().nodes;
    let mut readable = None;
    for n in 0..nodes {
        match m.node_tag(n, addr) {
            Some(Tag::ReadWrite) => return m.node_word(n, addr).expect("writable copy mapped"),
            Some(Tag::ReadOnly) if readable.is_none() => readable = Some(n),
            _ => {}
        }
    }
    if let Some(n) = readable {
        return m.node_word(n, addr).expect("readable copy mapped");
    }
    let home = m
        .layout()
        .pages(nodes)
        .find(|(vpn, _, _)| *vpn == addr.page())
        .map(|(_, h, _)| h.index())
        .expect("address in layout");
    m.node_word(home, addr).expect("home page mapped")
}

/// Cross-cutting knobs for a fuzzing run, replay or shrink — everything
/// the `tt-check` CLI can force on top of the seed-derived shapes.
#[derive(Clone, Debug, Default)]
pub struct FuzzOptions {
    /// Enable the lossy-network dimension: every case gets a
    /// seed-derived fault schedule and the protocol runs behind the
    /// reliable transport.
    pub faults: bool,
    /// Force the fault-plan seed instead of deriving it from the case
    /// seed (`tt-check replay --fault-seed F`). Implies `faults`.
    pub fault_seed: Option<u64>,
    /// Plant a known bug the run must catch: on a perfect network the
    /// [`SkipInvalidate`] Stache variant; with faults, a reliable
    /// transport that retransmits without duplicate suppression
    /// (`dedupe: false`) under the stock Stache.
    pub planted_bug: bool,
    /// Force the interconnect model of the Typhoon legs
    /// (`tt-check run --topology mesh`); `None` = each seed's own draw.
    pub topology: Option<Topology>,
}

impl FuzzOptions {
    /// The perturbation these options produce for one seed. The
    /// fault-plan seed comes from its own fork, so fault decisions are
    /// independent of every other drawn dimension.
    pub fn perturb_for(&self, seed: u64) -> PerturbConfig {
        let mut p = PerturbConfig::from_seed(seed);
        if self.faults || self.fault_seed.is_some() {
            let fs = self
                .fault_seed
                .unwrap_or_else(|| DetRng::new(seed).fork(12).next_u64());
            p.fault = Some(FaultSpec::from_seed(fs));
        }
        if let Some(t) = self.topology {
            p.topology = t;
        }
        p
    }

    /// The Stache legs' protocol and the Typhoon legs' transport: the
    /// one place the planted bug is chosen. It follows the run's mode,
    /// not each perturbation, so a shrink that drops the fault schedule
    /// keeps the bug that was caught.
    fn protocol(&self) -> (ProtocolFactory<'static>, ReliableConfig) {
        let faulty = self.faults || self.fault_seed.is_some();
        match (self.planted_bug, faulty) {
            (true, false) => (&skip_invalidate_factory, ReliableConfig::default()),
            (true, true) => (
                &stache_factory,
                ReliableConfig { dedupe: false, ..ReliableConfig::default() },
            ),
            (false, _) => (&stache_factory, ReliableConfig::default()),
        }
    }
}

/// Runs one case: every leg in order under `perturb`, each under
/// [`catch`], then the final-image differential across all legs and the
/// family's prediction.
fn run_case(
    shape: &Shape,
    perturb: &PerturbConfig,
    options: &FuzzOptions,
) -> Result<CaseResult, Box<Failure>> {
    let case = shape.case();
    let fail = |stage: &'static str, message: String| {
        Box::new(Failure {
            seed: shape.seed(),
            shape: shape.clone(),
            perturb: perturb.clone(),
            stage,
            message,
            shrunk: None,
            shrunk_perturb: None,
        })
    };
    let (protocol, transport) = options.protocol();
    let mut syscfg = perturb.system_config(case.legs[0].scripts.len(), shape.seed());
    if let Some(bytes) = case.stache_capacity_bytes {
        syscfg.stache_capacity_bytes = bytes;
    }

    let mut result = CaseResult { cycles: Vec::new(), events: 0 };
    let mut images: Vec<Vec<u64>> = Vec::new();
    for leg in &case.legs {
        let (cycles, image, events) = catch(|| {
            let mut w = ScriptWorkload::new(leg.scripts.len()).with_layout(case.layout.clone());
            for (n, script) in leg.scripts.iter().enumerate() {
                let mut ops = script.clone();
                if perturb.coalesce {
                    coalesce_computes(&mut ops);
                }
                w.set(n, ops);
            }
            let workload: Box<dyn Workload> = Box::new(w);
            let image = |word: &mut dyn FnMut(VAddr) -> u64| -> Vec<u64> {
                case.finals.iter().map(|&(a, _)| word(a)).collect()
            };
            match &leg.machine {
                Machine::Stache => {
                    let mut m = perturb.typhoon(syscfg.clone(), workload, protocol, transport);
                    let mut checker = perturb.checker(case.blocks.clone());
                    let r = m.run_observed(&mut |now, ev, mach| checker.check(now, ev, mach));
                    (r.cycles, image(&mut |a| typhoon_word(&m, a)), checker.events())
                }
                Machine::KvUpdate(kv) => {
                    let latency = SharedKvLatency::default();
                    let factory = |id, layout: &Layout, cfg: &SystemConfig| -> Box<dyn Protocol> {
                        Box::new(KvUpdateProtocol::new(id, layout, cfg, kv.clone(), latency.clone()))
                    };
                    let mut m = perturb.typhoon(syscfg.clone(), workload, &factory, transport);
                    let cycles = m.run().cycles;
                    (cycles, image(&mut |a| typhoon_word(&m, a)), 0)
                }
                Machine::Dirnnb => {
                    let mut m = perturb.dirnnb(&syscfg, workload);
                    let cycles = m.run().cycles;
                    (cycles, image(&mut |a| m.shared_word(a)), 0)
                }
            }
        })
        .map_err(|msg| fail(leg.stage, msg))?;
        result.cycles.push((leg.name, cycles));
        result.events += events;
        images.push(image);
    }

    for (i, &(addr, expect)) in case.finals.iter().enumerate() {
        if images.iter().any(|image| image[i] != expect) {
            let got: String = case
                .legs
                .iter()
                .zip(&images)
                .map(|(leg, image)| format!("{} {:#x}, ", leg.name, image[i]))
                .collect();
            return Err(fail(
                case.differential,
                format!("final image mismatch at {addr}: {got}expected {expect:#x}"),
            ));
        }
    }
    Ok(result)
}

/// Derives `family`'s case and perturbation from `seed` under `options`
/// and runs it. This is also replay: the same seed and options always
/// rerun the identical case.
pub fn run_seed(
    family: Family,
    seed: u64,
    options: &FuzzOptions,
) -> Result<CaseResult, Box<Failure>> {
    run_case(&family.shape(seed), &options.perturb_for(seed), options)
}

/// What a fuzzing sweep found.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Seeds actually run (stops at the first failure).
    pub seeds_run: u64,
    /// The first failure, if any.
    pub failure: Option<Failure>,
}

/// Fuzzes `count` consecutive seeds of `family` starting at
/// `base_seed`, stopping at the first failure.
pub fn fuzz(family: Family, base_seed: u64, count: u64, options: &FuzzOptions) -> FuzzReport {
    for i in 0..count {
        if let Err(f) = run_seed(family, base_seed + i, options) {
            return FuzzReport { seeds_run: i + 1, failure: Some(*f) };
        }
    }
    FuzzReport { seeds_run: count, failure: None }
}

/// Greedily shrinks a failing case under the `options` it was caught
/// with. Two interleaved dimensions:
///
/// - **shape** — tries the family's one-step-smaller shapes in order
///   (a litmus case drops a phase, a block, a page, or a node), keeping
///   any reduction that still fails;
/// - **schedule** — delta-debugs the perturbation and fault dimensions
///   one at a time toward the production schedule (tie-shuffle off,
///   jitter 0, no coalescing, direct execution off, the ideal network,
///   each fault rate 0, finally no faults at all), keeping any
///   simplification that still fails.
///
/// Returns the failure with `shrunk` and `shrunk_perturb` filled in.
pub fn shrink(failure: &Failure, options: &FuzzOptions) -> Failure {
    let still_fails = |s: &Shape, p: &PerturbConfig| run_case(s, p, options).is_err();
    let mut shape = failure.shape.clone();
    let mut per = failure.perturb.clone();
    loop {
        let mut progressed = false;
        while let Some(smaller) = shape.smaller().into_iter().find(|s| still_fails(s, &per)) {
            shape = smaller;
            progressed = true;
        }
        while let Some(simpler) = per.simpler().into_iter().find(|p| still_fails(&shape, p)) {
            per = simpler;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    Failure { shrunk: Some(shape), shrunk_perturb: Some(per), ..failure.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturb_derivation_is_deterministic() {
        for seed in 0..100 {
            assert_eq!(PerturbConfig::from_seed(seed), PerturbConfig::from_seed(seed));
            assert!(PerturbConfig::from_seed(seed).jitter_max <= 3);
        }
        for shape in [
            Topology::Ideal,
            Topology::Mesh2D { width: 0 },
            Topology::FatTree { arity: 0 },
        ] {
            assert!(
                (0..100).any(|s| PerturbConfig::from_seed(s).topology == shape),
                "some seeds must draw topology {shape}"
            );
        }
    }

    /// Seeds keep the shapes they had when the retired parallel-leg
    /// dimensions were still drawn, so a logged seed replays the same
    /// case. Values captured before those dimensions were removed.
    #[test]
    fn seeds_keep_their_historical_perturbations() {
        let pinned = |seed, tie_shuffle, jitter_max, jitter_seed, coalesce, direct, topology| {
            assert_eq!(
                PerturbConfig::from_seed(seed),
                PerturbConfig {
                    tie_shuffle,
                    jitter_max,
                    jitter_seed,
                    coalesce,
                    direct_execution: direct,
                    fault: None,
                    topology,
                },
                "seed {seed}"
            );
        };
        let mesh = Topology::Mesh2D { width: 0 };
        let tree = Topology::FatTree { arity: 0 };
        let ideal = Topology::Ideal;
        pinned(0, Some(4546593954181015701), 0, 7133055505715044207, true, true, mesh);
        pinned(1, Some(14114238853097170742), 2, 1000740627187379725, false, true, tree);
        pinned(2, None, 1, 15140692562908715804, false, true, ideal);
        pinned(3, Some(209740069791622052), 3, 16639847201113641552, true, false, ideal);
        pinned(63, None, 3, 6543730191758350546, false, false, ideal);
        let faulty = FuzzOptions { faults: true, ..FuzzOptions::default() };
        let f = faulty.perturb_for(3).fault.expect("faults drawn");
        assert_eq!(
            (f.seed, f.drop_permille, f.dup_permille, f.corrupt_permille),
            (12065743457767676854, 86, 119, 2)
        );
        assert_eq!((f.partition_permille, f.partition_epoch), (266, 1054));
    }

    #[test]
    fn catch_captures_panic_message() {
        let err = catch(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err, "boom 7");
        assert_eq!(catch(|| 42).unwrap(), 42);
    }

    #[test]
    fn a_single_seed_runs_clean_and_replays_identically() {
        let options = FuzzOptions::default();
        let a = run_seed(Family::Litmus, 7, &options).expect("seed 7 clean");
        let b = run_seed(Family::Litmus, 7, &options).expect("seed 7 clean on replay");
        assert_eq!(a, b);
        assert!(a.events > 0);
    }

    #[test]
    fn fault_dimension_is_deterministic_and_varied() {
        let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
        for seed in 0..50 {
            let a = options.perturb_for(seed);
            assert_eq!(a, options.perturb_for(seed));
            let fs = a.fault.expect("faults drawn");
            // Everything else matches the fault-free draw: the fault
            // dimension must not disturb historical seed shapes.
            assert_eq!(PerturbConfig { fault: None, ..a }, PerturbConfig::from_seed(seed));
            assert!(fs.drop_permille <= 150 && fs.dup_permille <= 150);
        }
        assert!(
            (0..50).any(|s| {
                let f = options.perturb_for(s).fault.unwrap();
                f.drop_permille > 0 && f.dup_permille > 0
            }),
            "some schedules must both drop and duplicate"
        );
    }

    #[test]
    fn faulty_seeds_run_clean_and_replay_identically() {
        let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
        for seed in 0..4 {
            let a = run_seed(Family::Litmus, seed, &options)
                .unwrap_or_else(|f| panic!("faulty seed {seed} failed: {f}"));
            let b = run_seed(Family::Litmus, seed, &options).expect("replay clean");
            assert_eq!(a, b, "faulty seed {seed} did not replay bit-exactly");
        }
    }

    #[test]
    fn forced_fault_seed_replays_bit_exactly() {
        // The same forced fault schedule twice: identical cycles (the
        // images are checked inside the case itself).
        let options = FuzzOptions {
            faults: true,
            fault_seed: Some(0xFA17),
            ..FuzzOptions::default()
        };
        let a = run_seed(Family::Litmus, 11, &options).expect("faulty run clean");
        let b = run_seed(Family::Litmus, 11, &options).expect("faulty replay clean");
        assert_eq!(a, b, "forced fault schedule did not replay bit-exactly");
    }

    #[test]
    fn planted_transport_bug_is_caught_and_shrunk() {
        // Retransmission without duplicate suppression: the transport
        // hands stale deliveries to Stache, which the harness must
        // catch. The shrinker then delta-debugs the fault schedule.
        let options = FuzzOptions {
            faults: true,
            planted_bug: true,
            ..FuzzOptions::default()
        };
        let report = fuzz(Family::Litmus, 0, 30, &options);
        let failure = report.failure.expect("dedupe-off transport must be caught");
        let shrunk = shrink(&failure, &options);
        let per = shrunk.shrunk_perturb.expect("schedule shrink ran");
        assert!(
            per.fault.is_some(),
            "the failure needs faults, so shrinking must keep a fault schedule"
        );
        assert!(shrunk.shrunk.is_some());
    }

    /// One failure line carries the shape, the fault schedule, the
    /// message, and both shrink results, in that order.
    #[test]
    fn failure_line_renders_shape_and_shrinks() {
        let shape = Family::Litmus.shape(0);
        let mut perturb = PerturbConfig::none();
        perturb.fault = FuzzOptions { faults: true, ..FuzzOptions::default() }.perturb_for(0).fault;
        let failure = Failure {
            seed: 0,
            shape: shape.clone(),
            perturb: perturb.clone(),
            stage: "typhoon",
            message: "boom".into(),
            shrunk: Some(shape),
            shrunk_perturb: Some(PerturbConfig { fault: None, ..perturb }),
        };
        let line = failure.to_string();
        let c = LitmusConfig::from_seed(0);
        let dims = format!("nodes={} pages={} blocks={} phases={}", c.nodes, c.pages, c.blocks, c.phases);
        assert!(line.starts_with(&format!("seed 0 [typhoon stage] {dims} faults[seed=")), "{line}");
        assert!(line.contains(&format!(": boom (shrunk to {dims}) (schedule shrunk to tie=false ")), "{line}");
        assert!(line.ends_with("topology=ideal no-faults)"), "{line}");
    }
}
