//! Simulation parameters — a direct transcription of Table 2 of the paper.
//!
//! Every latency the machines charge comes from this module, so a single
//! [`SystemConfig`] value fully determines a simulation (together with the
//! workload). The `Default` impl reproduces Table 2; the bench harness
//! prints the live defaults so "Table 2" is regenerated from code rather
//! than copied prose.

use crate::cycles::Cycles;
use crate::rng::DetRng;

/// Configuration of the primary CPU's cache and TLB (Table 2, "Common").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuConfig {
    /// Data cache capacity in bytes (Figure 3 sweeps 4 KB – 256 KB).
    pub cache_bytes: usize,
    /// Data cache associativity (paper: 4-way, random replacement).
    pub cache_assoc: usize,
    /// TLB entries (paper: 64-entry, fully associative, FIFO replacement).
    pub tlb_entries: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cache_bytes: 64 * 1024,
            cache_assoc: 4,
            tlb_entries: 64,
        }
    }
}

/// Latencies shared by both target machines (Table 2, "Common").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cycles to satisfy a cache miss from local memory.
    pub local_miss: Cycles,
    /// Cycles charged for a writeback (paper assumes a perfect write buffer).
    pub local_writeback: Cycles,
    /// Cycles to service a TLB miss.
    pub tlb_miss: Cycles,
    /// One-way network latency between any two nodes.
    pub network_latency: Cycles,
    /// Cycles each packet occupies its sender's injection port. The
    /// paper models no contention (0); nonzero values serialize senders
    /// for the contention-sensitivity ablation.
    pub network_occupancy: Cycles,
    /// Latency of the hardware barrier once the last processor arrives.
    pub barrier_latency: Cycles,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            local_miss: Cycles::new(29),
            local_writeback: Cycles::ZERO,
            tlb_miss: Cycles::new(25),
            network_latency: Cycles::new(11),
            network_occupancy: Cycles::ZERO,
            barrier_latency: Cycles::new(11),
        }
    }
}

/// How the DirNNB machine assigns pages to home nodes.
///
/// The paper's DirNNB allocates pages without application knowledge;
/// Section 6 notes that its results "can be significantly improved using
/// careful data placement" (first-touch, migration) — at extra hardware
/// or programmer cost — whereas Stache gets locality automatically.
/// `RoundRobin` reproduces the paper's baseline; `Owner` models a
/// perfectly placed (first-touch-quality) DirNNB using the workload's
/// owners-compute layout, used for the Figure 4 comparison and the
/// placement ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirPlacement {
    /// Pages homed round-robin by virtual page number (paper baseline).
    #[default]
    RoundRobin,
    /// Pages homed on the workload's owning node (ideal placement).
    Owner,
}

/// Cost model for the all-hardware DirNNB machine (Table 2, "DirNNB Only").
///
/// A remote cache miss costs
/// `remote_miss_request + replacement? + network/directory + remote_miss_finish`;
/// a directory operation costs
/// `dir_op_base + dir_op_block_recv? + dir_op_per_msg * msgs + dir_op_block_send?`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirnnbCosts {
    /// Page-to-home assignment policy.
    pub placement: DirPlacement,
    /// Request-side cycles of a remote miss before the network (paper: 23).
    pub remote_miss_request: Cycles,
    /// Completion-side cycles of a remote miss after the response arrives
    /// (paper: 34).
    pub remote_miss_finish: Cycles,
    /// Extra cycles when the miss must replace a shared block (paper: 5).
    pub replace_shared: Cycles,
    /// Extra cycles when the miss must replace an exclusive block (paper: 16).
    pub replace_exclusive: Cycles,
    /// Cycles for a remote cache to process an invalidation (paper: 8,
    /// plus a replacement charge).
    pub remote_invalidate: Cycles,
    /// Base cycles of every directory operation (paper: 16).
    pub dir_op_base: Cycles,
    /// Extra cycles if the directory operation received a data block (paper: 11).
    pub dir_op_block_recv: Cycles,
    /// Extra cycles per message the directory sends (paper: 5).
    pub dir_op_per_msg: Cycles,
    /// Extra cycles if the directory operation sends a data block (paper: 11).
    pub dir_op_block_send: Cycles,
}

impl Default for DirnnbCosts {
    fn default() -> Self {
        DirnnbCosts {
            placement: DirPlacement::RoundRobin,
            remote_miss_request: Cycles::new(23),
            remote_miss_finish: Cycles::new(34),
            replace_shared: Cycles::new(5),
            replace_exclusive: Cycles::new(16),
            remote_invalidate: Cycles::new(8),
            dir_op_base: Cycles::new(16),
            dir_op_block_recv: Cycles::new(11),
            dir_op_per_msg: Cycles::new(5),
            dir_op_block_send: Cycles::new(11),
        }
    }
}

/// Interconnect topology of the simulated machine (DESIGN.md §11).
///
/// The paper models an ideal constant-latency network; big-machine mode
/// replaces it with routed topologies whose links have occupancy queues,
/// so hot-home saturation is priced per link. Routes and queuing are pure
/// functions of `(topology, src, dst, per-source send history, inject
/// time)`, so latencies are bit-identical across runs and `--jobs`
/// settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// Constant-latency pipe (`timing.network_latency` between any pair) —
    /// the paper's model and the byte-identical default.
    #[default]
    Ideal,
    /// 2D mesh, dimension-order (X then Y) routing. `width` 0 derives
    /// `ceil(sqrt(nodes))` at install time.
    Mesh2D {
        /// Nodes per row; node `i` sits at `(i % width, i / width)`.
        width: usize,
    },
    /// Fat tree over the node leaves: route climbs to the lowest common
    /// ancestor and back down (`2h` hops for radix-`arity` subtrees).
    /// `arity` 0 derives 4.
    FatTree {
        /// Branching factor of the tree (≥ 2 after derivation).
        arity: usize,
    },
}

impl Topology {
    /// CLI / provenance spelling: `ideal`, `mesh[:width]`, `fat-tree[:arity]`.
    pub fn as_string(self) -> String {
        match self {
            Topology::Ideal => "ideal".to_string(),
            Topology::Mesh2D { width: 0 } => "mesh".to_string(),
            Topology::Mesh2D { width } => format!("mesh:{width}"),
            Topology::FatTree { arity: 0 } => "fat-tree".to_string(),
            Topology::FatTree { arity } => format!("fat-tree:{arity}"),
        }
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let param = match param {
            Some(p) => Some(
                p.parse::<usize>()
                    .map_err(|_| format!("bad topology parameter {p:?} in {s:?}"))?,
            ),
            None => None,
        };
        match name {
            "ideal" if param.is_none() => Ok(Topology::Ideal),
            "mesh" => Ok(Topology::Mesh2D { width: param.unwrap_or(0) }),
            "fat-tree" | "fattree" => Ok(Topology::FatTree { arity: param.unwrap_or(0) }),
            _ => Err(format!(
                "unknown topology {s:?} (ideal|mesh[:width]|fat-tree[:arity])"
            )),
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_string())
    }
}

/// Where protocol handlers execute.
///
/// The paper's Section 2 notes Tempest "can also be implemented in
/// software for existing machines" (a native CM-5 version — the design
/// that became Blizzard). [`NpMode::OnCpu`] models that: handlers
/// interrupt the primary processor instead of running on a dedicated NP,
/// and fine-grain fault detection pays a software (trap-synthesis) cost
/// instead of the bus monitor's few cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NpMode {
    /// Handlers run on Typhoon's dedicated network interface processor.
    #[default]
    Dedicated,
    /// Handlers interrupt the primary CPU (software Tempest).
    OnCpu,
}

/// Configuration of Typhoon's network interface processor
/// (Table 2, "Typhoon Only", plus Section 6's measured handler path lengths).
#[derive(Clone, Debug, PartialEq)]
pub struct TyphoonConfig {
    /// NP TLB entries (64-entry, fully associative, FIFO).
    pub np_tlb_entries: usize,
    /// Reverse-TLB entries (64-entry, fully associative, FIFO).
    pub rtlb_entries: usize,
    /// Cycles to service an NP TLB or RTLB miss (paper: 25).
    pub np_tlb_miss: Cycles,
    /// NP data cache capacity in bytes (paper: 16 KB, 2-way).
    pub np_dcache_bytes: usize,
    /// NP data cache associativity.
    pub np_dcache_assoc: usize,
    /// Cycles for the hardware-assisted dispatch to start a handler.
    pub dispatch: Cycles,
    /// Cycles for the bus monitor to detect a block access fault, nack the
    /// transaction, and deposit a BAF-buffer entry.
    pub fault_detect: Cycles,
    /// Cycles a handler's 32-byte block transfer occupies the NP (the
    /// block transfer buffer overlaps the MBus transfer with execution).
    pub np_block_xfer: Cycles,
    /// Cycles the NP spends injecting or absorbing one bulk-transfer
    /// packet (Section 5.2's data-transfer thread).
    pub bulk_packet_cycles: Cycles,
    /// Instructions executed by the Stache miss handler that sends a block
    /// request (paper Section 6: 14 in the best case).
    pub stache_request_instr: u64,
    /// Instructions executed by the home-node handler that services a
    /// request and responds with data (paper: 30).
    pub stache_home_instr: u64,
    /// Instructions executed by the reply handler that installs arriving
    /// data and resumes the faulting thread (paper: 20).
    pub stache_reply_instr: u64,
    /// Instructions for the user-level page fault handler that allocates
    /// and maps a new stache page (not on the critical miss path).
    pub stache_page_fault_instr: u64,
    /// Multiplier applied to all Stache handler path lengths; used by the
    /// handler-cost ablation (DESIGN.md §5.2). 1.0 reproduces the paper.
    pub handler_cost_scale: f64,
    /// Where handlers execute (dedicated NP vs. the primary CPU).
    pub np_mode: NpMode,
    /// In [`NpMode::OnCpu`], cycles to enter/exit the handler interrupt
    /// (no hardware-assisted dispatch).
    pub software_dispatch: Cycles,
    /// In [`NpMode::OnCpu`], cycles to detect a block access fault in
    /// software (synthesized from ECC tricks or page protection, as the
    /// CM-5 port would; far costlier than the bus monitor).
    pub software_fault_detect: Cycles,
}

impl Default for TyphoonConfig {
    fn default() -> Self {
        TyphoonConfig {
            np_tlb_entries: 64,
            rtlb_entries: 64,
            np_tlb_miss: Cycles::new(25),
            np_dcache_bytes: 16 * 1024,
            np_dcache_assoc: 2,
            dispatch: Cycles::new(4),
            fault_detect: Cycles::new(5),
            np_block_xfer: Cycles::new(12),
            bulk_packet_cycles: Cycles::new(8),
            stache_request_instr: 14,
            stache_home_instr: 30,
            stache_reply_instr: 20,
            stache_page_fault_instr: 250,
            handler_cost_scale: 1.0,
            np_mode: NpMode::Dedicated,
            software_dispatch: Cycles::new(100),
            software_fault_detect: Cycles::new(250),
        }
    }
}

/// A deterministic lossy-network fault schedule (DESIGN.md §10).
///
/// The paper assumes a reliable interconnect; this knob drops, duplicates,
/// bit-corrupts, and transiently partitions per-link traffic so the
/// protocols' retry/idempotence machinery can be exercised. Every fault
/// decision is a pure hash of `(seed, ordered link, per-link packet
/// index)` — or, for partitions, of `(seed, link, epoch run)` — so a
/// fault schedule replays bit-exactly from its seed, exactly like
/// network jitter.
///
/// Partitions are bounded by construction: time is cut into
/// `partition_epoch`-cycle epochs grouped into runs of `partition_run`
/// epochs, and a partitioned run blacks out at most `partition_run - 1`
/// epochs from its start. The last epoch of every run is always clear,
/// so a bounded retry/backoff schedule is guaranteed to get a packet
/// through eventually (unless `drop_permille` is 1000, the
/// total-blackout setting used to test graceful degradation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Per-packet drop probability in permille (1000 = drop everything).
    pub drop_permille: u32,
    /// Per-packet duplication probability in permille.
    pub dup_permille: u32,
    /// Per-packet-copy corruption probability in permille. Corruption is
    /// always detected by the wire checksum, so a corrupted copy behaves
    /// like a detected drop (and is counted separately).
    pub corrupt_permille: u32,
    /// Probability in permille that a given (link, run) is partitioned.
    pub partition_permille: u32,
    /// Cycles per partition epoch (0 disables partitions entirely).
    pub partition_epoch: u64,
    /// Epochs per partition decision run (must be ≥ 2 when partitions
    /// are enabled; a partition lasts at most `partition_run - 1` epochs).
    pub partition_run: u64,
}

impl FaultSpec {
    /// Derives a randomized-but-bounded fault mix from one seed: the
    /// rates stay low enough that a 24-retry capped-backoff sender
    /// succeeds with overwhelming probability, so clean fuzzing sweeps
    /// stay clean.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(11);
        FaultSpec {
            seed,
            drop_permille: rng.below(151) as u32,
            dup_permille: rng.below(151) as u32,
            corrupt_permille: rng.below(81) as u32,
            partition_permille: if rng.chance(0.5) { 100 + rng.below(201) as u32 } else { 0 },
            partition_epoch: 1024 + rng.below(2048),
            partition_run: 4,
        }
    }

    /// A flat loss profile for benchmark sweeps: drop and duplicate at
    /// `permille`, corrupt at half that, no partitions.
    pub fn uniform(seed: u64, permille: u32) -> Self {
        FaultSpec {
            seed,
            drop_permille: permille,
            dup_permille: permille,
            corrupt_permille: permille / 2,
            partition_permille: 0,
            partition_epoch: 0,
            partition_run: 4,
        }
    }
}

/// The complete configuration of a simulated target system.
///
/// # Example
///
/// ```
/// use tt_base::SystemConfig;
/// let mut cfg = SystemConfig::default();
/// cfg.cpu.cache_bytes = 4 * 1024; // the paper's smallest cache point
/// assert_eq!(cfg.timing.local_miss.raw(), 29);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of processing nodes (paper: 32).
    pub nodes: usize,
    /// Seed for all simulation randomness; equal seeds give bit-identical runs.
    pub seed: u64,
    /// When true, every simulated read is checked against the workload's
    /// natively computed value — an end-to-end coherence check.
    pub verify_values: bool,
    /// When true (the default), the machines use direct execution: a
    /// node's CPU keeps running guaranteed-local work inline past the
    /// scheduling quantum while every pending event lies strictly after
    /// its clock (the event-frontier rule on `EventQueue::peek_time`), so
    /// nothing can interact with it meanwhile. Purely a
    /// simulator-speed knob — reported cycles and statistics are
    /// identical either way; equivalence tests pin that by toggling it.
    pub direct_execution: bool,
    /// OS threads one simulation runs on. Must be 1: the simulator is a
    /// single sequential event loop, and both machines assert it. The
    /// field remains only because the benchmark's transparency test
    /// (`perfbench/tests`) reads it; it goes at the benchmark's next
    /// change.
    pub sim_threads: usize,
    /// Interconnect topology. [`Topology::Ideal`] (the default) is the
    /// paper's constant-latency pipe; mesh / fat-tree route packets over
    /// per-link occupancy queues (DESIGN.md §11). Unlike
    /// `direct_execution` above, this changes reported cycles — by design.
    pub topology: Topology,
    /// Deterministic lossy-network fault schedule; `None` (the default)
    /// is the paper's reliable interconnect. Machines that model the
    /// network install this as a `tt_net::FaultPlan`; protocol stacks
    /// must then be wrapped in a reliable transport (see
    /// `tt_stache::Reliable`) to survive it.
    pub fault: Option<FaultSpec>,
    /// Bytes of local memory each node may devote to stache pages.
    /// `usize::MAX` (the default) means "as much as needed"; benchmarks of
    /// page replacement set a finite budget.
    pub stache_capacity_bytes: usize,
    /// Primary CPU cache/TLB configuration.
    pub cpu: CpuConfig,
    /// Common latencies.
    pub timing: TimingConfig,
    /// DirNNB-only cost model.
    pub dirnnb: DirnnbCosts,
    /// Typhoon-only configuration.
    pub typhoon: TyphoonConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            nodes: 32,
            seed: 0x7EA9_0457,
            verify_values: false,
            direct_execution: true,
            sim_threads: 1,
            topology: Topology::Ideal,
            fault: None,
            stache_capacity_bytes: usize::MAX,
            cpu: CpuConfig::default(),
            timing: TimingConfig::default(),
            dirnnb: DirnnbCosts::default(),
            typhoon: TyphoonConfig::default(),
        }
    }
}

impl TyphoonConfig {
    /// Dispatch cost for the configured handler placement.
    pub fn effective_dispatch(&self) -> Cycles {
        match self.np_mode {
            NpMode::Dedicated => self.dispatch,
            NpMode::OnCpu => self.software_dispatch,
        }
    }

    /// Fault-detection cost for the configured handler placement.
    pub fn effective_fault_detect(&self) -> Cycles {
        match self.np_mode {
            NpMode::Dedicated => self.fault_detect,
            NpMode::OnCpu => self.software_fault_detect,
        }
    }
}

impl SystemConfig {
    /// A small configuration convenient for tests: `nodes` nodes, 4 KB
    /// caches, value verification on.
    #[allow(clippy::field_reassign_with_default)] // mutate-after-default is the config idiom
    pub fn test_config(nodes: usize) -> Self {
        let mut cfg = SystemConfig::default();
        cfg.nodes = nodes;
        cfg.cpu.cache_bytes = 4 * 1024;
        cfg.verify_values = true;
        cfg
    }

    /// Effective instruction count for a Stache handler after applying the
    /// ablation scale factor, as whole cycles.
    pub fn scaled_handler_instr(&self, base: u64) -> u64 {
        ((base as f64) * self.typhoon.handler_cost_scale).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let c = SystemConfig::default();
        assert_eq!(c.nodes, 32);
        assert_eq!(c.cpu.cache_assoc, 4);
        assert_eq!(c.cpu.tlb_entries, 64);
        assert_eq!(c.timing.local_miss.raw(), 29);
        assert_eq!(c.timing.local_writeback.raw(), 0);
        assert_eq!(c.timing.tlb_miss.raw(), 25);
        assert_eq!(c.timing.network_latency.raw(), 11);
        assert_eq!(c.timing.barrier_latency.raw(), 11);
        assert_eq!(c.dirnnb.remote_miss_request.raw(), 23);
        assert_eq!(c.dirnnb.remote_miss_finish.raw(), 34);
        assert_eq!(c.dirnnb.replace_shared.raw(), 5);
        assert_eq!(c.dirnnb.replace_exclusive.raw(), 16);
        assert_eq!(c.dirnnb.remote_invalidate.raw(), 8);
        assert_eq!(c.dirnnb.dir_op_base.raw(), 16);
        assert_eq!(c.typhoon.np_dcache_bytes, 16 * 1024);
        assert_eq!(c.typhoon.np_dcache_assoc, 2);
        assert_eq!(c.typhoon.stache_request_instr, 14);
        assert_eq!(c.typhoon.stache_home_instr, 30);
        assert_eq!(c.typhoon.stache_reply_instr, 20);
    }

    #[test]
    fn topology_parses_round_trip() {
        for t in [
            Topology::Ideal,
            Topology::Mesh2D { width: 0 },
            Topology::Mesh2D { width: 8 },
            Topology::FatTree { arity: 0 },
            Topology::FatTree { arity: 4 },
        ] {
            assert_eq!(t.as_string().parse::<Topology>(), Ok(t));
        }
        assert_eq!("mesh".parse::<Topology>(), Ok(Topology::Mesh2D { width: 0 }));
        assert_eq!("fattree:2".parse::<Topology>(), Ok(Topology::FatTree { arity: 2 }));
        assert!("torus".parse::<Topology>().is_err());
        assert!("mesh:x".parse::<Topology>().is_err());
        assert!("ideal:3".parse::<Topology>().is_err());
        assert_eq!(Topology::default(), Topology::Ideal);
    }

    #[test]
    fn fault_spec_derivation_is_deterministic_and_bounded() {
        for seed in 0..200 {
            let a = FaultSpec::from_seed(seed);
            assert_eq!(a, FaultSpec::from_seed(seed));
            assert!(a.drop_permille <= 150);
            assert!(a.dup_permille <= 150);
            assert!(a.corrupt_permille <= 80);
            assert!(a.partition_permille <= 300);
            assert!(a.partition_epoch >= 1024);
            assert!(a.partition_run >= 2);
        }
        assert!(
            (0..50).any(|s| FaultSpec::from_seed(s).partition_permille > 0),
            "partitions must be exercised"
        );
        let u = FaultSpec::uniform(7, 100);
        assert_eq!(u.drop_permille, 100);
        assert_eq!(u.partition_permille, 0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn handler_scale() {
        let mut c = SystemConfig::default();
        c.typhoon.handler_cost_scale = 2.0;
        assert_eq!(c.scaled_handler_instr(14), 28);
        c.typhoon.handler_cost_scale = 0.5;
        assert_eq!(c.scaled_handler_instr(30), 15);
    }
}
