//! The DirNNB machine: CPUs + hardware directory, driven by the same
//! event engine and workload op streams as Typhoon: one sequential
//! event loop over a [`NodeQueue`], whose `(time, origin, counter)` keys
//! take the handling node as the origin. Home-directed events (requests,
//! acks, data, writebacks) are handled at the block's home node.

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::config::SystemConfig;
use tt_base::stats::{Counter, Report};
use tt_base::workload::{Op, Workload};
use tt_base::{Cycles, DetRng, FxHashMap, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{AccessKind, CacheModel, FifoTlb};
use tt_net::{Network, VirtualNet, ARG_WORD_BYTES, HANDLER_WORD_BYTES};
use tt_sim::NodeQueue;

use crate::dir::{DirBusy, DirReq, DirView, Directory};

/// Execution status of a CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuStatus {
    Ready,
    BlockedMiss,
    AtBarrier,
    Done,
}

/// Per-CPU statistics.
#[derive(Clone, Debug, Default)]
struct CpuStats {
    ops: Counter,
    reads: Counter,
    writes: Counter,
    compute_cycles: Counter,
    local_misses: Counter,
    remote_misses: Counter,
    upgrades: Counter,
    miss_stall_cycles: Counter,
    barrier_wait_cycles: Counter,
    /// Cycles skipped by `Op::WaitUntil` (open-loop arrival idling).
    idle_cycles: Counter,
}

struct Cpu {
    cache: CacheModel,
    tlb: FifoTlb<Vpn>,
    chunk: Vec<Op>,
    pc: usize,
    clock: Cycles,
    status: CpuStatus,
    step_pending: bool,
    suspended_at: Cycles,
    /// Block address of the outstanding miss, if any. Used to defer a
    /// recall that overtakes this CPU's grant (the protocol's
    /// "relinquish and retry" for a busy owner).
    pending_block: Option<u64>,
    /// Values observed by `Op::ReadRecord` loads, in program order.
    recorded: Vec<u64>,
    stats: CpuStats,
}

/// Directory statistics.
#[derive(Clone, Debug, Default)]
struct DirStats {
    dir_ops: Counter,
    invalidations: Counter,
    recalls: Counter,
    writebacks: Counter,
    deferred: Counter,
}

/// Simulation events.
#[derive(Clone, Debug)]
#[doc(hidden)]
pub enum Event {
    CpuStep(usize),
    HomeRequest { addr: u64, from: u16, req: DirReq },
    HomeAck { addr: u64 },
    HomeData { addr: u64, from: u16 },
    Invalidate { addr: u64, node: u16 },
    Recall { addr: u64, node: u16, invalidate: bool },
    Grant { addr: u64, node: u16, req: DirReq },
    Writeback { addr: u64, from: u16 },
    BarrierRelease { generation: u64 },
}

/// Barrier bookkeeping: the generation expected next and the release
/// count (arrivals are counted by the queue).
#[derive(Debug, Default)]
struct BarrierTally {
    generation: u64,
    releases: u64,
}

/// One coherent page of the machine's single value image.
type StorePage = Box<[u64; PAGE_BYTES / WORD_BYTES]>;

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total execution time (when the last processor finished).
    pub cycles: Cycles,
    /// Aggregated statistics.
    pub report: Report,
}

/// The all-hardware DirNNB machine (see crate docs).
pub struct DirnnbMachine {
    cfg: SystemConfig,
    quantum: Cycles,
    cpus: Vec<Cpu>,
    dirs: Directory,
    home_map: FxHashMap<Vpn, NodeId>,
    /// The single coherent value image.
    store: FxHashMap<Vpn, StorePage>,
    network: Network,
    barrier: BarrierTally,
    workload: Box<dyn Workload>,
    done: Vec<Option<Cycles>>,
    dir_stats: DirStats,
    verify_values: bool,
    /// Seed for same-cycle tie-shuffling, applied to the event queue at
    /// `run` time (a `tt-check` legal-nondeterminism knob).
    tie_shuffle: Option<u64>,
}

/// The node an event's handling mutates (`None` = machine-global): the
/// origin of everything its handler schedules. Home-directed events
/// (requests, acks, data, writebacks) are handled at the block's home,
/// which takes the layout's home map to compute.
fn target_in(home_map: &FxHashMap<Vpn, NodeId>, event: &Event) -> Option<usize> {
    match *event {
        Event::CpuStep(n) => Some(n),
        Event::Invalidate { node, .. }
        | Event::Recall { node, .. }
        | Event::Grant { node, .. } => Some(node as usize),
        Event::HomeRequest { addr, .. }
        | Event::HomeAck { addr }
        | Event::HomeData { addr, .. }
        | Event::Writeback { addr, .. } => Some(home_of_in(home_map, addr).index()),
        Event::BarrierRelease { .. } => None,
    }
}

fn home_of_in(home_map: &FxHashMap<Vpn, NodeId>, addr: u64) -> NodeId {
    let vpn = VAddr::new(addr).page();
    *home_map
        .get(&vpn)
        .unwrap_or_else(|| panic!("access to {addr:#x} outside the shared segment layout"))
}

impl DirnnbMachine {
    /// Builds the machine for a workload.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.sim_threads` is 1 (the machine is sequential).
    pub fn new(cfg: SystemConfig, workload: Box<dyn Workload>) -> Self {
        assert_eq!(cfg.sim_threads, 1, "the simulator is sequential: sim_threads must be 1");
        let layout = workload.layout();
        let mut home_map = FxHashMap::default();
        for (vpn, owner, _mode) in layout.pages(cfg.nodes) {
            let home = match cfg.dirnnb.placement {
                tt_base::config::DirPlacement::RoundRobin => {
                    NodeId::new((vpn.0 % cfg.nodes as u64) as u16)
                }
                tt_base::config::DirPlacement::Owner => owner,
            };
            home_map.insert(vpn, home);
        }
        let mut rng = DetRng::new(cfg.seed);
        let cpus = (0..cfg.nodes)
            .map(|i| Cpu {
                cache: CacheModel::new(
                    cfg.cpu.cache_bytes,
                    cfg.cpu.cache_assoc,
                    BLOCK_BYTES,
                    rng.fork(i as u64),
                ),
                tlb: FifoTlb::new(cfg.cpu.tlb_entries),
                chunk: Vec::new(),
                pc: 0,
                clock: Cycles::ZERO,
                status: CpuStatus::Ready,
                step_pending: false,
                suspended_at: Cycles::ZERO,
                pending_block: None,
                recorded: Vec::new(),
                stats: CpuStats::default(),
            })
            .collect();
        let mut network = Network::new(cfg.nodes, cfg.timing.network_latency);
        network.set_occupancy(cfg.timing.network_occupancy);
        network.set_topology(cfg.topology);
        let quantum = cfg.timing.network_latency;
        let done = vec![None; cfg.nodes];
        let verify_values = cfg.verify_values;
        DirnnbMachine {
            dirs: Directory::new(cfg.nodes),
            cfg,
            quantum,
            cpus,
            home_map,
            store: FxHashMap::default(),
            network,
            barrier: BarrierTally::default(),
            workload,
            done,
            dir_stats: DirStats::default(),
            verify_values,
            tie_shuffle: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation instead
    /// of FIFO order (see `EventQueue::enable_tie_shuffle`). Call before
    /// [`DirnnbMachine::run`].
    pub fn set_tie_shuffle(&mut self, seed: u64) {
        self.tie_shuffle = Some(seed);
    }

    /// The word at `addr` in the machine's global memory image, for the
    /// `tt-check` differential checker. DirNNB keeps one coherent value
    /// image (hardware coherence is exact by construction), so this *is*
    /// the final memory state once the machine has drained.
    pub fn shared_word(&mut self, addr: VAddr) -> u64 {
        read_store(&mut self.store, addr)
    }

    /// Values `node`'s CPU observed via `Op::ReadRecord` loads, in
    /// program order (litmus harnesses read these back after a run).
    pub fn recorded_reads(&self, node: usize) -> &[u64] {
        &self.cpus[node].recorded
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a value-verification failure, like
    /// `TyphoonMachine::run`.
    pub fn run(&mut self) -> RunResult {
        let mut queue = NodeQueue::new(self.cfg.nodes, self.cfg.timing.barrier_latency);
        if let Some(seed) = self.tie_shuffle {
            queue.enable_tie_shuffle(seed);
        }
        self.init_nodes(&mut queue);
        while let Some((now, event)) = queue.pop() {
            self.handle(now, event, &mut queue);
        }
        self.finish()
    }

    /// Asserts the machine drained cleanly and builds the result.
    fn finish(&mut self) -> RunResult {
        let stuck: Vec<_> = self
            .cpus
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status != CpuStatus::Done)
            .map(|(i, c)| (i, c.status))
            .collect();
        if !stuck.is_empty() {
            let busy = self.dirs.stuck();
            panic!("DirNNB machine deadlocked: {stuck:?}; stuck directory entries: {busy:?}");
        }
        let cycles = self
            .done
            .iter()
            .map(|d| d.expect("all done"))
            .max()
            .unwrap_or(Cycles::ZERO);
        RunResult {
            cycles,
            report: self.build_report(cycles),
        }
    }

    fn build_report(&self, cycles: Cycles) -> Report {
        let mut r = Report::new();
        r.push_count("machine.cycles", cycles.raw());
        r.push_count("machine.nodes", self.cfg.nodes as u64);
        r.push_count("machine.barriers", self.barrier.releases);
        let mut ops = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut compute = 0u64;
        let mut local = 0u64;
        let mut remote = 0u64;
        let mut upgrades = 0u64;
        let mut stall = 0u64;
        let mut barrier_wait = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut tlb_misses = 0u64;
        let mut idle = 0u64;
        for cpu in &self.cpus {
            ops += cpu.stats.ops.get();
            idle += cpu.stats.idle_cycles.get();
            reads += cpu.stats.reads.get();
            writes += cpu.stats.writes.get();
            compute += cpu.stats.compute_cycles.get();
            local += cpu.stats.local_misses.get();
            remote += cpu.stats.remote_misses.get();
            upgrades += cpu.stats.upgrades.get();
            stall += cpu.stats.miss_stall_cycles.get();
            barrier_wait += cpu.stats.barrier_wait_cycles.get();
            cache_hits += cpu.cache.stats().hits.get();
            cache_misses += cpu.cache.stats().misses.get();
            tlb_misses += cpu.tlb.stats().misses.get();
        }
        r.push_count("cpu.ops", ops);
        r.push_count("cpu.reads", reads);
        r.push_count("cpu.writes", writes);
        r.push_count("cpu.compute_cycles", compute);
        r.push_count("cpu.local_misses", local);
        r.push_count("cpu.remote_misses", remote);
        r.push_count("cpu.upgrades", upgrades);
        r.push_count("cpu.miss_stall_cycles", stall);
        r.push_count("cpu.barrier_wait_cycles", barrier_wait);
        r.push_count("cpu.cache_hits", cache_hits);
        r.push_count("cpu.cache_misses", cache_misses);
        r.push_count("cpu.tlb_misses", tlb_misses);
        r.push_count("cpu.idle_cycles", idle);
        r.push_count("dir.ops", self.dir_stats.dir_ops.get());
        r.push_count("dir.invalidations", self.dir_stats.invalidations.get());
        r.push_count("dir.recalls", self.dir_stats.recalls.get());
        r.push_count("dir.writebacks", self.dir_stats.writebacks.get());
        r.push_count("dir.deferred", self.dir_stats.deferred.get());
        let net = self.network.stats();
        r.push_count("net.packets", net.total_packets());
        r.push_count("net.bytes", net.total_bytes());
        r
    }

    /// Dispatches one event, declaring the handling node as the origin
    /// of everything the handler schedules.
    fn handle(&mut self, now: Cycles, event: Event, queue: &mut NodeQueue<Event>) {
        queue.set_origin(target_in(&self.home_map, &event));
        match event {
            Event::CpuStep(n) => self.cpu_step(n, now, queue),
            Event::HomeRequest { addr, from, req } => {
                self.home_request(addr, NodeId::new(from), req, now, queue)
            }
            Event::HomeAck { addr } => self.home_ack(addr, now, queue),
            Event::HomeData { addr, from } => self.home_data(addr, NodeId::new(from), now, queue),
            Event::Invalidate { addr, node } => self.invalidate_at(addr, node as usize, now, queue),
            Event::Recall {
                addr,
                node,
                invalidate,
            } => self.recall_at(addr, node as usize, invalidate, now, queue),
            Event::Grant { addr, node, req } => {
                self.grant_arrived(addr, node as usize, req, now, queue)
            }
            Event::Writeback { addr, from } => self.writeback(addr, NodeId::new(from), now, queue),
            Event::BarrierRelease { generation } => self.release(now, generation, queue),
        }
    }

    /// Seeds the queue with each node's first CPU step.
    fn init_nodes(&mut self, queue: &mut NodeQueue<Event>) {
        for (n, cpu) in self.cpus.iter_mut().enumerate() {
            queue.set_origin(Some(n));
            cpu.step_pending = true;
            queue.schedule(Cycles::ZERO, Event::CpuStep(n));
        }
    }

    fn home_of(&self, addr: u64) -> NodeId {
        home_of_in(&self.home_map, addr)
    }

    /// Injects a protocol message at `inject` and returns its arrival
    /// time at `dst`: the traffic accounting plus the network's latency
    /// model — a self-send arrives at `inject` (local hand-off is in the
    /// Table 2 costs), `Topology::Ideal` charges the constant latency,
    /// and routed topologies charge hop counts plus per-link queuing.
    /// Wire size matches the one-argument packet `send` would have been
    /// handed: handler word + one argument word, plus a coherence block
    /// when `data` is set.
    fn deliver(&mut self, inject: Cycles, src: NodeId, dst: NodeId, data: bool) -> Cycles {
        let wire = HANDLER_WORD_BYTES + ARG_WORD_BYTES + if data { BLOCK_BYTES } else { 0 };
        self.network.deliver_at(inject, src, dst, VirtualNet::Request, wire)
    }

    // --- CPU execution ----------------------------------------------------

    /// The per-op inner loop. Ops that touch only this CPU (compute,
    /// calls, barriers, chunk refills) run under one split borrow of
    /// `self` — no re-indexing per op, mirroring `TyphoonMachine`.
    /// Memory ops break out to [`Self::access`], which needs the
    /// directory and network.
    fn cpu_step(&mut self, n: usize, now: Cycles, queue: &mut NodeQueue<Event>) {
        {
            let cpu = &mut self.cpus[n];
            cpu.step_pending = false;
            if cpu.status != CpuStatus::Ready {
                return;
            }
            if cpu.clock < now {
                cpu.clock = now;
            }
        }
        let mut deadline = now + self.quantum;
        loop {
            let (addr, kind, value, expect, record) = {
                let DirnnbMachine {
                    cfg,
                    quantum,
                    cpus,
                    barrier,
                    workload,
                    done,
                    ..
                } = self;
                let cpu = &mut cpus[n];
                loop {
                    // Refill the op chunk if exhausted, reusing its allocation.
                    if cpu.pc >= cpu.chunk.len() {
                        let mut chunk = std::mem::take(&mut cpu.chunk);
                        let refilled = workload.next_chunk_into(NodeId::new(n as u16), &mut chunk);
                        if refilled {
                            cpu.chunk = chunk;
                            cpu.pc = 0;
                            if cpu.chunk.is_empty() {
                                continue;
                            }
                        } else {
                            cpu.status = CpuStatus::Done;
                            done[n] = Some(cpu.clock);
                            return;
                        }
                    }
                    let op = cpu.chunk[cpu.pc];
                    match op {
                        Op::Compute(k) => {
                            cpu.clock += Cycles::new(k as u64);
                            cpu.stats.compute_cycles.add(k as u64);
                            cpu.stats.ops.inc();
                            cpu.pc += 1;
                        }
                        Op::UserCall { .. } => {
                            // A hardware shared-memory machine has no user-level
                            // protocol; calls complete immediately.
                            cpu.clock += Cycles::new(1);
                            cpu.stats.ops.inc();
                            cpu.pc += 1;
                        }
                        Op::Barrier => {
                            cpu.pc += 1;
                            cpu.stats.ops.inc();
                            cpu.status = CpuStatus::AtBarrier;
                            cpu.suspended_at = cpu.clock;
                            let arrival = cpu.clock;
                            // The last arrival schedules the release.
                            if let Some(release_at) = queue.note_barrier_arrival(arrival) {
                                queue.schedule_global(
                                    release_at,
                                    Event::BarrierRelease {
                                        generation: barrier.generation,
                                    },
                                );
                            }
                            return;
                        }
                        Op::Read { addr, expect } => {
                            break (addr, AccessKind::Load, 0, expect, false)
                        }
                        Op::ReadRecord { addr } => {
                            break (addr, AccessKind::Load, 0, None, true)
                        }
                        Op::Write { addr, value } => {
                            break (addr, AccessKind::Store, value, None, false)
                        }
                        Op::WaitUntil { until } => {
                            cpu.stats.ops.inc();
                            cpu.pc += 1;
                            let target = Cycles::new(until);
                            if target > cpu.clock {
                                cpu.stats.idle_cycles.add((target - cpu.clock).raw());
                                cpu.clock = target;
                            }
                        }
                    }
                    if cpu.clock >= deadline {
                        let at = cpu.clock;
                        // Direct execution (WWT-style): if every pending
                        // event lies strictly beyond this CPU's clock, the
                        // wakeup we are about to schedule would be the very
                        // next event popped — skip the queue round trip and
                        // keep executing inline. Only the self-wakeup (a
                        // reserved key) is elided, so reported cycles stay
                        // byte-identical.
                        if cfg.direct_execution && queue.peek_time().is_none_or(|t| t > at) {
                            deadline = at + *quantum;
                            continue;
                        }
                        cpu.step_pending = true;
                        queue.schedule_wakeup(at, n, Event::CpuStep(n));
                        return;
                    }
                }
            };
            if !self.access(n, queue, addr, kind, value, expect, record) {
                return;
            }
            if self.cpus[n].clock >= deadline {
                let at = self.cpus[n].clock;
                // Same direct-execution bypass as the inner loop; see there.
                if self.cfg.direct_execution && queue.peek_time().is_none_or(|t| t > at) {
                    deadline = at + self.quantum;
                    continue;
                }
                let cpu = &mut self.cpus[n];
                cpu.step_pending = true;
                queue.schedule_wakeup(at, n, Event::CpuStep(n));
                return;
            }
        }
    }

    /// Executes one access; returns `false` if the CPU blocked on a miss.
    #[allow(clippy::too_many_arguments)]
    fn access(
        &mut self,
        n: usize,
        queue: &mut NodeQueue<Event>,
        addr: VAddr,
        kind: AccessKind,
        value: u64,
        expect: Option<u64>,
        record: bool,
    ) -> bool {
        let me = NodeId::new(n as u16);
        let block = addr.block_base().raw();
        let key = block / BLOCK_BYTES as u64;
        let mut cost = Cycles::new(1);
        self.cpus[n].stats.ops.inc();
        if !self.cpus[n].tlb.access(addr.page()) {
            cost += self.cfg.timing.tlb_miss;
        }
        let probe = self.cpus[n].cache.probe(key);
        let req = match (probe, kind) {
            (Probe::HitOwned, _) | (Probe::HitShared, AccessKind::Load) => None,
            (Probe::HitShared, AccessKind::Store) => Some(DirReq::Upgrade),
            (Probe::Miss, AccessKind::Load) => Some(DirReq::Read),
            (Probe::Miss, AccessKind::Store) => Some(DirReq::Write),
        };
        let Some(req) = req else {
            // Cache hit: no directory involvement, so the home lookup is
            // not needed — this is the per-op fast path.
            self.complete_access(n, addr, kind, value, expect, record);
            self.cpus[n].clock += cost;
            self.cpus[n].pc += 1;
            return true;
        };
        let home = self.home_of(addr.raw());

        // Fast local path: home is this node and the directory can grant
        // immediately — a plain 29-cycle local miss.
        if home == me && !self.dirs.is_busy(block) {
            let fast = match (self.dirs.view(block), req) {
                (DirView::Uncached | DirView::Shared, DirReq::Read) => {
                    self.dirs.add_sharer(block, me);
                    Some(false)
                }
                (DirView::Uncached, DirReq::Write) => {
                    self.dirs.set_exclusive(block, me);
                    Some(true)
                }
                (DirView::Shared, DirReq::Upgrade | DirReq::Write)
                    if !self.dirs.has_other_sharers(block, me) =>
                {
                    self.dirs.set_exclusive(block, me);
                    Some(true)
                }
                _ => None,
            };
            if let Some(owned) = fast {
                cost += self.cfg.timing.local_miss;
                self.cpus[n].stats.local_misses.inc();
                if req == DirReq::Upgrade {
                    // The line is already resident shared.
                    self.cpus[n].cache.set_owned(key, true);
                } else {
                    self.fill(n, key, owned, &mut cost, queue);
                }
                self.complete_access(n, addr, kind, value, expect, record);
                self.cpus[n].clock += cost;
                self.cpus[n].pc += 1;
                return true;
            }
        }

        // Slow path: block and send the request to the home directory.
        if home == me {
            self.cpus[n].stats.local_misses.inc();
        } else {
            self.cpus[n].stats.remote_misses.inc();
            cost += self.cfg.dirnnb.remote_miss_request;
        }
        if req == DirReq::Upgrade {
            self.cpus[n].stats.upgrades.inc();
        }
        let inject = {
            let cpu = &mut self.cpus[n];
            cpu.clock += cost;
            cpu.status = CpuStatus::BlockedMiss;
            cpu.suspended_at = cpu.clock;
            cpu.pending_block = Some(block);
            cpu.clock
        };
        let at = self.deliver(inject, me, home, false);
        queue.schedule(
            at,
            Event::HomeRequest {
                addr: block,
                from: me.raw(),
                req,
            },
        );
        false
    }

    /// Functional completion: reads check the global store, writes update
    /// it (hardware-coherent shared memory has a single value image).
    fn complete_access(
        &mut self,
        n: usize,
        addr: VAddr,
        kind: AccessKind,
        value: u64,
        expect: Option<u64>,
        record: bool,
    ) {
        match kind {
            AccessKind::Load => {
                self.cpus[n].stats.reads.inc();
                let got = read_store(&mut self.store, addr);
                if record {
                    self.cpus[n].recorded.push(got);
                }
                if self.verify_values {
                    if let Some(expect) = expect {
                        assert_eq!(
                            got, expect,
                            "DirNNB coherence image mismatch: node {n} read {addr}"
                        );
                    }
                }
            }
            AccessKind::Store => {
                self.cpus[n].stats.writes.inc();
                write_store(&mut self.store, addr, value);
            }
        }
    }

    /// Installs a block in a CPU cache; a displaced dirty victim notifies
    /// its home asynchronously and adds the Table 2 replacement charge.
    fn fill(
        &mut self,
        n: usize,
        key: u64,
        owned: bool,
        cost: &mut Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        if let Some(victim) = self.cpus[n].cache.fill(key, owned) {
            *cost += if victim.owned {
                self.cfg.dirnnb.replace_exclusive
            } else {
                self.cfg.dirnnb.replace_shared
            };
            if victim.owned {
                let victim_addr = victim.block * BLOCK_BYTES as u64;
                let home = self.home_of(victim_addr);
                let me = NodeId::new(n as u16);
                let clock = self.cpus[n].clock;
                let at = self.deliver(clock.max(queue.now()), me, home, true);
                queue.schedule(
                    at,
                    Event::Writeback {
                        addr: victim_addr,
                        from: n as u16,
                    },
                );
            }
        }
    }

    // --- Directory engine --------------------------------------------------

    fn home_request(
        &mut self,
        addr: u64,
        from: NodeId,
        req: DirReq,
        now: Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        if self.dirs.is_busy(addr) {
            self.dir_stats.deferred.inc();
            self.dirs.push_deferred(addr, from, req);
            return;
        }
        self.dir_stats.dir_ops.inc();
        let home = self.home_of(addr);
        let base = self.cfg.dirnnb.dir_op_base;
        match (self.dirs.view(addr), req) {
            (DirView::Uncached | DirView::Shared, DirReq::Read) => {
                self.dirs.add_sharer(addr, from);
                self.grant(addr, from, req, now + base, queue);
            }
            (DirView::Uncached, DirReq::Write | DirReq::Upgrade) => {
                self.dirs.set_exclusive(addr, from);
                self.grant(addr, from, req, now + base, queue);
            }
            (DirView::Shared, DirReq::Write | DirReq::Upgrade) => {
                let targets = self.dirs.sharers_except(addr, from);
                if targets.is_empty() {
                    self.dirs.set_exclusive(addr, from);
                    self.grant(addr, from, req, now + base, queue);
                    return;
                }
                let cost = base
                    + Cycles::new(self.cfg.dirnnb.dir_op_per_msg.raw() * targets.len() as u64);
                self.dir_stats.invalidations.add(targets.len() as u64);
                for t in &targets {
                    let at = self.deliver(now + cost, home, *t, false);
                    queue.schedule(
                        at,
                        Event::Invalidate {
                            addr,
                            node: t.raw(),
                        },
                    );
                }
                self.dirs.set_busy(
                    addr,
                    DirBusy::Invalidating {
                        acks_left: targets.len(),
                        to: from,
                        req,
                    },
                );
            }
            (DirView::Exclusive(owner), _) => {
                self.dir_stats.recalls.inc();
                let cost = base + self.cfg.dirnnb.dir_op_per_msg;
                let at = self.deliver(now + cost, home, owner, false);
                queue.schedule(
                    at,
                    Event::Recall {
                        addr,
                        node: owner.raw(),
                        invalidate: !matches!(req, DirReq::Read),
                    },
                );
                self.dirs
                    .set_busy(addr, DirBusy::Recalling { owner, to: from, req });
            }
        }
    }

    /// Sends a grant back to the requester.
    fn grant(
        &mut self,
        addr: u64,
        to: NodeId,
        req: DirReq,
        at: Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        let home = self.home_of(addr);
        let mut cost = self.cfg.dirnnb.dir_op_per_msg;
        if req.needs_data() {
            cost += self.cfg.dirnnb.dir_op_block_send;
        }
        let deliver = self.deliver(at + cost, home, to, req.needs_data());
        queue.schedule(
            deliver,
            Event::Grant {
                addr,
                node: to.raw(),
                req,
            },
        );
    }

    fn home_ack(&mut self, addr: u64, now: Cycles, queue: &mut NodeQueue<Event>) {
        let Some(DirBusy::Invalidating { acks_left, to, req }) = self.dirs.busy(addr) else {
            panic!("ack for a block that is not invalidating");
        };
        if acks_left > 1 {
            self.dirs.set_busy(
                addr,
                DirBusy::Invalidating {
                    acks_left: acks_left - 1,
                    to,
                    req,
                },
            );
            return;
        }
        self.dirs.clear_busy(addr);
        self.dirs.set_exclusive(addr, to);
        self.dir_stats.dir_ops.inc();
        self.grant(addr, to, req, now + self.cfg.dirnnb.dir_op_base, queue);
        self.drain_queue(addr, now, queue);
    }

    fn home_data(&mut self, addr: u64, from: NodeId, now: Cycles, queue: &mut NodeQueue<Event>) {
        let Some(DirBusy::Recalling { owner, to, req }) = self.dirs.busy(addr) else {
            panic!("recall data for a block that is not recalling");
        };
        debug_assert_eq!(owner, from);
        self.dirs.clear_busy(addr);
        match req {
            DirReq::Read => self.dirs.set_shared_pair(addr, owner, to),
            DirReq::Write | DirReq::Upgrade => self.dirs.set_exclusive(addr, to),
        }
        self.dir_stats.dir_ops.inc();
        let cost = self.cfg.dirnnb.dir_op_base + self.cfg.dirnnb.dir_op_block_recv;
        self.grant(addr, to, req, now + cost, queue);
        self.drain_queue(addr, now, queue);
    }

    fn drain_queue(&mut self, addr: u64, now: Cycles, queue: &mut NodeQueue<Event>) {
        loop {
            if self.dirs.is_busy(addr) {
                return;
            }
            let Some((from, req)) = self.dirs.pop_deferred(addr) else {
                return;
            };
            self.home_request(addr, from, req, now, queue);
        }
    }

    fn invalidate_at(&mut self, addr: u64, node: usize, now: Cycles, queue: &mut NodeQueue<Event>) {
        // The remote cache controller invalidates without involving its
        // CPU: 8 cycles plus the shared-replacement charge (Table 2).
        let key = addr / BLOCK_BYTES as u64;
        self.cpus[node].cache.invalidate(key);
        let cost = self.cfg.dirnnb.remote_invalidate + self.cfg.dirnnb.replace_shared;
        let home = self.home_of(addr);
        let me = NodeId::new(node as u16);
        let at = self.deliver(now + cost, me, home, false);
        queue.schedule(at, Event::HomeAck { addr });
    }

    fn recall_at(
        &mut self,
        addr: u64,
        node: usize,
        invalidate: bool,
        now: Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        let key = addr / BLOCK_BYTES as u64;
        let present = if invalidate {
            self.cpus[node].cache.invalidate(key)
        } else {
            self.cpus[node].cache.set_owned(key, false)
        };
        if !present {
            if self.cpus[node].pending_block == Some(addr) {
                // The recall overtook this node's own grant for the same
                // block (grants and recalls travel on different virtual
                // networks). Nack-and-retry, as a busy hardware owner
                // would: try again after the grant has landed.
                queue.schedule(
                    now + self.cfg.timing.network_latency,
                    Event::Recall {
                        addr,
                        node: node as u16,
                        invalidate,
                    },
                );
                return;
            }
            // Otherwise the line was evicted while the recall was in
            // flight; the home completes from the writeback.
            return;
        }
        let cost = self.cfg.dirnnb.remote_invalidate + self.cfg.dirnnb.replace_exclusive;
        let home = self.home_of(addr);
        let me = NodeId::new(node as u16);
        let at = self.deliver(now + cost, me, home, true);
        queue.schedule(
            at,
            Event::HomeData {
                addr,
                from: me.raw(),
            },
        );
    }

    fn writeback(&mut self, addr: u64, from: NodeId, now: Cycles, queue: &mut NodeQueue<Event>) {
        self.dir_stats.writebacks.inc();
        match self.dirs.busy(addr) {
            Some(DirBusy::Recalling { owner, .. }) if owner == from => {
                // The owner's eviction raced our recall; its writeback
                // carries the block.
                self.home_data(addr, from, now, queue);
            }
            Some(other) => panic!("writeback raced {other:?}"),
            None => {
                debug_assert_eq!(self.dirs.view(addr), DirView::Exclusive(from));
                self.dirs.set_uncached(addr);
            }
        }
    }

    fn grant_arrived(
        &mut self,
        addr: u64,
        node: usize,
        req: DirReq,
        now: Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        let key = addr / BLOCK_BYTES as u64;
        let me = NodeId::new(node as u16);
        let home = self.home_of(addr);
        let mut cost = if home == me {
            self.cfg.timing.local_miss
        } else {
            self.cfg.dirnnb.remote_miss_finish
        };
        match req {
            DirReq::Upgrade => {
                // The line is still resident unless an intervening
                // invalidation removed it; then treat as a full fill.
                if !self.cpus[node].cache.set_owned(key, true) {
                    self.fill(node, key, true, &mut cost, queue);
                }
            }
            DirReq::Read => self.fill(node, key, false, &mut cost, queue),
            DirReq::Write => self.fill(node, key, true, &mut cost, queue),
        }
        // Complete the blocked op *now*, before releasing the CPU: the
        // grant delivers the data to the stalled load/store, so a recall
        // racing in behind it can never steal an incomplete access (that
        // would livelock two writers hammering one block).
        {
            let cpu = &mut self.cpus[node];
            debug_assert_eq!(cpu.status, CpuStatus::BlockedMiss);
            cpu.status = CpuStatus::Ready;
            cpu.pending_block = None;
        }
        let op = self.cpus[node].chunk[self.cpus[node].pc];
        match op {
            Op::Read { addr, expect } => {
                self.complete_access(node, addr, AccessKind::Load, 0, expect, false)
            }
            Op::ReadRecord { addr } => {
                self.complete_access(node, addr, AccessKind::Load, 0, None, true)
            }
            Op::Write { addr, value } => {
                self.complete_access(node, addr, AccessKind::Store, value, None, false)
            }
            other => unreachable!("blocked on a non-memory op {other:?}"),
        }
        let cpu = &mut self.cpus[node];
        cpu.pc += 1;
        cpu.clock = now + cost;
        cpu.stats
            .miss_stall_cycles
            .add((cpu.clock - cpu.suspended_at).raw());
        if !cpu.step_pending {
            cpu.step_pending = true;
            let at = cpu.clock;
            queue.schedule(at, Event::CpuStep(node));
        }
    }

    /// Releases every node from the barrier at `at`; each wakeup is keyed
    /// under its node's own origin counter.
    fn release(&mut self, at: Cycles, generation: u64, queue: &mut NodeQueue<Event>) {
        assert_eq!(generation, self.barrier.generation, "stale barrier release");
        self.barrier.generation += 1;
        self.barrier.releases += 1;
        for (n, cpu) in self.cpus.iter_mut().enumerate() {
            assert_eq!(cpu.status, CpuStatus::AtBarrier, "node {n} missed the barrier");
            cpu.stats
                .barrier_wait_cycles
                .add((at - cpu.suspended_at).raw());
            cpu.status = CpuStatus::Ready;
            cpu.clock = at;
            if !cpu.step_pending {
                cpu.step_pending = true;
                queue.set_origin(Some(n));
                queue.schedule(at, Event::CpuStep(n));
            }
        }
    }
}

fn read_store(store: &mut FxHashMap<Vpn, StorePage>, addr: VAddr) -> u64 {
    let page = store
        .entry(addr.page())
        .or_insert_with(|| Box::new([0u64; PAGE_BYTES / WORD_BYTES]));
    page[(addr.page_offset() as usize) / WORD_BYTES]
}

fn write_store(store: &mut FxHashMap<Vpn, StorePage>, addr: VAddr, value: u64) {
    let page = store
        .entry(addr.page())
        .or_insert_with(|| Box::new([0u64; PAGE_BYTES / WORD_BYTES]));
    page[(addr.page_offset() as usize) / WORD_BYTES] = value;
}
