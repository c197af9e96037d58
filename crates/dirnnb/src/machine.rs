//! The DirNNB machine: CPUs + hardware directory, driven by the same
//! event engine, workload op streams and CPU front end ([`tt_sim::cpu`])
//! as Typhoon: one sequential event loop over a [`NodeQueue`], whose
//! `(time, origin, counter)` keys take the handling node as the origin.
//! Home-directed events (requests, acks, data, writebacks) are handled
//! at the block's home node.

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::config::SystemConfig;
use tt_base::stats::{Counter, Report};
use tt_base::workload::Workload;
use tt_base::{Cycles, DetRng, FxHashMap, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{AccessKind, CacheModel, FifoTlb};
use tt_net::{Network, VirtualNet, ARG_WORD_BYTES, HANDLER_WORD_BYTES};
use tt_sim::cpu::{self, CpuHost, CpuStatus, Frontend, MemOp};
use tt_sim::NodeQueue;

use crate::dir::{DirBusy, DirReq, DirView, Directory};

/// Per-CPU statistics beyond the front end's.
#[derive(Clone, Debug, Default)]
struct CpuStats {
    reads: Counter,
    writes: Counter,
    local_misses: Counter,
    remote_misses: Counter,
    upgrades: Counter,
    miss_stall_cycles: Counter,
}

struct Cpu {
    cache: CacheModel,
    tlb: FifoTlb<Vpn>,
    front: Frontend,
    /// Block address of the outstanding miss, if any. Used to defer a
    /// recall that overtakes this CPU's grant (the protocol's
    /// "relinquish and retry" for a busy owner).
    pending_block: Option<u64>,
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
    cpus: Vec<Cpu>,
    dirs: Directory,
    home_map: FxHashMap<Vpn, NodeId>,
    /// The single coherent value image.
    store: FxHashMap<Vpn, StorePage>,
    network: Network,
    workload: Box<dyn Workload>,
    dir_stats: DirStats,
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
                front: Frontend::default(),
                pending_block: None,
                stats: CpuStats::default(),
            })
            .collect();
        let mut network = Network::new(cfg.nodes, cfg.timing.network_latency);
        network.set_topology(cfg.topology);
        DirnnbMachine {
            dirs: Directory::new(cfg.nodes),
            cfg,
            cpus,
            home_map,
            store: FxHashMap::default(),
            network,
            workload,
            dir_stats: DirStats::default(),
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
        &self.cpus[node].front.recorded
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
        cpu::start(self, &mut queue);
        while let Some((now, event)) = queue.pop() {
            self.handle(now, event, &mut queue);
        }
        let cycles =
            cpu::finish_time(self.cpus.iter().map(|c| &c.front)).unwrap_or_else(|stuck| {
                let busy = self.dirs.stuck();
                panic!("DirNNB machine deadlocked: {stuck:?}; stuck directory entries: {busy:?}")
            });
        RunResult {
            cycles,
            report: self.build_report(cycles, queue.barriers_released()),
        }
    }

    fn build_report(&self, cycles: Cycles, barriers: u64) -> Report {
        let mut r = Report::new();
        r.push_count("machine.cycles", cycles.raw());
        r.push_count("machine.nodes", self.cfg.nodes as u64);
        r.push_count("machine.barriers", barriers);
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
            ops += cpu.front.stats.ops.get();
            idle += cpu.front.stats.idle_cycles.get();
            reads += cpu.stats.reads.get();
            writes += cpu.stats.writes.get();
            compute += cpu.front.stats.compute_cycles.get();
            local += cpu.stats.local_misses.get();
            remote += cpu.stats.remote_misses.get();
            upgrades += cpu.stats.upgrades.get();
            stall += cpu.stats.miss_stall_cycles.get();
            barrier_wait += cpu.front.stats.barrier_wait_cycles.get();
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
            Event::CpuStep(n) => cpu::step(self, n, now, queue),
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
            Event::BarrierRelease { generation } => cpu::release(self, now, generation, queue),
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

    // --- Memory access ----------------------------------------------------

    /// Executes one access; returns `false` if the CPU blocked on a miss.
    fn access(&mut self, n: usize, op: MemOp, queue: &mut NodeQueue<Event>) -> bool {
        let (addr, kind) = (op.addr, op.kind);
        let me = NodeId::new(n as u16);
        let block = addr.block_base().raw();
        let key = block / BLOCK_BYTES as u64;
        let mut cost = Cycles::new(1);
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
            self.complete_access(n, &op);
            self.cpus[n].front.clock += cost;
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
                self.complete_access(n, &op);
                self.cpus[n].front.clock += cost;
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
            cpu.front.clock += cost;
            cpu.front.suspend(CpuStatus::BlockedAccess);
            cpu.pending_block = Some(block);
            cpu.front.clock
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
    fn complete_access(&mut self, n: usize, op: &MemOp) {
        let cpu = &mut self.cpus[n];
        let loaded = match op.kind {
            AccessKind::Load => {
                cpu.stats.reads.inc();
                Some(read_store(&mut self.store, op.addr))
            }
            AccessKind::Store => {
                cpu.stats.writes.inc();
                write_store(&mut self.store, op.addr, op.value);
                None
            }
        };
        cpu.front.retire(n, op, loaded, self.cfg.verify_values);
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
                let clock = self.cpus[n].front.clock;
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
        let cpu = &mut self.cpus[node];
        debug_assert_eq!(cpu.front.status, CpuStatus::BlockedAccess);
        cpu.front.status = CpuStatus::Ready;
        cpu.pending_block = None;
        let op = cpu.front.pending_access().expect("blocked on a memory op");
        self.complete_access(node, &op);
        let cpu = &mut self.cpus[node];
        cpu.front.clock = now + cost;
        cpu.stats
            .miss_stall_cycles
            .add((cpu.front.clock - cpu.front.suspended_at).raw());
        cpu.front.wake(queue, Event::CpuStep(node));
    }
}

/// DirNNB's side of the shared front end: the cache/directory access,
/// and protocol calls that complete at once.
impl CpuHost for DirnnbMachine {
    type Event = Event;

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    #[inline]
    fn cpu_and_workload(&mut self, n: usize) -> (&mut Frontend, &mut dyn Workload) {
        (&mut self.cpus[n].front, &mut *self.workload)
    }

    #[inline]
    fn access(&mut self, n: usize, op: MemOp, queue: &mut NodeQueue<Event>) -> bool {
        DirnnbMachine::access(self, n, op, queue)
    }

    /// A hardware shared-memory machine has no user-level protocol;
    /// calls complete immediately.
    fn user_call(&mut self, n: usize, _op: u32, _arg: u64, _queue: &mut NodeQueue<Event>) -> bool {
        self.cpus[n].front.clock += Cycles::new(1);
        true
    }

    fn step_event(n: usize) -> Event {
        Event::CpuStep(n)
    }

    fn barrier_event(generation: u64) -> Event {
        Event::BarrierRelease { generation }
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
