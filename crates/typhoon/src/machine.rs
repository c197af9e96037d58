//! The Typhoon machine: nodes, events, and the simulation driver.
//!
//! The machine executes a [`Workload`]'s op streams on `nodes` simulated
//! processors, each paired with a network interface processor running one
//! instance of a user-level [`Protocol`]. See the crate docs for the
//! modeling approach.
//!
//! One sequential event loop drives the machine. Events are keyed by
//! `(time, origin, counter)` in a [`NodeQueue`], where the origin is the
//! node whose handler scheduled the event; that key order fixes which of
//! several same-cycle events fires first, and with it the cycle tables.

use std::collections::HashMap;

use tt_base::addr::{VAddr, WORD_BYTES};
use tt_base::config::SystemConfig;
use tt_base::stats::Report;
use tt_base::workload::{Layout, Op, Workload};
use tt_base::{Cycles, DetRng, NodeId};
use tt_mem::{AccessKind, NodeMemory, PageTable, Tag};
use tt_net::{Network, Packet, Payload, VirtualNet};
use tt_sim::NodeQueue;
use tt_tempest::{BlockDirSnapshot, BulkRequest, HandlerId, Message, Protocol, UserCall};

use crate::cpu::{exec_access, AccessOutcome, CpuState, CpuStatus};
use crate::ctx::NodeCtx;
use crate::np::{NpState, NpWork};
use crate::trace::{HandlerKind, TraceEvent, TraceRecord, Tracer};

/// Handler-id space reserved for machine-internal packets (bulk data);
/// protocol handler ids must stay below this.
pub const MACHINE_HANDLER_BASE: u32 = 0xFFFF_FF00;
const BULK_DATA: u32 = MACHINE_HANDLER_BASE;
const BULK_DONE: u32 = MACHINE_HANDLER_BASE + 1;
const BULK_ACK: u32 = MACHINE_HANDLER_BASE + 2;
/// Sentinel for "no notify handler" in bulk-done packets.
const NO_HANDLER: u64 = u64::MAX;

/// A simulation event.
#[derive(Clone, Debug)]
pub enum Event {
    /// Run (at most a quantum of) ops on a CPU.
    CpuStep(usize),
    /// The NP's dispatch loop looks for work.
    NpDispatch(usize),
    /// Work arrives at a node's NP (faults, application calls).
    NpWork {
        /// Destination node index.
        node: usize,
        /// The work item.
        work: NpWork,
    },
    /// A network packet arrives at its destination.
    Deliver(Packet),
    /// All processors arrived; release the barrier.
    BarrierRelease {
        /// Barrier generation (for sanity checking).
        generation: u64,
    },
    /// Inject the next packet of an active bulk transfer.
    BulkInject {
        /// Source node index.
        node: usize,
        /// Transfer id.
        id: u64,
    },
}

impl Event {
    /// The node whose state handling this event touches, or `None` for
    /// events with machine-global effect: the origin of everything the
    /// event's handler schedules.
    pub fn target(&self) -> Option<usize> {
        match self {
            Event::CpuStep(n) | Event::NpDispatch(n) => Some(*n),
            Event::NpWork { node, .. } | Event::BulkInject { node, .. } => Some(*node),
            Event::Deliver(p) => Some(p.dst.index()),
            Event::BarrierRelease { .. } => None,
        }
    }
}

/// An in-progress outgoing bulk transfer.
#[derive(Clone, Debug)]
pub struct BulkState {
    /// Transfer id (unique per source node).
    pub id: u64,
    /// The original request.
    pub request: BulkRequest,
    /// Bytes injected so far.
    pub offset: usize,
}

/// One node: CPU + NP + memory + page table + active bulk transfers.
struct NodeState {
    cpu: CpuState,
    np: NpState,
    mem: NodeMemory,
    ptable: PageTable,
    bulk: Vec<BulkState>,
    /// Ids for this node's bulk transfers (bulk ids are matched only
    /// against the owning node's `bulk` list).
    bulk_seq: u64,
}

/// Barrier bookkeeping: how many releases the machine has applied and
/// the generation it expects next (arrivals are counted by the queue).
#[derive(Debug, Default)]
struct BarrierTally {
    generation: u64,
    releases: u64,
}

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total execution time (when the last processor finished).
    pub cycles: Cycles,
    /// Aggregated machine, network, and protocol statistics.
    pub report: Report,
}

/// The Typhoon machine (see crate docs).
pub struct TyphoonMachine {
    cfg: SystemConfig,
    quantum: Cycles,
    nodes: Vec<NodeState>,
    protocols: Vec<Option<Box<dyn Protocol>>>,
    network: Network,
    barrier: BarrierTally,
    workload: Box<dyn Workload>,
    layout: Layout,
    done: Vec<Option<Cycles>>,
    tracer: Option<Box<dyn Tracer>>,
    /// Seed for same-cycle tie-shuffling, applied to the event queue at
    /// `run` time (a `tt-check` legal-nondeterminism knob).
    tie_shuffle: Option<u64>,
}

impl TyphoonMachine {
    /// Builds a machine: one CPU/NP pair per node, a fresh protocol
    /// instance per node from `protocol`, and the given workload.
    ///
    /// The factory receives the node id and the workload's layout — the
    /// moral equivalent of the paper's "distributed mapping table" being
    /// known to the run-time library on every node.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.sim_threads` is 1 (the machine is sequential).
    pub fn new(
        cfg: SystemConfig,
        workload: Box<dyn Workload>,
        protocol: &dyn Fn(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol>,
    ) -> Self {
        assert_eq!(cfg.sim_threads, 1, "the simulator is sequential: sim_threads must be 1");
        let layout = workload.layout();
        let mut rng = DetRng::new(cfg.seed);
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState {
                cpu: CpuState::new(NodeId::new(i as u16), &cfg, rng.fork(i as u64 * 2)),
                np: NpState::new(&cfg, rng.fork(i as u64 * 2 + 1)),
                mem: NodeMemory::new(),
                ptable: PageTable::new(),
                bulk: Vec::new(),
                bulk_seq: 0,
            })
            .collect();
        let protocols = (0..cfg.nodes)
            .map(|i| Some(protocol(NodeId::new(i as u16), &layout, &cfg)))
            .collect();
        let mut network = Network::new(cfg.nodes, cfg.timing.network_latency);
        network.set_occupancy(cfg.timing.network_occupancy);
        network.set_topology(cfg.topology);
        if let Some(spec) = cfg.fault {
            network.set_fault_plan(spec);
        }
        let quantum = cfg.timing.network_latency;
        let done = vec![None; cfg.nodes];
        TyphoonMachine {
            cfg,
            quantum,
            nodes,
            protocols,
            network,
            barrier: BarrierTally::default(),
            workload,
            layout,
            done,
            tracer: None,
            tie_shuffle: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation instead
    /// of FIFO order (see `EventQueue::enable_tie_shuffle`). Call
    /// before [`TyphoonMachine::run`].
    pub fn set_tie_shuffle(&mut self, seed: u64) {
        self.tie_shuffle = Some(seed);
    }

    /// Stretches every wire packet's latency by a deterministic extra
    /// `0..=max_extra` cycles drawn from `seed`, preserving per-link FIFO
    /// (see `tt_net::Network::set_jitter`). Call before
    /// [`TyphoonMachine::run`].
    pub fn set_net_jitter(&mut self, seed: u64, max_extra: Cycles) {
        self.network.set_jitter(seed, max_extra);
    }

    /// Installs a [`Tracer`] that receives every machine-level event
    /// (faults, handler dispatches, deliveries, barrier releases) with
    /// its simulated timestamp. See [`crate::trace`].
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The workload's shared-segment layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    // --- Inspection (tt-check) -------------------------------------------
    //
    // Read-only views for the invariant engine. None of these are called
    // on the production path.

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The tag of `addr`'s block in `node`'s memory, or `None` if the
    /// node has no frame mapped for that page.
    pub fn node_tag(&self, node: usize, addr: VAddr) -> Option<Tag> {
        let n = &self.nodes[node];
        n.ptable.translate_addr(addr).map(|pa| n.mem.tag(pa))
    }

    /// The word at virtual `addr` in `node`'s memory, or `None` if the
    /// page is unmapped there.
    pub fn node_word(&self, node: usize, addr: VAddr) -> Option<u64> {
        let n = &self.nodes[node];
        n.ptable.translate_addr(addr).map(|pa| n.mem.read_word(pa))
    }

    /// Values `node`'s CPU observed via `Op::ReadRecord` loads, in
    /// program order (litmus harnesses read these back after a run).
    pub fn recorded_reads(&self, node: usize) -> &[u64] {
        &self.nodes[node].cpu.recorded
    }

    /// Snapshots of every home-block directory entry across all nodes
    /// (via [`Protocol::inspect_directory`]). Empty for protocols that
    /// keep no directory.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a protocol handler (the running
    /// node's protocol is temporarily taken); event-boundary observers
    /// never see that state.
    pub fn inspect_directories(&self) -> Vec<BlockDirSnapshot> {
        let mut out = Vec::new();
        for proto in &self.protocols {
            proto
                .as_ref()
                .expect("inspect between events, not mid-handler")
                .inspect_directory(&mut out);
        }
        out
    }

    /// Runs the simulation to completion and returns timing + statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (events drain while a processor is
    /// still blocked — a protocol that lost a resume, or a workload whose
    /// barrier counts differ across processors), or if value verification
    /// is enabled and a load observes a value that a sequentially
    /// consistent execution could not produce.
    pub fn run(&mut self) -> RunResult {
        let mut queue = self.new_queue();
        self.init_nodes(&mut queue);
        while let Some((now, event)) = queue.pop() {
            self.handle(now, event, &mut queue);
        }
        self.finish()
    }

    /// Like [`TyphoonMachine::run`], but invokes `observe` after every
    /// event with the event just handled and the machine's post-event
    /// state — the attachment point for the `tt-check` invariant engine.
    /// Handlers are atomic, so at each callback the machine is in a
    /// consistent state (protocols restored, tags settled).
    pub fn run_observed(
        &mut self,
        observe: &mut dyn FnMut(Cycles, &Event, &TyphoonMachine),
    ) -> RunResult {
        let mut queue = self.new_queue();
        self.init_nodes(&mut queue);
        while let Some((now, event)) = queue.pop() {
            let observed = event.clone();
            self.handle(now, event, &mut queue);
            observe(now, &observed, self);
        }
        self.finish()
    }

    fn new_queue(&self) -> NodeQueue<Event> {
        let mut queue = NodeQueue::new(self.cfg.nodes, self.cfg.timing.barrier_latency);
        if let Some(seed) = self.tie_shuffle {
            queue.enable_tie_shuffle(seed);
        }
        queue
    }

    /// Asserts the machine drained cleanly and builds the result.
    fn finish(&mut self) -> RunResult {
        let stuck: Vec<_> = self
            .nodes
            .iter()
            .filter(|n| n.cpu.status != CpuStatus::Done)
            .map(|n| (n.cpu.id, n.cpu.status))
            .collect();
        assert!(
            stuck.is_empty(),
            "machine deadlocked with processors still blocked: {stuck:?} \
             (np work pending={:?})",
            self.nodes
                .iter()
                .map(|n| n.np.has_work())
                .collect::<Vec<_>>()
        );

        let cycles = self
            .done
            .iter()
            .map(|d| d.expect("all processors done"))
            .max()
            .unwrap_or(Cycles::ZERO);
        RunResult {
            cycles,
            report: self.build_report(cycles),
        }
    }

    // --- Reporting -------------------------------------------------------

    fn build_report(&mut self, cycles: Cycles) -> Report {
        let mut r = Report::new();
        r.push_count("machine.cycles", cycles.raw());
        r.push_count("machine.nodes", self.cfg.nodes as u64);
        r.push_count("machine.barriers", self.barrier.releases);

        let mut ops = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut compute = 0u64;
        let mut local_misses = 0u64;
        let mut upgrades = 0u64;
        let mut block_faults = 0u64;
        let mut page_faults = 0u64;
        let mut fault_stall = 0u64;
        let mut barrier_wait = 0u64;
        let mut call_stall = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut tlb_misses = 0u64;
        let mut rtlb_misses = 0u64;
        let mut idle = 0u64;
        for node in &self.nodes {
            let s = &node.cpu.stats;
            ops += s.ops.get();
            reads += s.reads.get();
            writes += s.writes.get();
            compute += s.compute_cycles.get();
            local_misses += s.local_misses.get();
            upgrades += s.upgrades.get();
            block_faults += s.block_faults.get();
            page_faults += s.page_faults.get();
            fault_stall += s.fault_stall_cycles.get();
            barrier_wait += s.barrier_wait_cycles.get();
            call_stall += s.call_stall_cycles.get();
            cache_hits += node.cpu.cache.stats().hits.get();
            cache_misses += node.cpu.cache.stats().misses.get();
            tlb_misses += node.cpu.tlb.stats().misses.get();
            rtlb_misses += s.rtlb_misses.get();
            idle += s.idle_cycles.get();
        }
        r.push_count("cpu.ops", ops);
        r.push_count("cpu.reads", reads);
        r.push_count("cpu.writes", writes);
        r.push_count("cpu.compute_cycles", compute);
        r.push_count("cpu.local_misses", local_misses);
        r.push_count("cpu.upgrades", upgrades);
        r.push_count("cpu.block_faults", block_faults);
        r.push_count("cpu.page_faults", page_faults);
        r.push_count("cpu.fault_stall_cycles", fault_stall);
        r.push_count("cpu.barrier_wait_cycles", barrier_wait);
        r.push_count("cpu.call_stall_cycles", call_stall);
        r.push_count("cpu.cache_hits", cache_hits);
        r.push_count("cpu.cache_misses", cache_misses);
        r.push_count("cpu.tlb_misses", tlb_misses);
        r.push_count("cpu.rtlb_misses", rtlb_misses);
        r.push_count("cpu.idle_cycles", idle);

        let mut handlers = 0u64;
        let mut instr = 0u64;
        let mut messages = 0u64;
        let mut busy = 0u64;
        let mut bulk_packets = 0u64;
        for node in &self.nodes {
            let s = &node.np.stats;
            handlers += s.handlers.get();
            instr += s.instructions.get();
            messages += s.messages.get();
            busy += s.busy_cycles.get();
            bulk_packets += s.bulk_packets.get();
        }
        r.push_count("np.handlers", handlers);
        r.push_count("np.instructions", instr);
        r.push_count("np.messages", messages);
        r.push_count("np.busy_cycles", busy);
        r.push_count("np.bulk_packets", bulk_packets);

        let net = self.network.stats();
        r.push_count("net.packets", net.total_packets());
        r.push_count("net.bytes", net.total_bytes());
        r.push_count("net.local_packets", net.local_packets.get());

        // Aggregate protocol statistics across nodes by summing rows with
        // equal names.
        let mut order: Vec<String> = Vec::new();
        let mut sums: HashMap<String, f64> = HashMap::new();
        for proto in self.protocols.iter().flatten() {
            let mut pr = Report::new();
            proto.report(&mut pr);
            for row in pr.iter() {
                if !sums.contains_key(&row.name) {
                    order.push(row.name.clone());
                }
                *sums.entry(row.name.clone()).or_insert(0.0) += row.value;
            }
        }
        for name in order {
            let v = sums[&name];
            r.push(name, v);
        }
        r
    }

    /// Dispatches one event, declaring the handling node as the origin
    /// of everything the handler schedules (the key scheme's anchor).
    fn handle(&mut self, now: Cycles, event: Event, queue: &mut NodeQueue<Event>) {
        queue.set_origin(event.target());
        match event {
            Event::CpuStep(n) => self.cpu_step(n, now, queue),
            Event::NpDispatch(n) => {
                let np = &mut self.nodes[n].np;
                np.dispatch_pending = false;
                if np.busy_until > now {
                    np.dispatch_pending = true;
                    let at = np.busy_until;
                    queue.schedule(at, Event::NpDispatch(n));
                } else if np.has_work() {
                    self.run_one_handler(n, now, queue);
                }
            }
            Event::NpWork { node, work } => {
                // Every fault reaches the NP through here, whether the
                // CPU took it in its op loop or on a handler's resume.
                if self.tracer.is_some() {
                    let id = NodeId::new(node as u16);
                    match &work {
                        NpWork::BlockFault(f) => self.trace(
                            now,
                            TraceEvent::BlockFault {
                                node: id,
                                addr: f.addr,
                                kind: f.kind,
                            },
                        ),
                        NpWork::PageFault(f) => self.trace(
                            now,
                            TraceEvent::PageFault {
                                node: id,
                                addr: f.addr,
                            },
                        ),
                        _ => {}
                    }
                }
                self.nodes[node].np.enqueue(work);
                self.try_dispatch(node, now, queue);
            }
            Event::Deliver(packet) => self.deliver(packet, now, queue),
            Event::BarrierRelease { generation } => self.release(now, generation, queue),
            Event::BulkInject { node, id } => self.bulk_inject(node, id, now, queue),
        }
    }

    /// Initializes every node's protocol at time zero and seeds the
    /// queue with each node's first CPU step.
    fn init_nodes(&mut self, queue: &mut NodeQueue<Event>) {
        for n in 0..self.nodes.len() {
            queue.set_origin(Some(n));
            let mut proto = self.protocols[n].take().expect("protocol present");
            let mut ctx = self.ctx(n, Cycles::ZERO, queue);
            proto.init(&mut ctx);
            self.protocols[n] = Some(proto);
        }
        for n in 0..self.nodes.len() {
            queue.set_origin(Some(n));
            self.nodes[n].cpu.step_pending = true;
            queue.schedule(Cycles::ZERO, Event::CpuStep(n));
        }
    }

    #[inline]
    fn trace(&mut self, at: Cycles, event: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceRecord { at, event });
        }
    }

    /// Builds a per-handler context for node `n`.
    fn ctx<'a>(
        &'a mut self,
        n: usize,
        start: Cycles,
        queue: &'a mut NodeQueue<Event>,
    ) -> NodeCtx<'a> {
        let node = &mut self.nodes[n];
        NodeCtx {
            id: NodeId::new(n as u16),
            nodes: self.cfg.nodes,
            cfg: &self.cfg,
            start,
            cost: Cycles::ZERO,
            cpu: &mut node.cpu,
            np: &mut node.np,
            mem: &mut node.mem,
            ptable: &mut node.ptable,
            network: &mut self.network,
            queue,
            bulk_out: &mut node.bulk,
            bulk_seq: &mut node.bulk_seq,
        }
    }

    // --- CPU execution -------------------------------------------------

    /// The per-op inner loop. `self` is destructured once so the op loop
    /// works on a single `&mut NodeState` instead of re-indexing per op —
    /// this is the simulation's hottest code.
    fn cpu_step(&mut self, n: usize, now: Cycles, queue: &mut NodeQueue<Event>) {
        let TyphoonMachine {
            cfg,
            quantum,
            nodes,
            workload,
            done,
            barrier,
            ..
        } = self;
        let node = &mut nodes[n];
        node.cpu.step_pending = false;
        if node.cpu.status != CpuStatus::Ready {
            return;
        }
        if node.cpu.clock < now {
            node.cpu.clock = now;
        }
        let mut deadline = now + *quantum;
        loop {
            // Refill the op chunk if exhausted, reusing its allocation.
            if node.cpu.pc >= node.cpu.chunk.len() {
                let mut chunk = std::mem::take(&mut node.cpu.chunk);
                let refilled = workload.next_chunk_into(NodeId::new(n as u16), &mut chunk);
                if refilled {
                    node.cpu.chunk = chunk;
                    node.cpu.pc = 0;
                    if node.cpu.chunk.is_empty() {
                        continue;
                    }
                } else {
                    node.cpu.status = CpuStatus::Done;
                    done[n] = Some(node.cpu.clock);
                    return;
                }
            }

            let op = node.cpu.chunk[node.cpu.pc];
            match op {
                Op::Compute(k) => {
                    let cpu = &mut node.cpu;
                    cpu.clock += Cycles::new(k as u64);
                    cpu.stats.compute_cycles.add(k as u64);
                    cpu.stats.ops.inc();
                    cpu.pc += 1;
                }
                Op::Read { addr, expect } => {
                    if !Self::access(
                        cfg,
                        node,
                        n,
                        queue,
                        addr,
                        AccessKind::Load,
                        0,
                        expect,
                        false,
                    ) {
                        return;
                    }
                }
                Op::ReadRecord { addr } => {
                    if !Self::access(cfg, node, n, queue, addr, AccessKind::Load, 0, None, true) {
                        return;
                    }
                }
                Op::Write { addr, value } => {
                    if !Self::access(
                        cfg,
                        node,
                        n,
                        queue,
                        addr,
                        AccessKind::Store,
                        value,
                        None,
                        false,
                    ) {
                        return;
                    }
                }
                Op::Barrier => {
                    let cpu = &mut node.cpu;
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
                Op::UserCall { op, arg } => {
                    let cpu = &mut node.cpu;
                    cpu.pc += 1;
                    cpu.stats.ops.inc();
                    cpu.status = CpuStatus::BlockedCall;
                    cpu.suspended_at = cpu.clock;
                    let at = cpu.clock + Cycles::new(1);
                    let thread = cpu.thread();
                    queue.schedule(
                        at,
                        Event::NpWork {
                            node: n,
                            work: NpWork::UserCall(thread, UserCall { op, arg }),
                        },
                    );
                    return;
                }
                Op::WaitUntil { until } => {
                    let cpu = &mut node.cpu;
                    cpu.pc += 1;
                    cpu.stats.ops.inc();
                    let target = Cycles::new(until);
                    if target > cpu.clock {
                        cpu.stats.idle_cycles.add((target - cpu.clock).raw());
                        cpu.clock = target;
                    }
                }
            }

            if node.cpu.clock >= deadline {
                let at = node.cpu.clock;
                // Direct execution (WWT-style): if every pending event
                // lies strictly beyond this CPU's clock, the wakeup we
                // are about to schedule would be the very next event
                // popped — so skip the queue round trip and keep
                // executing inline. The machine state and the order of all
                // remaining events
                // are exactly what the scheduled path would produce; only
                // the self-wakeup is elided (and it carries a reserved
                // key, so eliding it perturbs no other event's key),
                // which is why reported cycles are byte-identical.
                if cfg.direct_execution && queue.peek_time().is_none_or(|t| t > at) {
                    deadline = at + *quantum;
                    continue;
                }
                let cpu = &mut node.cpu;
                cpu.step_pending = true;
                queue.schedule_wakeup(at, n, Event::CpuStep(n));
                return;
            }
        }
    }

    /// Executes one tag-checked access; returns `false` if the CPU
    /// suspended (fault taken). An associated function over the split
    /// borrows so [`TyphoonMachine::cpu_step`] can call it while holding
    /// `node`.
    #[allow(clippy::too_many_arguments)]
    fn access(
        cfg: &SystemConfig,
        node: &mut NodeState,
        n: usize,
        queue: &mut NodeQueue<Event>,
        addr: VAddr,
        kind: AccessKind,
        value: u64,
        expect: Option<u64>,
        record: bool,
    ) -> bool {
        let outcome = exec_access(
            cfg,
            &mut node.cpu,
            &mut node.np,
            &mut node.mem,
            &node.ptable,
            addr,
            kind,
            value,
        );
        match outcome {
            AccessOutcome::Done { cost, value: loaded } => {
                if cfg.verify_values {
                    if let (Some(expect), Some(got)) = (expect, loaded) {
                        assert_eq!(
                            got,
                            expect,
                            "coherence violation: node {n} read {addr} at cycle {} and \
                             observed {got:#x}, expected {expect:#x}",
                            node.cpu.clock
                        );
                    }
                }
                if record {
                    node.cpu
                        .recorded
                        .push(loaded.expect("a load always produces a value"));
                }
                node.cpu.clock += cost;
                node.cpu.pc += 1;
                true
            }
            AccessOutcome::PageFault(fault, cost) => {
                node.cpu.clock += cost + cfg.typhoon.effective_fault_detect();
                node.cpu.status = CpuStatus::BlockedFault;
                node.cpu.suspended_at = node.cpu.clock;
                let at = node.cpu.clock;
                queue.schedule(
                    at,
                    Event::NpWork {
                        node: n,
                        work: NpWork::PageFault(fault),
                    },
                );
                false
            }
            AccessOutcome::BlockFault(fault, cost) => {
                node.cpu.clock += cost;
                node.cpu.status = CpuStatus::BlockedFault;
                node.cpu.suspended_at = node.cpu.clock;
                let at = node.cpu.clock;
                queue.schedule(
                    at,
                    Event::NpWork {
                        node: n,
                        work: NpWork::BlockFault(fault),
                    },
                );
                false
            }
        }
    }

    // --- NP execution ---------------------------------------------------

    fn try_dispatch(&mut self, n: usize, now: Cycles, queue: &mut NodeQueue<Event>) {
        let np = &mut self.nodes[n].np;
        if !np.has_work() {
            return;
        }
        if np.busy_until > now {
            if !np.dispatch_pending {
                np.dispatch_pending = true;
                queue.schedule(np.busy_until, Event::NpDispatch(n));
            }
            return;
        }
        self.run_one_handler(n, now, queue);
    }

    fn run_one_handler(&mut self, n: usize, now: Cycles, queue: &mut NodeQueue<Event>) {
        let Some(work) = self.nodes[n].np.next_work() else {
            return;
        };
        let start = now + self.cfg.typhoon.effective_dispatch();
        {
            let stats = &mut self.nodes[n].np.stats;
            stats.handlers.inc();
            match &work {
                NpWork::Message(_) | NpWork::Timer(_) => {}
                NpWork::BlockFault(_) => stats.block_faults.inc(),
                NpWork::PageFault(_) => stats.page_faults.inc(),
                NpWork::UserCall(..) => stats.user_calls.inc(),
            }
        }
        let kind = match &work {
            NpWork::Message(m) => HandlerKind::Message(m.handler.raw()),
            NpWork::BlockFault(_) => HandlerKind::BlockFault,
            NpWork::PageFault(_) => HandlerKind::PageFault,
            NpWork::UserCall(..) => HandlerKind::UserCall,
            NpWork::Timer(_) => HandlerKind::Timer,
        };
        self.trace(
            start,
            TraceEvent::HandlerStart {
                node: NodeId::new(n as u16),
                what: kind,
            },
        );
        let mut proto = self.protocols[n].take().expect("protocol present");
        let cost = {
            let mut ctx = self.ctx(n, start, queue);
            match work {
                NpWork::Message(m) => proto.on_message(&mut ctx, m),
                NpWork::BlockFault(f) => proto.on_block_fault(&mut ctx, f),
                NpWork::PageFault(f) => proto.on_page_fault(&mut ctx, f),
                NpWork::UserCall(t, c) => proto.on_user_call(&mut ctx, t, c),
                NpWork::Timer(token) => proto.on_timer(&mut ctx, token),
            }
            let c = ctx.total_cost();
            if c == Cycles::ZERO {
                Cycles::new(1)
            } else {
                c
            }
        };
        self.protocols[n] = Some(proto);
        let node = &mut self.nodes[n];
        let np = &mut node.np;
        np.busy_until = start + cost;
        np.stats
            .busy_cycles
            .add((self.cfg.typhoon.effective_dispatch() + cost).raw());
        // Software Tempest: the handler ran on the primary CPU, stealing
        // its cycles if it was computing.
        if self.cfg.typhoon.np_mode == tt_base::config::NpMode::OnCpu
            && node.cpu.status == crate::cpu::CpuStatus::Ready
            && node.cpu.clock < np.busy_until
        {
            node.cpu.clock = np.busy_until;
        }
        if np.has_work() && !np.dispatch_pending {
            np.dispatch_pending = true;
            let at = np.busy_until;
            queue.schedule(at, Event::NpDispatch(n));
        }
    }

    // --- Packets ---------------------------------------------------------

    fn deliver(&mut self, packet: Packet, now: Cycles, queue: &mut NodeQueue<Event>) {
        let n = packet.dst.index();
        self.trace(
            now,
            TraceEvent::Deliver {
                node: packet.dst,
                handler: packet.handler,
            },
        );
        if packet.handler >= MACHINE_HANDLER_BASE {
            self.deliver_machine_packet(packet, now, queue);
            return;
        }
        self.nodes[n]
            .np
            .enqueue(NpWork::Message(Message::from_packet(packet)));
        self.try_dispatch(n, now, queue);
    }

    fn deliver_machine_packet(
        &mut self,
        packet: Packet,
        now: Cycles,
        queue: &mut NodeQueue<Event>,
    ) {
        let n = packet.dst.index();
        match packet.handler {
            BULK_DATA => {
                let dst_addr = VAddr::new(packet.payload.words()[0]);
                let node = &mut self.nodes[n];
                write_virtual_bytes(&mut node.mem, &node.ptable, dst_addr, packet.payload.data());
                let np = &mut node.np;
                let busy = if np.busy_until > now { np.busy_until } else { now };
                np.busy_until = busy + self.cfg.typhoon.bulk_packet_cycles;
            }
            BULK_DONE => {
                let words = packet.payload.words();
                let (src_base, dst_base, bytes) = (words[0], words[1], words[2]);
                let (notify_src, notify_dst) = (words[3], words[4]);
                if notify_dst != NO_HANDLER {
                    self.nodes[n].np.enqueue(NpWork::Message(Message {
                        src: packet.src,
                        vn: VirtualNet::Response,
                        handler: HandlerId(notify_dst as u32),
                        payload: Payload::args(&[src_base, dst_base, bytes]),
                    }));
                    self.try_dispatch(n, now, queue);
                }
                if notify_src != NO_HANDLER {
                    let ack = Packet {
                        src: packet.dst,
                        dst: packet.src,
                        vn: VirtualNet::Response,
                        handler: BULK_ACK,
                        payload: Payload::args(&[src_base, dst_base, bytes, notify_src]),
                    };
                    let at = self.network.send(now, &ack);
                    queue.schedule(at, Event::Deliver(ack));
                }
            }
            BULK_ACK => {
                let words = packet.payload.words();
                self.nodes[n].np.enqueue(NpWork::Message(Message {
                    src: packet.src,
                    vn: VirtualNet::Response,
                    handler: HandlerId(words[3] as u32),
                    payload: Payload::args(&[words[0], words[1], words[2]]),
                }));
                self.try_dispatch(n, now, queue);
            }
            other => panic!("unknown machine handler id {other:#x}"),
        }
    }

    fn bulk_inject(&mut self, n: usize, id: u64, now: Cycles, queue: &mut NodeQueue<Event>) {
        let Some(pos) = self.nodes[n].bulk.iter().position(|b| b.id == id) else {
            return;
        };
        let busy_until = self.nodes[n].np.busy_until;
        if busy_until > now {
            queue.schedule(busy_until, Event::BulkInject { node: n, id });
            return;
        }
        let (packet, done_packet) = {
            let node = &mut self.nodes[n];
            let b = &mut node.bulk[pos];
            let req = b.request;
            let remaining = req.bytes - b.offset;
            let chunk = remaining.min(tt_tempest::bulk::BULK_PACKET_DATA_BYTES);
            let data = read_virtual_bytes(
                &node.mem,
                &node.ptable,
                req.src_addr.offset(b.offset as u64),
                chunk,
            );
            let packet = Packet {
                src: NodeId::new(n as u16),
                dst: req.dst,
                vn: VirtualNet::Request,
                handler: BULK_DATA,
                payload: Payload::with_data(&[req.dst_addr.raw() + b.offset as u64], &data),
            };
            b.offset += chunk;
            node.np.stats.bulk_packets.inc();
            let done = if b.offset == req.bytes {
                let notify_src = req
                    .notify_src
                    .map(|h| h.raw() as u64)
                    .unwrap_or(NO_HANDLER);
                let notify_dst = req
                    .notify_dst
                    .map(|h| h.raw() as u64)
                    .unwrap_or(NO_HANDLER);
                Some(Packet {
                    src: NodeId::new(n as u16),
                    dst: req.dst,
                    vn: VirtualNet::Request,
                    handler: BULK_DONE,
                    payload: Payload::args(&[
                        req.src_addr.raw(),
                        req.dst_addr.raw(),
                        req.bytes as u64,
                        notify_src,
                        notify_dst,
                    ]),
                })
            } else {
                None
            };
            (packet, done)
        };
        let at = self.network.send(now, &packet);
        queue.schedule(at, Event::Deliver(packet));
        let np = &mut self.nodes[n].np;
        np.busy_until = now + self.cfg.typhoon.bulk_packet_cycles;
        if let Some(done) = done_packet {
            let at = self.network.send(np.busy_until, &done);
            queue.schedule(at, Event::Deliver(done));
            self.nodes[n].bulk.remove(pos);
        } else {
            let at = np.busy_until;
            queue.schedule(at, Event::BulkInject { node: n, id });
        }
    }

    /// Releases every node from the barrier at `at`. Each wakeup is keyed
    /// under its node's own origin counter.
    fn release(&mut self, at: Cycles, generation: u64, queue: &mut NodeQueue<Event>) {
        assert_eq!(generation, self.barrier.generation, "stale barrier release");
        self.barrier.generation += 1;
        self.barrier.releases += 1;
        self.trace(at, TraceEvent::BarrierRelease);
        for (n, node) in self.nodes.iter_mut().enumerate() {
            let cpu = &mut node.cpu;
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

/// Reads `len` bytes starting at virtual `addr` (word-aligned) through the
/// node's page table.
fn read_virtual_bytes(mem: &NodeMemory, pt: &PageTable, addr: VAddr, len: usize) -> Vec<u8> {
    assert_eq!(addr.raw() % WORD_BYTES as u64, 0, "bulk source unaligned");
    assert_eq!(len % WORD_BYTES, 0, "bulk length unaligned");
    let mut out = Vec::with_capacity(len);
    for w in 0..len / WORD_BYTES {
        let va = addr.offset((w * WORD_BYTES) as u64);
        let pa = pt
            .translate_addr(va)
            .unwrap_or_else(|| panic!("bulk read from unmapped address {va}"));
        out.extend_from_slice(&mem.read_word(pa).to_le_bytes());
    }
    out
}

/// Writes bytes starting at virtual `addr` (word-aligned) through the
/// node's page table.
fn write_virtual_bytes(mem: &mut NodeMemory, pt: &PageTable, addr: VAddr, data: &[u8]) {
    assert_eq!(addr.raw() % WORD_BYTES as u64, 0, "bulk destination unaligned");
    assert_eq!(data.len() % WORD_BYTES, 0, "bulk length unaligned");
    for (w, chunk) in data.chunks_exact(WORD_BYTES).enumerate() {
        let va = addr.offset((w * WORD_BYTES) as u64);
        let pa = pt
            .translate_addr(va)
            .unwrap_or_else(|| panic!("bulk write to unmapped address {va}"));
        mem.write_word(pa, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
}
