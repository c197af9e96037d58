//! The CPU front end both machines share: each processor's op-stream
//! state and the interpreter that consumes it.
//!
//! Figure 3 compares Typhoon/Stache with DirNNB under the same Table 2
//! CPU parameters and the same op streams. That comparison is fair only
//! if both machines charge `Compute`, `WaitUntil` and `Barrier` the same
//! way and yield to the event queue at the same points, so those
//! semantics live here, once. A machine supplies what differs through
//! [`CpuHost`]: how a memory op is performed and what a `UserCall` does.
//!
//! # Quanta and direct execution
//!
//! A step ([`step`]) runs ops inline until the CPU's clock reaches the
//! step's deadline, one quantum (the network latency) past its start.
//! The CPU then yields: it schedules its own wakeup under the node's
//! reserved key ([`NodeQueue::schedule_wakeup`]). With
//! `SystemConfig::direct_execution` (WWT-style), a CPU whose every
//! pending event lies strictly beyond its clock skips that round trip,
//! because the wakeup would be the very next event popped: it takes a
//! fresh quantum and keeps executing inline. Only the self-wakeup is
//! elided, and it carries a reserved key, so no other event's key moves
//! and the reported cycles are identical either way.
//!
//! # Barriers
//!
//! The queue counts arrivals ([`NodeQueue::note_barrier_arrival`]); the
//! last one schedules a machine-global release event, and [`release`]
//! frees every CPU at the release time, charging each its wait.

use tt_base::addr::VAddr;
use tt_base::config::SystemConfig;
use tt_base::stats::Counter;
use tt_base::workload::{AccessKind, Op, Workload};
use tt_base::{Cycles, NodeId};

use crate::NodeQueue;

/// Execution status of a node's computation thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CpuStatus {
    /// Executing ops.
    #[default]
    Ready,
    /// Suspended on a memory op (a Typhoon access fault, a DirNNB miss);
    /// the op is retried or completed when the CPU resumes.
    BlockedAccess,
    /// Suspended inside an explicit protocol call.
    BlockedCall,
    /// Waiting at a barrier.
    AtBarrier,
    /// Program finished.
    Done,
}

/// The counters the front end keeps.
#[derive(Clone, Debug, Default)]
pub struct CpuCounters {
    /// Ops executed. A memory op counts once per attempt: a Typhoon
    /// access retried after a fault counts again.
    pub ops: Counter,
    /// Cycles spent in `Compute` ops.
    pub compute_cycles: Counter,
    /// Cycles waiting at barriers.
    pub barrier_wait_cycles: Counter,
    /// Cycles skipped by `Op::WaitUntil` (open-loop arrival idling).
    pub idle_cycles: Counter,
}

/// One processor's front-end state: where it is in its op stream, its
/// local clock and whether it runs, waits or is done.
#[derive(Debug, Default)]
pub struct Frontend {
    /// Current op chunk.
    pub chunk: Vec<Op>,
    /// Index of the next op in `chunk`.
    pub pc: usize,
    /// Local time through which this CPU has executed.
    pub clock: Cycles,
    /// Execution status.
    pub status: CpuStatus,
    /// Whether a step event is already scheduled (de-duplication).
    pub step_pending: bool,
    /// Time at which the current suspension began (for stall accounting).
    pub suspended_at: Cycles,
    /// Values observed by `Op::ReadRecord` loads, in program order
    /// (litmus harnesses read these back after the run).
    pub recorded: Vec<u64>,
    /// Statistics.
    pub stats: CpuCounters,
}

impl Frontend {
    /// The memory op at the program counter: the one a CPU suspended in
    /// [`CpuStatus::BlockedAccess`] waits on.
    #[inline]
    pub fn pending_access(&self) -> Option<MemOp> {
        self.chunk.get(self.pc).and_then(|&op| MemOp::decode(op))
    }

    /// Suspends the CPU in `status` from its current clock.
    #[inline]
    pub fn suspend(&mut self, status: CpuStatus) {
        self.status = status;
        self.suspended_at = self.clock;
    }

    /// Retires memory op `op` of node `n`, which loaded `loaded` (`None`
    /// for a store): checks the load against the value a sequentially
    /// consistent execution produces when `verify` is set, records it
    /// for a `ReadRecord`, and moves past the op. The caller charges the
    /// op's cycles.
    ///
    /// # Panics
    ///
    /// Panics on a verified load that observed the wrong value.
    #[inline]
    pub fn retire(&mut self, n: usize, op: &MemOp, loaded: Option<u64>, verify: bool) {
        if verify {
            if let (Some(expect), Some(got)) = (op.expect, loaded) {
                assert_eq!(
                    got, expect,
                    "coherence violation: node {n} read {} at cycle {} and observed {got:#x}, \
                     expected {expect:#x}",
                    op.addr, self.clock
                );
            }
        }
        if op.record {
            self.recorded
                .push(loaded.expect("a load always produces a value"));
        }
        self.pc += 1;
    }

    /// Schedules `step`, this CPU's step event, at its clock unless one
    /// is already pending. The key comes from the queue's current origin.
    #[inline]
    pub fn wake<E>(&mut self, queue: &mut NodeQueue<E>, step: E) {
        if !self.step_pending {
            self.step_pending = true;
            queue.schedule(self.clock, step);
        }
    }
}

/// A memory op, decoded from its [`Op`]: what a machine needs to perform
/// it and to retire it ([`Frontend::retire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Word-aligned shared virtual address.
    pub addr: VAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// The value a store writes (0 for loads).
    pub value: u64,
    /// The value a sequentially consistent execution loads, if known.
    pub expect: Option<u64>,
    /// Whether the loaded value joins the recorded-read log.
    pub record: bool,
}

impl MemOp {
    /// The memory op `op` denotes, or `None` for a non-memory op.
    #[inline]
    pub fn decode(op: Op) -> Option<MemOp> {
        let (addr, kind, value, expect, record) = match op {
            Op::Read { addr, expect } => (addr, AccessKind::Load, 0, expect, false),
            Op::ReadRecord { addr } => (addr, AccessKind::Load, 0, None, true),
            Op::Write { addr, value } => (addr, AccessKind::Store, value, None, false),
            _ => return None,
        };
        Some(MemOp {
            addr,
            kind,
            value,
            expect,
            record,
        })
    }
}

/// What a machine supplies to the shared front end.
pub trait CpuHost {
    /// The machine's event type.
    type Event;

    /// The machine's configuration (quantum and direct execution).
    fn config(&self) -> &SystemConfig;

    /// Node `n`'s front end, borrowed alongside the workload that feeds
    /// it.
    fn cpu_and_workload(&mut self, n: usize) -> (&mut Frontend, &mut dyn Workload);

    /// Node `n`'s front end.
    #[inline]
    fn front(&mut self, n: usize) -> &mut Frontend {
        self.cpu_and_workload(n).0
    }

    /// Performs memory op `op` on node `n`, which the front end has
    /// already counted. Returns `false` if the CPU suspended.
    fn access(&mut self, n: usize, op: MemOp, queue: &mut NodeQueue<Self::Event>) -> bool;

    /// Performs `Op::UserCall { op, arg }` on node `n`, already counted
    /// and stepped past. Returns `false` if the CPU suspended.
    fn user_call(
        &mut self,
        n: usize,
        op: u32,
        arg: u64,
        queue: &mut NodeQueue<Self::Event>,
    ) -> bool;

    /// The event that steps node `n`'s CPU.
    fn step_event(n: usize) -> Self::Event;

    /// The machine-global event that releases barrier `generation`.
    fn barrier_event(generation: u64) -> Self::Event;
}

/// Where the interpreter leaves the op stream to the machine.
enum Handoff {
    Access(MemOp),
    Call { op: u32, arg: u64 },
    Deadline,
}

/// Seeds the queue with every CPU's first step at time zero, each keyed
/// under its own node's origin.
pub fn start<H: CpuHost>(host: &mut H, queue: &mut NodeQueue<H::Event>) {
    for n in 0..host.config().nodes {
        queue.set_origin(Some(n));
        host.front(n).wake(queue, H::step_event(n));
    }
}

/// Runs node `n`'s CPU from `now` for one quantum (see the module docs):
/// the step event's handler.
pub fn step<H: CpuHost>(host: &mut H, n: usize, now: Cycles, queue: &mut NodeQueue<H::Event>) {
    let quantum = host.config().timing.network_latency;
    let direct = host.config().direct_execution;
    let cpu = host.front(n);
    cpu.step_pending = false;
    if cpu.status != CpuStatus::Ready {
        return;
    }
    if cpu.clock < now {
        cpu.clock = now;
    }
    let mut deadline = now + quantum;
    loop {
        let handoff = {
            let (cpu, workload) = host.cpu_and_workload(n);
            loop {
                // Refill the op chunk if exhausted, reusing its allocation.
                if cpu.pc >= cpu.chunk.len() {
                    let mut chunk = std::mem::take(&mut cpu.chunk);
                    if !workload.next_chunk_into(NodeId::new(n as u16), &mut chunk) {
                        cpu.status = CpuStatus::Done;
                        return;
                    }
                    cpu.chunk = chunk;
                    cpu.pc = 0;
                    continue;
                }
                let op = cpu.chunk[cpu.pc];
                cpu.stats.ops.inc();
                match op {
                    Op::Compute(k) => {
                        cpu.clock += Cycles::new(k as u64);
                        cpu.stats.compute_cycles.add(k as u64);
                        cpu.pc += 1;
                    }
                    Op::WaitUntil { until } => {
                        cpu.pc += 1;
                        let target = Cycles::new(until);
                        if target > cpu.clock {
                            cpu.stats.idle_cycles.add((target - cpu.clock).raw());
                            cpu.clock = target;
                        }
                    }
                    Op::Barrier => {
                        cpu.pc += 1;
                        cpu.suspend(CpuStatus::AtBarrier);
                        // The last arrival schedules the release.
                        if let Some(release_at) = queue.note_barrier_arrival(cpu.clock) {
                            let generation = queue.barriers_released();
                            queue.schedule_global(release_at, H::barrier_event(generation));
                        }
                        return;
                    }
                    Op::UserCall { op, arg } => {
                        cpu.pc += 1;
                        break Handoff::Call { op, arg };
                    }
                    Op::Read { .. } | Op::ReadRecord { .. } | Op::Write { .. } => {
                        let access = MemOp::decode(op).expect("a memory op decodes");
                        break Handoff::Access(access);
                    }
                }
                if cpu.clock >= deadline {
                    break Handoff::Deadline;
                }
            }
        };
        let running = match handoff {
            Handoff::Access(op) => host.access(n, op, queue),
            Handoff::Call { op, arg } => host.user_call(n, op, arg, queue),
            Handoff::Deadline => true,
        };
        if !running {
            return;
        }
        let cpu = host.front(n);
        if cpu.clock >= deadline {
            let at = cpu.clock;
            // Direct execution: the wakeup would be the next event popped.
            if direct && queue.peek_time().is_none_or(|t| t > at) {
                deadline = at + quantum;
                continue;
            }
            cpu.step_pending = true;
            queue.schedule_wakeup(at, n, H::step_event(n));
            return;
        }
    }
}

/// Releases every CPU from barrier `generation` at `at`: the release
/// event's handler. Each CPU is charged its wait, and its wakeup is
/// keyed under its own node's origin.
///
/// # Panics
///
/// Panics on a stale release or on a CPU that is not at the barrier.
pub fn release<H: CpuHost>(
    host: &mut H,
    at: Cycles,
    generation: u64,
    queue: &mut NodeQueue<H::Event>,
) {
    queue.note_barrier_release(generation);
    for n in 0..host.config().nodes {
        let cpu = host.front(n);
        assert_eq!(
            cpu.status,
            CpuStatus::AtBarrier,
            "node {n} missed the barrier"
        );
        cpu.stats
            .barrier_wait_cycles
            .add((at - cpu.suspended_at).raw());
        cpu.status = CpuStatus::Ready;
        cpu.clock = at;
        queue.set_origin(Some(n));
        cpu.wake(queue, H::step_event(n));
    }
}

/// When the last CPU finished, once the queue has drained. `Err` lists
/// every CPU that never finished, with its status: the machine
/// deadlocked.
pub fn finish_time<'a>(
    cpus: impl IntoIterator<Item = &'a Frontend>,
) -> Result<Cycles, Vec<(usize, CpuStatus)>> {
    let mut end = Cycles::ZERO;
    let mut stuck = Vec::new();
    for (n, cpu) in cpus.into_iter().enumerate() {
        if cpu.status == CpuStatus::Done {
            end = end.max(cpu.clock);
        } else {
            stuck.push((n, cpu.status));
        }
    }
    if stuck.is_empty() {
        Ok(end)
    } else {
        Err(stuck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::workload::ScriptWorkload;

    #[derive(Debug)]
    enum Ev {
        Step(usize),
        Release(u64),
    }

    /// A machine whose memory ops take one cycle and load `LOADED`, and
    /// whose calls take one cycle.
    struct Toy {
        cfg: SystemConfig,
        cpus: Vec<Frontend>,
        workload: ScriptWorkload,
        accesses: Vec<(usize, MemOp)>,
    }

    const LOADED: u64 = 7;

    impl CpuHost for Toy {
        type Event = Ev;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }

        fn cpu_and_workload(&mut self, n: usize) -> (&mut Frontend, &mut dyn Workload) {
            (&mut self.cpus[n], &mut self.workload)
        }

        fn access(&mut self, n: usize, op: MemOp, _queue: &mut NodeQueue<Ev>) -> bool {
            self.accesses.push((n, op));
            let loaded = (op.kind == AccessKind::Load).then_some(LOADED);
            let verify = self.cfg.verify_values;
            let cpu = &mut self.cpus[n];
            cpu.retire(n, &op, loaded, verify);
            cpu.clock += Cycles::new(1);
            true
        }

        fn user_call(&mut self, n: usize, _op: u32, _arg: u64, _queue: &mut NodeQueue<Ev>) -> bool {
            self.cpus[n].clock += Cycles::new(1);
            true
        }

        fn step_event(n: usize) -> Ev {
            Ev::Step(n)
        }

        fn barrier_event(generation: u64) -> Ev {
            Ev::Release(generation)
        }
    }

    /// Runs `scripts` to completion: `(finish time, events popped, toy)`.
    fn run(scripts: Vec<Vec<Op>>, direct_execution: bool) -> (Cycles, u64, Toy) {
        let mut cfg = SystemConfig::test_config(scripts.len());
        cfg.direct_execution = direct_execution;
        let mut workload = ScriptWorkload::new(scripts.len());
        for (n, ops) in scripts.into_iter().enumerate() {
            workload.set(n, ops);
        }
        let mut toy = Toy {
            cpus: (0..cfg.nodes).map(|_| Frontend::default()).collect(),
            cfg,
            workload,
            accesses: Vec::new(),
        };
        let mut queue = NodeQueue::new(toy.cfg.nodes, toy.cfg.timing.barrier_latency);
        start(&mut toy, &mut queue);
        let mut events = 0;
        while let Some((now, ev)) = queue.pop() {
            events += 1;
            match ev {
                Ev::Step(n) => {
                    queue.set_origin(Some(n));
                    step(&mut toy, n, now, &mut queue);
                }
                Ev::Release(generation) => {
                    queue.set_origin(None);
                    release(&mut toy, now, generation, &mut queue);
                }
            }
        }
        let end = finish_time(&toy.cpus).expect("every CPU finishes");
        (end, events, toy)
    }

    #[test]
    fn compute_wait_and_barrier_are_charged_the_same_for_every_cpu() {
        let (end, _, toy) = run(
            vec![
                vec![
                    Op::Compute(10),
                    Op::Barrier,
                    Op::WaitUntil { until: 500 },
                    Op::Compute(5),
                ],
                vec![
                    Op::Compute(30),
                    Op::Barrier,
                    Op::WaitUntil { until: 20 },
                    Op::Compute(1),
                ],
            ],
            false,
        );
        // The barrier releases one barrier latency (11) after the last
        // arrival, at 41; a `WaitUntil` already in the past is free.
        let [a, b] = [&toy.cpus[0].stats, &toy.cpus[1].stats];
        assert_eq!(end, Cycles::new(505));
        assert_eq!(toy.cpus[1].clock, Cycles::new(42));
        assert_eq!(
            (a.barrier_wait_cycles.get(), b.barrier_wait_cycles.get()),
            (31, 11)
        );
        assert_eq!((a.idle_cycles.get(), b.idle_cycles.get()), (459, 0));
        assert_eq!((a.compute_cycles.get(), b.compute_cycles.get()), (15, 31));
        assert_eq!((a.ops.get(), b.ops.get()), (4, 4));
    }

    #[test]
    fn direct_execution_elides_only_wakeups() {
        let scripts = || {
            let with_barrier = |k, n| [vec![Op::Compute(k); n], vec![Op::Barrier]].concat();
            vec![
                with_barrier(3, 200),
                [with_barrier(5, 50), vec![Op::Compute(2); 50]].concat(),
                with_barrier(7, 20),
            ]
        };
        let (queued, queued_events, a) = run(scripts(), false);
        let (direct, direct_events, b) = run(scripts(), true);
        assert_eq!(queued, direct);
        assert!(
            direct_events < queued_events,
            "{direct_events} vs {queued_events}"
        );
        for (x, y) in a.cpus.iter().zip(&b.cpus) {
            assert_eq!(x.clock, y.clock);
            assert_eq!(x.stats.ops.get(), y.stats.ops.get());
            assert_eq!(
                x.stats.barrier_wait_cycles.get(),
                y.stats.barrier_wait_cycles.get()
            );
        }
    }

    #[test]
    fn memory_ops_reach_the_host_decoded() {
        let addr = VAddr::new(0x1000_0000);
        let (end, _, toy) = run(
            vec![vec![
                Op::Write { addr, value: 3 },
                Op::Read {
                    addr,
                    expect: Some(LOADED),
                },
                Op::ReadRecord { addr },
                Op::UserCall { op: 1, arg: 2 },
            ]],
            false,
        );
        let kinds: Vec<_> = toy
            .accesses
            .iter()
            .map(|(_, op)| (op.kind, op.value, op.record))
            .collect();
        assert_eq!(
            kinds,
            [
                (AccessKind::Store, 3, false),
                (AccessKind::Load, 0, false),
                (AccessKind::Load, 0, true)
            ]
        );
        assert_eq!(toy.cpus[0].recorded, [LOADED]);
        assert_eq!(toy.cpus[0].stats.ops.get(), 4);
        assert_eq!(end, Cycles::new(4));
        assert_eq!(MemOp::decode(Op::Barrier), None);
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn a_verified_load_of_the_wrong_value_panics() {
        let addr = VAddr::new(0x1000_0000);
        run(
            vec![vec![Op::Read {
                addr,
                expect: Some(LOADED + 1),
            }]],
            false,
        );
    }

    #[test]
    fn unfinished_cpus_are_reported_with_their_status() {
        let mut cpus = vec![Frontend::default(), Frontend::default()];
        cpus[0].status = CpuStatus::Done;
        cpus[0].clock = Cycles::new(9);
        cpus[1].status = CpuStatus::AtBarrier;
        assert_eq!(finish_time(&cpus), Err(vec![(1, CpuStatus::AtBarrier)]));
        cpus[1].status = CpuStatus::Done;
        assert_eq!(finish_time(&cpus), Ok(Cycles::new(9)));
    }
}
