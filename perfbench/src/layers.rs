//! Timing decorators over the simulator's public extension traits.
//!
//! The benchmark attributes host time to layers without touching the
//! program: [`TimedWorkload`] wraps a [`Workload`] (op generation in
//! `tt-apps` / `tt-serve`), [`TimedProtocol`] wraps a [`Protocol`]
//! (Stache, the custom protocols, or the `Reliable` transport around
//! them), and [`CountingTracer`] counts Typhoon's trace events. Each
//! decorator accumulates into local fields while the machine runs and
//! folds them into a shared [`Probe`] when the machine drops it, so the
//! hot path takes no lock.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tt_base::stats::Report;
use tt_base::workload::{Layout, Op, Workload};
use tt_base::NodeId;
use tt_tempest::UserCall;
use tt_tempest::{
    BlockDirSnapshot, BlockFault, Message, PageFault, Protocol, TempestCtx, ThreadId,
};
use tt_typhoon::{TraceEvent, TraceRecord, Tracer};

/// Handler kinds a [`TimedProtocol`] splits its time by.
pub const HANDLER_KINDS: [&str; 6] = [
    "message",
    "block_fault",
    "page_fault",
    "user_call",
    "timer",
    "init",
];

/// Trace-event kinds a [`CountingTracer`] counts.
pub const EVENT_KINDS: [&str; 5] = [
    "block_fault",
    "handler_start",
    "deliver",
    "barrier_release",
    "page_fault",
];

/// One call in every `SPAN_SAMPLE` per decorator is kept as a span.
const SPAN_SAMPLE: u64 = 1024;
/// Sampled spans kept per decorator instance.
const SPAN_CAP: usize = 32;

/// A timed interval at a layer boundary, in seconds since the bench
/// epoch. `parent` is the id of the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within one trace file (0 for sampled call spans, which
    /// nothing names as a parent).
    pub id: u64,
    /// Layer and operation, e.g. `run.typhoon_stache` or `proto.message`.
    pub layer: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// The causing span's id.
    pub parent: Option<u64>,
}

/// Which side of the `Reliable` transport a [`TimedProtocol`] sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Directly around the coherence / serving protocol.
    Protocol,
    /// Around `Reliable` (transport plus the protocol inside it).
    Transport,
}

/// Per-run layer totals, filled as the decorators drop.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Seconds inside `Workload::next_chunk[_into]`.
    pub gen_s: f64,
    /// Chunks generated.
    pub gen_chunks: u64,
    /// Ops generated.
    pub gen_ops: u64,
    /// Seconds inside protocol handlers, by [`HANDLER_KINDS`].
    pub handler_s: [f64; 6],
    /// Protocol handler invocations, by [`HANDLER_KINDS`].
    pub handlers: [u64; 6],
    /// Seconds inside the transport-side decorator (all kinds).
    pub transport_s: f64,
    /// Trace events, by [`EVENT_KINDS`].
    pub events: [u64; 5],
    /// Sampled call spans.
    pub spans: Vec<Span>,
}

/// Where one run's decorators report.
#[derive(Clone, Debug)]
pub struct Probe {
    totals: Arc<Mutex<LayerTotals>>,
    epoch: Instant,
    parent: u64,
}

impl Probe {
    /// A probe whose sampled spans hang under span `parent`; times are
    /// relative to `epoch`.
    pub fn new(epoch: Instant, parent: u64) -> Self {
        Probe {
            totals: Arc::default(),
            epoch,
            parent,
        }
    }

    /// The totals gathered so far (complete once the machine is dropped).
    pub fn totals(&self) -> LayerTotals {
        self.totals
            .lock()
            .expect("probe poisoned by a panicking run")
            .clone()
    }

    fn fold(&self, f: impl FnOnce(&mut LayerTotals)) {
        // Drop must not panic: a poisoned probe (a run already panicked)
        // just loses this decorator's share.
        if let Ok(mut t) = self.totals.lock() {
            f(&mut t);
        }
    }

    fn span(&self, layer: &str, start: Instant, end: Instant) -> Span {
        Span {
            id: 0,
            layer: layer.to_string(),
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            parent: Some(self.parent),
        }
    }
}

/// Times op generation.
pub(crate) struct TimedWorkload {
    inner: Box<dyn Workload>,
    probe: Probe,
    layer: &'static str,
    secs: f64,
    chunks: u64,
    ops: u64,
    spans: Vec<Span>,
}

impl TimedWorkload {
    /// Wraps `inner`; sampled spans are named `layer` (`apps.gen`,
    /// `serve.gen`).
    pub(crate) fn new(inner: Box<dyn Workload>, probe: Probe, layer: &'static str) -> Self {
        TimedWorkload {
            inner,
            probe,
            layer,
            secs: 0.0,
            chunks: 0,
            ops: 0,
            spans: Vec::new(),
        }
    }

    fn account(&mut self, start: Instant, ops: usize) {
        let end = Instant::now();
        self.secs += end.duration_since(start).as_secs_f64();
        self.chunks += 1;
        self.ops += ops as u64;
        if self.chunks % SPAN_SAMPLE == 1 && self.spans.len() < SPAN_CAP {
            self.spans.push(self.probe.span(self.layer, start, end));
        }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        let start = Instant::now();
        let chunk = self.inner.next_chunk(cpu);
        self.account(start, chunk.as_ref().map_or(0, Vec::len));
        chunk
    }

    fn next_chunk_into(&mut self, cpu: NodeId, buf: &mut Vec<Op>) -> bool {
        let start = Instant::now();
        let more = self.inner.next_chunk_into(cpu, buf);
        self.account(start, buf.len());
        more
    }
}

impl Drop for TimedWorkload {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        let (secs, chunks, ops) = (self.secs, self.chunks, self.ops);
        self.probe.fold(|t| {
            t.gen_s += secs;
            t.gen_chunks += chunks;
            t.gen_ops += ops;
            t.spans.extend(spans);
        });
    }
}

/// Times protocol handlers by kind.
pub(crate) struct TimedProtocol {
    inner: Box<dyn Protocol>,
    probe: Probe,
    role: Role,
    secs: [f64; 6],
    calls: [u64; 6],
    spans: Vec<Span>,
}

impl TimedProtocol {
    /// Wraps `inner` on the given side of the transport.
    pub(crate) fn new(inner: Box<dyn Protocol>, probe: Probe, role: Role) -> Self {
        TimedProtocol {
            inner,
            probe,
            role,
            secs: [0.0; 6],
            calls: [0; 6],
            spans: Vec::new(),
        }
    }

    fn timed(&mut self, kind: usize, f: impl FnOnce(&mut dyn Protocol)) {
        let start = Instant::now();
        f(self.inner.as_mut());
        let end = Instant::now();
        self.secs[kind] += end.duration_since(start).as_secs_f64();
        self.calls[kind] += 1;
        if self.calls[kind] % SPAN_SAMPLE == 1 && self.spans.len() < SPAN_CAP {
            let prefix = match self.role {
                Role::Protocol => "proto",
                Role::Transport => "rel",
            };
            let layer = format!("{prefix}.{}", HANDLER_KINDS[kind]);
            self.spans.push(self.probe.span(&layer, start, end));
        }
    }
}

impl Protocol for TimedProtocol {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        self.timed(5, |p| p.init(ctx));
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        self.timed(2, |p| p.on_page_fault(ctx, fault));
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        self.timed(1, |p| p.on_block_fault(ctx, fault));
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        self.timed(0, |p| p.on_message(ctx, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn TempestCtx, token: u64) {
        self.timed(4, |p| p.on_timer(ctx, token));
    }

    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        self.timed(3, |p| p.on_user_call(ctx, thread, call));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report(&self, report: &mut Report) {
        self.inner.report(report);
    }

    fn inspect_directory(&self, out: &mut Vec<BlockDirSnapshot>) {
        self.inner.inspect_directory(out);
    }
}

impl Drop for TimedProtocol {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        let (secs, calls, role) = (self.secs, self.calls, self.role);
        self.probe.fold(|t| {
            match role {
                Role::Protocol => {
                    for k in 0..HANDLER_KINDS.len() {
                        t.handler_s[k] += secs[k];
                        t.handlers[k] += calls[k];
                    }
                }
                Role::Transport => t.transport_s += secs.iter().sum::<f64>(),
            }
            t.spans.extend(spans);
        });
    }
}

/// Counts Typhoon trace events by kind.
pub(crate) struct CountingTracer {
    probe: Probe,
    counts: [u64; 5],
}

impl CountingTracer {
    /// A tracer reporting to `probe`.
    pub(crate) fn new(probe: Probe) -> Self {
        CountingTracer {
            probe,
            counts: [0; 5],
        }
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, record: TraceRecord) {
        let kind = match record.event {
            TraceEvent::BlockFault { .. } => 0,
            TraceEvent::HandlerStart { .. } => 1,
            TraceEvent::Deliver { .. } => 2,
            TraceEvent::BarrierRelease => 3,
            TraceEvent::PageFault { .. } => 4,
        };
        self.counts[kind] += 1;
    }
}

impl Drop for CountingTracer {
    fn drop(&mut self) {
        let counts = self.counts;
        self.probe.fold(|t| {
            for (total, n) in t.events.iter_mut().zip(counts) {
                *total += n;
            }
        });
    }
}
