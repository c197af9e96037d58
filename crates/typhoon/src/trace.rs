//! Structured execution tracing.
//!
//! Debugging a user-level protocol means reconstructing an interleaving
//! of faults, handler dispatches, message deliveries, and resumes. A
//! [`Tracer`] installed with
//! [`TyphoonMachine::set_tracer`](crate::TyphoonMachine::set_tracer)
//! receives every such event with its simulated timestamp. The
//! [`VecTracer`] collector is convenient in tests; a custom closure can
//! stream events to stderr or filter for one address.

use std::fmt;

use tt_base::{Cycles, NodeId, VAddr};
use tt_mem::AccessKind;

/// One machine-level event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A computation thread took a page fault.
    PageFault {
        /// Faulting node.
        node: NodeId,
        /// Faulting address.
        addr: VAddr,
    },
    /// A computation thread took a block access fault.
    BlockFault {
        /// Faulting node.
        node: NodeId,
        /// Faulting address.
        addr: VAddr,
        /// Load or store.
        kind: AccessKind,
    },
    /// The NP began executing a handler.
    HandlerStart {
        /// Executing node.
        node: NodeId,
        /// Work description: `"message(<id>)"`, `"block-fault"`,
        /// `"page-fault"`, or `"user-call"`.
        what: HandlerKind,
    },
    /// A packet arrived at its destination NP.
    Deliver {
        /// Destination node.
        node: NodeId,
        /// Handler id named by the packet.
        handler: u32,
    },
    /// The barrier released all processors.
    BarrierRelease,
}

/// What kind of work a handler invocation services.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerKind {
    /// An incoming active message with the given handler id.
    Message(u32),
    /// A block access fault.
    BlockFault,
    /// A page fault.
    PageFault,
    /// An explicit application call.
    UserCall,
    /// A protocol timer firing.
    Timer,
}

impl fmt::Display for HandlerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerKind::Message(id) => write!(f, "message({id:#x})"),
            HandlerKind::BlockFault => f.write_str("block-fault"),
            HandlerKind::PageFault => f.write_str("page-fault"),
            HandlerKind::UserCall => f.write_str("user-call"),
            HandlerKind::Timer => f.write_str("timer"),
        }
    }
}

/// A timestamped trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Cycles,
    /// The event.
    pub event: TraceEvent,
}

/// Receives trace records as the simulation runs.
///
/// `Send` so a machine that carries a tracer can move to a sweep worker
/// thread. Records arrive in the machine's single total event order.
pub trait Tracer: Send {
    /// Called once per machine-level event, in simulated-time order.
    fn record(&mut self, record: TraceRecord);
}

impl<F: FnMut(TraceRecord) + Send> Tracer for F {
    fn record(&mut self, record: TraceRecord) {
        self(record)
    }
}

/// A tracer that collects every record into a vector.
#[derive(Debug, Default)]
pub struct VecTracer {
    /// The collected records, in simulated-time order.
    pub records: Vec<TraceRecord>,
}

impl VecTracer {
    /// An empty collector.
    pub fn new() -> Self {
        VecTracer::default()
    }

    /// Events of one node, in order.
    pub fn for_node(&self, node: NodeId) -> Vec<&TraceRecord> {
        self.records
            .iter()
            .filter(|r| match &r.event {
                TraceEvent::PageFault { node: n, .. }
                | TraceEvent::BlockFault { node: n, .. }
                | TraceEvent::HandlerStart { node: n, .. }
                | TraceEvent::Deliver { node: n, .. } => *n == node,
                TraceEvent::BarrierRelease => false,
            })
            .collect()
    }
}

impl Tracer for VecTracer {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_kind_display() {
        assert_eq!(HandlerKind::Message(0x10).to_string(), "message(0x10)");
        assert_eq!(HandlerKind::BlockFault.to_string(), "block-fault");
    }

    #[test]
    fn vec_tracer_filters_by_node() {
        let mut t = VecTracer::new();
        t.record(TraceRecord {
            at: Cycles::new(1),
            event: TraceEvent::Deliver {
                node: NodeId::new(0),
                handler: 1,
            },
        });
        t.record(TraceRecord {
            at: Cycles::new(2),
            event: TraceEvent::BarrierRelease,
        });
        t.record(TraceRecord {
            at: Cycles::new(3),
            event: TraceEvent::Deliver {
                node: NodeId::new(1),
                handler: 2,
            },
        });
        assert_eq!(t.for_node(NodeId::new(0)).len(), 1);
        assert_eq!(t.for_node(NodeId::new(1)).len(), 1);
        assert_eq!(t.records.len(), 3);
    }
}
