//! The machines' event queue: an [`EventQueue`] under deterministic
//! `(time, origin, counter)` keys, plus the global barrier.
//!
//! # Keys
//!
//! Every event carries a key packed from its *origin* — the node whose
//! handler scheduled it, or the global origin 0 for machine-global
//! bookkeeping such as barrier releases — and a per-origin counter:
//!
//! ```text
//! key = origin_id << 32 | counter      (origin_id = node + 1, 0 = global)
//! ```
//!
//! Same-cycle events therefore fire in `(origin, counter)` order: global
//! events ahead of every node's (so a barrier release precedes same-cycle
//! node work), then node by node, each node's own events in the order
//! its handlers scheduled them. The reported cycle tables of both
//! machines are defined by this order, so it is part of the model.
//!
//! Counter 0 of each node is reserved for the node's CPU wakeup
//! ([`NodeQueue::schedule_wakeup`]); direct execution may elide that
//! event, and keeping it outside the counter stream leaves every other
//! key — and with it the tie-shuffled order — unchanged either way.

use tt_base::Cycles;

use crate::EventQueue;

/// Origin id of machine-global scheduling (barrier bookkeeping). Sorts
/// ahead of every node origin at the same cycle.
const GLOBAL_ORIGIN: u64 = 0;

/// Bits of the key holding the per-origin counter.
const COUNTER_BITS: u32 = 32;

/// Packs an origin id and counter into an event key.
#[inline]
fn pack_key(origin_id: u64, counter: u64) -> u64 {
    debug_assert!(origin_id < 1 << 16, "origin id overflows 16 bits");
    debug_assert!(counter < 1 << COUNTER_BITS, "origin counter overflows");
    (origin_id << COUNTER_BITS) | counter
}

/// Global barrier bookkeeping: the `expected`-th arrival of a generation
/// releases everyone at `max_arrival + delay`.
#[derive(Clone, Debug)]
struct Barrier {
    expected: usize,
    delay: Cycles,
    arrived: usize,
    max_arrival: Cycles,
}

/// A machine's event queue (see the module docs). Machines schedule
/// through [`NodeQueue::schedule`], [`NodeQueue::schedule_global`] and
/// [`NodeQueue::schedule_wakeup`]; the dispatch loop sets the origin
/// before each handler runs.
#[derive(Debug)]
pub struct NodeQueue<E> {
    queue: EventQueue<E>,
    /// Per-node scheduling counters.
    counters: Vec<u64>,
    global_counter: u64,
    /// Origin for keys of subsequently scheduled events. `None` = global.
    origin: Option<usize>,
    barrier: Barrier,
}

impl<E> NodeQueue<E> {
    /// A queue for `nodes` nodes, all of which take part in every
    /// barrier; a barrier releases `barrier_delay` after its last arrival.
    pub fn new(nodes: usize, barrier_delay: Cycles) -> Self {
        NodeQueue {
            queue: EventQueue::new(),
            counters: vec![0; nodes],
            global_counter: 0,
            origin: None,
            barrier: Barrier {
                expected: nodes,
                delay: barrier_delay,
                arrived: 0,
                max_arrival: Cycles::ZERO,
            },
        }
    }

    /// See [`EventQueue::enable_tie_shuffle`]. The salt is a pure hash
    /// of the deterministic key.
    pub fn enable_tie_shuffle(&mut self, seed: u64) {
        self.queue.enable_tie_shuffle(seed);
    }

    /// Current simulated time (last popped event).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.queue.peek_time()
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.queue.pop()
    }

    /// Declares `node` the origin of subsequently scheduled events
    /// (`None`: machine-global). The dispatch loop calls this with the
    /// handling node before each event; handlers themselves never need to.
    #[inline]
    pub fn set_origin(&mut self, node: Option<usize>) {
        self.origin = node;
    }

    /// Schedules `event` at `t` under the next key of the current origin.
    pub fn schedule(&mut self, t: Cycles, event: E) {
        let key = match self.origin {
            Some(node) => {
                // Counters start at 1: counter 0 is the reserved wakeup key.
                let c = &mut self.counters[node];
                *c += 1;
                pack_key(node as u64 + 1, *c)
            }
            None => self.next_global_key(),
        };
        self.queue.schedule_keyed_at(t, key, event);
    }

    /// Schedules a machine-global `event` (no single target node), keyed
    /// from the global counter — never from a node's, so scheduling a
    /// global event leaves every per-node key stream untouched.
    pub fn schedule_global(&mut self, t: Cycles, event: E) {
        let key = self.next_global_key();
        self.queue.schedule_keyed_at(t, key, event);
    }

    fn next_global_key(&mut self) -> u64 {
        self.global_counter += 1;
        pack_key(GLOBAL_ORIGIN, self.global_counter)
    }

    /// Schedules node `node`'s own CPU wakeup under its reserved key
    /// (origin `node`, counter 0). Sound because at most one such wakeup
    /// per node is ever pending (the machines' `step_pending` flag).
    pub fn schedule_wakeup(&mut self, t: Cycles, node: usize, event: E) {
        let key = pack_key(node as u64 + 1, 0);
        self.queue.schedule_keyed_at(t, key, event);
    }

    /// Records a barrier arrival at `at`. Returns the release time
    /// (`max_arrival + delay`) once every node has arrived, resetting for
    /// the next generation; the machine schedules its release event there.
    pub fn note_barrier_arrival(&mut self, at: Cycles) -> Option<Cycles> {
        let b = &mut self.barrier;
        b.arrived += 1;
        b.max_arrival = b.max_arrival.max(at);
        if b.arrived < b.expected {
            return None;
        }
        b.arrived = 0;
        Some(std::mem::replace(&mut b.max_arrival, Cycles::ZERO) + b.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut NodeQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn barrier_releases_after_the_last_arrival_and_resets() {
        let mut q: NodeQueue<u32> = NodeQueue::new(4, Cycles::new(11));
        assert_eq!(q.note_barrier_arrival(Cycles::new(5)), None);
        assert_eq!(q.note_barrier_arrival(Cycles::new(9)), None);
        assert_eq!(q.note_barrier_arrival(Cycles::new(7)), None);
        assert_eq!(
            q.note_barrier_arrival(Cycles::new(8)),
            Some(Cycles::new(20)),
            "release at max arrival + delay"
        );
        // Next generation starts clean.
        for t in [30, 31, 32] {
            assert_eq!(q.note_barrier_arrival(Cycles::new(t)), None);
        }
        assert_eq!(
            q.note_barrier_arrival(Cycles::new(3)),
            Some(Cycles::new(43))
        );
    }

    #[test]
    fn same_cycle_events_fire_global_first_then_by_origin() {
        let mut q: NodeQueue<u32> = NodeQueue::new(2, Cycles::new(1));
        q.set_origin(Some(1));
        q.schedule(Cycles::new(5), 101);
        q.schedule(Cycles::new(5), 102);
        q.set_origin(Some(0));
        q.schedule(Cycles::new(5), 100);
        q.schedule_global(Cycles::new(5), 999);
        q.set_origin(None);
        q.schedule(Cycles::new(5), 998);
        assert_eq!(drain(&mut q), vec![999, 998, 100, 101, 102]);
    }

    #[test]
    fn wakeups_precede_their_nodes_other_events_and_leave_keys_alone() {
        let order = |wakeup: bool| {
            let mut q: NodeQueue<u32> = NodeQueue::new(2, Cycles::new(1));
            q.enable_tie_shuffle(17);
            q.set_origin(Some(0));
            q.schedule(Cycles::new(5), 1);
            if wakeup {
                q.schedule_wakeup(Cycles::new(5), 1, 0);
            }
            q.set_origin(Some(1));
            q.schedule(Cycles::new(5), 2);
            q.schedule(Cycles::new(5), 3);
            drain(&mut q)
        };
        let without = order(false);
        let with: Vec<u32> = order(true).into_iter().filter(|&e| e != 0).collect();
        assert_eq!(with, without, "eliding a wakeup perturbs no other event");
        let mut q: NodeQueue<u32> = NodeQueue::new(1, Cycles::new(1));
        q.set_origin(Some(0));
        q.schedule(Cycles::new(5), 1);
        q.schedule_wakeup(Cycles::new(5), 0, 0);
        assert_eq!(drain(&mut q), vec![0, 1], "counter 0 sorts first");
    }
}
