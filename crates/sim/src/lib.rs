//! A deterministic discrete-event simulation engine.
//!
//! The paper evaluated Typhoon on the Wisconsin Wind Tunnel, a parallel
//! discrete-event simulator. This crate is our deterministic, sequential
//! equivalent. It holds three things the machines build on:
//!
//! - [`EventQueue`], a time-ordered event queue;
//! - [`NodeQueue`], the machines' queue, whose `(time, origin, counter)`
//!   keys fix the same-cycle order the cycle tables are defined by, and
//!   which counts barrier arrivals;
//! - [`cpu`], the CPU front end both machines share: per-CPU op-stream
//!   state, the interpreter for `Compute`, `WaitUntil` and `Barrier`,
//!   the quantum yield and the barrier release. Each machine's event
//!   loop calls it; a machine adds only how it performs memory ops and
//!   protocol calls.
//!
//! Events scheduled for the same cycle are delivered in scheduling order
//! (FIFO) or, under caller keys, in key order, which makes every
//! simulation bit-reproducible.
//!
//! # Event storage
//!
//! The queue's heap is sifted on every schedule and pop, so the bytes
//! one heap entry occupies are the queue's main cost. Events of at most
//! 32 bytes (`INLINE_EVENT_BYTES`; DirNNB's 16-byte event, say) sit in the
//! heap entry itself. Larger events (Typhoon's, which carry a whole
//! network packet) are parked in a slab with a free list, and the heap
//! moves only a 24-byte `(time, key, slot)` triple. The choice follows
//! from `size_of::<E>()`: it is a property of the event type, not a
//! setting, and both layouts deliver events in the same order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tt_base::{mix64, Cycles};

pub mod cpu;
mod node_queue;

pub use node_queue::NodeQueue;

/// Bits of an entry key available to schedulers. Keys are either the
/// queue's internal monotonic counter or, for the machines, a packed
/// `(origin, per-origin counter)` pair (see [`NodeQueue`]); both
/// fit comfortably in 48 bits. The top 16 bits are reserved for the
/// tie-shuffle salt so the heap `Entry` never grows (an earlier draft
/// that widened `Entry` by 16 bytes cost DirNNB ~25% wall time).
const KEY_BITS: u32 = 48;

/// Largest event, in bytes, stored inline in the queue's heap entries;
/// larger events are parked in a slab (see the crate docs).
const INLINE_EVENT_BYTES: usize = 32;

/// A pending event: ordering key is `(time, key)`, so same-cycle events
/// fire in a deterministic scheduler-chosen order. The ordering impls
/// deliberately ignore the payload (the event itself, or its slab slot)
/// so event types need no `Ord`.
#[derive(Clone, Debug)]
struct Entry<P> {
    time: Cycles,
    key: u64,
    payload: P,
}

impl<P> Entry<P> {
    #[inline]
    fn order(&self) -> (Cycles, u64) {
        (self.time, self.key)
    }
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl<P> Eq for Entry<P> {}

impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

/// How keys have been assigned so far; mixing the two schemes in one
/// queue would silently break the FIFO/total-order invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyMode {
    Unset,
    Internal,
    Caller,
}

/// A time-ordered queue of simulation events.
///
/// The common pattern in the machines is *self-rescheduling*: a handler
/// pops the earliest event and immediately schedules its successor,
/// which is very often again the earliest pending event. The queue keeps
/// that front-runner in a dedicated slot (`front`) so the pattern costs
/// two comparisons instead of two `O(log n)` heap operations.
///
/// Invariant: whenever `front` is occupied it orders before every entry
/// in the heap (entries are totally ordered by `(time, key)`, so
/// delivery of same-cycle events follows the key order
/// deterministically).
///
/// Only one of the two heaps is ever used, chosen by the event size (see
/// the crate docs): `inline` holds small events in place, `parked` holds
/// slab slots of large ones. The front slot always holds its event in
/// place.
///
/// # Keys
///
/// By default the queue assigns each entry a monotonically increasing
/// key, which makes same-cycle delivery FIFO. Callers that order
/// same-cycle events by something other than insertion order — the
/// machines' [`NodeQueue`] orders them by origin node — supply their
/// own keys via [`EventQueue::schedule_keyed_at`]. The two schemes must
/// not be mixed in one queue.
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    now: Cycles,
    seq: u64,
    scheduled: u64,
    front: Option<Entry<E>>,
    inline: BinaryHeap<Reverse<Entry<E>>>,
    parked: BinaryHeap<Reverse<Entry<u32>>>,
    /// Parked events by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    /// When set, same-cycle tie-breaking is deterministically permuted by
    /// salting the high bits of each entry's key with a hash of the seed
    /// and the raw key (see [`EventQueue::enable_tie_shuffle`]). `None`
    /// keeps the unsalted key order (FIFO for internal keys).
    shuffle: Option<u64>,
    /// Which key scheme this queue is using (debug-checked).
    key_mode: KeyMode,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Whether this event type is parked in the slab rather than stored
    /// in its heap entry.
    const PARKED: bool = std::mem::size_of::<E>() > INLINE_EVENT_BYTES;

    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            now: Cycles::ZERO,
            seq: 0,
            scheduled: 0,
            front: None,
            inline: BinaryHeap::new(),
            parked: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            shuffle: None,
            key_mode: KeyMode::Unset,
        }
    }

    /// Turns on deterministic same-cycle tie-shuffling: events scheduled
    /// for the same cycle are delivered in a seed-dependent permutation
    /// instead of FIFO order. Simulations must be correct under *any*
    /// same-cycle ordering, so this is a legal-nondeterminism knob for
    /// the `tt-check` schedule fuzzer; the same seed always produces the
    /// same permutation.
    ///
    /// The salt for an entry is a pure hash of `(seed, key)`, not a draw
    /// from an RNG stream, so it does not depend on insertion order: the
    /// same keyed entries come out in the same permutation however they
    /// were inserted, and eliding one entry (a machine's reserved-key CPU
    /// wakeup) leaves the others' salts unchanged.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending (their keys are unsalted).
    pub fn enable_tie_shuffle(&mut self, seed: u64) {
        assert!(
            self.is_empty(),
            "enable tie-shuffle on an empty queue, before scheduling"
        );
        self.shuffle = Some(seed);
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Salts a raw key with the tie-shuffle hash, if shuffling is on.
    #[inline]
    fn salted(&self, key: u64) -> u64 {
        match self.shuffle {
            Some(seed) => {
                debug_assert!(key < 1 << KEY_BITS);
                (mix64(seed ^ key) << KEY_BITS) | key
            }
            None => key,
        }
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past (`t < self.now()`): the simulation
    /// would no longer be causal.
    pub fn schedule_at(&mut self, t: Cycles, event: E) {
        debug_assert_ne!(self.key_mode, KeyMode::Caller, "queue is caller-keyed");
        self.key_mode = KeyMode::Internal;
        self.seq += 1;
        let key = self.salted(self.seq);
        self.insert(t, key, event);
    }

    /// Schedules `event` at absolute time `t` under a caller-supplied
    /// key. Same-cycle entries are delivered in key order (after
    /// tie-shuffle salting, if enabled), regardless of insertion order.
    /// Keys must be unique among pending entries and fit in 48 bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past (`t < self.now()`).
    pub fn schedule_keyed_at(&mut self, t: Cycles, key: u64, event: E) {
        debug_assert_ne!(self.key_mode, KeyMode::Internal, "queue is internally keyed");
        debug_assert!(key < 1 << KEY_BITS, "event key overflows 48 bits");
        self.key_mode = KeyMode::Caller;
        let key = self.salted(key);
        self.insert(t, key, event);
    }

    fn insert(&mut self, t: Cycles, key: u64, event: E) {
        assert!(t >= self.now, "scheduling into the past: {t:?} < {:?}", self.now);
        self.scheduled += 1;
        let entry = Entry {
            time: t,
            key,
            payload: event,
        };
        match &self.front {
            Some(f) if entry < *f => {
                let old = std::mem::replace(self.front.as_mut().expect("front present"), entry);
                self.heap_push(old);
            }
            Some(_) => self.heap_push(entry),
            None => match self.heap_min() {
                Some(min) if min < entry.order() => self.heap_push(entry),
                _ => self.front = Some(entry),
            },
        }
    }

    /// Pushes an entry onto whichever heap this event type uses.
    #[inline]
    fn heap_push(&mut self, entry: Entry<E>) {
        if Self::PARKED {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slab[slot as usize] = Some(entry.payload);
                    slot
                }
                None => {
                    self.slab.push(Some(entry.payload));
                    u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
                }
            };
            self.parked.push(Reverse(Entry {
                time: entry.time,
                key: entry.key,
                payload: slot,
            }));
        } else {
            self.inline.push(Reverse(entry));
        }
    }

    /// Pops the heap's minimum entry, unparking its event.
    #[inline]
    fn heap_pop(&mut self) -> Option<Entry<E>> {
        if Self::PARKED {
            let Reverse(e) = self.parked.pop()?;
            let event = self.slab[e.payload as usize]
                .take()
                .expect("parked slot is occupied");
            self.free.push(e.payload);
            Some(Entry {
                time: e.time,
                key: e.key,
                payload: event,
            })
        } else {
            self.inline.pop().map(|Reverse(e)| e)
        }
    }

    /// The `(time, key)` of the heap's minimum entry.
    #[inline]
    fn heap_min(&self) -> Option<(Cycles, u64)> {
        if Self::PARKED {
            self.parked.peek().map(|Reverse(e)| e.order())
        } else {
            self.inline.peek().map(|Reverse(e)| e.order())
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Cycles, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = match self.front.take() {
            Some(e) => e,
            None => self.heap_pop()?,
        };
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        match &self.front {
            Some(e) => Some(e.time),
            None => self.heap_min().map(|(t, _)| t),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.inline.len() + self.parked.len() + usize::from(self.front.is_some())
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime (for statistics).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::DetRng;

    /// An event too large to sit in a heap entry: exercises the slab.
    type Big = [u64; 20];

    /// Event payloads of either storage path, built from and read back
    /// as a `u32` so one test body covers both.
    trait Payload: Copy {
        fn of(v: u32) -> Self;
        fn id(&self) -> u32;
    }

    impl Payload for u32 {
        fn of(v: u32) -> Self {
            v
        }
        fn id(&self) -> u32 {
            *self
        }
    }

    impl Payload for Big {
        fn of(v: u32) -> Self {
            let mut b = [u64::from(v); 20];
            b[19] = !u64::from(v);
            b
        }
        fn id(&self) -> u32 {
            assert!(self.iter().take(19).all(|&w| w == self[0]), "payload torn");
            assert_eq!(self[19], !self[0], "payload torn");
            self[0] as u32
        }
    }

    fn drain<P: Payload>(q: &mut EventQueue<P>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            out.push((t.raw(), e.id()));
        }
        out
    }

    #[test]
    fn storage_follows_the_event_size() {
        const {
            assert!(!EventQueue::<u32>::PARKED);
            assert!(
                !EventQueue::<[u8; INLINE_EVENT_BYTES]>::PARKED,
                "the bound is inclusive"
            );
            assert!(EventQueue::<[u8; INLINE_EVENT_BYTES + 1]>::PARKED);
            assert!(EventQueue::<Big>::PARKED);
            assert!(
                std::mem::size_of::<Entry<u32>>() == 24,
                "a parked entry is 24 bytes"
            );
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(30), 3);
        q.schedule_at(Cycles::new(10), 1);
        q.schedule_at(Cycles::new(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    fn same_cycle_fifo<P: Payload>() {
        let mut q: EventQueue<P> = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycles::new(5), P::of(i));
        }
        let order: Vec<u32> = drain(&mut q).iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        same_cycle_fifo::<u32>();
    }

    #[test]
    fn same_cycle_parked_events_are_fifo() {
        same_cycle_fifo::<Big>();
    }

    fn caller_keys<P: Payload>() {
        let mut q: EventQueue<P> = EventQueue::new();
        // Inserted out of key order, delivered in key order.
        q.schedule_keyed_at(Cycles::new(5), 30, P::of(2));
        q.schedule_keyed_at(Cycles::new(5), 10, P::of(0));
        q.schedule_keyed_at(Cycles::new(5), 20, P::of(1));
        q.schedule_keyed_at(Cycles::new(4), 40, P::of(9));
        assert_eq!(drain(&mut q), vec![(4, 9), (5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    fn caller_keys_order_same_cycle_events_regardless_of_insertion() {
        caller_keys::<u32>();
    }

    #[test]
    fn caller_keys_order_parked_events_regardless_of_insertion() {
        caller_keys::<Big>();
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), 1);
        q.pop();
        q.schedule_at(Cycles::new(5), 2);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(Cycles::new(7), 0);
        q.pop();
        q.schedule_after(Cycles::new(3), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Cycles::new(10));
        assert_eq!(q.total_scheduled(), 2);
    }

    fn shuffled_order<P: Payload>(seed: Option<u64>) -> Vec<u32> {
        let mut q: EventQueue<P> = EventQueue::new();
        if let Some(s) = seed {
            q.enable_tie_shuffle(s);
        }
        for i in 0..50 {
            q.schedule_at(Cycles::new(5), P::of(i));
        }
        drain(&mut q).iter().map(|&(_, e)| e).collect()
    }

    fn tie_shuffle<P: Payload>() {
        let fifo = shuffled_order::<P>(None);
        assert_eq!(fifo, (0..50).collect::<Vec<_>>());
        let a = shuffled_order::<P>(Some(7));
        let b = shuffled_order::<P>(Some(7));
        assert_eq!(a, b, "same seed must reproduce the permutation");
        assert_ne!(a, fifo, "seed 7 should permute 50 same-cycle events");
        let c = shuffled_order::<P>(Some(8));
        assert_ne!(a, c, "different seeds should usually differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fifo, "shuffling is a permutation, not a loss");
    }

    #[test]
    fn tie_shuffle_permutes_same_cycle_events_deterministically() {
        tie_shuffle::<u32>();
    }

    #[test]
    fn tie_shuffle_permutes_parked_events_like_inline_ones() {
        tie_shuffle::<Big>();
        assert_eq!(
            shuffled_order::<Big>(Some(7)),
            shuffled_order::<u32>(Some(7)),
            "the storage path does not change the order"
        );
    }

    #[test]
    fn tie_shuffle_salt_depends_on_key_not_insertion_order() {
        // The same (time, key) entries inserted in different orders must
        // come out identically.
        let deliver = |keys: &[u64]| {
            let mut q = EventQueue::new();
            q.enable_tie_shuffle(99);
            for &k in keys {
                q.schedule_keyed_at(Cycles::new(5), k, k as u32);
            }
            let mut out = Vec::new();
            while let Some((_, e)) = q.pop() {
                out.push(e);
            }
            out
        };
        let forward = deliver(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let backward = deliver(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn tie_shuffle_preserves_time_order() {
        let mut q = EventQueue::new();
        q.enable_tie_shuffle(3);
        q.schedule_at(Cycles::new(30), 3);
        q.schedule_at(Cycles::new(10), 1);
        q.schedule_at(Cycles::new(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn tie_shuffle_must_be_enabled_before_scheduling() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(Cycles::new(1), 0);
        q.enable_tie_shuffle(1);
    }

    /// The self-rescheduling pattern the front slot exists for, mixed
    /// with background events in the heap: pops stay in `(time, key)`
    /// order, and a parked queue reuses its slab slots.
    fn front_slot<P: Payload>() -> (Vec<(u64, u32)>, usize) {
        let mut q: EventQueue<P> = EventQueue::new();
        for i in 0..8 {
            q.schedule_at(Cycles::new(10 * i + 5), P::of(1000 + i as u32));
        }
        q.schedule_at(Cycles::ZERO, P::of(0));
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            out.push((t.raw(), e.id()));
            if e.id() < 40 {
                // Successor 3 cycles later: usually the new front.
                q.schedule_after(Cycles::new(3), P::of(e.id() + 1));
            }
        }
        (out, q.slab.len())
    }

    #[test]
    fn front_slot_serves_self_rescheduling_on_both_paths() {
        let (inline, inline_slab) = front_slot::<u32>();
        let (parked, parked_slab) = front_slot::<Big>();
        assert_eq!(inline, parked);
        assert_eq!(inline.len(), 41 + 8);
        assert!(inline.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
        assert_eq!(inline_slab, 0, "small events never touch the slab");
        assert!(
            (1..=9).contains(&parked_slab),
            "slots are reused: slab holds at most the pending count, got {parked_slab}"
        );
    }

    /// Random interleavings of timed and same-cycle schedules and pops
    /// deliver identically through both storage paths.
    #[test]
    fn parked_and_inline_queues_agree_on_random_schedules() {
        for seed in 0..20 {
            let mut rng = DetRng::new(seed);
            let mut small: EventQueue<u32> = EventQueue::new();
            let mut big: EventQueue<Big> = EventQueue::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for id in 0..400u32 {
                if rng.chance(0.4) {
                    a.extend(small.pop());
                    b.extend(big.pop().map(|(t, e)| (t, e.id())));
                }
                let t = small.now() + Cycles::new(rng.below(6));
                small.schedule_at(t, id);
                big.schedule_at(t, Big::of(id));
                assert_eq!(small.peek_time(), big.peek_time());
                assert_eq!(small.len(), big.len());
            }
            a.extend(std::iter::from_fn(|| small.pop()));
            b.extend(std::iter::from_fn(|| big.pop().map(|(t, e)| (t, e.id()))));
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.len(), 400);
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.now(), Cycles::ZERO);
        q.schedule_at(Cycles::new(42), 9);
        q.pop();
        assert_eq!(q.now(), Cycles::new(42));
        assert!(q.is_empty());
    }
}
