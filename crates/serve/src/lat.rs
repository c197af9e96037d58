//! Cycle-domain latency collection for KV requests.
//!
//! Every request ends with a [`KV_STAMP_OP`](crate::KV_STAMP_OP) user
//! call carrying its scheduled arrival cycle; the protocol records
//! `now - arrival` — queueing delay included, because the arrival was
//! fixed by the open-loop schedule, not by when the processor got to the
//! request. Each node's protocol accumulates into a private
//! [`KvLatency`] and folds it into the shared collector when the
//! machine is torn down. Folding is a commutative bucket-wise add, so
//! the merged histogram is identical in whatever order the nodes drop.

use std::sync::{Arc, Mutex};

use tt_base::stats::LatHistogram;
use tt_base::Cycles;

/// Per-class latency histograms for one run (or one node).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvLatency {
    /// Get (read) request latencies, in cycles.
    pub get: LatHistogram,
    /// Put (write) request latencies, in cycles.
    pub put: LatHistogram,
}

impl KvLatency {
    /// Folds `other` into `self` (bucket-wise; commutative).
    pub fn merge(&mut self, other: &KvLatency) {
        self.get.merge(&other.get);
        self.put.merge(&other.put);
    }

    /// Total requests recorded.
    pub fn requests(&self) -> u64 {
        self.get.total() + self.put.total()
    }

    /// Requests served per thousand simulated cycles over a run of
    /// `cycles`.
    pub fn requests_per_kcycle(&self, cycles: Cycles) -> f64 {
        self.requests() as f64 * 1000.0 / cycles.raw() as f64
    }
}

/// The run-wide collector a protocol factory closure captures.
pub type SharedKvLatency = Arc<Mutex<KvLatency>>;

/// One node's accumulator plus the run-wide collector it folds into on
/// drop. Embedded in both KV protocol variants so the recording and
/// hand-off logic exists once.
#[derive(Debug)]
pub struct LatSink {
    /// This node's histograms (also surfaced as report counters).
    pub local: KvLatency,
    shared: SharedKvLatency,
}

impl LatSink {
    /// A sink folding into `shared`.
    pub fn new(shared: SharedKvLatency) -> Self {
        LatSink { local: KvLatency::default(), shared }
    }

    /// Records one finished request from a stamp argument
    /// (`arrival << 1 | is_put`).
    pub fn record(&mut self, now: Cycles, stamp: u64) {
        let arrival = stamp >> 1;
        let lat = now.raw().saturating_sub(arrival);
        if stamp & 1 == 1 {
            self.local.put.record(lat);
        } else {
            self.local.get.record(lat);
        }
    }
}

impl Drop for LatSink {
    fn drop(&mut self) {
        let mut shared = self.shared.lock().expect("latency collector poisoned");
        shared.merge(&self.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sinks(shared: &SharedKvLatency) -> (LatSink, LatSink) {
        let mut s0 = LatSink::new(shared.clone());
        let mut s1 = LatSink::new(shared.clone());
        s0.record(Cycles::new(100), 10 << 1);
        s1.record(Cycles::new(100), (20 << 1) | 1);
        (s0, s1)
    }

    #[test]
    fn sinks_fold_on_drop_in_any_order() {
        let a: SharedKvLatency = Default::default();
        let (s0, s1) = two_sinks(&a);
        drop(s0);
        drop(s1);
        let b: SharedKvLatency = Default::default();
        let (s0, s1) = two_sinks(&b);
        drop(s1);
        drop(s0);
        let a = a.lock().unwrap().clone();
        let b = b.lock().unwrap().clone();
        assert_eq!(a, b);
        assert_eq!(a.get.total(), 1);
        assert_eq!(a.put.total(), 1);
        assert_eq!(a.get.max(), 90);
        assert_eq!(a.put.max(), 80);
    }
}
