//! Golden values for the lossy-network path: KV serving under a uniform
//! 30 ‰ fault plan on 8 nodes, served by Stache and by the write-update
//! protocol, each wrapped in the `Reliable` transport. Every packet
//! crosses the fault plan and the transport's seq/ack/retransmit timers,
//! so any change to retransmission timing, ack traffic or reordering
//! shows up here as a cycle or counter difference.
//!
//! The values are the model's outputs, not tolerances. A change that
//! moves them on purpose updates them in the same commit and says why.

use tempest_typhoon::apps::run_kv_update;
use tempest_typhoon::base::{FaultSpec, SystemConfig};
use tempest_typhoon::serve::{run_kv_stache, KvOutcome, KvParams, KvVariant};

fn point(variant: KvVariant) -> (SystemConfig, KvParams) {
    let mut p = KvParams::small(variant);
    p.nodes = 8;
    p.requests_per_node = 100;
    p.write_pct = 50;
    let mut cfg = SystemConfig::test_config(p.nodes);
    cfg.fault = Some(FaultSpec::uniform(7, 30));
    (cfg, p)
}

/// `(cycles, get p99, put p99, [rel.sent, rel.retransmits, rel.acks_sent,
/// rel.reordered, rel.stale_suppressed])`.
type Golden = (u64, u64, u64, [f64; 5]);

fn observed(o: &KvOutcome, p: &KvParams) -> Golden {
    assert_eq!(
        o.lat.requests(),
        p.requests_per_node * p.nodes as u64,
        "every request completes on the lossy network"
    );
    assert_eq!(o.report.get("rel.stale_delivered"), Some(0.0));
    let count = |name: &str| {
        o.report
            .get(name)
            .unwrap_or_else(|| panic!("{name} reported"))
    };
    (
        o.cycles.raw(),
        o.lat.get.quantile(0.99),
        o.lat.put.quantile(0.99),
        [
            count("rel.sent"),
            count("rel.retransmits"),
            count("rel.acks_sent"),
            count("rel.reordered"),
            count("rel.stale_suppressed"),
        ],
    )
}

#[test]
fn lossy_kv_stache_matches_golden() {
    let (cfg, p) = point(KvVariant::Stache);
    assert_eq!(
        observed(&run_kv_stache(&cfg, &p), &p),
        (76074, 63488, 63488, [2386.0, 1621.0, 3914.0, 299.0, 1390.0])
    );
}

#[test]
fn lossy_kv_update_matches_golden() {
    let (cfg, p) = point(KvVariant::Update);
    assert_eq!(
        observed(&run_kv_update(&cfg, &p), &p),
        (64652, 50176, 51200, [2838.0, 1520.0, 4291.0, 553.0, 1132.0])
    );
}
