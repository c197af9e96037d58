//! Layer microbenches on public functions.
//!
//! Each bench runs a fixed batch of operations several times within a
//! small time budget and reports the median nanoseconds per operation.
//! Inputs are fixed, not seeded: these isolate the cost of one layer's
//! primitive, which the workloads then multiply by their counts.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tt_base::workload::Workload;
use tt_base::{Cycles, DetRng, NodeId, Topology};
use tt_dirnnb::dir::Directory;
use tt_mem::tags::PackedTags;
use tt_mem::{AccessKind, CacheModel, FifoTlb, Tag};
use tt_net::{Network, Packet, Payload, VirtualNet};
use tt_serve::{KvParams, KvVariant, KvWorkload};
use tt_sim::EventQueue;
use tt_stache::dir::SharerSet;
use tt_stache::Reliable;
use tt_tempest::testing::MockCtx;
use tt_tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall,
};

/// Wall-clock budget per microbench.
const BUDGET: Duration = Duration::from_millis(150);
/// Samples taken per microbench, at least.
const MIN_SAMPLES: usize = 5;

/// Median ns per op of `batch`, which performs `ops` operations and
/// returns a value kept opaque to the optimiser.
fn measure(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch()); // warm-up
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed() < BUDGET {
        let t = Instant::now();
        black_box(batch());
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::median(&mut samples)
}

/// `Network::send` on a 256-node machine under `topology`, uniformly
/// random source/destination pairs.
pub fn net_send_ns(topology: Topology) -> f64 {
    const N: u64 = 20_000;
    let mut rng = DetRng::new(7);
    let packets: Vec<Packet> = (0..N)
        .map(|i| {
            let src = rng.below(256) as u16;
            let dst = (src as u64 + 1 + rng.below(255)) as u16 % 256;
            Packet {
                src: NodeId::new(src),
                dst: NodeId::new(dst),
                vn: if i % 2 == 0 {
                    VirtualNet::Request
                } else {
                    VirtualNet::Response
                },
                handler: 1,
                payload: Payload::args(&[i, i ^ 5]),
            }
        })
        .collect();
    measure(N, || {
        let mut net = Network::new(256, Cycles::new(100));
        net.set_topology(topology);
        let mut acc = 0u64;
        for (i, p) in packets.iter().enumerate() {
            acc = acc.wrapping_add(net.send(Cycles::new(i as u64 * 3), p).raw());
        }
        acc
    })
}

/// One DirNNB directory operation: sharers join a block (overflowing
/// the inline slots), the writer enumerates and invalidates them, takes
/// the block exclusive, and writes it back.
pub fn dir_op_ns() -> f64 {
    const BLOCKS: u64 = 4096;
    const OPS_PER_BLOCK: u64 = 7;
    measure(BLOCKS * OPS_PER_BLOCK, || {
        let mut dir = Directory::new(256);
        let mut acc = 0u64;
        for b in 0..BLOCKS {
            let addr = 0x1000_0000 + b * 32;
            for s in 0..4u16 {
                dir.add_sharer(
                    addr,
                    NodeId::new((b as u16).wrapping_mul(7).wrapping_add(s * 61) % 256),
                );
            }
            let writer = NodeId::new((b % 256) as u16);
            acc += dir.sharers_except(addr, writer).len() as u64;
            dir.set_exclusive(addr, writer);
            dir.set_uncached(addr);
        }
        acc
    })
}

/// Stache `SharerSet` insert and remove across the pointer/bit-vector
/// boundary on a 256-node machine.
pub fn sharer_set_ns() -> f64 {
    const SETS: u64 = 512;
    const SHARERS: u64 = 12;
    measure(SETS * SHARERS * 2, || {
        let mut acc = 0u64;
        for s in 0..SETS {
            let mut set = SharerSet::new();
            for i in 0..SHARERS {
                acc += set.insert(NodeId::new(((s * 13 + i * 37) % 256) as u16)) as u64;
            }
            for i in 0..SHARERS {
                acc += set.remove(NodeId::new(((s * 13 + i * 37) % 256) as u16)) as u64;
            }
        }
        acc
    })
}

const PING: HandlerId = HandlerId(0x77);

/// Sends one message to the node named by each user call.
struct Pinger;

impl Protocol for Pinger {
    fn on_page_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: PageFault) {}
    fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: BlockFault) {}
    fn on_message(&mut self, _ctx: &mut dyn TempestCtx, msg: Message) {
        black_box(msg);
    }
    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        ctx.send(
            NodeId::new(call.op as u16),
            VirtualNet::Request,
            PING,
            Payload::args(&[call.arg]),
        );
        ctx.resume(thread);
    }
}

/// Hands every message `from` sent to `to`'s transport.
fn deliver(from: &mut MockCtx, src: u16, to: &mut Reliable, to_ctx: &mut MockCtx) {
    for m in std::mem::take(&mut from.sent) {
        to.on_message(
            to_ctx,
            Message {
                src: NodeId::new(src),
                vn: m.vn,
                handler: m.handler,
                payload: m.payload,
            },
        );
    }
}

/// A `Reliable` send, delivery and cumulative ack between two nodes on
/// `MockCtx`.
pub fn reliable_round_trip_ns() -> f64 {
    const TRIPS: u64 = 4096;
    measure(TRIPS, || {
        let mut a = Reliable::new(Box::new(Pinger));
        let mut b = Reliable::new(Box::new(Pinger));
        let (mut ca, mut cb) = (MockCtx::new(0, 2), MockCtx::new(1, 2));
        for i in 0..TRIPS {
            a.on_user_call(
                &mut ca,
                ThreadId(NodeId::new(0)),
                UserCall { op: 1, arg: i },
            );
            deliver(&mut ca, 0, &mut b, &mut cb);
            deliver(&mut cb, 1, &mut a, &mut ca);
            ca.clear_effects();
            cb.clear_effects();
        }
        a.stats().acks_received
    })
}

/// Zipfian KV request generation through `KvWorkload::next_chunk`.
pub fn kv_request_gen_ns() -> f64 {
    let mut p = KvParams::small(KvVariant::Stache);
    p.nodes = 32;
    p.keys = 2048;
    p.skew = 1.2;
    p.write_pct = 50;
    p.requests_per_node = 256;
    let requests = p.requests_per_node * p.nodes as u64;
    measure(requests, || {
        let mut w = KvWorkload::new(p.clone());
        let mut ops = 0u64;
        for n in 0..p.nodes {
            while let Some(chunk) = w.next_chunk(NodeId::new(n as u16)) {
                ops += chunk.len() as u64;
            }
        }
        ops
    })
}

/// A CPU cache probe (with a fill on miss) over a working set twice the
/// cache.
pub fn cache_probe_ns() -> f64 {
    const N: u64 = 16_384;
    measure(N, || {
        let mut cache = CacheModel::new(64 * 1024, 4, 32, DetRng::new(1));
        let mut hits = 0u64;
        for i in 0..N {
            let block = (i * 7) % 4096;
            if cache.probe(block).is_hit() {
                hits += 1;
            } else {
                cache.fill(block, i % 2 == 0);
            }
        }
        hits
    })
}

/// A TLB lookup over 1.5× its reach.
pub fn tlb_ns() -> f64 {
    const N: u64 = 16_384;
    measure(N, || {
        let mut tlb = FifoTlb::new(64);
        let mut hits = 0u64;
        for i in 0..N {
            hits += tlb.access(tt_base::addr::Vpn(i % 96)) as u64;
        }
        hits
    })
}

/// A fine-grain access-tag check on a page's packed tags.
pub fn tag_check_ns() -> f64 {
    const BLOCKS: usize = tt_base::addr::BLOCKS_PER_PAGE;
    const N: u64 = 64 * BLOCKS as u64;
    let mut tags = PackedTags::default();
    tags.set_all(Tag::ReadOnly);
    tags.set(17, Tag::ReadWrite);
    measure(N, || {
        let tags = black_box(&tags);
        let mut ok = 0u64;
        for i in 0..N as usize {
            ok += tags.get(i % BLOCKS).permits(AccessKind::Store) as u64;
        }
        ok
    })
}

/// One event-queue schedule plus pop with 32 events outstanding.
pub fn event_ns() -> f64 {
    const N: u64 = 20_000;
    measure(N, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = DetRng::new(11);
        for i in 0..32u64 {
            q.schedule_at(Cycles::new(i % 7), i);
        }
        let mut acc = 0u64;
        for _ in 0..N {
            let (now, ev) = q.pop().expect("queue never drains");
            acc = acc.wrapping_add(ev);
            q.schedule_at(now + Cycles::new(1 + rng.below(13)), ev);
        }
        acc
    })
}

/// Every microbench, by per-layer metric name (unit: ns).
pub fn all() -> Vec<(&'static str, f64)> {
    vec![
        ("net.send_ns.ideal", net_send_ns(Topology::Ideal)),
        (
            "net.send_ns.mesh",
            net_send_ns(Topology::Mesh2D { width: 0 }),
        ),
        ("dir.op_ns", dir_op_ns()),
        ("stache.sharer_set_ns", sharer_set_ns()),
        ("rel.round_trip_ns", reliable_round_trip_ns()),
        ("serve.request_gen_ns", kv_request_gen_ns()),
        ("mem.cache_probe_ns", cache_probe_ns()),
        ("mem.tlb_ns", tlb_ns()),
        ("mem.tag_check_ns", tag_check_ns()),
        ("sim.event_ns", event_ns()),
    ]
}
