//! Microbenchmarks of the simulator substrate and the user-level
//! shared-memory hot paths: the §5.1 claims about handler invocation
//! live here (miss path, message round trip), plus raw engine
//! throughput. Uses the internal `tt_bench::harness` (criterion is
//! unavailable offline).
//!
//! Run with `cargo bench -p tt-bench --bench microbench [-- <filter>]`.
//!
//! Three layer microbenches that matched a perfbench loop for loop now
//! live only in perfbench (per-layer metrics, `--trace 1`), which reports
//! ns per operation: `sim/event_queue_schedule_pop_churn_32` is
//! `sim.event_ns`, `mem/cache_probe_fill_sweep` is `mem.cache_probe_ns`,
//! and `mem/tlb_fifo_sweep` is `mem.tlb_ns` (16,384 lookups per sweep
//! there, 8,192 here before). This file keeps the ablation pairs (direct
//! vs scheduled execution, packed vs byte tags), the warm 256-node mesh
//! send, the event-queue chain, the `exec_access` hit, the payload build
//! and the Stache miss path.

use std::hint::black_box;

use tt_base::addr::PAGE_BYTES;
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{Cycles, DetRng, NodeId, SystemConfig, Topology, VAddr};
use tt_bench::harness::Runner;
use tt_mem::{AccessKind, NodeMemory, PageTable, Tag};
use tt_net::{Network, Packet, Payload, VirtualNet};
use tt_sim::EventQueue;
use tt_stache::StacheProtocol;
use tt_typhoon::cpu::{exec_access, AccessOutcome, CpuState};
use tt_typhoon::np::NpState;
use tt_typhoon::TyphoonMachine;

/// A single self-rescheduling chain: the EventQueue front-slot fast
/// path should make this nearly heap-free.
fn bench_event_queue_chain(r: &Runner) {
    r.bench("sim/event_queue_chain_10k", || {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::ZERO, 10_000u64);
        let mut sum = 0u64;
        while let Some((_, ev)) = q.pop() {
            sum = sum.wrapping_add(ev);
            if ev > 0 {
                q.schedule_after(Cycles::new(3), ev - 1);
            }
        }
        black_box(sum)
    });
}

/// The `exec_access` cache-hit path: after one fill, every access hits
/// the CPU cache and should cost a handful of nanoseconds — this is the
/// per-op floor of the whole simulation.
fn bench_exec_access_hit(r: &Runner) {
    r.bench("typhoon/exec_access_cache_hit", || {
        let cfg = SystemConfig::test_config(2);
        let mut cpu = CpuState::new(NodeId::new(0), &cfg, DetRng::new(1));
        let mut np = NpState::new(&cfg, DetRng::new(2));
        let mut mem = NodeMemory::new();
        let mut pt = PageTable::new();
        let ppn = mem.alloc();
        pt.map(tt_base::addr::Vpn(0x10000), ppn).unwrap();
        mem.frame_mut(ppn).set_all_tags(Tag::ReadWrite);
        let addr = VAddr::new(0x10000 * PAGE_BYTES as u64);
        // Prime: TLB, RTLB, and cache fill.
        exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, addr, AccessKind::Load, 0);
        let mut acc = 0u64;
        for _ in 0..16_384 {
            match exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, addr, AccessKind::Load, 0)
            {
                AccessOutcome::Done { cost, .. } => acc = acc.wrapping_add(cost.raw()),
                other => panic!("expected hit, got {other:?}"),
            }
        }
        black_box(acc)
    });
}

/// A hit-run-heavy Typhoon workload (one node streaming loads over its
/// own pages) with the direct-execution bypass on vs. off: the "on"
/// variant executes whole runs of hits inline in one handler invocation,
/// the "off" variant round-trips every quantum through the event heap.
/// Cycle counts are identical; only host time differs.
fn bench_hit_run_direct_vs_scheduled(r: &Runner) {
    let build = || {
        let mut layout = Layout::new();
        layout.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: 4 * PAGE_BYTES,
            placement: Placement::PerPage(vec![NodeId::new(0); 4]),
            mode: 0,
        });
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        let ops: Vec<Op> = (0..16_384u64)
            .map(|i| Op::Read {
                addr: VAddr::new(SHARED_SEGMENT_BASE + (i % 512) * 8),
                expect: None,
            })
            .collect();
        w.set(0, ops);
        w.set(1, Vec::new());
        w
    };
    for (name, direct) in [
        ("typhoon/hit_run_direct_on", true),
        ("typhoon/hit_run_scheduled_off", false),
    ] {
        r.bench(name, || {
            let mut cfg = SystemConfig::test_config(2);
            cfg.direct_execution = direct;
            let mut m = TyphoonMachine::new(cfg, Box::new(build()), &|id, layout, cfg| {
                Box::new(StacheProtocol::new(id, layout, cfg))
            });
            black_box(m.run().cycles.raw())
        });
    }
}

/// Tag validation, packed 2-bit words vs. a one-byte-per-block array —
/// the check the inline run loop performs per access.
fn bench_tag_check_packed_vs_byte(r: &Runner) {
    use tt_mem::tags::PackedTags;
    const BLOCKS: usize = tt_base::addr::BLOCKS_PER_PAGE;
    r.bench("mem/tag_check_packed", || {
        let mut tags = PackedTags::default();
        tags.set_all(Tag::ReadOnly);
        tags.set(17, Tag::ReadWrite);
        let mut ok = 0u64;
        for i in 0..64 * BLOCKS {
            if tags.get(i % BLOCKS).permits(AccessKind::Load) {
                ok += 1;
            }
        }
        black_box(ok)
    });
    r.bench("mem/tag_check_byte_array", || {
        let mut tags = [Tag::ReadOnly; BLOCKS];
        tags[17] = Tag::ReadWrite;
        let mut ok = 0u64;
        for i in 0..64 * BLOCKS {
            if black_box(&tags)[i % BLOCKS].permits(AccessKind::Load) {
                ok += 1;
            }
        }
        black_box(ok)
    });
}

/// Payload construction on the message hot path. The payload used to
/// carry `Vec<u64>` words and a `Vec<u8>` data block — two heap
/// allocations per message; it is now a fixed inline array, so building
/// one allocates nothing. The bench measures both time and (via the
/// harness's counting allocator) allocations per message, printed once.
fn bench_payload_inline(r: &Runner) {
    let block = [0xA5u8; 32];
    // One-shot allocation census outside the timed loop.
    let before = tt_base::alloc_stats::alloc_count();
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        let p = Payload::with_block(&[i, i ^ 7], block);
        acc = acc.wrapping_add(p.words()[0]).wrapping_add(p.data()[0] as u64);
    }
    black_box(acc);
    let per_msg = (tt_base::alloc_stats::alloc_count() - before) as f64 / 10_000.0;
    eprintln!("  payload/with_block_32B: {per_msg:.4} allocations per message");
    r.bench("payload/with_block_32B_10k", || {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            let p = Payload::with_block(&[i, i ^ 7], block);
            acc = acc.wrapping_add(p.words()[0]).wrapping_add(p.data()[0] as u64);
        }
        black_box(acc)
    });
}

/// Routed sends on a warm 256-node 2-D mesh: every ordered node pair
/// has already sent once, so each link's occupancy state holds an entry
/// per source routing over it and the timed sends only look entries up
/// (no map growth). One iteration is `SENDS` uniformly random
/// cross-node packets; divide by it for ns per send.
fn bench_route_deliver_mesh256_warm(r: &Runner) {
    const NODES: u16 = 256;
    const SENDS: usize = 4096;
    let packet = |src: u16, dst: u16, i: u64| Packet {
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        vn: VirtualNet::Request,
        handler: 1,
        payload: Payload::args(&[i]),
    };
    let mut net = Network::new(NODES as usize, Cycles::new(100));
    net.set_topology(Topology::Mesh2D { width: 0 });
    let mut now = Cycles::ZERO;
    for src in 0..NODES {
        for dst in (0..NODES).filter(|&d| d != src) {
            net.send(now, &packet(src, dst, 0));
        }
        now += Cycles::new(1);
    }
    let mut rng = DetRng::new(7);
    let packets: Vec<Packet> = (0..SENDS as u64)
        .map(|i| {
            let src = rng.below(NODES as u64) as u16;
            let dst = (src as u64 + 1 + rng.below(NODES as u64 - 1)) as u16 % NODES;
            packet(src, dst, i)
        })
        .collect();
    r.bench("net/route_deliver_mesh256_warm", || {
        let mut acc = 0u64;
        for p in &packets {
            now += Cycles::new(3);
            acc = acc.wrapping_add(net.send(now, p).raw());
        }
        black_box(acc)
    });
}

/// One remote Stache miss, end to end: page fault, block fault, request,
/// home handler, reply handler, resume, retry — the §5.1 critical path.
fn bench_stache_miss_path(r: &Runner) {
    r.bench("stache/remote_miss_round_trip", || {
        let mut layout = Layout::new();
        layout.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: PAGE_BYTES,
            placement: Placement::PerPage(vec![NodeId::new(0)]),
            mode: 0,
        });
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        w.set(0, vec![Op::Barrier]);
        w.set(
            1,
            vec![
                Op::Barrier,
                Op::Read {
                    addr: VAddr::new(SHARED_SEGMENT_BASE),
                    expect: None,
                },
            ],
        );
        let mut m = TyphoonMachine::new(
            SystemConfig::test_config(2),
            Box::new(w),
            &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
        );
        black_box(m.run().cycles.raw())
    });
}

fn main() {
    let r = Runner::from_args();
    bench_event_queue_chain(&r);
    bench_exec_access_hit(&r);
    bench_hit_run_direct_vs_scheduled(&r);
    bench_tag_check_packed_vs_byte(&r);
    bench_payload_inline(&r);
    bench_route_deliver_mesh256_warm(&r);
    bench_stache_miss_path(&r);
}
