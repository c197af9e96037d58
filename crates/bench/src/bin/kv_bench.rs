//! **kv_bench** — the `tt-serve` distributed KV cache under Zipfian
//! fire: tail latency and throughput for the Stache-backed server vs.
//! the hot-key write-update custom protocol.
//!
//! The sweep crosses request mix {95/5 read-mostly, 50/50 write-heavy}
//! with Zipf skew {0.5, 0.9, 1.2} and runs each point on both server
//! variants. Latencies are *simulated cycles* from each request's
//! open-loop arrival time to its completion stamp, so queueing delay is
//! included and every number on stdout is bit-reproducible — the table
//! is byte-identical for any `--jobs` value (wall-clock rates go to
//! stderr and the `--json` report only).
//!
//! Usage: `kv_bench [--nodes N] [--keys N] [--requests N]
//! [--value-words N] [--interarrival CYCLES] [--fault-rate PERMILLE]
//! [--jobs N] [--repeat N] [--json PATH]`
//!
//! `--fault-rate R` runs the sweep over a lossy network: every packet
//! is dropped and duplicated with probability R‰ (corrupted at R/2‰),
//! and both server variants run behind the reliable transport. The
//! table gains a retransmission column; at the default rate 0 nothing
//! is wrapped and the output is byte-identical to a fault-free build.

use tt_apps::run_kv_update;
use tt_base::table::Table;
use tt_base::{FaultSpec, SystemConfig};
use tt_bench::json::{FaultRecord, KvRecord, PointRecord};
use tt_bench::{cli, measure, min_of_runs, par, RunOutcome};
use tt_serve::{run_kv_stache, KvParams, KvVariant};

/// Request mixes swept: percent of requests that are puts.
const MIXES: [u32; 2] = [5, 50];
/// Zipf skew levels swept.
const SKEWS: [f64; 3] = [0.5, 0.9, 1.2];
/// Server variants swept.
const VARIANTS: [KvVariant; 2] = [KvVariant::Stache, KvVariant::Update];

/// KV-specific sweep knobs layered on the shared [`tt_bench::Cli`].
struct KvCli {
    keys: u64,
    requests_per_node: u64,
    value_words: usize,
    mean_interarrival: f64,
    fault_permille: u32,
}

fn params(kv: &KvCli, nodes: usize, mix: u32, skew: f64, variant: KvVariant) -> KvParams {
    let mut p = KvParams::small(variant);
    p.nodes = nodes;
    p.keys = kv.keys;
    p.skew = skew;
    p.write_pct = mix;
    p.requests_per_node = kv.requests_per_node;
    p.mean_interarrival = kv.mean_interarrival;
    p.value_words = kv.value_words;
    p
}

/// One timed run of `p` (its latencies ride along in the outcome).
fn run_variant(cfg: &SystemConfig, p: &KvParams) -> RunOutcome {
    measure(|| {
        let out = match p.variant {
            KvVariant::Stache => run_kv_stache(cfg, p),
            KvVariant::Update => run_kv_update(cfg, p),
        };
        (out.cycles, out.report, Some(out.lat))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = KvCli {
        keys: 2048,
        requests_per_node: 256,
        value_words: 4,
        mean_interarrival: 500.0,
        fault_permille: 0,
    };
    let parsed = cli::parse_cli_with(&args, 1, &mut |flag, args, i| {
        let n = || cli::number::<usize>(args, *i, flag);
        match flag {
            "--keys" => kv.keys = n()? as u64,
            "--requests" => kv.requests_per_node = n()? as u64,
            "--value-words" => kv.value_words = n()?.max(1),
            "--interarrival" => kv.mean_interarrival = n()?.max(1) as f64,
            "--fault-rate" => kv.fault_permille = n()?.min(500) as u32,
            other => return Err(cli::unknown(other)),
        }
        *i += 2;
        Ok(())
    });
    let usage = format!(
        "kv_bench {} [--keys N] [--requests N] [--value-words N] \
         [--interarrival CYCLES] [--fault-rate PERMILLE]",
        cli::SHARED_FLAGS
    );
    let shared = cli::or_exit(parsed, &usage);
    let mut cfg = shared.config();
    let faulty = kv.fault_permille > 0;
    if faulty {
        cfg.fault = Some(FaultSpec::uniform(cfg.seed, kv.fault_permille));
    }
    println!(
        "KV SERVING. {nodes}-node tt-serve under open-loop Zipfian load \
         ({keys} keys, {req} requests/node, {vw}-word values, mean \
         interarrival {ia:.0} cycles).{faults}\n",
        nodes = shared.nodes,
        keys = kv.keys,
        req = kv.requests_per_node,
        vw = kv.value_words,
        ia = kv.mean_interarrival,
        faults = if faulty {
            format!(
                "\nLossy network: drop/dup {r}\u{2030}, corrupt {h}\u{2030} \
                 (detected), reliable transport on.",
                r = kv.fault_permille,
                h = kv.fault_permille / 2,
            )
        } else {
            String::new()
        },
    );

    let mut grid = Vec::new();
    for mix in MIXES {
        for skew in SKEWS {
            for variant in VARIANTS {
                grid.push((mix, skew, variant));
            }
        }
    }
    let runs: Vec<RunOutcome> = par::run_indexed(shared.jobs, grid.len(), |i| {
        let (mix, skew, variant) = grid[i];
        let p = params(&kv, shared.nodes, mix, skew, variant);
        min_of_runs(shared.repeat, || run_variant(&cfg, &p))
    });

    // The retransmission column exists only on lossy sweeps: at
    // --fault-rate 0 the table (and the JSON `kv` block) must stay
    // byte-identical to a fault-free build.
    let mut columns = vec![
        "mix", "skew", "server", "cycles", "req/kcyc", "get p50", "get p99",
        "get p999", "put p50", "put p99", "put p999",
    ];
    if faulty {
        columns.push("retx");
    }
    let mut table = Table::new(columns);
    let mut records = Vec::new();
    for (&(write_pct, skew, variant), mut out) in grid.iter().zip(runs) {
        let lat = out.lat.take().expect("KV runs record latencies");
        let mix = format!("{}/{}", 100 - write_pct, write_pct);
        let requests_per_kcycle = lat.requests_per_kcycle(out.cycles);
        let retransmits = out.report.get("rel.retransmits").unwrap_or(0.0) as u64;
        let mut row = vec![
            mix.clone(),
            format!("{skew:.1}"),
            variant.name().into(),
            out.cycles.raw().to_string(),
            format!("{requests_per_kcycle:.3}"),
        ];
        for h in [&lat.get, &lat.put] {
            row.extend([0.50, 0.99, 0.999].map(|q| h.quantile(q).to_string()));
        }
        if faulty {
            row.push(format!("{retransmits}"));
        }
        table.row(row);
        let fault = faulty.then(|| FaultRecord {
            rate_permille: kv.fault_permille,
            retransmits,
            sent: out.report.get("rel.sent").unwrap_or(0.0) as u64,
        });
        let record = PointRecord::new(format!("{mix} skew {skew:.1}"), variant.name(), &out);
        records.push(PointRecord {
            kv: Some(KvRecord { mix, skew, keys: kv.keys, requests_per_kcycle, lat, fault }),
            ..record
        });
    }
    println!("{table}");
    println!(
        "(latencies in simulated cycles, arrival to completion; write-update\n\
         flattens the hot-key tail while the sharer count stays moderate —\n\
         read-mostly mixes and small machines — but pays a per-put broadcast\n\
         to every sharer, which inverts the verdict for write-heavy mixes on\n\
         large machines)"
    );
    shared.finish("kv_bench", &records);
}
