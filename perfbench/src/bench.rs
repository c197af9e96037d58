//! The benchmark command: a correctness pass, then timed batches (or, with
//! `--trace 1`, traced batches interleaved with untraced ones), then one
//! JSON line of metrics.
//!
//! A *batch* is every run of a workload once, in order, on one thread.
//! Host-side the workloads are closed batches; `kv_lossy` requests arrive
//! open-loop in simulated time, scheduled by `tt-serve` itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tt_base::alloc_stats;

use crate::json::Json;
use crate::layers::{LayerTotals, Probe, Span, EVENT_KINDS, HANDLER_KINDS};
use crate::suite::{self, Fnv, Input, Outcome, RunSpec, Server, WORKLOADS};
use crate::{median, micro};

/// Command-line usage.
pub const USAGE: &str = "\
usage: perfbench [--workload paper32|mesh256|kv_lossy|all] [--seed N]
                 [--seconds N] [--trace 0|1]

Runs a correctness pass, then measures the workload for --seconds and
prints its metrics; the last line of standard output is one JSON object.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Defaults: --workload all --seed 1 --seconds 10 --trace 0.";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// A workload name or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time per workload.
    pub seconds: u64,
    /// Per-layer (traced) mode.
    pub trace: bool,
}

/// Parses the flags; `Err("")` asks for usage only (`--help`).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                a.workload = value.clone()
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            _ => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
        }
        i += 2;
    }
    Ok(a)
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// Runs `f`, turning a panic into `None` (the panic message still goes to
/// standard error through the default hook).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Failure accounting against the correctness pass.
struct Checker {
    /// Digest of each run in the correctness pass (`None` if it failed).
    expected: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, i: usize, spec: &RunSpec, got: Option<&Outcome>) {
        self.attempted += 1;
        let ok = matches!((self.expected[i], got), (Some(e), Some(o)) if e == o.digest());
        if !ok {
            self.failed += 1;
            eprintln!(
                "perfbench: {} on {}: result differs from the correctness pass",
                spec.label,
                spec.server.name()
            );
        }
    }
}

/// The untimed correctness pass: every run once with value verification
/// on (each simulated read checked against the sequentially consistent
/// value the application computed natively), every KV request required
/// to complete.
fn correctness_pass(specs: &[RunSpec]) -> (Checker, Vec<Option<Outcome>>) {
    let mut checker = Checker {
        expected: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut outcomes = Vec::new();
    for spec in specs {
        let mut verify = spec.clone();
        verify.cfg.verify_values = true;
        let out = guarded(|| suite::run(&verify, None));
        let want = suite::expected_requests(spec);
        checker.attempted += 1 + want;
        match &out {
            Some(o) => {
                let done = o.lat.as_ref().map_or(0, |l| l.requests());
                if done < want {
                    eprintln!(
                        "perfbench: {}: {} of {want} requests completed",
                        spec.label, done
                    );
                }
                checker.failed += want.saturating_sub(done);
            }
            None => checker.failed += 1 + want,
        }
        checker.expected.push(out.as_ref().map(Outcome::digest));
        outcomes.push(out);
    }
    (checker, outcomes)
}

/// Figure 3 bars whose Typhoon/Stache-to-DirNNB ratio falls outside the
/// paper's ±30 % band.
fn fig3_band_misses(specs: &[RunSpec], outcomes: &[Option<Outcome>]) -> Option<u64> {
    let mut bars: Vec<(Option<f64>, Option<f64>)> = Vec::new();
    for (spec, out) in specs.iter().zip(outcomes) {
        let (Some(bar), Some(out)) = (spec.bar, out) else {
            continue;
        };
        if bars.len() <= bar {
            bars.resize(bar + 1, (None, None));
        }
        let cycles = out.cycles.raw() as f64;
        match spec.server {
            Server::Stache => bars[bar].0 = Some(cycles),
            _ => bars[bar].1 = Some(cycles),
        }
    }
    if bars.is_empty() {
        return None;
    }
    let misses = bars
        .iter()
        .filter(|(t, d)| match (t, d) {
            (Some(t), Some(d)) => !(0.7..=1.3).contains(&(t / d)),
            _ => true,
        })
        .count();
    Some(misses as u64)
}

/// One batch: every run once.
struct Batch {
    outcomes: Vec<Option<Outcome>>,
    totals: Vec<LayerTotals>,
    digest: u64,
}

/// Every sample an invocation takes, per run of the workload.
///
/// Wall-clock figures are reported min-of-N per run, summed over the
/// workload's runs (the convention of `tt_bench::min_of_runs`): on a
/// shared host the slow samples come from other tenants in bursts of
/// seconds, and each run's fastest repeat is the steadiest estimate of
/// its own cost. The medians and every individual sample go to the
/// output file.
struct Samples {
    run_s: Vec<Vec<f64>>,
    setup_s: Vec<Vec<f64>>,
    peak_bytes: Vec<Vec<f64>>,
    allocs: Vec<f64>,
    digests: Vec<u64>,
    batches: Vec<Json>,
}

impl Samples {
    fn new(runs: usize) -> Self {
        Samples {
            run_s: vec![Vec::new(); runs],
            setup_s: vec![Vec::new(); runs],
            peak_bytes: vec![Vec::new(); runs],
            allocs: Vec::new(),
            digests: Vec::new(),
            batches: Vec::new(),
        }
    }

    fn add(&mut self, specs: &[RunSpec], batch: &Batch) {
        let mut runs = Vec::new();
        let mut allocs = 0.0;
        for (i, (spec, out)) in specs.iter().zip(&batch.outcomes).enumerate() {
            let mut fields = vec![
                ("point", Json::str(spec.label.clone())),
                ("server", Json::str(spec.server.name())),
                ("ok", Json::Bool(out.is_some())),
            ];
            if let Some(o) = out {
                self.run_s[i].push(o.run_s);
                self.setup_s[i].push(o.setup_s);
                self.peak_bytes[i].push(o.peak_bytes as f64);
                allocs += o.allocs as f64;
                fields.extend([
                    ("cycles", Json::Num(o.cycles.raw() as f64)),
                    ("setup_s", Json::Num(o.setup_s)),
                    ("run_s", Json::Num(o.run_s)),
                    ("peak_bytes", Json::Num(o.peak_bytes as f64)),
                    ("allocs", Json::Num(o.allocs as f64)),
                ]);
            }
            runs.push(Json::obj(fields));
        }
        self.allocs.push(allocs);
        self.digests.push(batch.digest);
        self.batches.push(Json::Arr(runs));
    }

    /// Sum over the runs `keep` selects of each run's fastest sample.
    fn fastest(specs: &[RunSpec], samples: &[Vec<f64>], keep: impl Fn(&RunSpec) -> bool) -> f64 {
        specs
            .iter()
            .zip(samples)
            .filter(|(s, _)| keep(s))
            .map(|(_, v)| v.iter().copied().fold(f64::INFINITY, f64::min))
            .filter(|v| v.is_finite())
            .sum()
    }

    /// Batch totals of `samples`: the n-th sample of every run, summed.
    fn totals(samples: &[Vec<f64>]) -> Vec<f64> {
        let n = samples.iter().map(Vec::len).min().unwrap_or(0);
        (0..n).map(|b| samples.iter().map(|v| v[b]).sum()).collect()
    }

    fn end_to_end(&self, specs: &[RunSpec]) -> Vec<Metric> {
        let peak = specs
            .iter()
            .zip(&self.peak_bytes)
            .map(|(s, v)| median(&mut v.clone()) / s.cfg.nodes as f64)
            .fold(0.0, f64::max);
        vec![
            metric("run_s", Self::fastest(specs, &self.run_s, |_| true), "s"),
            metric(
                "setup_s",
                Self::fastest(specs, &self.setup_s, |_| true),
                "s",
            ),
            metric(
                "typhoon_run_s",
                Self::fastest(specs, &self.run_s, |s| s.server.is_typhoon()),
                "s",
            ),
            metric(
                "dirnnb_run_s",
                Self::fastest(specs, &self.run_s, |s| !s.server.is_typhoon()),
                "s",
            ),
            metric("peak_bytes_per_node", peak, "bytes"),
        ]
    }
}

/// Timed batches per invocation, at least.
const MIN_BATCHES: usize = 3;

/// Set-up repetitions after each timed batch.
const SETUP_REPS: usize = 3;

/// Times building every run's workload and machine [`SETUP_REPS`] times.
/// Set-up is short next to the runs, so it is repeated apart from them
/// to get enough samples.
fn time_setups(specs: &[RunSpec], samples: &mut Samples) {
    for _ in 0..SETUP_REPS {
        for (i, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let prepared = guarded(|| suite::prepare(spec, None));
            let secs = t.elapsed().as_secs_f64();
            drop(prepared);
            samples.setup_s[i].push(secs);
        }
    }
}

/// Tracing state of a `--trace 1` invocation.
struct TraceLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl TraceLog {
    fn span(&mut self, layer: String, start: f64, end: f64, parent: Option<u64>) -> u64 {
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            layer,
            start,
            end,
            parent,
        });
        self.next_id
    }

    fn json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("layer", Json::str(s.layer.clone())),
                        ("start", Json::Num(s.start)),
                        ("end", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent
                                .map_or(Json::Num(f64::NAN), |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

fn run_batch(specs: &[RunSpec], checker: &mut Checker, mut trace: Option<&mut TraceLog>) -> Batch {
    let mut batch = Batch {
        outcomes: Vec::new(),
        totals: Vec::new(),
        digest: 0,
    };
    let mut digest = Fnv::default();
    let batch_start = trace.as_ref().map(|t| t.epoch.elapsed().as_secs_f64());
    let batch_id = trace
        .as_mut()
        .map(|t| t.span("batch".into(), 0.0, 0.0, None));
    for (i, spec) in specs.iter().enumerate() {
        let out = match trace.as_mut() {
            None => guarded(|| suite::run(spec, None)),
            Some(t) => {
                t.next_id += 1;
                let run_id = t.next_id;
                let probe = Probe::new(t.epoch, run_id);
                let start = t.epoch.elapsed().as_secs_f64();
                let out = guarded(|| suite::run(spec, Some(&probe)));
                let end = t.epoch.elapsed().as_secs_f64();
                let mut totals = guarded(|| probe.totals()).unwrap_or_default();
                let server = spec.server.name();
                if let Some(o) = &out {
                    t.span(
                        format!("setup.{server} {}", spec.label),
                        start,
                        start + o.setup_s,
                        batch_id,
                    );
                    t.spans.push(Span {
                        id: run_id,
                        layer: format!("run.{server} {}", spec.label),
                        start: end - o.run_s,
                        end,
                        parent: batch_id,
                    });
                }
                // Sampled call spans from the first traced batch only.
                if batch_id == Some(1) {
                    t.spans.append(&mut totals.spans);
                }
                totals.spans.clear();
                batch.totals.push(totals);
                out
            }
        };
        checker.check(i, spec, out.as_ref());
        digest.write(&out.as_ref().map_or(0, Outcome::digest).to_le_bytes());
        batch.outcomes.push(out);
    }
    if let (Some(t), Some(id), Some(start)) = (trace, batch_id, batch_start) {
        let end = t.epoch.elapsed().as_secs_f64();
        if let Some(s) = t.spans.iter_mut().find(|s| s.id == id) {
            s.start = start;
            s.end = end;
        }
    }
    batch.digest = digest.0;
    batch
}

/// Per-layer metrics of one traced batch.
fn layer_metrics(specs: &[RunSpec], batch: &Batch) -> Vec<Metric> {
    let runs: Vec<(&RunSpec, &Outcome, &LayerTotals)> = specs
        .iter()
        .zip(&batch.outcomes)
        .zip(&batch.totals)
        .filter_map(|((s, o), t)| o.as_ref().map(|o| (s, o, t)))
        .collect();
    let sum = |f: &dyn Fn(&RunSpec, &Outcome, &LayerTotals) -> f64| -> f64 {
        runs.iter().map(|(s, o, t)| f(s, o, t)).sum()
    };
    let counter = |name: &str| sum(&|_, o, _| o.counter(name));
    let is_kv = |s: &RunSpec| matches!(s.input, Input::Kv(_));
    let handler_s = |t: &LayerTotals| t.handler_s.iter().sum::<f64>();
    // Time spent in the protocol stack as the machine sees it: the outer
    // decorator's when a transport sits in between.
    let stack_s = |t: &LayerTotals| {
        if t.transport_s > 0.0 {
            t.transport_s
        } else {
            handler_s(t)
        }
    };

    let mut m = Vec::new();
    let apps_gen = sum(&|s, _, t| if is_kv(s) { 0.0 } else { t.gen_s });
    let apps_ops = sum(&|s, _, t| if is_kv(s) { 0.0 } else { t.gen_ops as f64 });
    m.push(metric("apps.gen_s", apps_gen, "s"));
    m.push(metric("apps.ops", apps_ops, "count"));
    m.push(metric(
        "apps.chunks",
        sum(&|s, _, t| if is_kv(s) { 0.0 } else { t.gen_chunks as f64 }),
        "count",
    ));
    m.push(metric(
        "apps.ns_per_op",
        if apps_ops > 0.0 {
            apps_gen * 1e9 / apps_ops
        } else {
            0.0
        },
        "ns",
    ));
    m.push(metric(
        "serve.gen_s",
        sum(&|s, _, t| if is_kv(s) { t.gen_s } else { 0.0 }),
        "s",
    ));
    m.push(metric("proto.handler_s", sum(&|_, _, t| handler_s(t)), "s"));
    m.push(metric(
        "proto.handlers",
        sum(&|_, _, t| t.handlers.iter().sum::<u64>() as f64),
        "count",
    ));
    for (k, kind) in HANDLER_KINDS.iter().enumerate() {
        m.push(metric(
            format!("proto.handler_s.{kind}"),
            sum(&|_, _, t| t.handler_s[k]),
            "s",
        ));
        m.push(metric(
            format!("proto.handlers.{kind}"),
            sum(&|_, _, t| t.handlers[k] as f64),
            "count",
        ));
    }
    for name in [
        "stache.invals_sent",
        "stache.replacements",
        "stache.sharer_overflows",
        "em3d.updates_sent",
        "kvu.updates_sent",
    ] {
        m.push(metric(name, counter(name), "count"));
    }
    let (sent, retx) = (counter("rel.sent"), counter("rel.retransmits"));
    m.push(metric("rel.sent", sent, "count"));
    m.push(metric("rel.retransmits", retx, "count"));
    m.push(metric("rel.acks_sent", counter("rel.acks_sent"), "count"));
    m.push(metric(
        "rel.useful_ratio",
        if sent > 0.0 {
            sent / (sent + retx)
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(metric(
        "rel.self_s",
        sum(&|_, _, t| {
            if t.transport_s > 0.0 {
                t.transport_s - handler_s(t)
            } else {
                0.0
            }
        }),
        "s",
    ));
    m.push(metric(
        "typhoon.self_s",
        sum(&|s, o, t| {
            if s.server.is_typhoon() {
                o.run_s - t.gen_s - stack_s(t)
            } else {
                0.0
            }
        }),
        "s",
    ));
    for name in [
        "cpu.ops",
        "cpu.block_faults",
        "cpu.remote_misses",
        "cpu.cache_misses",
        "cpu.tlb_misses",
        "np.handlers",
    ] {
        m.push(metric(name, counter(name), "count"));
    }
    m.push(metric(
        "np.busy_cycles",
        counter("np.busy_cycles"),
        "cycles",
    ));
    for (k, kind) in EVENT_KINDS.iter().enumerate() {
        m.push(metric(
            format!("typhoon.events.{kind}"),
            sum(&|_, _, t| t.events[k] as f64),
            "count",
        ));
    }
    m.push(metric(
        "dirnnb.self_s",
        sum(&|s, o, t| {
            if s.server.is_typhoon() {
                0.0
            } else {
                o.run_s - t.gen_s
            }
        }),
        "s",
    ));
    for name in [
        "dir.ops",
        "dir.invalidations",
        "dir.deferred",
        "net.packets",
    ] {
        m.push(metric(name, counter(name), "count"));
    }
    m.push(metric("net.bytes", counter("net.bytes"), "bytes"));
    for server in Server::ALL {
        m.push(metric(
            format!("sim.cycles.{}", server.name()),
            sum(&|s, o, _| {
                if s.server == server {
                    o.cycles.raw() as f64
                } else {
                    0.0
                }
            }),
            "cycles",
        ));
    }
    let mut lat = tt_serve::KvLatency::default();
    for (_, o, _) in &runs {
        if let Some(l) = &o.lat {
            lat.merge(l);
        }
    }
    m.push(metric(
        "kv.get_p99_cycles",
        lat.get.quantile(0.99) as f64,
        "cycles",
    ));
    m.push(metric(
        "kv.put_p99_cycles",
        lat.put.quantile(0.99) as f64,
        "cycles",
    ));
    m
}

/// Median of each metric across batches (metrics in the same order).
fn median_metrics(per_batch: &[Vec<Metric>]) -> Vec<Metric> {
    (0..per_batch[0].len())
        .map(|i| {
            let (name, _, unit) = &per_batch[0][i];
            let mut values: Vec<f64> = per_batch.iter().map(|b| b[i].1).collect();
            (name.clone(), median(&mut values), *unit)
        })
        .collect()
}

fn lookup(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
}

/// Everything one workload invocation measured.
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Metrics for the JSON line.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The full record written to the output file.
    pub record: Json,
}

fn samples_json(batches: &[Vec<Metric>]) -> Json {
    Json::Arr(
        batches
            .iter()
            .map(|b| Json::obj(b.iter().map(|(n, v, _)| (n.clone(), Json::Num(*v)))))
            .collect(),
    )
}

fn metrics_json(metrics: &[Metric], prefix: &str) -> Vec<(String, Json)> {
    metrics
        .iter()
        .map(|(n, v, u)| {
            (
                format!("{prefix}{n}"),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
            )
        })
        .collect()
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Median, 90th percentile and count of `values`, for the human report.
fn spread(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p90 = v
        .get((v.len() * 9) / 10)
        .or(v.last())
        .copied()
        .unwrap_or(0.0);
    format!("median {:.6}, p90 {p90:.6}, n={}", median(&mut v), v.len())
}

/// Runs one workload as `args` asks.
pub fn run_workload(name: &str, args: &Args) -> WorkloadResult {
    let specs =
        suite::workload_runs(name, args.seed).expect("workload names are checked at parsing");
    let nodes = specs[0].cfg.nodes;
    eprintln!(
        "perfbench: {name}: {} runs on {nodes} nodes, seed {}",
        specs.len(),
        args.seed
    );
    let (mut checker, verified) = correctness_pass(&specs);
    let mut verify_digest = Fnv::default();
    for o in &verified {
        verify_digest.write(&o.as_ref().map_or(0, Outcome::digest).to_le_bytes());
    }
    let band_misses = fig3_band_misses(&specs, &verified);
    drop(verified);

    // Timed batches; with --trace 1 each is followed by a traced one.
    let start = Instant::now();
    let mut untraced = Samples::new(specs.len());
    let mut traced = Samples::new(specs.len());
    let mut layers_per_batch: Vec<Vec<Metric>> = Vec::new();
    let mut trace_log = TraceLog {
        epoch: Instant::now(),
        spans: Vec::new(),
        next_id: 0,
    };
    while untraced.digests.len() < MIN_BATCHES
        || start.elapsed().as_secs_f64() < args.seconds as f64
    {
        let b = run_batch(&specs, &mut checker, None);
        untraced.add(&specs, &b);
        if args.trace {
            let b = run_batch(&specs, &mut checker, Some(&mut trace_log));
            traced.add(&specs, &b);
            layers_per_batch.push(layer_metrics(&specs, &b));
        } else {
            time_setups(&specs, &mut untraced);
        }
    }
    let end_to_end = untraced.end_to_end(&specs);
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    let all_digests = untraced.digests.iter().chain(&traced.digests);
    let identical = all_digests.clone().all(|&d| d == verify_digest.0);
    println!(
        "== {name} (seed {}, {} batches of {} runs)",
        args.seed,
        untraced.digests.len(),
        specs.len()
    );
    println!(
        "   correctness pass digest {:#018x}; {} timed batch digests {}",
        verify_digest.0,
        all_digests.count(),
        if identical {
            "all equal to it"
        } else {
            "DIFFER"
        }
    );
    for (n, v, u) in &end_to_end {
        println!("   {n:<20} {v:>14.6} {u}   (sum of per-run fastest)");
    }
    println!(
        "   {:<20} {}",
        "batch run_s",
        spread(&Samples::totals(&untraced.run_s))
    );
    println!(
        "   {:<20} {failed_frac:>14.6}   ({} of {} failed)",
        "ops_failed_frac", checker.failed, checker.attempted
    );
    if let Some(b) = band_misses {
        println!(
            "   {:<20} {b:>14}   of 25 bars outside the paper's ±30 % band",
            "fig3_band_misses"
        );
    }

    let mut record = vec![
        ("workload".to_string(), Json::str(name)),
        ("runs_per_batch".to_string(), Json::Num(specs.len() as f64)),
        (
            "verify_digest".to_string(),
            Json::str(format!("{:#018x}", verify_digest.0)),
        ),
        ("timed_digests_identical".to_string(), Json::Bool(identical)),
        ("ops_failed_frac".to_string(), Json::Num(failed_frac)),
        (
            "end_to_end".to_string(),
            Json::Obj(metrics_json(&end_to_end, "")),
        ),
        (
            "batch_run_s".to_string(),
            nums(&Samples::totals(&untraced.run_s)),
        ),
        (
            "setup_samples".to_string(),
            nums(&Samples::totals(&untraced.setup_s)),
        ),
        ("runs".to_string(), Json::Arr(untraced.batches)),
    ];
    if let Some(b) = band_misses {
        record.push(("fig3_band_misses".to_string(), Json::Num(b as f64)));
    }
    let metrics = if args.trace {
        let mut layers = median_metrics(&layers_per_batch);
        let traced_run = Samples::fastest(&specs, &traced.run_s, |_| true);
        let untraced_run = lookup(&end_to_end, "run_s");
        layers.push(metric("trace.run_s", traced_run, "s"));
        layers.push(metric("trace.overhead_s", traced_run - untraced_run, "s"));
        layers.push(metric(
            "trace.overhead_frac",
            (traced_run - untraced_run) / untraced_run,
            "ratio",
        ));
        let allocs = median(&mut untraced.allocs);
        let ops = lookup(&layers, "cpu.ops");
        layers.push(metric("allocs", allocs, "count"));
        layers.push(metric(
            "allocs_per_kop",
            if ops > 0.0 {
                allocs * 1000.0 / ops
            } else {
                0.0
            },
            "count",
        ));
        let micro: Vec<Metric> = micro::all()
            .into_iter()
            .map(|(n, v)| metric(n, v, "ns"))
            .collect();
        let send = if specs[0].cfg.topology == tt_base::Topology::Ideal {
            "net.send_ns.ideal"
        } else {
            "net.send_ns.mesh"
        };
        let send_est = lookup(&layers, "net.packets") * lookup(&micro, send) * 1e-9;
        layers.extend(micro);
        layers.push(metric("net.send_est_s", send_est, "s"));
        println!(
            "   per-layer (times: median of {} traced batches):",
            layers_per_batch.len()
        );
        for (n, v, u) in &layers {
            println!("   {n:<32} {v:>16.6} {u}");
        }
        record.push((
            "traced_batches".to_string(),
            samples_json(&layers_per_batch),
        ));
        record.push(("traced_runs".to_string(), Json::Arr(traced.batches)));
        record.push(("spans".to_string(), trace_log.json()));
        layers
    } else {
        end_to_end
            .iter()
            .filter(|m| crate::END_TO_END.contains(&m.0.as_str()))
            .cloned()
            .collect()
    };
    record.push(("metrics".to_string(), Json::Obj(metrics_json(&metrics, ""))));
    WorkloadResult {
        name: name.to_string(),
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        record: Json::Obj(record),
    }
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without leaving it.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Runs the benchmark and prints the result line.
pub fn main(args: &Args) -> Result<(), String> {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    if !alloc_stats::installed() {
        return Err(
            "the counting allocator is not installed; peak bytes cannot be measured".into(),
        );
    }
    let provenance = Json::obj([
        ("git_rev", Json::str(git_rev())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(rustc_version())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("sim_threads", Json::Num(1.0)),
    ]);
    println!("provenance: {}", provenance.render());
    let results: Vec<WorkloadResult> = names.iter().map(|n| run_workload(n, args)).collect();
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let prefixed = names.len() > 1;
    let mut metrics = Vec::new();
    for r in &results {
        metrics.extend(metrics_json(
            &r.metrics,
            &if prefixed {
                format!("{}.", r.name)
            } else {
                String::new()
            },
        ));
    }
    let out_dir = std::path::Path::new(crate::OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let record = Json::obj([
        ("provenance", provenance),
        (
            "workloads",
            Json::Arr(results.into_iter().map(|r| r.record).collect()),
        ),
    ]);
    std::fs::write(&file, record.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    eprintln!(
        "perfbench: samples, provenance and spans in {}",
        file.display()
    );
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_bad_input_is_rejected() {
        let a = args(&[
            "--workload",
            "mesh256",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "mesh256".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert_eq!(args(&["--help"]), Err(String::new()));
        assert!(args(&["--bogus"]).unwrap_err().contains("unknown argument"));
        assert!(args(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
    }
}
