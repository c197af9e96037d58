//! Machine-readable run reports (`--json PATH`, `tt-check --out PATH`):
//! one typed value, [`Json`], and one renderer. Hand-rolled because the
//! build has no crates.io access (no `serde`).
//!
//! [`Json::render`] fixes the layout: the top-level object and the
//! containers directly inside it put one entry per line, deeper values
//! stay on one line, so a sweep report has one point record per line.
//!
//! # Sweep report schema
//!
//! The header holds the sweep shape and provenance: `figure`, `git_rev`,
//! `host`, `nodes`, `scale`, `jobs`, `repeat`, `topology`,
//! `total_wall_secs`. Then `points` has one [`PointRecord`] per run:
//!
//! - `point`, `system` (strings): the sweep coordinate, e.g.
//!   `"barnes small/64K"`, and the system, e.g. `"Typhoon/Stache"`;
//! - `cycles` (integer): simulated execution time;
//! - `wall_secs`: host seconds the run took (min of `repeat` runs);
//! - `ops` (integer): workload ops the simulated CPUs executed;
//! - `sim_cycles_per_sec`, `ops_per_sec`: rates derived from the above;
//! - `cost` (figure3 only, [`Cost`]): `us_per_node_kilocycle`,
//!   `peak_bytes`, `bytes_per_node`, `allocs`; the heap counters are
//!   process-global, so they belong to one run only at `--jobs 1`;
//! - `kv` (kv_bench only, [`KvRecord`]): `mix`, `skew`, `keys`,
//!   `requests`, `requests_per_kcycle`, and `get`/`put` latencies in
//!   simulated cycles (`p50`, `p99`, `p999`, `mean`, `max`); a
//!   `--fault-rate` sweep adds `kv.fault` ([`FaultRecord`]):
//!   `rate_permille`, `retransmits`, `sent`.
//!
//! Wall times, the rates, `cost` and the provenance strings depend on
//! the host or on `--jobs`; every other value is bit-reproducible.

use std::fmt::Write as _;
use std::path::Path;

use tt_serve::KvLatency;

use crate::RunOutcome;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A number printed with a fixed count of decimals.
    Float(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Object(fields.collect())
    }

    /// The value as text: containers at depth 0 and 1 put one entry per
    /// line (indented two spaces per level), deeper ones stay on one
    /// line as `{"k": v, "k2": v2}`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Float(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Json::Str(s) => escape_into(out, s),
            Json::Array(items) => render_entries(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Object(fields) => {
                let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                render_entries(out, depth, "{}", entries)
            }
        }
    }

    /// Writes the rendered value plus a final newline to `path`,
    /// creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.render() + "\n")
    }
}

/// The entries of an array (no keys) or object, one per line at depth
/// 0 and 1 and inline deeper.
fn render_entries<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let multiline = depth < 2 && entries.len() > 0;
    let newline = |out: &mut String, level: usize| {
        if multiline {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * level));
        }
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push_str(if multiline { "," } else { ", " });
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        value.render_into(out, depth + 1);
    }
    newline(out, depth);
    out.push_str(&brackets[1..]);
}

/// Appends `s` as a JSON string literal with the required escapes.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

json_from! {
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Int(n),
    u32 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as u64),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// One simulation run inside a sweep (see the module doc for its JSON).
#[derive(Clone, Debug)]
pub struct PointRecord {
    /// Sweep coordinate, e.g. `"barnes small/64K"` or `"30% remote"`.
    pub point: String,
    /// System simulated, e.g. `"Typhoon/Stache"`.
    pub system: String,
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Host wall-clock seconds the simulation took.
    pub wall_secs: f64,
    /// Workload ops the simulated CPUs executed (`cpu.ops`).
    pub ops: u64,
    /// Host cost per simulated node (figure3).
    pub cost: Option<Cost>,
    /// Request latencies (kv_bench).
    pub kv: Option<KvRecord>,
}

/// The `cost` block: big-machine cost-per-node metrics of one run.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Simulated machine size.
    pub nodes: usize,
    /// Heap high-water mark over the run ([`RunOutcome::peak_bytes`]).
    pub peak_bytes: u64,
    /// Heap allocation events during the run.
    pub allocs: u64,
}

/// The `kv` block: one KV sweep point's request latencies.
#[derive(Clone, Debug)]
pub struct KvRecord {
    /// Read/write mix label, e.g. `"95/5"`.
    pub mix: String,
    /// Zipf skew.
    pub skew: f64,
    /// Key-space size.
    pub keys: u64,
    /// Requests served per thousand simulated cycles.
    pub requests_per_kcycle: f64,
    /// Get and put latency histograms.
    pub lat: KvLatency,
    /// Lossy-network counters, on `--fault-rate` sweeps only.
    pub fault: Option<FaultRecord>,
}

/// The `kv.fault` block of a lossy KV point.
#[derive(Clone, Copy, Debug)]
pub struct FaultRecord {
    /// Drop/duplicate rate in permille.
    pub rate_permille: u32,
    /// Reliable-transport retransmissions (`rel.retransmits`).
    pub retransmits: u64,
    /// Reliable-transport packets sent (`rel.sent`).
    pub sent: u64,
}

impl PointRecord {
    /// The record of `run`, with no `cost` or `kv` block.
    pub fn new(point: String, system: &str, run: &RunOutcome) -> PointRecord {
        PointRecord {
            point,
            system: system.into(),
            cycles: run.cycles.raw(),
            wall_secs: run.wall_secs,
            ops: run.ops,
            cost: None,
            kv: None,
        }
    }

    /// Simulated cycles advanced per host second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Workload ops simulated per host second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ops as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let float = Json::Float;
        let mut fields = vec![
            ("point", self.point.as_str().into()),
            ("system", self.system.as_str().into()),
            ("cycles", self.cycles.into()),
            ("wall_secs", float(self.wall_secs, 6)),
            ("ops", self.ops.into()),
            ("sim_cycles_per_sec", float(self.sim_cycles_per_sec(), 1)),
            ("ops_per_sec", float(self.ops_per_sec(), 1)),
        ];
        if let Some(c) = &self.cost {
            let us_per_node_kilocycle = if self.cycles > 0 {
                self.wall_secs * 1e6 / c.nodes as f64 / (self.cycles as f64 / 1000.0)
            } else {
                0.0
            };
            fields.push((
                "cost",
                Json::object([
                    ("us_per_node_kilocycle", float(us_per_node_kilocycle, 4)),
                    ("peak_bytes", c.peak_bytes.into()),
                    ("bytes_per_node", (c.peak_bytes / c.nodes as u64).into()),
                    ("allocs", c.allocs.into()),
                ]),
            ));
        }
        if let Some(kv) = &self.kv {
            let latency = |h: &tt_base::stats::LatHistogram| {
                Json::object([
                    ("p50", h.quantile(0.50).into()),
                    ("p99", h.quantile(0.99).into()),
                    ("p999", h.quantile(0.999).into()),
                    ("mean", float(h.mean(), 1)),
                    ("max", h.max().into()),
                ])
            };
            let mut block = vec![
                ("mix", kv.mix.as_str().into()),
                ("skew", float(kv.skew, 2)),
                ("keys", kv.keys.into()),
                ("requests", kv.lat.requests().into()),
                ("requests_per_kcycle", float(kv.requests_per_kcycle, 4)),
                ("get", latency(&kv.lat.get)),
                ("put", latency(&kv.lat.put)),
            ];
            if let Some(f) = &kv.fault {
                block.push((
                    "fault",
                    Json::object([
                        ("rate_permille", f.rate_permille.into()),
                        ("retransmits", f.retransmits.into()),
                        ("sent", f.sent.into()),
                    ]),
                ));
            }
            fields.push(("kv", Json::object(block)));
        }
        Json::object(fields)
    }
}

/// Best-effort short git revision of the working tree, so committed
/// `results/BENCH_*.json` snapshots are attributable to the code that
/// produced them. `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Best-effort host name (wall-clock rates are host-specific). Tries the
/// `HOSTNAME` environment variable, then the kernel's node name;
/// `"unknown"` if neither is available.
pub fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|s| s.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::stats::Report;
    use tt_base::Cycles;

    fn run(cycles: u64, wall_secs: f64, ops: u64) -> RunOutcome {
        RunOutcome {
            cycles: Cycles::new(cycles),
            report: Report::default(),
            lat: None,
            wall_secs,
            ops,
            peak_bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn rates_are_derived() {
        let p = PointRecord::new("x".into(), "s", &run(1000, 0.5, 200));
        assert_eq!(p.sim_cycles_per_sec(), 2000.0);
        assert_eq!(p.ops_per_sec(), 400.0);
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let p = PointRecord::new("x".into(), "s", &run(1000, 0.0, 200));
        assert_eq!(p.sim_cycles_per_sec(), 0.0);
        assert_eq!(p.ops_per_sec(), 0.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c").render(), "\"a\\\"b\\\\c\"");
        assert_eq!(Json::from("tab\there").render(), "\"tab\\u0009here\"");
    }

    #[test]
    fn depth_0_and_1_go_one_entry_per_line_deeper_stays_inline() {
        let v = Json::object([
            ("a", 1u64.into()),
            (
                "b",
                Json::Array(vec![Json::object([("x", Json::Float(0.5, 2))]), Json::Null]),
            ),
            (
                "c",
                Json::object([(
                    "d",
                    Json::object([("e", true.into()), ("f", None::<u64>.into())]),
                )]),
            ),
            ("g", Json::Array(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"a\": 1,\n  \"b\": [\n    {\"x\": 0.50},\n    null\n  ],\n  \
             \"c\": {\n    \"d\": {\"e\": true, \"f\": null}\n  },\n  \"g\": []\n}"
        );
    }

    /// `p` as a sweep report lays it out: one line inside `points`.
    fn report_line(p: &PointRecord) -> String {
        let report = Json::object([("points", Json::Array(vec![p.to_json()]))]);
        report
            .render()
            .lines()
            .nth(2)
            .unwrap()
            .trim_start()
            .to_string()
    }

    #[test]
    fn point_records_render_their_blocks_inline() {
        let mut p = PointRecord::new("em3d small/4K".into(), "DirNNB", &run(42, 0.001, 7));
        assert_eq!(
            report_line(&p),
            "{\"point\": \"em3d small/4K\", \"system\": \"DirNNB\", \"cycles\": 42, \
             \"wall_secs\": 0.001000, \"ops\": 7, \"sim_cycles_per_sec\": 42000.0, \
             \"ops_per_sec\": 7000.0}"
        );
        p.cost = Some(Cost {
            nodes: 8,
            peak_bytes: 800,
            allocs: 3,
        });
        p.kv = Some(KvRecord {
            mix: "95/5".into(),
            skew: 0.9,
            keys: 512,
            requests_per_kcycle: 2.0,
            lat: KvLatency::default(),
            fault: Some(FaultRecord {
                rate_permille: 10,
                retransmits: 4,
                sent: 9,
            }),
        });
        let text = report_line(&p);
        assert!(text.contains(
            ", \"cost\": {\"us_per_node_kilocycle\": 2976.1905, \"peak_bytes\": 800, \
             \"bytes_per_node\": 100, \"allocs\": 3}, \"kv\": {\"mix\": \"95/5\""
        ));
        assert!(
            text.ends_with("\"fault\": {\"rate_permille\": 10, \"retransmits\": 4, \"sent\": 9}}}")
        );
    }

    #[test]
    fn write_creates_directories_and_ends_with_a_newline() {
        let dir = std::env::temp_dir().join("tt_bench_json_test");
        let path = dir.join("sub").join("report.json");
        Json::object([("k", "v".into())]).write(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"k\": \"v\"\n}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_helpers_never_return_empty() {
        assert!(!git_rev().is_empty());
        assert!(!hostname().is_empty());
    }
}
