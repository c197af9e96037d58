//! Command-line parsing shared by every harness binary.
//!
//! `figure3`, `figure4`, `ablations`, and `kv_bench` all take the same
//! simulator knobs (`--jobs`, `--repeat`, `--topology`, `--json`, ...);
//! this module parses them once into a [`Cli`] and owns the equally
//! repetitive tail, [`Cli::finish`]: the sweep summary line and the
//! `--json` report. Binaries with extra flags hook them in through
//! [`parse_cli_with`] instead of forking the parser.

use std::time::Instant;

use tt_base::{SystemConfig, Topology};

use crate::json::{git_rev, hostname, Json, PointRecord};
use crate::{bench_config, par};

/// Command-line options shared by the figure/ablation binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Data-set divisor (1 = the paper's sizes).
    pub scale: usize,
    /// Simulated machine size.
    pub nodes: usize,
    /// Worker threads for the point sweep (default: available
    /// parallelism). Any value produces identical tables.
    pub jobs: usize,
    /// Runs per point; wall timings are min-of-N (default 1). Cycle
    /// counts are asserted identical across repeats.
    pub repeat: usize,
    /// Interconnect model (`ideal` keeps the paper's constant-latency
    /// pipe and its byte-identical tables; `mesh[:width]` /
    /// `fat-tree[:arity]` add per-link occupancy).
    pub topology: Topology,
    /// Where to write the machine-readable run report, if anywhere.
    pub json: Option<std::path::PathBuf>,
    /// When the command line was parsed: the sweep's wall-clock start.
    pub started: Instant,
}

impl Cli {
    /// The [`bench_config`] for this invocation, with the `--topology`
    /// setting applied.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = bench_config(self.nodes);
        cfg.topology = self.topology;
        cfg
    }

    /// The `--json` report of a sweep (schema in [`crate::json`]):
    /// the invocation's shape and provenance, then one record per run.
    pub fn report(&self, figure: &str, total_wall_secs: f64, records: &[PointRecord]) -> Json {
        Json::object([
            ("figure", figure.into()),
            ("git_rev", git_rev().into()),
            ("host", hostname().into()),
            ("nodes", self.nodes.into()),
            ("scale", self.scale.into()),
            ("jobs", self.jobs.into()),
            ("repeat", self.repeat.into()),
            ("topology", self.topology.as_string().into()),
            ("total_wall_secs", Json::Float(total_wall_secs, 6)),
            (
                "points",
                Json::Array(records.iter().map(PointRecord::to_json).collect()),
            ),
        ])
    }

    /// The shared tail of every sweep binary: prints the `sweep: N runs`
    /// summary to stderr, then writes the `--json` report if one was
    /// requested.
    pub fn finish(&self, figure: &str, records: &[PointRecord]) {
        let total_wall_secs = self.started.elapsed().as_secs_f64();
        eprintln!(
            "  sweep: {n} runs in {total_wall_secs:.2}s wall ({jobs} jobs)",
            n = records.len(),
            jobs = self.jobs,
        );
        if let Some(path) = &self.json {
            let report = self.report(figure, total_wall_secs, records);
            report.write(path).expect("write --json report");
            eprintln!("  wrote {}", path.display());
        }
    }
}

/// Usage text for the flags every harness binary shares.
pub const SHARED_FLAGS: &str = "[--scale N] [--nodes N] [--jobs N] [--repeat N] \
     [--topology ideal|mesh[:W]|fat-tree[:A]] [--json PATH] [--full]";

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: the caller asked for the usage text.
    Help,
    /// A bad flag or value, with a message naming it.
    Bad(String),
}

/// A binary's parser for its own flags (see [`parse_cli_with`]).
pub type FlagHook<'a> = dyn FnMut(&str, &[String], &mut usize) -> Result<(), CliError> + 'a;

/// The error for a flag no parser recognizes.
pub fn unknown(flag: &str) -> CliError {
    CliError::Bad(format!("unknown argument {flag}"))
}

/// Unwraps a parsed command line. On `--help` or a bad argument, prints
/// the error (if any) and `usage` to stderr and exits with status 2.
pub fn or_exit<T>(parsed: Result<T, CliError>, usage: &str) -> T {
    parsed.unwrap_or_else(|e| {
        if let CliError::Bad(msg) = e {
            eprintln!("error: {msg}");
        }
        eprintln!("usage: {usage}");
        std::process::exit(2)
    })
}

/// Parses `--scale N`, `--nodes N`, `--full`, `--jobs N`, `--repeat N`,
/// `--topology ideal|mesh[:W]|fat-tree[:A]`, and `--json PATH` arguments
/// shared by the harness binaries ([`SHARED_FLAGS`]).
pub fn parse_cli(args: &[String], default_scale: usize) -> Result<Cli, CliError> {
    parse_cli_with(args, default_scale, &mut |flag, _, _| Err(unknown(flag)))
}

/// [`parse_cli`] with a hook for binary-specific flags: `extra` is
/// called with `(flag, args, &mut i)` for any argument the shared
/// parser does not recognize and must consume it (advancing `i` past
/// the flag and its value) or return an error, typically [`unknown`].
pub fn parse_cli_with(
    args: &[String],
    default_scale: usize,
    extra: &mut FlagHook<'_>,
) -> Result<Cli, CliError> {
    let mut cli = Cli {
        scale: default_scale,
        nodes: 32,
        jobs: par::default_jobs(),
        repeat: 1,
        topology: Topology::Ideal,
        json: None,
        started: Instant::now(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Err(CliError::Help),
            "--scale" => {
                cli.scale = number(args, i, "--scale")?;
                i += 2;
            }
            "--nodes" => {
                cli.nodes = number(args, i, "--nodes")?;
                i += 2;
            }
            "--jobs" => {
                cli.jobs = number(args, i, "--jobs")?;
                i += 2;
            }
            "--repeat" => {
                cli.repeat = number::<usize>(args, i, "--repeat")?.max(1);
                i += 2;
            }
            "--topology" => {
                cli.topology = topology(args, i)?;
                i += 2;
            }
            "--json" => {
                cli.json = Some(std::path::PathBuf::from(value(args, i, "--json")?));
                i += 2;
            }
            "--full" => {
                cli.scale = 1;
                i += 1;
            }
            other => {
                let before = i;
                extra(other, args, &mut i)?;
                assert!(i > before, "extra-flag hook must consume {other}");
            }
        }
    }
    Ok(cli)
}

/// The value following flag position `i`.
pub fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, CliError> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| CliError::Bad(format!("{flag} requires a value")))
}

/// The `--topology ideal|mesh[:W]|fat-tree[:A]` value following flag
/// position `i`.
pub fn topology(args: &[String], i: usize) -> Result<Topology, CliError> {
    value(args, i, "--topology")?
        .parse()
        .map_err(|e| CliError::Bad(format!("--topology: {e}")))
}

/// The numeric value following flag position `i`.
pub fn number<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    value(args, i, flag)?
        .parse()
        .map_err(|e| CliError::Bad(format!("{flag} N: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extra_flags_are_routed_to_the_hook() {
        let args = strs(&["--nodes", "8", "--keys", "512", "--jobs", "2"]);
        let mut keys = 0usize;
        let cli = parse_cli_with(&args, 1, &mut |flag, args, i| match flag {
            "--keys" => {
                keys = number(args, *i, "--keys")?;
                *i += 2;
                Ok(())
            }
            other => Err(unknown(other)),
        })
        .unwrap();
        assert_eq!(cli.nodes, 8);
        assert_eq!(cli.jobs, 2);
        assert_eq!(keys, 512);
    }

    #[test]
    fn report_header_mirrors_the_cli() {
        let args = strs(&["--repeat", "3", "--jobs", "2", "--topology", "mesh"]);
        let text = parse_cli(&args, 7)
            .unwrap()
            .report("figX", 0.123, &[])
            .render();
        for field in [
            "\"figure\": \"figX\"",
            "\"scale\": 7",
            "\"jobs\": 2",
            "\"repeat\": 3",
            "\"topology\": \"mesh\"",
            "\"total_wall_secs\": 0.123000",
            "\"git_rev\": ",
            "\"host\": ",
            "\"points\": []",
        ] {
            assert!(text.contains(field), "{field} missing from {text}");
        }
    }

    #[test]
    fn topology_flag_parses_and_reaches_the_config() {
        let args = strs(&["--topology", "mesh:4"]);
        let cli = parse_cli(&args, 1).unwrap();
        assert_eq!(cli.topology, Topology::Mesh2D { width: 4 });
        assert_eq!(cli.config().topology, Topology::Mesh2D { width: 4 });
        assert_eq!(parse_cli(&[], 1).unwrap().topology, Topology::Ideal);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        let err = |v: &[&str]| parse_cli(&strs(v), 1).unwrap_err();
        assert_eq!(err(&["--help"]), CliError::Help);
        assert_eq!(err(&["--nodes", "8", "-h"]), CliError::Help);
        assert_eq!(
            err(&["--bogus"]),
            CliError::Bad("unknown argument --bogus".into())
        );
        assert_eq!(
            err(&["--jobs"]),
            CliError::Bad("--jobs requires a value".into())
        );
        assert!(matches!(err(&["--jobs", "abc"]), CliError::Bad(m) if m.starts_with("--jobs N")));
        assert!(
            matches!(err(&["--topology", "ring"]), CliError::Bad(m) if m.starts_with("--topology"))
        );
    }
}
