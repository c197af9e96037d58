//! `tt-check` — drive the coherence model checker from the command
//! line.
//!
//! ```text
//! tt-check run [--seeds N] [--base B] [--topology T] [--faults] [--fault-seed F]
//!              [--planted-bug] [--out PATH]
//! tt-check replay --seed S [--topology T] [--faults] [--fault-seed F]
//! tt-check kv [--seeds N] [--base B] [--seed S] [--topology T] [--faults] [--fault-seed F]
//! ```
//!
//! Every command is a thin call into `tt_check`'s one engine: `run` and
//! `replay` drive [`Family::Litmus`], `kv` drives [`Family::Kv`].
//!
//! `run` fuzzes `N` consecutive seeds (litmus workloads × schedule
//! perturbations, differential across both machines), shrinks the first
//! failure and exits non-zero on it, printing the seed so
//! `tt-check replay --seed S` reproduces it bit-exactly.
//! `--topology ideal|mesh[:W]|fat-tree[:A]` forces the interconnect of
//! the Typhoon legs instead of each seed's draw; the DirNNB reference
//! leg always runs the ideal pipe, so mesh cases are checked against a
//! pristine constant-latency baseline.
//! `--faults` gives every case a seed-derived lossy-network schedule
//! (drops, duplicates, detected corruption, transient partitions) with
//! the protocol running behind the reliable transport; the final image
//! must still match the fault-free DirNNB reference, and
//! `--fault-seed F` replays one specific schedule bit-exactly.
//! `--planted-bug` swaps in the deliberately broken
//! `SkipInvalidate` Stache variant — or, with `--faults`, a transport
//! that retransmits without duplicate suppression: that run *must*
//! fail, proving the harness has teeth. `--out` writes a JSON report
//! alongside the other bench reports.
//!
//! `kv` fuzzes the KV-serving litmus family instead: seed-generated
//! put/get races over `tt-serve` key slots, run through a three-machine
//! differential (Stache-served Typhoon, write-update-served Typhoon,
//! DirNNB) whose final images must agree word-for-word with each other
//! and the generator's prediction. `--seed S` replays one seed.
//!
//! Bad input prints `error: …` and the usage text and exits 2.

use std::time::Instant;

use tt_bench::cli::{self, CliError};
use tt_bench::json::{git_rev, hostname, Json};
use tt_check::{fuzz, run_seed, shrink, Failure, Family, FuzzOptions, Shape};

const USAGE: &str = "tt-check run [--seeds N] [--base B] \
     [--topology ideal|mesh[:W]|fat-tree[:A]] \
     [--faults] [--fault-seed F] \
     [--planted-bug] [--out PATH]\n\
     \x20      tt-check replay --seed S [--topology T] [--faults] [--fault-seed F]\n\
     \x20      tt-check kv [--seeds N] [--base B] [--seed S] \
     [--topology T] [--faults] [--fault-seed F]\n\
     \n\
     --faults draws a seed-derived lossy-network schedule per case \
     (drops, duplicates,\n\
     detected corruption, transient partitions) and runs the protocol \
     behind the\n\
     reliable transport; --fault-seed F forces one fault schedule \
     (implies --faults).\n\
     With --faults, --planted-bug plants the transport bug \
     (retransmission without\n\
     duplicate suppression) instead of the Stache one.";

/// The flags each command accepts.
const RUN_FLAGS: &[&str] =
    &["--seeds", "--base", "--topology", "--faults", "--fault-seed", "--planted-bug", "--out"];
const REPLAY_FLAGS: &[&str] = &["--seed", "--topology", "--faults", "--fault-seed"];
const KV_FLAGS: &[&str] = &["--seeds", "--base", "--seed", "--topology", "--faults", "--fault-seed"];

/// One command's parsed flags.
struct Args {
    seeds: u64,
    base: u64,
    seed: Option<u64>,
    options: FuzzOptions,
    out: Option<String>,
}

/// Parses a command's flags; a flag outside `accepted` is an unknown
/// argument.
fn parse(args: &[String], accepted: &[&str], seeds: u64) -> Result<Args, CliError> {
    let mut a = Args { seeds, base: 0, seed: None, options: FuzzOptions::default(), out: None };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(CliError::Help);
        }
        if !accepted.contains(&flag) {
            return Err(cli::unknown(flag));
        }
        match flag {
            "--faults" => a.options.faults = true,
            "--planted-bug" => a.options.planted_bug = true,
            "--seeds" => a.seeds = cli::number(args, i, flag)?,
            "--base" => a.base = cli::number(args, i, flag)?,
            "--seed" => a.seed = Some(cli::number(args, i, flag)?),
            "--fault-seed" => a.options.fault_seed = Some(cli::number(args, i, flag)?),
            "--topology" => a.options.topology = Some(cli::topology(args, i)?),
            _ => a.out = Some(cli::value(args, i, flag)?.to_string()),
        }
        i += if matches!(flag, "--faults" | "--planted-bug") { 1 } else { 2 };
    }
    Ok(a)
}

/// How a family names itself on stdout: its seed prefix, the machines a
/// clean sweep ran on, and the command that replays one of its seeds.
fn words(family: Family) -> (&'static str, &'static str, &'static str) {
    match family {
        Family::Litmus => ("", "both machines", "replay"),
        Family::Kv => ("kv ", "all three machines", "kv"),
    }
}

fn write_report(path: &str, a: &Args, seeds_run: u64, wall: f64, failure: Option<&Failure>) {
    let o = &a.options;
    let fault = |fault: Option<tt_base::FaultSpec>| {
        Json::from(fault.map(|fs| {
            Json::object([
                ("seed", fs.seed.into()),
                ("drop_permille", fs.drop_permille.into()),
                ("dup_permille", fs.dup_permille.into()),
                ("corrupt_permille", fs.corrupt_permille.into()),
                ("partition_permille", fs.partition_permille.into()),
            ])
        }))
    };
    let shape = |s: &Shape| s.fields().into_iter().map(|(k, v)| (k, Json::from(v)));
    let failure = failure.map(|f| {
        let mut fields = vec![("seed", f.seed.into()), ("stage", f.stage.into())];
        fields.extend(shape(&f.shape));
        fields.extend([
            ("fault", fault(f.perturb.fault)),
            ("message", f.message.as_str().into()),
            ("shrunk", f.shrunk.as_ref().map(|s| Json::object(shape(s))).into()),
            ("shrunk_fault", f.shrunk_perturb.as_ref().map(|p| fault(p.fault)).into()),
        ]);
        Json::object(fields)
    });
    let report = Json::object([
        ("tool", "tt-check".into()),
        ("git_rev", git_rev().into()),
        ("hostname", hostname().into()),
        ("base_seed", a.base.into()),
        ("seeds_requested", a.seeds.into()),
        ("seeds_run", seeds_run.into()),
        ("planted_bug", o.planted_bug.into()),
        ("faults", (o.faults || o.fault_seed.is_some()).into()),
        ("fault_seed", o.fault_seed.into()),
        ("wall_secs", Json::Float(wall, 3)),
        ("clean", failure.is_none().into()),
        ("failure", failure.into()),
    ]);
    report.write(std::path::Path::new(path)).expect("write report");
    eprintln!("tt-check: report written to {path}");
}

/// Fuzzes `a.seeds` seeds of `family`, shrinking the first failure.
fn cmd_fuzz(family: Family, a: &Args) -> i32 {
    let (tag, machines, replay) = words(family);
    let start = Instant::now();
    let report = fuzz(family, a.base, a.seeds, &a.options);
    let failure = report.failure.map(|f| {
        eprintln!("tt-check: shrinking failing seed {}...", f.seed);
        shrink(&f, &a.options)
    });
    let wall = start.elapsed().as_secs_f64();
    if let Some(path) = &a.out {
        write_report(path, a, report.seeds_run, wall, failure.as_ref());
    }
    let n = report.seeds_run;
    match (a.options.planted_bug, failure) {
        (false, None) => {
            println!(
                "tt-check: {n} {tag}seeds clean on {machines} in {wall:.1}s (base {})",
                a.base
            );
            0
        }
        (false, Some(f)) => {
            println!("tt-check: {tag}FAILURE after {n} seeds in {wall:.1}s");
            println!("  {f}");
            println!("  reproduce with: tt-check {replay} --seed {}", f.seed);
            1
        }
        (true, Some(f)) => {
            println!("tt-check: planted bug caught after {n} seeds in {wall:.1}s (expected)");
            println!("  {f}");
            0
        }
        (true, None) => {
            println!("tt-check: planted bug survived {n} seeds — the harness is blind!");
            1
        }
    }
}

/// Reruns one seed of `family` bit-exactly.
fn cmd_replay(family: Family, seed: u64, options: &FuzzOptions) -> i32 {
    let (tag, _, _) = words(family);
    match run_seed(family, seed, options) {
        Ok(r) => {
            println!("tt-check: {tag}seed {seed} clean — {r}");
            0
        }
        Err(f) => {
            println!("tt-check: {tag}seed {seed} FAILS");
            println!("  {f}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let (family, accepted, seeds) = cli::or_exit(
        match command {
            Some("run") => Ok((Family::Litmus, RUN_FLAGS, 500)),
            Some("replay") => Ok((Family::Litmus, REPLAY_FLAGS, 0)),
            Some("kv") => Ok((Family::Kv, KV_FLAGS, 200)),
            Some("--help" | "-h") => Err(CliError::Help),
            Some(other) => Err(CliError::Bad(format!("unknown command {other}"))),
            None => Err(CliError::Bad("missing command".into())),
        },
        USAGE,
    );
    let a = cli::or_exit(parse(&args[1..], accepted, seeds), USAGE);
    if command == Some("replay") && a.seed.is_none() {
        cli::or_exit::<()>(Err(CliError::Bad("replay requires --seed S".into())), USAGE);
    }
    let code = match a.seed {
        Some(seed) => cmd_replay(family, seed, &a.options),
        None => cmd_fuzz(family, &a),
    };
    std::process::exit(code);
}
