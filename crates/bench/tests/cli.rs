//! Bad command lines get a usage message and exit status 2, never a
//! panic: every harness binary (and `tt-check`) is run as a subprocess
//! on `--help`, an unknown flag, a flag missing its value and a
//! malformed value.

use std::process::{Command, Output};

const BINARIES: [(&str, &str); 4] = [
    ("figure3", env!("CARGO_BIN_EXE_figure3")),
    ("figure4", env!("CARGO_BIN_EXE_figure4")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("kv_bench", env!("CARGO_BIN_EXE_kv_bench")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

/// Asserts a usage exit: status 2, nothing on stdout, usage listing the
/// shared sweep flags (and `error`, if given) on stderr, no panic.
fn assert_usage_exit(name: &str, out: &Output, error: Option<&str>) {
    assert_usage_listing(name, out, error, "--nodes N");
}

/// [`assert_usage_exit`] for a binary whose usage lists `flag` instead
/// of the shared sweep flags.
fn assert_usage_listing(name: &str, out: &Output, error: Option<&str>, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name}: usage errors print no table");
    assert!(!stderr.contains("panicked"), "{name} panicked: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} ")),
        "{name}: {stderr}"
    );
    assert!(stderr.contains(flag), "{name}: {flag} listed: {stderr}");
    match error {
        Some(e) => assert!(stderr.contains(&format!("error: {e}")), "{name}: {stderr}"),
        None => assert!(!stderr.contains("error:"), "{name}: {stderr}"),
    }
}

#[test]
fn help_prints_usage_and_exits_2() {
    for (name, exe) in BINARIES {
        assert_usage_exit(name, &run(exe, &["--help"]), None);
        assert_usage_exit(name, &run(exe, &["--nodes", "4", "-h"]), None);
    }
}

#[test]
fn unknown_flags_and_bad_values_print_usage_and_exit_2() {
    for (name, exe) in BINARIES {
        let cases: [(&[&str], &str); 6] = [
            (&["--bogus"], "unknown argument --bogus"),
            (&["--jobs"], "--jobs requires a value"),
            (&["--jobs", "abc"], "--jobs N"),
            (&["--topology", "ring"], "--topology"),
            // Parses as a number but names no tree: rejected up front,
            // not by a panic in a sweep worker.
            (&["--topology", "fat-tree:1"], "--topology: fat-tree arity"),
            // A removed flag is rejected like any other unknown one.
            (&["--sim-threads", "2"], "unknown argument --sim-threads"),
        ];
        for (args, error) in cases {
            assert_usage_exit(name, &run(exe, args), Some(error));
        }
    }
}

#[test]
fn binary_specific_flags_are_checked_too() {
    let [(_, figure3), .., (_, kv_bench)] = BINARIES;
    assert_usage_exit(
        "figure3",
        &run(figure3, &["--apps", "em3d,nope"]),
        Some("--apps: unknown application nope"),
    );
    assert_usage_exit(
        "kv_bench",
        &run(kv_bench, &["--fault-rate", "x"]),
        Some("--fault-rate N"),
    );
    assert_usage_exit(
        "kv_bench",
        &run(kv_bench, &["--keys"]),
        Some("--keys requires a value"),
    );
}

#[test]
fn tt_check_bad_input_prints_error_and_usage_and_exits_2() {
    let exe = env!("CARGO_BIN_EXE_tt-check");
    let usage = |args: &[&str], error| {
        assert_usage_listing("tt-check", &run(exe, args), error, "--seeds N");
    };
    usage(&["--help"], None);
    usage(&["run", "--seeds", "5", "-h"], None);
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "unknown command --bogus"),
        (&["frobnicate"], "unknown command frobnicate"),
        (&["run", "--seeds"], "--seeds requires a value"),
        (&["run", "--seeds", "abc"], "--seeds N"),
        (&["run", "--topology", "fat-tree:1"], "--topology: fat-tree arity"),
        (&["replay"], "replay requires --seed S"),
        // Each command takes only its own flags.
        (&["replay", "--seeds", "3"], "unknown argument --seeds"),
    ];
    for (args, error) in cases {
        usage(args, Some(error));
    }
}
