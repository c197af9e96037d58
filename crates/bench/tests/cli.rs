//! Bad command lines get a usage message and exit status 2, never a
//! panic: every harness binary is run as a subprocess on `--help`, an
//! unknown flag, a flag missing its value and a malformed value.

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

/// Asserts a usage exit: status 2, nothing on stdout, usage (and
/// `error`, if given) on stderr, no panic.
fn assert_usage_exit(name: &str, out: &Output, error: Option<&str>) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name}: usage errors print no table");
    assert!(!stderr.contains("panicked"), "{name} panicked: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name} ")),
        "{name}: {stderr}"
    );
    assert!(
        stderr.contains("--nodes N"),
        "{name}: shared flags listed: {stderr}"
    );
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
        let cases: [(&[&str], &str); 5] = [
            (&["--bogus"], "unknown argument --bogus"),
            (&["--jobs"], "--jobs requires a value"),
            (&["--jobs", "abc"], "--jobs N"),
            (&["--topology", "ring"], "--topology"),
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
