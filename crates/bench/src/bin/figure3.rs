//! Regenerates **Figure 3**: execution time of Typhoon/Stache relative
//! to DirNNB for the five benchmarks, across the paper's data-set /
//! cache-size points (small/4K, small/16K, small/64K, small/256K,
//! large/256K). Shorter (smaller) values mean better Typhoon/Stache
//! performance; the paper reports every bar within 1.3 and several below
//! 1.0 when the working set exceeds the hardware cache.
//!
//! Usage: `figure3 [--scale N] [--nodes N] [--jobs N] [--repeat N]
//! [--topology ideal|mesh[:W]|fat-tree[:A]] [--apps a,b,...]
//! [--json PATH] [--full]` (default scale 4; `--full` runs the paper's
//! exact sizes). The table is byte-identical for any `--jobs` or
//! `--repeat` value; `--repeat N` reruns each point N times and reports
//! min-of-N wall timings for stable `sim_cycles_per_sec`. Big-machine
//! sweeps (`--nodes 64|256|1024 --topology mesh`) use `--apps` to bound
//! the grid and read cost-per-node metrics from the `--json` report.

use tt_base::table::Table;
use tt_bench::cli::{self, CliError};
use tt_bench::FIGURE3_POINTS;
use tt_apps::AppId;

/// Parses a comma-separated `--apps` list against the app names.
fn parse_apps(list: &str) -> Result<Vec<AppId>, CliError> {
    list.split(',')
        .map(|name| {
            AppId::ALL
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(name.trim()))
                .ok_or_else(|| CliError::Bad(format!("--apps: unknown application {name}")))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut apps: Vec<AppId> = AppId::ALL.to_vec();
    let parsed = cli::parse_cli_with(&args, 4, &mut |flag, args, i| match flag {
        "--apps" => {
            apps = parse_apps(cli::value(args, *i, "--apps")?)?;
            *i += 2;
            Ok(())
        }
        other => Err(cli::unknown(other)),
    });
    let usage = format!("figure3 {} [--apps a,b,...]", cli::SHARED_FLAGS);
    let cli = cli::or_exit(parsed, &usage);
    let cfg = cli.config();
    println!(
        "FIGURE 3. Typhoon/Stache execution time relative to DirNNB \
         ({nodes} nodes, scale 1/{scale}).\n",
        nodes = cli.nodes,
        scale = cli.scale,
    );
    let points = tt_bench::figure3_sweep(&apps, cli.scale, &cfg, cli.jobs, cli.repeat);

    let mut table = Table::new(vec![
        "benchmark",
        "small/4K",
        "small/16K",
        "small/64K",
        "small/256K",
        "large/256K",
    ]);
    let mut records = Vec::new();
    for (a, app) in apps.iter().copied().enumerate() {
        let mut row = vec![app.name().to_string()];
        for (i, (set, cache)) in FIGURE3_POINTS.into_iter().enumerate() {
            let point = &points[a * FIGURE3_POINTS.len() + i];
            row.push(format!("{:.3}", point.relative()));
            eprintln!(
                "  {} {}/{}K: typhoon {} dirnnb {} -> {:.3}",
                app,
                set,
                cache / 1024,
                point.typhoon,
                point.dirnnb,
                point.relative()
            );
            records.extend(point.records.iter().cloned());
        }
        table.row(row);
    }
    println!("{table}");
    println!(
        "(paper: all bars <= ~1.3; Typhoon/Stache wins by up to ~25% when the\n\
         data set exceeds the CPU cache — small/4K and large/256K columns)"
    );
    cli.finish("figure3", &records);
}
