//! Per-point profile of the Figure 3 sweep: prints each point's relative
//! execution time and the wall-clock cost of measuring it. Useful for
//! choosing a `--scale` before a full run.
use tt_bench::{bench_config, figure3_point, FIGURE3_POINTS};
use tt_apps::AppId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!("profile_apps {}", tt_bench::cli::SHARED_FLAGS);
    let (scale, nodes) = tt_bench::cli::or_exit(tt_bench::parse_args(&args, 16), &usage);
    let cfg = bench_config(nodes);
    for app in AppId::ALL {
        for (set, cache) in FIGURE3_POINTS {
            let t0 = std::time::Instant::now();
            let p = figure3_point(app, set, cache, scale, &cfg);
            println!(
                "{app} {set}/{cache} rel={:.3} wall={:.1}s",
                p.relative(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
