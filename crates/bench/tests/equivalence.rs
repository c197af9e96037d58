//! Direct execution is purely a simulator-speed optimization: with the
//! inline hit-run executor forced off, every machine must produce the
//! exact same cycle tables. These tests pin that equivalence over the
//! full figure 3 small-scale sweep (Typhoon/Stache and DirNNB at every
//! app × cache point) and the figure 4 sweep (which adds Typhoon/Update
//! and flush synchronization).

use tt_bench::{bench_config, figure3_sweep, figure4_sweep, smoke};

#[test]
fn figure3_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    assert!(on.direct_execution, "direct execution defaults on");
    let fast = figure3_sweep(smoke::SCALE, &on, 4);
    let slow = figure3_sweep(smoke::SCALE, &off, 4);
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(
            f.typhoon, s.typhoon,
            "Typhoon/Stache cycles diverged at {} {}/{}",
            f.app, f.set, f.cache_bytes
        );
        assert_eq!(
            f.dirnnb, s.dirnnb,
            "DirNNB cycles diverged at {} {}/{}",
            f.app, f.set, f.cache_bytes
        );
    }
}

#[test]
fn figure4_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    let fast = figure4_sweep(smoke::SCALE, &on, 4);
    let slow = figure4_sweep(smoke::SCALE, &off, 4);
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(
            f.cycles, s.cycles,
            "cycles diverged at {}% remote (DirNNB, Typhoon/Stache, Typhoon/Update)",
            f.pct_remote * 100.0
        );
    }
}
