//! End-to-end and per-layer benchmark of the Tempest/Typhoon simulator.
//!
//! `perfbench --workload <paper32|mesh256|kv_lossy> --seed N --seconds N
//! --trace 0|1` runs one workload (see [`suite`] for what each stresses),
//! checks every result against an untimed correctness pass, and prints
//! the metrics `BENCHMARK.json` names. Layer attribution comes from
//! decorators over the public `Workload` and `Protocol` traits and
//! Typhoon's `Tracer` ([`layers`]), plus microbenches of single layers
//! ([`micro`]); the program itself carries no benchmark code.

pub mod bench;
pub mod json;
pub mod layers;
pub mod micro;
pub mod suite;

/// The end-to-end metrics the `--trace 0` JSON line carries.
pub const END_TO_END: [&str; 4] = ["run_s", "setup_s", "typhoon_run_s", "peak_bytes_per_node"];

/// Where each invocation writes its samples, provenance and spans.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
