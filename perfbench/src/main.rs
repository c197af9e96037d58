//! `perfbench`: see the library documentation and `--help`.

use tt_perfbench::bench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match bench::parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("perfbench: {msg}");
            }
            eprintln!("{}", bench::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = bench::main(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
