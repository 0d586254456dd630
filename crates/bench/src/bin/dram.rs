//! Runs the DRAM service-time sensitivity extension (see DESIGN.md).
//!
//! Usage:
//! `cargo run --release -p bluescale-bench --bin dram -- [--clients N] [--trials N] [--horizon N]`

use bluescale_bench::dram::{render, run, DramConfigSweep};
use bluescale_bench::{arg_u64, arg_usize};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = DramConfigSweep::default();
    config.clients = arg_usize(&args, "--clients", config.clients);
    config.trials = arg_u64(&args, "--trials", config.trials);
    config.horizon = arg_u64(&args, "--horizon", config.horizon);
    let rows = run(&config);
    // `render` ends its table with a newline: stdout is `results/dram.md`
    // byte for byte, as `--bin report` writes it.
    print!("{}", render(&config, &rows));
}
