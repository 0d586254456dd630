//! Benchmarks the interface-selection fast path against the seed
//! implementation and writes `results/BENCH_interface_selection.json`.
//!
//! Usage:
//! `cargo run --release -p bluescale-bench --bin selection_bench -- [--clients 64] [--sparse-clients 1024] [--workloads N] [--reps N] [--seed N] [--divisor N] [--out path]`

use bluescale_bench::interface_selection::{render_json, run, SelectionBenchConfig};
use bluescale_bench::{arg_u64, arg_usize, arg_value};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = SelectionBenchConfig::default();
    config.clients = arg_usize(&args, "--clients", config.clients);
    config.sparse_clients = arg_usize(&args, "--sparse-clients", config.sparse_clients);
    config.workloads = arg_u64(&args, "--workloads", config.workloads);
    config.reps = arg_u64(&args, "--reps", config.reps.into()).clamp(1, u32::MAX.into()) as u32;
    config.seed = arg_u64(&args, "--seed", config.seed);
    // The selection context requires a positive divisor; clamp typos.
    config.divisor = arg_u64(&args, "--divisor", config.divisor).max(1);

    println!(
        "interface selection: {} workloads per kind, best of {} reps, divisor {}",
        config.workloads, config.reps, config.divisor
    );
    let result = run(&config);
    for r in &result.runs {
        println!(
            "  {:<10} {:>5} clients  seed {:>13} ns  tuned {:>11} ns  {:>7.2} us/client  {:.2}× vs seed",
            r.workload,
            r.clients,
            r.seed_ns,
            r.tuned_ns,
            result.tuned_us_per_client(r),
            r.tuned_speedup()
        );
    }

    let json = render_json(&result);
    let out = arg_value(&args, "--out")
        .unwrap_or_else(|| "results/BENCH_interface_selection.json".to_string());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            println!("{json}");
        }
    }
}
