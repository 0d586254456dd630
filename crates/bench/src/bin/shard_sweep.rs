//! Runs the sharded-execution scaling sweep (65k → 1M clients on a busy
//! synchronous-release workload, 1/2/4/8 workers per point), writing
//! `results/BENCH_shards.json`.
//!
//! Usage:
//! `cargo run --release -p bluescale-bench --bin shard_sweep -- \
//!    [--clients a,b,c] [--workers a,b,c] [--horizon N] [--json path]`
//!
//! `--horizon` fixes the horizon for every point instead of the default
//! constant-work scaling; `--clients` / `--workers` replace the sweep
//! lists outright. Every point asserts that all worker counts produce
//! identical run fingerprints (`bluescale_bench::invariants`), so the
//! sweep doubles as the at-scale worker-count determinism check. Wall-clock speedup is a
//! hardware property — the artefact records `host_cpus` so a single-core
//! container's flat curve is not mistaken for a sharding regression.

use bluescale_bench::scalability::{
    render_shards_json, render_shards_table, run_shards, ShardSweepConfig,
};
use bluescale_bench::{arg_u64, arg_usize_list, arg_value};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ShardSweepConfig::default();
    config.client_counts = arg_usize_list(&args, "--clients", &config.client_counts);
    config.worker_counts = arg_usize_list(&args, "--workers", &config.worker_counts);
    if args.iter().any(|a| a == "--horizon") {
        config.horizon_override = Some(arg_u64(&args, "--horizon", 4_096));
    }

    println!(
        "# Sharded-execution scaling (U = {:.2}, busy synchronous release)\n",
        config.utilization
    );
    let points = run_shards(&config);
    println!("{}", render_shards_table(&points));

    let json = render_shards_json(&config, &points);
    let out = arg_value(&args, "--json").unwrap_or_else(|| "results/BENCH_shards.json".to_string());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            println!("{json}");
        }
    }
}
