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
//!
//! Each point also records the peak resident set (`VmHWM`) of a process
//! that ran it alone: with several client counts the sweep runs every
//! point in a child process of its own (this binary with `--clients` set
//! to that one count) and assembles the children's artefacts.

use bluescale_bench::scalability::{
    assemble_shards_json, render_shards_json, render_shards_table, run_shards, shard_point_blocks,
    ShardSweepConfig,
};
use bluescale_bench::{arg_u64, arg_usize_list, arg_value};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ShardSweepConfig::default();
    config.client_counts = arg_usize_list(&args, "--clients", &config.client_counts);
    config.worker_counts = arg_usize_list(&args, "--workers", &config.worker_counts);
    if args.iter().any(|a| a == "--horizon") {
        config.horizon_override = Some(arg_u64(&args, "--horizon", 4_096));
    }
    let out = arg_value(&args, "--json").unwrap_or_else(|| "results/BENCH_shards.json".to_string());

    let json = if config.client_counts.len() == 1 {
        println!(
            "# Sharded-execution scaling (U = {:.2}, busy synchronous release)\n",
            config.utilization
        );
        let mut points = run_shards(&config);
        points[0].peak_rss_mb = peak_rss_mb();
        println!("{}", render_shards_table(&points));
        match points[0].peak_rss_mb {
            Some(mb) => println!("peak RSS {mb:.1} MiB\n"),
            None => println!("peak RSS unavailable (no VmHWM in /proc/self/status)\n"),
        }
        render_shards_json(&config, &points)
    } else {
        let blocks: Vec<String> = config
            .client_counts
            .iter()
            .map(|&clients| run_point_alone(&config, clients))
            .collect();
        assemble_shards_json(&config, &blocks)
    };
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            println!("{json}");
        }
    }
}

/// Runs the `clients` point in a child process of its own and returns its
/// rendered point block.
fn run_point_alone(config: &ShardSweepConfig, clients: usize) -> String {
    let exe = std::env::current_exe().expect("path of the running binary");
    let scratch =
        std::env::temp_dir().join(format!("shard_sweep-{}-{clients}.json", std::process::id()));
    let workers: Vec<String> = config.worker_counts.iter().map(usize::to_string).collect();
    let mut child = Command::new(exe);
    child
        .args(["--clients", &clients.to_string()])
        .args(["--workers", &workers.join(",")])
        .arg("--json")
        .arg(&scratch);
    if let Some(horizon) = config.horizon_override {
        child.args(["--horizon", &horizon.to_string()]);
    }
    let status = child.status().expect("spawn the per-point sweep");
    assert!(
        status.success(),
        "the {clients}-client point failed: {status}"
    );
    let json = std::fs::read_to_string(&scratch).expect("the point's artefact");
    let _ = std::fs::remove_file(&scratch);
    shard_point_blocks(&json)
        .expect("a rendered shard-sweep artefact")
        .to_owned()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
