//! Runs the online-churn extension: path-local reconfiguration vs a fresh
//! composition (asserted equivalent per event before timing) and live
//! transition disturbance, exporting the sweep as a JSON snapshot.
//!
//! Usage:
//! `cargo run --release -p bluescale-bench --bin churn -- [--events N]
//! [--clients 16,64,256,1024] [--out results/BENCH_admission.json]`

use bluescale_bench::churn::{record_into, render, run, run_disturbance, ChurnConfig};
use bluescale_bench::{arg_usize, arg_usize_list, arg_value, export};
use bluescale_sim::metrics::MetricsRegistry;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ChurnConfig::default();
    config.client_counts = arg_usize_list(&args, "--clients", &config.client_counts.clone());
    config.events = arg_usize(&args, "--events", config.events);
    let path = PathBuf::from(
        arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_admission.json".to_owned()),
    );
    let points = run(&config);
    let disturbance = run_disturbance(&config);
    println!("{}", render(&config, &points, &disturbance));
    let mut registry = MetricsRegistry::new();
    record_into(&mut registry, &points, &disturbance);
    export::write_snapshot(&path, &mut registry).expect("snapshot written");
    println!("wrote {}", path.display());
}
