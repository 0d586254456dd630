//! Runs the scheduling-scalability extension sweep (4→256 clients) and
//! the fast-forward speedup sweep (4→4096 clients on a sparse workload),
//! writing `results/BENCH_fastforward.json`.
//!
//! Usage:
//! `cargo run --release -p bluescale-bench --bin scalability -- \
//!    [--trials N] [--horizon N] [--max-clients N] [--clients a,b,c] \
//!    [--json path] [--reps N] [--ff-only]`
//!
//! `--max-clients` caps both sweeps' client counts (the 4096-client
//! per-cycle oracle run dominates wall-clock); `--clients` replaces the
//! fast-forward sweep's point list outright; `--ff-only` skips the
//! architecture-comparison sweep when only the JSON artefact is wanted.
//! Every fast-forward point is checked against the eager per-SE
//! reference engine before it is timed; `--reps` (default 3) sets the
//! timed runs per mode, of which the best is reported.

use bluescale_bench::scalability::{
    render, render_fastforward_json, render_fastforward_table, run, run_fastforward,
    FastForwardConfig, ScalabilityConfig,
};
use bluescale_bench::{arg_u64, arg_usize, arg_usize_list, arg_value};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_clients = arg_usize(&args, "--max-clients", usize::MAX);
    let ff_only = args.iter().any(|a| a == "--ff-only");

    if !ff_only {
        let mut config = ScalabilityConfig::default();
        config.trials = arg_u64(&args, "--trials", config.trials);
        config.horizon = arg_u64(&args, "--horizon", config.horizon);
        config.client_counts.retain(|&c| c <= max_clients);
        if !config.client_counts.is_empty() {
            let points = run(&config);
            println!("{}", render(&config, &points));
        }
    }

    let mut ff = FastForwardConfig::default();
    ff.client_counts = arg_usize_list(&args, "--clients", &ff.client_counts);
    ff.client_counts.retain(|&c| c <= max_clients);
    ff.reps = arg_u64(&args, "--reps", ff.reps.into()).clamp(1, u32::MAX.into()) as u32;
    if ff.client_counts.is_empty() {
        return;
    }
    println!(
        "# Fast-forward speedup (sparse workload, {} requests/job)\n",
        ff.demand
    );
    let points = run_fastforward(&ff);
    println!("{}", render_fastforward_table(&points));

    let json = render_fastforward_json(&ff, &points);
    let out =
        arg_value(&args, "--json").unwrap_or_else(|| "results/BENCH_fastforward.json".to_string());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            println!("{json}");
        }
    }
}
