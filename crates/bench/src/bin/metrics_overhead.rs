//! Smoke check: the observability layer must be near-free when detail is
//! off and must never change simulation results.
//!
//! Four configurations drive identical BlueScale traffic (fig6-style
//! synthetic task sets, fixed seed):
//!
//! 1. **baseline** — a hand-rolled client/interconnect loop with no
//!    harness registry at all (the pre-observability cost floor),
//! 2. **disabled** — the `System` harness with detail recording off (the
//!    default for every experiment),
//! 3. **detail** — the harness with typed events + request lifecycles on,
//!    and
//! 4. **streaming** — the harness with a live telemetry pipeline flushing
//!    delta epochs (SLO derivation + JSONL to a temp file) every 1024
//!    cycles.
//!
//! The check asserts bit-identical completion counts across all four and
//! that both the disabled-metrics harness and the streaming harness stay
//! within generous noise bounds of the baseline — the streaming bound
//! pins the invariant that telemetry flushes run between simulation
//! spans, never inside the per-cycle hot loop. Run via
//! `scripts/check.sh`; exits non-zero on failure.
//!
//! The counts are checked before any time is reported. The best-of-`reps`
//! time per configuration, its ratio to the baseline and `host_cpus` go to
//! `--out` (default `results/BENCH_metrics_overhead.json`).
//!
//! Usage: `cargo run --release -p bluescale-bench --bin metrics_overhead -- [--horizon N] [--reps N] [--out path]`

use bluescale_bench::runner::{build, InterconnectKind};
use bluescale_bench::{arg_u64, arg_usize, arg_value};
use bluescale_interconnect::client::TrafficGenerator;
use bluescale_interconnect::system::System;
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_telemetry::{JsonlSink, Pipeline, SloConfig};
use bluescale_workload::synthetic::{generate, SyntheticConfig};
use std::time::Instant;

/// Allowed slowdown of the disabled-metrics harness over the hand-rolled
/// baseline. The harness also keeps the service log and blocking-window
/// accounting the baseline skips, so this is a noise bound, not a tight
/// one; regressions that make counters hot show up far above it.
const MAX_DISABLED_SLOWDOWN: f64 = 3.0;

/// Allowed slowdown of the streaming-telemetry harness over the same
/// baseline. Streaming adds delta extraction + SLO derivation + JSONL
/// serialization at every flush boundary — bounded work per epoch, never
/// per cycle — so it must stay within noise of the detail-off harness.
const MAX_STREAMING_SLOWDOWN: f64 = 4.0;

/// Clients in every configuration's workload.
const CLIENTS: usize = 16;

fn task_sets() -> Vec<bluescale_rt::task::TaskSet> {
    let mut rng = SimRng::seed_from(0x00BE_5EAD);
    generate(&SyntheticConfig::fig6(CLIENTS), &mut rng)
}

/// The cost floor: clients + interconnect with no registry, no service
/// log, no response accounting beyond a completion count.
fn run_baseline(horizon: Cycle) -> u64 {
    let sets = task_sets();
    let mut ic = build(InterconnectKind::BlueScale, &sets);
    let mut clients: Vec<TrafficGenerator> = sets
        .iter()
        .enumerate()
        .map(|(i, set)| TrafficGenerator::new(i as u32, set))
        .collect();
    let mut completed = 0u64;
    for now in 0..horizon {
        for client in &mut clients {
            client.on_cycle(now);
            if let Some(req) = client.take() {
                if let Err(rejected) = ic.inject(req, now) {
                    client.give_back(rejected);
                }
            }
        }
        ic.step(now);
        while ic.pop_service_event().is_some() {}
        while ic.pop_response().is_some() {
            completed += 1;
        }
    }
    completed
}

fn run_harness(horizon: Cycle, detail: bool) -> u64 {
    let sets = task_sets();
    let ic = build(InterconnectKind::BlueScale, &sets);
    let mut system = System::new(ic, &sets);
    if detail {
        system.enable_detail();
    }
    let m = system.run(horizon);
    m.completed()
}

/// The harness with a live telemetry pipeline: 1024-cycle flush period,
/// SLO derivation and a JSONL sink writing to a temp file.
fn run_streaming(horizon: Cycle, path: &std::path::Path) -> u64 {
    let sets = task_sets();
    let ic = build(InterconnectKind::BlueScale, &sets);
    let mut system = System::new(ic, &sets);
    let mut pipe = Pipeline::new(1_024, SloConfig::default());
    pipe.add_sink(JsonlSink::create(path).expect("create jsonl sink"));
    system.attach_telemetry(pipe);
    let m = system.run(horizon);
    system.finish_telemetry();
    m.completed()
}

/// Minimum wall time over `reps` runs (the usual noise-robust estimator).
fn min_time<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut result = 0;
    for _ in 0..reps {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let horizon = arg_u64(&args, "--horizon", 40_000);
    let reps = arg_usize(&args, "--reps", 5).max(1);
    let out = arg_value(&args, "--out")
        .unwrap_or_else(|| "results/BENCH_metrics_overhead.json".to_string());

    let (t_base, c_base) = min_time(reps, || run_baseline(horizon));
    let (t_off, c_off) = min_time(reps, || run_harness(horizon, false));
    let (t_on, c_on) = min_time(reps, || run_harness(horizon, true));
    let jsonl = std::env::temp_dir().join(format!(
        "bluescale-metrics-overhead-{}.jsonl",
        std::process::id()
    ));
    let (t_stream, c_stream) = min_time(reps, || run_streaming(horizon, &jsonl));
    let _ = std::fs::remove_file(&jsonl);

    // Correctness before any time is reported: every configuration must
    // complete exactly the same requests.
    if c_base != c_off || c_off != c_on || c_on != c_stream {
        eprintln!("FAIL: completion counts diverge: {c_base} / {c_off} / {c_on} / {c_stream}");
        std::process::exit(1);
    }

    let runs = [
        ("hand-rolled baseline", "baseline", t_base),
        ("harness, detail off", "detail_off", t_off),
        ("harness, detail on", "detail_on", t_on),
        ("harness, streaming telemetry", "streaming", t_stream),
    ];
    println!("# Metrics overhead smoke check ({horizon} cycles, min of {reps} runs)\n");
    println!("| Configuration | Completed | Time (ms) | vs baseline |");
    println!("|---|---:|---:|---:|");
    for (label, _, t) in runs {
        println!(
            "| {label} | {c_base} | {:.2} | {:.2}x |",
            t * 1e3,
            t / t_base
        );
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"benchmark\": \"metrics_overhead\",\n  \"unit\": \"ms\",\n  \
         \"timing\": \"best of reps, one {CLIENTS}-client fig6 run per rep\",\n  \
         \"host_cpus\": {host_cpus},\n  \"horizon\": {horizon},\n  \"reps\": {reps},\n  \
         \"completed\": {c_base},\n  \"max_detail_off_ratio\": {MAX_DISABLED_SLOWDOWN:.1},\n  \
         \"max_streaming_ratio\": {MAX_STREAMING_SLOWDOWN:.1},\n  \"runs\": ["
    );
    for (i, (_, name, t)) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        json.push_str(&format!(
            "{sep}\n    {{\"configuration\": \"{name}\", \"best_ms\": {:.3}, \"vs_baseline\": {:.3}}}",
            t * 1e3,
            t / t_base
        ));
    }
    json.push_str("\n  ]\n}\n");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            println!("{json}");
        }
    }

    let mut failed = false;
    if t_off > t_base * MAX_DISABLED_SLOWDOWN {
        eprintln!(
            "FAIL: disabled-metrics harness {:.2}x over baseline (bound {MAX_DISABLED_SLOWDOWN}x)",
            t_off / t_base
        );
        failed = true;
    }
    if t_stream > t_base * MAX_STREAMING_SLOWDOWN {
        eprintln!(
            "FAIL: streaming harness {:.2}x over baseline (bound {MAX_STREAMING_SLOWDOWN}x)",
            t_stream / t_base
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nok: metrics and streaming are observation-only and within noise bounds");
}
