//! Timing wrappers over the table/figure generators themselves, so
//! `cargo bench` exercises every experiment end-to-end (at reduced trial
//! counts — the binaries produce the full tables).
//!
//! Plain timing harness (`harness = false`): the container has no registry
//! access for criterion. Run with `cargo bench -p bluescale-bench`.

use std::hint::black_box;
use std::time::Instant;

use bluescale_bench::{fig5, fig6, fig7, interface_selection, table1};

fn time<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..iters.div_ceil(10).min(100) {
        black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = t0.elapsed().as_nanos() / iters as u128;
    println!("{name:<42} {per_iter:>12} ns/iter ({iters} iters)");
}

fn main() {
    time("experiment/table1", 100, || black_box(table1::rows()));
    time("experiment/fig5_sweep", 100, || black_box(fig5::sweep()));

    let fig6_config = fig6::Fig6Config {
        clients: 16,
        trials: 2,
        horizon: 5_000,
        seed: 1,
        phased: false,
    };
    time("experiment/fig6_16clients_2trials", 10, || {
        black_box(fig6::run(&fig6_config))
    });

    let fig7_config = fig7::Fig7Config {
        processors: 16,
        trials: 2,
        horizon: 5_000,
        targets: vec![0.5],
        seed: 1,
    };
    time("experiment/fig7_16cores_1point_2trials", 10, || {
        black_box(fig7::run(&fig7_config))
    });

    let sel_config = interface_selection::SelectionBenchConfig {
        clients: 16,
        sparse_clients: 16,
        workloads: 2,
        reps: 1,
        ..Default::default()
    };
    time("experiment/interface_selection_16clients", 5, || {
        black_box(interface_selection::run(&sel_config))
    });
}
