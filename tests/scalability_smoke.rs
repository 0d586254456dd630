//! Tier-1 smoke test for the scalability sweep's fast-forward points.
//!
//! Runs the bench crate's speedup sweep at its two smallest sizes (4 and
//! 16 clients, shortened horizon) so the per-cycle-vs-fast-forward
//! equality assertion inside [`run_fastforward`] executes on every test
//! run — not only when the full benchmark binary is invoked — and
//! additionally pins a fig6-style point through both stepping modes with
//! a full run-fingerprint comparison.

use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{build_serial, config_for, run_checked, task_sets};
use bluescale_bench::scalability::{run_fastforward, FastForwardConfig};
use bluescale_interconnect::system::System;
use bluescale_workload::synthetic::SyntheticConfig;

#[test]
fn sweep_smoke_points_verify_and_jump() {
    let cfg = FastForwardConfig {
        client_counts: vec![4, 16],
        horizon_override: Some(12_000),
        ..Default::default()
    };
    // run_fastforward itself panics if the two modes diverge; the
    // assertions here pin that the comparison was non-vacuous.
    let points = run_fastforward(&cfg);
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(p.verified, "{} clients: modes must agree", p.clients);
        assert!(p.jumps > 0, "{} clients: no jumps taken", p.clients);
        assert!(p.completed > 0, "{} clients: no traffic", p.clients);
    }
}

#[test]
fn fig6_point_has_identical_run_metrics_in_both_modes() {
    let sets = task_sets(&SyntheticConfig::fig6(4), 0x5CA1E);
    let mut fast: System<BlueScaleInterconnect> = build_serial(config_for(&sets, true), &sets);
    let mut slow: System<BlueScaleInterconnect> = build_serial(config_for(&sets, true), &sets);
    fast.set_fast_forward(true);
    slow.set_fast_forward(false);
    assert_eq!(
        run_checked(&mut fast, 15_000, "fast-forward"),
        run_checked(&mut slow, 15_000, "per-cycle")
    );
    assert_eq!(slow.fast_forward_jumps(), 0, "the oracle must not jump");
}
