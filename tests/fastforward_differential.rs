//! Differential tests pinning the next-event fast-forward path to the
//! per-cycle baseline.
//!
//! The fast-forward contract: with the flag on, `System::run` may jump over
//! stretches every component proved idle, advancing server counters in
//! closed form — and **nothing externally visible may change**. These tests
//! enforce that bit-for-bit (the `bluescale_bench::invariants`
//! fingerprint: counts, per-client counts, per-SE forwards, per-port
//! grants *and replenishments*, full sample sequences) across:
//!
//! * the paper's fig6 workloads in both strict and work-conserving modes,
//! * a rogue client overdriving its declared demand,
//! * a windowed fault plan with guards armed (the adversarial case: fault
//!   windows and guard timers must all veto or bound the jump correctly),
//! * a sparse workload where the test additionally asserts that jumps
//!   actually happened, so the equality checks are not vacuous.

use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{
    build_serial, config_for, retry_guards, run_checked, sparse_config, sparse_fault_plan,
    task_sets, Fingerprint,
};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0xFF0D;
const HORIZON: u64 = 20_000;

fn build_system(sets: &[TaskSet], work_conserving: bool) -> System<BlueScaleInterconnect> {
    build_serial(config_for(sets, work_conserving), sets)
}

/// Runs the same workload with fast-forward on and off and asserts the
/// fingerprints match. Returns the fast-forward system for extra checks.
fn assert_modes_agree(
    mut fast: System<BlueScaleInterconnect>,
    mut slow: System<BlueScaleInterconnect>,
    label: &str,
) -> System<BlueScaleInterconnect> {
    fast.set_fast_forward(true);
    slow.set_fast_forward(false);
    let a = run_checked(&mut fast, HORIZON, label);
    let b = run_checked(&mut slow, HORIZON, label);
    assert!(b.issued() > 0, "{label}: the workload must issue requests");
    assert_eq!(a, b, "{label}: fast-forward must be bit-identical");
    assert_eq!(
        slow.fast_forward_jumps(),
        0,
        "{label}: the per-cycle oracle must never jump"
    );
    fast
}

#[test]
fn fig6_work_conserving_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let fast = build_system(&sets, true);
    let slow = build_system(&sets, true);
    assert_modes_agree(fast, slow, "fig6/work-conserving");
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let fast = build_system(&sets, false);
    let slow = build_system(&sets, false);
    assert_modes_agree(fast, slow, "fig6/strict");
}

#[test]
fn rogue_client_is_bit_identical() {
    // A misbehaving generator floods its port with 5x its declared demand;
    // the backlogged client must veto every jump attempt while it drains.
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let mut fast = build_system(&sets, false);
    let mut slow = build_system(&sets, false);
    for sys in [&mut fast, &mut slow] {
        let mut plan = FaultPlan::default();
        plan.push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 5,
            },
            FaultWindow::ALWAYS,
        );
        sys.set_fault_plan(plan);
    }
    assert_modes_agree(fast, slow, "rogue client");
}

fn faulted_guarded_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    let mut sys = build_system(sets, true);
    sys.set_fault_plan(sparse_fault_plan(SEED));
    sys.set_guards_unchecked(retry_guards());
    sys
}

#[test]
fn fault_plan_with_guards_is_bit_identical() {
    // The adversarial composition: fault windows must force per-cycle
    // stepping while active and bound jumps when upcoming; guard timers
    // (miss detection + watchdog retries) must wake the harness exactly
    // when they act. Sparse workload so jumps are actually attempted.
    let sets = task_sets(&sparse_config(16), SEED);
    let fast = faulted_guarded_system(&sets);
    let slow = faulted_guarded_system(&sets);
    let fast = assert_modes_agree(fast, slow, "faults + guards");
    assert!(
        fast.fast_forwarded_cycles() > 0,
        "the sparse faulted run must still find idle stretches to jump"
    );
}

#[test]
fn sparse_workload_fast_forwards_and_stays_bit_identical() {
    let sets = task_sets(&sparse_config(16), SEED);
    let fast = build_system(&sets, true);
    let slow = build_system(&sets, true);
    let fast = assert_modes_agree(fast, slow, "sparse workload");
    assert!(
        fast.fast_forward_jumps() > 0,
        "the equality check must not be vacuous: jumps must have happened"
    );
    assert!(
        fast.fast_forwarded_cycles() > HORIZON / 4,
        "a ~7% utilization workload should skip a large share of cycles, \
         skipped only {} of {HORIZON}",
        fast.fast_forwarded_cycles()
    );
}

#[test]
fn warmup_runs_agree_across_modes() {
    // run_with_warmup composes advance_to + reset + run; both segments must
    // fast-forward identically.
    let sets = task_sets(&sparse_config(16), SEED);
    let mut fast = build_system(&sets, true);
    let mut slow = build_system(&sets, true);
    slow.set_fast_forward(false);
    let mut a = fast.run_with_warmup(4_000, HORIZON);
    let mut b = slow.run_with_warmup(4_000, HORIZON);
    assert_eq!(
        Fingerprint::of(&mut fast, &mut a),
        Fingerprint::of(&mut slow, &mut b)
    );
}
