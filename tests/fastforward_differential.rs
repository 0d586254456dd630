//! Differential tests pinning the next-event fast-forward path to the
//! per-cycle baseline.
//!
//! The fast-forward contract: with the flag on, `System::run` may jump over
//! stretches every component proved idle, advancing server counters in
//! closed form — and **nothing externally visible may change**. These tests
//! enforce that bit-for-bit (counts, per-client counts, per-SE forwards,
//! per-port grants *and replenishments*, full latency/blocking sample
//! sequences) across:
//!
//! * the paper's fig6 workloads in both strict and work-conserving modes,
//! * a rogue client overdriving its declared demand,
//! * a windowed fault plan with guards armed (the adversarial case: fault
//!   windows and guard timers must all veto or bound the jump correctly),
//! * a sparse workload where the test additionally asserts that jumps
//!   actually happened, so the equality checks are not vacuous.

use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::guard::{GuardConfig, WatchdogConfig};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::Counter;
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0xFF0D;
const HORIZON: u64 = 20_000;

fn task_sets(config: &SyntheticConfig) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(SEED);
    generate(config, &mut rng)
}

/// A low-utilization workload with long periods: mostly idle cycles, so the
/// fast path has real stretches to jump over.
fn sparse_config(clients: usize) -> SyntheticConfig {
    SyntheticConfig {
        clients,
        util_lo: 0.05,
        util_hi: 0.10,
        max_tasks_per_client: 1,
        period_min: 2_000,
        period_max: 4_000,
        util_floor: 1e-4,
    }
}

fn build_system(sets: &[TaskSet], work_conserving: bool) -> System<BlueScaleInterconnect> {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = work_conserving;
    let ic = BlueScaleInterconnect::new(config, sets).expect("valid task sets");
    System::new(Box::new(ic), sets)
}

/// Everything two runs must agree on to count as bit-identical.
fn fingerprint(sys: &mut System<BlueScaleInterconnect>, horizon: u64) -> (Vec<u64>, Vec<f64>) {
    let mut m = sys.run(horizon);
    let mut counts = vec![m.issued(), m.completed(), m.missed(), m.backlog()];
    for c in sys.per_client_metrics() {
        counts.extend([c.issued(), c.completed(), c.missed()]);
    }
    for level in sys.interconnect().forward_counts() {
        counts.extend(level);
    }
    let config = sys.interconnect().config().clone();
    for counter in [Counter::Grants, Counter::Replenishments] {
        for depth in 0..config.levels() {
            for order in 0..config.elements_at(depth) {
                counts.extend(sys.interconnect().metrics().port_counters(
                    depth,
                    order,
                    config.branch,
                    counter,
                ));
            }
        }
    }
    let mut samples = m.latency().as_slice().to_vec();
    samples.extend_from_slice(m.blocking().as_slice());
    (counts, samples)
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
    let a = fingerprint(&mut fast, HORIZON);
    let b = fingerprint(&mut slow, HORIZON);
    assert!(b.0[0] > 0, "{label}: the workload must issue requests");
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
    let sets = task_sets(&SyntheticConfig::fig6(16));
    let fast = build_system(&sets, true);
    let slow = build_system(&sets, true);
    assert_modes_agree(fast, slow, "fig6/work-conserving");
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    let fast = build_system(&sets, false);
    let slow = build_system(&sets, false);
    assert_modes_agree(fast, slow, "fig6/strict");
}

#[test]
fn rogue_client_is_bit_identical() {
    // A misbehaving generator floods its port with 5x its declared demand;
    // the backlogged client must veto every jump attempt while it drains.
    let sets = task_sets(&SyntheticConfig::fig6(16));
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
    let mut plan = FaultPlan::new(SEED ^ 0xF00D);
    plan.push(
        FaultKind::RequestBurst {
            client: 2,
            requests: 24,
        },
        FaultWindow::new(5_000, 5_001),
    )
    .push(
        FaultKind::StuckGrant {
            depth: 1,
            order: 0,
            port: 0,
        },
        FaultWindow::new(3_000, 3_400),
    )
    .push(
        FaultKind::DramJitter {
            bank: 0,
            max_extra_cycles: 4,
        },
        FaultWindow::new(1_000, 9_000),
    )
    .push(
        FaultKind::DropResponse {
            client: 3,
            every: 3,
        },
        FaultWindow::new(0, 8_000),
    );
    sys.set_fault_plan(plan);
    // Sub-window timeout (1024 < period_max 4000) on purpose: the
    // differential needs live retry traffic to pin.
    sys.set_guards_unchecked(GuardConfig {
        deadline_miss_detection: true,
        watchdog: Some(WatchdogConfig {
            timeout: 1_024,
            max_retries: 3,
        }),
        quarantine: None,
    });
    sys
}

#[test]
fn fault_plan_with_guards_is_bit_identical() {
    // The adversarial composition: fault windows must force per-cycle
    // stepping while active and bound jumps when upcoming; guard timers
    // (miss detection + watchdog retries) must wake the harness exactly
    // when they act. Sparse workload so jumps are actually attempted.
    let sets = task_sets(&sparse_config(16));
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
    let sets = task_sets(&sparse_config(16));
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
    let sets = task_sets(&sparse_config(16));
    let mut fast = build_system(&sets, true);
    let mut slow = build_system(&sets, true);
    slow.set_fast_forward(false);
    let mut a = fast.run_with_warmup(4_000, HORIZON);
    let mut b = slow.run_with_warmup(4_000, HORIZON);
    assert_eq!(
        (a.issued(), a.completed(), a.missed(), a.backlog()),
        (b.issued(), b.completed(), b.missed(), b.backlog())
    );
    assert_eq!(a.latency().as_slice(), b.latency().as_slice());
    assert_eq!(a.blocking().as_slice(), b.blocking().as_slice());
}
