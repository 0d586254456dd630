//! Differential tests for the fault-injection + guard layer.
//!
//! The layer's load-bearing invariants:
//!
//! 1. **Empty plan ≡ baseline** — installing an empty [`FaultPlan`] (and no
//!    guards) leaves every externally visible quantity bit-identical to a
//!    system that never heard of faults: the whole
//!    `bluescale_bench::invariants` fingerprint.
//! 2. **Guards without faults are inert** — deadline-miss detection and a
//!    watchdog that never fires must not change a single decision.
//! 3. **Seeded reproducibility** — the same seed + plan + guards replayed
//!    twice produce bit-identical results, including the pseudo-random
//!    DRAM jitter.
//! 4. **Containment** — a rogue client is quarantined and its victims stay
//!    miss-free; dropped responses are recovered by the watchdog without
//!    double-counting completions.
//! 5. **Conservation** — every run with guards armed accounts for each
//!    issued request as completed, backlogged or guard-outstanding.

use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{assert_conserved, build_serial, config_for, run_checked};
use bluescale_interconnect::guard::{GuardConfig, QuarantinePolicy, WatchdogConfig};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0xFA17;
const HORIZON: u64 = 20_000;

fn task_sets(clients: usize) -> Vec<TaskSet> {
    bluescale_bench::invariants::task_sets(&SyntheticConfig::fig6(clients), SEED)
}

fn build_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    build_serial(config_for(sets, true), sets)
}

#[test]
fn empty_fault_plan_is_bit_identical_to_baseline() {
    let sets = task_sets(16);

    let mut baseline = build_system(&sets);
    let mut with_empty_plan = build_system(&sets);
    with_empty_plan.set_fault_plan(FaultPlan::new(SEED));
    assert!(with_empty_plan.fault_plan().is_empty());

    let a = run_checked(&mut baseline, HORIZON, "baseline");
    let b = run_checked(&mut with_empty_plan, HORIZON, "empty plan");
    assert!(a.completed() > 0, "the workload must exercise the tree");
    assert_eq!(a, b, "an empty plan must take the exact baseline path");
    assert_eq!(
        with_empty_plan
            .registry()
            .counter(ComponentId::System, Counter::FaultsInjected),
        0
    );
}

#[test]
fn idle_guards_are_bit_identical_to_baseline() {
    let sets = task_sets(16);

    let mut baseline = build_system(&sets);
    let mut guarded = build_system(&sets);
    // Detection observes; the watchdog's timeout exceeds the horizon so it
    // never fires; no quarantine. Nothing may perturb the run.
    guarded
        .set_guards(GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: HORIZON,
                max_retries: 1,
            }),
            quarantine: None,
        })
        .expect("the horizon exceeds every deadline window");

    let a = run_checked(&mut baseline, HORIZON, "baseline");
    let b = run_checked(&mut guarded, HORIZON, "idle guards");
    assert_eq!(a, b, "idle guards must not change a single decision");
    assert_eq!(
        guarded
            .registry()
            .counter(ComponentId::System, Counter::Retries),
        0
    );
}

fn faulted_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    let mut sys = build_system(sets);
    let mut plan = FaultPlan::new(SEED ^ 0xBEEF);
    plan.push(
        FaultKind::RogueDemand {
            client: 0,
            factor: 6,
        },
        FaultWindow::new(2_000, 12_000),
    )
    .push(
        FaultKind::RequestBurst {
            client: 2,
            requests: 40,
        },
        FaultWindow::new(5_000, 5_001),
    )
    .push(
        FaultKind::StuckGrant {
            depth: 1,
            order: 1,
            port: 0,
        },
        FaultWindow::new(3_000, 3_400),
    )
    .push(
        FaultKind::DramJitter {
            bank: 0,
            max_extra_cycles: 6,
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
        quarantine: Some(QuarantinePolicy { miss_threshold: 50 }),
    });
    sys
}

#[test]
fn same_seed_and_plan_reproduce_bit_identically() {
    let sets = task_sets(16);
    let mut first = faulted_system(&sets);
    let mut second = faulted_system(&sets);

    // Guards are armed, so both runs must also conserve requests.
    let a = run_checked(&mut first, HORIZON, "first");
    let b = run_checked(&mut second, HORIZON, "second");
    assert_eq!(a, b, "seeded fault runs must replay exactly");
    assert_eq!(first.quarantined_clients(), second.quarantined_clients());
    assert_eq!(first.guard_outstanding(), second.guard_outstanding());

    // The plan actually did something in both runs (this is not the
    // baseline): the plan fired, the drop fault among it.
    for sys in [&mut first, &mut second] {
        let merged = sys.merged_registry();
        for counter in [Counter::FaultsInjected, Counter::ResponsesDropped] {
            assert!(
                merged.counter(ComponentId::System, counter) > 0,
                "{counter:?}: faults must have fired"
            );
        }
    }
}

#[test]
fn rogue_client_is_quarantined_and_victims_stay_bounded() {
    // Strict budget gating (the guaranteed mode): the rogue's excess
    // traffic is throttled to its reserved budget and misses, while the
    // analysis keeps every victim on schedule. (Work-conserving mode
    // would simply absorb the flood in this workload's slack.)
    let sets = task_sets(16);
    let mut sys: System<BlueScaleInterconnect> = build_serial(config_for(&sets, false), &sets);
    let mut plan = FaultPlan::new(7);
    plan.push(
        FaultKind::RogueDemand {
            client: 0,
            factor: 8,
        },
        FaultWindow::ALWAYS,
    );
    sys.set_fault_plan(plan);
    sys.set_guards(GuardConfig {
        deadline_miss_detection: true,
        watchdog: None,
        quarantine: Some(QuarantinePolicy { miss_threshold: 20 }),
    })
    .expect("no watchdog to validate");
    let metrics = sys.run(HORIZON);
    assert_conserved(&mut sys, &metrics, "rogue under quarantine");

    assert_eq!(sys.quarantined_clients(), vec![0], "the rogue is contained");
    assert!(sys.detected_misses(0) >= 20);
    assert!(
        sys.registry()
            .counter(ComponentId::System, Counter::Quarantines)
            >= 1
    );
    // Temporal isolation holds for the victims: budget-regulated service
    // means the rogue's flood never shows up as victim deadline misses.
    for victim in sys.per_client_metrics().iter().skip(1) {
        assert_eq!(victim.missed(), 0, "victims must stay miss-free");
    }
}

#[test]
fn watchdog_recovers_dropped_responses_without_double_counting() {
    let sets = task_sets(16);
    let mut sys = build_system(&sets);
    let mut plan = FaultPlan::new(99);
    plan.push(
        FaultKind::DropResponse {
            client: 3,
            every: 2,
        },
        FaultWindow::new(0, 10_000),
    );
    sys.set_fault_plan(plan);
    // Sub-window timeout (512 < period_max 4000) on purpose: this scenario
    // measures recovery from dropped responses via fast re-injection.
    sys.set_guards_unchecked(GuardConfig {
        deadline_miss_detection: true,
        watchdog: Some(WatchdogConfig {
            timeout: 512,
            max_retries: 4,
        }),
        quarantine: None,
    });
    let mut m = sys.run(HORIZON);

    let merged = sys.merged_registry();
    let dropped = merged.counter(ComponentId::System, Counter::ResponsesDropped);
    let retries = merged.counter(ComponentId::System, Counter::Retries);
    assert!(dropped > 0, "the fault must have fired");
    assert!(retries > 0, "the watchdog must have re-issued");

    // Everything accepted either completed exactly once or is still
    // tracked as outstanding (in flight or lost past the retry limit).
    assert_conserved(&mut sys, &m, "watchdog recovery");
    assert!(
        m.completed() > 0 && m.latency().as_slice().len() == m.completed() as usize,
        "every completion sampled exactly once"
    );
}
