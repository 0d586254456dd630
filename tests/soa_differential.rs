//! Differential tests pinning the structure-of-arrays engine to the
//! per-SE reference engine.
//!
//! `BlueScaleInterconnect<E>` runs one of two implementations of the same
//! arbitration semantics: the default `core::soa::SoaCore` arena
//! (contiguous server slices, linear-scan GEDF argmin, batched counters,
//! one request slab for every buffer capacity) and the reference
//! `PerSeEngine` (one `ScaleElement` per SE, with per-SE
//! `Vec<ServerTask>` + per-port buffers). These tests run the identical
//! seeded workload on both engines and require bit-identical fingerprints
//! (`bluescale_bench::invariants::Fingerprint`: counts, per-client counts,
//! per-SE forwards, per-port grants and replenishments, and full sample
//! sequences) across:
//!
//! * the paper's fig6 workloads in strict and work-conserving modes,
//! * a sparse faulted run with guards armed (stuck grants, DRAM jitter,
//!   dropped responses, request bursts),
//! * a live churn plan (retask, leave, rejoin) with fast-forward on,
//! * the FIFO low-level queue policy at the default 8-entry buffers, and
//!   32-entry buffers under both EDF and FIFO,
//! * a detail-recording run, where the typed event streams of the two
//!   engines must match event for event, and
//! * deep trees (256 and 1,024 clients, 4 and 5 levels), where the SoA
//!   engine visits only the SEs with work and settles idle servers'
//!   countdowns lazily: plain sparse runs, plus a 256-client run that
//!   retasks, leaves and rejoins clients on long-idle leaf SEs, holds a
//!   grant line of an idle depth-2 SE stuck, and turns detail recording
//!   on mid-run.
//!
//! The fig6-strict, churn and faults-plus-guards scenarios run on two
//! seeds each.

use bluescale::element::PerSeEngine;
use bluescale::network::Engine;
use bluescale::rab::QueuePolicy;
use bluescale::soa::SoaCore;
use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{
    build_serial, config_for, deep_quiet_plans, deep_quiet_sets, light_churn_plan, retry_guards,
    run_checked, sparse_config, sparse_fault_plan, task_sets,
};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0x50AD;
/// The second input of the seeded scenarios.
const SEEDS: [u64; 2] = [SEED, 0x50A_000FE];
const HORIZON: u64 = 20_000;

fn build_system<E: Engine>(
    sets: &[TaskSet],
    work_conserving: bool,
) -> System<BlueScaleInterconnect<E>> {
    build_serial(config_for(sets, work_conserving), sets)
}

/// Runs the same workload on the SoA and reference engines and asserts
/// the fingerprints match. Returns the SoA system for extra checks.
fn assert_engines_agree(
    mut soa: System<BlueScaleInterconnect>,
    mut reference: System<BlueScaleInterconnect<PerSeEngine>>,
    label: &str,
) -> System<BlueScaleInterconnect> {
    let a = run_checked(&mut soa, HORIZON, label);
    let b = run_checked(&mut reference, HORIZON, label);
    assert!(b.issued() > 0, "{label}: the workload must issue requests");
    assert_eq!(a, b, "{label}: the SoA engine must be bit-identical");
    soa
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    for seed in SEEDS {
        let sets = task_sets(&SyntheticConfig::fig6(16), seed);
        let soa = build_system::<SoaCore>(&sets, false);
        let reference = build_system::<PerSeEngine>(&sets, false);
        assert_engines_agree(soa, reference, &format!("fig6/strict/{seed:#x}"));
    }
}

#[test]
fn fig6_work_conserving_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let soa = build_system::<SoaCore>(&sets, true);
    let reference = build_system::<PerSeEngine>(&sets, true);
    assert_engines_agree(soa, reference, "fig6/work-conserving");
}

fn faulted_guarded_system<E: Engine>(
    sets: &[TaskSet],
    seed: u64,
) -> System<BlueScaleInterconnect<E>> {
    let mut sys = build_system(sets, true);
    sys.set_fault_plan(sparse_fault_plan(seed));
    sys.set_guards_unchecked(retry_guards());
    sys
}

#[test]
fn fault_plan_with_guards_is_bit_identical() {
    // Stuck-grant masks, jittered service, dropped responses and guard
    // timers all cross the engine boundary; both engines must agree while
    // fast-forward jumps actually happen on the sparse stretches.
    for seed in SEEDS {
        let sets = task_sets(&sparse_config(16), seed);
        let soa = faulted_guarded_system::<SoaCore>(&sets, seed);
        let reference = faulted_guarded_system::<PerSeEngine>(&sets, seed);
        let soa = assert_engines_agree(soa, reference, &format!("faults + guards/{seed:#x}"));
        assert!(
            soa.fast_forwarded_cycles() > 0,
            "the sparse faulted run must still find idle stretches to jump"
        );
    }
}

#[test]
fn churn_plan_is_bit_identical() {
    // Retask, leave, rejoin: deferred (Π,Θ) swaps, slot clears and slot
    // reuse all run through the arena while the reference oracle replays the
    // same plan on its own engine.
    for seed in SEEDS {
        let sets = task_sets(&sparse_config(16), seed);
        let plan = light_churn_plan(&sets, seed);
        let mut soa = build_system::<SoaCore>(&sets, true);
        let mut reference = build_system::<PerSeEngine>(&sets, true);
        soa.set_churn_plan(plan.clone());
        reference.set_churn_plan(plan);
        let soa = assert_engines_agree(soa, reference, &format!("churn plan/{seed:#x}"));
        assert!(
            soa.fast_forward_jumps() > 0,
            "the sparse churned run must still jump, or the check is vacuous"
        );
    }
}

/// A fig6 system whose port queues hold `capacity` requests in `policy`
/// order.
fn queue_system<E: Engine>(
    sets: &[TaskSet],
    capacity: usize,
    policy: QueuePolicy,
) -> System<BlueScaleInterconnect<E>> {
    let mut config = config_for(sets, false);
    config.buffer_capacity = capacity;
    config.low_level_policy = policy;
    build_serial(config, sets)
}

#[test]
fn queue_policies_and_deep_buffers_are_bit_identical() {
    // The FIFO ablation at the paper's 8-entry buffers, and 32-entry
    // buffers under both policies: the one request slab serves every
    // capacity, checked inside the full system against the reference
    // comparator-scan buffers.
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    for (capacity, policy) in [
        (8, QueuePolicy::Fifo),
        (32, QueuePolicy::EarliestDeadline),
        (32, QueuePolicy::Fifo),
    ] {
        let soa = queue_system::<SoaCore>(&sets, capacity, policy);
        let reference = queue_system::<PerSeEngine>(&sets, capacity, policy);
        assert_engines_agree(soa, reference, &format!("{capacity} entries/{policy:?}"));
    }
    let mut fifo = queue_system::<SoaCore>(&sets, 8, QueuePolicy::Fifo);
    let mut edf = queue_system::<SoaCore>(&sets, 8, QueuePolicy::EarliestDeadline);
    assert_ne!(
        run_checked(&mut fifo, HORIZON, "fifo"),
        run_checked(&mut edf, HORIZON, "edf"),
        "the policy must change the run, or the FIFO check is vacuous"
    );
}

#[test]
fn detail_recording_matches_event_for_event() {
    // With detail on, the SoA engine abandons its batched counters and
    // writes counters and typed events through directly; the resulting
    // event stream must equal the reference engine's exactly, in order.
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let mut soa = build_system::<SoaCore>(&sets, false);
    let mut reference = build_system::<PerSeEngine>(&sets, false);
    soa.enable_detail();
    reference.enable_detail();
    let a = run_checked(&mut soa, HORIZON, "detail");
    let b = run_checked(&mut reference, HORIZON, "detail");
    assert_eq!(a, b, "detail run: fingerprints must match");
    let ea = soa.interconnect().metrics().events();
    let eb = reference.interconnect().metrics().events();
    assert!(!eb.is_empty(), "the detail run must record events");
    assert_eq!(ea, eb, "typed event streams must match event for event");
}

fn deep_quiet_system<E: Engine>(sets: &[TaskSet]) -> System<BlueScaleInterconnect<E>> {
    let mut sys = build_system::<E>(sets, false);
    let (churn, faults) = deep_quiet_plans(SEED, 0);
    sys.set_churn_plan(churn);
    sys.set_fault_plan(faults);
    sys
}

/// [`assert_engines_agree`] plus the whole merged registry, byte for
/// byte: every counter of every SE, port and client, churn and fault
/// tallies included.
fn assert_registries_agree<E: Engine, F: Engine>(
    a: &mut System<BlueScaleInterconnect<E>>,
    b: &mut System<BlueScaleInterconnect<F>>,
    horizon: u64,
    label: &str,
) {
    let fa = run_checked(a, horizon, label);
    let fb = run_checked(b, horizon, label);
    assert!(fb.issued() > 0, "{label}: the workload must issue requests");
    assert_eq!(fa, fb, "{label}: fingerprints must match");
    assert_eq!(
        a.merged_registry().to_json(),
        b.merged_registry().to_json(),
        "{label}: merged registries must match"
    );
}

#[test]
fn deep_sparse_trees_are_bit_identical() {
    for (clients, horizon) in [(256, HORIZON), (1_024, 8_000)] {
        let sets = task_sets(&sparse_config(clients), SEED);
        let mut soa = build_system::<SoaCore>(&sets, true);
        let mut reference = build_system::<PerSeEngine>(&sets, true);
        assert_registries_agree(
            &mut soa,
            &mut reference,
            horizon,
            &format!("sparse {clients}"),
        );
        assert!(soa.fast_forward_jumps() > 0, "{clients}: the run must jump");
    }
}

#[test]
fn deep_tree_churn_and_stuck_grants_on_idle_ses_are_bit_identical() {
    let sets = deep_quiet_sets(SEED);
    let mut soa = deep_quiet_system::<SoaCore>(&sets);
    let mut reference = deep_quiet_system::<PerSeEngine>(&sets);
    assert_registries_agree(&mut soa, &mut reference, HORIZON, "deep quiet corners");
    let reg = soa.merged_registry();
    assert_eq!(reg.counter(ComponentId::System, Counter::Admitted), 3);
    assert!(
        reg.counter(ComponentId::Client(20), Counter::TransitionCycles) > 0,
        "the retask must stage a swap on a running server"
    );
    assert_eq!(
        reg.counter(
            ComponentId::Se { depth: 2, order: 3 },
            Counter::FaultsInjected
        ),
        600,
        "an idle SE's held grant line is tallied every cycle of its window"
    );
}

#[test]
fn detail_turned_on_mid_run_matches_event_for_event() {
    // The lazy countdowns of the batched half are settled by the flush
    // that turning detail on performs; from then on every SE steps
    // through the write-through path, and both engines must record the
    // same typed events.
    let sets = deep_quiet_sets(SEED);
    let mut soa = deep_quiet_system::<SoaCore>(&sets);
    let mut reference = deep_quiet_system::<PerSeEngine>(&sets);
    soa.advance_to(6_000);
    reference.advance_to(6_000);
    soa.enable_detail();
    reference.enable_detail();
    assert_registries_agree(&mut soa, &mut reference, 14_000, "detail from cycle 6,000");
    let ea = soa.interconnect().metrics().events();
    let eb = reference.interconnect().metrics().events();
    assert!(!eb.is_empty(), "the detail half must record events");
    assert_eq!(ea, eb, "typed event streams must match event for event");
}
