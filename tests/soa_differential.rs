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
//! — counts, per-client counts, per-SE forwards, per-port grants and
//! replenishments, and full latency/blocking sample sequences — across:
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
use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::guard::{GuardConfig, WatchdogConfig};
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0x50AD;
/// The second input of the seeded scenarios.
const SEEDS: [u64; 2] = [SEED, 0x50A_000FE];
const HORIZON: u64 = 20_000;

fn task_sets(config: &SyntheticConfig) -> Vec<TaskSet> {
    seeded_task_sets(config, SEED)
}

fn seeded_task_sets(config: &SyntheticConfig, seed: u64) -> Vec<TaskSet> {
    generate(config, &mut SimRng::seed_from(seed))
}

/// Low-utilization, long-period workload: real idle stretches, so the SoA
/// engine's `advance_idle` sweep is exercised alongside its stepped path.
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

fn build_system<E: Engine>(
    sets: &[TaskSet],
    work_conserving: bool,
) -> System<BlueScaleInterconnect<E>> {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = work_conserving;
    let ic = BlueScaleInterconnect::<E>::with_engine(config, sets).expect("valid task sets");
    System::new(Box::new(ic), sets)
}

/// Everything two runs must agree on to count as bit-identical.
fn fingerprint<E: Engine>(
    sys: &mut System<BlueScaleInterconnect<E>>,
    horizon: u64,
) -> (Vec<u64>, Vec<f64>) {
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

/// Runs the same workload on the SoA and reference engines and asserts
/// the fingerprints match. Returns the SoA system for extra checks.
fn assert_engines_agree(
    mut soa: System<BlueScaleInterconnect>,
    mut reference: System<BlueScaleInterconnect<PerSeEngine>>,
    label: &str,
) -> System<BlueScaleInterconnect> {
    let a = fingerprint(&mut soa, HORIZON);
    let b = fingerprint(&mut reference, HORIZON);
    assert!(b.0[0] > 0, "{label}: the workload must issue requests");
    assert_eq!(a, b, "{label}: the SoA engine must be bit-identical");
    soa
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    for seed in SEEDS {
        let sets = seeded_task_sets(&SyntheticConfig::fig6(16), seed);
        let soa = build_system::<SoaCore>(&sets, false);
        let reference = build_system::<PerSeEngine>(&sets, false);
        assert_engines_agree(soa, reference, &format!("fig6/strict/{seed:#x}"));
    }
}

#[test]
fn fig6_work_conserving_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    let soa = build_system::<SoaCore>(&sets, true);
    let reference = build_system::<PerSeEngine>(&sets, true);
    assert_engines_agree(soa, reference, "fig6/work-conserving");
}

fn faulted_guarded_system<E: Engine>(
    sets: &[TaskSet],
    seed: u64,
) -> System<BlueScaleInterconnect<E>> {
    let mut sys = build_system(sets, true);
    let mut plan = FaultPlan::new(seed ^ 0xF00D);
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
    // Stuck-grant masks, jittered service, dropped responses and guard
    // timers all cross the engine boundary; both engines must agree while
    // fast-forward jumps actually happen on the sparse stretches.
    for seed in SEEDS {
        let sets = seeded_task_sets(&sparse_config(16), seed);
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
        let sets = seeded_task_sets(&sparse_config(16), seed);
        let mut plan = ChurnPlan::new(seed ^ 0xC482);
        plan.push(
            6_000,
            2,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::new(vec![Task::new(0, 2_500, 2).unwrap()]).unwrap(),
            },
        )
        .push(9_000, 9, ChurnKind::Leave)
        .push(
            13_000,
            9,
            ChurnKind::Join {
                tasks: sets[9].clone(),
            },
        );
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
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.buffer_capacity = capacity;
    config.low_level_policy = policy;
    let ic = BlueScaleInterconnect::<E>::with_engine(config, sets).expect("valid task sets");
    System::new(Box::new(ic), sets)
}

#[test]
fn queue_policies_and_deep_buffers_are_bit_identical() {
    // The FIFO ablation at the paper's 8-entry buffers, and 32-entry
    // buffers under both policies: the one request slab serves every
    // capacity, checked inside the full system against the reference
    // comparator-scan buffers.
    let sets = task_sets(&SyntheticConfig::fig6(16));
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
        fingerprint(&mut fifo, HORIZON),
        fingerprint(&mut edf, HORIZON),
        "the policy must change the run, or the FIFO check is vacuous"
    );
}

#[test]
fn detail_recording_matches_event_for_event() {
    // With detail on, the SoA engine abandons its batched counters and
    // writes counters and typed events through directly; the resulting
    // event stream must equal the reference engine's exactly, in order.
    let sets = task_sets(&SyntheticConfig::fig6(16));
    let mut soa = build_system::<SoaCore>(&sets, false);
    let mut reference = build_system::<PerSeEngine>(&sets, false);
    soa.enable_detail();
    reference.enable_detail();
    let a = fingerprint(&mut soa, HORIZON);
    let b = fingerprint(&mut reference, HORIZON);
    assert_eq!(a, b, "detail run: fingerprints must match");
    let ea = soa.interconnect().metrics().events();
    let eb = reference.interconnect().metrics().events();
    assert!(!eb.is_empty(), "the detail run must record events");
    assert_eq!(ea, eb, "typed event streams must match event for event");
}

/// A sparse deep tree with three quiet corners: leaf SE 5 serves only
/// client 20 and leaf SE 9 only client 36, each with one request per
/// 4,000 cycles (more than two of their ~1,800-cycle server periods), and
/// depth-2 SE 3 (clients 48–63) serves nobody.
fn deep_quiet_sets() -> Vec<TaskSet> {
    let mut sets = seeded_task_sets(&sparse_config(256), SEED);
    let quiet = || TaskSet::new(vec![Task::new(0, 4_000, 2).unwrap()]).unwrap();
    for client in (21..24).chain(37..40).chain(48..64) {
        sets[client] = TaskSet::empty();
    }
    sets[20] = quiet();
    sets[36] = quiet();
    sets
}

/// Churn and faults aimed at [`deep_quiet_sets`]' quiet corners: client
/// 20 is retasked ~7,850 cycles after its last request, so the staged
/// swap commits inside a multi-crossing catch-up when the slot is next
/// read; client 36 leaves and rejoins on an idle SE; grant lines of the
/// idle depth-2 SE 3, a busy depth-2 SE and the quiet leaf SE 5 are held
/// stuck for a while.
fn deep_quiet_plans() -> (ChurnPlan, FaultPlan) {
    let mut churn = ChurnPlan::new(SEED ^ 0xDEE9);
    churn
        .push(
            7_900,
            20,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::new(vec![Task::new(0, 9_000, 2).unwrap()]).unwrap(),
            },
        )
        .push(5_000, 36, ChurnKind::Leave)
        .push(
            11_000,
            36,
            ChurnKind::Join {
                tasks: TaskSet::new(vec![Task::new(0, 4_000, 2).unwrap()]).unwrap(),
            },
        );
    let mut faults = FaultPlan::new(SEED ^ 0xDEE9);
    let stuck = |depth, order, port| FaultKind::StuckGrant { depth, order, port };
    faults
        .push(stuck(2, 3, 1), FaultWindow::new(2_000, 2_600))
        .push(stuck(2, 0, 0), FaultWindow::new(3_000, 3_400))
        .push(stuck(3, 5, 0), FaultWindow::new(9_000, 9_100));
    (churn, faults)
}

fn deep_quiet_system<E: Engine>(sets: &[TaskSet]) -> System<BlueScaleInterconnect<E>> {
    let mut sys = build_system::<E>(sets, false);
    let (churn, faults) = deep_quiet_plans();
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
    let fa = fingerprint(a, horizon);
    let fb = fingerprint(b, horizon);
    assert!(fb.0[0] > 0, "{label}: the workload must issue requests");
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
        let sets = seeded_task_sets(&sparse_config(clients), SEED);
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
    let sets = deep_quiet_sets();
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
    let sets = deep_quiet_sets();
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
