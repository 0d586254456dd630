//! Differential tests pinning the structure-of-arrays engine to the
//! per-SE reference engine.
//!
//! `BlueScaleInterconnect<E>` runs one of two implementations of the same
//! arbitration semantics: the default `core::soa::SoaCore` arena
//! (contiguous server slices, linear-scan GEDF argmin, batched counters,
//! bucketed deadline queues for deep buffers) and the reference
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
//! * a deep-buffer configuration that exercises the bucketed deadline
//!   queue inside the full system, and
//! * a detail-recording run, where the typed event streams of the two
//!   engines must match event for event.
//!
//! The fig6-strict, churn and faults-plus-guards scenarios run on two
//! seeds each.

use bluescale::element::PerSeEngine;
use bluescale::network::Engine;
use bluescale::soa::SoaCore;
use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::guard::{GuardConfig, WatchdogConfig};
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::Counter;
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

#[test]
fn deep_buffers_route_through_the_bucketed_queue_bit_identically() {
    // Capacity 32 exceeds the SoA slab's linear-scan bound, so the leaf
    // and inner port queues run on the bucketed deadline queue inside the
    // full system — against the reference comparator-scan oracle.
    let sets = task_sets(&SyntheticConfig::fig6(16));
    fn mk<E: Engine>(sets: &[TaskSet]) -> System<BlueScaleInterconnect<E>> {
        let mut config = BlueScaleConfig::for_clients(sets.len());
        config.buffer_capacity = 32;
        let ic = BlueScaleInterconnect::<E>::with_engine(config, sets).expect("valid task sets");
        System::new(Box::new(ic), sets)
    }
    assert_engines_agree(mk(&sets), mk(&sets), "deep buffers");
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
