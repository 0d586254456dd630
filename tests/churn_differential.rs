//! Differential tests for the online admission-control subsystem.
//!
//! Three contracts are pinned here:
//!
//! * **Inertness.** An *empty* [`ChurnPlan`] is indistinguishable from no
//!   plan at all — bit-identical counts, per-client counts, per-SE/port
//!   counters, and full sample sequences, with fast-forward both on and
//!   off. (This transitively pins the fig5/fig6 markdown to the pre-churn
//!   baseline: those harnesses never install a plan.)
//! * **Fast-forward integration.** With a non-empty plan, the next-event
//!   fast-forward path must never jump over a reconfiguration cycle: the
//!   jumping run and the per-cycle oracle agree bit-for-bit while jumps
//!   actually happen.
//! * **Zero disturbance.** Across every admitted transition of a live
//!   churn plan, clients the plan never touched meet all their deadlines
//!   — the safe mode-change protocol's whole point.
//!
//! Two end-to-end pins close the file: join/update/leave/reject plus a
//! guard quarantine all run through the one reconfiguration path of the
//! real fabric, and quarantine still sheds load from a fabric that has
//! already lost its guarantee.

use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::guard::{GuardConfig, QuarantinePolicy};
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::rng::SimRng;
use bluescale_workload::casestudy::{generate as casestudy, CaseStudyConfig};
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0xC0DE;
const HORIZON: u64 = 20_000;

fn task_sets(config: &SyntheticConfig) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(SEED);
    generate(config, &mut rng)
}

/// Low-utilization, long-period workload: real idle stretches to jump over.
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

fn build_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = true;
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

/// A three-event plan over a sparse workload: retask, leave, rejoin.
fn light_plan(sets: &[TaskSet]) -> ChurnPlan {
    let mut plan = ChurnPlan::new(SEED ^ 0xC482);
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
    plan
}

#[test]
fn empty_churn_plan_is_bit_identical_to_no_plan() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    for fast_forward in [false, true] {
        let mut with_plan = build_system(&sets);
        with_plan.set_churn_plan(ChurnPlan::new(42));
        let mut without = build_system(&sets);
        with_plan.set_fast_forward(fast_forward);
        without.set_fast_forward(fast_forward);
        let a = fingerprint(&mut with_plan, HORIZON);
        let b = fingerprint(&mut without, HORIZON);
        assert!(b.0[0] > 0, "the workload must issue requests");
        assert_eq!(
            a, b,
            "an empty churn plan must be inert (fast_forward={fast_forward})"
        );
    }
}

#[test]
fn fast_forward_never_jumps_over_a_reconfiguration_cycle() {
    let sets = task_sets(&sparse_config(16));
    let mut fast = build_system(&sets);
    let mut slow = build_system(&sets);
    fast.set_churn_plan(light_plan(&sets));
    slow.set_churn_plan(light_plan(&sets));
    fast.set_fast_forward(true);
    slow.set_fast_forward(false);
    let a = fingerprint(&mut fast, HORIZON);
    let b = fingerprint(&mut slow, HORIZON);
    assert_eq!(a, b, "fast-forward must be bit-identical under churn");
    assert!(
        fast.fast_forward_jumps() > 0,
        "the sparse churned run must still jump, or the check is vacuous"
    );
    for sys in [&fast, &slow] {
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::Admitted),
            3,
            "all three churn events are feasible and must be admitted"
        );
    }
}

#[test]
fn merged_registry_counts_churn_exactly_once() {
    // Churn accounting (`Reconfigurations`/`Admitted`/`AdmissionRejected`)
    // is owned by the harness registry alone; the fabric must not tally it
    // too, or `merged_registry()` doubles every admitted transition.
    let sets = task_sets(&sparse_config(16));
    let mut sys = build_system(&sets);
    sys.set_churn_plan(light_plan(&sets));
    sys.run(HORIZON);
    for counter in [
        Counter::Reconfigurations,
        Counter::Admitted,
        Counter::AdmissionRejected,
        Counter::TransitionCycles,
    ] {
        let system_count = sys.registry().counter(ComponentId::System, counter);
        let fabric_count = sys
            .interconnect()
            .metrics()
            .counter(ComponentId::System, counter);
        assert_eq!(
            fabric_count, 0,
            "{counter:?}: the fabric registry must not tally churn"
        );
        let merged = sys.merged_registry().counter(ComponentId::System, counter);
        assert_eq!(
            merged, system_count,
            "{counter:?}: merged view must equal the harness tally"
        );
    }
    // `TransitionCycles` used to be tallied a second time per affected SE
    // by the fabric registry; pin that no SE component carries it anymore,
    // and that the single-owner total survives the merge untouched.
    let config = sys.interconnect().config().clone();
    for depth in 0..config.levels() {
        for order in 0..config.elements_at(depth) {
            assert_eq!(
                sys.interconnect()
                    .metrics()
                    .counter(ComponentId::Se { depth, order }, Counter::TransitionCycles),
                0,
                "se.{depth}.{order}: the fabric must not tally transition cycles"
            );
        }
    }
    let transition_total = sys
        .merged_registry()
        .counter(ComponentId::System, Counter::TransitionCycles);
    assert!(
        transition_total > 0,
        "admitted deferred swaps must report a nonzero transition latency"
    );
    assert_eq!(
        transition_total,
        sys.registry()
            .counter(ComponentId::System, Counter::TransitionCycles),
        "the merged transition-cycle total must equal the harness tally exactly"
    );
    assert_eq!(
        sys.registry()
            .counter(ComponentId::System, Counter::Admitted),
        3,
        "all three churn events are feasible and must be admitted"
    );
}

#[test]
fn transitions_never_disturb_untouched_tenants() {
    // Schedulable case-study workloads under live churn: every client the
    // plan does not touch keeps its guarantee through all transitions.
    let churned = [3u32, 7u32];
    let mut admitted_total = 0;
    for seed in 0..3u64 {
        for &target in &[0.3, 0.5] {
            let mut rng = SimRng::seed_from(4_000 + seed);
            let sets = casestudy(&CaseStudyConfig::fig7(16, target), &mut rng);
            let mut sys = build_system(&sets);
            if !sys.interconnect().composition().schedulable {
                continue;
            }
            // Case-study generation may leave a client idle; a Join must
            // declare at least one task, so fall back to a light tenant.
            let rejoin = if sets[churned[1] as usize].is_empty() {
                TaskSet::new(vec![Task::new(0, 2_000, 1).unwrap()]).unwrap()
            } else {
                sets[churned[1] as usize].clone()
            };
            let mut plan = ChurnPlan::new(seed);
            plan.push(
                5_000,
                churned[0],
                ChurnKind::UpdateTasks {
                    tasks: TaskSet::new(vec![Task::new(0, 1_000, 2).unwrap()]).unwrap(),
                },
            )
            .push(9_000, churned[1], ChurnKind::Leave)
            .push(13_000, churned[1], ChurnKind::Join { tasks: rejoin });
            sys.set_churn_plan(plan);
            sys.run(HORIZON);
            for (c, m) in sys.per_client_metrics().iter().enumerate() {
                if churned.contains(&(c as u32)) {
                    continue;
                }
                assert_eq!(
                    m.missed(),
                    0,
                    "seed {seed}, target {target}: untouched client {c} \
                     missed {} deadlines across transitions",
                    m.missed()
                );
            }
            admitted_total += sys
                .registry()
                .counter(ComponentId::System, Counter::Admitted);
        }
    }
    assert!(
        admitted_total > 0,
        "at least some transitions must actually be admitted"
    );
}

#[test]
fn rejected_reconfigurations_roll_back_bit_identically_mid_run() {
    // A hog request mid-run is rejected; the run must continue exactly as
    // if the request never arrived (compare against a run with no plan).
    let sets = task_sets(&sparse_config(16));
    let mut churned = build_system(&sets);
    let mut baseline = build_system(&sets);
    let mut plan = ChurnPlan::new(7);
    plan.push(
        8_000,
        5,
        ChurnKind::UpdateTasks {
            tasks: TaskSet::new(vec![Task::new(0, 10, 9).unwrap()]).unwrap(),
        },
    );
    churned.set_churn_plan(plan);
    let a = fingerprint(&mut churned, HORIZON);
    let b = fingerprint(&mut baseline, HORIZON);
    assert_eq!(
        churned
            .registry()
            .counter(ComponentId::System, Counter::AdmissionRejected),
        1,
        "the hog must be rejected"
    );
    assert_eq!(a, b, "a rejected request must leave no trace");
}

fn set(period: u64, wcet: u64) -> TaskSet {
    TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap()
}

#[test]
fn churn_and_quarantine_share_one_reconfiguration_path() {
    const SEED: u64 = 0x00AD_0051;
    const HORIZON: u64 = 8_000;
    // 15 light tenants plus one empty slot for the join; ~10% combined
    // utilization so every churn event below but the hog is feasible.
    let mut sets: Vec<TaskSet> = (0..16).map(|i| set(400 + 10 * (i % 7), 2)).collect();
    sets[15] = TaskSet::empty();
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = false; // strict gating: a rogue must miss
    let ic = BlueScaleInterconnect::new(config, &sets).unwrap();
    let mut sys = System::new(Box::new(ic), &sets);

    let mut churn = ChurnPlan::new(SEED);
    churn
        .push(1_000, 15, ChurnKind::Join { tasks: set(500, 2) })
        .push(2_000, 2, ChurnKind::UpdateTasks { tasks: set(300, 3) })
        .push(2_500, 4, ChurnKind::UpdateTasks { tasks: set(10, 9) })
        .push(3_000, 14, ChurnKind::Leave);
    sys.set_churn_plan(churn);

    // A rogue tenant overdrives its declared demand 6x; with strict
    // budgets it starts missing deadlines and the guard layer demotes it
    // through the reconfiguration path.
    let mut faults = FaultPlan::new(SEED);
    faults.push(
        FaultKind::RogueDemand {
            client: 0,
            factor: 6,
        },
        FaultWindow::new(500, HORIZON),
    );
    sys.set_fault_plan(faults);
    sys.set_guards(GuardConfig {
        deadline_miss_detection: true,
        watchdog: None,
        quarantine: Some(QuarantinePolicy { miss_threshold: 8 }),
    })
    .unwrap();

    let total = sys.run(HORIZON);
    let outstanding = sys.guard_outstanding() as u64;
    let reg = sys.registry();
    let count = |counter| reg.counter(ComponentId::System, counter);
    assert_eq!(
        count(Counter::Admitted),
        3,
        "join + update + leave must pass admission"
    );
    assert_eq!(
        count(Counter::AdmissionRejected),
        1,
        "the hog must be rejected"
    );
    assert_eq!(
        count(Counter::Quarantines),
        1,
        "the rogue tenant must be quarantined"
    );
    assert_eq!(
        count(Counter::Reconfigurations),
        4,
        "3 admitted churn events + 1 quarantine demotion"
    );
    assert!(
        count(Counter::TransitionCycles) > 0,
        "staged swaps must wait for replenishment boundaries"
    );
    assert_eq!(
        total.issued(),
        total.completed() + total.backlog() + outstanding,
        "request conservation: issued = completed + backlog + outstanding"
    );
}

#[test]
fn quarantine_sheds_load_from_an_unschedulable_fabric() {
    // Clients 0–3 load leaf SE 0 to utilization 1.2: it falls back and
    // the fabric is not schedulable. Quarantining client 5 must still shed
    // its reservation and count, not silently mark it quarantined.
    let mut sets: Vec<TaskSet> = (0..16).map(|_| set(400, 4)).collect();
    for tasks in &mut sets[..4] {
        *tasks = set(100, 30);
    }
    let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets).unwrap();
    assert!(!ic.composition().schedulable);
    let mut sys = System::new(Box::new(ic), &sets);
    assert!(sys.quarantine_client(5), "the shed takes effect");
    assert_eq!(sys.quarantined_clients(), vec![5]);
    assert_eq!(
        sys.registry()
            .counter(ComponentId::System, Counter::Quarantines),
        1
    );
    let (order, port) = sys.interconnect().config().attach_point(5);
    let leaf = sys.interconnect().config().levels() - 1;
    assert!(sys.interconnect().client_tasks()[5].is_empty());
    assert!(sys.interconnect().composition().interfaces[leaf][order][port].is_none());
    // An overloading client sheds too, through the same path.
    assert!(sys.quarantine_client(0));
    assert_eq!(
        sys.registry()
            .counter(ComponentId::System, Counter::Quarantines),
        2
    );
}
