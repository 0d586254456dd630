//! Differential tests pinning the sharded parallel simulation to the
//! serial SoA engine.
//!
//! [`ShardedSystem`] advances each level-1 subtree on its own worker and
//! synchronizes at root-arbitration boundaries (conservative PDES,
//! DESIGN.md §14). These tests run the identical seeded workload on the
//! serial harness (`System` over the SoA engine — itself pinned to the
//! legacy engine by `soa_differential.rs`) and on the sharded twin at
//! 1/2/4/8 workers, and require bit-identical fingerprints
//! (`bluescale_bench::invariants::Fingerprint`), the requested worker
//! count, and request conservation on every sharded run
//! (`issued = completed + backlog + pending + dropped`) across:
//!
//! * the paper's fig6 dense workload in strict and work-conserving modes,
//! * a sparse faulted run (stuck grants, DRAM jitter, dropped responses,
//!   request bursts) with fast-forward jumping,
//! * a live churn plan (retask, leave, rejoin) with fast-forward on,
//! * a single-root-port stress where one shard carries all the load and
//!   the other subtrees idle (the shard-boundary worst case), and
//! * a worker-count determinism sweep: one seed, 1/2/4/8 workers,
//!   byte-identical `merged_registry` JSON, and
//! * span-chunked stepping: 128 short `advance_to` slices, each one
//!   starting and stopping the worker threads, against one `advance_to`,
//!   and
//! * deep trees at 1/2/4 workers (256 and 1,024 clients): plain sparse
//!   runs, where most of each shard's SEs idle and their server
//!   countdowns settle lazily, plus a 256-client run that retasks, leaves
//!   and rejoins clients on long-idle leaf SEs and holds a grant line of
//!   an idle depth-2 SE stuck.

use bluescale::soa::SoaCore;
use bluescale::ShardedSystem;
use bluescale_bench::invariants::{
    build_serial, build_sharded, config_for, deep_quiet_plans, deep_quiet_sets, light_churn_plan,
    run_checked, sparse_config, sparse_fault_plan, task_sets, Harness, Scenario,
};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0x5AAD;
const HORIZON: u64 = 20_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Runs the serial oracle once and the sharded twin at every sweep worker
/// count; all five fingerprints must be bit-identical.
fn assert_sharded_agrees(
    sets: &[TaskSet],
    work_conserving: bool,
    prepare: &dyn Fn(&mut dyn Harness),
    label: &str,
) -> Vec<ShardedSystem> {
    assert_sharded_agrees_at(
        sets,
        work_conserving,
        prepare,
        label,
        HORIZON,
        &WORKER_SWEEP,
    )
}

/// [`assert_sharded_agrees`] over `horizon` cycles at the given worker
/// counts.
fn assert_sharded_agrees_at(
    sets: &[TaskSet],
    work_conserving: bool,
    prepare: &dyn Fn(&mut dyn Harness),
    label: &str,
    horizon: u64,
    worker_counts: &[usize],
) -> Vec<ShardedSystem> {
    let scenario = Scenario {
        sets,
        config: config_for(sets, work_conserving),
        horizon,
        prepare,
        label,
    };
    let (_, expected) = scenario.serial::<SoaCore>();
    scenario.assert_sharded(&expected, worker_counts)
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    assert_sharded_agrees(&sets, false, &|_| {}, "fig6/strict");
}

#[test]
fn fig6_work_conserving_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    assert_sharded_agrees(&sets, true, &|_| {}, "fig6/work-conserving");
}

#[test]
fn fault_plan_is_bit_identical() {
    // Stuck-grant masks (queried shard-side under global coordinates),
    // jittered service and dropped responses (coordinator-side, stateful)
    // and request bursts (worker-side) all cross the shard boundary; every
    // worker count must agree while fast-forward still jumps.
    let sets = task_sets(&sparse_config(16), SEED);
    let runs = assert_sharded_agrees(
        &sets,
        true,
        &|sys| sys.set_fault_plan(sparse_fault_plan(SEED)),
        "sparse + faults",
    );
    for mut sys in runs {
        assert!(
            sys.fast_forwarded_cycles() > 0,
            "the sparse faulted run must still find idle stretches to jump"
        );
        let merged = sys.merged_registry();
        for counter in [Counter::FaultsInjected, Counter::ResponsesDropped] {
            assert!(
                merged.counter(ComponentId::System, counter) > 0,
                "{counter:?}: the fault plan must fire at {} workers",
                sys.workers()
            );
        }
    }
}

#[test]
fn churn_plan_is_bit_identical() {
    // Retask, leave, rejoin: admission runs coordinator-side on the
    // analysis tables while the deferred (Π,Θ) swaps are programmed into
    // the owning shard's core — and the transition-latency tally must
    // match the serial engine's cycle for cycle.
    let sets = task_sets(&sparse_config(16), SEED);
    let runs = assert_sharded_agrees(
        &sets,
        true,
        &|sys| sys.set_churn_plan(light_churn_plan(&sets, SEED)),
        "churn plan",
    );
    for sys in &runs {
        assert!(
            sys.fast_forward_jumps() > 0,
            "the sparse churned run must still jump, or the check is vacuous"
        );
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::Admitted),
            3,
            "all three churn events are feasible and must be admitted"
        );
    }
}

#[test]
fn single_busy_shard_is_bit_identical() {
    // Shard-boundary stress: every request funnels through one root port
    // while the other subtrees stay idle — the conservative barrier must
    // not deadlock, starve or reorder the busy shard's boundary offers.
    let clients = 16;
    let busy = clients / 4; // subtree 0 only (branch = 4)
    let sets: Vec<TaskSet> = (0..clients)
        .map(|i| {
            if i < busy {
                TaskSet::new(vec![Task::new(0, 24, 3).unwrap()]).unwrap()
            } else {
                TaskSet::empty()
            }
        })
        .collect();
    let runs = assert_sharded_agrees(&sets, true, &|_| {}, "single busy shard");
    for sys in &runs {
        let issued = sys.registry().counter(ComponentId::System, Counter::Issued);
        assert!(issued > 1_000, "the busy subtree must carry real load");
    }
}

#[test]
fn merged_registry_is_byte_identical_across_worker_counts() {
    // Satellite: one seed, churn + faults live, 1/2/4/8 workers — the
    // merged registry JSON must agree to the byte, pinning counters,
    // samples and gauges all at once (and pinning that worker count is a
    // pure wall-clock knob).
    let sets = task_sets(&sparse_config(16), SEED);
    let mut reference: Option<String> = None;
    for &workers in &WORKER_SWEEP {
        let mut sys = build_sharded(config_for(&sets, true), &sets, workers);
        sys.set_fault_plan(sparse_fault_plan(SEED));
        let mut plan = ChurnPlan::new(SEED ^ 0xC482);
        plan.push(9_000, 9, ChurnKind::Leave).push(
            13_000,
            9,
            ChurnKind::Join {
                tasks: sets[9].clone(),
            },
        );
        sys.set_churn_plan(plan);
        run_checked(
            &mut sys,
            HORIZON,
            &format!("churn + faults at {workers} workers"),
        );
        let json = sys.merged_registry().to_json();
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(
                &json, expected,
                "merged registry must be byte-identical at {workers} workers"
            ),
        }
    }
    assert!(
        reference.expect("sweep ran").contains("root_bandwidth"),
        "the merged registry must carry the fabric gauge"
    );
}

#[test]
fn span_chunked_advances_are_bit_identical() {
    // The benchmark and the daemon step a sharded system in short
    // `advance_to` slices; every slice spawns and stops the helper
    // threads. A dense run steps every cycle of every slice; the sparse
    // faulted run also jumps idle stretches across slice boundaries.
    const SLICES: u64 = 128;
    let dense = task_sets(&SyntheticConfig::fig6(16), SEED);
    let sparse = task_sets(&sparse_config(16), SEED);
    for (label, sets, faulted) in [("dense", &dense, false), ("sparse + faults", &sparse, true)] {
        let config = config_for(sets, true);
        let mut oracle = build_serial::<SoaCore>(config.clone(), sets);
        if faulted {
            oracle.set_fault_plan(sparse_fault_plan(SEED));
        }
        let expected = run_checked(&mut oracle, HORIZON, label);
        for workers in [2, 4] {
            let build = || {
                let mut sys = build_sharded(config.clone(), sets, workers);
                if faulted {
                    sys.set_fault_plan(sparse_fault_plan(SEED));
                }
                sys
            };
            let whole = run_checked(&mut build(), HORIZON, label);
            let mut chunked = build();
            for slice in 1..=SLICES {
                chunked.advance_to(HORIZON * slice / SLICES);
            }
            assert_eq!(chunked.now(), HORIZON);
            let sliced = run_checked(&mut chunked, HORIZON, label);
            assert_eq!(whole, expected, "{label}: one advance at {workers} workers");
            assert_eq!(
                sliced, expected,
                "{label}: {SLICES} slices at {workers} workers"
            );
        }
    }
}

const DEEP_WORKERS: [usize; 3] = [1, 2, 4];

#[test]
fn deep_sparse_trees_are_bit_identical() {
    for (clients, horizon) in [(256, HORIZON), (1_024, 8_000)] {
        let sets = task_sets(&sparse_config(clients), SEED);
        let label = format!("sparse {clients}");
        let runs = assert_sharded_agrees_at(&sets, true, &|_| {}, &label, horizon, &DEEP_WORKERS);
        for sys in &runs {
            assert!(sys.fast_forward_jumps() > 0, "{label}: the run must jump");
        }
    }
}

#[test]
fn deep_tree_churn_and_stuck_grants_on_idle_ses_are_bit_identical() {
    let sets = deep_quiet_sets(SEED);
    let install = |sys: &mut dyn Harness| {
        let (churn, faults) = deep_quiet_plans(SEED, 9);
        sys.set_churn_plan(churn);
        sys.set_fault_plan(faults);
    };
    let scenario = Scenario {
        sets: &sets,
        config: config_for(&sets, false),
        horizon: HORIZON,
        prepare: &install,
        label: "deep quiet corners",
    };
    let (mut oracle, fingerprint) = scenario.serial::<SoaCore>();
    let expected = oracle.merged_registry().to_json();
    let runs = scenario.assert_sharded(&fingerprint, &DEEP_WORKERS);
    for mut sys in runs {
        let workers = sys.workers();
        let mut reg = sys.merged_registry();
        assert_eq!(
            reg.to_json(),
            expected,
            "merged registry at {workers} workers"
        );
        let se = ComponentId::Se { depth: 2, order: 3 };
        assert_eq!(
            reg.counter(se, Counter::FaultsInjected),
            600,
            "{workers} workers"
        );
    }
}
