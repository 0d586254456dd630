//! Differential tests pinning the sharded parallel simulation to the
//! serial SoA engine.
//!
//! [`ShardedSystem`] advances each level-1 subtree on its own worker and
//! synchronizes at root-arbitration boundaries (conservative PDES,
//! DESIGN.md §14). These tests run the identical seeded workload on the
//! serial harness (`System` over the SoA engine — itself pinned to the
//! legacy engine by `soa_differential.rs`) and on the sharded twin at
//! 1/2/4/8 workers, and require bit-identical fingerprints — counts,
//! per-client counts, per-SE forwards, per-port grants and
//! replenishments, and full latency/blocking sample sequences — across:
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
//!   starting and stopping the worker threads, against one `advance_to`.

use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::Counter;
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0x5AAD;
const HORIZON: u64 = 20_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn task_sets(config: &SyntheticConfig) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(SEED);
    generate(config, &mut rng)
}

/// Low-utilization, long-period workload: real idle stretches, so the
/// coordinator's fast-forward path is exercised alongside stepping.
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

fn config_for(sets: &[TaskSet], work_conserving: bool) -> BlueScaleConfig {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = work_conserving;
    config
}

fn build_serial(sets: &[TaskSet], work_conserving: bool) -> System<BlueScaleInterconnect> {
    let ic =
        BlueScaleInterconnect::new(config_for(sets, work_conserving), sets).expect("valid sets");
    System::new(Box::new(ic), sets)
}

fn build_sharded(sets: &[TaskSet], work_conserving: bool, workers: usize) -> ShardedSystem {
    ShardedSystem::new(config_for(sets, work_conserving), sets, workers).expect("valid sets")
}

/// Everything two runs must agree on to count as bit-identical.
fn serial_fingerprint(
    sys: &mut System<BlueScaleInterconnect>,
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

/// The sharded twin of [`serial_fingerprint`], field for field.
fn shard_fingerprint(sys: &mut ShardedSystem, horizon: u64) -> (Vec<u64>, Vec<f64>) {
    let mut m = sys.run(horizon);
    let mut counts = vec![m.issued(), m.completed(), m.missed(), m.backlog()];
    for c in sys.per_client_metrics() {
        counts.extend([c.issued(), c.completed(), c.missed()]);
    }
    for level in sys.forward_counts() {
        counts.extend(level);
    }
    let config = sys.config().clone();
    for counter in [Counter::Grants, Counter::Replenishments] {
        for depth in 0..config.levels() {
            for order in 0..config.elements_at(depth) {
                let ports =
                    sys.fabric_metrics()
                        .port_counters(depth, order, config.branch, counter);
                counts.extend(ports);
            }
        }
    }
    let mut samples = m.latency().as_slice().to_vec();
    samples.extend_from_slice(m.blocking().as_slice());
    (counts, samples)
}

/// Runs the serial oracle once and the sharded twin at every sweep worker
/// count; all five fingerprints must be bit-identical.
fn assert_sharded_agrees(
    sets: &[TaskSet],
    work_conserving: bool,
    prepare: impl Fn(&mut System<BlueScaleInterconnect>, &mut ShardedSystem),
    label: &str,
) -> Vec<ShardedSystem> {
    let mut oracle = build_serial(sets, work_conserving);
    let mut probe = build_sharded(sets, work_conserving, 1);
    prepare(&mut oracle, &mut probe);
    drop(probe);
    let expected = serial_fingerprint(&mut oracle, HORIZON);
    assert!(
        expected.0[0] > 0,
        "{label}: the workload must issue requests"
    );
    WORKER_SWEEP
        .iter()
        .map(|&workers| {
            let mut sharded = build_sharded(sets, work_conserving, workers);
            let mut scratch = build_serial(sets, work_conserving);
            prepare(&mut scratch, &mut sharded);
            drop(scratch);
            let got = shard_fingerprint(&mut sharded, HORIZON);
            assert_eq!(
                got, expected,
                "{label}: sharded run must be bit-identical at {workers} workers"
            );
            sharded
        })
        .collect()
}

#[test]
fn fig6_strict_mode_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    assert_sharded_agrees(&sets, false, |_, _| {}, "fig6/strict");
}

#[test]
fn fig6_work_conserving_is_bit_identical() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    assert_sharded_agrees(&sets, true, |_, _| {}, "fig6/work-conserving");
}

fn fault_plan() -> FaultPlan {
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
    plan
}

#[test]
fn fault_plan_is_bit_identical() {
    // Stuck-grant masks (queried shard-side under global coordinates),
    // jittered service and dropped responses (coordinator-side, stateful)
    // and request bursts (worker-side) all cross the shard boundary; every
    // worker count must agree while fast-forward still jumps.
    let sets = task_sets(&sparse_config(16));
    let runs = assert_sharded_agrees(
        &sets,
        true,
        |oracle, sharded| {
            oracle.set_fault_plan(fault_plan());
            sharded.set_fault_plan(fault_plan());
        },
        "sparse + faults",
    );
    for sys in &runs {
        assert!(
            sys.fast_forwarded_cycles() > 0,
            "the sparse faulted run must still find idle stretches to jump"
        );
    }
}

#[test]
fn churn_plan_is_bit_identical() {
    // Retask, leave, rejoin: admission runs coordinator-side on the
    // analysis tables while the deferred (Π,Θ) swaps are programmed into
    // the owning shard's core — and the transition-latency tally must
    // match the serial engine's cycle for cycle.
    let sets = task_sets(&sparse_config(16));
    let plan = {
        let sets = sets.clone();
        move || {
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
    };
    let runs = assert_sharded_agrees(
        &sets,
        true,
        |oracle, sharded| {
            oracle.set_churn_plan(plan());
            sharded.set_churn_plan(plan());
        },
        "churn plan",
    );
    for sys in &runs {
        assert!(
            sys.fast_forward_jumps() > 0,
            "the sparse churned run must still jump, or the check is vacuous"
        );
        assert_eq!(
            sys.registry().counter(
                bluescale_sim::metrics::ComponentId::System,
                Counter::Admitted
            ),
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
    let runs = assert_sharded_agrees(&sets, true, |_, _| {}, "single busy shard");
    for sys in &runs {
        let issued = sys
            .registry()
            .counter(bluescale_sim::metrics::ComponentId::System, Counter::Issued);
        assert!(issued > 1_000, "the busy subtree must carry real load");
    }
}

#[test]
fn merged_registry_is_byte_identical_across_worker_counts() {
    // Satellite: one seed, churn + faults live, 1/2/4/8 workers — the
    // merged registry JSON must agree to the byte, pinning counters,
    // samples and gauges all at once (and pinning that worker count is a
    // pure wall-clock knob).
    let sets = task_sets(&sparse_config(16));
    let mut reference: Option<String> = None;
    for &workers in &WORKER_SWEEP {
        let mut sys = build_sharded(&sets, true, workers);
        sys.set_fault_plan(fault_plan());
        let mut plan = ChurnPlan::new(SEED ^ 0xC482);
        plan.push(9_000, 9, ChurnKind::Leave).push(
            13_000,
            9,
            ChurnKind::Join {
                tasks: sets[9].clone(),
            },
        );
        sys.set_churn_plan(plan);
        sys.run(HORIZON);
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
    let dense = task_sets(&SyntheticConfig::fig6(16));
    let sparse = task_sets(&sparse_config(16));
    for (label, sets, faulted) in [("dense", &dense, false), ("sparse + faults", &sparse, true)] {
        let mut oracle = build_serial(sets, true);
        if faulted {
            oracle.set_fault_plan(fault_plan());
        }
        let expected = serial_fingerprint(&mut oracle, HORIZON);
        for workers in [2, 4] {
            let build = || {
                let mut sys = build_sharded(sets, true, workers);
                if faulted {
                    sys.set_fault_plan(fault_plan());
                }
                sys
            };
            let whole = shard_fingerprint(&mut build(), HORIZON);
            let mut chunked = build();
            for slice in 1..=SLICES {
                chunked.advance_to(HORIZON * slice / SLICES);
            }
            assert_eq!(chunked.now(), HORIZON);
            let sliced = shard_fingerprint(&mut chunked, HORIZON);
            assert_eq!(whole, expected, "{label}: one advance at {workers} workers");
            assert_eq!(
                sliced, expected,
                "{label}: {SLICES} slices at {workers} workers"
            );
        }
    }
}
