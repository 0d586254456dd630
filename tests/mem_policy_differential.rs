//! Differential tests for the memory-policy seam (DESIGN.md §16).
//!
//! Two obligations, one suite:
//!
//! * **`Unregulated` is bit-identical to having no policy at all.** The
//!   default policy must leave every engine on its exact pre-policy code
//!   path. These tests run the identical seeded workload on the per-SE
//!   reference engine (the differential oracle), the serial SoA engine and
//!   the sharded engine at 1/2/4 workers, over dense, sparse+faulted and
//!   churned scenarios, and require bit-identical fingerprints — counts,
//!   per-client counts, per-SE forwards, per-port grants and
//!   replenishments, and full latency/blocking sample sequences.
//! * **Active policies agree across engines.** A policy's defer verdict is
//!   a pure function of `(now, candidates)`, and all three engines feed it
//!   the same candidates in the same order — so per-bank regulation,
//!   blacklisting and deterministic memory must also fingerprint
//!   identically on reference, SoA and sharded runs, with the deferral
//!   actually biting (the check would be vacuous otherwise).

use bluescale::element::PerSeEngine;
use bluescale::network::Engine;
use bluescale::soa::SoaCore;
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_interconnect::admission::ChurnPlan;
use bluescale_interconnect::system::System;
use bluescale_mem::MemPolicyConfig;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0x3E40;
const HORIZON: u64 = 20_000;
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

fn task_sets(config: &SyntheticConfig) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(SEED);
    generate(config, &mut rng)
}

/// Low-utilization, long-period workload: real idle stretches, so the
/// fast-forward path runs against the policy's `next_unblock` bound.
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

fn config_for(sets: &[TaskSet], policy: &MemPolicyConfig) -> BlueScaleConfig {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = true;
    config.mem_policy = policy.clone();
    config
}

fn build_serial<E: Engine>(
    sets: &[TaskSet],
    policy: &MemPolicyConfig,
) -> System<BlueScaleInterconnect<E>> {
    let ic = BlueScaleInterconnect::<E>::with_engine(config_for(sets, policy), sets)
        .expect("valid sets");
    System::new(Box::new(ic), sets)
}

fn build_sharded(sets: &[TaskSet], policy: &MemPolicyConfig, workers: usize) -> ShardedSystem {
    ShardedSystem::new(config_for(sets, policy), sets, workers).expect("valid sets")
}

/// The plan set-up every engine under test accepts.
trait Harness {
    fn set_fault_plan(&mut self, plan: FaultPlan);
    fn set_churn_plan(&mut self, plan: ChurnPlan);
}

impl<E: Engine> Harness for System<BlueScaleInterconnect<E>> {
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        System::set_fault_plan(self, plan);
    }
    fn set_churn_plan(&mut self, plan: ChurnPlan) {
        System::set_churn_plan(self, plan);
    }
}

impl Harness for ShardedSystem {
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        ShardedSystem::set_fault_plan(self, plan);
    }
    fn set_churn_plan(&mut self, plan: ChurnPlan) {
        ShardedSystem::set_churn_plan(self, plan);
    }
}

/// Everything two runs must agree on to count as bit-identical (the
/// fingerprint of `soa_differential.rs`/`shard_differential.rs`).
fn serial_fingerprint<E: Engine>(
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

/// Runs the reference oracle, the serial SoA twin and the sharded twin at
/// every sweep worker count under `policy`, each set up by `prepare`; all
/// fingerprints must be bit-identical. Returns the oracle fingerprint for
/// extra assertions.
fn assert_engines_agree(
    sets: &[TaskSet],
    policy: &MemPolicyConfig,
    prepare: &dyn Fn(&mut dyn Harness),
    label: &str,
) -> (Vec<u64>, Vec<f64>) {
    let mut oracle = build_serial::<PerSeEngine>(sets, policy);
    prepare(&mut oracle);
    let expected = serial_fingerprint(&mut oracle, HORIZON);
    assert!(
        expected.0[0] > 0,
        "{label}: the workload must issue requests"
    );
    let mut soa = build_serial::<SoaCore>(sets, policy);
    prepare(&mut soa);
    let got = serial_fingerprint(&mut soa, HORIZON);
    assert_eq!(
        got, expected,
        "{label}: SoA engine must match the legacy oracle"
    );
    for &workers in &WORKER_SWEEP {
        let mut sharded = build_sharded(sets, policy, workers);
        prepare(&mut sharded);
        let got = shard_fingerprint(&mut sharded, HORIZON);
        assert_eq!(
            got, expected,
            "{label}: sharded run must be bit-identical at {workers} workers"
        );
    }
    expected
}

#[test]
fn unregulated_dense_is_bit_identical_across_engines() {
    let sets = task_sets(&SyntheticConfig::fig6(16));
    assert_engines_agree(
        &sets,
        &MemPolicyConfig::Unregulated,
        &|_| {},
        "unregulated/dense",
    );
}

fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(SEED ^ 0xF00D);
    plan.push(
        FaultKind::RogueDemand {
            client: 1,
            factor: 4,
        },
        FaultWindow::new(2_000, 6_000),
    )
    .push(
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
            client: 2,
            every: 3,
        },
        FaultWindow::new(0, 8_000),
    );
    plan
}

#[test]
fn unregulated_sparse_faulted_is_bit_identical_across_engines() {
    // All five fault classes live at once: the policy mask composes with
    // the stuck-grant mask identically on every engine, and fast-forward
    // still jumps.
    let sets = task_sets(&sparse_config(16));
    assert_engines_agree(
        &sets,
        &MemPolicyConfig::Unregulated,
        &|sys| sys.set_fault_plan(fault_plan()),
        "unregulated/sparse+faults",
    );
}

#[test]
fn unregulated_churn_is_bit_identical_across_engines() {
    use bluescale_interconnect::admission::ChurnKind;
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
    assert_engines_agree(
        &sets,
        &MemPolicyConfig::Unregulated,
        &|sys| sys.set_churn_plan(plan()),
        "unregulated/churn",
    );
}

#[test]
fn active_policies_agree_across_engines() {
    // The tentpole guarantee beyond bit-identity of the default: each
    // *active* policy also fingerprints identically on reference, SoA and
    // sharded runs — the defer verdict is a pure function of
    // (now, candidates), and every engine presents the same candidates.
    let sets = task_sets(&SyntheticConfig::fig6(16));
    for policy in [
        MemPolicyConfig::PerBankRegulation {
            window: 400,
            budget: 8,
        },
        MemPolicyConfig::Blacklisting {
            threshold: 6,
            clear_interval: 2_000,
        },
        MemPolicyConfig::DeterministicMemory {
            dm_clients: vec![0, 5, 11],
        },
    ] {
        let label = format!("active/{}", policy.name());
        assert_engines_agree(&sets, &policy, &|_| {}, &label);
    }
    // The root seam under load from both sides: the defer mask composes
    // with a *root* stuck-grant mask, while DRAM jitter stretches service
    // and dropped responses vanish on the way back.
    let policy = MemPolicyConfig::PerBankRegulation {
        window: 400,
        budget: 8,
    };
    assert_engines_agree(
        &sets,
        &policy,
        &|sys| sys.set_fault_plan(root_fault_plan()),
        "active/per-bank+root-faults",
    );
    let mut sys = build_serial::<SoaCore>(&sets, &policy);
    sys.set_fault_plan(root_fault_plan());
    sys.run(HORIZON);
    let merged = sys.merged_registry();
    for (component, counter) in [
        (ComponentId::Memory, Counter::PolicyDeferred),
        (
            ComponentId::Se { depth: 0, order: 0 },
            Counter::FaultsInjected,
        ),
        (ComponentId::Bank(0), Counter::FaultsInjected),
        (ComponentId::System, Counter::ResponsesDropped),
    ] {
        assert!(
            merged.counter(component, counter) > 0,
            "{counter:?} at {component:?} must bite in the root-fault case"
        );
    }
}

/// Interconnect-side faults aimed at the root seam only: a stuck root
/// port, DRAM jitter on the shared bank and dropped responses.
fn root_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(SEED ^ 0x2007);
    plan.push(
        FaultKind::StuckGrant {
            depth: 0,
            order: 0,
            port: 1,
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
            client: 2,
            every: 3,
        },
        FaultWindow::new(0, 8_000),
    );
    plan
}

#[test]
fn active_regulation_actually_defers_in_the_differential_workload() {
    // Guards the agreement test against vacuity: under the dense fig6
    // workload the tight budget must actually defer grants on both serial
    // engines (same count, since the runs are bit-identical).
    let sets = task_sets(&SyntheticConfig::fig6(16));
    let policy = MemPolicyConfig::PerBankRegulation {
        window: 400,
        budget: 8,
    };
    let mut oracle = build_serial::<PerSeEngine>(&sets, &policy);
    oracle.run(HORIZON);
    let mut soa = build_serial::<SoaCore>(&sets, &policy);
    soa.run(HORIZON);
    let deferred = [oracle.merged_registry(), soa.merged_registry()]
        .map(|m| m.counter(ComponentId::Memory, Counter::PolicyDeferred));
    assert!(deferred[0] > 0, "the budget must bite in this workload");
    assert_eq!(deferred[0], deferred[1], "engines defer identically");
}
