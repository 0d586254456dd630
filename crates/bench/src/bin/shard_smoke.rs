//! Fast sharded-execution smoke check for `scripts/check.sh`.
//!
//! Drives one [`ShardedSystem`] at 4 workers through live churn and all
//! five fault classes at once, then asserts request conservation —
//! every accepted request either completed exactly once, stayed in the
//! client backlog, is still inside the fabric or memory controller, or
//! was dropped by the response-drop fault — and that the run is
//! bit-identical to the serial SoA harness on the same seed. Exits
//! non-zero on violation.
//!
//! Usage: `cargo run --release -p bluescale-bench --bin shard_smoke`

use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0x54A2_D0CE;
const HORIZON: u64 = 20_000;
const WORKERS: usize = 4;

fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(SEED);
    plan.push(
        FaultKind::RogueDemand {
            client: 0,
            factor: 4,
        },
        FaultWindow::new(500, 3_000),
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
            order: 1,
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

fn churn_plan(sets: &[TaskSet]) -> ChurnPlan {
    let mut plan = ChurnPlan::new(SEED ^ 0xC482);
    plan.push(
        6_000,
        2,
        ChurnKind::UpdateTasks {
            tasks: TaskSet::new(vec![Task::new(0, 2_500, 2).expect("valid task")])
                .expect("valid set"),
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

fn config_for(clients: usize) -> BlueScaleConfig {
    let mut config = BlueScaleConfig::for_clients(clients);
    config.work_conserving = true;
    config
}

fn main() {
    let mut rng = SimRng::seed_from(SEED);
    let sets = generate(
        &SyntheticConfig {
            clients: 64,
            util_lo: 0.05,
            util_hi: 0.10,
            max_tasks_per_client: 1,
            period_min: 2_000,
            period_max: 4_000,
            util_floor: 1e-4,
        },
        &mut rng,
    );

    let mut sys =
        ShardedSystem::new(config_for(sets.len()), &sets, WORKERS).expect("valid workload");
    sys.set_fault_plan(fault_plan());
    sys.set_churn_plan(churn_plan(&sets));
    let mut total = sys.run(HORIZON);

    let pending = sys.pending() as u64;
    let merged = sys.merged_registry();
    let injected = merged.counter(ComponentId::System, Counter::FaultsInjected);
    let dropped = merged.counter(ComponentId::System, Counter::ResponsesDropped);
    let admitted = merged.counter(ComponentId::System, Counter::Admitted);

    println!(
        "shard smoke: workers={} issued={} completed={} backlog={} pending={} \
         faults_injected={} dropped={} admitted={} ff_jumps={}",
        sys.workers(),
        total.issued(),
        total.completed(),
        total.backlog(),
        pending,
        injected,
        dropped,
        admitted,
        sys.fast_forward_jumps(),
    );

    assert_eq!(
        sys.workers(),
        WORKERS,
        "the smoke must actually run 4 workers"
    );
    assert!(injected > 0, "fault plan never fired");
    assert!(dropped > 0, "drop-response fault never fired");
    assert_eq!(admitted, 3, "all three churn events must be admitted");
    assert!(sys.fast_forward_jumps() > 0, "the sparse run must jump");
    assert_eq!(
        total.issued(),
        total.completed() + total.backlog() + pending + dropped,
        "request conservation violated: issued != completed + backlog + pending + dropped"
    );

    // The serial SoA harness on the same seed is the oracle: counts and
    // full sample sequences must be bit-identical at 4 workers.
    let ic = BlueScaleInterconnect::new(config_for(sets.len()), &sets).expect("valid workload");
    let mut oracle = System::new(Box::new(ic), &sets);
    oracle.set_fault_plan(fault_plan());
    oracle.set_churn_plan(churn_plan(&sets));
    let mut expected = oracle.run(HORIZON);
    assert_eq!(
        (
            expected.issued(),
            expected.completed(),
            expected.missed(),
            expected.backlog()
        ),
        (
            total.issued(),
            total.completed(),
            total.missed(),
            total.backlog()
        ),
        "sharded counts diverged from the serial oracle"
    );
    assert_eq!(
        expected.latency().as_slice(),
        total.latency().as_slice(),
        "sharded latency samples diverged from the serial oracle"
    );
    assert_eq!(
        expected.blocking().as_slice(),
        total.blocking().as_slice(),
        "sharded blocking samples diverged from the serial oracle"
    );
    println!("shard smoke: conservation holds, serial oracle matches");
}
