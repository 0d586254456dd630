//! Differential tests for the memory-policy seam (DESIGN.md §16).
//!
//! Three obligations, one suite:
//!
//! * **`Unregulated` is bit-identical to having no policy at all.** The
//!   default policy must leave every engine on its exact pre-policy code
//!   path. These tests run the identical seeded workload on the per-SE
//!   reference engine (the differential oracle), the serial SoA engine and
//!   the sharded engine at 1/2/4 workers, over dense, sparse+faulted and
//!   churned scenarios, and require bit-identical fingerprints
//!   (`bluescale_bench::invariants::Fingerprint`); every sharded run also
//!   conserves requests.
//! * **Active policies agree across engines.** A policy's defer verdict is
//!   a pure function of `(now, candidates)`, and all three engines feed it
//!   the same candidates in the same order — so per-bank regulation,
//!   blacklisting and deterministic memory must also fingerprint
//!   identically on reference, SoA and sharded runs, with the deferral
//!   actually biting (the check would be vacuous otherwise).
//! * **Deferral never leaks a request, and regulation isolates.** With all
//!   five fault classes live and guards armed, every active policy
//!   conserves requests; on AXI-IC^RT the calibrated per-bank budget keeps
//!   a rogue's victims miss-free where the unregulated controller does
//!   not.

use bluescale::element::PerSeEngine;
use bluescale::soa::SoaCore;
use bluescale::BlueScaleConfig;
use bluescale_baselines::AxiIcRt;
use bluescale_bench::invariants::{
    assert_conserved, build_serial, config_for, light_churn_plan, sparse_config, task_sets,
    Harness, Scenario,
};
use bluescale_bench::mem_policy::{pick_target, policies, regulation_for, scenario_plan};
use bluescale_interconnect::guard::{GuardConfig, WatchdogConfig};
use bluescale_interconnect::system::System;
use bluescale_mem::{DramConfig, MemPolicyConfig};
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultClass, FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0x3E40;
const HORIZON: u64 = 20_000;
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

fn config_with(sets: &[TaskSet], policy: &MemPolicyConfig) -> BlueScaleConfig {
    BlueScaleConfig {
        mem_policy: policy.clone(),
        ..config_for(sets, true)
    }
}

/// Runs the reference oracle, the serial SoA twin and the sharded twin at
/// every sweep worker count under `policy`, each set up by `prepare`; all
/// fingerprints must be bit-identical.
fn assert_engines_agree(
    sets: &[TaskSet],
    policy: &MemPolicyConfig,
    prepare: &dyn Fn(&mut dyn Harness),
    label: &str,
) {
    let scenario = Scenario {
        sets,
        config: config_with(sets, policy),
        horizon: HORIZON,
        prepare,
        label,
    };
    let (_, expected) = scenario.serial::<PerSeEngine>();
    let (_, soa) = scenario.serial::<SoaCore>();
    assert_eq!(
        soa, expected,
        "{label}: SoA engine must match the legacy oracle"
    );
    scenario.assert_sharded(&expected, &WORKER_SWEEP);
}

#[test]
fn unregulated_dense_is_bit_identical_across_engines() {
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
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
    let sets = task_sets(&sparse_config(16), SEED);
    assert_engines_agree(
        &sets,
        &MemPolicyConfig::Unregulated,
        &|sys| sys.set_fault_plan(fault_plan()),
        "unregulated/sparse+faults",
    );
}

#[test]
fn unregulated_churn_is_bit_identical_across_engines() {
    let sets = task_sets(&sparse_config(16), SEED);
    assert_engines_agree(
        &sets,
        &MemPolicyConfig::Unregulated,
        &|sys| sys.set_churn_plan(light_churn_plan(&sets, SEED)),
        "unregulated/churn",
    );
}

#[test]
fn active_policies_agree_across_engines() {
    // The tentpole guarantee beyond bit-identity of the default: each
    // *active* policy also fingerprints identically on reference, SoA and
    // sharded runs — the defer verdict is a pure function of
    // (now, candidates), and every engine presents the same candidates.
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
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
    let mut sys = build_serial::<SoaCore>(config_with(&sets, &policy), &sets);
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
    let sets = task_sets(&SyntheticConfig::fig6(16), SEED);
    let policy = MemPolicyConfig::PerBankRegulation {
        window: 400,
        budget: 8,
    };
    let mut oracle = build_serial::<PerSeEngine>(config_with(&sets, &policy), &sets);
    oracle.run(HORIZON);
    let mut soa = build_serial::<SoaCore>(config_with(&sets, &policy), &sets);
    soa.run(HORIZON);
    let deferred = [oracle.merged_registry(), soa.merged_registry()]
        .map(|m| m.counter(ComponentId::Memory, Counter::PolicyDeferred));
    assert!(deferred[0] > 0, "the budget must bite in this workload");
    assert_eq!(deferred[0], deferred[1], "engines defer identically");
}

/// The quick five-fault workload: eight fig6 clients at 10–12.5 %
/// utilization, drawn from a seed of its own and run for 6,000 cycles
/// under a 1,000-cycle regulation window.
const LIGHT_SEED: u64 = 0x3E9;
const LIGHT_HORIZON: u64 = 6_000;
const WINDOW: u64 = 1_000;

fn light_sets() -> Vec<TaskSet> {
    let synthetic = SyntheticConfig {
        util_lo: 0.10,
        util_hi: 0.125,
        ..SyntheticConfig::fig6(8)
    };
    task_sets(&synthetic, LIGHT_SEED)
}

/// All five fault classes at once, packed into the first 4,000 cycles.
fn five_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(LIGHT_SEED ^ 0xF001);
    plan.push(
        FaultKind::RogueDemand {
            client: 1,
            factor: 4,
        },
        FaultWindow::new(500, 3_000),
    )
    .push(
        FaultKind::RequestBurst {
            client: 2,
            requests: 24,
        },
        FaultWindow::new(1_000, 1_001),
    )
    .push(
        FaultKind::StuckGrant {
            depth: 1,
            order: 0,
            port: 0,
        },
        FaultWindow::new(1_500, 1_700),
    )
    .push(
        FaultKind::DramJitter {
            bank: 0,
            max_extra_cycles: 4,
        },
        FaultWindow::new(0, 4_000),
    )
    .push(
        FaultKind::DropResponse {
            client: 3,
            every: 2,
        },
        FaultWindow::new(0, 4_000),
    );
    plan
}

#[test]
fn active_policies_conserve_requests_under_all_five_fault_classes() {
    // Each calibrated active policy on BlueScale with DRAM timing and the
    // bank partition: a deferred grant stays in its RAB, so deferral can
    // never leak a request past the guard layer's tracking.
    let dram = DramConfig::default();
    let sets = light_sets();
    for policy in policies(&sets, WINDOW, dram.banks).into_iter().skip(1) {
        let config = BlueScaleConfig {
            dram: Some(dram),
            ..config_with(&sets, &policy)
        };
        let mut sys = build_serial::<SoaCore>(config, &sets);
        sys.set_bank_partition(dram.banks, dram.row_bytes);
        sys.set_fault_plan(five_fault_plan());
        sys.set_guards(GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: 4_096,
                max_retries: 4,
            }),
            quarantine: None,
        })
        .expect("watchdog timeout clears the deadline windows");
        let metrics = sys.run(LIGHT_HORIZON);
        assert_conserved(&mut sys, &metrics, policy.name());
        assert!(
            sys.merged_registry()
                .counter(ComponentId::System, Counter::FaultsInjected)
                > 0,
            "[{}] fault plan never fired",
            policy.name()
        );
    }
}

#[test]
fn regulation_keeps_axi_victims_miss_free_under_a_rogue() {
    // AXI-IC^RT has no budget gating of its own: an 8x rogue flood
    // degrades its victims unregulated, while the per-bank budget
    // calibrated from declared demand keeps every victim miss-free.
    let dram = DramConfig::default();
    let sets = light_sets();
    let target = pick_target(&sets);
    let regulation = regulation_for(&sets, WINDOW, dram.banks);
    let victim_missed = [MemPolicyConfig::Unregulated, regulation].map(|policy| {
        let ic = AxiIcRt::with_dram_policy(sets.len(), 8, dram, &policy);
        let mut sys = System::new(Box::new(ic), &sets);
        sys.set_bank_partition(dram.banks, dram.row_bytes);
        let rogue = scenario_plan(FaultClass::RogueDemand, LIGHT_HORIZON, LIGHT_SEED, target);
        sys.set_fault_plan(rogue);
        sys.run(LIGHT_HORIZON);
        let per_client = sys.per_client_metrics();
        let victims = per_client
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != target as usize);
        victims.map(|(_, m)| m.missed()).sum::<u64>()
    });
    assert!(
        victim_missed[0] > 0,
        "the unregulated rogue must measurably degrade AXI victims"
    );
    assert_eq!(
        victim_missed[1], 0,
        "per-bank regulation must keep AXI victims miss-free under the rogue"
    );
}
