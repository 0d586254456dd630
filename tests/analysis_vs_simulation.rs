//! The reproduction's central soundness check: when the compositional
//! analysis admits a system (`CompositionReport::schedulable`), the
//! simulated hardware meets every deadline; and the analytic quantities
//! (root bandwidth, interfaces) are consistent with observed behaviour.

use bluescale_repro::core::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_repro::interconnect::system::System;
use bluescale_repro::interconnect::Interconnect;
use bluescale_repro::rt::task::{Task, TaskSet};
use bluescale_repro::sim::rng::SimRng;
use bluescale_repro::workload::casestudy::{generate, CaseStudyConfig};
use bluescale_repro::workload::synthetic::{generate as synth, SyntheticConfig};
use bluescale_repro::workload::total_utilization;

fn build(sets: &[TaskSet], work_conserving: bool) -> BlueScaleInterconnect {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = work_conserving;
    BlueScaleInterconnect::new(config, sets).expect("build succeeds")
}

#[test]
fn schedulable_case_studies_meet_all_deadlines() {
    for seed in 0..5u64 {
        for &target in &[0.3, 0.5, 0.7] {
            let mut rng = SimRng::seed_from(1000 + seed);
            let sets = generate(&CaseStudyConfig::fig7(16, target), &mut rng);
            let ic = build(&sets, true);
            if !ic.composition().schedulable {
                continue; // admission declined: no guarantee to check
            }
            let mut system = System::new(Box::new(ic) as Box<dyn Interconnect>, &sets);
            let m = system.run(30_000);
            assert!(
                m.success(),
                "seed {seed}, target {target}: schedulable composition \
                 missed {} of {} deadlines",
                m.missed(),
                m.issued()
            );
        }
    }
}

#[test]
fn strict_budget_gating_also_meets_deadlines_when_admitted() {
    // The guarantee must hold even without the work-conserving bonus
    // supply — budgets alone are sufficient when admission passes.
    for seed in 0..3u64 {
        let mut rng = SimRng::seed_from(2000 + seed);
        let sets = generate(&CaseStudyConfig::fig7(16, 0.4), &mut rng);
        let ic = build(&sets, false);
        if !ic.composition().schedulable {
            continue;
        }
        let mut system = System::new(Box::new(ic) as Box<dyn Interconnect>, &sets);
        let m = system.run(30_000);
        assert!(
            m.success(),
            "seed {seed}: strict gating missed {} of {}",
            m.missed(),
            m.issued()
        );
    }
}

#[test]
fn root_bandwidth_covers_utilization() {
    // Allocated bandwidth can never be below the real demand it serves.
    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from(3000 + seed);
        let sets = synth(&SyntheticConfig::fig6(16), &mut rng);
        let ic = build(&sets, true);
        let comp = ic.composition();
        if comp.analysis_ok {
            assert!(
                comp.root_bandwidth >= total_utilization(&sets) - 1e-9,
                "seed {seed}: root bandwidth {} below utilization {}",
                comp.root_bandwidth,
                total_utilization(&sets)
            );
        }
    }
}

#[test]
fn admission_declines_overload() {
    // Demand beyond the channel: composition must not claim schedulability.
    let mut rng = SimRng::seed_from(7);
    let sets = generate(&CaseStudyConfig::fig7(16, 0.99), &mut rng);
    if total_utilization(&sets) > 0.97 {
        let ic = build(&sets, true);
        // Either the analysis fell back (analysis_ok = false) or the root
        // check failed; in both cases no guarantee is claimed.
        assert!(!ic.composition().schedulable || ic.composition().root_bandwidth <= 1.0 + 1e-9);
    }
}

#[test]
fn interfaces_on_idle_ports_are_absent() {
    // 5 clients on a 16-leaf quadtree: 11 leaf ports idle.
    let sets: Vec<TaskSet> = {
        let mut rng = SimRng::seed_from(5);
        synth(&SyntheticConfig::fig6(5), &mut rng)
    };
    let ic = build(&sets, true);
    let comp = ic.composition();
    let leaf_level = &comp.interfaces[ic.config().levels() - 1];
    let programmed: usize = leaf_level.iter().flatten().filter(|i| i.is_some()).count();
    assert_eq!(programmed, 5, "exactly one interface per real client");
}

#[test]
fn reconfiguration_preserves_running_traffic() {
    // Update a client's tasks mid-run: the interconnect keeps routing
    // in-flight requests and the new parameters take effect.
    let mut rng = SimRng::seed_from(11);
    let sets = synth(&SyntheticConfig::fig6(16), &mut rng);
    let mut ic = build(&sets, true);
    use bluescale_repro::interconnect::{AccessKind, MemoryRequest};
    // Preload traffic on several clients.
    for c in 0..8u32 {
        ic.inject(
            MemoryRequest {
                id: c as u64,
                client: c,
                task: 0,
                addr: 0,
                kind: AccessKind::Read,
                issued_at: 0,
                deadline: 10_000,
                blocked_cycles: 0,
            },
            0,
        )
        .expect("space");
    }
    for now in 0..10 {
        ic.step(now);
    }
    // A lighter set than client 3's current one, so admission passes on
    // this already well-loaded fabric.
    let new_tasks = TaskSet::new(vec![Task::new(0, 400, 20).unwrap()]).unwrap();
    assert!(
        ic.reconfigure_client(3, &new_tasks, 10).applied(),
        "update admitted"
    );
    assert_eq!(ic.client_tasks()[3], new_tasks);
    let mut done = 0;
    for now in 10..5_000 {
        ic.step(now);
        while ic.pop_response().is_some() {
            done += 1;
        }
    }
    assert_eq!(done, 8, "all preloaded requests completed");
}
