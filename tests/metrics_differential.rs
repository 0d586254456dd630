//! Differential test: enabling the observability layer's detail recording
//! (typed events + request lifecycles) must not change a single
//! scheduling decision or latency result.
//!
//! Two identical BlueScale systems run the same seeded workload; one has
//! detail recording on, the other off. Every externally visible quantity
//! — issue/completion/miss counts, the full latency sample sequences,
//! per-SE forward counts and per-port grant tallies — must be
//! bit-identical. The detail-enabled run must additionally have recorded
//! events and lifecycle breakdowns, proving it actually observed the run
//! it did not perturb.

use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, SampleKind};
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

const SEED: u64 = 0xD1FF;
const HORIZON: u64 = 20_000;

fn task_sets(clients: usize) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(SEED);
    generate(&SyntheticConfig::fig6(clients), &mut rng)
}

fn build_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    let mut config = BlueScaleConfig::for_clients(sets.len());
    config.work_conserving = true;
    let ic = BlueScaleInterconnect::new(config, sets).expect("valid task sets");
    System::new(Box::new(ic), sets)
}

#[test]
fn detail_recording_does_not_change_any_decision() {
    let sets = task_sets(16);

    let mut plain = build_system(&sets);
    let mut observed = build_system(&sets);
    observed.enable_detail();

    let mut m_plain = plain.run(HORIZON);
    let mut m_observed = observed.run(HORIZON);

    // Aggregate counts are identical.
    assert_eq!(m_plain.issued(), m_observed.issued());
    assert_eq!(m_plain.completed(), m_observed.completed());
    assert_eq!(m_plain.missed(), m_observed.missed());
    assert_eq!(m_plain.backlog(), m_observed.backlog());
    assert!(
        m_plain.completed() > 0,
        "the workload must exercise the tree"
    );

    // The full latency/blocking sample sequences are identical — not just
    // summary statistics, every response in order.
    assert_eq!(
        m_plain.latency().as_slice(),
        m_observed.latency().as_slice()
    );
    assert_eq!(
        m_plain.blocking().as_slice(),
        m_observed.blocking().as_slice()
    );

    // Per-client slices are identical.
    let per_plain = plain.per_client_metrics();
    let per_observed = observed.per_client_metrics();
    for (a, b) in per_plain.iter().zip(&per_observed) {
        assert_eq!(a.issued(), b.issued());
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.missed(), b.missed());
    }

    // Every SE forwarded the same requests and every port granted the
    // same number of times.
    let ic_plain = plain.interconnect();
    let ic_observed = observed.interconnect();
    assert_eq!(ic_plain.forward_counts(), ic_observed.forward_counts());
    let config = BlueScaleConfig::for_clients(16);
    for depth in 0..config.levels() {
        for order in 0..config.elements_at(depth) {
            let grants_plain =
                ic_plain
                    .metrics()
                    .port_counters(depth, order, config.branch, Counter::Grants);
            let grants_observed =
                ic_observed
                    .metrics()
                    .port_counters(depth, order, config.branch, Counter::Grants);
            assert_eq!(grants_plain, grants_observed, "se.{depth}.{order} grants");
        }
    }

    // The observed run actually recorded detail; the plain one stayed dark.
    assert!(ic_plain.metrics().events().is_empty());
    assert!(!ic_observed.metrics().events().is_empty());
    let breakdowns = ic_observed
        .metrics()
        .samples(ComponentId::Client(0), SampleKind::Queueing)
        .expect("lifecycle breakdowns recorded");
    assert!(!breakdowns.as_slice().is_empty());
}

#[test]
fn detail_recording_is_inert_under_a_rogue_client() {
    // The throttling path (budget exhaustion, Throttle events) fires hard
    // when a client floods; detail recording must stay inert there too.
    let sets = task_sets(16);

    let rogue = || {
        let mut plan = FaultPlan::default();
        plan.push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 8,
            },
            FaultWindow::ALWAYS,
        );
        plan
    };
    let mut plain = build_system(&sets);
    plain.set_fault_plan(rogue());
    let mut observed = build_system(&sets);
    observed.set_fault_plan(rogue());
    observed.enable_detail();

    let m_plain = plain.run(HORIZON);
    let m_observed = observed.run(HORIZON);

    assert_eq!(m_plain.issued(), m_observed.issued());
    assert_eq!(m_plain.completed(), m_observed.completed());
    assert_eq!(m_plain.missed(), m_observed.missed());
    assert_eq!(
        plain.interconnect().forward_counts(),
        observed.interconnect().forward_counts()
    );
    // Throttling happened and was observed — without changing it.
    let root = ComponentId::Se { depth: 0, order: 0 };
    let t_plain = plain
        .interconnect()
        .metrics()
        .counter(root, Counter::ThrottledCycles);
    let t_observed = observed
        .interconnect()
        .metrics()
        .counter(root, Counter::ThrottledCycles);
    assert_eq!(t_plain, t_observed);
}
