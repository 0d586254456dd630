//! Differential test: enabling the observability layer's detail recording
//! (typed events + request lifecycles) must not change a single
//! scheduling decision or latency result.
//!
//! Two identical BlueScale systems run the same seeded workload; one has
//! detail recording on, the other off. Their run fingerprints
//! (`bluescale_bench::invariants::Fingerprint`) must be bit-identical.
//! The detail-enabled run must additionally have recorded events and
//! lifecycle breakdowns, proving it actually observed the run it did not
//! perturb.
//!
//! A last guard pins the storage the span-end folds write through: after
//! a 1,024-client run every `Se` and `Port` tally sits in the registry's
//! dense rows, none in its ordered fallback map.

use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{
    build_serial, build_sharded, config_for, run_checked, sparse_config,
};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_workload::synthetic::SyntheticConfig;

const SEED: u64 = 0xD1FF;
const HORIZON: u64 = 20_000;

fn task_sets(clients: usize) -> Vec<TaskSet> {
    bluescale_bench::invariants::task_sets(&SyntheticConfig::fig6(clients), SEED)
}

fn build_system(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
    build_serial(config_for(sets, true), sets)
}

#[test]
fn detail_recording_does_not_change_any_decision() {
    let sets = task_sets(16);

    let mut plain = build_system(&sets);
    let mut observed = build_system(&sets);
    observed.enable_detail();

    // Counts, per-client counts, per-SE forwards, per-port grants and
    // replenishments, and every sample sequence in order are identical.
    let a = run_checked(&mut plain, HORIZON, "plain");
    let b = run_checked(&mut observed, HORIZON, "observed");
    assert!(a.completed() > 0, "the workload must exercise the tree");
    assert_eq!(a, b, "detail recording must not change a decision");

    // The observed run actually recorded detail; the plain one stayed dark.
    let ic_plain = plain.interconnect();
    let ic_observed = observed.interconnect();
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

    assert_eq!(
        run_checked(&mut plain, HORIZON, "plain"),
        run_checked(&mut observed, HORIZON, "observed")
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

/// Fails if any `Se`/`Port` key of `fabric` lives in a fallback map. The
/// dense rows store no component id, so the registry's `Debug` rendering
/// names an SE or a port only where a map holds it as a key (detail is
/// off: no events or lifecycles name one either).
fn assert_se_and_port_keys_dense(fabric: &MetricsRegistry, label: &str) {
    assert!(
        !fabric.detail(),
        "{label}: the guard reads a detail-off registry"
    );
    let ports = fabric
        .counters_iter()
        .filter(|((c, _), _)| matches!(c, ComponentId::Port { .. }))
        .count();
    assert!(
        ports > 1_000,
        "{label}: the run must tally the tree's ports"
    );
    let rendered = format!("{fabric:?}");
    for name in ["Se {", "Port {"] {
        assert!(
            !rendered.contains(name),
            "{label}: a `{name} .. }}` key fell back to the ordered map"
        );
    }
}

#[test]
fn span_end_folds_keep_se_and_port_keys_dense_at_1024_clients() {
    let sets = bluescale_bench::invariants::task_sets(&sparse_config(1_024), SEED);
    let mut serial = build_system(&sets);
    serial.run(HORIZON);
    assert_se_and_port_keys_dense(serial.interconnect().metrics(), "serial");
    let mut sharded = build_sharded(config_for(&sets, true), &sets, 2);
    sharded.run(HORIZON);
    assert_se_and_port_keys_dense(sharded.fabric_metrics(), "sharded");
}
