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
//! A guard pins the storage the fabric fold writes through: after a
//! 1,024-client run every `Se` and `Port` tally sits in the registry's
//! dense rows, none in its ordered fallback map.
//!
//! The last tests pin when the fabric's batched tallies are folded: when
//! they are read, not after every span. On a 1,024-client sparse workload,
//! advancing in 1, 128 or 1,024 pieces and then folding gives registries
//! byte-identical to one `run`, serially and sharded at 1, 2 and 4
//! workers; the sharded harness registry equals the serial one after
//! every piece; and a span leaves the `&self` fabric read lagging until a
//! folding read brings it back exactly.

use bluescale::BlueScaleInterconnect;
use bluescale_bench::invariants::{
    build_serial, build_sharded, config_for, run_checked, sparse_config, Harness,
};
use bluescale_interconnect::system::System;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::Cycle;
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

fn sparse_sets() -> Vec<TaskSet> {
    bluescale_bench::invariants::task_sets(&sparse_config(1_024), SEED)
}

/// Whether two registries hold the same counters, gauges, stats and
/// sample sequences — what `to_json` renders, without its cost, so it can
/// run after every piece of an advance.
fn same_tallies(a: &MetricsRegistry, b: &MetricsRegistry) -> bool {
    let stats = |m: &MetricsRegistry| {
        m.stats_iter()
            .map(|(k, s)| (k, s.count(), s.mean().to_bits(), s.max().map(f64::to_bits)))
            .collect::<Vec<_>>()
    };
    let samples = |m: &MetricsRegistry| {
        m.samples_iter()
            .map(|(k, s)| (k, s.as_slice().iter().map(|v| v.to_bits()).collect()))
            .collect::<Vec<(_, Vec<u64>)>>()
    };
    a.counters_iter().eq(b.counters_iter())
        && a.gauges_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .eq(b.gauges_iter().map(|(k, v)| (k, v.to_bits())))
        && stats(a) == stats(b)
        && samples(a) == samples(b)
}

/// Advances `sys` to `horizon` in `pieces` equal `advance_to` steps,
/// calling `after_piece` after each, then closes the run and folds.
/// Returns the harness and fabric registries as JSON.
fn sliced(
    sys: &mut impl Harness,
    pieces: Cycle,
    mut after_piece: impl FnMut(&mut dyn Harness, Cycle),
) -> (String, String) {
    for k in 1..=pieces {
        let cut = HORIZON * k / pieces;
        sys.advance_to(cut);
        after_piece(sys, cut);
    }
    sys.run(HORIZON);
    let harness = sys.registry().clone().to_json();
    (harness, sys.fabric_metrics().clone().to_json())
}

#[test]
fn sliced_advances_fold_to_the_registries_of_one_run() {
    let sets = sparse_sets();
    let config = config_for(&sets, true);
    let mut single = build_system(&sets);
    let (harness, fabric) = sliced(&mut single, 1, |_, _| {});
    for pieces in [1, 128, 1_024] {
        let mut serial = build_system(&sets);
        assert_eq!(
            sliced(&mut serial, pieces, |_, _| {}),
            (harness.clone(), fabric.clone()),
            "serial, {pieces} pieces"
        );
        for workers in [1, 2, 4] {
            // The serial oracle advances in lockstep: after every piece
            // the sharded harness registry must already be exact.
            let mut oracle = build_system(&sets);
            let mut sharded = build_sharded(config.clone(), &sets, workers);
            let got = sliced(&mut sharded, pieces, |sys, cut| {
                oracle.advance_to(cut);
                assert!(
                    same_tallies(sys.registry(), oracle.registry()),
                    "{workers} workers, {pieces} pieces: harness registry differs at cycle {cut}"
                );
            });
            assert_eq!(
                got,
                (harness.clone(), fabric.clone()),
                "{workers} workers, {pieces} pieces"
            );
        }
    }
}

/// The sum of every port's `Replenishments` tally.
fn port_replenishments(fabric: &MetricsRegistry) -> u64 {
    fabric
        .counters_iter()
        .filter(|((c, k), _)| {
            matches!(c, ComponentId::Port { .. }) && *k == Counter::Replenishments
        })
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn spans_leave_fabric_tallies_pending_until_a_read_folds_them() {
    let sets = sparse_sets();
    let horizon = HORIZON / 2;
    let mut reference = build_system(&sets);
    reference.run(horizon);
    let mut expected = reference
        .fabric_metrics()
        .expect("BlueScale keeps a registry")
        .clone();
    let exact = port_replenishments(&expected);
    assert!(exact > 0, "the servers must replenish within the horizon");

    let mut sys = build_system(&sets);
    for k in 1..=8 {
        sys.advance_to(horizon * k / 8);
    }
    // No span folded: the `&self` read still lacks the port tallies.
    assert!(
        port_replenishments(sys.interconnect().metrics()) < exact,
        "a span folded the fabric's batched port tallies"
    );
    let mut folded = sys
        .fabric_metrics()
        .expect("BlueScale keeps a registry")
        .clone();
    assert_eq!(port_replenishments(&folded), exact);
    assert_eq!(folded.to_json(), expected.to_json());
}
