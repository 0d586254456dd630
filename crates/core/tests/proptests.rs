//! Randomized property tests of the BlueScale composition invariants,
//! driven by a fixed-seed [`SimRng`] sweep (the container has no registry
//! access for `proptest`; every case is reproducible by seed).

use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::Interconnect;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::rng::SimRng;

const CASES: usize = 24;

/// One light single-task set per client, mirroring the old proptest
/// strategy: `T ∈ [100, 2000)`, `C = clamp(raw, 1, T/8)` with
/// `raw ∈ [1, 20)`.
fn random_client_sets(rng: &mut SimRng, clients: usize) -> Vec<TaskSet> {
    (0..clients)
        .map(|_| {
            let period = rng.range_u64(100, 2000);
            let wcet = rng.range_u64(1, 20).min(period / 8).max(1);
            TaskSet::new(vec![Task::new(0, period, wcet).expect("valid")]).expect("valid set")
        })
        .collect()
}

/// Every SE's allocated bandwidth stays within its unit capacity, at every
/// level, whenever the analysis succeeded.
#[test]
fn per_se_bandwidth_within_capacity() {
    let mut rng = SimRng::seed_from(0xC0DE1);
    for case in 0..CASES {
        let sets = random_client_sets(&mut rng, 16);
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets)
            .expect("construction succeeds");
        let comp = ic.composition();
        if comp.analysis_ok {
            for level in &comp.interfaces {
                for se in level {
                    let bw: f64 = se.iter().flatten().map(|r| r.bandwidth()).sum();
                    assert!(bw <= 1.0 + 1e-9, "case {case}: SE over-allocated: {bw}");
                }
            }
        }
    }
}

/// Updating a client to its *current* task set is idempotent: every
/// interface in the tree is bit-identical afterwards.
#[test]
fn identity_update_is_idempotent() {
    let mut rng = SimRng::seed_from(0xC0DE2);
    for case in 0..CASES {
        let sets = random_client_sets(&mut rng, 16);
        let client = rng.range_usize(0, 16);
        let mut ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets)
            .expect("construction succeeds");
        let before = ic.composition().interfaces.clone();
        let schedulable_before = ic.composition().schedulable;
        // Admitted on a schedulable composition (the trial re-selects the
        // same interfaces); rejected without a trace otherwise.
        let outcome = ic.reconfigure_client(client as u32, &sets[client], 0);
        assert_eq!(outcome.applied(), schedulable_before, "case {case}");
        assert_eq!(&ic.composition().interfaces, &before, "case {case}");
        assert_eq!(
            ic.composition().schedulable,
            schedulable_before,
            "case {case}"
        );
    }
}

/// Construction is deterministic: the same inputs produce the same
/// composition.
#[test]
fn construction_is_deterministic() {
    let mut rng = SimRng::seed_from(0xC0DE3);
    for case in 0..CASES {
        let sets = random_client_sets(&mut rng, 8);
        let a = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(8), &sets).expect("valid");
        let b = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(8), &sets).expect("valid");
        assert_eq!(
            &a.composition().interfaces,
            &b.composition().interfaces,
            "case {case}"
        );
        assert_eq!(
            a.composition().root_bandwidth,
            b.composition().root_bandwidth,
            "case {case}"
        );
    }
}

/// Admission control never leaves the composition unschedulable: after any
/// admit attempt on a schedulable system, it stays schedulable.
#[test]
fn admission_preserves_schedulability() {
    let mut rng = SimRng::seed_from(0xC0DE4);
    for case in 0..CASES {
        let sets = random_client_sets(&mut rng, 16);
        let client = rng.range_usize(0, 16);
        let period = rng.range_u64(50, 500);
        let wcet = rng.range_u64(1, 200).min(period);
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets).expect("valid");
        if !ic.composition().schedulable {
            continue;
        }
        let candidate =
            TaskSet::new(vec![Task::new(0, period, wcet).expect("valid")]).expect("valid");
        let _ = ic.reconfigure_client(client as u32, &candidate, 0);
        assert!(
            ic.composition().schedulable,
            "case {case}: admission left the system unschedulable"
        );
    }
}
