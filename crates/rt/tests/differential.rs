//! Differential tests pinning the tuned interface-selection fast path to
//! the naive reference implementation.
//!
//! The fast path (bound-first candidate order and pruning + demand-curve
//! memoization, see `interface.rs`) must return **bit-identical** `(Π, Θ)`
//! to exhaustive enumeration on every input — these tests sweep random task
//! sets with a fixed-seed [`SimRng`] so each case is reproducible.

use bluescale_rt::interface::{
    feasible_period_bound, min_budget_for_period, select_interface, select_interface_detailed,
    select_interface_exhaustive, select_se_interfaces_with_divisor, NecessaryBudgets,
    SelectionContext,
};
use bluescale_rt::schedulability::{is_schedulable, is_schedulable_brute, DemandCurve};
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::rng::SimRng;

/// A random task set of 1–4 tasks with `U ≤ 1`, mixing light and heavy
/// tasks so both short- and long-period interfaces get exercised.
fn random_taskset(rng: &mut SimRng) -> TaskSet {
    loop {
        let n = rng.range_usize(1, 5);
        let tasks = (0..n)
            .map(|i| {
                let period = rng.range_u64(2, 400);
                let wcet = rng.range_u64(1, 40).min(period);
                Task::new(i as u32, period, wcet).expect("valid parameters")
            })
            .collect();
        if let Ok(set) = TaskSet::new(tasks) {
            return set;
        }
    }
}

/// The tuned `select_interface` returns bit-identical `(Π, Θ)` to the naive
/// exhaustive enumeration on random task sets, across contexts.
#[test]
fn pruned_selection_matches_exhaustive_reference() {
    let mut rng = SimRng::seed_from(0xD1FF);
    for case in 0..150 {
        let set = random_taskset(&mut rng);
        let ctx = match rng.range_u64(0, 3) {
            0 => SelectionContext::isolated(&set),
            1 => SelectionContext::shared((set.utilization() + rng.f64() * 0.5).min(0.99)),
            _ => SelectionContext::isolated(&set).with_period_divisor(rng.range_u64(1, 5)),
        };
        let fast = select_interface(&set, &ctx);
        let naive = select_interface_exhaustive(&set, &ctx);
        assert_eq!(
            fast, naive,
            "case {case}: fast path diverged from reference for {set:?}"
        );
    }
}

/// The memoized binary search returns the same minimum budget as fresh
/// one-shot schedulability probes, for every period in the feasible range.
#[test]
fn memoized_min_budget_matches_fresh_probes() {
    let mut rng = SimRng::seed_from(0x5EED);
    for case in 0..60 {
        let set = random_taskset(&mut rng);
        let bound = feasible_period_bound(&set, &SelectionContext::isolated(&set));
        let mut curve = DemandCurve::new(&set);
        for period in 1..=bound.period.min(64) {
            let memoized = bluescale_rt::interface::min_budget_with_curve(&mut curve, period);
            let fresh = min_budget_for_period(&set, period);
            assert_eq!(
                memoized, fresh,
                "case {case}: memoized budget diverged at Π={period} for {set:?}"
            );
            // And the fresh result is itself pinned to first-principles
            // schedulability of (Π, Θ) / unschedulability of (Π, Θ-1).
            if let Some(b) = fresh {
                let r = PeriodicResource::new(period, b).unwrap();
                assert!(is_schedulable(&set, &r), "case {case}: budget too small");
                if b > 1 {
                    let r = PeriodicResource::new(period, b - 1).unwrap();
                    assert!(!is_schedulable(&set, &r), "case {case}: budget not minimal");
                }
            }
        }
    }
}

/// The truncation flag is consistent: untruncated searches really did cover
/// the analytic bound, and the detailed result mirrors `select_interface`.
#[test]
fn detailed_selection_mirrors_plain_selection() {
    let mut rng = SimRng::seed_from(0x7A6);
    for case in 0..60 {
        let set = random_taskset(&mut rng);
        let ctx = SelectionContext::isolated(&set);
        let plain = select_interface(&set, &ctx);
        let detailed = select_interface_detailed(&set, &ctx);
        match (plain, detailed) {
            (Ok(iface), Ok(result)) => {
                assert_eq!(iface, result.interface, "case {case}");
                assert_eq!(
                    result.period_bound,
                    feasible_period_bound(&set, &ctx),
                    "case {case}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
            (p, d) => panic!("case {case}: plain {p:?} vs detailed {d:?}"),
        }
    }
}

/// Asserts the tuned selection equals the exhaustive oracle on `set`.
fn assert_matches_exhaustive(set: &TaskSet, ctx: &SelectionContext, what: &str) {
    assert_eq!(
        select_interface(set, ctx),
        select_interface_exhaustive(set, ctx),
        "{what}: fast path diverged from reference for {set:?} under {ctx:?}"
    );
}

/// One to three tasks with periods in `[lo, hi)` and light-to-moderate
/// demand, each deadline deflated to `⌊margin·T⌋` (never below the wcet)
/// the way `BlueScaleConfig::analysis_deadline` deflates leaf tasks.
fn deflated_taskset(rng: &mut SimRng, lo: u64, hi: u64, margin: f64) -> TaskSet {
    loop {
        let n = rng.range_usize(1, 4);
        let tasks = (0..n)
            .map(|i| {
                let period = rng.range_u64(lo, hi);
                let wcet = rng.range_u64(1, period / 8 + 2).min(period);
                let deadline = ((margin * period as f64).floor() as u64).clamp(wcet, period);
                Task::with_deadline(i as u32, period, deadline, wcet).expect("valid parameters")
            })
            .collect();
        if let Ok(set) = TaskSet::new(tasks) {
            if set.utilization() <= 1.0 {
                return set;
            }
        }
    }
}

/// Long periods whose Theorem 2 range runs into the period cap: the search
/// is truncated at the cap and must still pick the exhaustive answer over
/// the clamped range, including the cheapest-candidate-at-the-cap case.
#[test]
fn long_periods_truncated_at_the_cap_match_exhaustive() {
    let mut rng = SimRng::seed_from(0xCA9);
    let mut truncated = 0;
    for case in 0..40 {
        let set = deflated_taskset(&mut rng, 600, 4_000, 1.0);
        let ctx = if rng.chance(0.5) {
            SelectionContext::isolated(&set)
        } else {
            SelectionContext::shared((set.utilization() + rng.f64() * 0.2).min(1.0))
        }
        .with_period_cap(rng.range_u64(50, 700));
        truncated += usize::from(feasible_period_bound(&set, &ctx).truncated);
        assert_matches_exhaustive(&set, &ctx, &format!("cap case {case}"));
    }
    assert!(truncated >= 20, "only {truncated} of 40 cases hit the cap");
}

/// Deadlines deflated to 0.9 of the period, as the leaves are analysed.
#[test]
fn deflated_deadlines_match_exhaustive() {
    let mut rng = SimRng::seed_from(0xDEF1);
    for case in 0..60 {
        let set = deflated_taskset(&mut rng, 4, 300, 0.9);
        let ctx = match case % 3 {
            0 => SelectionContext::isolated(&set),
            1 => SelectionContext::shared((set.utilization() + rng.f64() * 0.4).min(1.0)),
            _ => SelectionContext::isolated(&set).with_period_divisor(rng.range_u64(1, 4)),
        };
        assert_matches_exhaustive(&set, &ctx, &format!("deflated case {case}"));
    }
}

/// Heavy sets with deadlines anywhere in `[C, T]`: often only (near-)
/// dedicated interfaces schedule, so many periods tie on bandwidth and the
/// smaller-period tie-break decides — also against an incumbent found at a
/// larger period first.
#[test]
fn tight_deadlines_resolve_bandwidth_ties_like_exhaustive() {
    let mut rng = SimRng::seed_from(0x71E);
    let mut compared = 0;
    while compared < 60 {
        let tasks = (0..rng.range_usize(1, 4))
            .map(|i| {
                let period = rng.range_u64(2, 60);
                let wcet = rng.range_u64(1, period / 2 + 2).min(period);
                let deadline = rng.range_u64(wcet, period + 1);
                Task::with_deadline(i as u32, period, deadline, wcet).expect("valid parameters")
            })
            .collect();
        let Ok(set) = TaskSet::new(tasks) else {
            continue;
        };
        if set.utilization() > 1.0 {
            continue;
        }
        let ctx = SelectionContext::isolated(&set);
        assert_matches_exhaustive(&set, &ctx, &format!("tight case {compared}"));
        compared += 1;
    }
}

/// Identical server tasks whose utilization times some candidate period is
/// an exact integer: at those periods the budget `U·Π` has bandwidth exactly
/// `U`, which the bandwidth gate refuses, so the floor must be `U·Π + 1`.
#[test]
fn integer_utilization_boundary_matches_exhaustive() {
    let mut rng = SimRng::seed_from(0xB0B);
    for case in 0..60 {
        let copies = rng.range_usize(1, 5);
        let period = [8, 12, 16, 20, 32, 48, 64, 100][rng.range_usize(0, 8)];
        let wcet = rng.range_u64(1, period / copies as u64 + 1);
        let tasks = (0..copies)
            .map(|i| Task::new(i as u32, period, wcet).expect("valid parameters"))
            .collect();
        let set = TaskSet::new(tasks).expect("distinct ids");
        let ctx = if rng.chance(0.5) {
            SelectionContext::isolated(&set)
        } else {
            SelectionContext::shared((set.utilization() + rng.f64() * 0.3).min(1.0))
        };
        assert_matches_exhaustive(&set, &ctx, &format!("boundary case {case}"));
    }
}

/// Per-client SE selection under one shared context and every divisor
/// agrees with the oracle run under that same context.
#[test]
fn shared_contexts_and_divisors_match_exhaustive() {
    let mut rng = SimRng::seed_from(0x5CA1E);
    let mut compared = 0;
    while compared < 40 {
        let clients: Vec<TaskSet> = (0..4)
            .map(|_| {
                if rng.chance(0.2) {
                    TaskSet::empty()
                } else {
                    deflated_taskset(&mut rng, 10, 400, 0.9)
                }
            })
            .collect();
        let total: f64 = clients.iter().map(TaskSet::utilization).sum();
        if total > 1.0 {
            continue;
        }
        let divisor = rng.range_u64(1, 5);
        let ctx = SelectionContext::shared(total).with_period_divisor(divisor);
        let selected =
            select_se_interfaces_with_divisor(&clients, divisor).expect("an admissible SE selects");
        for (set, iface) in clients.iter().zip(selected) {
            let oracle = (!set.is_empty()).then(|| select_interface_exhaustive(set, &ctx).unwrap());
            assert_eq!(
                iface, oracle,
                "SE case {compared}: {set:?} (divisor {divisor})"
            );
        }
        compared += 1;
    }
}

/// Soundness of the bound pass: for every candidate period the floor lies
/// at or below the minimum budget (searched from the plain `⌈U·Π⌉` bound),
/// and the budget just below the floor never schedules.
#[test]
fn necessary_budgets_never_exceed_the_minimum_budget() {
    let mut rng = SimRng::seed_from(0xF100);
    for case in 0..80 {
        let set = match case % 3 {
            0 => random_taskset(&mut rng),
            1 => deflated_taskset(&mut rng, 4, 300, 0.9),
            _ => deflated_taskset(&mut rng, 2, 40, 0.5),
        };
        let last = feasible_period_bound(&set, &SelectionContext::isolated(&set))
            .period
            .min(300);
        for (period, floor) in (1..=last).zip(NecessaryBudgets::new(&set)) {
            if let Some(budget) = min_budget_for_period(&set, period) {
                assert!(
                    floor <= budget,
                    "case {case}: floor {floor} above the minimum budget {budget} at Π={period} for {set:?}"
                );
            }
            if floor > 1 {
                let below = PeriodicResource::new(period, floor - 1).unwrap();
                assert!(
                    !is_schedulable(&set, &below),
                    "case {case}: Θ={} schedules below the floor at Π={period} for {set:?}",
                    floor - 1
                );
            }
        }
    }
}

/// The bound pass `NecessaryBudgets::cheapest` replaced: the first `last`
/// floors scanned in order, keeping the lowest bandwidth (the smallest
/// period on ties).
fn cheapest_by_scan(set: &TaskSet, last: u64) -> (u64, u64) {
    let mut floors = (1..=last).zip(NecessaryBudgets::new(set));
    let first = floors.next().expect("at least one period");
    floors.fold(first, |best, (period, floor)| {
        if (floor as u128) * (best.0 as u128) < (best.1 as u128) * (period as u128) {
            (period, floor)
        } else {
            best
        }
    })
}

/// Constrained deadlines whose first deadline carries more demand than it
/// has cycles (`dbf(t₁) > t₁`), so the carried floor (b) lags the exact
/// one; such sets are infeasible but still have a bound pass.
fn overloaded_first_deadline(rng: &mut SimRng) -> TaskSet {
    let deadline = rng.range_u64(1, 12);
    let copies = rng.range_usize(2, 5);
    let tasks = (0..copies)
        .map(|i| {
            let wcet = rng.range_u64(deadline / 2 + 1, deadline + 1);
            let period = rng.range_u64(copies as u64 * wcet, 400);
            Task::with_deadline(i as u32, period, deadline, wcet).expect("valid parameters")
        })
        .collect();
    let set = TaskSet::new(tasks).expect("utilization at most one");
    assert!(bluescale_rt::demand::dbf_set(&set, deadline) > deadline);
    set
}

/// Utilization exactly 1: floor (a) rises on every period.
fn full_utilization(rng: &mut SimRng) -> TaskSet {
    let period = rng.range_u64(2, 200);
    let split = rng.range_u64(1, period);
    let deadline = rng.range_u64(split, period + 1);
    TaskSet::new(vec![
        Task::new(0, period, period - split).expect("valid parameters"),
        Task::with_deadline(1, period, deadline, split).expect("valid parameters"),
    ])
    .expect("utilization exactly one")
}

/// The run-jumping bound pass picks exactly the floor interface the linear
/// scan picks, for caps from one period to 2^20.
#[test]
fn cheapest_floor_matches_the_linear_scan() {
    let mut rng = SimRng::seed_from(0xC4EA);
    for case in 0..240 {
        let set = match case % 5 {
            0 => random_taskset(&mut rng),
            1 => deflated_taskset(&mut rng, 4, 4_000, 0.9),
            2 => deflated_taskset(&mut rng, 2, 40, 0.5),
            3 => full_utilization(&mut rng),
            _ => overloaded_first_deadline(&mut rng),
        };
        let caps: &[u64] = if case % 12 == 0 {
            &[1, 2, 4096, 1 << 20]
        } else {
            &[1, 2, 3, 4096]
        };
        for &last in caps {
            assert_eq!(
                NecessaryBudgets::new(&set).cheapest(last),
                cheapest_by_scan(&set, last),
                "case {case}: cap {last} for {set:?}"
            );
        }
    }
}

/// One curve shared across a probe that fails early at a huge Theorem 1
/// horizon and the probes after it answers as fresh curves and the
/// brute-force scan do: the lazily built prefix serves later probes whole.
#[test]
fn shared_curve_survives_an_early_failure_at_a_huge_horizon() {
    let mut rng = SimRng::seed_from(0x1A2F);
    let mut failed_early = 0;
    for case in 0..80 {
        let set = random_taskset(&mut rng);
        let utilization = set.utilization();
        if utilization > 0.9 {
            continue;
        }
        let max_period = set.iter().map(Task::period).max().expect("non-empty");
        // A long period with bandwidth just above U: its blackout starves
        // the first deadline, and its horizon β is tens of thousands.
        let period = 20 * max_period;
        let budget = (utilization * period as f64).floor() as u64 + 1;
        let sliver = PeriodicResource::new(period, budget).unwrap();
        let mut shared = DemandCurve::new(&set);
        let mut probes = vec![sliver];
        for period in 1..=6 {
            probes.extend((1..=period).map(|b| PeriodicResource::new(period, b).unwrap()));
        }
        for r in &probes {
            let fresh = is_schedulable(&set, r);
            assert_eq!(
                shared.is_schedulable(r),
                fresh,
                "case {case}: {r:?} on {set:?}"
            );
            assert_eq!(
                is_schedulable_brute(&set, r, 4 * max_period + 2 * period),
                fresh,
                "case {case}: brute force disagrees on {r:?} for {set:?}"
            );
        }
        failed_early += usize::from(!is_schedulable(&set, &sliver));
    }
    assert!(
        failed_early >= 40,
        "only {failed_early} huge-horizon probes failed"
    );
}

/// The leaf interfaces of a shard-style SE: four single-task clients with
/// periods in `[n, 4n]` at `0.9/n` each and deadlines deflated to `0.9·T`,
/// selected under their shared context as the tree does.
fn shard_leaf_interfaces(clients: u64, rng: &mut SimRng) -> Vec<PeriodicResource> {
    let share = 0.9 / clients as f64;
    let sets: Vec<TaskSet> = (0..4)
        .map(|_| {
            let lo = clients.max((1.0 / share).ceil() as u64);
            let (period, wcet) = if lo > 4 * clients {
                (4 * clients, 1)
            } else {
                let period = rng.range_u64(lo, 4 * clients + 1);
                (period, (share * period as f64).round().max(1.0) as u64)
            };
            let deadline = ((0.9 * period as f64).floor() as u64).clamp(wcet, period);
            let task = Task::with_deadline(0, period, deadline, wcet).expect("valid parameters");
            TaskSet::new(vec![task]).expect("one task")
        })
        .collect();
    select_se_interfaces_with_divisor(&sets, 1)
        .expect("a light leaf selects")
        .into_iter()
        .map(|iface| iface.expect("every port is busy"))
        .collect()
}

/// The problems just above the shard workload's leaves: each port holds
/// four server tasks built from one leaf SE's interfaces, and the four
/// ports share the level's utilization.
#[test]
fn shard_inner_level_problems_match_exhaustive() {
    let mut rng = SimRng::seed_from(0x5A4D);
    for case in 0..12 {
        let clients = [256, 1_024, 4_096][case % 3];
        let ports: Vec<TaskSet> = (0..4)
            .map(|_| {
                let servers = shard_leaf_interfaces(clients, &mut rng)
                    .into_iter()
                    .enumerate()
                    .map(|(q, r)| Task::new(q as u32, r.period(), r.budget()).unwrap())
                    .collect();
                TaskSet::new(servers).expect("leaf interfaces fit")
            })
            .collect();
        let total: f64 = ports.iter().map(TaskSet::utilization).sum();
        let ctx = SelectionContext::shared(total);
        for (port, set) in ports.iter().enumerate() {
            assert_matches_exhaustive(set, &ctx, &format!("inner case {case}, port {port}"));
        }
    }
}
