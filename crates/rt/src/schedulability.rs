//! Schedulability analysis on a periodic resource (paper, Section 5).
//!
//! A task set `T_X` is EDF-schedulable on a VE with interface `(Π, Θ)` iff
//! `dbf(t, T_X) ≤ sbf(t, X)` for all `t > 0`. The paper's **Theorem 1**
//! bounds the test to `t < β` with
//!
//! ```text
//! β = (2Θ/Π)(Π − Θ) / (Θ/Π − U_X)
//! ```
//!
//! in addition to the necessary bandwidth condition `Θ/Π > U_X`. Because
//! `dbf` only changes at multiples of task periods while `sbf` is
//! non-decreasing, the test is evaluated at demand change points only.

use crate::demand::dbf_set;
use crate::supply::PeriodicResource;
use crate::task::{Task, TaskSet};
use crate::Time;

/// Upper limit on the number of demand change points a single test may
/// enumerate. Near-zero slack (`Θ/Π → U_X`) makes β explode; beyond this
/// limit the test conservatively reports *unschedulable* rather than stall.
/// This only ever makes interface selection pick a slightly larger budget.
pub const MAX_TEST_POINTS: u64 = 2_000_000;

/// The Theorem 1 test horizon β for `set` on `resource`, or `None` when the
/// bandwidth condition `Θ/Π > U` fails (β would be undefined or negative).
///
/// For implicit deadlines this is the paper's
/// `β = (2Θ/Π)(Π−Θ)/(Θ/Π − U)`. With constrained deadlines the demand
/// bound satisfies `dbf(t) ≤ U·t + K` with `K = Σ Cᵢ(1 − Dᵢ/Tᵢ)`, giving
/// the generalized horizon `β = (K + 2·(Θ/Π)·(Π−Θ)) / (Θ/Π − U)`, which
/// reduces to the paper's expression at `K = 0`.
///
/// A dedicated resource (`Θ = Π`) with implicit deadlines yields
/// `Some(0.0)`: no points need checking because `sbf(t) = t ≥ dbf(t)`
/// always holds when `U ≤ 1`.
pub fn theorem1_bound(set: &TaskSet, resource: &PeriodicResource) -> Option<f64> {
    horizon(set.utilization(), set.density_excess(), resource)
}

/// [`theorem1_bound`] from the set's utilization `u` and horizon constant
/// `k`, so a [`DemandCurve`] computes them once per set, not per test.
fn horizon(u: f64, k: f64, resource: &PeriodicResource) -> Option<f64> {
    let bw = resource.bandwidth();
    if resource.budget() == resource.period() && k == 0.0 {
        return Some(0.0);
    }
    if bw <= u {
        return None;
    }
    let blackout = (resource.period() - resource.budget()) as f64;
    Some((k + 2.0 * bw * blackout) / (bw - u))
}

/// Exact compositional schedulability test: `dbf(t) ≤ sbf(t)` for all
/// `t < β` evaluated at demand change points (Theorem 1 makes this
/// sufficient for all `t`).
///
/// Returns `false` (conservatively) if the test would require more than
/// [`MAX_TEST_POINTS`] evaluations.
///
/// # Example
///
/// ```
/// use bluescale_rt::task::{Task, TaskSet};
/// use bluescale_rt::supply::PeriodicResource;
/// use bluescale_rt::schedulability::is_schedulable;
///
/// let set = TaskSet::new(vec![Task::new(0, 10, 2)?])?;
/// // Half the bandwidth with a short period: plenty.
/// assert!(is_schedulable(&set, &PeriodicResource::new(2, 1).expect("valid")));
/// // A long-period sliver starves the 10-cycle deadline.
/// assert!(!is_schedulable(&set, &PeriodicResource::new(40, 12).expect("valid")));
/// # Ok::<(), bluescale_rt::Error>(())
/// ```
pub fn is_schedulable(set: &TaskSet, resource: &PeriodicResource) -> bool {
    DemandCurve::new(set).is_schedulable(resource)
}

/// A memoized demand curve for one task set: the sorted demand change
/// points and the `dbf` value at each, materialized lazily, in growing
/// chunks, only as far as some test has read.
///
/// The interface-selection hot path tests the *same* task set against many
/// `(Π, Θ)` candidates (every budget probed by the binary search, for every
/// candidate period). The demand side of `dbf(t) ≤ sbf(t)` depends only on
/// the task set, so one curve serves the whole search: each test re-uses the
/// cached `(t, dbf(t))` pairs and evaluates only the cheap supply side. A
/// test stops at its first violation, and the curve is extended only when
/// the test has read every cached point below its horizon, so a failing
/// probe with a huge Theorem 1 horizon builds at most one chunk past the
/// point that refutes it. The answers are bit-identical to
/// [`is_schedulable`] — this type *is* its implementation.
///
/// # Example
///
/// ```
/// use bluescale_rt::task::{Task, TaskSet};
/// use bluescale_rt::supply::PeriodicResource;
/// use bluescale_rt::schedulability::{is_schedulable, DemandCurve};
///
/// let set = TaskSet::new(vec![Task::new(0, 10, 2)?])?;
/// let mut curve = DemandCurve::new(&set);
/// for period in 1..=8u64 {
///     for budget in 1..=period {
///         let r = PeriodicResource::new(period, budget).expect("valid");
///         assert_eq!(curve.is_schedulable(&r), is_schedulable(&set, &r));
///     }
/// }
/// # Ok::<(), bluescale_rt::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DemandCurve<'a> {
    set: &'a TaskSet,
    /// Next unmaterialized change point per task (`Dᵢ + k·Tᵢ` cursors).
    cursors: Vec<Time>,
    /// The set's utilization `U` and horizon constant `K`.
    utilization: f64,
    excess: f64,
    /// Sorted, deduplicated change points: every change point below the
    /// smallest cursor.
    points: Vec<Time>,
    /// `dbf_set(set, points[i])`, cached alongside.
    demands: Vec<Time>,
}

/// The first chunk a [`DemandCurve`] materializes; each later chunk is as
/// long as the whole curve before it, so a curve read to `n` points is
/// built in `O(log n)` extensions and at most `max(MIN_CHUNK, n)` points
/// past what was read.
const MIN_CHUNK: usize = 64;

impl<'a> DemandCurve<'a> {
    /// Creates an empty curve for `set`; points materialize on demand.
    pub fn new(set: &'a TaskSet) -> Self {
        Self {
            set,
            cursors: set.iter().map(Task::deadline).collect(),
            utilization: set.utilization(),
            excess: set.density_excess(),
            points: Vec::new(),
            demands: Vec::new(),
        }
    }

    /// The task set this curve describes.
    pub fn set(&self) -> &TaskSet {
        self.set
    }

    /// Appends the next chunk of change points below `horizon`, merging the
    /// per-task cursors in order; `dbf` steps by the WCET of every task
    /// whose cursor sits on the point. New points are strictly above every
    /// cached one, so extension is append-only. Returns `false` when no
    /// change point below `horizon` was left to add.
    fn extend(&mut self, horizon: Time) -> bool {
        let cached = self.points.len();
        let target = cached + cached.max(MIN_CHUNK);
        let mut demand = self.demands.last().copied().unwrap_or(0);
        while self.points.len() < target {
            let Some(t) = self.cursors.iter().copied().min().filter(|&t| t < horizon) else {
                break;
            };
            for (cursor, tau) in self.cursors.iter_mut().zip(self.set.iter()) {
                if *cursor == t {
                    demand += tau.wcet();
                    *cursor += tau.period();
                }
            }
            self.points.push(t);
            self.demands.push(demand);
        }
        self.points.len() > cached
    }

    /// The memoized equivalent of [`is_schedulable`]: same Theorem 1 bound,
    /// same conservative [`MAX_TEST_POINTS`] guard (estimated before any
    /// point is built), same change points — the demand side just comes
    /// from the cache.
    pub fn is_schedulable(&mut self, resource: &PeriodicResource) -> bool {
        let set = self.set;
        if set.is_empty() {
            return true;
        }
        let Some(beta) = horizon(self.utilization, self.excess, resource) else {
            return false;
        };
        // Dedicated resource with implicit deadlines: sbf(t) = t ≥ U·t ≥ dbf(t).
        if resource.budget() == resource.period() && self.excess == 0.0 {
            return true;
        }
        let horizon = beta.ceil() as Time;
        // Estimate the number of change points before materializing them.
        let estimated: u64 = set.iter().map(|tau| horizon / tau.period()).sum();
        if estimated > MAX_TEST_POINTS {
            return false;
        }
        let mut read = 0;
        loop {
            let end = read + self.points[read..].partition_point(|&t| t < horizon);
            let mut checked = self.points[read..end].iter().zip(&self.demands[read..end]);
            if !checked.all(|(&t, &demand)| demand <= resource.sbf(t)) {
                return false;
            }
            if end < self.points.len() || !self.extend(horizon) {
                return true;
            }
            read = end;
        }
    }
}

/// Brute-force reference test: checks `dbf(t) ≤ sbf(t)` for every integer
/// `t` in `(0, horizon]`. Exists to validate [`is_schedulable`] in tests and
/// property-based checks; not used by the selection algorithm.
pub fn is_schedulable_brute(set: &TaskSet, resource: &PeriodicResource, horizon: Time) -> bool {
    (1..=horizon).all(|t| dbf_set(set, t) <= resource.sbf(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::change_points;
    use crate::task::Task;

    fn set(specs: &[(u64, u64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(t, c))| Task::new(i as u32, t, c).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn empty_set_always_schedulable() {
        let r = PeriodicResource::new(100, 1).unwrap();
        assert!(is_schedulable(&TaskSet::empty(), &r));
    }

    #[test]
    fn dedicated_resource_schedules_full_utilization() {
        let s = set(&[(10, 5), (20, 10)]); // U = 1.0
        assert!(is_schedulable(&s, &PeriodicResource::dedicated(1)));
    }

    #[test]
    fn bandwidth_below_utilization_fails() {
        let s = set(&[(10, 5)]); // U = 0.5
        let r = PeriodicResource::new(10, 4).unwrap(); // bw = 0.4
        assert!(!is_schedulable(&s, &r));
        assert!(theorem1_bound(&s, &r).is_none());
    }

    #[test]
    fn bandwidth_equal_to_utilization_fails_for_partial_budget() {
        let s = set(&[(10, 5)]);
        let r = PeriodicResource::new(10, 5).unwrap(); // bw = U = 0.5, Θ<Π
        assert!(!is_schedulable(&s, &r));
    }

    #[test]
    fn short_period_resource_schedules_easily() {
        let s = set(&[(100, 10)]); // U = 0.1
        let r = PeriodicResource::new(4, 1).unwrap(); // bw 0.25, small blackout
        assert!(is_schedulable(&s, &r));
    }

    #[test]
    fn long_blackout_misses_short_deadline() {
        // Task with deadline 10 on a resource whose worst-case blackout is
        // 2(Π−Θ) = 2(40−12) = 56 > 10: must be unschedulable.
        let s = set(&[(10, 2)]);
        let r = PeriodicResource::new(40, 12).unwrap();
        assert!(!is_schedulable(&s, &r));
    }

    #[test]
    fn theorem1_matches_brute_force() {
        // Cross-validate the bounded test against a long brute-force scan.
        let sets = [
            set(&[(10, 2), (15, 3)]),
            set(&[(8, 1), (12, 2), (20, 5)]),
            set(&[(5, 1)]),
            set(&[(30, 10), (40, 5)]),
        ];
        let resources = [
            PeriodicResource::new(2, 1).unwrap(),
            PeriodicResource::new(5, 2).unwrap(),
            PeriodicResource::new(5, 3).unwrap(),
            PeriodicResource::new(10, 6).unwrap(),
            PeriodicResource::new(4, 4).unwrap(),
        ];
        for s in &sets {
            for r in &resources {
                let fast = is_schedulable(s, r);
                let brute = is_schedulable_brute(s, r, 5_000);
                assert_eq!(
                    fast, brute,
                    "mismatch for set {s:?} on resource {r:?} (fast={fast}, brute={brute})"
                );
            }
        }
    }

    #[test]
    fn theorem1_bound_formula() {
        let s = set(&[(10, 2)]); // U = 0.2
        let r = PeriodicResource::new(10, 4).unwrap(); // bw = 0.4, blackout = 6
                                                       // β = 2·0.4·6 / (0.4 − 0.2) = 4.8/0.2 = 24.
        let beta = theorem1_bound(&s, &r).unwrap();
        assert!((beta - 24.0).abs() < 1e-9, "beta = {beta}");
    }

    #[test]
    fn schedulability_monotone_in_budget() {
        let s = set(&[(12, 3), (20, 4)]);
        let period = 6;
        let mut was_schedulable = false;
        for budget in 1..=period {
            let r = PeriodicResource::new(period, budget).unwrap();
            let now = is_schedulable(&s, &r);
            assert!(
                !was_schedulable || now,
                "schedulability must be monotone in Θ (Θ={budget})"
            );
            was_schedulable = now;
        }
        assert!(was_schedulable, "full budget must schedule U<1 set");
    }

    #[test]
    fn constrained_deadline_tightens_the_test() {
        // Same (T, C), but the deadline shrinks: the resource that was
        // sufficient for the implicit-deadline task no longer is.
        let implicit = set(&[(20, 4)]);
        let constrained = TaskSet::new(vec![Task::with_deadline(0, 20, 8, 4).unwrap()]).unwrap();
        let r = PeriodicResource::new(10, 4).unwrap();
        assert!(is_schedulable(&implicit, &r));
        assert!(!is_schedulable(&constrained, &r));
        // A finer-grained (higher-bandwidth) resource recovers it.
        let fine = PeriodicResource::new(4, 3).unwrap();
        assert!(is_schedulable(&constrained, &fine));
    }

    #[test]
    fn constrained_matches_brute_force() {
        let sets = [
            TaskSet::new(vec![Task::with_deadline(0, 20, 10, 3).unwrap()]).unwrap(),
            TaskSet::new(vec![
                Task::with_deadline(0, 12, 6, 2).unwrap(),
                Task::with_deadline(1, 30, 15, 4).unwrap(),
            ])
            .unwrap(),
        ];
        let resources = [
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(5, 2).unwrap(),
            PeriodicResource::new(8, 5).unwrap(),
            PeriodicResource::new(6, 6).unwrap(),
        ];
        for s in &sets {
            for r in &resources {
                assert_eq!(
                    is_schedulable(s, r),
                    is_schedulable_brute(s, r, 3_000),
                    "mismatch for {s:?} on {r:?}"
                );
            }
        }
    }

    #[test]
    fn dedicated_resource_with_constrained_deadlines_tested_exactly() {
        // U = 1 with constrained deadlines cannot fit: two tasks demand 10
        // units by t = 5.
        let s = TaskSet::new(vec![
            Task::with_deadline(0, 10, 5, 5).unwrap(),
            Task::with_deadline(1, 10, 5, 5).unwrap(),
        ])
        .unwrap();
        assert!(!is_schedulable(&s, &PeriodicResource::dedicated(1)));
        // A single constrained task at U < 1 fits on a dedicated resource.
        let ok = TaskSet::new(vec![Task::with_deadline(0, 10, 5, 3).unwrap()]).unwrap();
        assert!(is_schedulable(&ok, &PeriodicResource::dedicated(1)));
    }

    #[test]
    fn a_failing_probe_builds_at_most_one_chunk_past_its_violation() {
        // Every failing probe on a fresh curve: the curve holds the points
        // up to the first violation plus at most the chunk that reached it.
        let sets = [
            set(&[(100, 10)]),
            set(&[(10, 2), (15, 3)]),
            set(&[(8, 1), (12, 2), (20, 5)]),
            TaskSet::new(vec![
                Task::with_deadline(0, 12, 6, 2).unwrap(),
                Task::with_deadline(1, 30, 15, 4).unwrap(),
            ])
            .unwrap(),
        ];
        let mut failing = 0;
        for s in &sets {
            for period in [7, 40, 300] {
                for budget in 1..=period {
                    let r = PeriodicResource::new(period, budget).unwrap();
                    let Some(beta) = theorem1_bound(s, &r) else {
                        continue;
                    };
                    let mut curve = DemandCurve::new(s);
                    if curve.is_schedulable(&r) {
                        continue;
                    }
                    failing += 1;
                    let violation = change_points(s, beta.ceil() as Time)
                        .iter()
                        .position(|&t| dbf_set(s, t) > r.sbf(t))
                        .expect("a failing probe has a violation");
                    assert!(
                        curve.points.len() <= MIN_CHUNK.max(2 * (violation + 1)),
                        "{} points built for a violation at index {violation} ({r:?}, {s:?})",
                        curve.points.len()
                    );
                }
            }
        }
        assert!(failing > 100, "only {failing} failing probes");
        // A sliver just above U = 0.1 with a 1,000-cycle period: its β is
        // about 180,000 (1,800 change points), yet the first point fails.
        let s = set(&[(100, 10)]);
        let sliver = PeriodicResource::new(1_000, 101).unwrap();
        assert!(theorem1_bound(&s, &sliver).unwrap() > 100_000.0);
        let mut curve = DemandCurve::new(&s);
        assert!(!curve.is_schedulable(&sliver));
        assert_eq!(curve.points.len(), MIN_CHUNK);
    }

    #[test]
    fn degenerate_huge_beta_is_conservative() {
        // Bandwidth barely above U with tiny periods → estimated points
        // explode; the test must return false, not hang.
        let s = set(&[(2, 1)]); // U = 0.5
        let r = PeriodicResource::new(1_000_000_000, 500_000_001).unwrap();
        assert!(!is_schedulable(&s, &r));
    }
}
