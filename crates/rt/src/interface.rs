//! The interface-selection algorithm (paper, Section 5).
//!
//! For each Virtual Element `X` the interface selector picks the pair
//! `(Π_X, Θ_X)` that minimizes bandwidth `Θ_X/Π_X` while keeping the tasks
//! of `X` schedulable:
//!
//! 1. **Theorem 2** bounds the feasible periods:
//!    `Π_X ≤ min_{τᵢ∈T_X} Tᵢ / (2(U_{ℓ+2} − U_X))`, where `U_{ℓ+2}` is the
//!    total utilization of *all* tasks at the level (across sibling VEs).
//! 2. For each candidate `Π`, schedulability is monotone in `Θ`, so the
//!    minimum schedulable budget is found by **binary search**.
//! 3. The `(Π, Θ)` pair with the smallest bandwidth wins (ties broken by
//!    the smaller period, which shortens worst-case blackouts).
//!
//! Resolving the problem level-by-level from the leaves to the root turns
//! each level's interfaces into the next level's server *tasks*
//! (`T = Π, C = Θ`); the system is schedulable iff the root is not
//! over-utilized (`Σ Θ/Π ≤ 1`).
//!
//! # The selection fast path
//!
//! Interface selection runs per SE, per level, on *every* admission
//! decision, so [`select_interface`] searches bound-first and does only the
//! work its answer needs (without changing any answer — the differential
//! tests in `tests/differential.rs` pin this down against
//! [`select_interface_exhaustive`]):
//!
//! * **Bound pass.** [`NecessaryBudgets`] yields, for every candidate
//!   period, a proven lower bound `Θ_nec(Π)` on any schedulable budget: the
//!   larger of the bandwidth gate `Θ/Π > U` and the first-deadline bound
//!   `Θ·(t₁ − Π + Θ) ≥ dbf(t₁)·Π`, clamped to `Π`. Both are non-decreasing
//!   in `Π`, so the pass carries them forward with one comparison each.
//!   [`NecessaryBudgets::cheapest`] finds the floor interface with the
//!   smallest `Θ_nec(Π)/Π` (the smallest such period on ties) by jumping
//!   from one floor rise to the next and comparing only the two ends of
//!   each run of equal floors, so its cost follows the number of rises,
//!   not the period cap.
//! * **Cheapest candidate first.** That period is tested first, its budget
//!   search starting at `Θ_nec`. When the floor schedules it precedes
//!   every other period's floor, hence every other period's budget, and
//!   the selection ends there: on light ports the first test is the whole
//!   search.
//! * **Pruned scan.** Otherwise the floors are walked again, and every
//!   other period is tested only if `Θ_nec(Π)/Π` could strictly beat the
//!   incumbent's bandwidth, or tie it at a smaller period — compared
//!   exactly by cross-multiplication. Its budget search stops at the
//!   largest budget that would still beat the incumbent. The result is the
//!   same `(bandwidth, Π)` lexicographic minimum as the exhaustive scan.
//! * **Demand memoization.** All candidates test the *same* task set, so
//!   one [`DemandCurve`] carries the sorted demand change points and their
//!   `dbf` values across the entire search (every budget probed by every
//!   binary search, for every period) instead of recomputing them per test.
//!   It builds points lazily, in growing chunks, only as far as a test has
//!   read, and a test stops at its first violation.

use crate::demand::dbf_set;
use crate::rational::UtilizationSum;
use crate::schedulability::{is_schedulable, DemandCurve};
use crate::supply::PeriodicResource;
use crate::task::{Task, TaskSet};
use crate::{Error, Time};

/// Default cap on the number of candidate periods enumerated per VE; keeps
/// selection `O(cap · log Π · test)` even when Theorem 2 allows a huge
/// range. [`feasible_period_bound`] reports when this cap actually bites,
/// and [`SelectionContext::with_period_cap`] widens it for workloads whose
/// minimum-bandwidth interface genuinely lives beyond the default.
pub const MAX_PERIOD_CANDIDATES: Time = 4096;

/// Context for one interface-selection problem: how much utilization the
/// *whole level* carries (Theorem 2 needs `U_{ℓ+2}`, the sum over all
/// sibling VEs sharing the SE, not just the VE being sized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionContext {
    level_utilization: f64,
    period_divisor: Time,
    period_cap: Time,
}

impl SelectionContext {
    /// Context where the VE's tasks are the only tasks at the level
    /// (`U_{ℓ+2} = U_X`) — used when sizing a VE in isolation.
    pub fn isolated(set: &TaskSet) -> Self {
        Self {
            level_utilization: set.utilization(),
            period_divisor: 1,
            period_cap: MAX_PERIOD_CANDIDATES,
        }
    }

    /// Context with an explicit level utilization `U_{ℓ+2}`.
    ///
    /// # Panics
    ///
    /// Panics if `level_utilization` is negative or not finite.
    pub fn shared(level_utilization: f64) -> Self {
        assert!(
            level_utilization.is_finite() && level_utilization >= 0.0,
            "level utilization must be a non-negative finite number"
        );
        Self {
            level_utilization,
            period_divisor: 1,
            period_cap: MAX_PERIOD_CANDIDATES,
        }
    }

    /// Additionally caps candidate periods at `min_deadline / divisor`:
    /// finer-grained interfaces shorten worst-case blackouts (`2(Π−Θ)`),
    /// which reduces both the bandwidth inflation of the minimized
    /// interface and the per-stage pipeline delay a request can suffer.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn with_period_divisor(mut self, divisor: Time) -> Self {
        assert!(divisor > 0, "period divisor must be positive");
        self.period_divisor = divisor;
        self
    }

    /// Overrides the hard cap on enumerated candidate periods (default
    /// [`MAX_PERIOD_CANDIDATES`]). Widening the cap lets sets with large
    /// deadlines reach their true minimum-bandwidth interface when
    /// [`feasible_period_bound`] reports truncation. The bound pass costs
    /// about `U` steps per candidate period and keeps nothing per period in
    /// memory; a problem its first test does not decide walks the floors
    /// once more and may test any candidate, so its cost can still grow in
    /// proportion to the cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_period_cap(mut self, cap: Time) -> Self {
        assert!(cap > 0, "period cap must be positive");
        self.period_cap = cap;
        self
    }

    /// The level utilization `U_{ℓ+2}` carried by this context.
    pub fn level_utilization(&self) -> f64 {
        self.level_utilization
    }

    /// The granularity divisor (1 = the paper's bare Theorem 2 bound).
    pub fn period_divisor(&self) -> Time {
        self.period_divisor
    }

    /// The hard cap on enumerated candidate periods.
    pub fn period_cap(&self) -> Time {
        self.period_cap
    }
}

/// The feasible-period range for one selection problem: the Theorem 2 /
/// granularity bound, together with whether the enumeration cap truncated
/// it (in which case the true minimum-bandwidth interface may lie beyond
/// [`period`](Self::period) and selection is *heuristic*, not optimal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasiblePeriodBound {
    /// Largest candidate period the search will enumerate.
    pub period: Time,
    /// `true` when the analytic bound exceeded the context's period cap and
    /// was clamped down to it.
    pub truncated: bool,
}

/// The Theorem 2 upper bound on feasible periods for `set` in `ctx`, with
/// an explicit truncation flag when the enumeration cap
/// ([`SelectionContext::period_cap`], default [`MAX_PERIOD_CANDIDATES`])
/// clips the analytic bound.
///
/// For constrained-deadline sets the smallest *deadline* replaces the
/// smallest period (the VE's worst-case blackout must fit before the
/// earliest deadline). When the rest of the level carries no utilization
/// (`U_{ℓ+2} = U_X`) the theorem imposes no bound; the smallest deadline
/// is used instead (any larger `Π` only lengthens blackouts without saving
/// bandwidth).
pub fn feasible_period_bound(set: &TaskSet, ctx: &SelectionContext) -> FeasiblePeriodBound {
    let Some(min_t) = set.min_deadline() else {
        return FeasiblePeriodBound {
            period: 1,
            truncated: false,
        };
    };
    let others = (ctx.level_utilization - set.utilization()).max(0.0);
    let bound = if others > 1e-12 {
        let raw = min_t as f64 / (2.0 * others);
        raw.floor().max(1.0) as Time
    } else {
        min_t
    };
    let granularity_cap = (min_t / ctx.period_divisor).max(1);
    let analytic = bound.min(granularity_cap).max(1);
    FeasiblePeriodBound {
        period: analytic.min(ctx.period_cap),
        truncated: analytic > ctx.period_cap,
    }
}

/// The Theorem 2 upper bound on feasible periods for `set` in `ctx`,
/// clamped to at least 1 and at most the context's period cap.
///
/// Prefer [`feasible_period_bound`] where the caller must know whether the
/// cap silently discarded part of the analytic range.
pub fn max_feasible_period(set: &TaskSet, ctx: &SelectionContext) -> Time {
    feasible_period_bound(set, ctx).period
}

/// Lower bound on any schedulable budget for `period`: `Θ ≥ ⌈U·Π⌉, Θ ≥ 1`.
fn budget_lower_bound(utilization: f64, period: Time) -> Time {
    ((utilization * period as f64).ceil() as Time).max(1)
}

/// The proven per-period budget floors `Θ_nec(Π)` for `Π = 1, 2, …`: no
/// budget below `Θ_nec(Π)` passes [`is_schedulable`] on period `Π`.
///
/// `Θ_nec(Π)` is the larger of two necessary conditions, clamped to `Π`
/// (the dedicated budget stays a candidate):
///
/// * **(a) bandwidth gate** — the smallest `Θ` with `Θ as f64 / Π as f64 >
///   U`, the exact floating-point gate [`theorem1_bound`] applies before any
///   demand point is checked;
/// * **(b) first deadline** — the smallest `Θ` with
///   `Θ·(t₁ − Π + Θ) ≥ dbf(t₁)·Π` in integer arithmetic, where `t₁` is the
///   smallest deadline. It follows from `sbf(t) ≤ Θ(t − Π + Θ)/Π`: a budget
///   failing it has `sbf(t₁) < dbf(t₁)`. The test checks `t₁` whenever it
///   lies below Theorem 1's horizon β, and for `t₁ ≥ β` the theorem gives
///   `dbf(t₁) ≤ lsbf(t₁) ≤ sbf(t₁)`, so no budget failing (b) passes. (The
///   argument is exact; a floating-point β would have to be off by more
///   than the gap `Θ(Π − Θ)/Π` between `lsbf` and that upper line to break
///   it.)
///
/// Both conditions only tighten as `Π` grows, and for `U < 1` and
/// `dbf(t₁) ≤ t₁` each floor rises by at most one per period, so the
/// iterator carries them forward with a single comparison each. When those
/// premises fail the carried floors may lag the exact ones; they stay lower
/// bounds, which is all soundness needs.
///
/// [`theorem1_bound`]: crate::schedulability::theorem1_bound
///
/// # Example
///
/// ```
/// use bluescale_rt::task::{Task, TaskSet};
/// use bluescale_rt::interface::{min_budget_for_period, NecessaryBudgets};
///
/// let set = TaskSet::new(vec![Task::new(0, 20, 4)?])?;
/// for (period, floor) in (1..=20).zip(NecessaryBudgets::new(&set)) {
///     if let Some(budget) = min_budget_for_period(&set, period) {
///         assert!(floor <= budget);
///     }
/// }
/// # Ok::<(), bluescale_rt::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct NecessaryBudgets {
    utilization: f64,
    first_deadline: Time,
    first_demand: Time,
    period: Time,
    /// Carried floor (a), as an exact integer-valued `f64`.
    by_rate: f64,
    /// Carried floor (b).
    by_deadline: Time,
}

impl NecessaryBudgets {
    /// Floors for `set`, starting at `Π = 1`.
    pub fn new(set: &TaskSet) -> Self {
        let first_deadline = set.min_deadline().unwrap_or(0);
        Self {
            utilization: set.utilization(),
            first_deadline,
            first_demand: dbf_set(set, first_deadline),
            period: 0,
            by_rate: 1.0,
            by_deadline: 1,
        }
    }

    /// The floor interface `(Π, Θ_nec(Π))` that precedes every other over
    /// `Π ∈ [1, last]` — lowest `Θ_nec/Π`, then the smallest `Π` — exactly
    /// as a scan of the first `last` floors finds it, without visiting
    /// every period.
    ///
    /// Between two periods where a carried floor rises, the floor is
    /// `min(m, Π)` for a fixed `m`: bandwidth 1 below `m`, where the
    /// smallest period wins the tie, and `m/Π`, falling, from `m` on. So
    /// only the two ends of each such run can win, and the pass jumps from
    /// one rise to the next:
    ///
    /// * floor (a) next rises at the first `q` with `by_rate / q ≤ U`,
    ///   estimated as `⌈by_rate/U⌉` and corrected with the exact
    ///   floating-point predicate (monotone in `q`);
    /// * floor (b) next rises at `⌊Θ_b(t₁+Θ_b)/(dbf(t₁)+Θ_b)⌋ + 1`, the
    ///   first `q` with `Θ_b·(t₁ + Θ_b − q) < dbf(t₁)·q`, in u128.
    ///
    /// Its cost is the number of rises up to `last`, not `last`: about
    /// `U·last` for floor (a), so a light port's problem takes a handful of
    /// steps at any period cap.
    ///
    /// # Panics
    ///
    /// Panics if `last` is zero.
    pub fn cheapest(mut self, last: Time) -> (Time, Time) {
        assert!(last > 0, "at least one candidate period");
        let first = self.next().expect("the floors never end");
        let mut best = (1, first);
        while self.period < last {
            let start = self.period + 1;
            let floor = self.next().expect("the floors never end");
            if precedes((start, floor), best) {
                best = (start, floor);
            }
            if start == last {
                break;
            }
            let end = self.rate_run_end(last).min(self.deadline_run_end(last));
            if end > start {
                let floor = (self.by_rate as Time).max(self.by_deadline).min(end);
                if precedes((end, floor), best) {
                    best = (end, floor);
                }
                self.period = end;
            }
        }
        best
    }

    /// The last period up to `last` before floor (a) rises again; the
    /// current period lies below `last`.
    fn rate_run_end(&self, last: Time) -> Time {
        let rises = |q: Time| self.by_rate / q as f64 <= self.utilization;
        let first = self.period + 1;
        if rises(first) {
            return self.period;
        }
        if !rises(last) {
            return last;
        }
        // `by_rate / q` only falls as `q` grows, so the predicate flips
        // once; the float estimate lands within a step or two of the flip.
        let estimate = (self.by_rate / self.utilization).ceil();
        let mut q = (estimate as Time).clamp(first, last);
        while !rises(q) {
            q += 1;
        }
        while rises(q - 1) {
            q -= 1;
        }
        q - 1
    }

    /// The last period up to `last` before floor (b) rises again; the
    /// current period lies below `last`.
    fn deadline_run_end(&self, last: Time) -> Time {
        let budget = self.by_deadline as u128;
        let reach = self.first_deadline.saturating_add(self.by_deadline) as u128;
        let demand = self.first_demand as u128;
        if demand == 0 {
            return last;
        }
        let rise = (budget * reach / (demand + budget) + 1).max(self.period as u128 + 1);
        (rise - 1).min(last as u128) as Time
    }
}

impl Iterator for NecessaryBudgets {
    type Item = Time;

    fn next(&mut self) -> Option<Time> {
        let period = self.period + 1;
        self.period = period;
        if self.by_rate / period as f64 <= self.utilization {
            self.by_rate += 1.0;
        }
        // `t₁ − Π + Θ`, zero when the blackout swallows the first deadline.
        let supplied =
            (self.first_deadline.saturating_add(self.by_deadline)).saturating_sub(period);
        if (self.by_deadline as u128) * (supplied as u128)
            < (self.first_demand as u128) * (period as u128)
        {
            self.by_deadline += 1;
        }
        Some((self.by_rate as Time).max(self.by_deadline).min(period))
    }
}

/// Minimum budget `Θ` that makes `set` schedulable on period `period`, found
/// by binary search (schedulability is monotone in `Θ`); `None` if even the
/// dedicated budget `Θ = Π` fails.
pub fn min_budget_for_period(set: &TaskSet, period: Time) -> Option<Time> {
    min_budget_with_curve(&mut DemandCurve::new(set), period)
}

/// [`min_budget_for_period`] against a caller-supplied [`DemandCurve`], so
/// the demand change points survive across the binary search (and across
/// candidate periods when sizing one set repeatedly). The search starts at
/// the plain utilization bound `max(1, ⌈U·Π⌉)`, independent of
/// [`NecessaryBudgets`], so it can serve as that bound's check.
pub fn min_budget_with_curve(curve: &mut DemandCurve<'_>, period: Time) -> Option<Time> {
    let floor = budget_lower_bound(curve.set().utilization(), period).min(period);
    min_budget_within(curve, period, floor, period)
}

/// The budget search on `period` over `[floor, ceiling]`. No schedulable
/// budget lies below the proven `floor`, so when the floor passes it *is*
/// the minimum and one test decides. A budget above `ceiling` is of no use
/// to the caller, so the `Θ = Π` feasibility gate becomes a test at the
/// ceiling, and `None` means that no budget up to it schedules. With
/// `ceiling = Π` this is the plain minimum-budget search.
fn min_budget_within(
    curve: &mut DemandCurve<'_>,
    period: Time,
    floor: Time,
    ceiling: Time,
) -> Option<Time> {
    debug_assert!(1 <= floor && floor <= ceiling && ceiling <= period);
    let probe = PeriodicResource::new(period, floor).expect("1 ≤ floor ≤ Π");
    if curve.is_schedulable(&probe) {
        return Some(floor);
    }
    let top = PeriodicResource::new(period, ceiling).expect("1 ≤ ceiling ≤ Π");
    if floor == ceiling || !curve.is_schedulable(&top) {
        return None;
    }
    let mut lo = floor + 1;
    let mut hi = ceiling;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let r = PeriodicResource::new(period, mid).expect("1 ≤ mid ≤ Π");
        if curve.is_schedulable(&r) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Result of [`select_interface_detailed`]: the chosen interface plus the
/// candidate-period range it was selected from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionResult {
    /// The minimum-bandwidth interface over the enumerated range.
    pub interface: PeriodicResource,
    /// The period range searched, including whether the enumeration cap
    /// truncated the analytic Theorem 2 bound. When
    /// `period_bound.truncated` is set the interface is minimal only over
    /// the clamped range; widen via [`SelectionContext::with_period_cap`]
    /// to search the full analytic range.
    pub period_bound: FeasiblePeriodBound,
}

/// Selects the minimum-bandwidth periodic resource interface `(Π, Θ)` for a
/// VE running `set`, given the level context `ctx` (the paper's interface
/// selection problem at one level).
///
/// # Errors
///
/// Returns [`Error::NoFeasibleInterface`] if `set` is empty (a VE with no
/// tasks needs no interface) or if no `(Π, Θ)` within the Theorem 2 range
/// schedules the set.
///
/// # Example
///
/// ```
/// use bluescale_rt::task::{Task, TaskSet};
/// use bluescale_rt::interface::{select_interface, SelectionContext};
///
/// let set = TaskSet::new(vec![Task::new(0, 40, 4)?, Task::new(1, 60, 6)?])?;
/// let iface = select_interface(&set, &SelectionContext::isolated(&set))?;
/// // Bandwidth is at least the utilization but far below a dedicated link.
/// assert!(iface.bandwidth() >= set.utilization());
/// assert!(iface.bandwidth() < 1.0);
/// # Ok::<(), bluescale_rt::Error>(())
/// ```
pub fn select_interface(set: &TaskSet, ctx: &SelectionContext) -> Result<PeriodicResource, Error> {
    select_interface_detailed(set, ctx).map(|r| r.interface)
}

/// [`select_interface`] that additionally reports the searched period range
/// and whether the enumeration cap truncated it (see [`SelectionResult`]).
///
/// # Errors
///
/// Same as [`select_interface`].
pub fn select_interface_detailed(
    set: &TaskSet,
    ctx: &SelectionContext,
) -> Result<SelectionResult, Error> {
    if set.is_empty() {
        return Err(Error::NoFeasibleInterface);
    }
    let period_bound = feasible_period_bound(set, ctx);
    let last = period_bound.period;
    // Bound pass: the floor interface promising the lowest bandwidth (the
    // smallest period on ties).
    let cheapest = NecessaryBudgets::new(set).cheapest(last);
    let mut curve = DemandCurve::new(set);
    let mut best =
        min_budget_within(&mut curve, cheapest.0, cheapest.1, cheapest.0).map(|b| (cheapest.0, b));
    // When the cheapest floor schedules it precedes every other period's
    // floor, hence every other period's budget: nothing is left to scan.
    if best != Some(cheapest) {
        for (period, floor) in (1..=last).zip(NecessaryBudgets::new(set)) {
            // A period can only win if its floor already precedes the
            // incumbent: its selected budget is at least the floor.
            if period == cheapest.0 || best.is_some_and(|b| !precedes((period, floor), b)) {
                continue;
            }
            // Only a budget whose interface precedes the incumbent can
            // win, so the search stops there: any budget it finds replaces
            // the incumbent.
            let ceiling = best.map_or(period, |b| budget_ceiling(period, b));
            if let Some(budget) = min_budget_within(&mut curve, period, floor, ceiling) {
                best = Some((period, budget));
            }
        }
    }
    best.map(|(period, budget)| SelectionResult {
        interface: PeriodicResource::new(period, budget).expect("budget ≤ period"),
        period_bound,
    })
    .ok_or(Error::NoFeasibleInterface)
}

/// The largest budget on `period` whose interface precedes `incumbent`
/// (at most `Π`): strictly lower bandwidth, or equal bandwidth at a smaller
/// period.
fn budget_ceiling(period: Time, (incumbent_period, incumbent_budget): (Time, Time)) -> Time {
    let scaled = incumbent_budget as u128 * period as u128;
    let ceiling = if period < incumbent_period {
        scaled / incumbent_period as u128
    } else {
        (scaled - 1) / incumbent_period as u128
    };
    ceiling.min(period as u128) as Time
}

/// The selection order on `(Π, Θ)` pairs: lower bandwidth `Θ/Π` first
/// (compared exactly by cross-multiplication), then the smaller period.
fn precedes((period_a, budget_a): (Time, Time), (period_b, budget_b): (Time, Time)) -> bool {
    let a = budget_a as u128 * period_b as u128;
    let b = budget_b as u128 * period_a as u128;
    a < b || (a == b && period_a < period_b)
}

/// Reference implementation of [`select_interface`]: exhaustive enumeration
/// with no pruning and no demand memoization (the seed algorithm). Exists
/// as the oracle for differential tests and as the benchmark baseline; the
/// tuned path must return bit-identical `(Π, Θ)`.
///
/// # Errors
///
/// Same as [`select_interface`].
pub fn select_interface_exhaustive(
    set: &TaskSet,
    ctx: &SelectionContext,
) -> Result<PeriodicResource, Error> {
    if set.is_empty() {
        return Err(Error::NoFeasibleInterface);
    }
    let max_period = max_feasible_period(set, ctx);
    let mut best: Option<PeriodicResource> = None;
    for period in 1..=max_period {
        let Some(budget) = min_budget_naive(set, period) else {
            continue;
        };
        let candidate = PeriodicResource::new(period, budget).expect("budget ≤ period");
        best = match best {
            None => Some(candidate),
            Some(b) if candidate.bandwidth_lt(&b) => Some(candidate),
            Some(b) => Some(b),
        };
    }
    best.ok_or(Error::NoFeasibleInterface)
}

/// The seed's binary search: every probe recomputes the demand side from
/// scratch through the one-shot [`is_schedulable`].
fn min_budget_naive(set: &TaskSet, period: Time) -> Option<Time> {
    let full = PeriodicResource::new(period, period).expect("Θ=Π is always valid");
    if !is_schedulable(set, &full) {
        return None;
    }
    let mut lo = budget_lower_bound(set.utilization(), period);
    let mut hi = period;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let r = PeriodicResource::new(period, mid).expect("1 ≤ mid ≤ Π");
        if is_schedulable(set, &r) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Converts the selected interfaces of one level into the server *tasks*
/// seen by the level above (`Tᵢ = Πᵢ, Cᵢ = Θᵢ`; paper Section 5, footnote 1).
///
/// Task ids are assigned positionally (`0..n`).
///
/// # Errors
///
/// Propagates [`Error::Overutilized`] if the combined server tasks exceed
/// full utilization — exactly the condition under which the upper level can
/// never be schedulable.
pub fn server_tasks(interfaces: &[PeriodicResource]) -> Result<TaskSet, Error> {
    let tasks = interfaces
        .iter()
        .enumerate()
        .map(|(i, r)| Task::new(i as u32, r.period(), r.budget()))
        .collect::<Result<Vec<_>, _>>()?;
    TaskSet::new(tasks)
}

/// Sizes the VEs of a single SE: one interface per non-empty local client
/// task set, all sharing the SE's capacity (Theorem 2 uses the *combined*
/// utilization of the four clients).
///
/// Returns one `Option<PeriodicResource>` per input set, `None` for empty
/// client task sets (idle ports need no server task).
///
/// # Errors
///
/// Returns [`Error::Overutilized`] if the clients' combined utilization
/// exceeds 1 (checked exactly, in rational arithmetic), or
/// [`Error::NoFeasibleInterface`] if any non-empty client cannot be served.
pub fn select_se_interfaces(
    client_sets: &[TaskSet],
) -> Result<Vec<Option<PeriodicResource>>, Error> {
    select_se_interfaces_with_divisor(client_sets, 1)
}

/// Like [`select_se_interfaces`] with a granularity cap: candidate periods
/// are additionally bounded by `min_deadline / divisor` per client (see
/// [`SelectionContext::with_period_divisor`]).
///
/// # Errors
///
/// Same as [`select_se_interfaces`].
pub fn select_se_interfaces_with_divisor(
    client_sets: &[TaskSet],
    divisor: Time,
) -> Result<Vec<Option<PeriodicResource>>, Error> {
    let mut exact = UtilizationSum::new();
    for task in client_sets.iter().flat_map(TaskSet::iter) {
        exact.add(task.wcet(), task.period());
    }
    let total: f64 = client_sets.iter().map(TaskSet::utilization).sum();
    if !exact.at_most_one() {
        return Err(Error::Overutilized {
            utilization_millis: (total * 1000.0).round() as u64,
        });
    }
    let ctx = SelectionContext::shared(total).with_period_divisor(divisor);
    client_sets
        .iter()
        .map(|set| {
            if set.is_empty() {
                Ok(None)
            } else {
                select_interface(set, &ctx).map(Some)
            }
        })
        .collect()
}

/// Root admission check (paper, end of Section 5): the level-0 resource
/// (the memory controller) must not be over-utilized by the level-1 server
/// tasks, i.e. `Σ Θ_X/Π_X ≤ 1` — evaluated exactly in rational arithmetic
/// (no floating-point tolerance; a root marginally above 1 is rejected).
pub fn root_admissible(interfaces: &[PeriodicResource]) -> bool {
    let mut sum = UtilizationSum::new();
    for r in interfaces {
        sum.add(r.budget(), r.period());
    }
    sum.at_most_one()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn min_budget_monotone_sanity() {
        let s = set(&[(20, 2), (50, 5)]);
        let b = min_budget_for_period(&s, 5).expect("feasible");
        // The found budget schedules; one less does not.
        assert!(is_schedulable(&s, &PeriodicResource::new(5, b).unwrap()));
        if b > 1 {
            assert!(!is_schedulable(
                &s,
                &PeriodicResource::new(5, b - 1).unwrap()
            ));
        }
    }

    #[test]
    fn min_budget_none_when_infeasible_period() {
        // Deadline 4 but the resource period is 16: even a dedicated budget
        // cannot help? Θ=Π means supply = t, which schedules U<=1. So a
        // feasible answer exists for any period; check it is returned.
        let s = set(&[(4, 1)]);
        assert!(min_budget_for_period(&s, 16).is_some());
    }

    #[test]
    fn min_budget_with_curve_matches_fresh_curves() {
        let s = set(&[(14, 3), (33, 5), (60, 7)]);
        let mut shared = DemandCurve::new(&s);
        for period in 1..=40 {
            assert_eq!(
                min_budget_with_curve(&mut shared, period),
                min_budget_for_period(&s, period),
                "shared-curve result diverged at Π={period}"
            );
        }
    }

    #[test]
    fn select_interface_minimizes_bandwidth() {
        let s = set(&[(20, 2), (50, 5)]); // U = 0.2
        let iface = select_interface(&s, &SelectionContext::isolated(&s)).unwrap();
        assert!(iface.bandwidth() >= s.utilization() - 1e-12);
        // Must beat the trivial dedicated allocation by a wide margin.
        assert!(iface.bandwidth() < 0.9, "bandwidth {}", iface.bandwidth());
        // And the chosen pair indeed schedules the set.
        assert!(is_schedulable(&s, &iface));
    }

    #[test]
    fn select_interface_exhaustive_cross_check() {
        // Verify minimality against exhaustive enumeration on a small case.
        let s = set(&[(12, 3)]);
        let ctx = SelectionContext::isolated(&s);
        let chosen = select_interface(&s, &ctx).unwrap();
        let max_p = max_feasible_period(&s, &ctx);
        for p in 1..=max_p {
            for b in 1..=p {
                let r = PeriodicResource::new(p, b).unwrap();
                if is_schedulable(&s, &r) {
                    assert!(
                        !r.bandwidth_lt(&chosen),
                        "found better interface {r:?} than chosen {chosen:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_matches_reference_on_fixed_sets() {
        let sets = [
            set(&[(12, 3)]),
            set(&[(20, 2), (50, 5)]),
            set(&[(7, 1), (11, 2), (13, 3)]),
            set(&[(100, 40), (150, 30)]),
        ];
        for s in &sets {
            for divisor in [1, 2, 4] {
                let ctx = SelectionContext::isolated(s).with_period_divisor(divisor);
                assert_eq!(
                    select_interface(s, &ctx),
                    select_interface_exhaustive(s, &ctx),
                    "pruned/memoized result diverged for {s:?} (divisor {divisor})"
                );
            }
        }
    }

    #[test]
    fn carried_floors_equal_the_direct_floors() {
        // With U < 1 and dbf(t₁) ≤ t₁ each carried floor is exact: the
        // smallest Θ passing the gate, and the smallest passing (b).
        let sets = [
            set(&[(12, 3)]),
            set(&[(20, 2), (50, 5)]),
            set(&[(7, 1), (11, 2), (13, 3)]),
            set(&[(64, 16), (64, 16), (64, 16)]),
            TaskSet::new(vec![Task::with_deadline(0, 100, 90, 30).unwrap()]).unwrap(),
        ];
        for s in &sets {
            let u = s.utilization();
            let t1 = s.min_deadline().unwrap();
            let d = dbf_set(s, t1);
            for (period, floor) in (1..=300).zip(NecessaryBudgets::new(s)) {
                let gate = (1..).find(|&b| b as f64 / period as f64 > u).unwrap();
                let first = (1..)
                    .find(|&b| b * (t1 + b).saturating_sub(period) >= d * period)
                    .unwrap();
                assert_eq!(floor, gate.max(first).min(period), "{s:?} at Π={period}");
            }
        }
    }

    #[test]
    fn select_interface_empty_set_errors() {
        let e = select_interface(&TaskSet::empty(), &SelectionContext::shared(0.0));
        assert_eq!(e.unwrap_err(), Error::NoFeasibleInterface);
    }

    #[test]
    #[should_panic(expected = "period divisor must be positive")]
    fn zero_period_divisor_rejected_at_construction() {
        // Matching the FaultWindow empty-window fix: degenerate parameters
        // fail loudly at construction, never as a silent divide-by-zero in
        // the middle of a selection sweep.
        let s = set(&[(40, 4)]);
        let _ = SelectionContext::isolated(&s).with_period_divisor(0);
    }

    #[test]
    #[should_panic(expected = "period cap must be positive")]
    fn zero_period_cap_rejected_at_construction() {
        let s = set(&[(40, 4)]);
        let _ = SelectionContext::isolated(&s).with_period_cap(0);
    }

    #[test]
    fn boundary_divisor_and_cap_of_one_are_valid() {
        // The smallest legal values: divisor 1 is the paper's bare Theorem 2
        // bound, cap 1 degenerates the search to the single period Π = 1.
        let s = set(&[(40, 4)]);
        let ctx = SelectionContext::isolated(&s)
            .with_period_divisor(1)
            .with_period_cap(1);
        assert_eq!(ctx.period_divisor(), 1);
        assert_eq!(ctx.period_cap(), 1);
        let b = feasible_period_bound(&s, &ctx);
        assert_eq!(b.period, 1);
        assert!(b.truncated, "cap 1 clips the analytic bound of 40");
        let iface = select_interface(&s, &ctx).unwrap();
        assert_eq!(iface.period(), 1, "only Π = 1 is enumerable under cap 1");
    }

    #[test]
    fn theorem2_bound_shrinks_with_contention() {
        let s = set(&[(40, 4)]); // U = 0.1, min_T = 40
        let lonely = max_feasible_period(&s, &SelectionContext::isolated(&s));
        // Siblings carrying 0.6 utilization: Π ≤ 40 / (2·0.6) = 33.
        let crowded = max_feasible_period(&s, &SelectionContext::shared(0.7));
        assert_eq!(lonely, 40);
        assert_eq!(crowded, 33);
    }

    #[test]
    fn period_bound_reports_truncation_at_the_cap_boundary() {
        // min_deadline exactly at the cap: analytic bound == cap, no
        // truncation; one past the cap: truncated.
        let at_cap = set(&[(MAX_PERIOD_CANDIDATES, 1)]);
        let ctx = SelectionContext::isolated(&at_cap);
        let b = feasible_period_bound(&at_cap, &ctx);
        assert_eq!(b.period, MAX_PERIOD_CANDIDATES);
        assert!(!b.truncated);

        let past_cap = set(&[(MAX_PERIOD_CANDIDATES + 1, 1)]);
        let ctx = SelectionContext::isolated(&past_cap);
        let b = feasible_period_bound(&past_cap, &ctx);
        assert_eq!(b.period, MAX_PERIOD_CANDIDATES);
        assert!(b.truncated, "cap truncation must be surfaced");
        let detailed = select_interface_detailed(&past_cap, &ctx).unwrap();
        assert!(detailed.period_bound.truncated);
    }

    #[test]
    fn widened_cap_recovers_the_truncated_optimum() {
        // A single light task with a huge deadline: the true minimum-
        // bandwidth interface needs Π beyond the default cap. The default
        // search must flag the truncation, and widening the cap must find a
        // strictly cheaper interface.
        let s = set(&[(40_000, 4)]); // U = 1e-4
        let capped_ctx = SelectionContext::isolated(&s);
        let capped = select_interface_detailed(&s, &capped_ctx).unwrap();
        assert!(capped.period_bound.truncated);

        let wide_ctx = SelectionContext::isolated(&s).with_period_cap(40_000);
        let wide = select_interface_detailed(&s, &wide_ctx).unwrap();
        assert!(!wide.period_bound.truncated);
        assert!(
            wide.interface.bandwidth_lt(&capped.interface),
            "widened cap should reach a cheaper interface: {:?} vs {:?}",
            wide.interface,
            capped.interface
        );
    }

    #[test]
    fn server_tasks_mirror_interfaces() {
        let ifaces = [
            PeriodicResource::new(10, 3).unwrap(),
            PeriodicResource::new(8, 2).unwrap(),
        ];
        let st = server_tasks(&ifaces).unwrap();
        assert_eq!(st.len(), 2);
        assert_eq!(st.tasks()[0].period(), 10);
        assert_eq!(st.tasks()[0].wcet(), 3);
        assert_eq!(st.tasks()[1].period(), 8);
        assert_eq!(st.tasks()[1].wcet(), 2);
    }

    #[test]
    fn se_interfaces_skip_empty_clients() {
        let sets = vec![
            set(&[(40, 4)]),
            TaskSet::empty(),
            set(&[(60, 6)]),
            TaskSet::empty(),
        ];
        let ifaces = select_se_interfaces(&sets).unwrap();
        assert!(ifaces[0].is_some());
        assert!(ifaces[1].is_none());
        assert!(ifaces[2].is_some());
        assert!(ifaces[3].is_none());
    }

    #[test]
    fn se_interfaces_reject_overutilized_clients() {
        let sets = vec![set(&[(10, 6)]), set(&[(10, 6)])];
        assert!(matches!(
            select_se_interfaces(&sets),
            Err(Error::Overutilized { .. })
        ));
    }

    #[test]
    fn se_capacity_check_is_exact() {
        // Four clients at exactly 1/4 each: admitted (sum is exactly 1).
        let quarters = vec![set(&[(4, 1)]); 4];
        assert!(select_se_interfaces(&quarters).is_ok());
        // Same four plus a marginal sliver far below any float tolerance:
        // must be rejected.
        let mut over = quarters;
        over.push(set(&[(1_000_000_000, 1)]));
        assert!(matches!(
            select_se_interfaces(&over),
            Err(Error::Overutilized { .. })
        ));
    }

    #[test]
    fn root_admission() {
        let ok = [
            PeriodicResource::new(10, 3).unwrap(),
            PeriodicResource::new(10, 3).unwrap(),
            PeriodicResource::new(10, 4).unwrap(),
        ];
        assert!(root_admissible(&ok));
        let too_much = [
            PeriodicResource::new(10, 6).unwrap(),
            PeriodicResource::new(10, 6).unwrap(),
        ];
        assert!(!root_admissible(&too_much));
        assert!(root_admissible(&[]));
    }

    #[test]
    fn root_admission_is_exact_at_the_boundary() {
        // Exactly 1: admitted.
        let exact = [
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(3, 1).unwrap(),
        ];
        assert!(root_admissible(&exact));
        // 1 + 1/(3·10⁹): within the old 1e-9 float tolerance, exactly over.
        let sliver = [
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(3, 1).unwrap(),
            PeriodicResource::new(3_000_000_000, 1).unwrap(),
        ];
        assert!(
            !root_admissible(&sliver),
            "marginally over-utilized root must be rejected"
        );
    }

    #[test]
    fn two_level_composition_is_consistent() {
        // Four leaf clients -> interfaces -> server tasks -> parent
        // interface; every stage must stay schedulable and bounded.
        let clients = vec![
            set(&[(100, 5)]),
            set(&[(80, 4)]),
            set(&[(120, 6)]),
            set(&[(90, 3)]),
        ];
        let ifaces: Vec<PeriodicResource> = select_se_interfaces(&clients)
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(ifaces.len(), 4);
        let servers = server_tasks(&ifaces).unwrap();
        let parent = select_interface(&servers, &SelectionContext::isolated(&servers)).unwrap();
        assert!(parent.bandwidth() >= servers.utilization() - 1e-12);
        assert!(is_schedulable(&servers, &parent));
    }
}
