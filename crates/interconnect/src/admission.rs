//! Online admission control: deterministic tenant-churn plans and the
//! reconfiguration outcome vocabulary.
//!
//! A [`ChurnPlan`] is the reconfiguration counterpart of a
//! [`FaultPlan`](bluescale_sim::fault::FaultPlan): a seeded, validated,
//! cycle-stamped schedule of [`ChurnKind::Join`] / [`ChurnKind::Leave`] /
//! [`ChurnKind::UpdateTasks`] requests that tenants present to a live
//! system. The harness drains due requests at the start of each cycle and
//! runs each through [`Interconnect::reconfigure_client`](crate::Interconnect::reconfigure_client);
//! the plan itself carries no randomness at run time — a generator derives
//! the schedule from the seed up front, so replaying the same plan
//! reproduces the same admissions bit-for-bit.
//!
//! Like the fault plan, an **empty** churn plan keeps the harness on the
//! exact churn-free code path (one branch per cycle), so a plan-less run is
//! bit-identical to one built before this subsystem existed.

use crate::ClientId;
use bluescale_rt::task::TaskSet;
use bluescale_sim::next_event::NextEvent;
use bluescale_sim::Cycle;

/// What a reconfiguration request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnKind {
    /// A tenant starts running on its client port with the declared tasks.
    Join {
        /// The task set the tenant declares at admission time.
        tasks: TaskSet,
    },
    /// The tenant leaves; its reservation is released. Always admissible
    /// (removing demand cannot break the root test).
    Leave,
    /// The tenant replaces its declared task set — a software mode change
    /// that must be re-admitted before the new parameters take effect.
    UpdateTasks {
        /// The replacement task set.
        tasks: TaskSet,
    },
}

impl ChurnKind {
    /// The task set this request asks the admission test to install: the
    /// declared set for joins and updates, the empty set for leaves.
    pub fn requested_tasks(&self) -> TaskSet {
        match self {
            ChurnKind::Join { tasks } | ChurnKind::UpdateTasks { tasks } => tasks.clone(),
            ChurnKind::Leave => TaskSet::empty(),
        }
    }

    /// Short stable name used in logs and exports.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnKind::Join { .. } => "join",
            ChurnKind::Leave => "leave",
            ChurnKind::UpdateTasks { .. } => "update",
        }
    }
}

/// One cycle-stamped reconfiguration request.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Cycle at which the request arrives at the runtime manager.
    pub at: Cycle,
    /// The client (tenant slot) the request concerns.
    pub client: ClientId,
    /// What is requested.
    pub kind: ChurnKind,
}

/// A deterministic, seeded schedule of reconfiguration requests.
///
/// Requests are kept sorted by arrival cycle (stable for ties: same-cycle
/// requests apply in push order) and handed out once each via
/// [`take_due`](Self::take_due). [`reset_state`](Self::reset_state) rewinds
/// the hand-out cursor so one plan can drive several runs.
///
/// # Example
///
/// ```
/// use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
/// use bluescale_rt::task::{Task, TaskSet};
///
/// let tasks = TaskSet::new(vec![Task::new(0, 100, 2)?])?;
/// let mut plan = ChurnPlan::new(42);
/// plan.push(1_000, 3, ChurnKind::Join { tasks })
///     .push(5_000, 3, ChurnKind::Leave);
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.next_activity(0), 1_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    seed: u64,
    events: Vec<ChurnSpec>,
    /// Index of the first request not yet handed out (run state).
    cursor: usize,
}

impl ChurnPlan {
    /// Creates an empty plan tagged with the seed its schedule was (or will
    /// be) derived from. The plan draws nothing at run time; the seed is
    /// provenance, recorded so an exported result names the exact scenario.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
            cursor: 0,
        }
    }

    /// The seed this plan's schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends a request, keeping the schedule sorted by arrival cycle.
    /// Returns `&mut Self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate request: a [`ChurnKind::Join`] or
    /// [`ChurnKind::UpdateTasks`] with an empty task set (vacating a slot
    /// is spelled [`ChurnKind::Leave`], so an empty set here is a scenario
    /// bug, caught at construction like the fault plan's parameter checks).
    pub fn push(&mut self, at: Cycle, client: ClientId, kind: ChurnKind) -> &mut Self {
        match &kind {
            ChurnKind::Join { tasks } | ChurnKind::UpdateTasks { tasks } => {
                assert!(
                    !tasks.is_empty(),
                    "join/update must declare at least one task (use Leave to vacate a slot)"
                );
            }
            ChurnKind::Leave => {}
        }
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, ChurnSpec { at, client, kind });
        self
    }

    /// Whether the plan schedules no requests at all. Hook sites branch on
    /// this once per cycle, keeping plan-less runs on the exact churn-free
    /// code path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total scheduled requests (processed or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All scheduled requests in arrival order.
    pub fn specs(&self) -> &[ChurnSpec] {
        &self.events
    }

    /// Requests not yet handed out by [`take_due`](Self::take_due).
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Rewinds the hand-out cursor so the plan can drive a fresh run.
    pub fn reset_state(&mut self) {
        self.cursor = 0;
    }

    /// Hands out the next unprocessed request if it is due at or before
    /// `now` (the catch-up discipline of task releases: a request is never
    /// skipped, at worst applied late when the caller stalled). Each
    /// request is handed out exactly once per [`reset_state`](Self::reset_state).
    pub fn take_due(&mut self, now: Cycle) -> Option<ChurnSpec> {
        let spec = self.events.get(self.cursor)?;
        if spec.at > now {
            return None;
        }
        self.cursor += 1;
        Some(self.events[self.cursor - 1].clone())
    }

    /// The earliest cycle ≥ `now` at which this plan requires the harness
    /// to act: `now` itself while an unprocessed request is due (the
    /// harness must not jump over a reconfiguration cycle), otherwise the
    /// next request's arrival cycle, or [`Cycle::MAX`] once the plan is
    /// drained.
    pub fn next_activity(&self, now: Cycle) -> Cycle {
        self.events
            .get(self.cursor)
            .map_or(Cycle::MAX, |spec| spec.at.max(now))
    }
}

impl NextEvent for ChurnPlan {
    fn next_event(&self, now: Cycle) -> Cycle {
        self.next_activity(now)
    }
}

/// Outcome of one live reconfiguration request (see
/// [`Interconnect::reconfigure_client`](crate::Interconnect::reconfigure_client)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigOutcome {
    /// Admission passed: the new parameters are installed, each affected
    /// server swapping at its own replenishment boundary.
    Admitted {
        /// Cycles between acceptance and each staged server's swap
        /// boundary, summed over the affected servers — the mode-change
        /// transition latency (0 when nothing needed a deferred swap).
        transition_cycles: u64,
    },
    /// Admission failed: the request was discarded and the interconnect's
    /// configuration is bit-identical to the state before the attempt.
    Rejected,
    /// The architecture has no runtime admission control (baselines, test
    /// doubles). The caller decides how to degrade — the harness applies
    /// the retask without any guarantee.
    Unsupported,
}

impl ReconfigOutcome {
    /// Whether the request was applied (with or without a guarantee).
    pub fn applied(&self) -> bool {
        !matches!(self, ReconfigOutcome::Rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_rt::task::Task;

    fn tasks(period: u64, wcet: u64) -> TaskSet {
        TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap()
    }

    #[test]
    fn push_keeps_arrival_order_stable() {
        let mut plan = ChurnPlan::new(7);
        plan.push(500, 1, ChurnKind::Leave)
            .push(
                100,
                2,
                ChurnKind::Join {
                    tasks: tasks(100, 1),
                },
            )
            .push(500, 3, ChurnKind::Leave);
        let ats: Vec<(Cycle, ClientId)> = plan.specs().iter().map(|s| (s.at, s.client)).collect();
        assert_eq!(ats, vec![(100, 2), (500, 1), (500, 3)]);
    }

    #[test]
    fn take_due_hands_out_each_request_once_in_order() {
        let mut plan = ChurnPlan::new(1);
        plan.push(10, 0, ChurnKind::Leave)
            .push(10, 1, ChurnKind::Leave)
            .push(30, 2, ChurnKind::Leave);
        assert!(plan.take_due(9).is_none());
        assert_eq!(plan.take_due(10).unwrap().client, 0);
        assert_eq!(plan.take_due(10).unwrap().client, 1);
        assert!(plan.take_due(10).is_none(), "cycle 30 not due yet");
        assert_eq!(plan.remaining(), 1);
        // Catch-up: a late caller still gets the request.
        assert_eq!(plan.take_due(100).unwrap().client, 2);
        assert_eq!(plan.remaining(), 0);
        plan.reset_state();
        assert_eq!(plan.remaining(), 3);
        assert_eq!(plan.take_due(50).unwrap().client, 0);
    }

    #[test]
    fn next_activity_pins_due_requests_and_reports_future_ones() {
        let mut plan = ChurnPlan::new(0);
        assert_eq!(plan.next_activity(5), Cycle::MAX, "empty plan never acts");
        plan.push(40, 0, ChurnKind::Leave);
        assert_eq!(plan.next_activity(5), 40);
        assert_eq!(plan.next_activity(40), 40);
        assert_eq!(
            plan.next_activity(60),
            60,
            "an overdue unprocessed request pins the harness to now"
        );
        let _ = plan.take_due(60);
        assert_eq!(plan.next_activity(60), Cycle::MAX);
        // Trait form agrees.
        assert_eq!(NextEvent::next_event(&plan, 0), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_join_is_rejected_at_construction() {
        let mut plan = ChurnPlan::new(0);
        plan.push(
            0,
            0,
            ChurnKind::Join {
                tasks: TaskSet::empty(),
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_update_is_rejected_at_construction() {
        let mut plan = ChurnPlan::new(0);
        plan.push(
            0,
            0,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::empty(),
            },
        );
    }

    #[test]
    fn requested_tasks_maps_leave_to_empty() {
        assert!(ChurnKind::Leave.requested_tasks().is_empty());
        let t = tasks(50, 2);
        assert_eq!(ChurnKind::Join { tasks: t.clone() }.requested_tasks(), t);
        assert_eq!(ChurnKind::Leave.name(), "leave");
        assert_eq!(ChurnKind::Join { tasks: t.clone() }.name(), "join");
        assert_eq!(ChurnKind::UpdateTasks { tasks: t }.name(), "update");
    }

    #[test]
    fn outcome_applied_classification() {
        assert!(ReconfigOutcome::Admitted {
            transition_cycles: 3
        }
        .applied());
        assert!(ReconfigOutcome::Unsupported.applied());
        assert!(!ReconfigOutcome::Rejected.applied());
    }
}
