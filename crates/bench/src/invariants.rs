//! What "two engines ran the same simulation" means, defined once, and the
//! scenarios the differential suites share.
//!
//! * [`Fingerprint`]: everything two finished runs must agree on to count
//!   as bit-identical, taken from a serial [`System`] or a
//!   [`ShardedSystem`] after `run` returns — so a sweep can time a run
//!   first and fingerprint it afterwards.
//! * [`assert_conserved`]: the request-conservation identity of a
//!   finished run, wherever its harness states one.
//! * The scenario kit: seeded workloads, configurations, serial and
//!   sharded builders, the fault, churn and guard set-ups several suites
//!   run, and [`Scenario`], which runs one set-up on the serial oracle and
//!   on the sharded harness at several worker counts.

use bluescale::network::Engine;
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::guard::{GuardConfig, WatchdogConfig};
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

/// A simulation harness over a BlueScale fabric whose finished run can be
/// fingerprinted and checked: the serial [`System`] on either engine, or
/// the [`ShardedSystem`].
pub trait Harness {
    /// Installs a fault plan.
    fn set_fault_plan(&mut self, plan: FaultPlan);
    /// Installs a churn plan.
    fn set_churn_plan(&mut self, plan: ChurnPlan);
    /// Runs to `horizon` and returns the aggregate metrics.
    fn run(&mut self, horizon: Cycle) -> RunMetrics;
    /// Steps to `horizon` without end-of-run accounting.
    fn advance_to(&mut self, horizon: Cycle);
    /// The fabric's configuration.
    fn config(&self) -> &BlueScaleConfig;
    /// The harness registry (System and Client aggregates).
    fn registry(&self) -> &MetricsRegistry;
    /// Per-SE forwarded-request counters, `[depth][order]`.
    fn forward_counts(&mut self) -> Vec<Vec<u64>>;
    /// The fabric registry (per-SE, port and bank tallies).
    fn fabric_metrics(&mut self) -> &MetricsRegistry;
    /// Requests issued but neither completed nor left in a client backlog,
    /// as the harness accounts for them; `None` where it states no
    /// conservation identity.
    fn unfinished(&mut self) -> Option<u64>;
}

impl<E: Engine> Harness for System<BlueScaleInterconnect<E>> {
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        System::set_fault_plan(self, plan);
    }
    fn set_churn_plan(&mut self, plan: ChurnPlan) {
        System::set_churn_plan(self, plan);
    }
    fn run(&mut self, horizon: Cycle) -> RunMetrics {
        System::run(self, horizon)
    }
    fn advance_to(&mut self, horizon: Cycle) {
        System::advance_to(self, horizon);
    }
    fn config(&self) -> &BlueScaleConfig {
        self.interconnect().config()
    }
    fn registry(&self) -> &MetricsRegistry {
        System::registry(self)
    }
    fn forward_counts(&mut self) -> Vec<Vec<u64>> {
        self.interconnect().forward_counts()
    }
    fn fabric_metrics(&mut self) -> &MetricsRegistry {
        System::fabric_metrics(self).expect("a BlueScale fabric keeps a registry")
    }
    /// With guards armed, every accepted request the guard layer has not
    /// seen delivered — in flight, or lost past the retry limit.
    fn unfinished(&mut self) -> Option<u64> {
        self.guards()
            .tracks()
            .then(|| self.guard_outstanding() as u64)
    }
}

impl Harness for ShardedSystem {
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        ShardedSystem::set_fault_plan(self, plan);
    }
    fn set_churn_plan(&mut self, plan: ChurnPlan) {
        ShardedSystem::set_churn_plan(self, plan);
    }
    fn run(&mut self, horizon: Cycle) -> RunMetrics {
        ShardedSystem::run(self, horizon)
    }
    fn advance_to(&mut self, horizon: Cycle) {
        ShardedSystem::advance_to(self, horizon);
    }
    fn config(&self) -> &BlueScaleConfig {
        ShardedSystem::config(self)
    }
    fn registry(&self) -> &MetricsRegistry {
        ShardedSystem::registry(self)
    }
    fn forward_counts(&mut self) -> Vec<Vec<u64>> {
        ShardedSystem::forward_counts(self)
    }
    fn fabric_metrics(&mut self) -> &MetricsRegistry {
        ShardedSystem::fabric_metrics(self)
    }
    /// Requests still inside the fabric or the memory controller, plus
    /// those the response-drop fault swallowed.
    fn unfinished(&mut self) -> Option<u64> {
        let dropped = self
            .fabric_metrics()
            .counter(ComponentId::System, Counter::ResponsesDropped);
        Some(self.pending() as u64 + dropped)
    }
}

/// Everything two finished runs must agree on to count as the same
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Issued, completed, missed and backlog; issued, completed and missed
    /// per client; forwards per SE; grants, then replenishments, per port.
    pub counts: Vec<u64>,
    /// The full latency, blocking and normalized-response sample
    /// sequences, in that order.
    pub samples: Vec<f64>,
}

impl Fingerprint {
    /// Fingerprints the run `sys` has just finished, given the metrics its
    /// `run` returned.
    pub fn of(sys: &mut (impl Harness + ?Sized), metrics: &mut RunMetrics) -> Self {
        let mut counts = vec![
            metrics.issued(),
            metrics.completed(),
            metrics.missed(),
            metrics.backlog(),
        ];
        let config = sys.config().clone();
        let registry = sys.registry();
        for client in 0..config.num_clients {
            let id = ComponentId::Client(client as u32);
            counts.extend(
                [Counter::Issued, Counter::Completed, Counter::Missed]
                    .map(|counter| registry.counter(id, counter)),
            );
        }
        counts.extend(sys.forward_counts().into_iter().flatten());
        let fabric = sys.fabric_metrics();
        for counter in [Counter::Grants, Counter::Replenishments] {
            for depth in 0..config.levels() {
                for order in 0..config.elements_at(depth) {
                    counts.extend(fabric.port_counters(depth, order, config.branch, counter));
                }
            }
        }
        let mut samples = metrics.latency().as_slice().to_vec();
        samples.extend_from_slice(metrics.blocking().as_slice());
        samples.extend_from_slice(metrics.normalized_response().as_slice());
        Self { counts, samples }
    }

    /// Requests issued.
    pub fn issued(&self) -> u64 {
        self.counts[0]
    }

    /// Requests completed.
    pub fn completed(&self) -> u64 {
        self.counts[1]
    }
}

/// Asserts the request-conservation identity of the run `sys` has just
/// finished: `issued = completed + backlog + unfinished`, where the
/// unfinished requests are
///
/// * on the serial harness with guards armed, the guard-outstanding ones
///   (in flight, or lost past the retry limit);
/// * on the sharded harness, those still inside the fabric or the memory
///   controller plus the dropped responses.
///
/// A serial run without guards states no identity and passes.
pub fn assert_conserved(sys: &mut (impl Harness + ?Sized), metrics: &RunMetrics, label: &str) {
    if let Some(unfinished) = sys.unfinished() {
        assert_eq!(
            metrics.issued(),
            metrics.completed() + metrics.backlog() + unfinished,
            "{label}: request conservation: issued = completed + backlog + unfinished"
        );
    }
}

/// Runs `sys` to `horizon`, asserts [`assert_conserved`] and returns the
/// run's [`Fingerprint`].
pub fn run_checked(sys: &mut (impl Harness + ?Sized), horizon: Cycle, label: &str) -> Fingerprint {
    let mut metrics = sys.run(horizon);
    assert_conserved(sys, &metrics, label);
    Fingerprint::of(sys, &mut metrics)
}

/// The synthetic workload `config` drawn from `seed`.
pub fn task_sets(config: &SyntheticConfig, seed: u64) -> Vec<TaskSet> {
    generate(config, &mut SimRng::seed_from(seed))
}

/// A low-utilization, long-period workload (one task per client, 5–10 %
/// utilization, periods of 2,000–4,000 cycles): real idle stretches, so
/// fast-forward jumps alongside stepping.
pub fn sparse_config(clients: usize) -> SyntheticConfig {
    SyntheticConfig {
        clients,
        util_lo: 0.05,
        util_hi: 0.10,
        max_tasks_per_client: 1,
        period_min: 2_000,
        period_max: 4_000,
        util_floor: 1e-4,
    }
}

/// The default configuration for `sets`, work-conserving or strictly
/// budget-gated.
pub fn config_for(sets: &[TaskSet], work_conserving: bool) -> BlueScaleConfig {
    BlueScaleConfig {
        work_conserving,
        ..BlueScaleConfig::for_clients(sets.len())
    }
}

/// The serial harness over engine `E`.
pub fn build_serial<E: Engine>(
    config: BlueScaleConfig,
    sets: &[TaskSet],
) -> System<BlueScaleInterconnect<E>> {
    let ic = BlueScaleInterconnect::<E>::with_engine(config, sets).expect("valid task sets");
    System::new(Box::new(ic), sets)
}

/// The sharded harness at `workers` workers.
pub fn build_sharded(config: BlueScaleConfig, sets: &[TaskSet], workers: usize) -> ShardedSystem {
    ShardedSystem::new(config, sets, workers).expect("valid task sets")
}

fn single_task(period: u64, wcet: u64) -> TaskSet {
    TaskSet::new(vec![Task::new(0, period, wcet).expect("valid task")]).expect("valid task set")
}

/// Three feasible churn events on a [`sparse_config`] workload: client 2
/// is retasked at cycle 6,000, client 9 leaves at 9,000 and rejoins with
/// its original tasks at 13,000.
pub fn light_churn_plan(sets: &[TaskSet], seed: u64) -> ChurnPlan {
    let mut plan = ChurnPlan::new(seed ^ 0xC482);
    plan.push(
        6_000,
        2,
        ChurnKind::UpdateTasks {
            tasks: single_task(2_500, 2),
        },
    )
    .push(9_000, 9, ChurnKind::Leave)
    .push(
        13_000,
        9,
        ChurnKind::Join {
            tasks: sets[9].clone(),
        },
    );
    plan
}

/// Four fault classes with idle stretches between them: a 24-request
/// burst from client 2 at cycle 5,000, grant line 0 of SE (1, 0) stuck
/// over 3,000–3,400, DRAM jitter on bank 0 over 1,000–9,000, and every
/// third response to client 3 dropped over 0–8,000.
pub fn sparse_fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed ^ 0xF00D);
    plan.push(
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
            client: 3,
            every: 3,
        },
        FaultWindow::new(0, 8_000),
    );
    plan
}

/// Miss detection plus a watchdog that re-issues up to three times. Its
/// 1,024-cycle timeout sits below [`sparse_config`]'s shortest deadline
/// window on purpose, so a differential sees live retry traffic; install
/// it with `System::set_guards_unchecked`.
pub fn retry_guards() -> GuardConfig {
    GuardConfig {
        deadline_miss_detection: true,
        watchdog: Some(WatchdogConfig {
            timeout: 1_024,
            max_retries: 3,
        }),
        quarantine: None,
    }
}

/// A sparse 256-client tree (4 levels) drawn from `seed`, with three quiet
/// corners: leaf SE 5 serves only client 20 and leaf SE 9 only client 36,
/// each with one request per 4,000 cycles (more than two of their server
/// periods), and depth-2 SE 3 (clients 48–63) serves nobody.
pub fn deep_quiet_sets(seed: u64) -> Vec<TaskSet> {
    let mut sets = task_sets(&sparse_config(256), seed);
    for client in (21..24).chain(37..40).chain(48..64) {
        sets[client] = TaskSet::empty();
    }
    sets[20] = single_task(4_000, 2);
    sets[36] = single_task(4_000, 2);
    sets
}

/// Churn and faults aimed at [`deep_quiet_sets`]' quiet corners. Client 20
/// is retasked about 7,850 cycles after its last request, so the staged
/// swap commits inside a multi-crossing catch-up when the slot is next
/// read; client 36 leaves and rejoins on an idle SE; grant lines of the
/// idle depth-2 SE 3, the busy depth-2 SE `busy_order` and the quiet
/// leaf SE 5 are held stuck for a while.
pub fn deep_quiet_plans(seed: u64, busy_order: usize) -> (ChurnPlan, FaultPlan) {
    let mut churn = ChurnPlan::new(seed ^ 0xDEE9);
    churn
        .push(
            7_900,
            20,
            ChurnKind::UpdateTasks {
                tasks: single_task(9_000, 2),
            },
        )
        .push(5_000, 36, ChurnKind::Leave)
        .push(
            11_000,
            36,
            ChurnKind::Join {
                tasks: single_task(4_000, 2),
            },
        );
    let mut faults = FaultPlan::new(seed ^ 0xDEE9);
    let stuck = |depth, order, port| FaultKind::StuckGrant { depth, order, port };
    faults
        .push(stuck(2, 3, 1), FaultWindow::new(2_000, 2_600))
        .push(stuck(2, busy_order, 0), FaultWindow::new(3_000, 3_400))
        .push(stuck(3, 5, 0), FaultWindow::new(9_000, 9_100));
    (churn, faults)
}

/// One seeded set-up, run on any harness: the workload, the configuration,
/// the horizon and the plans `prepare` installs.
pub struct Scenario<'a> {
    /// The client task sets.
    pub sets: &'a [TaskSet],
    /// The fabric configuration.
    pub config: BlueScaleConfig,
    /// Cycles to run.
    pub horizon: Cycle,
    /// Installs the scenario's plans on a freshly built harness.
    pub prepare: &'a dyn Fn(&mut dyn Harness),
    /// Names the scenario in assertion messages.
    pub label: &'a str,
}

impl Scenario<'_> {
    /// Runs the scenario on the serial harness over engine `E` and returns
    /// the finished system with its fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the run breaks conservation or issues no request.
    pub fn serial<E: Engine>(&self) -> (System<BlueScaleInterconnect<E>>, Fingerprint) {
        let mut sys = build_serial::<E>(self.config.clone(), self.sets);
        (self.prepare)(&mut sys);
        let fingerprint = run_checked(&mut sys, self.horizon, self.label);
        assert!(
            fingerprint.issued() > 0,
            "{}: the workload must issue requests",
            self.label
        );
        (sys, fingerprint)
    }

    /// Runs the scenario on the sharded harness at each of `workers` and
    /// returns the finished systems.
    ///
    /// # Panics
    ///
    /// Panics unless every run uses the requested workers (clamped to the
    /// branch factor), conserves requests and fingerprints as `expected`.
    pub fn assert_sharded(&self, expected: &Fingerprint, workers: &[usize]) -> Vec<ShardedSystem> {
        workers
            .iter()
            .map(|&workers| {
                let mut sys = build_sharded(self.config.clone(), self.sets, workers);
                (self.prepare)(&mut sys);
                assert_eq!(sys.workers(), workers.min(self.config.branch));
                let label = format!("{} at {workers} workers", self.label);
                let got = run_checked(&mut sys, self.horizon, &label);
                assert_eq!(&got, expected, "{label}: sharded run must be bit-identical");
                sys
            })
            .collect()
    }
}
