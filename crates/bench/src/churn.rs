//! Extension experiment: online tenant churn — the cost of one
//! path-local reconfiguration, and the disturbance a live transition
//! causes.
//!
//! The paper's Section 3.2 claims the property that makes BlueScale's
//! *scheduling* scale: when a task joins or leaves a client, only the
//! server tasks on that client's request path are updated — O(tree depth)
//! Scale Elements, where a centralized design recomputes every client's
//! bandwidth (Section 2.2). Two measurements, both exported to
//! `results/BENCH_admission.json` and rendered into `results/reconfig.md`:
//!
//! 1. **Reconfiguration cost.** A seeded stream of join/leave/update
//!    requests drives a live [`BlueScaleInterconnect`] through
//!    [`Interconnect::reconfigure_client`] — the trial-then-commit path the
//!    harnesses and the control plane use. Each event is also decided by a
//!    from-scratch [`Composition::new`] on the updated task sets. The two
//!    must make the same decision (admitted iff the fresh build is
//!    schedulable) and, on admission, hold identical interfaces — asserted
//!    per event before any timing is reported. The sweep reports the
//!    wall-clock gap and the SEs each re-analyzes, per tree depth.
//! 2. **Transition disturbance.** A live [`System`] over the real
//!    BlueScale fabric runs a [`ChurnPlan`]; the mode-change protocol's
//!    promise is that already-admitted tenants never miss a deadline
//!    across a transition, so the report carries the deadline misses of
//!    every *non-churned* client (expected: zero) next to the staged
//!    transition latencies.

use bluescale::composition::Composition;
use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
use bluescale_interconnect::system::System;
use bluescale_interconnect::Interconnect;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use std::time::Instant;

/// Configuration of the churn sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Client counts to sweep (each maps to a tree depth).
    pub client_counts: Vec<usize>,
    /// Churn events applied per point.
    pub events: usize,
    /// Master seed.
    pub seed: u64,
    /// Horizon of the live disturbance run, in cycles.
    pub horizon: Cycle,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            client_counts: vec![16, 64, 256, 1024],
            events: 40,
            seed: 0xC4A2,
            horizon: 30_000,
        }
    }
}

/// One reconfiguration-cost sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// Number of clients.
    pub clients: usize,
    /// Tree depth (SE levels): the SEs one reconfiguration re-solves.
    pub levels: usize,
    /// Churn events applied.
    pub events: usize,
    /// Events admitted (identical under both strategies).
    pub admitted: usize,
    /// Events rejected (infeasible selection or inadmissible root).
    pub rejected: usize,
    /// Mean wall-clock microseconds per `reconfigure_client`.
    pub reconfigure_us: f64,
    /// Mean wall-clock microseconds per `Composition::new`.
    pub rebuild_us: f64,
    /// SEs a from-scratch composition solves (the whole tree).
    pub ses_full: usize,
}

impl ChurnPoint {
    /// Wall-clock speed-up of the path-local reconfiguration.
    pub fn speedup(&self) -> f64 {
        self.rebuild_us / self.reconfigure_us.max(1e-9)
    }
}

/// Disturbance of a live churn run over the BlueScale fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbanceReport {
    /// Clients in the live system.
    pub clients: usize,
    /// Reconfigurations applied.
    pub reconfigurations: u64,
    /// Requests admitted by the online admission test.
    pub admitted: u64,
    /// Requests rejected and rolled back.
    pub rejected: u64,
    /// Cycles spent waiting for replenishment boundaries, summed over all
    /// staged parameter swaps.
    pub transition_cycles: u64,
    /// Deadline misses among clients the plan never touched (the
    /// zero-disturbance claim: this must be 0).
    pub missed_untouched: u64,
    /// Total requests issued.
    pub issued: u64,
}

/// `n` single-task clients at ~10% combined utilization: feasible at every
/// tree depth, with headroom for churn to be admitted against.
fn light_sets(n: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    let base = 25 * n as u64;
    (0..n)
        .map(|_| {
            let period = base + 10 * rng.range_u64(0, 8);
            let wcet = 1 + rng.range_u64(0, 3);
            TaskSet::new(vec![Task::new(0, period, wcet).expect("valid task")])
                .expect("single task cannot collide")
        })
        .collect()
}

/// Draws the next churn request: a mix of feasible retasks, leaves, and
/// occasional hogs that must be rejected.
fn draw_event(clients: usize, rng: &mut SimRng) -> (usize, TaskSet) {
    let client = rng.range_usize(0, clients);
    let tasks = match rng.range_u64(0, 8) {
        0 => TaskSet::empty(), // leave
        1 => {
            // A hog demanding most of one SE: the admission test must
            // reject it (and both strategies must agree it does).
            TaskSet::new(vec![Task::new(0, 10, 9).expect("valid task")]).expect("valid set")
        }
        _ => {
            let base = 25 * clients as u64;
            let period = base + 10 * rng.range_u64(0, 8);
            TaskSet::new(vec![
                Task::new(0, period, 1 + rng.range_u64(0, 3)).expect("valid task")
            ])
            .expect("valid set")
        }
    };
    (client, tasks)
}

/// Runs the reconfiguration-cost sweep.
///
/// # Panics
///
/// Panics if `reconfigure_client` and a fresh [`Composition::new`] ever
/// disagree on an admission decision, or on the interfaces after an
/// admitted event — the timings are only meaningful while the two are
/// equivalent.
pub fn run(config: &ChurnConfig) -> Vec<ChurnPoint> {
    let mut master = SimRng::seed_from(config.seed);
    config
        .client_counts
        .iter()
        .map(|&clients| {
            let mut rng = master.fork();
            let mut sets = light_sets(clients, &mut rng);
            let bs = BlueScaleConfig::for_clients(clients);
            let mut ic =
                BlueScaleInterconnect::new(bs.clone(), &sets).expect("light workload builds");
            let (mut admitted, mut rejected) = (0usize, 0usize);
            let (mut reconfigure_total, mut rebuild_total) = (0.0f64, 0.0f64);
            for _ in 0..config.events {
                let (client, tasks) = draw_event(clients, &mut rng);
                let mut updated = sets.clone();
                updated[client] = tasks;

                let start = Instant::now();
                let outcome = ic.reconfigure_client(client as u32, &updated[client], 0);
                reconfigure_total += start.elapsed().as_secs_f64() * 1e6;

                let start = Instant::now();
                let fresh = Composition::new(bs.clone(), &updated).expect("valid task sets");
                rebuild_total += start.elapsed().as_secs_f64() * 1e6;

                assert_eq!(
                    outcome.applied(),
                    fresh.report().schedulable,
                    "decisions disagree on client {client}: {outcome:?}"
                );
                if outcome.applied() {
                    admitted += 1;
                    sets = updated;
                    assert_eq!(
                        ic.composition().interfaces,
                        fresh.report().interfaces,
                        "committed interfaces diverged on client {client}"
                    );
                } else {
                    rejected += 1;
                }
            }
            ChurnPoint {
                clients,
                levels: bs.levels(),
                events: config.events,
                admitted,
                rejected,
                reconfigure_us: reconfigure_total / config.events as f64,
                rebuild_us: rebuild_total / config.events as f64,
                ses_full: bs.total_elements(),
            }
        })
        .collect()
}

/// Runs the live disturbance measurement: a [`ChurnPlan`] of feasible
/// retasks against the real fabric, reporting the misses of every client
/// the plan never touched.
pub fn run_disturbance(config: &ChurnConfig) -> DisturbanceReport {
    let clients = 16;
    let mut rng = SimRng::seed_from(config.seed ^ 0xD157);
    let sets = light_sets(clients, &mut rng);
    let mut bs = BlueScaleConfig::for_clients(clients);
    bs.work_conserving = true;
    let ic = BlueScaleInterconnect::new(bs, &sets).expect("light workload builds");
    let mut sys = System::new(Box::new(ic), &sets);

    // Churn clients 3 and 7 only; every other client must ride through
    // all four transitions without a single miss.
    let churned = [3u32, 7u32];
    let mut plan = ChurnPlan::new(config.seed);
    let retask = TaskSet::new(vec![
        Task::new(0, 25 * clients as u64, 2).expect("valid task")
    ])
    .expect("valid set");
    plan.push(
        config.horizon / 5,
        churned[0],
        ChurnKind::UpdateTasks {
            tasks: retask.clone(),
        },
    );
    plan.push(2 * config.horizon / 5, churned[1], ChurnKind::Leave);
    plan.push(
        3 * config.horizon / 5,
        churned[1],
        ChurnKind::Join {
            tasks: sets[churned[1] as usize].clone(),
        },
    );
    plan.push(
        4 * config.horizon / 5,
        churned[0],
        ChurnKind::UpdateTasks {
            tasks: sets[churned[0] as usize].clone(),
        },
    );
    sys.set_churn_plan(plan);
    let m = sys.run(config.horizon);
    let missed_untouched = sys
        .per_client_metrics()
        .iter()
        .enumerate()
        .filter(|(c, _)| !churned.contains(&(*c as u32)))
        .map(|(_, m)| m.missed())
        .sum();
    // Churn accounting is single-owner (harness registry), so the merged
    // view reads the same totals a harness-only read would.
    let reg = sys.merged_registry();
    DisturbanceReport {
        clients,
        reconfigurations: reg.counter(ComponentId::System, Counter::Reconfigurations),
        admitted: reg.counter(ComponentId::System, Counter::Admitted),
        rejected: reg.counter(ComponentId::System, Counter::AdmissionRejected),
        transition_cycles: reg.counter(ComponentId::System, Counter::TransitionCycles),
        missed_untouched,
        issued: m.issued(),
    }
}

/// Records the sweep into a registry for the JSON snapshot
/// (`results/BENCH_admission.json`).
pub fn record_into(
    registry: &mut MetricsRegistry,
    points: &[ChurnPoint],
    disturbance: &DisturbanceReport,
) {
    for (i, p) in points.iter().enumerate() {
        let series = ComponentId::Series(i as u16);
        registry.set_gauge(series, "clients", p.clients as f64);
        registry.set_gauge(series, "levels", p.levels as f64);
        registry.set_gauge(series, "reconfigure_us", p.reconfigure_us);
        registry.set_gauge(series, "rebuild_us", p.rebuild_us);
        registry.set_gauge(series, "speedup", p.speedup());
        registry.set_gauge(series, "ses_full", p.ses_full as f64);
        registry.add(series, Counter::Admitted, p.admitted as u64);
        registry.add(series, Counter::AdmissionRejected, p.rejected as u64);
        registry.add(series, Counter::Trials, p.events as u64);
    }
    let sys = ComponentId::System;
    registry.add(sys, Counter::Reconfigurations, disturbance.reconfigurations);
    registry.add(sys, Counter::Admitted, disturbance.admitted);
    registry.add(sys, Counter::AdmissionRejected, disturbance.rejected);
    registry.add(
        sys,
        Counter::TransitionCycles,
        disturbance.transition_cycles,
    );
    registry.add(sys, Counter::Missed, disturbance.missed_untouched);
    registry.set_gauge(sys, "disturbance_issued", disturbance.issued as f64);
}

/// Renders both measurements as markdown.
pub fn render(
    config: &ChurnConfig,
    points: &[ChurnPoint],
    disturbance: &DisturbanceReport,
) -> String {
    let mut s = format!(
        "# Extension: online churn — path-local reconfiguration vs a fresh \
         composition ({} events/point)\n\n",
        config.events
    );
    s.push_str(
        "| Clients | Depth | Admitted | Rejected | SEs (path) | SEs (full) | \
         reconfigure_client (µs) | Composition::new (µs) | Speed-up |\n",
    );
    s.push_str("|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for p in points {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.0} | {:.0} | {:.1}× |\n",
            p.clients,
            p.levels,
            p.admitted,
            p.rejected,
            p.levels,
            p.ses_full,
            p.reconfigure_us,
            p.rebuild_us,
            p.speedup(),
        ));
    }
    s.push_str(&format!(
        "\nLive transition disturbance ({} clients, horizon {}): \
         {} reconfigurations ({} admitted, {} rejected), {} staged \
         transition cycles, **{} deadline misses among untouched clients** \
         over {} requests.\n",
        disturbance.clients,
        config.horizon,
        disturbance.reconfigurations,
        disturbance.admitted,
        disturbance.rejected,
        disturbance.transition_cycles,
        disturbance.missed_untouched,
        disturbance.issued,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnConfig {
        ChurnConfig {
            client_counts: vec![16, 64],
            events: 12,
            seed: 9,
            horizon: 10_000,
        }
    }

    #[test]
    fn reconfiguration_agrees_with_a_fresh_build_and_touches_only_the_path() {
        // `run` itself asserts decision and interface equality per event.
        let pts = run(&tiny());
        for p in &pts {
            assert_eq!(p.admitted + p.rejected, p.events);
            assert!(p.admitted > 0, "some churn must be admitted");
            assert!(p.rejected > 0, "hogs must be rejected");
        }
        // 16 clients: depth 2 of 1 + 4 SEs; 64 clients: depth 3 of 21.
        // 4× the clients adds one SE to the path but 4× the tree.
        assert_eq!((pts[0].levels, pts[0].ses_full), (2, 5));
        assert_eq!((pts[1].levels, pts[1].ses_full), (3, 21));
    }

    #[test]
    fn live_churn_leaves_untouched_clients_unharmed() {
        let d = run_disturbance(&tiny());
        assert_eq!(d.missed_untouched, 0, "transitions must not disturb");
        assert_eq!(d.admitted, 4, "all four planned events are feasible");
        assert_eq!(d.rejected, 0);
        assert!(d.transition_cycles > 0, "swaps wait for the boundary");
    }

    #[test]
    fn render_reports_speedup_and_disturbance() {
        let cfg = tiny();
        let text = render(&cfg, &run(&cfg), &run_disturbance(&cfg));
        assert!(text.contains("Speed-up"));
        assert!(text.contains("deadline misses among untouched"));
    }
}
