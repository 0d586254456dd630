//! Micro-benchmark of the interface-selection fast path (the analysis run
//! per SE, per level, on every admission decision).
//!
//! Two variants size the same synthetic client workloads:
//!
//! * **seed** — exhaustive enumeration with a fresh schedulability test per
//!   probe ([`select_interface_exhaustive`]), the algorithm the repository
//!   seeded with;
//! * **tuned** — the bound-first search with demand-curve memoization
//!   ([`select_se_interfaces_with_divisor`]).
//!
//! Two workload kinds are sized, each as one selection problem per client
//! under the clients' shared level context:
//!
//! * **fig6** — `SyntheticConfig::fig6(clients)`, the paper's evaluation
//!   point (1–3 tasks per client, total utilization 0.7–0.9);
//! * **sparse** — one light task per client with a period in
//!   `[100n, 300n)` ([`sparse_task_sets`]), whose minimum-bandwidth
//!   interfaces sit at the period cap.
//!
//! Every variant must select **bit-identical** interfaces — the benchmark
//! asserts this on every workload before it times anything. Each variant is
//! then timed `reps` times over all workloads of a kind and the best
//! (smallest) total wall time is reported, with the host's CPU count, as
//! JSON for `results/BENCH_interface_selection.json`.

use crate::scalability::sparse_task_sets;
use bluescale_rt::interface::{
    select_interface_exhaustive, select_se_interfaces_with_divisor, SelectionContext,
};
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::TaskSet;
use bluescale_rt::Error;
use bluescale_sim::rng::SimRng;
use bluescale_workload::synthetic::{generate, SyntheticConfig};
use std::time::Instant;

/// Configuration of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionBenchConfig {
    /// Clients per fig6 workload (the paper's point is 64).
    pub clients: usize,
    /// Clients per sparse workload.
    pub sparse_clients: usize,
    /// Independent workloads of each kind.
    pub workloads: u64,
    /// Timed repetitions per variant; the best one is reported.
    pub reps: u32,
    /// Master seed for workload generation.
    pub seed: u64,
    /// Granularity divisor handed to the selector.
    pub divisor: u64,
}

impl Default for SelectionBenchConfig {
    fn default() -> Self {
        Self {
            clients: 64,
            sparse_clients: 1024,
            workloads: 4,
            reps: 3,
            seed: 0x5E1EC7,
            divisor: 1,
        }
    }
}

/// Best-of-`reps` timings of one workload kind, in nanoseconds of total
/// wall time across its workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionRun {
    /// Workload kind: `fig6` or `sparse`.
    pub workload: &'static str,
    /// Clients per workload.
    pub clients: usize,
    /// Best total time of the seed (exhaustive, unmemoized) implementation.
    pub seed_ns: u128,
    /// Best total time of the tuned kernel.
    pub tuned_ns: u128,
}

impl SelectionRun {
    /// Speedup of the tuned kernel over the seed implementation.
    pub fn tuned_speedup(&self) -> f64 {
        self.seed_ns as f64 / self.tuned_ns.max(1) as f64
    }
}

/// Results of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionBenchResult {
    /// The configuration measured.
    pub config: SelectionBenchConfig,
    /// CPUs available to the run.
    pub host_cpus: usize,
    /// One entry per workload kind.
    pub runs: Vec<SelectionRun>,
}

impl SelectionBenchResult {
    /// Tuned selection cost per client of `run`, in microseconds.
    pub fn tuned_us_per_client(&self, run: &SelectionRun) -> f64 {
        let clients = run.clients as f64 * self.config.workloads as f64;
        run.tuned_ns as f64 / 1000.0 / clients.max(1.0)
    }
}

/// The seed's `select_se_interfaces`: per-client exhaustive enumeration
/// under the shared level context, no pruning, no memoization. Kept here
/// (not in `bluescale-rt`) so the baseline cannot drift as the library
/// kernel evolves.
pub fn select_se_interfaces_seed(
    client_sets: &[TaskSet],
    divisor: u64,
) -> Result<Vec<Option<PeriodicResource>>, Error> {
    let total: f64 = client_sets.iter().map(TaskSet::utilization).sum();
    if total > 1.0 + 1e-9 {
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
                select_interface_exhaustive(set, &ctx).map(Some)
            }
        })
        .collect()
}

/// Generates `workloads` admissible client loads of one kind (total
/// utilization ≤ 1, so the SE capacity check passes).
fn workloads(
    config: &SelectionBenchConfig,
    clients: usize,
    draw: fn(usize, &mut SimRng) -> Vec<TaskSet>,
) -> Vec<Vec<TaskSet>> {
    let mut master = SimRng::seed_from(config.seed);
    let mut out = Vec::with_capacity(config.workloads as usize);
    while out.len() < config.workloads as usize {
        let sets = draw(clients, &mut master.fork());
        let total: f64 = sets.iter().map(TaskSet::utilization).sum();
        if total <= 1.0 {
            out.push(sets);
        }
    }
    out
}

fn fig6_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    generate(&SyntheticConfig::fig6(clients), rng)
}

fn sparse_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    sparse_task_sets(clients, 2, rng)
}

/// Best-of-`reps` total wall time of `select` over `loads`.
fn best_ns<T>(reps: u32, loads: &[Vec<TaskSet>], select: impl Fn(&[TaskSet]) -> T) -> u128 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            for sets in loads {
                std::hint::black_box(select(sets));
            }
            start.elapsed().as_nanos()
        })
        .min()
        .expect("at least one repetition")
}

/// Checks and times one workload kind.
fn run_kind(
    config: &SelectionBenchConfig,
    workload: &'static str,
    clients: usize,
    draw: fn(usize, &mut SimRng) -> Vec<TaskSet>,
) -> SelectionRun {
    let loads = workloads(config, clients, draw);
    let divisor = config.divisor;
    // Correctness gate: every variant, every workload, before any timing.
    for sets in &loads {
        assert_eq!(
            select_se_interfaces_seed(sets, divisor),
            select_se_interfaces_with_divisor(sets, divisor),
            "tuned kernel diverged from seed selection on a {workload} workload"
        );
    }
    SelectionRun {
        workload,
        clients,
        seed_ns: best_ns(config.reps, &loads, |s| {
            select_se_interfaces_seed(s, divisor)
        }),
        tuned_ns: best_ns(config.reps, &loads, |s| {
            select_se_interfaces_with_divisor(s, divisor)
        }),
    }
}

/// Runs the benchmark: checks, then times both variants on the fig6 and the
/// sparse workloads.
///
/// # Panics
///
/// Panics if the tuned kernel returns a different result than the seed
/// implementation — a wrong answer must never be reported as a speedup.
pub fn run(config: &SelectionBenchConfig) -> SelectionBenchResult {
    SelectionBenchResult {
        config: *config,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        runs: vec![
            run_kind(config, "fig6", config.clients, fig6_sets),
            run_kind(config, "sparse", config.sparse_clients, sparse_sets),
        ],
    }
}

/// Renders results as the `BENCH_interface_selection.json` baseline
/// (hand-rolled JSON; the container has no serde).
pub fn render_json(result: &SelectionBenchResult) -> String {
    let c = &result.config;
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"interface_selection\",\n",
            "  \"unit\": \"ns\",\n",
            "  \"timing\": \"best of reps, total over the workloads\",\n",
            "  \"host_cpus\": {},\n",
            "  \"workloads\": {},\n",
            "  \"reps\": {},\n",
            "  \"seed\": {},\n",
            "  \"divisor\": {},\n",
            "  \"runs\": [\n",
        ),
        result.host_cpus, c.workloads, c.reps, c.seed, c.divisor
    );
    for (i, r) in result.runs.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"workload\": \"{}\",\n",
                "      \"clients\": {},\n",
                "      \"seed_impl_best_ns\": {},\n",
                "      \"tuned_best_ns\": {},\n",
                "      \"tuned_us_per_client\": {:.2},\n",
                "      \"tuned_speedup\": {:.2},\n",
                "      \"identical_interfaces\": true\n",
                "    }}{}\n",
            ),
            r.workload,
            r.clients,
            r.seed_ns,
            r.tuned_ns,
            result.tuned_us_per_client(r),
            r.tuned_speedup(),
            if i + 1 < result.runs.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_and_report_sane_timings() {
        let config = SelectionBenchConfig {
            clients: 16,
            sparse_clients: 16,
            workloads: 1,
            reps: 1,
            ..Default::default()
        };
        let r = run(&config);
        assert_eq!(r.runs.len(), 2);
        assert!(r.runs.iter().all(|run| run.seed_ns > 0 && run.tuned_ns > 0));
        assert!(r.host_cpus >= 1);
    }

    #[test]
    fn seed_reference_matches_tuned_kernel_on_64_clients() {
        let config = SelectionBenchConfig {
            workloads: 1,
            ..Default::default()
        };
        for sets in workloads(&config, 64, fig6_sets) {
            assert_eq!(
                select_se_interfaces_seed(&sets, 1),
                select_se_interfaces_with_divisor(&sets, 1)
            );
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let run = SelectionRun {
            workload: "fig6",
            clients: 64,
            seed_ns: 100,
            tuned_ns: 50,
        };
        let r = SelectionBenchResult {
            config: SelectionBenchConfig::default(),
            host_cpus: 2,
            runs: vec![
                run.clone(),
                SelectionRun {
                    workload: "sparse",
                    ..run
                },
            ],
        };
        let json = render_json(&r);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"host_cpus\": 2"));
        assert!(json.contains("\"tuned_speedup\": 2.00"));
        assert!(json.contains("\"workload\": \"sparse\""));
    }
}
