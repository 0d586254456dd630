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
//! Three workload kinds are sized. Two are one selection problem per client
//! under the clients' shared level context:
//!
//! * **fig6** — `SyntheticConfig::fig6(clients)`, the paper's evaluation
//!   point (1–3 tasks per client, total utilization 0.7–0.9);
//! * **sparse** — one light task per client with a period in
//!   `[100n, 300n)` ([`sparse_task_sets`]), whose minimum-bandwidth
//!   interfaces sit at the period cap.
//!
//! The third sizes a whole tree:
//!
//! * **shard_tree** — the shard sweep's workload ([`uniform_task_sets`]:
//!   one task per client, periods in `[n, 4n]`, total utilization 0.9)
//!   built by `Composition::new`, so every level's problems count, not
//!   just the leaves'. Its seed variant runs the exhaustive selection on
//!   every SE's parameter table, rebuilt from public data as
//!   `tests/interface_tree_differential.rs` rebuilds it.
//!
//! Every variant must select **bit-identical** interfaces — the benchmark
//! asserts this on every workload (for the tree, on every SE that selects)
//! before it times anything. Each variant is then timed `reps` times over
//! all workloads of a kind and the best (smallest) total wall time is
//! reported, with the host's CPU count, as JSON for
//! `results/BENCH_interface_selection.json`.

use crate::scalability::{sparse_task_sets, uniform_task_sets};
use bluescale::composition::Composition;
use bluescale::BlueScaleConfig;
use bluescale_rt::interface::{
    select_interface_exhaustive, select_se_interfaces_with_divisor, SelectionContext,
};
use bluescale_rt::rational::utilization_at_most_one;
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::{Task, TaskSet};
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
    /// Clients per shard-style tree.
    pub tree_clients: usize,
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
            tree_clients: 1024,
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
    /// Workload kind: `fig6`, `sparse` or `shard_tree`.
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

fn shard_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    let n = clients as u64;
    uniform_task_sets(clients, 0.9, n, 4 * n, rng)
}

/// Best-of-`reps` total wall time of `select` over `loads`.
fn best_ns<L, T>(reps: u32, loads: &[L], select: impl Fn(&L) -> T) -> u128 {
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

/// One SE's selection problem in a built tree: the port task sets it
/// loads, and the interfaces the tree selected for them.
struct SeProblem {
    ports: Vec<TaskSet>,
    selected: Vec<Option<PeriodicResource>>,
}

/// The parameter tables of every SE of `composition` that selects, rebuilt
/// from public data: a leaf port holds its client's tasks with the
/// configuration's analysis deadlines, an inner port the child SE's
/// interfaces as server tasks (`T = D = Π`, `C = Θ`, ids by child port).
/// SEs whose table sums above 1 fall back rather than select and are left
/// out; the report's analysis verdict must agree that they are the only
/// ones.
fn tree_problems(
    config: &BlueScaleConfig,
    sets: &[TaskSet],
    composition: &Composition,
) -> Vec<SeProblem> {
    let report = composition.report();
    let levels = config.levels();
    let mut problems = Vec::new();
    let mut fell_back = false;
    for depth in 0..levels {
        for order in 0..config.elements_at(depth) {
            let ports = (0..config.branch).map(|port| {
                let child = order * config.branch + port;
                let tasks: Vec<Task> = if depth + 1 == levels {
                    sets.get(child).map_or_else(Vec::new, |set| {
                        set.iter()
                            .map(|t| {
                                let deadline = config.analysis_deadline(t.period(), t.wcet());
                                Task::with_deadline(t.id(), t.period(), deadline, t.wcet())
                                    .expect("the analysis deadline lies in [C, T]")
                            })
                            .collect()
                    })
                } else {
                    let ifaces = report.interfaces[depth + 1][child].iter().enumerate();
                    ifaces
                        .filter_map(|(q, r)| r.map(|r| Task::new(q as u32, r.period(), r.budget())))
                        .collect::<Result<_, _>>()
                        .expect("an interface has 0 < Θ ≤ Π")
                };
                TaskSet::new(tasks).ok()
            });
            let ports = ports.collect::<Option<Vec<TaskSet>>>().filter(|ports| {
                let tasks = ports.iter().flat_map(TaskSet::iter);
                utilization_at_most_one(tasks.map(|t| (t.wcet(), t.period())))
            });
            match ports {
                Some(ports) => problems.push(SeProblem {
                    ports,
                    selected: report.interfaces[depth][order].clone(),
                }),
                None => fell_back = true,
            }
        }
    }
    assert_eq!(
        report.analysis_ok, !fell_back,
        "only an SE whose table sums above 1 may fall back"
    );
    problems
}

/// Checks and times the whole-tree kind: `Composition::new` against the
/// exhaustive selection of every SE's table.
fn run_tree(config: &SelectionBenchConfig) -> SelectionRun {
    let clients = config.tree_clients;
    let tree = BlueScaleConfig {
        granularity_divisor: config.divisor,
        ..BlueScaleConfig::for_clients(clients)
    };
    let loads = workloads(config, clients, shard_sets);
    // Correctness gate: every selecting SE of every tree, before any timing.
    let problems: Vec<Vec<SeProblem>> = loads
        .iter()
        .map(|sets| {
            let composition = Composition::new(tree.clone(), sets).expect("the tree builds");
            tree_problems(&tree, sets, &composition)
        })
        .collect();
    for problem in problems.iter().flatten() {
        assert_eq!(
            select_se_interfaces_seed(&problem.ports, config.divisor),
            Ok(problem.selected.clone()),
            "the tree's selection diverged from the exhaustive reference"
        );
    }
    let seed = |problems: &Vec<SeProblem>| {
        let select =
            |problem: &SeProblem| select_se_interfaces_seed(&problem.ports, config.divisor);
        problems.iter().map(select).collect::<Vec<_>>()
    };
    SelectionRun {
        workload: "shard_tree",
        clients,
        seed_ns: best_ns(config.reps, &problems, seed),
        tuned_ns: best_ns(config.reps, &loads, |sets| {
            Composition::new(tree.clone(), sets)
        }),
    }
}

/// Runs the benchmark: checks, then times both variants on the fig6, the
/// sparse and the shard-style tree workloads.
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
            run_tree(config),
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
            tree_clients: 64,
            workloads: 1,
            reps: 1,
            ..Default::default()
        };
        let r = run(&config);
        assert_eq!(r.runs.len(), 3);
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
