//! Extension experiment: *scheduling* scalability at a fixed clock.
//!
//! The paper's hardware-scalability argument (Fig 5) is about synthesis:
//! a centralized arbiter's critical path grows with the port count. This
//! experiment adds the behavioural side: with the client count scaling
//! 4 → 256 at a constant per-client load, how do latency and deadline
//! misses evolve for the centralized AXI-IC^RT (whose admission
//! serializes and whose arbitration pipeline deepens) versus the
//! distributed BlueScale (one extra tree level per 4× clients)?

use crate::invariants::{build_serial, config_for, run_checked, Fingerprint};
use crate::runner::{run_trial, InterconnectKind};
use bluescale::element::PerSeEngine;
use bluescale::network::Engine;
use bluescale::soa::SoaCore;
use bluescale::{BlueScaleInterconnect, Composition, ShardedSystem};
use bluescale_interconnect::system::System;
use bluescale_sim::rng::SimRng;
use bluescale_sim::stats::OnlineStats;
use bluescale_sim::Cycle;
use bluescale_workload::synthetic::SyntheticConfig;
use std::time::Instant;

/// Configuration of the scalability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityConfig {
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Total interconnect utilization (held constant across sizes).
    pub utilization: f64,
    /// Trials per point.
    pub trials: u64,
    /// Horizon per trial.
    pub horizon: Cycle,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScalabilityConfig {
    fn default() -> Self {
        Self {
            client_counts: vec![4, 16, 64, 256],
            utilization: 0.6,
            trials: 15,
            horizon: 20_000,
            seed: 0x5CA1E,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityPoint {
    /// Number of clients.
    pub clients: usize,
    /// Mean end-to-end latency (cycles) per interconnect, in
    /// [`InterconnectKind::EXTENDED`] order.
    pub latency: Vec<f64>,
    /// Mean deadline-miss ratio per interconnect.
    pub miss_ratio: Vec<f64>,
}

/// Direct uniform constructor: every client carries exactly
/// `utilization / clients` in a single task with a period drawn from
/// `[period_min, period_max]`. No UUniFast split and no per-client
/// utilization floor, so large sweep points stay at the target instead of
/// being silently densified by [`SyntheticConfig::util_floor`]-style
/// clamping (the scalability sweep's 256-client points were exactly the
/// regime the old fixed floor distorted).
pub fn uniform_task_sets(
    clients: usize,
    utilization: f64,
    period_min: u64,
    period_max: u64,
    rng: &mut SimRng,
) -> Vec<bluescale_rt::task::TaskSet> {
    use bluescale_rt::task::{Task, TaskSet};
    let share = utilization / clients as f64;
    (0..clients)
        .map(|_| {
            // Draw only periods long enough that the share maps to an
            // integer WCET ≥ 1, so rounding cannot inflate the share.
            let lo = period_min.max((1.0 / share).ceil() as u64);
            let (period, wcet) = if lo > period_max {
                // Share too small for the period range: one unit of work
                // at the longest period is the closest expressible task.
                (period_max, 1)
            } else {
                let period = rng.range_u64(lo, period_max + 1);
                (period, (share * period as f64).round().max(1.0) as u64)
            };
            let task = Task::new(0, period, wcet).expect("uniform task is valid");
            TaskSet::new(vec![task]).expect("single uniform task is admissible")
        })
        .collect()
}

/// Runs the sweep.
pub fn run(config: &ScalabilityConfig) -> Vec<ScalabilityPoint> {
    let mut master = SimRng::seed_from(config.seed);
    let fig6 = SyntheticConfig::fig6(1);
    config
        .client_counts
        .iter()
        .map(|&clients| {
            let mut latency = vec![OnlineStats::new(); InterconnectKind::EXTENDED.len()];
            let mut miss = vec![OnlineStats::new(); InterconnectKind::EXTENDED.len()];
            for _ in 0..config.trials {
                let mut rng = master.fork();
                let sets = uniform_task_sets(
                    clients,
                    config.utilization,
                    fig6.period_min,
                    fig6.period_max,
                    &mut rng,
                );
                for (i, kind) in InterconnectKind::EXTENDED.into_iter().enumerate() {
                    let m = run_trial(kind, &sets, config.horizon);
                    latency[i].push(m.mean_latency());
                    miss[i].push(m.miss_ratio());
                }
            }
            ScalabilityPoint {
                clients,
                latency: latency.iter().map(OnlineStats::mean).collect(),
                miss_ratio: miss.iter().map(OnlineStats::mean).collect(),
            }
        })
        .collect()
}

/// Renders both panels (latency, miss ratio) as markdown tables.
pub fn render(config: &ScalabilityConfig, points: &[ScalabilityPoint]) -> String {
    let mut s = format!(
        "# Extension: scheduling scalability at fixed clock \
         (U = {:.2}, {} trials/point)\n\n## Mean latency (cycles)\n\n",
        config.utilization, config.trials
    );
    let header = |s: &mut String| {
        s.push_str("| Clients |");
        for k in InterconnectKind::EXTENDED {
            s.push_str(&format!(" {} |", k.name()));
        }
        s.push_str("\n|---:|");
        for _ in InterconnectKind::EXTENDED {
            s.push_str("---:|");
        }
        s.push('\n');
    };
    header(&mut s);
    for p in points {
        s.push_str(&format!("| {} |", p.clients));
        for v in &p.latency {
            s.push_str(&format!(" {v:.1} |"));
        }
        s.push('\n');
    }
    s.push_str("\n## Deadline miss ratio\n\n");
    header(&mut s);
    for p in points {
        s.push_str(&format!("| {} |", p.clients));
        for v in &p.miss_ratio {
            s.push_str(&format!(" {:.1}% |", 100.0 * v));
        }
        s.push('\n');
    }
    s
}

/// Configuration of the fast-forward speedup sweep
/// (`results/BENCH_fastforward.json`).
///
/// The workload is deliberately *sparse* — one long-period task per client
/// issuing `demand` requests per job — because that is the regime the
/// next-event fast path exists for: long provably-idle stretches between
/// releases that per-cycle stepping burns wall-clock on. Periods scale
/// with the client count so the aggregate release rate (and therefore the
/// fabric's duty cycle) stays roughly constant across sweep sizes; the
/// synthetic-generator path is *not* used here because its per-client
/// utilization floor would silently densify large points.
#[derive(Debug, Clone, PartialEq)]
pub struct FastForwardConfig {
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Memory requests per job (the task's `wcet` in the demand model).
    pub demand: u64,
    /// Master seed.
    pub seed: u64,
    /// Fixed horizon for every point (tests); `None` scales the horizon
    /// with the client count via [`fastforward_horizon`].
    pub horizon_override: Option<Cycle>,
    /// Timed runs per mode and point; the best is reported.
    pub reps: u32,
}

impl Default for FastForwardConfig {
    fn default() -> Self {
        Self {
            client_counts: vec![4, 16, 64, 256, 1024, 4096],
            demand: 2,
            seed: 0xFF5CA1E,
            horizon_override: None,
            reps: 3,
        }
    }
}

/// The sparse workload: one task per client with a period drawn from
/// `[100n, 300n)` cycles for `n` clients, each job issuing `demand`
/// requests. Scaling periods with `n` keeps the *total* utilization
/// (`n × demand / period ≈ demand / 200`) constant across sweep sizes,
/// which a fixed-period fig6-style draw cannot do once per-client
/// utilization hits the generator's floor.
pub fn sparse_task_sets(
    clients: usize,
    demand: u64,
    rng: &mut SimRng,
) -> Vec<bluescale_rt::task::TaskSet> {
    use bluescale_rt::task::{Task, TaskSet};
    let n = clients as u64;
    (0..clients)
        .map(|_| {
            let period = 100 * n + rng.range_u64(0, 200 * n);
            let task = Task::new(0, period, demand).expect("sparse task is valid");
            TaskSet::new(vec![task]).expect("single sparse task is admissible")
        })
        .collect()
}

/// Horizon for one sweep point: two full longest-period windows of the
/// scaled workload, floored so tiny points still see steady state.
pub fn fastforward_horizon(clients: usize) -> Cycle {
    (600 * clients as u64).max(20_000)
}

/// One point of the fast-forward speedup sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FastForwardPoint {
    /// Number of clients.
    pub clients: usize,
    /// Simulated horizon in cycles.
    pub horizon: Cycle,
    /// Best wall-clock of the per-cycle runs, nanoseconds.
    pub percycle_ns: u128,
    /// Best wall-clock of the fast-forward runs, nanoseconds.
    pub fastforward_ns: u128,
    /// Number of jumps the fast path took.
    pub jumps: u64,
    /// Cycles skipped (never individually stepped).
    pub skipped: u64,
    /// Requests completed (identical across modes by construction).
    pub completed: u64,
    /// Whether both modes reproduced the eager reference engine's
    /// fingerprint before timing.
    pub verified: bool,
}

impl FastForwardPoint {
    /// Wall-clock speedup of fast-forward over per-cycle stepping.
    pub fn speedup(&self) -> f64 {
        self.percycle_ns as f64 / self.fastforward_ns.max(1) as f64
    }

    /// Fraction of the horizon covered by jumps instead of steps.
    pub fn skipped_ratio(&self) -> f64 {
        self.skipped as f64 / self.horizon as f64
    }
}

fn bluescale_system<E: Engine>(
    sets: &[bluescale_rt::task::TaskSet],
    fast_forward: bool,
) -> System<BlueScaleInterconnect<E>> {
    let mut sys = build_serial(config_for(sets, true), sets);
    sys.set_fast_forward(fast_forward);
    sys
}

/// Runs the fast-forward speedup sweep.
///
/// Every point first runs the seeded workload on the eager per-SE
/// reference engine ([`PerSeEngine`]: every SE stepped every cycle, every
/// server ticked) and **panics** unless the default engine reproduces
/// its fingerprint both per-cycle and fast-forwarding. Only then are the
/// two modes timed, `reps` times each on fresh systems, interleaved; the
/// best of each is reported. The sweep doubles as an end-to-end
/// differential check at every size, not just the small ones the
/// integration tests cover.
pub fn run_fastforward(config: &FastForwardConfig) -> Vec<FastForwardPoint> {
    let mut master = SimRng::seed_from(config.seed);
    config
        .client_counts
        .iter()
        .map(|&clients| {
            let mut rng = master.fork();
            let sets = sparse_task_sets(clients, config.demand, &mut rng);
            let horizon = config
                .horizon_override
                .unwrap_or_else(|| fastforward_horizon(clients));

            let label = format!("{clients} clients");
            let oracle = run_checked(
                &mut bluescale_system::<PerSeEngine>(&sets, true),
                horizon,
                &label,
            );
            let check = |fast_forward| {
                let mut sys = bluescale_system::<SoaCore>(&sets, fast_forward);
                assert!(
                    run_checked(&mut sys, horizon, &label) == oracle,
                    "{clients} clients, fast-forward {fast_forward}: \
                     diverged from the eager reference engine"
                );
                sys
            };
            assert_eq!(
                check(false).fast_forward_jumps(),
                0,
                "the per-cycle run must not jump"
            );
            let fast = check(true);

            let time = |fast_forward| {
                let mut sys = bluescale_system::<SoaCore>(&sets, fast_forward);
                let t0 = Instant::now();
                sys.run(horizon);
                t0.elapsed().as_nanos()
            };
            let (mut percycle_ns, mut fastforward_ns) = (u128::MAX, u128::MAX);
            for _ in 0..config.reps.max(1) {
                percycle_ns = percycle_ns.min(time(false));
                fastforward_ns = fastforward_ns.min(time(true));
            }

            FastForwardPoint {
                clients,
                horizon,
                percycle_ns,
                fastforward_ns,
                jumps: fast.fast_forward_jumps(),
                skipped: fast.fast_forwarded_cycles(),
                completed: oracle.completed(),
                verified: true,
            }
        })
        .collect()
}

/// Renders the sweep as the `BENCH_fastforward.json` artefact
/// (hand-rolled JSON; the container has no serde).
pub fn render_fastforward_json(config: &FastForwardConfig, points: &[FastForwardPoint]) -> String {
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"fastforward\",\n",
            "  \"unit\": \"ns\",\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"oracle\": \"PerSeEngine\",\n",
            "  \"demand_per_job\": {},\n",
            "  \"seed\": {},\n",
            "  \"points\": [\n",
        ),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        config.reps.max(1),
        config.demand,
        config.seed
    );
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"clients\": {},\n",
                "      \"horizon\": {},\n",
                "      \"percycle_ns\": {},\n",
                "      \"fastforward_ns\": {},\n",
                "      \"speedup\": {:.2},\n",
                "      \"jumps\": {},\n",
                "      \"skipped_cycles\": {},\n",
                "      \"skipped_ratio\": {:.4},\n",
                "      \"completed\": {},\n",
                "      \"verified\": {}\n",
                "    }}{}\n",
            ),
            p.clients,
            p.horizon,
            p.percycle_ns,
            p.fastforward_ns,
            p.speedup(),
            p.jumps,
            p.skipped,
            p.skipped_ratio(),
            p.completed,
            p.verified,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders the sweep as a human-readable table for stdout.
pub fn render_fastforward_table(points: &[FastForwardPoint]) -> String {
    let mut s = String::from(
        "| Clients | Horizon | Per-cycle (ms) | Fast-forward (ms) | Speedup | Skipped |\n\
         |---:|---:|---:|---:|---:|---:|\n",
    );
    for p in points {
        s.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {:.2}x | {:.1}% |\n",
            p.clients,
            p.horizon,
            p.percycle_ns as f64 / 1e6,
            p.fastforward_ns as f64 / 1e6,
            p.speedup(),
            100.0 * p.skipped_ratio(),
        ));
    }
    s
}

/// Configuration of the sharded-execution scaling sweep
/// (`results/BENCH_shards.json`).
///
/// The workload is deliberately *busy* — every client releases its first
/// job at `t = 0` into its own dedicated leaf port, so the fabric drains
/// at its full one-request-per-cycle root bandwidth for the whole
/// horizon. That is the regime sharding exists for: per-cycle stepping
/// dominated by the client loop and the per-subtree SE arrays, which the
/// workers split four ways. Periods scale with the client count
/// (`[n, 4n]`) so each point sees exactly one synchronous release and
/// the per-cycle cost stays workload-independent after the first cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSweepConfig {
    /// Client counts to sweep (the headline sweep runs 65k → 1M).
    pub client_counts: Vec<usize>,
    /// Worker counts to compare at every point (clamped to the branch
    /// factor by [`ShardedSystem`]; the clamp is recorded per run).
    pub worker_counts: Vec<usize>,
    /// Total fabric utilization of the uniform workload.
    pub utilization: f64,
    /// Master seed.
    pub seed: u64,
    /// Fixed horizon for every point (tests); `None` scales the horizon
    /// inversely with the client count via [`shard_horizon`].
    pub horizon_override: Option<Cycle>,
}

impl Default for ShardSweepConfig {
    fn default() -> Self {
        Self {
            client_counts: vec![65_536, 131_072, 262_144, 524_288, 1_048_576],
            worker_counts: vec![1, 2, 4, 8],
            utilization: 0.9,
            seed: 0x5AA2D,
            horizon_override: None,
        }
    }
}

/// Horizon for one shard-sweep point: roughly constant *work* per point
/// (`clients × horizon ≈ 2^28` client-cycles), floored so the largest
/// points still time a meaningful stretch.
pub fn shard_horizon(clients: usize) -> Cycle {
    ((1u64 << 28) / clients as u64).max(256)
}

/// One timed run of a shard-sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// Worker count requested by the sweep.
    pub workers: usize,
    /// Worker count actually used (after the branch-factor clamp).
    pub effective_workers: usize,
    /// Wall-clock of `run(horizon)`, nanoseconds (the build is timed once
    /// per point, in [`ShardPoint::build_ns`]).
    pub wall_ns: u128,
}

/// One point of the sharded-execution scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPoint {
    /// Number of clients.
    pub clients: usize,
    /// Simulated horizon in cycles.
    pub horizon: Cycle,
    /// Wall-clock of building the point's first system, nanoseconds: the
    /// composition analysis (`Composition::new`, interface selection for
    /// every SE) plus the sharded engine around it.
    pub build_ns: u128,
    /// Timed runs, one per requested worker count.
    pub runs: Vec<ShardRun>,
    /// Requests issued (identical across worker counts by construction).
    pub issued: u64,
    /// Requests completed (identical across worker counts).
    pub completed: u64,
    /// Whether every worker count produced an identical run
    /// [`Fingerprint`].
    pub verified: bool,
    /// Peak resident set (`VmHWM`) of a process that ran this point and
    /// nothing else, MiB: the analysis, every worker count's build and
    /// run. `None` when the point shared its process with other work
    /// ([`run_shards`] leaves it to the caller, who knows).
    pub peak_rss_mb: Option<f64>,
}

impl ShardPoint {
    /// Wall-clock speedup of the given run over the one-worker run.
    pub fn speedup(&self, run: &ShardRun) -> f64 {
        let base = self
            .runs
            .iter()
            .find(|r| r.workers == 1)
            .map(|r| r.wall_ns)
            .unwrap_or(run.wall_ns);
        base as f64 / run.wall_ns.max(1) as f64
    }
}

/// One composition analysis per sweep point: interface selection
/// dominates construction at 65k+ clients and depends only on the
/// workload, so the worker-count comparison clones it instead of paying
/// it once per worker count.
fn shard_analysis(sets: &[bluescale_rt::task::TaskSet]) -> Composition {
    Composition::new(config_for(sets, true), sets).expect("busy uniform workload builds")
}

fn sharded_system(
    sets: &[bluescale_rt::task::TaskSet],
    analysis: &Composition,
    workers: usize,
) -> ShardedSystem {
    ShardedSystem::with_analysis(config_for(sets, true), analysis.clone(), sets, workers)
}

/// Runs the sharded-execution scaling sweep.
///
/// Every worker count replays the same seeded workload and **panics** if
/// the run's [`Fingerprint`], taken after the timed run, differs: the
/// sweep doubles as the worker-count determinism check at
/// sizes the differential tests cannot afford, pinning that the worker
/// count is a pure wall-clock knob all the way to the 2^20-client point.
pub fn run_shards(config: &ShardSweepConfig) -> Vec<ShardPoint> {
    config
        .client_counts
        .iter()
        .map(|&clients| {
            // A point's workload depends on the seed and its client count
            // only, so a point run alone draws what it draws in a sweep.
            let mut rng = SimRng::seed_from(config.seed).fork();
            let n = clients as u64;
            let sets = uniform_task_sets(clients, config.utilization, n, 4 * n, &mut rng);
            let horizon = config
                .horizon_override
                .unwrap_or_else(|| shard_horizon(clients));
            let build = Instant::now();
            let analysis = shard_analysis(&sets);
            let mut build_ns = None;

            let mut runs = Vec::new();
            let mut reference: Option<Fingerprint> = None;
            let mut verified = true;
            for &workers in &config.worker_counts {
                let mut sys = sharded_system(&sets, &analysis, workers);
                build_ns.get_or_insert_with(|| build.elapsed().as_nanos());
                let t = Instant::now();
                let mut m = sys.run(horizon);
                let wall_ns = t.elapsed().as_nanos();
                let fingerprint = Fingerprint::of(&mut sys, &mut m);
                match &reference {
                    None => reference = Some(fingerprint),
                    Some(expected) => {
                        verified &= *expected == fingerprint;
                        assert_eq!(
                            *expected, fingerprint,
                            "sharded run diverged at {clients} clients / {workers} workers"
                        );
                    }
                }
                runs.push(ShardRun {
                    workers,
                    effective_workers: sys.workers(),
                    wall_ns,
                });
            }
            let reference = reference.expect("at least one worker count ran");
            ShardPoint {
                clients,
                horizon,
                build_ns: build_ns.expect("at least one worker count ran"),
                runs,
                issued: reference.issued(),
                completed: reference.completed(),
                verified,
                peak_rss_mb: None,
            }
        })
        .collect()
}

/// Renders the sweep as the `BENCH_shards.json` artefact (hand-rolled
/// JSON; the container has no serde). `host_cpus` records the
/// parallelism actually available to the run — wall-clock speedup is a
/// hardware property, unlike the `verified` determinism bit.
pub fn render_shards_json(config: &ShardSweepConfig, points: &[ShardPoint]) -> String {
    let blocks: Vec<String> = points.iter().map(render_shard_point).collect();
    assemble_shards_json(config, &blocks)
}

/// The artefact around already rendered point blocks (see
/// [`shard_point_blocks`]), in the given order.
pub fn assemble_shards_json(config: &ShardSweepConfig, blocks: &[String]) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"shards\",\n",
            "  \"unit\": \"ns\",\n",
            "  \"utilization\": {:.2},\n",
            "  \"seed\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"points\": [\n",
        ),
        config.utilization, config.seed, host_cpus
    );
    s.push_str(&blocks.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The `points` blocks of an artefact [`render_shards_json`] wrote, as
/// one string [`assemble_shards_json`] takes back: how a sweep that runs
/// each point in a process of its own collects the points.
pub fn shard_point_blocks(json: &str) -> Option<&str> {
    let start = json.find("  \"points\": [\n")? + "  \"points\": [\n".len();
    let end = json.rfind("\n  ]\n}")?;
    json.get(start..end)
}

/// One point's object in the `points` array, without a separator.
fn render_shard_point(p: &ShardPoint) -> String {
    let peak_rss_mb = p
        .peak_rss_mb
        .map_or_else(|| "null".to_owned(), |mb| format!("{mb:.1}"));
    let mut s = format!(
        concat!(
            "    {{\n",
            "      \"clients\": {},\n",
            "      \"horizon\": {},\n",
            "      \"build_s\": {:.3},\n",
            "      \"peak_rss_mb\": {},\n",
            "      \"issued\": {},\n",
            "      \"completed\": {},\n",
            "      \"verified\": {},\n",
            "      \"runs\": [\n",
        ),
        p.clients,
        p.horizon,
        p.build_ns as f64 / 1e9,
        peak_rss_mb,
        p.issued,
        p.completed,
        p.verified,
    );
    for (j, r) in p.runs.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "        {{ \"workers\": {}, \"effective_workers\": {}, ",
                "\"wall_ns\": {}, \"speedup\": {:.2} }}{}\n",
            ),
            r.workers,
            r.effective_workers,
            r.wall_ns,
            p.speedup(r),
            if j + 1 < p.runs.len() { "," } else { "" },
        ));
    }
    s.push_str("      ]\n    }");
    s
}

/// Renders the shard sweep as a human-readable table for stdout.
pub fn render_shards_table(points: &[ShardPoint]) -> String {
    let mut s = String::from(
        "| Clients | Horizon | Build (s) | Workers | Wall (ms) | Speedup | Verified |\n\
         |---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for p in points {
        for r in &p.runs {
            s.push_str(&format!(
                "| {} | {} | {:.3} | {} ({}) | {:.1} | {:.2}x | {} |\n",
                p.clients,
                p.horizon,
                p.build_ns as f64 / 1e9,
                r.workers,
                r.effective_workers,
                r.wall_ns as f64 / 1e6,
                p.speedup(r),
                p.verified,
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScalabilityConfig {
        ScalabilityConfig {
            client_counts: vec![4, 16],
            utilization: 0.5,
            trials: 2,
            horizon: 8_000,
            seed: 1,
        }
    }

    #[test]
    fn sweep_covers_requested_sizes() {
        let pts = run(&tiny());
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].clients, 4);
        assert_eq!(pts[1].clients, 16);
        assert!(pts.iter().all(|p| p.latency.len() == 7));
    }

    #[test]
    fn latencies_are_positive_under_load() {
        let pts = run(&tiny());
        for p in &pts {
            for &l in &p.latency {
                assert!(l > 0.0, "latency must be positive at {} clients", p.clients);
            }
        }
    }

    #[test]
    fn render_has_both_panels() {
        let cfg = tiny();
        let text = render(&cfg, &run(&cfg));
        assert!(text.contains("Mean latency"));
        assert!(text.contains("miss ratio"));
    }

    #[test]
    fn uniform_sets_hit_the_target_without_densification() {
        // The direct constructor must land on the target utilization at
        // every sweep size — including 256 clients, where the generator's
        // old fixed floor used to densify the workload.
        let mut rng = SimRng::seed_from(77);
        for clients in [4, 64, 256] {
            let sets = uniform_task_sets(clients, 0.6, 200, 4000, &mut rng);
            assert_eq!(sets.len(), clients);
            let u: f64 = sets
                .iter()
                .flat_map(|s| s.iter())
                .map(|t| t.wcet() as f64 / t.period() as f64)
                .sum();
            assert!(
                (u - 0.6).abs() < 0.05,
                "{clients} clients: realized utilization {u} off target"
            );
        }
    }

    #[test]
    fn fastforward_sweep_verifies_and_skips() {
        let cfg = FastForwardConfig {
            client_counts: vec![4, 16],
            horizon_override: Some(10_000),
            ..Default::default()
        };
        let pts = run_fastforward(&cfg);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.verified, "{} clients must verify", p.clients);
            assert!(p.jumps > 0, "{} clients: sparse run must jump", p.clients);
            assert!(
                p.skipped_ratio() > 0.2,
                "{} clients: too few skips",
                p.clients
            );
            assert!(p.completed > 0);
        }
    }

    #[test]
    fn shard_sweep_is_deterministic_across_worker_counts() {
        let cfg = ShardSweepConfig {
            client_counts: vec![64],
            worker_counts: vec![1, 2, 4, 8],
            horizon_override: Some(4_000),
            ..Default::default()
        };
        let pts = run_shards(&cfg);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert!(p.verified, "worker counts must agree");
        assert!(p.completed > 0, "the busy workload must complete requests");
        assert_eq!(p.runs.len(), 4);
        let effective: Vec<usize> = p.runs.iter().map(|r| r.effective_workers).collect();
        assert_eq!(
            effective,
            vec![1, 2, 4, 4],
            "8 workers clamp to the branch factor"
        );
    }

    #[test]
    fn shards_json_is_well_formed() {
        let cfg = ShardSweepConfig {
            client_counts: vec![16],
            worker_counts: vec![1, 2],
            horizon_override: Some(2_000),
            ..Default::default()
        };
        let pts = run_shards(&cfg);
        let json = render_shards_json(&cfg, &pts);
        assert!(json.contains("\"benchmark\": \"shards\""));
        assert!(json.contains("\"verified\": true"));
        assert!(json.contains("\"host_cpus\""));
        assert_eq!(json.matches("\"wall_ns\"").count(), 2);
        assert_eq!(json.matches("\"build_s\"").count(), 1);
        assert!(pts[0].build_ns > 0);
        assert!(json.contains("\"peak_rss_mb\": null"));
        let table = render_shards_table(&pts);
        assert!(table.contains("Speedup"));
        // A sweep assembled from per-process artefacts reads the same.
        let blocks = shard_point_blocks(&json).expect("points").to_owned();
        assert_eq!(
            assemble_shards_json(&cfg, std::slice::from_ref(&blocks)),
            json
        );
        let two = assemble_shards_json(&cfg, &[blocks.clone(), blocks]);
        assert_eq!(two.matches("\"wall_ns\"").count(), 4);
        assert!(two.contains("    },\n    {\n"));
    }

    #[test]
    fn uniform_sets_survive_the_million_client_boundary() {
        // The largest sweep point (2^20 clients) crosses every
        // narrow-width hazard this sweep has hit before: client ids used
        // to wrap at the u16 boundary and the old 48-bit request-id
        // packing collided. Pin the full-width path — set construction,
        // realized utilization and id disjointness — without paying for
        // a full system build.
        let mut rng = SimRng::seed_from(9);
        let clients = 1usize << 20;
        let n = clients as u64;
        let sets = uniform_task_sets(clients, 0.9, n, 4 * n, &mut rng);
        assert_eq!(sets.len(), clients);
        let u: f64 = sets
            .iter()
            .flat_map(|s| s.iter())
            .map(|t| t.wcet() as f64 / t.period() as f64)
            .sum();
        assert!(
            (u - 0.9).abs() < 0.05,
            "realized utilization {u} off target at the 1M point"
        );
        assert!(
            sets.iter().flat_map(|s| s.iter()).all(|t| t.period() >= n),
            "periods must exceed the sweep horizon so the release is synchronous"
        );

        use bluescale_interconnect::client::TrafficGenerator;
        let hi = (clients - 1) as u32;
        let mut first = TrafficGenerator::new(0, &sets[0]);
        let mut last = TrafficGenerator::new(hi, &sets[clients - 1]);
        first.on_cycle(0);
        last.on_cycle(0);
        let a = first.take().expect("client 0 releases at t = 0");
        let b = last.take().expect("client 2^20 - 1 releases at t = 0");
        assert_eq!(b.client, hi, "client ids must survive the u16 boundary");
        assert_ne!(
            a.id, b.id,
            "request ids from distinct clients must not collide"
        );
    }

    #[test]
    fn fastforward_json_is_well_formed() {
        let cfg = FastForwardConfig {
            client_counts: vec![4],
            horizon_override: Some(6_000),
            ..Default::default()
        };
        let pts = run_fastforward(&cfg);
        let json = render_fastforward_json(&cfg, &pts);
        assert!(json.contains("\"benchmark\": \"fastforward\""));
        assert!(json.contains("\"verified\": true"));
        assert!(json.contains("\"host_cpus\""));
        assert_eq!(json.matches("\"clients\"").count(), 1);
        let table = render_fastforward_table(&pts);
        assert!(table.contains("Speedup"));
    }
}
