//! The four simulator workloads: inputs from the seed, set-up, the timed
//! repetitions, the checks that run before any time is reported, and the
//! traced pass.

use crate::report::{median, peak_rss_mb, quantile, share, Digest, Outcome};
use crate::stepper::TracedSystem;
use crate::trace::Tracer;
use crate::{instance_seed, Config};
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_interconnect::guard::{GuardConfig, QuarantinePolicy, WatchdogConfig};
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::system::System;
use bluescale_rt::task::{Task, TaskSet};
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_telemetry::jsonl::fold_jsonl;
use bluescale_telemetry::{JsonlSink, Pipeline, SloConfig};
use bluescale_workload::synthetic::{generate, SyntheticConfig};
use std::path::Path;
use std::time::Instant;

/// Telemetry flush period of `fig6_observed`, in cycles.
const TELEMETRY_PERIOD: Cycle = 1_024;
/// `fig6_observed` repeats its five fault windows with this period.
const FAULT_CYCLE: Cycle = 50_000;
/// Worker threads of the sharded engine (the 2-CPU target host).
const SHARD_WORKERS: usize = 2;
/// Each timed run is advanced in this many equal slices; a slice is the
/// operation whose latency `op_p50_ms` and `op_p90_ms` report. 128 leaves
/// more than ten slices above each repetition's 90th percentile.
const SLICES: u64 = 128;
/// Cycles of the serial-versus-sharded check run before the timed reps.
const DIFFERENTIAL_HORIZON: Cycle = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig6Dense,
    Fig6Observed,
    Sparse,
    Shard,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fig6_dense" => Some(Kind::Fig6Dense),
            "fig6_observed" => Some(Kind::Fig6Observed),
            "sparse_1k" => Some(Kind::Sparse),
            "shard_1k" => Some(Kind::Shard),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Fig6Dense => "fig6_dense",
            Kind::Fig6Observed => "fig6_observed",
            Kind::Sparse => "sparse_1k",
            Kind::Shard => "shard_1k",
        }
    }
}

/// Size of one workload. `Spec::full` is what the benchmark runs; the
/// smoke test shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub clients: usize,
    pub horizon: Cycle,
    /// Input instances derived from the seed; repetitions cycle through
    /// them, so each run's medians cover several draws of the generator
    /// rather than one.
    pub instances: u64,
}

impl Spec {
    pub fn full(kind: Kind) -> Self {
        // A fig6 draw varies a lot between seeds (total utilization 0.7 to
        // 0.9, 1 to 3 tasks per client); the 1,024-client workloads
        // average over their clients already.
        let (clients, horizon, instances) = match kind {
            Kind::Fig6Dense => (64, 300_000, 16),
            Kind::Fig6Observed => (64, 150_000, 16),
            // 600 cycles per client: two of the longest periods.
            Kind::Sparse => (1_024, 614_400, 4),
            // Periods are [n, 4n]: every client releases at 0 and again
            // before the horizon, keeping the shards busy throughout.
            Kind::Shard => (1_024, 16_384, 4),
        };
        Self {
            kind,
            clients,
            horizon,
            instances,
        }
    }
}

/// The seeded inputs of one workload instance: one task set per client.
pub fn task_sets(spec: &Spec, seed: u64) -> Vec<TaskSet> {
    let mut rng = SimRng::seed_from(seed);
    let n = spec.clients;
    match spec.kind {
        Kind::Fig6Dense | Kind::Fig6Observed => generate(&SyntheticConfig::fig6(n), &mut rng),
        Kind::Sparse => sparse_task_sets(n, &mut rng),
        Kind::Shard => uniform_task_sets(n, 0.9, n as u64, 4 * n as u64, &mut rng),
    }
}

/// One task per client with a period in `[100n, 300n)` issuing two
/// requests per job — the fast-forward sweep's sparse workload. Kept here
/// rather than imported so the benchmark's inputs stay fixed while the
/// experiment crates change.
fn sparse_task_sets(clients: usize, rng: &mut SimRng) -> Vec<TaskSet> {
    let n = clients as u64;
    (0..clients)
        .map(|_| single_task(100 * n + rng.range_u64(0, 200 * n), 2))
        .collect()
}

/// Every client carries `utilization / clients` in one task with a period
/// drawn from `[period_min, period_max]` — the shard sweep's busy
/// workload, kept here for the same reason.
fn uniform_task_sets(
    clients: usize,
    utilization: f64,
    period_min: u64,
    period_max: u64,
    rng: &mut SimRng,
) -> Vec<TaskSet> {
    let share = utilization / clients as f64;
    (0..clients)
        .map(|_| {
            let lo = period_min.max((1.0 / share).ceil() as u64);
            if lo > period_max {
                single_task(period_max, 1)
            } else {
                let period = rng.range_u64(lo, period_max + 1);
                single_task(period, (share * period as f64).round().max(1.0) as u64)
            }
        })
        .collect()
}

fn single_task(period: u64, wcet: u64) -> TaskSet {
    let task = Task::new(0, period, wcet).expect("generated task is valid");
    TaskSet::new(vec![task]).expect("a single task is a valid set")
}

/// All five fault classes, repeated every [`FAULT_CYCLE`] cycles, aimed at
/// clients drawn from the seed.
fn fault_plan(spec: &Spec, seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from(seed ^ 0xFA_0175);
    let mut target = || rng.range_u64(0, spec.clients as u64) as u32;
    let (rogue, burst, victim) = (target(), target(), target());
    let mut plan = FaultPlan::new(seed);
    for base in (0..spec.horizon).step_by(FAULT_CYCLE as usize) {
        let window = |from: Cycle, to: Cycle| FaultWindow::new(base + from, base + to);
        plan.push(
            FaultKind::RogueDemand {
                client: rogue,
                factor: 4,
            },
            window(0, 10_000),
        )
        .push(
            FaultKind::RequestBurst {
                client: burst,
                requests: 32,
            },
            window(12_000, 12_001),
        )
        .push(
            FaultKind::StuckGrant {
                depth: 1,
                order: 0,
                port: 0,
            },
            window(20_000, 21_000),
        )
        .push(
            FaultKind::DramJitter {
                bank: 0,
                max_extra_cycles: 2,
            },
            window(25_000, 35_000),
        )
        .push(
            FaultKind::DropResponse {
                client: victim,
                every: 3,
            },
            window(36_000, 46_000),
        );
    }
    plan
}

fn guards() -> GuardConfig {
    GuardConfig {
        deadline_miss_detection: true,
        // At least the longest fig6 deadline window (4,000 cycles), so the
        // checked setter accepts it.
        watchdog: Some(WatchdogConfig {
            timeout: 8_192,
            max_retries: 2,
        }),
        quarantine: Some(QuarantinePolicy { miss_threshold: 64 }),
    }
}

fn bluescale_config(clients: usize) -> BlueScaleConfig {
    let mut config = BlueScaleConfig::for_clients(clients);
    config.work_conserving = true;
    config
}

/// A built system of either engine.
enum Harness {
    Serial(Box<System<BlueScaleInterconnect>>),
    Sharded(Box<ShardedSystem>),
}

impl Harness {
    fn advance_to(&mut self, horizon: Cycle) {
        match self {
            Harness::Serial(s) => s.advance_to(horizon),
            Harness::Sharded(s) => s.advance_to(horizon),
        }
    }

    fn run(&mut self, horizon: Cycle) -> RunMetrics {
        match self {
            Harness::Serial(s) => s.run(horizon),
            Harness::Sharded(s) => s.run(horizon),
        }
    }
}

/// Builds the untraced system: interface selection, harness, and for
/// `fig6_observed` the fault plan, guards and telemetry pipeline.
fn build(spec: &Spec, seed: u64, sets: &[TaskSet], jsonl: &Path) -> Result<Harness, String> {
    let config = bluescale_config(spec.clients);
    if spec.kind == Kind::Shard {
        let sys = ShardedSystem::new(config, sets, SHARD_WORKERS)
            .map_err(|e| format!("sharded build failed: {e}"))?;
        return Ok(Harness::Sharded(Box::new(sys)));
    }
    let ic = BlueScaleInterconnect::new(config, sets).map_err(|e| format!("build failed: {e}"))?;
    let mut sys = System::new(Box::new(ic), sets);
    if spec.kind == Kind::Fig6Observed {
        sys.set_fault_plan(fault_plan(spec, seed));
        sys.set_guards(guards())
            .map_err(|e| format!("guards rejected: {e}"))?;
        sys.attach_telemetry(pipeline(jsonl)?);
    }
    Ok(Harness::Serial(Box::new(sys)))
}

fn pipeline(jsonl: &Path) -> Result<Pipeline, String> {
    let mut pipe = Pipeline::new(TELEMETRY_PERIOD, SloConfig::default());
    let sink =
        JsonlSink::create(jsonl).map_err(|e| format!("cannot create {}: {e}", jsonl.display()))?;
    pipe.add_sink(sink);
    Ok(pipe)
}

/// Everything two runs of the same inputs must agree on, and the terms of
/// the conservation check.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    issued: u64,
    completed: u64,
    missed: u64,
    backlog: u64,
    in_flight: u64,
    guard_outstanding: u64,
    guarded: bool,
    forwards: Vec<u64>,
    grants: Vec<u64>,
    latency: Vec<f64>,
    blocking: Vec<f64>,
}

impl Fingerprint {
    fn new(
        m: &mut RunMetrics,
        in_flight: usize,
        guard_outstanding: Option<usize>,
        forwards: Vec<Vec<u64>>,
        fabric: &MetricsRegistry,
        config: &BlueScaleConfig,
    ) -> Self {
        let mut grants = Vec::new();
        for depth in 0..config.levels() {
            for order in 0..config.elements_at(depth) {
                grants.extend(fabric.port_counters(depth, order, config.branch, Counter::Grants));
            }
        }
        Self {
            issued: m.issued(),
            completed: m.completed(),
            missed: m.missed(),
            backlog: m.backlog(),
            in_flight: in_flight as u64,
            guard_outstanding: guard_outstanding.unwrap_or(0) as u64,
            guarded: guard_outstanding.is_some(),
            forwards: forwards.concat(),
            grants,
            latency: m.latency().as_slice().to_vec(),
            blocking: m.blocking().as_slice().to_vec(),
        }
    }

    fn of_serial(sys: &System<BlueScaleInterconnect>, m: &mut RunMetrics, guarded: bool) -> Self {
        let ic = sys.interconnect();
        Self::new(
            m,
            sys.in_flight(),
            guarded.then(|| sys.guard_outstanding()),
            ic.forward_counts(),
            ic.metrics(),
            ic.config(),
        )
    }

    fn of_sharded(sys: &mut ShardedSystem, m: &mut RunMetrics) -> Self {
        let forwards = sys.forward_counts();
        let config = sys.config().clone();
        let pending = sys.pending();
        Self::new(m, pending, None, forwards, sys.fabric_metrics(), &config)
    }

    fn of_traced(sys: &TracedSystem, m: &mut RunMetrics) -> Self {
        let ic = sys.interconnect();
        Self::new(
            m,
            sys.in_flight(),
            None,
            ic.forward_counts(),
            ic.metrics(),
            ic.config(),
        )
    }

    /// Every issued request is completed, still queued at its client, or
    /// inside the fabric — or, with guards tracking, still outstanding
    /// (in the fabric, or dropped by a fault and awaiting a retry).
    fn conserved(&self) -> bool {
        let open = if self.guarded {
            self.guard_outstanding
        } else {
            self.in_flight
        };
        self.issued == self.completed + self.backlog + open
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for v in [
            self.issued,
            self.completed,
            self.missed,
            self.backlog,
            self.in_flight,
            self.guard_outstanding,
        ] {
            d.eat(v);
        }
        for v in self.forwards.iter().chain(&self.grants) {
            d.eat(*v);
        }
        for v in self.latency.iter().chain(&self.blocking) {
            d.eat(v.to_bits());
        }
        d.value()
    }

    fn miss_ratio(&self) -> f64 {
        share(self.missed as f64, self.issued as f64)
    }
}

/// The times of one repetition: set-up from the seed, then the sliced
/// run and its slices' latency quantiles.
struct Rep {
    setup_s: f64,
    run_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

fn slice_end(spec: &Spec, i: u64) -> Cycle {
    spec.horizon * i / SLICES
}

/// One timed repetition and the fingerprint of what it simulated; the
/// first repetition also checks the telemetry stream's fold.
fn timed_rep(
    spec: &Spec,
    seed: u64,
    work: &Path,
    first: bool,
) -> Result<(Rep, Fingerprint), String> {
    let jsonl = work.join("observed.jsonl");
    let t0 = Instant::now();
    let sets = task_sets(spec, seed);
    let mut sys = build(spec, seed, &sets, &jsonl)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let mut slices_ms = Vec::with_capacity(SLICES as usize);
    let mut mark = t_run;
    for i in 1..=SLICES {
        sys.advance_to(slice_end(spec, i));
        let now = Instant::now();
        slices_ms.push(now.duration_since(mark).as_secs_f64() * 1e3);
        mark = now;
    }
    let mut m = sys.run(spec.horizon);
    if let Harness::Serial(s) = &mut sys {
        s.finish_telemetry();
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let fingerprint = match &mut sys {
        Harness::Serial(s) => Fingerprint::of_serial(s, &mut m, spec.kind == Kind::Fig6Observed),
        Harness::Sharded(s) => Fingerprint::of_sharded(s, &mut m),
    };
    if let (Harness::Serial(s), true) = (&sys, spec.kind == Kind::Fig6Observed) {
        let folded = if first { check_fold(&jsonl, s) } else { Ok(()) };
        let _ = std::fs::remove_file(&jsonl);
        folded?;
    }
    Ok((
        Rep {
            setup_s,
            run_s,
            p50_ms: quantile(&slices_ms, 0.5),
            p90_ms: quantile(&slices_ms, 0.9),
        },
        fingerprint,
    ))
}

/// The JSONL stream must fold back to the final harness and fabric
/// registries exactly.
fn check_fold(jsonl: &Path, sys: &System<BlueScaleInterconnect>) -> Result<(), String> {
    let stream = std::fs::read_to_string(jsonl).map_err(|e| format!("read jsonl: {e}"))?;
    let folded = fold_jsonl(&stream).map_err(|e| format!("jsonl does not fold: {e}"))?;
    folded
        .matches_registry("harness", sys.registry())
        .map_err(|e| format!("harness fold diverged: {e}"))?;
    folded
        .matches_registry("fabric", sys.interconnect().metrics())
        .map_err(|e| format!("fabric fold diverged: {e}"))
}

/// The serial engine and the sharded engine must agree bit for bit on a
/// prefix of the workload's inputs.
fn check_engines_agree(spec: &Spec, seed: u64) -> Result<(), String> {
    let sets = task_sets(spec, seed);
    let config = bluescale_config(spec.clients);
    let ic = BlueScaleInterconnect::new(config.clone(), &sets)
        .map_err(|e| format!("build failed: {e}"))?;
    let mut serial = System::new(Box::new(ic), &sets);
    let mut m = serial.run(DIFFERENTIAL_HORIZON);
    let a = Fingerprint::of_serial(&serial, &mut m, false);
    let mut sharded = ShardedSystem::new(config, &sets, SHARD_WORKERS)
        .map_err(|e| format!("sharded build failed: {e}"))?;
    let mut m = sharded.run(DIFFERENTIAL_HORIZON);
    let b = Fingerprint::of_sharded(&mut sharded, &mut m);
    if a != b {
        return Err(format!(
            "serial and sharded engines diverged on the first {DIFFERENTIAL_HORIZON} cycles"
        ));
    }
    Ok(())
}

/// Checks that a repetition conserved requests and did simulate traffic.
fn check_rep(f: &Fingerprint) -> Result<(), String> {
    if !f.conserved() {
        return Err(format!(
            "conservation violated: issued {} != completed {} + backlog {} + open {}",
            f.issued,
            f.completed,
            f.backlog,
            if f.guarded {
                f.guard_outstanding
            } else {
                f.in_flight
            }
        ));
    }
    if f.issued == 0 {
        return Err("the workload issued no requests".into());
    }
    Ok(())
}

/// Runs repetitions, cycling through `instances` input instances, until
/// `seconds` have passed, at least `min_reps` ran and every instance ran
/// and instance 0 ran twice. Each repetition is checked before its times
/// are kept: conservation, and a repeated instance must reproduce its
/// first run's `sim_digest`. Returns the times and instance 0's
/// fingerprint.
fn timed_reps(
    spec: &Spec,
    seed: u64,
    instances: u64,
    seconds: f64,
    min_reps: usize,
    work: &Path,
) -> Result<(Vec<Rep>, Fingerprint), String> {
    let start = Instant::now();
    let min_reps = min_reps.max(instances as usize + 1);
    let mut reps = Vec::new();
    let mut digests = Vec::new();
    let mut reference = None;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let i = reps.len() as u64 % instances;
        let (rep, fingerprint) = timed_rep(spec, instance_seed(seed, i), work, reps.is_empty())?;
        check_rep(&fingerprint)?;
        match digests.get(i as usize) {
            None => digests.push(fingerprint.digest()),
            Some(&first) if first != fingerprint.digest() => {
                return Err(format!(
                    "instance {i}: sim_digest {:#018x} differs from its first run's {first:#018x}",
                    fingerprint.digest()
                ))
            }
            Some(_) => {}
        }
        if i == 0 && reference.is_none() {
            reference = Some(fingerprint);
        }
        reps.push(rep);
    }
    Ok((reps, reference.expect("instance 0 ran")))
}

/// Runs one simulator workload.
pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let work = crate::WorkDir::create(&cfg.out, spec.kind.name())?;
    if matches!(spec.kind, Kind::Fig6Dense | Kind::Sparse) {
        check_engines_agree(spec, cfg.seed)?;
    }
    if cfg.trace {
        return traced(spec, cfg, work.path());
    }
    let (reps, f) = timed_reps(
        spec,
        cfg.seed,
        spec.instances,
        cfg.seconds,
        cfg.reps,
        work.path(),
    )?;
    eprintln!(
        "{}: {} reps, sim_digest {:#018x}, sim_miss_ratio {}, issued {}",
        spec.kind.name(),
        reps.len(),
        f.digest(),
        f.miss_ratio(),
        f.issued
    );
    let over_reps = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(Outcome::new(
        reps.len() as u64,
        0,
        false,
        vec![
            ("setup_s", over_reps(|r| r.setup_s)),
            ("run_s", over_reps(|r| r.run_s)),
            ("op_p50_ms", over_reps(|r| r.p50_ms)),
        ],
    ))
}

/// The traced pass: untraced repetitions for the overhead baseline, then
/// one traced repetition whose fingerprint must match them.
fn traced(spec: &Spec, cfg: &Config, work: &Path) -> Result<Outcome, String> {
    let (reps, reference) = timed_reps(spec, cfg.seed, 1, cfg.seconds / 2.0, 1, work)?;
    let over_reps = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let untraced_run_s = over_reps(|r| r.run_s);

    let mut tracer = Tracer::new();
    let layers = match spec.kind {
        Kind::Fig6Dense | Kind::Sparse => traced_serial(spec, cfg.seed, &mut tracer, &reference)?,
        Kind::Fig6Observed => traced_observed(spec, cfg.seed, &mut tracer, &reference, work)?,
        Kind::Shard => traced_shard(spec, cfg.seed, &mut tracer, &reference)?,
    };
    let wall = layers.wall_s;
    let traced_run_s = layers.run_s;

    let s = |name: &str| share(tracer.secs(name), wall);
    let values = vec![
        ("op_p90_ms", over_reps(|r| r.p90_ms)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("trace.wall_s", wall),
        ("trace.coverage", share(tracer.top_level_secs(), wall)),
        ("trace.overhead_ratio", share(traced_run_s, untraced_run_s)),
        ("workload.generate_share", s("workload.generate")),
        ("analysis.select_share", s("analysis.select")),
        (
            "analysis.us_per_client",
            tracer.secs("analysis.select") * 1e6 / spec.clients as f64,
        ),
        ("harness.build_share", s("harness.build")),
        ("harness.advance_share", s("harness.advance")),
        ("harness.record_share", s("harness.record")),
        (
            "client.phase_share",
            share(
                tracer.secs("client.phase") - tracer.secs("fabric.inject"),
                wall,
            ),
        ),
        ("client.visits", layers.counts.visits as f64),
        (
            "client.useful_ratio",
            share(layers.counts.offers as f64, layers.counts.visits as f64),
        ),
        ("fabric.inject_share", s("fabric.inject")),
        ("fabric.rejects", layers.counts.rejects as f64),
        ("fabric.step_share", s("fabric.step")),
        ("fabric.drain_share", s("fabric.drain")),
        ("fabric.fold_share", s("fabric.fold")),
        ("ff.probe_share", s("ff.probe")),
        ("ff.advance_idle_share", s("ff.advance_idle")),
        ("ff.probes", layers.counts.probes as f64),
        (
            "ff.hit_ratio",
            share(layers.counts.jumps as f64, layers.counts.probes as f64),
        ),
        (
            "ff.skipped_ratio",
            share(layers.ff_skipped as f64, spec.horizon as f64),
        ),
        ("fault.injected", layers.faults as f64),
        ("guard.retries", layers.retries as f64),
        ("guard.misses_detected", layers.misses_detected as f64),
        ("telemetry.flush_share", s("telemetry.flush")),
        ("telemetry.finish_share", s("telemetry.finish")),
        ("telemetry.epochs", layers.epochs as f64),
        ("telemetry.bytes", layers.telemetry_bytes as f64),
        ("shard.advance_share", s("shard.advance")),
        ("shard.advance_1w_share", s("shard.advance_1w")),
        (
            "shard.parallel_gain",
            share(
                tracer.secs("shard.advance_1w"),
                tracer.secs("shard.advance"),
            ),
        ),
        ("sim.issued", reference.issued as f64),
        ("sim.miss_ratio", reference.miss_ratio()),
    ];
    let outcome = Outcome::new(reps.len() as u64 + 1, 0, true, values);
    crate::write_trace(cfg, spec.kind.name(), &outcome, &tracer)?;
    Ok(outcome)
}

/// What a traced pass measured besides its spans.
#[derive(Default)]
struct Layers {
    /// Traced wall time up to the last span, before the checks.
    wall_s: f64,
    run_s: f64,
    counts: crate::stepper::Counts,
    ff_skipped: u64,
    faults: u64,
    retries: u64,
    misses_detected: u64,
    epochs: u64,
    telemetry_bytes: u64,
}

fn mismatch(spec: &Spec) -> String {
    format!(
        "{}: the traced run diverged from the untraced fingerprint",
        spec.kind.name()
    )
}

/// `fig6_dense` and `sparse_1k`: the traced twin of `System`.
fn traced_serial(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    reference: &Fingerprint,
) -> Result<Layers, String> {
    let t = Instant::now();
    let sets = task_sets(spec, seed);
    let t = tracer.lap("workload.generate", 0, t);
    let ic = BlueScaleInterconnect::new(bluescale_config(spec.clients), &sets)
        .map_err(|e| format!("build failed: {e}"))?;
    let t = tracer.lap("analysis.select", 0, t);
    let mut sys = TracedSystem::new(ic, &sets);
    let t_run = tracer.lap("harness.build", 0, t);
    for i in 1..=SLICES {
        sys.advance_to(slice_end(spec, i), tracer);
    }
    let mut m = sys.run(spec.horizon, tracer);
    let run_s = t_run.elapsed().as_secs_f64();
    let wall_s = tracer.elapsed_secs();
    if Fingerprint::of_traced(&sys, &mut m) != *reference {
        return Err(mismatch(spec));
    }
    Ok(Layers {
        wall_s,
        run_s,
        counts: sys.counts,
        ff_skipped: sys.counts.skipped,
        ..Layers::default()
    })
}

/// `fig6_observed`: the harness runs as is; the benchmark owns the
/// telemetry pipeline and flushes it between `advance_to` spans with the
/// calls `System::flush_telemetry_due` makes.
fn traced_observed(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    reference: &Fingerprint,
    work: &Path,
) -> Result<Layers, String> {
    let jsonl = work.join("observed-traced.jsonl");
    let t = Instant::now();
    let sets = task_sets(spec, seed);
    let plan = fault_plan(spec, seed);
    let t = tracer.lap("workload.generate", 0, t);
    let ic = BlueScaleInterconnect::new(bluescale_config(spec.clients), &sets)
        .map_err(|e| format!("build failed: {e}"))?;
    let t = tracer.lap("analysis.select", 0, t);
    let mut sys = System::new(Box::new(ic), &sets);
    sys.set_fault_plan(plan);
    sys.set_guards(guards())
        .map_err(|e| format!("guards rejected: {e}"))?;
    let mut pipe = pipeline(&jsonl)?;
    pipe.align(sys.now());
    let t_run = tracer.lap("harness.build", 0, t);

    let mut mark = t_run;
    for i in 1..=SLICES {
        let end = slice_end(spec, i);
        while sys.now() < end {
            let bound = end.min(pipe.next_flush().max(sys.now() + 1));
            sys.advance_to(bound);
            mark = tracer.lap("harness.advance", 0, mark);
            let now = sys.now();
            if now >= pipe.next_flush() {
                pipe.flush(
                    now,
                    &[
                        ("harness", sys.registry()),
                        ("fabric", sys.interconnect().metrics()),
                    ],
                );
                mark = tracer.lap("telemetry.flush", 0, mark);
            }
        }
    }
    let mut m = sys.run(spec.horizon);
    let mark = tracer.lap("harness.advance", 0, mark);
    let now = sys.now();
    pipe.finish(
        now,
        &[
            ("harness", sys.registry()),
            ("fabric", sys.interconnect().metrics()),
        ],
    );
    tracer.lap("telemetry.finish", 0, mark);
    let run_s = t_run.elapsed().as_secs_f64();
    let wall_s = tracer.elapsed_secs();

    let f = Fingerprint::of_serial(&sys, &mut m, true);
    let telemetry_bytes = std::fs::metadata(&jsonl).map_or(0, |m| m.len());
    let fold = check_fold(&jsonl, &sys);
    let _ = std::fs::remove_file(&jsonl);
    fold?;
    if f != *reference {
        return Err(mismatch(spec));
    }
    let merged = sys.merged_registry();
    let system = |c| merged.counter(ComponentId::System, c);
    Ok(Layers {
        wall_s,
        run_s,
        ff_skipped: sys.fast_forwarded_cycles(),
        faults: system(Counter::FaultsInjected),
        retries: system(Counter::Retries),
        misses_detected: system(Counter::MissesDetected),
        epochs: pipe.epochs_flushed(),
        telemetry_bytes,
        ..Layers::default()
    })
}

/// `shard_1k`: the sharded engine at two workers, then at one; the two
/// must agree with each other and with the untraced run.
fn traced_shard(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    reference: &Fingerprint,
) -> Result<Layers, String> {
    let config = bluescale_config(spec.clients);
    let t = Instant::now();
    let sets = task_sets(spec, seed);
    let t = tracer.lap("workload.generate", 0, t);
    let analysis = BlueScaleInterconnect::new(config.clone(), &sets)
        .map_err(|e| format!("build failed: {e}"))?;
    let t = tracer.lap("analysis.select", 0, t);
    let mut sys =
        ShardedSystem::with_analysis(config.clone(), analysis.clone(), &sets, SHARD_WORKERS);
    let t_run = tracer.lap("harness.build", 0, t);

    let mut mark = t_run;
    for i in 1..=SLICES {
        sys.advance_to(slice_end(spec, i));
        mark = tracer.lap("shard.advance", 0, mark);
    }
    let mut m = sys.run(spec.horizon);
    let mark = tracer.lap("shard.advance", 0, mark);
    let run_s = mark.duration_since(t_run).as_secs_f64();
    sys.fabric_metrics();
    let mark = tracer.lap("fabric.fold", 0, mark);

    let mut one = ShardedSystem::with_analysis(config, analysis, &sets, 1);
    let mut mark = tracer.lap("harness.build", 0, mark);
    for i in 1..=SLICES {
        one.advance_to(slice_end(spec, i));
        mark = tracer.lap("shard.advance_1w", 0, mark);
    }
    let mut m1 = one.run(spec.horizon);
    tracer.lap("shard.advance_1w", 0, mark);
    let wall_s = tracer.elapsed_secs();
    let f2 = Fingerprint::of_sharded(&mut sys, &mut m);
    let f1 = Fingerprint::of_sharded(&mut one, &mut m1);
    if f1 != f2 {
        return Err("shard_1k: one worker and two workers diverged".into());
    }
    if f2 != *reference {
        return Err(mismatch(spec));
    }
    Ok(Layers {
        wall_s,
        run_s,
        ff_skipped: sys.fast_forwarded_cycles(),
        ..Layers::default()
    })
}
