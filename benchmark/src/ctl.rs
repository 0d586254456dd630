//! `ctl_mixed`: the `bluescale-ctl` daemon restarted on a journal written
//! beforehand, then a closed loop from two connections, each cycling its
//! own tenants through join → stats → renegotiate → leave.

use crate::report::{median, peak_rss_mb, quantile, share, Outcome};
use crate::trace::Tracer;
use crate::{instance_seed, Config, WorkDir};
use bluescale_ctl::client::{CtlClient, CtlError, RetryPolicy};
use bluescale_ctl::journal::{self, Journal, Op};
use bluescale_ctl::proto::{RejectReason, Response, TaskSpec, TenantClass};
use bluescale_ctl::registry::{ApplyOutcome, ControlRegistry};
use bluescale_ctl::server::{Daemon, DaemonConfig, StatsSnapshot};
use bluescale_sim::metrics::Counter;
use bluescale_sim::rng::SimRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections driving the daemon: one thread each, at most `nproc` on
/// the 2-CPU target host.
const CONNECTIONS: usize = 2;
/// Task periods are drawn from this range. Short periods keep each
/// admission trial's candidate-period search, and so its cost, bounded.
const PERIOD: (u64, u64) = (200, 400);
/// Largest per-job demand drawn. With [`PERIOD`], the written history and
/// two pools of 16 tenants this keeps the tree near its root bandwidth,
/// so that 10–40% of joins are refused, depending on the seed.
const WCET_MAX: u64 = 6;

/// Size of the workload. `Spec::full` is what the benchmark runs; the
/// smoke test shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Tenant slots of the daemon's registry.
    pub capacity: usize,
    /// Operations attempted while writing the journal the daemon recovers.
    pub history_ops: usize,
    /// Tenant identities the written history draws from.
    pub history_tenants: u64,
    /// Tenants each connection cycles through.
    pub pool: usize,
    /// Operations per connection in one timed block (`run_s`).
    pub block_ops: usize,
    /// Journals written from instance seeds; the daemon is started once on
    /// each (`setup_s` is the median), then again on the first to serve
    /// the load. A history's replay cost depends on its draw.
    pub histories: u64,
    /// Recorded operations the traced pass replays.
    pub replay_ops: usize,
}

impl Spec {
    pub fn full() -> Self {
        Self {
            capacity: 64,
            history_ops: 800,
            history_tenants: 32,
            pool: 16,
            block_ops: 200,
            histories: 4,
            replay_ops: 2_000,
        }
    }
}

fn daemon_config(spec: &Spec) -> DaemonConfig {
    DaemonConfig {
        capacity: spec.capacity,
        queue_depth: 64,
        batch_max: 32,
        sim_cycles_per_batch: 64,
        compact_every: 512,
        queue_deadline: Duration::from_secs(1),
        ..DaemonConfig::default()
    }
}

fn task_spec(rng: &mut SimRng) -> Vec<TaskSpec> {
    vec![TaskSpec {
        period: rng.range_u64(PERIOD.0, PERIOD.1 + 1),
        wcet: rng.range_u64(1, WCET_MAX + 1),
    }]
}

/// One join in four is Guaranteed.
fn tenant_class(rng: &mut SimRng) -> TenantClass {
    if rng.range_u64(0, 4) == 0 {
        TenantClass::Guaranteed
    } else {
        TenantClass::BestEffort
    }
}

/// Writes the history the daemon will recover through the public
/// `ControlRegistry` and `Journal` API, exactly as the daemon's worker
/// journals admitted operations. Returns the admission-state digest the
/// recovered daemon must reproduce.
fn write_history(spec: &Spec, seed: u64, dir: &Path) -> Result<u64, String> {
    let io = |e: &dyn std::fmt::Display| format!("writing the journal failed: {e}");
    let recovery = journal::recover(dir).map_err(|e| io(&e))?;
    let mut journal = Journal::open(dir, &recovery).map_err(|e| io(&e))?;
    let mut reg = ControlRegistry::new(spec.capacity).map_err(|e| io(&e))?;
    let mut rng = SimRng::seed_from(seed ^ 0x4157_0000);
    for _ in 0..spec.history_ops {
        let tenant = 1 + rng.range_u64(0, spec.history_tenants);
        let kind = if reg.tenant(tenant).is_none() {
            Kind::Join
        } else if rng.range_u64(0, 3) == 0 {
            Kind::Leave
        } else {
            Kind::Renegotiate
        };
        let op = Operation {
            kind,
            tenant,
            class: tenant_class(&mut rng),
            tasks: task_spec(&mut rng),
        };
        if let Some(record) = decide(&mut reg, &op) {
            journal.append(&record).map_err(|e| io(&e))?;
        }
    }
    journal.sync().map_err(|e| io(&e))?;
    Ok(reg.state_digest())
}

/// Starts the daemon on `dir`, timing the start (recovery, replay and
/// serving), and checks that it recovered `expected`.
fn start(dir: &Path, spec: &Spec, expected: u64) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon =
        Daemon::start(dir, daemon_config(spec)).map_err(|e| format!("daemon start failed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let digest = daemon.state_digest();
    if digest != expected {
        daemon.shutdown();
        return Err(format!(
            "recovered digest {digest:#018x} differs from the written {expected:#018x}"
        ));
    }
    Ok((daemon, secs))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Stats,
    Renegotiate,
    Leave,
}

/// One control operation, as a connection sends it and a replay applies
/// it. `tasks` is empty for `Stats` and `Leave`.
#[derive(Debug, Clone)]
struct Operation {
    kind: Kind,
    tenant: u64,
    class: TenantClass,
    tasks: Vec<TaskSpec>,
}

/// Applies an admission operation to `reg` as the daemon's worker does and
/// returns the journal record when it was admitted.
fn decide(reg: &mut ControlRegistry, op: &Operation) -> Option<Op> {
    let outcome = match op.kind {
        Kind::Join => reg.try_join(op.tenant, op.class, &op.tasks),
        Kind::Renegotiate => reg.try_renegotiate(op.tenant, &op.tasks),
        Kind::Leave => reg.try_leave(op.tenant),
        Kind::Stats => unreachable!("stats is a query, not an admission operation"),
    };
    let ApplyOutcome::Admitted { slot, .. } = outcome else {
        return None;
    };
    let (tenant, tasks) = (op.tenant, op.tasks.clone());
    Some(match op.kind {
        Kind::Join => Op::Join {
            tenant,
            class: op.class,
            slot,
            tasks,
        },
        Kind::Renegotiate => Op::Renegotiate {
            tenant,
            slot,
            tasks,
        },
        _ => Op::Leave { tenant, slot },
    })
}

fn send(client: &mut CtlClient, op: &Operation) -> Result<Response, CtlError> {
    match op.kind {
        Kind::Join => client.join(op.tenant, op.class, op.tasks.clone()),
        Kind::Stats => client.stats(op.tenant),
        Kind::Renegotiate => client.renegotiate(op.tenant, op.tasks.clone()),
        Kind::Leave => client.leave(op.tenant),
    }
}

/// One block of a connection's operations: its duration and the latency
/// quantiles of its decisions.
#[derive(Debug, Clone, Copy)]
struct Block {
    secs: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// What one connection sent and observed.
#[derive(Debug, Default)]
struct Log {
    /// Connection and operation, in the order each connection sent them.
    sent: Vec<(usize, Operation)>,
    decision_ms: Vec<f64>,
    blocks: Vec<Block>,
    joins: u64,
    joins_rejected: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    timed_out: u64,
    errors: u64,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.sent.extend(other.sent);
        self.decision_ms.extend(other.decision_ms);
        self.blocks.extend(other.blocks);
        self.joins += other.joins;
        self.joins_rejected += other.joins_rejected;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.errors += other.errors;
    }

    fn decisions(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.timed_out
    }

    fn failed(&self) -> u64 {
        self.shed + self.timed_out + self.errors
    }
}

/// Where one tenant is in its join → stats → renegotiate → leave cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Absent,
    Joined,
    Queried,
    Renegotiated,
}

/// One closed-loop connection: the next request goes out only after the
/// previous answer arrived. Task sizes come from the connection's seeded
/// stream; which request comes next depends on the verdicts.
fn drive(addr: std::net::SocketAddr, conn: usize, spec: &Spec, seed: u64, until: Instant) -> Log {
    let mut rng = SimRng::seed_from(seed ^ ((conn as u64 + 1) << 40));
    let mut client = CtlClient::new(addr, RetryPolicy::default(), seed ^ conn as u64);
    let mut tenants: Vec<(u64, TenantClass, Stage)> = (0..spec.pool)
        .map(|j| {
            let id = (conn as u64 + 1) * 1_000_000 + j as u64;
            (id, tenant_class(&mut rng), Stage::Absent)
        })
        .collect();
    let mut log = Log::default();
    let mut block = Instant::now();
    let mut in_block = 0;
    let mut block_first = 0;
    let mut next = 0;
    while Instant::now() < until {
        let (tenant, class, stage) = &mut tenants[next % spec.pool];
        next += 1;
        let (kind, tasks) = match stage {
            Stage::Absent => (Kind::Join, task_spec(&mut rng)),
            Stage::Joined => (Kind::Stats, Vec::new()),
            Stage::Queried => (Kind::Renegotiate, task_spec(&mut rng)),
            Stage::Renegotiated => (Kind::Leave, Vec::new()),
        };
        let op = Operation {
            kind,
            tenant: *tenant,
            class: *class,
            tasks,
        };
        let t = Instant::now();
        let answer = send(&mut client, &op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if kind != Kind::Stats {
            log.decision_ms.push(ms);
        }
        if kind == Kind::Join {
            log.joins += 1;
        }
        match (kind, answer) {
            (Kind::Stats, Ok(Response::Stats(_))) => *stage = Stage::Queried,
            (Kind::Stats, _) => log.errors += 1,
            (_, Ok(Response::Admitted { .. })) => {
                log.admitted += 1;
                *stage = match stage {
                    Stage::Absent => Stage::Joined,
                    Stage::Queried => Stage::Renegotiated,
                    _ => Stage::Absent,
                };
            }
            (_, Ok(Response::Rejected { reason })) => {
                log.rejected += 1;
                if kind == Kind::Join {
                    log.joins_rejected += 1;
                }
                // A refused join is retried on the tenant's next turn, a
                // refused renegotiation is skipped, a refused leave (the
                // tenant's breaker is open) is retried.
                *stage = match (reason, *stage) {
                    (RejectReason::UnknownTenant, _) => Stage::Absent,
                    (RejectReason::AlreadyJoined, _) => Stage::Joined,
                    (_, Stage::Queried) => Stage::Renegotiated,
                    (_, current) => current,
                };
            }
            (_, Ok(Response::Shed { .. })) => log.shed += 1,
            (_, Ok(Response::TimedOut)) => log.timed_out += 1,
            (_, Ok(_) | Err(_)) => log.errors += 1,
        }
        log.sent.push((conn, op));
        in_block += 1;
        if in_block == spec.block_ops {
            let now = Instant::now();
            let decisions = &log.decision_ms[block_first..];
            log.blocks.push(Block {
                secs: now.duration_since(block).as_secs_f64(),
                p50_ms: quantile(decisions, 0.5),
                p90_ms: quantile(decisions, 0.9),
            });
            block = now;
            block_first = log.decision_ms.len();
            in_block = 0;
        }
    }
    log
}

/// Drives the daemon from every connection for `seconds`.
fn load(daemon: &Daemon, spec: &Spec, seed: u64, seconds: f64) -> Log {
    let addr = daemon.addr();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut log = Log::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| scope.spawn(move || drive(addr, conn, spec, seed, until)))
            .collect();
        for h in handles {
            log.merge(h.join().expect("a client thread panicked"));
        }
    });
    log
}

/// After the load: every admission request got exactly one verdict, the
/// clients saw the verdicts the daemon counted, and a restart recovers
/// the admission state the daemon held.
fn check_and_stop(
    daemon: Daemon,
    log: &Log,
    dir: &Path,
    spec: &Spec,
) -> Result<StatsSnapshot, String> {
    let digest = daemon.state_digest();
    let stats = daemon.shutdown();
    if !stats.conservation_holds() {
        return Err(format!("daemon conservation violated: {stats:?}"));
    }
    // A transport error leaves unknown whether the daemon saw the
    // request; it is reported as a failed operation instead.
    let seen = (
        log.decisions(),
        log.admitted,
        log.rejected,
        log.shed,
        log.timed_out,
    );
    let counted = (
        stats.received,
        stats.admitted,
        stats.rejected,
        stats.shed,
        stats.timed_out,
    );
    if log.errors == 0 && seen != counted {
        return Err(format!(
            "client verdicts {seen:?} differ from the daemon's {counted:?}"
        ));
    }
    start(dir, spec, digest).map(|(d, _)| {
        d.shutdown();
        stats
    })
}

/// Runs `ctl_mixed`.
pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let work = WorkDir::create(&cfg.out, "ctl_mixed")?;
    let dir = work.path().join("journal");
    let expected = write_history(spec, cfg.seed, &dir)?;
    if cfg.trace {
        return traced(spec, cfg, &work, expected);
    }
    let mut setup = Vec::new();
    for i in 1..spec.histories {
        let other = work.path().join(format!("journal-{i}"));
        let digest = write_history(spec, instance_seed(cfg.seed, i), &other)?;
        let (daemon, secs) = start(&other, spec, digest)?;
        daemon.shutdown();
        setup.push(secs);
    }
    let (daemon, secs) = start(&dir, spec, expected)?;
    daemon.shutdown();
    setup.push(secs);
    let (daemon, secs) = start(&dir, spec, expected)?;
    setup.push(secs);
    let log = load(&daemon, spec, cfg.seed, cfg.seconds);
    check_and_stop(daemon, &log, &dir, spec)?;
    if log.blocks.is_empty() {
        return Err("the load completed no block of operations".into());
    }
    eprintln!(
        "ctl_mixed: {} decisions, {} of {} joins rejected, {} failed",
        log.decisions(),
        log.joins_rejected,
        log.joins,
        log.failed()
    );
    let over_blocks = |f: fn(&Block) -> f64| median(&log.blocks.iter().map(f).collect::<Vec<_>>());
    Ok(Outcome::new(
        log.sent.len() as u64,
        log.failed(),
        false,
        vec![
            ("setup_s", median(&setup)),
            ("run_s", over_blocks(|b| b.secs)),
            ("op_p50_ms", over_blocks(|b| b.p50_ms)),
        ],
    ))
}

/// Recovers the written journal into a standalone registry, tracing the
/// recovery layers when a tracer is given.
fn recover_registry(
    dir: &Path,
    spec: &Spec,
    mut tracer: Option<&mut Tracer>,
) -> Result<ControlRegistry, String> {
    let mut lap = |name, start: Instant| {
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.span(name, 0, start, end);
        }
        end
    };
    let t = Instant::now();
    let recovery = journal::recover(dir).map_err(|e| format!("recovery failed: {e}"))?;
    let t = lap("ctl.recover", t);
    let mut reg =
        ControlRegistry::new(spec.capacity).map_err(|e| format!("registry build failed: {e}"))?;
    let t = lap("harness.build", t);
    if let Some(snapshot) = &recovery.snapshot {
        reg.restore(snapshot).map_err(|e| e.to_string())?;
    }
    for (seq, op) in &recovery.ops {
        reg.replay(*seq, op).map_err(|e| e.to_string())?;
    }
    lap("ctl.replay", t);
    Ok(reg)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {} failed: {e}", from.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// The connections' operations in round-robin order, at most `limit`.
fn interleave(sent: &[(usize, Operation)], limit: usize) -> Vec<Operation> {
    let mut lists: Vec<Vec<&Operation>> = vec![Vec::new(); CONNECTIONS];
    for (conn, op) in sent {
        lists[*conn].push(op);
    }
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| lists.iter().filter_map(move |l| l.get(i)))
        .take(limit)
        .map(|s| (*s).clone())
        .collect()
}

/// Per-operation costs of one replay.
#[derive(Default)]
struct Replay {
    decide_us: Vec<f64>,
    append_us: Vec<f64>,
    sync_us: Vec<f64>,
    decisions: u64,
}

/// Replays the recorded operations on a standalone registry and a fresh
/// journal the way the daemon's worker applies them: one batch per
/// round of the connections, appends for admitted operations, one sync
/// per batch, then the simulation advances.
fn replay(
    reg: &mut ControlRegistry,
    ops: &[Operation],
    journal_dir: &Path,
    spec: &Spec,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let io = |e: std::io::Error| format!("replay journal failed: {e}");
    let recovery = journal::recover(journal_dir).map_err(|e| e.to_string())?;
    let mut journal = Journal::open(journal_dir, &recovery).map_err(io)?;
    let sim_cycles = daemon_config(spec).sim_cycles_per_batch;
    let mut out = Replay::default();
    let mut mark = Instant::now();
    let mut lap = |name, id: u64, mark: &mut Instant| -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(*mark).as_secs_f64();
        if let Some(t) = tracer.as_deref_mut() {
            t.span(name, id, *mark, end);
        }
        *mark = end;
        secs
    };
    for (batch_no, batch) in ops.chunks(CONNECTIONS).enumerate() {
        let mut appended = false;
        for (i, op) in batch.iter().enumerate() {
            let id = (batch_no * CONNECTIONS + i) as u64;
            if op.kind == Kind::Stats {
                let _ = reg.stats_for(op.tenant);
                lap("ctl.stats", id, &mut mark);
                continue;
            }
            let record = decide(reg, op);
            out.decisions += 1;
            out.decide_us
                .push(lap("analysis.select", id, &mut mark) * 1e6);
            if let Some(record) = record {
                journal.append(&record).map_err(io)?;
                out.append_us.push(lap("ctl.append", id, &mut mark) * 1e6);
                appended = true;
            }
        }
        let id = (batch_no * CONNECTIONS) as u64;
        if appended {
            journal.sync().map_err(io)?;
            out.sync_us.push(lap("ctl.sync", id, &mut mark) * 1e6);
        }
        reg.step(sim_cycles);
        lap("ctl.step", id, &mut mark);
    }
    Ok(out)
}

/// The traced pass: a live run for the client-side numbers and the
/// operation sequence, then traced recovery and a traced replay of that
/// sequence, between two untraced replays whose mean is the overhead
/// baseline.
fn traced(spec: &Spec, cfg: &Config, work: &WorkDir, expected: u64) -> Result<Outcome, String> {
    let dir = work.path().join("journal");
    // The live daemon appends to its journal; recovery is traced on the
    // written history, so the daemon serves from a copy.
    let live = work.path().join("live");
    copy_dir(&dir, &live)?;
    let (daemon, _) = start(&live, spec, expected)?;
    let log = load(&daemon, spec, cfg.seed, cfg.seconds / 2.0);
    let sim_issued = daemon.sim_counter(Counter::Issued);
    let sim_missed = daemon.sim_counter(Counter::Missed);
    let stats = check_and_stop(daemon, &log, &live, spec)?;
    let live_p50_us = quantile(&log.decision_ms, 0.5) * 1e3;

    let ops = interleave(&log.sent, spec.replay_ops);
    let untraced_replay = |tag: &str| -> Result<f64, String> {
        let mut reg = recover_registry(&dir, spec, None)?;
        let t = Instant::now();
        replay(&mut reg, &ops, &work.path().join(tag), spec, None)?;
        Ok(t.elapsed().as_secs_f64())
    };
    let before_s = untraced_replay("replay-before")?;

    let mut tracer = Tracer::new();
    let mut reg = recover_registry(&dir, spec, Some(&mut tracer))?;
    if reg.state_digest() != expected {
        return Err("traced recovery produced a different admission state".into());
    }
    let t = Instant::now();
    let r = replay(
        &mut reg,
        &ops,
        &work.path().join("replay-traced"),
        spec,
        Some(&mut tracer),
    )?;
    let traced_s = t.elapsed().as_secs_f64();
    let wall = tracer.elapsed_secs();
    let untraced_s = (before_s + untraced_replay("replay-after")?) / 2.0;

    let explained = median(&r.decide_us) + median(&r.append_us) + median(&r.sync_us);
    let s = |name: &str| share(tracer.secs(name), wall);
    let values = vec![
        (
            "op_p90_ms",
            median(&log.blocks.iter().map(|b| b.p90_ms).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        ("trace.wall_s", wall),
        ("trace.coverage", share(tracer.top_level_secs(), wall)),
        ("trace.overhead_ratio", share(traced_s, untraced_s)),
        ("analysis.select_share", s("analysis.select")),
        (
            "analysis.us_per_client",
            tracer.secs("analysis.select") * 1e6 / r.decisions.max(1) as f64,
        ),
        ("harness.build_share", s("harness.build")),
        ("sim.issued", sim_issued as f64),
        (
            "sim.miss_ratio",
            share(sim_missed as f64, sim_issued as f64),
        ),
        ("ctl.recover_share", s("ctl.recover")),
        ("ctl.replay_share", s("ctl.replay")),
        ("ctl.append_share", s("ctl.append")),
        ("ctl.sync_share", s("ctl.sync")),
        ("ctl.stats_share", s("ctl.stats")),
        ("ctl.step_share", s("ctl.step")),
        (
            "ctl.residual_share",
            share((live_p50_us - explained).max(0.0), live_p50_us),
        ),
        ("ctl.admitted", stats.admitted as f64),
        ("ctl.rejected", stats.rejected as f64),
        (
            "ctl.reject_ratio",
            share(log.joins_rejected as f64, log.joins as f64),
        ),
    ];
    let outcome = Outcome::new(log.sent.len() as u64, log.failed(), true, values);
    crate::write_trace(cfg, "ctl_mixed", &outcome, &tracer)?;
    Ok(outcome)
}
