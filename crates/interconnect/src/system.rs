//! The system harness: clients + interconnect + metrics, stepped in
//! lock-step for a fixed horizon.
//!
//! The harness bookkeeping is written once and shared by every engine
//! driver — [`System`] here and the sharded engine in the `bluescale`
//! crate: the state lives in [`HarnessCore`] (clock, service log, fault
//! and churn plans, harness registry, fast-forward tallies, telemetry),
//! the per-cycle client phase is [`Clients::phase`] over the release
//! calendar, the fast-forward run loop is [`run_span`] and the
//! telemetry-chunked advance is [`advance_to`]. The shared pieces are generic over the engine, so each
//! driver's copy is monomorphised — no dynamic dispatch on the hot path.

use crate::admission::{ChurnPlan, ReconfigOutcome};
use crate::calendar::Clients;
use crate::client::TrafficGenerator;
use crate::guard::{GuardConfig, GuardConfigError, GuardState};
use crate::metrics::RunMetrics;
use crate::{ClientId, Interconnect, MemoryResponse, ServiceEvent};
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::{FaultClass, FaultKind, FaultPlan};
use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry, SampleKind};
use bluescale_sim::Cycle;
use bluescale_telemetry::Pipeline;
use std::cmp::Reverse;

/// The harness state every engine driver shares, with the accounting
/// written against it. [`System`] and the sharded engine each own one, so
/// a serial and a sharded run of the same workload tally identically by
/// construction.
pub struct HarnessCore {
    /// Harness-level observability: System/Client aggregates (issued,
    /// completed, missed, latency/blocking samples) and churn verdicts.
    /// Engines keep their own registry for component-level tallies.
    pub registry: MetricsRegistry,
    /// Current simulation time.
    pub now: Cycle,
    /// Chronological log of memory-channel grants, used to compute each
    /// request's blocking latency (cycles the channel served a
    /// later-deadline request while this one was waiting).
    pub service_log: Vec<ServiceEvent>,
    /// Active fault plan. An empty plan keeps the harness on the exact
    /// fault-free code path, so a faultless run is bit-identical to one
    /// built before the fault layer existed.
    pub faults: FaultPlan,
    /// Active churn plan (tenant joins/leaves/updates). Same discipline as
    /// the fault plan: an empty plan keeps the harness on the exact
    /// churn-free code path.
    pub churn: ChurnPlan,
    /// Jump over provably-idle stretches instead of stepping them cycle by
    /// cycle. On by default; the per-cycle path is retained as the oracle
    /// (set this to `false` to force it) and the two are pinned
    /// bit-identical by `tests/fastforward_differential.rs`.
    ///
    /// Fast-forwarding needs every layer's cooperation: it engages only
    /// when the interconnect implements
    /// [`Interconnect::next_event_hint`] and detail recording (typed
    /// events) is off. Otherwise the run silently stays per-cycle, which
    /// is always correct.
    pub fast_forward: bool,
    /// Fast-forward jumps taken. Kept out of the metrics registry on
    /// purpose — the registry must stay bit-identical between stepping
    /// modes.
    pub ff_jumps: u64,
    /// Cycles skipped by fast-forward jumps.
    pub ff_skipped: u64,
    /// Streaming telemetry, if attached. Flushes happen at span
    /// boundaries inside [`advance_to`] — never inside the per-cycle loop
    /// — and extraction is read-only on the registries, so an attached
    /// pipeline cannot perturb results (pinned by
    /// `tests/telemetry_differential.rs`).
    pub telemetry: Option<Pipeline>,
}

impl Default for HarnessCore {
    fn default() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            now: 0,
            service_log: Vec::new(),
            faults: FaultPlan::default(),
            churn: ChurnPlan::default(),
            fast_forward: true,
            ff_jumps: 0,
            ff_skipped: 0,
            telemetry: None,
        }
    }
}

impl HarnessCore {
    /// Records a delivered response into the System aggregate and the
    /// owning client's slice of the registry, after replacing its
    /// per-stage blocking with the architecture-fair bottleneck measure
    /// (see `blocking_in_window`).
    pub fn record_response(&mut self, mut response: MemoryResponse) {
        response.request.blocked_cycles = self.blocking_in_window(
            response.request.issued_at,
            response.completed_at,
            response.request.deadline,
        );
        let latency = response.latency() as f64;
        let blocking = response.request.blocked_cycles as f64;
        let window = response
            .request
            .deadline
            .saturating_sub(response.request.issued_at)
            .max(1);
        let normalized = latency / window as f64;
        let missed = response.missed_deadline();
        let r = &mut self.registry;
        for component in [
            ComponentId::System,
            ComponentId::Client(response.request.client),
        ] {
            r.inc(component, Counter::Completed);
            r.sample(component, SampleKind::Latency, latency);
            r.sample(component, SampleKind::Blocking, blocking);
            r.sample(component, SampleKind::NormalizedResponse, normalized);
            if missed {
                r.inc(component, Counter::Missed);
            }
        }
    }

    /// Blocking latency of a request that waited during `[issued, done)`:
    /// total channel time granted to *later-deadline* requests in that
    /// window.
    fn blocking_in_window(&self, issued: Cycle, done: Cycle, deadline: Cycle) -> u64 {
        let start = window_start(&self.service_log, issued);
        self.service_log[start..]
            .iter()
            .take_while(|e| e.at < done)
            .filter(|e| e.deadline > deadline)
            .map(|e| e.duration)
            .sum()
    }

    /// Emits one fault-activation counter/event per client-side fault
    /// window that opens this cycle (bursts are additionally counted at
    /// their injection site). Interconnect-side fault activity is tallied
    /// by the interconnect into its own registry.
    pub fn announce_client_faults(&mut self, now: Cycle) {
        let r = &mut self.registry;
        for spec in self.faults.specs() {
            if let FaultKind::RogueDemand { client, .. } = spec.kind {
                if spec.window.start == now && spec.window.contains(now) {
                    let component = ComponentId::Client(client);
                    r.inc(ComponentId::System, Counter::FaultsInjected);
                    r.inc(component, Counter::FaultsInjected);
                    let class = FaultClass::RogueDemand;
                    r.record(now, Event::FaultInjected { component, class });
                }
            }
        }
    }

    /// Tallies a reconfiguration request naming a client the system does
    /// not have (always a rejection).
    pub fn reject_unknown_client(&mut self, client: ClientId, now: Cycle) {
        let r = &mut self.registry;
        r.inc(ComponentId::System, Counter::AdmissionRejected);
        r.record(now, Event::ReconfigRejected { client });
    }

    /// Tallies a reconfiguration verdict and returns whether the client's
    /// traffic generator must be retasked. Counters: `Admitted` or
    /// `AdmissionRejected` for the admission decision, `Reconfigurations`
    /// and `TransitionCycles` for applied transitions, plus a typed event
    /// when detail is on.
    pub fn account_reconfiguration(
        &mut self,
        client: ClientId,
        now: Cycle,
        outcome: &ReconfigOutcome,
    ) -> bool {
        let (counters, transition_cycles, event, applied): (&[Counter], _, _, _) = match *outcome {
            ReconfigOutcome::Admitted { transition_cycles } => (
                &[Counter::Admitted, Counter::Reconfigurations],
                transition_cycles,
                Event::Reconfigured { client },
                true,
            ),
            ReconfigOutcome::Rejected => (
                &[Counter::AdmissionRejected],
                0,
                Event::ReconfigRejected { client },
                false,
            ),
            // No admission control to consult: apply the retask anyway so
            // churn scenarios still drive baselines and test doubles —
            // counted as a reconfiguration, not an admission.
            ReconfigOutcome::Unsupported => (
                &[Counter::Reconfigurations],
                0,
                Event::Reconfigured { client },
                true,
            ),
        };
        let r = &mut self.registry;
        for component in [ComponentId::System, ComponentId::Client(client)] {
            for &counter in counters {
                r.inc(component, counter);
            }
            if transition_cycles > 0 {
                r.add(component, Counter::TransitionCycles, transition_cycles);
            }
        }
        r.record(now, event);
        applied
    }

    /// End-of-run accounting for requests still queued at `clients`: each
    /// counts as issued, lands in `metrics` as incomplete, and is tallied
    /// in its client's registry slice as `Backlog` (plus `Missed` when its
    /// deadline lies before the horizon). The System-level registry
    /// counters stay a pure record of the stepped simulation, usable for
    /// further runs.
    pub fn account_backlog(
        &mut self,
        metrics: &mut RunMetrics,
        clients: &mut Clients,
        horizon: Cycle,
    ) {
        clients.drain_backlogs(|req| {
            metrics.on_issued();
            metrics.on_incomplete(req.deadline, horizon);
            let owner = ComponentId::Client(req.client);
            let r = &mut self.registry;
            r.inc(owner, Counter::Issued);
            r.inc(owner, Counter::Backlog);
            if req.deadline < horizon {
                r.inc(owner, Counter::Missed);
            }
        });
    }

    /// The cycle to jump to, when every layer promises nothing happens
    /// before it: the minimum of the engine's `hint`, the fault and churn
    /// plans' next activity and the engine's other `reports` (the release
    /// calendars' heads, guard timers), clamped to `horizon`. `None` when
    /// any layer is busy at `now`. The chain is consumed lazily and bails
    /// at the first `report <= now`, so a busy fabric (the common mid-drain
    /// case) vetoes before the plans are consulted.
    pub fn jump_target(
        &self,
        horizon: Cycle,
        hint: Cycle,
        reports: impl IntoIterator<Item = Cycle>,
    ) -> Option<Cycle> {
        let now = self.now;
        let reports = std::iter::once(hint)
            .chain((!self.faults.is_empty()).then(|| self.faults.next_activity(now)))
            .chain((!self.churn.is_empty()).then(|| self.churn.next_activity(now)))
            .chain(reports);
        bluescale_sim::next_event::jump_target(now, horizon, reports)
    }

    /// Attaches a streaming-telemetry pipeline; its first flush boundary
    /// is aligned one period after the current cycle. Replaces (and
    /// returns) any previously attached pipeline without finishing it.
    pub fn attach_telemetry(&mut self, mut pipeline: Pipeline) -> Option<Pipeline> {
        pipeline.align(self.now);
        self.telemetry.replace(pipeline)
    }

    /// Epochs the attached pipeline has flushed (0 when none attached).
    pub fn telemetry_epochs(&self) -> u64 {
        self.telemetry.as_ref().map_or(0, Pipeline::epochs_flushed)
    }
}

/// One engine's per-cycle surface, as driven by [`run_span`].
pub trait Stepper {
    /// The shared harness state (clock, fast-forward tallies).
    fn core(&mut self) -> &mut HarnessCore;
    /// The cycle every layer promises to stay idle until, or `None` when
    /// something is busy now (see [`HarnessCore::jump_target`]).
    fn jump_target(&mut self, horizon: Cycle) -> Option<Cycle>;
    /// Replays `delta` provably-idle cycles from the current one in closed
    /// form.
    fn advance_idle(&mut self, delta: Cycle);
    /// Steps one cycle, advancing the clock. Returning `false` ends the
    /// span early (a contained failure).
    fn step(&mut self) -> bool;
}

/// Steps `engine` up to `horizon`, jumping provably-idle stretches in
/// closed form when `fast` is set. The probe runs before every stepped
/// cycle: every term of it is O(1) in the client count (the clients'
/// term is the release calendar's head), so a stretch becomes a jump the
/// first cycle it is idle.
pub fn run_span(engine: &mut impl Stepper, horizon: Cycle, fast: bool) {
    while engine.core().now < horizon {
        if fast {
            if let Some(target) = engine.jump_target(horizon) {
                let delta = target - engine.core().now;
                engine.advance_idle(delta);
                let core = engine.core();
                core.ff_jumps += 1;
                core.ff_skipped += delta;
                core.now = target;
                if target >= horizon {
                    break;
                }
            }
        }
        if !engine.step() {
            break;
        }
    }
}

/// A harness as seen by the telemetry-chunked [`advance_to`].
pub trait Driver {
    /// The shared harness state.
    fn core(&mut self) -> &mut HarnessCore;
    /// One uninterrupted simulation span up to `horizon`. The harness
    /// registry is exact afterwards; the engine's batched fabric tallies
    /// stay pending until a reader folds them (see [`sources`](Self::sources)).
    fn advance_span(&mut self, horizon: Cycle);
    /// Folds the engine's batched tallies (memory-controller stats, SoA
    /// delta arrays, shard deltas) and returns the harness state alongside
    /// the engine's fabric registry, for telemetry extraction.
    fn sources(&mut self) -> (&mut HarnessCore, Option<&MetricsRegistry>);
}

/// Steps (or fast-forwards) `driver` up to `horizon` without any
/// end-of-run accounting. With telemetry attached, the horizon is covered
/// as a sequence of spans bounded by flush boundaries; the per-cycle loop
/// itself never checks for flushes, and chunking only moves where the
/// driver pauses, never what it computes.
pub fn advance_to(driver: &mut impl Driver, horizon: Cycle) {
    if driver.core().telemetry.is_none() {
        driver.advance_span(horizon);
        return;
    }
    while driver.core().now < horizon {
        let core = driver.core();
        let due = core.telemetry.as_ref().expect("checked above").next_flush();
        // `max(now + 1)` guarantees progress even if a boundary is
        // somehow at or behind `now`; `flush` advances the boundary
        // strictly past `now` afterwards.
        let bound = horizon.min(due.max(core.now + 1));
        driver.advance_span(bound);
        flush_telemetry_due(driver);
    }
}

/// Flushes the attached pipeline if the current cycle has reached its
/// boundary.
pub fn flush_telemetry_due(driver: &mut impl Driver) {
    let core = driver.core();
    match &core.telemetry {
        Some(p) if core.now >= p.next_flush() => {}
        _ => return,
    }
    let (core, fabric) = driver.sources();
    let sources = telemetry_sources(&core.registry, fabric);
    let pipeline = core.telemetry.as_mut().expect("checked above");
    pipeline.flush(core.now, &sources);
}

/// Final telemetry flush + sink finalization over freshly folded
/// registries; a no-op (beyond the fold) when no pipeline is attached.
pub fn finish_telemetry(driver: &mut impl Driver) {
    let (core, fabric) = driver.sources();
    let sources = telemetry_sources(&core.registry, fabric);
    if let Some(pipeline) = core.telemetry.as_mut() {
        pipeline.finish(core.now, &sources);
    }
}

fn telemetry_sources<'a>(
    harness: &'a MetricsRegistry,
    fabric: Option<&'a MetricsRegistry>,
) -> Vec<(&'static str, &'a MetricsRegistry)> {
    let mut sources = vec![("harness", harness)];
    if let Some(m) = fabric {
        sources.push(("fabric", m));
    }
    sources
}

/// A complete simulated system: one [`TrafficGenerator`] per client port of
/// an [`Interconnect`], plus metric collection.
///
/// Each cycle the harness:
/// 1. advances every generator with a release due (task releases),
/// 2. offers at most one request per backlogged client port,
/// 3. steps the interconnect (arbitration, memory, response routing),
/// 4. drains responses into the metrics.
///
/// # Example
///
/// ```no_run
/// use bluescale_interconnect::system::System;
/// use bluescale_rt::task::{Task, TaskSet};
/// # fn interconnect_for(n: usize) -> Box<dyn bluescale_interconnect::Interconnect> { unimplemented!() }
///
/// let per_client = vec![TaskSet::new(vec![Task::new(0, 100, 2)?])?; 16];
/// let ic = interconnect_for(16);
/// let mut system = System::new(ic, &per_client);
/// let metrics = system.run(100_000);
/// println!("miss ratio = {}", metrics.miss_ratio());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct System<I: ?Sized + Interconnect> {
    clients: Clients,
    /// Clock, plans, service log, harness registry, fast-forward tallies
    /// and telemetry. The interconnect keeps its own registry for
    /// component-level tallies; [`merged_registry`] combines both for
    /// export.
    ///
    /// [`merged_registry`]: Self::merged_registry
    core: HarnessCore,
    interconnect: Box<I>,
    /// Which runtime guards are active (all off by default).
    guards: GuardConfig,
    /// The guard layer's deterministic bookkeeping.
    guard: GuardState,
}

/// [`System`] as seen by the shared run loops.
struct Serial<'a, I: ?Sized + Interconnect>(&'a mut System<I>);

impl<I: ?Sized + Interconnect> Stepper for Serial<'_, I> {
    fn core(&mut self) -> &mut HarnessCore {
        &mut self.0.core
    }

    fn jump_target(&mut self, horizon: Cycle) -> Option<Cycle> {
        let sys = &*self.0;
        let now = sys.core.now;
        let hint = sys.interconnect.next_event_hint(now)?;
        let guard = sys.guards.tracks().then(|| sys.guard.next_event());
        let clients = sys.clients.next_event(now);
        sys.core
            .jump_target(horizon, hint, guard.into_iter().chain([clients]))
    }

    fn advance_idle(&mut self, delta: Cycle) {
        let sys = &mut *self.0;
        sys.interconnect.advance_idle(sys.core.now, delta);
    }

    fn step(&mut self) -> bool {
        self.0.step();
        true
    }
}

impl<I: ?Sized + Interconnect> Driver for Serial<'_, I> {
    fn core(&mut self) -> &mut HarnessCore {
        &mut self.0.core
    }

    fn advance_span(&mut self, horizon: Cycle) {
        // Fast-forward is gated off while detail recording is on: typed
        // per-cycle events (e.g. `Replenish` at every period boundary)
        // cannot be replayed in closed form, and detail runs are
        // diagnostics where wall-clock is secondary.
        let sys = &*self.0;
        let fast = sys.core.fast_forward
            && !sys.core.registry.detail()
            && sys.interconnect.metrics().is_none_or(|m| !m.detail());
        run_span(self, horizon, fast);
    }

    fn sources(&mut self) -> (&mut HarnessCore, Option<&MetricsRegistry>) {
        let sys = &mut *self.0;
        sys.interconnect.metrics_mut();
        (&mut sys.core, sys.interconnect.metrics())
    }
}

impl<I: ?Sized + Interconnect> System<I> {
    /// Builds a system from an interconnect and one task set per client.
    ///
    /// # Panics
    ///
    /// Panics if `task_sets.len()` differs from the interconnect's client
    /// count.
    pub fn new(interconnect: Box<I>, task_sets: &[TaskSet]) -> Self {
        assert_eq!(
            task_sets.len(),
            interconnect.num_clients(),
            "one task set per client port required"
        );
        let clients = task_sets
            .iter()
            .enumerate()
            .map(|(i, set)| TrafficGenerator::new(i as u32, set))
            .collect();
        Self::from_generators(interconnect, clients)
    }

    /// Builds a system with staggered task phases: task `j` of client `i`
    /// releases its first job at a pseudo-random offset in `[0, Tⱼ)`
    /// derived from `seed`. Synchronous release (see [`new`](Self::new))
    /// is the contention worst case; phased release models a running
    /// system observed mid-flight.
    ///
    /// # Panics
    ///
    /// Panics if `task_sets.len()` differs from the interconnect's client
    /// count.
    pub fn new_phased(interconnect: Box<I>, task_sets: &[TaskSet], seed: u64) -> Self {
        assert_eq!(
            task_sets.len(),
            interconnect.num_clients(),
            "one task set per client port required"
        );
        let mut rng = bluescale_sim::rng::SimRng::seed_from(seed);
        let clients = task_sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let offsets: Vec<Cycle> =
                    set.iter().map(|t| rng.range_u64(0, t.period())).collect();
                TrafficGenerator::with_offsets(i as u32, set, &offsets)
            })
            .collect();
        Self::from_generators(interconnect, clients)
    }

    fn from_generators(interconnect: Box<I>, clients: Vec<TrafficGenerator>) -> Self {
        Self {
            clients: Clients::new(clients),
            core: HarnessCore::default(),
            interconnect,
            guards: GuardConfig::default(),
            guard: GuardState::new(),
        }
    }

    /// Enables or disables the idle-cycle fast-forward path (see
    /// [`HarnessCore::fast_forward`]).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.core.fast_forward = enabled;
    }

    /// Number of idle-stretch jumps the fast-forward path has taken.
    pub fn fast_forward_jumps(&self) -> u64 {
        self.core.ff_jumps
    }

    /// Total cycles skipped (not stepped per-cycle) by fast-forwarding.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.core.ff_skipped
    }

    /// Confines every client's address walk to its own DRAM bank stripe
    /// (bank `client % banks`) — software bank partitioning in the PALLOC
    /// style; see
    /// [`TrafficGenerator::set_bank_partition`](crate::client::TrafficGenerator::set_bank_partition).
    /// Pass the DRAM geometry of the interconnect's controller so the
    /// stripes line up with its address map.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero, or `row_bytes` is not a
    /// multiple of the generators' address stride.
    pub fn set_bank_partition(&mut self, banks: u32, row_bytes: u64) {
        self.clients.set_bank_partition(banks, row_bytes);
    }

    /// Installs a fault plan: client-side faults (rogue demand, bursts)
    /// are applied by the harness each cycle; interconnect-side faults
    /// (stuck grants, DRAM jitter, dropped responses) are handed to the
    /// interconnect via [`Interconnect::install_fault_plan`]. Replaces any
    /// previously installed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.interconnect.install_fault_plan(&plan);
        self.core.faults = plan;
    }

    /// The active fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.core.faults
    }

    /// Installs a churn plan: tenant `Join`/`Leave`/`UpdateTasks` requests
    /// that the harness drains at the start of each due cycle and runs
    /// through [`Interconnect::reconfigure_client`] (see
    /// [`apply_reconfiguration`](Self::apply_reconfiguration)). Replaces
    /// any previously installed plan; the new plan's hand-out cursor is
    /// rewound so a reused plan replays from its first request.
    pub fn set_churn_plan(&mut self, mut plan: ChurnPlan) {
        plan.reset_state();
        self.core.churn = plan;
    }

    /// The active churn plan (empty by default).
    pub fn churn_plan(&self) -> &ChurnPlan {
        &self.core.churn
    }

    /// Applies one live reconfiguration request: `tasks` becomes `client`'s
    /// declared task set (the empty set = the client leaves). The
    /// interconnect's admission control decides; on acceptance the traffic
    /// generator is retasked from `now` (request serials continue, queued
    /// requests drain) and the new server parameters swap in at each
    /// affected server's replenishment boundary. On rejection nothing
    /// changes — the interconnect guarantees a bit-identical rollback.
    /// Architectures without admission control ([`ReconfigOutcome::Unsupported`])
    /// get the retask applied directly, without any guarantee.
    ///
    /// Returns the verdict; [`ReconfigOutcome::applied`] says whether
    /// the request took effect. Counters: `Admitted` /
    /// `AdmissionRejected` for the admission verdict, `Reconfigurations` +
    /// `TransitionCycles` for applied transitions, plus typed
    /// `Reconfigured` / `ReconfigRejected` events when detail is on.
    pub fn apply_reconfiguration(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        now: Cycle,
    ) -> ReconfigOutcome {
        if client as usize >= self.clients.len() {
            self.core.reject_unknown_client(client, now);
            return ReconfigOutcome::Rejected;
        }
        let outcome = self.interconnect.reconfigure_client(client, tasks, now);
        if self.core.account_reconfiguration(client, now, &outcome) {
            self.clients.retask(client as usize, tasks, now);
        }
        outcome
    }

    /// Activates runtime guards. Configure before stepping: requests
    /// accepted while tracking was off are unknown to the guard layer and
    /// their responses would be suppressed as duplicates.
    ///
    /// The configuration is validated against the current workload (see
    /// [`GuardConfig::validate`]): a watchdog timeout below the longest
    /// deadline window of any client is rejected, because it would
    /// re-inject *healthy* slow requests and break isolation — the PR-3
    /// isolation-bench finding, now enforced. On error the previous guard
    /// configuration stays active.
    ///
    /// # Errors
    ///
    /// [`GuardConfigError::WatchdogBelowDeadlineWindow`] for a watchdog
    /// timeout below the longest deadline window across clients.
    pub fn set_guards(&mut self, config: GuardConfig) -> Result<(), GuardConfigError> {
        let longest = self
            .clients
            .iter()
            .map(|c| c.longest_deadline_window())
            .max()
            .unwrap_or(0);
        config.validate(longest)?;
        self.guards = config;
        Ok(())
    }

    /// Activates runtime guards *without* workload validation. This is the
    /// escape hatch for experiments that deliberately install a pathological
    /// configuration — the isolation bench measures exactly what a
    /// sub-window watchdog timeout does to healthy tenants, and tests
    /// exercise duplicate suppression the same way. Production-style
    /// callers use [`set_guards`](Self::set_guards).
    pub fn set_guards_unchecked(&mut self, config: GuardConfig) {
        self.guards = config;
    }

    /// The active guard configuration.
    pub fn guards(&self) -> &GuardConfig {
        &self.guards
    }

    /// Tracked requests accepted but not yet delivered (see
    /// [`GuardState::outstanding`]). Zero when no guard tracks.
    pub fn guard_outstanding(&self) -> usize {
        self.guard.outstanding()
    }

    /// Clients demoted by the quarantine guard, ascending.
    pub fn quarantined_clients(&self) -> Vec<u32> {
        self.guard.quarantined()
    }

    /// Force-demotes `client` through the quarantine path, exactly as if
    /// the quarantine guard's miss threshold had tripped: the client is
    /// marked quarantined and its reservation is shed via the
    /// admission-tested reconfiguration path (empty task set). External
    /// policy hook — the control plane's circuit breaker feeds flapping
    /// tenants here. Returns `false` if the client was already
    /// quarantined (nothing is re-applied).
    pub fn quarantine_client(&mut self, client: u32) -> bool {
        if self.guard.quarantined.contains(&client) {
            return false;
        }
        self.guard.quarantined.insert(client);
        let now = self.core.now;
        self.demote_quarantined(client, now)
    }

    /// Deadline misses the guard layer has detected for `client`.
    pub fn detected_misses(&self, client: u32) -> u64 {
        self.guard.detected_misses(client)
    }

    /// Metrics broken down per client (same definitions as the aggregate),
    /// built from the harness registry's per-client slices.
    pub fn per_client_metrics(&self) -> Vec<RunMetrics> {
        (0..self.interconnect.num_clients())
            .map(|c| RunMetrics::from_registry(&self.core.registry, ComponentId::Client(c as u32)))
            .collect()
    }

    /// The harness-level metrics registry (System and Client aggregates).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.core.registry
    }

    /// Mutable access to the harness registry.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.core.registry
    }

    /// Turns on detail recording (typed events + request lifecycles) in
    /// both the harness registry and the interconnect's own, if it has one.
    pub fn enable_detail(&mut self) {
        self.core.registry.enable_detail();
        if let Some(m) = self.interconnect.metrics_mut() {
            m.enable_detail();
        }
    }

    /// The interconnect's registry (component-level grant, throttle and
    /// memory tallies) with every batched tally folded in, or `None` when
    /// the interconnect keeps none. Spans leave the fabric's batched
    /// tallies pending, so `interconnect().metrics()` may lag mid-run;
    /// this read is exact. Mirrors the sharded harness's `fabric_metrics`.
    pub fn fabric_metrics(&mut self) -> Option<&MetricsRegistry> {
        self.interconnect.metrics_mut().map(|m| &*m)
    }

    /// A snapshot combining the harness registry with the interconnect's
    /// internal one (component-level grant/throttle/memory tallies). The
    /// two registries count disjoint quantities — in particular, churn
    /// accounting (`Reconfigurations`/`Admitted`/`AdmissionRejected`) is
    /// tallied by the harness registry alone — so merging never
    /// double-counts.
    pub fn merged_registry(&mut self) -> MetricsRegistry {
        let mut merged = self.core.registry.clone();
        if let Some(m) = self.interconnect.metrics_mut() {
            merged.merge(m);
        }
        merged
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.core.now
    }

    /// The interconnect under test.
    pub fn interconnect(&self) -> &I {
        &self.interconnect
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) {
        let now = self.core.now;
        let tracks = self.guards.tracks();
        // Reconfigurations apply before this cycle's releases, so a tenant
        // joining at cycle t releases its first job at t under the new
        // contract. The empty-plan branch keeps churn-free runs exact.
        if !self.core.churn.is_empty() {
            while let Some(spec) = self.core.churn.take_due(now) {
                let tasks = spec.kind.requested_tasks();
                self.apply_reconfiguration(spec.client, &tasks, now);
            }
        }
        if !self.core.faults.is_empty() {
            self.core.announce_client_faults(now);
        }
        let (interconnect, guard, guards) = (&mut self.interconnect, &mut self.guard, &self.guards);
        let core = &mut self.core;
        self.clients
            .phase(&core.faults, &mut core.registry, now, |req| {
                // Capture what the guard layer needs before the request is
                // moved into the interconnect; the clone is taken only
                // while a watchdog is armed.
                let tracked = tracks.then(|| {
                    let keep = guards.watchdog.map(|_| req.clone());
                    (req.id, req.client, req.deadline, keep)
                });
                interconnect.inject(req, now)?;
                if let Some((id, owner, deadline, keep)) = tracked {
                    guard.track(id, owner, deadline, keep, now, guards);
                }
                Ok(())
            });
        self.interconnect.step(now);
        while let Some(event) = self.interconnect.pop_service_event() {
            self.core.service_log.push(event);
        }
        while let Some(resp) = self.interconnect.pop_response() {
            if tracks && !self.guard.close(resp.request.id) {
                // A watchdog retry raced the original delivery (or the
                // request predates tracking): suppress so completion
                // counts stay exact.
                let r = &mut self.core.registry;
                r.inc(ComponentId::System, Counter::DuplicateResponses);
                r.inc(
                    ComponentId::Client(resp.request.client),
                    Counter::DuplicateResponses,
                );
                continue;
            }
            self.core.record_response(resp);
        }
        if tracks {
            self.guard_tick(now);
        }
        self.core.now += 1;
    }

    /// Runs the active guards once, after the cycle's responses drained:
    /// flag freshly missed deadlines, fire due watchdog retries, demote
    /// clients past the quarantine threshold.
    fn guard_tick(&mut self, now: Cycle) {
        let r = &mut self.core.registry;
        if self.guards.detects_misses() {
            while let Some(Reverse((deadline, id))) = self.guard.deadline_heap.peek().copied() {
                if deadline >= now {
                    break;
                }
                self.guard.deadline_heap.pop();
                let Some(entry) = self.guard.outstanding.get_mut(&id) else {
                    continue; // delivered in time
                };
                if entry.miss_flagged {
                    continue;
                }
                entry.miss_flagged = true;
                let (client, request) = (entry.client, id);
                *self.guard.miss_tally.entry(client).or_insert(0) += 1;
                r.inc(ComponentId::System, Counter::MissesDetected);
                r.inc(ComponentId::Client(client), Counter::MissesDetected);
                r.record(now, Event::DeadlineMiss { client, request });
            }
        }
        if let Some(w) = self.guards.watchdog {
            while let Some(&(due, id)) = self.guard.retry_due.iter().next() {
                if due > now {
                    break;
                }
                self.guard.retry_due.remove(&(due, id));
                let Some(entry) = self.guard.outstanding.get_mut(&id) else {
                    continue; // delivered while the timer was pending
                };
                if entry.retries >= w.max_retries {
                    continue; // given up; stays outstanding (a lost request)
                }
                let Some(request) = entry.request.clone() else {
                    continue;
                };
                let client = entry.client;
                match self.interconnect.inject(request, now) {
                    Ok(()) => {
                        entry.retries += 1;
                        // Saturating like `GuardState::track`: sentinel
                        // timeouts (`Cycle::MAX` = detection-only) must not
                        // overflow the re-arm.
                        self.guard
                            .retry_due
                            .insert((now.saturating_add(w.timeout.max(1)), id));
                        r.inc(ComponentId::System, Counter::Retries);
                        r.inc(ComponentId::Client(client), Counter::Retries);
                        r.record(
                            now,
                            Event::Retry {
                                client,
                                request: id,
                            },
                        );
                    }
                    Err(_) => {
                        // Port full this cycle: try again next cycle
                        // without charging a retry.
                        self.guard.retry_due.insert((now + 1, id));
                    }
                }
            }
        }
        if let Some(policy) = self.guards.quarantine {
            let offenders: Vec<u32> = self
                .guard
                .miss_tally
                .iter()
                .filter(|&(c, &misses)| {
                    misses >= policy.miss_threshold && !self.guard.quarantined.contains(c)
                })
                .map(|(&c, _)| c)
                .collect();
            for c in offenders {
                // Marked regardless of whether the demotion takes effect,
                // so architectures without the hook are asked only once.
                self.guard.quarantined.insert(c);
                self.demote_quarantined(c, now);
            }
        }
    }

    /// Sheds a quarantined client's reservation. A demotion is a mode
    /// change like any other: route it through the reconfiguration path
    /// (empty task set = leave) so it is applied at replenishment
    /// boundaries and observable as a first-class transition.
    /// Architectures without runtime reconfiguration cannot demote. The
    /// rogue generator itself is *not* retasked — it keeps issuing its
    /// undeclared traffic, now without a reservation.
    fn demote_quarantined(&mut self, c: u32, now: Cycle) -> bool {
        let demoted = match self
            .interconnect
            .reconfigure_client(c, &TaskSet::empty(), now)
        {
            ReconfigOutcome::Admitted { transition_cycles } => {
                let r = &mut self.core.registry;
                for component in [ComponentId::System, ComponentId::Client(c)] {
                    r.inc(component, Counter::Reconfigurations);
                    if transition_cycles > 0 {
                        r.add(component, Counter::TransitionCycles, transition_cycles);
                    }
                }
                r.record(now, Event::Reconfigured { client: c });
                true
            }
            // A fabric may reject a shed: BlueScale rejects one only when
            // its composition is schedulable and the trial fails, or for
            // an out-of-range client. Neither demotes.
            ReconfigOutcome::Rejected | ReconfigOutcome::Unsupported => false,
        };
        if demoted {
            let r = &mut self.core.registry;
            r.inc(ComponentId::System, Counter::Quarantines);
            r.inc(ComponentId::Client(c), Counter::Quarantines);
            r.record(now, Event::Quarantine { client: c });
        }
        demoted
    }

    /// Discards all metrics collected so far (the warm-up transient) while
    /// keeping the simulation state. Subsequent metrics reflect steady
    /// state only.
    pub fn reset_metrics(&mut self) {
        let detail = self.core.registry.detail();
        let window = self.core.registry.sample_window();
        self.core.registry = MetricsRegistry::new();
        if detail {
            self.core.registry.enable_detail();
        }
        self.core.registry.set_sample_window(window);
    }

    /// Runs until `horizon`, discarding everything recorded before
    /// `warmup` (see [`reset_metrics`](Self::reset_metrics)).
    ///
    /// `warmup` is clamped to `horizon`: an inverted pair used to simulate
    /// silently past the horizon and then account still-pending requests
    /// against a cutoff earlier than `now`, yielding nonsense miss counts.
    /// With the clamp, `warmup >= horizon` degenerates to "simulate to the
    /// horizon, reset, account" — the same as `warmup == horizon`.
    pub fn run_with_warmup(&mut self, warmup: Cycle, horizon: Cycle) -> RunMetrics {
        self.advance_to(warmup.min(horizon));
        self.reset_metrics();
        self.run(horizon)
    }

    /// Attaches a streaming-telemetry pipeline; its first flush boundary
    /// is aligned one period after the current cycle. Replaces (and
    /// returns) any previously attached pipeline without finishing it.
    pub fn attach_telemetry(&mut self, pipeline: Pipeline) -> Option<Pipeline> {
        self.core.attach_telemetry(pipeline)
    }

    /// Epochs the attached pipeline has flushed (0 when none attached).
    pub fn telemetry_epochs(&self) -> u64 {
        self.core.telemetry_epochs()
    }

    /// Final telemetry flush + sink finalization. Call after the last
    /// [`run`](Self::run) so the stream's tail captures end-of-run
    /// accounting (backlog misses land after the horizon is reached).
    pub fn finish_telemetry(&mut self) {
        finish_telemetry(&mut Serial(self));
    }

    /// Flushes the attached pipeline if the current cycle has reached its
    /// boundary. Hosts that step the system manually (the control-plane
    /// daemon steps in small batches) call this between batches; `run`
    /// and `advance_to` call it at span boundaries automatically.
    pub fn flush_telemetry_due(&mut self) {
        flush_telemetry_due(&mut Serial(self));
    }

    /// Steps (or fast-forwards) the simulation up to `horizon` without any
    /// end-of-run accounting. With telemetry attached, the horizon is
    /// covered as a sequence of spans bounded by flush boundaries; the
    /// per-cycle loop itself never checks for flushes. The harness
    /// registry is exact afterwards; the interconnect's batched tallies
    /// are folded by the next exact read ([`fabric_metrics`](Self::fabric_metrics),
    /// [`merged_registry`](Self::merged_registry), a telemetry flush or
    /// [`run`](Self::run)), not here.
    pub fn advance_to(&mut self, horizon: Cycle) {
        advance_to(&mut Serial(self), horizon);
    }

    /// Runs until `horizon` cycles have elapsed, folds the interconnect's
    /// batched tallies once (so `interconnect().metrics()` is exact after
    /// a run), then accounts still-pending requests (in client backlogs
    /// and inside the interconnect) as misses when their deadlines lie
    /// before the horizon. Returns the metrics.
    ///
    /// Provably-idle stretches are jumped in closed form when
    /// [`HarnessCore::fast_forward`] is on (the default) and the
    /// interconnect cooperates; results are bit-identical either way.
    pub fn run(&mut self, horizon: Cycle) -> RunMetrics {
        self.advance_to(horizon);
        self.interconnect.metrics_mut();
        let mut metrics = RunMetrics::from_registry(&self.core.registry, ComponentId::System);
        self.core
            .account_backlog(&mut metrics, &mut self.clients, horizon);
        // Requests absorbed by the interconnect but not completed are
        // counted as issued already; their deadline state is unknown here,
        // so implementations expose only the count. Treat each as missed
        // only if the run left them stuck long enough that their deadline
        // cannot be met — conservatively: pending > 0 with horizon past is
        // *not* automatically a miss; the figures use long horizons so the
        // residue is negligible (asserted in integration tests).
        metrics
    }

    /// Total requests currently buffered inside the interconnect.
    pub fn in_flight(&self) -> usize {
        self.interconnect.pending()
    }
}

/// The index of the first event at or after `issued` in a chronological
/// log: `log.partition_point(|e| e.at < issued)`. A request's window starts
/// recently, so this gallops back from the tail in doubling steps and then
/// binary-searches only the bracket it found, instead of the whole log.
fn window_start(log: &[ServiceEvent], issued: Cycle) -> usize {
    // Invariant: every event in `log[hi..]` is at or after `issued`.
    let mut hi = log.len();
    let mut step = 1;
    loop {
        let lo = hi.saturating_sub(step);
        if lo == 0 || log[lo].at < issued {
            return lo + log[lo..hi].partition_point(|e| e.at < issued);
        }
        hi = lo;
        step *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{QuarantinePolicy, WatchdogConfig};
    use crate::MemoryRequest;
    use bluescale_rt::task::Task;
    use bluescale_sim::fault::FaultWindow;
    use std::collections::VecDeque;

    /// A trivial interconnect: accepts one request per client per cycle
    /// into a single queue, serves one per cycle with `latency` transit.
    struct IdealInterconnect {
        clients: usize,
        queue: VecDeque<(MemoryRequest, Cycle)>,
        ready: VecDeque<MemoryResponse>,
        latency: Cycle,
    }

    impl Interconnect for IdealInterconnect {
        fn name(&self) -> &'static str {
            "ideal"
        }
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
            self.queue.push_back((request, now));
            Ok(())
        }
        fn step(&mut self, now: Cycle) {
            if let Some((req, _)) = self.queue.pop_front() {
                self.ready.push_back(MemoryResponse {
                    request: req,
                    completed_at: now + self.latency,
                });
            }
        }
        fn pop_response(&mut self) -> Option<MemoryResponse> {
            self.ready.pop_front()
        }
        fn pending(&self) -> usize {
            self.queue.len() + self.ready.len()
        }
    }

    fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
        (0..n)
            .map(|_| TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap())
            .collect()
    }

    #[test]
    fn window_start_matches_the_partition_point() {
        let event = |at| ServiceEvent {
            at,
            deadline: 0,
            duration: 1,
        };
        let reference = |log: &[ServiceEvent], issued| log.partition_point(|e| e.at < issued);
        assert_eq!(window_start(&[], 5), 0, "empty log");
        // Duplicate `at` values, runs of them at both ends and in the middle.
        let ats = [2, 2, 3, 7, 7, 7, 7, 8, 12, 12, 13, 20, 20, 20, 21, 30, 30];
        for len in 0..=ats.len() {
            let log: Vec<ServiceEvent> = ats[..len].iter().map(|&at| event(at)).collect();
            // From before the first event to after the last one.
            for issued in 0..=32 {
                assert_eq!(
                    window_start(&log, issued),
                    reference(&log, issued),
                    "len {len}, issued {issued}"
                );
            }
        }
        // A long log whose window sits deep in the past.
        let log: Vec<ServiceEvent> = (0..5_000).map(|i| event(i / 3)).collect();
        for issued in [0, 1, 17, 900, 1_665, 1_666, 1_667, 5_000] {
            assert_eq!(window_start(&log, issued), reference(&log, issued));
        }
    }

    #[test]
    fn light_load_has_no_misses() {
        let ic = Box::new(IdealInterconnect {
            clients: 4,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 2,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 100, 1));
        let m = sys.run(1_000);
        assert!(m.issued() >= 4 * 9, "issued {}", m.issued());
        assert!(m.success(), "missed {}", m.missed());
        assert!(m.mean_latency() >= 2.0);
    }

    #[test]
    fn overload_produces_misses() {
        // 4 clients × demand 60/100 each = 2.4× the service rate of one
        // request per cycle... periods of 10 with wcet 9 → U=3.6 overload.
        let ic = Box::new(IdealInterconnect {
            clients: 4,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 10, 9));
        let m = sys.run(2_000);
        assert!(m.miss_ratio() > 0.1, "miss ratio {}", m.miss_ratio());
    }

    #[test]
    #[should_panic(expected = "one task set per client")]
    fn mismatched_client_count_panics() {
        let ic = Box::new(IdealInterconnect {
            clients: 4,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let _ = System::new(ic as Box<dyn Interconnect>, &sets(3, 10, 1));
    }

    #[test]
    fn warmup_discards_transient_metrics() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 50, 2));
        let m = sys.run_with_warmup(250, 500);
        // Releases every 50 cycles, 2 requests each, 2 clients: the full
        // run would issue 40; discarding [0, 250) leaves the 5 releases at
        // 250..=450 → exactly 20.
        assert_eq!(m.issued(), 20);
    }

    #[test]
    fn warmup_equal_to_horizon_is_reset_plus_noop_run() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 50, 2));
        let m = sys.run_with_warmup(500, 500);
        assert_eq!(sys.now(), 500, "simulates exactly to the horizon");
        assert_eq!(m.issued(), 0, "every release falls inside the warm-up");
        assert_eq!(m.completed(), 0);
        assert_eq!(m.missed(), 0);
    }

    #[test]
    fn warmup_beyond_horizon_is_clamped() {
        // Regression: warmup > horizon used to simulate to `warmup` and
        // then account still-queued requests against the earlier horizon,
        // producing backlog/miss counts for a window that was never
        // observed.
        let run = |warmup| {
            let ic = Box::new(IdealInterconnect {
                clients: 2,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                latency: 1,
            });
            let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 50, 2));
            let m = sys.run_with_warmup(warmup, 500);
            (
                sys.now(),
                m.issued(),
                m.completed(),
                m.missed(),
                m.backlog(),
            )
        };
        assert_eq!(
            run(800),
            run(500),
            "inverted warm-up behaves like the boundary"
        );
    }

    #[test]
    fn watchdog_sentinel_timeout_is_detection_only() {
        // Regression: `now + Cycle::MAX` overflowed in debug builds. The
        // sentinel must run miss detection without ever firing a retry.
        let mut ic = Box::new(LossyInterconnect::new(2));
        ic.blackhole_client = Some(1);
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 20, 1));
        sys.set_guards(GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: Cycle::MAX,
                max_retries: 3,
            }),
            quarantine: None,
        })
        .expect("a Cycle::MAX timeout exceeds every deadline window");
        sys.run(500);
        assert!(sys.detected_misses(1) > 0, "misses still detected");
        let reg = sys.registry();
        assert_eq!(
            reg.counter(ComponentId::System, Counter::Retries),
            0,
            "a Cycle::MAX timeout never comes due"
        );
    }

    #[test]
    fn fast_forward_stays_off_without_interconnect_support() {
        // Test doubles keep the default `next_event_hint` (None), so the
        // default-on fast-forward flag must leave them on the per-cycle
        // path — and results identical with the flag forced off.
        let run = |fast_forward| {
            let ic = Box::new(IdealInterconnect {
                clients: 4,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                latency: 2,
            });
            let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 50, 2));
            sys.set_fast_forward(fast_forward);
            let m = sys.run(2_000);
            assert_eq!(sys.fast_forward_jumps(), 0, "no hint → no jumps");
            (m.issued(), m.completed(), m.missed(), m.mean_latency())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn per_client_metrics_partition_the_totals() {
        let ic = Box::new(IdealInterconnect {
            clients: 4,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 100, 2));
        let total = sys.run(1_000);
        let per_client = sys.per_client_metrics();
        assert_eq!(per_client.len(), 4);
        let issued_sum: u64 = per_client.iter().map(|m| m.issued()).sum();
        let completed_sum: u64 = per_client.iter().map(|m| m.completed()).sum();
        assert_eq!(issued_sum, total.issued());
        assert_eq!(completed_sum, total.completed());
    }

    #[test]
    fn rogue_configuration_multiplies_demand() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 2));
        let mut plan = FaultPlan::default();
        plan.push(
            FaultKind::RogueDemand {
                client: 1,
                factor: 4,
            },
            FaultWindow::ALWAYS,
        );
        sys.set_fault_plan(plan);
        sys.run(1_000);
        let per_client = sys.per_client_metrics();
        assert_eq!(per_client[1].issued(), 4 * per_client[0].issued());
    }

    #[test]
    fn phased_system_spreads_releases() {
        let ic = Box::new(IdealInterconnect {
            clients: 4,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new_phased(ic as Box<dyn Interconnect>, &sets(4, 100, 1), 7);
        // After one cycle, a synchronous system would have issued 4; a
        // phased one almost surely fewer (seed chosen accordingly).
        sys.step();
        let early: u64 = sys.per_client_metrics().iter().map(|m| m.issued()).sum();
        assert!(early < 4, "phases must stagger the initial burst");
        // Long-run issue counts match the synchronous system's rate.
        let m = sys.run(1_000);
        assert!(m.issued() >= 4 * 9, "issued {}", m.issued());
    }

    /// Rejects every injection: exercises the Rejected accounting path.
    struct FullInterconnect {
        clients: usize,
    }

    impl Interconnect for FullInterconnect {
        fn name(&self) -> &'static str {
            "full"
        }
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn inject(&mut self, request: MemoryRequest, _now: Cycle) -> Result<(), MemoryRequest> {
            Err(request)
        }
        fn step(&mut self, _now: Cycle) {}
        fn pop_response(&mut self) -> Option<MemoryResponse> {
            None
        }
        fn pending(&self) -> usize {
            0
        }
    }

    #[test]
    fn rejections_are_counted_but_not_issued() {
        let ic = Box::new(FullInterconnect { clients: 2 });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 1));
        for _ in 0..50 {
            sys.step();
        }
        let reg = sys.registry();
        assert_eq!(reg.counter(ComponentId::System, Counter::Issued), 0);
        assert!(reg.counter(ComponentId::System, Counter::Rejected) >= 50);
        assert!(reg.counter(ComponentId::Client(0), Counter::Rejected) > 0);
        // The stuck requests surface as backlog when the run closes.
        let m = sys.run(50);
        assert_eq!(m.backlog(), 2);
        assert_eq!(m.issued(), 2);
    }

    #[test]
    fn merged_registry_combines_disjoint_slices() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 1));
        sys.run(300);
        let merged = sys.merged_registry();
        // The test double keeps no registry, so the merge equals the
        // harness's own slice.
        assert_eq!(
            merged.counter(ComponentId::System, Counter::Issued),
            sys.registry().counter(ComponentId::System, Counter::Issued)
        );
        assert!(merged.counter(ComponentId::System, Counter::Completed) > 0);
    }

    /// Accepts everything but silently loses the first `lose_remaining`
    /// requests from client 1 (retries arrive later and get through), and
    /// records quarantine demotions. Never responds to demoted clients.
    struct LossyInterconnect {
        clients: usize,
        queue: VecDeque<MemoryRequest>,
        ready: VecDeque<MemoryResponse>,
        lose_remaining: usize,
        blackhole_client: Option<u32>,
        demoted: Vec<u32>,
    }

    impl LossyInterconnect {
        fn new(clients: usize) -> Self {
            Self {
                clients,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                lose_remaining: 0,
                blackhole_client: None,
                demoted: Vec::new(),
            }
        }
    }

    impl Interconnect for LossyInterconnect {
        fn name(&self) -> &'static str {
            "lossy"
        }
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn inject(&mut self, request: MemoryRequest, _now: Cycle) -> Result<(), MemoryRequest> {
            if request.client == 1 && self.lose_remaining > 0 {
                self.lose_remaining -= 1;
                return Ok(()); // accepted, then silently lost
            }
            if self.blackhole_client == Some(request.client) {
                return Ok(());
            }
            self.queue.push_back(request);
            Ok(())
        }
        fn step(&mut self, now: Cycle) {
            if let Some(req) = self.queue.pop_front() {
                self.ready.push_back(MemoryResponse {
                    request: req,
                    completed_at: now + 1,
                });
            }
        }
        fn pop_response(&mut self) -> Option<MemoryResponse> {
            self.ready.pop_front()
        }
        fn pending(&self) -> usize {
            self.queue.len() + self.ready.len()
        }
        fn reconfigure_client(
            &mut self,
            client: ClientId,
            tasks: &TaskSet,
            _now: Cycle,
        ) -> ReconfigOutcome {
            if !tasks.is_empty() {
                return ReconfigOutcome::Unsupported;
            }
            self.demoted.push(client);
            ReconfigOutcome::Admitted {
                transition_cycles: 0,
            }
        }
    }

    #[test]
    fn burst_fault_issues_undeclared_traffic() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 1));
        let mut plan = FaultPlan::new(1);
        plan.push(
            FaultKind::RequestBurst {
                client: 0,
                requests: 7,
            },
            FaultWindow::new(50, 51),
        );
        sys.set_fault_plan(plan);
        sys.run(1_000);
        let per_client = sys.per_client_metrics();
        assert_eq!(per_client[0].issued(), per_client[1].issued() + 7);
        let reg = sys.registry();
        assert_eq!(reg.counter(ComponentId::System, Counter::FaultsInjected), 1);
        assert_eq!(
            reg.counter(ComponentId::Client(0), Counter::FaultsInjected),
            1
        );
    }

    #[test]
    fn watchdog_recovers_lost_requests() {
        let mut ic = Box::new(LossyInterconnect::new(2));
        ic.lose_remaining = 3;
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 1));
        // Timeout 10 is below the 100-cycle deadline window on purpose:
        // with an interconnect that *loses* requests, fast re-injection is
        // the recovery mechanism under test — the unchecked path installs
        // what validation would (correctly) refuse for healthy transport.
        sys.set_guards_unchecked(GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: 10,
                max_retries: 3,
            }),
            quarantine: None,
        });
        let m = sys.run(1_000);
        assert_eq!(m.completed(), m.issued(), "every lost request recovered");
        assert_eq!(sys.guard_outstanding(), 0);
        let reg = sys.registry();
        assert!(reg.counter(ComponentId::Client(1), Counter::Retries) >= 3);
        assert_eq!(reg.counter(ComponentId::System, Counter::MissesDetected), 0);
    }

    /// Delivers every request exactly `delay` cycles after injection —
    /// a genuine transit delay, unlike [`IdealInterconnect`] whose
    /// latency is only a timestamp.
    struct DelayLine {
        clients: usize,
        pending: VecDeque<(MemoryRequest, Cycle)>,
        ready: VecDeque<MemoryResponse>,
        delay: Cycle,
    }

    impl Interconnect for DelayLine {
        fn name(&self) -> &'static str {
            "delay-line"
        }
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
            self.pending.push_back((request, now + self.delay));
            Ok(())
        }
        fn step(&mut self, now: Cycle) {
            while let Some((_, ready_at)) = self.pending.front() {
                if *ready_at > now {
                    break;
                }
                let (req, _) = self.pending.pop_front().unwrap();
                self.ready.push_back(MemoryResponse {
                    request: req,
                    completed_at: now,
                });
            }
        }
        fn pop_response(&mut self) -> Option<MemoryResponse> {
            self.ready.pop_front()
        }
        fn pending(&self) -> usize {
            self.pending.len() + self.ready.len()
        }
    }

    #[test]
    fn duplicate_responses_are_suppressed() {
        // Timeout shorter than the transit delay: the watchdog retries a
        // request that was merely slow, and the duplicate delivery must
        // not inflate completion counts.
        let ic = Box::new(DelayLine {
            clients: 1,
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            delay: 30,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(1, 200, 1));
        // Deliberately pathological (timeout 5 ≪ window 200) to provoke
        // the duplicate delivery this test suppresses; validation would
        // reject it, so install through the unchecked path.
        sys.set_guards_unchecked(GuardConfig {
            deadline_miss_detection: false,
            watchdog: Some(WatchdogConfig {
                timeout: 5,
                max_retries: 1,
            }),
            quarantine: None,
        });
        let m = sys.run(2_000);
        assert_eq!(m.completed(), m.issued());
        let reg = sys.registry();
        assert!(reg.counter(ComponentId::System, Counter::DuplicateResponses) > 0);
    }

    #[test]
    fn quarantine_demotes_persistent_missers() {
        let mut ic = Box::new(LossyInterconnect::new(2));
        ic.blackhole_client = Some(1);
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 20, 1));
        sys.set_guards(GuardConfig {
            deadline_miss_detection: false,
            watchdog: None,
            quarantine: Some(QuarantinePolicy { miss_threshold: 2 }),
        })
        .expect("no watchdog to validate");
        sys.run(500);
        assert_eq!(sys.quarantined_clients(), vec![1]);
        assert!(sys.detected_misses(1) >= 2);
        assert_eq!(sys.detected_misses(0), 0);
        let reg = sys.registry();
        assert_eq!(reg.counter(ComponentId::System, Counter::Quarantines), 1);
        assert_eq!(reg.counter(ComponentId::Client(1), Counter::Quarantines), 1);
    }

    #[test]
    fn guards_alone_leave_metrics_unchanged() {
        let run = |guarded: bool| {
            let ic = Box::new(IdealInterconnect {
                clients: 4,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                latency: 2,
            });
            let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 50, 2));
            if guarded {
                sys.set_guards(GuardConfig {
                    deadline_miss_detection: true,
                    watchdog: Some(WatchdogConfig {
                        timeout: 60,
                        max_retries: 2,
                    }),
                    quarantine: Some(QuarantinePolicy { miss_threshold: 3 }),
                })
                .expect("timeout 60 clears the 50-cycle window");
            }
            let m = sys.run(2_000);
            (m.issued(), m.completed(), m.missed(), m.mean_latency())
        };
        assert_eq!(run(false), run(true), "idle guards must not perturb");
    }

    #[test]
    fn churn_retasks_clients_on_schedule() {
        use crate::admission::ChurnKind;

        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 2));
        let mut plan = ChurnPlan::new(3);
        plan.push(
            500,
            1,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::new(vec![Task::new(0, 100, 8).unwrap()]).unwrap(),
            },
        );
        sys.set_churn_plan(plan);
        let m = sys.run(1_000);
        let per_client = sys.per_client_metrics();
        // Client 1: 5 releases × 2 before the update, then 5 × 8 after
        // (retasking restarts its release train at the churn cycle).
        assert_eq!(per_client[1].issued(), 5 * 2 + 5 * 8);
        assert_eq!(per_client[0].issued(), 10 * 2);
        assert_eq!(m.issued(), per_client[0].issued() + per_client[1].issued());
        let reg = sys.registry();
        // The test double keeps the default hook (Unsupported): the retask
        // is applied without guarantee, counted as a reconfiguration but
        // never as an admission.
        assert_eq!(
            reg.counter(ComponentId::System, Counter::Reconfigurations),
            1
        );
        assert_eq!(
            reg.counter(ComponentId::Client(1), Counter::Reconfigurations),
            1
        );
        assert_eq!(reg.counter(ComponentId::System, Counter::Admitted), 0);
        assert_eq!(sys.churn_plan().remaining(), 0);
    }

    #[test]
    fn churn_leave_then_join_silences_and_revives_a_client() {
        use crate::admission::ChurnKind;

        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 1));
        let mut plan = ChurnPlan::new(4);
        plan.push(300, 1, ChurnKind::Leave);
        plan.push(
            700,
            1,
            ChurnKind::Join {
                tasks: TaskSet::new(vec![Task::new(0, 50, 1).unwrap()]).unwrap(),
            },
        );
        sys.set_churn_plan(plan);
        sys.run(1_000);
        let per_client = sys.per_client_metrics();
        // Releases at 0, 100, 200 (3), silence over [300, 700), then the
        // rejoined tenant releases at 700, 750, ..., 950 (6).
        assert_eq!(per_client[1].issued(), 3 + 6);
        assert_eq!(per_client[0].issued(), 10);
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::Reconfigurations),
            2
        );
    }

    /// Vetoes every reconfiguration: exercises the rejection accounting.
    struct RejectingInterconnect {
        inner: IdealInterconnect,
    }

    impl Interconnect for RejectingInterconnect {
        fn name(&self) -> &'static str {
            "rejecting"
        }
        fn num_clients(&self) -> usize {
            self.inner.num_clients()
        }
        fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
            self.inner.inject(request, now)
        }
        fn step(&mut self, now: Cycle) {
            self.inner.step(now);
        }
        fn pop_response(&mut self) -> Option<MemoryResponse> {
            self.inner.pop_response()
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
        fn reconfigure_client(
            &mut self,
            _client: ClientId,
            _tasks: &TaskSet,
            _now: Cycle,
        ) -> ReconfigOutcome {
            ReconfigOutcome::Rejected
        }
    }

    #[test]
    fn rejected_churn_leaves_the_client_untouched() {
        use crate::admission::ChurnKind;

        let ic = Box::new(RejectingInterconnect {
            inner: IdealInterconnect {
                clients: 2,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                latency: 1,
            },
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 100, 2));
        let mut plan = ChurnPlan::new(5);
        plan.push(
            500,
            1,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::new(vec![Task::new(0, 100, 8).unwrap()]).unwrap(),
            },
        );
        sys.set_churn_plan(plan);
        sys.run(1_000);
        let per_client = sys.per_client_metrics();
        // The rejected tenant keeps its admitted contract: both clients
        // issue the same stream.
        assert_eq!(per_client[1].issued(), per_client[0].issued());
        let reg = sys.registry();
        assert_eq!(
            reg.counter(ComponentId::System, Counter::AdmissionRejected),
            1
        );
        assert_eq!(
            reg.counter(ComponentId::Client(1), Counter::AdmissionRejected),
            1
        );
        assert_eq!(
            reg.counter(ComponentId::System, Counter::Reconfigurations),
            0
        );
    }

    #[test]
    fn empty_churn_plan_is_inert() {
        let run = |churn: bool, fast_forward: bool| {
            let ic = Box::new(IdealInterconnect {
                clients: 4,
                queue: VecDeque::new(),
                ready: VecDeque::new(),
                latency: 2,
            });
            let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(4, 50, 2));
            sys.set_fast_forward(fast_forward);
            if churn {
                sys.set_churn_plan(ChurnPlan::new(17));
            }
            let m = sys.run(2_000);
            (m.issued(), m.completed(), m.missed(), m.mean_latency())
        };
        for fast_forward in [false, true] {
            assert_eq!(
                run(true, fast_forward),
                run(false, fast_forward),
                "an empty plan must not perturb (fast_forward={fast_forward})"
            );
        }
    }

    #[test]
    fn set_guards_rejects_subwindow_watchdog() {
        use crate::guard::GuardConfigError;

        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        // Periods 100 and 40: the longest deadline window is 100.
        let sets = vec![
            TaskSet::new(vec![Task::new(0, 100, 1).unwrap()]).unwrap(),
            TaskSet::new(vec![Task::new(0, 40, 1).unwrap()]).unwrap(),
        ];
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets);
        let bad = GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: 99,
                max_retries: 1,
            }),
            quarantine: None,
        };
        assert_eq!(
            sys.set_guards(bad),
            Err(GuardConfigError::WatchdogBelowDeadlineWindow {
                timeout: 99,
                longest_window: 100,
            })
        );
        assert!(
            !sys.guards().tracks(),
            "a rejected config leaves the previous guards active"
        );
        let ok = GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: 100,
                max_retries: 1,
            }),
            quarantine: None,
        };
        assert_eq!(sys.set_guards(ok), Ok(()));
        assert!(sys.guards().tracks());
    }

    #[test]
    fn issued_counts_acceptances_once() {
        let ic = Box::new(IdealInterconnect {
            clients: 2,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            latency: 1,
        });
        let mut sys = System::new(ic as Box<dyn Interconnect>, &sets(2, 50, 2));
        let m = sys.run(500);
        // 2 clients × 10 releases × 2 requests = 40.
        assert_eq!(m.issued(), 40);
        assert_eq!(m.completed(), 40);
    }
}
