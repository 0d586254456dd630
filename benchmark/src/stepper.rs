//! A traced twin of the serial `System` harness for runs without faults,
//! guards, churn or telemetry.
//!
//! `System` keeps its clients and interconnect private, so the per-phase
//! split cannot be timed around its own calls. This twin owns the same
//! parts and calls the same public functions in the same order as
//! `System::advance_span` and `System::step` — generator release and
//! offer, `Interconnect::inject`, `step`, the `pop_*` drains, the response
//! accounting into a `MetricsRegistry`, and the fast-forward probe with
//! its 16-cycle attempt backoff — recording one span per phase per stepped
//! cycle. The traced run must reproduce the untraced run's fingerprint, or
//! its split would describe a different program.

use crate::trace::Tracer;
use bluescale::BlueScaleInterconnect;
use bluescale_interconnect::client::TrafficGenerator;
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::{Interconnect, MemoryResponse, ServiceEvent};
use bluescale_rt::task::TaskSet;
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::next_event::jump_target;
use bluescale_sim::Cycle;
use std::time::{Duration, Instant};

/// Cycles to wait after a failed jump attempt (`System`'s backoff).
const ATTEMPT_BACKOFF: Cycle = 16;

/// Work counts the traced twin observes at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Generator visits (clients × stepped cycles).
    pub visits: u64,
    /// Visits that had a request to offer.
    pub offers: u64,
    /// Offers the interconnect bounced.
    pub rejects: u64,
    /// Fast-forward attempts.
    pub probes: u64,
    /// Attempts that jumped.
    pub jumps: u64,
    /// Cycles covered by jumps.
    pub skipped: u64,
}

pub struct TracedSystem {
    clients: Vec<TrafficGenerator>,
    interconnect: BlueScaleInterconnect,
    registry: MetricsRegistry,
    service_log: Vec<ServiceEvent>,
    responses: Vec<MemoryResponse>,
    now: Cycle,
    pub counts: Counts,
}

impl TracedSystem {
    /// Mirrors `System::new`: one generator per client, synchronous release.
    pub fn new(interconnect: BlueScaleInterconnect, task_sets: &[TaskSet]) -> Self {
        Self {
            clients: task_sets
                .iter()
                .enumerate()
                .map(|(i, set)| TrafficGenerator::new(i as u32, set))
                .collect(),
            interconnect,
            registry: MetricsRegistry::new(),
            service_log: Vec::new(),
            responses: Vec::new(),
            now: 0,
            counts: Counts::default(),
        }
    }

    pub fn interconnect(&self) -> &BlueScaleInterconnect {
        &self.interconnect
    }

    pub fn in_flight(&self) -> usize {
        self.interconnect.pending()
    }

    /// Mirrors `System::advance_to` without telemetry: one span of
    /// stepping and jumping, then the interconnect's batched tallies fold.
    pub fn advance_to(&mut self, horizon: Cycle, tracer: &mut Tracer) {
        let mut next_attempt = self.now;
        let mut mark = Instant::now();
        while self.now < horizon {
            if self.now >= next_attempt {
                let target = self.fast_forward_target(horizon);
                self.counts.probes += 1;
                mark = tracer.lap("ff.probe", self.now, mark);
                if let Some(target) = target {
                    let delta = target - self.now;
                    self.interconnect.advance_idle(self.now, delta);
                    self.counts.jumps += 1;
                    self.counts.skipped += delta;
                    mark = tracer.lap("ff.advance_idle", self.now, mark);
                    self.now = target;
                    if self.now >= horizon {
                        break;
                    }
                } else {
                    next_attempt = self.now + ATTEMPT_BACKOFF;
                }
            }
            mark = self.step(tracer, mark);
        }
        self.interconnect.metrics_mut();
        tracer.lap("fabric.fold", self.now, mark);
    }

    /// Mirrors `System::run` after the horizon is reached: requests still
    /// queued at the clients count as issued, backlog, and missed when
    /// their deadline lies before the horizon.
    pub fn run(&mut self, horizon: Cycle, tracer: &mut Tracer) -> RunMetrics {
        self.advance_to(horizon, tracer);
        let mut metrics = RunMetrics::from_registry(&self.registry, ComponentId::System);
        for client in &mut self.clients {
            while let Some(req) = client.take() {
                metrics.on_issued();
                metrics.on_incomplete(req.deadline, horizon);
                let owner = ComponentId::Client(req.client);
                self.registry.inc(owner, Counter::Issued);
                self.registry.inc(owner, Counter::Backlog);
                if req.deadline < horizon {
                    self.registry.inc(owner, Counter::Missed);
                }
            }
        }
        metrics
    }

    /// `System::fast_forward_target` for a plan-free, guard-free system.
    fn fast_forward_target(&self, horizon: Cycle) -> Option<Cycle> {
        let now = self.now;
        let hint = self.interconnect.next_event_hint(now)?;
        let reports = std::iter::once(hint).chain(self.clients.iter().map(|c| c.next_event(now)));
        jump_target(now, horizon, reports)
    }

    /// One cycle of `System::step`'s fault-free path, one span per phase.
    fn step(&mut self, tracer: &mut Tracer, start: Instant) -> Instant {
        let now = self.now;
        let mut inject = Duration::ZERO;
        for client in &mut self.clients {
            client.on_cycle(now);
            self.counts.visits += 1;
            if let Some(req) = client.take() {
                self.counts.offers += 1;
                let owner = req.client;
                let t = Instant::now();
                let accepted = self.interconnect.inject(req, now);
                inject += t.elapsed();
                match accepted {
                    Ok(()) => {
                        self.registry.inc(ComponentId::System, Counter::Issued);
                        self.registry
                            .inc(ComponentId::Client(owner), Counter::Issued);
                    }
                    Err(rejected) => {
                        self.counts.rejects += 1;
                        client.give_back(rejected);
                        self.registry.inc(ComponentId::System, Counter::Rejected);
                        self.registry
                            .inc(ComponentId::Client(owner), Counter::Rejected);
                    }
                }
            }
        }
        tracer.child("fabric.inject", "client.phase", now, start, inject);
        let mark = tracer.lap("client.phase", now, start);
        self.interconnect.step(now);
        let mark = tracer.lap("fabric.step", now, mark);
        while let Some(event) = self.interconnect.pop_service_event() {
            self.service_log.push(event);
        }
        while let Some(resp) = self.interconnect.pop_response() {
            self.responses.push(resp);
        }
        let mark = tracer.lap("fabric.drain", now, mark);
        let mut responses = std::mem::take(&mut self.responses);
        for mut resp in responses.drain(..) {
            resp.request.blocked_cycles = self.blocking_in_window(
                resp.request.issued_at,
                resp.completed_at,
                resp.request.deadline,
            );
            self.record_response(&resp);
        }
        self.responses = responses;
        self.now += 1;
        tracer.lap("harness.record", now, mark)
    }

    /// `System::blocking_in_window`: channel time granted to later-deadline
    /// requests while this one waited.
    fn blocking_in_window(&self, issued: Cycle, done: Cycle, deadline: Cycle) -> u64 {
        let start = self.service_log.partition_point(|e| e.at < issued);
        self.service_log[start..]
            .iter()
            .take_while(|e| e.at < done)
            .filter(|e| e.deadline > deadline)
            .map(|e| e.duration)
            .sum()
    }

    /// `System::record_response`.
    fn record_response(&mut self, response: &MemoryResponse) {
        let latency = response.latency() as f64;
        let blocking = response.request.blocked_cycles as f64;
        let window = response
            .request
            .deadline
            .saturating_sub(response.request.issued_at)
            .max(1);
        let normalized = latency / window as f64;
        let missed = response.missed_deadline();
        for component in [
            ComponentId::System,
            ComponentId::Client(response.request.client),
        ] {
            self.registry.inc(component, Counter::Completed);
            self.registry
                .sample(component, SampleKind::Latency, latency);
            self.registry
                .sample(component, SampleKind::Blocking, blocking);
            self.registry
                .sample(component, SampleKind::NormalizedResponse, normalized);
            if missed {
                self.registry.inc(component, Counter::Missed);
            }
        }
    }
}
