//! The complete BlueScale interconnect: a tree of Scale Elements between
//! the clients and the shared memory sub-system.
//!
//! [`BlueScaleInterconnect`] pairs the tree's [`Composition`] — the
//! parameter path: interface selection, root admission and trial
//! reconfiguration — with one runtime [`Engine`] programmed from it. At
//! run time each SE arbitrates independently per cycle; requests move one
//! level per cycle toward the memory controller and responses return
//! through a pipelined response path.
//!
//! The engine is a type parameter with one default, as a `HashMap`'s
//! hasher is: [`SoaCore`] runs every harness, and
//! [`PerSeEngine`](crate::element::PerSeEngine) — one
//! [`ScaleElement`](crate::element::ScaleElement) per SE — is the
//! reference the differential suites pin it against. Only
//! [`with_engine`](BlueScaleInterconnect::with_engine) names another
//! engine.

use crate::composition::{BuildError, Composition, CompositionReport};
use crate::memory_side::MemorySide;
use crate::soa::SoaCore;
use crate::topology::BlueScaleConfig;
use bluescale_interconnect::admission::ReconfigOutcome;
use bluescale_interconnect::{ClientId, Interconnect, MemoryRequest, MemoryResponse, ServiceEvent};
use bluescale_mem::ControllerStats;
use bluescale_rt::supply::PeriodicResource;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::FaultPlan;
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// Errors raised when offering a request to the interconnect. Unlike the
/// [`Interconnect::inject`] trait method — which can only hand the request
/// back — these distinguish a transient full buffer from a malformed
/// request that no amount of retrying will fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The request names a client port this interconnect does not have.
    UnknownClient {
        /// The out-of-range client id carried by the request.
        client: u32,
        /// How many client ports the interconnect has.
        num_clients: usize,
        /// The rejected request.
        request: MemoryRequest,
    },
    /// The client's leaf port buffer is full this cycle (retry later).
    PortFull(MemoryRequest),
}

impl InjectError {
    /// Recovers the rejected request (for re-queueing or logging).
    pub fn into_request(self) -> MemoryRequest {
        match self {
            InjectError::UnknownClient { request, .. } => request,
            InjectError::PortFull(request) => request,
        }
    }
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::UnknownClient {
                client,
                num_clients,
                ..
            } => write!(
                f,
                "request for unknown client {client} (interconnect has {num_clients} ports)"
            ),
            InjectError::PortFull(request) => {
                write!(f, "client {} port full this cycle", request.client)
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// What an engine's cycle reads and writes outside its own SE state: the
/// root's memory side (controller, memory policy and the
/// interconnect-side fault plan), the fabric registry, and the queues of
/// delivered responses and memory service events.
#[derive(Debug, Clone)]
pub struct EngineIo {
    pub(crate) mem: MemorySide,
    pub(crate) metrics: MetricsRegistry,
    ready: VecDeque<MemoryResponse>,
    service_events: VecDeque<ServiceEvent>,
}

impl EngineIo {
    /// A leaf SE hands `request`'s response to its client.
    pub(crate) fn deliver(&mut self, request: MemoryRequest, now: Cycle) {
        self.metrics.request_completed(now, request.id);
        self.ready.push_back(MemoryResponse {
            request,
            completed_at: now,
        });
    }

    /// The root grants `request` to the memory controller.
    pub(crate) fn issue(&mut self, request: MemoryRequest, now: Cycle) {
        let event = self.mem.issue(request, now, &mut self.metrics);
        self.service_events.push_back(event);
    }
}

/// A runtime engine behind [`BlueScaleInterconnect`]: every SE's
/// arbitration datapath (buffers, server counters, response
/// demultiplexers), programmed from the [`Composition`]'s interfaces.
/// SEs are addressed `(depth, order)` and interfaces are indexed
/// `[depth][order][port]`, as in [`CompositionReport::interfaces`].
pub trait Engine: Clone + fmt::Debug {
    /// Builds the engine for `config`'s tree with every SE programmed from
    /// `interfaces`.
    fn build(config: &BlueScaleConfig, interfaces: &[Vec<Vec<Option<PeriodicResource>>>]) -> Self;

    /// Programs SE `(depth, order)` through the safe mode-change protocol:
    /// changed servers swap at their own replenishment boundary. Returns
    /// the summed transition latency.
    fn program_se_deferred(
        &mut self,
        depth: usize,
        order: usize,
        interfaces: &[Option<PeriodicResource>],
    ) -> u64;

    /// Offers a request at `(depth, order, port)`, handing it back when
    /// the port buffer is full.
    ///
    /// # Errors
    ///
    /// Returns the request back when the port buffer is full.
    fn try_accept(
        &mut self,
        depth: usize,
        order: usize,
        port: usize,
        request: MemoryRequest,
    ) -> Result<(), MemoryRequest>;

    /// Advances the whole tree one cycle against the root side `io`.
    fn step(&mut self, io: &mut EngineIo, now: Cycle);

    /// Requests buffered plus responses queued anywhere in the tree; zero
    /// means a step could only tick server counters.
    fn occupancy(&self) -> usize;

    /// Advances a quiescent tree `delta` cycles in closed form.
    fn advance_idle(&mut self, delta: Cycle, metrics: &mut MetricsRegistry);

    /// Folds any batched counter deltas into `metrics`.
    fn flush_metrics(&mut self, _metrics: &mut MetricsRegistry) {}

    /// Forwarded-count delta not yet flushed for SE `(depth, order)`.
    fn pending_forwarded(&self, _depth: usize, _order: usize) -> u64 {
        0
    }
}

/// The BlueScale memory interconnect.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct BlueScaleInterconnect<E = SoaCore> {
    composition: Composition,
    engine: E,
    /// An empty fault plan and a passive policy keep `step` on the exact
    /// fault-free, policy-free code path.
    io: EngineIo,
}

impl BlueScaleInterconnect {
    /// Builds a BlueScale instance on the default engine and resolves all
    /// interface-selection problems for the given per-client task sets
    /// (see [`Composition::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] for a `branch` outside
    /// `2..=64`, a zero `buffer_capacity` or a zero `granularity_divisor`,
    /// and [`BuildError::WrongClientCount`] on a task-set count mismatch.
    pub fn new(config: BlueScaleConfig, task_sets: &[TaskSet]) -> Result<Self, BuildError> {
        Self::with_engine(config, task_sets)
    }
}

impl<E> From<BlueScaleInterconnect<E>> for Composition {
    fn from(ic: BlueScaleInterconnect<E>) -> Self {
        ic.composition
    }
}

impl<E: Engine> BlueScaleInterconnect<E> {
    /// [`new`](BlueScaleInterconnect::new) on the engine `E`.
    ///
    /// # Errors
    ///
    /// As [`new`](BlueScaleInterconnect::new).
    pub fn with_engine(config: BlueScaleConfig, task_sets: &[TaskSet]) -> Result<Self, BuildError> {
        let composition = Composition::new(config, task_sets)?;
        let mut this = Self {
            engine: E::build(composition.config(), &composition.report().interfaces),
            io: EngineIo {
                mem: MemorySide::new(composition.config()),
                metrics: MetricsRegistry::new(),
                ready: VecDeque::new(),
                service_events: VecDeque::new(),
            },
            composition,
        };
        this.mirror_root_bandwidth();
        Ok(this)
    }

    /// The static configuration.
    pub fn config(&self) -> &BlueScaleConfig {
        self.composition.config()
    }

    /// The most recent composition (interface-selection) result.
    pub fn composition(&self) -> &CompositionReport {
        self.composition.report()
    }

    /// The task sets currently programmed per client.
    pub fn client_tasks(&self) -> &[TaskSet] {
        self.composition.client_tasks()
    }

    /// The typed metrics registry. Counter tallies (per-SE grants,
    /// throttled cycles, forwards, memory-controller statistics) are always
    /// recorded; call [`MetricsRegistry::enable_detail`] to additionally
    /// record typed events and per-request latency breakdowns (bounded ring
    /// buffer — safe on long runs). Memory-controller counters are
    /// refreshed on each `metrics_mut` call, and the engine's batched
    /// SE and port deltas are folded in: every changed tally is one add
    /// into the registry's dense `Se`/`Port` rows, so the fold costs one
    /// scan of the servers plus what changed, not an ordered-map update
    /// per key.
    ///
    /// # Example
    ///
    /// ```
    /// # use bluescale::{BlueScaleConfig, BlueScaleInterconnect};
    /// # use bluescale_rt::task::{Task, TaskSet};
    /// # use bluescale_interconnect::Interconnect;
    /// # let sets: Vec<TaskSet> =
    /// #     vec![TaskSet::new(vec![Task::new(0, 100, 2).unwrap()]).unwrap(); 4];
    /// let mut ic =
    ///     BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets)?;
    /// ic.metrics_mut().enable_detail();
    /// # Ok::<(), bluescale::BuildError>(())
    /// ```
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.io
            .mem
            .controller()
            .record_metrics(&mut self.io.metrics);
        self.engine.flush_metrics(&mut self.io.metrics);
        &mut self.io.metrics
    }

    /// Read access to the metrics registry. Two kinds of tally may lag
    /// until the next [`metrics_mut`](Self::metrics_mut) call: the
    /// memory-controller mirror (behind
    /// [`MemoryController::stats`](bluescale_mem::MemoryController::stats))
    /// and, on the batching [`SoaCore`] engine, the
    /// SE and port tallies (grants, forwards, throttled cycles, overruns,
    /// replenishments). The harness does not fold after each span, so
    /// mid-run the lag covers everything since the last exact read. That
    /// lag is a pinned part of the contract (a `&self` read cannot fold),
    /// and `metrics_mut` reconverges both *exactly* (pinned by
    /// `registry_lag_reconverges_exactly`). Callers needing mid-run
    /// memory statistics without a fold read
    /// [`memory_stats`](Self::memory_stats), which never lags;
    /// [`forward_counts`](Self::forward_counts) adds the pending deltas
    /// and is exact too.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.io.metrics
    }

    /// The memory controller's live statistics. Unlike the registry mirror
    /// (refreshed only on [`metrics_mut`](Self::metrics_mut)), this reads
    /// the controller directly and can never be stale.
    pub fn memory_stats(&self) -> ControllerStats {
        self.io.mem.controller().stats()
    }

    /// Per-SE forwarded-request counters, indexed `[depth][order]`
    /// (introspection for experiments; reads the registry's
    /// [`Counter::Forwarded`] tallies).
    pub fn forward_counts(&self) -> Vec<Vec<u64>> {
        let config = self.config();
        (0..config.levels())
            .map(|depth| {
                (0..config.elements_at(depth))
                    .map(|order| {
                        // The engine may batch its tallies; merge the
                        // unflushed delta so mid-run reads stay exact.
                        self.io
                            .metrics
                            .counter(ComponentId::Se { depth, order }, Counter::Forwarded)
                            + self.engine.pending_forwarded(depth, order)
                    })
                    .collect()
            })
            .collect()
    }

    /// Offers a request at its client's port, with typed rejection: a
    /// transiently full buffer ([`InjectError::PortFull`]) is
    /// distinguished from a malformed request naming a nonexistent client
    /// ([`InjectError::UnknownClient`]), which retrying can never fix.
    /// The [`Interconnect::inject`] trait method routes through here, so
    /// a malformed request bounces as an error instead of panicking on an
    /// out-of-range attach point.
    ///
    /// # Errors
    ///
    /// See above; the rejected request is recoverable from either variant
    /// via [`InjectError::into_request`].
    pub fn try_inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), InjectError> {
        let num_clients = self.config().num_clients;
        if request.client as usize >= num_clients {
            return Err(InjectError::UnknownClient {
                client: request.client,
                num_clients,
                request,
            });
        }
        let leaf = self.config().levels() - 1;
        let (order, port) = self.config().attach_point(request.client as usize);
        let (id, client) = (request.id, request.client);
        self.engine
            .try_accept(leaf, order, port, request)
            .map_err(InjectError::PortFull)?;
        let metrics = &mut self.io.metrics;
        metrics.inc(ComponentId::Client(client), Counter::Enqueued);
        metrics.request_enqueued(now, id, client, ComponentId::Se { depth: leaf, order });
        Ok(())
    }

    /// Mirrors the composition's root bandwidth into the registry gauge.
    fn mirror_root_bandwidth(&mut self) {
        let bandwidth = self.composition.report().root_bandwidth;
        self.io
            .metrics
            .set_gauge(ComponentId::System, "root_bandwidth", bandwidth);
    }
}

impl<E: Engine> Interconnect for BlueScaleInterconnect<E> {
    fn name(&self) -> &'static str {
        "BlueScale"
    }

    fn num_clients(&self) -> usize {
        self.config().num_clients
    }

    fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
        self.try_inject(request, now)
            .map_err(InjectError::into_request)
    }

    fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.io.mem.install_faults(plan);
    }

    // The only way a live composition changes: `Composition::commit`,
    // then the engine is programmed along the committed path. The
    // transition latency depends on live server state, so it comes from
    // the engine. No fabric-side churn tally (`Reconfigurations`,
    // `TransitionCycles`): churn accounting is owned by the harness
    // registry alone (fed through the returned total), so
    // `merged_registry()` counts each transition exactly once.
    fn reconfigure_client(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        _now: Cycle,
    ) -> ReconfigOutcome {
        let Some(path) = self.composition.commit(client as usize, tasks) else {
            return ReconfigOutcome::Rejected;
        };
        self.mirror_root_bandwidth();
        let transition_cycles = path
            .iter()
            .map(|(depth, order, ifaces)| self.engine.program_se_deferred(*depth, *order, ifaces))
            .sum();
        ReconfigOutcome::Admitted { transition_cycles }
    }

    fn step(&mut self, now: Cycle) {
        if !self.io.mem.faults().is_empty() {
            self.io.mem.announce(now, &mut self.io.metrics);
        }
        self.engine.step(&mut self.io, now);
    }

    fn pop_response(&mut self) -> Option<MemoryResponse> {
        self.io.ready.pop_front()
    }

    fn pop_service_event(&mut self) -> Option<ServiceEvent> {
        self.io.service_events.pop_front()
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(BlueScaleInterconnect::metrics(self))
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        Some(BlueScaleInterconnect::metrics_mut(self))
    }

    fn pending(&self) -> usize {
        let in_service = usize::from(!self.io.mem.can_accept());
        self.engine.occupancy() + in_service + self.io.ready.len()
    }

    fn next_event_hint(&self, now: Cycle) -> Option<Cycle> {
        // Any request or response anywhere in the fabric means the next
        // step can grant, forward or route — busy, no jump. (Replenishments
        // alone never require stepping: an idle server replenishing cannot
        // cause a grant, because selection — work-conserving included —
        // requires a pending request; `advance_idle` replays the counter
        // arithmetic in closed form.)
        let io = &self.io;
        if !io.ready.is_empty() || !io.service_events.is_empty() || self.engine.occupancy() > 0 {
            return Some(now);
        }
        Some(io.mem.idle_bound(now))
    }

    fn advance_idle(&mut self, _now: Cycle, delta: u64) {
        debug_assert!(
            !self.io.metrics.detail(),
            "fast-forward must be gated off while detail recording is on"
        );
        self.engine.advance_idle(delta, &mut self.io.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::PerSeEngine;
    use bluescale_interconnect::AccessKind;
    use bluescale_rt::task::Task;
    use bluescale_sim::fault::FaultKind;

    fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
        (0..n)
            .map(|_| TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap())
            .collect()
    }

    fn request(client: u32, id: u64, now: Cycle, deadline: Cycle) -> MemoryRequest {
        MemoryRequest {
            id,
            client,
            task: 0,
            addr: (client as u64) << 20 | id,
            kind: AccessKind::Read,
            issued_at: now,
            deadline,
            blocked_cycles: 0,
        }
    }

    #[test]
    fn builds_16_client_quadtree() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
            .unwrap();
        assert_eq!(ic.num_clients(), 16);
        let comp = ic.composition();
        assert!(comp.analysis_ok);
        assert!(comp.schedulable, "root bw = {}", comp.root_bandwidth);
        assert_eq!(comp.reprogrammed_elements, 5);
        // Every leaf port serving a client has an interface.
        for se in &comp.interfaces[1] {
            assert!(se.iter().all(Option::is_some));
        }
    }

    #[test]
    fn rejects_wrong_client_count() {
        let err = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(8, 100, 1))
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::WrongClientCount {
                expected: 16,
                got: 8
            }
        );
    }

    #[test]
    fn single_request_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        let mut got = None;
        for now in 0..100 {
            ic.step(now);
            if let Some(r) = ic.pop_response() {
                got = Some((now, r));
                break;
            }
        }
        let (when, resp) = got.expect("request must complete");
        assert_eq!(resp.request.id, 1);
        assert!(!resp.missed_deadline());
        // Two SE hops + 1 service + 2 response hops ≥ 5 cycles.
        assert!(when >= 4, "completed unrealistically fast at {when}");
        assert_eq!(ic.pending(), 0);
    }

    #[test]
    fn all_clients_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 800, 2))
                .unwrap();
        for c in 0..16u32 {
            ic.inject(request(c, c as u64, 0, 800), 0).unwrap();
        }
        let mut done = 0;
        for now in 0..2000 {
            ic.step(now);
            while ic.pop_response().is_some() {
                done += 1;
            }
        }
        assert_eq!(done, 16);
        assert_eq!(ic.pending(), 0);
    }

    #[test]
    fn overutilized_clients_fall_back() {
        // Four clients each demanding 40% of the root: total 1.6 > 1.
        let ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(4), &sets(4, 10, 4)).unwrap();
        let comp = ic.composition();
        assert!(!comp.analysis_ok);
        assert!(!comp.schedulable);
    }

    #[test]
    fn update_client_reprograms_only_the_path() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(64), &sets(64, 800, 2))
                .unwrap();
        let before = ic.composition().interfaces.clone();
        let new_tasks = TaskSet::new(vec![Task::new(0, 200, 10).unwrap()]).unwrap();
        assert!(ic.reconfigure_client(37, &new_tasks, 0).applied());
        // Path length = number of levels = 3.
        assert_eq!(ic.composition().reprogrammed_elements, 3);
        let after = &ic.composition().interfaces;
        // Client 37 → leaf SE (2, 9) → SE(1, 2) → root. Everything else
        // must be bit-identical.
        let path: Vec<(usize, usize)> = vec![(2, 9), (1, 2), (0, 0)];
        for depth in 0..3 {
            for order in 0..before[depth].len() {
                if path.contains(&(depth, order)) {
                    continue;
                }
                assert_eq!(
                    before[depth][order], after[depth][order],
                    "SE({depth},{order}) must be untouched"
                );
            }
        }
    }

    #[test]
    fn root_bandwidth_bounded_when_schedulable() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
            .unwrap();
        let comp = ic.composition();
        assert!(comp.root_bandwidth <= 1.0 + 1e-9);
        assert!(comp.root_bandwidth > 0.0);
    }

    #[test]
    fn sixty_four_clients_build() {
        let ic = BlueScaleInterconnect::new(BlueScaleConfig::for_clients(64), &sets(64, 6400, 4))
            .unwrap();
        assert_eq!(ic.composition().interfaces[2].len(), 16);
        assert!(ic.composition().schedulable);
    }

    #[test]
    fn reconfigure_admits_feasible_update_with_deferred_swap() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let outcome = ic.reconfigure_client(
            5,
            &TaskSet::new(vec![Task::new(0, 400, 8).unwrap()]).unwrap(),
            0,
        );
        let ReconfigOutcome::Admitted { transition_cycles } = outcome else {
            panic!("feasible update must be admitted, got {outcome:?}");
        };
        // Freshly built servers sit a full period away from their next
        // replenishment, so the staged swaps report a non-zero latency.
        assert!(transition_cycles > 0, "swap must wait for the boundary");
        assert_eq!(ic.client_tasks()[5].tasks()[0].wcet(), 8);
        assert!(ic.composition().schedulable);
        assert_eq!(ic.composition().reprogrammed_elements, 2, "path only");
        // Churn accounting lives in the harness registry, not the fabric's:
        // an admitted transition leaves the fabric tally untouched, so
        // `merged_registry()` never double-counts it.
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::System, Counter::Reconfigurations),
            0
        );
    }

    #[test]
    fn reconfigure_rejects_hog_bit_identically() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let interfaces = ic.composition().interfaces.clone();
        let tasks = ic.client_tasks().to_vec();
        let root_bandwidth = ic.composition().root_bandwidth;
        let hog = TaskSet::new(vec![Task::new(0, 100, 95).unwrap()]).unwrap();
        assert_eq!(ic.reconfigure_client(5, &hog, 7), ReconfigOutcome::Rejected);
        // A rejected trial writes nothing: nothing in the live fabric moved.
        assert_eq!(ic.composition().interfaces, interfaces);
        assert_eq!(ic.client_tasks(), tasks);
        assert_eq!(ic.composition().root_bandwidth, root_bandwidth);
        assert!(ic.composition().schedulable);
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::System, Counter::Reconfigurations),
            0
        );
    }

    #[test]
    fn reconfigure_leave_and_rejoin_round_trip() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let interfaces = ic.composition().interfaces.clone();
        // Leave: an empty task set vacates the slot...
        assert!(ic.reconfigure_client(3, &TaskSet::empty(), 10).applied());
        assert!(ic.client_tasks()[3].is_empty());
        // ...and rejoining with the original declaration is admitted.
        let rejoin = TaskSet::new(vec![Task::new(0, 400, 4).unwrap()]).unwrap();
        assert!(ic.reconfigure_client(3, &rejoin, 20).applied());
        assert_eq!(ic.composition().interfaces, interfaces, "state restored");
        assert_eq!(
            ic.reconfigure_client(99, &rejoin, 30),
            ReconfigOutcome::Rejected,
            "out-of-range client"
        );
    }

    #[test]
    fn typed_events_record_grant_path_when_detail_enabled() {
        use bluescale_sim::metrics::Event;

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        // Detail off by default: no events, but counters still tally.
        ic.inject(request(2, 1, 0, 400), 0).unwrap();
        for now in 0..20 {
            ic.step(now);
        }
        assert!(ic.metrics().events().is_empty());
        assert_eq!(
            ic.metrics()
                .counter(ComponentId::Client(2), Counter::Enqueued),
            1
        );
        // Enabled: the grant path (leaf SE then root, then memory issue) is
        // recorded as typed events.
        ic.metrics_mut().enable_detail();
        ic.inject(request(2, 2, 20, 420), 20).unwrap();
        // Step past the server's replenishment period: the first request
        // consumed the port's budget under strict gating.
        for now in 20..420 {
            ic.step(now);
        }
        let events = ic.metrics().events();
        assert!(!events.is_empty());
        let leaf = ComponentId::Se { depth: 1, order: 0 };
        let root = ComponentId::Se { depth: 0, order: 0 };
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::Grant {
                component, request: 2, ..
            } if component == leaf
        )));
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::Grant {
                component, request: 2, ..
            } if component == root
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::MemIssue { request: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::MemComplete { request: 2 })));
    }

    #[test]
    fn lifecycle_breakdown_sums_to_total_latency() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.metrics_mut().enable_detail();
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        for now in 0..100 {
            ic.step(now);
            if ic.pop_response().is_some() {
                break;
            }
        }
        use bluescale_sim::metrics::SampleKind;
        let m = ic.metrics();
        let client = ComponentId::Client(5);
        let stages = [
            SampleKind::Queueing,
            SampleKind::NocTransit,
            SampleKind::Service,
            SampleKind::ResponseTransit,
        ];
        let sum: f64 = stages
            .iter()
            .map(|&k| m.samples(client, k).expect("breakdown recorded").as_slice()[0])
            .sum();
        // Every stage recorded exactly once and the service stage is the
        // DRAM's flat service time.
        assert!(
            m.samples(client, SampleKind::Service).unwrap().as_slice()[0] >= 1.0,
            "memory service takes time"
        );
        assert!(sum >= 4.0, "two hops + service + response: {sum}");
        assert_eq!(m.inflight(), 0, "lifecycle closed on delivery");
    }

    #[test]
    fn forward_counts_read_from_registry() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        ic.inject(request(3, 1, 0, 400), 0).unwrap();
        for now in 0..50 {
            ic.step(now);
        }
        let counts = ic.forward_counts();
        // Client 3 attaches to leaf SE(1,0): one forward there and one at
        // the root.
        assert_eq!(counts[1][0], 1);
        assert_eq!(counts[0][0], 1);
        assert_eq!(counts[1][1], 0);
    }

    #[test]
    fn malformed_client_is_a_typed_error_not_a_panic() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let bogus = request(99, 1, 0, 400);
        match ic.try_inject(bogus.clone(), 0) {
            Err(InjectError::UnknownClient {
                client: 99,
                num_clients: 16,
                request,
            }) => assert_eq!(request, bogus),
            other => panic!("expected UnknownClient, got {other:?}"),
        }
        // The trait path degrades to handing the request back.
        let bounced = ic.inject(bogus.clone(), 0).unwrap_err();
        assert_eq!(bounced, bogus);
        assert_eq!(ic.pending(), 0, "nothing entered the tree");
    }

    #[test]
    fn inject_error_display_and_recovery() {
        let e = InjectError::UnknownClient {
            client: 7,
            num_clients: 4,
            request: request(7, 3, 0, 10),
        };
        assert!(e.to_string().contains("unknown client 7"));
        assert_eq!(e.into_request().id, 3);
        let full = InjectError::PortFull(request(1, 9, 0, 10));
        assert!(full.to_string().contains("full"));
        assert_eq!(full.into_request().id, 9);
    }

    #[test]
    fn drop_response_fault_swallows_completions() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let mut plan = FaultPlan::new(3);
        plan.push(
            FaultKind::DropResponse {
                client: 5,
                every: 1,
            },
            FaultWindow::ALWAYS,
        );
        ic.install_fault_plan(&plan);
        ic.inject(request(5, 1, 0, 400), 0).unwrap();
        for now in 0..200 {
            ic.step(now);
            assert!(ic.pop_response().is_none(), "response must be dropped");
        }
        let m = BlueScaleInterconnect::metrics(&ic);
        assert_eq!(
            m.counter(ComponentId::Client(5), Counter::ResponsesDropped),
            1
        );
        assert_eq!(m.counter(ComponentId::System, Counter::FaultsInjected), 1);
    }

    #[test]
    fn stuck_grant_fault_holds_the_port_for_its_window() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        // Client 0 attaches to leaf SE(1,0) port 0; hold that grant port
        // low for the first 60 cycles.
        let mut plan = FaultPlan::new(4);
        plan.push(
            FaultKind::StuckGrant {
                depth: 1,
                order: 0,
                port: 0,
            },
            FaultWindow::new(0, 60),
        );
        ic.install_fault_plan(&plan);
        ic.inject(request(0, 1, 0, 400), 0).unwrap();
        let mut completed_at = None;
        for now in 0..300 {
            ic.step(now);
            if ic.pop_response().is_some() {
                completed_at = Some(now);
                break;
            }
        }
        let when = completed_at.expect("completes once the window closes");
        assert!(when >= 60, "held until cycle 60, completed at {when}");
        let m = BlueScaleInterconnect::metrics(&ic);
        assert_eq!(
            m.counter(
                ComponentId::Se { depth: 1, order: 0 },
                Counter::FaultsInjected
            ),
            60
        );
    }

    #[test]
    fn dram_jitter_fault_stretches_service() {
        use bluescale_sim::fault::{FaultPlan, FaultWindow};

        let drive = |jitter: bool| -> u64 {
            let mut ic =
                BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                    .unwrap();
            if jitter {
                let mut plan = FaultPlan::new(11);
                plan.push(
                    FaultKind::DramJitter {
                        bank: 0,
                        max_extra_cycles: 12,
                    },
                    FaultWindow::ALWAYS,
                );
                ic.install_fault_plan(&plan);
            }
            for id in 0..8u64 {
                ic.inject(request(0, id + 1, 0, 4000), 0).unwrap();
            }
            let mut total = 0;
            for now in 0..2_000 {
                ic.step(now);
                while let Some(e) = ic.pop_service_event() {
                    total += e.duration;
                }
            }
            total
        };
        let base = drive(false);
        let jittered = drive(true);
        assert!(
            jittered > base,
            "jitter must stretch total service: {jittered} vs {base}"
        );
        // Deterministic: the same seeded plan reproduces exactly.
        assert_eq!(drive(true), jittered);
    }

    #[test]
    fn leave_clears_its_reservation() {
        let mut ic =
            BlueScaleInterconnect::new(BlueScaleConfig::for_clients(16), &sets(16, 400, 4))
                .unwrap();
        let (order, port) = ic.config().attach_point(5);
        assert!(ic.composition().interfaces[1][order][port].is_some());
        assert!(ic.reconfigure_client(5, &TaskSet::empty(), 0).applied());
        assert!(
            ic.composition().interfaces[1][order][port].is_none(),
            "the leaving client's leaf port has no reserved interface"
        );
        assert!(ic.client_tasks()[5].is_empty());
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::WrongClientCount {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
    }

    #[test]
    fn registry_lag_reconverges_exactly() {
        use bluescale_mem::DramConfig;
        /// The folded SE and port tallies; the `&self` read before the
        /// fold may lag them but never lead.
        fn check<E: Engine>() -> Vec<((ComponentId, Counter), u64)> {
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::<E>::with_engine(cfg, &sets(16, 400, 4)).unwrap();
            for c in 0..16u32 {
                ic.inject(request(c, c as u64, 0, 400), 0).unwrap();
            }
            for now in 0..120 {
                ic.step(now);
                while ic.pop_response().is_some() {}
            }
            let live = ic.memory_stats();
            assert!(live.accepted > 0, "workload must reach the controller");
            // The &self read may lag the live stats, but never exceeds them.
            let lagged = ic
                .metrics()
                .counter(ComponentId::Memory, Counter::MemAccepted);
            assert!(lagged <= live.accepted, "mirror may lag, never lead");
            let fabric = |m: &MetricsRegistry| -> Vec<_> {
                m.counters_iter()
                    .filter(|((c, _), _)| {
                        matches!(c, ComponentId::Se { .. } | ComponentId::Port { .. })
                    })
                    .collect()
            };
            let before = fabric(ic.metrics());
            // metrics_mut flushes: the mirror reconverges *exactly*.
            let flushed = ic.metrics_mut();
            let m = ComponentId::Memory;
            assert_eq!(flushed.counter(m, Counter::MemAccepted), live.accepted);
            assert_eq!(flushed.counter(m, Counter::MemCompleted), live.completed);
            assert_eq!(flushed.counter(m, Counter::RowHits), live.row_hits);
            assert_eq!(flushed.counter(m, Counter::RowMisses), live.row_misses);
            assert_eq!(flushed.counter(m, Counter::BusyCycles), live.busy_cycles);
            for ((component, counter), value) in before {
                assert!(
                    value <= flushed.counter(component, counter),
                    "{component}/{counter:?}: a lagging tally may never lead"
                );
            }
            fabric(flushed)
        }
        // The per-SE engine tallies SEs and ports as it steps, so its
        // registry is the exact reference the batching engine's fold
        // must reconverge to.
        let exact = check::<PerSeEngine>();
        assert!(
            exact
                .iter()
                .any(|((_, k), _)| *k == Counter::Replenishments),
            "the run must replenish some port"
        );
        assert_eq!(check::<SoaCore>(), exact);
    }

    #[test]
    fn per_bank_regulation_defers_and_conserves_on_both_engines() {
        use bluescale_mem::{DramConfig, MemPolicyConfig};
        fn check<E: Engine>() {
            let engine = std::any::type_name::<E>();
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                mem_policy: MemPolicyConfig::PerBankRegulation {
                    window: 200,
                    budget: 1,
                },
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::<E>::with_engine(cfg, &sets(16, 4000, 4)).unwrap();
            // All default test addresses share bank 0, so a 1-per-200
            // budget must defer heavily yet lose nothing.
            let mut id = 0;
            for c in 0..16u32 {
                for _ in 0..2 {
                    id += 1;
                    let mut r = request(c, id, 0, 40_000);
                    r.addr = 0;
                    ic.inject(r, 0).unwrap();
                }
            }
            let mut done = 0;
            for now in 0..40_000 {
                ic.step(now);
                while ic.pop_response().is_some() {
                    done += 1;
                }
                if done == id {
                    break;
                }
            }
            assert_eq!(done, id, "{engine}: deferred requests drain");
            let deferred = ic
                .metrics_mut()
                .counter(ComponentId::Memory, Counter::PolicyDeferred);
            assert!(deferred > 0, "{engine}: budget must bite");
        }
        check::<PerSeEngine>();
        check::<SoaCore>();
    }

    #[test]
    fn deterministic_memory_closes_pages_for_dm_clients_only() {
        use bluescale_mem::{DramConfig, MemPolicyConfig};
        // Client 3 is deterministic; everyone idle. Same-row streaks from
        // the dm client must never hit; the best-effort client must.
        let run = |dm: bool| {
            let cfg = BlueScaleConfig {
                dram: Some(DramConfig::default()),
                mem_policy: MemPolicyConfig::DeterministicMemory {
                    dm_clients: if dm { vec![3] } else { vec![] },
                },
                ..BlueScaleConfig::for_clients(16)
            };
            let mut ic = BlueScaleInterconnect::new(cfg, &sets(16, 4000, 4)).unwrap();
            for id in 1..=8u64 {
                let mut r = request(3, id, 0, 4000);
                r.addr = id * 64; // one row, sequential words
                ic.inject(r, 0).unwrap();
            }
            for now in 0..2_000 {
                ic.step(now);
                while ic.pop_response().is_some() {}
            }
            ic.memory_stats()
        };
        let deterministic = run(true);
        let best_effort = run(false);
        assert_eq!(deterministic.row_hits, 0, "dm requests never ride the row");
        assert!(best_effort.row_hits > 0, "best-effort keeps the fast path");
        assert!(
            deterministic.busy_cycles > best_effort.busy_cycles,
            "closed-page service pays for its determinism"
        );
    }
}
