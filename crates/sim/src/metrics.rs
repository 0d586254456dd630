//! Typed observability for the simulation kernel.
//!
//! Every component of a simulated interconnect reports into a single
//! [`MetricsRegistry`] instead of keeping ad-hoc counters. The registry has
//! two layers with different cost disciplines:
//!
//! * **Tallies** — named [`Counter`]s, gauges, [`OnlineStats`] and
//!   [`Samples`] keyed by [`ComponentId`]. These are the experiment
//!   *results* (grant counts, latency distributions) and are always
//!   recorded. `System` and `Client` keys index dense rows (the harness
//!   touches them on every request); every other key is a b-tree lookup
//!   over a small, fixed key set.
//! * **Detail** — typed [`Event`]s in a bounded ring buffer plus
//!   per-request lifecycle tracking that yields end-to-end
//!   [`LatencyBreakdown`]s (queueing vs. NoC vs. memory service vs.
//!   response path). Off by default; when disabled every detail call is a
//!   single branch, so enabling metrics can never change simulation
//!   behaviour — only observe it.
//!
//! Determinism guarantee: nothing in this module feeds back into any
//! scheduling decision. A differential test in the workspace pins that a
//! detail-enabled run produces bit-identical traffic to a disabled one.
//!
//! # Example
//!
//! ```
//! use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! let se = ComponentId::Se { depth: 1, order: 0 };
//! reg.inc(se, Counter::Grants);
//! reg.inc(se, Counter::Grants);
//! assert_eq!(reg.counter(se, Counter::Grants), 2);
//! // Detail is off by default: events are dropped at a single branch.
//! reg.record(7, Event::Throttle { component: se });
//! assert!(reg.events().is_empty());
//! reg.enable_detail();
//! reg.record(8, Event::Throttle { component: se });
//! assert_eq!(reg.events().len(), 1);
//! ```

use crate::fault::FaultClass;
use crate::stats::{OnlineStats, Samples};
use crate::Cycle;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifies one instrumented component of the simulated system.
///
/// The ordering (derived) makes registry exports deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentId {
    /// The whole run (aggregates over every client).
    System,
    /// One client port (traffic generator), by client id.
    Client(u32),
    /// One Scale Element at `(depth, order)` in the tree (0 = root).
    Se {
        /// Tree depth (0 = root).
        depth: usize,
        /// Left-to-right position within the level.
        order: usize,
    },
    /// One local client port of an SE.
    Port {
        /// Tree depth of the owning SE.
        depth: usize,
        /// Position of the owning SE within its level.
        order: usize,
        /// Port index within the SE.
        port: usize,
    },
    /// The shared memory controller.
    Memory,
    /// One DRAM bank behind the controller.
    Bank(u32),
    /// An experiment-defined series (e.g. one interconnect kind in a
    /// comparison sweep). Gives benches a typed key without inventing
    /// fake hardware components.
    Series(u16),
}

impl ComponentId {
    /// The [`ComponentId::Port`] of port `port` under an
    /// [`ComponentId::Se`] component.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an SE.
    pub fn port(self, port: usize) -> ComponentId {
        match self {
            ComponentId::Se { depth, order } => ComponentId::Port { depth, order, port },
            other => panic!("{other} has no ports"),
        }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentId::System => write!(f, "system"),
            ComponentId::Client(c) => write!(f, "client.{c}"),
            ComponentId::Se { depth, order } => write!(f, "se.{depth}.{order}"),
            ComponentId::Port { depth, order, port } => write!(f, "se.{depth}.{order}.p{port}"),
            ComponentId::Memory => write!(f, "mem"),
            ComponentId::Bank(b) => write!(f, "bank.{b}"),
            ComponentId::Series(s) => write!(f, "series.{s}"),
        }
    }
}

/// Monotone counters a component can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Requests released by a client (accepted by the interconnect or
    /// still queued at the horizon).
    Issued,
    /// Requests whose response reached the client.
    Completed,
    /// Requests that missed their deadline (late or never completed).
    Missed,
    /// Requests still queued client-side when the run ended.
    Backlog,
    /// Injection attempts bounced by a full port buffer.
    Rejected,
    /// Requests accepted into a component's input buffers.
    Enqueued,
    /// Arbitration grants issued.
    Grants,
    /// Cycles with pending work but no grant (budget throttling or
    /// backpressure).
    ThrottledCycles,
    /// Requests forwarded toward the provider/parent.
    Forwarded,
    /// Server-budget replenishments (period boundaries crossed).
    Replenishments,
    /// Requests accepted by the memory controller.
    MemAccepted,
    /// Requests whose memory service completed.
    MemCompleted,
    /// Row-buffer hits.
    RowHits,
    /// Row-buffer misses (cold rows or conflicts).
    RowMisses,
    /// Cycles the memory channel was busy.
    BusyCycles,
    /// Experiment trials run.
    Trials,
    /// Trials that completed without a single deadline miss.
    Successes,
    /// Faults injected by a fault plan (bursts fired, responses dropped,
    /// jittered accepts).
    FaultsInjected,
    /// Deadline misses flagged by the guard layer's per-request detector
    /// (at the deadline cycle, not at late delivery).
    MissesDetected,
    /// Watchdog re-injections of requests whose response never arrived.
    Retries,
    /// Memory responses discarded by a drop fault.
    ResponsesDropped,
    /// Responses suppressed because the request was already delivered
    /// (a watchdog retry raced the original response).
    DuplicateResponses,
    /// Clients demoted to best-effort by the quarantine guard.
    Quarantines,
    /// Grants committed without server budget (work-conserving overserve
    /// or an unprogrammed port) — the B-counter audit trail.
    BudgetOverruns,
    /// Reconfiguration requests that passed admission control.
    Admitted,
    /// Reconfiguration requests that failed admission control and were
    /// rolled back (distinct from [`Counter::Rejected`], which counts
    /// requests bounced at a full port).
    AdmissionRejected,
    /// Reconfiguration transitions applied to a live system (joins,
    /// leaves, task updates, quarantine demotions).
    Reconfigurations,
    /// Cycles between an accepted reconfiguration and the last affected
    /// server's replenishment boundary — the mode-change transition
    /// latency, summed over affected servers.
    TransitionCycles,
    /// Admission requests abandoned because their decision deadline passed
    /// (or their caller cancelled) before the verdict was produced. The
    /// control plane's per-request timeout discipline.
    AdmissionTimeouts,
    /// Admission requests refused by overload shedding (bounded queue over
    /// its tier watermark) — explicit rejections, never silent drops.
    Sheds,
    /// Journal records replayed while rebuilding control-plane state after
    /// a restart (crash-consistent recovery).
    RecoveryReplays,
    /// Runs that abandoned sharded parallel execution after a worker
    /// panicked and fell back to the serial engine for the remainder.
    ShardFallbacks,
    /// Root-arbitration grants deferred by the active memory policy (the
    /// request stays queued; counted once per deferred candidate-cycle).
    PolicyDeferred,
    /// Telemetry updates dropped because a subscriber's channel was full.
    /// Slow external readers shed their own stream instead of
    /// backpressuring the simulator.
    SubscriberLagged,
}

impl Counter {
    /// Stable snake_case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::Issued => "issued",
            Counter::Completed => "completed",
            Counter::Missed => "missed",
            Counter::Backlog => "backlog",
            Counter::Rejected => "rejected",
            Counter::Enqueued => "enqueued",
            Counter::Grants => "grants",
            Counter::ThrottledCycles => "throttled_cycles",
            Counter::Forwarded => "forwarded",
            Counter::Replenishments => "replenishments",
            Counter::MemAccepted => "mem_accepted",
            Counter::MemCompleted => "mem_completed",
            Counter::RowHits => "row_hits",
            Counter::RowMisses => "row_misses",
            Counter::BusyCycles => "busy_cycles",
            Counter::Trials => "trials",
            Counter::Successes => "successes",
            Counter::FaultsInjected => "faults_injected",
            Counter::MissesDetected => "misses_detected",
            Counter::Retries => "retries",
            Counter::ResponsesDropped => "responses_dropped",
            Counter::DuplicateResponses => "duplicate_responses",
            Counter::Quarantines => "quarantines",
            Counter::BudgetOverruns => "budget_overruns",
            Counter::Admitted => "admitted",
            Counter::AdmissionRejected => "admission_rejected",
            Counter::Reconfigurations => "reconfigurations",
            Counter::TransitionCycles => "transition_cycles",
            Counter::AdmissionTimeouts => "admission_timeouts",
            Counter::Sheds => "sheds",
            Counter::RecoveryReplays => "recovery_replays",
            Counter::ShardFallbacks => "shard_fallbacks",
            Counter::PolicyDeferred => "policy_deferred",
            Counter::SubscriberLagged => "subscriber_lagged",
        }
    }

    /// Unit of the counted quantity, for self-describing exports.
    pub fn unit(&self) -> &'static str {
        match self {
            Counter::Issued
            | Counter::Completed
            | Counter::Missed
            | Counter::Backlog
            | Counter::Rejected
            | Counter::Enqueued
            | Counter::Grants
            | Counter::Forwarded
            | Counter::MemAccepted
            | Counter::MemCompleted
            | Counter::RowHits
            | Counter::RowMisses
            | Counter::Retries
            | Counter::ResponsesDropped
            | Counter::DuplicateResponses => "requests",
            Counter::ThrottledCycles | Counter::BusyCycles | Counter::TransitionCycles => "cycles",
            Counter::Trials | Counter::Successes => "trials",
            Counter::Replenishments
            | Counter::FaultsInjected
            | Counter::MissesDetected
            | Counter::Quarantines
            | Counter::BudgetOverruns
            | Counter::Admitted
            | Counter::AdmissionRejected
            | Counter::Reconfigurations
            | Counter::AdmissionTimeouts
            | Counter::Sheds
            | Counter::RecoveryReplays
            | Counter::ShardFallbacks
            | Counter::PolicyDeferred
            | Counter::SubscriberLagged => "events",
        }
    }
}

/// Distributions a component can report (as [`OnlineStats`], [`Samples`]
/// or both — the recorder picks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SampleKind {
    /// End-to-end latency, cycles.
    Latency,
    /// Blocking latency (time lost to later-deadline traffic), cycles.
    Blocking,
    /// Latency divided by the request's deadline window.
    NormalizedResponse,
    /// Enqueue → first grant, cycles.
    Queueing,
    /// First grant → memory issue (request-path transit), cycles.
    NocTransit,
    /// Memory issue → memory completion, cycles.
    Service,
    /// Memory completion → client delivery, cycles.
    ResponseTransit,
    /// Fraction of issued requests that missed.
    MissRatio,
    /// An experiment-defined distribution.
    Custom(&'static str),
}

impl SampleKind {
    /// Unit of the observed quantity, for self-describing exports.
    pub fn unit(&self) -> &'static str {
        match self {
            SampleKind::Latency
            | SampleKind::Blocking
            | SampleKind::Queueing
            | SampleKind::NocTransit
            | SampleKind::Service
            | SampleKind::ResponseTransit => "cycles",
            SampleKind::NormalizedResponse | SampleKind::MissRatio => "ratio",
            SampleKind::Custom(_) => "value",
        }
    }
}

impl fmt::Display for SampleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleKind::Latency => write!(f, "latency"),
            SampleKind::Blocking => write!(f, "blocking"),
            SampleKind::NormalizedResponse => write!(f, "normalized_response"),
            SampleKind::Queueing => write!(f, "queueing"),
            SampleKind::NocTransit => write!(f, "noc_transit"),
            SampleKind::Service => write!(f, "service"),
            SampleKind::ResponseTransit => write!(f, "response_transit"),
            SampleKind::MissRatio => write!(f, "miss_ratio"),
            SampleKind::Custom(name) => write!(f, "{name}"),
        }
    }
}

/// A typed simulation event. Replaces the free-form string traces on the
/// hot path: no formatting or allocation happens unless a consumer renders
/// the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request entered a component's input buffer.
    Enqueue {
        /// The accepting component.
        component: ComponentId,
        /// Request id.
        request: u64,
    },
    /// An arbiter granted a request.
    Grant {
        /// The granting component.
        component: ComponentId,
        /// Winning port.
        port: usize,
        /// Request id.
        request: u64,
    },
    /// Pending work existed but nothing was granted this cycle.
    Throttle {
        /// The throttled component.
        component: ComponentId,
    },
    /// A server budget replenished at its period boundary.
    Replenish {
        /// The owning component.
        component: ComponentId,
        /// Port whose server replenished.
        port: usize,
    },
    /// The memory controller started servicing a request.
    MemIssue {
        /// Request id.
        request: u64,
        /// Service duration, cycles.
        service_cycles: u64,
    },
    /// The memory controller finished servicing a request.
    MemComplete {
        /// Request id.
        request: u64,
    },
    /// A fault plan injected a fault at a component.
    FaultInjected {
        /// Where the fault struck.
        component: ComponentId,
        /// The fault class.
        class: FaultClass,
    },
    /// The guard layer flagged a request past its deadline while still
    /// outstanding.
    DeadlineMiss {
        /// Owning client.
        client: u32,
        /// Request id.
        request: u64,
    },
    /// The watchdog re-injected a request whose response never arrived.
    Retry {
        /// Owning client.
        client: u32,
        /// Request id.
        request: u64,
    },
    /// A memory response was discarded by a drop fault.
    ResponseDropped {
        /// Owning client.
        client: u32,
        /// Request id.
        request: u64,
    },
    /// The quarantine guard demoted a client to best-effort.
    Quarantine {
        /// The demoted client.
        client: u32,
    },
    /// A reconfiguration request passed admission control; new server
    /// parameters swap in at each affected server's replenishment
    /// boundary.
    Reconfigured {
        /// The client whose reservation changed.
        client: u32,
    },
    /// A reconfiguration request failed admission control and was rolled
    /// back bit-identically.
    ReconfigRejected {
        /// The client whose request was refused.
        client: u32,
    },
    /// An admission request's decision deadline passed (or its caller
    /// cancelled) before a verdict was produced; the request was abandoned
    /// without mutating any state.
    AdmissionTimeout {
        /// The client (tenant slot) the abandoned request concerned.
        client: u32,
    },
    /// Overload shedding refused an admission request with an explicit
    /// rejection (bounded queue over its tier watermark).
    Shed {
        /// The client (tenant slot) the shed request concerned.
        client: u32,
    },
    /// A journal record was replayed during crash recovery.
    RecoveryReplay {
        /// Sequence number of the replayed record.
        seq: u64,
    },
    /// A sharded run abandoned parallel execution after a worker panicked
    /// and continued on the serial engine.
    ShardFallback {
        /// The shard whose worker panicked.
        shard: u32,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Enqueue { component, request } => {
                write!(f, "{component} enqueue req#{request}")
            }
            Event::Grant {
                component,
                port,
                request,
            } => write!(f, "{component} grant p{port} req#{request}"),
            Event::Throttle { component } => write!(f, "{component} throttle"),
            Event::Replenish { component, port } => {
                write!(f, "{component} replenish p{port}")
            }
            Event::MemIssue {
                request,
                service_cycles,
            } => write!(f, "mem issue req#{request} ({service_cycles} cy)"),
            Event::MemComplete { request } => write!(f, "mem complete req#{request}"),
            Event::FaultInjected { component, class } => {
                write!(f, "{component} fault {class}")
            }
            Event::DeadlineMiss { client, request } => {
                write!(f, "client.{client} deadline miss req#{request}")
            }
            Event::Retry { client, request } => {
                write!(f, "client.{client} retry req#{request}")
            }
            Event::ResponseDropped { client, request } => {
                write!(f, "client.{client} response dropped req#{request}")
            }
            Event::Quarantine { client } => write!(f, "client.{client} quarantined"),
            Event::Reconfigured { client } => {
                write!(f, "client.{client} reconfigured")
            }
            Event::ReconfigRejected { client } => {
                write!(f, "client.{client} reconfiguration rejected")
            }
            Event::AdmissionTimeout { client } => {
                write!(f, "client.{client} admission timed out")
            }
            Event::Shed { client } => write!(f, "client.{client} shed"),
            Event::RecoveryReplay { seq } => write!(f, "recovery replay #{seq}"),
            Event::ShardFallback { shard } => {
                write!(f, "shard.{shard} fell back to serial execution")
            }
        }
    }
}

/// An [`Event`] plus the cycle at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle at which the event occurred.
    pub at: Cycle,
    /// The event.
    pub event: Event,
}

/// Where one completed request spent its life, in cycles.
///
/// `queueing + noc_transit + service + response_transit` may undershoot
/// `total` by the cycles spent between job release and interconnect
/// acceptance (client-side backlog).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// The client that owns the request.
    pub client: u32,
    /// Enqueue → first grant.
    pub queueing: u64,
    /// First grant → memory issue.
    pub noc_transit: u64,
    /// Memory service time.
    pub service: u64,
    /// Memory completion → delivery at the client port.
    pub response_transit: u64,
    /// Enqueue → delivery.
    pub total: u64,
}

/// Per-request lifecycle record kept while a request is in flight.
#[derive(Debug, Clone, Copy)]
struct Lifecycle {
    client: u32,
    enqueued_at: Cycle,
    first_grant: Option<(ComponentId, Cycle)>,
    mem_issue: Option<Cycle>,
    mem_complete: Option<Cycle>,
}

/// Client ids `0..DENSE_CLIENTS` are stored in dense rows (this covers
/// the 1,048,576-client shard sweep); larger ids go to the ordered map, so
/// a stray `Client(u32::MAX)` allocates no rows.
const DENSE_CLIENTS: u32 = 1 << 20;

/// One tally layer of the registry, keyed by `(ComponentId, K)`.
///
/// `System` is row 0 and `Client(n)` (for `n < DENSE_CLIENTS`) is row
/// `n + 1` of a dense table, so the per-request harness updates index a
/// short vector instead of walking a b-tree. Each row is a short vector
/// kept sorted by `K`. Every other key lives in an ordered map. The derived
/// [`ComponentId`] order puts `System` and `Client(_)` before every other
/// variant, and the map's clients sort after every dense one, so "rows,
/// then map" is exactly the key order of a single `BTreeMap`. A key exists
/// only once it is touched.
#[derive(Debug, Clone)]
struct Table<K, V> {
    rows: Vec<Vec<(K, V)>>,
    map: BTreeMap<(ComponentId, K), V>,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            map: BTreeMap::new(),
        }
    }
}

/// The dense row of `component`, if it has one.
fn row_of(component: ComponentId) -> Option<usize> {
    match component {
        ComponentId::System => Some(0),
        ComponentId::Client(c) if c < DENSE_CLIENTS => Some(c as usize + 1),
        _ => None,
    }
}

/// Inverse of [`row_of`].
fn row_component(row: usize) -> ComponentId {
    match row {
        0 => ComponentId::System,
        r => ComponentId::Client((r - 1) as u32),
    }
}

impl<K: Ord + Copy, V> Table<K, V> {
    fn get(&self, component: ComponentId, key: K) -> Option<&V> {
        let Some(r) = row_of(component) else {
            return self.map.get(&(component, key));
        };
        let row = self.rows.get(r)?;
        let i = row.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
        Some(&row[i].1)
    }

    fn get_mut(&mut self, component: ComponentId, key: K) -> Option<&mut V> {
        let Some(r) = row_of(component) else {
            return self.map.get_mut(&(component, key));
        };
        let row = self.rows.get_mut(r)?;
        let i = row.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
        Some(&mut row[i].1)
    }

    fn get_or_insert_with(
        &mut self,
        component: ComponentId,
        key: K,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        let Some(r) = row_of(component) else {
            return self.map.entry((component, key)).or_insert_with(make);
        };
        if r >= self.rows.len() {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        let i = match row.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                row.insert(i, (key, make()));
                i
            }
        };
        &mut row[i].1
    }

    fn iter(&self) -> impl Iterator<Item = ((ComponentId, K), &V)> {
        let rows = self.rows.iter().enumerate().flat_map(|(r, row)| {
            let component = row_component(r);
            row.iter().map(move |(k, v)| ((component, *k), v))
        });
        rows.chain(self.map.iter().map(|(&key, v)| (key, v)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = ((ComponentId, K), &mut V)> {
        let rows = self.rows.iter_mut().enumerate().flat_map(|(r, row)| {
            let component = row_component(r);
            row.iter_mut().map(move |(k, v)| ((component, *k), v))
        });
        rows.chain(self.map.iter_mut().map(|(&key, v)| (key, v)))
    }
}

impl<K: Ord + Copy, V: Copy> Table<K, V> {
    fn set(&mut self, component: ComponentId, key: K, value: V) {
        *self.get_or_insert_with(component, key, || value) = value;
    }
}

/// The typed observability registry. See the module docs for the layering.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    detail: bool,
    event_capacity: usize,
    /// Default retention window applied to raw-sample collectors created
    /// after it is set ([`Samples::set_window`]); `None` retains everything.
    sample_window: Option<usize>,
    counters: Table<Counter, u64>,
    gauges: Table<&'static str, f64>,
    stats: Table<SampleKind, OnlineStats>,
    samples: Table<SampleKind, Samples>,
    events: VecDeque<TimedEvent>,
    inflight: BTreeMap<u64, Lifecycle>,
}

/// Default bound on retained events (matches the string tracer's bound).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

impl MetricsRegistry {
    /// Creates a registry with detail recording disabled.
    pub fn new() -> Self {
        Self {
            detail: false,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            ..Self::default()
        }
    }

    /// Creates a registry with detail recording enabled and an explicit
    /// event-ring capacity.
    pub fn with_detail(event_capacity: usize) -> Self {
        Self {
            detail: true,
            event_capacity,
            ..Self::default()
        }
    }

    /// Whether detail recording (events + request lifecycles) is active.
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Turns detail recording on.
    pub fn enable_detail(&mut self) {
        self.detail = true;
    }

    /// Turns detail recording off (retained events are kept).
    pub fn disable_detail(&mut self) {
        self.detail = false;
    }

    /// Sets the default retention window for raw-sample collectors and
    /// applies it to every existing collector. Long streaming runs use this
    /// to bound memory; figure-producing runs leave it `None` so full
    /// sequences (and their exact percentiles) are preserved.
    pub fn set_sample_window(&mut self, window: Option<usize>) {
        self.sample_window = window;
        for (_, samples) in self.samples.iter_mut() {
            samples.set_window(window);
        }
    }

    /// The default retention window for raw-sample collectors.
    pub fn sample_window(&self) -> Option<usize> {
        self.sample_window
    }

    // ----- counters --------------------------------------------------

    /// Adds one to a counter.
    pub fn inc(&mut self, component: ComponentId, counter: Counter) {
        self.add(component, counter, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, component: ComponentId, counter: Counter, n: u64) {
        *self.counters.get_or_insert_with(component, counter, || 0) += n;
    }

    /// Subtracts `n` from a counter, saturating at zero (used when an
    /// optimistic count must be retracted, e.g. a rejected injection).
    pub fn sub(&mut self, component: ComponentId, counter: Counter, n: u64) {
        if let Some(v) = self.counters.get_mut(component, counter) {
            *v = v.saturating_sub(n);
        }
    }

    /// Overwrites a counter with an externally maintained absolute value
    /// (used to mirror a component's internal tallies, e.g. the memory
    /// controller's).
    pub fn set_counter(&mut self, component: ComponentId, counter: Counter, value: u64) {
        self.counters.set(component, counter, value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, component: ComponentId, counter: Counter) -> u64 {
        self.counters.get(component, counter).copied().unwrap_or(0)
    }

    /// The values of `counter` across the `ports` ports of the SE at
    /// `(depth, order)` — the migrated per-port tallies of a local
    /// scheduler.
    pub fn port_counters(
        &self,
        depth: usize,
        order: usize,
        ports: usize,
        counter: Counter,
    ) -> Vec<u64> {
        (0..ports)
            .map(|port| self.counter(ComponentId::Port { depth, order, port }, counter))
            .collect()
    }

    // ----- gauges ----------------------------------------------------

    /// Sets a named gauge (last write wins).
    pub fn set_gauge(&mut self, component: ComponentId, name: &'static str, value: f64) {
        self.gauges.set(component, name, value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, component: ComponentId, name: &'static str) -> Option<f64> {
        self.gauges.get(component, name).copied()
    }

    // ----- distributions ---------------------------------------------

    /// Pushes an observation into a constant-memory [`OnlineStats`]
    /// accumulator.
    pub fn observe(&mut self, component: ComponentId, kind: SampleKind, value: f64) {
        self.stats
            .get_or_insert_with(component, kind, OnlineStats::default)
            .push(value);
    }

    /// A copy of an accumulator (empty if never touched).
    pub fn stat(&self, component: ComponentId, kind: SampleKind) -> OnlineStats {
        self.stats.get(component, kind).copied().unwrap_or_default()
    }

    /// Pushes a raw observation into a [`Samples`] collector (retained for
    /// percentile reporting; bounded by the registry's sample window, if
    /// one is set).
    pub fn sample(&mut self, component: ComponentId, kind: SampleKind, value: f64) {
        let window = self.sample_window;
        self.samples
            .get_or_insert_with(component, kind, || Samples::with_window(window))
            .push(value);
    }

    /// Borrowed view of a raw-sample collector.
    pub fn samples(&self, component: ComponentId, kind: SampleKind) -> Option<&Samples> {
        self.samples.get(component, kind)
    }

    /// Mutable view of a raw-sample collector (percentile queries sort in
    /// place), creating it if absent.
    pub fn samples_mut(&mut self, component: ComponentId, kind: SampleKind) -> &mut Samples {
        let window = self.sample_window;
        self.samples
            .get_or_insert_with(component, kind, || Samples::with_window(window))
    }

    // ----- iteration (delta extraction, exports) ----------------------

    /// Iterates every counter in deterministic key order.
    pub fn counters_iter(&self) -> impl Iterator<Item = ((ComponentId, Counter), u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates every gauge in deterministic key order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = ((ComponentId, &'static str), f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates every accumulator in deterministic key order.
    pub fn stats_iter(&self) -> impl Iterator<Item = ((ComponentId, SampleKind), &OnlineStats)> {
        self.stats.iter()
    }

    /// Iterates every raw-sample collector in deterministic key order.
    pub fn samples_iter(&self) -> impl Iterator<Item = ((ComponentId, SampleKind), &Samples)> {
        self.samples.iter()
    }

    // ----- events ----------------------------------------------------

    /// Records a typed event if detail is enabled, evicting the oldest
    /// event when the ring is full. With capacity 0 nothing is retained.
    pub fn record(&mut self, at: Cycle, event: Event) {
        if !self.detail || self.event_capacity == 0 {
            return;
        }
        while self.events.len() >= self.event_capacity {
            self.events.pop_front();
        }
        self.events.push_back(TimedEvent { at, event });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TimedEvent> {
        &self.events
    }

    /// Drops all retained events.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    // ----- request lifecycle -----------------------------------------

    /// Marks `request` (owned by `client`) as accepted into `component`'s
    /// buffers at cycle `at`. Starts lifecycle tracking when detail is on.
    pub fn request_enqueued(
        &mut self,
        at: Cycle,
        request: u64,
        client: u32,
        component: ComponentId,
    ) {
        if !self.detail {
            return;
        }
        self.record(at, Event::Enqueue { component, request });
        self.inflight.entry(request).or_insert(Lifecycle {
            client,
            enqueued_at: at,
            first_grant: None,
            mem_issue: None,
            mem_complete: None,
        });
    }

    /// Marks `request` as granted by `component` at cycle `at`. Only the
    /// first grant (the leaf SE's) defines the queueing delay.
    pub fn request_granted(
        &mut self,
        at: Cycle,
        request: u64,
        component: ComponentId,
        port: usize,
    ) {
        if !self.detail {
            return;
        }
        self.record(
            at,
            Event::Grant {
                component,
                port,
                request,
            },
        );
        if let Some(entry) = self.inflight.get_mut(&request) {
            if entry.first_grant.is_none() {
                entry.first_grant = Some((component, at));
            }
        }
    }

    /// Marks `request` as entering memory service at cycle `at`.
    pub fn request_mem_issue(&mut self, at: Cycle, request: u64, service_cycles: u64) {
        if !self.detail {
            return;
        }
        self.record(
            at,
            Event::MemIssue {
                request,
                service_cycles,
            },
        );
        if let Some(entry) = self.inflight.get_mut(&request) {
            if entry.mem_issue.is_none() {
                entry.mem_issue = Some(at);
            }
        }
    }

    /// Marks `request`'s memory service as complete at cycle `at`.
    pub fn request_mem_complete(&mut self, at: Cycle, request: u64) {
        if !self.detail {
            return;
        }
        self.record(at, Event::MemComplete { request });
        if let Some(entry) = self.inflight.get_mut(&request) {
            if entry.mem_complete.is_none() {
                entry.mem_complete = Some(at);
            }
        }
    }

    /// Marks `request` as delivered back to its client at cycle `at`,
    /// closes its lifecycle and records the latency breakdown — per
    /// client, and queueing per the granting SE. Returns the breakdown,
    /// or `None` when the request was never tracked (detail off, or it
    /// was enqueued before detail was enabled).
    pub fn request_completed(&mut self, at: Cycle, request: u64) -> Option<LatencyBreakdown> {
        if !self.detail {
            return None;
        }
        let entry = self.inflight.remove(&request)?;
        let (grant_se, granted_at) = match entry.first_grant {
            Some((se, t)) => (Some(se), t),
            None => (None, entry.enqueued_at),
        };
        let mem_issue = entry.mem_issue.unwrap_or(granted_at);
        let mem_complete = entry.mem_complete.unwrap_or(mem_issue);
        let breakdown = LatencyBreakdown {
            client: entry.client,
            queueing: granted_at.saturating_sub(entry.enqueued_at),
            noc_transit: mem_issue.saturating_sub(granted_at),
            service: mem_complete.saturating_sub(mem_issue),
            response_transit: at.saturating_sub(mem_complete),
            total: at.saturating_sub(entry.enqueued_at),
        };
        let client = ComponentId::Client(entry.client);
        self.sample(client, SampleKind::Queueing, breakdown.queueing as f64);
        self.sample(client, SampleKind::NocTransit, breakdown.noc_transit as f64);
        self.sample(client, SampleKind::Service, breakdown.service as f64);
        self.sample(
            client,
            SampleKind::ResponseTransit,
            breakdown.response_transit as f64,
        );
        if let Some(se) = grant_se {
            self.sample(se, SampleKind::Queueing, breakdown.queueing as f64);
        }
        Some(breakdown)
    }

    /// Requests currently tracked in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    // ----- aggregation & export --------------------------------------

    /// Merges another registry into this one: counters add, gauges take
    /// `other`'s value, accumulators merge, raw samples concatenate, and
    /// `other`'s events append (subject to this ring's capacity).
    /// In-flight lifecycles are not merged — they are transient state.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for ((c, k), &v) in other.counters.iter() {
            *self.counters.get_or_insert_with(c, k, || 0) += v;
        }
        for ((c, k), &v) in other.gauges.iter() {
            self.gauges.set(c, k, v);
        }
        for ((c, k), stats) in other.stats.iter() {
            self.stats
                .get_or_insert_with(c, k, OnlineStats::default)
                .merge(stats);
        }
        let window = self.sample_window;
        for ((c, k), samples) in other.samples.iter() {
            self.samples
                .get_or_insert_with(c, k, || Samples::with_window(window))
                .extend(samples.as_slice().iter().copied());
        }
        for ev in &other.events {
            if self.event_capacity == 0 {
                break;
            }
            while self.events.len() >= self.event_capacity {
                self.events.pop_front();
            }
            self.events.push_back(*ev);
        }
    }

    /// Serializes the registry to a deterministic JSON object (keys sorted
    /// by component, then metric). Raw-sample collectors are summarized as
    /// count/mean/min/p50/p95/p99/max; percentile queries sort in place,
    /// hence `&mut`.
    pub fn to_json(&mut self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"detail\": ");
        out.push_str(if self.detail { "true" } else { "false" });
        out.push_str(",\n  \"counters\": {");
        push_entries(
            &mut out,
            self.counters
                .iter()
                .map(|((c, k), v)| (format!("{c}/{}", k.name()), v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_entries(
            &mut out,
            self.gauges
                .iter()
                .map(|((c, name), v)| (format!("{c}/{name}"), json_f64(*v))),
        );
        out.push_str("},\n  \"stats\": {");
        push_entries(
            &mut out,
            self.stats.iter().map(|((c, k), s)| {
                (
                    format!("{c}/{k}"),
                    format!(
                        "{{\"count\": {}, \"mean\": {}, \"std_dev\": {}, \"min\": {}, \"max\": {}}}",
                        s.count(),
                        json_f64(s.mean()),
                        json_f64(s.std_dev()),
                        json_opt(s.min()),
                        json_opt(s.max()),
                    ),
                )
            }),
        );
        out.push_str("},\n  \"samples\": {");
        let summaries: Vec<(String, String)> = self
            .samples
            .iter_mut()
            .map(|((c, k), s)| {
                (
                    format!("{c}/{k}"),
                    format!(
                        "{{\"count\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \
                         \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                        s.len(),
                        json_opt(s.mean()),
                        json_opt(s.min()),
                        json_opt(s.percentile(50.0)),
                        json_opt(s.percentile(95.0)),
                        json_opt(s.percentile(99.0)),
                        json_opt(s.max()),
                    ),
                )
            })
            .collect();
        push_entries(&mut out, summaries.into_iter());
        out.push_str("},\n  \"events_retained\": ");
        out.push_str(&self.events.len().to_string());
        out.push_str(",\n  \"requests_in_flight\": ");
        out.push_str(&self.inflight.len().to_string());
        out.push_str("\n}\n");
        out
    }
}

/// Renders a finite f64 for JSON (`null` otherwise).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_owned())
}

fn push_entries(out: &mut String, entries: impl Iterator<Item = (String, String)>) {
    let mut first = true;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        out.push_str(&key);
        out.push_str("\": ");
        out.push_str(&value);
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SE: ComponentId = ComponentId::Se { depth: 1, order: 0 };

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter(SE, Counter::Grants), 0);
        reg.inc(SE, Counter::Grants);
        reg.add(SE, Counter::Grants, 4);
        assert_eq!(reg.counter(SE, Counter::Grants), 5);
        reg.sub(SE, Counter::Grants, 2);
        assert_eq!(reg.counter(SE, Counter::Grants), 3);
        // Sub on an untouched counter saturates silently.
        reg.sub(SE, Counter::Missed, 7);
        assert_eq!(reg.counter(SE, Counter::Missed), 0);
    }

    #[test]
    fn port_counters_collects_a_row() {
        let mut reg = MetricsRegistry::new();
        reg.add(SE.port(0), Counter::Grants, 2);
        reg.add(SE.port(2), Counter::Grants, 5);
        assert_eq!(
            reg.port_counters(1, 0, 4, Counter::Grants),
            vec![2, 0, 5, 0]
        );
    }

    #[test]
    fn component_display_is_stable() {
        assert_eq!(ComponentId::System.to_string(), "system");
        assert_eq!(ComponentId::Client(3).to_string(), "client.3");
        assert_eq!(SE.to_string(), "se.1.0");
        assert_eq!(SE.port(2).to_string(), "se.1.0.p2");
        assert_eq!(ComponentId::Memory.to_string(), "mem");
        assert_eq!(ComponentId::Bank(7).to_string(), "bank.7");
        assert_eq!(ComponentId::Series(1).to_string(), "series.1");
    }

    #[test]
    #[should_panic(expected = "has no ports")]
    fn port_of_non_se_panics() {
        let _ = ComponentId::Memory.port(0);
    }

    #[test]
    fn detail_gates_events() {
        let mut reg = MetricsRegistry::new();
        reg.record(1, Event::Throttle { component: SE });
        assert!(reg.events().is_empty());
        reg.enable_detail();
        reg.record(2, Event::Throttle { component: SE });
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.events()[0].at, 2);
        reg.disable_detail();
        reg.record(3, Event::Throttle { component: SE });
        assert_eq!(reg.events().len(), 1, "disabled detail drops events");
    }

    #[test]
    fn event_ring_wraps_at_capacity() {
        let mut reg = MetricsRegistry::with_detail(3);
        for i in 0..10 {
            reg.record(i, Event::MemComplete { request: i });
        }
        assert_eq!(reg.events().len(), 3);
        assert_eq!(reg.events()[0].at, 7);
        assert_eq!(reg.events()[2].at, 9);
    }

    #[test]
    fn event_ring_capacity_zero_and_one() {
        let mut zero = MetricsRegistry::with_detail(0);
        for i in 0..5 {
            zero.record(i, Event::MemComplete { request: i });
        }
        assert!(zero.events().is_empty(), "capacity 0 retains nothing");

        let mut one = MetricsRegistry::with_detail(1);
        for i in 0..5 {
            one.record(i, Event::MemComplete { request: i });
        }
        assert_eq!(one.events().len(), 1);
        assert_eq!(one.events()[0].at, 4, "capacity 1 keeps the newest");
    }

    #[test]
    fn lifecycle_yields_breakdown() {
        let mut reg = MetricsRegistry::with_detail(16);
        reg.request_enqueued(10, 42, 3, SE);
        reg.request_granted(14, 42, SE, 1);
        reg.request_mem_issue(16, 42, 4);
        reg.request_mem_complete(20, 42);
        let b = reg.request_completed(23, 42).expect("tracked");
        assert_eq!(b.client, 3);
        assert_eq!(b.queueing, 4);
        assert_eq!(b.noc_transit, 2);
        assert_eq!(b.service, 4);
        assert_eq!(b.response_transit, 3);
        assert_eq!(b.total, 13);
        assert_eq!(reg.inflight(), 0);
        // Breakdown samples land per client and queueing per SE.
        let q = reg
            .samples(ComponentId::Client(3), SampleKind::Queueing)
            .expect("recorded");
        assert_eq!(q.as_slice(), &[4.0]);
        let se_q = reg.samples(SE, SampleKind::Queueing).expect("recorded");
        assert_eq!(se_q.as_slice(), &[4.0]);
    }

    #[test]
    fn lifecycle_without_detail_is_inert() {
        let mut reg = MetricsRegistry::new();
        reg.request_enqueued(0, 1, 0, SE);
        assert_eq!(reg.inflight(), 0);
        assert_eq!(reg.request_completed(5, 1), None);
    }

    #[test]
    fn untracked_completion_returns_none() {
        let mut reg = MetricsRegistry::with_detail(4);
        assert_eq!(reg.request_completed(5, 99), None);
    }

    #[test]
    fn merge_adds_counters_and_concatenates_samples() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc(SE, Counter::Grants);
        b.add(SE, Counter::Grants, 2);
        b.inc(ComponentId::Memory, Counter::RowHits);
        a.sample(ComponentId::System, SampleKind::Latency, 1.0);
        b.sample(ComponentId::System, SampleKind::Latency, 2.0);
        a.observe(SE, SampleKind::Queueing, 10.0);
        b.observe(SE, SampleKind::Queueing, 20.0);
        b.set_gauge(ComponentId::System, "root_bandwidth", 0.5);
        a.merge(&b);
        assert_eq!(a.counter(SE, Counter::Grants), 3);
        assert_eq!(a.counter(ComponentId::Memory, Counter::RowHits), 1);
        assert_eq!(
            a.samples(ComponentId::System, SampleKind::Latency)
                .unwrap()
                .as_slice(),
            &[1.0, 2.0]
        );
        let merged = a.stat(SE, SampleKind::Queueing);
        assert_eq!(merged.count(), 2);
        assert!((merged.mean() - 15.0).abs() < 1e-12);
        assert_eq!(a.gauge(ComponentId::System, "root_bandwidth"), Some(0.5));
    }

    #[test]
    fn merge_equals_single_registry_stats() {
        // Merging per-shard registries must reproduce a single registry's
        // accumulator bit-for-bit (relies on the Welford merge).
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin() * 50.0).collect();
        let mut whole = MetricsRegistry::new();
        for &x in &data {
            whole.observe(SE, SampleKind::Latency, x);
        }
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        for &x in &data[..20] {
            left.observe(SE, SampleKind::Latency, x);
        }
        for &x in &data[20..] {
            right.observe(SE, SampleKind::Latency, x);
        }
        left.merge(&right);
        let (a, b) = (
            left.stat(SE, SampleKind::Latency),
            whole.stat(SE, SampleKind::Latency),
        );
        assert_eq!(a.count(), b.count());
        assert!((a.mean() - b.mean()).abs() < 1e-9);
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
    }

    #[test]
    fn json_export_is_deterministic_and_structured() {
        let mut reg = MetricsRegistry::with_detail(8);
        reg.inc(SE, Counter::Grants);
        reg.inc(ComponentId::Client(0), Counter::Issued);
        reg.set_gauge(ComponentId::System, "root_bandwidth", 0.75);
        for v in [1.0, 2.0, 3.0, 4.0] {
            reg.sample(ComponentId::System, SampleKind::Latency, v);
        }
        reg.observe(
            ComponentId::Series(0),
            SampleKind::Custom("miss_ratio"),
            0.25,
        );
        reg.record(5, Event::Throttle { component: SE });
        let a = reg.to_json();
        let b = reg.to_json();
        assert_eq!(a, b, "export is deterministic");
        assert!(a.contains("\"se.1.0/grants\": 1"));
        assert!(a.contains("\"client.0/issued\": 1"));
        assert!(a.contains("\"system/root_bandwidth\": 0.75"));
        assert!(a.contains("\"series.0/miss_ratio\""));
        assert!(a.contains("\"p99\": 4"));
        assert!(a.contains("\"events_retained\": 1"));
        // Structure sanity: braces balance.
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "balanced JSON:\n{a}"
        );
    }

    #[test]
    fn registry_sample_window_bounds_collectors() {
        let mut reg = MetricsRegistry::new();
        reg.sample(ComponentId::System, SampleKind::Latency, 0.0);
        reg.set_sample_window(Some(8));
        for v in 1..=100 {
            reg.sample(ComponentId::System, SampleKind::Latency, v as f64);
            // A collector created after the window is set is bounded too.
            reg.sample(ComponentId::Client(0), SampleKind::Service, v as f64);
        }
        let sys = reg
            .samples(ComponentId::System, SampleKind::Latency)
            .unwrap();
        assert!(sys.len() < 16, "existing collector bounded: {}", sys.len());
        assert_eq!(sys.total_pushed(), 101);
        let cli = reg
            .samples(ComponentId::Client(0), SampleKind::Service)
            .unwrap();
        assert!(cli.len() < 16, "new collector bounded: {}", cli.len());
        assert_eq!(cli.as_slice().last().copied(), Some(100.0));
    }

    #[test]
    fn iteration_accessors_cover_all_layers() {
        let mut reg = MetricsRegistry::new();
        reg.inc(SE, Counter::Grants);
        reg.inc(ComponentId::Memory, Counter::RowHits);
        reg.set_gauge(ComponentId::System, "util", 0.5);
        reg.observe(SE, SampleKind::Queueing, 3.0);
        reg.sample(ComponentId::Client(1), SampleKind::Latency, 7.0);
        assert_eq!(reg.counters_iter().count(), 2);
        assert_eq!(reg.gauges_iter().count(), 1);
        assert_eq!(reg.stats_iter().count(), 1);
        let all: Vec<_> = reg.samples_iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, (ComponentId::Client(1), SampleKind::Latency));
        assert_eq!(all[0].1.as_slice(), &[7.0]);
    }

    #[test]
    fn counter_units_are_total() {
        // Every counter has a unit (the match is exhaustive by
        // construction); spot-check the semantics.
        assert_eq!(Counter::Issued.unit(), "requests");
        assert_eq!(Counter::BusyCycles.unit(), "cycles");
        assert_eq!(Counter::SubscriberLagged.unit(), "events");
        assert_eq!(SampleKind::Latency.unit(), "cycles");
        assert_eq!(SampleKind::MissRatio.unit(), "ratio");
    }

    #[test]
    fn json_handles_empty_registry() {
        let mut reg = MetricsRegistry::new();
        let s = reg.to_json();
        assert!(s.contains("\"counters\": {}"));
        assert!(s.contains("\"events_retained\": 0"));
    }
}
