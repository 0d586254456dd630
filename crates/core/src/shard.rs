//! Sharded deterministic parallel simulation over the SoA core.
//!
//! The serial harness ([`System`](bluescale_interconnect::system::System)
//! over [`BlueScaleInterconnect`]) advances the whole tree one cycle at a
//! time. At 65k–1M clients the leaf sweeps and the due clients' releases
//! dominate wall-clock, and they are embarrassingly parallel across the
//! root's subtrees: a request born under level-1 SE `q` never touches the
//! state of any other subtree until it reaches the root's port `q`, and a
//! response re-enters subtree `q` only through the root's demultiplexer.
//!
//! [`ShardedSystem`] exploits exactly that cut (conservative PDES, DESIGN.md
//! §14). Each level-1 subtree becomes a *shard* — a private
//! [`SoaCore`] covering global depths `1..levels` plus the subtree's traffic
//! generators and metrics delta buffers — advanced by a pool of workers.
//! The coordinator owns the root SE and the root's memory side — the same
//! [`MemorySide`] type the serial engines drive — and the same
//! [`HarnessCore`] as the serial harness, and runs the root's GEDF argmin
//! over the shards' boundary offers between two barrier-fenced parallel
//! regions per cycle. The client phase, response accounting, verdict
//! tallies, fast-forward loop and telemetry chunking are the serial
//! harness's own code (`bluescale_interconnect::system`), so the only
//! sharded-specific logic is the cut itself. The §11 lookahead contract
//! (`next_event_hint`) makes the root-arbitration barrier
//! conservative-safe: no shard can produce a boundary event earlier than
//! its reported hint, so jumping idle stretches in closed form remains
//! exact.
//!
//! The serial engine stays the bit-identity oracle:
//! `tests/shard_differential.rs` pins counts, per-client counts, per-SE
//! forwards, per-port grants/replenishments and full sample sequences
//! identical at 1/2/4/8 workers across dense, sparse, work-conserving,
//! churn and fault scenarios. Worker count is a pure wall-clock knob — the
//! schedule below never depends on it.
//!
//! Worker panics are contained: a panic inside a shard advance is caught
//! at the shard boundary, surfaced as [`ShardError::WorkerPanicked`], and
//! the rest of the run continues on the serial engine over the surviving
//! state (`ShardFallbacks` counts the demotion). A degraded run completes
//! but is *not* bit-identical — the interrupted cycle was half-applied.

use crate::memory_side::{stuck_mask, MemorySide};
use crate::network::{BlueScaleInterconnect, BuildError, CompositionReport};
use crate::soa::SoaCore;
use crate::topology::BlueScaleConfig;
use bluescale_interconnect::admission::{ChurnPlan, ReconfigOutcome};
use bluescale_interconnect::calendar::Clients;
use bluescale_interconnect::client::TrafficGenerator;
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::system::{self, run_span, Driver, HarnessCore, Stepper};
use bluescale_interconnect::{ClientId, MemoryRequest, MemoryResponse};
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::FaultPlan;
use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry};
use bluescale_sim::Cycle;
use bluescale_telemetry::Pipeline;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// A contained shard-worker failure. A panicking worker used to propagate
/// through the scoped-thread join and abort the whole run; it is now caught
/// at the shard boundary, the threaded engine is retired for the remainder
/// of the run, and the serial SoA path drives the surviving state instead
/// (best-effort: the interrupted cycle may have been half-applied, so a
/// degraded run is *not* bit-identical to an undisturbed one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// A worker panicked while advancing `shard` at cycle `at`.
    WorkerPanicked {
        /// The level-1 subtree whose advance panicked.
        shard: usize,
        /// Simulation cycle of the interrupted advance.
        at: Cycle,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::WorkerPanicked { shard, at } => write!(
                f,
                "shard {shard} worker panicked at cycle {at}; \
                 continuing on the serial engine (degraded, not bit-identical)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Sentinel for "no worker failure" in [`Ctrl::failed`].
const NO_FAILURE: usize = usize::MAX;

/// Locks a shard, tolerating poison: a contained worker panic poisons the
/// shard's mutex, and the failure bookkeeping, the serial fallback and any
/// later reconfiguration must still reach the surviving state. The data is
/// a plain simulation core — no invariant depends on the interrupted
/// critical section having completed, beyond the documented loss of
/// bit-identity.
fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One level-1 subtree: a private slice of the tree plus everything a
/// worker needs to advance it without touching shared state.
///
/// Local coordinates: the shard's core has `levels - 1` levels; its local
/// SE `(d, o)` is the global SE `(d + 1, q·branch^d + o)`. Fault-plan
/// queries use global coordinates (the plan is written against the full
/// tree), metrics deltas are recorded locally and remapped on flush.
struct Shard {
    /// Which root port this subtree feeds (= the level-1 SE's order).
    q: usize,
    branch: usize,
    /// Levels in the *local* core (= global levels - 1).
    levels: usize,
    /// First global client id owned by this subtree.
    client_lo: usize,
    core: SoaCore,
    clients: Clients,
    /// Read-only clone of the fault plan for worker-side queries
    /// (multipliers, bursts, stuck masks — all stateless lookups).
    faults: FaultPlan,
    /// Harness-side counters (Issued/Rejected/FaultsInjected), merged into
    /// the coordinator's registry on flush.
    harness_delta: MetricsRegistry,
    /// Fabric-side counters (Enqueued, per-SE fault tallies), merged into
    /// the coordinator's fabric registry on flush.
    fabric_delta: MetricsRegistry,
    /// Responses delivered by this subtree's leaves this cycle, in local
    /// leaf order; the coordinator drains shards in `q` order, which is
    /// exactly the serial engine's global leaf order.
    ready: Vec<MemoryResponse>,
    /// This cycle's boundary offer: the local root's grant, destined for
    /// root port `q`. Pushed by the coordinator after the region-B barrier.
    offer: Option<MemoryRequest>,
    /// Test probe: panic inside the next `advance_front` whose cycle is
    /// `>= panic_at` (fire-once). Exercises the worker-panic containment
    /// path without needing a genuinely buggy kernel.
    panic_at: Option<Cycle>,
}

impl Shard {
    /// Region A: the cycle's client phase plus the subtree's response
    /// demultiplexers — everything that happens before root arbitration
    /// and that touches only this shard's state.
    fn advance_front(&mut self, now: Cycle) {
        if self.panic_at.is_some_and(|at| at <= now) {
            self.panic_at = None;
            panic!("injected shard-worker panic (test probe) at cycle {now}");
        }
        // 1. The harness's client phase, restricted to this subtree. Each
        //    client owns a dedicated leaf port, so clients are independent
        //    and the per-shard split is exact.
        let (core, fabric_delta) = (&mut self.core, &mut self.fabric_delta);
        let (leaf, branch, client_lo) = (self.levels - 1, self.branch, self.client_lo);
        self.clients
            .phase(&self.faults, &mut self.harness_delta, now, |req| {
                let owner = req.client;
                let local = owner as usize - client_lo;
                core.try_accept(leaf, local / branch, local % branch, req)?;
                fabric_delta.inc(ComponentId::Client(owner), Counter::Enqueued);
                Ok(())
            });
        // 2. Response path, bottom-up. Global depths `levels..1` are local
        //    depths `levels-1..0`; the global depth-0 (root) leg runs
        //    coordinator-side after the barrier, so its push lands here
        //    next cycle — the serial order, where the root demux is
        //    processed last.
        let ready = &mut self.ready;
        self.core.route_responses(self.client_lo, |request| {
            ready.push(MemoryResponse {
                request,
                completed_at: now,
            });
        });
    }

    /// Region B: the subtree's arbitration sweep. `root_ready` is the
    /// coordinator's post-arbitration `can_accept` verdict for root port
    /// `q`; the local root's grant becomes this cycle's boundary offer.
    fn advance_back(&mut self, now: Cycle, root_ready: bool) {
        debug_assert!(self.offer.is_none(), "boundary offer was not collected");
        self.offer = self.step_local(0, 0, now, root_ready);
        // Deeper levels forward one request per SE toward their parents
        // (global depths `2..levels` — the parents are all shard-local).
        for depth in 1..self.levels {
            for order in 0..self.branch.pow(depth as u32) {
                let parent_order = order / self.branch;
                let port = order % self.branch;
                let ready = self.core.can_accept(depth - 1, parent_order, port);
                if let Some(request) = self.step_local(depth, order, now, ready) {
                    self.core
                        .try_accept(depth - 1, parent_order, port, request)
                        .expect("parent advertised a free slot");
                }
            }
        }
        // Server countdowns for the whole subtree, fused into one sweep.
        self.core.tick_all();
    }

    /// One batched arbitration of local SE `(depth, order)`, with the
    /// fault mask looked up under *global* coordinates and tallied into
    /// the shard's fabric delta.
    fn step_local(
        &mut self,
        depth: usize,
        order: usize,
        now: Cycle,
        ready: bool,
    ) -> Option<MemoryRequest> {
        let mask = if self.faults.is_empty() {
            None
        } else {
            let global_order = self.q * self.branch.pow(depth as u32) + order;
            let (plan, delta) = (&self.faults, &mut self.fabric_delta);
            stuck_mask(plan, depth + 1, global_order, self.branch, now, delta)
        };
        self.core
            .step_se_batched(depth, order, now, ready, mask.as_deref())
    }

    fn pending(&self) -> usize {
        self.core.buffered() + self.core.responses_queued() + self.ready.len()
    }
}

/// Everything outside the shards: the root SE, the root's memory side,
/// the fabric registry and the harness state. Split from the shard vector
/// so the coordinator can hold `&mut` state while workers hold the shard
/// locks.
struct Coordinator {
    /// Admission control and composition analysis only — its legacy
    /// elements are never stepped (`soa_core` forced off).
    analysis: BlueScaleInterconnect,
    config: BlueScaleConfig,
    branch: usize,
    num_clients: usize,
    clients_per_shard: usize,
    /// A one-level core holding just the root SE (global `(0,0)`).
    root: SoaCore,
    /// Memory controller, memory policy and the stateful interconnect-side
    /// fault plan — the serial engines' memory side, fed absolute cycles
    /// only, so it stays in lock-step with them.
    mem: MemorySide,
    /// Fabric-side registry, indexed exactly like the serial
    /// interconnect's internal one.
    fabric: MetricsRegistry,
    /// Harness state shared with the serial harness: clock, service log,
    /// master fault and churn plans, the harness registry (System/Client
    /// aggregates + churn verdicts), fast-forward tallies and telemetry.
    core: HarnessCore,
}

/// Shared coordination state for one threaded run.
struct Ctrl {
    barrier: Barrier,
    now: AtomicU64,
    stop: AtomicBool,
    /// Root-port `can_accept` verdicts, written by the coordinator after
    /// root arbitration, read by workers in region B. The barrier between
    /// write and read provides the happens-before edge; `Relaxed` is
    /// enough.
    root_ready: Vec<AtomicBool>,
    /// First failed shard (`NO_FAILURE` = healthy). Written by the first
    /// worker to catch a panic; once set, every worker skips its shard
    /// work but keeps hitting the barriers, so the coordinator can never
    /// deadlock on a dead participant.
    failed: AtomicUsize,
}

impl Ctrl {
    /// Runs `region` on shards `first, first + stride, …`, catching a
    /// panic at the shard boundary. The first failure is published in
    /// `failed` and ends the region early (`false`).
    fn run_region(
        &self,
        shards: &[Mutex<Shard>],
        first: usize,
        stride: usize,
        region: impl Fn(&mut Shard),
    ) -> bool {
        for q in (first..shards.len()).step_by(stride) {
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| region(&mut lock_shard(&shards[q]))));
            if outcome.is_err() {
                let _ = self.failed.compare_exchange(
                    NO_FAILURE,
                    q,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                return false;
            }
        }
        true
    }
}

impl Coordinator {
    /// Pre-cycle serial work: due reconfigurations, then client-side
    /// fault-window announcements — exactly the serial harness prologue.
    fn pre_phase(&mut self, shards: &[Mutex<Shard>], now: Cycle) {
        if !self.core.churn.is_empty() {
            while let Some(spec) = self.core.churn.take_due(now) {
                let tasks = spec.kind.requested_tasks();
                self.apply_reconfiguration(shards, spec.client, &tasks, now);
            }
        }
        if !self.core.faults.is_empty() {
            self.core.announce_client_faults(now);
        }
    }

    /// Mid-cycle serial work, between the two parallel regions: the root
    /// demultiplexer, memory completion, root GEDF arbitration and the
    /// memory issue — the serial engine's phases 1 (depth 0 leg), 2 and 3.
    /// Writes the post-arbitration per-port `can_accept` verdicts into
    /// `root_ready`.
    fn mid_phase(&mut self, shards: &[Mutex<Shard>], now: Cycle, root_ready: &mut [bool]) {
        // Root demux: route one response per cycle into the owning
        // subtree's local root demux (global depth-1 SE `q` *is* shard
        // `q`'s local `(0,0)`). The shard already ran its response sweep
        // this cycle, so the push is observed next cycle — serial order.
        if self.root.responses_at_level(0) > 0 {
            if let Some(request) = self.root.pop_response(0, 0) {
                let q = request.client as usize / self.clients_per_shard;
                lock_shard(&shards[q]).core.accept_response(0, 0, request);
            }
        }
        if let Some(done) = self.mem.complete(now, &mut self.fabric) {
            self.root.accept_response(0, 0, done);
        }
        // Root arbitration feeds the memory controller. The root's port
        // queues still hold last cycle's boundary offers — pushes happen
        // in the post phase, after this cycle's arbitration, exactly as
        // the serial phase-4 ordering has it.
        let ready = self.mem.can_accept();
        let root = &self.root;
        let mask = self
            .mem
            .root_mask(now, ready, self.branch, &mut self.fabric, |port| {
                root.peek_head(0, 0, port)
            });
        if let Some(request) = self.root.step_se_batched(0, 0, now, ready, mask.as_deref()) {
            let event = self.mem.issue(request, now, &mut self.fabric);
            self.core.service_log.push(event);
        }
        // Each boundary offer targets its own dedicated root port, so the
        // verdicts can be taken for all ports at once.
        for (q, slot) in root_ready.iter_mut().enumerate() {
            *slot = self.root.can_accept(0, 0, q);
        }
    }

    /// Post-cycle serial work: collect boundary offers into the root's
    /// ports (shard order = port order), account delivered responses
    /// (shard order = the serial engine's global leaf order), tick the
    /// root's servers, advance time.
    fn post_phase(&mut self, shards: &[Mutex<Shard>]) {
        for shard in shards {
            let mut s = lock_shard(shard);
            let q = s.q;
            if let Some(request) = s.offer.take() {
                self.root
                    .try_accept(0, 0, q, request)
                    .expect("root advertised a free slot");
            }
            for resp in s.ready.drain(..) {
                self.core.record_response(resp);
            }
        }
        self.root.tick_all();
        self.core.now += 1;
    }

    /// The serial harness's reconfiguration path, with the engine
    /// programming routed to the root/shard cores. Admission is decided by
    /// the analysis interconnect on cloned tables; a rejection writes
    /// nothing anywhere.
    fn apply_reconfiguration(
        &mut self,
        shards: &[Mutex<Shard>],
        client: ClientId,
        tasks: &TaskSet,
        now: Cycle,
    ) {
        if client as usize >= self.num_clients {
            self.core.reject_unknown_client(client, now);
            return;
        }
        let outcome = match self.analysis.commit_reconfiguration(client as usize, tasks) {
            Some(trial) => {
                let mut transition_cycles = 0;
                for (depth, order, ifaces) in &trial {
                    transition_cycles += if *depth == 0 {
                        self.root.program_se_deferred(0, 0, ifaces)
                    } else {
                        let per = self.branch.pow((*depth - 1) as u32);
                        lock_shard(&shards[order / per]).core.program_se_deferred(
                            *depth - 1,
                            order % per,
                            ifaces,
                        )
                    };
                }
                // Mirror the serial fabric's gauge (the analysis registry
                // itself is never merged).
                self.fabric.set_gauge(
                    ComponentId::System,
                    "root_bandwidth",
                    self.analysis.composition().root_bandwidth,
                );
                ReconfigOutcome::Admitted { transition_cycles }
            }
            None => ReconfigOutcome::Rejected,
        };
        if self.core.account_reconfiguration(client, now, &outcome) {
            let mut s = lock_shard(&shards[client as usize / self.clients_per_shard]);
            let local = client as usize - s.client_lo;
            s.clients.retask(local, tasks, now);
        }
    }

    /// The split-core counterpart of the serial `next_event_hint` (§11):
    /// busy anywhere → step now; otherwise the memory side bounds the
    /// jump.
    fn next_event_hint(&self, shards: &[Mutex<Shard>], now: Cycle) -> Cycle {
        if !self.root.is_quiescent() {
            return now;
        }
        for shard in shards {
            let s = lock_shard(shard);
            if !s.core.is_quiescent() || !s.ready.is_empty() {
                return now;
            }
        }
        self.mem.idle_bound(now)
    }

    /// The cycle to jump to when every layer promises nothing happens
    /// before it (the serial target, minus guards).
    fn fast_forward_target(&self, shards: &[Mutex<Shard>], horizon: Cycle) -> Option<Cycle> {
        let now = self.core.now;
        let hint = self.next_event_hint(shards, now);
        let clients = shards.iter().map(|s| lock_shard(s).clients.next_event(now));
        self.core.jump_target(horizon, hint, clients)
    }

    /// Replays `delta` provably-idle cycles in closed form on the root
    /// and every shard core.
    fn advance_idle(&mut self, shards: &[Mutex<Shard>], delta: Cycle) {
        self.root.advance_idle(delta);
        for shard in shards {
            lock_shard(shard).core.advance_idle(delta);
        }
    }

    /// Folds every batched tally into the two registries: memory-controller
    /// counters, the root core's deltas (identity coordinates), each shard
    /// core's deltas (remapped to global coordinates) and the per-shard
    /// harness/fabric delta registries. Idempotent.
    fn flush(&mut self, shards: &[Mutex<Shard>]) {
        self.mem.controller().record_metrics(&mut self.fabric);
        self.root.flush_metrics(&mut self.fabric);
        for shard in shards {
            let mut s = lock_shard(shard);
            let (q, branch) = (s.q, s.branch);
            s.core
                .flush_metrics_mapped(&mut self.fabric, |depth, order| {
                    (depth + 1, q * branch.pow(depth as u32) + order)
                });
            self.core.registry.merge(&s.harness_delta);
            self.fabric.merge(&s.fabric_delta);
            s.harness_delta = MetricsRegistry::new();
            s.fabric_delta = MetricsRegistry::new();
        }
    }
}

/// One run of the cycle schedule under the shared run loop: inline
/// (`ctrl: None`) or with the two shard regions on the parked workers.
/// Both modes run the same phase implementations in the same order.
struct Schedule<'a> {
    coord: &'a mut Coordinator,
    shards: &'a [Mutex<Shard>],
    ctrl: Option<&'a Ctrl>,
    root_ready: Vec<bool>,
    /// Cycle at which a worker failure was observed (threaded mode).
    failed_at: Cycle,
}

impl Stepper for Schedule<'_> {
    fn core(&mut self) -> &mut HarnessCore {
        &mut self.coord.core
    }

    fn jump_target(&mut self, horizon: Cycle) -> Option<Cycle> {
        self.coord.fast_forward_target(self.shards, horizon)
    }

    fn advance_idle(&mut self, delta: Cycle) {
        self.coord.advance_idle(self.shards, delta);
    }

    fn step(&mut self) -> bool {
        let (coord, shards) = (&mut *self.coord, self.shards);
        let now = coord.core.now;
        coord.pre_phase(shards, now);
        match self.ctrl {
            None => {
                for shard in shards {
                    lock_shard(shard).advance_front(now);
                }
            }
            Some(ctrl) => {
                ctrl.now.store(now, Ordering::Relaxed);
                ctrl.barrier.wait(); // region A release
                ctrl.barrier.wait(); // region A join
            }
        }
        coord.mid_phase(shards, now, &mut self.root_ready);
        match self.ctrl {
            None => {
                for shard in shards {
                    let mut s = lock_shard(shard);
                    let ready = self.root_ready[s.q];
                    s.advance_back(now, ready);
                }
            }
            Some(ctrl) => {
                for (q, &ready) in self.root_ready.iter().enumerate() {
                    ctrl.root_ready[q].store(ready, Ordering::Relaxed);
                }
                ctrl.barrier.wait(); // region B release
                ctrl.barrier.wait(); // region B join
            }
        }
        coord.post_phase(shards);
        // The barrier gives the happens-before edge on `failed`. The
        // interrupted cycle is half-applied; finishing the post phase
        // keeps root offers and time consistent before the serial engine
        // takes over.
        if self
            .ctrl
            .is_some_and(|ctrl| ctrl.failed.load(Ordering::Acquire) != NO_FAILURE)
        {
            self.failed_at = now;
            return false;
        }
        true
    }
}

/// A deterministic parallel twin of the serial harness: same inputs, same
/// seed, bit-identical outputs at any worker count (see the module docs).
///
/// Not supported in sharded mode (use the serial harness): detail
/// recording, because typed events are inherently sequential — their
/// order is the serial engine's per-cycle interleaving, which the
/// parallel regions deliberately give up — and runtime guards, because a
/// watchdog re-injection enters a leaf port from the harness and would
/// cross a shard boundary mid-cycle.
pub struct ShardedSystem {
    coord: Coordinator,
    shards: Vec<Mutex<Shard>>,
    workers: usize,
    /// A contained worker failure. Once set, every subsequent advance runs
    /// on the serial engine (`ShardFallbacks` counts the demotion).
    error: Option<ShardError>,
}

/// [`ShardedSystem`] as seen by the shared telemetry-chunked advance.
struct Spans<'a>(&'a mut ShardedSystem);

impl Driver for Spans<'_> {
    fn core(&mut self) -> &mut HarnessCore {
        &mut self.0.coord.core
    }

    fn advance_span(&mut self, horizon: Cycle) {
        self.0.advance_span(horizon);
    }

    fn sources(&mut self) -> (&mut HarnessCore, Option<&MetricsRegistry>) {
        let sys = &mut *self.0;
        sys.coord.flush(&sys.shards);
        (&mut sys.coord.core, Some(&sys.coord.fabric))
    }
}

impl ShardedSystem {
    /// Builds the sharded system: one shard per level-1 subtree, a
    /// one-level root core, and an analysis-only interconnect for
    /// admission control. `workers` is clamped to the shard count (the
    /// root's branching factor); it never affects results.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from interface selection, exactly as the
    /// serial constructor does.
    ///
    /// # Panics
    ///
    /// Panics when the topology has fewer than two levels — a single-SE
    /// tree has no level-1 subtrees to shard; use the serial harness.
    pub fn new(
        config: BlueScaleConfig,
        task_sets: &[TaskSet],
        workers: usize,
    ) -> Result<Self, BuildError> {
        let mut acfg = config.clone();
        acfg.soa_core = false;
        let analysis = BlueScaleInterconnect::new(acfg, task_sets)?;
        Ok(Self::with_analysis(config, analysis, task_sets, workers))
    }

    /// Builds the sharded system around a prebuilt analysis interconnect,
    /// skipping interface selection. Construction at large client counts
    /// is dominated by the per-SE selection math, which depends only on
    /// the workload — a sweep comparing worker counts on one workload
    /// pays it once and clones the analysis per call.
    ///
    /// `analysis` should be built with [`BlueScaleConfig::soa_core`]
    /// disabled (it serves admission control only; [`Self::new`] does
    /// exactly that).
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was sized for a different client count than
    /// `task_sets`, if `workers` is zero, or on a single-level topology
    /// (a single-SE tree has no level-1 subtrees to shard; use the
    /// serial harness).
    pub fn with_analysis(
        config: BlueScaleConfig,
        analysis: BlueScaleInterconnect,
        task_sets: &[TaskSet],
        workers: usize,
    ) -> Self {
        assert!(workers >= 1, "at least one worker is required");
        assert_eq!(
            analysis.config().num_clients,
            task_sets.len(),
            "analysis interconnect was sized for a different client count"
        );
        let levels = config.levels();
        assert!(
            levels >= 2,
            "sharded simulation needs >= 2 tree levels (more clients than `branch`); \
             use the serial harness for single-SE topologies"
        );
        let branch = config.branch;
        let interfaces = &analysis.composition().interfaces;

        let mut rcfg = config.clone();
        rcfg.num_clients = branch;
        debug_assert_eq!(rcfg.levels(), 1);
        let root = SoaCore::new(&rcfg, &[interfaces[0].clone()]);

        let clients_per_shard = branch.pow((levels - 1) as u32);
        let mut scfg = config.clone();
        scfg.num_clients = clients_per_shard;
        debug_assert_eq!(scfg.levels(), levels - 1);
        let num_clients = task_sets.len();
        let shards = (0..branch)
            .map(|q| {
                let sub: Vec<Vec<Vec<_>>> = (0..levels - 1)
                    .map(|d| {
                        let per = branch.pow(d as u32);
                        (0..per)
                            .map(|o| interfaces[d + 1][q * per + o].clone())
                            .collect()
                    })
                    .collect();
                let client_lo = q * clients_per_shard;
                let hi = ((q + 1) * clients_per_shard).min(num_clients);
                let clients = Clients::new(
                    (client_lo.min(hi)..hi)
                        .map(|i| TrafficGenerator::new(i as ClientId, &task_sets[i]))
                        .collect(),
                );
                Mutex::new(Shard {
                    q,
                    branch,
                    levels: levels - 1,
                    client_lo,
                    core: SoaCore::new(&scfg, &sub),
                    clients,
                    faults: FaultPlan::default(),
                    harness_delta: MetricsRegistry::new(),
                    fabric_delta: MetricsRegistry::new(),
                    ready: Vec::new(),
                    offer: None,
                    panic_at: None,
                })
            })
            .collect();
        let mut fabric = MetricsRegistry::new();
        fabric.set_gauge(
            ComponentId::System,
            "root_bandwidth",
            analysis.composition().root_bandwidth,
        );
        Self {
            coord: Coordinator {
                analysis,
                branch,
                num_clients,
                clients_per_shard,
                root,
                mem: MemorySide::new(&config),
                fabric,
                core: HarnessCore::default(),
                config,
            },
            shards,
            workers: workers.min(branch).max(1),
            error: None,
        }
    }

    /// The contained worker failure, if any advance so far panicked in a
    /// worker ([`ShardError::WorkerPanicked`]). A degraded system keeps
    /// running — on the serial engine — and keeps this as the permanent
    /// record of the demotion.
    pub fn shard_error(&self) -> Option<&ShardError> {
        self.error.as_ref()
    }

    /// Test probe: make `shard`'s worker panic at the first region-A
    /// advance whose cycle is `>= at` (fire-once). Exercises the
    /// containment path; not part of the public API surface.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[doc(hidden)]
    pub fn inject_worker_panic(&mut self, shard: usize, at: Cycle) {
        assert!(shard < self.shards.len(), "shard out of range");
        self.shards[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .panic_at = Some(at);
    }

    /// Installs a fault plan: the stateful master stays coordinator-side,
    /// each worker gets a read-only clone for its stateless queries.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.coord.mem.install_faults(&plan);
        for shard in &mut self.shards {
            let s = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
            s.faults = plan.clone();
            s.faults.reset_state();
        }
        self.coord.core.faults = plan;
    }

    /// Installs a churn plan (applied-state reset, like the serial setter).
    pub fn set_churn_plan(&mut self, mut plan: ChurnPlan) {
        plan.reset_state();
        self.coord.core.churn = plan;
    }

    /// Enables or disables next-event fast-forward (on by default;
    /// results are bit-identical either way).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.coord.core.config.fast_forward = on;
    }

    /// Idle jumps taken so far.
    pub fn fast_forward_jumps(&self) -> u64 {
        self.coord.core.ff_jumps
    }

    /// Cycles skipped in closed form so far.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.coord.core.ff_skipped
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.coord.core.now
    }

    /// Effective worker count (clamped to the shard count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The (global) configuration.
    pub fn config(&self) -> &BlueScaleConfig {
        &self.coord.config
    }

    /// The admission-control composition report.
    pub fn composition(&self) -> &CompositionReport {
        self.coord.analysis.composition()
    }

    /// The harness-level registry (System and Client aggregates). Exact
    /// after a `run`/flush; per-shard deltas may be pending mid-run.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.coord.core.registry
    }

    /// The fabric registry (per-SE/port/bank tallies under global
    /// coordinates), flushed — indexed exactly like the serial
    /// interconnect's internal registry.
    pub fn fabric_metrics(&mut self) -> &MetricsRegistry {
        self.coord.flush(&self.shards);
        &self.coord.fabric
    }

    /// Harness + fabric in one snapshot, flushed — mirrors the serial
    /// `System::merged_registry`.
    pub fn merged_registry(&mut self) -> MetricsRegistry {
        self.coord.flush(&self.shards);
        let mut merged = self.coord.core.registry.clone();
        merged.merge(&self.coord.fabric);
        merged
    }

    /// Per-SE forwarded-request counters, `[depth][order]` under global
    /// coordinates — mirrors the serial `forward_counts`.
    pub fn forward_counts(&mut self) -> Vec<Vec<u64>> {
        self.coord.flush(&self.shards);
        let levels = self.coord.config.levels();
        (0..levels)
            .map(|depth| {
                (0..self.coord.branch.pow(depth as u32))
                    .map(|order| {
                        self.coord
                            .fabric
                            .counter(ComponentId::Se { depth, order }, Counter::Forwarded)
                    })
                    .collect()
            })
            .collect()
    }

    /// Metrics broken down per client, from the harness registry's
    /// per-client slices (exact after a `run`).
    pub fn per_client_metrics(&self) -> Vec<RunMetrics> {
        (0..self.coord.num_clients)
            .map(|c| {
                RunMetrics::from_registry(&self.coord.core.registry, ComponentId::Client(c as u32))
            })
            .collect()
    }

    /// Requests currently inside the fabric or the memory controller.
    pub fn pending(&self) -> usize {
        let in_service = usize::from(!self.coord.mem.can_accept());
        let root = self.coord.root.buffered() + self.coord.root.responses_queued();
        root + in_service
            + self
                .shards
                .iter()
                .map(|s| lock_shard(s).pending())
                .sum::<usize>()
    }

    /// Runs until `horizon` cycles have elapsed, then accounts
    /// still-pending client-side requests exactly as the serial harness
    /// does. Returns the aggregate metrics.
    pub fn run(&mut self, horizon: Cycle) -> RunMetrics {
        self.advance_to(horizon);
        let core = &mut self.coord.core;
        let mut metrics = RunMetrics::from_registry(&core.registry, ComponentId::System);
        for shard in &self.shards {
            core.account_backlog(&mut metrics, &mut lock_shard(shard).clients, horizon);
        }
        metrics
    }

    /// Steps (or fast-forwards) up to `horizon` without end-of-run
    /// accounting, then flushes all batched tallies. With telemetry
    /// attached the span is chunked at flush boundaries; chunking only
    /// moves where the coordinator pauses, never what it computes, so
    /// results stay bit-identical streaming on or off.
    pub fn advance_to(&mut self, horizon: Cycle) {
        system::advance_to(&mut Spans(self), horizon);
    }

    /// Attaches a telemetry pipeline, aligning its first flush one period
    /// past the current cycle. Returns the previously attached pipeline.
    pub fn attach_telemetry(&mut self, pipeline: Pipeline) -> Option<Pipeline> {
        self.coord.core.attach_telemetry(pipeline)
    }

    /// Detaches and returns the telemetry pipeline, if any.
    pub fn detach_telemetry(&mut self) -> Option<Pipeline> {
        self.coord.core.telemetry.take()
    }

    /// Whether a telemetry pipeline is attached.
    pub fn telemetry_attached(&self) -> bool {
        self.coord.core.telemetry.is_some()
    }

    /// Epochs flushed by the attached pipeline (0 when detached).
    pub fn telemetry_epochs(&self) -> u64 {
        self.coord.core.telemetry_epochs()
    }

    /// Final telemetry flush + sink finalization. Call after the run's
    /// end-of-run accounting so the stream's tail matches the final
    /// registries. Idempotent; no-op when detached.
    pub fn finish_telemetry(&mut self) {
        system::finish_telemetry(&mut Spans(self));
    }

    /// Flushes one telemetry epoch if the pipeline's boundary has been
    /// reached. Runs on the coordinator between spans; extraction is
    /// read-only on the (flushed) registries.
    pub fn flush_telemetry_due(&mut self) {
        system::flush_telemetry_due(&mut Spans(self));
    }

    /// One uninterrupted span: serial-or-threaded advance plus the
    /// coordinator flush that makes the registries exact.
    fn advance_span(&mut self, horizon: Cycle) {
        if self.workers <= 1 || self.error.is_some() {
            self.advance_serial(horizon);
        } else {
            self.advance_threaded(horizon);
            // A contained worker panic leaves the run short of the
            // horizon: finish it on the serial engine. Degraded, not
            // bit-identical — the interrupted cycle was half-applied.
            if self.error.is_some() && self.coord.core.now < horizon {
                self.advance_serial(horizon);
            }
        }
        self.coord.flush(&self.shards);
    }

    /// Single-worker path: the identical schedule, run inline. Used both
    /// as the 1-worker mode and as the reference the threaded path must
    /// match (they share every phase implementation).
    fn advance_serial(&mut self, horizon: Cycle) {
        let fast = self.coord.core.config.fast_forward;
        let mut schedule = Schedule {
            root_ready: vec![false; self.coord.branch],
            failed_at: self.coord.core.now,
            coord: &mut self.coord,
            shards: &self.shards,
            ctrl: None,
        };
        run_span(&mut schedule, horizon, fast);
    }

    /// Multi-worker path: persistent scoped threads, four barrier
    /// crossings per stepped cycle (release A, join A, release B, join B).
    /// Workers own shards `q ≡ w (mod workers)` and lock them only inside
    /// their regions; the coordinator runs pre/mid/post between barriers
    /// and fast-forwards while the workers are parked.
    fn advance_threaded(&mut self, horizon: Cycle) {
        let shards: &[Mutex<Shard>] = &self.shards;
        let start = self.coord.core.now;
        if start >= horizon {
            return;
        }
        let nworkers = self.workers;
        let ctrl = Ctrl {
            barrier: Barrier::new(nworkers + 1),
            now: AtomicU64::new(start),
            stop: AtomicBool::new(false),
            root_ready: (0..self.coord.branch)
                .map(|_| AtomicBool::new(false))
                .collect(),
            failed: AtomicUsize::new(NO_FAILURE),
        };
        let fast = self.coord.core.config.fast_forward;
        let mut failed_at = start;
        std::thread::scope(|scope| {
            for w in 0..nworkers {
                let ctrl = &ctrl;
                scope.spawn(move || loop {
                    ctrl.barrier.wait(); // region A release
                    if ctrl.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let now = ctrl.now.load(Ordering::Relaxed);
                    // Once any worker has failed, every worker skips its
                    // shard work but keeps hitting all four barriers:
                    // abandoning a barrier would deadlock the coordinator.
                    let healthy = ctrl.failed.load(Ordering::Acquire) == NO_FAILURE
                        && ctrl.run_region(shards, w, nworkers, |s| s.advance_front(now));
                    ctrl.barrier.wait(); // region A join
                    ctrl.barrier.wait(); // region B release
                    if healthy && ctrl.failed.load(Ordering::Acquire) == NO_FAILURE {
                        ctrl.run_region(shards, w, nworkers, |s| {
                            let ready = ctrl.root_ready[s.q].load(Ordering::Relaxed);
                            s.advance_back(now, ready);
                        });
                    }
                    ctrl.barrier.wait(); // region B join
                });
            }
            let mut schedule = Schedule {
                root_ready: vec![false; self.coord.branch],
                failed_at: start,
                coord: &mut self.coord,
                shards,
                ctrl: Some(&ctrl),
            };
            run_span(&mut schedule, horizon, fast);
            failed_at = schedule.failed_at;
            ctrl.stop.store(true, Ordering::Relaxed);
            ctrl.barrier.wait(); // wake workers into the stop check
        });
        let failed = ctrl.failed.load(Ordering::Acquire);
        if failed != NO_FAILURE {
            let registry = &mut self.coord.core.registry;
            registry.inc(ComponentId::System, Counter::ShardFallbacks);
            registry.record(
                failed_at,
                Event::ShardFallback {
                    shard: failed as u32,
                },
            );
            self.error = Some(ShardError::WorkerPanicked {
                shard: failed,
                at: failed_at,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_interconnect::admission::{ChurnKind, ChurnPlan};
    use bluescale_interconnect::system::System;
    use bluescale_rt::task::Task;

    fn sets(n: usize, period: u64, wcet: u64) -> Vec<TaskSet> {
        (0..n)
            .map(|_| TaskSet::new(vec![Task::new(0, period, wcet).unwrap()]).unwrap())
            .collect()
    }

    fn serial(sets: &[TaskSet]) -> System<BlueScaleInterconnect> {
        let config = BlueScaleConfig::for_clients(sets.len());
        let ic = BlueScaleInterconnect::new(config, sets).expect("valid task sets");
        System::new(Box::new(ic), sets)
    }

    fn sharded(sets: &[TaskSet], workers: usize) -> ShardedSystem {
        let config = BlueScaleConfig::for_clients(sets.len());
        ShardedSystem::new(config, sets, workers).expect("valid task sets")
    }

    #[test]
    fn with_analysis_matches_the_owning_constructor() {
        // The amortized constructor (one analysis build shared across
        // worker counts) must be indistinguishable from `new`.
        let sets = sets(16, 40, 2);
        let config = BlueScaleConfig::for_clients(16);
        let mut owned = ShardedSystem::new(config.clone(), &sets, 4).expect("valid task sets");

        let mut acfg = config.clone();
        acfg.soa_core = false;
        let analysis = BlueScaleInterconnect::new(acfg, &sets).expect("valid task sets");
        let mut shared = ShardedSystem::with_analysis(config, analysis.clone(), &sets, 4);

        owned.run(4_000);
        shared.run(4_000);
        assert_eq!(
            owned.merged_registry().to_json(),
            shared.merged_registry().to_json()
        );
        // The analysis handed over was cloned — still usable for the
        // next worker count.
        assert_eq!(
            analysis.composition().interfaces.len(),
            shared.config().levels()
        );
    }

    #[test]
    fn matches_serial_aggregates_on_a_dense_workload() {
        let sets = sets(16, 40, 2);
        let mut oracle = serial(&sets);
        let mut a = oracle.run(4_000);
        for workers in [1, 2, 4] {
            let mut sys = sharded(&sets, workers);
            let mut b = sys.run(4_000);
            assert!(a.issued() > 0);
            assert_eq!(a.issued(), b.issued(), "workers={workers}");
            assert_eq!(a.completed(), b.completed(), "workers={workers}");
            assert_eq!(a.missed(), b.missed(), "workers={workers}");
            assert_eq!(a.backlog(), b.backlog(), "workers={workers}");
            assert_eq!(
                a.latency().as_slice(),
                b.latency().as_slice(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn merged_registry_is_byte_identical_to_serial() {
        let sets = sets(16, 50, 1);
        let mut oracle = serial(&sets);
        oracle.run(3_000);
        let expected = oracle.merged_registry().to_json();
        for workers in [1, 4] {
            let mut sys = sharded(&sets, workers);
            sys.run(3_000);
            assert_eq!(
                sys.merged_registry().to_json(),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn churn_is_applied_identically() {
        let sets = sets(16, 400, 2);
        let plan = || {
            let mut plan = ChurnPlan::new(7);
            plan.push(
                500,
                3,
                ChurnKind::UpdateTasks {
                    tasks: TaskSet::new(vec![Task::new(0, 200, 2).unwrap()]).unwrap(),
                },
            )
            .push(900, 9, ChurnKind::Leave);
            plan
        };
        let mut oracle = serial(&sets);
        oracle.set_churn_plan(plan());
        oracle.run(2_000);
        let expected = oracle.merged_registry().to_json();
        let mut sys = sharded(&sets, 4);
        sys.set_churn_plan(plan());
        sys.run(2_000);
        assert_eq!(sys.merged_registry().to_json(), expected);
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::Admitted),
            2
        );
    }

    #[test]
    fn worker_count_is_clamped_to_the_shard_count() {
        let sets = sets(16, 40, 2);
        let sys = sharded(&sets, 8);
        assert_eq!(sys.workers(), 4);
    }

    #[test]
    #[should_panic(expected = "2 tree levels")]
    fn single_level_topologies_are_rejected() {
        let sets = sets(4, 40, 2);
        let config = BlueScaleConfig::for_clients(4);
        let _ = ShardedSystem::new(config, &sets, 2);
    }

    #[test]
    fn worker_panic_falls_back_to_serial() {
        // A shard worker panicking mid-run must not abort the simulation:
        // the failure is contained, recorded, and the remainder of the
        // horizon runs on the serial engine over the surviving state.
        let sets = sets(16, 40, 2);
        let mut sys = sharded(&sets, 4);
        sys.inject_worker_panic(2, 100);
        assert!(sys.shard_error().is_none(), "healthy before the probe");
        let m = sys.run(4_000);
        match sys.shard_error() {
            Some(&ShardError::WorkerPanicked { shard, at }) => {
                assert_eq!(shard, 2);
                assert!((100..4_000).contains(&at), "at={at}");
            }
            other => panic!("expected a contained worker panic, got {other:?}"),
        }
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::ShardFallbacks),
            1,
            "exactly one demotion to the serial engine"
        );
        assert!(
            m.issued() > 0 && m.completed() > 0,
            "the degraded run must still make progress to the horizon"
        );

        // A later advance stays on the serial engine and keeps the error.
        sys.advance_to(5_000);
        assert!(sys.shard_error().is_some());
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::ShardFallbacks),
            1,
            "the demotion is counted once, not per advance"
        );
    }

    #[test]
    fn churn_after_a_contained_worker_panic_reaches_the_poisoned_shard() {
        // The panic poisons shard 2's mutex; a later admitted churn event
        // for one of its clients must still program the shard's core and
        // retask its generator instead of panicking on the poisoned lock.
        let sets = sets(16, 400, 2);
        let mut sys = sharded(&sets, 4);
        sys.inject_worker_panic(2, 100);
        let mut plan = ChurnPlan::new(3);
        plan.push(
            500,
            9,
            ChurnKind::UpdateTasks {
                tasks: TaskSet::new(vec![Task::new(0, 200, 2).unwrap()]).unwrap(),
            },
        );
        sys.set_churn_plan(plan);
        sys.run(4_000);
        assert_eq!(sys.now(), 4_000, "the run reaches the horizon");
        let reg = sys.registry();
        assert_eq!(reg.counter(ComponentId::System, Counter::ShardFallbacks), 1);
        assert_eq!(reg.counter(ComponentId::System, Counter::Admitted), 1);
    }

    #[test]
    fn a_panic_free_run_reports_no_shard_error() {
        let sets = sets(16, 40, 2);
        let mut sys = sharded(&sets, 4);
        sys.run(2_000);
        assert!(sys.shard_error().is_none());
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::ShardFallbacks),
            0
        );
    }
}
