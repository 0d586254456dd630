//! Sharded deterministic parallel simulation over the SoA core.
//!
//! The serial harness ([`System`](bluescale_interconnect::system::System)
//! over [`BlueScaleInterconnect`](crate::BlueScaleInterconnect)) advances
//! the whole tree one cycle at a time. At 65k–1M clients the leaf sweeps
//! and the due clients' releases dominate wall-clock, and they are
//! embarrassingly parallel across the root's subtrees: a request born under level-1 SE `q` never touches the
//! state of any other subtree until it reaches the root's port `q`, and a
//! response re-enters subtree `q` only through the root's demultiplexer.
//!
//! [`ShardedSystem`] exploits exactly that cut (conservative PDES, DESIGN.md
//! §14). Each level-1 subtree becomes a *shard* — a private
//! [`SoaCore`] covering global depths `1..levels` plus the subtree's traffic
//! generators and metrics delta buffers — advanced by a pool of workers.
//! The coordinator owns the root SE and the root's memory side — the same
//! `MemorySide` type the serial engines drive — and the same
//! [`HarnessCore`] as the serial harness. Root arbitration reads only
//! state no shard writes mid-cycle (the root's port queues hold last
//! cycle's offers), so the coordinator runs it *before* the shards and
//! each cycle needs one parallel region: one release, every shard's whole
//! cycle, one join. The root demultiplexer's push into a shard waits in
//! that shard's inbox until the shard's own response sweep has run, which
//! is where the serial engine observes it. The client phase, response
//! accounting, verdict tallies, fast-forward loop and telemetry chunking
//! are the serial harness's own code (`bluescale_interconnect::system`),
//! so the only sharded-specific logic is the cut itself. The §11
//! lookahead contract (`next_event_hint`) makes root arbitration
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

use crate::composition::{check_config, BuildError, Composition, CompositionReport};
use crate::memory_side::{tally_stuck_ses, MemorySide};
use crate::network::Engine;
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
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// root port `q`. Pushed into the root by the coordinator after the
    /// join.
    offer: Option<MemoryRequest>,
    /// The root demultiplexer's push into the local root's response
    /// queue, written by the coordinator before the release and applied
    /// by [`Self::advance_front`] after the shard's own response sweep —
    /// the point where the serial engine, which demultiplexes the root
    /// last, makes it visible. Empty at every cycle boundary.
    inbox: Option<MemoryRequest>,
    /// The root port's post-arbitration `can_accept` verdict for this
    /// cycle, written by the coordinator before the release.
    root_ready: bool,
    /// Test probe: panic inside the next `advance_front` whose cycle is
    /// `>= panic_at` (fire-once). Exercises the worker-panic containment
    /// path without needing a genuinely buggy kernel.
    panic_at: Option<Cycle>,
}

impl Shard {
    /// The shard's whole cycle, after the coordinator's root
    /// arbitration.
    fn advance(&mut self, now: Cycle) {
        self.advance_front(now);
        self.advance_back(now);
    }

    /// The cycle's client phase plus the subtree's response
    /// demultiplexers, then the root demultiplexer's push.
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
        //    depths `levels-1..0`. The global depth-0 (root) leg ran
        //    coordinator-side before the release; its push lands only
        //    now, after the sweep, so it moves next cycle — the serial
        //    order, where the root demux is processed last.
        let ready = &mut self.ready;
        self.core.route_responses(self.client_lo, |request| {
            ready.push(MemoryResponse {
                request,
                completed_at: now,
            });
        });
        self.apply_inbox();
    }

    /// Delivers the root demultiplexer's push, if any, to the local root.
    fn apply_inbox(&mut self) {
        if let Some(request) = self.inbox.take() {
            self.core.accept_response(0, 0, request);
        }
    }

    /// The subtree's arbitration sweep. The local root's grant, gated by
    /// the root port's verdict, becomes this cycle's boundary offer; the
    /// deeper levels (global depths `2..`, parents all shard-local) run
    /// the serial engine's [`SoaCore::forward_levels`]. Fault-plan
    /// queries use global coordinates and tally into the shard's fabric
    /// delta.
    fn advance_back(&mut self, now: Cycle) {
        debug_assert!(self.offer.is_none(), "boundary offer was not collected");
        let (q, branch, levels) = (self.q, self.branch, self.levels);
        // Global SE `(d, o)` lies in this subtree iff `1 <= d <= levels`
        // and `o` falls in subtree `q`'s `branch^(d-1)` SEs at that depth.
        tally_stuck_ses(&self.faults, branch, now, &mut self.fabric_delta, |d, o| {
            (1..=levels).contains(&d) && o / branch.pow(d as u32 - 1) == q
        });
        let faults = &self.faults;
        let stuck = |depth: usize, order: usize| {
            let global_order = q * branch.pow(depth as u32) + order;
            faults.stuck_mask(depth + 1, global_order, branch, now)
        };
        self.offer = self
            .core
            .step_se_batched(0, 0, now, self.root_ready, stuck(0, 0));
        self.core.forward_levels(now, stuck, None);
        self.core.end_cycle();
    }

    fn pending(&self) -> usize {
        let inbox = usize::from(self.inbox.is_some());
        self.core.occupancy() + self.ready.len() + inbox
    }
}

/// Everything outside the shards: the root SE, the root's memory side,
/// the fabric registry and the harness state. Split from the shard vector
/// so the coordinator can hold `&mut` state while workers hold the shard
/// locks.
struct Coordinator {
    /// Admission control: the composition analysis the root and shard
    /// cores are programmed from.
    analysis: Composition,
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

/// Spin iterations a waiting [`Rendezvous`] participant makes before it
/// parks, when spinning fits the host.
const SPIN_LIMIT: u32 = 1 << 12;

/// Hardware threads available to this process, read once.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A reusable rendezvous of a fixed number of participants: nobody
/// returns from [`Self::wait`] of round `k` before all of them called it.
///
/// The last arriver resets the count and bumps the generation; everyone
/// else spins on the generation for a bounded number of iterations and
/// then parks on a condition variable. Spinning only pays when every
/// participant has a CPU of its own, so participants spin only when they
/// fit the host and park at once otherwise. The releaser takes the lock
/// only when someone is parked: a sleeper increments `sleepers` before
/// its last generation check and the releaser bumps the generation
/// before reading `sleepers`, all `SeqCst`, so either the sleeper sees
/// the new generation or the releaser sees the sleeper.
struct Rendezvous {
    parties: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Self::with_spin(parties, parties <= host_cpus())
    }

    fn with_spin(parties: usize, spin: bool) -> Self {
        Self {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Arrives and waits for the round's other participants. Everything
    /// a participant wrote before arriving happens-before everything any
    /// participant does after returning.
    fn wait(&self) {
        // The generation cannot move before this participant arrives.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.wake.notify_all();
            }
            return;
        }
        if self.spin {
            for _ in 0..SPIN_LIMIT {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared coordination state for one threaded run.
struct Ctrl {
    /// Two crossings per stepped cycle: the release after the
    /// coordinator's root arbitration and the join before its post phase.
    /// Its parties are the workers, coordinator included.
    rendezvous: Rendezvous,
    now: AtomicU64,
    stop: AtomicBool,
    /// First failed shard (`NO_FAILURE` = healthy). Written by the first
    /// worker to catch a panic; once set, every worker skips its shard
    /// work but keeps crossing the rendezvous, so nobody can deadlock on
    /// a dead participant.
    failed: AtomicUsize,
}

impl Ctrl {
    /// Worker `w`'s share of the cycle: the whole cycle of shards
    /// `q ≡ w (mod workers)`, each caught at the shard boundary. The first
    /// failure is published in `failed` and ends every worker's share.
    fn run_shards(&self, shards: &[Mutex<Shard>], w: usize) {
        let now = self.now.load(Ordering::Relaxed);
        for q in (w..shards.len()).step_by(self.rendezvous.parties) {
            if self.failed.load(Ordering::Acquire) != NO_FAILURE {
                return;
            }
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| lock_shard(&shards[q]).advance(now)));
            if outcome.is_err() {
                let _ = self.failed.compare_exchange(
                    NO_FAILURE,
                    q,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                return;
            }
        }
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

    /// Root work, before the shards run: the root demultiplexer, memory
    /// completion, root GEDF arbitration and the memory issue — the
    /// serial engine's phases 1 (depth 0 leg), 2 and 3. None of it reads
    /// state a shard writes this cycle. Writes each shard's inbox and
    /// post-arbitration root-port verdict.
    fn mid_phase(&mut self, shards: &[Mutex<Shard>], now: Cycle) {
        // Root demux: route one response per cycle towards the owning
        // subtree's local root demux (global depth-1 SE `q` *is* shard
        // `q`'s local `(0,0)`), through the shard's inbox.
        if self.root.responses_at_level(0) > 0 {
            if let Some(request) = self.root.pop_response(0, 0) {
                let q = request.client as usize / self.clients_per_shard;
                lock_shard(&shards[q]).inbox = Some(request);
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
        if let Some(request) = self.root.step_se_batched(0, 0, now, ready, mask) {
            let event = self.mem.issue(request, now, &mut self.fabric);
            self.core.service_log.push(event);
        }
        // Each boundary offer targets its own dedicated root port, so the
        // verdicts can be taken for all ports at once.
        for shard in shards {
            let mut s = lock_shard(shard);
            s.root_ready = self.root.can_accept(0, 0, s.q);
        }
    }

    /// Post-cycle serial work: collect boundary offers into the root's
    /// ports (shard order = port order), account delivered responses
    /// (shard order = the serial engine's global leaf order), close the
    /// root core's cycle, advance time.
    fn post_phase(&mut self, shards: &[Mutex<Shard>]) {
        for shard in shards {
            let mut s = lock_shard(shard);
            debug_assert!(s.inbox.is_none(), "root-demux push was not applied");
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
        self.root.end_cycle();
        self.core.now += 1;
    }

    /// The serial harness's reconfiguration path, with the engine
    /// programming routed to the root/shard cores. Admission is decided by
    /// the composition's trial; a rejection writes nothing anywhere.
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
        let outcome = match self.analysis.commit(client as usize, tasks) {
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
                // Mirror the serial fabric's gauge.
                self.fabric.set_gauge(
                    ComponentId::System,
                    "root_bandwidth",
                    self.analysis.report().root_bandwidth,
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
        if self.root.occupancy() > 0 {
            return now;
        }
        for shard in shards {
            let s = lock_shard(shard);
            if s.core.occupancy() > 0 || !s.ready.is_empty() {
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

    /// Replays `delta` provably-idle cycles on the root and every shard
    /// core (O(1) each: the countdowns are owed on each core's tick
    /// clock).
    fn advance_idle(&mut self, shards: &[Mutex<Shard>], delta: Cycle) {
        self.root.advance_idle(delta);
        for shard in shards {
            lock_shard(shard).core.advance_idle(delta);
        }
    }

    /// Merges each shard's harness delta into the harness registry, so
    /// `registry()` is exact between spans as the serial harness's is.
    /// Runs after every span.
    fn merge_harness(&mut self, shards: &[Mutex<Shard>]) {
        for shard in shards {
            let mut s = lock_shard(shard);
            self.core.registry.merge(&s.harness_delta);
            s.harness_delta = MetricsRegistry::new();
        }
    }

    /// Folds every batched fabric tally into the fabric registry:
    /// memory-controller counters, the root core's deltas (identity
    /// coordinates), each shard core's deltas (remapped to global
    /// coordinates) and the per-shard fabric delta registries. Runs when
    /// the fabric registry is read, not after every span. Idempotent.
    fn fold_fabric(&mut self, shards: &[Mutex<Shard>]) {
        self.mem.controller().record_metrics(&mut self.fabric);
        self.root.flush_metrics(&mut self.fabric);
        for shard in shards {
            let mut s = lock_shard(shard);
            let (q, branch) = (s.q, s.branch);
            s.core
                .flush_metrics_mapped(&mut self.fabric, |depth, order| {
                    (depth + 1, q * branch.pow(depth as u32) + order)
                });
            self.fabric.merge(&s.fabric_delta);
            s.fabric_delta = MetricsRegistry::new();
        }
    }
}

/// One run of the cycle schedule under the shared run loop: inline
/// (`ctrl: None`) or with the shards spread over the coordinator and its
/// parked helpers. Both modes run the same phase implementations in the
/// same order.
struct Schedule<'a> {
    coord: &'a mut Coordinator,
    shards: &'a [Mutex<Shard>],
    ctrl: Option<&'a Ctrl>,
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
        coord.mid_phase(shards, now);
        let healthy = match self.ctrl {
            None => {
                for shard in shards {
                    lock_shard(shard).advance(now);
                }
                true
            }
            Some(ctrl) => {
                ctrl.now.store(now, Ordering::Relaxed);
                ctrl.rendezvous.wait(); // release
                ctrl.run_shards(shards, 0);
                // The join orders every `failed` write before this load.
                ctrl.rendezvous.wait();
                ctrl.failed.load(Ordering::Acquire) == NO_FAILURE
            }
        };
        if !healthy {
            // The interrupted cycle is half-applied. Deliver the root
            // pushes that skipped shards never took and finish the post
            // phase, so root offers and time are consistent before the
            // serial engine takes over.
            for shard in shards {
                lock_shard(shard).apply_inbox();
            }
            self.failed_at = now;
        }
        coord.post_phase(shards);
        healthy
    }
}

/// A deterministic parallel twin of the serial harness: same inputs, same
/// seed, bit-identical outputs at any worker count (see the module docs).
///
/// Not supported in sharded mode (use the serial harness): detail
/// recording, because typed events are inherently sequential — their
/// order is the serial engine's per-cycle interleaving, which the
/// parallel region deliberately gives up — and runtime guards, because a
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
        sys.coord.fold_fabric(&sys.shards);
        (&mut sys.coord.core, Some(&sys.coord.fabric))
    }
}

impl ShardedSystem {
    /// Builds the sharded system: one shard per level-1 subtree, a
    /// one-level root core, and the [`Composition`] for admission
    /// control. `workers` is clamped to the shard count (the
    /// root's branching factor); it never affects results.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from interface selection, exactly as the
    /// serial constructor does, and returns [`BuildError::InvalidConfig`]
    /// for `num_clients` when the clients fit one SE (a single-SE tree has
    /// no level-1 subtrees to shard; use the serial harness) and for zero
    /// `workers`. Both are rejected before any interface is selected.
    pub fn new(
        config: BlueScaleConfig,
        task_sets: &[TaskSet],
        workers: usize,
    ) -> Result<Self, BuildError> {
        check_config(&config)?;
        if config.levels() < 2 {
            return Err(BuildError::InvalidConfig {
                field: "num_clients",
                value: config.num_clients,
            });
        }
        if workers == 0 {
            return Err(BuildError::InvalidConfig {
                field: "workers",
                value: 0,
            });
        }
        let analysis = Composition::new(config.clone(), task_sets)?;
        Ok(Self::with_analysis(config, analysis, task_sets, workers))
    }

    /// Builds the sharded system around a prebuilt composition, skipping
    /// interface selection. Construction at large client counts is
    /// dominated by the per-SE selection math, which depends only on the
    /// workload — a sweep comparing worker counts on one workload pays it
    /// once and clones the analysis per call. `analysis` is a
    /// [`Composition`] or anything that yields one, such as a built
    /// [`BlueScaleInterconnect`](crate::BlueScaleInterconnect), whose
    /// engine is then dropped.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was sized for a different client count than
    /// `task_sets`, if `workers` is zero, or on a single-level topology
    /// (a single-SE tree has no level-1 subtrees to shard; use the
    /// serial harness).
    pub fn with_analysis(
        config: BlueScaleConfig,
        analysis: impl Into<Composition>,
        task_sets: &[TaskSet],
        workers: usize,
    ) -> Self {
        let analysis = analysis.into();
        assert!(workers >= 1, "at least one worker is required");
        assert_eq!(
            analysis.config().num_clients,
            task_sets.len(),
            "analysis was sized for a different client count"
        );
        let levels = config.levels();
        assert!(
            levels >= 2,
            "sharded simulation needs >= 2 tree levels (more clients than `branch`); \
             use the serial harness for single-SE topologies"
        );
        let branch = config.branch;
        let interfaces = &analysis.report().interfaces;

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
                    inbox: None,
                    root_ready: false,
                    panic_at: None,
                })
            })
            .collect();
        let mut fabric = MetricsRegistry::new();
        fabric.set_gauge(
            ComponentId::System,
            "root_bandwidth",
            analysis.report().root_bandwidth,
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

    /// Test probe: make `shard`'s worker panic at the first shard
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
        self.coord.core.fast_forward = on;
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
        self.coord.analysis.report()
    }

    /// The harness-level registry (System and Client aggregates). Exact
    /// after every `advance_to` and `run`, as the serial harness's is.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.coord.core.registry
    }

    /// The fabric registry (per-SE/port/bank tallies under global
    /// coordinates), with every batched tally folded in — indexed exactly
    /// like the serial interconnect's internal registry. Spans leave
    /// those tallies pending; this read folds them.
    pub fn fabric_metrics(&mut self) -> &MetricsRegistry {
        self.coord.fold_fabric(&self.shards);
        &self.coord.fabric
    }

    /// Harness + fabric in one snapshot, folded — mirrors the serial
    /// `System::merged_registry`.
    pub fn merged_registry(&mut self) -> MetricsRegistry {
        self.coord.fold_fabric(&self.shards);
        let mut merged = self.coord.core.registry.clone();
        merged.merge(&self.coord.fabric);
        merged
    }

    /// Per-SE forwarded-request counters, `[depth][order]` under global
    /// coordinates — mirrors the serial `forward_counts`.
    pub fn forward_counts(&mut self) -> Vec<Vec<u64>> {
        self.coord.fold_fabric(&self.shards);
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
        let root = self.coord.root.occupancy();
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
    /// accounting, then merges the shards' harness deltas, so
    /// [`registry`](Self::registry) is exact. The fabric's batched tallies
    /// stay pending until a reader folds them: [`fabric_metrics`](Self::fabric_metrics),
    /// [`merged_registry`](Self::merged_registry), [`forward_counts`](Self::forward_counts)
    /// or a telemetry flush. With telemetry attached the span is chunked
    /// at flush boundaries; chunking only moves where the coordinator
    /// pauses, never what it computes, so results stay bit-identical
    /// streaming on or off.
    pub fn advance_to(&mut self, horizon: Cycle) {
        system::advance_to(&mut Spans(self), horizon);
    }

    /// Attaches a telemetry pipeline, aligning its first flush one period
    /// past the current cycle. Returns the previously attached pipeline.
    pub fn attach_telemetry(&mut self, pipeline: Pipeline) -> Option<Pipeline> {
        self.coord.core.attach_telemetry(pipeline)
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
    /// harness-delta merge that makes the harness registry exact.
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
        self.coord.merge_harness(&self.shards);
    }

    /// Single-worker path: the identical schedule, run inline. Used both
    /// as the 1-worker mode and as the reference the threaded path must
    /// match (they share every phase implementation).
    fn advance_serial(&mut self, horizon: Cycle) {
        let fast = self.coord.core.fast_forward;
        let mut schedule = Schedule {
            failed_at: self.coord.core.now,
            coord: &mut self.coord,
            shards: &self.shards,
            ctrl: None,
        };
        run_span(&mut schedule, horizon, fast);
    }

    /// Multi-worker path: the coordinator is worker 0 and spawns
    /// `workers - 1` scoped helpers for the span. Each stepped cycle
    /// crosses the rendezvous twice: the coordinator runs pre and root
    /// work, releases, advances its own shards alongside the helpers,
    /// joins and runs post. Worker `w` owns shards `q ≡ w (mod workers)`
    /// and locks them only between release and join; the helpers stay
    /// parked while the coordinator fast-forwards.
    fn advance_threaded(&mut self, horizon: Cycle) {
        let shards: &[Mutex<Shard>] = &self.shards;
        let start = self.coord.core.now;
        if start >= horizon {
            return;
        }
        let ctrl = Ctrl {
            rendezvous: Rendezvous::new(self.workers),
            now: AtomicU64::new(start),
            stop: AtomicBool::new(false),
            failed: AtomicUsize::new(NO_FAILURE),
        };
        let fast = self.coord.core.fast_forward;
        let mut failed_at = start;
        std::thread::scope(|scope| {
            for w in 1..self.workers {
                let ctrl = &ctrl;
                scope.spawn(move || loop {
                    ctrl.rendezvous.wait(); // release
                    if ctrl.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // After a failure every worker skips its shards but
                    // still crosses the join: abandoning it would
                    // deadlock the coordinator.
                    ctrl.run_shards(shards, w);
                    ctrl.rendezvous.wait(); // join
                });
            }
            let mut schedule = Schedule {
                failed_at: start,
                coord: &mut self.coord,
                shards,
                ctrl: Some(&ctrl),
            };
            run_span(&mut schedule, horizon, fast);
            failed_at = schedule.failed_at;
            ctrl.stop.store(true, Ordering::Relaxed);
            ctrl.rendezvous.wait(); // wake the helpers into the stop check
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
    use crate::BlueScaleInterconnect;
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
        // worker counts) must be indistinguishable from `new`, whether it
        // is handed a bare composition or a built default interconnect.
        let sets = sets(16, 40, 2);
        let config = BlueScaleConfig::for_clients(16);
        let mut owned = ShardedSystem::new(config.clone(), &sets, 4).expect("valid task sets");
        owned.run(4_000);
        let expected = owned.merged_registry().to_json();

        let analysis = Composition::new(config.clone(), &sets).expect("valid task sets");
        let mut shared = ShardedSystem::with_analysis(config.clone(), analysis.clone(), &sets, 4);
        shared.run(4_000);
        assert_eq!(shared.merged_registry().to_json(), expected);
        // The analysis handed over was cloned — still usable for the
        // next worker count.
        assert_eq!(analysis.report().interfaces.len(), shared.config().levels());

        let ic = BlueScaleInterconnect::new(config.clone(), &sets).expect("valid task sets");
        let mut built = ShardedSystem::with_analysis(config, ic, &sets, 4);
        built.run(4_000);
        assert_eq!(built.merged_registry().to_json(), expected);
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
    fn single_level_topologies_are_rejected() {
        let sets = sets(4, 40, 2);
        let config = BlueScaleConfig::for_clients(4);
        assert_eq!(
            ShardedSystem::new(config, &sets, 2).err(),
            Some(BuildError::InvalidConfig {
                field: "num_clients",
                value: 4
            })
        );
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
    fn a_panic_on_the_coordinator_owned_shard_is_contained() {
        // Shard 0 belongs to worker 0, the coordinator thread itself: its
        // panic must be caught and demoted exactly like a helper's.
        let sets = sets(16, 40, 2);
        let mut sys = sharded(&sets, 2);
        sys.inject_worker_panic(0, 100);
        let m = sys.run(4_000);
        match sys.shard_error() {
            Some(&ShardError::WorkerPanicked { shard: 0, at }) => {
                assert!((100..4_000).contains(&at), "at={at}");
            }
            other => panic!("expected a contained panic on shard 0, got {other:?}"),
        }
        assert_eq!(
            sys.registry()
                .counter(ComponentId::System, Counter::ShardFallbacks),
            1
        );
        assert_eq!(sys.now(), 4_000, "the run reaches the horizon");
        assert!(m.issued() > 0 && m.completed() > 0);
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

    /// `parties` threads cross `rounds` rounds; a shared arrival counter
    /// shows that nobody leaves round `k` before all parties arrived and
    /// nobody runs more than one round ahead. A lost wake-up hangs.
    fn cross_rounds(parties: usize, spin: bool, rounds: usize) {
        let rendezvous = Rendezvous::with_spin(parties, spin);
        let arrivals = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for round in 0..rounds {
                        arrivals.fetch_add(1, Ordering::Relaxed);
                        rendezvous.wait();
                        let seen = arrivals.load(Ordering::Relaxed);
                        let floor = parties * (round + 1);
                        assert!(
                            (floor..floor + parties).contains(&seen),
                            "parties={parties} spin={spin} round={round} seen={seen}"
                        );
                    }
                });
            }
        });
        assert_eq!(arrivals.into_inner(), parties * rounds);
    }

    #[test]
    fn rendezvous_holds_every_round_spinning_or_parked() {
        // Both modes at every size: on a small host the spin mode also
        // runs oversubscribed, where spinners exhaust the limit and park.
        for parties in 1..=8 {
            for spin in [true, false] {
                cross_rounds(parties, spin, 2_000);
            }
        }
    }

    #[test]
    fn rendezvous_spins_only_when_it_fits_the_host() {
        let cpus = host_cpus();
        assert!(Rendezvous::new(cpus).spin);
        assert!(!Rendezvous::new(cpus + 1).spin);
    }

    #[test]
    fn the_stop_release_wakes_every_parked_helper() {
        for spin in [true, false] {
            let helpers = 3;
            let rendezvous = Rendezvous::with_spin(helpers + 1, spin);
            let stop = AtomicBool::new(false);
            let exited = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(|| {
                        loop {
                            rendezvous.wait();
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            rendezvous.wait();
                        }
                        exited.fetch_add(1, Ordering::Relaxed);
                    });
                }
                // A few working rounds, then hold the release until every
                // helper has given up spinning and parked.
                for _ in 0..10 {
                    rendezvous.wait();
                    rendezvous.wait();
                }
                while rendezvous.sleepers.load(Ordering::SeqCst) < helpers {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
                rendezvous.wait();
            });
            assert_eq!(exited.into_inner(), helpers, "spin={spin}");
        }
    }
}
