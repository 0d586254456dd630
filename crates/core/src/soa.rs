//! Structure-of-arrays hot core: arena-indexed server and RAB state.
//!
//! [`SoaCore`] is the runtime [`Engine`] every harness runs: the default
//! engine of [`BlueScaleInterconnect`](crate::BlueScaleInterconnect), and
//! the root and per-shard cores of the sharded system. The per-cycle path
//! dominates wall-clock once the fast-forward path has removed idle
//! stretches, and the per-SE layout of the reference engine
//! ([`PerSeEngine`](crate::element::PerSeEngine)) makes every busy cycle
//! chase pointers: each SE owns a `Vec<Option<ServerTask>>`, each port a
//! `Vec` of buffered requests, and every grant/replenish tally is a
//! `BTreeMap` insertion. This module flattens the whole quadtree into one
//! arena:
//!
//! * **Server state** lives in a `ServerArena` — parallel slices of
//!   P-counters, B-counters, periods, budgets and staged (Π,Θ) swaps,
//!   indexed by a stable `TaskSlot`. An SE does not own servers; it owns
//!   the index range `[se·branch, (se+1)·branch)`. The GEDF argmin is a
//!   linear scan over the contiguous P-counter slice.
//! * **Server countdowns are lazy.** The core keeps a tick clock (+1 per
//!   [`SoaCore::end_cycle`], +`delta` per idle advance) and a sync stamp
//!   per slot; a slot is brought up to the clock in closed form
//!   ([`ServerTask::advance`]) only when it is read — the eligible ports
//!   before arbitration, every port of an SE being stepped with
//!   [`SoaCore::step_se`] or reprogrammed, every slot on a flush — so a
//!   cycle or an idle jump costs O(1) in the tree size. Nothing but ticks
//!   happens to an unread slot: budget is consumed only by a grant, which
//!   reads its slot first.
//! * **Only SEs with work are visited.** Bitsets mark the SEs holding
//!   buffered requests and the SEs holding queued responses; the batched
//!   step and the response path iterate them in ascending order, which is
//!   the reference engine's full sweep minus SEs that could not act.
//! * **Request queues** live in one flat slab of fixed-capacity per-slot
//!   segments, whatever the buffer capacity or [`QueuePolicy`]. A pop or a
//!   policy peek scans the slot's segment linearly for its head, as the
//!   hardware's comparator bank does, and removes it the way the reference
//!   [`RandomAccessBuffer`](crate::rab::RandomAccessBuffer) does.
//! * **Counters** (grants, forwards, throttles, replenishments, overruns)
//!   accumulate in plain delta arrays and are folded into the
//!   [`MetricsRegistry`] on [`Engine::flush_metrics`] — the same
//!   "refreshed on `metrics_mut`" contract the memory controller already
//!   uses. With detail recording on, every SE steps through `step_se`,
//!   which ticks its servers in place and writes counters and typed
//!   events through in the reference engine's order, so event streams
//!   stay bit-identical.
//!
//! **The cycle contract.** A caller steps the SEs of one cycle with
//! [`step_se`](SoaCore::step_se) or
//! [`step_se_batched`](SoaCore::step_se_batched) (at most once each),
//! then calls [`end_cycle`](SoaCore::end_cycle) once. `step_se` leaves
//! its servers already ticked for the cycle; `end_cycle` owes every other
//! server its countdown.
//!
//! **Slot stability rules.** A `TaskSlot` is a function of topology only
//! (`slot = (level_base[depth] + order)·branch + port`): it never moves
//! while the system runs, across reconfigurations, or across clones. A
//! leaving tenant zeroes its slot (including any staged swap); a joining
//! tenant reuses the same slot with fresh state. Cloning an [`SoaCore`]
//! is a slice memcpy, which is what makes trial-admission snapshots cheap.
//!
//! Semantics are pinned to the reference engine bit-for-bit: all staging
//! and advance arithmetic round-trips through [`ServerTask`]
//! (`from_parts`/`into_parts`), and the differential suites compare full
//! fingerprints of both engines. Interfaces come from the
//! [`Composition`](crate::composition::Composition); the core holds no
//! analysis state.

use crate::memory_side::tally_stuck_ses;
use crate::network::{Engine, EngineIo};
use crate::rab::QueuePolicy;
use crate::topology::BlueScaleConfig;
use bluescale_interconnect::{AccessKind, MemoryRequest};
use bluescale_rt::server::ServerTask;
use bluescale_rt::supply::PeriodicResource;
use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry};
use bluescale_sim::Cycle;
use std::collections::VecDeque;

/// The widest fan-in an SE can have: an SE's ports are tracked as the
/// bits of one `u64` (pending, eligible and stuck masks).
pub(crate) const MAX_BRANCH: usize = u64::BITS as usize;

/// Stable index of one server-task slot in the [`ServerArena`].
///
/// Slots are assigned by topology (`(level_base[depth] + order)·branch +
/// port`) and never move: reconfigurations, leaves and rejoins all reuse
/// the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TaskSlot(u32);

impl TaskSlot {
    /// Creates a slot handle for `index`.
    pub fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("arena slot fits in u32"))
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// All server-task state of the tree as contiguous parallel slices.
///
/// Unprogrammed slots hold zeros; staged swaps use `pend_period == 0` as
/// the "none" sentinel (a valid [`PeriodicResource`] period is ≥ 1).
/// Cloning is a straight memcpy of the slices — the cheap trial-admission
/// snapshot the SoA layout exists for.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServerArena {
    programmed: Vec<bool>,
    period: Vec<u64>,
    budget: Vec<u64>,
    p: Vec<u64>,
    b: Vec<u64>,
    pend_period: Vec<u64>,
    pend_budget: Vec<u64>,
}

impl ServerArena {
    /// Creates an arena of `slots` unprogrammed slots.
    pub fn with_slots(slots: usize) -> Self {
        Self {
            programmed: vec![false; slots],
            period: vec![0; slots],
            budget: vec![0; slots],
            p: vec![0; slots],
            b: vec![0; slots],
            pend_period: vec![0; slots],
            pend_budget: vec![0; slots],
        }
    }

    /// Materializes the server at `slot`, or `None` if unprogrammed.
    pub fn get(&self, slot: TaskSlot) -> Option<ServerTask> {
        let i = slot.index();
        if !self.programmed[i] {
            return None;
        }
        let interface = PeriodicResource::new(self.period[i], self.budget[i])
            .expect("arena stores valid interfaces");
        let pending = (self.pend_period[i] != 0).then(|| {
            PeriodicResource::new(self.pend_period[i], self.pend_budget[i])
                .expect("arena stores valid staged interfaces")
        });
        Some(ServerTask::from_parts(
            interface, self.p[i], self.b[i], pending,
        ))
    }

    /// Stores `server` at `slot` (`None` clears the slot, zeroing all of
    /// its state including any staged swap — a reused slot starts fresh).
    pub fn set(&mut self, slot: TaskSlot, server: Option<ServerTask>) {
        let i = slot.index();
        match server {
            Some(server) => {
                let (interface, p, b, pending) = server.into_parts();
                self.programmed[i] = true;
                self.period[i] = interface.period();
                self.budget[i] = interface.budget();
                self.p[i] = p;
                self.b[i] = b;
                match pending {
                    Some(next) => {
                        self.pend_period[i] = next.period();
                        self.pend_budget[i] = next.budget();
                    }
                    None => {
                        self.pend_period[i] = 0;
                        self.pend_budget[i] = 0;
                    }
                }
            }
            None => {
                self.programmed[i] = false;
                self.period[i] = 0;
                self.budget[i] = 0;
                self.p[i] = 0;
                self.b[i] = 0;
                self.pend_period[i] = 0;
                self.pend_budget[i] = 0;
            }
        }
    }

    /// Programs `slot` immediately with a fresh, fully replenished server
    /// (the selector's program port — [`ServerTask::new`] semantics; any
    /// staged swap is discarded).
    pub fn program(&mut self, slot: TaskSlot, interface: PeriodicResource) {
        self.set(slot, Some(ServerTask::new(interface)));
    }

    /// Clears `slot` (the client became idle).
    pub fn clear(&mut self, slot: TaskSlot) {
        self.set(slot, None);
    }

    /// Programs `slot` through the safe mode-change protocol, mirroring
    /// [`LocalScheduler::program_deferred`](crate::scheduler::LocalScheduler::program_deferred):
    /// a changed interface on a running server is staged to swap at the
    /// next replenishment boundary, a fresh server programs immediately,
    /// `None` clears immediately. Returns the transition latency.
    pub fn program_deferred(&mut self, slot: TaskSlot, interface: Option<PeriodicResource>) -> u64 {
        match (interface, self.get(slot)) {
            (Some(next), Some(mut server)) => {
                if server.interface() == next && server.pending_interface().is_none() {
                    return 0;
                }
                let latency = server.until_replenish();
                server.reprogram_at_boundary(next);
                self.set(slot, Some(server));
                latency
            }
            (Some(next), None) => {
                self.set(slot, Some(ServerTask::new(next)));
                0
            }
            (None, _) => {
                self.set(slot, None);
                0
            }
        }
    }

    /// Advances `slot` by `delta` cycles in closed form (no consumption),
    /// committing a staged swap at the first boundary exactly like
    /// [`ServerTask::advance`]. Returns the boundary crossings (0 on an
    /// unprogrammed slot).
    pub fn advance(&mut self, slot: TaskSlot, delta: u64) -> u64 {
        match self.get(slot) {
            Some(mut server) => {
                let crossings = server.advance(delta);
                self.set(slot, Some(server));
                crossings
            }
            None => 0,
        }
    }
}

/// The per-port request queues of the whole tree: one flat fixed-stride
/// slab in which slot `s` owns `reqs[s·cap .. s·cap + len[s]]` — the
/// random-access buffer's register chain, contiguous across the tree.
/// The head is found by a linear scan (the comparator bank) and removed
/// by a swap with the chain's last entry, exactly as
/// [`RandomAccessBuffer`](crate::rab::RandomAccessBuffer) does, so the
/// two agree entry for entry. `seqs` holds each entry's arrival number:
/// the FIFO tie-break among equal deadlines, and the whole order under
/// [`QueuePolicy::Fifo`].
#[derive(Debug, Clone)]
struct PortQueues {
    capacity: usize,
    policy: QueuePolicy,
    reqs: Vec<MemoryRequest>,
    seqs: Vec<u64>,
    len: Vec<u32>,
    next_seq: Vec<u64>,
}

fn placeholder_request() -> MemoryRequest {
    MemoryRequest {
        id: 0,
        client: 0,
        task: 0,
        addr: 0,
        kind: AccessKind::Read,
        issued_at: 0,
        deadline: 0,
        blocked_cycles: 0,
    }
}

impl PortQueues {
    fn new(slots: usize, capacity: usize, policy: QueuePolicy) -> Self {
        Self {
            capacity,
            policy,
            reqs: vec![placeholder_request(); slots * capacity],
            seqs: vec![0; slots * capacity],
            len: vec![0; slots],
            next_seq: vec![0; slots],
        }
    }

    /// Bitmask of the ports in `b0..b0 + branch` holding at least one
    /// buffered request.
    fn occupancy_mask(&self, b0: usize, branch: usize) -> u64 {
        let mut mask = 0;
        for (port, &n) in self.len[b0..b0 + branch].iter().enumerate() {
            if n > 0 {
                mask |= 1 << port;
            }
        }
        mask
    }

    fn is_full(&self, slot: usize) -> bool {
        self.len[slot] as usize == self.capacity
    }

    fn try_push(&mut self, slot: usize, request: MemoryRequest) -> Result<(), MemoryRequest> {
        if self.is_full(slot) {
            return Err(request);
        }
        let at = slot * self.capacity + self.len[slot] as usize;
        self.seqs[at] = self.next_seq[slot];
        self.next_seq[slot] += 1;
        self.reqs[at] = request;
        self.len[slot] += 1;
        Ok(())
    }

    /// The slab index of `slot`'s head: the `(deadline, arrival)` minimum
    /// under EDF, the earliest arrival under FIFO. The one selection scan
    /// behind both [`pop`](Self::pop) and [`peek`](Self::peek).
    #[inline(always)]
    fn head(&self, slot: usize) -> Option<usize> {
        let n = self.len[slot] as usize;
        if n == 0 {
            return None;
        }
        let base = slot * self.capacity;
        let (reqs, seqs) = (&self.reqs[base..base + n], &self.seqs[base..base + n]);
        let mut best = 0;
        match self.policy {
            QueuePolicy::EarliestDeadline => {
                for i in 1..n {
                    if (reqs[i].deadline, seqs[i]) < (reqs[best].deadline, seqs[best]) {
                        best = i;
                    }
                }
            }
            QueuePolicy::Fifo => {
                for i in 1..n {
                    if seqs[i] < seqs[best] {
                        best = i;
                    }
                }
            }
        }
        Some(base + best)
    }

    fn pop(&mut self, slot: usize) -> Option<MemoryRequest> {
        let at = self.head(slot)?;
        let last = slot * self.capacity + self.len[slot] as usize - 1;
        self.reqs.swap(at, last);
        self.seqs.swap(at, last);
        self.len[slot] -= 1;
        Some(self.reqs[last].clone())
    }

    /// The request [`pop`](Self::pop) would return for `slot`, without
    /// removing it.
    fn peek(&self, slot: usize) -> Option<&MemoryRequest> {
        self.head(slot).map(|i| &self.reqs[i])
    }
}

/// A set of SEs (linear indices) as a bitset, iterated in ascending
/// order: the order every engine visits SEs in, so grant order and
/// response order do not depend on which SEs are skipped.
#[derive(Debug, Clone)]
struct SeSet(Vec<u64>);

impl SeSet {
    fn with_len(ses: usize) -> Self {
        Self(vec![0; ses.div_ceil(64)])
    }

    fn insert(&mut self, se: usize) {
        self.0[se / 64] |= 1 << (se % 64);
    }

    fn remove(&mut self, se: usize) {
        self.0[se / 64] &= !(1 << (se % 64));
    }

    /// The smallest member in `from..end`.
    fn next(&self, from: usize, end: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.0.get(word)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                let se = word * 64 + bits.trailing_zeros() as usize;
                return (se < end).then_some(se);
            }
            word += 1;
            if word * 64 >= end {
                return None;
            }
            bits = self.0[word];
        }
    }
}

/// The flattened runtime engine: all SEs' arbitration state in one arena.
///
/// The flat counterpart of the per-SE reference engine
/// ([`PerSeEngine`](crate::element::PerSeEngine)): [`step_se`](Self::step_se)
/// reproduces
/// [`ScaleElement::step_masked`](crate::element::ScaleElement::step_masked)
/// bit-for-bit on the slice layout.
#[derive(Debug, Clone)]
pub struct SoaCore {
    branch: usize,
    levels: usize,
    /// `level_base[d]` = linear index of SE `(d, 0)`; `level_base[levels]`
    /// = total SE count. Slots of linear SE `s` are `s·branch..(s+1)·branch`.
    level_base: Vec<usize>,
    work_conserving: bool,
    arena: ServerArena,
    queues: PortQueues,
    /// Response demultiplexer per SE (linear index).
    responses: Vec<VecDeque<MemoryRequest>>,
    /// Running totals for O(1) `pending`/quiescence checks.
    buffered: usize,
    responses_queued: usize,
    /// Requests buffered per SE (linear index).
    buffered_se: Vec<u32>,
    /// The SEs holding buffered requests (`buffered_se > 0`): the only
    /// ones a batched step arbitrates.
    busy: SeSet,
    /// The SEs whose demultiplexer holds a response: the only ones the
    /// response phase visits.
    routing: SeSet,
    /// Responses queued per tree level: lets the response phase skip
    /// levels with nothing in flight.
    responses_per_level: Vec<u32>,
    /// Server countdowns owed since construction: +1 per
    /// [`end_cycle`](Self::end_cycle), +`delta` per idle advance.
    clock: u64,
    /// Per slot, the `clock` value its arena state is current at. A slot
    /// is brought forward ([`sync`](Self::sync)) only when it is read.
    synced: Vec<u64>,
    // Batched counter deltas, folded into the registry on flush. Indexed
    // by linear SE / slot respectively.
    d_grants_se: Vec<u64>,
    d_forwarded_se: Vec<u64>,
    d_throttled_se: Vec<u64>,
    d_overrun_se: Vec<u64>,
    d_grants_port: Vec<u64>,
    d_replenish_port: Vec<u64>,
    d_overrun_port: Vec<u64>,
    dirty: bool,
}

impl SoaCore {
    /// Builds the arena for `config`'s topology and programs every SE from
    /// `interfaces` (indexed `[depth][order][port]`, as in
    /// [`CompositionReport::interfaces`](crate::CompositionReport)).
    pub fn new(
        config: &BlueScaleConfig,
        interfaces: &[Vec<Vec<Option<PeriodicResource>>>],
    ) -> Self {
        let levels = config.levels();
        let branch = config.branch;
        assert!(
            branch <= MAX_BRANCH,
            "the SoA pending mask is a u64 bitmask"
        );
        let mut level_base = Vec::with_capacity(levels + 1);
        let mut total = 0;
        for depth in 0..levels {
            level_base.push(total);
            total += config.elements_at(depth);
        }
        level_base.push(total);
        let slots = total * branch;
        let mut core = Self {
            branch,
            levels,
            level_base,
            work_conserving: config.work_conserving,
            arena: ServerArena::with_slots(slots),
            queues: PortQueues::new(slots, config.buffer_capacity, config.low_level_policy),
            responses: vec![VecDeque::new(); total],
            buffered: 0,
            responses_queued: 0,
            buffered_se: vec![0; total],
            busy: SeSet::with_len(total),
            routing: SeSet::with_len(total),
            responses_per_level: vec![0; levels],
            clock: 0,
            synced: vec![0; slots],
            d_grants_se: vec![0; total],
            d_forwarded_se: vec![0; total],
            d_throttled_se: vec![0; total],
            d_overrun_se: vec![0; total],
            d_grants_port: vec![0; slots],
            d_replenish_port: vec![0; slots],
            d_overrun_port: vec![0; slots],
            dirty: false,
        };
        for (depth, level) in interfaces.iter().enumerate() {
            for (order, ifaces) in level.iter().enumerate() {
                core.program_se(depth, order, ifaces);
            }
        }
        core
    }

    /// Programs SE `(depth, order)`'s servers immediately (`None` clears a
    /// port).
    fn program_se(&mut self, depth: usize, order: usize, interfaces: &[Option<PeriodicResource>]) {
        assert_eq!(interfaces.len(), self.branch, "one interface per port");
        let b0 = self.se_lin(depth, order) * self.branch;
        for (port, iface) in interfaces.iter().enumerate() {
            match iface {
                Some(r) => self.arena.program(TaskSlot::new(b0 + port), *r),
                None => self.arena.clear(TaskSlot::new(b0 + port)),
            }
        }
    }

    /// Linear index of SE `(depth, order)`.
    fn se_lin(&self, depth: usize, order: usize) -> usize {
        debug_assert!(depth < self.levels);
        debug_assert!(order < self.level_base[depth + 1] - self.level_base[depth]);
        self.level_base[depth] + order
    }

    /// The arena slot of `(depth, order, port)`.
    fn slot(&self, depth: usize, order: usize, port: usize) -> TaskSlot {
        debug_assert!(port < self.branch);
        TaskSlot::new(self.se_lin(depth, order) * self.branch + port)
    }

    /// A snapshot of the server arena with every slot brought up to the
    /// tick clock: the state an eager per-cycle countdown would hold. The
    /// core itself is untouched (its own slots stay lazy). A slot
    /// [`step_se`](Self::step_se) already ticked this cycle is taken as
    /// it stands.
    #[cfg(test)]
    fn arena(&self) -> ServerArena {
        let mut arena = self.arena.clone();
        for (slot, &synced) in self.synced.iter().enumerate() {
            arena.advance(TaskSlot::new(slot), self.clock.saturating_sub(synced));
        }
        arena
    }

    /// Brings `slot`'s server up to the tick clock in closed form
    /// ([`ServerTask::advance`]: no consumption happens while a slot is
    /// not read), tallying the crossed boundaries as replenishments.
    #[inline(always)]
    fn sync(&mut self, slot: usize) {
        debug_assert!(
            self.synced[slot] <= self.clock,
            "slot {slot} was stepped this cycle; call end_cycle first"
        );
        let lag = self.clock - self.synced[slot];
        if lag == 0 {
            return;
        }
        self.synced[slot] = self.clock;
        if !self.arena.programmed[slot] {
            return;
        }
        if lag < self.arena.p[slot] {
            self.arena.p[slot] -= lag;
            return;
        }
        let crossings = self.arena.advance(TaskSlot::new(slot), lag);
        self.d_replenish_port[slot] += crossings;
        self.dirty = true;
    }

    /// [`sync`](Self::sync) for the ports of the SE at slot base `b0`
    /// whose bits are set in `ports`.
    #[inline(always)]
    fn sync_ports(&mut self, b0: usize, mut ports: u64) {
        while ports != 0 {
            self.sync(b0 + ports.trailing_zeros() as usize);
            ports &= ports - 1;
        }
    }

    /// Closes the cycle: every server owes one more countdown. O(1); the
    /// countdowns run when their slots are next read. Call it once per
    /// cycle, after the cycle's [`step_se`](Self::step_se) and
    /// [`step_se_batched`](Self::step_se_batched) calls.
    pub fn end_cycle(&mut self) {
        self.clock += 1;
    }

    /// Whether `(depth, order, port)`'s buffer can accept a request.
    pub fn can_accept(&self, depth: usize, order: usize, port: usize) -> bool {
        !self.queues.is_full(self.slot(depth, order, port).index())
    }

    /// The request that would be granted next from `(depth, order, port)`
    /// if the scheduler selected that port — the policy peek used for
    /// pre-arbitration deferral. Non-destructive; mirrors the pop scan
    /// exactly.
    pub fn peek_head(&self, depth: usize, order: usize, port: usize) -> Option<&MemoryRequest> {
        self.queues.peek(self.slot(depth, order, port).index())
    }

    /// Accepts a response into SE `(depth, order)`'s demultiplexer.
    pub fn accept_response(&mut self, depth: usize, order: usize, response: MemoryRequest) {
        let se = self.se_lin(depth, order);
        self.responses[se].push_back(response);
        self.routing.insert(se);
        self.responses_queued += 1;
        self.responses_per_level[depth] += 1;
    }

    /// Pops at most one response per cycle from SE `(depth, order)`'s
    /// demultiplexer.
    pub fn pop_response(&mut self, depth: usize, order: usize) -> Option<MemoryRequest> {
        let se = self.se_lin(depth, order);
        let response = self.responses[se].pop_front();
        if response.is_some() {
            self.responses_queued -= 1;
            self.responses_per_level[depth] -= 1;
            if self.responses[se].is_empty() {
                self.routing.remove(se);
            }
        }
        response
    }

    /// Responses currently queued across level `depth`'s demultiplexers —
    /// the response phase skips a whole level when this is zero.
    pub fn responses_at_level(&self, depth: usize) -> u32 {
        self.responses_per_level[depth]
    }

    /// The first SE of level `depth` at order `from` or later that `set`
    /// holds, or every SE in turn when `set` is `None`.
    fn next_se(&self, set: Option<&SeSet>, depth: usize, from: usize) -> Option<usize> {
        let (lo, hi) = (self.level_base[depth], self.level_base[depth + 1]);
        let se = match set {
            Some(set) => set.next(lo + from, hi)?,
            None => lo + from,
        };
        (se < hi).then(|| se - lo)
    }

    /// One cycle of the response path, bottom-up: every SE's demultiplexer
    /// routes at most one response toward its client, so a response
    /// advances exactly one level per cycle; leaf deliveries go to
    /// `deliver` in leaf order. Only SEs holding a response are visited,
    /// in ascending order. `client_lo` is the first client id this core
    /// serves (non-zero for a shard's subtree core).
    pub fn route_responses(&mut self, client_lo: usize, mut deliver: impl FnMut(MemoryRequest)) {
        let (levels, branch) = (self.levels, self.branch);
        for depth in (0..levels).rev() {
            if self.responses_at_level(depth) == 0 {
                continue;
            }
            let mut from = 0;
            while let Some(order) = self.next_se(Some(&self.routing), depth, from) {
                from = order + 1;
                let request = self
                    .pop_response(depth, order)
                    .expect("a routing SE holds a response");
                if depth == levels - 1 {
                    deliver(request);
                    continue;
                }
                // Route by client id: which child subtree owns it?
                let leaf_order = (request.client as usize - client_lo) / branch;
                let child_order = leaf_order / branch.pow((levels - 2 - depth) as u32);
                debug_assert_eq!(
                    child_order / branch.max(1),
                    order,
                    "response routed through the wrong subtree"
                );
                self.accept_response(depth + 1, child_order, request);
            }
        }
    }

    /// Arbitration of every level below the root, parents before
    /// children and in ascending order within a level: each SE forwards
    /// at most one request into its parent's port. `stuck(depth, order)`
    /// is the SE's grant mask (untallied). With `detail` every SE runs the
    /// write-through [`step_se`](Self::step_se); otherwise only the SEs
    /// holding requests run [`step_se_batched`](Self::step_se_batched) —
    /// an idle SE could neither grant nor throttle.
    pub fn forward_levels(
        &mut self,
        now: Cycle,
        stuck: impl Fn(usize, usize) -> u64,
        mut detail: Option<&mut MetricsRegistry>,
    ) {
        let branch = self.branch;
        for depth in 1..self.levels {
            let mut from = 0;
            while let Some(order) =
                self.next_se(detail.is_none().then_some(&self.busy), depth, from)
            {
                from = order + 1;
                let (parent, port) = (order / branch, order % branch);
                let ready = self.can_accept(depth - 1, parent, port);
                let mask = stuck(depth, order);
                let granted = match detail.as_deref_mut() {
                    Some(metrics) => self.step_se(depth, order, now, ready, mask, metrics),
                    None => self.step_se_batched(depth, order, now, ready, mask),
                };
                if let Some(request) = granted {
                    self.try_accept(depth - 1, parent, port, request)
                        .expect("parent advertised a free slot");
                }
            }
        }
    }

    /// One arbitration cycle of SE `(depth, order)`: the SoA rewrite of
    /// [`ScaleElement::step_masked`](crate::element::ScaleElement::step_masked).
    /// GEDF argmin is a linear scan over the SE's contiguous P-counter
    /// slice. With detail recording off, counters land in the delta arrays
    /// (flushed on [`Engine::flush_metrics`]); with it on, counters and
    /// typed events write through in the reference engine's order. The
    /// SE's servers are synced first and then ticked for this cycle in
    /// place, so each replenishment is recorded at its own cycle; they
    /// count as current through the cycle's [`end_cycle`](Self::end_cycle),
    /// which must follow before they are read again.
    pub fn step_se(
        &mut self,
        depth: usize,
        order: usize,
        now: Cycle,
        provider_ready: bool,
        stuck: u64,
        metrics: &mut MetricsRegistry,
    ) -> Option<MemoryRequest> {
        let se = self.se_lin(depth, order);
        let b0 = se * self.branch;
        let detail = metrics.detail();
        let component = ComponentId::Se { depth, order };
        self.sync_ports(b0, u64::MAX >> (64 - self.branch));
        let pending_mask = self.eligible_ports(b0, stuck);

        let mut granted = None;
        if let Some(port) = self.gedf_winner(b0, pending_mask, now, provider_ready) {
            let request = if detail {
                let (request, overrun) = self.take_grant(se, b0, port);
                metrics.inc(component, Counter::Grants);
                metrics.inc(component.port(port), Counter::Grants);
                if overrun {
                    metrics.inc(component, Counter::BudgetOverruns);
                    metrics.inc(component.port(port), Counter::BudgetOverruns);
                }
                metrics.inc(component, Counter::Forwarded);
                metrics.request_granted(now, request.id, component, port);
                request
            } else {
                self.grant_batched(se, b0, port)
            };
            granted = Some(request);
        }

        // Scheduler tick: throttle statistic, then per-server countdowns.
        if pending_mask != 0 && granted.is_none() {
            if detail {
                metrics.inc(component, Counter::ThrottledCycles);
                metrics.record(now, Event::Throttle { component });
            } else {
                self.d_throttled_se[se] += 1;
                self.dirty = true;
            }
        }
        for port in 0..self.branch {
            let slot = b0 + port;
            self.synced[slot] = self.clock + 1;
            if !self.arena.programmed[slot] || !self.tick_slot(slot) {
                continue;
            }
            if detail {
                metrics.inc(component.port(port), Counter::Replenishments);
                metrics.record(now, Event::Replenish { component, port });
            } else {
                self.d_replenish_port[slot] += 1;
                self.dirty = true;
            }
        }
        granted
    }

    /// The batched-mode path of [`step_se`](Self::step_se): same
    /// arbitration, but counters go straight to the delta arrays (no
    /// registry access, so no detail events — the caller must route
    /// detail-recording runs through `step_se`) and only the eligible
    /// ports' servers are synced, because only they are read. Their
    /// countdown for this cycle is owed to [`end_cycle`](Self::end_cycle),
    /// which preserves each SE's arbitrate-before-tick order. An SE with
    /// nothing buffered returns immediately: no grant, no throttle,
    /// nothing to do.
    pub fn step_se_batched(
        &mut self,
        depth: usize,
        order: usize,
        now: Cycle,
        provider_ready: bool,
        stuck: u64,
    ) -> Option<MemoryRequest> {
        let se = self.se_lin(depth, order);
        if self.buffered_se[se] == 0 {
            return None;
        }
        let b0 = se * self.branch;
        let pending_mask = self.eligible_ports(b0, stuck);
        if provider_ready {
            self.sync_ports(b0, pending_mask);
        }
        let granted = self
            .gedf_winner(b0, pending_mask, now, provider_ready)
            .map(|port| self.grant_batched(se, b0, port));
        if pending_mask != 0 && granted.is_none() {
            self.d_throttled_se[se] += 1;
            self.dirty = true;
        }
        granted
    }

    /// The ports of the SE at slot base `b0` eligible this cycle: buffer
    /// non-empty and grant line not held stuck by the fault layer.
    #[inline(always)]
    fn eligible_ports(&self, b0: usize, stuck: u64) -> u64 {
        self.queues.occupancy_mask(b0, self.branch) & !stuck
    }

    /// The port the SE grants this cycle, if the provider can take a
    /// request: the GEDF argmin over the eligible ports' P-counters among
    /// servers with budget left, else (work-conserving) among all eligible
    /// ports. Strict `<` keeps the lowest port on ties, as the legacy scan
    /// does.
    #[inline(always)]
    fn gedf_winner(
        &self,
        b0: usize,
        pending_mask: u64,
        now: Cycle,
        provider_ready: bool,
    ) -> Option<usize> {
        if !provider_ready {
            return None;
        }
        let mut winner: Option<(Cycle, usize)> = None;
        for port in 0..self.branch {
            if pending_mask & (1 << port) == 0 {
                continue;
            }
            let slot = b0 + port;
            if !self.arena.programmed[slot] || self.arena.b[slot] == 0 {
                continue;
            }
            let deadline = now + self.arena.p[slot];
            if winner.is_none_or(|(best, _)| deadline < best) {
                winner = Some((deadline, port));
            }
        }
        if winner.is_none() && self.work_conserving {
            for port in 0..self.branch {
                if pending_mask & (1 << port) == 0 {
                    continue;
                }
                let slot = b0 + port;
                let deadline = if self.arena.programmed[slot] {
                    now + self.arena.p[slot]
                } else {
                    Cycle::MAX
                };
                if winner.is_none_or(|(best, _)| deadline < best) {
                    winner = Some((deadline, port));
                }
            }
        }
        winner.map(|(_, port)| port)
    }

    /// Pops `port`'s head request and commits the grant (the legacy
    /// `commit_grant`): consumes a budget unit or reports the overrun.
    #[inline(always)]
    fn take_grant(&mut self, se: usize, b0: usize, port: usize) -> (MemoryRequest, bool) {
        let slot = b0 + port;
        let request = self
            .queues
            .pop(slot)
            .expect("selected port must have a pending request");
        self.buffered -= 1;
        self.buffered_se[se] -= 1;
        if self.buffered_se[se] == 0 {
            self.busy.remove(se);
        }
        let overrun = !(self.arena.programmed[slot] && self.arena.b[slot] > 0);
        if !overrun {
            self.arena.b[slot] -= 1;
        }
        (request, overrun)
    }

    /// [`take_grant`](Self::take_grant) with the grant's tallies in the
    /// delta arrays.
    #[inline(always)]
    fn grant_batched(&mut self, se: usize, b0: usize, port: usize) -> MemoryRequest {
        let (request, overrun) = self.take_grant(se, b0, port);
        let slot = b0 + port;
        self.d_grants_se[se] += 1;
        self.d_grants_port[slot] += 1;
        if overrun {
            self.d_overrun_se[se] += 1;
            self.d_overrun_port[slot] += 1;
        }
        self.d_forwarded_se[se] += 1;
        self.dirty = true;
        request
    }

    /// One countdown of a programmed server (`ServerTask::tick` on the
    /// slices): at the period boundary a staged swap commits and both
    /// counters reload. Returns whether the server replenished.
    #[inline(always)]
    fn tick_slot(&mut self, slot: usize) -> bool {
        self.arena.p[slot] -= 1;
        if self.arena.p[slot] != 0 {
            return false;
        }
        if self.arena.pend_period[slot] != 0 {
            self.arena.period[slot] = self.arena.pend_period[slot];
            self.arena.budget[slot] = self.arena.pend_budget[slot];
            self.arena.pend_period[slot] = 0;
            self.arena.pend_budget[slot] = 0;
        }
        self.arena.p[slot] = self.arena.period[slot];
        self.arena.b[slot] = self.arena.budget[slot];
        true
    }

    /// Advances the whole (quiescent) fabric `delta` cycles: O(1), the
    /// countdowns are owed on the tick clock like any other cycle's and
    /// run in closed form when each slot is next read.
    pub fn advance_idle(&mut self, delta: Cycle) {
        debug_assert_eq!(self.occupancy(), 0, "advance_idle on a non-idle fabric");
        self.clock += delta;
    }

    /// [`Engine::flush_metrics`] with a coordinate translation:
    /// each local SE `(depth, order)` is tallied under the component id
    /// `map(depth, order)` returns. A shard core covering one subtree of a
    /// larger tree flushes under the subtree's *global* coordinates, so a
    /// registry fed by several shard cores is indistinguishable from one
    /// fed by a single whole-tree core.
    ///
    /// The cost is one pass settling every server's owed countdowns and
    /// taking every delta, plus one add per non-zero delta; each add lands
    /// in the registry's dense `Se`/`Port` rows (an indexed short vector,
    /// not an ordered-map walk).
    pub fn flush_metrics_mapped(
        &mut self,
        metrics: &mut MetricsRegistry,
        map: impl Fn(usize, usize) -> (usize, usize),
    ) {
        // Owed countdowns are replenishments not yet tallied.
        for slot in 0..self.synced.len() {
            self.sync(slot);
        }
        if !self.dirty {
            return;
        }
        self.dirty = false;
        for depth in 0..self.levels {
            let ses = self.level_base[depth + 1] - self.level_base[depth];
            for order in 0..ses {
                let se = self.level_base[depth] + order;
                let (depth, order) = map(depth, order);
                let component = ComponentId::Se { depth, order };
                for (delta, counter) in [
                    (std::mem::take(&mut self.d_grants_se[se]), Counter::Grants),
                    (
                        std::mem::take(&mut self.d_forwarded_se[se]),
                        Counter::Forwarded,
                    ),
                    (
                        std::mem::take(&mut self.d_throttled_se[se]),
                        Counter::ThrottledCycles,
                    ),
                    (
                        std::mem::take(&mut self.d_overrun_se[se]),
                        Counter::BudgetOverruns,
                    ),
                ] {
                    if delta > 0 {
                        metrics.add(component, counter, delta);
                    }
                }
                for port in 0..self.branch {
                    let slot = se * self.branch + port;
                    for (delta, counter) in [
                        (
                            std::mem::take(&mut self.d_grants_port[slot]),
                            Counter::Grants,
                        ),
                        (
                            std::mem::take(&mut self.d_replenish_port[slot]),
                            Counter::Replenishments,
                        ),
                        (
                            std::mem::take(&mut self.d_overrun_port[slot]),
                            Counter::BudgetOverruns,
                        ),
                    ] {
                        if delta > 0 {
                            metrics.add(component.port(port), counter, delta);
                        }
                    }
                }
            }
        }
    }
}

impl Engine for SoaCore {
    fn build(config: &BlueScaleConfig, interfaces: &[Vec<Vec<Option<PeriodicResource>>>]) -> Self {
        Self::new(config, interfaces)
    }

    fn program_se_deferred(
        &mut self,
        depth: usize,
        order: usize,
        interfaces: &[Option<PeriodicResource>],
    ) -> u64 {
        assert_eq!(interfaces.len(), self.branch, "one interface per port");
        let b0 = self.se_lin(depth, order) * self.branch;
        // The transition latency reads each server's countdown.
        self.sync_ports(b0, u64::MAX >> (64 - self.branch));
        interfaces
            .iter()
            .enumerate()
            .map(|(port, iface)| {
                self.arena
                    .program_deferred(TaskSlot::new(b0 + port), *iface)
            })
            .sum()
    }

    fn try_accept(
        &mut self,
        depth: usize,
        order: usize,
        port: usize,
        request: MemoryRequest,
    ) -> Result<(), MemoryRequest> {
        let slot = self.slot(depth, order, port).index();
        self.queues.try_push(slot, request)?;
        self.buffered += 1;
        let se = self.se_lin(depth, order);
        self.buffered_se[se] += 1;
        self.busy.insert(se);
        Ok(())
    }

    /// One cycle on the flat arena — the four phases of the per-SE
    /// reference's step ([`PerSeEngine`](crate::element::PerSeEngine)),
    /// kept parallel with it so the two stay bit-identical (the
    /// differential suites enforce it). The reference visits every SE;
    /// this engine visits only the SEs with work, in the same ascending
    /// order, and settles the server countdowns lazily.
    fn step(&mut self, io: &mut EngineIo, now: Cycle) {
        let (levels, branch) = (self.levels, self.branch);
        // With detail recording off, arbitration runs on the batched path
        // (delta counters, SEs with work only); detail runs take the
        // write-through `step_se` on every SE so typed events keep the
        // reference order.
        let detail = io.metrics.detail();
        // 1. Response path: leaves deliver first (bottom-up), so a response
        //    advances exactly one level per cycle.
        self.route_responses(0, |request| io.deliver(request, now));
        // 2. Memory completions enter the root's demultiplexer.
        if let Some(done) = io.mem.complete(now, &mut io.metrics) {
            self.accept_response(0, 0, done);
        }
        // 3. Root arbitration feeds the memory controller.
        let root_ready = io.mem.can_accept();
        let mask = io
            .mem
            .root_mask(now, root_ready, branch, &mut io.metrics, |port| {
                self.peek_head(0, 0, port)
            });
        let granted = if detail {
            self.step_se(0, 0, now, root_ready, mask, &mut io.metrics)
        } else {
            self.step_se_batched(0, 0, now, root_ready, mask)
        };
        if let Some(request) = granted {
            io.issue(request, now);
        }
        // 4. Deeper levels forward one request per SE toward their parents.
        //    Every held grant line is tallied, idle SE or not; the masks
        //    are read only where an SE arbitrates.
        let (plan, metrics) = (io.mem.faults(), &mut io.metrics);
        let level_base = &self.level_base;
        tally_stuck_ses(plan, branch, now, metrics, |depth, order| {
            (1..levels).contains(&depth) && order < level_base[depth + 1] - level_base[depth]
        });
        let stuck = |depth, order| plan.stuck_mask(depth, order, branch, now);
        self.forward_levels(now, stuck, detail.then_some(metrics));
        self.end_cycle();
    }

    fn occupancy(&self) -> usize {
        self.buffered + self.responses_queued
    }

    fn advance_idle(&mut self, delta: Cycle, _metrics: &mut MetricsRegistry) {
        SoaCore::advance_idle(self, delta);
    }

    /// Folds all batched counter deltas into `metrics` and zeroes them.
    /// Called from the interconnect's `metrics_mut` (the same refresh
    /// contract as the memory-controller counters), so any mutable metrics
    /// access observes exact tallies.
    fn flush_metrics(&mut self, metrics: &mut MetricsRegistry) {
        self.flush_metrics_mapped(metrics, |depth, order| (depth, order));
    }

    fn pending_forwarded(&self, depth: usize, order: usize) -> u64 {
        self.d_forwarded_se[self.se_lin(depth, order)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rab::RandomAccessBuffer;
    use bluescale_sim::rng::SimRng;

    fn req(id: u64, deadline: u64) -> MemoryRequest {
        MemoryRequest {
            id,
            client: 0,
            task: 0,
            addr: 0,
            kind: AccessKind::Read,
            issued_at: 0,
            deadline,
            blocked_cycles: 0,
        }
    }

    fn iface(p: u64, b: u64) -> PeriodicResource {
        PeriodicResource::new(p, b).unwrap()
    }

    // ----- request slab vs the reference random-access buffer ---------

    const POLICIES: [QueuePolicy; 2] = [QueuePolicy::EarliestDeadline, QueuePolicy::Fifo];

    /// Randomized push/peek/pop interleavings with heavy deadline ties on
    /// three neighbouring slots: each slot must accept, peek and pop the
    /// exact id sequence of its own reference comparator-bank buffer —
    /// (deadline, arrival) order under EDF, arrival order under FIFO —
    /// and push back at capacity exactly when the reference does.
    #[test]
    fn slab_matches_legacy_rab_under_equal_deadlines() {
        for policy in POLICIES {
            for capacity in [8, 32] {
                let mut rejected = 0;
                for seed in 0..24u64 {
                    let mut rng = SimRng::seed_from(0xB0C4 ^ seed);
                    let mut slab = PortQueues::new(3, capacity, policy);
                    let mut legacy: Vec<RandomAccessBuffer> = (0..3)
                        .map(|_| RandomAccessBuffer::with_policy(capacity, policy))
                        .collect();
                    let mut next_id = 0u64;
                    for _ in 0..400 {
                        let slot = rng.range_u64(0, 3) as usize;
                        if rng.range_u64(0, 3) < 2 {
                            // Few distinct deadlines → constant ties.
                            let deadline = 1_000 + 4 * rng.range_u64(0, 6);
                            next_id += 1;
                            let a = slab.try_push(slot, req(next_id, deadline));
                            let b = legacy[slot].try_push(req(next_id, deadline));
                            rejected += usize::from(b.is_err());
                            assert_eq!(
                                a.map_err(|r| r.id),
                                b.map_err(|r| r.id),
                                "{policy:?}/{capacity} seed {seed}: capacity behaviour must match"
                            );
                            assert_eq!(slab.is_full(slot), legacy[slot].is_full());
                        } else {
                            assert_eq!(
                                slab.peek(slot).map(|r| r.id),
                                legacy[slot].peek().map(|r| r.id),
                                "{policy:?}/{capacity} seed {seed}: peek diverged"
                            );
                            let a = slab.pop(slot).map(|r| r.id);
                            let b = legacy[slot].pop().map(|r| r.id);
                            assert_eq!(a, b, "{policy:?}/{capacity} seed {seed}: pop diverged");
                        }
                    }
                    for (slot, legacy) in legacy.iter_mut().enumerate() {
                        while let Some(b) = legacy.pop() {
                            assert_eq!(slab.pop(slot).map(|r| r.id), Some(b.id));
                        }
                        assert_eq!(slab.pop(slot), None);
                    }
                }
                assert!(rejected > 0, "{policy:?}/{capacity}: no slot ever filled");
            }
        }
    }

    // ----- arena edge cases (satellite: slot reuse, clone isolation,
    // advance across staged swaps, empty ranges) ------------------------

    #[test]
    fn slot_reuse_after_leave_starts_fresh() {
        let mut arena = ServerArena::with_slots(4);
        let slot = TaskSlot::new(2);
        arena.program(slot, iface(10, 3));
        // Run the server into a mid-period, partially consumed state with
        // a staged swap pending.
        let mut server = arena.get(slot).unwrap();
        server.consume();
        server.tick();
        arena.set(slot, Some(server));
        assert_eq!(arena.program_deferred(slot, Some(iface(6, 2))), 9);
        // Leave: the tenant departs; the slot must be fully cleared.
        arena.clear(slot);
        assert!(arena.get(slot).is_none());
        // Rejoin on the same slot: state is exactly ServerTask::new — no
        // stale countdown, budget, or staged swap may leak through.
        arena.program(slot, iface(8, 4));
        let reused = arena.get(slot).unwrap();
        assert_eq!(reused, ServerTask::new(iface(8, 4)));
        assert_eq!(reused.pending_interface(), None);
    }

    #[test]
    fn clone_then_mutate_leaves_original_untouched() {
        // Trial admission snapshots the arena and mutates the clone; the
        // live arena must not observe any of it.
        let mut arena = ServerArena::with_slots(8);
        for slot in 0..8 {
            arena.program(TaskSlot::new(slot), iface(10 + slot as u64, 2));
        }
        let snapshot: Vec<Option<ServerTask>> =
            (0..8).map(|s| arena.get(TaskSlot::new(s))).collect();
        let mut trial = arena.clone();
        for slot in 0..8 {
            let slot = TaskSlot::new(slot);
            trial.advance(slot, 7);
            trial.program_deferred(slot, Some(iface(5, 1)));
        }
        trial.clear(TaskSlot::new(3));
        for (s, expected) in snapshot.iter().enumerate() {
            assert_eq!(
                arena.get(TaskSlot::new(s)),
                *expected,
                "slot {s} of the live arena changed under the trial clone"
            );
        }
        assert!(trial.get(TaskSlot::new(3)).is_none(), "clone did mutate");
    }

    #[test]
    fn advance_crosses_staged_swap_boundary_like_server_task() {
        // The arena's closed-form advance must commit a staged (Π,Θ) swap
        // at the first boundary exactly as ServerTask::advance does — for
        // every phase and jump length around the boundary.
        for phase in 0..5u64 {
            for delta in 0..20u64 {
                let mut arena = ServerArena::with_slots(1);
                let slot = TaskSlot::new(0);
                arena.program(slot, iface(5, 2));
                let mut reference = ServerTask::new(iface(5, 2));
                for _ in 0..phase {
                    reference.tick();
                    let mut s = arena.get(slot).unwrap();
                    s.tick();
                    arena.set(slot, Some(s));
                }
                arena.program_deferred(slot, Some(iface(3, 3)));
                reference.reprogram_at_boundary(iface(3, 3));
                let mut expected_crossings = 0;
                let mut ticked = reference;
                for _ in 0..delta {
                    if ticked.tick() {
                        expected_crossings += 1;
                    }
                }
                assert_eq!(
                    arena.advance(slot, delta),
                    expected_crossings,
                    "crossings at phase {phase} delta {delta}"
                );
                reference.advance(delta);
                assert_eq!(
                    arena.get(slot).unwrap(),
                    reference,
                    "state at phase {phase} delta {delta}"
                );
            }
        }
    }

    #[test]
    fn advance_on_unprogrammed_slot_is_inert() {
        let mut arena = ServerArena::with_slots(2);
        assert_eq!(arena.advance(TaskSlot::new(1), 100), 0);
        assert!(arena.get(TaskSlot::new(1)).is_none());
    }

    fn test_core(clients: usize) -> SoaCore {
        let config = BlueScaleConfig::for_clients(clients);
        let levels = config.levels();
        // Leaf ports up to `clients` get an interface; everything else —
        // including whole empty SEs — stays unprogrammed.
        let interfaces: Vec<Vec<Vec<Option<PeriodicResource>>>> = (0..levels)
            .map(|d| {
                (0..config.elements_at(d))
                    .map(|order| {
                        (0..config.branch)
                            .map(|port| {
                                let present =
                                    d < levels - 1 || order * config.branch + port < clients;
                                present.then(|| iface(20, 2))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        SoaCore::new(&config, &interfaces)
    }

    #[test]
    fn empty_se_index_ranges_are_inert() {
        // 5 clients on a branch-4 tree: leaf SE (1,1) has one populated
        // port, SEs (1,2) and (1,3) are entirely empty index ranges.
        let mut core = test_core(5);
        let mut metrics = MetricsRegistry::new();
        assert_eq!(core.occupancy(), 0);
        for now in 0..50 {
            for order in 2..4 {
                assert_eq!(
                    core.step_se(1, order, now, true, 0, &mut metrics),
                    None,
                    "an empty SE must never grant"
                );
            }
            core.end_cycle();
        }
        core.flush_metrics(&mut metrics);
        for order in 2..4 {
            let se = ComponentId::Se { depth: 1, order };
            assert_eq!(metrics.counter(se, Counter::Grants), 0);
            assert_eq!(metrics.counter(se, Counter::ThrottledCycles), 0);
            assert_eq!(metrics.counter(se, Counter::Forwarded), 0);
        }
        // The empty ranges also contribute nothing to occupancy, and the
        // populated slot is addressable right next to them.
        assert_eq!(core.occupancy(), 0);
        assert!(core.arena().get(core.slot(1, 1, 0)).is_some());
        assert!(core.arena().get(core.slot(1, 1, 1)).is_none());
        assert!(core.arena().get(core.slot(1, 3, 3)).is_none());
    }

    #[test]
    fn step_se_matches_scale_element_bit_for_bit() {
        // Drive a ScaleElement and the SoA core with an identical seeded
        // request pattern and compare every grant and every counter.
        use crate::element::ScaleElement;
        use crate::topology::SeIndex;

        for work_conserving in [false, true] {
            let mut config = BlueScaleConfig::for_clients(4);
            config.work_conserving = work_conserving;
            let ifaces: Vec<Option<PeriodicResource>> = vec![
                Some(iface(8, 2)),
                Some(iface(5, 1)),
                None,
                Some(iface(13, 4)),
            ];
            let mut se = ScaleElement::new(SeIndex::new(0, 0), 4, 8, work_conserving);
            se.program(&ifaces);
            let interfaces = vec![vec![ifaces.clone()]];
            let mut core = SoaCore::new(&config, &interfaces);

            let mut reg_legacy = MetricsRegistry::new();
            let mut reg_soa = MetricsRegistry::new();
            let mut rng = SimRng::seed_from(0x50A * (1 + work_conserving as u64));
            let mut next_id = 0;
            for now in 0..2_000u64 {
                if rng.range_u64(0, 4) == 0 {
                    let port = rng.range_u64(0, 4) as usize;
                    let deadline = now + rng.range_u64(1, 400);
                    next_id += 1;
                    let a = se.try_accept(port, req(next_id, deadline)).is_ok();
                    let b = core.try_accept(0, 0, port, req(next_id, deadline)).is_ok();
                    assert_eq!(a, b, "acceptance at {now}");
                }
                let ready = rng.range_u64(0, 3) > 0;
                let legacy = se.step(now, ready, &mut reg_legacy);
                let soa = core.step_se(0, 0, now, ready, 0, &mut reg_soa);
                core.end_cycle();
                assert_eq!(legacy, soa, "grant at cycle {now} (wc={work_conserving})");
            }
            core.flush_metrics(&mut reg_soa);
            let com = ComponentId::Se { depth: 0, order: 0 };
            for counter in [
                Counter::Grants,
                Counter::Forwarded,
                Counter::ThrottledCycles,
                Counter::BudgetOverruns,
            ] {
                assert_eq!(
                    reg_legacy.counter(com, counter),
                    reg_soa.counter(com, counter),
                    "{counter:?} (wc={work_conserving})"
                );
            }
            for port in 0..4 {
                for counter in [
                    Counter::Grants,
                    Counter::Replenishments,
                    Counter::BudgetOverruns,
                ] {
                    assert_eq!(
                        reg_legacy.counter(com.port(port), counter),
                        reg_soa.counter(com.port(port), counter),
                        "port {port} {counter:?} (wc={work_conserving})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_step_and_lazy_countdowns_match_step_se_bit_for_bit() {
        // The fast path (`step_se_batched`, whose countdowns are owed to
        // `end_cycle` and run lazily) must reproduce the write-through
        // `step_se` sequence exactly: same grants, same server state,
        // same counters.
        for work_conserving in [false, true] {
            let mut config = BlueScaleConfig::for_clients(4);
            config.work_conserving = work_conserving;
            let ifaces: Vec<Option<PeriodicResource>> = vec![
                Some(iface(8, 2)),
                Some(iface(5, 1)),
                None,
                Some(iface(13, 4)),
            ];
            let interfaces = vec![vec![ifaces.clone()]];
            let mut slow = SoaCore::new(&config, &interfaces);
            let mut fast = slow.clone();

            let mut reg_slow = MetricsRegistry::new();
            let mut reg_fast = MetricsRegistry::new();
            let mut rng = SimRng::seed_from(0xBA7C + work_conserving as u64);
            let mut next_id = 0;
            for now in 0..2_000u64 {
                if rng.range_u64(0, 4) == 0 {
                    let port = rng.range_u64(0, 4) as usize;
                    let deadline = now + rng.range_u64(1, 400);
                    next_id += 1;
                    let a = slow.try_accept(0, 0, port, req(next_id, deadline)).is_ok();
                    let b = fast.try_accept(0, 0, port, req(next_id, deadline)).is_ok();
                    assert_eq!(a, b, "acceptance at {now}");
                }
                let ready = rng.range_u64(0, 3) > 0;
                let a = slow.step_se(0, 0, now, ready, 0, &mut reg_slow);
                slow.end_cycle();
                let b = fast.step_se_batched(0, 0, now, ready, 0);
                fast.end_cycle();
                assert_eq!(a, b, "grant at cycle {now} (wc={work_conserving})");
            }
            slow.flush_metrics(&mut reg_slow);
            fast.flush_metrics(&mut reg_fast);
            let com = ComponentId::Se { depth: 0, order: 0 };
            for counter in [
                Counter::Grants,
                Counter::Forwarded,
                Counter::ThrottledCycles,
                Counter::BudgetOverruns,
            ] {
                assert_eq!(
                    reg_slow.counter(com, counter),
                    reg_fast.counter(com, counter),
                    "{counter:?} (wc={work_conserving})"
                );
            }
            for port in 0..4 {
                for counter in [
                    Counter::Grants,
                    Counter::Replenishments,
                    Counter::BudgetOverruns,
                ] {
                    assert_eq!(
                        reg_slow.counter(com.port(port), counter),
                        reg_fast.counter(com.port(port), counter),
                        "port {port} {counter:?} (wc={work_conserving})"
                    );
                }
                assert_eq!(
                    slow.arena().get(slow.slot(0, 0, port)),
                    fast.arena().get(fast.slot(0, 0, port)),
                    "server state at port {port}"
                );
            }
        }
    }

    #[test]
    fn advance_idle_matches_stepped_idle_cycles() {
        let mut stepped = test_core(16);
        let mut jumped = stepped.clone();
        let mut reg_s = MetricsRegistry::new();
        let mut reg_j = MetricsRegistry::new();
        for now in 0..137 {
            for depth in 0..2 {
                for order in 0..stepped.level_base[depth + 1] - stepped.level_base[depth] {
                    assert_eq!(
                        stepped.step_se(depth, order, now, true, 0, &mut reg_s),
                        None
                    );
                }
            }
            stepped.end_cycle();
        }
        jumped.advance_idle(137);
        stepped.flush_metrics(&mut reg_s);
        jumped.flush_metrics(&mut reg_j);
        for depth in 0..2 {
            let ses = jumped.level_base[depth + 1] - jumped.level_base[depth];
            for order in 0..ses {
                let com = ComponentId::Se { depth, order };
                for port in 0..4 {
                    assert_eq!(
                        reg_j.counter(com.port(port), Counter::Replenishments),
                        reg_s.counter(com.port(port), Counter::Replenishments),
                        "replenishments at ({depth},{order},{port})"
                    );
                    assert_eq!(
                        jumped.arena().get(jumped.slot(depth, order, port)),
                        stepped.arena().get(stepped.slot(depth, order, port)),
                        "server state at ({depth},{order},{port})"
                    );
                }
            }
        }
    }

    #[test]
    fn sync_after_a_long_lag_equals_a_tick_loop() {
        // A slot left unread for any lag — across many boundaries, with or
        // without a staged swap — must land exactly where per-cycle ticks
        // would, with every crossing tallied as a replenishment.
        let mut rng = SimRng::seed_from(0x5C4C);
        for case in 0..300 {
            let mut core = test_core(4);
            let slot = rng.range_u64(0, 4) as usize;
            let mut reference = ServerTask::new(iface(7 + rng.range_u64(0, 20), 3));
            for _ in 0..rng.range_u64(0, 30) {
                reference.tick();
            }
            if reference.budget_remaining() > 0 && rng.range_u64(0, 2) == 0 {
                reference.consume();
            }
            if rng.range_u64(0, 2) == 0 {
                reference.reprogram_at_boundary(iface(1 + rng.range_u64(0, 40), 1));
            }
            core.arena.set(TaskSlot::new(slot), Some(reference));
            let mut replenished = 0;
            for _ in 0..4 {
                let lag = rng.range_u64(0, 200);
                core.advance_idle(lag);
                for _ in 0..lag {
                    replenished += u64::from(reference.tick());
                }
                core.sync(slot);
                assert_eq!(
                    core.arena.get(TaskSlot::new(slot)),
                    Some(reference),
                    "case {case}: state after a lag of {lag}"
                );
                assert_eq!(core.d_replenish_port[slot], replenished, "case {case}");
            }
        }
    }

    #[test]
    fn flush_at_arbitrary_cycles_reconverges_replenishments() {
        // The eager twin steps every SE every cycle; the lazy core only
        // closes cycles and jumps idle stretches. Flushed at arbitrary
        // cycles — mid-stretch, right after a staged swap — both
        // registries must agree on every port's replenishments.
        let mut eager = test_core(16);
        let mut lazy = eager.clone();
        let (mut reg_e, mut reg_l) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut rng = SimRng::seed_from(0xF1A5);
        let mut now = 0;
        for round in 0..40 {
            let stretch = rng.range_u64(1, 90);
            for _ in 0..stretch {
                for depth in 0..2 {
                    for order in 0..eager.level_base[depth + 1] - eager.level_base[depth] {
                        eager.step_se(depth, order, now, true, 0, &mut reg_e);
                    }
                }
                eager.end_cycle();
                now += 1;
            }
            if rng.range_u64(0, 2) == 0 {
                lazy.advance_idle(stretch);
            } else {
                for _ in 0..stretch {
                    lazy.end_cycle();
                }
            }
            if round % 7 == 3 {
                let ifaces = vec![Some(iface(9 + round, 3)); 4];
                let order = rng.range_u64(0, 4) as usize;
                let a = eager.program_se_deferred(1, order, &ifaces);
                let b = lazy.program_se_deferred(1, order, &ifaces);
                assert_eq!(a, b, "round {round}: transition latency");
            }
            eager.flush_metrics(&mut reg_e);
            lazy.flush_metrics(&mut reg_l);
            for depth in 0..2 {
                for order in 0..eager.level_base[depth + 1] - eager.level_base[depth] {
                    let com = ComponentId::Se { depth, order };
                    for port in 0..4 {
                        assert_eq!(
                            reg_l.counter(com.port(port), Counter::Replenishments),
                            reg_e.counter(com.port(port), Counter::Replenishments),
                            "round {round}: ({depth},{order},{port})"
                        );
                    }
                }
            }
        }
        assert!(
            reg_e.counter(
                ComponentId::Se { depth: 0, order: 0 }.port(0),
                Counter::Replenishments
            ) > 0
        );
    }

    #[test]
    fn flush_is_idempotent_and_exact() {
        let mut core = test_core(4);
        let mut metrics = MetricsRegistry::new();
        core.try_accept(0, 0, 1, req(1, 100)).unwrap();
        assert!(core.step_se(0, 0, 0, true, 0, &mut metrics).is_some());
        core.end_cycle();
        let com = ComponentId::Se { depth: 0, order: 0 };
        // Nothing visible before the flush...
        assert_eq!(metrics.counter(com, Counter::Grants), 0);
        core.flush_metrics(&mut metrics);
        assert_eq!(metrics.counter(com, Counter::Grants), 1);
        assert_eq!(metrics.counter(com.port(1), Counter::Grants), 1);
        assert_eq!(metrics.counter(com, Counter::Forwarded), 1);
        // ...and a second flush adds nothing.
        core.flush_metrics(&mut metrics);
        assert_eq!(metrics.counter(com, Counter::Grants), 1);
    }
}
