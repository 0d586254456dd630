//! The Scale Element's arbitration datapath — random-access buffers plus
//! the local scheduler, wired as in Fig 2(b) of the paper — and
//! [`PerSeEngine`], the per-SE reference engine built from them.
//!
//! An SE makes one arbitration decision per cycle using only local
//! information: the occupancy of its per-port buffers and the state of its
//! server-task counters. The decision is combinational in hardware; here it
//! is [`ScaleElement::step`], which returns at most one request to forward
//! to the local provider. The parameter path that programs the counters
//! (the interface selector) is the [`Composition`](crate::composition::Composition)'s.

use crate::memory_side::stuck_mask;
use crate::network::{Engine, EngineIo};
use crate::rab::{QueuePolicy, RandomAccessBuffer};
use crate::scheduler::LocalScheduler;
use crate::topology::{BlueScaleConfig, SeIndex};
use bluescale_interconnect::MemoryRequest;
use bluescale_rt::supply::PeriodicResource;
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry};
use bluescale_sim::Cycle;

/// One Scale Element.
#[derive(Debug, Clone)]
pub struct ScaleElement {
    index: SeIndex,
    buffers: Vec<RandomAccessBuffer>,
    scheduler: LocalScheduler,
    /// The response path's demultiplexer queue (paper, Fig 2(b)): one
    /// response per cycle is routed back toward a local client port.
    responses: std::collections::VecDeque<MemoryRequest>,
}

impl ScaleElement {
    /// Creates an SE with `ports` local client ports and per-port EDF
    /// buffers of `buffer_capacity` entries.
    pub fn new(
        index: SeIndex,
        ports: usize,
        buffer_capacity: usize,
        work_conserving: bool,
    ) -> Self {
        Self::with_queue_policy(
            index,
            ports,
            buffer_capacity,
            work_conserving,
            QueuePolicy::EarliestDeadline,
        )
    }

    /// Creates an SE with an explicit low-level [`QueuePolicy`] (the
    /// nested-priority-queue ablation).
    pub fn with_queue_policy(
        index: SeIndex,
        ports: usize,
        buffer_capacity: usize,
        work_conserving: bool,
        policy: QueuePolicy,
    ) -> Self {
        Self {
            index,
            buffers: (0..ports)
                .map(|_| RandomAccessBuffer::with_policy(buffer_capacity, policy))
                .collect(),
            scheduler: LocalScheduler::new(
                ComponentId::Se {
                    depth: index.depth,
                    order: index.order,
                },
                ports,
                work_conserving,
            ),
            responses: std::collections::VecDeque::new(),
        }
    }

    /// The metrics component id of this SE.
    pub fn component(&self) -> ComponentId {
        self.scheduler.component()
    }

    /// Accepts a response from the local provider into the demultiplexer.
    pub fn accept_response(&mut self, response: MemoryRequest) {
        self.responses.push_back(response);
    }

    /// Routes at most one response per cycle back toward its client: the
    /// demultiplexer is a single register stage in hardware.
    pub fn pop_response(&mut self) -> Option<MemoryRequest> {
        self.responses.pop_front()
    }

    /// Responses currently queued in the demultiplexer.
    pub fn response_occupancy(&self) -> usize {
        self.responses.len()
    }

    /// The element's position in the tree.
    pub fn index(&self) -> SeIndex {
        self.index
    }

    /// Number of local client ports.
    pub fn ports(&self) -> usize {
        self.buffers.len()
    }

    /// Programs the scheduler's server tasks from `interfaces` (one slot
    /// per port; `None` clears the port).
    ///
    /// # Panics
    ///
    /// Panics if `interfaces.len()` differs from the port count.
    pub fn program(&mut self, interfaces: &[Option<PeriodicResource>]) {
        assert_eq!(interfaces.len(), self.ports(), "one interface per port");
        for (port, iface) in interfaces.iter().enumerate() {
            match iface {
                Some(r) => self.scheduler.program(port, *r),
                None => self.scheduler.clear(port),
            }
        }
    }

    /// Programs the scheduler's server tasks from `interfaces` through the
    /// safe mode-change protocol: changed interfaces on running servers are
    /// staged and swap at each server's own replenishment boundary, new
    /// servers program immediately, `None` clears immediately (see
    /// [`LocalScheduler::program_deferred`]). Returns the summed transition
    /// latency (cycles until every staged swap has committed, added over
    /// the affected ports).
    ///
    /// # Panics
    ///
    /// Panics if `interfaces.len()` differs from the port count.
    pub fn program_deferred(&mut self, interfaces: &[Option<PeriodicResource>]) -> u64 {
        assert_eq!(interfaces.len(), self.ports(), "one interface per port");
        interfaces
            .iter()
            .enumerate()
            .map(|(port, iface)| self.scheduler.program_deferred(port, *iface))
            .sum()
    }

    /// The interface currently programmed at `port`.
    pub fn interface(&self, port: usize) -> Option<PeriodicResource> {
        self.scheduler.interface(port)
    }

    /// Whether `port`'s buffer can accept a request this cycle.
    pub fn can_accept(&self, port: usize) -> bool {
        !self.buffers[port].is_full()
    }

    /// The request `port`'s buffer would release next (the grant
    /// candidate a memory policy inspects before arbitration), without
    /// removing it.
    pub fn peek_port(&self, port: usize) -> Option<&MemoryRequest> {
        self.buffers[port].peek()
    }

    /// Offers a request at `port`.
    ///
    /// # Errors
    ///
    /// Returns the request back when the port buffer is full.
    pub fn try_accept(&mut self, port: usize, request: MemoryRequest) -> Result<(), MemoryRequest> {
        self.buffers[port].try_push(request)
    }

    /// Advances one cycle. When `provider_ready` is true the SE may forward
    /// one request toward its local provider; the forwarded request (if
    /// any) is returned. Server counters tick regardless. Grant, throttle
    /// and forward tallies (and, when detail is on, typed events plus the
    /// granted request's lifecycle) land in `metrics` under this SE's
    /// component id.
    pub fn step(
        &mut self,
        now: Cycle,
        provider_ready: bool,
        metrics: &mut MetricsRegistry,
    ) -> Option<MemoryRequest> {
        self.step_masked(now, provider_ready, metrics, 0)
    }

    /// Like [`step`](Self::step), but the ports whose bits are set in
    /// `stuck` are hidden from the scheduler this cycle — their buffered
    /// requests are not eligible for a grant, as if the grant port's
    /// handshake were held low. This is the fault layer's stuck-grant
    /// hook; 0 is the healthy path and behaves exactly like
    /// [`step`](Self::step).
    /// Masked-out ports' servers still tick, so time advances uniformly.
    pub fn step_masked(
        &mut self,
        now: Cycle,
        provider_ready: bool,
        metrics: &mut MetricsRegistry,
        stuck: u64,
    ) -> Option<MemoryRequest> {
        let pending: Vec<bool> = self
            .buffers
            .iter()
            .enumerate()
            .map(|(p, b)| !b.is_empty() && (p >= 64 || stuck & (1 << p) == 0))
            .collect();
        let any_pending = pending.iter().any(|&p| p);
        let mut granted = None;
        if provider_ready {
            if let Some(port) = self.scheduler.select(&pending, now) {
                let request = self.buffers[port]
                    .pop()
                    .expect("selected port must have a pending request");
                self.scheduler.commit_grant(port, metrics);
                metrics.inc(self.component(), Counter::Forwarded);
                metrics.request_granted(now, request.id, self.component(), port);
                granted = Some(request);
            }
        }
        self.scheduler
            .tick(any_pending && granted.is_none(), now, metrics);
        granted
    }

    /// Requests currently buffered across all ports.
    pub fn occupancy(&self) -> usize {
        self.buffers.iter().map(RandomAccessBuffer::len).sum()
    }

    /// Whether this SE is quiescent: no request buffered at any port and no
    /// response queued in the demultiplexer. A quiescent SE stepped
    /// per-cycle does nothing but tick its server counters, which is
    /// exactly what [`advance_idle`](Self::advance_idle) replays in closed
    /// form.
    pub fn is_quiescent(&self) -> bool {
        self.responses.is_empty() && self.buffers.iter().all(RandomAccessBuffer::is_empty)
    }

    /// Advances `delta` cycles across a quiescent stretch: equivalent to
    /// `delta` calls of [`step`](Self::step) with empty buffers (no grant
    /// possible, no throttle — nothing pending), collapsing to the
    /// scheduler's closed-form counter jump.
    pub fn advance_idle(&mut self, delta: Cycle, metrics: &mut MetricsRegistry) {
        debug_assert!(self.is_quiescent(), "advance_idle on a non-idle SE");
        self.scheduler.advance_idle(delta, metrics);
    }
}

/// The per-SE reference engine: one [`ScaleElement`] per SE, stepped one
/// element at a time. It is the straightforward model of the hardware
/// that [`SoaCore`](crate::soa::SoaCore), the engine every harness runs,
/// is pinned against: the differential suites run both behind
/// `BlueScaleInterconnect<E>` and require bit-identical results.
#[derive(Debug, Clone)]
pub struct PerSeEngine {
    branch: usize,
    /// `elements[d]` holds the `branch^d` SEs of depth `d` (0 = root).
    elements: Vec<Vec<ScaleElement>>,
}

impl Engine for PerSeEngine {
    fn build(config: &BlueScaleConfig, interfaces: &[Vec<Vec<Option<PeriodicResource>>>]) -> Self {
        let elements = interfaces
            .iter()
            .enumerate()
            .map(|(d, level)| {
                level
                    .iter()
                    .enumerate()
                    .map(|(y, ifaces)| {
                        let mut se = ScaleElement::with_queue_policy(
                            SeIndex::new(d, y),
                            config.branch,
                            config.buffer_capacity,
                            config.work_conserving,
                            config.low_level_policy,
                        );
                        se.program(ifaces);
                        se
                    })
                    .collect()
            })
            .collect();
        Self {
            branch: config.branch,
            elements,
        }
    }

    fn program_se_deferred(
        &mut self,
        depth: usize,
        order: usize,
        interfaces: &[Option<PeriodicResource>],
    ) -> u64 {
        self.elements[depth][order].program_deferred(interfaces)
    }

    fn try_accept(
        &mut self,
        depth: usize,
        order: usize,
        port: usize,
        request: MemoryRequest,
    ) -> Result<(), MemoryRequest> {
        self.elements[depth][order].try_accept(port, request)
    }

    fn step(&mut self, io: &mut EngineIo, now: Cycle) {
        let (levels, branch) = (self.elements.len(), self.branch);
        // 1. Response path: each SE's demultiplexer routes one response per
        //    cycle toward its client. Leaves deliver first (bottom-up), so
        //    a response advances exactly one level per cycle.
        for depth in (0..levels).rev() {
            if depth == levels - 1 {
                for se in &mut self.elements[depth] {
                    if let Some(request) = se.pop_response() {
                        io.deliver(request, now);
                    }
                }
            } else {
                let (upper, lower) = self.elements.split_at_mut(depth + 1);
                let children = &mut lower[0];
                for (order, parent) in upper[depth].iter_mut().enumerate() {
                    if let Some(request) = parent.pop_response() {
                        // Route by client id: which child subtree owns it?
                        let leaf_order = request.client as usize / branch;
                        let child_order = leaf_order / branch.pow((levels - 2 - depth) as u32);
                        debug_assert_eq!(
                            child_order / branch.max(1),
                            order,
                            "response routed through the wrong subtree"
                        );
                        children[child_order].accept_response(request);
                    }
                }
            }
        }
        // 2. Memory completions enter the root's demultiplexer.
        if let Some(done) = io.mem.complete(now, &mut io.metrics) {
            self.elements[0][0].accept_response(done);
        }
        // 3. Root arbitration feeds the memory controller.
        let root_ready = io.mem.can_accept();
        let root = &mut self.elements[0][0];
        let mask = io
            .mem
            .root_mask(now, root_ready, branch, &mut io.metrics, |port| {
                root.peek_port(port)
            });
        let granted = root.step_masked(now, root_ready, &mut io.metrics, mask);
        if let Some(request) = granted {
            io.issue(request, now);
        }
        // 4. Deeper levels forward one request per SE toward their parents.
        for depth in 1..levels {
            let (upper, lower) = self.elements.split_at_mut(depth);
            let parents = &mut upper[depth - 1];
            for (order, se) in lower[0].iter_mut().enumerate() {
                let parent = &mut parents[order / branch];
                let port = order % branch;
                let ready = parent.can_accept(port);
                let mask = stuck_mask(io.mem.faults(), depth, order, branch, now, &mut io.metrics);
                let granted = se.step_masked(now, ready, &mut io.metrics, mask);
                if let Some(request) = granted {
                    parent
                        .try_accept(port, request)
                        .expect("parent advertised a free slot");
                }
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.elements
            .iter()
            .flatten()
            .map(|se| se.occupancy() + se.response_occupancy())
            .sum()
    }

    fn advance_idle(&mut self, delta: Cycle, metrics: &mut MetricsRegistry) {
        for se in self.elements.iter_mut().flatten() {
            se.advance_idle(delta, metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluescale_interconnect::AccessKind;

    fn req(id: u64, client: u32, deadline: u64) -> MemoryRequest {
        MemoryRequest {
            id,
            client,
            task: 0,
            addr: 0,
            kind: AccessKind::Read,
            issued_at: 0,
            deadline,
            blocked_cycles: 0,
        }
    }

    fn programmed_se(ports: usize) -> ScaleElement {
        let mut se = ScaleElement::new(SeIndex::new(1, 0), ports, 8, false);
        let ifaces: Vec<Option<PeriodicResource>> = (0..ports)
            .map(|_| Some(PeriodicResource::new(4, 1).unwrap()))
            .collect();
        se.program(&ifaces);
        se
    }

    const SE: ComponentId = ComponentId::Se { depth: 1, order: 0 };

    #[test]
    fn forwards_only_when_provider_ready() {
        let mut reg = MetricsRegistry::new();
        let mut se = programmed_se(4);
        se.try_accept(0, req(1, 0, 100)).unwrap();
        assert_eq!(se.step(0, false, &mut reg), None);
        assert!(se.step(1, true, &mut reg).is_some());
    }

    #[test]
    fn idle_se_forwards_nothing() {
        let mut reg = MetricsRegistry::new();
        let mut se = programmed_se(4);
        assert_eq!(se.step(0, true, &mut reg), None);
        assert_eq!(reg.counter(SE, Counter::Forwarded), 0);
    }

    #[test]
    fn earliest_server_deadline_wins_across_ports() {
        let mut se = ScaleElement::new(SeIndex::new(1, 0), 2, 8, false);
        se.program(&[
            Some(PeriodicResource::new(10, 2).unwrap()),
            Some(PeriodicResource::new(3, 1).unwrap()),
        ]);
        se.try_accept(0, req(1, 0, 5)).unwrap();
        se.try_accept(1, req(2, 1, 500)).unwrap();
        // Port 1's server replenishes sooner (deadline 3 < 10), so its
        // request forwards first even though its request deadline is later:
        // the upper-level queue arbitrates *servers*, not requests.
        let fwd = se.step(0, true, &mut MetricsRegistry::new()).unwrap();
        assert_eq!(fwd.id, 2);
    }

    #[test]
    fn budget_exhaustion_throttles_port() {
        let mut reg = MetricsRegistry::new();
        let mut se = ScaleElement::new(SeIndex::new(1, 0), 1, 8, false);
        se.program(&[Some(PeriodicResource::new(10, 2).unwrap())]);
        for i in 0..5 {
            se.try_accept(0, req(i, 0, 100 + i)).unwrap();
        }
        let mut forwarded = 0;
        for now in 0..10 {
            if se.step(now, true, &mut reg).is_some() {
                forwarded += 1;
            }
        }
        // Budget Θ=2 per Π=10: only two forwards in the first period.
        assert_eq!(forwarded, 2);
        // Next period allows more.
        for now in 10..20 {
            if se.step(now, true, &mut reg).is_some() {
                forwarded += 1;
            }
        }
        assert_eq!(forwarded, 4);
        assert_eq!(reg.counter(SE, Counter::Forwarded), 4);
        assert!(reg.counter(SE, Counter::ThrottledCycles) > 0);
    }

    #[test]
    fn earlier_server_deadline_outranks_earlier_request_deadline() {
        let mut se = ScaleElement::new(SeIndex::new(1, 0), 2, 8, false);
        // Port 1 replenishes sooner → wins, though port 0 holds the earlier
        // request deadline.
        se.program(&[
            Some(PeriodicResource::new(10, 5).unwrap()),
            Some(PeriodicResource::new(2, 1).unwrap()),
        ]);
        se.try_accept(0, req(1, 0, 50)).unwrap();
        se.try_accept(1, req(2, 1, 90)).unwrap();
        let mut reg = MetricsRegistry::new();
        let first = se.step(0, true, &mut reg).unwrap();
        assert_eq!(first.id, 2, "port 1 wins on server deadline");
        let second = se.step(1, true, &mut reg).unwrap();
        assert_eq!(second.id, 1);
    }

    #[test]
    fn unprogrammed_ports_are_dead() {
        let mut reg = MetricsRegistry::new();
        let mut se = ScaleElement::new(SeIndex::new(0, 0), 4, 8, false);
        se.try_accept(2, req(1, 2, 10)).unwrap();
        for now in 0..20 {
            assert_eq!(se.step(now, true, &mut reg), None);
        }
    }

    #[test]
    fn occupancy_tracks_buffers() {
        let mut se = programmed_se(4);
        se.try_accept(0, req(1, 0, 10)).unwrap();
        se.try_accept(3, req(2, 3, 20)).unwrap();
        assert_eq!(se.occupancy(), 2);
        se.step(0, true, &mut MetricsRegistry::new());
        assert_eq!(se.occupancy(), 1);
    }

    #[test]
    fn step_with_detail_tracks_grant_lifecycle() {
        let mut reg = MetricsRegistry::with_detail(32);
        let mut se = programmed_se(2);
        reg.request_enqueued(0, 7, 0, se.component());
        se.try_accept(0, req(7, 0, 100)).unwrap();
        let fwd = se.step(3, true, &mut reg).unwrap();
        assert_eq!(fwd.id, 7);
        use bluescale_sim::metrics::Event;
        assert!(reg.events().iter().any(|e| matches!(
            e.event,
            Event::Grant {
                component: SE,
                port: 0,
                request: 7
            }
        )));
        let b = reg.request_completed(10, 7).expect("lifecycle tracked");
        assert_eq!(b.queueing, 3);
    }

    #[test]
    fn advance_idle_equals_idle_steps() {
        let mut stepped = programmed_se(4);
        let mut reg_s = MetricsRegistry::new();
        for now in 0..13 {
            assert_eq!(stepped.step(now, true, &mut reg_s), None);
        }
        let mut jumped = programmed_se(4);
        let mut reg_j = MetricsRegistry::new();
        assert!(jumped.is_quiescent());
        jumped.advance_idle(13, &mut reg_j);
        for port in 0..4 {
            assert_eq!(
                reg_j.counter(SE.port(port), Counter::Replenishments),
                reg_s.counter(SE.port(port), Counter::Replenishments),
                "replenishments at port {port}"
            );
            assert_eq!(
                jumped.interface(port).map(|i| i.period()),
                stepped.interface(port).map(|i| i.period())
            );
        }
        // Counter phase matches: the next request is granted at the same
        // budget state either way.
        stepped.try_accept(0, req(1, 0, 100)).unwrap();
        jumped.try_accept(0, req(2, 0, 100)).unwrap();
        assert!(!jumped.is_quiescent());
        assert_eq!(
            stepped.step(13, true, &mut reg_s).is_some(),
            jumped.step(13, true, &mut reg_j).is_some()
        );
    }

    #[test]
    #[should_panic(expected = "one interface per port")]
    fn program_wrong_arity_panics() {
        let mut se = ScaleElement::new(SeIndex::new(0, 0), 4, 8, false);
        se.program(&[None]);
    }
}
