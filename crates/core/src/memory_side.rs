//! The root's memory side: the one place a BlueScale tree touches memory.
//!
//! Arbitration stays local to each SE; only the root hands requests to the
//! memory controller. [`MemorySide`] owns everything on that seam — the
//! controller, the memory-scheduling policy and the interconnect-side
//! fault plan — and every engine (per-SE reference, serial SoA, shard
//! coordinator) drives it through the same four calls per cycle:
//! [`complete`](MemorySide::complete), [`root_mask`](MemorySide::root_mask),
//! the engine's own root grant, then [`issue`](MemorySide::issue). The idle
//! bound for fast-forwarding ([`idle_bound`](MemorySide::idle_bound)) lives
//! here too, so a new policy verb or fault class is written once.

use crate::topology::BlueScaleConfig;
use bluescale_interconnect::{MemoryRequest, ServiceEvent};
use bluescale_mem::{DramConfig, GrantCandidate, MemoryController, MemoryPolicy};
use bluescale_sim::fault::{FaultKind, FaultPlan};
use bluescale_sim::metrics::{ComponentId, Counter, Event, MetricsRegistry};
use bluescale_sim::Cycle;

/// The memory controller, its scheduling policy and the interconnect-side
/// fault plan (stuck grants, DRAM jitter, dropped responses). An empty
/// plan and a passive policy keep every call on the exact fault-free,
/// policy-free path.
#[derive(Debug, Clone)]
pub(crate) struct MemorySide {
    controller: MemoryController<MemoryRequest>,
    /// Memory-scheduling policy at the root-arbitration seam
    /// ([`BlueScaleConfig::mem_policy`]). Fed absolute cycles only, so
    /// every engine's copy stays in lock-step.
    policy: Box<dyn MemoryPolicy>,
    /// Owns the stateful drop-response bookkeeping, so stuck-mask queries
    /// from shard workers go to read-only clones instead.
    faults: FaultPlan,
}

impl MemorySide {
    pub(crate) fn new(config: &BlueScaleConfig) -> Self {
        Self {
            controller: MemoryController::new(
                config
                    .dram
                    .unwrap_or(DramConfig::flat(config.memory_service_cycles)),
            ),
            policy: config.mem_policy.build(),
            faults: FaultPlan::default(),
        }
    }

    /// Installs a fresh copy of `plan` (its run state rewound).
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        let mut plan = plan.clone();
        plan.reset_state();
        self.faults = plan;
    }

    /// The interconnect-side fault plan (for per-SE stuck masks).
    pub(crate) fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    pub(crate) fn controller(&self) -> &MemoryController<MemoryRequest> {
        &self.controller
    }

    /// Whether the channel can take a request this cycle.
    pub(crate) fn can_accept(&self) -> bool {
        self.controller.can_accept()
    }

    /// Emits one fault-activation event per interconnect-side fault window
    /// that opens this cycle. Per-cycle fault activity (masked grants,
    /// stretched service) is tallied where it happens.
    pub(crate) fn announce(&self, now: Cycle, metrics: &mut MetricsRegistry) {
        for spec in self.faults.specs() {
            if spec.window.start != now || !spec.window.contains(now) {
                continue;
            }
            let component = match spec.kind {
                FaultKind::StuckGrant { depth, order, .. } => ComponentId::Se { depth, order },
                FaultKind::DramJitter { bank, .. } => ComponentId::Bank(bank),
                FaultKind::DropResponse { client, .. } => ComponentId::Client(client),
                // Client-side faults are announced by the harness.
                FaultKind::RogueDemand { .. } | FaultKind::RequestBurst { .. } => continue,
            };
            metrics.record(
                now,
                Event::FaultInjected {
                    component,
                    class: spec.kind.class(),
                },
            );
        }
    }

    /// The request whose memory service finishes this cycle, bound for the
    /// root's demultiplexer — unless a drop-response fault swallows it on
    /// the way back (a lost response beat: the request is gone until a
    /// guard-layer watchdog re-issues it).
    pub(crate) fn complete(
        &mut self,
        now: Cycle,
        metrics: &mut MetricsRegistry,
    ) -> Option<MemoryRequest> {
        let done = self.controller.poll_complete(now)?;
        if !self.faults.is_empty() && self.faults.should_drop_response(done.client, now) {
            metrics.inc(ComponentId::System, Counter::FaultsInjected);
            metrics.inc(ComponentId::System, Counter::ResponsesDropped);
            metrics.inc(ComponentId::Client(done.client), Counter::ResponsesDropped);
            metrics.record(
                now,
                Event::ResponseDropped {
                    client: done.client,
                    request: done.id,
                },
            );
            return None;
        }
        metrics.request_mem_complete(now, done.id);
        Some(done)
    }

    /// The root SE's grant mask for this cycle: a stuck-grant fault hides
    /// its port from the scheduler, and an active policy widens the same
    /// mask with its defer verdict over the port heads `peek` shows.
    /// Deferred candidates stay queued in their buffers, so request
    /// conservation is untouched. `None` (no allocation) on the default
    /// fault-free, passive path.
    pub(crate) fn root_mask<'a>(
        &mut self,
        now: Cycle,
        ready: bool,
        branch: usize,
        metrics: &mut MetricsRegistry,
        peek: impl Fn(usize) -> Option<&'a MemoryRequest>,
    ) -> Option<Vec<bool>> {
        let mut mask = if self.faults.is_empty() {
            None
        } else {
            stuck_mask(&self.faults, 0, 0, branch, now, metrics)
        };
        if self.policy.is_passive() || !ready {
            return mask;
        }
        let mut candidates: Vec<GrantCandidate> = Vec::with_capacity(branch);
        for port in 0..branch {
            if mask.as_ref().is_some_and(|m| m[port]) {
                continue;
            }
            if let Some(head) = peek(port) {
                let (bank, _) = self.controller.decode(head.addr);
                candidates.push(GrantCandidate {
                    port,
                    client: head.client,
                    bank,
                    deadline: head.deadline,
                });
            }
        }
        if candidates.is_empty() {
            return mask;
        }
        let defer = self.policy.defer_mask(now, &candidates);
        if defer != 0 {
            let m = mask.get_or_insert_with(|| vec![false; branch]);
            for (i, c) in candidates.iter().enumerate() {
                if defer & (1 << i) != 0 {
                    m[c.port] = true;
                    metrics.inc(ComponentId::Memory, Counter::PolicyDeferred);
                }
            }
        }
        mask
    }

    /// Hands the root's grant to the channel: DRAM jitter stretches its
    /// service, the policy classifies and accounts it. Returns the grant's
    /// entry for the harness's service log.
    pub(crate) fn issue(
        &mut self,
        request: MemoryRequest,
        now: Cycle,
        metrics: &mut MetricsRegistry,
    ) -> ServiceEvent {
        let (id, addr, client, deadline) =
            (request.id, request.addr, request.client, request.deadline);
        let extra = if self.faults.is_empty() {
            0
        } else {
            let (bank, _) = self.controller.decode(addr);
            let extra = self.faults.dram_jitter(bank, now);
            if extra > 0 {
                metrics.inc(ComponentId::System, Counter::FaultsInjected);
                metrics.inc(ComponentId::Bank(bank), Counter::FaultsInjected);
            }
            extra
        };
        let class = self.policy.service_class(client);
        let duration = self
            .controller
            .accept_classed(request, addr, now, extra, class);
        if !self.policy.is_passive() {
            let (bank, _) = self.controller.decode(addr);
            self.policy.on_issue(now, client, bank);
        }
        metrics.request_mem_issue(now, id, duration);
        ServiceEvent {
            at: now,
            deadline,
            duration,
        }
    }

    /// The earliest cycle the memory side can act on an otherwise idle
    /// fabric: the in-flight completion, tightened by fault windows
    /// (active windows force per-cycle stepping, future ones bound the
    /// jump) and by the policy's next unblock. A policy only defers
    /// pending requests, which already pin the engine to `now`; the bound
    /// keeps the lookahead conservative should one ever track cross-idle
    /// state (DESIGN.md §16.3).
    pub(crate) fn idle_bound(&self, now: Cycle) -> Cycle {
        let mut next = self
            .controller
            .next_completion()
            .map_or(Cycle::MAX, |done| done.max(now));
        if !self.faults.is_empty() {
            next = next.min(self.faults.next_activity(now));
        }
        if !self.policy.is_passive() {
            next = next.min(self.policy.next_unblock(now));
        }
        next
    }
}

/// SE `(depth, order)`'s stuck-grant mask this cycle, tallying one
/// `FaultsInjected` at the system and the SE while a window holds it.
/// Coordinates are global (the plan is written against the full tree).
pub(crate) fn stuck_mask(
    plan: &FaultPlan,
    depth: usize,
    order: usize,
    branch: usize,
    now: Cycle,
    metrics: &mut MetricsRegistry,
) -> Option<Vec<bool>> {
    let mask = plan.stuck_mask(depth, order, branch, now);
    if mask.is_some() {
        metrics.inc(ComponentId::System, Counter::FaultsInjected);
        metrics.inc(ComponentId::Se { depth, order }, Counter::FaultsInjected);
    }
    mask
}
