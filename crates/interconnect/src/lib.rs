//! Common interconnect framework for the BlueScale reproduction.
//!
//! Everything the evaluation compares — BlueScale itself and the five
//! baselines — plugs into the same harness through the [`Interconnect`]
//! trait: clients inject [`MemoryRequest`]s at their ports, the interconnect
//! is stepped once per cycle, and completed [`MemoryResponse`]s appear back
//! at the client side. The [`system::System`] harness drives periodic
//! [`client::TrafficGenerator`]s against any implementation and collects
//! [`metrics::RunMetrics`] (latency, blocking, deadline misses) — the
//! quantities plotted in the paper's Figures 6 and 7.

#![warn(missing_docs)]

pub mod admission;
pub mod buffer;
pub mod calendar;
pub mod client;
pub mod guard;
pub mod metrics;
pub mod system;

use crate::admission::ReconfigOutcome;
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::FaultPlan;
use bluescale_sim::metrics::MetricsRegistry;
use bluescale_sim::Cycle;
use std::fmt;

/// Identifier of a client (processor or hardware accelerator), `µ.x` in the
/// paper's figures.
pub type ClientId = u32;

/// Whether a transaction reads or writes memory. Both directions traverse
/// the same request/response paths; the kind only influences the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load: data returns with the response.
    Read,
    /// A store: the response is the write acknowledgement.
    Write,
}

/// A memory transaction travelling from a client toward the memory
/// sub-system.
///
/// The request carries its real-time context (deadline, owning task) because
/// BlueScale's whole point is that arbitration decisions can read it. Its
/// `blocked_cycles` field carries the paper's "blocking latency" metric,
/// written once when the harness records the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRequest {
    /// Globally unique request id.
    pub id: u64,
    /// Issuing client.
    pub client: ClientId,
    /// Task (within the client) the request belongs to.
    pub task: u32,
    /// Physical byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the owning job released the request.
    pub issued_at: Cycle,
    /// Absolute deadline (job release + task period; implicit deadlines).
    pub deadline: Cycle,
    /// Cycles this request spent blocked behind later-deadline requests:
    /// the memory-channel time granted to later-deadline requests while it
    /// waited. [`system::HarnessCore::record_response`] writes it on
    /// delivery, for every architecture alike; stages do not keep it up to
    /// date in flight (the FIFO baselines still charge their own per-stage
    /// count, which that write replaces).
    pub blocked_cycles: u64,
}

impl MemoryRequest {
    /// End-to-end latency if the request completed at `now`.
    pub fn latency_at(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.issued_at)
    }

    /// Whether completing at `now` would miss the deadline.
    pub fn misses_at(&self, now: Cycle) -> bool {
        now > self.deadline
    }
}

impl fmt::Display for MemoryRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req#{} µ.{} task {} @{:#x} dl={}",
            self.id, self.client, self.task, self.addr, self.deadline
        )
    }
}

/// A completed memory transaction returning to its client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryResponse {
    /// The original request, including its accumulated blocking cycles.
    pub request: MemoryRequest,
    /// Cycle at which the response reached the client port.
    pub completed_at: Cycle,
}

impl MemoryResponse {
    /// End-to-end latency of the transaction.
    pub fn latency(&self) -> Cycle {
        self.request.latency_at(self.completed_at)
    }

    /// Whether the transaction missed its deadline.
    pub fn missed_deadline(&self) -> bool {
        self.request.misses_at(self.completed_at)
    }
}

/// One grant of the shared memory channel: at cycle `at`, a request with
/// absolute deadline `deadline` started `duration` cycles of service.
///
/// The harness uses the stream of service events to compute **blocking
/// latency** uniformly across architectures: a waiting request was blocked
/// by lower-priority traffic during every service interval whose deadline
/// was *later* than its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceEvent {
    /// Cycle at which service began.
    pub at: Cycle,
    /// Absolute deadline of the serviced request.
    pub deadline: Cycle,
    /// Service duration in cycles.
    pub duration: u64,
}

/// A memory interconnect under test: accepts requests at client ports,
/// moves them toward the shared memory sub-system one cycle at a time, and
/// returns responses.
///
/// Implementations own their memory controller (the tree root) so that the
/// harness treats every architecture uniformly.
pub trait Interconnect {
    /// Human-readable architecture name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Number of client ports.
    fn num_clients(&self) -> usize;

    /// Offers a request at its client's port. Returns the request back if
    /// the port buffer is full this cycle (the client retries later).
    ///
    /// # Errors
    ///
    /// The rejected request is returned as the error value so the caller
    /// can re-queue it without cloning.
    fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest>;

    /// Advances the interconnect by one cycle: arbitration, forwarding,
    /// memory service and response routing.
    fn step(&mut self, now: Cycle);

    /// Removes one response that has reached its client port, if any.
    fn pop_response(&mut self) -> Option<MemoryResponse>;

    /// Number of requests currently inside the interconnect (including the
    /// memory controller and the response path).
    fn pending(&self) -> usize;

    /// Drains one memory-channel service event recorded since the last
    /// call, if any. The default implementation reports none (acceptable
    /// for test doubles; the real architectures all record their grants).
    fn pop_service_event(&mut self) -> Option<ServiceEvent> {
        None
    }

    /// The interconnect's internal metrics registry, if it keeps one.
    /// Component-level counters (per-SE grants, memory-controller tallies)
    /// live here; harness-level aggregates live in the
    /// [`system::System`]'s own registry. The default reports none.
    ///
    /// A `&self` read cannot fold, so an implementation that batches its
    /// tallies may return values that lag until the next
    /// [`metrics_mut`](Self::metrics_mut). The harness does not fold after
    /// each span: read through [`system::System::fabric_metrics`] (or
    /// after [`system::System::run`]) for exact tallies.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// Mutable access to the internal registry (used to enable detail
    /// recording and by exporters). Implementations fold any batched or
    /// mirrored tallies on this call, so the registry it returns is exact.
    /// The default reports none.
    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        None
    }

    /// Installs the interconnect-side hooks of a fault plan (stuck grant
    /// ports, DRAM timing jitter, dropped responses). Client-side faults
    /// (rogue demand, bursts) are applied by the harness and need no
    /// cooperation here. The default ignores the plan — an implementation
    /// without fault hooks simply cannot misbehave.
    fn install_fault_plan(&mut self, _plan: &FaultPlan) {}

    /// Runs admission control for a live reconfiguration of `client`'s
    /// declared task set (the empty set = the client leaves) and, on
    /// acceptance, installs the new parameters through a safe mode-change
    /// protocol: reconfigured servers swap `(Π, Θ)` only at their own
    /// replenishment boundary, so already-admitted clients keep their
    /// guarantees across the transition. On rejection the interconnect's
    /// state must be bit-identical to the state before the call.
    ///
    /// The default reports [`ReconfigOutcome::Unsupported`] — the
    /// architecture has no runtime admission control — and the caller
    /// decides how to degrade (the harness applies the retask without a
    /// guarantee, so churn scenarios still drive baselines).
    fn reconfigure_client(
        &mut self,
        _client: ClientId,
        _tasks: &TaskSet,
        _now: Cycle,
    ) -> ReconfigOutcome {
        ReconfigOutcome::Unsupported
    }

    /// The earliest cycle ≥ `now` at which this interconnect's observable
    /// state can change without new input — the fabric-side half of the
    /// next-event fast-forward contract (`Some(now)` = busy, do not jump;
    /// `Some(Cycle::MAX)` = idle until the next injection).
    ///
    /// Returning `None` means the architecture does not support
    /// fast-forwarding; the harness then steps it per-cycle, which is
    /// always correct. That is the default, so test doubles and baseline
    /// models stay bit-identical without opting in.
    fn next_event_hint(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Advances internal countdown state (server P/B counters) by `delta`
    /// cycles in closed form across a stretch the caller proved idle via
    /// [`next_event_hint`](Self::next_event_hint): the hint at `now` was
    /// `≥ now + delta`. Implementations must make this bit-identical to
    /// `delta` per-cycle steps with no traffic. The default is a no-op,
    /// correct for any architecture whose hint is `None`.
    fn advance_idle(&mut self, _now: Cycle, _delta: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, issued: Cycle, deadline: Cycle) -> MemoryRequest {
        MemoryRequest {
            id,
            client: 0,
            task: 0,
            addr: 0,
            kind: AccessKind::Read,
            issued_at: issued,
            deadline,
            blocked_cycles: 0,
        }
    }

    #[test]
    fn latency_and_miss_accounting() {
        let r = req(1, 100, 150);
        assert_eq!(r.latency_at(130), 30);
        assert!(!r.misses_at(150));
        assert!(r.misses_at(151));
    }

    #[test]
    fn response_delegates_to_request() {
        let resp = MemoryResponse {
            request: req(2, 10, 20),
            completed_at: 25,
        };
        assert_eq!(resp.latency(), 15);
        assert!(resp.missed_deadline());
    }

    #[test]
    fn display_is_informative() {
        let s = req(3, 0, 9).to_string();
        assert!(s.contains("req#3"));
        assert!(s.contains("dl=9"));
    }
}
