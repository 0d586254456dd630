//! `bluescale-ctl` — the fault-tolerant multi-tenant control plane.
//!
//! A long-running daemon in front of the BlueScale admission machinery:
//! tenants connect over loopback TCP, submit or renegotiate task sets
//! through a small length-prefixed protocol ([`proto`]), and receive
//! typed admit/reject verdicts plus their own miss/latency stream from
//! the live simulation. The plane is built to stay predictable when the
//! world is not:
//!
//! * **Overload shedding** ([`server`]) — a bounded admission queue with
//!   tiered watermarks: best-effort renegotiations shed first, guaranteed
//!   joins last, leaves never. Shed requests get explicit
//!   [`Response::Shed`] verdicts; the daemon degrades by refusing work,
//!   never by stalling.
//! * **Deadline-aware retry** ([`client`]) — every request carries a
//!   total deadline; transport failures retry with exponential backoff
//!   and seeded deterministic jitter, and the registry's idempotent
//!   admission makes retries of applied-but-unacknowledged ops safe.
//! * **Circuit breaking** ([`breaker`]) — tenants whose requests keep
//!   failing trip open, fast-fail, and get their slot demoted through
//!   the guard quarantine path.
//! * **Crash-consistent recovery** ([`journal`], [`registry`]) — every
//!   admitted operation is journaled (CRC-framed, group-committed) before
//!   its reply; snapshots compact the log atomically. A restarted daemon
//!   replays to the exact pre-crash admission state, pinned bit-identical
//!   by [`ControlRegistry::state_digest`](registry::ControlRegistry::state_digest).
//!
//! Everything is std-only: hand-rolled wire encodings, `TcpListener`
//! threads, no external dependencies.

pub mod breaker;
pub mod client;
pub mod journal;
pub mod proto;
pub mod registry;
pub mod server;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use client::{CtlClient, CtlError, RetryPolicy, TelemetrySubscription};
pub use journal::{recover, Journal, Op, Recovery, Snapshot};
pub use proto::{
    RejectReason, Request, Response, TaskSpec, TelemetryUpdate, TenantClass, TenantStats,
};
pub use registry::{ApplyOutcome, ControlRegistry};
pub use server::{Daemon, DaemonConfig, StartError, StatsSnapshot, TelemetryConfig};
