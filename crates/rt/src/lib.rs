//! Real-time scheduling theory underpinning BlueScale (DAC 2022, Section 5).
//!
//! The paper schedules memory transactions *compositionally*: each Scale
//! Element (SE) gives every local client the illusion of a dedicated Virtual
//! Element (VE) characterized by a **periodic resource interface** `(Π, Θ)` —
//! at least `Θ` transaction time units are guaranteed every `Π` units
//! (Shin & Lee 2003). This crate implements the analysis side:
//!
//! * [`task`] — periodic tasks `(T, C)`, task sets, utilization.
//! * [`demand`] — the demand bound function under EDF,
//!   `dbf(t, τᵢ) = ⌊t/Tᵢ⌋·Cᵢ`.
//! * [`supply`] — the periodic resource model and its supply bound function.
//! * [`schedulability`] — the `dbf ≤ sbf` test with the paper's Theorem 1
//!   (finite test bound β) and Theorem 2 (finite Π search range).
//! * [`interface`] — the interface-selection algorithm: minimum-bandwidth
//!   `(Π, Θ)` per VE, plus level-by-level resolution over a client tree and
//!   the root over-utilization check `Σ Θ/Π ≤ 1`.
//! * [`rational`] — exact rational utilization accumulation, so admission
//!   boundaries (`Σ C/T ≤ 1`) carry no floating-point tolerance.
//! * [`edf`] — an EDF ready queue (the low-level nested priority queue).
//! * [`fixed_priority`] — deadline-monotonic response-time analysis on a
//!   periodic resource, for clients that schedule with fixed priorities.
//! * [`edp`] — the explicit-deadline periodic resource model (Easwaran et
//!   al.), an extension that shrinks supply blackouts and with them the
//!   compositional bandwidth overhead.
//! * [`server`] — server tasks as P-counter/B-counter pairs (the upper-level
//!   queue), exactly mirroring the hardware of the paper's Section 4.2.
//! * [`validate`] — a discrete EDF schedule simulator on the worst-case
//!   supply pattern, used to cross-check the analysis empirically.
//!
//! # Example: select a minimum-bandwidth interface
//!
//! ```
//! use bluescale_rt::task::{Task, TaskSet};
//! use bluescale_rt::interface::{select_interface, SelectionContext};
//!
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, 20, 2)?,
//!     Task::new(1, 50, 5)?,
//! ])?;
//! let ctx = SelectionContext::isolated(&tasks);
//! let iface = select_interface(&tasks, &ctx)?;
//! assert!(iface.bandwidth() >= tasks.utilization());
//! # Ok::<(), bluescale_rt::Error>(())
//! ```

#![warn(missing_docs)]

pub mod demand;
pub mod edf;
pub mod edp;
pub mod fixed_priority;
pub mod interface;
pub mod rational;
pub mod schedulability;
pub mod server;
pub mod supply;
pub mod task;
pub mod validate;

use std::fmt;

/// Discrete model time used throughout the analysis (the paper assumes
/// integer `T`, `C`, `Π`, `Θ`).
pub type Time = u64;

/// Errors produced by the analysis APIs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A task was constructed with a zero period or zero execution time, or
    /// with `C > T` (utilization above one).
    InvalidTask {
        /// Identifier of the offending task.
        id: u32,
        /// Explanation of the violated constraint.
        reason: &'static str,
    },
    /// A task set exceeded full utilization, so no interface can serve it.
    Overutilized {
        /// Total utilization of the offending set (×1000, rounded).
        utilization_millis: u64,
    },
    /// No feasible `(Π, Θ)` interface exists within the Theorem 2 range.
    NoFeasibleInterface,
    /// Duplicate task identifiers within one task set.
    DuplicateTaskId {
        /// The repeated identifier.
        id: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidTask { id, reason } => {
                write!(f, "invalid task {id}: {reason}")
            }
            Error::Overutilized { utilization_millis } => write!(
                f,
                "task set utilization {}.{:03} exceeds 1",
                utilization_millis / 1000,
                utilization_millis % 1000
            ),
            Error::NoFeasibleInterface => {
                write!(f, "no feasible periodic resource interface exists")
            }
            Error::DuplicateTaskId { id } => {
                write!(f, "duplicate task id {id} in task set")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = Error::InvalidTask {
            id: 3,
            reason: "period must be positive",
        };
        assert_eq!(e.to_string(), "invalid task 3: period must be positive");
        let e = Error::Overutilized {
            utilization_millis: 1250,
        };
        assert!(e.to_string().contains("1.250"));
        assert!(!Error::NoFeasibleInterface.to_string().is_empty());
        assert!(Error::DuplicateTaskId { id: 7 }.to_string().contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
