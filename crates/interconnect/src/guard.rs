//! Runtime guards: detection and containment for misbehaving traffic.
//!
//! The analytic side of BlueScale proves that *admitted* clients meet their
//! deadlines; the guard layer watches the running system for the cases the
//! analysis cannot see — lost responses, hardware faults, clients whose
//! runtime behaviour exceeds their declared parameters — and reacts
//! deterministically:
//!
//! * **Deadline-miss detection** — every accepted request is tracked until
//!   delivery; the cycle its deadline passes with the response still
//!   outstanding, a miss is flagged (counter + typed event), without
//!   waiting for the late response to eventually arrive.
//! * **Watchdog retry** — if a response has not returned `timeout` cycles
//!   after acceptance, the request is re-injected (up to `max_retries`
//!   times). Duplicate deliveries — the retry racing the original — are
//!   suppressed and tallied, so completion counts stay exact.
//! * **Quarantine** — a client accumulating `miss_threshold` detected
//!   misses is demoted to best-effort by reconfiguring it to the empty
//!   task set through
//!   [`Interconnect::reconfigure_client`](crate::Interconnect::reconfigure_client),
//!   which re-solves its request path.
//!
//! All guards are **off by default** and, when on, feed only on the guard's
//! own bookkeeping — a fully guarded fault-free run is bit-identical to an
//! unguarded one except for the quarantine guard, which by design feeds
//! back into scheduling (and therefore only acts when misses actually
//! occur, which admitted fault-free runs never exhibit).

use crate::MemoryRequest;
use bluescale_sim::Cycle;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Why a [`GuardConfig`] was rejected by [`GuardConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardConfigError {
    /// The watchdog timeout is shorter than the longest deadline window of
    /// the guarded workload. Such a watchdog re-injects *healthy* slow
    /// requests — the duplicates steal budget from admitted traffic and the
    /// guard itself breaks isolation (the PR-3 isolation-bench finding,
    /// now enforced instead of documented).
    WatchdogBelowDeadlineWindow {
        /// The configured watchdog timeout.
        timeout: Cycle,
        /// The longest deadline window (max task period) in the workload.
        longest_window: Cycle,
    },
}

impl fmt::Display for GuardConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardConfigError::WatchdogBelowDeadlineWindow {
                timeout,
                longest_window,
            } => write!(
                f,
                "watchdog timeout {timeout} is below the longest deadline window \
                 {longest_window}: the watchdog would re-inject healthy slow requests \
                 and break isolation (raise the timeout above every deadline window, \
                 or use Cycle::MAX for detection-only)"
            ),
        }
    }
}

impl std::error::Error for GuardConfigError {}

/// Watchdog parameters: when to give up waiting and how often to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles after acceptance (or after a retry) before re-injecting.
    /// Must exceed the worst-case fault-free response time, or the
    /// watchdog will duplicate slow-but-healthy requests.
    pub timeout: Cycle,
    /// Maximum re-injections per request.
    pub max_retries: u32,
}

/// Quarantine policy: when to demote a client to best-effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Detected deadline misses after which the client is demoted.
    pub miss_threshold: u64,
}

/// Which guards the harness runs. Everything defaults to off, keeping the
/// guarded-but-idle path one branch per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardConfig {
    /// Flag requests whose deadline passes while still outstanding.
    pub deadline_miss_detection: bool,
    /// Re-inject requests whose response never arrived.
    pub watchdog: Option<WatchdogConfig>,
    /// Demote clients that accumulate detected misses (implies
    /// deadline-miss detection).
    pub quarantine: Option<QuarantinePolicy>,
}

impl GuardConfig {
    /// All guards off (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any guard needs per-request outstanding tracking.
    pub fn tracks(&self) -> bool {
        self.deadline_miss_detection || self.watchdog.is_some() || self.quarantine.is_some()
    }

    /// Whether deadline misses must be detected (explicitly, or because
    /// the quarantine guard feeds on them).
    pub fn detects_misses(&self) -> bool {
        self.deadline_miss_detection || self.quarantine.is_some()
    }

    /// Checks this configuration against the workload it is about to
    /// guard. `longest_window` is the longest deadline window (max task
    /// period) across all guarded clients — a request can legitimately
    /// stay outstanding for that many cycles, so a watchdog timeout below
    /// it re-injects healthy requests and breaks the isolation the guard
    /// exists to protect.
    ///
    /// # Errors
    ///
    /// [`GuardConfigError::WatchdogBelowDeadlineWindow`] when a watchdog is
    /// armed with `timeout < longest_window`.
    pub fn validate(&self, longest_window: Cycle) -> Result<(), GuardConfigError> {
        if let Some(w) = &self.watchdog {
            if w.timeout < longest_window {
                return Err(GuardConfigError::WatchdogBelowDeadlineWindow {
                    timeout: w.timeout,
                    longest_window,
                });
            }
        }
        Ok(())
    }
}

/// One tracked in-flight request.
#[derive(Debug, Clone)]
pub(crate) struct Outstanding {
    pub(crate) client: u32,
    /// A clone for re-injection; kept only while a watchdog is armed.
    pub(crate) request: Option<MemoryRequest>,
    pub(crate) retries: u32,
    pub(crate) miss_flagged: bool,
}

/// The guard layer's deterministic bookkeeping. All collections are
/// ordered (B-trees / a binary heap over totally ordered keys), so guard
/// decisions replay identically for identical traffic.
#[derive(Debug, Default)]
pub struct GuardState {
    /// Accepted requests whose response has not been delivered.
    pub(crate) outstanding: BTreeMap<u64, Outstanding>,
    /// `(deadline, id)` min-heap feeding the miss detector.
    pub(crate) deadline_heap: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// `(due, id)` watchdog timers, ordered by expiry.
    pub(crate) retry_due: BTreeSet<(Cycle, u64)>,
    /// Detected misses per client (the quarantine guard's evidence).
    pub(crate) miss_tally: BTreeMap<u32, u64>,
    /// Clients already demoted (or whose demotion was attempted).
    pub(crate) quarantined: BTreeSet<u32>,
}

impl GuardState {
    /// Creates empty guard state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests accepted but not yet delivered — in flight inside the
    /// interconnect or permanently lost to a fault. With duplicate
    /// suppression active, `issued == completed + outstanding` is the
    /// request-conservation invariant the fault smoke test asserts.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Clients demoted (or attempted) by the quarantine guard, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// Detected deadline misses charged to `client` so far.
    pub fn detected_misses(&self, client: u32) -> u64 {
        self.miss_tally.get(&client).copied().unwrap_or(0)
    }

    /// Starts tracking an accepted request. `keep_request` carries the
    /// clone a watchdog needs for re-injection (`None` when no watchdog is
    /// armed).
    pub(crate) fn track(
        &mut self,
        id: u64,
        client: u32,
        deadline: Cycle,
        keep_request: Option<MemoryRequest>,
        now: Cycle,
        config: &GuardConfig,
    ) {
        if config.detects_misses() {
            self.deadline_heap.push(Reverse((deadline, id)));
        }
        if let Some(w) = &config.watchdog {
            // Saturating: a sentinel timeout like `Cycle::MAX` means
            // "detection-only, never retry" and must not overflow the timer
            // arithmetic; the timer lands at `Cycle::MAX` and simply never
            // comes due.
            self.retry_due
                .insert((now.saturating_add(w.timeout.max(1)), id));
        }
        self.outstanding.insert(
            id,
            Outstanding {
                client,
                request: keep_request,
                retries: 0,
                miss_flagged: false,
            },
        );
    }

    /// Closes a delivered request. Returns `true` for the first delivery
    /// and `false` for a duplicate (or a request accepted before tracking
    /// was enabled) — the caller suppresses the latter.
    pub(crate) fn close(&mut self, id: u64) -> bool {
        self.outstanding.remove(&id).is_some()
    }

    /// The earliest cycle at which a guard can act on its own: the next
    /// deadline-miss firing (a deadline `d` is flagged at cycle `d + 1`,
    /// when it has passed with the response still outstanding) or the next
    /// watchdog expiry. [`Cycle::MAX`] with no timers armed.
    ///
    /// Conservative on purpose: heap or timer entries whose request has
    /// already been delivered still report a wake-up — the guard tick at
    /// that cycle then discards them without observable effect, so a
    /// spurious wake-up costs one stepped cycle, never correctness.
    pub fn next_event(&self) -> Cycle {
        let mut next = Cycle::MAX;
        if let Some(&Reverse((deadline, _))) = self.deadline_heap.peek() {
            next = next.min(deadline.saturating_add(1));
        }
        if let Some(&(due, _)) = self.retry_due.iter().next() {
            next = next.min(due);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_tracks_nothing() {
        let c = GuardConfig::disabled();
        assert!(!c.tracks());
        assert!(!c.detects_misses());
    }

    #[test]
    fn quarantine_implies_detection_and_tracking() {
        let c = GuardConfig {
            quarantine: Some(QuarantinePolicy { miss_threshold: 5 }),
            ..GuardConfig::disabled()
        };
        assert!(c.tracks());
        assert!(c.detects_misses());
        let w = GuardConfig {
            watchdog: Some(WatchdogConfig {
                timeout: 100,
                max_retries: 2,
            }),
            ..GuardConfig::disabled()
        };
        assert!(w.tracks());
        assert!(!w.detects_misses());
    }

    #[test]
    fn track_and_close_round_trip() {
        let config = GuardConfig {
            deadline_miss_detection: true,
            ..GuardConfig::disabled()
        };
        let mut state = GuardState::new();
        state.track(7, 3, 100, None, 0, &config);
        assert_eq!(state.outstanding(), 1);
        assert!(state.close(7), "first delivery is fresh");
        assert!(!state.close(7), "second delivery is a duplicate");
        assert_eq!(state.outstanding(), 0);
    }

    #[test]
    fn watchdog_arms_a_timer_per_tracked_request() {
        let config = GuardConfig {
            watchdog: Some(WatchdogConfig {
                timeout: 50,
                max_retries: 1,
            }),
            ..GuardConfig::disabled()
        };
        let mut state = GuardState::new();
        state.track(1, 0, 100, None, 10, &config);
        state.track(2, 0, 100, None, 12, &config);
        let timers: Vec<(Cycle, u64)> = state.retry_due.iter().copied().collect();
        assert_eq!(timers, vec![(60, 1), (62, 2)]);
    }

    #[test]
    fn sentinel_timeout_saturates_instead_of_overflowing() {
        // Regression: `now + Cycle::MAX` used to overflow in debug builds
        // for the documented detection-only configuration.
        let config = GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: Cycle::MAX,
                max_retries: 1,
            }),
            ..GuardConfig::disabled()
        };
        let mut state = GuardState::new();
        state.track(1, 0, 500, None, 100, &config);
        let timers: Vec<(Cycle, u64)> = state.retry_due.iter().copied().collect();
        assert_eq!(
            timers,
            vec![(Cycle::MAX, 1)],
            "timer pinned at the sentinel"
        );
        // The armed-but-never-due timer must not mask the miss wake-up.
        assert_eq!(state.next_event(), 501);
    }

    #[test]
    fn next_event_reports_earliest_guard_action() {
        let mut state = GuardState::new();
        assert_eq!(state.next_event(), Cycle::MAX, "no timers armed");
        let config = GuardConfig {
            deadline_miss_detection: true,
            watchdog: Some(WatchdogConfig {
                timeout: 30,
                max_retries: 1,
            }),
            ..GuardConfig::disabled()
        };
        state.track(1, 0, 100, None, 80, &config);
        // Watchdog due at 110, miss fires at 101 → earliest is the miss.
        assert_eq!(state.next_event(), 101);
        state.track(2, 0, 400, None, 80, &config);
        assert_eq!(state.next_event(), 101, "later request does not mask it");
    }
}
