//! Cycle-level simulation kernel shared by every interconnect model in the
//! BlueScale reproduction.
//!
//! This crate is deliberately small and dependency-free. It provides:
//!
//! * [`Cycle`] — the simulation time unit (one interconnect clock cycle) and
//!   the [`Clock`] that advances it and converts it to wall-clock time.
//! * [`rng::SimRng`] — a deterministic, seedable `SplitMix64` generator so
//!   every experiment is exactly reproducible from its seed.
//! * [`stats`] — online statistics (Welford mean/variance) and sample-based
//!   percentile summaries used to report latency distributions.
//! * [`metrics`] — a typed observability registry (counters, gauges,
//!   distributions, events, per-request latency breakdowns) shared by every
//!   interconnect model and consumed by the benches.
//! * [`fault`] — deterministic, cycle-keyed fault-injection plans replayed
//!   bit-identically from a seed.
//! * [`next_event`] — the conservative "nothing before cycle X" contract
//!   that lets harnesses fast-forward provably-idle stretches.
//!
//! # Example
//!
//! ```
//! use bluescale_sim::{Clock, rng::SimRng, stats::OnlineStats};
//!
//! let mut clock = Clock::with_frequency_mhz(100);
//! let mut rng = SimRng::seed_from(42);
//! let mut lat = OnlineStats::new();
//! for _ in 0..1000 {
//!     clock.tick();
//!     lat.push(rng.range_u64(1, 10) as f64);
//! }
//! assert_eq!(clock.now(), 1000);
//! assert!(lat.mean() > 1.0 && lat.mean() < 10.0);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod next_event;
pub mod rng;
pub mod stats;

/// Simulation time, measured in interconnect clock cycles.
///
/// All models in this workspace are cycle-driven: each component is stepped
/// once per cycle and time only ever moves forward.
pub type Cycle = u64;

/// A simulation clock: a monotone cycle counter plus a nominal frequency used
/// only for converting cycle counts into microseconds when reporting results
/// in the paper's units.
///
/// # Example
///
/// ```
/// use bluescale_sim::Clock;
///
/// let mut clock = Clock::with_frequency_mhz(100);
/// clock.advance(250);
/// assert_eq!(clock.now(), 250);
/// // 250 cycles at 100 MHz = 2.5 microseconds.
/// assert!((clock.micros(250) - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clock {
    now: Cycle,
    frequency_mhz: u64,
}

impl Clock {
    /// Creates a clock at cycle 0 with the default nominal frequency
    /// (100 MHz — the clock domain the paper's latency plots assume).
    pub fn new() -> Self {
        Self::with_frequency_mhz(100)
    }

    /// Creates a clock with an explicit nominal frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_mhz` is zero.
    pub fn with_frequency_mhz(frequency_mhz: u64) -> Self {
        assert!(frequency_mhz > 0, "clock frequency must be positive");
        Self {
            now: 0,
            frequency_mhz,
        }
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Nominal frequency in MHz used for time conversion.
    pub fn frequency_mhz(&self) -> u64 {
        self.frequency_mhz
    }

    /// Advances the clock by one cycle and returns the new time.
    pub fn tick(&mut self) -> Cycle {
        self.now += 1;
        self.now
    }

    /// Advances the clock by `cycles`.
    pub fn advance(&mut self, cycles: Cycle) {
        self.now += cycles;
    }

    /// Converts a cycle count to microseconds at this clock's frequency.
    pub fn micros(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.frequency_mhz as f64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        assert_eq!(Clock::new().now(), 0);
    }

    #[test]
    fn tick_advances_by_one() {
        let mut c = Clock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn advance_moves_forward() {
        let mut c = Clock::new();
        c.advance(100);
        c.advance(23);
        assert_eq!(c.now(), 123);
    }

    #[test]
    fn micros_conversion_uses_frequency() {
        let c = Clock::with_frequency_mhz(200);
        // 400 cycles at 200 MHz = 2 us.
        assert!((c.micros(400) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Clock::with_frequency_mhz(0);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Clock::default(), Clock::new());
    }
}
