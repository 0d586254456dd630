//! Deterministic fault injection: cycle-keyed, seed-reproducible plans.
//!
//! A [`FaultPlan`] is a declarative list of fault specifications, each a
//! [`FaultKind`] active during a [`FaultWindow`] of cycles. The plan is
//! *queried* by the simulation at well-defined hook points (client release,
//! SE arbitration, DRAM accept, response delivery); it never holds mutable
//! references into the simulated system, so the same plan applied to the
//! same seeded workload replays bit-identically.
//!
//! Two invariants matter more than the fault catalogue itself:
//!
//! * **Empty plan ≡ baseline.** Every query on an empty plan returns the
//!   neutral answer (multiplier 1, no bursts, nothing stuck, zero jitter,
//!   nothing dropped), and the hook sites are written so the neutral answer
//!   takes the exact code path of a build without fault hooks. A
//!   differential test pins this bit-for-bit.
//! * **Seed-reproducible randomness.** The only "random" fault parameter —
//!   per-cycle DRAM jitter — is a pure function of `(plan seed, bank,
//!   cycle)` via a SplitMix64 finalizer. No hidden RNG state, so resuming,
//!   re-running or reordering queries cannot change outcomes.

use crate::next_event::NextEvent;
use crate::Cycle;
use std::fmt;

/// A half-open interval of cycles `[start, end)` during which a fault is
/// active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultWindow {
    /// First cycle the fault is active.
    pub start: Cycle,
    /// First cycle the fault is no longer active.
    pub end: Cycle,
}

impl FaultWindow {
    /// The window covering the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        start: 0,
        end: Cycle::MAX,
    };

    /// A window `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`: an inverted window is nonsense, and an
    /// *empty* window (`end == start`) contains no cycle at all — not even
    /// its start — so a `RequestBurst` bound to one would pass construction
    /// yet silently never inject. Rejecting both at construction turns that
    /// silent no-op into an immediate, diagnosable error.
    pub fn new(start: Cycle, end: Cycle) -> Self {
        assert!(
            end > start,
            "fault window [{start}, {end}) is empty: end must be strictly after start"
        );
        Self { start, end }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Cycle) -> bool {
        self.start <= now && now < self.end
    }
}

/// The class of a fault, for counting and event reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// A client issues a multiple of its declared demand.
    RogueDemand,
    /// A one-shot flood of extra requests from one client.
    RequestBurst,
    /// An SE grant port is stuck (withholds grants) for a window.
    StuckGrant,
    /// DRAM service times on a bank gain deterministic extra cycles.
    DramJitter,
    /// Memory responses to a client are silently discarded.
    DropResponse,
}

impl FaultClass {
    /// All fault classes, in declaration order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::RogueDemand,
        FaultClass::RequestBurst,
        FaultClass::StuckGrant,
        FaultClass::DramJitter,
        FaultClass::DropResponse,
    ];

    /// Stable snake_case name used in exports and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::RogueDemand => "rogue_demand",
            FaultClass::RequestBurst => "request_burst",
            FaultClass::StuckGrant => "stuck_grant",
            FaultClass::DramJitter => "dram_jitter",
            FaultClass::DropResponse => "drop_response",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `client` releases `factor ×` its declared demand on every job while
    /// the window is active (the classic rogue of Fig 7).
    RogueDemand {
        /// The misbehaving client.
        client: u32,
        /// Demand multiplier (≥ 1; 1 is a no-op).
        factor: u64,
    },
    /// `client` floods `requests` extra requests in the cycle the window
    /// opens, cloned from its first task's parameters.
    RequestBurst {
        /// The misbehaving client.
        client: u32,
        /// Number of extra requests injected at `window.start`.
        requests: u64,
    },
    /// The grant port `port` of the SE at `(depth, order)` withholds all
    /// grants while the window is active — a stuck arbiter or a wedged
    /// upstream handshake.
    StuckGrant {
        /// Tree depth of the faulted SE (0 = root).
        depth: usize,
        /// Position of the faulted SE within its level.
        order: usize,
        /// The stuck port.
        port: usize,
    },
    /// Requests to `bank` take up to `max_extra_cycles` additional service
    /// cycles, drawn deterministically from the plan seed.
    DramJitter {
        /// The jittery bank.
        bank: u32,
        /// Upper bound on the extra service cycles per request.
        max_extra_cycles: u64,
    },
    /// Every `every`-th completed response owned by `client` is discarded
    /// before it reaches the response path (starting with the first).
    DropResponse {
        /// The victim client.
        client: u32,
        /// Drop period (1 = drop every response).
        every: u64,
    },
}

impl FaultKind {
    /// The class this fault belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::RogueDemand { .. } => FaultClass::RogueDemand,
            FaultKind::RequestBurst { .. } => FaultClass::RequestBurst,
            FaultKind::StuckGrant { .. } => FaultClass::StuckGrant,
            FaultKind::DramJitter { .. } => FaultClass::DramJitter,
            FaultKind::DropResponse { .. } => FaultClass::DropResponse,
        }
    }
}

/// A [`FaultKind`] bound to its activity [`FaultWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it goes wrong.
    pub window: FaultWindow,
}

/// A deterministic, replayable fault schedule.
///
/// # Example
///
/// ```
/// use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
///
/// let mut plan = FaultPlan::new(0xBAD5EED);
/// plan.push(
///     FaultKind::RogueDemand { client: 3, factor: 8 },
///     FaultWindow::new(1_000, 5_000),
/// );
/// assert_eq!(plan.demand_multiplier(3, 500), 1);
/// assert_eq!(plan.demand_multiplier(3, 1_000), 8);
/// assert_eq!(plan.demand_multiplier(2, 1_000), 1, "only client 3 is rogue");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultSpec>,
    /// Per-spec count of responses seen by each `DropResponse` fault
    /// (indexes parallel `faults`; unused slots stay 0). Plan state, not
    /// hidden RNG: cloning a freshly built plan resets it.
    drop_seen: Vec<u64>,
}

impl FaultPlan {
    /// Creates an empty plan. `seed` parameterizes the deterministic
    /// jitter draws; an empty plan never consults it.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            drop_seen: Vec::new(),
        }
    }

    /// The jitter seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a fault active during `window`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters: a zero `RogueDemand` factor or a
    /// zero `DropResponse` period.
    pub fn push(&mut self, kind: FaultKind, window: FaultWindow) -> &mut Self {
        match kind {
            FaultKind::RogueDemand { factor, .. } => {
                assert!(factor > 0, "rogue demand factor must be positive");
            }
            FaultKind::DropResponse { every, .. } => {
                assert!(every > 0, "drop period must be positive");
            }
            _ => {}
        }
        self.faults.push(FaultSpec { kind, window });
        self.drop_seen.push(0);
        self
    }

    /// Whether the plan contains no faults. Hook sites use this as the
    /// fast path: an empty plan must cost one branch per query site.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The fault specifications.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Resets transient query state (the drop counters) to the freshly
    /// built plan, so the same plan value can drive a second identical run.
    pub fn reset_state(&mut self) {
        for seen in &mut self.drop_seen {
            *seen = 0;
        }
    }

    /// Demand multiplier for `client` at `now`: the product of all active
    /// `RogueDemand` factors targeting it (1 when none are).
    pub fn demand_multiplier(&self, client: u32, now: Cycle) -> u64 {
        let mut factor = 1u64;
        for spec in &self.faults {
            if let FaultKind::RogueDemand {
                client: c,
                factor: f,
            } = spec.kind
            {
                if c == client && spec.window.contains(now) {
                    factor = factor.saturating_mul(f);
                }
            }
        }
        factor
    }

    /// Extra burst requests `client` must inject at `now`: the sum of
    /// `RequestBurst` faults whose window *opens* at this cycle.
    pub fn burst_at(&self, client: u32, now: Cycle) -> u64 {
        self.bursts_opening(now)
            .filter(|&(c, _)| c == client)
            .fold(0, |total, (_, requests)| total.saturating_add(requests))
    }

    /// The clients [`burst_at`](Self::burst_at) is non-zero for at `now`
    /// (a client targeted by several opening bursts repeats). A harness
    /// that visits only due clients wakes these as well.
    pub fn burst_clients_at(&self, now: Cycle) -> impl Iterator<Item = u32> + '_ {
        self.bursts_opening(now)
            .filter(|&(_, requests)| requests > 0)
            .map(|(client, _)| client)
    }

    /// `(client, requests)` of every `RequestBurst` whose window opens at
    /// `now`.
    fn bursts_opening(&self, now: Cycle) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.faults.iter().filter_map(move |spec| match spec.kind {
            FaultKind::RequestBurst { client, requests }
                if spec.window.start == now && spec.window.contains(now) =>
            {
                Some((client, requests))
            }
            _ => None,
        })
    }

    /// The stuck-port mask for the SE at `(depth, order)` with `ports`
    /// ports at `now`: bit `p` set means port `p` must not be granted this
    /// cycle; 0 when no stuck fault is active there.
    ///
    /// # Panics
    ///
    /// Panics if `ports` exceeds 64, the width of the mask.
    pub fn stuck_mask(&self, depth: usize, order: usize, ports: usize, now: Cycle) -> u64 {
        assert!(ports <= 64, "a stuck mask covers at most 64 ports");
        self.faults
            .iter()
            .filter_map(|spec| stuck_port(spec, ports, now))
            .filter(|&(d, o, _)| d == depth && o == order)
            .fold(0, |mask, (_, _, port)| mask | 1 << port)
    }

    /// The SEs `(depth, order)` whose [`stuck_mask`](Self::stuck_mask) is
    /// non-zero at `now`, each once, in plan order. A harness that
    /// arbitrates only the SEs holding requests still tallies every held
    /// grant line through this.
    ///
    /// # Panics
    ///
    /// Panics if `ports` exceeds 64, the width of the mask.
    pub fn stuck_ses(&self, ports: usize, now: Cycle) -> impl Iterator<Item = (usize, usize)> + '_ {
        assert!(ports <= 64, "a stuck mask covers at most 64 ports");
        let active = move |spec| stuck_port(spec, ports, now).map(|(d, o, _)| (d, o));
        self.faults.iter().enumerate().filter_map(move |(i, spec)| {
            let se = active(spec)?;
            self.faults[..i]
                .iter()
                .all(|earlier| active(earlier) != Some(se))
                .then_some(se)
        })
    }

    /// Deterministic extra service cycles for a request to `bank` accepted
    /// at `now`: the sum over active `DramJitter` faults on that bank of a
    /// draw in `[0, max_extra_cycles]` keyed by `(seed, bank, now)`.
    pub fn dram_jitter(&self, bank: u32, now: Cycle) -> u64 {
        let mut extra = 0u64;
        for spec in &self.faults {
            if let FaultKind::DramJitter {
                bank: b,
                max_extra_cycles,
            } = spec.kind
            {
                if b == bank && spec.window.contains(now) && max_extra_cycles > 0 {
                    let draw =
                        splitmix(self.seed ^ ((bank as u64) << 32) ^ now.wrapping_mul(0x9E37_79B9));
                    extra = extra.saturating_add(draw % (max_extra_cycles + 1));
                }
            }
        }
        extra
    }

    /// The earliest cycle ≥ `now` at which this plan can influence the
    /// simulation: `now` itself while any window is active (active faults —
    /// a stuck grant port, rogue demand, jitter — must be stepped
    /// per-cycle), otherwise the earliest future window start, or
    /// [`Cycle::MAX`] when every window is already closed.
    ///
    /// Window *ends* need no wake-up of their own: a closing window only
    /// matters on cycles the simulation already steps per-cycle (the window
    /// being active forces that), so the first cycle after the end is
    /// reached by ordinary stepping.
    pub fn next_activity(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for spec in &self.faults {
            if spec.window.contains(now) {
                return now;
            }
            if spec.window.start > now {
                next = next.min(spec.window.start);
            }
        }
        next
    }

    /// Whether the response completing at `now` for `client` must be
    /// dropped. Stateful: each active `DropResponse` fault counts the
    /// responses it observes and discards the first of every `every`.
    pub fn should_drop_response(&mut self, client: u32, now: Cycle) -> bool {
        let mut drop = false;
        for (spec, seen) in self.faults.iter().zip(&mut self.drop_seen) {
            if let FaultKind::DropResponse { client: c, every } = spec.kind {
                if c == client && spec.window.contains(now) {
                    if *seen % every == 0 {
                        drop = true;
                    }
                    *seen += 1;
                }
            }
        }
        drop
    }
}

impl NextEvent for FaultPlan {
    fn next_event(&self, now: Cycle) -> Cycle {
        self.next_activity(now)
    }
}

/// `(depth, order, port)` of `spec` if it is a stuck-grant window active
/// at `now` on a port below `ports`.
fn stuck_port(spec: &FaultSpec, ports: usize, now: Cycle) -> Option<(usize, usize, usize)> {
    match spec.kind {
        FaultKind::StuckGrant { depth, order, port }
            if port < ports && spec.window.contains(now) =>
        {
            Some((depth, order, port))
        }
        _ => None,
    }
}

/// The SplitMix64 output finalizer — a bijective avalanche mix, the same
/// permutation [`crate::rng::SimRng`] uses per step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_returns_neutral_answers() {
        let mut plan = FaultPlan::new(42);
        assert!(plan.is_empty());
        assert_eq!(plan.demand_multiplier(0, 0), 1);
        assert_eq!(plan.burst_at(0, 0), 0);
        assert_eq!(plan.stuck_mask(0, 0, 4, 0), 0);
        assert_eq!(plan.stuck_ses(4, 0).count(), 0);
        assert_eq!(plan.dram_jitter(0, 0), 0);
        assert!(!plan.should_drop_response(0, 0));
    }

    #[test]
    fn window_contains_half_open() {
        let w = FaultWindow::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(FaultWindow::ALWAYS.contains(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn inverted_window_panics() {
        let _ = FaultWindow::new(20, 10);
    }

    #[test]
    fn rogue_demand_multiplies_only_in_window() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::RogueDemand {
                client: 2,
                factor: 4,
            },
            FaultWindow::new(100, 200),
        );
        assert_eq!(plan.demand_multiplier(2, 99), 1);
        assert_eq!(plan.demand_multiplier(2, 100), 4);
        assert_eq!(plan.demand_multiplier(2, 199), 4);
        assert_eq!(plan.demand_multiplier(2, 200), 1);
        assert_eq!(plan.demand_multiplier(3, 150), 1);
    }

    #[test]
    fn overlapping_rogue_factors_compose() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 2,
            },
            FaultWindow::ALWAYS,
        )
        .push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 3,
            },
            FaultWindow::new(50, 60),
        );
        assert_eq!(plan.demand_multiplier(0, 0), 2);
        assert_eq!(plan.demand_multiplier(0, 55), 6);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_rogue_factor_panics() {
        FaultPlan::new(0).push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 0,
            },
            FaultWindow::ALWAYS,
        );
    }

    #[test]
    fn burst_fires_exactly_at_window_start() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::RequestBurst {
                client: 1,
                requests: 16,
            },
            FaultWindow::new(500, 501),
        );
        assert_eq!(plan.burst_at(1, 499), 0);
        assert_eq!(plan.burst_at(1, 500), 16);
        assert_eq!(plan.burst_at(1, 501), 0);
        assert_eq!(plan.burst_at(0, 500), 0);
    }

    #[test]
    fn burst_clients_are_exactly_the_non_zero_bursts() {
        let mut plan = FaultPlan::new(0);
        for (client, requests, start) in [
            (4, 8, 500),
            (2, 0, 500),
            (7, 3, 500),
            (4, 1, 500),
            (9, 5, 600),
        ] {
            plan.push(
                FaultKind::RequestBurst { client, requests },
                FaultWindow::new(start, start + 10),
            );
        }
        let clients: Vec<u32> = plan.burst_clients_at(500).collect();
        assert_eq!(
            clients,
            vec![4, 7, 4],
            "plan order, zero-request bursts skipped"
        );
        for client in 0..10 {
            assert_eq!(clients.contains(&client), plan.burst_at(client, 500) > 0);
        }
        assert_eq!(plan.burst_at(4, 500), 9);
        assert_eq!(
            plan.burst_clients_at(501).count(),
            0,
            "bursts fire at the opening only"
        );
    }

    #[test]
    #[should_panic(expected = "fault window [500, 500) is empty")]
    fn zero_length_burst_window_rejected() {
        // Regression: [500, 500) used to pass construction, and a
        // RequestBurst bound to it (which fires only when the window both
        // starts at and contains `now`) silently never injected. Empty
        // windows are now a construction-time error.
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::RequestBurst {
                client: 1,
                requests: 16,
            },
            FaultWindow::new(500, 500),
        );
    }

    #[test]
    fn next_activity_reports_active_and_upcoming_windows() {
        let mut plan = FaultPlan::new(0);
        assert_eq!(plan.next_activity(0), Cycle::MAX, "empty plan never wakes");
        plan.push(
            FaultKind::RogueDemand {
                client: 0,
                factor: 2,
            },
            FaultWindow::new(100, 200),
        )
        .push(
            FaultKind::StuckGrant {
                depth: 0,
                order: 0,
                port: 0,
            },
            FaultWindow::new(50, 60),
        );
        assert_eq!(plan.next_activity(0), 50, "earliest upcoming start");
        assert_eq!(plan.next_activity(55), 55, "active window pins to now");
        assert_eq!(plan.next_activity(60), 100, "between windows");
        assert_eq!(plan.next_activity(199), 199, "last active cycle");
        assert_eq!(plan.next_activity(200), Cycle::MAX, "all windows closed");
    }

    #[test]
    fn stuck_mask_targets_one_port_of_one_se() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::StuckGrant {
                depth: 1,
                order: 2,
                port: 3,
            },
            FaultWindow::new(10, 20),
        );
        assert_eq!(plan.stuck_mask(1, 2, 4, 5), 0, "before the window");
        assert_eq!(plan.stuck_mask(1, 2, 4, 15), 0b1000);
        assert_eq!(plan.stuck_mask(1, 1, 4, 15), 0, "different SE");
        assert_eq!(plan.stuck_mask(0, 2, 4, 15), 0, "different depth");
        // A port beyond the SE's arity is ignored rather than panicking.
        assert_eq!(plan.stuck_mask(1, 2, 2, 15), 0);
    }

    #[test]
    fn stuck_ses_names_each_held_se_once() {
        let mut plan = FaultPlan::new(0);
        let stuck = |depth, order, port| FaultKind::StuckGrant { depth, order, port };
        plan.push(stuck(2, 5, 1), FaultWindow::new(10, 20))
            .push(stuck(1, 0, 3), FaultWindow::new(0, 100))
            .push(stuck(2, 5, 2), FaultWindow::new(15, 30))
            .push(stuck(2, 5, 1), FaultWindow::new(12, 18))
            .push(stuck(0, 0, 7), FaultWindow::new(0, 100));
        let at = |now| plan.stuck_ses(4, now).collect::<Vec<_>>();
        assert_eq!(at(5), vec![(1, 0)], "port 7 is beyond the arity");
        assert_eq!(
            at(16),
            vec![(2, 5), (1, 0)],
            "overlapping windows count once"
        );
        assert_eq!(
            at(25),
            vec![(1, 0), (2, 5)],
            "plan order of the first active spec"
        );
        assert_eq!(plan.stuck_mask(2, 5, 4, 16), 0b110);
        // Exactly the SEs with a non-zero mask.
        for now in 0..110 {
            for (depth, order) in plan.stuck_ses(4, now) {
                assert_ne!(plan.stuck_mask(depth, order, 4, now), 0);
            }
        }
        assert!(plan.stuck_ses(4, 100).next().is_none());
    }

    #[test]
    fn dram_jitter_is_bounded_and_reproducible() {
        let mut plan = FaultPlan::new(0xFEED);
        plan.push(
            FaultKind::DramJitter {
                bank: 1,
                max_extra_cycles: 5,
            },
            FaultWindow::ALWAYS,
        );
        let draws: Vec<u64> = (0..200).map(|now| plan.dram_jitter(1, now)).collect();
        assert!(draws.iter().all(|&d| d <= 5));
        assert!(draws.iter().any(|&d| d > 0), "jitter must actually jitter");
        // Same (seed, bank, cycle) → same draw; other banks are clean.
        let replay: Vec<u64> = (0..200).map(|now| plan.dram_jitter(1, now)).collect();
        assert_eq!(draws, replay);
        assert_eq!(plan.dram_jitter(0, 7), 0);
        // A different seed changes the sequence.
        let mut other = FaultPlan::new(0xBEEF);
        other.push(
            FaultKind::DramJitter {
                bank: 1,
                max_extra_cycles: 5,
            },
            FaultWindow::ALWAYS,
        );
        let alt: Vec<u64> = (0..200).map(|now| other.dram_jitter(1, now)).collect();
        assert_ne!(draws, alt);
    }

    #[test]
    fn drop_response_drops_every_nth_and_resets() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultKind::DropResponse {
                client: 4,
                every: 3,
            },
            FaultWindow::ALWAYS,
        );
        let pattern: Vec<bool> = (0..6).map(|i| plan.should_drop_response(4, i)).collect();
        assert_eq!(pattern, [true, false, false, true, false, false]);
        // Other clients are unaffected and do not advance the counter.
        assert!(!plan.should_drop_response(5, 100));
        assert!(plan.should_drop_response(4, 100));
        plan.reset_state();
        assert!(plan.should_drop_response(4, 0), "reset restarts the cycle");
    }

    #[test]
    #[should_panic(expected = "drop period must be positive")]
    fn zero_drop_period_panics() {
        FaultPlan::new(0).push(
            FaultKind::DropResponse {
                client: 0,
                every: 0,
            },
            FaultWindow::ALWAYS,
        );
    }

    #[test]
    fn class_names_are_stable_and_unique() {
        let mut names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultClass::ALL.len());
        assert_eq!(FaultClass::StuckGrant.to_string(), "stuck_grant");
        assert_eq!(
            FaultKind::DramJitter {
                bank: 0,
                max_extra_cycles: 1
            }
            .class(),
            FaultClass::DramJitter
        );
    }
}
