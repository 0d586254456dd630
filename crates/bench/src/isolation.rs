//! Extension experiment: temporal isolation against a misbehaving client.
//!
//! Budget-based compositional scheduling exists precisely so that one
//! client exceeding its declared demand cannot steal other clients'
//! guaranteed service. This experiment makes one client a *rogue* (it
//! issues `8×` its registered demand every period) and measures the
//! deadline-miss ratio of the *well-behaved victims* on every
//! interconnect.
//!
//! Expected shape: BlueScale's B-counters cap the rogue at its budget, so
//! victims are unaffected; deadline-agnostic trees and the TDM variants
//! let the flood displace victim traffic at shared stages. The
//! centralized EDF baseline partially resists (the rogue's *extra*
//! requests carry ordinary deadlines, so they compete rather than
//! pre-empt).

use crate::runner::{build, InterconnectKind};
use bluescale_interconnect::system::System;
use bluescale_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_workload::synthetic::{generate, SyntheticConfig};

/// Configuration of the isolation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationConfig {
    /// Number of clients (one of which goes rogue).
    pub clients: usize,
    /// The rogue's demand multiplier.
    pub misbehaviour_factor: u64,
    /// Trials.
    pub trials: u64,
    /// Horizon per trial.
    pub horizon: Cycle,
    /// Master seed.
    pub seed: u64,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        Self {
            clients: 16,
            misbehaviour_factor: 8,
            trials: 30,
            horizon: 20_000,
            seed: 0x150,
        }
    }
}

/// Results for one interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationRow {
    /// The interconnect.
    pub kind: InterconnectKind,
    /// Victims' miss ratio with everyone well-behaved (control).
    pub baseline_victim_miss: f64,
    /// Victims' miss ratio with the rogue flooding.
    pub rogue_victim_miss: f64,
    /// The rogue's own miss ratio while flooding (its excess traffic is
    /// expected to miss — that is the point of isolation).
    pub rogue_own_miss: f64,
}

/// Runs the experiment. The rogue is always client 0; victims are all
/// other clients.
pub fn run(config: &IsolationConfig) -> Vec<IsolationRow> {
    run_with_registry(config).0
}

/// Runs the experiment and also returns its metrics registry: per-trial
/// victim/rogue miss-ratio observations keyed by [`ComponentId::Series`]
/// in [`InterconnectKind::ALL`] order. The rows are means over the same
/// accumulators.
pub fn run_with_registry(config: &IsolationConfig) -> (Vec<IsolationRow>, MetricsRegistry) {
    let kinds = InterconnectKind::ALL;
    let mut registry = MetricsRegistry::new();
    registry.set_gauge(ComponentId::System, "clients", config.clients as f64);
    registry.set_gauge(
        ComponentId::System,
        "misbehaviour_factor",
        config.misbehaviour_factor as f64,
    );
    let mut master = SimRng::seed_from(config.seed);
    for _ in 0..config.trials {
        let mut rng = master.fork();
        // Moderate well-behaved load so headroom exists: ~50 %.
        let synthetic = SyntheticConfig {
            util_lo: 0.45,
            util_hi: 0.55,
            ..SyntheticConfig::fig6(config.clients)
        };
        let sets = generate(&synthetic, &mut rng);
        for (i, kind) in kinds.into_iter().enumerate() {
            let series = ComponentId::Series(i as u16);
            registry.inc(series, Counter::Trials);

            // Control run: everyone behaves.
            let mut system = System::new(build(kind, &sets), &sets);
            system.run(config.horizon);
            registry.observe(
                series,
                SampleKind::Custom("victim_miss_control"),
                victim_miss_ratio(&system, 0),
            );

            // Rogue run: client 0 floods. The interconnect was configured
            // from the *declared* task sets — the rogue lied.
            let mut system = System::new(build(kind, &sets), &sets);
            let mut rogue = FaultPlan::default();
            rogue.push(
                FaultKind::RogueDemand {
                    client: 0,
                    factor: config.misbehaviour_factor,
                },
                FaultWindow::ALWAYS,
            );
            system.set_fault_plan(rogue);
            system.run(config.horizon);
            registry.observe(
                series,
                SampleKind::Custom("victim_miss_rogue"),
                victim_miss_ratio(&system, 0),
            );
            registry.observe(
                series,
                SampleKind::Custom("rogue_own_miss"),
                system.per_client_metrics()[0].miss_ratio(),
            );
        }
    }
    let rows = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let series = ComponentId::Series(i as u16);
            IsolationRow {
                kind,
                baseline_victim_miss: registry
                    .stat(series, SampleKind::Custom("victim_miss_control"))
                    .mean(),
                rogue_victim_miss: registry
                    .stat(series, SampleKind::Custom("victim_miss_rogue"))
                    .mean(),
                rogue_own_miss: registry
                    .stat(series, SampleKind::Custom("rogue_own_miss"))
                    .mean(),
            }
        })
        .collect();
    (rows, registry)
}

fn victim_miss_ratio(
    system: &System<dyn bluescale_interconnect::Interconnect>,
    rogue: usize,
) -> f64 {
    let per_client = system.per_client_metrics();
    let (mut missed, mut issued) = (0u64, 0u64);
    for (c, m) in per_client.iter().enumerate() {
        if c == rogue {
            continue;
        }
        missed += m.missed();
        issued += m.issued();
    }
    if issued == 0 {
        0.0
    } else {
        missed as f64 / issued as f64
    }
}

/// Renders the table.
pub fn render(config: &IsolationConfig, rows: &[IsolationRow]) -> String {
    let mut s = format!(
        "# Extension: temporal isolation — client 0 issues {}× its declared \
         demand ({} clients, {} trials)\n\nVictim = any well-behaved client.\n\n",
        config.misbehaviour_factor, config.clients, config.trials
    );
    s.push_str(
        "| Interconnect | Victim miss (control) | Victim miss (rogue active) | Rogue's own miss |\n",
    );
    s.push_str("|---|---:|---:|---:|\n");
    for r in rows {
        s.push_str(&format!(
            "| {} | {:.2}% | {:.2}% | {:.1}% |\n",
            r.kind.name(),
            100.0 * r.baseline_victim_miss,
            100.0 * r.rogue_victim_miss,
            100.0 * r.rogue_own_miss,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> IsolationConfig {
        IsolationConfig {
            clients: 16,
            misbehaviour_factor: 8,
            trials: 3,
            horizon: 10_000,
            seed: 9,
        }
    }

    #[test]
    fn produces_all_rows() {
        let rows = run(&tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.rogue_victim_miss), "{:?}", r.kind);
        }
    }

    #[test]
    fn bluescale_victims_are_isolated() {
        let rows = run(&IsolationConfig {
            trials: 5,
            ..tiny()
        });
        let get = |k: InterconnectKind| rows.iter().find(|r| r.kind == k).unwrap();
        let bs = get(InterconnectKind::BlueScale);
        // BlueScale victims barely notice the rogue…
        assert!(
            bs.rogue_victim_miss <= bs.baseline_victim_miss + 0.02,
            "BlueScale victims degraded: {} → {}",
            bs.baseline_victim_miss,
            bs.rogue_victim_miss
        );
        // …while the flooding rogue itself pays (the work-conserving slack
        // absorbs part of the excess, but the rogue's misses stay well
        // above the victims').
        assert!(
            bs.rogue_own_miss > bs.rogue_victim_miss + 0.02,
            "rogue got away with it: own {} vs victims {}",
            bs.rogue_own_miss,
            bs.rogue_victim_miss
        );
        // And at least one heuristic tree lets the rogue hurt victims more.
        let bt = get(InterconnectKind::BlueTree);
        assert!(
            bt.rogue_victim_miss >= bs.rogue_victim_miss,
            "BlueTree victims ({}) should suffer at least as much as \
             BlueScale's ({})",
            bt.rogue_victim_miss,
            bs.rogue_victim_miss
        );
    }

    #[test]
    fn registry_backs_the_rows() {
        let cfg = tiny();
        let (rows, registry) = run_with_registry(&cfg);
        for (i, row) in rows.iter().enumerate() {
            let series = ComponentId::Series(i as u16);
            assert_eq!(registry.counter(series, Counter::Trials), cfg.trials);
            let control = registry.stat(series, SampleKind::Custom("victim_miss_control"));
            assert_eq!(control.count(), cfg.trials);
            assert!((control.mean() - row.baseline_victim_miss).abs() < 1e-15);
        }
    }

    #[test]
    fn render_has_three_columns() {
        let cfg = tiny();
        let text = render(&cfg, &run(&cfg));
        assert!(text.contains("control"));
        assert!(text.contains("rogue active"));
    }
}
