//! Fig 7: system-level case study — success ratio vs target utilization
//! for the automotive workload on 16-core and 64-core systems.

use crate::runner::{run_trial, InterconnectKind};
use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_workload::casestudy::{generate, CaseStudyConfig};

/// Configuration of one Fig 7 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Config {
    /// Processor count (16 → Fig 7(a), 64 → Fig 7(b)); two DNN HAs are
    /// added on top, as in the paper.
    pub processors: usize,
    /// Trials per target-utilization point (the paper runs 200).
    pub trials: u64,
    /// Simulation horizon per trial, in cycles.
    pub horizon: Cycle,
    /// Target utilizations to sweep.
    pub targets: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Fig7Config {
    /// Defaults: targets 0.30–0.90 at 0.05 steps, 50 trials of 20 000
    /// cycles per point (a few minutes in release mode; the paper uses
    /// 200 trials — pass `--trials 200` for full statistics).
    pub fn new(processors: usize) -> Self {
        Self {
            processors,
            trials: 50,
            horizon: 20_000,
            targets: (0..=12).map(|i| 0.30 + 0.05 * i as f64).collect(),
            seed: 0xF177,
        }
    }
}

/// Success ratios at one target utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// Target utilization of this sweep point.
    pub target: f64,
    /// Success ratio per interconnect, in [`InterconnectKind::ALL`] order.
    pub success: Vec<f64>,
}

/// Runs one Fig 7 panel.
pub fn run(config: &Fig7Config) -> Vec<Fig7Point> {
    run_with_registry(config).0
}

/// Runs one Fig 7 panel and also returns its metrics registry:
/// Trials/Successes counters totalled over the sweep plus the per-target
/// success ratios as an observation series, keyed by
/// [`ComponentId::Series`] in [`InterconnectKind::ALL`] order.
pub fn run_with_registry(config: &Fig7Config) -> (Vec<Fig7Point>, MetricsRegistry) {
    let mut master = SimRng::seed_from(config.seed);
    let mut registry = MetricsRegistry::new();
    registry.set_gauge(ComponentId::System, "processors", config.processors as f64);
    registry.set_gauge(ComponentId::System, "horizon", config.horizon as f64);
    let points = config
        .targets
        .iter()
        .map(|&target| {
            // Per-point tallies live in their own registry so the ratio of
            // this sweep point is not polluted by earlier targets; the
            // sweep registry accumulates the totals by merging.
            let mut point = MetricsRegistry::new();
            for _ in 0..config.trials {
                let mut trial_rng = master.fork();
                let cs = CaseStudyConfig::fig7(config.processors, target);
                let sets = generate(&cs, &mut trial_rng);
                for (i, kind) in InterconnectKind::ALL.into_iter().enumerate() {
                    let series = ComponentId::Series(i as u16);
                    let m = run_trial(kind, &sets, config.horizon);
                    point.inc(series, Counter::Trials);
                    if m.success() {
                        point.inc(series, Counter::Successes);
                    }
                }
            }
            let success: Vec<f64> = (0..InterconnectKind::ALL.len())
                .map(|i| {
                    let series = ComponentId::Series(i as u16);
                    point.counter(series, Counter::Successes) as f64 / config.trials as f64
                })
                .collect();
            for (i, &ratio) in success.iter().enumerate() {
                registry.observe(
                    ComponentId::Series(i as u16),
                    SampleKind::Custom("success_ratio"),
                    ratio,
                );
            }
            registry.merge(&point);
            Fig7Point { target, success }
        })
        .collect();
    (points, registry)
}

/// Renders one panel as a markdown table (targets as rows).
pub fn render(config: &Fig7Config, points: &[Fig7Point]) -> String {
    let mut s = format!(
        "# Fig 7: {}-core case study + 2 DNN HAs ({} trials/point, {} cycles)\n\n",
        config.processors, config.trials, config.horizon
    );
    s.push_str("| Target util |");
    for k in InterconnectKind::ALL {
        s.push_str(&format!(" {} |", k.name()));
    }
    s.push('\n');
    s.push_str("|---:|");
    for _ in InterconnectKind::ALL {
        s.push_str("---:|");
    }
    s.push('\n');
    for p in points {
        s.push_str(&format!("| {:.2} |", p.target));
        for ratio in &p.success {
            s.push_str(&format!(" {ratio:.2} |"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Config {
        Fig7Config {
            processors: 16,
            trials: 3,
            horizon: 10_000,
            targets: vec![0.3, 0.8],
            seed: 11,
        }
    }

    #[test]
    fn one_point_per_target() {
        let pts = run(&tiny());
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.success.len() == 6));
        assert!(pts
            .iter()
            .flat_map(|p| &p.success)
            .all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn obs5_low_utilization_succeeds_high_degrades() {
        let pts = run(&Fig7Config {
            trials: 4,
            targets: vec![0.3, 0.9],
            ..tiny()
        });
        let bs = InterconnectKind::ALL
            .iter()
            .position(|k| *k == InterconnectKind::BlueScale)
            .expect("present");
        // At 30% target everything should mostly succeed for BlueScale.
        assert!(
            pts[0].success[bs] >= 0.5,
            "BlueScale at 0.3: {}",
            pts[0].success[bs]
        );
        // BlueScale is at least as good as BlueTree everywhere.
        let bt = InterconnectKind::ALL
            .iter()
            .position(|k| *k == InterconnectKind::BlueTree)
            .expect("present");
        for p in &pts {
            assert!(
                p.success[bs] + 1e-9 >= p.success[bt],
                "target {}: BlueScale {} vs BlueTree {}",
                p.target,
                p.success[bs],
                p.success[bt]
            );
        }
    }

    #[test]
    fn registry_totals_cover_the_sweep() {
        let cfg = tiny();
        let (points, registry) = run_with_registry(&cfg);
        let expected_trials = cfg.trials * cfg.targets.len() as u64;
        for i in 0..InterconnectKind::ALL.len() {
            let series = ComponentId::Series(i as u16);
            assert_eq!(registry.counter(series, Counter::Trials), expected_trials);
            assert!(
                registry.counter(series, Counter::Successes) <= expected_trials,
                "successes bounded by trials"
            );
            let ratios = registry.stat(series, SampleKind::Custom("success_ratio"));
            assert_eq!(ratios.count(), cfg.targets.len() as u64);
            // The sweep registry's ratio sequence is exactly the points'.
            let mean: f64 =
                points.iter().map(|p| p.success[i]).sum::<f64>() / cfg.targets.len() as f64;
            assert!((ratios.mean() - mean).abs() < 1e-12);
        }
    }

    #[test]
    fn render_has_header_and_rows() {
        let cfg = tiny();
        let pts = run(&cfg);
        let text = render(&cfg, &pts);
        assert!(text.contains("BlueScale"));
        assert!(text.contains("0.30"));
    }
}
