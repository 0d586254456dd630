//! Delta-snapshot extraction from [`MetricsRegistry`].
//!
//! The [`DeltaEngine`] remembers, per `(source, component, metric)` key,
//! how much of each registry it has already exported: counter baselines,
//! gauge last-values, accumulator counts and raw-sample cursors (in
//! [`Samples::total_pushed`](bluescale_sim::stats::Samples::total_pushed)
//! coordinates). Each [`DeltaEngine::extract`] call produces one
//! [`EpochDelta`] containing only what changed since the previous epoch,
//! and advances the baselines.
//!
//! Extraction is strictly **read-only** on the registries — this is the
//! structural half of the streaming-on/off bit-identity invariant (the
//! other half is that flushes run at span boundaries, never inside the
//! per-cycle hot loop). The engine never writes derived values back.
//!
//! A run is typically observed through more than one registry (the harness
//! registry plus the interconnect-internal "fabric" registry), and the two
//! can both grow between flushes. Baselines are therefore keyed by a
//! caller-chosen *source* label; folding a stream reconstructs each source
//! separately, exactly mirroring how `merged_registry()` combines them at
//! end of run.

use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::Cycle;

/// Change in one counter since the previous epoch.
///
/// `delta` is signed because counters may be retracted
/// ([`MetricsRegistry::sub`]) or mirrored from absolute values that can
/// move backwards; folding signed deltas reconstructs totals exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Which registry this came from (e.g. `"harness"`, `"fabric"`).
    pub source: &'static str,
    /// The reporting component.
    pub component: ComponentId,
    /// The counter.
    pub counter: Counter,
    /// Change since the previous epoch.
    pub delta: i64,
    /// Absolute value at this epoch (redundant with the fold; lets a
    /// consumer cross-check).
    pub total: u64,
}

/// Instantaneous gauge value (emitted only when it changed).
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRecord {
    /// Which registry this came from.
    pub source: &'static str,
    /// The reporting component.
    pub component: ComponentId,
    /// Gauge name.
    pub name: &'static str,
    /// Current value (last-write-wins semantics).
    pub value: f64,
}

/// Instantaneous summary of an [`OnlineStats`](bluescale_sim::stats::OnlineStats)
/// accumulator (emitted only when its count changed).
#[derive(Debug, Clone, PartialEq)]
pub struct StatRecord {
    /// Which registry this came from.
    pub source: &'static str,
    /// The reporting component.
    pub component: ComponentId,
    /// The distribution.
    pub kind: SampleKind,
    /// Observations so far.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
}

/// The raw observations pushed into a sample collector since the previous
/// epoch, in push order.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Which registry this came from.
    pub source: &'static str,
    /// The reporting component.
    pub component: ComponentId,
    /// The distribution.
    pub kind: SampleKind,
    /// New observations since the previous epoch, oldest first.
    pub values: Vec<f64>,
    /// Observations evicted by a retention window before this flush could
    /// see them (0 unless the flush period far exceeds the window).
    pub dropped: u64,
}

/// A derived per-tenant SLO value computed at a flush boundary.
///
/// SLO values live only in the stream — they are never written back into
/// a registry, so enabling telemetry cannot perturb simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRecord {
    /// The tenant (client slot) the value describes.
    pub tenant: u32,
    /// Stable metric name (`slo_miss_rate`, `slo_p99_normalized`,
    /// `slo_overrun_rate`).
    pub metric: &'static str,
    /// The windowed value.
    pub value: f64,
}

/// Everything that changed between two consecutive flushes.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Monotone epoch number (0 for the first flush).
    pub epoch: u64,
    /// Simulation cycle at which the flush ran.
    pub cycle: Cycle,
    /// Counter changes.
    pub counters: Vec<CounterDelta>,
    /// Gauge updates.
    pub gauges: Vec<GaugeRecord>,
    /// Accumulator updates.
    pub stats: Vec<StatRecord>,
    /// Raw-sample windows.
    pub windows: Vec<SampleRecord>,
    /// Derived SLO values (filled in by the pipeline's tracker).
    pub slo: Vec<SloRecord>,
}

impl EpochDelta {
    /// Whether the epoch carries no information beyond its timestamp.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.stats.is_empty()
            && self.windows.is_empty()
            && self.slo.is_empty()
    }
}

/// Stateful extractor of [`EpochDelta`]s from one or more registries.
#[derive(Debug, Default)]
pub struct DeltaEngine {
    epoch: u64,
    sources: Vec<SourceBaselines>,
}

/// What the engine has exported of one source registry. Each list is
/// sorted by key, the order the registry's iterators yield.
#[derive(Debug, Default)]
struct SourceBaselines {
    source: &'static str,
    counters: Vec<((ComponentId, Counter), u64)>,
    gauges: Vec<((ComponentId, &'static str), u64)>,
    stats: Vec<((ComponentId, SampleKind), u64)>,
    cursors: Vec<((ComponentId, SampleKind), u64)>,
}

impl DeltaEngine {
    /// Creates an engine with all baselines at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch number the next [`DeltaEngine::extract`] will produce.
    pub fn next_epoch(&self) -> u64 {
        self.epoch
    }

    /// Extracts one epoch of changes across `sources` and advances the
    /// baselines. Registries are read, never written. The `slo` field of
    /// the returned delta is left empty — derivation is the tracker's job.
    pub fn extract(
        &mut self,
        cycle: Cycle,
        sources: &[(&'static str, &MetricsRegistry)],
    ) -> EpochDelta {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut out = EpochDelta {
            epoch,
            cycle,
            counters: Vec::new(),
            gauges: Vec::new(),
            stats: Vec::new(),
            windows: Vec::new(),
            slo: Vec::new(),
        };
        for &(source, reg) in sources {
            let at = match self.sources.iter().position(|b| b.source == source) {
                Some(at) => at,
                None => {
                    self.sources.push(SourceBaselines {
                        source,
                        ..SourceBaselines::default()
                    });
                    self.sources.len() - 1
                }
            };
            let base = &mut self.sources[at];
            merge_walk(
                &mut base.counters,
                reg.counters_iter(),
                |(component, counter), total, base| {
                    let base = base.unwrap_or(0);
                    let delta = total as i64 - base as i64;
                    if delta == 0 {
                        return base;
                    }
                    out.counters.push(CounterDelta {
                        source,
                        component,
                        counter,
                        delta,
                        total,
                    });
                    total
                },
            );
            merge_walk(
                &mut base.gauges,
                reg.gauges_iter(),
                |(component, name), value, base| {
                    // Bitwise comparison so a first sight (no baseline) and
                    // any change — including NaN-to-NaN with different
                    // payloads — are both emitted exactly once.
                    let bits = value.to_bits();
                    if base != Some(bits) {
                        out.gauges.push(GaugeRecord {
                            source,
                            component,
                            name,
                            value,
                        });
                    }
                    bits
                },
            );
            merge_walk(
                &mut base.stats,
                reg.stats_iter(),
                |(component, kind), stats, base| {
                    if stats.count() != base.unwrap_or(0) {
                        out.stats.push(StatRecord {
                            source,
                            component,
                            kind,
                            count: stats.count(),
                            mean: stats.mean(),
                            min: stats.min(),
                            max: stats.max(),
                        });
                    }
                    stats.count()
                },
            );
            merge_walk(
                &mut base.cursors,
                reg.samples_iter(),
                |(component, kind), samples, cursor| {
                    let cursor = cursor.unwrap_or(0);
                    if samples.total_pushed() <= cursor {
                        return cursor;
                    }
                    let (tail, dropped) = samples.tail_from(cursor);
                    out.windows.push(SampleRecord {
                        source,
                        component,
                        kind,
                        values: tail.to_vec(),
                        dropped,
                    });
                    samples.total_pushed()
                },
            );
        }
        out
    }
}

/// Walks `base` (sorted by key) against `current` (strictly ascending
/// keys, the order `MetricsRegistry`'s iterators yield) in one pass.
/// `visit` sees every current entry with its baseline (`None` for a key
/// seen for the first time) and returns the new baseline. A key missing
/// from `current` — a registry replaced by `reset_metrics`, say — keeps
/// its baseline.
fn merge_walk<K: Ord + Copy, V>(
    base: &mut Vec<(K, u64)>,
    current: impl Iterator<Item = (K, V)>,
    mut visit: impl FnMut(K, V, Option<u64>) -> u64,
) {
    let mut fresh = Vec::new();
    let mut at = 0;
    let mut last = None;
    for (key, value) in current {
        debug_assert!(last < Some(key), "registry keys must ascend");
        last = Some(key);
        while at < base.len() && base[at].0 < key {
            at += 1;
        }
        match base.get_mut(at) {
            Some((k, b)) if *k == key => {
                *b = visit(key, value, Some(*b));
                at += 1;
            }
            _ => fresh.push((key, visit(key, value, None))),
        }
    }
    if !fresh.is_empty() {
        base.extend(fresh);
        base.sort_unstable_by_key(|&(k, _)| k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: ComponentId = ComponentId::Client(0);

    #[test]
    fn counters_stream_as_diffs() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.add(CLIENT, Counter::Issued, 5);
        let d0 = engine.extract(100, &[("harness", &reg)]);
        assert_eq!(d0.epoch, 0);
        assert_eq!(d0.counters.len(), 1);
        assert_eq!(d0.counters[0].delta, 5);
        assert_eq!(d0.counters[0].total, 5);
        // Nothing changed: the next epoch is empty.
        let d1 = engine.extract(200, &[("harness", &reg)]);
        assert_eq!(d1.epoch, 1);
        assert!(d1.is_empty());
        reg.add(CLIENT, Counter::Issued, 3);
        reg.sub(CLIENT, Counter::Issued, 1);
        let d2 = engine.extract(300, &[("harness", &reg)]);
        assert_eq!(d2.counters[0].delta, 2);
        assert_eq!(d2.counters[0].total, 7);
    }

    #[test]
    fn retraction_below_baseline_is_signed() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.add(CLIENT, Counter::Rejected, 4);
        engine.extract(0, &[("harness", &reg)]);
        reg.sub(CLIENT, Counter::Rejected, 3);
        let d = engine.extract(1, &[("harness", &reg)]);
        assert_eq!(d.counters[0].delta, -3);
        assert_eq!(d.counters[0].total, 1);
    }

    #[test]
    fn keys_missing_after_a_reset_keep_their_baselines() {
        let mut engine = DeltaEngine::new();
        let mut reg = MetricsRegistry::new();
        for client in [0, 5] {
            reg.add(ComponentId::Client(client), Counter::Issued, 5);
        }
        reg.set_gauge(ComponentId::Memory, "util", 0.5);
        engine.extract(0, &[("harness", &reg)]);
        // A fresh registry, as `reset_metrics` installs: client 3 appears
        // between the two known keys, the others are missing.
        let mut reg = MetricsRegistry::new();
        reg.add(ComponentId::Client(3), Counter::Issued, 2);
        let d = engine.extract(1, &[("harness", &reg)]);
        let deltas: Vec<_> = d.counters.iter().map(|c| (c.component, c.delta)).collect();
        assert_eq!(deltas, vec![(ComponentId::Client(3), 2)]);
        assert!(d.gauges.is_empty());
        for client in [0, 3, 5] {
            reg.add(ComponentId::Client(client), Counter::Issued, 1);
        }
        reg.set_gauge(ComponentId::Memory, "util", 0.5);
        let d = engine.extract(2, &[("harness", &reg)]);
        let deltas: Vec<_> = d.counters.iter().map(|c| (c.component, c.delta)).collect();
        assert_eq!(
            deltas,
            vec![
                (ComponentId::Client(0), -4),
                (ComponentId::Client(3), 1),
                (ComponentId::Client(5), -4),
            ]
        );
        assert!(d.gauges.is_empty(), "the gauge kept its baseline");
    }

    #[test]
    fn sample_windows_drain_in_push_order() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.sample(CLIENT, SampleKind::Latency, 1.0);
        reg.sample(CLIENT, SampleKind::Latency, 2.0);
        let d0 = engine.extract(0, &[("harness", &reg)]);
        assert_eq!(d0.windows[0].values, vec![1.0, 2.0]);
        reg.sample(CLIENT, SampleKind::Latency, 3.0);
        let d1 = engine.extract(1, &[("harness", &reg)]);
        assert_eq!(d1.windows[0].values, vec![3.0]);
        assert_eq!(d1.windows[0].dropped, 0);
    }

    #[test]
    fn sources_are_tracked_independently() {
        let mut harness = MetricsRegistry::new();
        let mut fabric = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        harness.sample(CLIENT, SampleKind::Latency, 1.0);
        engine.extract(0, &[("harness", &harness), ("fabric", &fabric)]);
        // Only the fabric grows; the harness cursor must not move.
        fabric.sample(CLIENT, SampleKind::Latency, 9.0);
        harness.sample(CLIENT, SampleKind::Latency, 2.0);
        let d = engine.extract(1, &[("harness", &harness), ("fabric", &fabric)]);
        assert_eq!(d.windows.len(), 2);
        let h = d.windows.iter().find(|w| w.source == "harness").unwrap();
        let f = d.windows.iter().find(|w| w.source == "fabric").unwrap();
        assert_eq!(h.values, vec![2.0]);
        assert_eq!(f.values, vec![9.0]);
    }

    #[test]
    fn stats_and_gauges_emit_on_change_only() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.observe(CLIENT, SampleKind::Queueing, 4.0);
        reg.set_gauge(ComponentId::System, "util", 0.5);
        let d0 = engine.extract(0, &[("harness", &reg)]);
        assert_eq!(d0.stats.len(), 1);
        assert_eq!(d0.stats[0].count, 1);
        assert_eq!(d0.gauges.len(), 1);
        let d1 = engine.extract(1, &[("harness", &reg)]);
        assert!(d1.stats.is_empty());
        assert!(d1.gauges.is_empty());
        reg.set_gauge(ComponentId::System, "util", 0.75);
        let d2 = engine.extract(2, &[("harness", &reg)]);
        assert_eq!(d2.gauges[0].value, 0.75);
    }

    #[test]
    fn eviction_between_flushes_reports_dropped() {
        let mut reg = MetricsRegistry::new();
        reg.set_sample_window(Some(4));
        let mut engine = DeltaEngine::new();
        for v in 0..100 {
            reg.sample(CLIENT, SampleKind::Latency, v as f64);
        }
        let d = engine.extract(0, &[("harness", &reg)]);
        let w = &d.windows[0];
        assert_eq!(w.dropped + w.values.len() as u64, 100);
        assert_eq!(w.values.last().copied(), Some(99.0));
    }
}
