//! Per-tenant SLO derivation at flush boundaries.
//!
//! The [`SloTracker`] folds each [`EpochDelta`] into per-tenant rings of
//! recent epochs and derives three windowed values:
//!
//! * `slo_miss_rate` — deadline misses per issued request over the ring;
//! * `slo_p99_normalized` — the 99th percentile of normalized response
//!   time (latency / deadline window) over the ring's raw observations;
//! * `slo_overrun_rate` — budget overruns per completed request over the
//!   ring (overruns are attributed to tenants through the leaf-port map
//!   when one is configured, and through `Client`-scoped counters always).
//!
//! Values are derived from the stream and *emitted into* the stream; they
//! are never written back into a registry, so SLO tracking cannot perturb
//! the simulation or its end-of-run snapshot.

use crate::delta::{EpochDelta, SloRecord};
use bluescale_sim::metrics::{ComponentId, Counter, SampleKind};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Maps fabric leaf-port components to tenant (client) ids.
///
/// In a BlueScale tree with `branch`-way SEs, client `c` attaches to the
/// leaf SE at `(depth, c / branch)`, port `c % branch`; the inverse is
/// `client = order * branch + port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafPortMap {
    /// Tree depth of the leaf SEs (`levels - 1`).
    pub depth: usize,
    /// Fan-in of each SE.
    pub branch: usize,
}

impl LeafPortMap {
    fn client_of(&self, component: ComponentId) -> Option<u32> {
        match component {
            ComponentId::Port { depth, order, port } if depth == self.depth => {
                Some((order * self.branch + port) as u32)
            }
            _ => None,
        }
    }
}

/// SLO derivation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Number of recent epochs each tenant's window covers.
    pub window_epochs: usize,
    /// Optional attribution of fabric per-port budget overruns to tenants.
    pub leaf_ports: Option<LeafPortMap>,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            window_epochs: 16,
            leaf_ports: None,
        }
    }
}

/// One tenant's slice of one epoch.
#[derive(Debug, Default, Clone)]
struct EpochPoint {
    issued: i64,
    completed: i64,
    missed: i64,
    overruns: i64,
    normalized: Vec<f64>,
}

/// Windowed per-tenant SLO state (see the module docs).
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    rings: BTreeMap<u32, VecDeque<EpochPoint>>,
    /// Reused by [`p99`] for the largest values of a ring.
    top: BinaryHeap<Reverse<u64>>,
}

impl SloTracker {
    /// Creates a tracker with empty rings.
    pub fn new(config: SloConfig) -> Self {
        let config = SloConfig {
            window_epochs: config.window_epochs.max(1),
            ..config
        };
        Self {
            config,
            rings: BTreeMap::new(),
            top: BinaryHeap::new(),
        }
    }

    /// Folds one epoch into the rings and derives SLO records for every
    /// tenant active in the current window. Call once per flush, in epoch
    /// order, *before* handing the delta to sinks.
    pub fn on_epoch(&mut self, delta: &EpochDelta) -> Vec<SloRecord> {
        // Gather this epoch's per-tenant slice from the delta.
        let mut points: BTreeMap<u32, EpochPoint> = BTreeMap::new();
        for c in &delta.counters {
            let (tenant, field): (u32, fn(&mut EpochPoint) -> &mut i64) =
                match (c.component, c.counter) {
                    (ComponentId::Client(t), Counter::Issued) => (t, |p| &mut p.issued),
                    (ComponentId::Client(t), Counter::Completed) => (t, |p| &mut p.completed),
                    (ComponentId::Client(t), Counter::Missed) => (t, |p| &mut p.missed),
                    (ComponentId::Client(t), Counter::BudgetOverruns) => (t, |p| &mut p.overruns),
                    (component, Counter::BudgetOverruns) => {
                        match self.config.leaf_ports.and_then(|m| m.client_of(component)) {
                            Some(t) => (t, |p| &mut p.overruns),
                            None => continue,
                        }
                    }
                    _ => continue,
                };
            *field(points.entry(tenant).or_default()) += c.delta;
        }
        for w in &delta.windows {
            if let (ComponentId::Client(t), SampleKind::NormalizedResponse) = (w.component, w.kind)
            {
                points
                    .entry(t)
                    .or_default()
                    .normalized
                    .extend_from_slice(&w.values);
            }
        }

        // Advance every ring (tenants idle this epoch age out too).
        for &tenant in points.keys() {
            self.rings.entry(tenant).or_default();
        }
        let window = self.config.window_epochs;
        for (tenant, ring) in &mut self.rings {
            let point = points.remove(tenant).unwrap_or_default();
            if ring.len() >= window {
                ring.pop_front();
            }
            ring.push_back(point);
        }

        // Derive windowed values for tenants with any activity in window.
        let mut out = Vec::new();
        let top = &mut self.top;
        self.rings.retain(|&tenant, ring| {
            let issued: i64 = ring.iter().map(|p| p.issued).sum();
            let completed: i64 = ring.iter().map(|p| p.completed).sum();
            let missed: i64 = ring.iter().map(|p| p.missed).sum();
            let overruns: i64 = ring.iter().map(|p| p.overruns).sum();
            let norm_count: usize = ring.iter().map(|p| p.normalized.len()).sum();
            if issued == 0 && completed == 0 && missed == 0 && overruns == 0 && norm_count == 0 {
                // Fully idle across the whole window: drop the ring so a
                // departed tenant stops emitting (and stops costing memory).
                return false;
            }
            out.push(SloRecord {
                tenant,
                metric: "slo_miss_rate",
                value: ratio(missed, issued),
            });
            out.push(SloRecord {
                tenant,
                metric: "slo_p99_normalized",
                value: p99(ring, top),
            });
            out.push(SloRecord {
                tenant,
                metric: "slo_overrun_rate",
                value: ratio(overruns, completed),
            });
            true
        });
        out
    }
}

fn ratio(num: i64, den: i64) -> f64 {
    if den <= 0 {
        0.0
    } else {
        (num.max(0) as f64) / den as f64
    }
}

/// Nearest-rank p99 over the ring's normalized-response observations
/// (the same `⌈p/100·n⌉` rule as [`bluescale_sim::stats::Samples`]).
///
/// The rank-`r` value in ascending order is the smallest of the
/// `k = n − r + 1` largest, so one scan keeps those `k` (about `n/100`)
/// in the min-heap `top` instead of copying and selecting over all `n`.
/// Normalized responses are finite (the deadline window is at least one
/// cycle).
fn p99(ring: &VecDeque<EpochPoint>, top: &mut BinaryHeap<Reverse<u64>>) -> f64 {
    let n: usize = ring.iter().map(|p| p.normalized.len()).sum();
    if n == 0 {
        return 0.0;
    }
    let rank = (99.0 * n as f64 / 100.0).ceil() as usize;
    let k = n + 1 - rank.clamp(1, n);
    top.clear();
    for &v in ring.iter().flat_map(|p| &p.normalized) {
        debug_assert!(!v.is_nan(), "NaN in normalized response");
        let key = Reverse(order_key(v));
        if top.len() < k {
            top.push(key);
        } else if let Some(mut least) = top.peek_mut() {
            if key < *least {
                *least = key;
            }
        }
    }
    let Reverse(least) = *top.peek().expect("n > 0 values were scanned");
    f64::from_bits(if least >> 63 == 1 {
        least ^ (1 << 63)
    } else {
        !least
    })
}

/// `v`'s bits mapped so that unsigned order is numeric order.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{CounterDelta, SampleRecord};
    use bluescale_sim::metrics::Counter;

    fn delta_with(
        epoch: u64,
        counters: Vec<CounterDelta>,
        windows: Vec<SampleRecord>,
    ) -> EpochDelta {
        EpochDelta {
            epoch,
            cycle: epoch * 100,
            counters,
            gauges: Vec::new(),
            stats: Vec::new(),
            windows,
            slo: Vec::new(),
        }
    }

    fn counter(tenant: u32, counter: Counter, delta: i64) -> CounterDelta {
        CounterDelta {
            source: "harness",
            component: ComponentId::Client(tenant),
            counter,
            delta,
            total: delta.max(0) as u64,
        }
    }

    #[test]
    fn miss_rate_is_windowed() {
        let mut t = SloTracker::new(SloConfig {
            window_epochs: 2,
            leaf_ports: None,
        });
        let r0 = t.on_epoch(&delta_with(
            0,
            vec![
                counter(0, Counter::Issued, 10),
                counter(0, Counter::Missed, 5),
            ],
            vec![],
        ));
        let miss = r0.iter().find(|r| r.metric == "slo_miss_rate").unwrap();
        assert_eq!(miss.value, 0.5);
        // A clean epoch halves the windowed rate...
        let r1 = t.on_epoch(&delta_with(
            1,
            vec![counter(0, Counter::Issued, 10)],
            vec![],
        ));
        let miss = r1.iter().find(|r| r.metric == "slo_miss_rate").unwrap();
        assert_eq!(miss.value, 0.25);
        // ...and once the bad epoch ages out of the 2-epoch window the
        // rate recovers completely.
        let r2 = t.on_epoch(&delta_with(
            2,
            vec![counter(0, Counter::Issued, 10)],
            vec![],
        ));
        let miss = r2.iter().find(|r| r.metric == "slo_miss_rate").unwrap();
        assert_eq!(miss.value, 0.0);
    }

    #[test]
    fn idle_tenants_age_out_entirely() {
        let mut t = SloTracker::new(SloConfig {
            window_epochs: 2,
            leaf_ports: None,
        });
        t.on_epoch(&delta_with(0, vec![counter(3, Counter::Issued, 1)], vec![]));
        // Two fully idle epochs: the ring drains and the tenant vanishes.
        t.on_epoch(&delta_with(1, vec![], vec![]));
        let r = t.on_epoch(&delta_with(2, vec![], vec![]));
        assert!(r.is_empty());
    }

    #[test]
    fn p99_over_ring_window() {
        let mut t = SloTracker::new(SloConfig::default());
        let window = SampleRecord {
            source: "harness",
            component: ComponentId::Client(1),
            kind: SampleKind::NormalizedResponse,
            values: (1..=100).map(|v| v as f64 / 100.0).collect(),
            dropped: 0,
        };
        let r = t.on_epoch(&delta_with(0, vec![], vec![window]));
        let p99 = r.iter().find(|r| r.metric == "slo_p99_normalized").unwrap();
        assert_eq!(p99.tenant, 1);
        assert_eq!(p99.value, 0.99);
    }

    #[test]
    fn p99_selection_matches_the_sorting_reference() {
        use bluescale_sim::rng::SimRng;
        fn sorted_p99(ring: &VecDeque<EpochPoint>) -> f64 {
            let mut all: Vec<f64> = ring
                .iter()
                .flat_map(|p| p.normalized.iter().copied())
                .collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = all.len();
            let rank = (99.0 * n as f64 / 100.0).ceil() as usize;
            all[rank.clamp(1, n) - 1]
        }
        let mut rng = SimRng::seed_from(0x5E1EC7);
        // Below 100 values the scan keeps one (k = 1); 100 and 101 keep two.
        let mut sizes = vec![1, 2, 50, 99, 100, 101, 199, 200, 201];
        sizes.extend((0..64).map(|_| rng.range_usize(1, 600)));
        let mut top = BinaryHeap::new();
        for (case, n) in sizes.into_iter().enumerate() {
            // Few distinct values, so most rings carry ties at the rank;
            // every fourth ring repeats a single value.
            let distinct = if case % 4 == 0 {
                1
            } else {
                rng.range_u64(2, 12)
            };
            let mut ring = VecDeque::new();
            let mut left = n;
            while left > 0 {
                // Empty epochs sit between the others.
                let take = rng.range_usize(0, left + 1);
                let normalized = (0..take)
                    .map(|_| (rng.range_u64(0, distinct) as f64 - 2.0) / 4.0)
                    .collect();
                ring.push_back(EpochPoint {
                    normalized,
                    ..EpochPoint::default()
                });
                left -= take;
            }
            ring.push_back(EpochPoint::default());
            let got = p99(&ring, &mut top);
            assert_eq!(got.to_bits(), sorted_p99(&ring).to_bits(), "n = {n}");
        }
        // Rising values all enter the kept set; falling ones never do.
        for n in [2, 99, 100, 101, 1_000] {
            let rising: Vec<f64> = (0..n).map(|v| v as f64 / 8.0).collect();
            let falling = rising.iter().rev().copied().collect();
            for normalized in [rising, falling] {
                let ring = VecDeque::from(vec![EpochPoint {
                    normalized,
                    ..EpochPoint::default()
                }]);
                let got = p99(&ring, &mut top);
                assert_eq!(got.to_bits(), sorted_p99(&ring).to_bits(), "n = {n}");
            }
        }
        let idle = VecDeque::from(vec![EpochPoint::default(); 3]);
        assert_eq!(p99(&idle, &mut top), 0.0);
    }

    #[test]
    fn leaf_port_map_attributes_overruns() {
        let mut t = SloTracker::new(SloConfig {
            window_epochs: 4,
            leaf_ports: Some(LeafPortMap {
                depth: 2,
                branch: 4,
            }),
        });
        let overrun = CounterDelta {
            source: "fabric",
            component: ComponentId::Port {
                depth: 2,
                order: 1,
                port: 3,
            },
            counter: Counter::BudgetOverruns,
            delta: 2,
            total: 2,
        };
        // order 1 * branch 4 + port 3 = client 7.
        let r = t.on_epoch(&delta_with(
            0,
            vec![counter(7, Counter::Completed, 10), overrun],
            vec![],
        ));
        let rate = r.iter().find(|r| r.metric == "slo_overrun_rate").unwrap();
        assert_eq!(rate.tenant, 7);
        assert_eq!(rate.value, 0.2);
    }
}
