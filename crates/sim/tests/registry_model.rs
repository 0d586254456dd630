//! Model differential for [`MetricsRegistry`]'s tally storage.
//!
//! Seeded operation sequences drive two registries and, in lock step, a
//! reference model made of plain `BTreeMap`s keyed by `(ComponentId, kind)`
//! — the registry's documented semantics written the obvious way. After
//! every operation the point reads and the ordered iterators must agree;
//! periodically the whole `to_json` export must agree byte for byte. The
//! key set spans the dense-row components (`System`, small `Client` ids),
//! client ids far above any dense bound and every other component variant.

use bluescale_sim::metrics::{ComponentId, Counter, MetricsRegistry, SampleKind};
use bluescale_sim::rng::SimRng;
use bluescale_sim::stats::{OnlineStats, Samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const COUNTERS: [Counter; 6] = [
    Counter::Issued,
    Counter::Completed,
    Counter::Missed,
    Counter::Enqueued,
    Counter::Grants,
    Counter::SubscriberLagged,
];

const KINDS: [SampleKind; 7] = [
    SampleKind::Latency,
    SampleKind::Blocking,
    SampleKind::NormalizedResponse,
    SampleKind::Queueing,
    SampleKind::MissRatio,
    SampleKind::Custom("alpha"),
    SampleKind::Custom("zeta"),
];

const GAUGES: [&str; 3] = ["root_bandwidth", "clients", "util"];

fn components() -> Vec<ComponentId> {
    let mut all = vec![ComponentId::System];
    all.extend((0..70).map(ComponentId::Client));
    all.extend([
        ComponentId::Client(1 << 20),
        ComponentId::Client(u32::MAX),
        ComponentId::Se { depth: 0, order: 0 },
        ComponentId::Se { depth: 2, order: 5 },
        ComponentId::Port {
            depth: 2,
            order: 5,
            port: 3,
        },
        ComponentId::Memory,
        ComponentId::Bank(0),
        ComponentId::Bank(7),
        ComponentId::Series(0),
        ComponentId::Series(3),
    ]);
    all
}

/// The reference: one ordered map per tally layer.
#[derive(Default)]
struct Model {
    window: Option<usize>,
    counters: BTreeMap<(ComponentId, Counter), u64>,
    gauges: BTreeMap<(ComponentId, &'static str), f64>,
    stats: BTreeMap<(ComponentId, SampleKind), OnlineStats>,
    samples: BTreeMap<(ComponentId, SampleKind), Samples>,
}

impl Model {
    fn samples_mut(&mut self, key: (ComponentId, SampleKind)) -> &mut Samples {
        let window = self.window;
        self.samples
            .entry(key)
            .or_insert_with(|| Samples::with_window(window))
    }

    fn merge(&mut self, other: &Model) {
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.gauges {
            self.gauges.insert(key, v);
        }
        for (&key, stats) in &other.stats {
            self.stats.entry(key).or_default().merge(stats);
        }
        for (&key, samples) in &other.samples {
            self.samples_mut(key)
                .extend(samples.as_slice().iter().copied());
        }
    }

    /// The export format of `MetricsRegistry::to_json` for a registry
    /// with detail off, no events and nothing in flight.
    fn render_json(&mut self) -> String {
        fn num(v: Option<f64>) -> String {
            match v {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_owned(),
            }
        }
        fn section(out: &mut String, entries: Vec<(String, String)>) {
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n    \"{key}\": {value}");
            }
            if !entries.is_empty() {
                out.push_str("\n  ");
            }
        }
        let mut out = String::from("{\n  \"detail\": false,\n  \"counters\": {");
        let counters = self.counters.iter();
        section(
            &mut out,
            counters
                .map(|((c, k), v)| (format!("{c}/{}", k.name()), v.to_string()))
                .collect(),
        );
        out.push_str("},\n  \"gauges\": {");
        let gauges = self.gauges.iter();
        section(
            &mut out,
            gauges
                .map(|((c, name), v)| (format!("{c}/{name}"), num(Some(*v))))
                .collect(),
        );
        out.push_str("},\n  \"stats\": {");
        let stats = self.stats.iter();
        section(
            &mut out,
            stats
                .map(|((c, k), s)| {
                    let value = format!(
                        "{{\"count\": {}, \"mean\": {}, \"std_dev\": {}, \"min\": {}, \"max\": {}}}",
                        s.count(),
                        num(Some(s.mean())),
                        num(Some(s.std_dev())),
                        num(s.min()),
                        num(s.max()),
                    );
                    (format!("{c}/{k}"), value)
                })
                .collect(),
        );
        out.push_str("},\n  \"samples\": {");
        let samples = self.samples.iter_mut();
        section(
            &mut out,
            samples
                .map(|((c, k), s)| {
                    let value = format!(
                        "{{\"count\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \
                         \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                        s.len(),
                        num(s.mean()),
                        num(s.min()),
                        num(s.percentile(50.0)),
                        num(s.percentile(95.0)),
                        num(s.percentile(99.0)),
                        num(s.max()),
                    );
                    (format!("{c}/{k}"), value)
                })
                .collect(),
        );
        out.push_str("},\n  \"events_retained\": 0,\n  \"requests_in_flight\": 0\n}\n");
        out
    }
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.range_usize(0, items.len())]
}

/// Applies one random operation to registry/model pair `side` (or merges
/// across the pairs).
fn step(
    rng: &mut SimRng,
    keys: &[ComponentId],
    regs: &mut [MetricsRegistry; 2],
    models: &mut [Model; 2],
) {
    let side = rng.range_usize(0, 2);
    let (reg, model) = (&mut regs[side], &mut models[side]);
    let c = pick(rng, keys);
    let counter = pick(rng, &COUNTERS);
    let kind = pick(rng, &KINDS);
    let value = rng.range_u64(0, 50);
    match rng.range_usize(0, 12) {
        0 => {
            reg.inc(c, counter);
            *model.counters.entry((c, counter)).or_insert(0) += 1;
        }
        1 => {
            reg.add(c, counter, value);
            *model.counters.entry((c, counter)).or_insert(0) += value;
        }
        2 => {
            reg.sub(c, counter, value);
            if let Some(v) = model.counters.get_mut(&(c, counter)) {
                *v = v.saturating_sub(value);
            }
        }
        3 => {
            reg.set_counter(c, counter, value);
            model.counters.insert((c, counter), value);
        }
        4 | 5 => {
            reg.sample(c, kind, value as f64 / 4.0);
            model.samples_mut((c, kind)).push(value as f64 / 4.0);
        }
        6 => {
            // Through the mutable view: either a push or an in-place sort.
            let (real, reference) = (reg.samples_mut(c, kind), model.samples_mut((c, kind)));
            if value.is_multiple_of(2) {
                real.push(value as f64);
                reference.push(value as f64);
            } else {
                assert_eq!(real.percentile(50.0), reference.percentile(50.0));
            }
        }
        7 => {
            let window = [None, Some(1), Some(3), Some(8)][rng.range_usize(0, 4)];
            reg.set_sample_window(window);
            model.window = window;
            for samples in model.samples.values_mut() {
                samples.set_window(window);
            }
        }
        8 => {
            reg.observe(c, kind, value as f64);
            model.stats.entry((c, kind)).or_default().push(value as f64);
        }
        9 => {
            let name = pick(rng, &GAUGES);
            reg.set_gauge(c, name, value as f64 / 8.0);
            model.gauges.insert((c, name), value as f64 / 8.0);
        }
        _ => {
            // Merge in either direction, then restart the merged-from side
            // (as a shard's registry is folded once), so repeated merges
            // cannot double the tallies without bound.
            let [a, b] = regs;
            let [ma, mb] = models;
            if side == 0 {
                a.merge(b);
                ma.merge(mb);
            } else {
                b.merge(a);
                mb.merge(ma);
            }
            regs[1 - side] = MetricsRegistry::new();
            models[1 - side] = Model::default();
        }
    }
}

fn assert_agrees(reg: &MetricsRegistry, model: &Model, keys: &[ComponentId], ctx: &str) {
    for &c in keys {
        for counter in COUNTERS {
            let want = model.counters.get(&(c, counter)).copied().unwrap_or(0);
            assert_eq!(
                reg.counter(c, counter),
                want,
                "{ctx}: counter {c}/{counter:?}"
            );
        }
        for kind in KINDS {
            let want = model.samples.get(&(c, kind)).map(Samples::as_slice);
            let got = reg.samples(c, kind).map(Samples::as_slice);
            assert_eq!(got, want, "{ctx}: samples {c}/{kind}");
        }
    }
    let counters: Vec<_> = reg.counters_iter().collect();
    let want: Vec<_> = model.counters.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(counters, want, "{ctx}: counters_iter");
    let samples: Vec<_> = reg
        .samples_iter()
        .map(|(k, s)| (k, s.as_slice().to_vec(), s.total_pushed()))
        .collect();
    let want: Vec<_> = model
        .samples
        .iter()
        .map(|(&k, s)| (k, s.as_slice().to_vec(), s.total_pushed()))
        .collect();
    assert_eq!(samples, want, "{ctx}: samples_iter");
    let gauges: Vec<_> = reg.gauges_iter().collect();
    let want: Vec<_> = model.gauges.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(gauges, want, "{ctx}: gauges_iter");
    let stats: Vec<_> = reg.stats_iter().map(|(k, s)| (k, *s)).collect();
    let want: Vec<_> = model.stats.iter().map(|(&k, &s)| (k, s)).collect();
    assert_eq!(stats, want, "{ctx}: stats_iter");
}

#[test]
fn registry_matches_an_ordered_map_model() {
    let keys = components();
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(0x7AB1E ^ seed);
        let mut regs = [MetricsRegistry::new(), MetricsRegistry::new()];
        let mut models = [Model::default(), Model::default()];
        for op in 0..500 {
            step(&mut rng, &keys, &mut regs, &mut models);
            for side in 0..2 {
                let ctx = format!("seed {seed}, op {op}, side {side}");
                assert_agrees(&regs[side], &models[side], &keys, &ctx);
                if op % 50 == 49 {
                    assert_eq!(regs[side].to_json(), models[side].render_json(), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn far_client_ids_sort_between_dense_rows_and_other_components() {
    let mut reg = MetricsRegistry::new();
    let order = [
        ComponentId::System,
        ComponentId::Client(0),
        ComponentId::Client(69),
        ComponentId::Client(1 << 20),
        ComponentId::Client(u32::MAX),
        ComponentId::Se { depth: 0, order: 0 },
        ComponentId::Memory,
        ComponentId::Series(0),
    ];
    for &c in order.iter().rev() {
        reg.inc(c, Counter::Issued);
    }
    let seen: Vec<ComponentId> = reg.counters_iter().map(|((c, _), _)| c).collect();
    assert_eq!(seen, order);
    // A retraction on an absent key creates nothing.
    reg.sub(ComponentId::Client(5), Counter::Issued, 1);
    reg.sub(ComponentId::Bank(1), Counter::Issued, 1);
    assert_eq!(reg.counters_iter().count(), order.len());
}
