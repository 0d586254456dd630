//! Telemetry sinks: where epochs go after extraction.
//!
//! * [`JsonlSink`] — appends one self-describing JSONL line per epoch to a
//!   file (schema in the crate docs).
//! * [`RingSink`] — in-process subscriber backed by ring-buffered
//!   per-tenant time series, read through a cloneable [`RingHandle`].
//! * [`FanOut`] — bounded-channel fan-out to external subscribers (the
//!   ctl daemon's push path). Slow subscribers lose updates — counted,
//!   never blocking — so an external reader can never backpressure the
//!   simulator.

use crate::delta::EpochDelta;
use crate::jsonl::JsonlEncoder;
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::Cycle;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// A consumer of epoch deltas. Implementations must not block: the flush
/// path runs on the simulation thread (outside the hot loop, but still on
/// the critical path between spans).
pub trait TelemetrySink {
    /// Consumes one epoch. Epochs arrive in order, exactly once.
    fn on_epoch(&mut self, delta: &EpochDelta);
    /// Final call after the last epoch (flush buffers, close files).
    fn finish(&mut self) {}
}

// ---------------------------------------------------------------------
// JSONL file sink
// ---------------------------------------------------------------------

/// Writes one JSONL line per epoch (see the crate docs for the schema).
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    encoder: JsonlEncoder,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
            encoder: JsonlEncoder::default(),
            error: None,
        })
    }

    /// The first write error, if any (writes after an error are skipped).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl TelemetrySink for JsonlSink {
    fn on_epoch(&mut self, delta: &EpochDelta) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(self.encoder.encode(delta)) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-tenant time-series points
// ---------------------------------------------------------------------

/// One tenant's slice of one epoch: activity deltas plus the windowed SLO
/// values derived at the flush boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPoint {
    /// The tenant (client slot).
    pub tenant: u32,
    /// Epoch number (monotone per pipeline).
    pub epoch: u64,
    /// Simulation cycle of the flush.
    pub cycle: Cycle,
    /// Requests issued this epoch.
    pub issued: u64,
    /// Requests completed this epoch.
    pub completed: u64,
    /// Deadline misses this epoch.
    pub missed: u64,
    /// Windowed miss rate (`slo_miss_rate`).
    pub miss_rate: f64,
    /// Windowed p99 normalized response (`slo_p99_normalized`).
    pub p99_normalized: f64,
    /// Windowed budget-overrun rate (`slo_overrun_rate`).
    pub overrun_rate: f64,
}

/// Projects an epoch onto per-tenant points: one per tenant that has
/// either activity deltas or SLO records this epoch.
pub fn tenant_points(delta: &EpochDelta) -> Vec<TenantPoint> {
    fn point<'a>(
        map: &'a mut BTreeMap<u32, TenantPoint>,
        delta: &EpochDelta,
        tenant: u32,
    ) -> &'a mut TenantPoint {
        map.entry(tenant).or_insert(TenantPoint {
            tenant,
            epoch: delta.epoch,
            cycle: delta.cycle,
            issued: 0,
            completed: 0,
            missed: 0,
            miss_rate: 0.0,
            p99_normalized: 0.0,
            overrun_rate: 0.0,
        })
    }
    let mut by_tenant: BTreeMap<u32, TenantPoint> = BTreeMap::new();
    for c in &delta.counters {
        if let ComponentId::Client(t) = c.component {
            let p = point(&mut by_tenant, delta, t);
            let d = c.delta.max(0) as u64;
            match c.counter {
                Counter::Issued => p.issued += d,
                Counter::Completed => p.completed += d,
                Counter::Missed => p.missed += d,
                _ => {}
            }
        }
    }
    for s in &delta.slo {
        let p = point(&mut by_tenant, delta, s.tenant);
        match s.metric {
            "slo_miss_rate" => p.miss_rate = s.value,
            "slo_p99_normalized" => p.p99_normalized = s.value,
            "slo_overrun_rate" => p.overrun_rate = s.value,
            _ => {}
        }
    }
    by_tenant.into_values().collect()
}

// ---------------------------------------------------------------------
// In-process ring-buffered subscriber sink
// ---------------------------------------------------------------------

/// Shared state between a [`RingSink`] and its [`RingHandle`]s.
#[derive(Debug, Default)]
struct RingShared {
    series: Mutex<BTreeMap<u32, VecDeque<TenantPoint>>>,
    epochs: AtomicU64,
}

/// In-process subscriber sink: keeps the most recent `capacity` points per
/// tenant, readable at any time through a [`RingHandle`].
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    shared: Arc<RingShared>,
}

/// Read side of a [`RingSink`]; cheap to clone and `Send`.
#[derive(Debug, Clone)]
pub struct RingHandle {
    shared: Arc<RingShared>,
}

impl RingSink {
    /// Creates a sink retaining `capacity` points per tenant (min 1).
    pub fn new(capacity: usize) -> (Self, RingHandle) {
        let shared = Arc::new(RingShared::default());
        (
            Self {
                capacity: capacity.max(1),
                shared: Arc::clone(&shared),
            },
            RingHandle { shared },
        )
    }
}

impl TelemetrySink for RingSink {
    fn on_epoch(&mut self, delta: &EpochDelta) {
        let points = tenant_points(delta);
        let mut series = self.shared.series.lock().expect("ring sink poisoned");
        for p in points {
            let ring = series.entry(p.tenant).or_default();
            if ring.len() >= self.capacity {
                ring.pop_front();
            }
            ring.push_back(p);
        }
        drop(series);
        self.shared.epochs.fetch_add(1, Ordering::Release);
    }
}

impl RingHandle {
    /// The retained time series for `tenant`, oldest first.
    pub fn series(&self, tenant: u32) -> Vec<TenantPoint> {
        self.shared
            .series
            .lock()
            .expect("ring sink poisoned")
            .get(&tenant)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Tenants with at least one retained point.
    pub fn tenants(&self) -> Vec<u32> {
        self.shared
            .series
            .lock()
            .expect("ring sink poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Number of epochs the sink has consumed.
    pub fn epochs_seen(&self) -> u64 {
        self.shared.epochs.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Bounded fan-out to external subscribers
// ---------------------------------------------------------------------

struct Subscriber {
    id: u64,
    tenant: u32,
    tx: SyncSender<TenantPoint>,
}

/// Fan-out hub for external subscribers (the ctl daemon's push path).
///
/// The flush side ([`FanOutSink`]) delivers each tenant's point to that
/// tenant's subscribers with `try_send` on a bounded channel: a subscriber
/// whose pusher thread has fallen behind loses the update and the hub's
/// lagged tally grows. The simulation thread never blocks on a reader.
#[derive(Default)]
pub struct FanOut {
    subscribers: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    lagged: AtomicU64,
}

impl FanOut {
    /// Creates an empty hub.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a subscriber for `tenant` with a `depth`-bounded channel.
    /// Returns the subscription id and the receiving end.
    pub fn subscribe(&self, tenant: u32, depth: usize) -> (u64, Receiver<TenantPoint>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(depth.max(1));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers
            .lock()
            .expect("fan-out poisoned")
            .push(Subscriber { id, tenant, tx });
        (id, rx)
    }

    /// Removes a subscriber (idempotent).
    pub fn unsubscribe(&self, id: u64) {
        self.subscribers
            .lock()
            .expect("fan-out poisoned")
            .retain(|s| s.id != id);
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("fan-out poisoned").len()
    }

    /// Drains the lagged tally (updates dropped on full channels) since
    /// the last call. The caller folds this into its own accounting —
    /// typically a `SubscriberLagged` counter.
    pub fn take_lagged(&self) -> u64 {
        self.lagged.swap(0, Ordering::AcqRel)
    }
}

/// The [`TelemetrySink`] face of a [`FanOut`] hub.
pub struct FanOutSink {
    hub: Arc<FanOut>,
}

impl FanOutSink {
    /// Wraps a hub for registration with a pipeline.
    pub fn new(hub: Arc<FanOut>) -> Self {
        Self { hub }
    }
}

impl TelemetrySink for FanOutSink {
    fn on_epoch(&mut self, delta: &EpochDelta) {
        let points = tenant_points(delta);
        if points.is_empty() {
            return;
        }
        let mut subscribers = self.hub.subscribers.lock().expect("fan-out poisoned");
        let mut dead_ids: Vec<u64> = Vec::new();
        for sub in subscribers.iter() {
            for p in &points {
                if p.tenant != sub.tenant {
                    continue;
                }
                match sub.tx.try_send(*p) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.hub.lagged.fetch_add(1, Ordering::AcqRel);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        dead_ids.push(sub.id);
                        break;
                    }
                }
            }
        }
        if !dead_ids.is_empty() {
            subscribers.retain(|s| !dead_ids.contains(&s.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{CounterDelta, SloRecord};

    fn delta(epoch: u64, tenant: u32, issued: i64) -> EpochDelta {
        EpochDelta {
            epoch,
            cycle: epoch * 10,
            counters: vec![CounterDelta {
                source: "harness",
                component: ComponentId::Client(tenant),
                counter: Counter::Issued,
                delta: issued,
                total: issued as u64,
            }],
            gauges: Vec::new(),
            stats: Vec::new(),
            windows: Vec::new(),
            slo: vec![SloRecord {
                tenant,
                metric: "slo_miss_rate",
                value: 0.125,
            }],
        }
    }

    #[test]
    fn ring_sink_retains_bounded_series() {
        let (mut sink, handle) = RingSink::new(3);
        for e in 0..10 {
            sink.on_epoch(&delta(e, 7, 2));
        }
        let series = handle.series(7);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].epoch, 7);
        assert_eq!(series[2].epoch, 9);
        assert_eq!(series[2].issued, 2);
        assert_eq!(series[2].miss_rate, 0.125);
        assert_eq!(handle.epochs_seen(), 10);
        assert!(handle.series(99).is_empty());
    }

    #[test]
    fn fanout_delivers_own_tenant_only() {
        let hub = FanOut::new();
        let (_ida, rx_a) = hub.subscribe(1, 8);
        let (_idb, rx_b) = hub.subscribe(2, 8);
        let mut sink = FanOutSink::new(Arc::clone(&hub));
        sink.on_epoch(&delta(0, 1, 5));
        sink.on_epoch(&delta(1, 2, 3));
        let a = rx_a.try_recv().unwrap();
        assert_eq!((a.tenant, a.epoch, a.issued), (1, 0, 5));
        assert!(rx_a.try_recv().is_err(), "tenant 1 must not see tenant 2");
        let b = rx_b.try_recv().unwrap();
        assert_eq!((b.tenant, b.epoch), (2, 1));
    }

    #[test]
    fn fanout_sheds_slow_subscribers_without_blocking() {
        let hub = FanOut::new();
        let (_id, rx) = hub.subscribe(4, 2);
        let mut sink = FanOutSink::new(Arc::clone(&hub));
        for e in 0..10 {
            sink.on_epoch(&delta(e, 4, 1));
        }
        // Depth 2: the first two points queued, the rest were shed.
        assert_eq!(hub.take_lagged(), 8);
        assert_eq!(hub.take_lagged(), 0, "tally drains");
        assert_eq!(rx.try_recv().unwrap().epoch, 0);
        assert_eq!(rx.try_recv().unwrap().epoch, 1);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn fanout_unsubscribe_and_disconnect() {
        let hub = FanOut::new();
        let (id, rx) = hub.subscribe(1, 2);
        assert_eq!(hub.subscriber_count(), 1);
        hub.unsubscribe(id);
        assert_eq!(hub.subscriber_count(), 0);
        drop(rx);
        // A dropped receiver is pruned on the next epoch that notices it.
        let (_id2, rx2) = hub.subscribe(1, 2);
        drop(rx2);
        let mut sink = FanOutSink::new(Arc::clone(&hub));
        sink.on_epoch(&delta(0, 1, 1));
        assert_eq!(hub.subscriber_count(), 0);
    }
}
