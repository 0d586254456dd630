//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! repository's public functions. Each span carries its layer name, the
//! layer that encloses it, an identifier shared by the spans of one
//! stepped cycle or one control operation, and its start and duration.
//! Totals per layer are always kept; raw spans are kept up to a cap so a
//! long run does not hold millions of them, and are written out at exit.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Raw spans kept per traced pass; the totals cover every span.
const RAW_SPAN_CAP: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    id: u64,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Total {
    ns: u128,
    count: u64,
    nested: bool,
}

/// Span recorder for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Records a top-level span `[start, end)`.
    pub fn span(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.record(name, None, id, start, end.saturating_duration_since(start));
    }

    /// Closes the top-level span that started at `start` now, and returns
    /// its end, which starts the next span: consecutive phases tile the
    /// traced code with no gaps between them.
    pub fn lap(&mut self, name: &'static str, id: u64, start: Instant) -> Instant {
        let end = Instant::now();
        self.span(name, id, start, end);
        end
    }

    /// Records a span nested in `parent`. `dur` may be the summed time of
    /// several calls of one cycle (one span per phase per cycle).
    pub fn child(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.record(name, Some(parent), id, start, dur);
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start: Instant,
        dur: Duration,
    ) {
        let total = self.totals.entry(name).or_default();
        total.ns += dur.as_nanos();
        total.count += 1;
        total.nested = parent.is_some();
        if self.spans.len() < RAW_SPAN_CAP {
            self.spans.push(Span {
                name,
                parent,
                id,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
    }

    /// Seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.ns as f64 / 1e9)
    }

    /// Seconds in top-level spans (children are inside their parents).
    pub fn top_level_secs(&self) -> f64 {
        self.totals
            .iter()
            .filter(|(_, t)| !t.nested)
            .map(|(_, t)| t.ns as f64 / 1e9)
            .sum()
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The totals and the kept raw spans as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"totals\": {");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"seconds\": {}, \"spans\": {}}}",
                json_str(name),
                t.ns as f64 / 1e9,
                t.count
            );
        }
        let _ = write!(s, "}}, \"raw_span_cap\": {RAW_SPAN_CAP}, \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n    " };
            let parent = sp.parent.map_or("null".to_string(), json_str);
            let _ = write!(
                s,
                "{sep}{{\"name\": {}, \"parent\": {parent}, \"id\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                json_str(sp.name),
                sp.id,
                sp.start_ns,
                sp.dur_ns
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_inside_their_parent() {
        let mut t = Tracer::new();
        let a = Instant::now();
        let b = a + Duration::from_millis(10);
        t.span("client.phase", 0, a, b);
        t.child(
            "fabric.inject",
            "client.phase",
            0,
            a,
            Duration::from_millis(4),
        );
        assert!((t.secs("client.phase") - 0.010).abs() < 1e-9);
        assert!((t.top_level_secs() - 0.010).abs() < 1e-9);
        assert!(t.to_json().contains("\"parent\": \"client.phase\""));
    }
}
