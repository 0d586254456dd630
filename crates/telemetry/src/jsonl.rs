//! JSONL encoding of epochs, plus a parser/folder for replay.
//!
//! The line format is documented in the crate docs. The folder
//! ([`fold_jsonl`]) reconstructs end-of-run state from a stream: summing
//! signed counter deltas, concatenating sample windows per source, and
//! taking the last value of every instant record. A differential test in
//! the workspace pins that the fold reproduces the final registry exactly.
//!
//! The parser is a minimal recursive-descent JSON reader for the subset
//! this crate emits (objects, arrays, strings with simple escapes,
//! integer and float numbers, literals). It exists so the replay path has
//! no external dependencies.

use crate::delta::EpochDelta;
use bluescale_sim::metrics::{ComponentId, MetricsRegistry, SampleKind};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;

/// Schema version stamped on every line.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Renders one epoch as a single JSONL line (trailing newline included).
///
/// Runs a fresh encoder; [`JsonlSink`](crate::JsonlSink) keeps one across
/// epochs instead, so its buffer and number memo carry over.
pub fn to_jsonl(delta: &EpochDelta) -> String {
    let line = JsonlEncoder::default().encode(delta).to_vec();
    String::from_utf8(line).expect("the encoder writes only UTF-8")
}

/// Most distinct non-integer numbers the [`JsonlEncoder`] memo holds
/// before it is cleared. A `fig6_observed` run renders about 15,000
/// distinct ones, so one run fits; the bound caps the memo at a few
/// megabytes even when every number is a long subnormal.
const MEMO_CAPACITY: usize = 1 << 14;

/// Integer-valued floats below this magnitude print as plain integers.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Encodes epochs as JSONL lines into a buffer reused across epochs.
///
/// Integers, and floats that hold an integer below 2^53, are written with
/// a digit loop. Every other finite float is rendered once through `{}`
/// (the shortest text that parses back to the same bits) and memoised by
/// its bit pattern; the memo holds at most [`MEMO_CAPACITY`] numbers and
/// is cleared when full. The bytes equal a `write!`-based rendering of
/// the same epoch: the stream is a published format that `fold_jsonl` and
/// external readers parse.
#[derive(Debug, Default)]
pub(crate) struct JsonlEncoder {
    line: Vec<u8>,
    /// f64 bits → `(start, len)` of the number's text in `texts`.
    memo: HashMap<u64, (u32, u16)>,
    texts: Vec<u8>,
}

impl JsonlEncoder {
    /// Renders one epoch as a single JSONL line (trailing newline
    /// included), valid until the next call.
    pub(crate) fn encode(&mut self, delta: &EpochDelta) -> &[u8] {
        self.line.clear();
        self.line.extend_from_slice(b"{\"v\":");
        push_u64(&mut self.line, SCHEMA_VERSION);
        self.line.extend_from_slice(b",\"epoch\":");
        push_u64(&mut self.line, delta.epoch);
        self.line.extend_from_slice(b",\"cycle\":");
        push_u64(&mut self.line, delta.cycle);
        self.line.extend_from_slice(b",\"records\":[");
        let mut first = true;
        for c in &delta.counters {
            self.record(
                &mut first,
                c.source,
                c.component,
                c.counter.name(),
                c.counter.unit(),
            );
            self.line.extend_from_slice(b"delta\",\"delta\":");
            push_i64(&mut self.line, c.delta);
            self.line.extend_from_slice(b",\"total\":");
            push_u64(&mut self.line, c.total);
            self.line.push(b'}');
        }
        for g in &delta.gauges {
            self.record(&mut first, g.source, g.component, g.name, "value");
            self.line.extend_from_slice(b"instant\",\"value\":");
            self.number(Some(g.value));
            self.line.push(b'}');
        }
        for s in &delta.stats {
            self.record(
                &mut first,
                s.source,
                s.component,
                kind_name(s.kind),
                s.kind.unit(),
            );
            self.line.extend_from_slice(b"stat\",\"count\":");
            push_u64(&mut self.line, s.count);
            self.line.extend_from_slice(b",\"mean\":");
            self.number(Some(s.mean));
            self.line.extend_from_slice(b",\"min\":");
            self.number(s.min);
            self.line.extend_from_slice(b",\"max\":");
            self.number(s.max);
            self.line.push(b'}');
        }
        for w in &delta.windows {
            self.record(
                &mut first,
                w.source,
                w.component,
                kind_name(w.kind),
                w.kind.unit(),
            );
            self.line.extend_from_slice(b"window\",\"dropped\":");
            push_u64(&mut self.line, w.dropped);
            self.line.extend_from_slice(b",\"values\":[");
            for (i, &v) in w.values.iter().enumerate() {
                if i > 0 {
                    self.line.push(b',');
                }
                self.number(Some(v));
            }
            self.line.extend_from_slice(b"]}");
        }
        for s in &delta.slo {
            let tenant = ComponentId::Client(s.tenant);
            self.record(&mut first, "slo", tenant, s.metric, "ratio");
            self.line.extend_from_slice(b"instant\",\"value\":");
            self.number(Some(s.value));
            self.line.push(b'}');
        }
        self.line.extend_from_slice(b"]}\n");
        &self.line
    }

    /// Opens a record: the separator, then every field up to the open
    /// quote of the `sem` value.
    fn record(
        &mut self,
        first: &mut bool,
        source: &str,
        component: ComponentId,
        metric: &str,
        unit: &str,
    ) {
        let out = &mut self.line;
        if !std::mem::take(first) {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"src\":\"");
        out.extend_from_slice(source.as_bytes());
        out.extend_from_slice(b"\",\"comp\":\"");
        push_component(out, component);
        out.extend_from_slice(b"\",\"metric\":\"");
        out.extend_from_slice(metric.as_bytes());
        out.extend_from_slice(b"\",\"unit\":\"");
        out.extend_from_slice(unit.as_bytes());
        out.extend_from_slice(b"\",\"sem\":\"");
    }

    /// A JSON number: the shortest round-trip rendering of a finite f64,
    /// `null` otherwise.
    fn number(&mut self, value: Option<f64>) {
        let out = &mut self.line;
        let v = match value {
            Some(v) if v.is_finite() => v,
            _ => return out.extend_from_slice(b"null"),
        };
        // `{}` prints an integer-valued float as its integer digits,
        // except -0.0, which prints as "-0".
        if v.trunc() == v && v.abs() < EXACT_INTEGER_LIMIT && (v != 0.0 || v.is_sign_positive()) {
            return push_i64(out, v as i64);
        }
        if let Some(&(start, len)) = self.memo.get(&v.to_bits()) {
            let start = start as usize;
            return out.extend_from_slice(&self.texts[start..start + len as usize]);
        }
        if self.memo.len() == MEMO_CAPACITY {
            self.memo.clear();
            self.texts.clear();
        }
        let start = self.texts.len();
        write!(self.texts, "{v}").expect("writing to a Vec cannot fail");
        out.extend_from_slice(&self.texts[start..]);
        let len = (self.texts.len() - start) as u16;
        self.memo.insert(v.to_bits(), (start as u32, len));
    }
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `component` as its `Display` renders it.
fn push_component(out: &mut Vec<u8>, component: ComponentId) {
    let index = |out: &mut Vec<u8>, prefix: &[u8], i: u64| {
        out.extend_from_slice(prefix);
        push_u64(out, i);
    };
    match component {
        ComponentId::System => out.extend_from_slice(b"system"),
        ComponentId::Client(c) => index(out, b"client.", c.into()),
        ComponentId::Se { depth, order } => {
            index(out, b"se.", depth as u64);
            index(out, b".", order as u64);
        }
        ComponentId::Port { depth, order, port } => {
            index(out, b"se.", depth as u64);
            index(out, b".", order as u64);
            index(out, b".p", port as u64);
        }
        ComponentId::Memory => out.extend_from_slice(b"mem"),
        ComponentId::Bank(b) => index(out, b"bank.", b.into()),
        ComponentId::Series(s) => index(out, b"series.", s.into()),
    }
}

/// `kind` as its `Display` renders it.
fn kind_name(kind: SampleKind) -> &'static str {
    match kind {
        SampleKind::Latency => "latency",
        SampleKind::Blocking => "blocking",
        SampleKind::NormalizedResponse => "normalized_response",
        SampleKind::Queueing => "queueing",
        SampleKind::NocTransit => "noc_transit",
        SampleKind::Service => "service",
        SampleKind::ResponseTransit => "response_transit",
        SampleKind::MissRatio => "miss_ratio",
        SampleKind::Custom(name) => name,
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parsing
// ---------------------------------------------------------------------

/// A parsed JSON value (the subset this crate emits).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an i64 (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to consume the whole input.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected byte at {}", *pos)),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if is_float {
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number '{text}': {e}"))
    } else {
        text.parse::<i64>()
            .map(JsonValue::Int)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

// ---------------------------------------------------------------------
// Folding
// ---------------------------------------------------------------------

/// Identity of one folded series: `(source, component, metric)`.
pub type FoldKey = (String, String, String);

/// Last folded stat summary: `(count, mean, min, max)`.
pub type FoldedStat = (u64, f64, Option<f64>, Option<f64>);

/// End-of-run state reconstructed from a JSONL stream.
#[derive(Debug, Default, PartialEq)]
pub struct FoldedTelemetry {
    /// Epochs folded, in order.
    pub epochs: u64,
    /// Cycle of the last folded epoch.
    pub last_cycle: u64,
    /// Counter totals: [`FoldKey`] `-> Σ deltas`.
    pub counters: BTreeMap<FoldKey, i64>,
    /// Sample sequences: [`FoldKey`] `-> concatenated windows` plus the
    /// summed dropped count.
    pub samples: BTreeMap<FoldKey, (Vec<f64>, u64)>,
    /// Last value of every instant record (gauges and SLO values).
    pub instants: BTreeMap<FoldKey, f64>,
    /// Last stat summary per [`FoldKey`].
    pub stats: BTreeMap<FoldKey, FoldedStat>,
}

/// Folds a JSONL stream (one epoch per line; blank lines skipped) into
/// end-of-run state. Fails on schema-version mismatches, non-monotone
/// epochs or malformed lines.
pub fn fold_jsonl(stream: &str) -> Result<FoldedTelemetry, String> {
    let mut out = FoldedTelemetry::default();
    let mut last_epoch: Option<u64> = None;
    for (lineno, line) in stream.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let version = doc.get("v").and_then(JsonValue::as_i64).unwrap_or(-1);
        if version != SCHEMA_VERSION as i64 {
            return Err(format!("line {}: schema version {version}", lineno + 1));
        }
        let epoch =
            doc.get("epoch")
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| format!("line {}: missing epoch", lineno + 1))? as u64;
        if let Some(prev) = last_epoch {
            if epoch <= prev {
                return Err(format!("line {}: epoch {epoch} after {prev}", lineno + 1));
            }
        }
        last_epoch = Some(epoch);
        out.epochs += 1;
        out.last_cycle = doc.get("cycle").and_then(JsonValue::as_i64).unwrap_or(0) as u64;
        let records = doc
            .get("records")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("line {}: missing records", lineno + 1))?;
        for rec in records {
            let key = (
                rec.get("src")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
                rec.get("comp")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
                rec.get("metric")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
            );
            match rec.get("sem").and_then(JsonValue::as_str) {
                Some("delta") => {
                    let delta = rec.get("delta").and_then(JsonValue::as_i64).unwrap_or(0);
                    *out.counters.entry(key).or_insert(0) += delta;
                }
                Some("window") => {
                    let entry = out.samples.entry(key).or_default();
                    entry.1 += rec.get("dropped").and_then(JsonValue::as_i64).unwrap_or(0) as u64;
                    for v in rec.get("values").and_then(JsonValue::as_arr).unwrap_or(&[]) {
                        entry
                            .0
                            .push(v.as_f64().ok_or_else(|| "non-numeric sample".to_owned())?);
                    }
                }
                Some("instant") => {
                    let value = rec.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
                    out.instants.insert(key, value);
                }
                Some("stat") => {
                    out.stats.insert(
                        key,
                        (
                            rec.get("count").and_then(JsonValue::as_i64).unwrap_or(0) as u64,
                            rec.get("mean").and_then(JsonValue::as_f64).unwrap_or(0.0),
                            rec.get("min").and_then(JsonValue::as_f64),
                            rec.get("max").and_then(JsonValue::as_f64),
                        ),
                    );
                }
                other => {
                    return Err(format!("line {}: bad sem {other:?}", lineno + 1));
                }
            }
        }
    }
    Ok(out)
}

impl FoldedTelemetry {
    /// Checks that the folded stream for `source` reconstructs `registry`
    /// exactly: every counter total matches, every raw-sample sequence
    /// matches bit-for-bit (modulo window eviction, where the retained
    /// suffix must match and the accounting must balance), every gauge
    /// matches its last streamed value, and every accumulator's count,
    /// mean, min and max match its last streamed summary.
    ///
    /// The registry is mutated only through its public sample accessors
    /// (no sorting): call this after the run, on the final snapshot.
    pub fn matches_registry(&self, source: &str, registry: &MetricsRegistry) -> Result<(), String> {
        for ((component, counter), total) in registry.counters_iter() {
            let key = (
                source.to_owned(),
                component.to_string(),
                counter.name().to_owned(),
            );
            let folded = self.counters.get(&key).copied().unwrap_or(0);
            if folded != total as i64 {
                return Err(format!(
                    "{source}/{component}/{}: folded {folded} != registry {total}",
                    counter.name()
                ));
            }
        }
        for (key, &folded) in &self.counters {
            if key.0 == source && folded != 0 {
                let found = registry
                    .counters_iter()
                    .any(|((c, k), _)| c.to_string() == key.1 && k.name() == key.2);
                if !found {
                    return Err(format!("folded counter {key:?} missing from registry"));
                }
            }
        }
        for ((component, kind), samples) in registry.samples_iter() {
            let key = (source.to_owned(), component.to_string(), kind.to_string());
            let (folded, folded_dropped) = self
                .samples
                .get(&key)
                .ok_or_else(|| format!("no folded samples for {key:?}"))?;
            if samples.evicted() == 0 && *folded_dropped == 0 {
                if folded.as_slice() != samples.as_slice() {
                    return Err(format!(
                        "{source}/{component}/{kind}: folded sequence ({} values) != registry ({})",
                        folded.len(),
                        samples.len()
                    ));
                }
            } else {
                // Windowed collector: the stream saw everything except
                // what was evicted between flushes; totals must balance
                // and the retained suffix must agree.
                if folded.len() as u64 + folded_dropped != samples.total_pushed() {
                    return Err(format!(
                        "{source}/{component}/{kind}: folded {} + dropped {} != pushed {}",
                        folded.len(),
                        folded_dropped,
                        samples.total_pushed()
                    ));
                }
                let retained = samples.as_slice();
                let suffix = &folded[folded.len() - retained.len().min(folded.len())..];
                if &retained[retained.len() - suffix.len()..] != suffix {
                    return Err(format!("{source}/{component}/{kind}: suffix mismatch"));
                }
            }
        }
        for ((component, name), value) in registry.gauges_iter() {
            let key = (source.to_owned(), component.to_string(), name.to_owned());
            match self.instants.get(&key) {
                Some(v) if v.to_bits() == value.to_bits() => {}
                other => {
                    return Err(format!(
                        "{source}/{component}/{name}: folded gauge {other:?} != {value}"
                    ))
                }
            }
        }
        for ((component, kind), stats) in registry.stats_iter() {
            let key = (source.to_owned(), component.to_string(), kind.to_string());
            let (count, mean, min, max) = self
                .stats
                .get(&key)
                .copied()
                .ok_or_else(|| format!("no folded stat for {key:?}"))?;
            if count != stats.count()
                || (mean - stats.mean()).abs() > 1e-9
                || min != stats.min()
                || max != stats.max()
            {
                return Err(format!(
                    "{source}/{component}/{kind}: stat summary mismatch"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEngine;
    use bluescale_sim::metrics::{ComponentId, Counter, SampleKind};

    /// One epoch exercising every record type, with non-finite values in
    /// a window, a gauge, a stat and an SLO record.
    fn golden_epoch() -> EpochDelta {
        use crate::delta::{CounterDelta, GaugeRecord, SampleRecord, SloRecord, StatRecord};
        let se = ComponentId::Se { depth: 1, order: 3 };
        EpochDelta {
            epoch: 7,
            cycle: 7_168,
            counters: vec![
                CounterDelta {
                    source: "harness",
                    component: ComponentId::Client(2),
                    counter: Counter::Issued,
                    delta: 5,
                    total: 12,
                },
                CounterDelta {
                    source: "fabric",
                    component: se.port(1),
                    counter: Counter::BudgetOverruns,
                    delta: -1,
                    total: 0,
                },
            ],
            gauges: vec![
                GaugeRecord {
                    source: "fabric",
                    component: ComponentId::System,
                    name: "root_bandwidth",
                    value: 0.1 + 0.2,
                },
                GaugeRecord {
                    source: "fabric",
                    component: ComponentId::Memory,
                    name: "util",
                    value: f64::NAN,
                },
            ],
            stats: vec![
                StatRecord {
                    source: "harness",
                    component: se,
                    kind: SampleKind::Queueing,
                    count: 3,
                    mean: 2.5,
                    min: Some(-0.0),
                    max: Some(1e21),
                },
                StatRecord {
                    source: "harness",
                    component: ComponentId::Series(4),
                    kind: SampleKind::Custom("hops"),
                    count: 0,
                    mean: f64::INFINITY,
                    min: None,
                    max: None,
                },
            ],
            windows: vec![
                SampleRecord {
                    source: "harness",
                    component: ComponentId::Client(2),
                    kind: SampleKind::NormalizedResponse,
                    values: vec![
                        0.5,
                        1.0 / 3.0,
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        12.0,
                        1e-7,
                        -3.25,
                    ],
                    dropped: 9,
                },
                SampleRecord {
                    source: "harness",
                    component: ComponentId::System,
                    kind: SampleKind::Latency,
                    values: Vec::new(),
                    dropped: 0,
                },
            ],
            slo: vec![
                SloRecord {
                    tenant: 2,
                    metric: "slo_miss_rate",
                    value: 0.25,
                },
                SloRecord {
                    tenant: 2,
                    metric: "slo_p99_normalized",
                    value: f64::INFINITY,
                },
            ],
        }
    }

    #[test]
    fn jsonl_line_is_byte_stable() {
        let expected = concat!(
            "{\"v\":1,\"epoch\":7,\"cycle\":7168,\"records\":[",
            "{\"src\":\"harness\",\"comp\":\"client.2\",\"metric\":\"issued\",\"unit\":\"requests\",\"sem\":\"delta\",\"delta\":5,\"total\":12}",
            ",{\"src\":\"fabric\",\"comp\":\"se.1.3.p1\",\"metric\":\"budget_overruns\",\"unit\":\"events\",\"sem\":\"delta\",\"delta\":-1,\"total\":0}",
            ",{\"src\":\"fabric\",\"comp\":\"system\",\"metric\":\"root_bandwidth\",\"unit\":\"value\",\"sem\":\"instant\",\"value\":0.30000000000000004}",
            ",{\"src\":\"fabric\",\"comp\":\"mem\",\"metric\":\"util\",\"unit\":\"value\",\"sem\":\"instant\",\"value\":null}",
            ",{\"src\":\"harness\",\"comp\":\"se.1.3\",\"metric\":\"queueing\",\"unit\":\"cycles\",\"sem\":\"stat\",\"count\":3,\"mean\":2.5,\"min\":-0,\"max\":1000000000000000000000}",
            ",{\"src\":\"harness\",\"comp\":\"series.4\",\"metric\":\"hops\",\"unit\":\"value\",\"sem\":\"stat\",\"count\":0,\"mean\":null,\"min\":null,\"max\":null}",
            ",{\"src\":\"harness\",\"comp\":\"client.2\",\"metric\":\"normalized_response\",\"unit\":\"ratio\",\"sem\":\"window\",\"dropped\":9,\"values\":[0.5,0.3333333333333333,null,null,null,12,0.0000001,-3.25]}",
            ",{\"src\":\"harness\",\"comp\":\"system\",\"metric\":\"latency\",\"unit\":\"cycles\",\"sem\":\"window\",\"dropped\":0,\"values\":[]}",
            ",{\"src\":\"slo\",\"comp\":\"client.2\",\"metric\":\"slo_miss_rate\",\"unit\":\"ratio\",\"sem\":\"instant\",\"value\":0.25}",
            ",{\"src\":\"slo\",\"comp\":\"client.2\",\"metric\":\"slo_p99_normalized\",\"unit\":\"ratio\",\"sem\":\"instant\",\"value\":null}]}",
            "\n",
        );
        assert_eq!(to_jsonl(&golden_epoch()), expected);
    }

    /// `v` as the encoder renders it, fresh from `encoder`'s memo.
    fn rendered(encoder: &mut JsonlEncoder, v: f64) -> String {
        encoder.line.clear();
        encoder.number(Some(v));
        String::from_utf8(encoder.line.clone()).unwrap()
    }

    /// `v` as the line format defines it: `{}` when finite, else `null`.
    fn reference(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_owned()
        }
    }

    #[test]
    fn numbers_render_as_display_does() {
        let limit = EXACT_INTEGER_LIMIT;
        let mut edges = vec![
            0.0,
            limit - 1.0,
            limit,
            limit + 2.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1 + 0.2,
            1.0 / 3.0,
            1e-7,
            123.456,
        ];
        edges.extend((15..=22).map(|e| 10f64.powi(e)));
        edges.extend(edges.clone().into_iter().map(|v| -v));
        edges.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut encoder = JsonlEncoder::default();
        for v in edges {
            // Twice: the second rendering of a fraction comes from the memo.
            assert_eq!(rendered(&mut encoder, v), reference(v), "{v:e}");
            assert_eq!(rendered(&mut encoder, v), reference(v), "{v:e} again");
        }
        // Latencies over deadline windows, as the harness samples them,
        // and the integer-valued latency and blocking samples themselves.
        for window in 1..=300u32 {
            for latency in (0..=900u32).step_by(7) {
                let ratio = f64::from(latency) / f64::from(window);
                assert_eq!(rendered(&mut encoder, ratio), reference(ratio));
                let cycles = f64::from(latency * window);
                assert_eq!(rendered(&mut encoder, cycles), reference(cycles));
            }
        }
        assert_eq!(rendered(&mut encoder, -0.0), "-0");
        encoder.line.clear();
        encoder.number(None);
        assert_eq!(encoder.line, b"null");
    }

    #[test]
    fn the_memo_is_bounded_and_renders_the_same_after_clearing() {
        let mut encoder = JsonlEncoder::default();
        let mut cleared = false;
        for i in 1..=(MEMO_CAPACITY as u32 + 1_000) {
            let v = f64::from(i) + 0.5;
            let before = encoder.memo.len();
            assert_eq!(rendered(&mut encoder, v), reference(v));
            assert!(encoder.memo.len() <= MEMO_CAPACITY);
            cleared |= encoder.memo.len() < before;
            // Values seen before the clear render again the same way.
            let early = f64::from(i % 64) + 0.25;
            assert_eq!(rendered(&mut encoder, early), reference(early));
        }
        assert!(cleared, "the memo must have been cleared mid-stream");
    }

    #[test]
    fn component_and_kind_names_match_display() {
        let components = [
            ComponentId::System,
            ComponentId::Client(0),
            ComponentId::Client(u32::MAX),
            ComponentId::Se {
                depth: 3,
                order: usize::MAX,
            },
            ComponentId::Port {
                depth: 0,
                order: 10,
                port: 7,
            },
            ComponentId::Memory,
            ComponentId::Bank(12),
            ComponentId::Series(u16::MAX),
        ];
        for component in components {
            let mut out = Vec::new();
            push_component(&mut out, component);
            assert_eq!(String::from_utf8(out).unwrap(), component.to_string());
        }
        let kinds = [
            SampleKind::Latency,
            SampleKind::Blocking,
            SampleKind::NormalizedResponse,
            SampleKind::Queueing,
            SampleKind::NocTransit,
            SampleKind::Service,
            SampleKind::ResponseTransit,
            SampleKind::MissRatio,
            SampleKind::Custom("hops"),
        ];
        for kind in kinds {
            assert_eq!(kind_name(kind), kind.to_string());
        }
        let mut out = Vec::new();
        for v in [0, 9, 10, i64::MAX, i64::MIN, -1] {
            out.clear();
            push_i64(&mut out, v);
            assert_eq!(String::from_utf8(out.clone()).unwrap(), v.to_string());
        }
        out.clear();
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, u64::MAX.to_string().as_bytes());
    }

    #[test]
    fn parser_roundtrips_basics() {
        let v = parse_json(r#"{"a":1,"b":-2.5,"c":[true,null,"x\" y"],"d":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        let arr = v.get("c").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x\" y"));
        assert_eq!(v.get("d").unwrap(), &JsonValue::Obj(vec![]));
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} extra").is_err());
    }

    #[test]
    fn fold_reconstructs_engine_output() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        let mut stream = String::new();
        let client = ComponentId::Client(2);
        for round in 0u64..5 {
            reg.add(client, Counter::Issued, round + 1);
            reg.sample(client, SampleKind::Latency, round as f64 * 1.5);
            reg.observe(client, SampleKind::Queueing, round as f64);
            reg.set_gauge(ComponentId::System, "util", round as f64 / 10.0);
            let delta = engine.extract(round * 100, &[("harness", &reg)]);
            stream.push_str(&to_jsonl(&delta));
        }
        let folded = fold_jsonl(&stream).unwrap();
        assert_eq!(folded.epochs, 5);
        assert_eq!(folded.last_cycle, 400);
        folded.matches_registry("harness", &reg).unwrap();
    }

    #[test]
    fn fold_detects_divergence() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.add(ComponentId::System, Counter::Grants, 3);
        let stream = to_jsonl(&engine.extract(0, &[("harness", &reg)]));
        let folded = fold_jsonl(&stream).unwrap();
        folded.matches_registry("harness", &reg).unwrap();
        // A counter bumped after the last flush must be caught.
        reg.inc(ComponentId::System, Counter::Grants);
        assert!(folded.matches_registry("harness", &reg).is_err());
    }

    #[test]
    fn fold_rejects_non_monotone_epochs() {
        let mut reg = MetricsRegistry::new();
        let mut engine = DeltaEngine::new();
        reg.inc(ComponentId::System, Counter::Grants);
        let line = to_jsonl(&engine.extract(0, &[("harness", &reg)]));
        let doubled = format!("{line}{line}");
        assert!(fold_jsonl(&doubled).is_err());
    }

    #[test]
    fn windowed_fold_balances_accounting() {
        let mut reg = MetricsRegistry::new();
        reg.set_sample_window(Some(4));
        let mut engine = DeltaEngine::new();
        let mut stream = String::new();
        let client = ComponentId::Client(0);
        for round in 0..10 {
            for i in 0..7 {
                reg.sample(client, SampleKind::Latency, (round * 7 + i) as f64);
            }
            stream.push_str(&to_jsonl(
                &engine.extract(round as u64, &[("harness", &reg)]),
            ));
        }
        let folded = fold_jsonl(&stream).unwrap();
        folded.matches_registry("harness", &reg).unwrap();
    }
}
