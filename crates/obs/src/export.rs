//! Telemetry export: JSON snapshots, JSONL event traces, a sim-time-cadence
//! time-series [`Sampler`], and a dependency-free JSON validator for CI.
//!
//! All serialisation is hand-written (the workspace has no `serde`), so
//! the formats are deliberately simple:
//!
//! * **Metrics snapshot** ([`metrics_json`]) — one JSON object with a
//!   `metrics` array of `{component, name, labels, kind, ...}` objects.
//! * **Event trace** ([`events_jsonl`]) — one JSON object per line:
//!   `{"t": <nanos>, "component": "...", "kind": "...", "fields": {...}}`,
//!   lines ordered oldest-first (sim-time order for simulator runs).
//! * **Time series** ([`Sampler::series_json`]) — per flat metric key, the
//!   `[t_nanos, value]` pairs collected at each [`Sampler::sample`] call.
//!
//! The first two are also read back here ([`parse_metrics`],
//! [`parse_event`]): the fleet collector rebuilds a node's samples and
//! events from them, and the experiment runner holds every exported trace
//! line to `event_json(parse_event(line)) == line`.

use crate::fleet::FleetSample;
use crate::metrics::{quantile_from_buckets, Cell, MetricSample, Registry, SampleValue};
use crate::trace::{Event, Value};
use crate::vocab;
use std::net::Ipv4Addr;

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn escape_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(v: f64, out: &mut String) {
    // JSON has no Infinity/NaN literals; encode them as strings.
    if v.is_finite() {
        out.push_str(&format!("{v}"));
        // `{}` on a whole f64 prints no decimal point; keep it a JSON
        // number either way (integers are valid JSON numbers).
    } else {
        escape_json_str(&format!("{v}"), out);
    }
}

fn push_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => push_f64(*f, out),
        Value::Str(s) => escape_json_str(s, out),
        Value::Ip(ip) => escape_json_str(&ip.to_string(), out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends one metric as an object of the `metrics` array — the one
/// writer under [`metrics_json`] and the fleet's merged snapshot.
pub(crate) fn push_sample<K: AsRef<str>>(
    component: &str,
    name: &str,
    labels: &[(K, String)],
    value: &SampleValue,
    out: &mut String,
) {
    out.push_str("{\"component\":");
    escape_json_str(component, out);
    out.push_str(",\"name\":");
    escape_json_str(name, out);
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json_str(k.as_ref(), out);
        out.push(':');
        escape_json_str(v, out);
    }
    out.push('}');
    match value {
        SampleValue::Counter(v) => {
            out.push_str(&format!(",\"kind\":\"counter\",\"value\":{v}"));
        }
        SampleValue::Gauge(v) => {
            out.push_str(&format!(",\"kind\":\"gauge\",\"value\":{v}"));
        }
        SampleValue::Histogram { count, sum, buckets } => {
            let p50 = quantile_from_buckets(buckets, *count, 0.50);
            let p95 = quantile_from_buckets(buckets, *count, 0.95);
            let p99 = quantile_from_buckets(buckets, *count, 0.99);
            out.push_str(&format!(
                ",\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                 \"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"buckets\":["
            ));
            for (i, (bound, n)) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{n}]"));
            }
            out.push(']');
        }
    }
    out.push('}');
}

/// Serialises a metrics snapshot as one JSON object:
/// `{"metrics": [ ... ]}`.
pub fn metrics_json(samples: &[MetricSample]) -> String {
    let mut out = String::with_capacity(64 + samples.len() * 96);
    out.push_str("{\"metrics\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_sample(s.component, s.name, &s.labels, &s.value, &mut out);
    }
    out.push_str("]}");
    out
}

/// Serialises one event as a single-line JSON object (no trailing newline).
pub fn event_json(e: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"t\":");
    out.push_str(&e.t_nanos.to_string());
    out.push_str(",\"component\":");
    escape_json_str(e.component, &mut out);
    out.push_str(",\"kind\":");
    escape_json_str(e.kind, &mut out);
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in e.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json_str(k, &mut out);
        out.push(':');
        push_value(v, &mut out);
    }
    out.push_str("}}");
    out
}

/// Serialises events as JSONL: one object per line, oldest first, trailing
/// newline after the last line (empty string for no events).
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// Collects a scalar time series for every metric registered at
/// construction time, on whatever cadence the caller drives
/// [`Sampler::sample`] (sim-time ticks in the simulator).
///
/// Counters and gauges sample their value; histograms sample their count.
#[derive(Debug)]
pub struct Sampler {
    cells: Vec<(String, Cell)>,
    /// `points[i]` parallels `cells[i]`.
    points: Vec<Vec<(u64, u64)>>,
}

impl Sampler {
    /// Snapshots the registry's current metric set. Metrics registered
    /// after construction are not sampled — build the sampler after the
    /// world is wired up.
    pub fn new(registry: &Registry) -> Sampler {
        let cells = registry.cells();
        let points = cells.iter().map(|_| Vec::new()).collect();
        Sampler { cells, points }
    }

    /// Records one `[t_nanos, value]` point per tracked metric.
    pub fn sample(&mut self, t_nanos: u64) {
        for (i, (_, cell)) in self.cells.iter().enumerate() {
            self.points[i].push((t_nanos, cell.scalar()));
        }
    }

    /// Number of tracked metrics.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no metrics are tracked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Serialises the collected series as one JSON object:
    /// `{"series": {"<flat key>": [[t, v], ...], ...}}`.
    pub fn series_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.cells.len() * 128);
        out.push_str("{\"series\":{");
        for (i, (key, _)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_str(key, &mut out);
            out.push_str(":[");
            for (j, (t, v)) in self.points[i].iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{t},{v}]"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

/// A parsed JSON value. Numbers keep their raw text, so a `u64` counter
/// survives without a round-trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object's members, in document order (duplicate keys are kept).
    Obj(Vec<(String, Json)>),
    /// An array's items.
    Arr(Vec<Json>),
    /// A string, escapes decoded.
    Str(String),
    /// A number, as written.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The first member of an object under `key`.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number that is written as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Arrays and objects nested deeper than this are refused (the parser
/// recurses, and it reads replies off the network).
const MAX_DEPTH: usize = 128;

/// Parses `s` as exactly one JSON value (surrounded by optional whitespace)
/// — the workspace's one JSON grammar: what the export smoke tests validate
/// with and what the fleet collector reads telemetry replies with. Returns
/// the byte offset of the first error.
///
/// It accepts everything [RFC 8259](https://www.rfc-editor.org/rfc/rfc8259)
/// accepts down to 128 levels of nesting, and does not enforce unique object
/// keys. A `\u` escape naming a surrogate half decodes to U+FFFD (the
/// workspace's writers escape control characters only).
pub fn parse_json(s: &str) -> Result<Json, usize> {
    let mut i = 0;
    skip_ws(s.as_bytes(), &mut i);
    let value = parse_value(s, &mut i, 0)?;
    skip_ws(s.as_bytes(), &mut i);
    if i == s.len() {
        Ok(value)
    } else {
        Err(i)
    }
}

/// Validates that `s` is exactly one well-formed JSON value: whether
/// [`parse_json`] takes it.
pub fn validate_json(s: &str) -> Result<(), usize> {
    parse_json(s).map(drop)
}

/// Validates JSONL: every non-empty line must be one well-formed JSON
/// value. Returns `(line_index, byte_offset_in_line)` of the first error.
pub fn validate_jsonl(s: &str) -> Result<(), (usize, usize)> {
    for (ln, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|off| (ln, off))?;
    }
    Ok(())
}

/// Reads a [`metrics_json`] document back into samples with owned
/// addressing. `None` if the document is not of that shape; a sample of an
/// unknown kind is skipped.
pub fn parse_metrics(doc: &str) -> Option<Vec<FleetSample>> {
    let doc = parse_json(doc).ok()?;
    let Json::Arr(metrics) = doc.get("metrics")? else {
        return None;
    };
    let mut out = Vec::with_capacity(metrics.len());
    for m in metrics {
        let component = m.get("component")?.as_str()?.to_string();
        let name = m.get("name")?.as_str()?.to_string();
        let mut labels = Vec::new();
        if let Some(Json::Obj(pairs)) = m.get("labels") {
            for (k, v) in pairs {
                labels.push((k.clone(), v.as_str()?.to_string()));
            }
        }
        let value = match m.get("kind")?.as_str()? {
            "counter" => SampleValue::Counter(m.get("value")?.as_u64()?),
            "gauge" => SampleValue::Gauge(m.get("value")?.as_u64()?),
            "histogram" => {
                let Json::Arr(raw) = m.get("buckets")? else {
                    return None;
                };
                let mut buckets = Vec::with_capacity(raw.len());
                for b in raw {
                    let Json::Arr(pair) = b else { return None };
                    let [bound, n] = pair.as_slice() else { return None };
                    buckets.push((bound.as_u64()?, n.as_u64()?));
                }
                SampleValue::Histogram {
                    count: m.get("count")?.as_u64()?,
                    sum: m.get("sum")?.as_u64()?,
                    buckets,
                }
            }
            _ => continue,
        };
        out.push(FleetSample { component, name, labels, value });
    }
    Some(out)
}

/// Reads one [`event_json`] object back into an [`Event`] carrying the
/// vocabulary's own `'static` strings, which is what lets the journey
/// assembler and the alert rules match on a relayed event. `None` when the
/// component or the kind is not in [`vocab`]; a field whose name or string
/// value is not is dropped alone.
///
/// The format is not self-describing, so this inverts the writer's
/// conventions: a quoted dotted quad was an address, any other string a
/// word, a number the narrowest of `U64` / `I64` / `F64` that holds it. A
/// finite number therefore comes back as the text it was written as, and
/// `event_json` of the result is the input again. A non-finite float was
/// written as the string `"inf"` or `"NaN"`, which is no word: it is dropped.
pub fn parse_event(e: &Json) -> Option<Event> {
    let t_nanos = e.get("t")?.as_u64()?;
    let component = vocab::intern(e.get("component")?.as_str()?)?;
    let kind = vocab::kind(e.get("kind")?.as_str()?)?.name;
    let mut fields = Vec::new();
    if let Some(Json::Obj(pairs)) = e.get("fields") {
        for (k, v) in pairs {
            let value = match v {
                Json::Bool(b) => Some(Value::Bool(*b)),
                Json::Str(s) => match s.parse::<Ipv4Addr>() {
                    Ok(ip) => Some(Value::Ip(ip)),
                    Err(_) => vocab::intern(s).map(Value::Str),
                },
                Json::Num(raw) => raw
                    .parse()
                    .map(Value::U64)
                    .or_else(|_| raw.parse().map(Value::I64))
                    .or_else(|_| raw.parse().map(Value::F64))
                    .ok(),
                _ => None,
            };
            if let (Some(key), Some(value)) = (vocab::intern(k), value) {
                fields.push((key, value));
            }
        }
    }
    Some(Event::new(t_nanos, component, kind, &fields))
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(b.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *i += 1;
    }
}

fn parse_value(s: &str, i: &mut usize, depth: usize) -> Result<Json, usize> {
    let b = s.as_bytes();
    match b.get(*i) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(*i),
        Some(b'{') => parse_object(s, i, depth + 1).map(Json::Obj),
        Some(b'[') => parse_array(s, i, depth + 1).map(Json::Arr),
        Some(b'"') => parse_string(s, i).map(Json::Str),
        Some(b't') => parse_lit(b, i, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_lit(b, i, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_lit(b, i, b"null").map(|()| Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(s, i).map(Json::Num),
        _ => Err(*i),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}

fn parse_object(s: &str, i: &mut usize, depth: usize) -> Result<Vec<(String, Json)>, usize> {
    let b = s.as_bytes();
    let mut pairs = Vec::new();
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(pairs);
    }
    loop {
        skip_ws(b, i);
        let key = parse_string(s, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(*i);
        }
        *i += 1;
        skip_ws(b, i);
        pairs.push((key, parse_value(s, i, depth)?));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(pairs);
            }
            _ => return Err(*i),
        }
    }
}

fn parse_array(s: &str, i: &mut usize, depth: usize) -> Result<Vec<Json>, usize> {
    let b = s.as_bytes();
    let mut items = Vec::new();
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(items);
    }
    loop {
        skip_ws(b, i);
        items.push(parse_value(s, i, depth)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(items);
            }
            _ => return Err(*i),
        }
    }
}

fn parse_string(s: &str, i: &mut usize) -> Result<String, usize> {
    let b = s.as_bytes();
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    let mut out = String::new();
    // Text runs are copied whole: `s` is UTF-8 and a run ends at an ASCII
    // byte, so each is a `str` of its own.
    let mut run = *i;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                out.push_str(&s[run..*i]);
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(&s[run..*i]);
                *i += 1;
                out.push(match b.get(*i) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let mut code = 0;
                        for _ in 0..4 {
                            *i += 1;
                            let digit = b.get(*i).and_then(|&c| (c as char).to_digit(16));
                            code = code * 16 + digit.ok_or(*i)?;
                        }
                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                    }
                    _ => return Err(*i),
                });
                *i += 1;
                run = *i;
            }
            0x00..=0x1f => return Err(*i),
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn parse_number(s: &str, i: &mut usize) -> Result<String, usize> {
    let b = s.as_bytes();
    let start = *i;
    let digits = |i: &mut usize| {
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(*i);
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        Ok(())
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    match b.get(*i) {
        Some(b'0') => *i += 1,
        _ => digits(i)?,
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        digits(i)?;
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        digits(i)?;
    }
    Ok(s[start..*i].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Level, Tracer};
    use std::net::Ipv4Addr;

    #[test]
    fn metrics_snapshot_is_valid_json() {
        let reg = Registry::new();
        reg.counter("guard", "forwarded", &[("scheme", "dns_based")]).add(3);
        reg.gauge("guard", "fwd_bytes", &[]).set(512);
        let h = reg.histogram("guard", "latency_ns", &[]);
        h.record(100);
        h.record(100_000);
        let json = metrics_json(&reg.snapshot());
        validate_json(&json).unwrap_or_else(|off| panic!("invalid at {off}: {json}"));
        assert!(json.contains("\"guard\""));
        assert!(json.contains("\"kind\":\"histogram\""));
        assert!(json.contains("\"scheme\":\"dns_based\""));
        assert!(json.contains("\"p50\":"), "histogram exports estimated quantiles");
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn events_jsonl_is_valid_and_ordered() {
        let tracer = Tracer::new(16);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("guard");
        t.event(5, "grant", &[("src", Value::Ip(Ipv4Addr::new(10, 0, 0, 2)))]);
        t.event(9, "rl_drop", &[("limiter", Value::Str("rl1")), ("qid", Value::Bool(false))]);
        let (events, _) = tracer.drain();
        let jsonl = events_jsonl(&events);
        validate_jsonl(&jsonl).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":5,"));
        assert!(lines[1].contains("\"kind\":\"rl_drop\""));
        assert!(lines[1].contains("\"qid\":false"));
        assert!(lines[0].contains("\"src\":\"10.0.0.2\""));
    }

    #[test]
    fn sampler_collects_series() {
        let reg = Registry::new();
        let c = reg.counter("guard", "forwarded", &[]);
        let mut sampler = Sampler::new(&reg);
        sampler.sample(0);
        c.add(10);
        sampler.sample(1_000_000);
        c.add(5);
        sampler.sample(2_000_000);
        let json = sampler.series_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"guard.forwarded\":[[0,0],[1000000,10],[2000000,15]]"));
    }

    #[test]
    fn sampler_ignores_late_registrations() {
        let reg = Registry::new();
        reg.counter("a", "x", &[]);
        let mut sampler = Sampler::new(&reg);
        reg.counter("b", "y", &[]);
        sampler.sample(0);
        assert_eq!(sampler.len(), 1);
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        let tracer = Tracer::new(4);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("alert");
        t.event(0, "alert", &[("value", Value::F64(f64::INFINITY))]);
        let (events, _) = tracer.drain();
        let line = event_json(&events[0]);
        validate_json(&line).unwrap();
        assert!(line.contains("\"value\":\"inf\""));
        // ... and `"inf"` is no word of the vocabulary: read back, the field is gone.
        let back = parse_event(&parse_json(&line).unwrap()).unwrap();
        assert_eq!((back.kind, back.fields().len()), ("alert", 0));
    }

    #[test]
    fn parser_keeps_the_validators_error_offsets() {
        // What the validator this parser replaced answered, document by document.
        let rejected = [
            ("{\"a\":}", 5), ("[1,]", 3), ("01", 1), ("{} {}", 3), ("\"unterminated", 13),
            ("{\"a\" 1}", 5), ("[1 2]", 3), ("\"\\u12G4\"", 5), ("\"\\x\"", 2), ("-", 1), ("1.", 2),
            ("1e", 2), ("tru", 0), ("", 0), ("  ", 2), ("{\"a\":1,}", 7), ("[\"\t\"]", 2), ("nul", 0),
            ("{1:2}", 1), ("[[1]", 4), ("1e+", 3), ("-x", 1),
        ];
        for (doc, offset) in rejected {
            assert_eq!(parse_json(doc), Err(offset), "{doc:?}");
            assert_eq!(validate_json(doc), Err(offset), "{doc:?}");
        }
    }

    #[test]
    fn parser_builds_values_with_raw_numbers_and_decoded_strings() {
        let doc = parse_json(" {\"n\": 18446744073709551615, \"f\": -2.5e3, \"s\": \"a\\n\\u00e9\\\"é/\\/\", \"l\": [true, null, {}], \"n\": 2} ").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(u64::MAX), "the first of two equal keys, exactly");
        assert_eq!(doc.get("f"), Some(&Json::Num("-2.5e3".into())));
        assert_eq!(doc.get("f").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\né\"é//"));
        assert_eq!(doc.get("l"), Some(&Json::Arr(vec![Json::Bool(true), Json::Null, Json::Obj(vec![])])));
        assert_eq!((doc.get("x"), Json::Null.get("n"), Json::Null.as_str()), (None, None, None));
        // A surrogate half has no `char`: it is replaced, the document stands.
        assert_eq!(parse_json("\"\\ud83d!\""), Ok(Json::Str("\u{fffd}!".into())));
    }

    #[test]
    fn parser_refuses_nesting_past_its_depth_bound() {
        let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse_json(&nested(MAX_DEPTH + 1)), Err(MAX_DEPTH));
        // Far past it, the answer is still an error and not a stack overflow.
        assert_eq!(validate_json(&"[{\"k\":".repeat(200_000)), Err(6 * (MAX_DEPTH / 2)));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, -2.5e3, null, true, \"x\\n\"]}").unwrap();
        validate_json("  42 ").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("01").is_err());
        assert!(validate_json("{} {}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n").is_ok());
        assert_eq!(validate_jsonl("{}\nnope\n"), Err((1, 0)));
    }
}
