//! Telemetry export: JSON snapshots, JSONL event traces, a sim-time-cadence
//! time-series [`Sampler`], and the workspace's one JSON value, [`Json`],
//! which both writes and parses every document.
//!
//! The workspace has no `serde`: every writer builds a [`Json`] and renders
//! it once with its compact `Display` (no whitespace outside strings,
//! members in the order built, a number as the text it was made from), and
//! [`parse_json`] reads the same grammar back. The formats are simple:
//!
//! * **Metrics snapshot** ([`metrics_json`]) — one JSON object with a
//!   `metrics` array of `{component, name, labels, kind, ...}` objects.
//! * **Event trace** ([`events_jsonl`]) — one JSON object per line:
//!   `{"t": <nanos>, "component": "...", "kind": "...", "fields": {...}}`,
//!   lines ordered oldest-first (sim-time order for simulator runs).
//! * **Time series** ([`Sampler::series_json`]) — per flat metric key, the
//!   `[t_nanos, value]` pairs collected at each [`Sampler::sample`] call.
//!
//! An event trace is also read back here ([`parse_event`]): the experiment
//! runner holds every exported trace line to
//! `event_json(parse_event(line)) == line`.

use crate::metrics::{quantile_from_buckets, Cell, MetricSample, Registry, SampleValue};
use crate::trace::{Event, Value};
use crate::vocab;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;

/// Writes `s` as a JSON string literal (quoted, escaped): `"`, `\`, `\n`,
/// `\r` and `\t` by their short escapes, every other character below 0x20
/// as `\u00XX`, everything else as itself.
fn escape_json_str(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if c >= ' ' && c != '"' && c != '\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            c => write!(out, "\\u{:04x}", c as u32),
        }?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A number from a float's `text`, or — JSON has no Infinity/NaN
/// literals — the string `{v}` writes (`"inf"`, `"-inf"`, `"NaN"`).
fn float_or_str(v: f64, text: String) -> Json {
    if v.is_finite() {
        Json::Num(text)
    } else {
        Json::Str(format!("{v}"))
    }
}

/// One metric as an object of the `metrics` array — the one shape under
/// [`metrics_json`] and the fleet's merged snapshot.
pub(crate) fn sample_json(s: &MetricSample) -> Json {
    let labels = Json::obj(s.labels.iter().map(|(k, v)| (*k, v.as_str().into())));
    let mut members = vec![("component", s.component.into()), ("name", s.name.into()), ("labels", labels)];
    match &s.value {
        SampleValue::Counter(v) => members.extend([("kind", "counter".into()), ("value", (*v).into())]),
        SampleValue::Gauge(v) => members.extend([("kind", "gauge".into()), ("value", (*v).into())]),
        SampleValue::Histogram { count, sum, buckets } => {
            let quantile = |q| quantile_from_buckets(buckets, *count, q).into();
            let pairs = buckets.iter().map(|&(bound, n)| Json::Arr(vec![bound.into(), n.into()]));
            members.extend([
                ("kind", "histogram".into()),
                ("count", (*count).into()),
                ("sum", (*sum).into()),
                ("p50", quantile(0.50)),
                ("p95", quantile(0.95)),
                ("p99", quantile(0.99)),
                ("buckets", Json::Arr(pairs.collect())),
            ]);
        }
    }
    Json::obj(members)
}

/// A metrics snapshot as one JSON object: `{"metrics": [ ... ]}`.
pub fn metrics_json(samples: &[MetricSample]) -> Json {
    Json::obj([("metrics", Json::Arr(samples.iter().map(sample_json).collect()))])
}

/// One event as a JSON object, written on a single line.
pub fn event_json(e: &Event) -> Json {
    Json::obj([
        ("t", e.t_nanos.into()),
        ("component", e.component.into()),
        ("kind", e.kind.into()),
        ("fields", Json::obj(e.fields().iter().map(|(k, v)| (*k, v.into())))),
    ])
}

/// Events as JSONL: one object per line, oldest first, trailing newline
/// after the last line (empty string for no events).
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "{}", event_json(e));
    }
    out
}

impl From<&Value> for Json {
    fn from(v: &Value) -> Json {
        match *v {
            Value::U64(n) => n.into(),
            Value::I64(n) => n.into(),
            Value::F64(f) => Json::float(f),
            Value::Str(s) => s.into(),
            Value::Ip(ip) => ip.to_string().into(),
            Value::Bool(b) => b.into(),
        }
    }
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

    /// The collected series as one JSON object:
    /// `{"series": {"<flat key>": [[t, v], ...], ...}}`.
    pub fn series_json(&self) -> Json {
        let series = self.cells.iter().zip(&self.points).map(|((key, _), points)| {
            let points = points.iter().map(|&(t, v)| Json::Arr(vec![t.into(), v.into()]));
            (key.as_str(), Json::Arr(points.collect()))
        });
        Json::obj([("series", Json::obj(series))])
    }
}

/// A JSON value: what every writer builds and [`parse_json`] returns.
/// Numbers keep their raw text, so a `u64` counter survives without a
/// round-trip through `f64` and a float keeps the digits it was made with.
///
/// `Display` is the workspace's one JSON writer: compact, members in
/// order, a number as its raw text. Built from the constructors below, a
/// value reads back as itself: `parse_json(&v.to_string()) == Ok(v)`.
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
    /// An object of `members`, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of strings.
    pub fn strs(items: &[&str]) -> Json {
        Json::Arr(items.iter().map(|&s| s.into()).collect())
    }

    /// A float as `{v}` writes it: the shortest text that reads back as
    /// `v`, with no exponent and no decimal point when `v` is whole.
    pub fn float(v: f64) -> Json {
        float_or_str(v, format!("{v}"))
    }

    /// A float with `digits` digits after the point, as `{v:.digits$}`
    /// writes it.
    pub fn fixed(v: f64, digits: usize) -> Json {
        float_or_str(v, format!("{v:.digits$}"))
    }

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

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_from_integer!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    escape_json_str(k, f)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Str(s) => escape_json_str(s, f),
            Json::Num(raw) => f.write_str(raw),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Null => f.write_str("null"),
        }
    }
}

/// Arrays and objects nested deeper than this are refused (the parser
/// recurses, and it reads replies off a socket).
const MAX_DEPTH: usize = 128;

/// Parses `s` as exactly one JSON value (surrounded by optional whitespace)
/// — the workspace's one JSON grammar: what the export smoke tests validate
/// with and what `examples/live_proxy.rs` reads the telemetry endpoint's
/// replies with. Returns the byte offset of the first error.
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

/// Reads one [`event_json`] object back into an [`Event`] carrying the
/// vocabulary's own `'static` strings, which is what lets the journey
/// assembler and the alert rules match on an event read back. `None` when the
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
        let json = metrics_json(&reg.snapshot()).to_string();
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
        t.event(
            5_000,
            "verify",
            &[
                ("src", Value::Ip(Ipv4Addr::new(10, 0, 3, 1))),
                ("qid", Value::U64(77)),
                ("verdict", Value::Str("valid")),
                ("scheme", Value::Bool(true)),
            ],
        );
        let (events, _) = tracer.drain();
        let jsonl = events_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"t\":5,"));
        assert!(lines[1].contains("\"kind\":\"rl_drop\""));
        assert!(lines[1].contains("\"qid\":false"));
        assert!(lines[0].contains("\"src\":\"10.0.0.2\""));
        // Each line reads back into the event it was written from: the
        // vocabulary's addresses, numbers, words and flags alike.
        for (line, e) in lines.iter().zip(&events) {
            let back = parse_event(&parse_json(line).unwrap()).unwrap();
            assert_eq!((back.t_nanos, back.component, back.kind), (e.t_nanos, e.component, e.kind));
            assert_eq!(back.fields(), e.fields(), "{line}");
        }
        // An event from something that is not this guard: an unknown kind is
        // refused, not read back as a lookalike.
        let foreign = parse_json("{\"t\":1,\"component\":\"guard\",\"kind\":\"exfiltrate\",\"fields\":{}}").unwrap();
        assert!(parse_event(&foreign).is_none());
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
        let json = sampler.series_json().to_string();
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

    fn byte(bytes: &mut std::slice::Iter<'_, u8>) -> u8 {
        bytes.next().copied().unwrap_or(0)
    }

    /// Every character below 0x20, the two the writer escapes by hand, a
    /// BMP character, an astral one and plain text.
    fn arb_str(bytes: &mut std::slice::Iter<'_, u8>, max_len: u8) -> String {
        let special = ['"', '\\', '\u{2192}', '\u{1F600}', 'a', '/', ' '];
        let len = byte(bytes) % (max_len + 1);
        (0..len)
            .map(|_| match usize::from(byte(bytes)) % (32 + special.len()) {
                i @ 0..32 => char::from(i as u8),
                i => special[i - 32],
            })
            .collect()
    }

    /// A value drawn from `bytes`, nesting containers at most `depth`
    /// deep. Short keys make duplicate keys common; once the bytes run
    /// out, every draw is an empty array.
    fn arb_json(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> Json {
        let wide = |bytes: &mut std::slice::Iter<'_, u8>| (0..8).fold(0, |n, _| n << 8 | u64::from(byte(bytes)));
        match byte(bytes) % 10 {
            0..=2 if depth > 0 => {
                let items = (0..byte(bytes) % 5).map(|_| arb_json(bytes, depth - 1));
                Json::Arr(items.collect())
            }
            3..=5 if depth > 0 => {
                let members = (0..byte(bytes) % 5).map(|_| (arb_str(bytes, 2), arb_json(bytes, depth - 1)));
                Json::Obj(members.collect())
            }
            0..=5 => Json::Arr(Vec::new()),
            6 => arb_str(bytes, 12).into(),
            7 if byte(bytes) < 128 => wide(bytes).into(),
            7 => (wide(bytes) as i64).into(),
            8 => {
                let v = wide(bytes) as i64 as f64 / f64::from(u32::from(byte(bytes)) + 1);
                match byte(bytes) % 8 {
                    7 => Json::float(v),
                    digits => Json::fixed(v, usize::from(digits)),
                }
            }
            _ => match byte(bytes) % 3 {
                0 => Json::Null,
                1 => (byte(bytes) < 128).into(),
                _ => Json::strs(&["ans_down", "", "\u{1F600}\"\n"]),
            },
        }
    }

    proptest::proptest! {
        /// The writer's output is what the parser reads back as the same
        /// value: escapes, raw numbers, member order and duplicate keys.
        #[test]
        fn written_values_parse_back_to_themselves(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
        ) {
            let value = arb_json(&mut bytes.iter(), 8);
            let text = value.to_string();
            proptest::prop_assert_eq!(parse_json(&text), Ok(value), "{}", text);
        }
    }

    /// The writer's escapes: `\"`, `\\`, `\n`, `\r` and `\t` short, every
    /// other character below 0x20 as a lower-case `\u00xx`, the rest as
    /// itself.
    #[test]
    fn strings_escape_by_the_writers_rules() {
        let special = ['"', '\\', '/', '\u{2192}', '\u{1F600}'];
        let s: String = (0..0x20u8).map(char::from).chain(special).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
            r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
            "\\\"\\\\/\u{2192}\u{1F600}\"",
        );
        assert_eq!(Json::Str(s).to_string(), expected);
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        for (v, text) in [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf"), (f64::NAN, "NaN")] {
            assert_eq!(Json::float(v), Json::Str(text.into()));
            assert_eq!(Json::fixed(v, 3), Json::Str(text.into()));
        }
        let tracer = Tracer::new(4);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("alert");
        t.event(0, "alert", &[("value", Value::F64(f64::INFINITY))]);
        let (events, _) = tracer.drain();
        let line = event_json(&events[0]).to_string();
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
    }
}
