//! Benchmark-side spans for the traced pass.
//!
//! A span is a named interval with a parent and a run-wide id. Spans are
//! opened and closed by the harness around its calls into each layer, kept
//! in memory, and written out as JSON lines when the run ends; nothing in
//! the program under test is instrumented. The tree is
//! `run > workload > round > batch > {guard, netsim.dispatch, dnswire.decode, ...}`.

use crate::json::Value;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Run-wide span identifier (its index in the span list).
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Run-wide id.
    pub id: SpanId,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `dnswire.decode`.
    pub name: &'static str,
    /// What the span worked on: a workload or datagram-class name, or "".
    pub label: &'static str,
    /// Operations (datagrams, queries) the span covers.
    pub items: u32,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span list of one run.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty list whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(
        &mut self,
        name: &'static str,
        label: &'static str,
        items: u32,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            label,
            items,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end.max(span.start_ns);
        span.dur_ns()
    }

    /// Runs `f` inside a span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        items: u32,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, label, items, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// All spans, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far (the id the next one will get).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover. Children of one parent never overlap
    /// (the harness is single-threaded), so this is duration minus the sum
    /// of the children's durations.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Checks the tree: every span closed, every parent opened earlier,
    /// every child inside its parent's interval, no negative self time.
    ///
    /// # Errors
    ///
    /// A description of the first malformed span.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) was never closed", s.id, s.name));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.get(p as usize).filter(|_| p < s.id) else {
                    return Err(format!(
                        "span {} ({}) has no earlier parent {p}",
                        s.id, s.name
                    ));
                };
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                        s.id,
                        s.name,
                        s.start_ns,
                        s.end_ns,
                        parent.id,
                        parent.name,
                        parent.start_ns,
                        parent.end_ns
                    ));
                }
            }
        }
        if let Some((i, t)) = self.self_times().iter().enumerate().find(|(_, &t)| t < 0) {
            return Err(format!(
                "span {i} ({}) has negative self time {t}",
                self.spans[i].name
            ));
        }
        Ok(())
    }

    /// Writes one JSON object per span, in opening order.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::obj()
                .with("id", u64::from(s.id))
                .with(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                )
                .with("name", s.name)
                .with("label", s.label)
                .with("items", u64::from(s.items))
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_well_formed_and_self_time_excludes_children() {
        let mut s = Spans::new();
        let root = s.open("run", "", 0, None);
        let a = s.open("a", "", 1, Some(root));
        s.timed("a.child", "", 1, a, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        s.close(a);
        s.close(root);
        s.check_well_formed().unwrap();
        let own = s.self_times();
        assert_eq!(
            own[a as usize] + s.all()[2].dur_ns() as i64,
            s.all()[a as usize].dur_ns() as i64
        );
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let mut s = Spans::new();
        let root = s.open("run", "", 0, None);
        s.close(root);
        let late = s.open("late", "", 0, Some(root));
        s.close(late);
        // Only a zero-length late span could still fit; force the issue.
        s.spans[late as usize].end_ns = s.spans[late as usize].start_ns + 10;
        let err = s.check_well_formed().unwrap_err();
        assert!(err.contains("leaves its parent"), "{err}");
    }
}
