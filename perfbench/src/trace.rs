//! Spans recorded in the benchmark's own code around each call into a
//! layer. Each thread keeps its spans in memory in a [`SpanLog`]; the
//! logs are merged and written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer entry point, `op` the operation
/// (bots round, ingest, query) every span of one operation shares, and
/// `parent` the index of the enclosing span in the same log.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` while recording is off).
#[must_use]
pub struct Open(Option<usize>);

/// One thread's spans. While disabled, `enter`/`exit` record nothing.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    tag: u64,
    next_op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `origin`; `tag` keeps operation
    /// ids of different threads apart.
    pub fn new(origin: Instant, enabled: bool, tag: u64) -> Self {
        Self {
            origin,
            enabled,
            tag,
            next_op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (between operations, never inside one).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an operation");
        self.enabled = on;
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        (self.tag << 48) | self.next_op
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans closed out of order");
        }
    }
}

/// Per span name: (occurrences, summed duration ns, summed self time ns).
/// A span's self time is its duration minus its children's durations
/// (children of one span never overlap: they run on its thread).
pub fn self_times(logs: &[&SpanLog]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, child) in log.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child);
        }
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(logs: &[&SpanLog], name: &str) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// All spans as JSON lines; ids are global across the logs.
pub fn to_jsonl(logs: &[&SpanLog]) -> String {
    let mut out = String::new();
    let mut base = 0usize;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                base + i,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        base += log.spans.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_logs_record_nothing() {
        let mut log = SpanLog::new(Instant::now(), true, 1);
        let op = log.op();
        let outer = log.enter("outer", op);
        let inner = log.enter("inner", op);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(inner);
        log.exit(outer);
        assert_eq!(log.spans[1].parent, Some(0));
        let t = self_times(&[&log]);
        let (n, total, own) = t["outer"];
        assert_eq!(n, 1);
        assert!(own < total, "outer self time {own} must exclude inner");
        assert_eq!(t["inner"].1, t["inner"].2);
        assert!(to_jsonl(&[&log]).contains("\"parent\":0"));

        log.set_enabled(false);
        let quiet = log.enter("quiet", op);
        log.exit(quiet);
        assert_eq!(log.spans.len(), 2);
    }
}
