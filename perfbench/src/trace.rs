//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions; the program itself is not instrumented. Every
//! span carries its name, start and end, its parent, and the id of the
//! item it belongs to. Counts are recorded at the same boundaries. Both stay
//! in memory until the run ends, when [`Tracer::write_jsonl`] writes them out.
//!
//! Self time is a span's duration minus the part its children cover. Spans
//! open and close one at a time, in LIFO order (the sweep replica hands the
//! tracer to its phase workers behind a mutex), so children never overlap
//! and the covered part is the sum of their durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
pub struct Span {
    /// Layer name (`cfront`, `memvm.exec`, ...).
    pub name: &'static str,
    /// The item this span belongs to.
    pub item: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span and count recorder.
pub struct Tracer {
    t0: Instant,
    item: u64,
    stack: Vec<usize>,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    /// `(item, name, value)` count events, in recording order.
    pub counts: Vec<(u64, &'static str, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            item: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Attributes subsequent spans and counts to `item`.
    pub fn set_item(&mut self, item: u64) {
        assert!(self.stack.is_empty(), "item changed inside an open span");
        self.item = item;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, item: self.item, parent, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records a count at the current boundary.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((self.item, name, value));
    }

    /// Self time of every span, in nanoseconds, indexed like `spans`.
    pub fn self_times(&self) -> Vec<i64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        self.spans.iter().zip(&covered).map(|(s, c)| s.dur() as i64 - *c as i64).collect()
    }

    /// Per item, the summed self time of each span name.
    pub fn self_by_item(&self) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.item).or_default().entry(s.name).or_default() += st.max(0) as u64;
        }
        out
    }

    /// Checks the accounting identity: no self time is negative, and per
    /// item the self times of all spans sum exactly to the durations of the
    /// item's root spans. Returns the first violation.
    pub fn check_accounting(&self) -> Result<(), String> {
        let mut roots: BTreeMap<u64, i64> = BTreeMap::new();
        let mut selfs: BTreeMap<u64, i64> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            if st < 0 {
                return Err(format!("span {} of item {} has negative self time", s.name, s.item));
            }
            *selfs.entry(s.item).or_default() += st;
            if s.parent.is_none() {
                *roots.entry(s.item).or_default() += s.dur() as i64;
            }
        }
        match roots.iter().find(|(item, total)| selfs.get(item) != Some(total)) {
            Some((item, _)) => Err(format!("item {item}: self times do not sum to the item span")),
            None => Ok(()),
        }
    }

    /// Sum of each count over all items.
    pub fn count_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for &(_, name, v) in &self.counts {
            *out.entry(name).or_default() += v;
        }
        out
    }

    /// Writes spans and counts as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.item, s.start_ns, s.end_ns
            );
        }
        for (item, name, v) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"item\":{item},\"value\":{v}}}");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut tr = Tracer::new();
        tr.set_item(3);
        tr.span("root", |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            tr.span("a", |_| {});
        });
        let st = tr.self_times();
        assert!(st.iter().all(|&s| s >= 0));
        assert_eq!(st.iter().sum::<i64>(), tr.spans[0].dur() as i64);
        tr.check_accounting().unwrap();
        let by_item = tr.self_by_item();
        assert!(by_item[&3]["b"] >= 2_000_000);
    }
}
