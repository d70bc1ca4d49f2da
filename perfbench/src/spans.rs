//! In-memory spans for the traced replay.
//!
//! A span records one call into a layer's public function: its name, start
//! and end (ns since the recorder began), the span that caused it, and the
//! request it belongs to. Spans are appended to a `Vec` while the replay
//! runs and written out once at the end, so the replay pays one
//! `Instant::now()` per boundary and no I/O.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent (a root span).
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `cache.get`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Request (or step) identifier shared by all spans of one request.
    pub req: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder: a stack of open spans over an append-only list.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: self.req });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines (one object per span, its index as
    /// `id`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children's intervals are merged first,
/// so overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times grouped by span name, in µs (ascending per name).
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        out.entry(s.name).or_default().push(ns as f64 / 1e3);
    }
    for v in out.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: u32) -> Span {
        Span { name, start_ns: a, end_ns: b, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has its own child [15,20).
        let spans = [
            sp("root", 0, 100, ROOT),
            sp("a", 10, 30, 0),
            sp("a.inner", 15, 20, 1),
            sp("b", 50, 60, 0),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 5, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [sp("root", 0, 100, ROOT), sp("a", 10, 40, 0), sp("b", 30, 50, 0)];
        assert_eq!(self_times(&spans)[0], 60);
        // A child that spills past its parent only covers the overlap.
        let spans = [sp("root", 0, 100, ROOT), sp("a", 90, 130, 0)];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut r = Recorder::new();
        r.set_request(7);
        r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].req), ("outer", ROOT, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].dur_ns() - s[1].dur_ns());
    }
}
