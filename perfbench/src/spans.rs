//! In-memory spans recorded by the benchmark around each public call into
//! a simulator layer. Spans of one cell share the cell id; they are kept
//! in memory and written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `accel.run`.
    pub name: &'static str,
    /// Unique id within the run.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// The cell every span of one simulation shares; `None` outside cells.
    pub cell: Option<u32>,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Ids are `base + n`, so logs of different
/// workers never collide when merged.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder whose clock starts at `origin` and whose ids start at
    /// `id_base`.
    pub fn new(origin: Instant, id_base: u32) -> Self {
        SpanLog { origin, next_id: id_base, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, cell, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, consuming the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(calls, total ns, self ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    out
}

/// Tab-separated dump: one span per line with its self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tcell\tname\tstart_ns\tend_ns\tself_ns\n");
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let opt = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            opt(s.parent),
            opt(s.cell),
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "x", id, parent, cell: Some(0), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50), // overlaps span 2 by 10 ns
            span(4, Some(3), 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40, 20, 30 - 10, 10]);
    }

    #[test]
    fn scopes_nest_and_share_the_cell() {
        let mut log = SpanLog::new(Instant::now(), 100);
        log.scope("cell", Some(7), |log| {
            log.scope("accel.new", Some(7), |_| {});
            log.scope("accel.run", Some(7), |_| {});
        });
        log.scope("bench.render", None, |_| {});
        let spans = log.into_spans();
        let ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![100, 101, 102, 103]);
        assert_eq!(spans[1].parent, Some(100));
        assert_eq!(spans[2].parent, Some(100));
        assert_eq!(spans[3].parent, None);
        assert!(spans[..3].iter().all(|s| s.cell == Some(7)));
        let t = totals(&spans);
        assert_eq!(t["cell"].0, 1);
        let (_, total, self_ns) = t["cell"];
        assert!(self_ns <= total);
        assert!(to_tsv(&spans).lines().count() == 5);
    }
}
