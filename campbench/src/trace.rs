//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public function and
//! records its name, host start and end, its parent span and the
//! allocation events the call made (`mmwave_bench::alloc_events` deltas,
//! counted by the benchmark binary's global allocator). Spans of one
//! campaign cell carry that cell's `(experiment, seed)` id. Spans stay in
//! memory until the run ends, when [`Tracer::write_tsv`] writes them out.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// `(experiment id, seed)` of the campaign cell a span belongs to.
pub type CellId = (&'static str, u64);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: Option<CellId>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation events between opening and closing, children included.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            // Reserved up front so recording a span does not allocate
            // inside the window of the span around it.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, cell: Option<CellId>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push((id, mmwave_bench::alloc_events()));
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let (open_id, allocs_at_enter) = self.open.pop().expect("exit without enter");
        assert_eq!(open_id, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = mmwave_bench::alloc_events() - allocs_at_enter;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<CellId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, cell);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id parent name experiment seed start_ns end_ns self_ns allocs self_allocs`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let own = self_costs(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\texperiment\tseed\tstart_ns\tend_ns\tself_ns\tallocs\tself_allocs"
        )?;
        for (i, (s, c)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let (exp, seed) = s
                .cell
                .map_or(("-", "-".to_string()), |(e, n)| (e, n.to_string()));
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{exp}\t{seed}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, c.ns, s.allocs, c.allocs
            )?;
        }
        out.flush()
    }
}

/// What a span cost excluding its children.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfCost {
    pub ns: u64,
    pub allocs: u64,
}

/// Self time and self allocations of every span: its duration minus the
/// part of its interval that its children cover (overlapping children
/// count once), and its allocations minus those of its children.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let child_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
            SelfCost {
                ns: s.duration_ns() - covered,
                allocs: s.allocs.saturating_sub(child_allocs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64, allocs: u64) -> Span {
        Span {
            name: "x",
            cell: None,
            parent,
            start_ns,
            end_ns,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(None, 0, 100, 10),
            span(Some(0), 10, 30, 3),
            span(Some(0), 20, 50, 2),  // overlaps the first child by 10
            span(Some(0), 90, 120, 1), // runs past its parent's end
            span(Some(1), 12, 18, 1),
        ];
        let own = self_costs(&spans);
        // Children cover [10, 50) and [90, 100): 50 of 100 ns.
        assert_eq!(own[0], SelfCost { ns: 50, allocs: 4 });
        assert_eq!(own[1], SelfCost { ns: 14, allocs: 2 });
        assert_eq!(own[2], SelfCost { ns: 30, allocs: 2 });
        assert_eq!(own[4], SelfCost { ns: 6, allocs: 1 });
    }

    #[test]
    fn tracer_nests_spans_and_counts_allocations() {
        let mut t = Tracer::new();
        let v = t.span("outer", Some(("fig09", 3)), || {
            std::hint::black_box(vec![1u8; 64]);
            7
        });
        assert_eq!(v, 7);
        let outer = t.enter("outer", None);
        t.span("inner", None, || std::hint::black_box(Box::new(1u64)));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].cell, Some(("fig09", 3)));
        assert_eq!((s[1].parent, s[2].parent), (None, Some(1)));
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
        assert!(s[0].allocs >= 1, "the test binary counts allocations too");
        assert!(s[1].allocs >= s[2].allocs);
    }
}
