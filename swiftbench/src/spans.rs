//! In-memory span log for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, start, end, parent span and the
//! unit (Fig. 7 point, Fig. 8 point, fuzz seed or explore tree) they
//! belong to. Calls too frequent to record one by one (`next_instr`, one
//! fuzz event) are folded into one aggregate span per unit that carries
//! the summed duration and the call count. Everything stays in memory
//! until [`SpanLog::write_jsonl`] writes it out at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub unit: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the span; below `end_ns - start_ns` for aggregates.
    pub dur_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub count: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A running total for an aggregate span (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub first_ns: Option<u64>,
    pub last_ns: u64,
    pub dur_ns: u64,
    pub count: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, workload: &'static str, unit: usize) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            workload,
            unit,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            dur_ns: 0,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.dur_ns = now - s.start_ns;
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("len > depth");
            self.close(id);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        workload: &'static str,
        unit: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, workload, unit);
        let out = f();
        self.close(id);
        out
    }

    /// Records an aggregate span under the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, workload: &'static str, unit: usize, acc: Acc) {
        if acc.count == 0 {
            return;
        }
        let start_ns = acc.first_ns.unwrap_or(acc.last_ns);
        self.spans.push(Span {
            name,
            workload,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: acc.last_ns,
            dur_ns: acc.dur_ns,
            count: acc.count,
        });
    }

    /// Span `id`'s duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[id].dur_ns.saturating_sub(children)
    }

    /// The spans named `name` of `workload`.
    pub fn named<'a>(
        &'a self,
        workload: &'static str,
        name: &'static str,
    ) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.workload == workload && s.name == name)
    }

    /// `(summed duration, summed call count)` of the spans named `name`.
    pub fn total(&self, workload: &'static str, name: &'static str) -> (u64, u64) {
        self.named(workload, name)
            .fold((0, 0), |(d, c), (_, s)| (d + s.dur_ns, c + s.count))
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{}\",\"unit\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\"count\":{}}}",
                s.name, s.workload, s.unit, s.start_ns, s.end_ns, s.dur_ns, s.count
            )?;
        }
        out.flush()
    }
}

impl Acc {
    /// Adds one call that ran from `start` to `end` (log-relative ns).
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        self.first_ns.get_or_insert(start_ns);
        self.last_ns = end_ns;
        self.dur_ns += end_ns - start_ns;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let outer = log.open("outer", "w", 0);
        let inner = log.open("inner", "w", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(inner);
        log.aggregate(
            "agg",
            "w",
            0,
            Acc {
                first_ns: Some(0),
                last_ns: 10,
                dur_ns: 7,
                count: 3,
            },
        );
        log.close(outer);
        let outer_dur = log.spans[outer].dur_ns;
        let inner_dur = log.spans[inner].dur_ns;
        assert_eq!(log.self_ns(outer), outer_dur - inner_dur - 7);
        assert_eq!(log.total("w", "agg"), (7, 3));
    }
}
