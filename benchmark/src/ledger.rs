//! The per-layer time ledger of a traced run, and the order statistics
//! every reported timing goes through.
//!
//! The benchmark measures the program from outside: a span is recorded
//! around a call into one of the repository's crates, never inside it.
//! Coarse calls (one simulation, one probe, one synopsis) are kept as
//! individual spans with their parent; per-sample calls, of which a run
//! makes hundreds of thousands, are folded into a tally (calls, busy
//! time) so the ledger stays small. Everything stays in memory until
//! [`Ledger::write`].

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// Median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (which it sorts), by linear
/// interpolation between order statistics. Empty input reads as 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (at - lo as f64)
}

/// A timing summarised the way every metric is printed: median,
/// quartiles and how many observations they rest on.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Summary {
        Summary {
            median: quantile(&mut values, 0.5),
            q1: quantile(&mut values, 0.25),
            q3: quantile(&mut values, 0.75),
            n: values.len(),
        }
    }
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct Tally {
    pub calls: u64,
    pub busy_ns: u64,
}

/// A span as the trace file holds it.
#[derive(Debug, Serialize)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

/// The trace file.
#[derive(Debug, Serialize)]
pub struct LedgerRecord {
    pub spans: Vec<SpanRecord>,
    pub tallies: BTreeMap<String, Tally>,
}

/// Spans and tallies of one traced run.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tallies: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of whichever span is
    /// open around it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` and add its duration to the tally named `name`.
    pub fn tally<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, 1, start.elapsed().as_nanos() as u64);
        out
    }

    /// Add `calls` calls totalling `busy_ns` to the tally named `name`.
    pub fn add(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        let t = self.tallies.entry(name).or_default();
        t.calls += calls;
        t.busy_ns += busy_ns;
    }

    /// Total busy time under `name`, spans and tallies together, ms.
    pub fn busy_ms(&self, name: &str) -> f64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let tallied = self.tallies.get(name).map_or(0, |t| t.busy_ns);
        (spans + tallied) as f64 / 1e6
    }

    /// Number of spans and tallied calls under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        spans + self.tallies.get(name).map_or(0, |t| t.calls)
    }

    /// Mean busy nanoseconds per call under `name` (0 with no calls).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            calls => self.busy_ms(name) * 1e6 / calls as f64,
        }
    }

    /// Durations of the individual spans named `name`, ms.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The ledger as written out: every span with its parent and self
    /// time (duration minus what its children cover), and every tally.
    pub fn record(&self) -> LedgerRecord {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .zip(&child_ns)
            .enumerate()
            .map(|(id, (s, &covered))| SpanRecord {
                id,
                parent: s.parent,
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                self_ns: (s.end_ns - s.start_ns).saturating_sub(covered),
            })
            .collect();
        let tallies = self
            .tallies
            .iter()
            .map(|(name, t)| ((*name).to_owned(), *t))
            .collect();
        LedgerRecord { spans, tallies }
    }

    /// Write the ledger to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(&self.record()).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tolerate_empty_input() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(quantile(&mut [1.0, 2.0], 0.99), 1.99);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut ledger = Ledger::new();
        ledger.span("outer", |l| {
            l.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            l.tally("leaf", || ());
        });
        ledger.add("leaf", 2, 500);
        assert_eq!(ledger.calls("leaf"), 3);
        assert_eq!(ledger.calls("outer"), 1);
        assert!(ledger.busy_ms("outer") >= ledger.busy_ms("inner"));
        assert!(ledger.busy_ms("inner") >= 2.0);
        let record = ledger.record();
        assert_eq!(record.spans[1].parent, Some(0));
        assert_eq!(record.tallies["leaf"].calls, 3);
        let (self_ns, start, end) = (
            record.spans[0].self_ns,
            record.spans[0].start_ns,
            record.spans[0].end_ns,
        );
        assert!(self_ns < end - start);
    }
}
