//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the step, query or round it belongs to. Spans stay in memory
//! during the run and are written out once it ends. A layer's self time
//! is its spans' duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Step, query or round this span belongs to.
    pub op: u64,
    /// Layer name, e.g. `kernel.build`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// Span store for one traced phase.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            op,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves the end of span `idx` (for a parent recorded before its
    /// children finished).
    pub fn set_end(&mut self, idx: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[idx].end_ns = end_ns;
    }

    /// Durations of every span named `name`, in microseconds.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total and self time per span name.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = self.covered_ns(s, &children[i]);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.dur_ns();
            entry.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Length of the union of the children's intervals, clipped to the
    /// parent (children on other threads may overlap each other).
    fn covered_ns(&self, parent: &Span, kids: &[usize]) -> u64 {
        let mut intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| {
                let c = &self.spans[k];
                (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut cursor = 0;
        for (a, b) in intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        covered
    }

    /// Share of the `root` spans' time that no child span covers: the
    /// closure check of the per-layer breakdown.
    #[must_use]
    pub fn unaccounted_share(&self, root: &str) -> f64 {
        self.layer_times()
            .get(root)
            .filter(|t| t.total_ns > 0)
            .map_or(0.0, |t| t.self_ns as f64 / t.total_ns as f64)
    }

    /// Human-readable self-time table, one line per layer.
    #[must_use]
    pub fn summary(&self) -> Vec<String> {
        self.layer_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "span {name:<20} count {:>8} total_ms {:>12.3} self_ms {:>12.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect()
    }

    /// Writes every span as one tab-separated line
    /// (`index op name parent start_ns end_ns`).
    ///
    /// # Errors
    ///
    /// The file-system error, if the file cannot be written.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index\top\tname\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let t0 = t.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record(0, "round", None, at(0), at(10));
        // Two overlapping children cover [1, 6); one more covers [7, 8).
        t.record(0, "a", Some(root), at(1), at(5));
        t.record(0, "b", Some(root), at(3), at(6));
        t.record(0, "a", Some(root), at(7), at(8));
        let times = t.layer_times();
        assert_eq!(times["round"].self_ns, 4_000_000);
        assert_eq!(times["a"].count, 2);
        assert!((t.unaccounted_share("round") - 0.4).abs() < 1e-12);
    }
}
