//! The streamhist benchmark: three closed-loop workloads that drive the
//! library only through its public API, check every answer, and report
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! See `NOTES.md` next to this crate for why each workload exists, which
//! layer each per-layer metric measures, and which end-to-end metric it
//! should move.

pub mod fleet;
pub mod ingest_fresh;
pub mod serve_cached;
pub mod stats;
pub mod trace;
pub mod window_maintain;

use std::path::PathBuf;

/// Histogram bucket budget of every workload (the shipped config).
pub const B: usize = 8;
/// Approximation parameter of every workload (the shipped config).
pub const EPS: f64 = 0.1;

/// Seed used when none is given. A claimed gain must also hold on the
/// held-out seed 1729, which is never used while tuning a change.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics, reported by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("sse_over_opt_max", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in a traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prefix.push_ns", "ns"),
    ("kernel.build_us_p50", "us"),
    ("kernel.build_us_p90", "us"),
    ("kernel.herror_evals_per_build", "count"),
    ("kernel.binary_searches_per_build", "count"),
    ("kernel.arena_peak", "count"),
    ("optimal.dp_build_us_p50", "us"),
    ("kernel.over_dp", "ratio"),
    ("client.call_us_p50", "us"),
    ("serve.decode_us_p50", "us"),
    ("serve.answer_us_p50", "us"),
    ("serve.encode_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("merge.merges_serve_cached", "count"),
    ("serve.ingest_us_per_slab", "us"),
    ("sharded.barrier_us", "us"),
    ("sharded.queue_depth_max", "count"),
    ("sharded.records_dropped", "count"),
    ("kernel.shard_build_us", "us"),
    ("merge.merges_per_round", "count"),
    ("merge.herror_evals_per_gather", "count"),
    ("durability.amplification", "ratio"),
    ("durability.segments_per_round", "count"),
    ("durability.frames_per_round", "count"),
    ("durability.retries", "count"),
    ("durability.failures", "count"),
    ("durability.segments_dropped", "count"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics that are counts of work, read after the untraced
/// phase over a seed-determined stretch of it: they repeat exactly for a
/// given seed.
pub const COUNT_METRICS: &[&str] = &[
    "kernel.herror_evals_per_build",
    "kernel.binary_searches_per_build",
    "kernel.arena_peak",
    "merge.merges_serve_cached",
    "sharded.queue_depth_max",
    "sharded.records_dropped",
    "merge.merges_per_round",
    "merge.herror_evals_per_gather",
    "durability.amplification",
    "durability.segments_per_round",
    "durability.frames_per_round",
    "durability.retries",
    "durability.failures",
    "durability.segments_dropped",
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One fixed-window summary, one push plus one build per op.
    WindowMaintain,
    /// A frozen fleet behind one server worker, one client connection.
    ServeCached,
    /// A durable fleet ingesting while two readers query it.
    IngestFresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WindowMaintain,
        Workload::ServeCached,
        Workload::IngestFresh,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WindowMaintain => "window_maintain",
            Workload::ServeCached => "serve_cached",
            Workload::IngestFresh => "ingest_fresh",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark; `Tiny` keeps the same code paths
/// at a size a unit test can run in a few seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined on.
    Full,
    /// Small windows and rounds, for the determinism test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured duration: the untraced run measures for this long; a
    /// traced run splits it between an untraced and a traced phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (nothing is written if `None`).
    pub trace_dir: Option<PathBuf>,
}

/// What one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (steps, queries, records plus queries).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric name to value; every name of the table the run reports.
    pub metrics: Vec<(&'static str, f64)>,
    /// The workload's configuration as a JSON object, for provenance.
    pub config: String,
    /// Human-readable lines (self times, failure reasons).
    pub notes: Vec<String>,
}

impl Report {
    /// The value of `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records one failed operation with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 64 {
            self.notes.push(format!("FAIL: {}", reason.into()));
        }
    }

    /// Fills every per-layer metric the workload did not set with 0 and
    /// orders the metrics as in [`PER_LAYER`].
    pub fn complete_per_layer(&mut self) {
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.get(name).unwrap_or(0.0)))
            .collect();
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// A message when the system under test could not be set up or torn
/// down (a failed check is not an error: it counts in
/// [`Report::failed`]).
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let mut report = match opts.workload {
        Workload::WindowMaintain => window_maintain::run(opts)?,
        Workload::ServeCached => serve_cached::run(opts)?,
        Workload::IngestFresh => ingest_fresh::run(opts)?,
    };
    if opts.trace {
        report.complete_per_layer();
    }
    Ok(report)
}

/// Writes a traced phase's spans to `<trace_dir>/<workload>-seed<seed>.tsv`
/// once the run has ended; a write error becomes a note, not a failure.
fn trace_out(opts: &RunOpts, tracer: &trace::Tracer, report: &mut Report) {
    if let Some(dir) = &opts.trace_dir {
        let path = dir.join(format!("{}-seed{}.tsv", opts.workload.name(), opts.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
}

/// Unit of a metric named in either table.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}
