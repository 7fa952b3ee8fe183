//! `window_maintain`: the paper's per-point maintenance step on one
//! `FixedWindowHistogram` — push one value, then materialize the
//! histogram of the new window. Single-threaded; no fleet, server or WAL,
//! so the kernel (`CreateList`/HERROR) does almost all the work.

use crate::stats::{median, mix, quantile, us, Meter, Samples, SETUP_STREAMS};
use crate::trace::Tracer;
use crate::{Report, RunOpts, Scale, B, EPS};
use std::time::{Duration, Instant};
use streamhist_core::Histogram;
use streamhist_data::utilization_trace;
use streamhist_optimal::{optimal_histogram, optimal_sse};
use streamhist_stream::FixedWindowHistogram;

struct Config {
    /// Window length `n` (512 is the kernel/exact-DP crossover point).
    window: usize,
    /// Timed steps per input segment. Each segment is a fresh trace,
    /// loaded into the window untimed, so one run covers many windows
    /// and its figures depend little on the seed.
    segment_steps: u64,
    /// Set-ups timed per run; `setup_s` is their median.
    setup_reps: usize,
    /// `sse_over_opt_max` is taken at steps `0, stride, 2·stride, …`.
    sample_stride: u64,
    samples: u64,
    /// Kernel work counts are summed over the first this many steps.
    count_steps: u64,
    /// In the traced phase, exact DP is timed every this many steps.
    dp_stride: u64,
}

impl Config {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                window: 512,
                segment_steps: 8,
                setup_reps: 31,
                sample_stride: 32,
                samples: 16,
                count_steps: 256,
                dp_stride: 16,
            },
            Scale::Tiny => Self {
                window: 128,
                segment_steps: 4,
                setup_reps: 3,
                sample_stride: 8,
                samples: 8,
                count_steps: 64,
                dp_stride: 8,
            },
        }
    }

    /// Steps every run makes, however short, so the seed-determined
    /// samples and counts are always complete.
    fn min_steps(&self) -> u64 {
        (self.sample_stride * self.samples).max(self.count_steps)
    }

    fn json(&self) -> String {
        format!(
            "{{\"window\": {}, \"b\": {B}, \"eps\": {EPS}, \"input\": \"utilization_trace\", \
             \"segment_steps\": {}, \"setup_reps\": {}, \"sse_samples\": {}, \"sse_sample_stride\": {}, \
             \"count_steps\": {}, \"threads\": 1}}",
            self.window,
            self.segment_steps,
            self.setup_reps,
            self.samples,
            self.sample_stride,
            self.count_steps
        )
    }
}

fn answer_ok(hist: &Histogram, window: usize) -> bool {
    hist.domain_len() == window && (1..=B).contains(&hist.num_buckets())
}

/// Constructs the summary and fills its window; done at the first
/// correct histogram.
fn setup(cfg: &Config, input: &[f64]) -> Result<(FixedWindowHistogram, Duration), String> {
    let t0 = Instant::now();
    let mut fw = FixedWindowHistogram::builder(cfg.window, B, EPS)
        .build()
        .map_err(|e| e.to_string())?;
    for &v in input {
        fw.try_push(v).map_err(|e| e.to_string())?;
    }
    let (hist, _) = fw.histogram_with_stats();
    let elapsed = t0.elapsed();
    if !answer_ok(&hist, cfg.window) {
        return Err("first histogram after warm-fill is malformed".into());
    }
    Ok((fw, elapsed))
}

/// Kernel work over the first `count_steps` steps.
#[derive(Default)]
struct Counts {
    builds: u64,
    herror_evals: u64,
    binary_searches: u64,
    arena_peak: usize,
}

struct Loop<'a> {
    cfg: &'a Config,
    seed: u64,
    /// The current segment: `window` values to load, then one value
    /// per step.
    segment: Vec<f64>,
    fw: FixedWindowHistogram,
    /// Global step index (continues across phases).
    step: u64,
    counts: Counts,
    sse_ratios: Vec<f64>,
    /// Traced phase: (kernel build µs, exact DP µs) on the same window.
    dp_pairs: Vec<(f64, f64)>,
}

struct Phase {
    meter: Meter,
    lat_us: Samples,
}

impl Loop<'_> {
    /// Runs steps until `secs` of stepping time have passed and the
    /// seed-determined samples are complete. Exact-optimum checks run
    /// between steps and are not timed.
    fn phase(&mut self, secs: f64, report: &mut Report, mut tracer: Option<&mut Tracer>) -> Phase {
        let mut out = Phase {
            meter: Meter::default(),
            lat_us: Samples::new(),
        };
        while out.meter.busy_secs() < secs || self.step < self.cfg.min_steps() {
            let offset = self.step % self.cfg.segment_steps;
            if offset == 0 {
                self.segment = utilization_trace(
                    self.cfg.window + self.cfg.segment_steps as usize,
                    mix(self.seed, self.step / self.cfg.segment_steps),
                );
                let loaded = self.fw.push_batch(&self.segment[..self.cfg.window]);
                if loaded.rejected > 0 {
                    report.fail(format!("step {}: segment values rejected", self.step));
                }
            }
            let v = self.segment[self.cfg.window + offset as usize];
            let t0 = Instant::now();
            self.fw.push(v);
            let t1 = Instant::now();
            let (hist, stats) = self.fw.histogram_with_stats();
            let t2 = Instant::now();
            out.meter.add(1.0, t2 - t0);
            out.lat_us.push(us(t2 - t0));
            report.attempted += 1;
            if !answer_ok(&hist, self.cfg.window) {
                report.fail(format!("step {}: malformed histogram", self.step));
            }
            if self.step < self.cfg.count_steps {
                self.counts.builds += 1;
                self.counts.herror_evals += stats.herror_evals as u64;
                self.counts.binary_searches += stats.binary_searches as u64;
                self.counts.arena_peak = self.counts.arena_peak.max(stats.arena_peak);
            }
            if self.step.is_multiple_of(self.cfg.sample_stride)
                && self.step / self.cfg.sample_stride < self.cfg.samples
            {
                self.check_against_optimum(&hist, report);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                let root = tr.record(self.step, "step", None, t0, t2);
                tr.record(self.step, "prefix.push", Some(root), t0, t1);
                tr.record(self.step, "kernel.build", Some(root), t1, t2);
                if self.step.is_multiple_of(self.cfg.dp_stride) {
                    let window = self.fw.window();
                    let d0 = Instant::now();
                    let exact = optimal_histogram(&window, B);
                    let d1 = Instant::now();
                    tr.record(self.step, "optimal.dp", None, d0, d1);
                    self.dp_pairs.push((us(t2 - t1), us(d1 - d0)));
                    std::hint::black_box(exact);
                }
            }
            self.step += 1;
        }
        out
    }

    /// Theorem 1: realized SSE within `1+ε` of the exact optimum.
    fn check_against_optimum(&mut self, hist: &Histogram, report: &mut Report) {
        let window = self.fw.window();
        let ratio = crate::fleet::ratio(hist.sse(&window), optimal_sse(&window, B));
        report.attempted += 1;
        if ratio.is_nan() || ratio > 1.0 + EPS + 1e-9 {
            report.fail(format!("step {}: sse/opt {ratio} exceeds 1+eps", self.step));
        }
        self.sse_ratios.push(ratio);
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A message if the summary cannot be built.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let cfg = Config::new(opts.scale);
    let mut report = Report {
        config: cfg.json(),
        ..Report::default()
    };
    let setup_input =
        |rep: usize| utilization_trace(cfg.window, mix(opts.seed ^ SETUP_STREAMS, rep as u64));
    let (fw, first_setup) = setup(&cfg, &setup_input(0))?;
    let mut lp = Loop {
        cfg: &cfg,
        seed: opts.seed,
        segment: Vec::new(),
        fw,
        step: 0,
        counts: Counts::default(),
        sse_ratios: Vec::new(),
        dp_pairs: Vec::new(),
    };
    if !opts.trace {
        let mut phase = lp.phase(opts.seconds, &mut report, None);
        // The remaining set-ups run after the measured phase, so its
        // memory reflects one summary, not every set-up's leftovers.
        let mut setup_s = vec![first_setup.as_secs_f64()];
        for rep in 1..cfg.setup_reps {
            setup_s.push(setup(&cfg, &setup_input(rep))?.1.as_secs_f64());
        }
        report.metrics = vec![
            ("setup_s", median(&mut setup_s)),
            ("ops_per_s", phase.meter.ops_per_s()),
            ("op_p50_us", phase.lat_us.quantile(0.5)),
            ("op_p90_us", phase.lat_us.quantile(0.9)),
            (
                "sse_over_opt_max",
                lp.sse_ratios.iter().copied().fold(0.0, f64::max),
            ),
            ("peak_rss_mb", phase.meter.peak_rss_mb()),
        ];
        return Ok(report);
    }

    let untraced = lp.phase(opts.seconds / 2.0, &mut report, None);
    let mut tracer = Tracer::new();
    let traced = lp.phase(opts.seconds / 2.0, &mut report, Some(&mut tracer));
    let c = &lp.counts;
    let builds = c.builds.max(1) as f64;
    let mut push_us = tracer.durations_us("prefix.push");
    let mut build_us = tracer.durations_us("kernel.build");
    let (mut build_at_dp_us, mut dp_us): (Vec<f64>, Vec<f64>) = lp.dp_pairs.iter().copied().unzip();
    let dp_p50 = median(&mut dp_us);
    report.metrics = vec![
        ("prefix.push_ns", median(&mut push_us) * 1e3),
        ("kernel.build_us_p50", quantile(&mut build_us, 0.5)),
        ("kernel.build_us_p90", quantile(&mut build_us, 0.9)),
        (
            "kernel.herror_evals_per_build",
            c.herror_evals as f64 / builds,
        ),
        (
            "kernel.binary_searches_per_build",
            c.binary_searches as f64 / builds,
        ),
        ("kernel.arena_peak", c.arena_peak as f64),
        ("optimal.dp_build_us_p50", dp_p50),
        ("kernel.over_dp", median(&mut build_at_dp_us) / dp_p50),
        ("trace.unaccounted_share", tracer.unaccounted_share("step")),
        (
            "trace.overhead_ratio",
            untraced.meter.ops_per_s() / traced.meter.ops_per_s(),
        ),
    ];
    report.notes.extend(tracer.summary());
    crate::trace_out(opts, &tracer, &mut report);
    Ok(report)
}
