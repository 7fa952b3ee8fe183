//! `serve_cached`: a warmed, then frozen, 2-shard fleet behind a
//! one-worker `QueryServer`, queried by one closed-loop client
//! connection cycling through the six scalar verbs. Every fleet query is
//! a snapshot-cache hit, so the serve layer (codec, worker loop,
//! `ServeState::answer`, GK sketch) does all the work and kernel, merge
//! and durability do none.

use crate::fleet::{self, Truth, SHARDS};
use crate::stats::{median, us, Meter, Samples, SplitMix, SETUP_STREAMS};
use crate::trace::Tracer;
use crate::{Report, RunOpts, Scale, B, EPS};
use std::time::{Duration, Instant};
use streamhist_core::{Histogram, Query};
use streamhist_serve::{QuantileMethod, QueryServer, Request, Response, ServeClient, ServeState};
use streamhist_stream::{Coverage, ShardedFixedWindow};

struct Config {
    /// Records per shard window.
    window: usize,
    /// Records ingested during set-up (two windows per shard).
    warm_records: usize,
    /// Live cycles after set-up, before the fleet is frozen: each ingests
    /// one fleet window of fresh records and gathers a snapshot, so the
    /// frozen fleet has the history of a live one.
    live_cycles: usize,
    /// Records per `ingest_scatter` call while warming.
    slab: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    setup_reps: usize,
    /// Distinct requests per verb in the cycled request table.
    per_verb: usize,
}

impl Config {
    fn new(scale: Scale) -> Self {
        let window = match scale {
            Scale::Full => 1024,
            Scale::Tiny => 128,
        };
        let (live_cycles, setup_reps) = match scale {
            Scale::Full => (128, 15),
            Scale::Tiny => (2, 2),
        };
        Self {
            window,
            warm_records: 2 * SHARDS * window,
            live_cycles,
            slab: window,
            setup_reps,
            per_verb: 64,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"shards\": {SHARDS}, \"window_per_shard\": {}, \"b\": {B}, \"eps\": {EPS}, \
             \"input\": \"utilization_trace, fresh per slab\", \"warm_records\": {}, \"live_cycles\": {}, \"server_workers\": 1, \
             \"client_connections\": 1, \"client_threads\": 1, \"loop\": \"closed\", \
             \"verbs\": 6, \"requests_per_verb\": {}, \"setup_reps\": {}}}",
            self.window,
            self.warm_records,
            self.live_cycles,
            self.per_verb,
            self.setup_reps
        )
    }
}

struct Sut {
    state: ServeState,
    server: QueryServer,
    client: ServeClient,
}

/// Builds the fleet, warms and freezes it, serves it, connects the
/// client; done at the first correct wire answer. Set-up `rep` of a run
/// warms on its own input stream.
fn setup(cfg: &Config, seed: u64, rep: usize) -> Result<(Sut, Duration), String> {
    let warm_slabs = cfg.warm_records / cfg.slab;
    let input = fleet::fresh_slabs(
        seed ^ SETUP_STREAMS,
        (rep * warm_slabs) as u64,
        warm_slabs,
        cfg.slab,
    );
    let t0 = Instant::now();
    let fleet = ShardedFixedWindow::builder(SHARDS, cfg.window, B, EPS)
        .build()
        .map_err(|e| e.to_string())?;
    let state = fleet::serve_state(fleet);
    let hist = fleet::ingest_and_gather(&state, &input, cfg.slab, &mut 0)?;
    let server = QueryServer::start_with("127.0.0.1:0", state.clone(), 1, fleet::server_options())
        .map_err(|e| e.to_string())?;
    let mut client = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let end = hist.domain_len() - 1;
    let wire = client.range_sum(0, end).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    let direct = Query::RangeSum { start: 0, end }
        .try_estimate(&*hist)
        .map_err(|e| e.to_string())?;
    if wire.to_bits() != direct.to_bits() {
        return Err("first wire answer differs from the in-process snapshot".into());
    }
    Ok((
        Sut {
            state,
            server,
            client,
        },
        elapsed,
    ))
}

/// The cycled request table: six verbs interleaved, parameters drawn
/// from the seed.
fn requests(cfg: &Config, seed: u64, domain: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5e7e_cac4_ed00_0001);
    let mut out = Vec::with_capacity(6 * cfg.per_verb);
    for _ in 0..cfg.per_verb {
        let (start, end) = rng.range(domain);
        out.push(Request::RangeSum { start, end });
        let (start, end) = rng.range(domain);
        out.push(Request::RangeAvg { start, end });
        out.push(Request::Point {
            idx: rng.below(domain),
        });
        let (start, end) = rng.range(domain);
        out.push(Request::RangeCount { start, end });
        out.push(Request::Quantile {
            method: QuantileMethod::Gk,
            phi: rng.below(1001) as f64 / 1000.0,
        });
        let lo = rng.below(4000) as f64;
        out.push(Request::Selectivity {
            lo,
            hi: lo + rng.below(2000) as f64,
        });
    }
    out
}

/// In-process answers, the reference every wire answer must match bit
/// for bit: histogram verbs are evaluated on the in-process
/// `snapshot_global()` histogram, sketch verbs through `ServeState::answer`.
fn expected(
    state: &ServeState,
    hist: &Histogram,
    reqs: &[Request],
) -> Result<Vec<(u64, Coverage)>, String> {
    reqs.iter()
        .map(|req| {
            let Ok(Response::Scalar {
                value, coverage, ..
            }) = state.answer(req)
            else {
                return Err(format!("in-process answer to {req:?} is not a scalar"));
            };
            if let Some(q) = req.as_query() {
                let direct = q.try_estimate(hist).map_err(|e| e.to_string())?;
                if direct.to_bits() != value.to_bits() {
                    return Err(format!(
                        "ServeState::answer({req:?}) differs from the snapshot"
                    ));
                }
            }
            Ok((value.to_bits(), coverage))
        })
        .collect()
}

struct Phase {
    meter: Meter,
    lat_us: Samples,
}

fn phase(
    client: &mut ServeClient,
    reqs: &[Request],
    expect: &[(u64, Coverage)],
    secs: f64,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut out = Phase {
        meter: Meter::default(),
        lat_us: Samples::new(),
    };
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < secs {
        let k = i % reqs.len();
        let t0 = Instant::now();
        let reply = client.call(&reqs[k]);
        let t1 = Instant::now();
        let ok = matches!(
            reply,
            Ok(Response::Scalar { value, coverage, .. })
                if value.to_bits() == expect[k].0 && coverage == expect[k].1
        );
        let t2 = Instant::now();
        report.attempted += 1;
        if !ok {
            report.fail(format!("query {i} ({:?}): got {reply:?}", reqs[k]));
        }
        out.meter.add(1.0, t2 - t0);
        out.lat_us.push(us(t1 - t0));
        if let Some(tr) = tracer.as_deref_mut() {
            let root = tr.record(i as u64, "query", None, t0, t2);
            tr.record(i as u64, "client.call", Some(root), t0, t1);
        }
        i += 1;
    }
    out
}

/// Runs the workload.
///
/// # Errors
///
/// A message if the served fleet cannot be set up or torn down.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let cfg = Config::new(opts.scale);
    let mut report = Report {
        config: cfg.json(),
        ..Report::default()
    };
    let (
        Sut {
            state,
            server,
            mut client,
        },
        first_setup,
    ) = setup(&cfg, opts.seed, 0)?;

    // Live history, then freeze; reference answers and the accuracy
    // check, outside any timed region.
    let mut sent = cfg.warm_records as u64;
    for cycle in 0..cfg.live_cycles {
        let input = fleet::fresh_slabs(opts.seed, (cycle * SHARDS) as u64, SHARDS, cfg.slab);
        fleet::ingest_and_gather(&state, &input, cfg.slab, &mut sent)?;
    }
    let fleet = state.fleet().clone();
    let (hist, _) = fleet.snapshot_global().map_err(|e| e.to_string())?;
    let reqs = requests(&cfg, opts.seed, hist.domain_len());
    let expect = expected(&state, &hist, &reqs)?;
    let shards = fleet::shard_summaries(Truth::Checkpoint(&fleet), cfg.window)?;
    let check = fleet::gather_check(&fleet, &hist, &shards)?;
    report.attempted += 1;
    if !check.within_bound {
        report.fail(format!(
            "served histogram breaks the gather bound (sse/opt {})",
            check.sse_over_opt
        ));
    }
    let merges_before = fleet.merge_metrics().merges;

    if !opts.trace {
        let mut p = phase(&mut client, &reqs, &expect, opts.seconds, &mut report, None);
        report.metrics = vec![
            ("ops_per_s", p.meter.ops_per_s()),
            ("op_p50_us", p.lat_us.quantile(0.5)),
            ("op_p90_us", p.lat_us.quantile(0.9)),
            ("sse_over_opt_max", check.sse_over_opt),
            ("peak_rss_mb", p.meter.peak_rss_mb()),
        ];
    } else {
        let untraced = phase(
            &mut client,
            &reqs,
            &expect,
            opts.seconds / 2.0,
            &mut report,
            None,
        );
        let merges = fleet.merge_metrics().merges - merges_before;
        let phases = ["decode", "answer", "encode"].map(|p| state.phase_latency(p));
        for recorder in &phases {
            recorder.reset();
        }
        let mut tracer = Tracer::new();
        let traced = phase(
            &mut client,
            &reqs,
            &expect,
            opts.seconds / 2.0,
            &mut report,
            Some(&mut tracer),
        );
        let [decode, answer, encode] = phases.map(|r| {
            if r.count() == 0 {
                0.0
            } else {
                r.quantile_ns(0.5) / 1e3
            }
        });
        let call = median(&mut tracer.durations_us("client.call"));
        report.metrics = vec![
            ("client.call_us_p50", call),
            ("serve.decode_us_p50", decode),
            ("serve.answer_us_p50", answer),
            ("serve.encode_us_p50", encode),
            ("serve.transport_us_p50", call - decode - answer - encode),
            ("merge.merges_serve_cached", merges as f64),
            ("trace.unaccounted_share", tracer.unaccounted_share("query")),
            (
                "trace.overhead_ratio",
                untraced.meter.ops_per_s() / traced.meter.ops_per_s(),
            ),
        ];
        report.notes.extend(tracer.summary());
        crate::trace_out(opts, &tracer, &mut report);
    }
    drop(fleet);
    fleet::teardown(vec![client], server, state)?;
    if !opts.trace {
        // The remaining set-ups run after the measured phase, so its
        // memory reflects one served fleet, not every set-up's leftovers.
        let mut setup_s = vec![first_setup.as_secs_f64()];
        for rep in 1..cfg.setup_reps {
            let (sut, elapsed) = setup(&cfg, opts.seed, rep)?;
            setup_s.push(elapsed.as_secs_f64());
            fleet::teardown(vec![sut.client], sut.server, sut.state)?;
        }
        report.metrics.insert(0, ("setup_s", median(&mut setup_s)));
    }
    Ok(report)
}
