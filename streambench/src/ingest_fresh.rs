//! `ingest_fresh`: writes beside reads. A durable 2-shard fleet (MemStore
//! WAL plus frames) behind a two-worker `QueryServer`. Each round:
//!
//! 1. pushes `slabs` slabs through `ServeState::ingest_scatter`;
//! 2. waits on a barrier of `FleetHandle::ping` to every shard, until the
//!    shards have absorbed every record sent, so each round's work is the
//!    same from run to run;
//! 3. releases two readers (two threads, two connections) that each send
//!    one range query at the same moment. Both miss the snapshot cache
//!    and gather.
//!
//! The op latency is freshness: from the start of the round's last
//! `ingest_scatter` call to a reader's answer.

use crate::fleet::{self, Truth, SHARDS};
use crate::stats::{median, us, Meter, Samples, SplitMix, SETUP_STREAMS};
use crate::trace::Tracer;
use crate::{Report, RunOpts, Scale, B, EPS};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamhist_core::{MemStore, Query};
use streamhist_serve::{ClientError, QueryServer, Request, ServeClient, ServeState};
use streamhist_stream::{Coverage, DurabilityOptions, FleetHandle, ShardedFixedWindow, WalStatus};

/// Readers per round.
const READERS: usize = 2;

struct Config {
    /// Records per shard window.
    window: usize,
    /// Slabs per round.
    slabs: usize,
    /// Records per slab.
    slab: usize,
    /// Records ingested during set-up (two windows per shard).
    warm_records: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    setup_reps: usize,
    /// `sse_over_opt_max` is taken after these rounds.
    sample_rounds: &'static [u64],
    /// Gather work is averaged over the first this many rounds.
    count_rounds: u64,
}

impl Config {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                window: 1024,
                slabs: 64,
                slab: 1024,
                warm_records: 2 * SHARDS * 1024,
                setup_reps: 7,
                sample_rounds: &[0, 4, 8, 12],
                count_rounds: 16,
            },
            // Tiny keeps full windows: a gather must stay long enough that
            // both readers miss the cache, as at full size.
            Scale::Tiny => Self {
                window: 1024,
                slabs: 4,
                slab: 1024,
                warm_records: 2 * SHARDS * 1024,
                setup_reps: 2,
                sample_rounds: &[0, 1],
                count_rounds: 2,
            },
        }
    }

    /// Rounds every run makes, however short, so the seed-determined
    /// samples and counts are always complete.
    fn min_rounds(&self) -> u64 {
        let last_sample = self.sample_rounds.iter().max().map_or(0, |r| r + 1);
        last_sample.max(self.count_rounds)
    }

    fn json(&self) -> String {
        format!(
            "{{\"shards\": {SHARDS}, \"window_per_shard\": {}, \"b\": {B}, \"eps\": {EPS}, \
             \"input\": \"utilization_trace, fresh per slab\", \"durability\": \"MemStore, default wal_sync and \
             checkpoint_interval\", \"slabs_per_round\": {}, \"records_per_slab\": {}, \
             \"warm_records\": {}, \"server_workers\": 2, \"readers\": {READERS}, \
             \"client_connections\": {READERS}, \"client_threads\": {READERS}, \"loop\": \"closed\", \
             \"setup_reps\": {}, \"sse_sample_rounds\": {:?}, \"count_rounds\": {}}}",
            self.window,
            self.slabs,
            self.slab,
            self.warm_records,
            self.setup_reps,
            self.sample_rounds,
            self.count_rounds
        )
    }
}

/// Waits until the durability uploader has written every queued job.
fn drain_uploader(fleet: &FleetHandle) -> Result<WalStatus, String> {
    let deadline = Instant::now() + fleet::SETTLE_TIMEOUT;
    loop {
        let status = fleet.wal_status();
        if status.queue_depth == 0 {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            return Err("durability uploader did not drain".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

struct Answer {
    reader: usize,
    result: Result<(f64, Coverage), ClientError>,
    start: Instant,
    end: Instant,
}

struct Reader {
    jobs: Sender<Request>,
    handle: JoinHandle<ServeClient>,
}

/// A reader thread: on each job, waits for its peer so both queries leave
/// at the same moment, then sends it over its own connection.
fn spawn_reader(
    id: usize,
    mut client: ServeClient,
    gate: Arc<Barrier>,
    answers: Sender<Answer>,
) -> Reader {
    let (jobs, rx): (Sender<Request>, Receiver<Request>) = channel();
    let handle = std::thread::spawn(move || {
        for req in rx {
            gate.wait();
            let start = Instant::now();
            let result = client.call_scalar(&req);
            let end = Instant::now();
            let answer = Answer {
                reader: id,
                result,
                start,
                end,
            };
            if answers.send(answer).is_err() {
                break;
            }
        }
        client
    });
    Reader { jobs, handle }
}

struct Sut {
    store: Arc<MemStore>,
    state: ServeState,
    server: QueryServer,
    clients: Vec<ServeClient>,
}

/// Builds the durable fleet, warms it, serves it and connects both
/// readers; done when each reader has a correct, fresh first answer.
/// Set-up `rep` of a run warms on its own input stream.
fn setup(cfg: &Config, seed: u64, rep: usize) -> Result<(Sut, Duration), String> {
    let warm_slabs = cfg.warm_records / cfg.slab;
    let input = fleet::fresh_slabs(
        seed ^ SETUP_STREAMS,
        (rep * warm_slabs) as u64,
        warm_slabs,
        cfg.slab,
    );
    let t0 = Instant::now();
    let store = Arc::new(MemStore::new());
    let fleet = ShardedFixedWindow::builder(SHARDS, cfg.window, B, EPS)
        .durability(DurabilityOptions::new(store.clone()))
        .build()
        .map_err(|e| e.to_string())?;
    let state = fleet::serve_state(fleet);
    let mut sent = 0;
    let hist = fleet::ingest_and_gather(&state, &input, cfg.slab, &mut sent)?;
    let server = QueryServer::start_with("127.0.0.1:0", state.clone(), 2, fleet::server_options())
        .map_err(|e| e.to_string())?;
    let end = hist.domain_len() - 1;
    let mut clients = Vec::with_capacity(READERS);
    let mut answers = Vec::with_capacity(READERS);
    for _ in 0..READERS {
        let mut client = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        answers.push(
            client
                .call_scalar(&Request::RangeSum { start: 0, end })
                .map_err(|e| e.to_string())?,
        );
        clients.push(client);
    }
    let elapsed = t0.elapsed();
    let direct = Query::RangeSum { start: 0, end }
        .try_estimate(&*hist)
        .map_err(|e| e.to_string())?;
    for (value, coverage) in answers {
        if value.to_bits() != direct.to_bits() || coverage.records_represented != sent {
            return Err("first wire answer differs from the in-process snapshot".into());
        }
    }
    Ok((
        Sut {
            store,
            state,
            server,
            clients,
        },
        elapsed,
    ))
}

/// Work counts over the untraced phase and its first `count_rounds`
/// rounds (a seed-determined stretch, so they repeat exactly).
#[derive(Default)]
struct Counts {
    gather_herror_evals: u64,
    queue_depth_max: usize,
    /// Durability status and merge total once the counted rounds are done
    /// and the uploader has drained.
    counted_end: Option<(WalStatus, u64)>,
}

struct Loop<'a> {
    cfg: &'a Config,
    seed: u64,
    state: &'a ServeState,
    fleet: &'a FleetHandle,
    store: &'a MemStore,
    readers: Vec<Reader>,
    answers: Receiver<Answer>,
    rng: SplitMix,
    /// Records sent so far, set-up included.
    sent: u64,
    /// Global round index (continues across phases).
    round: u64,
    counts: Counts,
    sse_ratios: Vec<f64>,
}

struct Phase {
    meter: Meter,
    fresh_us: Samples,
}

impl Loop<'_> {
    fn phase(
        &mut self,
        secs: f64,
        report: &mut Report,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mut out = Phase {
            meter: Meter::default(),
            fresh_us: Samples::new(),
        };
        let domain = SHARDS * self.cfg.window;
        while out.meter.busy_secs() < secs || self.round < self.cfg.min_rounds() {
            let op = self.round;
            // Each round ingests fresh slabs, generated untimed, so a run
            // covers many windows and depends little on the seed.
            let input = fleet::fresh_slabs(
                self.seed,
                op * self.cfg.slabs as u64,
                self.cfg.slabs,
                self.cfg.slab,
            );
            let round_start = Instant::now();
            let root = tracer
                .as_deref_mut()
                .map(|tr| tr.record(op, "round", None, round_start, round_start));

            // 1. Ingest.
            let mut last_ingest = round_start;
            for slab in input.chunks(self.cfg.slab) {
                last_ingest = Instant::now();
                let result = self.state.ingest_scatter(slab);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record(op, "serve.ingest", root, last_ingest, Instant::now());
                }
                report.attempted += slab.len() as u64;
                if let Err(e) = result {
                    report.fail(format!("round {op}: ingest_scatter: {e}"));
                }
            }
            self.sent += input.len() as u64;

            // 2. Barrier.
            let t = Instant::now();
            let depth = fleet::barrier(self.fleet, self.sent)?;
            self.counts.queue_depth_max = self.counts.queue_depth_max.max(depth);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(op, "sharded.barrier", root, t, Instant::now());
                // Per-shard builds, timed on their own; the readers'
                // gathers then reuse them.
                for shard in 0..SHARDS {
                    let t = Instant::now();
                    let built = self.fleet.snapshot_shard(shard);
                    tr.record(op, "kernel.shard_build", root, t, Instant::now());
                    if !matches!(built, Ok(Ok(_))) {
                        report.fail(format!("round {op}: shard {shard} snapshot failed"));
                    }
                }
            }

            // 3. Readers.
            let mut queries = Vec::with_capacity(READERS);
            for reader in &self.readers {
                let (start, end) = self.rng.range(domain);
                let req = Request::RangeSum { start, end };
                reader
                    .jobs
                    .send(req)
                    .map_err(|_| "reader thread exited".to_string())?;
                queries.push(req);
            }
            let mut answers = Vec::with_capacity(READERS);
            for _ in 0..READERS {
                answers.push(
                    self.answers
                        .recv()
                        .map_err(|_| "reader thread exited".to_string())?,
                );
            }
            let round_end = Instant::now();
            out.meter.add(input.len() as f64, round_end - round_start);
            for a in &answers {
                out.fresh_us.push(us(a.end - last_ingest));
            }
            if let (Some(tr), Some(root)) = (tracer.as_deref_mut(), root) {
                for a in &answers {
                    tr.record(op, "client.call", Some(root), a.start, a.end);
                }
                tr.set_end(root, round_end);
            }

            // Checks, outside the timed round.
            self.check_round(&queries, &answers, report)?;
            self.round += 1;
        }
        Ok(out)
    }

    /// Every answer must be fresh (it represents every record sent) and
    /// bit-identical to the in-process gathered snapshot, which after the
    /// readers is a cache hit.
    fn check_round(
        &mut self,
        queries: &[Request],
        answers: &[Answer],
        report: &mut Report,
    ) -> Result<(), String> {
        let op = self.round;
        let (hist, stats) = self.fleet.snapshot_global().map_err(|e| e.to_string())?;
        for a in answers {
            report.attempted += 1;
            let query = queries[a.reader]
                .as_query()
                .ok_or("reader request is not a histogram query")?;
            match &a.result {
                Ok((value, coverage)) => {
                    if coverage.records_represented != self.sent {
                        report.fail(format!(
                            "round {op}: stale answer ({} of {} records)",
                            coverage.records_represented, self.sent
                        ));
                    } else if query
                        .try_estimate(&*hist)
                        .map_or(true, |direct| direct.to_bits() != value.to_bits())
                    {
                        report.fail(format!("round {op}: answer to {query:?} differs"));
                    }
                }
                Err(e) => report.fail(format!("round {op}: {query:?} failed: {e}")),
            }
        }
        if op < self.cfg.count_rounds {
            self.counts.gather_herror_evals += stats.herror_evals as u64;
        }
        if op + 1 == self.cfg.count_rounds {
            let wal = drain_uploader(self.fleet)?;
            self.counts.counted_end = Some((wal, self.fleet.merge_metrics().merges));
        }
        if self.cfg.sample_rounds.contains(&op) {
            report.attempted += 1;
            drain_uploader(self.fleet)?;
            let shards = fleet::shard_summaries(Truth::Store(self.store), self.cfg.window)?;
            let accepted: Vec<u64> = self
                .fleet
                .metrics_all()
                .iter()
                .map(|m| m.pushes_accepted)
                .collect();
            let recovered: Vec<u64> = shards.iter().map(|s| s.total_pushed()).collect();
            if recovered != accepted {
                report.fail(format!(
                    "round {op}: store recovers {recovered:?} records, shards accepted {accepted:?}"
                ));
                return Ok(());
            }
            let check = fleet::gather_check(self.fleet, &hist, &shards)?;
            if !check.within_bound {
                report.fail(format!(
                    "round {op}: served histogram breaks the gather bound (sse/opt {})",
                    check.sse_over_opt
                ));
            }
            self.sse_ratios.push(check.sse_over_opt);
        }
        Ok(())
    }
}

/// Counts records shed or rejected and durability jobs lost since
/// `before`, as failed operations.
fn fail_losses(fleet: &FleetHandle, before: &WalStatus, after: &WalStatus, report: &mut Report) {
    let lost: u64 = fleet
        .metrics_all()
        .iter()
        .map(|m| m.records_dropped + m.values_rejected)
        .sum();
    if lost > 0 {
        report.failed += lost;
        report
            .notes
            .push(format!("FAIL: {lost} records dropped or rejected"));
    }
    let wal_lost =
        (after.failures - before.failures) + (after.segments_dropped - before.segments_dropped);
    if wal_lost > 0 {
        report.failed += wal_lost;
        report.notes.push(format!(
            "FAIL: {wal_lost} durability jobs failed or dropped"
        ));
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A message if the served fleet cannot be set up, settle, or be torn
/// down.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let cfg = Config::new(opts.scale);
    let mut report = Report {
        config: cfg.json(),
        ..Report::default()
    };
    let (
        Sut {
            store,
            state,
            server,
            clients,
        },
        first_setup,
    ) = setup(&cfg, opts.seed, 0)?;
    report.attempted += cfg.warm_records as u64;

    let (answers_tx, answers) = channel();
    let gate = Arc::new(Barrier::new(READERS));
    let readers = clients
        .into_iter()
        .enumerate()
        .map(|(id, c)| spawn_reader(id, c, Arc::clone(&gate), answers_tx.clone()))
        .collect();
    drop(answers_tx);
    let fleet = state.fleet().clone();
    let wal_before = drain_uploader(&fleet)?;
    let merges_before = fleet.merge_metrics().merges;
    let mut lp = Loop {
        cfg: &cfg,
        seed: opts.seed,
        state: &state,
        fleet: &fleet,
        store: &store,
        readers,
        answers,
        rng: SplitMix::new(opts.seed ^ 0x1f7e_5ead_e700_0002),
        sent: cfg.warm_records as u64,
        round: 0,
        counts: Counts::default(),
        sse_ratios: Vec::new(),
    };

    let outcome = (|| -> Result<(), String> {
        if !opts.trace {
            let mut p = lp.phase(opts.seconds, &mut report, None)?;
            let wal_after = drain_uploader(&fleet)?;
            fail_losses(&fleet, &wal_before, &wal_after, &mut report);
            report.metrics = vec![
                ("ops_per_s", p.meter.ops_per_s()),
                ("op_p50_us", p.fresh_us.quantile(0.5)),
                ("op_p90_us", p.fresh_us.quantile(0.9)),
                (
                    "sse_over_opt_max",
                    lp.sse_ratios.iter().copied().fold(0.0, f64::max),
                ),
                ("peak_rss_mb", p.meter.peak_rss_mb()),
            ];
            return Ok(());
        }
        let untraced = lp.phase(opts.seconds / 2.0, &mut report, None)?;
        let wal = drain_uploader(&fleet)?;
        fail_losses(&fleet, &wal_before, &wal, &mut report);
        let dropped: u64 = fleet.metrics_all().iter().map(|m| m.records_dropped).sum();
        let (counted, merges_counted) = lp.counts.counted_end.ok_or("counted rounds missing")?;
        let n = cfg.count_rounds as f64;
        let per_round = |after: u64, before: u64| (after - before) as f64 / n;
        let phases = ["decode", "answer", "encode"].map(|p| state.phase_latency(p));
        for recorder in &phases {
            recorder.reset();
        }
        let mut tracer = Tracer::new();
        let traced = lp.phase(opts.seconds / 2.0, &mut report, Some(&mut tracer))?;
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
            (
                "serve.ingest_us_per_slab",
                median(&mut tracer.durations_us("serve.ingest")),
            ),
            (
                "sharded.barrier_us",
                median(&mut tracer.durations_us("sharded.barrier")),
            ),
            ("sharded.queue_depth_max", lp.counts.queue_depth_max as f64),
            ("sharded.records_dropped", dropped as f64),
            (
                "kernel.shard_build_us",
                median(&mut tracer.durations_us("kernel.shard_build")),
            ),
            (
                "merge.merges_per_round",
                per_round(merges_counted, merges_before),
            ),
            (
                "merge.herror_evals_per_gather",
                lp.counts.gather_herror_evals as f64 / n,
            ),
            (
                "durability.amplification",
                (counted.bytes_written - wal_before.bytes_written) as f64
                    / (counted.bytes_ingested - wal_before.bytes_ingested) as f64,
            ),
            (
                "durability.segments_per_round",
                per_round(counted.segments_written, wal_before.segments_written),
            ),
            (
                "durability.frames_per_round",
                per_round(counted.frames_written, wal_before.frames_written),
            ),
            (
                "durability.retries",
                (wal.retries - wal_before.retries) as f64,
            ),
            (
                "durability.failures",
                (wal.failures - wal_before.failures) as f64,
            ),
            (
                "durability.segments_dropped",
                (wal.segments_dropped - wal_before.segments_dropped) as f64,
            ),
            ("trace.unaccounted_share", tracer.unaccounted_share("round")),
            (
                "trace.overhead_ratio",
                untraced.meter.ops_per_s() / traced.meter.ops_per_s(),
            ),
        ];
        report.notes.extend(tracer.summary());
        crate::trace_out(opts, &tracer, &mut report);
        Ok(())
    })();

    // Stop the readers (closing their job queues) and take their
    // connections back, then stop the server and the fleet.
    let Loop { readers, .. } = lp;
    let mut clients = Vec::with_capacity(READERS);
    for reader in readers {
        drop(reader.jobs);
        clients.push(
            reader
                .handle
                .join()
                .map_err(|_| "reader thread panicked".to_string())?,
        );
    }
    drop(fleet);
    fleet::teardown(clients, server, state)?;
    outcome?;
    if !opts.trace {
        // The remaining set-ups run after the measured phase, so its
        // memory reflects one served fleet, not every set-up's leftovers.
        let mut setup_s = vec![first_setup.as_secs_f64()];
        for rep in 1..cfg.setup_reps {
            let (sut, elapsed) = setup(&cfg, opts.seed, rep)?;
            setup_s.push(elapsed.as_secs_f64());
            fleet::teardown(sut.clients, sut.server, sut.state)?;
        }
        report.metrics.insert(0, ("setup_s", median(&mut setup_s)));
    }
    Ok(report)
}
