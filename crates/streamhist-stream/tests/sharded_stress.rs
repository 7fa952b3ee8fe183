//! Resilience and concurrency tests for the sharded serving layer.
//!
//! The unit tests in `sharded.rs` pin down each mechanism in isolation;
//! these tests exercise them *together*, the way a serving deployment
//! would: malformed input and a worker death in one fleet (with recovery),
//! and many producers hammering a `DropNewest` fleet while a respawner
//! cycles a shard under it.

use std::sync::{Arc, RwLock};
use std::time::Duration;
use streamhist_obs::{parse_exposition, MetricsRegistry};
use streamhist_stream::{FixedWindowHistogram, OverloadPolicy, ShardError, ShardedFixedWindow};

/// The acceptance scenario, end to end: NaNs are rejected without killing
/// anything, an injected worker panic turns into `Err(ShardError)` on
/// exactly the dead shard, the rest of the fleet keeps serving, and
/// `respawn_shard` restores service — with every metric counter matching
/// the injected event counts exactly.
#[test]
fn injected_failures_leave_the_fleet_serving() {
    let mut sharded = ShardedFixedWindow::new(4, 32, 3, 0.2);

    // Healthy traffic to every shard, plus exactly 3 malformed records
    // aimed at shard 2.
    for shard in 0..4 {
        for i in 0..50u64 {
            sharded
                .push_to(shard, ((i * 7 + shard as u64) % 11) as f64)
                .expect("all workers alive");
        }
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        sharded.push_to(2, bad).expect("rejected, not fatal");
    }
    let (h2, _) = sharded.snapshot(2).expect("shard 2 serving after NaNs");
    assert_eq!(h2.domain_len(), 32, "window holds only the finite records");

    // Kill shard 2's worker.
    sharded.inject_worker_panic(2).expect("delivered");
    assert_eq!(sharded.snapshot(2), Err(ShardError { shard: 2 }));
    assert_eq!(sharded.push_to(2, 1.0), Err(ShardError { shard: 2 }));

    // The other three shards are untouched by the death.
    for shard in [0usize, 1, 3] {
        sharded
            .push_to(shard, 5.0)
            .expect("unaffected shard ingests");
        let (h, _) = sharded.snapshot(shard).expect("unaffected shard serves");
        assert_eq!(h.domain_len(), 32, "shard {shard}");
    }

    // Recovery: the panicked worker restores from its last checkpoint —
    // the boot checkpoint here, since 50 accepted records never reached
    // the default 1024-record auto-checkpoint interval — so the whole
    // epoch is reported lost and the index serves again from empty.
    let report = sharded.respawn_shard(2);
    assert_eq!(report.restored_len, 0);
    assert_eq!(report.lost_since_checkpoint, 50);
    for i in 0..10u64 {
        sharded
            .push_to(2, i as f64)
            .expect("respawned shard ingests");
    }
    let (h2, _) = sharded.snapshot(2).expect("respawned shard serves");
    assert_eq!(h2.domain_len(), 10);

    // Counters match the injected event counts exactly (snapshots acted
    // as barriers, so every counter is quiescent).
    let m = sharded.metrics(2);
    assert_eq!(m.values_rejected, 3, "one per malformed record");
    assert_eq!(m.respawns, 1, "one per injected death");
    assert_eq!(m.records_dropped, 0, "Block policy never sheds");
    assert_eq!(m.pushes_accepted, 50 + 10, "pre-death + post-respawn");
    assert_eq!(m.queue_depth, 0);
    for shard in [0usize, 1, 3] {
        let m = sharded.metrics(shard);
        assert_eq!(m.values_rejected, 0, "shard {shard}");
        assert_eq!(m.respawns, 0, "shard {shard}");
        assert_eq!(m.pushes_accepted, 51, "shard {shard}");
    }

    let summaries = sharded.join();
    assert!(summaries.iter().all(Result::is_ok), "whole fleet joins");
}

/// Many producers, a tiny `DropNewest` queue, and a respawner cycling one
/// shard, all at once. Asserts the properties that must survive the chaos:
/// no deadlock (the test finishes), exact per-shard accounting
/// (accepted + rejected + dropped == sent), bit-identical histograms on
/// the paced shards versus an unsharded reference, drops actually observed
/// on the flooded shards, and a drained fleet at the end.
#[test]
fn concurrent_producers_respawns_and_overload_keep_the_books_straight() {
    const SHARDS: usize = 8;
    const CAPACITY: usize = 64;
    const B: usize = 4;
    const EPS: f64 = 0.1;
    const FLOOD_PER_SHARD: u64 = 50_000;

    // Attach a metrics registry so the scraped exposition can be
    // reconciled against `metrics_all()` after the chaos: both read the
    // same atomic cells, so they must agree *exactly*.
    let registry = Arc::new(MetricsRegistry::new());
    let sharded = RwLock::new(
        ShardedFixedWindow::builder(SHARDS, CAPACITY, B, EPS)
            .queue_capacity(2)
            .policy(OverloadPolicy::DropNewest)
            .registry(Arc::clone(&registry))
            .fleet_label("stress")
            .build()
            .expect("valid parameters"),
    );

    // Producers own disjoint shards (single-writer per shard, so the paced
    // shards see a deterministic record order):
    //
    // * The PACED producer (shards 0, 1) sends one batch per iteration and
    //   then snapshots the shard. The snapshot reply is a barrier, so the
    //   queue is empty before the next batch and — even with
    //   queue_capacity 2 — nothing is ever shed. Its stream includes NaNs
    //   at known positions.
    // * FLOOD producers (shards 2..8, one thread each) issue single pushes
    //   with no barrier, so the 2-slot queue sheds under pressure.
    // * The main thread RESPAWNS shard 7 repeatedly underneath its flood
    //   producer, taking the write lock each time.
    let paced_values: Vec<f64> = (0..3200)
        .map(|i| {
            if i % 37 == 0 {
                f64::NAN
            } else {
                ((i * 13 + 5) % 23) as f64
            }
        })
        .collect();

    let mut sent = [0u64; SHARDS];
    let mut respawns_done = 0u64;
    std::thread::scope(|scope| {
        let sharded = &sharded;
        let paced = &paced_values;
        let paced_handle = scope.spawn(move || {
            let mut sent_paced = 0u64;
            for shard in 0..2usize {
                for chunk in paced.chunks(16) {
                    let guard = sharded.read().expect("not poisoned");
                    guard
                        .push_batch(shard, chunk.to_vec())
                        .expect("paced shard worker alive");
                    sent_paced += chunk.len() as u64;
                    guard.snapshot(shard).expect("paced shard serves");
                }
            }
            sent_paced
        });
        let flood = |shard: usize| {
            move || {
                let mut sent_flood = 0u64;
                for i in 0..FLOOD_PER_SHARD {
                    let guard = sharded.read().expect("not poisoned");
                    guard
                        .push_to(shard, ((i * 31 + shard as u64) % 19) as f64)
                        .expect("graceful respawn never kills a worker");
                    sent_flood += 1;
                }
                sent_flood
            }
        };
        let flood_handles: Vec<_> = (2..SHARDS).map(|s| scope.spawn(flood(s))).collect();

        // Graceful respawns drain the old worker fully and seed the new
        // worker with its summary — a lossless handoff — so the
        // accounting identity below survives them.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(5));
            let mut guard = sharded.write().expect("not poisoned");
            let report = guard.respawn_shard(7);
            assert_eq!(
                report.lost_since_checkpoint, 0,
                "graceful respawn is lossless"
            );
            respawns_done += 1;
        }

        let paced_total = paced_handle.join().expect("paced producer");
        assert_eq!(paced_total, 2 * paced_values.len() as u64);
        sent[0] = paced_values.len() as u64;
        sent[1] = paced_values.len() as u64;
        for (shard, handle) in (2..SHARDS).zip(flood_handles) {
            sent[shard] = handle.join().expect("flood producer");
        }
    });
    let sharded = sharded.into_inner().expect("not poisoned");

    // Quiesce every shard, then check the books.
    let snapshots = sharded.snapshot_all();
    assert!(snapshots.iter().all(Result::is_ok), "no worker died");
    let metrics = sharded.metrics_all();

    // Exact conservation per shard: every record sent was accepted,
    // rejected, or counted as dropped — nothing vanishes, even across
    // graceful respawns.
    for shard in 0..SHARDS {
        let m = &metrics[shard];
        assert_eq!(
            m.pushes_accepted + m.values_rejected + m.records_dropped,
            sent[shard],
            "conservation on shard {shard}: {m:?}"
        );
        assert_eq!(m.queue_depth, 0, "shard {shard} drained");
    }

    // Registry reconciliation: the Prometheus exposition is served from
    // the very same atomic cells that back `ShardMetrics`, so every
    // scraped per-shard series must equal the struct view exactly — and
    // the conservation identity must hold at the registry level too.
    let samples =
        parse_exposition(&registry.text_exposition()).expect("exposition is valid Prometheus text");
    let series = |name: &str, shard: usize| -> u64 {
        let shard_label = shard.to_string();
        let sample = samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.iter().any(|(k, v)| k == "fleet" && v == "stress")
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "shard" && *v == shard_label)
            })
            .unwrap_or_else(|| {
                panic!("missing series {name}{{fleet=\"stress\",shard=\"{shard}\"}}")
            });
        sample.value as u64
    };
    let mut scraped_accepted = 0u64;
    let mut scraped_rejected = 0u64;
    let mut scraped_dropped = 0u64;
    for shard in 0..SHARDS {
        let m = &metrics[shard];
        let accepted = series("streamhist_shard_pushes_accepted_total", shard);
        let rejected = series("streamhist_shard_values_rejected_total", shard);
        let dropped = series("streamhist_shard_records_dropped_total", shard);
        assert_eq!(
            accepted, m.pushes_accepted,
            "scraped accepted, shard {shard}"
        );
        assert_eq!(
            rejected, m.values_rejected,
            "scraped rejected, shard {shard}"
        );
        assert_eq!(dropped, m.records_dropped, "scraped dropped, shard {shard}");
        assert_eq!(
            series("streamhist_shard_respawns_total", shard),
            m.respawns,
            "scraped respawns, shard {shard}"
        );
        assert_eq!(
            series("streamhist_shard_queue_depth", shard),
            0,
            "scraped queue depth, shard {shard}"
        );
        assert_eq!(
            accepted + rejected + dropped,
            sent[shard],
            "registry-level conservation on shard {shard}"
        );
        scraped_accepted += accepted;
        scraped_rejected += rejected;
        scraped_dropped += dropped;
    }
    let total_sent: u64 = sent.iter().sum();
    assert_eq!(
        scraped_accepted + scraped_rejected + scraped_dropped,
        total_sent,
        "fleet-wide conservation from the scraped exposition alone"
    );

    // Paced shards: nothing shed, NaNs counted exactly, histogram
    // bit-identical to an unsharded single-thread reference over the same
    // (finite) stream.
    let nan_count = paced_values.iter().filter(|v| v.is_nan()).count() as u64;
    let mut reference = FixedWindowHistogram::new(CAPACITY, B, EPS);
    for &v in paced_values.iter().filter(|v| v.is_finite()) {
        reference.push(v);
    }
    let (expect_h, expect_stats) = reference.histogram_with_stats();
    for shard in 0..2usize {
        let m = &metrics[shard];
        assert_eq!(m.records_dropped, 0, "paced shard {shard} never sheds");
        assert_eq!(m.values_rejected, nan_count, "paced shard {shard}");
        let snap = snapshots[shard].as_ref().expect("alive");
        assert_eq!(snap.0, expect_h, "paced shard {shard} bit-identical");
        assert_eq!(snap.1, expect_stats, "paced shard {shard} stats");
    }

    // Flooded shards: 2-slot queues against unpaced producers must
    // actually shed somewhere in the fleet.
    let flood_dropped: u64 = (2..SHARDS).map(|s| metrics[s].records_dropped).sum();
    assert!(
        flood_dropped > 0,
        "6 x 50k unpaced pushes through 2-slot queues shed nothing"
    );

    // Respawned shard: cumulative counters survive respawns, and because
    // each graceful respawn hands the summary to the next worker
    // generation, the final summary holds every accepted record.
    assert_eq!(metrics[7].respawns, respawns_done);
    let summaries: Vec<FixedWindowHistogram> = sharded
        .join()
        .into_iter()
        .map(|r| r.expect("worker alive"))
        .collect();
    assert_eq!(
        summaries[7].total_pushed(),
        metrics[7].pushes_accepted,
        "lossless handoffs: nothing lost across worker generations"
    );
    for shard in 0..2usize {
        assert_eq!(
            summaries[shard].total_pushed(),
            metrics[shard].pushes_accepted
        );
    }
}

/// The supervisor under real concurrency: producers hammer every shard
/// while a killer thread injects worker panics and a reader takes
/// degraded snapshots, with the supervisor's probe thread respawning
/// shards underneath all of it. Asserts what must survive the chaos:
///
/// * the fleet settles back to all-Live once the kills stop (self-healing
///   actually heals);
/// * fleet-wide conservation — accepted records equal the surviving
///   summaries' totals plus everything the supervisor reported lost;
/// * every concurrent degraded snapshot's coverage is internally honest
///   (never claims more shards or records than the fleet total);
/// * the supervisor's counters reconcile exactly with the scraped
///   Prometheus exposition, and per-shard respawn counters match the
///   supervisor's restart ledger.
///
/// Override the seed with `RECOVERY_SEED=<u64>` to replay a CI failure.
#[test]
fn supervised_fleet_recovers_under_concurrent_chaos() {
    use streamhist_stream::{
        DurabilityOptions, FleetHandle, ShardState, SnapshotPolicy, Supervisor, SupervisorOptions,
    };

    let seed: u64 = std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0A5_7A15);

    const SHARDS: usize = 4;
    const PUSHES_PER_SHARD: u64 = 20_000;
    const KILLS: usize = 12;

    let registry = Arc::new(MetricsRegistry::new());
    let fleet = ShardedFixedWindow::builder(SHARDS, 64, 4, 0.1)
        .durability(DurabilityOptions::default().checkpoint_interval(32))
        .registry(Arc::clone(&registry))
        .fleet_label("supervised")
        .build()
        .expect("valid parameters");
    let handle = FleetHandle::new(fleet);
    // The supervisor's series land in the fleet's registry under its
    // `supervised` label.
    let sup = Supervisor::start(
        handle.clone(),
        SupervisorOptions {
            probe_interval: Duration::from_millis(1),
            ping_timeout: Duration::from_millis(500),
            restart_burst: 4,
            // Always-full token bucket plus a zero flap window: this
            // harness kills on purpose, so rapid deaths are not flapping
            // and restarts must never be deferred or quarantined.
            restart_refill: Duration::ZERO,
            quarantine_after: 1_000_000,
            quarantine_backoff: Duration::ZERO,
            flap_window: Duration::ZERO,
        },
    )
    .expect("valid supervisor options");

    let mut kills_delivered = 0u64;
    std::thread::scope(|scope| {
        let handle = &handle;
        for shard in 0..SHARDS {
            scope.spawn(move || {
                for i in 0..PUSHES_PER_SHARD {
                    // Sends to a dead-but-unrecovered shard fail; those
                    // records were never accepted, so the accepted-based
                    // conservation identity is untouched.
                    let v = ((i * 31 + shard as u64 * 7) % 19) as f64;
                    let _ = handle.push_to(shard, v).expect("valid index");
                    if i % 256 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Reader: concurrent degraded snapshots must always be honest,
        // even mid-kill — included never exceeds the fleet, represented
        // never exceeds the total, and the fraction stays in [0, 1].
        scope.spawn(move || {
            for _ in 0..200 {
                if let Ok((_h, _stats, cov)) =
                    handle.snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.0 })
                {
                    assert!(cov.shards_included >= 1, "an Ok gather includes a shard");
                    assert!(cov.shards_included <= cov.shards_total);
                    assert!(cov.records_represented <= cov.records_total);
                    let f = cov.fraction();
                    assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // Killer: one panic every few milliseconds, round-robin. A kill
        // can race a supervisor respawn and find the worker already dead;
        // only delivered kills count.
        for k in 0..KILLS {
            std::thread::sleep(Duration::from_millis(3));
            if handle
                .inject_worker_panic(k % SHARDS)
                .expect("valid index")
                .is_ok()
            {
                kills_delivered += 1;
            }
        }
    });

    // Self-healing: with the kills stopped, the supervisor must walk the
    // whole fleet back to Live on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if sup.health().iter().all(|h| h.state == ShardState::Live) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "seed {seed}: fleet not fully Live 10s after the last kill: {:?}",
            sup.health()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Quiesce every shard (the snapshot is a barrier), then freeze the
    // supervisor's ledger before reading it.
    for shard in 0..SHARDS {
        handle
            .snapshot_shard(shard)
            .expect("valid index")
            .expect("fleet healthy after recovery");
    }
    let health = sup.health();
    let sm = sup.metrics();
    sup.shutdown();

    assert!(sm.deaths > 0, "seed {seed}: no death was ever observed");
    assert!(
        sm.deaths <= kills_delivered,
        "seed {seed}: more deaths ({}) than delivered kills ({kills_delivered})",
        sm.deaths
    );
    assert_eq!(
        sm.restarts, sm.deaths,
        "seed {seed}: always-full bucket, no quarantine: every death restarts"
    );
    assert_eq!(sm.restarts_deferred, 0, "seed {seed}");
    assert_eq!(sm.quarantines, 0, "seed {seed}: zero flap window");
    assert_eq!(sm.probations, 0, "seed {seed}");

    // Per-shard: the supervisor is the only respawner, so the fleet's
    // respawn counters are exactly its restart ledger.
    let metrics = handle.metrics_all();
    for (h, m) in health.iter().zip(metrics.iter()) {
        assert_eq!(
            m.respawns, h.restarts,
            "seed {seed} shard {}: respawns == supervisor restarts",
            h.shard
        );
        assert_eq!(m.records_dropped, 0, "Block policy never sheds");
        assert_eq!(m.queue_depth, 0, "shard {} drained", h.shard);
    }
    let restarts_sum: u64 = health.iter().map(|h| h.restarts).sum();
    assert_eq!(restarts_sum, sm.restarts, "seed {seed}");

    // Registry reconciliation: the scraped supervisor series are served
    // from the same cells as the struct snapshot.
    let samples =
        parse_exposition(&registry.text_exposition()).expect("exposition is valid Prometheus text");
    let series = |name: &str| -> u64 {
        let sample = samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "fleet" && v == "supervised")
            })
            .unwrap_or_else(|| panic!("missing series {name}{{fleet=\"supervised\"}}"));
        sample.value as u64
    };
    assert_eq!(series("streamhist_supervisor_deaths_total"), sm.deaths);
    assert_eq!(series("streamhist_supervisor_restarts_total"), sm.restarts);
    assert_eq!(
        series("streamhist_supervisor_records_lost_total"),
        sm.records_lost
    );
    assert_eq!(
        series("streamhist_supervisor_shards_live"),
        SHARDS as u64,
        "the last probe pass saw the whole fleet Live"
    );
    assert_eq!(series("streamhist_supervisor_quarantines_total"), 0);

    // Fleet-wide conservation: every accepted record is either in a
    // surviving summary or in the supervisor's loss ledger.
    let accepted_total: u64 = metrics.iter().map(|m| m.pushes_accepted).sum();
    let summaries: Vec<FixedWindowHistogram> = match handle.try_join() {
        Ok(s) => s.into_iter().map(|r| r.expect("worker alive")).collect(),
        Err(_) => panic!("seed {seed}: supervisor shutdown must drop its fleet handle"),
    };
    let surviving_total: u64 = summaries.iter().map(|s| s.total_pushed()).sum();
    assert_eq!(
        accepted_total,
        surviving_total + sm.records_lost,
        "seed {seed}: accepted == surviving + supervisor-reported losses"
    );
}
