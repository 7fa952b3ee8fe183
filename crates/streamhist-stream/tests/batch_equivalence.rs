//! Batch ingestion must be indistinguishable from per-point ingestion:
//! `push_batch` chunks slabs at rebase boundaries and defers the
//! interval-list rebuild, but the observable state — window contents,
//! rebased `SUM'`/`SQSUM'` prefix frame, the histogram the kernel builds
//! and every instrumentation counter — has to come out **bit for bit**
//! identical to driving the same values through `try_push` one at a time.
//!
//! The sweep deliberately straddles every alignment hazard: batch sizes
//! `{1, n-1, n, n+1, 3n}` against window capacity `n` (so slabs end just
//! before, exactly on, and just past both window-wrap and rebase
//! boundaries), plus NaN/infinity-laced slabs exercising the
//! partial-acceptance path.

use streamhist_stream::{
    AgglomerativeHistogram, FixedWindowHistogram, ShardedFixedWindow, TimeWindowHistogram,
};

/// Deterministic pseudo-random stream (splitmix64 → uniform in [0, 100)).
fn stream(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        })
        .collect()
}

/// Asserts two fixed-window summaries are observationally identical,
/// down to the bit pattern of every histogram boundary/height and every
/// kernel counter.
fn assert_fixed_windows_identical(seq: &FixedWindowHistogram, bat: &FixedWindowHistogram) {
    assert_eq!(seq.len(), bat.len());
    assert_eq!(seq.total_pushed(), bat.total_pushed());
    let (wa, wb) = (seq.window(), bat.window());
    assert_eq!(wa.len(), wb.len());
    for (i, (a, b)) in wa.iter().zip(&wb).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "window value {i}: {a} vs {b}");
    }
    let (ha, sa) = seq.histogram_with_stats();
    let (hb, sb) = bat.histogram_with_stats();
    assert_eq!(*ha, *hb, "histograms diverged");
    assert_eq!(sa, sb, "kernel stats diverged");
    assert_eq!(
        sa.herror.to_bits(),
        sb.herror.to_bits(),
        "HERROR bit pattern diverged: {} vs {}",
        sa.herror,
        sb.herror
    );
}

#[test]
fn fixed_window_batch_sizes_match_sequential_across_wraps() {
    let n = 64;
    let data = stream(0xBA7C, 5 * n + 7); // several full window wraps
    for batch in [1, n - 1, n, n + 1, 3 * n] {
        let mut seq = FixedWindowHistogram::new(n, 8, 0.1);
        let mut bat = FixedWindowHistogram::new(n, 8, 0.1);
        for slab in data.chunks(batch) {
            for &v in slab {
                seq.push(v);
            }
            let out = bat.push_batch(slab);
            assert_eq!((out.accepted, out.rejected), (slab.len(), 0));
            // Compare at every slab boundary, not just at the end, so a
            // divergence is pinned to the slab that introduced it.
            assert_fixed_windows_identical(&seq, &bat);
        }
    }
}

#[test]
fn fixed_window_batch_straddles_rebase_boundaries() {
    // A small explicit rebase period so modest slabs cross several rebase
    // points; push_slab must fire the rebase after exactly the same value
    // as per-point mode for the frames to stay bit-identical.
    let n = 48;
    let data = stream(0x5EED, 4 * n);
    for batch in [5, n - 1, n + 1, 2 * n + 3] {
        let mut seq = FixedWindowHistogram::builder(n, 6, 0.2)
            .rebase_period(7)
            .build()
            .unwrap();
        let mut bat = FixedWindowHistogram::builder(n, 6, 0.2)
            .rebase_period(7)
            .build()
            .unwrap();
        for slab in data.chunks(batch) {
            for &v in slab {
                seq.push(v);
            }
            bat.push_batch(slab);
        }
        assert_fixed_windows_identical(&seq, &bat);
    }
}

#[test]
fn fixed_window_rejects_non_finite_mid_slab_and_keeps_going() {
    let n = 32;
    let clean = stream(0xF00D, 3 * n);
    // Lace the stream with non-finite junk at irregular positions.
    let mut laced = Vec::new();
    for (i, &v) in clean.iter().enumerate() {
        if i % 17 == 3 {
            laced.push(f64::NAN);
        }
        if i % 29 == 11 {
            laced.push(f64::INFINITY);
        }
        laced.push(v);
        if i % 23 == 7 {
            laced.push(f64::NEG_INFINITY);
        }
    }
    let junk = laced.len() - clean.len();

    let mut seq = FixedWindowHistogram::new(n, 8, 0.1);
    for &v in &clean {
        seq.push(v);
    }

    for batch in [1, 13, n, laced.len()] {
        let mut bat = FixedWindowHistogram::new(n, 8, 0.1);
        let mut accepted = 0;
        let mut rejected = 0;
        for slab in laced.chunks(batch) {
            let out = bat.push_batch(slab);
            accepted += out.accepted;
            rejected += out.rejected;
        }
        assert_eq!(accepted, clean.len(), "batch={batch}");
        assert_eq!(rejected, junk, "batch={batch}");
        // Rejected values must leave no trace: state matches a filtered
        // sequential push of the clean values alone.
        assert_fixed_windows_identical(&seq, &bat);
    }
}

#[test]
fn all_nan_slab_is_rejected_wholesale_and_leaves_state_unchanged() {
    let mut fw = FixedWindowHistogram::new(16, 4, 0.3);
    let warm = stream(1, 40);
    fw.push_batch(&warm);
    let before = fw.histogram();
    let gen_before = fw.total_pushed();
    let out = fw.push_batch(&[f64::NAN, f64::INFINITY, f64::NAN]);
    assert_eq!((out.accepted, out.rejected), (0, 3));
    assert_eq!(fw.total_pushed(), gen_before);
    // The cached snapshot is still valid — same Arc, no rebuild.
    assert!(std::sync::Arc::ptr_eq(&before, &fw.histogram()));
}

#[test]
fn empty_slab_is_a_no_op() {
    let mut fw = FixedWindowHistogram::new(16, 4, 0.3);
    fw.push_batch(&stream(2, 20));
    let before = fw.histogram();
    let out = fw.push_batch(&[]);
    assert_eq!((out.accepted, out.rejected), (0, 0));
    assert!(std::sync::Arc::ptr_eq(&before, &fw.histogram()));
}

#[test]
fn agglomerative_batch_matches_sequential() {
    let data = stream(0xA661, 600);
    for batch in [1, 7, 64, 600] {
        let mut seq = AgglomerativeHistogram::new(8, 0.1);
        let mut bat = AgglomerativeHistogram::new(8, 0.1);
        for slab in data.chunks(batch) {
            for &v in slab {
                seq.push(v);
            }
            let out = bat.push_batch(slab);
            assert_eq!((out.accepted, out.rejected), (slab.len(), 0));
        }
        assert_eq!(seq.len(), bat.len());
        assert_eq!(*seq.histogram(), *bat.histogram(), "batch={batch}");
    }
}

#[test]
fn agglomerative_batch_partial_acceptance_counts() {
    let mut agg = AgglomerativeHistogram::new(4, 0.2);
    let out = agg.push_batch(&[1.0, f64::NAN, 2.0, f64::NEG_INFINITY, 3.0]);
    assert_eq!((out.accepted, out.rejected), (3, 2));
    assert_eq!(agg.len(), 3);
}

#[test]
fn time_window_batch_matches_sequential() {
    let data = stream(0x71AE, 500);
    for batch in [1, 9, 100] {
        let mut seq = TimeWindowHistogram::new(128, 6, 0.2);
        let mut bat = TimeWindowHistogram::new(128, 6, 0.2);
        let mut ts = 0u64;
        for slab in data.chunks(batch) {
            ts += 3; // all values in a slab share the arrival timestamp
            for &v in slab {
                seq.push_at(ts, v);
            }
            let out = bat.push_batch_at(ts, slab);
            assert_eq!((out.accepted, out.rejected), (slab.len(), 0));
        }
        assert_eq!(seq.len(), bat.len());
        assert_eq!(seq.window_with_times(), bat.window_with_times());
        assert_eq!(*seq.histogram(), *bat.histogram(), "batch={batch}");
    }
}

#[test]
fn sharded_scatter_accounts_for_every_value() {
    let shards = 3;
    let sw = ShardedFixedWindow::new(shards, 64, 6, 0.2);
    let data = stream(0x5CA7, 1_000);
    for slab in data.chunks(50) {
        sw.push_batch_scatter(slab).unwrap();
    }
    // Snapshot each shard first: the request is a barrier behind every
    // queued push, so the counters below are final.
    for s in 0..shards {
        let _ = sw.snapshot(s).unwrap();
    }
    // Scatter never drops or duplicates: accepted counts across shards sum
    // to the stream length (all values finite, lossless policy).
    let metrics = sw.metrics_all();
    assert_eq!(metrics.len(), shards);
    let accepted: u64 = metrics.iter().map(|m| m.pushes_accepted).sum();
    assert_eq!(accepted, data.len() as u64);
    let rejected: u64 = metrics.iter().map(|m| m.values_rejected).sum();
    assert_eq!(rejected, 0);
    let fws = sw.join();
    let total: u64 = fws
        .into_iter()
        .map(|r| r.expect("worker alive").total_pushed())
        .sum();
    assert_eq!(total, data.len() as u64);
}
