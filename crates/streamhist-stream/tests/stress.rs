//! Stress and failure-injection tests for the streaming algorithms:
//! adversarial value patterns, extreme magnitudes, degenerate parameters,
//! and rejection of invalid input.

use streamhist_optimal::optimal_sse;
use streamhist_stream::{AgglomerativeHistogram, FixedWindowHistogram, TimeWindowHistogram};

/// Several adversarial streams the interval machinery must survive.
fn adversarial_streams() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("constant", vec![7.0; 300]),
        (
            "alternating extremes",
            (0..300)
                .map(|i| if i % 2 == 0 { 0.0 } else { 1e6 })
                .collect(),
        ),
        ("single outlier", {
            let mut v = vec![1.0; 300];
            v[150] = 1e9;
            v
        }),
        ("monotone ramp", (0..300).map(|i| i as f64).collect()),
        (
            "geometric growth",
            (0..60).map(|i| 1.5f64.powi(i)).collect(),
        ),
        (
            "negative and positive",
            (0..300).map(|i| ((i * 37) % 21) as f64 - 10.0).collect(),
        ),
        (
            "tiny values",
            (0..300).map(|i| ((i * 13) % 7) as f64 * 1e-9).collect(),
        ),
        (
            "large offset",
            (0..300).map(|i| 1e10 + ((i * 13) % 7) as f64).collect(),
        ),
        ("zeros then step", {
            let mut v = vec![0.0; 150];
            v.extend(vec![5.0; 150]);
            v
        }),
    ]
}

#[test]
fn fixed_window_survives_adversarial_streams() {
    for (name, data) in adversarial_streams() {
        let b = 4;
        let eps = 0.5;
        let mut fw = FixedWindowHistogram::new(32, b, eps);
        for (i, &v) in data.iter().enumerate() {
            fw.push(v);
            if i % 37 == 0 {
                let win = fw.window();
                let h = fw.histogram();
                assert_eq!(h.domain_len(), win.len(), "{name}");
                let approx = h.sse(&win);
                let opt = optimal_sse(&win, b);
                // Large-offset data amplifies FP cancellation inside the
                // O(1) SQERROR identity; allow a magnitude-aware slack.
                let scale: f64 = win.iter().map(|v| v * v).sum();
                let slack = 1e-9 * scale.max(1.0);
                assert!(
                    approx <= (1.0 + eps) * opt + slack,
                    "{name} @ {i}: {approx} vs opt {opt}"
                );
            }
        }
    }
}

#[test]
fn agglomerative_survives_adversarial_streams() {
    for (name, data) in adversarial_streams() {
        let b = 4;
        let eps = 0.5;
        let mut agg = AgglomerativeHistogram::new(b, eps);
        for &v in &data {
            agg.push(v);
        }
        let h = agg.histogram();
        assert_eq!(h.domain_len(), data.len(), "{name}");
        let approx = h.sse(&data);
        let opt = optimal_sse(&data, b);
        let scale: f64 = data.iter().map(|v| v * v).sum();
        assert!(
            approx <= (1.0 + eps) * opt + 1e-9 * scale.max(1.0),
            "{name}: {approx} vs opt {opt}"
        );
    }
}

#[test]
fn queue_space_stays_sublinear_on_long_smooth_streams() {
    // The paper's space bound: O((B^2 / eps) log n) intervals total. On a
    // 50k-point smooth stream the queues must stay far below n.
    let data: Vec<f64> = (0..50_000).map(|i| (i as f64).sqrt() * 10.0).collect();
    let mut agg = AgglomerativeHistogram::new(6, 0.5);
    for &v in &data {
        agg.push(v);
    }
    let total: usize = agg.kernel_stats().queue_sizes.iter().sum();
    assert!(total < 5_000, "total queue size {total} for n=50000");
}

#[test]
fn window_of_one_point() {
    let mut fw = FixedWindowHistogram::new(1, 3, 0.1);
    for v in [5.0, 9.0, -2.0] {
        let h = fw.push_and_build(v);
        assert_eq!(h.domain_len(), 1);
        assert_eq!(h.point(0), v);
    }
}

#[test]
fn very_small_eps_still_terminates_and_is_tight() {
    let data: Vec<f64> = (0..200).map(|i| ((i * 31 + 5) % 23) as f64).collect();
    let b = 4;
    let mut fw = FixedWindowHistogram::new(64, b, 1e-4);
    for &v in &data {
        fw.push(v);
    }
    let win = fw.window();
    let approx = fw.histogram().sse(&win);
    let opt = optimal_sse(&win, b);
    assert!(approx <= (1.0 + 1e-4) * opt + 1e-6, "{approx} vs {opt}");
}

#[test]
fn huge_delta_still_returns_valid_histograms() {
    // delta far above 1: queues collapse to very few intervals; the result
    // degrades gracefully but stays structurally valid.
    let data: Vec<f64> = (0..200).map(|i| ((i * 7) % 31) as f64).collect();
    let mut fw = FixedWindowHistogram::builder(64, 4, 0.5)
        .delta(100.0)
        .build()
        .unwrap();
    for &v in &data {
        fw.push(v);
    }
    let h = fw.histogram();
    assert!(h.num_buckets() <= 4);
    assert_eq!(h.domain_len(), 64);
}

#[test]
#[should_panic(expected = "finite")]
fn fixed_window_rejects_nan() {
    let mut fw = FixedWindowHistogram::new(8, 2, 0.1);
    fw.push(f64::NAN);
}

#[test]
#[should_panic(expected = "finite")]
fn fixed_window_rejects_infinity() {
    let mut fw = FixedWindowHistogram::new(8, 2, 0.1);
    fw.push(f64::INFINITY);
}

#[test]
#[should_panic(expected = "finite")]
fn agglomerative_rejects_nan() {
    let mut agg = AgglomerativeHistogram::new(2, 0.1);
    agg.push(f64::NAN);
}

#[test]
#[should_panic(expected = "finite")]
fn time_window_rejects_nan() {
    let mut tw = TimeWindowHistogram::new(10, 2, 0.1);
    tw.push_at(0, f64::NAN);
}

#[test]
fn long_run_numerical_stability() {
    // 200k pushes through a small window with a large constant offset: the
    // rebase policy must keep FP drift from corrupting answers.
    let mut fw = FixedWindowHistogram::new(128, 4, 0.5);
    let offset = 1e8;
    for i in 0..200_000u64 {
        fw.push(offset + ((i * 13 + 7) % 10) as f64);
    }
    let win = fw.window();
    let h = fw.histogram();
    let approx = h.sse(&win);
    let opt = optimal_sse(&win, 4);
    // The O(1) SQERROR identity cancels (Σv)² against Σv²; at offset 1e8
    // over a 128-point window that costs up to (128·1e8)²·ε_machine ≈ 2e4
    // of absolute SSE precision — an inherent property of the paper's
    // prefix-sum formulation, not drift (drift would also move heights).
    let sum: f64 = win.iter().sum();
    let cancellation = sum * sum * f64::EPSILON;
    assert!(
        approx <= 1.5 * opt + 2.0 * cancellation,
        "{approx} vs {opt}"
    );
    // Heights must sit near the offset, not drift away from it.
    for b in h.buckets() {
        assert!(
            (b.height - offset).abs() < 100.0,
            "height {} drifted",
            b.height
        );
    }
}
