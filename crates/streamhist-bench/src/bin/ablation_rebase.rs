//! ABL-REBASE — ablation of the sliding prefix-sum rebase period.
//!
//! The paper's fixed-window algorithm re-anchors the `SUM'`/`SQSUM'`
//! arrays "from time to time (after n iterations)", arguing the `O(n)`
//! cost "amortized over n iterations, can be ignored" (§4.5). This harness
//! measures total push throughput for rebase periods n/4, n, 4n and
//! confirms answers are identical regardless of period.
//!
//! Run: `cargo run --release -p streamhist-bench --bin ablation_rebase`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use streamhist_bench::{full_scale, timed};
use streamhist_data::utilization_trace;
use streamhist_stream::FixedWindowHistogram;

fn main() {
    let window = 4_096usize;
    let stream_len = if full_scale() { 4_000_000 } else { 1_000_000 };
    let stream = utilization_trace(stream_len, 616);
    let (b, eps) = (8usize, 0.5f64);

    println!("ABL-REBASE: {stream_len} pushes through a {window}-window (B = {b}, eps = {eps})\n");
    println!(
        "{:>12} {:>12} {:>14} {:>18}",
        "period", "push total", "ns/push", "final boundaries"
    );

    let mut reference: Option<Vec<usize>> = None;
    for (name, period) in [
        ("n/4", window / 4),
        ("n (paper)", window),
        ("4n", window * 4),
    ] {
        let mut fw = FixedWindowHistogram::builder(window, b, eps)
            .rebase_period(period)
            .build()
            .expect("valid ablation parameters");
        let ((), t) = timed(|| {
            for &v in &stream {
                fw.push(v);
            }
        });
        let ends = fw.histogram().bucket_ends();
        match &reference {
            None => reference = Some(ends.clone()),
            Some(r) => assert_eq!(
                r, &ends,
                "rebase period must not change the computed histogram"
            ),
        }
        println!(
            "{:>12} {:>11.3}s {:>14.1} {:>18}",
            name,
            t.as_secs_f64(),
            t.as_secs_f64() * 1e9 / stream_len as f64,
            format!("{} buckets", ends.len())
        );
        println!("csv,ablation_rebase,{period},{}", t.as_secs_f64());
    }
    println!("\n(all periods produced identical histograms; push cost stays O(1) amortized)");
}
