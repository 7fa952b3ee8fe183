//! ABL-DELTA — ablation of the interval growth factor δ.
//!
//! The paper sets δ = ε/(2B) so the per-level (1+δ) losses compound to at
//! most (1+ε) across B levels (§4.3/§4.5). This harness measures what
//! actually happens for coarser δ policies: δ = ε (no per-level headroom)
//! and δ = ε/B, against the paper's δ = ε/(2B) — reporting the realized
//! worst-case SSE ratio vs. the optimum and the interval-queue sizes
//! (construction work) each policy pays.
//!
//! Run: `cargo run --release -p streamhist-bench --bin ablation_delta`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use streamhist_bench::full_scale;
use streamhist_data::utilization_trace;
use streamhist_optimal::optimal_sse;
use streamhist_stream::FixedWindowHistogram;

fn main() {
    let window = 512usize;
    let slides = if full_scale() { 2_000 } else { 400 };
    let stream = utilization_trace(window + slides, 4_242);
    let b = 8usize;
    let eps = 0.1f64;

    println!("ABL-DELTA: window {window}, B {b}, eps {eps}, {slides} slide positions\n");
    println!(
        "{:>14} {:>12} {:>12} {:>14} {:>12}",
        "delta policy", "worst ratio", "mean ratio", "queue total", "evals/build"
    );

    let policies: [(&str, f64); 3] = [
        ("eps/(2B)", eps / (2.0 * b as f64)),
        ("eps/B", eps / b as f64),
        ("eps", eps),
    ];

    for (name, delta) in policies {
        let mut fw = FixedWindowHistogram::builder(window, b, eps)
            .delta(delta)
            .build()
            .expect("valid ablation parameters");
        for &v in &stream[..window] {
            fw.push(v);
        }
        let mut worst: f64 = 1.0;
        let mut sum_ratio = 0.0;
        let mut count = 0usize;
        let mut queue_total = 0usize;
        let mut evals_total = 0usize;
        for s in 0..slides {
            fw.push(stream[window + s]);
            // Measure every 8th slide to keep the exact DP affordable.
            if s % 8 != 0 {
                continue;
            }
            let (h, stats) = fw.histogram_with_stats();
            let win = fw.window();
            let opt = optimal_sse(&win, b);
            let ratio = if opt <= 1e-9 {
                if h.sse(&win) <= 1e-6 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                h.sse(&win) / opt
            };
            worst = worst.max(ratio);
            sum_ratio += ratio;
            count += 1;
            queue_total += stats.queue_sizes.iter().sum::<usize>();
            evals_total += stats.herror_evals;
        }
        println!(
            "{:>14} {:>12.5} {:>12.5} {:>14} {:>12}",
            name,
            worst,
            sum_ratio / count as f64,
            queue_total / count,
            evals_total / count
        );
        println!(
            "csv,ablation_delta,{name},{delta},{worst},{},{},{}",
            sum_ratio / count as f64,
            queue_total / count,
            evals_total / count
        );
    }
    println!(
        "\n(guarantee bound for eps = {eps}: ratio <= {:.2}; coarser deltas trade \
         accuracy headroom for smaller queues)",
        1.0 + eps
    );
}
