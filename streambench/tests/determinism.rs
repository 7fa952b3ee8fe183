//! Pins the benchmark itself: at a tiny size, two runs with the same seed
//! report identical work counts and accuracy, every run reports every
//! metric it owes, and `BENCHMARK.json` names each metric with the unit
//! the code reports.

use streambench::{run, Report, RunOpts, Scale, Workload, COUNT_METRICS, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Report {
    let opts = RunOpts {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        scale: Scale::Tiny,
        trace_dir: None,
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
    assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.notes);
    assert!(report.attempted > 0);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
    let expected: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, expected, "{workload:?} trace={trace}");
    for &(name, value) in &report.metrics {
        assert!(value.is_finite(), "{workload:?} {name} = {value}");
    }
    report
}

#[test]
fn same_seed_repeats_counts_and_accuracy() {
    for workload in Workload::ALL {
        let (a, b) = (tiny(workload, true), tiny(workload, true));
        for name in COUNT_METRICS {
            assert_eq!(
                a.get(name).map(f64::to_bits),
                b.get(name).map(f64::to_bits),
                "{workload:?} {name}"
            );
        }
        let (a, b) = (tiny(workload, false), tiny(workload, false));
        let sse = |r: &Report| r.get("sse_over_opt_max").map(f64::to_bits);
        assert_eq!(sse(&a), sse(&b), "{workload:?} sse_over_opt_max");
        for name in ["ops_per_s", "setup_s", "peak_rss_mb"] {
            assert!(a.get(name).is_some_and(|v| v > 0.0), "{workload:?} {name}");
        }
    }
}

#[test]
fn fleet_counts_match_the_workload_design() {
    let ingest = tiny(Workload::IngestFresh, true);
    // Both readers miss the cache and gather, every round.
    assert_eq!(ingest.get("merge.merges_per_round"), Some(2.0));
    // One WAL segment per 64 records, one frame per 1024 (default
    // durability options), for 4 slabs of 1024 records a round.
    assert_eq!(ingest.get("durability.segments_per_round"), Some(64.0));
    assert_eq!(ingest.get("durability.frames_per_round"), Some(4.0));
    let cached = tiny(Workload::ServeCached, true);
    assert_eq!(cached.get("merge.merges_serve_cached"), Some(0.0));
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let manifest = include_str!("../../BENCHMARK.json");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        manifest.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names a metric the benchmark does not report"
    );
    for workload in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", workload.name());
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
