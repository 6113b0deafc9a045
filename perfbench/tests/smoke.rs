//! Tiny-size runs of every workload: every named metric is printed with its
//! unit, every answer check passes, and one corrupted expected answer makes
//! the run report a failure.

use perfbench::serve::LAYER_METRICS;
use perfbench::{run, Config, Outcome, Sizes, WORKLOADS};
use std::path::PathBuf;

/// End-to-end metrics and units each workload prints. The query workloads
/// print the metrics BENCHMARK.json gates.
fn end_to_end(workload: &str) -> Vec<(&'static str, &'static str)> {
    match workload {
        "ingest" => vec![
            ("setup_s", "s"),
            ("ingest_events_per_s", "1/s"),
            ("ingest_bytes_per_event", "B/event"),
            ("batch_p50_ms", "ms"),
            ("batch_p95_ms", "ms"),
            ("peak_rss_mb", "MiB"),
        ],
        _ => {
            let mut m = vec![
                ("setup_s", "s"),
                ("query_p50_ms", "ms"),
                ("query_p95_ms", "ms"),
                ("query_qps", "1/s"),
                ("store_bytes_per_event", "B/event"),
            ];
            if workload == "mixed" {
                m.push(("ingest_events_per_s", "1/s"));
            }
            m
        }
    }
}

#[test]
fn the_gated_metrics_are_the_ones_benchmark_json_names() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    for (name, unit) in end_to_end("query_hot") {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit) in LAYER_METRICS {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

fn config(workload: &str, trace: bool, corrupt_expected: bool) -> Config {
    let tag = format!("{workload}-{}-{}", u8::from(trace), u8::from(corrupt_expected));
    Config {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.4,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke").join(tag),
        sizes: Sizes::tiny(),
        corrupt_expected,
    }
}

fn outcome(workload: &str, trace: bool, corrupt_expected: bool) -> Outcome {
    run(&config(workload, trace, corrupt_expected))
        .unwrap_or_else(|e| panic!("{workload} (trace {trace}) failed: {e}"))
}

fn assert_metrics(workload: &str, o: &Outcome, expected: &[(&str, &str)], nonzero: bool) {
    let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for (m, (_, unit)) in o.metrics.iter().zip(expected) {
        assert_eq!(m.unit, *unit, "{workload}: unit of {}", m.name);
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        if nonzero {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_checks_out() {
    for workload in WORKLOADS {
        let o = outcome(workload, false, false);
        assert!(o.attempted > 0, "{workload}: nothing attempted");
        // `mixed` can catch reads that straddle a concurrent batch (no
        // snapshot isolation at this commit); its failures are reported by
        // the run, so only the other workloads must come out clean.
        if workload != "mixed" {
            assert_eq!(
                o.failed, 0,
                "{workload}: {} of {} failed\n{:#?}",
                o.failed, o.attempted, o.report
            );
        }
        assert_metrics(workload, &o, &end_to_end(workload), true);
        assert!(o.report.iter().any(|l| l.contains("failed_ratio")), "{workload}: report");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let o = outcome(workload, true, false);
        if workload != "mixed" {
            assert_eq!(o.failed, 0, "{workload}: {} of {} failed", o.failed, o.attempted);
        }
        assert_metrics(workload, &o, LAYER_METRICS, false);
        assert!(!o.spans.is_empty(), "{workload}: no spans recorded");
        let roots = if workload == "ingest" { "ingest.batch" } else { "client.request" };
        assert!(o.spans.iter().any(|s| s.name == roots && s.parent.is_none()), "{workload}");
    }
}

#[test]
fn a_corrupted_expected_answer_counts_as_failed() {
    for workload in WORKLOADS {
        let o = outcome(workload, false, true);
        assert!(o.failed > 0, "{workload}: corrupted expectation went unnoticed");
    }
}
