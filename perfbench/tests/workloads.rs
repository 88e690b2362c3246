//! Every workload end to end at tiny scale, untraced and traced, plus the
//! agreement between the metric lists the code emits and `BENCHMARK.json`.

use perfbench::{Scale, Workload, END_TO_END, PER_LAYER};
use std::sync::Mutex;

/// Spans and telemetry counters are process-wide; runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(w: Workload, traced: bool) -> perfbench::report::Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    w.run(Scale::Tiny, 11, 1.0, traced, &mut Vec::new())
}

#[test]
fn every_workload_runs_correctly_at_tiny_scale() {
    for w in Workload::ALL {
        let out = run(w, false);
        assert!(
            out.failed_checks.is_empty(),
            "{}: {:?}",
            w.name(),
            out.failed_checks
        );
        assert!(out.attempted > 0, "{}", w.name());
        assert_eq!(out.failed, 0, "{}", w.name());
        // Tiny runs are too short for a windowed p90 on every workload.
        for name in END_TO_END {
            assert!(
                out.end_to_end.get(name).is_some(),
                "{}: {name} missing",
                w.name()
            );
        }
        for name in ["setup_s", "work_s", "p50_us", "peak_rss_mb"] {
            let v = out.end_to_end.get(name);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {name} = {v:?}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_runs_cover_every_layer_between_them() {
    let mut union = perfbench::report::Metrics::default();
    for w in Workload::ALL {
        let out = run(w, true);
        assert!(
            out.failed_checks.is_empty(),
            "{}: {:?}",
            w.name(),
            out.failed_checks
        );
        union.fill_from(&out.layers);
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .copied()
        .filter(|n| union.get(n).is_none())
        .collect();
    assert!(missing.is_empty(), "no tiny workload measured {missing:?}");
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let workloads: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    let expected: Vec<&str> = workloads
        .iter()
        .chain(END_TO_END.iter())
        .chain(PER_LAYER.iter())
        .copied()
        .collect();
    assert_eq!(names, expected);
}
