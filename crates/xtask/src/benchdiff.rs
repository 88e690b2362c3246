//! `cargo xtask bench-diff` — the benchmark regression observatory.
//!
//! Compares two directories of benchmark JSON outputs (`BENCH_*.json`,
//! `CHAOS.json`) file by file: every numeric leaf is flattened to a dotted
//! path, joined across baseline and current, and judged against a
//! per-metric threshold. The direction of "better" is inferred from the
//! path (`*_per_sec`/`speedup` rise, `*_ns`/`frr`/`backoff` fall); metrics
//! with no recognisable direction are reported as info and never fail the
//! gate. Schema headers (stamped by `puf_bench::SchemaHeader`) are skipped
//! as metrics but cross-checked: a baseline captured on a different thread
//! count, `target-cpu` or bit-slice lane produces a provenance warning,
//! since such deltas measure the machine, not the code. Headers older than
//! schema version 2 carry no lane; it reads as `unknown`.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Default relative threshold: a directed metric may move 30 % against its
/// preferred direction before the gate fails. Wide on purpose — the
/// committed baselines come from developer machines, not a quiet rig.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Which way "better" points for one metric path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: larger is better (`*_per_sec`, `speedup`).
    HigherBetter,
    /// Cost-like: smaller is better (`*_ns`, `frr`, `backoff`, …).
    LowerBetter,
    /// No recognisable direction — report, never fail.
    Neutral,
}

/// The verdict on one joined metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold (or moved the good way but below the improvement bar).
    Unchanged,
    /// Moved in the preferred direction by more than the threshold.
    Improved,
    /// Moved against the preferred direction by more than the threshold.
    Regressed,
    /// Direction unknown; shown for the record only.
    Info,
}

/// One metric compared across baseline and current.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// File the metric came from, e.g. `BENCH_eval.json`.
    pub file: String,
    /// Dotted path of the numeric leaf inside the file.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change `(current - baseline) / |baseline|`
    /// (`current` itself when the baseline is zero).
    pub relative: f64,
    /// Inferred direction of "better".
    pub direction: Direction,
    /// The judgement under the effective threshold.
    pub verdict: Verdict,
}

/// The full comparison: per-metric deltas plus provenance warnings.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every joined metric, in (file, file order) sequence.
    pub deltas: Vec<MetricDelta>,
    /// Environment mismatches and missing files/metrics — advisory only.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Deltas that fail the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
    }

    /// True when any metric regressed past its threshold.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// The human-readable delta table: one row per metric that actually
    /// moved (still-rows are counted, not listed), warnings and a verdict
    /// summary at the end.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let listed: Vec<&MetricDelta> = self
            .deltas
            .iter()
            .filter(|d| {
                matches!(d.verdict, Verdict::Improved | Verdict::Regressed)
                    || d.relative.abs() > 1e-3
            })
            .collect();
        let path_width = listed
            .iter()
            .map(|d| d.file.len() + 1 + d.path.len())
            .max()
            .unwrap_or(6)
            .max(6);
        if !listed.is_empty() {
            let _ = writeln!(
                out,
                "{:<path_width$}  {:>14}  {:>14}  {:>8}  verdict",
                "metric", "baseline", "current", "delta"
            );
        }
        for d in &listed {
            let name = format!("{}:{}", d.file, d.path);
            let verdict = match d.verdict {
                Verdict::Unchanged => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Info => "info",
            };
            let _ = writeln!(
                out,
                "{name:<path_width$}  {:>14}  {:>14}  {:>+7.1}%  {verdict}",
                fmt_value(d.baseline),
                fmt_value(d.current),
                d.relative * 100.0,
            );
        }
        let still = self.deltas.len() - listed.len();
        if still > 0 {
            let _ = writeln!(out, "({still} unmoved metric(s) not listed)");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        let regressed = self.regressions().count();
        let improved = self
            .deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Improved)
            .count();
        let _ = writeln!(
            out,
            "bench-diff: {} metric{} compared, {improved} improved, {regressed} regressed",
            self.deltas.len(),
            if self.deltas.len() == 1 { "" } else { "s" },
        );
        out
    }
}

/// Compact value formatting for the table: integers plain, large numbers
/// with thousands separators dropped (plain), small fractions with 6
/// significant digits.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Infers which way "better" points from the metric path. The vocabulary
/// mirrors the emitters: throughput keys end `_per_sec`, timing keys end
/// `_ns`/`_us`/`_ms`, error rates are `frr`/`far`, chaos penalties are
/// `backoff`/`lockout`/`evicted`.
pub fn direction_of(path: &str) -> Direction {
    let p = path.to_ascii_lowercase();
    const HIGHER: &[&str] = &[
        "per_sec",
        "speedup",
        "throughput",
        "accept_rate",
        "accuracy",
    ];
    const LOWER: &[&str] = &[
        "_ns", "_us", "_ms", "latency", "frr", "far", "backoff", "lockout", "evicted", "failures",
        "rejects",
    ];
    if HIGHER.iter().any(|m| p.contains(m)) {
        Direction::HigherBetter
    } else if LOWER.iter().any(|m| p.contains(m)) {
        Direction::LowerBetter
    } else {
        Direction::Neutral
    }
}

/// The effective threshold for one metric: timing metrics are the
/// noisiest, so they get double headroom; everything else uses `base`.
pub fn threshold_for(path: &str, base: f64) -> f64 {
    let p = path.to_ascii_lowercase();
    if p.contains("_ns") || p.contains("_us") || p.contains("_ms") || p.contains("latency") {
        base * 2.0
    } else {
        base
    }
}

/// Judges one joined metric.
fn judge(
    path: &str,
    baseline: f64,
    current: f64,
    base_threshold: f64,
) -> (f64, Direction, Verdict) {
    let direction = direction_of(path);
    let relative = if baseline != 0.0 {
        (current - baseline) / baseline.abs()
    } else if current == 0.0 {
        0.0
    } else {
        // Zero baseline: report the raw current value as the "change" and
        // leave the verdict directionless — a ratio would be infinite.
        return (current, direction, Verdict::Info);
    };
    let threshold = threshold_for(path, base_threshold);
    let verdict = match direction {
        Direction::Neutral => Verdict::Info,
        Direction::HigherBetter if relative < -threshold => Verdict::Regressed,
        Direction::HigherBetter if relative > threshold => Verdict::Improved,
        Direction::LowerBetter if relative > threshold => Verdict::Regressed,
        Direction::LowerBetter if relative < -threshold => Verdict::Improved,
        _ => Verdict::Unchanged,
    };
    (relative, direction, verdict)
}

/// Compares the `"schema"` headers of one file pair; environment fields
/// that differ become provenance warnings.
fn schema_warnings(file: &str, baseline: &Value, current: &Value, warnings: &mut Vec<String>) {
    let (Some(b), Some(c)) = (baseline.get("schema"), current.get("schema")) else {
        warnings.push(format!(
            "{file}: missing \"schema\" header on {} side",
            if baseline.get("schema").is_none() {
                "baseline"
            } else {
                "current"
            }
        ));
        return;
    };
    // Headers written before schema version 2 record no lane.
    let unknown_lane = Value::String("unknown".to_string());
    for key in ["threads", "target_cpu", "lane", "version"] {
        let field = |header: &Value| match (header.get(key), key) {
            (None, "lane") => Some(unknown_lane.clone()),
            (v, _) => v.cloned(),
        };
        let (bv, cv) = (field(b), field(c));
        if bv != cv {
            warnings.push(format!(
                "{file}: schema {key} differs (baseline {}, current {}) — deltas may reflect \
                 the environment, not the code",
                render_scalar(bv.as_ref()),
                render_scalar(cv.as_ref()),
            ));
        }
    }
}

fn render_scalar(v: Option<&Value>) -> String {
    match v {
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(n)) => fmt_value(*n),
        Some(other) => format!("{other:?}"),
        None => "absent".to_string(),
    }
}

/// Diffs one parsed file pair into `report`.
pub fn diff_documents(
    file: &str,
    baseline: &Value,
    current: &Value,
    threshold: f64,
    report: &mut DiffReport,
) {
    schema_warnings(file, baseline, current, &mut report.warnings);
    let base_metrics: BTreeMap<String, f64> = baseline
        .flatten_numbers()
        .into_iter()
        .filter(|(p, _)| !p.starts_with("schema."))
        .collect();
    let mut current_metrics: BTreeMap<String, f64> = current
        .flatten_numbers()
        .into_iter()
        .filter(|(p, _)| !p.starts_with("schema."))
        .collect();
    for (path, base_value) in &base_metrics {
        match current_metrics.remove(path) {
            Some(current_value) => {
                let (relative, direction, verdict) =
                    judge(path, *base_value, current_value, threshold);
                report.deltas.push(MetricDelta {
                    file: file.to_string(),
                    path: path.clone(),
                    baseline: *base_value,
                    current: current_value,
                    relative,
                    direction,
                    verdict,
                });
            }
            None => report
                .warnings
                .push(format!("{file}: metric `{path}` vanished from current")),
        }
    }
    for path in current_metrics.keys() {
        report
            .warnings
            .push(format!("{file}: metric `{path}` is new (no baseline)"));
    }
}

/// Compares every `*.json` in `baseline_dir` against its namesake in
/// `current_dir`. Files present on only one side are warnings, not errors —
/// a fresh bench run may not regenerate every committed artifact.
pub fn diff_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    threshold: f64,
) -> std::io::Result<DiffReport> {
    let mut report = DiffReport::default();
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(baseline_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    if names.is_empty() {
        report.warnings.push(format!(
            "no *.json baselines found in {}",
            baseline_dir.display()
        ));
    }
    for name in names {
        let current_path = current_dir.join(&name);
        if !current_path.exists() {
            report
                .warnings
                .push(format!("{name}: no current-side file (skipped)"));
            continue;
        }
        let base_text = std::fs::read_to_string(baseline_dir.join(&name))?;
        let current_text = std::fs::read_to_string(&current_path)?;
        let base_doc = match json::parse(&base_text) {
            Ok(v) => v,
            Err(e) => {
                report
                    .warnings
                    .push(format!("{name}: baseline unparsable ({e})"));
                continue;
            }
        };
        let current_doc = match json::parse(&current_text) {
            Ok(v) => v,
            Err(e) => {
                report
                    .warnings
                    .push(format!("{name}: current unparsable ({e})"));
                continue;
            }
        };
        diff_documents(&name, &base_doc, &current_doc, threshold, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fresh scratch directory pair under the target dir (unique per
    /// test via a process-wide counter — no clocks, no randomness).
    fn scratch_pair(tag: &str) -> (PathBuf, PathBuf) {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "xtask-benchdiff-{}-{tag}-{seq}",
            std::process::id()
        ));
        let baseline = root.join("baseline");
        let current = root.join("current");
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::create_dir_all(&current).unwrap();
        (baseline, current)
    }

    const BASE: &str = r#"{
  "schema": {"version": 1, "git_commit": "aaa", "threads": 8, "target_cpu": "native"},
  "crps_per_sec": {"xor10_batched": 8000000, "xor10_scalar": 1000000},
  "p95_latency_ns": 120,
  "notes_count": 3
}"#;

    #[test]
    fn identical_dirs_have_no_regressions() {
        let (b, c) = scratch_pair("identical");
        std::fs::write(b.join("BENCH_eval.json"), BASE).unwrap();
        std::fs::write(c.join("BENCH_eval.json"), BASE).unwrap();
        let report = diff_dirs(&b, &c, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.has_regressions(), "{}", report.render());
        assert_eq!(report.deltas.len(), 4);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn seeded_throughput_drop_is_flagged() {
        let (b, c) = scratch_pair("seeded");
        std::fs::write(b.join("BENCH_eval.json"), BASE).unwrap();
        // xor10_batched halves: a 50 % drop on a higher-is-better metric.
        let current = BASE.replace("8000000", "4000000");
        std::fs::write(c.join("BENCH_eval.json"), current).unwrap();
        let report = diff_dirs(&b, &c, DEFAULT_THRESHOLD).unwrap();
        let regressed: Vec<&MetricDelta> = report.regressions().collect();
        assert_eq!(regressed.len(), 1, "{}", report.render());
        assert_eq!(regressed[0].path, "crps_per_sec.xor10_batched");
        assert!((regressed[0].relative + 0.5).abs() < 1e-9);
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn latency_metrics_get_double_headroom_and_lower_is_better() {
        // +50 % latency is inside the doubled (60 %) timing threshold…
        let (rel, dir, verdict) = judge("p95_latency_ns", 100.0, 150.0, DEFAULT_THRESHOLD);
        assert_eq!(dir, Direction::LowerBetter);
        assert_eq!(verdict, Verdict::Unchanged);
        assert!((rel - 0.5).abs() < 1e-9);
        // …but +80 % is not.
        let (_, _, verdict) = judge("p95_latency_ns", 100.0, 180.0, DEFAULT_THRESHOLD);
        assert_eq!(verdict, Verdict::Regressed);
        // And a latency *drop* is an improvement, not a regression.
        let (_, _, verdict) = judge("p95_latency_ns", 100.0, 20.0, DEFAULT_THRESHOLD);
        assert_eq!(verdict, Verdict::Improved);
    }

    #[test]
    fn directionless_metrics_never_fail() {
        let (_, dir, verdict) = judge("notes_count", 3.0, 300.0, DEFAULT_THRESHOLD);
        assert_eq!(dir, Direction::Neutral);
        assert_eq!(verdict, Verdict::Info);
    }

    #[test]
    fn schema_mismatch_warns_but_does_not_fail() {
        let (b, c) = scratch_pair("schema");
        std::fs::write(b.join("BENCH_eval.json"), BASE).unwrap();
        let current = BASE.replace("\"threads\": 8", "\"threads\": 2");
        std::fs::write(c.join("BENCH_eval.json"), current).unwrap();
        let report = diff_dirs(&b, &c, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.has_regressions());
        assert!(
            report.warnings.iter().any(|w| w.contains("schema threads")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn lane_change_is_a_provenance_note_and_missing_lane_reads_unknown() {
        let with_lane = |lane: &str| {
            BASE.replace(
                "\"target_cpu\": \"native\"}",
                &format!("\"target_cpu\": \"native\", \"lane\": \"{lane}\"}}"),
            )
        };
        for (baseline, current, note) in [
            (BASE.to_string(), BASE.to_string(), None),
            (with_lane("avx512"), with_lane("avx512"), None),
            (
                BASE.to_string(),
                with_lane("avx512"),
                Some("baseline unknown, current avx512"),
            ),
            (
                with_lane("avx2"),
                with_lane("avx512"),
                Some("baseline avx2, current avx512"),
            ),
        ] {
            let (b, c) = scratch_pair("lane");
            std::fs::write(b.join("BENCH_eval.json"), &baseline).unwrap();
            std::fs::write(c.join("BENCH_eval.json"), &current).unwrap();
            let report = diff_dirs(&b, &c, DEFAULT_THRESHOLD).unwrap();
            assert!(!report.has_regressions());
            let lane_notes: Vec<_> = report
                .warnings
                .iter()
                .filter(|w| w.contains("schema lane"))
                .collect();
            match note {
                None => assert!(lane_notes.is_empty(), "{lane_notes:?}"),
                Some(note) => {
                    assert_eq!(lane_notes.len(), 1, "{:?}", report.warnings);
                    assert!(lane_notes[0].contains(note), "{}", lane_notes[0]);
                }
            }
        }
    }

    #[test]
    fn missing_and_new_metrics_are_warnings() {
        let (b, c) = scratch_pair("missing");
        std::fs::write(b.join("BENCH_eval.json"), BASE).unwrap();
        let current = BASE.replace("\"notes_count\": 3", "\"fresh_count\": 3");
        std::fs::write(c.join("BENCH_eval.json"), current).unwrap();
        std::fs::write(b.join("CHAOS.json"), "{}").unwrap();
        let report = diff_dirs(&b, &c, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.has_regressions());
        let warnings = report.warnings.join("\n");
        assert!(warnings.contains("`notes_count` vanished"), "{warnings}");
        assert!(warnings.contains("`fresh_count` is new"), "{warnings}");
        assert!(
            warnings.contains("CHAOS.json: no current-side file"),
            "{warnings}"
        );
    }

    #[test]
    fn zero_baseline_is_informational() {
        let (relative, _, verdict) = judge("transport_failures", 0.0, 4.0, DEFAULT_THRESHOLD);
        assert_eq!(verdict, Verdict::Info);
        assert_eq!(relative, 4.0);
        let (_, _, verdict) = judge("transport_failures", 0.0, 0.0, DEFAULT_THRESHOLD);
        assert_eq!(verdict, Verdict::Unchanged);
    }
}
