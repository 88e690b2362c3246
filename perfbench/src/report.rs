//! Metric records, the result line, and build provenance.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// An ordered set of metrics; a later insert of the same name replaces
/// the earlier one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let metric = Metric {
            name: name.to_string(),
            value,
            unit,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.0.push(metric),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Adds every metric of `other` not already present; returns the
    /// names it added.
    pub fn fill_from(&mut self, other: &Metrics) -> Vec<String> {
        let mut added = Vec::new();
        for m in &other.0 {
            if self.get(&m.name).is_none() {
                self.0.push(m.clone());
                added.push(m.name.clone());
            }
        }
        added
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with all its digits; non-finite values (a
/// percentile reached by failures) print as the largest finite `f64` so
/// the line stays valid JSON and the value misses every bound.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v < 0.0 {
        format!("{:?}", f64::MIN)
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// What one workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Correctness checks that failed, one line each.
    pub failed_checks: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Workload-specific figures under the names the workload's users
    /// know (auth latency, campaign seconds…), printed before the result.
    pub detail: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks.push(what());
        }
    }

    /// The result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed_checks.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.to_json()
        )
    }
}

/// Build and host facts for the provenance line: the active bit-slice
/// lane, the target features compiled in, the host's parallelism, the
/// workers used, and the source revision.
pub fn provenance_json(workers: usize) -> String {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
        ("avx512vl", cfg!(target_feature = "avx512vl")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\": {{\"active_lane\": \"{}\", \"target_features\": \"{}\", \
         \"rustflags\": \"{}\", \"available_parallelism\": {}, \"workers\": {}, \
         \"revision\": \"{}\"}}}}",
        puf_core::bitslice::active_lane().name(),
        features.join(","),
        env!("PERFBENCH_RUSTFLAGS").replace('"', "'"),
        parallelism,
        workers,
        revision()
    )
}

/// `git rev-parse --short HEAD` of the working directory, or when it is
/// not a git checkout an FNV-1a digest of the sources the benchmark builds
/// (`src-<hex>`). Git is not allowed to search above the working
/// directory, so an enclosing repository is never reported.
fn revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        collect_sources(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name.to_string_lossy().starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.end_to_end.put("setup_s", 0.5, "s");
        o.end_to_end.put("setup_s", 0.25, "s");
        o.layers.put("x.y", f64::INFINITY, "ns");
        assert_eq!(
            o.result_line(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(o.result_line(true).starts_with("{\"correct\": false"));
        assert!(o.result_line(true).contains("1.7976931348623157e308"));
    }
}
