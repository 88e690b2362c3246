//! Order statistics and load-test judgements shared by every workload.
//!
//! Latency samples are `f64` microseconds; a failed operation is recorded
//! as `f64::INFINITY`, so it sorts last and misses every limit.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending; `INFINITY` (failures) sort last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The nearest-rank `q`-quantile of ascending `sorted` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sessions per latency window: the smallest count whose p99 has ten
/// samples beyond it.
pub const WINDOW: usize = 1_000;

/// The median over consecutive [`WINDOW`]-sample windows of each
/// window's `q`-quantile; a trailing partial window is dropped. A stall
/// of the host (another tenant, a page-fault storm) lands in one or two
/// windows and leaves the median where the service itself puts it.
/// `None` without one full window.
pub fn windowed(samples: &[f64], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .filter_map(|w| percentile(&sorted(w.to_vec()), q))
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// A latency distribution summarised for reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Median of all samples.
    pub p50: f64,
    /// [`windowed`] p90: the end-to-end tail figure.
    pub p90: f64,
    /// [`windowed`] p99.
    pub p99: f64,
    /// Samples.
    pub samples: usize,
}

/// Summarises samples in arrival or completion order; a figure without
/// enough samples is `INFINITY`.
pub fn latency(samples: &[f64]) -> Latency {
    let all = sorted(samples.to_vec());
    Latency {
        p50: percentile(&all, 0.5).unwrap_or(f64::INFINITY),
        p90: windowed(samples, 0.90).unwrap_or(f64::INFINITY),
        p99: windowed(samples, 0.99).unwrap_or(f64::INFINITY),
        samples: samples.len(),
    }
}

/// The median of a handful of repetition results (no ten-beyond rule:
/// these are whole-run figures, not a latency distribution).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether an in-flight count sampled at evenly spaced instants of an
/// arrival window grows: the median of the last quarter exceeds twice the
/// median of the second quarter plus a small absolute slack. A system
/// that keeps up holds a stationary backlog (Little's law); an overloaded
/// one accumulates `(λ − μ)·t`, which this catches within one window.
/// The first quarter is skipped as warm-up; medians keep a brief stall
/// from reading as growth.
pub fn backlog_grows(samples: &[usize]) -> bool {
    const SLACK: f64 = 8.0;
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let med = |s: &[usize]| median(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
    let early = med(&samples[q..2 * q]);
    let late = med(&samples[samples.len() - q..]);
    late > 2.0 * early + SLACK
}

/// One phase cut into consecutive [`WINDOW`]-session windows: each
/// window's p99 and whether the backlog grew over its slice of `backlog`
/// (in-flight counts sampled evenly over the phase, equally many per
/// window). A trailing partial window is dropped.
pub fn window_verdicts(latencies: &[f64], backlog: &[usize]) -> Vec<(f64, bool)> {
    let windows = latencies.len() / WINDOW;
    let per = backlog.len() / windows.max(1);
    latencies
        .chunks_exact(WINDOW)
        .enumerate()
        .map(|(w, chunk)| {
            let p99 = percentile(&sorted(chunk.to_vec()), 0.99).unwrap_or(f64::INFINITY);
            let slice = backlog.get(w * per..(w + 1) * per).unwrap_or(&[]);
            (p99, backlog_grows(slice))
        })
        .collect()
}

/// A rung judged over all its windows, however many phases they came
/// from: the median window p99, and growth only if most windows grew. A
/// stall spoils one window, overload spoils them all.
pub fn rung(rate: f64, windows: &[(f64, bool)]) -> Rung {
    let grew = windows.iter().filter(|w| w.1).count();
    Rung {
        rate,
        p99_us: if windows.is_empty() {
            f64::INFINITY
        } else {
            median(&windows.iter().map(|w| w.0).collect::<Vec<_>>())
        },
        backlog_grew: 2 * grew > windows.len(),
    }
}

/// One rung of a fixed ladder of absolute arrival rates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, operations per second.
    pub rate: f64,
    /// p99 latency in µs (`INFINITY` if too few samples or failures
    /// reach the tail).
    pub p99_us: f64,
    /// Whether the backlog grew over the rung.
    pub backlog_grew: bool,
}

impl Rung {
    /// Whether the rung meets the p99 limit with a bounded backlog.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && !self.backlog_grew
    }
}

/// Each rung's p99 and backlog verdict replaced by the median of itself
/// and its two neighbours (an end rung counts itself twice), so one rung
/// hit by a host stall neither ends the ladder early nor extends it.
pub fn smooth(rungs: &[Rung]) -> Vec<Rung> {
    let n = rungs.len();
    (0..n)
        .map(|i| {
            let pick = |j: usize| rungs[j.min(n - 1)];
            let trio = [pick(i.saturating_sub(1)), rungs[i], pick(i + 1)];
            let grew = trio.iter().filter(|r| r.backlog_grew).count() >= 2;
            Rung {
                rate: rungs[i].rate,
                p99_us: median(&trio.map(|r| r.p99_us)),
                backlog_grew: grew,
            }
        })
        .collect()
}

/// The highest sustainable rate on an ascending ladder: the last passing
/// rung of the [`smooth`]ed ladder below its first failing one, moved
/// towards the failing rung by where the limit falls between their p99s
/// on a log scale. A failing rung whose backlog grew, or whose p99 is not
/// finite, contributes no interpolation. Returns 0 when the first rung
/// already fails.
pub fn max_rate(rungs: &[Rung], limit_us: f64) -> f64 {
    let mut best = 0.0;
    let mut prev: Option<Rung> = None;
    for rung in smooth(rungs) {
        if rung.passes(limit_us) {
            best = rung.rate;
            prev = Some(rung);
            continue;
        }
        if let Some(a) = prev {
            if !rung.backlog_grew && rung.p99_us.is_finite() && a.p99_us > 0.0 {
                let span = rung.p99_us.ln() - a.p99_us.ln();
                if span > 0.0 {
                    let frac = ((limit_us.ln() - a.p99_us.ln()) / span).clamp(0.0, 1.0);
                    best = a.rate + (rung.rate - a.rate) * frac;
                }
            }
        }
        break;
    }
    best
}

/// Current peak resident set of this process in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1009).map(f64::from).collect();
        // 1009 samples: p99 has rank 999, ten beyond.
        assert_eq!(percentile(&v, 0.99), Some(999.0));
        let short: Vec<f64> = (1..=1008).map(f64::from).collect();
        // 1008 samples: rank 998, ten beyond.
        assert_eq!(percentile(&short, 0.99), Some(998.0));
        let shorter: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(percentile(&shorter, 0.99), Some(990.0));
        let too_few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&too_few, 0.99), None);
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v = vec![5.0; 980];
        v.extend(vec![f64::INFINITY; 20]);
        let s = sorted(v);
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        // Twenty failures in a thousand push p99 to infinity, so it
        // misses any finite limit.
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
        let rung = Rung {
            rate: 1.0,
            p99_us: percentile(&s, 0.99).unwrap(),
            backlog_grew: false,
        };
        assert!(!rung.passes(1e12));
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<usize> = (0..32).map(|i| 3 + i % 4).collect();
        assert!(!backlog_grows(&steady));
        let growing: Vec<usize> = (0..32).map(|i| i * 40).collect();
        assert!(backlog_grows(&growing));
        let draining: Vec<usize> = (0..32).map(|i| 400 - i * 10).collect();
        assert!(!backlog_grows(&draining));
        let mut stall = steady.clone();
        stall[30] = 5_000;
        assert!(!backlog_grows(&stall), "one stalled sample is not growth");
        assert!(!backlog_grows(&[0, 1000]));
    }

    #[test]
    fn max_rate_interpolates_between_rungs() {
        let r = |rate, p99_us, backlog_grew| Rung {
            rate,
            p99_us,
            backlog_grew,
        };
        let ladder = [r(10.0, 10.0, false), r(20.0, 100.0, false)];
        // Limit at the geometric middle of the two p99s.
        let mid = max_rate(&ladder, 10f64.powf(1.5));
        assert!((mid - 15.0).abs() < 1e-9, "{mid}");
        let grew = [
            r(10.0, 10.0, false),
            r(20.0, 30.0, true),
            r(30.0, 40.0, true),
        ];
        assert_eq!(max_rate(&grew, 50.0), 10.0);
        assert_eq!(max_rate(&[r(10.0, 500.0, false)], 50.0), 0.0);
        // One stalled rung inside the passing range does not end the
        // ladder; the crossing comes from its neighbours.
        let spike = [
            r(10.0, 10.0, false),
            r(20.0, 900.0, true),
            r(30.0, 20.0, false),
            r(40.0, 40.0, false),
            r(50.0, 400.0, false),
        ];
        let m = max_rate(&spike, 50.0);
        assert!(m > 40.0 && m < 50.0, "{m}");
    }

    #[test]
    fn rung_is_judged_over_its_windows() {
        let steady: Vec<usize> = (0..48).map(|i| i % 3).collect();
        let mut lat = vec![10.0; 3 * WINDOW];
        for x in &mut lat[WINDOW..WINDOW + 50] {
            *x = 5_000.0;
        }
        let mut backlog = steady.clone();
        for (i, b) in backlog[16..32].iter_mut().enumerate() {
            *b = i * 100;
        }
        let windows = window_verdicts(&lat, &backlog);
        assert_eq!(windows, vec![(10.0, false), (5_000.0, true), (10.0, false)]);
        // One stalled window of three: the rung still passes.
        assert!(rung(1.0, &windows).passes(100.0));
        let overloaded: Vec<usize> = (0..48).map(|i| (i % 16) * 50).collect();
        let all = window_verdicts(&lat, &overloaded);
        assert!(rung(1.0, &all).backlog_grew);
        assert_eq!(rung(1.0, &[]).p99_us, f64::INFINITY);
    }

    #[test]
    fn windowed_percentile_ignores_a_stalled_window() {
        let mut v = vec![10.0; 5 * WINDOW];
        // One window's tail blown up by a stall, one failure elsewhere.
        for x in &mut v[WINDOW..WINDOW + 50] {
            *x = 5_000.0;
        }
        v[3 * WINDOW] = f64::INFINITY;
        assert_eq!(windowed(&v, 0.99), Some(10.0));
        assert_eq!(windowed(&v[..WINDOW - 1], 0.99), None);
        let all_slow = vec![5_000.0; 2 * WINDOW];
        assert_eq!(windowed(&all_slow, 0.99), Some(5_000.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
