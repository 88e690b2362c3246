//! The repository benchmark: four workloads (three listed in
//! `BENCHMARK.json`) driven through the workspace's public APIs,
//! end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs (see `README.md`).

pub mod campaign;
pub mod lifecycle;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Outcome;

/// End-to-end metrics every untraced run reports, as in `BENCHMARK.json`.
pub const END_TO_END: [&str; 5] = ["setup_s", "work_s", "p50_us", "p90_us", "peak_rss_mb"];

/// Per-layer metrics every traced run reports, as in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 49] = [
    "service.tick_self_ns_per_auth",
    "service.submit_ns",
    "service.drain_ns",
    "service.rows_per_flush",
    "service.aged_flush_frac",
    "service.ticks_per_auth",
    "service.warm_ns_per_chip",
    "service.warm_chips_per_auth",
    "service.backlog_max",
    "service.decided",
    "service.reenrolls",
    "faults.respond_ns_per_challenge",
    "faults.transmit_ns",
    "faults.delivered_frac",
    "session.attempts_per_auth",
    "session.retry_frac",
    "session.frr",
    "session.far",
    "session.accepted_frac",
    "session.rejected_frac",
    "session.lockout_frac",
    "session.degraded_frac",
    "session.select_draws_per_challenge",
    "session.select_ns_per_challenge",
    "session.authenticate_us",
    "bitslice.packed_ns_per_member_row",
    "bitslice.delta_ns_per_member_row",
    "batch.features_ns_per_row",
    "chip.ground_truth_ns_per_member_row",
    "chip.measure_ns_per_crp",
    "counter.ns_per_crp",
    "chip.respond_ns_per_challenge",
    "enrollment.ms_per_chip",
    "durable.append_ns_per_event",
    "durable.compact_s",
    "durable.snapshot_bytes",
    "durable.bytes_written_per_user_byte",
    "durable.recover_s",
    "durable.restore_s",
    "durable.bytes_dropped",
    "durable.events_applied",
    "durable.appends",
    "par.speedup_serve",
    "par.speedup_campaign",
    "gen.late_p99_us",
    "gen.samples",
    "gen.idle_frac",
    "trace.overhead_frac",
    "trace.coverage",
];

/// Workload size: the stated benchmark, or a tiny version for tests and
/// for measuring layers a traced workload does not call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The stated workload.
    Full,
    /// A seconds-scale version with the same code paths.
    Tiny,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop into a warmed shard.
    ServeWarm,
    /// Open loop over a cold, re-enrolled fleet.
    ServeChurn,
    /// The paper's measurement campaign.
    Campaign,
    /// Aging, re-enrollment, sessions and crash recovery.
    Lifecycle,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeChurn,
        Workload::Campaign,
        Workload::Lifecycle,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `serve-churn`
    /// runs by name and supplies its layers to traced runs, but does not
    /// gate: its latency figures move by a third between stretches of a
    /// shared host, beyond any allowed bound (see `README.md`).
    pub const LISTED: [Workload; 3] =
        [Workload::ServeWarm, Workload::Campaign, Workload::Lifecycle];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeChurn => "serve-churn",
            Workload::Campaign => "campaign",
            Workload::Lifecycle => "lifecycle",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run_once(self, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
        match self {
            Workload::ServeWarm => serve::run(serve::Kind::Warm, scale, seed, seconds, traced),
            Workload::ServeChurn => serve::run(serve::Kind::Churn, scale, seed, seconds, traced),
            Workload::Campaign => campaign::run(scale, seed, seconds, traced),
            Workload::Lifecycle => lifecycle::run(scale, seed, seconds, traced),
        }
    }

    /// Runs the workload. Traced, it also runs the other workloads at
    /// tiny scale and takes from them the per-layer metrics of layers
    /// this workload does not call; `sources` names where each such
    /// metric came from.
    pub fn run(
        self,
        scale: Scale,
        seed: u64,
        seconds: f64,
        traced: bool,
        sources: &mut Vec<(String, &'static str)>,
    ) -> Outcome {
        let mut out = self.run_once(scale, seed, seconds, traced);
        if traced && scale == Scale::Full {
            for other in Self::ALL.into_iter().filter(|&o| o != self) {
                let probe = other.run_once(Scale::Tiny, seed, seconds, true);
                out.failed_checks.extend(
                    probe
                        .failed_checks
                        .iter()
                        .map(|c| format!("{} (tiny): {c}", other.name())),
                );
                for name in out.layers.fill_from(&probe.layers) {
                    sources.push((name, other.name()));
                }
            }
        }
        let (metrics, expected): (_, &[&str]) = if traced {
            (&out.layers, &PER_LAYER)
        } else {
            (&out.end_to_end, &END_TO_END)
        };
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|n| !metrics.get(n).is_some_and(f64::is_finite))
            .collect();
        if scale == Scale::Full && !missing.is_empty() {
            out.failed_checks
                .push(format!("metrics missing or not finite: {missing:?}"));
        }
        out
    }
}

/// Clears earlier spans and counters and switches on the benchmark's
/// spans and the program's telemetry counters.
pub fn start_tracing() {
    drop(trace::take());
    puf_telemetry::registry().reset();
    puf_telemetry::set_enabled(true);
    trace::set_enabled(true);
}

/// Switches spans and the program's telemetry counters off again.
pub fn stop_tracing() {
    trace::set_enabled(false);
    puf_telemetry::set_enabled(false);
}
