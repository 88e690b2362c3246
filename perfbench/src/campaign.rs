//! `campaign`: the paper's measurement campaign. Ten paper-geometry
//! chips answer shards of random challenges with 10⁵-evaluation counter
//! soft responses of their XOR-10 readout; shards fan out over the host's
//! cores through `bench::par`. One operation is one chip's
//! `measure_xor_soft_batch` over one shard.

use crate::report::Outcome;
use crate::stats;
use crate::trace;
use crate::Scale;
use puf_bench::par;
use puf_core::{Challenge, Condition, FeatureMatrix};
use puf_protocol::service_lane;
use puf_silicon::{counter, Chip, ChipConfig, SoftResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// XOR width of the measured readout.
const XOR_N: usize = 10;
/// The paper's stable-CRP fraction at n = 10 (Table 1).
const PAPER_STABLE_FRACTION: f64 = 0.109;
/// Accepted distance from the paper's fraction: ten chips per seed put
/// the measured fraction within a couple of points of it.
const STABLE_TOLERANCE: f64 = 0.03;
/// Lane salts.
const CHIP_LANE: u64 = 0xCA4E_0001;
const SHARD_LANE: u64 = 0xCA4E_0002;
const MEASURE_LANE: u64 = 0xCA4E_0003;
/// Rows the scalar oracle replays.
const ORACLE_ROWS: usize = 64;

/// The stated campaign size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    chips: usize,
    shards: usize,
    shard_len: usize,
    evals: u64,
    /// Repetitions run at least, and the seconds further repetitions may
    /// fill.
    min_reps: usize,
    budget_s: f64,
    setup_reps: usize,
    setup_span_s: f64,
}

impl Spec {
    /// The workload at `scale`; the campaign repeats until `seconds` are
    /// spent.
    pub fn new(scale: Scale, seconds: f64) -> Self {
        match scale {
            Scale::Full => Self {
                chips: 10,
                shards: 64,
                shard_len: 2_048,
                evals: 100_000,
                min_reps: 3,
                budget_s: seconds,
                setup_reps: 21,
                setup_span_s: 0.5,
            },
            Scale::Tiny => Self {
                chips: 10,
                shards: 4,
                shard_len: 512,
                evals: 100_000,
                min_reps: 2,
                budget_s: 0.0,
                setup_reps: 3,
                setup_span_s: 0.0,
            },
        }
    }

    fn crps(&self) -> u64 {
        (self.chips * self.shards * self.shard_len) as u64
    }
}

/// Stable counts of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    stable: u64,
    stable_zero: u64,
    stable_one: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.stable += o.stable;
        self.stable_zero += o.stable_zero;
        self.stable_one += o.stable_one;
    }

    fn of(softs: &[SoftResponse]) -> Self {
        let mut c = Counts::default();
        for s in softs {
            c.stable += u64::from(s.is_stable());
            c.stable_zero += u64::from(s.is_stable_zero());
            c.stable_one += u64::from(s.is_stable_one());
        }
        c
    }
}

fn fabricate(seed: u64, chips: usize) -> Vec<Chip> {
    let mut rng = StdRng::seed_from_u64(service_lane(seed ^ CHIP_LANE, 0));
    let config = ChipConfig::paper_default();
    (0..chips)
        .map(|id| Chip::fabricate(id as u32, &config, &mut rng))
        .collect()
}

fn shard_challenges(seed: u64, shard: usize, len: usize) -> Vec<Challenge> {
    let mut rng = StdRng::seed_from_u64(service_lane(seed ^ SHARD_LANE, shard as u64));
    (0..len)
        .map(|_| Challenge::random(puf_core::PAPER_STAGES, &mut rng))
        .collect()
}

fn measure_rng(seed: u64, shard: usize, chip: usize) -> StdRng {
    StdRng::seed_from_u64(service_lane(
        seed ^ MEASURE_LANE,
        ((shard as u64) << 16) | chip as u64,
    ))
}

/// One shard: features, then every chip's soft responses. Returns the
/// counts and each chip's measurement time in µs.
fn run_shard(seed: u64, spec: &Spec, chips: &[Chip], shard: usize) -> (Counts, Vec<f64>) {
    let cs = shard_challenges(seed, shard, spec.shard_len);
    let fm = trace::span("batch.from_challenges", 0, cs.len() as u64, || {
        FeatureMatrix::from_challenges(&cs).expect("campaign feature matrix")
    });
    let mut counts = Counts::default();
    let mut times = Vec::with_capacity(chips.len());
    for (ci, chip) in chips.iter().enumerate() {
        let mut rng = measure_rng(seed, shard, ci);
        let t = Instant::now();
        let softs = trace::span("chip.measure_xor_soft_batch", 0, fm.len() as u64, || {
            chip.measure_xor_soft_batch(XOR_N, &fm, Condition::NOMINAL, spec.evals, &mut rng)
                .expect("campaign measurement")
        });
        times.push(t.elapsed().as_nanos() as f64 / 1e3);
        counts.add(Counts::of(&softs));
    }
    (counts, times)
}

/// The whole campaign on `workers` workers: per-shard counts and op
/// latencies.
fn campaign(seed: u64, spec: &Spec, chips: &[Chip], workers: usize) -> Vec<(Counts, Vec<f64>)> {
    let shard_ids: Vec<usize> = (0..spec.shards).collect();
    trace::span("campaign", 0, spec.crps(), || {
        par::par_map_with_workers(workers, &shard_ids, |_, &s| run_shard(seed, spec, chips, s))
    })
}

/// Replays the first rows of shard 0 on chip 0 one challenge at a time
/// through the scalar ground truth and the counter, which must reproduce
/// the batched soft responses exactly.
fn scalar_oracle(seed: u64, spec: &Spec, chip: &Chip) -> bool {
    let cs = shard_challenges(seed, 0, spec.shard_len);
    let fm = FeatureMatrix::from_challenges(&cs).expect("campaign feature matrix");
    let mut rng = measure_rng(seed, 0, 0);
    let batched = chip
        .measure_xor_soft_batch(XOR_N, &fm, Condition::NOMINAL, spec.evals, &mut rng)
        .expect("campaign measurement");
    let mut rng = measure_rng(seed, 0, 0);
    cs.iter().take(ORACLE_ROWS).zip(&batched).all(|(c, b)| {
        let prod = (0..XOR_N).fold(1.0, |prod, puf| {
            let p = chip
                .ground_truth_soft(puf, c, Condition::NOMINAL)
                .expect("paper chips carry ten members");
            prod * (1.0 - 2.0 * p)
        });
        counter::measure((1.0 - prod) / 2.0, spec.evals, &mut rng) == *b
    })
}

/// Per-member-row times of the silicon ground truth and of the bit-sliced
/// delta kernel on it, over one shard, for every chip and member.
fn member_row_probe(seed: u64, spec: &Spec, chips: &[Chip]) -> (f64, f64) {
    let cs = shard_challenges(seed, 0, spec.shard_len);
    let fm = FeatureMatrix::from_challenges(&cs).expect("campaign feature matrix");
    let rows = (chips.len() * XOR_N * fm.len()) as f64;
    let mut out = vec![0.0; fm.len()];
    let t = Instant::now();
    for chip in chips {
        for puf in 0..XOR_N {
            let soft = trace::span("chip.ground_truth_soft_batch", 0, fm.len() as u64, || {
                chip.ground_truth_soft_batch(puf, &fm, Condition::NOMINAL)
                    .expect("paper chips carry ten members")
            });
            std::hint::black_box(soft);
        }
    }
    let truth_ns = t.elapsed().as_nanos() as f64 / rows;
    let t = Instant::now();
    for chip in chips {
        for puf in 0..XOR_N {
            let model = chip
                .ground_truth_puf(puf, Condition::NOMINAL)
                .expect("paper chips carry ten members");
            trace::span(
                "bitslice.delta_batch_into_bitsliced",
                0,
                fm.len() as u64,
                || {
                    model.delta_batch_into_bitsliced(&fm, &mut out);
                },
            );
            std::hint::black_box(&out);
        }
    }
    (truth_ns, t.elapsed().as_nanos() as f64 / rows)
}

/// Runs the campaign workload.
pub fn run(scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let spec = Spec::new(scale, seconds);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();

    // Fabrication takes well under a millisecond, so it repeats for a
    // stated span and reports the median, which one stall cannot move.
    let mut setup_s = Vec::new();
    let mut chips = Vec::new();
    let started = Instant::now();
    while setup_s.len() < spec.setup_reps || started.elapsed().as_secs_f64() < spec.setup_span_s {
        let t = Instant::now();
        chips = fabricate(seed, spec.chips);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut walls = Vec::new();
    let mut op_us = Vec::new();
    let mut reference: Option<Vec<Counts>> = None;
    let mut traced_wall = f64::NAN;
    let mut lo = 0;
    // Untraced repetitions until the run's seconds are spent, then one
    // traced repetition when tracing.
    for rep in 0.. {
        let untraced = rep < spec.min_reps
            || started.elapsed().as_secs_f64() * (rep + 1) as f64 / rep as f64 <= spec.budget_s;
        let traced_rep = traced && !untraced;
        if !untraced && !traced_rep {
            break;
        }
        if traced_rep {
            crate::start_tracing();
            lo = trace::now_ns();
        }
        let t = Instant::now();
        let shards = campaign(seed, &spec, &chips, workers);
        let wall = t.elapsed().as_secs_f64();
        let counts: Vec<Counts> = shards.iter().map(|s| s.0).collect();
        match &reference {
            None => reference = Some(counts),
            Some(r) => out.check(*r == counts, || format!("repetition {rep} counts differ")),
        }
        out.attempted += (spec.chips * spec.shards) as u64;
        if traced_rep {
            traced_wall = wall;
        } else {
            walls.push(wall);
            op_us.extend(shards.into_iter().flat_map(|s| s.1));
        }
        if traced_rep {
            break;
        }
    }
    let reference = reference.expect("at least one repetition");

    // Exact per seed and worker-count independent: a sequential pass over
    // the first shards reproduces the fanned-out counts.
    let check_shards = if traced {
        spec.shards
    } else {
        spec.shards.min(4)
    };
    let t = Instant::now();
    for (s, expected) in reference.iter().enumerate().take(check_shards) {
        let (counts, _) = run_shard(seed, &spec, &chips, s);
        out.check(counts == *expected, || {
            format!("shard {s}: 1-worker counts differ")
        });
    }
    let one_worker_s = t.elapsed().as_secs_f64();
    out.check(scalar_oracle(seed, &spec, &chips[0]), || {
        "scalar ground truth + counter replay differs from the batched measurement".into()
    });
    let mut total = Counts::default();
    for c in &reference {
        total.add(*c);
    }
    let crps = spec.crps() as f64;
    let stable_fraction = total.stable as f64 / crps;
    out.check(total.stable == total.stable_zero + total.stable_one, || {
        "stable != stable-0 + stable-1".into()
    });
    if scale == Scale::Full {
        out.check(
            (stable_fraction - PAPER_STABLE_FRACTION).abs() <= STABLE_TOLERANCE,
            || format!("stable fraction {stable_fraction:.4} is not within {STABLE_TOLERANCE} of {PAPER_STABLE_FRACTION}"),
        );
    }

    let wall = stats::median(&walls);
    let lat = stats::latency(&op_us);
    let e = &mut out.end_to_end;
    e.put("setup_s", stats::median(&setup_s), "s");
    e.put("work_s", wall, "s");
    e.put("p50_us", lat.p50, "us");
    e.put("p90_us", lat.p90, "us");
    e.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    let d = &mut out.detail;
    d.put("campaign_s", wall, "s");
    d.put("crps_per_s", crps / wall, "1/s");
    d.put("campaign_crps", crps, "count");
    d.put("campaign_measurements", crps * spec.evals as f64, "count");
    d.put("op_p99_us", lat.p99, "us");
    d.put("op_samples", lat.samples as f64, "count");
    d.put("stable_frac", stable_fraction, "ratio");
    d.put("stable_zero_frac", total.stable_zero as f64 / crps, "ratio");
    d.put("stable_one_frac", total.stable_one as f64 / crps, "ratio");
    d.put("paper_stable_frac", PAPER_STABLE_FRACTION, "ratio");
    d.put("workers", workers as f64, "count");

    if traced {
        let hi = trace::now_ns();
        let (truth_ns, delta_ns) = member_row_probe(seed, &spec, &chips);
        crate::stop_tracing();
        let spans = trace::take();
        let t = trace::totals(&spans);
        let per_unit = |n: &str| {
            let x = t.get(n).copied().unwrap_or_default();
            x.total_ns as f64 / x.units.max(1) as f64
        };
        let l = &mut out.layers;
        let measure = per_unit("chip.measure_xor_soft_batch");
        l.put(
            "batch.features_ns_per_row",
            per_unit("batch.from_challenges"),
            "ns",
        );
        l.put("chip.measure_ns_per_crp", measure, "ns");
        l.put("chip.ground_truth_ns_per_member_row", truth_ns, "ns");
        l.put("bitslice.delta_ns_per_member_row", delta_ns, "ns");
        l.put(
            "counter.ns_per_crp",
            measure - XOR_N as f64 * truth_ns,
            "ns",
        );
        l.put("par.speedup_campaign", one_worker_s / wall, "ratio");
        l.put("trace.overhead_frac", traced_wall / wall - 1.0, "ratio");
        l.put(
            "trace.coverage",
            trace::root_coverage(&spans, lo, hi),
            "ratio",
        );
    }
    out
}
