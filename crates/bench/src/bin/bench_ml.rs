//! ML training-kernel throughput harness: CRPs/s for one full-batch
//! loss+gradient step of the paper's 35-25-25 MLP (the unit of work L-BFGS
//! repeats per attack), written to `results/BENCH_ml.json`.
//!
//! Measures, per XOR width n ∈ {1, 4, 10}, on stable-CRP attack datasets:
//!
//! * `naive` — the retained pre-blocking reference path
//!   (`Mlp::loss_value_grad_reference`: per-call activation allocation,
//!   strided weight loops),
//! * `fused_1t` — the blocked-GEMM workspace path pinned to one worker,
//! * `fused_mt` — the same path over the deterministic chunked reduction
//!   with auto-detected workers (bit-identical gradient, checked here).
//!
//! Also re-times the dense fused normal equations
//! (`linalg::normal_equations`, the oracle of the enrollment fit's
//! sign-plane path) against the two-pass `gram_ridge` + `t_matvec`
//! baseline.
//!
//! Run: `cargo run -p puf-bench --release --bin bench_ml`
//! (`PUF_BENCH_CRPS=N` overrides the dataset size, `PUF_THREADS=N` the
//! fan-out width)

use puf_core::challenge::random_challenges;
use puf_core::Condition;
use puf_ml::features::{design_matrix, encode_bits};
use puf_ml::linalg::{cholesky_solve, normal_equations};
use puf_ml::{Matrix, Mlp, MlpConfig, Objective};
use puf_silicon::testbench::collect_stable_xor_crps;
use puf_silicon::{Chip, ChipConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const DEFAULT_CRPS: usize = 8_192;
const REPS: usize = 5;
const XOR_WIDTHS: [usize; 3] = [1, 4, 10];
/// MLP weight-init seed, shared across widths so the timing comparison
/// varies only the architecture, never the draw.
const MLP_INIT_SEED: u64 = 77;

/// Times `f` best-of-[`REPS`] after one warmup call and returns CRPs/s.
fn throughput<F: FnMut() -> f64>(crps: usize, mut f: F) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        // puf-lint: allow(L3): this binary measures throughput; timing is its output by design
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    crps as f64 / best
}

fn attack_dataset(n: usize, size: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let chip = Chip::fabricate(0, &ChipConfig::paper_default(), &mut rng);
    let oversample = (size as f64 / 0.8f64.powi(n as i32) * 1.3) as usize;
    let pool = random_challenges(chip.stages(), oversample, &mut rng);
    let crps = collect_stable_xor_crps(&chip, n, &pool, Condition::NOMINAL, 100_000, &mut rng)
        .expect("CRP collection")
        .truncated(size);
    assert_eq!(crps.len(), size, "not enough stable CRPs collected");
    (
        design_matrix(crps.challenges()),
        encode_bits(crps.responses()),
    )
}

struct StepRow {
    n: usize,
    naive: f64,
    fused_1t: f64,
    fused_mt: f64,
}

fn main() {
    let size: usize = std::env::var("PUF_BENCH_CRPS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(DEFAULT_CRPS);
    let workers = puf_ml::parallel::worker_count(size);

    println!("ML training-step harness: {size} stable CRPs per width, {workers} workers");

    let config = MlpConfig::paper_default();
    let mut rows = Vec::new();
    for n in XOR_WIDTHS {
        let (x, y) = attack_dataset(n, size, 0xB1_0000 + n as u64);
        // puf-lint: allow(L7): identical init across widths is the point — the timing ablation varies architecture only
        let mut rng = StdRng::seed_from_u64(MLP_INIT_SEED);
        let mlp = Mlp::new(x.cols(), &config, &mut rng);
        let params = mlp.params().to_vec();
        let mut grad = vec![0.0; params.len()];

        // Determinism gate before timing: fused gradients must be
        // bit-identical at 1 worker and at the fan-out width.
        let obj_1t = mlp.objective(&x, &y, config.alpha, 1);
        let obj_mt = mlp.objective(&x, &y, config.alpha, workers);
        let mut grad_mt = vec![0.0; params.len()];
        let l1 = obj_1t.value_grad(&params, &mut grad);
        let lm = obj_mt.value_grad(&params, &mut grad_mt);
        assert_eq!(l1.to_bits(), lm.to_bits(), "loss diverged across workers");
        for (a, b) in grad.iter().zip(&grad_mt) {
            assert_eq!(a.to_bits(), b.to_bits(), "gradient diverged across workers");
        }

        let naive = throughput(size, || {
            mlp.loss_value_grad_reference(&params, &x, &y, config.alpha, &mut grad)
        });
        let fused_1t = throughput(size, || obj_1t.value_grad(&params, &mut grad));
        let fused_mt = throughput(size, || obj_mt.value_grad(&params, &mut grad));
        println!(
            "  n={n:<2} naive {naive:>12.0}  fused(1t) {fused_1t:>12.0}  fused({workers}t) {fused_mt:>12.0} CRPs/s  ({:.2}x)",
            fused_1t / naive
        );
        rows.push(StepRow {
            n,
            naive,
            fused_1t,
            fused_mt,
        });
    }

    // Enrollment normal equations: fused single-pass vs two-pass baseline.
    let (x, y) = attack_dataset(1, size, 0xE2_0001);
    let linreg_two_pass = throughput(size, || {
        let gram = x.gram_ridge(1e-6);
        let xty = x.t_matvec(&y);
        cholesky_solve(&gram, &xty).expect("solve")[0]
    });
    let linreg_fused = throughput(size, || {
        let (gram, xty) = normal_equations(&x, &y, 1e-6);
        cholesky_solve(&gram, &xty).expect("solve")[0]
    });
    println!(
        "  linreg normal equations: two-pass {linreg_two_pass:>12.0}  fused {linreg_fused:>12.0} rows/s ({:.2}x)",
        linreg_fused / linreg_two_pass
    );

    let headline = rows.last().expect("at least one row");
    let headline_speedup = headline.fused_1t / headline.naive;
    println!("  10-XOR training step: {headline_speedup:.2}x single-thread speedup (target >= 4x)");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "{},",
        puf_bench::SchemaHeader::capture().to_json_member(2)
    );
    let _ = writeln!(json, "  \"crps_per_width\": {size},");
    let _ = writeln!(json, "  \"threads\": {workers},");
    let _ = writeln!(json, "  \"step_crps_per_sec\": {{");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"xor{}\": {{\"naive\": {:.0}, \"fused_1t\": {:.0}, \"fused_mt\": {:.0}}}{comma}",
            r.n, r.naive, r.fused_1t, r.fused_mt
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"linreg_rows_per_sec\": {{");
    let _ = writeln!(json, "    \"two_pass\": {linreg_two_pass:.0},");
    let _ = writeln!(json, "    \"fused\": {linreg_fused:.0}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup\": {{");
    let _ = writeln!(
        json,
        "    \"xor10_step_fused_vs_naive_1t\": {headline_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "    \"xor10_step_fused_mt_vs_naive\": {:.2},",
        headline.fused_mt / headline.naive
    );
    let _ = writeln!(
        json,
        "    \"linreg_fused_vs_two_pass\": {:.2}",
        linreg_fused / linreg_two_pass
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_ml.json", &json).expect("write BENCH_ml.json");
    println!("\nwrote results/BENCH_ml.json");

    puf_bench::emit_telemetry_report();
}
