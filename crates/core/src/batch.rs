//! Batched CRP evaluation engine: sign-compressed feature matrices and
//! blocked, lane-parallel delta kernels.
//!
//! The paper's scale is ~10¹² challenge-response measurements (1,000,000
//! challenges × 9 V/T corners × 100,000 repeats). Evaluating that volume
//! challenge-by-challenge pays, per CRP, for a fresh feature `Vec`
//! allocation, a parity transform and `n` latency-bound scalar dot
//! products. This module amortizes all three:
//!
//! - [`FeatureMatrix`] stores the parity transforms `φ(cᵢ)` of a whole
//!   challenge batch, built once per batch via
//!   [`Challenge::features_into`]. Every transform entry is exactly `±1.0`
//!   (a product of `1 − 2cⱼ` terms), so the matrix keeps only the *sign
//!   planes*: one `u32` per ([`LANES`]-row group, feature), ~4 bits per
//!   CRP instead of 264 bytes. A 1M-challenge batch is ~4 MiB and stays
//!   cache-resident instead of streaming hundreds of MiB from DRAM.
//!   Build it once and reuse it across every XOR member and every V/T
//!   corner.
//! - The kernels walk the matrix in [`BLOCK_ROWS`]-row blocks: each block's
//!   sign planes are expanded once into a tiny L1-resident `±1.0`
//!   feature-major scratch, then every member's dot products run over it
//!   with [`LANES`] independent per-row accumulator chains — contiguous
//!   SIMD loads, one broadcast weight per feature, no strided access.
//! - The batched [`ArbiterPuf`]/[`XorPuf`] entry points
//!   (`delta_batch`, `response_batch`, `soft_response_batch`, …) and
//!   [`FeatureMatrix::deltas_into`] all run on this block pipeline.
//!
//! **Bit-exactness.** Expanding a sign bit reproduces the transform value
//! exactly (`φⱼ ∈ {+1.0, −1.0}`, and `±1.0 × w` is an exact sign flip),
//! and every kernel accumulates each row in ascending feature order — the
//! order of the scalar [`FeatureVector::dot`](crate::FeatureVector::dot) —
//! so batched deltas, responses and soft responses are bit-identical to
//! the scalar paths, not merely close. SIMD lanes are independent rows;
//! no single row's sum is ever reordered.
//!
//! Throughput of every batch entry point is observable via the
//! `eval.batch` span and the `eval.batch.crps_per_sec` gauge /
//! `eval.batch.crps` counter when telemetry is enabled (the bit-sliced
//! kernels in [`crate::bitslice`] report under `eval.bitslice.*` instead,
//! so the two paths stay distinguishable in traces and reports). With structured
//! tracing enabled (`xorpuf --trace`), each entry point additionally opens
//! a named trace span (`eval.batch.delta`, `eval.batch.response`, …) and
//! the blocked driver marks every block expansion with
//! `eval.batch.block`, so a flamegraph attributes time between expansion
//! and the per-member kernels. Disabled tracing costs one relaxed atomic
//! load per span site.

use crate::arbiter::ArbiterPuf;
use crate::challenge::Challenge;
use crate::math::normal_cdf;
use crate::rngx;
use crate::xor::XorPuf;
use crate::{PufError, MAX_STAGES};
use rand::Rng;
use std::ops::Range;

/// Rows per interleave group — one sign-plane `u32` covers one group, and
/// the expanded scratch gives the kernel [`LANES`] independent per-row
/// accumulator chains (eight 4-wide or four 8-wide vector registers),
/// enough to hide the vector-add latency.
const LANES: usize = 32;

/// Rows per processing block (a multiple of [`LANES`]): `64 × 33 × 8 B ≈
/// 17 KiB` of expanded scratch at the paper's 32 stages — L1-resident, so
/// every XOR member's pass over the block hits near cache.
const BLOCK_ROWS: usize = 64;

/// Sequential inner product — the scalar reference order.
///
/// This is the exact summation order of
/// [`FeatureVector::dot`](crate::FeatureVector::dot); the batched kernels
/// reproduce it per row, which is what makes batch and scalar results
/// bit-identical.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Expands a block's sign planes into the feature-major `±1.0` scratch:
/// `t[(g * width + j) * LANES + r]` is feature `j` of local-group `g`'s
/// row `r` (`+1.0` where the plane bit is set, `−1.0` otherwise).
///
/// Phantom rows past the end of a partial final group expand like any
/// other lane; their deltas are computed and discarded by the callers.
fn expand_block(planes: &[u32], t: &mut [f64]) {
    for (&m, lanes) in planes.iter().zip(t.chunks_exact_mut(LANES)) {
        for (r, v) in lanes.iter_mut().enumerate() {
            *v = if (m >> r) & 1 == 1 { 1.0 } else { -1.0 };
        }
    }
}

/// The lane-parallel kernel over an expanded block: `out[i] = rows[i] · w`
/// with [`LANES`] rows per group sharing one pass over the weights
/// (contiguous lane loads, one broadcast weight per feature).
///
/// Each lane is one row accumulated in ascending feature order, so the
/// result is bit-identical to [`dot`] per row. `out.len()` must be a
/// multiple of [`LANES`] covering the whole expanded block; entries for
/// phantom rows are garbage the caller slices off.
fn deltas_from_expanded(t: &[f64], width: usize, weights: &[f64], out: &mut [f64]) {
    let group = LANES * width;
    for (grp, lanes_out) in t.chunks_exact(group).zip(out.chunks_exact_mut(LANES)) {
        let mut acc = [0.0f64; LANES];
        for (col, &w) in grp.chunks_exact(LANES).zip(weights) {
            for (a, &v) in acc.iter_mut().zip(col) {
                *a += v * w;
            }
        }
        lanes_out.copy_from_slice(&acc);
    }
}

/// Blocked multi-member evaluation driver: walks the matrix in
/// [`BLOCK_ROWS`] row blocks, expands each block's sign planes into the
/// L1-resident scratch once, then computes every member's deltas for the
/// block and hands them to `consume(member_index, first_row, deltas)`.
///
/// The expansion is paid once per block and amortised over all members;
/// the per-member pass is pure L1-resident SIMD — this is what makes the
/// XOR batch paths scale past the latency-bound scalar loop.
fn blocked_member_deltas(
    features: &FeatureMatrix,
    members: &[ArbiterPuf],
    mut consume: impl FnMut(usize, usize, &[f64]),
) {
    let width = features.width();
    let rows = features.len();
    let mut t = vec![0.0f64; BLOCK_ROWS * width];
    let mut deltas = [0.0f64; BLOCK_ROWS];
    let block_planes = (BLOCK_ROWS / LANES) * width;
    for (bi, planes) in features.planes.chunks(block_planes).enumerate() {
        let _block = puf_telemetry::trace_span!("eval.batch.block");
        let first_row = bi * BLOCK_ROWS;
        let block_rows = BLOCK_ROWS.min(rows - first_row);
        expand_block(planes, &mut t[..planes.len() * LANES]);
        let padded = planes.len() / width * LANES;
        for (mi, m) in members.iter().enumerate() {
            deltas_from_expanded(
                &t[..planes.len() * LANES],
                width,
                m.weights(),
                &mut deltas[..padded],
            );
            consume(mi, first_row, &deltas[..block_rows]);
        }
    }
}

/// RAII recorder for batch-evaluation throughput: on drop, adds the batch's
/// CRP count to the `<kernel>.crps` counter and publishes the observed
/// rate on the `<kernel>.crps_per_sec` gauge, where `<kernel>` names the
/// evaluation path (`eval.batch` for the expand-and-multiply engine here,
/// `eval.bitslice` for [`crate::bitslice`]), so traces and reports
/// distinguish which kernel produced the throughput.
///
/// Pair it with a `span!` of the same kernel name at batch entry points;
/// both are no-ops (beyond one `Instant::now`) while telemetry is disabled.
#[derive(Debug)]
pub struct ThroughputGuard {
    kernel: &'static str,
    crps: u64,
    start: std::time::Instant,
}

/// Starts a [`ThroughputGuard`] covering `crps` challenge-response pairs
/// evaluated by `kernel` (`"eval.batch"` or `"eval.bitslice"`; anything
/// else is attributed to `eval.batch`).
pub fn throughput_guard(kernel: &'static str, crps: usize) -> ThroughputGuard {
    ThroughputGuard {
        kernel,
        crps: crps as u64,
        // puf-lint: allow(L3): telemetry-only timing; feeds the crps_per_sec gauge, never results
        start: std::time::Instant::now(),
    }
}

impl Drop for ThroughputGuard {
    fn drop(&mut self) {
        // Kernel names form a closed set so each resolves to a statically
        // interned counter/gauge pair (the telemetry macros cache per site).
        let (crps, rate) = match self.kernel {
            "eval.bitslice" => (
                puf_telemetry::counter!("eval.bitslice.crps"),
                puf_telemetry::gauge!("eval.bitslice.crps_per_sec"),
            ),
            _ => (
                puf_telemetry::counter!("eval.batch.crps"),
                puf_telemetry::gauge!("eval.batch.crps_per_sec"),
            ),
        };
        crps.add(self.crps);
        let secs = self.start.elapsed().as_secs_f64();
        if secs > 0.0 && self.crps > 0 {
            rate.set(self.crps as f64 / secs);
        }
    }
}

/// The parity transforms of a challenge batch, sign-compressed: every
/// transform entry is exactly `±1.0`, so row `i`'s `stages + 1`-wide
/// `φ(cᵢ)` is stored as sign bits packed into per-feature planes
/// (`planes[g * width + j]` bit `r` covers row `g * 32 + r`), ~4 bits per
/// CRP. The kernels expand blocks back to `±1.0` in L1 on the fly —
/// bit-exactly, since expansion reproduces the transform values verbatim.
///
/// The source challenges are retained (16 bytes each) because downstream
/// consumers — e.g. the silicon model's per-challenge mismatch hash — need
/// the raw bits alongside the transform.
///
/// Build once per batch, then reuse across every XOR member and every
/// operating condition; nothing in the matrix depends on either.
///
/// ```
/// use puf_core::{batch::FeatureMatrix, Challenge, XorPuf};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let xor = XorPuf::random(4, 32, &mut rng);
/// let cs: Vec<Challenge> = (0..64).map(|_| Challenge::random(32, &mut rng)).collect();
/// let fm = FeatureMatrix::from_challenges(&cs)?;
/// let batch = xor.response_batch(&fm);
/// assert_eq!(batch, cs.iter().map(|c| xor.response(c)).collect::<Vec<_>>());
/// # Ok::<(), puf_core::PufError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureMatrix {
    challenges: Vec<Challenge>,
    /// Sign planes, group-major: `planes[g * width + j]` bit `r` is set iff
    /// `φⱼ(c)` of row `g * LANES + r` is `+1.0`. Phantom rows of a partial
    /// final group are zero bits.
    planes: Vec<u32>,
    width: usize,
}

impl FeatureMatrix {
    /// Builds the matrix for `challenges`, all of which must have `stages`
    /// stages. Allows an empty batch (zero rows).
    ///
    /// # Errors
    ///
    /// [`PufError::InvalidStageCount`] for an out-of-range `stages`,
    /// [`PufError::StageMismatch`] if any challenge disagrees.
    pub fn new(stages: usize, challenges: &[Challenge]) -> Result<Self, PufError> {
        if stages == 0 || stages > MAX_STAGES {
            return Err(PufError::InvalidStageCount { stages });
        }
        let width = stages + 1;
        let groups = challenges.len().div_ceil(LANES);
        let mut planes = vec![0u32; groups * width];
        let mut phi = vec![0.0f64; width];
        for (i, c) in challenges.iter().enumerate() {
            if c.stages() != stages {
                return Err(PufError::StageMismatch {
                    expected: stages,
                    actual: c.stages(),
                });
            }
            c.features_into(&mut phi);
            let (g, r) = (i / LANES, i % LANES);
            for (j, &v) in phi.iter().enumerate() {
                planes[g * width + j] |= u32::from(v > 0.0) << r;
            }
        }
        Ok(Self {
            challenges: challenges.to_vec(),
            planes,
            width,
        })
    }

    /// Builds the matrix taking the stage count from the first challenge.
    ///
    /// # Errors
    ///
    /// [`PufError::InvalidParameter`] for an empty batch (use
    /// [`FeatureMatrix::new`] when zero rows are legitimate),
    /// [`PufError::StageMismatch`] on inconsistent stage counts.
    pub fn from_challenges(challenges: &[Challenge]) -> Result<Self, PufError> {
        let first = challenges.first().ok_or(PufError::InvalidParameter {
            name: "challenges",
            constraint:
                "a feature matrix needs at least one challenge (or an explicit stage count)",
        })?;
        Self::new(first.stages(), challenges)
    }

    /// Number of rows (challenges) in the batch.
    pub fn len(&self) -> usize {
        self.challenges.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.challenges.is_empty()
    }

    /// Stage count of the batch's challenges.
    pub fn stages(&self) -> usize {
        self.width - 1
    }

    /// Row width, `stages + 1`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`, materialised: the transform `φ(cᵢ)` expanded from its sign
    /// bits (every entry `±1.0`). Allocates a fresh `Vec` per call — for
    /// repeated row access use [`FeatureMatrix::row_into`] with a reused
    /// buffer, and for bulk evaluation use [`FeatureMatrix::deltas_into`],
    /// which never materialises rows.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; self.width];
        self.row_into(i, &mut out);
        out
    }

    /// Allocation-free [`FeatureMatrix::row`]: expands row `i`'s transform
    /// `φ(cᵢ)` from its sign bits into `out` (every entry `±1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `out.len() != width()`.
    pub fn row_into(&self, i: usize, out: &mut [f64]) {
        assert!(i < self.len(), "row index out of range");
        assert_eq!(out.len(), self.width, "row buffer width mismatch");
        let (g, r) = (i / LANES, i % LANES);
        for (v, &m) in out
            .iter_mut()
            .zip(&self.planes[g * self.width..(g + 1) * self.width])
        {
            *v = if (m >> r) & 1 == 1 { 1.0 } else { -1.0 };
        }
    }

    /// Writes the 64-row bit-sliced plane words of block `block` (rows
    /// `block * 64 ..`): `out[j]` bit `r` is set iff `φⱼ` of row
    /// `block * 64 + r` is `+1.0`. Each word fuses two consecutive
    /// [`LANES`]-row sign planes; phantom rows past the end of the batch
    /// are zero bits. This is the transposed view the [`crate::bitslice`]
    /// kernels consume directly.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != width()` or the block is out of range.
    pub(crate) fn plane_words_into(&self, block: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.width, "plane word buffer width mismatch");
        let lo = block * 2 * self.width;
        let hi = lo + self.width;
        assert!(lo < self.planes.len(), "block index out of range");
        for (j, w) in out.iter_mut().enumerate() {
            let low = u64::from(self.planes[lo + j]);
            let high = self
                .planes
                .get(hi + j)
                .map_or(0u64, |&m| u64::from(m) << 32);
            *w = low | high;
        }
    }

    /// The source challenges, in row order.
    pub fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    /// Writes `out[i] = φ(cᵢ) · weights` for every row using the blocked
    /// lane-parallel kernel. Bit-identical to calling [`dot`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != width()` or `out.len() != len()`.
    pub fn deltas_into(&self, weights: &[f64], out: &mut [f64]) {
        assert_eq!(weights.len(), self.width, "weight length mismatch");
        assert_eq!(out.len(), self.len(), "output length mismatch");
        let width = self.width;
        let mut t = vec![0.0f64; BLOCK_ROWS * width];
        let mut deltas = [0.0f64; BLOCK_ROWS];
        let block_planes = (BLOCK_ROWS / LANES) * width;
        for (planes, out_block) in self
            .planes
            .chunks(block_planes)
            .zip(out.chunks_mut(BLOCK_ROWS))
        {
            expand_block(planes, &mut t[..planes.len() * LANES]);
            let padded = planes.len() / width * LANES;
            deltas_from_expanded(
                &t[..planes.len() * LANES],
                width,
                weights,
                &mut deltas[..padded],
            );
            out_block.copy_from_slice(&deltas[..out_block.len()]);
        }
    }

    /// Pairwise sign agreement over the whole batch: entry
    /// `a * width() + b` is the number of rows whose features `a` and `b`
    /// carry the same sign. Symmetric, with `len()` on the diagonal.
    ///
    /// Every `φₐ·φ_b` product is `±1`, so `2·agree − len()` is entry
    /// `(a, b)` of the Gram matrix `ΦᵀΦ` — an exact integer computed from
    /// one XOR-popcount per pair per 64-row plane word instead of `len()`
    /// multiply-adds.
    pub fn sign_agreements(&self) -> Vec<u64> {
        let width = self.width;
        // Phantom rows past the end of the batch are zero in every plane,
        // so they never disagree: subtracting every disagreement from the
        // row count is exact.
        let mut agree = vec![self.len() as u64; width * width];
        let mut words = vec![0u64; width];
        for block in 0..self.len().div_ceil(crate::bitslice::WORD_ROWS) {
            self.plane_words_into(block, &mut words);
            for (a, &wa) in words.iter().enumerate() {
                let row = &mut agree[a * width..(a + 1) * width];
                for (n, &wb) in row[a + 1..].iter_mut().zip(&words[a + 1..]) {
                    *n -= u64::from((wa ^ wb).count_ones());
                }
            }
        }
        for a in 0..width {
            for b in (a + 1)..width {
                agree[b * width + a] = agree[a * width + b];
            }
        }
        agree
    }

    /// Signed row sums in row order: `out[j] = Σ φⱼ(cᵢ)·y[i]` over `rows`,
    /// each sum starting from `0.0` and adding rows in ascending order —
    /// the summation order of a dense `Xᵀy` pass over those rows.
    /// `φⱼ·y` is `±y`, an exact sign flip, so every partial sum is
    /// bit-identical to the dense one.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != len()`, `out.len() != width()` or `rows`
    /// reaches past the batch.
    pub fn signed_row_sums_into(&self, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
        assert_eq!(y.len(), self.len(), "target length mismatch");
        assert_eq!(out.len(), self.width, "output width mismatch");
        assert!(rows.end <= self.len(), "row range out of bounds");
        out.fill(0.0);
        for i in rows {
            let (g, r) = (i / LANES, i % LANES);
            let (pos, neg) = (y[i], -y[i]);
            let planes = &self.planes[g * self.width..(g + 1) * self.width];
            for (o, &m) in out.iter_mut().zip(planes) {
                *o += if (m >> r) & 1 == 1 { pos } else { neg };
            }
        }
    }
}

impl ArbiterPuf {
    fn check_batch(&self, features: &FeatureMatrix) {
        assert_eq!(
            features.stages(),
            self.stages(),
            "feature matrix stage count does not match the PUF"
        );
    }

    /// Batched delay differences `Δ(cᵢ) = w · φ(cᵢ)`, written into `out`.
    ///
    /// Bit-identical to [`ArbiterPuf::delay_difference`] per challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or if `out.len() != features.len()`.
    pub fn delta_batch_into(&self, features: &FeatureMatrix, out: &mut [f64]) {
        self.check_batch(features);
        features.deltas_into(self.weights(), out);
    }

    /// Batched delay differences for a whole feature matrix.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn delta_batch(&self, features: &FeatureMatrix) -> Vec<f64> {
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.delta");
        let _throughput = throughput_guard("eval.batch", features.len());
        let mut out = vec![0.0; features.len()];
        self.delta_batch_into(features, &mut out);
        out
    }

    /// Batched noiseless responses, bit-identical to
    /// [`ArbiterPuf::response`] per challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response_batch(&self, features: &FeatureMatrix) -> Vec<bool> {
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.response");
        let _throughput = throughput_guard("eval.batch", features.len());
        let mut deltas = vec![0.0; features.len()];
        self.delta_batch_into(features, &mut deltas);
        deltas.iter().map(|&d| d > 0.0).collect()
    }

    /// Batched analytic soft responses `Φ(Δ(cᵢ)/σ)`, bit-identical to
    /// [`ArbiterPuf::soft_response`] per challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or an invalid `sigma_noise`.
    pub fn soft_response_batch(&self, features: &FeatureMatrix, sigma_noise: f64) -> Vec<f64> {
        assert!(
            sigma_noise >= 0.0 && sigma_noise.is_finite(),
            "sigma_noise must be finite and non-negative"
        );
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.soft");
        let _throughput = throughput_guard("eval.batch", features.len());
        let mut deltas = vec![0.0; features.len()];
        self.delta_batch_into(features, &mut deltas);
        for d in &mut deltas {
            *d = if sigma_noise == 0.0 {
                if *d > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                normal_cdf(*d / sigma_noise)
            };
        }
        deltas
    }
}

impl XorPuf {
    fn check_batch(&self, features: &FeatureMatrix) {
        assert_eq!(
            features.stages(),
            self.stages(),
            "feature matrix stage count does not match the PUF"
        );
    }

    /// Batched per-member delay differences, member-major: entry
    /// `m * features.len() + i` is member `m`'s delta on challenge `i`.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn delta_batch(&self, features: &FeatureMatrix) -> Vec<f64> {
        self.check_batch(features);
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.delta");
        let _throughput = throughput_guard("eval.batch", features.len());
        let rows = features.len();
        let mut out = vec![0.0; self.n() * rows];
        blocked_member_deltas(features, self.members(), |mi, first_row, deltas| {
            out[mi * rows + first_row..mi * rows + first_row + deltas.len()]
                .copy_from_slice(deltas);
        });
        out
    }

    /// Batched noiseless XOR responses, bit-identical to
    /// [`XorPuf::response`] per challenge.
    ///
    /// The matrix is walked in row blocks so each block stays cache-hot
    /// while every member consumes it.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response_batch(&self, features: &FeatureMatrix) -> Vec<bool> {
        self.check_batch(features);
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.response");
        let _throughput = throughput_guard("eval.batch", features.len());
        let mut bits = vec![false; features.len()];
        blocked_member_deltas(features, self.members(), |_, first_row, deltas| {
            for (b, &d) in bits[first_row..].iter_mut().zip(deltas) {
                *b ^= d > 0.0;
            }
        });
        bits
    }

    /// Batched analytic XOR soft responses (piling-up identity),
    /// bit-identical to [`XorPuf::soft_response`] per challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or an invalid `sigma_noise`.
    pub fn soft_response_batch(&self, features: &FeatureMatrix, sigma_noise: f64) -> Vec<f64> {
        self.check_batch(features);
        assert!(
            sigma_noise >= 0.0 && sigma_noise.is_finite(),
            "sigma_noise must be finite and non-negative"
        );
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.soft");
        let _throughput = throughput_guard("eval.batch", features.len());
        let mut prod = vec![1.0f64; features.len()];
        blocked_member_deltas(features, self.members(), |_, first_row, deltas| {
            for (pr, &d) in prod[first_row..].iter_mut().zip(deltas) {
                let p = if sigma_noise == 0.0 {
                    if d > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    normal_cdf(d / sigma_noise)
                };
                *pr *= 1.0 - 2.0 * p;
            }
        });
        for pr in &mut prod {
            *pr = (1.0 - *pr) / 2.0;
        }
        prod
    }

    /// Batched noisy evaluations. Noise is drawn challenge-major,
    /// member-minor — the same stream order as calling
    /// [`XorPuf::eval_noisy`] per challenge with the same RNG, so seeded
    /// runs are bit-identical to the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or an invalid `sigma_noise`.
    pub fn eval_noisy_batch<R: Rng + ?Sized>(
        &self,
        features: &FeatureMatrix,
        sigma_noise: f64,
        rng: &mut R,
    ) -> Vec<bool> {
        self.check_batch(features);
        let _span = puf_telemetry::span!("eval.batch");
        let _trace = puf_telemetry::trace_span!("eval.batch.noisy");
        let _throughput = throughput_guard("eval.batch", features.len());
        let n = self.n();
        let mut bits = Vec::with_capacity(features.len());
        // Deltas for a whole block are computed member-major (kernel
        // friendly), then the noise draws replay challenge-major.
        let mut deltas = vec![0.0f64; n * BLOCK_ROWS];
        let mut block_rows = 0usize;
        let mut flush = |deltas: &[f64], rows: usize, bits: &mut Vec<bool>| {
            for i in 0..rows {
                let mut acc = false;
                for m in 0..n {
                    let delta = deltas[m * BLOCK_ROWS + i];
                    acc ^= delta + rngx::normal(rng, 0.0, sigma_noise) > 0.0;
                }
                bits.push(acc);
            }
        };
        blocked_member_deltas(features, self.members(), |mi, _, block_deltas| {
            deltas[mi * BLOCK_ROWS..mi * BLOCK_ROWS + block_deltas.len()]
                .copy_from_slice(block_deltas);
            block_rows = block_deltas.len();
            if mi + 1 == n {
                flush(&deltas, block_rows, &mut bits);
            }
        });
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_batch(
        seed: u64,
        n: usize,
        stages: usize,
        count: usize,
    ) -> (XorPuf, Vec<Challenge>, FeatureMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xor = XorPuf::random(n, stages, &mut rng);
        let cs: Vec<Challenge> = (0..count)
            .map(|_| Challenge::random(stages, &mut rng))
            .collect();
        let fm = FeatureMatrix::from_challenges(&cs).unwrap();
        (xor, cs, fm)
    }

    #[test]
    fn matrix_rows_match_feature_vectors() {
        let (_, cs, fm) = random_batch(1, 1, 32, 40);
        assert_eq!(fm.len(), 40);
        assert_eq!(fm.width(), 33);
        assert_eq!(fm.stages(), 32);
        // One reused row buffer — `row_into` materialises without the
        // per-row `Vec` the old `row()` loop paid for.
        let mut row = vec![0.0f64; fm.width()];
        for (i, c) in cs.iter().enumerate() {
            fm.row_into(i, &mut row);
            assert_eq!(row, c.features().as_slice(), "row {i}");
        }
        assert_eq!(fm.row(7), cs[7].features().as_slice(), "row() delegates");
        assert_eq!(fm.challenges(), &cs[..]);
    }

    #[test]
    fn matrix_constructors_validate() {
        assert!(matches!(
            FeatureMatrix::from_challenges(&[]),
            Err(PufError::InvalidParameter { .. })
        ));
        assert!(matches!(
            FeatureMatrix::new(0, &[]),
            Err(PufError::InvalidStageCount { .. })
        ));
        assert!(matches!(
            FeatureMatrix::new(8, &[Challenge::zero(16)]),
            Err(PufError::StageMismatch { .. })
        ));
        let empty = FeatureMatrix::new(8, &[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.stages(), 8);
    }

    #[test]
    fn kernel_handles_all_remainder_sizes() {
        // 0..=9 rows covers empty, sub-quad and quad+remainder shapes.
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::random(13, &mut rng);
        for count in 0..=9 {
            let cs: Vec<Challenge> = (0..count)
                .map(|_| Challenge::random(13, &mut rng))
                .collect();
            let fm = FeatureMatrix::new(13, &cs).unwrap();
            let batch = puf.delta_batch(&fm);
            for (c, &d) in cs.iter().zip(&batch) {
                assert_eq!(d.to_bits(), puf.delay_difference(c).to_bits());
            }
        }
    }

    #[test]
    fn batch_spans_multiple_blocks() {
        // More rows than BLOCK_ROWS exercises the blocked walk.
        let (xor, cs, fm) = random_batch(3, 3, 16, BLOCK_ROWS + 17);
        let batch = xor.response_batch(&fm);
        let soft = xor.soft_response_batch(&fm, 0.05);
        for (i, c) in cs.iter().enumerate() {
            assert_eq!(batch[i], xor.response(c), "row {i}");
            assert_eq!(
                soft[i].to_bits(),
                xor.soft_response(c, 0.05).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn xor_delta_batch_is_member_major() {
        let (xor, cs, fm) = random_batch(4, 5, 24, 33);
        let deltas = xor.delta_batch(&fm);
        assert_eq!(deltas.len(), 5 * 33);
        for (i, c) in cs.iter().enumerate() {
            let scalar = xor.member_deltas(c);
            for (m, &want) in scalar.iter().enumerate() {
                assert_eq!(deltas[m * 33 + i].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn noisy_batch_matches_scalar_loop_and_is_deterministic() {
        let (xor, cs, fm) = random_batch(5, 4, 32, 257);
        let sigma = 0.08;
        let batch_a = xor.eval_noisy_batch(&fm, sigma, &mut StdRng::seed_from_u64(99));
        let batch_b = xor.eval_noisy_batch(&fm, sigma, &mut StdRng::seed_from_u64(99));
        assert_eq!(batch_a, batch_b, "same seed must reproduce the batch");
        let mut rng = StdRng::seed_from_u64(99);
        let scalar: Vec<bool> = cs
            .iter()
            .map(|c| xor.eval_noisy(c, sigma, &mut rng))
            .collect();
        assert_eq!(batch_a, scalar, "batch must replay the scalar noise stream");
    }

    #[test]
    fn sign_agreements_count_equal_signs_per_feature_pair() {
        for (count, stages) in [(0, 4), (1, 1), (31, 7), (33, 32), (200, 64), (97, 128)] {
            let mut rng = StdRng::seed_from_u64(9);
            let cs: Vec<Challenge> = (0..count)
                .map(|_| Challenge::random(stages, &mut rng))
                .collect();
            let fm = FeatureMatrix::new(stages, &cs).unwrap();
            let w = fm.width();
            let rows: Vec<Vec<f64>> = (0..count).map(|i| fm.row(i)).collect();
            let agree = fm.sign_agreements();
            for a in 0..w {
                for b in 0..w {
                    let want = rows.iter().filter(|r| r[a] == r[b]).count() as u64;
                    assert_eq!(agree[a * w + b], want, "count {count}, ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn signed_row_sums_follow_the_dense_row_order() {
        let (_, _, fm) = random_batch(10, 1, 32, 150);
        let mut rng = StdRng::seed_from_u64(11);
        let y: Vec<f64> = (0..150).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![f64::NAN; fm.width()];
        for range in [0..0, 0..1, 0..150, 31..97, 64..65, 149..150] {
            fm.signed_row_sums_into(&y, range.clone(), &mut out);
            let mut want = vec![0.0f64; fm.width()];
            for i in range.clone() {
                for (w, x) in want.iter_mut().zip(fm.row(i)) {
                    *w += x * y[i];
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "rows {range:?}");
        }
    }

    #[test]
    #[should_panic(expected = "stage count does not match")]
    fn stage_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let puf = ArbiterPuf::random(16, &mut rng);
        let fm = FeatureMatrix::new(8, &[Challenge::zero(8)]).unwrap();
        let _ = puf.delta_batch(&fm);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_arbiter_delta_batch_bit_exact(
            seed in any::<u64>(),
            stages in 1usize..=128,
            count in 1usize..=48,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = ArbiterPuf::random(stages, &mut rng);
            let cs: Vec<Challenge> = (0..count)
                .map(|_| Challenge::random(stages, &mut rng))
                .collect();
            let fm = FeatureMatrix::from_challenges(&cs).unwrap();
            let deltas = puf.delta_batch(&fm);
            let responses = puf.response_batch(&fm);
            let soft = puf.soft_response_batch(&fm, 0.0575);
            for (i, c) in cs.iter().enumerate() {
                prop_assert_eq!(deltas[i].to_bits(), puf.delay_difference(c).to_bits());
                prop_assert_eq!(responses[i], puf.response(c));
                prop_assert_eq!(soft[i].to_bits(), puf.soft_response(c, 0.0575).to_bits());
            }
        }

        #[test]
        fn prop_xor_batch_bit_exact(
            seed in any::<u64>(),
            n in 1usize..=10,
            stages in 1usize..=128,
            count in 1usize..=32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xor = XorPuf::random(n, stages, &mut rng);
            let cs: Vec<Challenge> = (0..count)
                .map(|_| Challenge::random(stages, &mut rng))
                .collect();
            let fm = FeatureMatrix::from_challenges(&cs).unwrap();
            let responses = xor.response_batch(&fm);
            let soft = xor.soft_response_batch(&fm, 0.05);
            let hard = xor.soft_response_batch(&fm, 0.0);
            for (i, c) in cs.iter().enumerate() {
                prop_assert_eq!(responses[i], xor.response(c));
                prop_assert_eq!(soft[i].to_bits(), xor.soft_response(c, 0.05).to_bits());
                prop_assert_eq!(hard[i].to_bits(), xor.soft_response(c, 0.0).to_bits());
            }
        }

        #[test]
        fn prop_noisy_batch_replays_scalar_stream(
            seed in any::<u64>(),
            n in 1usize..=10,
            count in 1usize..=32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xor = XorPuf::random(n, 32, &mut rng);
            let cs: Vec<Challenge> = (0..count)
                .map(|_| Challenge::random(32, &mut rng))
                .collect();
            let fm = FeatureMatrix::from_challenges(&cs).unwrap();
            let batch = xor.eval_noisy_batch(&fm, 0.06, &mut StdRng::seed_from_u64(seed ^ 0xB00C));
            let mut scalar_rng = StdRng::seed_from_u64(seed ^ 0xB00C);
            let scalar: Vec<bool> = cs
                .iter()
                .map(|c| xor.eval_noisy(c, 0.06, &mut scalar_rng))
                .collect();
            prop_assert_eq!(batch, scalar);
        }
    }
}
