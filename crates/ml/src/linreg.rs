//! Linear regression — the paper's enrollment estimator.
//!
//! §4: *"we use the linear regression algorithm, rather than logistic
//! regression … we obtained soft responses that are fractional numbers,
//! rather than binary numbers."* The model predicts a (possibly
//! out-of-`[0,1]`) *predicted soft response* `ŝ = θ · φ(c)`; the paper's
//! Fig. 8 notes the prediction range is wider than the measured `[0, 1]`
//! range, which is exactly what an unclipped linear model produces and what
//! the three-way thresholding exploits as a stability margin signal.

use crate::linalg::{cholesky_solve, dot, Matrix, NotPositiveDefiniteError};
use crate::parallel;
use puf_core::batch::FeatureMatrix;
use puf_core::Challenge;

/// A fitted ridge-regularised linear model over transformed challenges.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearRegression {
    theta: Vec<f64>,
}

impl LinearRegression {
    /// Fits `θ = argmin ‖Φ·θ − y‖² + λ‖θ‖²` by solving the normal equations
    /// with a Cholesky factorisation.
    ///
    /// `features` holds the transformed challenges `φ(cᵢ)` (one row each),
    /// `y` the targets (measured soft responses during enrollment), `ridge`
    /// the regularisation λ ≥ 0.
    ///
    /// Every feature is `±1`, so the normal equations are assembled
    /// exactly from the matrix's sign planes rather than a dense pass:
    ///
    /// - `ΦᵀΦ` entry `(a, b)` is the integer `2·agree − rows`, where
    ///   `agree` counts rows whose features `a` and `b` share a sign
    ///   ([`FeatureMatrix::sign_agreements`]); integers below 2⁵³ are exact
    ///   in `f64`, so every summation order gives these same bits;
    /// - `Φᵀy` is a signed sum of `y` and keeps the dense kernel's
    ///   summation tree: rows ascending inside each fixed
    ///   [`parallel::chunk_range`] chunk, then chunk partials in ascending
    ///   order ([`FeatureMatrix::signed_row_sums_into`]).
    ///
    /// θ is therefore bit-identical to
    /// [`normal_equations`](crate::linalg::normal_equations) +
    /// [`cholesky_solve`] over the materialised design matrix, errors
    /// included (proptest-enforced).
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] when the Gram matrix is singular
    /// (fewer effective samples than features and `ridge == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != features.len()` or `ridge < 0`.
    pub fn fit_features(
        features: &FeatureMatrix,
        y: &[f64],
        ridge: f64,
    ) -> Result<Self, NotPositiveDefiniteError> {
        assert_eq!(y.len(), features.len(), "target length mismatch");
        assert!(ridge >= 0.0, "ridge must be non-negative");
        let n = features.width();
        let rows = features.len();
        puf_telemetry::counter!("ml.linreg.normal_eq.rows").add(rows as u64);

        let agree = features.sign_agreements();
        let total = exact_count(rows as u64);
        let mut gram = Matrix::zeros(n, n);
        for a in 0..n {
            for b in 0..n {
                gram[(a, b)] = 2.0 * exact_count(agree[a * n + b]) - total;
            }
            gram[(a, a)] += ridge;
        }

        let chunks = parallel::chunk_count(rows);
        let mut xty = vec![0.0; n];
        let mut partial = vec![0.0; n];
        for c in 0..chunks {
            features.signed_row_sums_into(y, parallel::chunk_range(rows, chunks, c), &mut partial);
            for (t, &p) in xty.iter_mut().zip(&partial) {
                *t += p;
            }
        }

        let theta = cholesky_solve(&gram, &xty)?;
        Ok(Self { theta })
    }

    /// Convenience: fit from challenges and soft-response values (builds
    /// the [`FeatureMatrix`] and calls [`LinearRegression::fit_features`]).
    ///
    /// # Errors
    ///
    /// See [`LinearRegression::fit_features`].
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, lengths differ or the challenges
    /// disagree on their stage count.
    pub fn fit_challenges(
        challenges: &[Challenge],
        soft_values: &[f64],
        ridge: f64,
    ) -> Result<Self, NotPositiveDefiniteError> {
        assert_eq!(
            challenges.len(),
            soft_values.len(),
            "challenge/target length mismatch"
        );
        assert!(!challenges.is_empty(), "need at least one challenge");
        let stages = challenges[0].stages();
        assert!(
            challenges.iter().all(|c| c.stages() == stages),
            "inconsistent challenge stage counts"
        );
        match FeatureMatrix::new(stages, challenges) {
            Ok(features) => Self::fit_features(&features, soft_values, ridge),
            // Unreachable: the assertions above rule out every construction
            // error, and a `Challenge` always has a valid stage count.
            Err(_) => Err(NotPositiveDefiniteError { pivot: 0 }),
        }
    }

    /// The fitted coefficient vector `θ` (length `stages + 1`).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Builds a model directly from coefficients (e.g. restored from a
    /// server database).
    pub fn from_theta(theta: Vec<f64>) -> Self {
        Self { theta }
    }

    /// Predicted soft response `ŝ = θ · φ(c)` for one challenge.
    ///
    /// # Panics
    ///
    /// Panics if the challenge stage count does not match the model.
    pub fn predict(&self, challenge: &Challenge) -> f64 {
        let phi = challenge.features();
        assert_eq!(
            phi.len(),
            self.theta.len(),
            "challenge stage count does not match model"
        );
        phi.dot(&self.theta)
    }

    /// Predicted soft response from a pre-computed feature row.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch (debug builds).
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        dot(features, &self.theta)
    }

    /// Predictions for a batch of challenges. One feature buffer is reused
    /// across the batch instead of allocating per challenge.
    pub fn predict_batch(&self, challenges: &[Challenge]) -> Vec<f64> {
        let mut phi = vec![0.0f64; self.theta.len()];
        challenges
            .iter()
            .map(|c| {
                assert_eq!(
                    c.stages() + 1,
                    self.theta.len(),
                    "challenge stage count does not match model"
                );
                c.features_into(&mut phi);
                dot(&phi, &self.theta)
            })
            .collect()
    }

    /// Mean squared error against targets.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or the batch is empty.
    pub fn mse(&self, challenges: &[Challenge], targets: &[f64]) -> f64 {
        assert_eq!(challenges.len(), targets.len(), "length mismatch");
        assert!(!challenges.is_empty(), "empty batch");
        let mut phi = vec![0.0f64; self.theta.len()];
        let mut acc = 0.0;
        for (c, &t) in challenges.iter().zip(targets) {
            assert_eq!(
                c.stages() + 1,
                self.theta.len(),
                "challenge stage count does not match model"
            );
            c.features_into(&mut phi);
            let e = dot(&phi, &self.theta) - t;
            acc += e * e;
        }
        acc / challenges.len() as f64
    }
}

/// `n` as an `f64`, exactly for every `n < 2⁵³`: both 32-bit halves
/// convert exactly, and so does their sum below that bound (row counts
/// never come close).
fn exact_count(n: u64) -> f64 {
    let half = |v: u64| f64::from(u32::try_from(v & u64::from(u32::MAX)).unwrap_or(u32::MAX));
    half(n >> 32) * 4_294_967_296.0 + half(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::design_matrix;
    use crate::linalg::normal_equations;
    use proptest::prelude::*;
    use puf_core::{ArbiterPuf, NoiseModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense oracle: the fused row-parallel pass over the materialised
    /// design matrix, then the same Cholesky solve.
    fn fit_dense(
        challenges: &[Challenge],
        y: &[f64],
        ridge: f64,
    ) -> Result<Vec<f64>, NotPositiveDefiniteError> {
        let (gram, xty) = normal_equations(&design_matrix(challenges), y, ridge);
        cholesky_solve(&gram, &xty)
    }

    /// Row counts around the 32-row plane groups, the 1,024-row reduction
    /// chunks, enrollment's 5,000 and a many-chunk batch.
    const ROWS: [usize; 9] = [1, 31, 32, 33, 1023, 1024, 1025, 5_000, 65_600];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sign-plane normal equations give θ bit-identical to the dense
        /// kernel, and the identical error on singular systems (too few
        /// rows, or many rows drawn from a handful of distinct challenges).
        #[test]
        fn prop_sign_plane_fit_is_bit_identical_to_dense(
            rows_idx in 0usize..ROWS.len(),
            stages in 1usize..=128,
            ridge_idx in 0usize..3,
            distinct in 0usize..4,
            seed in any::<u64>(),
        ) {
            let rows = ROWS[rows_idx];
            // Keep the dense oracle's debug-build cost bounded on big batches.
            let stages = match rows {
                65_600 => stages.min(16),
                5_000 => stages.min(64),
                _ => stages,
            };
            let ridge = [0.0, 1e-6, 0.5][ridge_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: Vec<Challenge> = (0..[rows, 1, 2, 3][distinct])
                .map(|_| Challenge::random(stages, &mut rng))
                .collect();
            let challenges: Vec<Challenge> =
                (0..rows).map(|i| pool[if distinct == 0 { i } else { rng.gen_range(0..pool.len()) }]).collect();
            let y: Vec<f64> = (0..rows)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect();
            let dense = fit_dense(&challenges, &y, ridge);
            let fast = LinearRegression::fit_challenges(&challenges, &y, ridge).map(|m| m.theta);
            match (&dense, &fast) {
                (Ok(d), Ok(f)) => {
                    let d: Vec<u64> = d.iter().map(|v| v.to_bits()).collect();
                    let f: Vec<u64> = f.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(d, f, "rows={} stages={} ridge={}", rows, stages, ridge);
                }
                _ => prop_assert_eq!(dense, fast, "rows={} stages={} ridge={}", rows, stages, ridge),
            }
        }
    }

    #[test]
    fn singular_systems_fail_identically() {
        // One challenge repeated: rank one, so the second pivot fails.
        let mut rng = StdRng::seed_from_u64(6);
        let c = Challenge::random(32, &mut rng);
        let challenges = vec![c; 2_000];
        let y: Vec<f64> = (0..2_000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let err = LinearRegression::fit_challenges(&challenges, &y, 0.0).unwrap_err();
        assert_eq!(Err(err), fit_dense(&challenges, &y, 0.0));
    }

    #[test]
    #[should_panic(expected = "inconsistent challenge stage counts")]
    fn mixed_stage_counts_panic() {
        let challenges = [Challenge::zero(8), Challenge::zero(9)];
        let _ = LinearRegression::fit_challenges(&challenges, &[0.0, 1.0], 0.0);
    }

    #[test]
    fn recovers_exact_linear_map() {
        // Targets generated by a known θ; with enough samples and no noise,
        // the fit must recover θ exactly.
        let mut rng = StdRng::seed_from_u64(1);
        let theta_true: Vec<f64> = (0..17).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let challenges: Vec<Challenge> =
            (0..200).map(|_| Challenge::random(16, &mut rng)).collect();
        let y: Vec<f64> = challenges
            .iter()
            .map(|c| c.features().dot(&theta_true))
            .collect();
        let model = LinearRegression::fit_challenges(&challenges, &y, 0.0).unwrap();
        for (got, want) in model.theta().iter().zip(&theta_true) {
            assert!((got - want).abs() < 1e-9, "θ mismatch");
        }
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let mut rng = StdRng::seed_from_u64(2);
        let challenges: Vec<Challenge> = (0..100).map(|_| Challenge::random(8, &mut rng)).collect();
        let y: Vec<f64> = (0..100).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let free = LinearRegression::fit_challenges(&challenges, &y, 0.0).unwrap();
        let ridged = LinearRegression::fit_challenges(&challenges, &y, 100.0).unwrap();
        let norm_free: f64 = free.theta().iter().map(|t| t * t).sum();
        let norm_ridged: f64 = ridged.theta().iter().map(|t| t * t).sum();
        assert!(norm_ridged < norm_free);
    }

    #[test]
    fn underdetermined_without_ridge_fails_gracefully() {
        // 3 samples, 17 features: singular Gram matrix.
        let mut rng = StdRng::seed_from_u64(3);
        let challenges: Vec<Challenge> = (0..3).map(|_| Challenge::random(16, &mut rng)).collect();
        let y = vec![0.1, 0.5, 0.9];
        assert!(LinearRegression::fit_challenges(&challenges, &y, 0.0).is_err());
        // A tiny ridge regularises it.
        assert!(LinearRegression::fit_challenges(&challenges, &y, 1e-6).is_ok());
    }

    #[test]
    fn learns_puf_soft_responses_and_ranks_stability() {
        // Fit soft responses of a simulated PUF; predictions should
        // correlate strongly with the true delay difference.
        let mut rng = StdRng::seed_from_u64(4);
        let puf = ArbiterPuf::random(32, &mut rng);
        let noise = NoiseModel::paper_default();
        let challenges: Vec<Challenge> = (0..2_000)
            .map(|_| Challenge::random(32, &mut rng))
            .collect();
        let soft: Vec<f64> = challenges
            .iter()
            .map(|c| noise.soft_response(puf.delay_difference(c)))
            .collect();
        let model = LinearRegression::fit_challenges(&challenges, &soft, 1e-6).unwrap();

        let test: Vec<Challenge> = (0..500).map(|_| Challenge::random(32, &mut rng)).collect();
        let pred = model.predict_batch(&test);
        let delta: Vec<f64> = test.iter().map(|c| puf.delay_difference(c)).collect();
        let corr = puf_core::math::pearson(&pred, &delta);
        assert!(corr > 0.95, "prediction/delta correlation only {corr}");
    }

    #[test]
    fn mse_of_perfect_fit_is_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let challenges: Vec<Challenge> = (0..50).map(|_| Challenge::random(8, &mut rng)).collect();
        let theta: Vec<f64> = (0..9).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = challenges
            .iter()
            .map(|c| c.features().dot(&theta))
            .collect();
        let model = LinearRegression::fit_challenges(&challenges, &y, 0.0).unwrap();
        assert!(model.mse(&challenges, &y) < 1e-18);
    }

    #[test]
    fn from_theta_round_trip() {
        let model = LinearRegression::from_theta(vec![0.1, 0.2, 0.3]);
        let c = Challenge::zero(2);
        assert!((model.predict(&c) - 0.6).abs() < 1e-12);
        assert_eq!(model.theta(), &[0.1, 0.2, 0.3]);
    }
}
