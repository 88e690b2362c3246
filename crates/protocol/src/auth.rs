//! Authentication policies, outcomes and client-side responders.
//!
//! The paper's key protocol point (§3): because the server only uses CRPs
//! predicted to be extremely stable, it "may grant access only when the
//! client responses and server predicted responses match perfectly (i.e.,
//! zero Hamming distance)" — a much stricter criterion than the classic
//! Hamming-distance-threshold policies, which improves security for free.

use crate::ProtocolError;
use puf_core::{Challenge, Condition, FeatureMatrix};
use puf_silicon::{Chip, SiliconError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Acceptance policies for comparing client responses with predictions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AuthPolicy {
    /// Approve only on a perfect match — the paper's proposal, enabled by
    /// model-based stable-challenge selection.
    ZeroHammingDistance,
    /// Approve when the mismatch fraction does not exceed the bound — the
    /// classical policy needed when unstable CRPs slip in.
    MaxHammingFraction(f64),
}

impl AuthPolicy {
    /// Checks that the policy is internally consistent (a Hamming-fraction
    /// bound must lie in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] on an out-of-range bound.
    pub fn validate(self) -> Result<(), ProtocolError> {
        match self {
            AuthPolicy::ZeroHammingDistance => Ok(()),
            AuthPolicy::MaxHammingFraction(bound) => {
                if (0.0..=1.0).contains(&bound) {
                    Ok(())
                } else {
                    Err(ProtocolError::InvalidPolicy {
                        reason: "Hamming-fraction bound must be in [0, 1]",
                    })
                }
            }
        }
    }

    /// Whether `mismatches` out of `total` responses pass the policy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::EmptyRound`] when `total` is zero — an empty round
    /// carries no evidence either way and must never be approved.
    pub fn try_accepts(self, total: usize, mismatches: usize) -> Result<bool, ProtocolError> {
        if total == 0 {
            return Err(ProtocolError::EmptyRound);
        }
        Ok(match self {
            AuthPolicy::ZeroHammingDistance => mismatches == 0,
            AuthPolicy::MaxHammingFraction(bound) => (mismatches as f64 / total as f64) <= bound,
        })
    }

    /// Panicking convenience wrapper around [`AuthPolicy::try_accepts`] for
    /// callers that construct their rounds statically.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn accepts(self, total: usize, mismatches: usize) -> bool {
        assert!(total > 0, "cannot judge an empty authentication round");
        // total > 0 ⇒ try_accepts cannot fail.
        self.try_accepts(total, mismatches).unwrap_or(false)
    }
}

impl fmt::Display for AuthPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthPolicy::ZeroHammingDistance => write!(f, "zero Hamming distance"),
            AuthPolicy::MaxHammingFraction(b) => write!(f, "Hamming fraction ≤ {b}"),
        }
    }
}

/// Result of one authentication round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuthOutcome {
    /// Whether access was granted.
    pub approved: bool,
    /// Number of mismatching responses.
    pub mismatches: usize,
    /// Number of challenges used.
    pub challenges_used: usize,
}

impl AuthOutcome {
    /// Applies a policy to a mismatch count.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::EmptyRound`] when `challenges_used` is zero.
    pub fn try_judge(
        policy: AuthPolicy,
        challenges_used: usize,
        mismatches: usize,
    ) -> Result<Self, ProtocolError> {
        Ok(Self {
            approved: policy.try_accepts(challenges_used, mismatches)?,
            mismatches,
            challenges_used,
        })
    }

    /// Panicking convenience wrapper around [`AuthOutcome::try_judge`].
    ///
    /// # Panics
    ///
    /// Panics if `challenges_used` is zero.
    pub fn judge(policy: AuthPolicy, challenges_used: usize, mismatches: usize) -> Self {
        Self {
            approved: policy.accepts(challenges_used, mismatches),
            mismatches,
            challenges_used,
        }
    }

    /// The observed mismatch fraction.
    pub fn hamming_fraction(&self) -> f64 {
        self.mismatches as f64 / self.challenges_used as f64
    }
}

impl fmt::Display for AuthOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/{} mismatches)",
            if self.approved { "APPROVED" } else { "DENIED" },
            self.mismatches,
            self.challenges_used
        )
    }
}

/// Anything that can answer a list of challenges with one response bit each
/// — the client side of the protocol.
pub trait Responder {
    /// Produces one response per challenge, in order.
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool>;

    /// Fallible variant of [`Responder::respond`] for clients whose
    /// measurement path can fail (e.g. a transient fuse-sense glitch under
    /// fault injection). The default forwards to the infallible path.
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default never fails.
    fn try_respond(&mut self, challenges: &[Challenge]) -> Result<Vec<bool>, ProtocolError> {
        Ok(self.respond(challenges))
    }
}

/// The genuine client: one-shot noisy XOR evaluations of a physical chip at
/// some operating condition ("one-time sampling" in Fig. 7 — stable CRPs
/// need no averaging).
#[derive(Debug)]
pub struct ChipResponder<'a> {
    chip: &'a Chip,
    n: usize,
    condition: Condition,
    rng: StdRng,
}

impl<'a> ChipResponder<'a> {
    /// Creates a responder for an `n`-input XOR readout of `chip` at
    /// `condition`. The internal evaluation-noise RNG is seeded with `seed`.
    pub fn new(chip: &'a Chip, n: usize, condition: Condition, seed: u64) -> Self {
        Self {
            chip,
            n,
            condition,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Changes the operating condition (e.g. to authenticate at a V/T
    /// corner).
    pub fn set_condition(&mut self, condition: Condition) {
        self.condition = condition;
    }
}

impl Responder for ChipResponder<'_> {
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool> {
        self.try_respond(challenges)
            // puf-lint: allow(L4): server challenges match the enrolled stage count by protocol
            .expect("chip rejected an authentication challenge")
    }

    /// Answers the whole call through [`Chip::eval_xor_batch`]: one
    /// condition-adjusted PUF per member per call and bit-sliced deltas,
    /// with the noise draws in the per-challenge order (challenge-major,
    /// member-minor) — so the bits, the RNG stream and the errors are
    /// those of calling [`Chip::eval_xor_once`] per challenge. A
    /// wrong-stage challenge fails the call after the challenges before it
    /// drew their noise, as the per-challenge loop would.
    ///
    /// Telemetry: one `core.eval` span sample per non-empty call (not per
    /// challenge); `core.eval.count` still counts challenges.
    fn try_respond(&mut self, challenges: &[Challenge]) -> Result<Vec<bool>, ProtocolError> {
        if challenges.is_empty() {
            return Ok(Vec::new());
        }
        let _span = puf_telemetry::span!("core.eval");
        let stages = self.chip.stages();
        let valid = challenges
            .iter()
            .position(|c| c.stages() != stages)
            .unwrap_or(challenges.len());
        let mismatch = |actual| {
            ProtocolError::Silicon(SiliconError::StageMismatch {
                expected: stages,
                actual,
            })
        };
        // The prefix holds only chip-stage challenges, so this cannot fail.
        let features =
            FeatureMatrix::new(stages, &challenges[..valid]).map_err(|_| mismatch(stages))?;
        let bits = self
            .chip
            .eval_xor_batch(self.n, &features, self.condition, &mut self.rng)?;
        match challenges.get(valid) {
            Some(bad) => Err(mismatch(bad.stages())),
            None => Ok(bits),
        }
    }
}

/// Analytic error rates of a policy for given per-response error
/// probabilities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyAnalysis {
    /// Probability a genuine client is denied (false-reject rate).
    pub false_reject: f64,
    /// Probability an impostor is approved (false-accept rate).
    pub false_accept: f64,
}

/// Computes the exact false-reject/false-accept rates of `policy` over
/// `rounds` challenges, for a genuine client whose responses are wrong with
/// probability `genuine_error` per CRP and an impostor wrong with
/// probability `impostor_error` (0.5 for a blind guesser; lower for a
/// modeling clone — this is where Fig. 4's attack accuracy plugs into the
/// protocol).
///
/// The paper's core protocol claim is visible here: with model-selected
/// stable CRPs `genuine_error ≈ 0`, so the zero-Hamming-distance policy has
/// FRR ≈ 0 while pushing a blind impostor's FAR to `2^{−rounds}` — strict
/// security at no reliability cost.
///
/// # Panics
///
/// Panics if `rounds` is zero or an error probability is outside `[0, 1]`.
pub fn analyze_policy(
    policy: AuthPolicy,
    rounds: usize,
    genuine_error: f64,
    impostor_error: f64,
) -> PolicyAnalysis {
    assert!(rounds > 0, "rounds must be positive");
    assert!(
        (0.0..=1.0).contains(&genuine_error) && (0.0..=1.0).contains(&impostor_error),
        "error probabilities must be in [0,1]"
    );
    let n = rounds as u64;
    let max_mismatches = match policy {
        AuthPolicy::ZeroHammingDistance => 0u64,
        AuthPolicy::MaxHammingFraction(bound) => (bound * rounds as f64).floor() as u64,
    };
    let accept_prob = |p: f64| puf_core::math::binomial_cdf(max_mismatches, n, p);
    PolicyAnalysis {
        false_reject: 1.0 - accept_prob(genuine_error),
        false_accept: accept_prob(impostor_error),
    }
}

/// A client that evaluates each challenge `votes` times and answers with
/// the majority — classical *temporal majority voting*, the brute-force
/// stabilisation alternative to challenge selection.
///
/// The paper's scheme deliberately needs only one-shot sampling ("sampling
/// the XOR output once is sufficient", §2.2); this responder quantifies
/// what the selection saves: a TMV client pays `votes×` evaluation latency
/// per authentication bit and still cannot fix truly marginal CRPs.
#[derive(Debug)]
pub struct MajorityVoteResponder<'a> {
    chip: &'a Chip,
    n: usize,
    condition: Condition,
    votes: u32,
    rng: StdRng,
}

impl<'a> MajorityVoteResponder<'a> {
    /// Creates a TMV responder with an odd number of votes.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is even or zero (ties must be impossible).
    pub fn new(chip: &'a Chip, n: usize, condition: Condition, votes: u32, seed: u64) -> Self {
        assert!(votes % 2 == 1, "votes must be odd");
        Self {
            chip,
            n,
            condition,
            votes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of evaluations spent per response.
    pub fn votes(&self) -> u32 {
        self.votes
    }
}

impl Responder for MajorityVoteResponder<'_> {
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool> {
        self.try_respond(challenges)
            // puf-lint: allow(L4): server challenges match the enrolled stage count by protocol
            .expect("chip rejected an authentication challenge")
    }

    fn try_respond(&mut self, challenges: &[Challenge]) -> Result<Vec<bool>, ProtocolError> {
        challenges
            .iter()
            .map(|c| {
                let mut ones = 0u32;
                for _ in 0..self.votes {
                    if self
                        .chip
                        .eval_xor_once(self.n, c, self.condition, &mut self.rng)?
                    {
                        ones += 1;
                    }
                }
                Ok(2 * ones > self.votes)
            })
            .collect()
    }
}

/// An impostor that answers with uniformly random bits — the floor any
/// authentication scheme must reject.
#[derive(Debug)]
pub struct RandomResponder {
    rng: StdRng,
}

impl RandomResponder {
    /// Creates a random responder with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Responder for RandomResponder {
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool> {
        use rand::Rng;
        challenges.iter().map(|_| self.rng.gen()).collect()
    }
}

/// An impostor backed by a predictive model (e.g. a trained MLP attack) —
/// used to measure how model accuracy translates to break-in probability.
pub struct ModelResponder<F> {
    predict: F,
}

impl<F: FnMut(&Challenge) -> bool> ModelResponder<F> {
    /// Wraps a prediction function.
    pub fn new(predict: F) -> Self {
        Self { predict }
    }
}

impl<F: FnMut(&Challenge) -> bool> Responder for ModelResponder<F> {
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool> {
        challenges.iter().map(|c| (self.predict)(c)).collect()
    }
}

impl<F> fmt::Debug for ModelResponder<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ModelResponder { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_judge_mismatches() {
        assert!(AuthPolicy::ZeroHammingDistance.accepts(10, 0));
        assert!(!AuthPolicy::ZeroHammingDistance.accepts(10, 1));
        assert!(AuthPolicy::MaxHammingFraction(0.2).accepts(10, 2));
        assert!(!AuthPolicy::MaxHammingFraction(0.2).accepts(10, 3));
    }

    #[test]
    #[should_panic(expected = "empty authentication")]
    fn policy_rejects_empty_round() {
        AuthPolicy::ZeroHammingDistance.accepts(0, 0);
    }

    #[test]
    fn try_accepts_returns_empty_round_error() {
        assert_eq!(
            AuthPolicy::ZeroHammingDistance.try_accepts(0, 0),
            Err(ProtocolError::EmptyRound)
        );
        assert_eq!(
            AuthPolicy::MaxHammingFraction(0.5).try_accepts(0, 0),
            Err(ProtocolError::EmptyRound)
        );
        assert_eq!(AuthPolicy::ZeroHammingDistance.try_accepts(10, 0), Ok(true));
        assert_eq!(
            AuthPolicy::ZeroHammingDistance.try_accepts(10, 1),
            Ok(false)
        );
        assert_eq!(
            AuthOutcome::try_judge(AuthPolicy::ZeroHammingDistance, 0, 0),
            Err(ProtocolError::EmptyRound)
        );
        let ok = AuthOutcome::try_judge(AuthPolicy::ZeroHammingDistance, 20, 0).unwrap();
        assert!(ok.approved);
    }

    #[test]
    fn policy_validation_bounds_fraction() {
        assert!(AuthPolicy::ZeroHammingDistance.validate().is_ok());
        assert!(AuthPolicy::MaxHammingFraction(0.0).validate().is_ok());
        assert!(AuthPolicy::MaxHammingFraction(1.0).validate().is_ok());
        assert!(matches!(
            AuthPolicy::MaxHammingFraction(1.5).validate(),
            Err(ProtocolError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            AuthPolicy::MaxHammingFraction(-0.1).validate(),
            Err(ProtocolError::InvalidPolicy { .. })
        ));
    }

    /// The per-challenge oracle: [`Chip::eval_xor_once`] in challenge
    /// order on one RNG, stopping at the first error.
    fn respond_per_challenge(
        chip: &Chip,
        n: usize,
        cond: Condition,
        challenges: &[Challenge],
        rng: &mut StdRng,
    ) -> Result<Vec<bool>, ProtocolError> {
        challenges
            .iter()
            .map(|c| Ok(chip.eval_xor_once(n, c, cond, rng)?))
            .collect()
    }

    #[test]
    fn batched_chip_responder_replays_the_per_challenge_loop() {
        use puf_core::challenge::random_challenges;
        use puf_silicon::ChipConfig;
        let mut rng = StdRng::seed_from_u64(40);
        for years in [0.0, 4.0, 10.0] {
            let mut chip = Chip::fabricate(1, &ChipConfig::paper_default(), &mut rng);
            chip.set_age(years * 8_766.0);
            let cs = random_challenges(chip.stages(), 70, &mut rng);
            // Uneven splits, an empty call, and a call past one 64-row block.
            let calls: [&[Challenge]; 5] = [&cs[..1], &[], &cs[1..3], &cs[3..3], &cs[3..]];
            for n in 1..=chip.bank_size() {
                for (k, cond) in Condition::paper_grid().into_iter().enumerate() {
                    let seed = (n * 16 + k) as u64;
                    let mut batched = ChipResponder::new(&chip, n, cond, seed);
                    let mut oracle = StdRng::seed_from_u64(seed);
                    for call in calls {
                        assert_eq!(
                            batched.try_respond(call),
                            respond_per_challenge(&chip, n, cond, call, &mut oracle),
                            "years {years}, n {n}, corner {k}, call of {}",
                            call.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_chip_responder_keeps_errors_and_rng_position() {
        use puf_core::challenge::random_challenges;
        use puf_silicon::ChipConfig;
        let mut rng = StdRng::seed_from_u64(41);
        let chip = Chip::fabricate(2, &ChipConfig::small(), &mut rng);
        let mut cs = random_challenges(chip.stages(), 6, &mut rng);
        cs[3] = Challenge::zero(chip.stages() + 4);
        let cond = Condition::paper_grid()[4];
        for n in 0..=chip.bank_size() + 1 {
            for call in [&cs[..], &cs[3..], &cs[4..]] {
                let mut batched = ChipResponder::new(&chip, n, cond, 7);
                let mut oracle = StdRng::seed_from_u64(7);
                let got = batched.try_respond(call);
                assert_eq!(
                    got,
                    respond_per_challenge(&chip, n, cond, call, &mut oracle)
                );
                if (1..=chip.bank_size()).contains(&n) && call.len() != 2 {
                    assert_eq!(
                        got,
                        Err(ProtocolError::Silicon(SiliconError::StageMismatch {
                            expected: chip.stages(),
                            actual: chip.stages() + 4,
                        }))
                    );
                }
                // The noise stream continues where the oracle's does.
                assert_eq!(
                    batched.try_respond(&cs[..3]),
                    respond_per_challenge(&chip, n, cond, &cs[..3], &mut oracle)
                );
            }
        }
    }

    #[test]
    fn try_respond_propagates_silicon_errors() {
        use puf_silicon::{Chip, ChipConfig};
        let mut rng = StdRng::seed_from_u64(30);
        let chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 31);
        let wrong_stages = [Challenge::zero(8)];
        assert!(matches!(
            client.try_respond(&wrong_stages),
            Err(ProtocolError::Silicon(_))
        ));
        let ok = [Challenge::zero(chip.stages())];
        assert_eq!(client.try_respond(&ok).unwrap().len(), 1);
        // The default trait impl never fails.
        let mut random = RandomResponder::new(1);
        assert_eq!(random.try_respond(&ok).unwrap().len(), 1);
    }

    #[test]
    fn outcome_judging_and_display() {
        let ok = AuthOutcome::judge(AuthPolicy::ZeroHammingDistance, 20, 0);
        assert!(ok.approved);
        assert!(ok.to_string().contains("APPROVED"));
        let bad = AuthOutcome::judge(AuthPolicy::ZeroHammingDistance, 20, 1);
        assert!(!bad.approved);
        assert!((bad.hamming_fraction() - 0.05).abs() < 1e-12);
        assert!(bad.to_string().contains("DENIED"));
    }

    #[test]
    fn random_responder_is_uniformish() {
        let mut r = RandomResponder::new(1);
        let challenges: Vec<Challenge> = (0..2_000)
            .map(|i| Challenge::from_bits(i, 16).unwrap())
            .collect();
        let bits = r.respond(&challenges);
        let ones = bits.iter().filter(|&&b| b).count() as f64;
        assert!((ones / 2_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn policy_analysis_zero_hd() {
        // Perfect genuine responses: FRR 0; blind impostor: FAR 2^-k.
        let a = analyze_policy(AuthPolicy::ZeroHammingDistance, 64, 0.0, 0.5);
        assert!(a.false_reject.abs() < 1e-15);
        assert!((a.false_accept - 0.5f64.powi(64)).abs() < 1e-24);
        // 1% genuine error over 64 rounds: FRR = 1 - 0.99^64 ≈ 0.47.
        let b = analyze_policy(AuthPolicy::ZeroHammingDistance, 64, 0.01, 0.5);
        assert!((b.false_reject - (1.0 - 0.99f64.powi(64))).abs() < 1e-12);
    }

    #[test]
    fn policy_analysis_relaxed_trades_far_for_frr() {
        let strict = analyze_policy(AuthPolicy::ZeroHammingDistance, 64, 0.02, 0.5);
        let relaxed = analyze_policy(AuthPolicy::MaxHammingFraction(0.1), 64, 0.02, 0.5);
        assert!(relaxed.false_reject < strict.false_reject);
        assert!(relaxed.false_accept > strict.false_accept);
        // But a 90%-accurate clone slips through the relaxed policy far
        // more easily — the Fig. 4 / protocol connection.
        let clone_strict = analyze_policy(AuthPolicy::ZeroHammingDistance, 64, 0.02, 0.1);
        let clone_relaxed = analyze_policy(AuthPolicy::MaxHammingFraction(0.1), 64, 0.02, 0.1);
        assert!(clone_relaxed.false_accept > clone_strict.false_accept * 100.0);
    }

    #[test]
    #[should_panic(expected = "rounds must be positive")]
    fn policy_analysis_rejects_zero_rounds() {
        analyze_policy(AuthPolicy::ZeroHammingDistance, 0, 0.0, 0.5);
    }

    #[test]
    fn majority_vote_responder_stabilises_marginal_crps() {
        use puf_silicon::{Chip, ChipConfig};
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        let challenges: Vec<Challenge> = (0..300)
            .map(|_| Challenge::random(chip.stages(), &mut rng))
            .collect();
        let reference: Vec<bool> = challenges
            .iter()
            .map(|c| chip.xor_reference_bit(2, c, Condition::NOMINAL).unwrap())
            .collect();
        let mut one_shot = ChipResponder::new(&chip, 2, Condition::NOMINAL, 10);
        let mut tmv = MajorityVoteResponder::new(&chip, 2, Condition::NOMINAL, 15, 11);
        assert_eq!(tmv.votes(), 15);
        let errs = |bits: Vec<bool>| bits.iter().zip(&reference).filter(|(a, b)| a != b).count();
        let e1 = errs(one_shot.respond(&challenges));
        let e15 = errs(tmv.respond(&challenges));
        assert!(
            e15 <= e1,
            "15-vote majority should not mismatch more than one-shot: {e15} vs {e1}"
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn majority_vote_rejects_even_votes() {
        use puf_silicon::{Chip, ChipConfig};
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        let chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        let _ = MajorityVoteResponder::new(&chip, 1, Condition::NOMINAL, 4, 0);
    }

    #[test]
    fn model_responder_applies_closure() {
        let mut m = ModelResponder::new(|c: &Challenge| c.bit(0));
        let challenges = [
            Challenge::from_bits(0b0, 4).unwrap(),
            Challenge::from_bits(0b1, 4).unwrap(),
        ];
        assert_eq!(m.respond(&challenges), vec![false, true]);
        assert!(!format!("{m:?}").is_empty());
    }
}
