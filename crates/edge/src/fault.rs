//! Deterministic fault injection for the vehicle↔edge links.
//!
//! Real V2X channels lose frames, jitter, and drop vehicles out of
//! coverage for seconds at a time; the ideal [`crate::NetworkConfig`] of
//! the seed models none of that. [`FaultModel`] adds four impairments —
//! per-frame upload loss, latency jitter, transient per-vehicle
//! disconnect/reconnect churn, and partial-upload truncation — while
//! keeping every run bit-for-bit reproducible: each stochastic draw is a
//! pure hash of `(seed, frame, vehicle, stream)`, so outcomes never depend
//! on thread count, upload order, or how many other draws happened first.

use erpd_core::Error;

/// Independent draw streams per `(frame, vehicle)`; keeping them disjoint
/// means e.g. enabling jitter never changes which frames are lost.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultStream {
    /// Per-frame upload loss.
    Loss,
    /// Entering an outage.
    Churn,
    /// Leaving an outage.
    Reconnect,
    /// Partial-upload truncation.
    Truncate,
    /// Latency jitter.
    Jitter,
}

/// Seeded, deterministic impairment model for the vehicle↔edge links.
///
/// The default model is **ideal** (all probabilities zero, no jitter) and
/// is guaranteed to leave the pipeline bit-identical to a build without
/// the fault layer — see `tests/fault_model.rs`. Construct via the
/// `with_*` builders (`reconnect_prob` and `truncate_keep` have none: set
/// the fields):
///
/// ```
/// use erpd_edge::FaultModel;
///
/// let fault = FaultModel::default()
///     .with_loss_prob(0.2)
///     .with_jitter(0.01)
///     .with_seed(7);
/// assert!(!fault.is_ideal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FaultModel {
    /// Probability that a frame's upload is lost on the channel, `[0, 1]`.
    pub loss_prob: f64,
    /// Mean of the exponential latency jitter added to each upload's
    /// transmission time, seconds (`0.0` disables jitter). An upload whose
    /// jittered transmission overruns the frame period arrives one frame
    /// late.
    pub jitter: f64,
    /// Per-frame probability that a connected vehicle enters an outage
    /// (drops out of edge coverage), `[0, 1]`.
    pub churn_prob: f64,
    /// Per-frame probability that a vehicle in outage reconnects, `[0, 1]`.
    pub reconnect_prob: f64,
    /// Probability that a delivered upload is truncated in transit, `[0, 1]`.
    pub truncate_prob: f64,
    /// Fraction of a truncated upload's objects (and bytes) that survive,
    /// `[0, 1]`.
    pub truncate_keep: f64,
    /// Seed of the fault draws. Runs with equal seeds (and equal
    /// probabilities) impair exactly the same frames.
    pub seed: u64,
}

impl Default for FaultModel {
    /// The ideal channel: nothing is lost, delayed, or clipped.
    fn default() -> Self {
        FaultModel {
            loss_prob: 0.0,
            jitter: 0.0,
            churn_prob: 0.0,
            reconnect_prob: 0.25,
            truncate_prob: 0.0,
            truncate_keep: 0.5,
            seed: 0,
        }
    }
}

impl FaultModel {
    /// Returns the model with the per-frame loss probability replaced.
    pub fn with_loss_prob(mut self, loss_prob: f64) -> Self {
        self.loss_prob = loss_prob;
        self
    }

    /// Returns the model with the mean latency jitter replaced.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns the model with the outage-entry probability replaced.
    pub fn with_churn_prob(mut self, churn_prob: f64) -> Self {
        self.churn_prob = churn_prob;
        self
    }

    /// Returns the model with the truncation probability replaced.
    pub fn with_truncate_prob(mut self, truncate_prob: f64) -> Self {
        self.truncate_prob = truncate_prob;
        self
    }

    /// Returns the model with the fault seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when the model cannot impair anything: no loss, jitter, churn,
    /// or truncation (the seed is irrelevant then).
    pub fn is_ideal(&self) -> bool {
        self.loss_prob <= 0.0
            && self.jitter <= 0.0
            && self.churn_prob <= 0.0
            && self.truncate_prob <= 0.0
    }

    /// Checks every field against its admissible range.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let prob = |field, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(Error::InvalidConfig {
                    field,
                    reason: "must be a probability within [0, 1]",
                })
            }
        };
        prob("FaultModel::loss_prob", self.loss_prob)?;
        prob("FaultModel::churn_prob", self.churn_prob)?;
        prob("FaultModel::reconnect_prob", self.reconnect_prob)?;
        prob("FaultModel::truncate_prob", self.truncate_prob)?;
        prob("FaultModel::truncate_keep", self.truncate_keep)?;
        if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            return Err(Error::InvalidConfig {
                field: "FaultModel::jitter",
                reason: "must be finite and non-negative",
            });
        }
        Ok(())
    }

    /// A uniform draw in `[0, 1)` for one `(frame, vehicle, stream)`
    /// event — stateless, so draws are independent of evaluation order.
    pub(crate) fn uniform(&self, frame: u64, vehicle: u64, stream: FaultStream) -> f64 {
        let h = splitmix64(
            self.seed ^ splitmix64(frame ^ splitmix64(vehicle ^ ((stream as u64 + 1) << 3))),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One step of the churn state machine: whether `vehicle` is in an
    /// outage at `frame`, given whether it was one frame earlier. A vehicle
    /// in outage stays out until its reconnect draw succeeds; a connected
    /// vehicle may drop out.
    pub(crate) fn next_outage(&self, in_outage: bool, frame: u64, vehicle: u64) -> bool {
        if in_outage {
            self.uniform(frame, vehicle, FaultStream::Reconnect) >= self.reconnect_prob
        } else {
            self.churn_prob > 0.0
                && self.uniform(frame, vehicle, FaultStream::Churn) < self.churn_prob
        }
    }

    /// The latency jitter for one upload, seconds: exponential with mean
    /// [`FaultModel::jitter`] (exactly `0.0` when jitter is disabled).
    pub(crate) fn jitter_delay(&self, frame: u64, vehicle: u64) -> f64 {
        if self.jitter <= 0.0 {
            return 0.0;
        }
        let u = self.uniform(frame, vehicle, FaultStream::Jitter);
        -self.jitter * (1.0 - u).ln()
    }
}

/// SplitMix64 finaliser: a high-quality 64-bit mix used as a counter-based
/// RNG (same construction as the workspace's seeded simulators).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal_and_valid() {
        let f = FaultModel::default();
        assert!(f.is_ideal());
        f.validate().unwrap();
        // An ideal model draws zero jitter without consuming randomness.
        assert_eq!(f.jitter_delay(3, 7), 0.0);
    }

    #[test]
    fn builders_chain() {
        let f = FaultModel::default()
            .with_loss_prob(0.1)
            .with_jitter(0.02)
            .with_churn_prob(0.05)
            .with_truncate_prob(0.3)
            .with_seed(42);
        assert_eq!(f.loss_prob, 0.1);
        assert_eq!(f.seed, 42);
        assert!(!f.is_ideal());
        f.validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(FaultModel::default().with_loss_prob(1.5).validate().is_err());
        assert!(FaultModel::default().with_loss_prob(-0.1).validate().is_err());
        assert!(FaultModel::default().with_jitter(-1.0).validate().is_err());
        assert!(FaultModel::default()
            .with_jitter(f64::NAN)
            .validate()
            .is_err());
        let keep_too_much = FaultModel {
            truncate_keep: 2.0,
            ..FaultModel::default()
        };
        assert!(keep_too_much.validate().is_err());
    }

    #[test]
    fn draws_are_deterministic_and_uniform_ish() {
        let f = FaultModel::default().with_seed(9);
        let a = f.uniform(5, 11, FaultStream::Loss);
        assert_eq!(a, f.uniform(5, 11, FaultStream::Loss), "stateless draws repeat");
        assert!((0.0..1.0).contains(&a));
        // Different frames / vehicles / streams decorrelate.
        assert_ne!(a, f.uniform(6, 11, FaultStream::Loss));
        assert_ne!(a, f.uniform(5, 12, FaultStream::Loss));
        assert_ne!(a, f.uniform(5, 11, FaultStream::Churn));
        // Mean of many draws is near 1/2.
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|i| f.uniform(i, 1, FaultStream::Loss))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean = {mean}");
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = FaultModel::default().with_seed(1);
        let b = FaultModel::default().with_seed(2);
        let diff = (0..100)
            .filter(|&i| {
                a.uniform(i, 0, FaultStream::Loss) != b.uniform(i, 0, FaultStream::Loss)
            })
            .count();
        assert!(diff > 90);
    }

    #[test]
    fn jitter_is_exponential_with_requested_mean() {
        let f = FaultModel::default().with_jitter(0.01).with_seed(3);
        let n = 4000;
        let mean: f64 = (0..n).map(|i| f.jitter_delay(i, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.01).abs() < 0.002, "mean = {mean}");
        assert!((0..n).all(|i| f.jitter_delay(i, 0) >= 0.0));
    }
}
