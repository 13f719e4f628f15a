//! The Satisfaction-of-CNN metric (paper §V.A, eq. 15):
//! `SoC = SoC_time x SoC_accuracy / Energy`.

use crate::error::{Error, Result};
use crate::task::UserRequirements;

/// Everything needed to score one executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocInputs {
    /// Response time the user observed (per request; use the worst or the
    /// mean depending on the experiment — the paper uses the task's
    /// characteristic response time).
    pub response_time: f64,
    /// Mean output entropy (`CNN_entropy`).
    pub entropy: f64,
    /// Total energy in joules.
    pub energy_j: f64,
}

/// The scored metric and its factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Soc {
    /// Time factor in `[0, 1]` (Fig. 3).
    pub time: f64,
    /// Accuracy factor in `(0, 1]`.
    pub accuracy: f64,
    /// Energy denominator (J).
    pub energy_j: f64,
    /// The combined score (eq. 15).
    pub score: f64,
}

/// `SoC_time` (paper §V.A / Fig. 3): 1 in the imperceptible region, linear
/// decay through the tolerable region, 0 beyond `T_t`. Background tasks
/// (no requirement) always score 1; real-time tasks have no tolerable
/// region (`T_i == T_t`), so they drop straight from 1 to 0 at the
/// deadline.
///
/// Total over all inputs: a (physically impossible) negative response
/// time is clamped to zero, i.e. scores 1.
pub fn soc_time(req: &UserRequirements, response_time: f64) -> f64 {
    let response_time = response_time.max(0.0);
    let (Some(ti), Some(tt)) = (req.t_imperceptible, req.t_unusable) else {
        return 1.0;
    };
    if response_time <= ti {
        1.0
    } else if response_time >= tt {
        0.0
    } else {
        // Linear degradation across the tolerable region [30].
        1.0 - (response_time - ti) / (tt - ti)
    }
}

/// `SoC_accuracy` (paper §V.A): 1 while `CNN_entropy` is within the
/// threshold, `threshold / entropy` beyond it.
///
/// Total over all inputs: a negative entropy is clamped to zero, i.e.
/// scores 1.
pub fn soc_accuracy(req: &UserRequirements, entropy: f64) -> f64 {
    let entropy = entropy.max(0.0);
    if entropy <= req.entropy_threshold {
        1.0
    } else {
        req.entropy_threshold / entropy
    }
}

/// Scores a task execution (eq. 15).
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] if the energy is not a positive finite
/// number, or if the response time or entropy is not finite.
pub fn score(req: &UserRequirements, inputs: &SocInputs) -> Result<Soc> {
    if !(inputs.energy_j > 0.0 && inputs.energy_j.is_finite()) {
        return Err(Error::InvalidInput {
            what: "energy must be positive and finite",
        });
    }
    if !inputs.response_time.is_finite() {
        return Err(Error::InvalidInput {
            what: "response time must be finite",
        });
    }
    if !inputs.entropy.is_finite() {
        return Err(Error::InvalidInput {
            what: "entropy must be finite",
        });
    }
    let time = soc_time(req, inputs.response_time);
    let accuracy = soc_accuracy(req, inputs.entropy);
    Ok(Soc {
        time,
        accuracy,
        energy_j: inputs.energy_j,
        score: time * accuracy / inputs.energy_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::AppSpec;
    use crate::task::UserRequirements as Req;

    fn interactive() -> Req {
        Req::infer(&AppSpec::age_detection())
    }

    #[test]
    fn imperceptible_scores_one() {
        assert_eq!(soc_time(&interactive(), 0.05), 1.0);
        assert_eq!(soc_time(&interactive(), 0.1), 1.0);
    }

    #[test]
    fn tolerable_decays_linearly() {
        let r = interactive();
        let mid = soc_time(&r, (0.1 + 3.0) / 2.0);
        assert!((mid - 0.5).abs() < 1e-9, "{mid}");
        assert!(soc_time(&r, 1.0) > soc_time(&r, 2.0));
    }

    #[test]
    fn unusable_scores_zero() {
        assert_eq!(soc_time(&interactive(), 3.0), 0.0);
        assert_eq!(soc_time(&interactive(), 10.0), 0.0);
    }

    #[test]
    fn realtime_is_a_step() {
        let r = Req::infer(&AppSpec::video_surveillance(60.0));
        let d = 1.0 / 60.0;
        assert_eq!(soc_time(&r, d * 0.99), 1.0);
        assert_eq!(soc_time(&r, d * 1.01), 0.0);
    }

    #[test]
    fn background_always_one() {
        let r = Req::infer(&AppSpec::image_tagging());
        assert_eq!(soc_time(&r, 1e9), 1.0);
    }

    #[test]
    fn accuracy_factor_kicks_in_past_threshold() {
        let r = interactive();
        assert_eq!(soc_accuracy(&r, r.entropy_threshold * 0.5), 1.0);
        let over = soc_accuracy(&r, r.entropy_threshold * 2.0);
        assert!((over - 0.5).abs() < 1e-9);
    }

    #[test]
    fn soc_divides_by_energy() {
        let r = interactive();
        let a = score(
            &r,
            &SocInputs {
                response_time: 0.05,
                entropy: 0.5,
                energy_j: 2.0,
            },
        )
        .unwrap();
        let b = score(
            &r,
            &SocInputs {
                response_time: 0.05,
                entropy: 0.5,
                energy_j: 4.0,
            },
        )
        .unwrap();
        assert!((a.score / b.score - 2.0).abs() < 1e-9);
        assert_eq!(a.time, 1.0);
        assert_eq!(a.accuracy, 1.0);
    }

    #[test]
    fn missed_deadline_zeroes_score() {
        let r = Req::infer(&AppSpec::video_surveillance(60.0));
        let s = score(
            &r,
            &SocInputs {
                response_time: 1.0,
                entropy: 0.5,
                energy_j: 1.0,
            },
        )
        .unwrap();
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let r = interactive();
        for inputs in [
            SocInputs {
                response_time: 0.1,
                entropy: 0.5,
                energy_j: 0.0,
            },
            SocInputs {
                response_time: 0.1,
                entropy: 0.5,
                energy_j: -1.0,
            },
            SocInputs {
                response_time: f64::NAN,
                entropy: 0.5,
                energy_j: 1.0,
            },
            SocInputs {
                response_time: 0.1,
                entropy: f64::INFINITY,
                energy_j: 1.0,
            },
        ] {
            assert!(
                matches!(score(&r, &inputs), Err(Error::InvalidInput { .. })),
                "{inputs:?}"
            );
        }
    }

    #[test]
    fn negative_factors_clamp_instead_of_panicking() {
        let r = interactive();
        assert_eq!(soc_time(&r, -1.0), 1.0);
        assert_eq!(soc_accuracy(&r, -1.0), 1.0);
    }
}
