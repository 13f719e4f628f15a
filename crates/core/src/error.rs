//! Typed errors for the public `pcnn-core` API.
//!
//! Every fallible public entry point of this crate returns
//! [`enum@Error`] through the [`Result`] alias instead of panicking on
//! invalid input.

use std::fmt;

use pcnn_nn::NnError;

/// Errors produced by offline compilation, trace execution, calibration
/// and scoring.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A request trace contained no images.
    EmptyTrace,
    /// A batch size of zero was requested.
    ZeroBatch,
    /// A [`ScheduleProvider`](crate::offline::ScheduleProvider) returned a
    /// schedule whose batch differs from the requested size.
    BatchMismatch {
        /// The batch size that was requested.
        requested: usize,
        /// The batch the provider's schedule actually carries.
        got: usize,
    },
    /// A perforation-rate vector does not match the network's conv-layer
    /// count.
    RateLenMismatch {
        /// Conv layers in the network spec.
        expected: usize,
        /// Rates supplied.
        got: usize,
    },
    /// No schedule — even the smallest batch at the deepest degradation
    /// level — can meet the task's time requirement on the given GPU.
    InfeasibleSchedule {
        /// The time requirement that cannot be met, seconds.
        t_user: f64,
        /// The best (smallest) predicted response time, seconds.
        predicted: f64,
    },
    /// A tuning path with no entries was supplied where at least the
    /// identity table is required.
    EmptyTuningPath,
    /// A numeric argument was outside its domain (named in the payload).
    InvalidInput {
        /// Which argument was invalid and why.
        what: &'static str,
    },
    /// A forward pass inside calibration failed on a shape error.
    Forward(NnError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyTrace => write!(f, "request trace contains no images"),
            Error::ZeroBatch => write!(f, "batch size must be positive"),
            Error::BatchMismatch { requested, got } => write!(
                f,
                "schedule provider returned batch {got} for requested batch {requested}"
            ),
            Error::RateLenMismatch { expected, got } => write!(
                f,
                "perforation rate vector has {got} entries but the network has {expected} conv layers"
            ),
            Error::InfeasibleSchedule { t_user, predicted } => write!(
                f,
                "no schedule meets the {:.1} ms requirement (best predicted {:.1} ms)",
                t_user * 1e3,
                predicted * 1e3
            ),
            Error::EmptyTuningPath => write!(f, "tuning path has no entries"),
            Error::InvalidInput { what } => write!(f, "invalid input: {what}"),
            Error::Forward(e) => write!(f, "forward pass failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Forward(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for Error {
    fn from(e: NnError) -> Self {
        Error::Forward(e)
    }
}

/// Result alias used across the `pcnn-core` public API.
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::EmptyTrace, "no images"),
            (Error::ZeroBatch, "positive"),
            (
                Error::BatchMismatch {
                    requested: 4,
                    got: 2,
                },
                "batch 2",
            ),
            (
                Error::RateLenMismatch {
                    expected: 5,
                    got: 3,
                },
                "5 conv layers",
            ),
            (
                Error::InfeasibleSchedule {
                    t_user: 0.033,
                    predicted: 0.050,
                },
                "33.0 ms",
            ),
            (Error::EmptyTuningPath, "no entries"),
            (Error::InvalidInput { what: "energy" }, "energy"),
        ];
        for (e, needle) in cases {
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn nn_error_converts() {
        let nn = NnError::Perforation("rate 1.5".into());
        let e: Error = nn.clone().into();
        assert_eq!(e, Error::Forward(nn));
        assert!(std::error::Error::source(&e).is_some());
    }
}
