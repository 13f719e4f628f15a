//! Per-layer convolution algorithm plans produced by the offline tuner.
//!
//! A [`ConvPlan`] records which [`ConvAlgo`] each conv layer of a network
//! should execute — the CPU analogue of the paper's offline per-layer
//! kernel selection. Plans serialize to a compact comma-joined string
//! (`"direct,im2col,winograd,..."`) so the offline stage can record them
//! next to the schedule and the serving stage can reload them.

use pcnn_tensor::ConvAlgo;

use crate::network::Network;
use crate::{Layer, NnError};

/// One convolution algorithm per conv layer, in network order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvPlan {
    algos: Vec<ConvAlgo>,
}

impl ConvPlan {
    /// The baseline plan: every conv layer named im2col, which runs as
    /// direct (the same bits).
    pub fn im2col(n_convs: usize) -> Self {
        Self {
            algos: vec![ConvAlgo::Im2col; n_convs],
        }
    }

    /// A plan from explicit per-layer choices.
    pub fn from_algos(algos: Vec<ConvAlgo>) -> Self {
        Self { algos }
    }

    /// Number of conv layers the plan covers.
    pub fn len(&self) -> usize {
        self.algos.len()
    }

    /// Whether the plan covers zero layers.
    pub fn is_empty(&self) -> bool {
        self.algos.is_empty()
    }

    /// The algorithm for conv layer `ci`.
    pub fn algo(&self, ci: usize) -> ConvAlgo {
        self.algos[ci]
    }

    /// All per-layer choices, in network order.
    pub fn algos(&self) -> &[ConvAlgo] {
        &self.algos
    }

    /// Serializes as comma-joined algorithm names
    /// (e.g. `"direct,im2col,winograd"`).
    pub fn serialize(&self) -> String {
        self.algos
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a [`serialize`](Self::serialize)d plan.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Plan`] on an unknown algorithm name.
    pub fn parse(s: &str) -> Result<Self, NnError> {
        if s.trim().is_empty() {
            return Ok(Self { algos: Vec::new() });
        }
        let algos = s
            .split(',')
            .map(|tok| {
                ConvAlgo::parse(tok.trim())
                    .ok_or_else(|| NnError::Plan(format!("unknown conv algorithm {tok:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { algos })
    }

    /// Checks the plan against a network: one entry per conv layer, each
    /// algorithm supported by its layer's shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Plan`] describing the first mismatch.
    pub fn validate(&self, net: &Network) -> Result<(), NnError> {
        if self.len() != net.conv_count() {
            return Err(NnError::Plan(format!(
                "plan covers {} conv layers, network has {}",
                self.len(),
                net.conv_count()
            )));
        }
        let mut ci = 0;
        for layer in net.layers() {
            if let Layer::Conv2d(c) = layer {
                let algo = self.algos[ci];
                if !algo.supports(c.geometry()) {
                    return Err(NnError::Plan(format!(
                        "conv layer {ci} ({}x{} stride {}) cannot run {algo}",
                        c.geometry().kernel,
                        c.geometry().kernel,
                        c.geometry().stride
                    )));
                }
                ci += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_alexnet;

    #[test]
    fn serialize_round_trips() {
        let plan =
            ConvPlan::from_algos(vec![ConvAlgo::Direct, ConvAlgo::Im2col, ConvAlgo::Winograd]);
        let s = plan.serialize();
        assert_eq!(s, "direct,im2col,winograd");
        assert_eq!(ConvPlan::parse(&s).unwrap(), plan);
        assert_eq!(ConvPlan::parse("").unwrap().len(), 0);
    }

    #[test]
    fn parse_rejects_unknown_algorithm() {
        assert!(matches!(
            ConvPlan::parse("im2col,fft"),
            Err(NnError::Plan(_))
        ));
    }

    #[test]
    fn validate_checks_length_and_support() {
        let net = tiny_alexnet(4); // two 3x3 stride-1 convs
        assert!(ConvPlan::im2col(net.conv_count()).validate(&net).is_ok());
        assert!(matches!(
            ConvPlan::im2col(net.conv_count() + 1).validate(&net),
            Err(NnError::Plan(_))
        ));
        // Both convs of tiny_alexnet are 3x3 stride 1, so winograd is valid.
        let wino = ConvPlan::from_algos(vec![ConvAlgo::Winograd; net.conv_count()]);
        assert!(wino.validate(&net).is_ok());
    }
}
