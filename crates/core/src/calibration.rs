//! The run-time calibration loop (paper §IV.C.3).
//!
//! At run time the input distribution can drift (the paper's example:
//! face detection moved from a quiet room to a busy square). P-CNN
//! monitors the output uncertainty of every processed batch; when it
//! exceeds the user threshold, calibration backtracks along the tuning
//! path to a slower but more precise table and continues from there.

use pcnn_nn::entropy::mean_entropy;
use pcnn_nn::network::{ExecPlan, Network};
use pcnn_tensor::Tensor;

use crate::error::{Error, Result};
use crate::tuning::TuningPath;

/// Outcome of processing one batch through the calibrated pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedStep {
    /// Classifier logits for the batch.
    pub logits: Tensor,
    /// Measured mean output entropy.
    pub entropy: f64,
    /// Tuning-table index the batch was processed with.
    pub table_used: usize,
    /// Table index in force for the *next* batch (differs from
    /// `table_used` when this batch triggered calibration).
    pub table_next: usize,
}

impl CalibratedStep {
    /// Whether this batch triggered a back-off.
    pub fn backed_off(&self) -> bool {
        self.table_next < self.table_used
    }
}

/// A stream-processing pipeline with entropy monitoring and calibration.
///
/// # Example
///
/// ```no_run
/// # use pcnn_core::calibration::CalibratedPipeline;
/// # use pcnn_core::tuning::AccuracyTuner;
/// # use pcnn_nn::models::tiny_alexnet;
/// # use pcnn_tensor::Tensor;
/// let net = tiny_alexnet(10);
/// let calib = Tensor::zeros(vec![8, 1, 32, 32]);
/// let path = AccuracyTuner::new(&net, &calib).tune(1.2, 8);
/// let mut pipeline = CalibratedPipeline::new(&net, &path, 1.2).unwrap();
/// let step = pipeline.process(&calib).unwrap();
/// println!("table {} entropy {:.2}", step.table_used, step.entropy);
/// ```
#[derive(Debug)]
pub struct CalibratedPipeline<'a> {
    net: &'a Network,
    path: &'a TuningPath,
    /// `path`'s entries compiled for `net`, table by table.
    tables: Vec<ExecPlan>,
    threshold: f64,
    current: usize,
}

impl<'a> CalibratedPipeline<'a> {
    /// Starts at the deepest (fastest) table whose calibration-time
    /// entropy respects the threshold. Every table of the path is
    /// compiled for `net` here, so [`process`](Self::process) only runs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTuningPath`] if `path` has no entries,
    /// [`Error::InvalidInput`] if `threshold` is not finite and
    /// [`Error::Forward`] if an entry's plan does not fit `net`.
    pub fn new(net: &'a Network, path: &'a TuningPath, threshold: f64) -> Result<Self> {
        if path.entries.is_empty() {
            return Err(Error::EmptyTuningPath);
        }
        if !threshold.is_finite() {
            return Err(Error::InvalidInput {
                what: "entropy threshold must be finite",
            });
        }
        let tables = path
            .entries
            .iter()
            .map(|e| net.compile(&e.plan, None))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Self {
            net,
            path,
            tables,
            threshold,
            current: path.deepest_index_within(threshold),
        })
    }

    /// The tuning-table index currently in force.
    pub fn current_table(&self) -> usize {
        self.current
    }

    /// The entropy threshold being enforced.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Processes one batch with the current table, monitors its entropy,
    /// and backtracks along the tuning path if the threshold is exceeded
    /// (§IV.C.3's "switch to a slower but more precise version"). The
    /// batch's own output is delivered as-is — tuning and calibration
    /// never discard work (§IV.C.1).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass shape errors as [`Error::Forward`].
    pub fn process(&mut self, batch: &Tensor) -> Result<CalibratedStep> {
        let table_used = self.current;
        let logits = self.net.run(&self.tables[table_used], batch)?;
        let entropy = mean_entropy(&logits);
        pcnn_telemetry::counter("calibration.batches", 1);
        pcnn_telemetry::histogram("calibration.entropy", entropy);
        if entropy > self.threshold {
            self.current = self.path.calibrate(table_used, entropy, self.threshold);
            if self.current < table_used {
                pcnn_telemetry::counter("calibration.backoffs", 1);
                pcnn_telemetry::event!(
                    "calibration.backoff",
                    entropy = entropy,
                    threshold = self.threshold,
                    from_table = table_used,
                    to_table = self.current
                );
            }
        }
        Ok(CalibratedStep {
            logits,
            entropy,
            table_used,
            table_next: self.current,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::AccuracyTuner;
    use pcnn_data::DatasetBuilder;
    use pcnn_nn::models::tiny_alexnet;
    use pcnn_nn::train::train;

    fn setup() -> (Network, TuningPath, Tensor, Tensor) {
        let mut net = tiny_alexnet(6);
        let (train_set, test) = DatasetBuilder::new(6, 32)
            .samples(240)
            .noise(1.0)
            .translate(true)
            .seed(5)
            .build_split(64);
        train(&mut net, &train_set.images, &train_set.labels, 6, 16, 0.02).unwrap();
        let calib = test.take(32);
        let path = AccuracyTuner::new(&net, &calib.images).tune(f64::MAX, 6);
        // "Hard" inputs: the same task at a much worse signal-to-noise
        // ratio (the busy-square scenario).
        let hard = DatasetBuilder::new(6, 32)
            .samples(32)
            .noise(6.0)
            .translate(true)
            .seed(5)
            .build();
        (net, path, calib.images, hard.images)
    }

    #[test]
    fn starts_at_deepest_table_within_threshold() {
        let (net, path, _, _) = setup();
        let threshold = path.entries[2].entropy + 1e-6;
        let p = CalibratedPipeline::new(&net, &path, threshold).unwrap();
        assert_eq!(p.current_table(), path.deepest_index_within(threshold));
    }

    #[test]
    fn easy_inputs_stay_at_the_fast_table() {
        let (net, path, easy, _) = setup();
        // Threshold comfortably above the deepest calibration entropy.
        let threshold = path.entries.last().unwrap().entropy + 0.5;
        let mut p = CalibratedPipeline::new(&net, &path, threshold).unwrap();
        let start = p.current_table();
        for _ in 0..3 {
            let step = p.process(&easy).unwrap();
            assert!(!step.backed_off(), "backed off on calibration data");
        }
        assert_eq!(p.current_table(), start);
    }

    #[test]
    fn hard_inputs_trigger_backoff() {
        let (net, path, _, hard) = setup();
        let threshold = path.entries.last().unwrap().entropy + 0.02;
        let mut p = CalibratedPipeline::new(&net, &path, threshold).unwrap();
        let start = p.current_table();
        assert!(start > 0, "need a perforated start for this test");
        // Feed hard data until the pipeline reacts (one step suffices when
        // the entropy jump is large).
        let step = p.process(&hard).unwrap();
        if step.entropy > threshold {
            assert!(
                step.backed_off() || start == 0,
                "no back-off despite violation"
            );
            assert!(p.current_table() < start);
        }
    }

    #[test]
    fn delivers_logits_for_every_batch() {
        let (net, path, easy, hard) = setup();
        let mut p = CalibratedPipeline::new(&net, &path, 1.0).unwrap();
        for batch in [&easy, &hard, &easy] {
            let step = p.process(batch).unwrap();
            assert_eq!(step.logits.shape()[0], batch.shape()[0]);
            assert!(step.entropy.is_finite());
            assert!(step.table_used < path.entries.len());
        }
    }

    #[test]
    fn empty_path_is_a_typed_error() {
        let net = tiny_alexnet(6);
        let empty = TuningPath { entries: vec![] };
        assert_eq!(
            CalibratedPipeline::new(&net, &empty, 1.0).unwrap_err(),
            Error::EmptyTuningPath
        );
    }

    #[test]
    fn shape_mismatch_is_a_forward_error() {
        let (net, path, _, _) = setup();
        let mut p = CalibratedPipeline::new(&net, &path, 1.0).unwrap();
        let wrong = Tensor::zeros(vec![1, 1, 8, 8]);
        assert!(matches!(p.process(&wrong), Err(Error::Forward(_))));
    }
}
