//! Entropy-based accuracy tuning (paper §IV.C.1, Fig. 12) and calibration
//! (§IV.C.3).
//!
//! The tuner greedily perforates one conv layer at a time: each iteration
//! tries increasing every layer's perforation rate by one step, measures
//! the output entropy on a calibration batch (real forward passes — no
//! labels needed), estimates the time saving, and commits the layer with
//! the maximum `TE = (T_ori - T_i) / (E_i - E_ori)` (eq. 14). The sequence
//! of committed plans is the *tuning path*; each prefix is a tuning table
//! the run-time scheduler can fall back to (calibration backtracks along
//! it when live entropy exceeds the threshold).

use pcnn_nn::entropy::mean_entropy;
use pcnn_nn::network::Network;
use pcnn_nn::perforation::PerforationPlan;
use pcnn_tensor::Tensor;

/// One point on the tuning path.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningEntry {
    /// The committed perforation plan.
    pub plan: PerforationPlan,
    /// Mean output entropy on the calibration batch.
    pub entropy: f64,
    /// Top-1 accuracy on the calibration batch, if labels were supplied
    /// (used only by the Fig. 16 evaluation; run-time tuning is
    /// unsupervised).
    pub accuracy: Option<f64>,
    /// Fraction of convolution FLOPs retained.
    pub retained_flops: f64,
    /// Predicted speedup over the unperforated network
    /// (`total FLOPs / retained FLOPs`, counting non-conv work as fixed).
    pub speedup: f64,
}

/// The tuning path: entry 0 is the unperforated network; each subsequent
/// entry perforates one more step. Monotonically faster and (weakly) more
/// uncertain.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningPath {
    /// The committed entries, identity first.
    pub entries: Vec<TuningEntry>,
}

impl TuningPath {
    /// Index of the deepest entry whose entropy stays within `threshold`
    /// — the plan the run-time scheduler starts with.
    pub fn deepest_index_within(&self, threshold: f64) -> usize {
        (0..self.entries.len())
            .rev()
            .find(|&i| self.entries[i].entropy <= threshold)
            .unwrap_or(0)
    }

    /// Calibration (§IV.C.3): from `current` (an index into the path),
    /// back off one table at a time while the *observed* entropy exceeds
    /// the threshold. `observed` is the live mean entropy at `current`;
    /// the stored path entropies guide how far to back off.
    pub fn calibrate(&self, current: usize, observed: f64, threshold: f64) -> usize {
        if observed <= threshold || current == 0 {
            return current.min(self.entries.len() - 1);
        }
        // The live data is harder than the calibration data by
        // `observed - stored`; find the deepest entry whose stored entropy,
        // shifted by that gap, stays within the threshold.
        let gap = observed - self.entries[current.min(self.entries.len() - 1)].entropy;
        (0..current)
            .rev()
            .find(|&i| self.entries[i].entropy + gap.max(0.0) <= threshold)
            .unwrap_or(0)
    }
}

/// The entropy-based accuracy tuner.
#[derive(Debug)]
pub struct AccuracyTuner<'a> {
    net: &'a Network,
    inputs: &'a Tensor,
    labels: Option<&'a [usize]>,
    /// Per-step rate increment (default 0.1, the paper's Fig. 12 example).
    pub rate_step: f64,
    /// Maximum rate per layer (default 0.8).
    pub max_rate: f64,
}

impl<'a> AccuracyTuner<'a> {
    /// Creates a tuner over a calibration batch.
    pub fn new(net: &'a Network, inputs: &'a Tensor) -> Self {
        Self {
            net,
            inputs,
            labels: None,
            rate_step: 0.1,
            max_rate: 0.8,
        }
    }

    /// Also records labelled accuracy at each entry (for Fig. 16).
    pub fn with_labels(mut self, labels: &'a [usize]) -> Self {
        self.labels = Some(labels);
        self
    }

    fn measure(&self, plan: &PerforationPlan) -> (f64, Option<f64>) {
        let logits = self
            .net
            .forward(self.inputs, plan)
            .expect("calibration forward cannot fail on a consistent plan");
        let entropy = mean_entropy(&logits);
        let accuracy = self.labels.map(|l| pcnn_nn::entropy::accuracy(&logits, l));
        (entropy, accuracy)
    }

    fn conv_flops(&self) -> Vec<u64> {
        self.net
            .spec()
            .conv_layers()
            .iter()
            .map(|c| c.flops())
            .collect()
    }

    fn entry(&self, plan: PerforationPlan, entropy: f64, accuracy: Option<f64>) -> TuningEntry {
        let conv_flops = self.conv_flops();
        let spec = self.net.spec();
        let total = spec.total_flops() as f64;
        let conv_total: u64 = conv_flops.iter().sum();
        let retained = plan.retained_flops_fraction(&conv_flops);
        let fixed = total - conv_total as f64;
        let speedup = total / (fixed + retained * conv_total as f64);
        TuningEntry {
            plan,
            entropy,
            accuracy,
            retained_flops: retained,
            speedup,
        }
    }

    /// The supervised variant the paper compares against in Fig. 16:
    /// greedy tuning guided by *measured accuracy* instead of entropy
    /// (`TE` uses the accuracy drop as its denominator), stopping when the
    /// accuracy falls more than `max_accuracy_loss` below the baseline.
    ///
    /// # Panics
    ///
    /// Panics if the tuner was built without labels.
    pub fn tune_accuracy_guided(&self, max_accuracy_loss: f64, max_iters: usize) -> TuningPath {
        assert!(
            self.labels.is_some(),
            "accuracy-guided tuning requires labels"
        );
        self.greedy(Guide::Accuracy, max_accuracy_loss, max_iters)
    }

    /// Runs the greedy tuning of Fig. 12 until the entropy threshold is
    /// crossed or `max_iters` committed adjustments. The returned path
    /// always starts with the identity plan; the first entry past the
    /// threshold (if reached) is included so calibration has the boundary.
    pub fn tune(&self, entropy_threshold: f64, max_iters: usize) -> TuningPath {
        self.greedy(Guide::Entropy, entropy_threshold, max_iters)
    }

    /// The greedy search behind both tuners: each iteration tries one
    /// more step on every layer and commits the best
    /// `TE = time saved / rise in the guide's cost` (eq. 14), until the
    /// cost passes `limit`.
    fn greedy(&self, guide: Guide, limit: f64, max_iters: usize) -> TuningPath {
        let n = self.net.conv_count();
        let mut plan = PerforationPlan::identity(n);
        let (e0, a0) = self.measure(&plan);
        let mut entries = vec![self.entry(plan.clone(), e0, a0)];
        let conv_flops = self.conv_flops();
        // What the guide pays for time with, larger is worse. Entropy is
        // held against the threshold itself, accuracy against its loss
        // since the baseline.
        let cost = |entropy: f64, accuracy: Option<f64>| match guide {
            Guide::Entropy => entropy,
            Guide::Accuracy => -accuracy.expect("labels present"),
        };
        let origin = match guide {
            Guide::Entropy => 0.0,
            Guide::Accuracy => cost(e0, a0),
        };

        for _ in 0..max_iters {
            let current = entries.last().expect("non-empty");
            let cur_cost = cost(current.entropy, current.accuracy);
            if cur_cost - origin > limit {
                break;
            }
            let base_time = current.retained_flops;
            let mut best: Option<(f64, PerforationPlan, f64, Option<f64>)> = None;
            for layer in 0..n {
                let new_rate = plan.rate(layer) + self.rate_step;
                if new_rate > self.max_rate + 1e-9 {
                    continue;
                }
                let candidate = plan.with_rate(layer, new_rate);
                let (e, a) = self.measure(&candidate);
                let retained = candidate.retained_flops_fraction(&conv_flops);
                let time_saving = base_time - retained;
                let te = time_saving / (cost(e, a) - cur_cost).max(1e-9);
                if best.as_ref().map(|(b, ..)| te > *b).unwrap_or(true) {
                    best = Some((te, candidate, e, a));
                }
            }
            let Some((_, chosen, e, a)) = best else { break };
            plan = chosen;
            entries.push(self.entry(plan.clone(), e, a));
        }
        TuningPath { entries }
    }
}

/// What the greedy search trades time against: output entropy (the
/// paper's unsupervised tuner) or labelled top-1 accuracy (Fig. 16).
#[derive(Clone, Copy)]
enum Guide {
    Entropy,
    Accuracy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_data::DatasetBuilder;
    use pcnn_nn::models::tiny_alexnet;
    use pcnn_nn::train::train;

    fn trained_net_and_data() -> (Network, Tensor, Vec<usize>) {
        let mut net = tiny_alexnet(4);
        let (train_set, test) = DatasetBuilder::new(4, 32)
            .samples(64)
            .noise(0.25)
            .build_split(32);
        train(&mut net, &train_set.images, &train_set.labels, 6, 8, 0.05).unwrap();
        (net, test.images, test.labels)
    }

    #[test]
    fn path_starts_with_identity() {
        let (net, inputs, _) = trained_net_and_data();
        let tuner = AccuracyTuner::new(&net, &inputs);
        let path = tuner.tune(10.0, 3);
        assert!(path.entries[0].plan.is_identity());
        assert_eq!(path.entries[0].speedup, 1.0);
        assert_eq!(path.entries[0].retained_flops, 1.0);
    }

    #[test]
    fn speedup_increases_monotonically() {
        // Paper Fig. 16: "the speedup increases monotonically".
        let (net, inputs, _) = trained_net_and_data();
        let path = AccuracyTuner::new(&net, &inputs).tune(10.0, 6);
        assert!(
            path.entries.len() >= 4,
            "path too short: {}",
            path.entries.len()
        );
        for w in path.entries.windows(2) {
            assert!(w[1].speedup > w[0].speedup);
            assert!(w[1].retained_flops < w[0].retained_flops);
        }
    }

    #[test]
    fn tuning_stops_past_threshold() {
        let (net, inputs, _) = trained_net_and_data();
        let base = AccuracyTuner::new(&net, &inputs).tune(1e9, 0).entries[0].entropy;
        // Threshold barely above base: at most one boundary-crossing entry
        // after the first crossing.
        let path = AccuracyTuner::new(&net, &inputs).tune(base + 1e-6, 20);
        let over: Vec<_> = path
            .entries
            .iter()
            .filter(|e| e.entropy > base + 1e-6)
            .collect();
        assert!(over.len() <= 1, "kept tuning past threshold");
    }

    #[test]
    fn deepest_index_within_respects_threshold() {
        let (net, inputs, _) = trained_net_and_data();
        let path = AccuracyTuner::new(&net, &inputs).tune(10.0, 6);
        let mid = (path.entries[0].entropy + path.entries.last().unwrap().entropy) / 2.0;
        let idx = path.deepest_index_within(mid);
        assert!(path.entries[idx].entropy <= mid);
        assert!(path.entries[idx + 1..].iter().all(|e| e.entropy > mid));
    }

    #[test]
    fn calibrate_backs_off() {
        let (net, inputs, _) = trained_net_and_data();
        let path = AccuracyTuner::new(&net, &inputs).tune(10.0, 6);
        let last = path.entries.len() - 1;
        let threshold = path.entries[1].entropy + 1e-9;
        // Observed entropy well above threshold at the deepest table.
        let backed = path.calibrate(last, threshold + 0.5, threshold);
        assert!(backed < last);
        // Within threshold: stay.
        assert_eq!(path.calibrate(last, threshold - 0.5, threshold), last);
    }

    #[test]
    fn labelled_accuracy_recorded() {
        let (net, inputs, labels) = trained_net_and_data();
        let path = AccuracyTuner::new(&net, &inputs)
            .with_labels(&labels)
            .tune(10.0, 3);
        assert!(path.entries.iter().all(|e| e.accuracy.is_some()));
    }
}
