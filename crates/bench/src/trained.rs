//! Trained tiny networks shared by the accuracy experiments (Table I,
//! Fig. 16, Figs. 13–15's tuning paths).

use pcnn_core::tuning::{AccuracyTuner, TuningPath};
use pcnn_data::{Dataset, DatasetBuilder};
use pcnn_nn::models::{tiny_alexnet, tiny_googlenet, tiny_vggnet};
use pcnn_nn::train::{evaluate, train, Evaluation};
use pcnn_nn::{Network, PerforationPlan};

/// Number of classes in the synthetic classification task.
pub const CLASSES: usize = 10;

/// A trained network together with its held-out test split.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained network.
    pub net: Network,
    /// Held-out test set.
    pub test: Dataset,
    /// Baseline (unperforated) test evaluation.
    pub baseline: Evaluation,
}

/// Builds the shared synthetic dataset split. The noise level and the
/// random circular translation were calibrated (`pcnn repro calibrate_dataset`)
/// so the trained trio reproduces Table I's regime: accuracy rising and
/// entropy falling with network capacity.
pub fn dataset() -> (Dataset, Dataset) {
    DatasetBuilder::new(CLASSES, 32)
        .samples(1000)
        .noise(3.2)
        .translate(true)
        .seed(2017)
        .build_split(200)
}

/// Trains `net` on `train_set` and returns its unperforated evaluation
/// on `test`.
pub(crate) fn train_and_evaluate(
    net: &mut Network,
    epochs: usize,
    train_set: &Dataset,
    test: &Dataset,
) -> Evaluation {
    // Decayed-lr schedule; gradient clipping in `Sgd` keeps the deeper
    // models stable.
    for lr in [0.03f32, 0.01, 0.003] {
        train(net, &train_set.images, &train_set.labels, epochs, 16, lr)
            .expect("training cannot fail on consistent shapes");
    }
    let identity = PerforationPlan::identity(net.conv_count());
    evaluate(net, &test.images, &test.labels, &identity).expect("evaluation cannot fail")
}

fn train_one(mut net: Network, epochs: usize) -> TrainedModel {
    let (train_set, test) = dataset();
    let baseline = train_and_evaluate(&mut net, epochs, &train_set, &test);
    TrainedModel {
        net,
        test,
        baseline,
    }
}

/// Trains the Tiny-AlexNet stand-in.
pub fn trained_alexnet() -> TrainedModel {
    train_one(tiny_alexnet(CLASSES), 8)
}

/// Trains the Tiny-VGGNet stand-in.
pub fn trained_vggnet() -> TrainedModel {
    train_one(tiny_vggnet(CLASSES), 8)
}

/// Trains the Tiny-GoogLeNet stand-in.
pub fn trained_googlenet() -> TrainedModel {
    train_one(tiny_googlenet(CLASSES), 8)
}

/// The entropy-based tuning path of the trained Tiny-AlexNet `model`,
/// measured on a calibration slice of its test set (labels recorded for
/// Fig. 16).
pub fn alexnet_tuning_path(
    model: &TrainedModel,
    entropy_threshold: f64,
    max_iters: usize,
) -> TuningPath {
    let calib = model.test.take(96);
    AccuracyTuner::new(&model.net, &calib.images)
        .with_labels(&calib.labels)
        .tune(entropy_threshold, max_iters)
}
