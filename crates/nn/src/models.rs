//! Small trainable stand-ins for the paper's three networks.
//!
//! The accuracy/entropy experiments (Table I, Fig. 16) need networks that we
//! can actually train and whose accuracy degrades smoothly under
//! perforation. Training the full ImageNet models is out of scope (and the
//! paper itself uses pre-trained Caffe models), so we provide three
//! architectures of *increasing capacity* — mirroring AlexNet < VGGNet <
//! GoogLeNet in both depth and accuracy — operating on small synthetic
//! images from `pcnn-data`. The 32x32 input keeps enough spatial
//! redundancy in the feature maps for perforation + interpolation to
//! behave like it does on the paper's 224x224 inputs, and the mild dropout
//! matches the original networks' regularisation. The substitution is
//! documented in `DESIGN.md`.
//!
//! All three accept `[N, 1, 32, 32]` inputs.

use pcnn_tensor::Conv2dGeometry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{Conv2d, Layer, Linear, MaxPool2d};
use crate::network::Network;

/// Seed used for weight initialisation so experiments are reproducible.
const INIT_SEED: u64 = 0x5EED;

/// Tiny AlexNet analogue: 2 conv layers, the shallowest/least accurate of
/// the trio.
///
/// # Example
///
/// ```
/// use pcnn_nn::models::tiny_alexnet;
///
/// let net = tiny_alexnet(10);
/// assert_eq!(net.conv_count(), 2);
/// assert_eq!(net.num_classes(), 10);
/// ```
pub fn tiny_alexnet(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(INIT_SEED);
    let layers = vec![
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(1, 32, 32, 3, 1, 1),
            8,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(8, 16, 16, 3, 1, 1),
            16,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Dropout(0.1),
        Layer::Flatten,
        Layer::Linear(Linear::new(16 * 8 * 8, classes, &mut rng)),
    ];
    Network::new("TinyAlexNet", [1, 32, 32], layers)
}

/// Tiny VGGNet analogue: 4 conv layers in stacked-3x3 style, mid capacity.
pub fn tiny_vggnet(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(INIT_SEED + 1);
    let layers = vec![
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(1, 32, 32, 3, 1, 1),
            8,
            &mut rng,
        )),
        Layer::Relu,
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(8, 32, 32, 3, 1, 1),
            8,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(8, 16, 16, 3, 1, 1),
            16,
            &mut rng,
        )),
        Layer::Relu,
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(16, 16, 16, 3, 1, 1),
            16,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Dropout(0.1),
        Layer::Flatten,
        Layer::Linear(Linear::new(16 * 8 * 8, 64, &mut rng)),
        Layer::Relu,
        Layer::Linear(Linear::new(64, classes, &mut rng)),
    ];
    Network::new("TinyVGGNet", [1, 32, 32], layers)
}

/// Tiny GoogLeNet analogue: 5 conv layers alternating 1x1 reductions and
/// 3x3 convolutions (the sequential skeleton of an inception column), the
/// deepest/most accurate of the trio.
pub fn tiny_googlenet(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(INIT_SEED + 2);
    let layers = vec![
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(1, 32, 32, 3, 1, 1),
            12,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(12, 16, 16, 1, 1, 0),
            8,
            &mut rng,
        )),
        Layer::Relu,
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(8, 16, 16, 3, 1, 1),
            24,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(24, 8, 8, 1, 1, 0),
            16,
            &mut rng,
        )),
        Layer::Relu,
        Layer::Conv2d(Conv2d::new(
            Conv2dGeometry::new(16, 8, 8, 3, 1, 1),
            32,
            &mut rng,
        )),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Dropout(0.1),
        Layer::Flatten,
        Layer::Linear(Linear::new(32 * 4 * 4, 96, &mut rng)),
        Layer::Relu,
        Layer::Linear(Linear::new(96, classes, &mut rng)),
    ];
    Network::new("TinyGoogLeNet", [1, 32, 32], layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerforationPlan;
    use pcnn_tensor::Tensor;

    /// The three tiny models in paper order (AlexNet, VGGNet, GoogLeNet).
    fn tiny_trio(classes: usize) -> Vec<Network> {
        vec![
            tiny_alexnet(classes),
            tiny_vggnet(classes),
            tiny_googlenet(classes),
        ]
    }

    #[test]
    fn capacity_ordering_matches_real_networks() {
        // Like the real trio: AlexNet-analogue smallest; the GoogLeNet
        // analogue is deeper than VGG but has *fewer* weights (GoogLeNet:
        // 6.8M params vs VGG's 138M), with more conv FLOPs per weight.
        let nets = tiny_trio(10);
        let w: Vec<usize> = nets.iter().map(|n| n.spec().total_weights()).collect();
        assert!(
            w[0] < w[1] && w[0] < w[2],
            "AlexNet analogue not smallest: {w:?}"
        );
        let f: Vec<u64> = nets.iter().map(|n| n.spec().total_flops()).collect();
        assert!(f[0] < f[1], "FLOPs not increasing AlexNet->VGG: {f:?}");
    }

    #[test]
    fn conv_depth_increases_across_trio() {
        let nets = tiny_trio(10);
        let d: Vec<usize> = nets.iter().map(Network::conv_count).collect();
        assert_eq!(d, vec![2, 4, 5]);
    }

    #[test]
    fn all_models_run_forward() {
        let input = Tensor::from_fn(vec![2, 1, 32, 32], |i| (i as f32 * 0.03).cos());
        for net in tiny_trio(10) {
            let out = net
                .forward(&input, &PerforationPlan::identity(net.conv_count()))
                .unwrap();
            assert_eq!(out.shape(), &[2, 10], "{}", net.name());
        }
    }
}
