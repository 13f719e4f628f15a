//! A Winograd conv followed by a ReLU (and a 2x2 stride-2 max-pool on an
//! even map) runs as one step of `Network::run`: the ReLU and the pool
//! happen in the inverse transform's write-back. Each element goes through
//! the same operations in the same order as the layer-by-layer walk, so
//! the logits must be **bitwise** that walk's — at every pool width, on
//! the batch-split path too, and whatever the conv outputs are: negative,
//! zero, or NaN — and from a workspace filled with NaN (`poisoned`), so no
//! step reads scratch or an activation it did not write.

#[allow(dead_code)]
#[path = "../../tensor/tests/common/mod.rs"]
mod common;

use common::poisoned;
use pcnn_nn::layer::{Conv2d, Linear, MaxPool2d};
use pcnn_nn::{ConvPlan, Layer, Network, PerforationPlan};
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ConvAlgo::{Direct, Winograd};

/// A 3x3 conv layer whose channel 0 has no weights and no bias: a map of
/// exact zeros.
fn conv(rng: &mut StdRng, c: usize, side: usize, pad: usize, oc: usize) -> Layer {
    conv_k(rng, 3, c, side, pad, oc)
}

/// [`conv`] with `kernel x kernel` filters.
fn conv_k(rng: &mut StdRng, kernel: usize, c: usize, side: usize, pad: usize, oc: usize) -> Layer {
    let geom = Conv2dGeometry::new(c, side, side, kernel, 1, pad);
    let mut layer = Conv2d::new(geom, oc, rng);
    let (weight, bias) = layer.params_mut();
    weight.data_mut()[..geom.patch_len()].fill(0.0);
    for (o, b) in bias.iter_mut().enumerate().skip(1) {
        *b = (o as f32 - 2.0) / 8.0;
    }
    Layer::Conv2d(layer)
}

/// A VGG-style tower on a 3x33x33 image, with the conv algorithm of each
/// of its five conv layers; the comments say what `compile` fuses.
fn tower() -> (Network, ConvPlan) {
    let mut rng = StdRng::seed_from_u64(11);
    let layers = vec![
        // 33x33 is odd: the ReLU fuses, the pool runs on its own.
        conv(&mut rng, 3, 33, 1, 8),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        // 16x16: ReLU and pool both fuse.
        conv(&mut rng, 8, 16, 1, 8),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        // Direct: its ReLU runs in place, its pool on its own.
        conv(&mut rng, 8, 8, 1, 12),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        // 4x4 is even, but a 3x3 stride-2 pool stays unfused.
        conv(&mut rng, 12, 4, 1, 12),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(3, 2)),
        // No ReLU after it: nothing fuses.
        conv(&mut rng, 12, 1, 1, 6),
        Layer::Flatten,
        Layer::Linear(Linear::new(6, 5, &mut rng)),
    ];
    let plan = ConvPlan::from_algos(vec![Winograd, Winograd, Direct, Winograd, Winograd]);
    (Network::new("tower", [3, 33, 33], layers), plan)
}

/// A tower on a 3x30x30 image whose second conv is large enough for
/// `ConvAlgo::Winograd` to run F(4x4,3x3): a 30x30 map (2 mod 4, so the
/// last tile row and column hold one pool window each), 16 channels in
/// and out.
fn large_tower() -> (Network, ConvPlan) {
    let mut rng = StdRng::seed_from_u64(12);
    let layers = vec![
        // Three input channels: F(2x2); the ReLU fuses.
        conv(&mut rng, 3, 30, 1, 16),
        Layer::Relu,
        // F(4x4): ReLU and pool both fuse.
        conv(&mut rng, 16, 30, 1, 16),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        conv(&mut rng, 16, 15, 1, 8),
        Layer::Relu,
        Layer::Flatten,
        Layer::Linear(Linear::new(8 * 15 * 15, 5, &mut rng)),
    ];
    let plan = ConvPlan::from_algos(vec![Winograd, Winograd, Direct]);
    (Network::new("large tower", [3, 30, 30], layers), plan)
}

/// An AlexNet-style tower on a 3x29x29 image whose two convs are 5x5,
/// which `ConvAlgo::Winograd` runs as F(2x2,5x5).
fn five_tower() -> (Network, ConvPlan) {
    let mut rng = StdRng::seed_from_u64(13);
    let layers = vec![
        // The ReLU fuses; a 3x3 stride-2 pool stays unfused (29 -> 14).
        conv_k(&mut rng, 5, 3, 29, 2, 16),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(3, 2)),
        // 14x14 is even: ReLU and the 2x2 pool both fuse.
        conv_k(&mut rng, 5, 16, 14, 2, 8),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten,
        Layer::Linear(Linear::new(8 * 7 * 7, 5, &mut rng)),
    ];
    let plan = ConvPlan::from_algos(vec![Winograd, Winograd]);
    (Network::new("five tower", [3, 29, 29], layers), plan)
}

/// `batch` images of signed values with a few NaN pixels in each, so
/// that some tiles' conv outputs are NaN before the ReLU.
fn images(batch: usize) -> Tensor {
    images_of(batch, 33)
}

fn images_of(batch: usize, side: usize) -> Tensor {
    Tensor::from_fn(vec![batch, 3, side, side], |i| {
        if i % 997 == 13 {
            f32::NAN
        } else {
            ((i * 2_654_435_761) % 1_000_003) as f32 / 500_000.0 - 1.0
        }
    })
}

/// The layer-by-layer reference: `forward_algo` on every layer, one after
/// the other, each conv through the plan's algorithm.
fn walk(net: &Network, plan: &ConvPlan, input: &Tensor) -> Tensor {
    let mut algos = plan.algos().iter();
    net.layers().iter().fold(input.clone(), |x, layer| {
        let algo = match layer {
            Layer::Conv2d(_) => *algos.next().expect("one algorithm per conv"),
            _ => Direct,
        };
        layer.forward_algo(&x, None, algo).expect("walks").0
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_forward_is_bitwise_the_layer_walk_at_every_width() {
    for ((net, plan), side) in [(tower(), 33), (large_tower(), 30), (five_tower(), 29)] {
        let identity = PerforationPlan::identity(net.conv_count());
        for batch in [1, 4] {
            let input = images_of(batch, side);
            let want = bits(&walk(&net, &plan, &input));
            let exec = net.compile(&identity, Some(&plan)).expect("fits");
            for threads in [1, 2, 3, 8] {
                let len = exec.workspace_len(batch, threads);
                let got = pcnn_parallel::with_threads(threads, || {
                    poisoned(len, || net.forward_planned(&input, &identity, &plan)).expect("runs")
                });
                let name = net.name();
                assert_eq!(
                    bits(&got),
                    want,
                    "{name}: batch {batch} at {threads} threads"
                );
            }
        }
    }
}

/// The inputs above do reach every case the write-back must keep: a NaN
/// conv output, a negative one, an exact zero.
#[test]
fn the_tower_has_nan_negative_and_zero_conv_outputs() {
    let (net, _) = tower();
    let first = net.layers()[0]
        .forward_algo(&images(1), None, Winograd)
        .expect("runs")
        .0;
    let data = first.data();
    assert!(data.iter().any(|v| v.is_nan()));
    assert!(data.iter().any(|&v| v < 0.0));
    assert!(data.contains(&0.0));
}

/// The profile shows what ran: the ReLUs after Winograd layers and the
/// 2x2 pools on even Winograd maps have no layer of their own — on 3x3
/// layers and on 5x5 ones, whose 3x3 stride-2 pool stays.
#[test]
fn fused_layers_leave_the_profile() {
    let three = [
        "L00 conv",
        "L02 maxpool",
        "L03 conv",
        "L06 conv",
        "L07 relu",
        "L08 maxpool",
        "L09 conv",
        "L11 maxpool",
        "L12 conv",
        "L13 flatten",
        "L14 linear",
    ];
    let five = [
        "L00 conv",
        "L02 maxpool",
        "L03 conv",
        "L06 flatten",
        "L07 linear",
    ];
    for ((net, plan), side, ran) in [(tower(), 33, &three[..]), (five_tower(), 29, &five[..])] {
        let identity = PerforationPlan::identity(net.conv_count());
        pcnn_profile::set_enabled(true);
        pcnn_profile::reset();
        pcnn_parallel::with_threads(1, || {
            net.forward_planned(&images_of(1, side), &identity, &plan)
                .expect("runs")
        });
        let layers: Vec<String> = pcnn_profile::snapshot()
            .into_iter()
            .map(|l| l.name)
            .collect();
        pcnn_profile::set_enabled(false);
        assert_eq!(layers, ran, "{}", net.name());
    }
}
