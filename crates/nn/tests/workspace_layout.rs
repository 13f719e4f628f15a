//! The workspace a forward lays out is a pure function of the plan, the
//! batch and the pool width, and it is what `peak_rss_mb` reads: these
//! are its exact figures — floats and the layer whose step sets the peak —
//! for the tiny models and AlexNet's one-tower conv stack, under direct,
//! Winograd and perforated plans, one image to a batch split at three
//! workers with a short last group. A change to how a forward is laid out
//! that moves one of them moves the memory every deployment takes.

use pcnn_nn::layer::{Conv2d, Linear, MaxPool2d};
use pcnn_nn::models::{tiny_alexnet, tiny_googlenet, tiny_vggnet};
use pcnn_nn::{ConvPlan, Layer, Network, PerforationPlan};
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor};

/// One-tower AlexNet (227x227 input, 5 conv / 3 pool) with a 10-way
/// classifier and zero weights: the layer shapes the benchmark runs.
fn alexnet_stack() -> Network {
    let mut layers = Vec::new();
    let (mut channels, mut side) = (3, 227);
    // (filters, kernel, stride, pad, a 3x3 stride-2 pool after it)
    for (out, kernel, stride, pad, pool) in [
        (96, 11, 4, 0, true),
        (256, 5, 1, 2, true),
        (384, 3, 1, 1, false),
        (384, 3, 1, 1, false),
        (256, 3, 1, 1, true),
    ] {
        let g = Conv2dGeometry::new(channels, side, side, kernel, stride, pad);
        let weight = Tensor::zeros(vec![out, g.patch_len()]);
        layers.push(Layer::Conv2d(Conv2d::from_parts(
            g,
            out,
            weight,
            vec![0.0; out],
        )));
        layers.push(Layer::Relu);
        (channels, side) = (out, g.out_h);
        if pool {
            layers.push(Layer::MaxPool2d(MaxPool2d::new(3, 2)));
            side = (side - 3) / 2 + 1;
        }
    }
    layers.push(Layer::Flatten);
    let weight = Tensor::zeros(vec![10, channels * side * side]);
    layers.push(Layer::Linear(Linear::from_parts(weight, vec![0.0; 10])));
    Network::new("AlexNet", [3, 227, 227], layers)
}

/// The three plans: every conv direct, Winograd wherever a layer's shape
/// admits it (direct elsewhere), and every conv perforated at 45 %.
fn plans(net: &Network) -> [(&'static str, PerforationPlan, ConvPlan); 3] {
    let n = net.conv_count();
    let winograd = net.layers().iter().filter_map(|l| match l {
        Layer::Conv2d(c) if ConvAlgo::Winograd.supports(c.geometry()) => Some(ConvAlgo::Winograd),
        Layer::Conv2d(_) => Some(ConvAlgo::Direct),
        _ => None,
    });
    [
        (
            "direct",
            PerforationPlan::identity(n),
            ConvPlan::from_algos(vec![ConvAlgo::Direct; n]),
        ),
        (
            "winograd",
            PerforationPlan::identity(n),
            ConvPlan::from_algos(winograd.collect()),
        ),
        (
            "perforated",
            PerforationPlan::from_rates(vec![0.45; n]),
            ConvPlan::from_algos(vec![ConvAlgo::Direct; n]),
        ),
    ]
}

/// `(batch, threads)`: one image, a batch at width 1, an even batch split,
/// and a split that leaves a worker idle (4 images at width 3: two groups
/// of two).
const RUNS: [(usize, usize); 4] = [(1, 1), (8, 1), (8, 2), (4, 3)];

/// `ExecPlan::workspace_peak`, one `(floats, layer)` per entry of [`RUNS`].
type Peaks = [(usize, usize); 4];

/// The peaks per network and plan, recorded from the layout as the
/// pool-free workspace first shipped it.
const PINNED: [(&str, &str, Peaks); 12] = [
    (
        "TinyAlexNet",
        "direct",
        [(31264, 3), (81920, 2), (107584, 3), (78912, 3)],
    ),
    (
        "TinyAlexNet",
        "winograd",
        [(41040, 0), (55376, 0), (102560, 0), (90272, 0)],
    ),
    (
        "TinyAlexNet",
        "perforated",
        [(25456, 3), (173824, 3), (187264, 3), (97728, 3)],
    ),
    (
        "TinyVGGNet",
        "direct",
        [(103456, 2), (218144, 2), (313408, 2), (243776, 2)],
    ),
    (
        "TinyVGGNet",
        "winograd",
        [(79696, 2), (151376, 2), (229024, 2), (183968, 2)],
    ),
    (
        "TinyVGGNet",
        "perforated",
        [(75712, 2), (570048, 2), (582336, 2), (296416, 2)],
    ),
    (
        "TinyGoogLeNet",
        "direct",
        [(37408, 5), (122880, 2), (131360, 0), (93248, 5)],
    ),
    (
        "TinyGoogLeNet",
        "winograd",
        [(58448, 0), (79952, 0), (139424, 0), (125088, 0)],
    ),
    (
        "TinyGoogLeNet",
        "perforated",
        [(32736, 5), (206304, 0), (216768, 5), (116576, 5)],
    ),
    (
        "AlexNet",
        "direct",
        [(2139840, 3), (3936096, 3), (5893056, 3), (4829760, 3)],
    ),
    (
        "AlexNet",
        "winograd",
        [(3043200, 8), (3951744, 8), (6938880, 8), (6382848, 8)],
    ),
    (
        "AlexNet",
        "perforated",
        [(1474496, 3), (3270752, 3), (4562368, 3), (3499072, 3)],
    ),
];

#[test]
fn workspace_peaks_are_the_pinned_layout() {
    let mut got = Vec::new();
    for net in [
        tiny_alexnet(10),
        tiny_vggnet(10),
        tiny_googlenet(10),
        alexnet_stack(),
    ] {
        for (name, perforation, conv_plan) in plans(&net) {
            let exec = net.compile(&perforation, Some(&conv_plan)).expect("fits");
            let peaks = RUNS.map(|(batch, threads)| exec.workspace_peak(batch, threads));
            got.push((net.name().to_string(), name, peaks));
        }
    }
    let want: Vec<_> = PINNED
        .iter()
        .map(|&(net, plan, peaks)| (net.to_string(), plan, peaks))
        .collect();
    assert_eq!(got, want, "{got:#?}");
}
