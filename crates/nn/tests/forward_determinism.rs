//! The batched inference forward pass splits the conv prefix's images
//! across workers and runs the classifier tail once on the joined batch;
//! each image's arithmetic is untouched by the split and by the join, so
//! logits must be **bitwise** identical at any thread count — and the
//! same from a workspace filled with NaN (`poisoned`), so no layer reads
//! scratch or an activation it did not write.

// The hash and the poisoned workspace of the shared pinned-hash fixture
// are used here, not its operands.
#[allow(dead_code)]
#[path = "../../tensor/tests/common/mod.rs"]
mod common;

use common::{fnv1a, poisoned};
use pcnn_nn::layer::{Conv2d, Linear};
use pcnn_nn::models::{tiny_alexnet, tiny_vggnet};
use pcnn_nn::{ConvPlan, Layer, Network, NnError, PerforationPlan};
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn logits_at(threads: usize, batch: usize, plan: &PerforationPlan) -> Vec<f32> {
    let net = tiny_alexnet(6);
    let input = Tensor::from_fn(vec![batch, 1, 32, 32], |i| {
        ((i * 37 % 101) as f32 - 50.0) / 25.0
    });
    let len = net
        .compile(plan, None)
        .expect("fits")
        .workspace_len(batch, threads);
    pcnn_parallel::with_threads(threads, || {
        poisoned(len, || net.forward(&input, plan))
            .expect("forward succeeds")
            .into_vec()
    })
}

/// Logits at 2, 3 and 8 workers against the 1-thread serial forward.
/// Over batches 5 and 8 that is an even prefix split (8 / 2), uneven
/// groups with a short last one (5 / 2, 8 / 3, 5 / 3), one image per
/// worker (8 / 8) and the starved one-group fallback (5 < 8) — each
/// joined into one `[batch, features]` tensor and classified as a whole.
fn assert_matches_serial(batches: &[usize], plan: &PerforationPlan) {
    for &batch in batches {
        let serial = logits_at(1, batch, plan);
        for threads in [2, 3, 8] {
            assert_eq!(
                serial,
                logits_at(threads, batch, plan),
                "batch {batch} logits differ between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn forward_bitwise_equal_across_thread_counts() {
    assert_matches_serial(&[2, 5, 8], &PerforationPlan::identity(2));
}

/// A perforated conv layer runs each worker group's images through one
/// sampled GEMM, so the group sizes above are also GEMM widths: 7 images
/// are one GEMM of 7 columns-blocks serially and at 8 workers, 4 + 3 at
/// two, 3 + 3 + 1 at three — the same bits every time.
#[test]
fn perforated_forward_bitwise_equal_across_thread_counts() {
    assert_matches_serial(&[5, 6, 7, 8], &PerforationPlan::from_rates(vec![0.5, 0.25]));
}

/// A profiled forward is the forward production runs. At widths 2 and 3
/// a batch of 8 is batch-split with the profiler on: every group's layer
/// scopes and spans reach the calling thread's profile through the
/// handoff, so the logits are the unprofiled ones bit for bit and every
/// layer's per-phase FLOP and byte totals are width 1's — but for the
/// epilogue's bytes, where each group counts a scratch checkout of its
/// own.
#[test]
fn profiled_forward_matches_unprofiled_bits_and_width_1_work() {
    use pcnn_profile::Phase;
    let plan = PerforationPlan::identity(2);
    let unprofiled = logits_at(1, 8, &plan);
    pcnn_profile::set_enabled(true);
    let profiled_at = |threads: usize| {
        pcnn_profile::reset();
        (logits_at(threads, 8, &plan), pcnn_profile::snapshot())
    };
    let (logits, serial) = profiled_at(1);
    assert_eq!(logits, unprofiled);
    assert_eq!(serial[0].name, "L00 conv");
    for threads in [2, 3] {
        let (logits, wide) = profiled_at(threads);
        assert_eq!(
            logits, unprofiled,
            "profiling moved a bit at {threads} threads"
        );
        assert_eq!(wide.len(), serial.len());
        for (wl, sl) in wide.iter().zip(&serial) {
            assert_eq!(wl.name, sl.name);
            for p in Phase::ALL {
                let (w, s) = (wl.phase(p), sl.phase(p));
                let at = format!("{} {} at {threads} threads", sl.name, p.name());
                assert_eq!(w.flops, s.flops, "flops, {at}");
                if p == Phase::Epilogue {
                    assert!(w.bytes >= s.bytes, "bytes, {at}");
                } else {
                    assert_eq!(w.bytes, s.bytes, "bytes, {at}");
                }
            }
        }
    }
    pcnn_profile::set_enabled(false);
}

fn batch_of(batch: usize) -> Tensor {
    Tensor::from_fn(vec![batch, 1, 32, 32], |i| {
        ((i * 37 % 101) as f32 - 50.0) / 25.0
    })
}

/// `run(compile(p, c))` is `forward_planned(p, c)` is the hash recorded on
/// the commit before `compile` / `run` existed, at every pool width — for
/// the default plan, a tuned plan, and perforated plans whose conv-plan
/// entries the perforated layers ignore.
#[test]
fn compiled_run_is_forward_planned_is_the_pinned_bits() {
    use ConvAlgo::{Direct, Im2col, Winograd};
    let net = tiny_alexnet(6);
    let input = batch_of(8);
    let pinned: [(&[f64], [ConvAlgo; 2], u64); 4] = [
        (&[0.0, 0.0], [Im2col, Im2col], 0x7330_e579_d93d_f987),
        (&[0.0, 0.0], [Direct, Winograd], 0xac8c_f764_05f8_25d6),
        (&[0.5, 0.25], [Winograd, Direct], 0x4751_d8be_8e53_5ef9),
        (&[0.0, 0.45], [Winograd, Winograd], 0xcac1_51cf_9ace_a9e8),
    ];
    for (rates, algos, hash) in pinned {
        let p = PerforationPlan::from_rates(rates.to_vec());
        let c = ConvPlan::from_algos(algos.to_vec());
        let exec = net.compile(&p, Some(&c)).expect("plans fit");
        for threads in [1, 2, 3, 8] {
            let len = exec.workspace_len(8, threads);
            let (ran, planned) = pcnn_parallel::with_threads(threads, || {
                (
                    poisoned(len, || net.run(&exec, &input)).expect("runs"),
                    poisoned(len, || net.forward_planned(&input, &p, &c)).expect("runs"),
                )
            });
            let at = format!("{rates:?} {} at {threads} threads", c.serialize());
            assert_eq!(fnv1a(ran.data()), hash, "run, {at}");
            assert_eq!(fnv1a(planned.data()), hash, "forward_planned, {at}");
        }
    }
    // Without a conv plan, `compile` is what `forward` does.
    let identity = PerforationPlan::identity(2);
    let exec = net.compile(&identity, None).expect("plan fits");
    assert_eq!(
        fnv1a(net.run(&exec, &input).expect("runs").data()),
        pinned[0].2
    );
    assert_eq!(
        fnv1a(net.forward(&input, &identity).expect("runs").data()),
        pinned[0].2
    );
}

/// A plan holds nothing that a run changes or that depends on the batch:
/// run twice it gives the same bits, and an image's logits are the same
/// in a batch of 8 (batch-split at 2 workers) and in a batch of 3.
#[test]
fn one_plan_serves_every_run_and_batch_size() {
    let net = tiny_alexnet(6);
    let exec = net
        .compile(&PerforationPlan::from_rates(vec![0.5, 0.0]), None)
        .expect("plan fits");
    let big = batch_of(8);
    let small = big.batch_range(0, 3);
    pcnn_parallel::with_threads(2, || {
        let first = net.run(&exec, &big).expect("runs");
        assert_eq!(first, net.run(&exec, &big).expect("runs again"));
        let few = net.run(&exec, &small).expect("runs on 3 images");
        assert_eq!(few.data(), &first.data()[..3 * 6]);
    });
}

/// A one-conv network: `kernel` x `kernel` filters (same-padded) over a
/// `side` x `side` image, and a `classes`-way classifier.
fn one_conv_net(kernel: usize, side: usize, classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(9);
    let geom = Conv2dGeometry::new(1, side, side, kernel, 1, kernel / 2);
    Network::new(
        "one-conv",
        [1, side, side],
        vec![
            Layer::Conv2d(Conv2d::new(geom, 4, &mut rng)),
            Layer::Relu,
            Layer::Flatten,
            Layer::Linear(Linear::new(4 * side * side, classes, &mut rng)),
        ],
    )
}

/// Every plan error is `compile`'s, raised with no input in sight.
#[test]
fn compile_alone_rejects_each_bad_plan() {
    let net = tiny_alexnet(6);
    let identity = PerforationPlan::identity(2);
    assert!(matches!(
        net.compile(&PerforationPlan::identity(1), None),
        Err(NnError::Perforation(m)) if m.contains("covers 1 conv layers, network has 2")
    ));
    assert!(matches!(
        net.compile(&identity, Some(&ConvPlan::im2col(1))),
        Err(NnError::Plan(m)) if m.contains("covers 1 conv layers, network has 2")
    ));
    // Winograd runs 3x3 and 5x5 filters, not 7x7.
    let seven = one_conv_net(7, 16, 3);
    assert!(matches!(
        seven.compile(
            &PerforationPlan::identity(1),
            Some(&ConvPlan::from_algos(vec![ConvAlgo::Winograd]))
        ),
        Err(NnError::Plan(m)) if m.contains("cannot run winograd")
    ));
}

/// `run` refuses a plan compiled for another network — by layer count,
/// by where the conv layers sit, by conv geometry (an algorithm the
/// layer's shape cannot run, a perforation of another output map), and by
/// a layer's output (another classifier width) — with the typed error,
/// before any layer runs.
#[test]
fn run_refuses_a_plan_compiled_for_another_network() {
    let refused = |net: &Network, exec, side: usize| {
        let input = Tensor::zeros(vec![1, 1, side, side]);
        assert!(matches!(
            net.run(exec, &input),
            Err(NnError::Plan(m)) if m.contains("compiled for another network")
        ));
    };
    let three = one_conv_net(3, 16, 3);
    let identity = PerforationPlan::identity(1);
    // Another layer count.
    let vgg = tiny_vggnet(6);
    let vgg_plan = vgg
        .compile(&PerforationPlan::identity(vgg.conv_count()), None)
        .expect("plan fits");
    refused(&three, &vgg_plan, 16);
    // Same layers, but Winograd was chosen for 3x3 filters, not 7x7 (a
    // shape it cannot run).
    let winograd = three
        .compile(
            &identity,
            Some(&ConvPlan::from_algos(vec![ConvAlgo::Winograd])),
        )
        .expect("plan fits");
    three
        .run(&winograd, &Tensor::zeros(vec![1, 1, 16, 16]))
        .expect("its own network runs it");
    refused(&one_conv_net(7, 16, 3), &winograd, 16);
    // Same layers, but the perforation is of a 16x16 map, not 12x12.
    let sampled = three
        .compile(&PerforationPlan::from_rates(vec![0.5]), None)
        .expect("plan fits");
    refused(&one_conv_net(3, 12, 3), &sampled, 12);
    // Same conv, but a 1024 -> 20 classifier where the plan recorded
    // 1024 -> 3.
    let direct = three.compile(&identity, None).expect("plan fits");
    refused(&one_conv_net(3, 16, 20), &direct, 16);
}
