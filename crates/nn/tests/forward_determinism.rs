//! The batched inference forward pass splits the conv prefix's images
//! across workers and runs the classifier tail once on the joined batch;
//! each image's arithmetic is untouched by the split and by the join, so
//! logits must be **bitwise** identical at any thread count.

use pcnn_nn::models::tiny_alexnet;
use pcnn_nn::PerforationPlan;
use pcnn_tensor::Tensor;

fn logits_at(threads: usize, batch: usize, plan: &PerforationPlan) -> Vec<f32> {
    let net = tiny_alexnet(6);
    let input = Tensor::from_fn(vec![batch, 1, 32, 32], |i| {
        ((i * 37 % 101) as f32 - 50.0) / 25.0
    });
    pcnn_parallel::with_threads(threads, || {
        net.forward(&input, plan)
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
