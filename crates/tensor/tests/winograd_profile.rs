//! Profiler attribution of the Winograd block pipeline.
//!
//! `conv2d_winograd` emits its `WinogradTransform` / `WinogradInverse`
//! spans per block (the filter transform once), so their *sums* per layer
//! must still be the whole-image formulas `pcnn profile` has always
//! reported, and together with the GEMM's phases they must still cover
//! the layer's wall time. The profiler's tables are process-global, which
//! is why this is one test in a binary of its own: nothing else records
//! while it runs.

use pcnn_profile::{layer_scope, Phase};
use pcnn_tensor::{conv2d_winograd, Conv2dGeometry};

#[test]
fn block_spans_sum_to_the_layer_formulas_and_cover_the_layer() {
    // (in_channels, in_h, in_w, pad, out_channels): four blocks with a
    // short last one and ragged tiles; one block; padding 0 and 2, where
    // the blocks' input-row shares meet the image border differently.
    let shapes = [
        (64usize, 55usize, 56usize, 1usize, 64usize),
        (128, 14, 14, 1, 128),
        (32, 112, 40, 0, 48),
        (32, 112, 40, 2, 48),
    ];
    pcnn_profile::set_enabled(true);
    pcnn_profile::reset();
    for (layer, &(ic, in_h, in_w, pad, oc)) in shapes.iter().enumerate() {
        let geom = Conv2dGeometry::new(ic, in_h, in_w, 3, 1, pad);
        let weight = vec![0.25f32; oc * geom.patch_len()];
        let bias = vec![0.5f32; oc];
        let input = vec![1.0f32; ic * in_h * in_w];
        let mut out = vec![0.0f32; oc * geom.out_positions()];
        // Warm the scratch pool so first-use allocation is not timed.
        conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut out);
        let mut run = || {
            pcnn_profile::reset();
            let scope = layer_scope(layer, "conv");
            pcnn_parallel::with_threads(1, || {
                conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut out);
            });
            drop(scope);
            pcnn_profile::snapshot()
                .into_iter()
                .find(|l| l.index == layer)
                .expect("layer profile")
        };
        let profile = run();

        let t = geom.out_h.div_ceil(2) * geom.out_w.div_ceil(2);
        let transform = profile.phase(Phase::WinogradTransform);
        assert_eq!(
            transform.flops,
            (40 * oc * ic + 40 * ic * t) as u64,
            "transform flops, layer {layer}"
        );
        assert_eq!(
            transform.bytes,
            4 * (oc * geom.patch_len() + ic * in_h * in_w + 16 * (oc * ic + ic * t)) as u64,
            "transform bytes, layer {layer}"
        );
        let inverse = profile.phase(Phase::WinogradInverse);
        assert_eq!(
            inverse.flops,
            (16 * oc * t) as u64,
            "inverse flops, layer {layer}"
        );
        assert_eq!(
            inverse.bytes,
            4 * (16 * oc * t + oc * geom.out_positions()) as u64,
            "inverse bytes, layer {layer}"
        );
        assert_eq!(
            profile.phase(Phase::Microkernel).flops,
            2 * (16 * oc * ic * t) as u64,
            "the 16 GEMMs' flops, layer {layer}"
        );

        // Wall-clock: a preemption between two spans is not a hole in
        // the attribution, so the best of a few runs is what is bounded.
        let cover = |p: &pcnn_profile::LayerProfile| p.total().ns as f64 / p.wall_ns as f64;
        let covered = (0..4).fold(cover(&profile), |best, _| {
            if best >= 0.95 {
                best
            } else {
                best.max(cover(&run()))
            }
        });
        assert!(
            (0.95..=1.0).contains(&covered),
            "phases cover {covered:.3} of layer {layer}'s wall time"
        );
    }
    pcnn_profile::set_enabled(false);
}
