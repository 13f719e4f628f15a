//! Cross-algorithm convolution correctness: the direct kernel must match
//! the im2col reference **bitwise** on every geometry it accepts, and the
//! Winograd F(2x2,3x3) kernel must stay within its documented error bound
//! (and be exact where f32 arithmetic is exact).
//!
//! The property tests deliberately sweep the ugly corners: strided and
//! padded geometries together, 1x1 kernels, non-square inputs, and
//! channel/position counts that leave ragged tails in the 6x16 microkernel
//! grid and the KC-deep pack blocks.

use pcnn_tensor::{
    conv2d_direct, conv2d_sampled, conv2d_winograd, gemm_bias, im2col, winograd_error_bound,
    Conv2dGeometry,
};
use proptest::prelude::*;

fn pseudo(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i32 % 1000) as f32 / 64.0
        })
        .collect()
}

/// The im2col reference pipeline every other algorithm is judged against.
fn reference(
    geom: &Conv2dGeometry,
    oc: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
) -> Vec<f32> {
    let (k, n) = (geom.patch_len(), geom.out_positions());
    let mut cols = vec![0.0; k * n];
    im2col(geom, input, &mut cols);
    let mut out = vec![0.0; oc * n];
    gemm_bias(oc, n, k, weight, &cols, bias, &mut out);
    out
}

fn operands(geom: &Conv2dGeometry, oc: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let weight = pseudo(seed, oc * geom.patch_len());
    let bias = pseudo(seed ^ 0xB1A5, oc);
    let input = pseudo(seed ^ 0x1DEA, geom.in_channels * geom.in_h * geom.in_w);
    (weight, bias, input)
}

fn run_direct(geom: &Conv2dGeometry, oc: usize, w: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
    let mut out = vec![f32::NAN; oc * geom.out_positions()];
    conv2d_direct(geom, oc, w, b, x, &mut out);
    out
}

/// The sampled convolution handed every position of one image, in order:
/// the case `conv2d_direct` is.
fn run_sampled_identity(
    geom: &Conv2dGeometry,
    oc: usize,
    w: &[f32],
    b: &[f32],
    x: &[f32],
) -> Vec<f32> {
    let all: Vec<usize> = (0..geom.out_positions()).collect();
    let mut out = vec![f32::NAN; oc * all.len()];
    conv2d_sampled(geom, oc, w, b, x, 1, &all, &mut out);
    out
}

fn run_winograd(geom: &Conv2dGeometry, oc: usize, w: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
    let mut out = vec![f32::NAN; oc * geom.out_positions()];
    conv2d_winograd(geom, oc, w, b, x, &mut out);
    out
}

proptest! {
    /// Direct convolution packs the same bytes the im2col path packs, so
    /// any geometry — strided, padded, non-square, ragged — must agree
    /// with the reference **bitwise**; so must the sampled convolution it
    /// shares its gather with, asked for every position.
    #[test]
    fn direct_is_bitwise_im2col_on_any_geometry(
        c in 1usize..6,
        in_h in 3usize..14,
        in_w in 3usize..14,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        oc in 1usize..12,
        seed in any::<u64>(),
    ) {
        prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let geom = Conv2dGeometry::new(c, in_h, in_w, kernel, stride, pad);
        let (w, b, x) = operands(&geom, oc, seed);
        let want = reference(&geom, oc, &w, &b, &x);
        let got = run_direct(&geom, oc, &w, &b, &x);
        prop_assert_eq!(got, want.clone());
        prop_assert_eq!(run_sampled_identity(&geom, oc, &w, &b, &x), want);
    }

    /// Winograd on any stride-1 3x3 geometry it supports stays within the
    /// documented per-element error bound of the reference.
    #[test]
    fn winograd_within_bound_on_any_supported_geometry(
        c in 1usize..6,
        in_h in 3usize..16,
        in_w in 3usize..16,
        pad in 0usize..2,
        oc in 1usize..12,
        seed in any::<u64>(),
    ) {
        let geom = Conv2dGeometry::new(c, in_h, in_w, 3, 1, pad);
        let (w, b, x) = operands(&geom, oc, seed);
        let want = reference(&geom, oc, &w, &b, &x);
        let got = run_winograd(&geom, oc, &w, &b, &x);
        let bound = winograd_error_bound(&geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - r).abs() <= bound,
                "element {}: {} vs {} (bound {})", i, g, r, bound
            );
        }
    }
}

/// Named edge geometries from the issue checklist, each asserted bitwise
/// against the reference: stride>1 with padding, 1x1 kernels (plain and
/// strided-padded), non-square inputs and microkernel-tail channel
/// counts (oc % 6 != 0, positions % 16 != 0, patch_len straddling the
/// pack depth).
#[test]
fn direct_edge_shapes_are_bitwise_exact() {
    let cases: &[(Conv2dGeometry, usize)] = &[
        // stride 2 + pad 1, the canonical downsampling conv
        (Conv2dGeometry::new(4, 15, 15, 3, 2, 1), 10),
        // stride 3 + pad 2 on a non-square input
        (Conv2dGeometry::new(2, 19, 11, 5, 3, 2), 7),
        // 1x1 kernel: im2col is a pure reshape
        (Conv2dGeometry::new(8, 9, 9, 1, 1, 0), 5),
        // 1x1 kernel with stride and (useless but legal) padding
        (Conv2dGeometry::new(3, 10, 14, 1, 2, 1), 6),
        // non-square input, non-square output
        (Conv2dGeometry::new(5, 7, 23, 3, 1, 1), 9),
        // ragged everything: oc=7 (one full 6-row tile + a 1-row tail),
        // 3x11=33 positions (two full 16-column panels + a 1-column
        // tail), patch_len 2*3*3=18
        (Conv2dGeometry::new(2, 5, 13, 3, 1, 0), 7),
        // one below the tile on both axes: oc=5, 3x5=15 positions
        (Conv2dGeometry::new(2, 5, 7, 3, 1, 0), 5),
        // patch_len 33*3*3=297 > KC=256: depth spans two pack blocks
        (Conv2dGeometry::new(33, 8, 8, 3, 1, 1), 4),
    ];
    for (geom, oc) in cases {
        let (w, b, x) = operands(geom, *oc, 41);
        let want = reference(geom, *oc, &w, &b, &x);
        let got = run_direct(geom, *oc, &w, &b, &x);
        assert_eq!(
            got, want,
            "direct != im2col on {}x{}x{} k{} s{} p{} oc{}",
            geom.in_channels, geom.in_h, geom.in_w, geom.kernel, geom.stride, geom.pad, oc
        );
        assert_eq!(run_sampled_identity(geom, *oc, &w, &b, &x), want);
    }
}

/// Winograd edge geometries: ragged tile grids (odd output dims), single
/// row/column outputs, channel tails and two-pack-block depths — all
/// within the documented bound.
#[test]
fn winograd_edge_shapes_stay_within_bound() {
    let cases: &[(Conv2dGeometry, usize)] = &[
        // odd output dims: every right/bottom tile is clipped
        (Conv2dGeometry::new(3, 8, 8, 3, 1, 1), 5),
        // single-row output: tiles_y = 1 with clipping
        (Conv2dGeometry::new(2, 3, 17, 3, 1, 0), 4),
        // single-column output
        (Conv2dGeometry::new(2, 17, 3, 3, 1, 0), 4),
        // non-square with pad 0 (interior-only)
        (Conv2dGeometry::new(4, 9, 13, 3, 1, 0), 7),
        // channel tail vs the microkernel and a 297-deep U/V GEMM
        (Conv2dGeometry::new(33, 6, 6, 3, 1, 1), 5),
    ];
    for (geom, oc) in cases {
        let (w, b, x) = operands(geom, *oc, 43);
        let want = reference(geom, *oc, &w, &b, &x);
        let got = run_winograd(geom, *oc, &w, &b, &x);
        let bound = winograd_error_bound(geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - r).abs() <= bound,
                "element {i}: {g} vs {r} (bound {bound}) on {}x{}x{} p{} oc{}",
                geom.in_channels,
                geom.in_h,
                geom.in_w,
                geom.pad,
                oc
            );
        }
    }
}

/// Pinned Winograd golden: small-integer operands keep every transform
/// step exact in f32 (coefficients are 0/±1/±0.5 and the values are
/// even), so the output is an exactly-representable integer vector that
/// must never drift — across refactors, SIMD paths or thread counts.
#[test]
fn winograd_golden_is_pinned() {
    let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 0);
    let oc = 1;
    // 4x4 ramp of even integers; kernel of even integers summing to 6.
    let input: Vec<f32> = (0..16).map(|i| (2 * i) as f32).collect();
    let weight = vec![2.0, 0.0, -2.0, 4.0, 2.0, 0.0, -2.0, 2.0, 0.0];
    let bias = vec![6.0];
    let got = run_winograd(&geom, oc, &weight, &bias, &input);
    // Independently derived: direct dot products of the 3x3 patches.
    let mut want = vec![0.0f32; 4];
    for oy in 0..2 {
        for ox in 0..2 {
            let mut acc = bias[0];
            for ky in 0..3 {
                for kx in 0..3 {
                    acc += weight[ky * 3 + kx] * input[(oy + ky) * 4 + ox + kx];
                }
            }
            want[oy * 2 + ox] = acc;
        }
    }
    assert_eq!(got, want);
    // …and pinned literally, so a broken reference can't hide a broken
    // kernel.
    assert_eq!(got, vec![54.0, 66.0, 102.0, 114.0]);
}

/// Both new algorithms are bitwise deterministic across thread counts:
/// direct shares the deterministic packed-GEMM spine, Winograd's
/// transforms are serial and its 16 inner GEMMs are each deterministic.
#[test]
fn conv_algorithms_bitwise_equal_across_thread_counts() {
    // Big enough that the packed GEMM's parallel threshold (64^3 MACs) is
    // crossed and the pool really splits.
    let geom = Conv2dGeometry::new(16, 30, 26, 3, 1, 1);
    let oc = 24;
    let (w, b, x) = operands(&geom, oc, 47);
    let direct1 = pcnn_parallel::with_threads(1, || run_direct(&geom, oc, &w, &b, &x));
    let wino1 = pcnn_parallel::with_threads(1, || run_winograd(&geom, oc, &w, &b, &x));
    for threads in [2, 3, 8] {
        let dt = pcnn_parallel::with_threads(threads, || run_direct(&geom, oc, &w, &b, &x));
        assert_eq!(
            direct1, dt,
            "direct differs between 1 and {threads} threads"
        );
        let wt = pcnn_parallel::with_threads(threads, || run_winograd(&geom, oc, &w, &b, &x));
        assert_eq!(
            wino1, wt,
            "winograd differs between 1 and {threads} threads"
        );
    }
}
