//! Cross-algorithm convolution correctness: the direct kernel must match
//! the im2col reference **bitwise** on every geometry it accepts, and the
//! Winograd F(2x2,3x3), F(4x4,3x3) and F(2x2,5x5) kernels must stay within
//! their documented error bounds (F(2x2,3x3) exact where f32 arithmetic is
//! exact).
//!
//! The property tests deliberately sweep the ugly corners: strided and
//! padded geometries together, 1x1 kernels, non-square inputs, and
//! channel/position counts that leave ragged tails in the 6x16 microkernel
//! grid and the KC-deep pack blocks.

use pcnn_profile::{Phase, PhaseTotals};
use pcnn_tensor::{
    conv2d, conv2d_direct, conv2d_sampled, conv2d_sampled_scratch_len, conv2d_winograd, gemm_bias,
    im2col, winograd_coords, winograd_error_bound, winograd_tile, Conv2dGeometry, ConvAlgo,
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
    let len = conv2d_sampled_scratch_len(geom, oc, 1, all.len(), pcnn_parallel::active_threads());
    conv2d_sampled(
        geom,
        oc,
        w,
        b,
        x,
        1,
        &all,
        &mut out,
        &mut vec![f32::NAN; len],
    );
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

    /// Winograd on any stride-1 3x3 or 5x5 geometry it supports stays
    /// within the documented per-element error bound of the reference.
    #[test]
    fn winograd_within_bound_on_any_supported_geometry(
        c in 1usize..6,
        in_h in 3usize..16,
        in_w in 3usize..16,
        pad in 0usize..3,
        oc in 1usize..20,
        five in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kernel = if five { 5 } else { 3 };
        prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let geom = Conv2dGeometry::new(c, in_h, in_w, kernel, 1, pad);
        let (w, b, x) = operands(&geom, oc, seed);
        let want = reference(&geom, oc, &w, &b, &x);
        let got = run_winograd(&geom, oc, &w, &b, &x);
        let bound = winograd_error_bound(2, &geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - r).abs() <= bound,
                "element {}: {} vs {} (bound {})", i, g, r, bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `conv2d` runs F(4x4) on maps of 28 and more with 16 or more
    /// channels each way — ragged tiles, every padding, a pack block and
    /// a half of depth — and stays within F(4x4)'s documented bound.
    #[test]
    fn winograd4_within_bound_on_large_maps(
        c in 16usize..40,
        in_h in 26usize..36,
        in_w in 26usize..36,
        pad in 0usize..3,
        oc in 16usize..24,
        seed in any::<u64>(),
    ) {
        let geom = Conv2dGeometry::new(c, in_h, in_w, 3, 1, pad);
        prop_assume!(geom.out_h.min(geom.out_w) >= 28);
        prop_assert_eq!(winograd_tile(&geom, oc), 4);
        let (w, b, x) = operands(&geom, oc, seed);
        let want = reference(&geom, oc, &w, &b, &x);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d(ConvAlgo::Winograd, &geom, oc, &w, &b, &x, 1, &mut got);
        let bound = winograd_error_bound(4, &geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - r).abs() <= bound,
                "element {}: {} vs {} (bound {})", i, g, r, bound
            );
        }
    }
}

/// `conv2d` is the one dispatcher the layer forward, the tuner and
/// `bench-conv` share. Under every algorithm a group of three images is,
/// bit for bit, three one-image calls (Winograd: one filter transform for
/// the group, the same bits), a one-image call is the single-image
/// kernel of that algorithm, and stale values in `out` never survive.
#[test]
fn conv2d_on_a_group_is_bitwise_its_images_alone() {
    let geom = Conv2dGeometry::new(5, 11, 9, 3, 1, 1);
    let oc = 7;
    let (w, b, _) = operands(&geom, oc, 0xC0DE);
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    let map = oc * geom.out_positions();
    let group = pseudo(0x6120, 3 * chw);
    for algo in ConvAlgo::ALL {
        let mut together = vec![f32::NAN; 3 * map];
        conv2d(algo, &geom, oc, &w, &b, &group, 3, &mut together);
        for i in 0..3 {
            let x = &group[i * chw..(i + 1) * chw];
            let mut alone = vec![f32::NAN; map];
            conv2d(algo, &geom, oc, &w, &b, x, 1, &mut alone);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&together[i * map..(i + 1) * map]),
                bits(&alone),
                "{algo}, image {i}"
            );
            let kernel = match algo {
                ConvAlgo::Im2col => reference(&geom, oc, &w, &b, x),
                ConvAlgo::Direct => run_direct(&geom, oc, &w, &b, x),
                ConvAlgo::Winograd => run_winograd(&geom, oc, &w, &b, x),
            };
            assert_eq!(bits(&alone), bits(&kernel), "{algo} vs its kernel");
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
/// within the documented bound, for `conv2d_winograd`'s F(2x2,3x3) and
/// F(2x2,5x5) alike.
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
        // 5x5, pad 2 on an odd map: 27 x 27, the last tiles clipped
        (Conv2dGeometry::new(3, 27, 27, 5, 1, 2), 17),
        // 5x5, pad 0: the output shrinks to 9 x 5
        (Conv2dGeometry::new(4, 13, 9, 5, 1, 0), 7),
        // 5x5, pad 1 on a ragged non-square map, oc past two 16-row tiles
        (Conv2dGeometry::new(2, 8, 19, 5, 1, 1), 33),
        // 5x5 to a single output pixel, and to a single row
        (Conv2dGeometry::new(5, 5, 5, 5, 1, 0), 3),
        (Conv2dGeometry::new(6, 5, 12, 5, 1, 0), 18),
        // 5x5 with 300 input channels: U/V GEMMs deeper than one KC block
        (Conv2dGeometry::new(300, 7, 7, 5, 1, 2), 20),
        // AlexNet conv2: 96 -> 256 @ 27², pad 2
        (Conv2dGeometry::new(96, 27, 27, 5, 1, 2), 256),
    ];
    for (geom, oc) in cases {
        let (w, b, x) = operands(geom, *oc, 43);
        let want = reference(geom, *oc, &w, &b, &x);
        let got = run_winograd(geom, *oc, &w, &b, &x);
        let bound = winograd_error_bound(2, geom, &w, &x);
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

/// Profiler attribution of the Winograd block pipeline:
/// `conv2d_winograd` emits its `WinogradTransform` / `WinogradInverse`
/// spans per block and its `WinogradFilter` span once, so their *sums*
/// per layer must be the whole-image formulas; the 16 GEMMs read the `U`
/// the filter transform packed and the `V` the input transform packed, so
/// they report neither `PackA` nor `PackB`; and together with the GEMM's
/// phases the spans must still cover the layer's wall time. `conv2d`'s
/// F(4x4) layers report the same phases with their own counts — 36
/// coordinates per 4x4 tile, a chunked `U` transformed a chunk at a time
/// — and no packing either; so do F(2x2,5x5)'s, 36 coordinates per 2x2
/// tile and 25 taps a filter.
#[test]
fn block_spans_sum_to_the_layer_formulas_and_cover_the_layer() {
    // (in_channels, in_h, in_w, pad, out_channels, tile, kernel): four
    // blocks with a short last one and ragged tiles; one block; padding 0
    // and 2, where the blocks' input-row shares meet the image border
    // differently; then F(4x4) in two blocks, and with `U` in two chunks;
    // then F(2x2,5x5) on AlexNet conv2's shape (three blocks) and on a
    // ragged unpadded map of eight blocks.
    let shapes = [
        (64usize, 55usize, 56usize, 1usize, 64usize, 2usize, 3usize),
        (128, 14, 14, 1, 128, 2, 3),
        (32, 112, 40, 0, 48, 2, 3),
        (32, 112, 40, 2, 48, 2, 3),
        (48, 120, 60, 1, 48, 4, 3),
        (384, 30, 30, 0, 320, 4, 3),
        (96, 27, 27, 2, 256, 2, 5),
        (64, 61, 90, 0, 80, 2, 5),
    ];
    pcnn_profile::set_enabled(true);
    pcnn_profile::reset();
    for (layer, &(ic, in_h, in_w, pad, oc, tile, kernel)) in shapes.iter().enumerate() {
        let geom = Conv2dGeometry::new(ic, in_h, in_w, kernel, 1, pad);
        assert!(tile == 2 || winograd_tile(&geom, oc) == tile);
        let weight = vec![0.25f32; oc * geom.patch_len()];
        let bias = vec![0.5f32; oc];
        let input = vec![1.0f32; ic * in_h * in_w];
        let mut out = vec![0.0f32; oc * geom.out_positions()];
        let conv = |out: &mut [f32]| match tile {
            2 => conv2d_winograd(&geom, oc, &weight, &bias, &input, out),
            _ => conv2d(
                ConvAlgo::Winograd,
                &geom,
                oc,
                &weight,
                &bias,
                &input,
                1,
                out,
            ),
        };
        // Warm the scratch pool so first-use allocation is not timed.
        conv(&mut out);
        let mut run = |threads: usize| {
            pcnn_profile::reset();
            let scope = pcnn_profile::layer_scope(layer, "conv");
            pcnn_parallel::with_threads(threads, || conv(&mut out));
            drop(scope);
            pcnn_profile::snapshot()
                .into_iter()
                .find(|l| l.index == layer)
                .expect("layer profile")
        };
        let profile = run(1);

        let t = geom.out_h.div_ceil(tile) * geom.out_w.div_ceil(tile);
        let coords = winograd_coords(tile, kernel);
        // Flops per filter, input tile and output tile.
        let [filter, tile_in, tile_out] = match (tile, kernel) {
            (2, 3) => [40, 40, 16],
            (2, _) => [231, 210, 76],
            _ => [117, 210, 146],
        };
        // The filter and input transforms write U and V packed for the
        // GEMMs (counted without the tier's padding), so they pack
        // neither; M is stored by the GEMMs, never zero-filled.
        for packing in [Phase::PackA, Phase::PackB] {
            assert_eq!(
                profile.phase(packing).calls,
                0,
                "{packing:?} per GEMM, layer {layer}"
            );
        }
        let filter_phase = profile.phase(Phase::WinogradFilter);
        assert_eq!(
            (filter_phase.flops, filter_phase.bytes),
            (
                (filter * oc * ic) as u64,
                4 * (oc * geom.patch_len() + coords * oc * ic) as u64
            ),
            "filter transform, layer {layer}"
        );
        let transform = profile.phase(Phase::WinogradTransform);
        assert_eq!(
            transform.flops,
            (tile_in * ic * t) as u64,
            "transform flops, layer {layer}"
        );
        assert_eq!(
            transform.bytes,
            4 * (ic * in_h * in_w + coords * ic * t) as u64,
            "transform bytes, layer {layer}"
        );
        let inverse = profile.phase(Phase::WinogradInverse);
        assert_eq!(
            inverse.flops,
            (tile_out * oc * t) as u64,
            "inverse flops, layer {layer}"
        );
        assert_eq!(
            inverse.bytes,
            4 * (coords * oc * t + oc * geom.out_positions()) as u64,
            "inverse bytes, layer {layer}"
        );
        assert_eq!(
            profile.phase(Phase::Microkernel).flops,
            2 * (coords * oc * ic * t) as u64,
            "the {coords} GEMMs' flops, layer {layer}"
        );

        // Wall-clock: a preemption between two spans is not a hole in
        // the attribution, so the best of a few runs is what is bounded.
        let cover = |p: &pcnn_profile::LayerProfile| p.total().ns as f64 / p.wall_ns as f64;
        let covered = (0..4).fold(cover(&profile), |best, _| {
            if best >= 0.95 {
                best
            } else {
                best.max(cover(&run(1)))
            }
        });
        assert!(
            (0.95..=1.0).contains(&covered),
            "phases cover {covered:.3} of layer {layer}'s wall time"
        );

        // At width 3 the blocks (or, for a single block, its GEMMs' tiles)
        // run on pool workers; their spans reach this thread's profile
        // through the handoff, under this layer, and sum to the same work.
        let wide = run(3);
        let work = |t: PhaseTotals| (t.flops, t.bytes, t.calls);
        for p in [
            Phase::WinogradFilter,
            Phase::WinogradTransform,
            Phase::WinogradInverse,
            Phase::PackA,
            Phase::PackB,
        ] {
            assert_eq!(work(wide.phase(p)), work(profile.phase(p)), "{p:?}");
        }
        assert_eq!(
            wide.phase(Phase::Microkernel).flops,
            profile.phase(Phase::Microkernel).flops
        );
    }
    pcnn_profile::set_enabled(false);
}
