//! "The bits did not move", for Winograd: pinned hashes of
//! [`conv2d_winograd`]'s output.
//!
//! The block height of the tile-row pipeline, the row-wise shape of the
//! three transforms and the thread count are all free to change, because
//! none of them touches any element's sequence of IEEE operations — the
//! transforms are per-element maps with a fixed order of adds, subs and
//! `x 0.5`, and the per-coordinate GEMM's order depends only on `k` and
//! `KC` (DESIGN.md, "Winograd block pipeline"). This test holds that to
//! the bit on shapes that straddle every boundary the pipeline has:
//! several blocks, one block, ragged bottom/right tiles, every padding,
//! maps narrower than one input tile and a single output pixel. The
//! hashes below were recorded on the commit *before* the whole-image
//! Winograd body was replaced by the block pipeline and are asserted
//! unchanged at every thread count, which is why no golden,
//! `results/*.txt` or `BENCH_*` document other than the timing columns of
//! `BENCH_conv.json` needed re-pinning. The deep several-block shape and
//! the one deeper than a `KC` block were recorded later, on the commit
//! before the filter transform wrote the GEMM's packed `A` and the 16
//! GEMMs began storing their first block instead of adding it to a
//! zero-filled `M`.
//!
//! Every run starts from a workspace filled with NaN ([`poisoned`]), so a
//! kernel that read scratch it had not written would move a hash.

mod common;

use common::{fixture, fnv1a, poisoned};
use pcnn_tensor::{
    conv2d, conv2d_scratch_len, conv2d_winograd, conv2d_winograd_relu, winograd_scratch_len,
    winograd_tile, Conv2dGeometry, ConvAlgo,
};

/// `(in_channels, in_h, in_w, pad, out_channels, hash of out)`.
const PINNED: &[(usize, usize, usize, usize, usize, u64)] = &[
    // Several blocks: V + M overflow the cache budget.
    (64, 56, 56, 1, 64, 0xebe2_7104_f682_1530),
    (32, 112, 40, 1, 48, 0x27ab_9145_7741_a475),
    // One block, deep: a VGG conv5-class layer.
    (128, 14, 14, 1, 128, 0x5112_8cad_18d1_7fab),
    // Deep and several blocks: one block before every layer kept to the
    // cache budget.
    (256, 28, 28, 1, 256, 0xe243_3178_6ee3_9a35),
    // More input channels than one `KC` block: the 16 GEMMs store their
    // first block and add the second.
    (320, 6, 6, 1, 32, 0x8435_f63d_7fe1_0182),
    // Odd maps: ragged bottom row and right column of tiles.
    (16, 13, 13, 1, 24, 0xd751_6534_315a_971f),
    (5, 7, 5, 1, 7, 0x423e_2fbb_500d_96d2),
    // Padding 0 and 2 (the output shrinks / grows by two).
    (8, 12, 10, 0, 6, 0x9d30_6648_6b0d_6a23),
    (8, 9, 11, 2, 6, 0x41f3_2a67_c403_0a39),
    // Maps narrower than one 4x4 input tile, and a single output pixel.
    (3, 6, 3, 1, 4, 0xdfee_63b8_79d6_79e9),
    (4, 5, 2, 1, 3, 0xcc49_bdd9_9747_e0c8),
    (6, 3, 3, 0, 5, 0x4e28_e6ba_dc7f_86a9),
];

#[test]
fn winograd_output_bits_are_pinned_across_block_and_thread_changes() {
    for &(ic, in_h, in_w, pad, oc, want) in PINNED {
        let geom = Conv2dGeometry::new(ic, in_h, in_w, 3, 1, pad);
        let weight = fixture(0x5749_4e4f, oc * geom.patch_len());
        let bias = fixture(0x0b1a_5000, oc);
        let input = fixture(0x1d3a_7e57, ic * in_h * in_w);
        for threads in [1usize, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                let mut out = vec![f32::NAN; oc * geom.out_positions()];
                poisoned(winograd_scratch_len(&geom, oc, 2, threads), || {
                    conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut out)
                });
                fnv1a(&out)
            });
            assert_eq!(
                got, want,
                "winograd {ic}x{in_h}x{in_w} pad {pad} -> {oc} at {threads} thread(s): \
                 hash {got:#018x}, pinned {want:#018x}"
            );
        }
    }
}

/// What an F(4x4) [`PINNED_F4`] row runs: `conv2d` through
/// [`ConvAlgo::Winograd`], or `conv2d_winograd_relu` with the ReLU fused
/// and, with `Pool`, the 2x2 stride-2 max-pool too.
#[derive(Clone, Copy, Debug)]
enum Fused {
    No,
    Relu,
    Pool,
}

/// F(4x4,3x3), which `conv2d` runs on these shapes (maps of 28 and more,
/// 16 or more channels each way): `(in_channels, in_h, in_w, pad,
/// out_channels, fused, hash of out)`, recorded on the commit that added
/// the kernel, once it agreed with the im2col reference within
/// `winograd_error_bound` and with itself at every block height, `U`
/// chunk and thread count.
const PINNED_F4: &[(usize, usize, usize, usize, usize, Fused, u64)] = &[
    // Two blocks, the second short.
    (48, 120, 60, 1, 48, Fused::No, 0xe005_390b_2450_0628),
    // `U` over its budget: two chunks of output channels, and more input
    // channels than one `KC` block.
    (320, 28, 28, 1, 384, Fused::No, 0x1af5_944a_4c96_0176),
    // Maps of 1, 2 and 3 mod 4: ragged bottom rows and right columns.
    (16, 29, 29, 1, 16, Fused::No, 0x1d1d_512d_8210_f63a),
    (24, 30, 34, 1, 20, Fused::No, 0xc70b_6aa3_8a86_323f),
    (16, 31, 33, 1, 24, Fused::No, 0xf47f_5d79_a520_8c5c),
    // Padding 0 and 2, the second with a ragged register tile of rows.
    (16, 32, 30, 0, 16, Fused::No, 0xaed4_4e43_14ae_a12c),
    (20, 28, 29, 2, 17, Fused::No, 0x9a0b_72e1_877d_6cc7),
    // The fused write-back: ReLU on a map of 3 mod 4, ReLU and the 2x2
    // pool on one of 2 mod 4, whose last tile row and column hold one
    // pool window each.
    (16, 31, 29, 1, 16, Fused::Relu, 0xaec3_6e97_2c52_4cdb),
    (16, 30, 30, 1, 24, Fused::Pool, 0x9ca3_dd42_a582_574c),
];

#[test]
fn winograd4_output_bits_are_pinned_across_block_chunk_and_thread_changes() {
    for &(ic, in_h, in_w, pad, oc, fused, want) in PINNED_F4 {
        let geom = Conv2dGeometry::new(ic, in_h, in_w, 3, 1, pad);
        assert_eq!(winograd_tile(&geom, oc), 4, "{ic}x{in_h}x{in_w} -> {oc}");
        let weight = fixture(0x5749_4e4f, oc * geom.patch_len());
        let bias = fixture(0x0b1a_5000, oc);
        let input = fixture(0x1d3a_7e57, ic * in_h * in_w);
        for threads in [1usize, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                let (w, b, x) = (&weight[..], &bias[..], &input[..]);
                let positions = geom.out_positions() / if let Fused::Pool = fused { 4 } else { 1 };
                let mut out = vec![f32::NAN; oc * positions];
                let len = conv2d_scratch_len(ConvAlgo::Winograd, &geom, oc, threads);
                poisoned(len, || match fused {
                    Fused::No => conv2d(ConvAlgo::Winograd, &geom, oc, w, b, x, 1, &mut out),
                    Fused::Relu => conv2d_winograd_relu(&geom, oc, w, b, x, 1, false, &mut out),
                    Fused::Pool => conv2d_winograd_relu(&geom, oc, w, b, x, 1, true, &mut out),
                });
                fnv1a(&out)
            });
            assert_eq!(
                got, want,
                "F(4x4) {ic}x{in_h}x{in_w} pad {pad} -> {oc} {fused:?} at {threads} thread(s): \
                 hash {got:#018x}, pinned {want:#018x}"
            );
        }
    }
}

/// F(2x2,5x5), which `conv2d` and `conv2d_winograd` both run on a stride-1
/// 5x5 layer: `(in_channels, in_h, in_w, pad, out_channels, fused, hash
/// of out)`, recorded on the commit that added the kernel, once it agreed
/// with the im2col reference within `winograd_error_bound` (and, on
/// scaled integers, to the bit) and with itself at every block height and
/// thread count.
const PINNED_F2_5: &[(usize, usize, usize, usize, usize, Fused, u64)] = &[
    // AlexNet conv2: three blocks of 5, 5 and 4 tile rows, ragged last
    // tile row and column.
    (96, 27, 27, 2, 256, Fused::No, 0x0592_4ad8_947b_3495),
    // More input channels than one `KC` block, two blocks, the second
    // short.
    (300, 20, 20, 2, 40, Fused::No, 0x4836_a30d_dc85_6322),
    // Odd and ragged maps, an output-channel tail of the 16-row tile.
    (16, 13, 13, 2, 24, Fused::No, 0xaf3a_2ae1_b39f_54b8),
    (5, 7, 9, 1, 7, Fused::No, 0xf7b5_4183_7618_1dad),
    // Padding 0: the output shrinks by four.
    (8, 12, 10, 0, 6, Fused::No, 0x4f5e_47a0_47bd_313f),
    // Maps narrower than one 6x6 input tile, and a single output pixel.
    (3, 5, 6, 0, 4, Fused::No, 0x9baf_5710_b236_e1bc),
    (4, 3, 2, 2, 3, Fused::No, 0x7a1a_9e9c_a9cc_d6a7),
    (6, 5, 5, 0, 5, Fused::No, 0x77e0_cbbd_3be0_3a30),
    // The fused write-back: ReLU on an odd map, ReLU and the 2x2 pool on
    // an even one.
    (16, 31, 29, 2, 16, Fused::Relu, 0x10a2_ebc4_e3f4_1609),
    (16, 30, 30, 2, 24, Fused::Pool, 0x0a9c_6f79_0c6b_c19a),
];

#[test]
fn winograd5_output_bits_are_pinned_across_block_and_thread_changes() {
    for &(ic, in_h, in_w, pad, oc, fused, want) in PINNED_F2_5 {
        let geom = Conv2dGeometry::new(ic, in_h, in_w, 5, 1, pad);
        assert_eq!(winograd_tile(&geom, oc), 2, "{ic}x{in_h}x{in_w} -> {oc}");
        let weight = fixture(0x5749_4e4f, oc * geom.patch_len());
        let bias = fixture(0x0b1a_5000, oc);
        let input = fixture(0x1d3a_7e57, ic * in_h * in_w);
        for threads in [1usize, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                let (w, b, x) = (&weight[..], &bias[..], &input[..]);
                let positions = geom.out_positions() / if let Fused::Pool = fused { 4 } else { 1 };
                let mut out = vec![f32::NAN; oc * positions];
                let len = conv2d_scratch_len(ConvAlgo::Winograd, &geom, oc, threads);
                poisoned(len, || match fused {
                    Fused::No => {
                        conv2d(ConvAlgo::Winograd, &geom, oc, w, b, x, 1, &mut out);
                        let mut alone = vec![f32::NAN; out.len()];
                        poisoned(len, || conv2d_winograd(&geom, oc, w, b, x, &mut alone));
                        assert_eq!(fnv1a(&alone), fnv1a(&out), "conv2d_winograd is F(2x2,5x5)");
                    }
                    Fused::Relu => conv2d_winograd_relu(&geom, oc, w, b, x, 1, false, &mut out),
                    Fused::Pool => conv2d_winograd_relu(&geom, oc, w, b, x, 1, true, &mut out),
                });
                fnv1a(&out)
            });
            assert_eq!(
                got, want,
                "F(2x2,5x5) {ic}x{in_h}x{in_w} pad {pad} -> {oc} {fused:?} at {threads} thread(s): \
                 hash {got:#018x}, pinned {want:#018x}"
            );
        }
    }
}
