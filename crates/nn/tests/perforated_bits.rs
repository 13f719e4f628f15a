//! "The bits did not move", for perforated convolution: pinned hashes of
//! [`Conv2d::forward_perforated`]'s output.
//!
//! How many images share one sampled GEMM, where a column sits in that
//! GEMM's `N`, how the patches reach the packed `B` (a gather from a
//! zero-bordered copy instead of a materialised column matrix), the order
//! the interpolation visits positions in and the thread count are all free
//! to change, because none of them touches any element's sequence of IEEE
//! operations: a `C` element's order depends on `k` and `KC` only, and an
//! interpolated element is `-0.0 + s0 + s1 + ...` over its stencil in
//! stencil order, then one divide (DESIGN.md, "Sampled convolution"). The
//! hashes below were recorded on the commit *before* the per-image
//! `im2col_positions` -> bias fill -> `gemm` -> CSR-walk route was replaced
//! by the grouped gather and are asserted unchanged at every thread
//! count, which is why no golden, `results/*.txt` or `BENCH_*` document
//! needed re-pinning. Every run starts from a workspace filled with NaN
//! (`poisoned`), so a kernel that read scratch it had not written would
//! move a hash.

#[path = "../../tensor/tests/common/mod.rs"]
mod common;

use common::{fixture, fnv1a, poisoned};
use pcnn_nn::layer::Conv2d;
use pcnn_nn::perforation::LayerPerforation;
use pcnn_nn::Layer;
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor};

/// The perforation rates of rungs 1-3 of the default degradation ladder.
const RATES: [f64; 3] = [0.25, 0.45, 0.60];
/// One image, a whole worker group of the batch-8 benchmark, and two
/// batches that leave a short last group on the layers that put 3 or 4
/// images in one GEMM.
const BATCHES: [usize; 4] = [1, 4, 5, 8];

/// `((in_channels, in_side, kernel, stride, pad, out_channels),
/// hashes[rate][batch])`.
type Pinned = ((usize, usize, usize, usize, usize, usize), [[u64; 4]; 3]);

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    // AlexNet conv1-5 (one tower).
    (
        (3, 227, 11, 4, 0, 96),
        [
            [0x565e_d3b5_a5b7_0e28, 0xda1e_f7f7_3d8c_4d8b, 0x2b0f_3c64_9494_10d6, 0x712b_7700_65fb_2dbc],
            [0x6191_af53_9a73_d10a, 0x79ff_731b_733b_ec65, 0x3441_0062_e75b_49a0, 0x12f4_e3f7_7369_0fbf],
            [0xed95_8f5a_6278_ced7, 0xc639_8461_f1ae_e9b0, 0xc69f_94ef_8bcc_4fdb, 0x6644_5ca7_f26a_1b07],
        ],
    ),
    (
        (96, 27, 5, 1, 2, 256),
        [
            [0x0dec_a23e_af5e_13c8, 0xf5a2_4ef9_c2bf_45c9, 0x0663_18b6_3dfb_6425, 0x18da_9bf0_0173_b6a8],
            [0xa4d4_74a3_acee_ad42, 0xfea5_3c71_4bd7_ff88, 0x1eeb_abf1_0d34_fed4, 0xa8e5_0e9f_bbcc_3995],
            [0x468a_5815_50fe_c872, 0x454a_28dd_aa75_88b3, 0xfad7_345f_55f1_03a6, 0x9d0e_01d0_7448_83f2],
        ],
    ),
    (
        (256, 13, 3, 1, 1, 384),
        [
            [0x82a1_892c_c039_eca5, 0xae89_4a9b_8b5a_99bd, 0xbb4c_f490_2544_fdde, 0x3b13_df96_57e3_27b7],
            [0xa1b6_9983_70e9_d2dc, 0xa0f9_7725_e2d4_11a2, 0x1e0d_d8b8_128a_a653, 0x0922_7a18_b39f_ff60],
            [0x624e_50ec_66de_c865, 0x1a1f_a3b9_3fb4_2823, 0x4a9d_9ab7_fe2b_d7c4, 0x0d15_3eae_4a3b_2068],
        ],
    ),
    (
        (384, 13, 3, 1, 1, 384),
        [
            [0x2540_e3ea_571b_accc, 0x9b93_b4c0_1d8e_92f3, 0xea6b_10c7_4844_0e88, 0xef47_3a64_9302_5908],
            [0x6d80_440f_6ada_92e7, 0xfb68_747d_48c2_e4ef, 0xcb67_68f3_6c95_9ad3, 0xaf96_ad97_9c95_0d03],
            [0x9ec6_4ae2_8737_c6cd, 0xd9a5_c22b_be6d_b4b9, 0x1be9_ef97_d3dd_24f3, 0xb1b4_4c8f_cc0f_59d4],
        ],
    ),
    (
        (384, 13, 3, 1, 1, 256),
        [
            [0x6c4a_6c66_cc9b_7eca, 0xcd0f_2ef0_53d1_a1c9, 0x971d_aae2_c27e_33bf, 0x2afa_21e5_0abf_b7d3],
            [0xc71a_2976_5b0c_7e77, 0x89ef_85f8_cf6d_1069, 0x3b36_aa2a_fdb1_6321, 0xe88b_59aa_1fcf_73de],
            [0x3aed_b305_ddb4_9732, 0xda42_b920_7c64_8ab0, 0x4be9_7872_d98c_f2f8, 0xe4fc_43c3_f5ef_237d],
        ],
    ),
    // Padded and strided, 14x14 = 196 positions: 147 / 108 / 78 kept, none
    // a multiple of the 16-column panel, oc = 10 not one of the 6-row tile.
    (
        (5, 27, 3, 2, 1, 10),
        [
            [0x311d_3756_9a0b_c0d4, 0xda1e_bd24_cb9e_ee5d, 0x2e95_f6ef_397f_0598, 0x8065_cab7_2371_b806],
            [0x6e53_070f_66e7_c6f1, 0x64cd_6421_7158_e5f7, 0x59f9_759f_1892_c2ee, 0x99c3_0a72_24a8_c521],
            [0xd5a8_6c19_ded2_8bf7, 0x31a1_4d40_def9_cee3, 0xe0e7_9708_2dc5_f135, 0x1190_4ec0_0a2e_33ac],
        ],
    ),
];

/// Multiply-adds above which an unoptimised build skips a case: the
/// explicit-intrinsics microkernel runs ~60x slower there, and the full
/// table is 260 G of them. CI's release leg asserts every row.
const DEBUG_MAC_LIMIT: usize = 150_000_000;

#[test]
fn perforated_conv_output_bits_are_pinned_across_grouping_and_thread_changes() {
    for &((ic, side, kernel, stride, pad, oc), hashes) in PINNED {
        let geom = Conv2dGeometry::new(ic, side, side, kernel, stride, pad);
        let weight = Tensor::from_vec(
            vec![oc, geom.patch_len()],
            fixture(0x5045_5246, oc * geom.patch_len()),
        )
        .expect("length is the shape's product");
        let conv = Conv2d::from_parts(geom, oc, weight, fixture(0x0b1a_5000, oc));
        let layer = Layer::Conv2d(conv.clone());
        for (rate, hashes) in RATES.iter().zip(hashes) {
            let perf = LayerPerforation::new(geom.out_h, geom.out_w, *rate, 1);
            for (&batch, want) in BATCHES.iter().zip(hashes) {
                let macs = batch * oc * perf.kept_positions().len() * geom.patch_len();
                if cfg!(debug_assertions) && macs > DEBUG_MAC_LIMIT {
                    continue;
                }
                let input = Tensor::from_vec(
                    vec![batch, ic, side, side],
                    fixture(0x1d3a_7e57, batch * ic * side * side),
                )
                .expect("length is the shape's product");
                for threads in [1usize, 2, 3, 8] {
                    let got = pcnn_parallel::with_threads(threads, || {
                        let len = layer.scratch_len(batch, Some(&perf), ConvAlgo::Direct, threads);
                        let out = poisoned(len, || conv.forward_perforated(&input, &perf))
                            .expect("shapes match");
                        fnv1a(out.data())
                    });
                    assert_eq!(
                        got, want,
                        "{ic}x{side}x{side} k{kernel} s{stride} p{pad} -> {oc} at rate {rate}, \
                         batch {batch}, {threads} thread(s): hash {got:#018x}, pinned {want:#018x}"
                    );
                }
            }
        }
    }
}
