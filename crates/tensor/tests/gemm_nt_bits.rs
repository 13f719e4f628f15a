//! "The bits did not move": pinned hashes of `gemm_nt`'s output.
//!
//! `gemm_nt`'s rounding contract is one `dot_lanes` per output: eight
//! source-fixed lanes, each an ascending-`k` chain of one IEEE multiply
//! and one IEEE add, combined by a fixed tree and added to `C` once
//! (DESIGN.md, "`gemm_nt` rounding contract"). How many outputs are
//! computed side by side, which operand is walked outermost and how the
//! call is split across workers are free to change. The hashes below
//! were recorded on the commit *before* the register-tiled,
//! weight-row-outermost kernel replaced the per-output dot loop and are
//! asserted unchanged at every thread count — a hash that moves means a
//! lane was reassociated, an FMA crept in, or the tail/tree order
//! changed.

mod common;

use common::{fixture, fnv1a};
use pcnn_tensor::gemm_nt;

/// `(m, n, k, hash of C)` from a zero `C`: the three AlexNet FC layers
/// at batch 1 / 4 / 8, VGG-16's 25088 -> 1000 head, and two
/// training-shaped `dW = dOut * cols^T` products (`m` = out-channels;
/// the second has more rows in `A` than in `B`).
const PINNED: &[(usize, usize, usize, u64)] = &[
    (1, 4096, 9216, 0xa98a_c48b_74db_1b98),
    (4, 4096, 9216, 0xdce7_4e38_e9dd_b52f),
    (8, 4096, 9216, 0xba0f_2aa8_140d_2c47),
    (1, 4096, 4096, 0x2e84_5207_c959_2e36),
    (4, 4096, 4096, 0xe79c_eb78_c6fb_8deb),
    (8, 4096, 4096, 0x0ad0_2b9d_b019_2ead),
    (1, 1000, 4096, 0xfca1_90e4_9127_ef33),
    (4, 1000, 4096, 0x4181_8b7d_9fcc_6ec5),
    (8, 1000, 4096, 0x0f97_8f3e_a6ae_f908),
    (1, 1000, 25088, 0x23c1_6344_82bb_7810),
    (96, 363, 3025, 0x9dbe_12ef_f1d3_1ae4),
    (48, 25, 784, 0xffac_9f3c_f3c1_b225),
];

/// Ragged cases accumulated into a non-zero `C`: every row-group
/// remainder (`m` in 2, 3, 5), `n` off every tile width, `k` off the
/// eight-lane chunk; the last stays below the parallel threshold.
const PINNED_RAGGED: &[(usize, usize, usize, u64)] = &[
    (2, 1001, 4099, 0x50b1_aed2_1e01_e455),
    (3, 37, 2503, 0x1922_fec1_370f_c747),
    (5, 131, 777, 0x01c4_0d96_6eae_1fa1),
    (7, 6, 9001, 0x946c_04f2_043b_b56d),
    (3, 7, 13, 0x4d63_3f47_4535_5e58),
];

fn assert_pinned(cases: &[(usize, usize, usize, u64)], c_seed: Option<u32>) {
    // Operands are index-hashed, so the `m = 1` rows are a prefix of the
    // `m = 8` ones and one `B` serves every batch size of a layer.
    let mut b: Vec<f32> = Vec::new();
    let mut b_shape = (0, 0);
    for &(m, n, k, want) in cases {
        if b_shape != (n, k) {
            b = fixture(0x0b17_5eed, n * k);
            b_shape = (n, k);
        }
        let a = fixture(0x5047_454d, m * k);
        let c0 = match c_seed {
            Some(seed) => fixture(seed, m * n),
            None => vec![0.0f32; m * n],
        };
        for threads in [1usize, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                let mut c = c0.clone();
                gemm_nt(m, n, k, &a, &b, &mut c);
                fnv1a(&c)
            });
            assert_eq!(
                got, want,
                "gemm_nt {m}x{n}x{k} at {threads} thread(s): hash {got:#018x}, pinned {want:#018x}"
            );
        }
    }
}

#[test]
fn gemm_nt_output_bits_are_pinned_on_fc_and_training_shapes() {
    assert_pinned(PINNED, None);
}

#[test]
fn gemm_nt_output_bits_are_pinned_on_ragged_shapes_into_nonzero_c() {
    assert_pinned(PINNED_RAGGED, Some(0x00c0_ffee));
}
