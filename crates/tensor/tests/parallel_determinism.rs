//! Bitwise determinism of the parallel tensor kernels across thread
//! counts.
//!
//! `pcnn_parallel::with_threads` installs a thread-local override, so a
//! 1-thread and an 8-thread run of the same computation can be compared
//! in-process. The split dimensions (row panels of `C`, rows of the
//! im2col matrix) never change any element's accumulation order, so the
//! outputs must be **bitwise** equal — `assert_eq!` on the raw `f32`
//! buffers, no tolerance.

use pcnn_tensor::{gemm, gemm_naive, gemm_nt, gemm_tn, im2col, Conv2dGeometry};
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

fn gemm_at(threads: usize, m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    pcnn_parallel::with_threads(threads, || {
        let mut c = vec![0.0; m * n];
        gemm(m, n, k, a, b, &mut c);
        c
    })
}

/// Shapes that straddle every blocking boundary of the packed GEMM:
/// the 6-row and 16-row (`MR`, by ISA tier) and 16-column (`NR`)
/// microkernel tile, the 96-row `A`-packing group (`MC`, and the 72 rows
/// it was before the 16-row tile) and the 256-deep pack block (`KC`) —
/// each at the boundary, one below and one above — plus two-panel column
/// edges (31, 33) and shapes large enough to cross the serial/parallel
/// work threshold.
const ODD_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (5, 15, 5),
    (6, 16, 16),
    (7, 17, 17),
    (15, 33, 300),
    (16, 32, 256),
    (17, 31, 257),
    (71, 31, 255),
    (72, 16, 256),
    (73, 33, 257),
    (95, 47, 255),
    (96, 48, 256),
    (97, 130, 300),
    (130, 17, 513),
];

/// Thread counts the determinism suite sweeps: serial, even and odd
/// partitions, and a pool wider than most of the shapes' row-tile grids
/// (forcing the 2-D partitioner onto the column axis).
const THREAD_SWEEP: &[usize] = &[1, 2, 3, 4, 8];

#[test]
fn gemm_bitwise_equal_across_thread_counts_on_blocking_boundaries() {
    for &(m, n, k) in ODD_SHAPES {
        let a = pseudo(2017, m * k);
        let b = pseudo(4034, k * n);
        let c1 = gemm_at(1, m, n, k, &a, &b);
        for &t in &THREAD_SWEEP[1..] {
            let ct = gemm_at(t, m, n, k, &a, &b);
            assert_eq!(c1, ct, "gemm {m}x{n}x{k} differs between 1 and {t} threads");
        }
    }
}

#[test]
fn gemm_nt_and_tn_bitwise_equal_across_thread_counts() {
    // Shapes big enough (> 64^3 multiply-adds) that the 8-thread run
    // really splits; B is n x k for NT, A is k x m for TN.
    let (m, n, k) = (80, 70, 65);
    let a = pseudo(7, m * k);
    let bt = pseudo(11, n * k);
    let run_nt = |threads| {
        pcnn_parallel::with_threads(threads, || {
            let mut c = vec![0.0; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c);
            c
        })
    };
    let nt1 = run_nt(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(nt1, run_nt(t), "gemm_nt differs between 1 and {t} threads");
    }

    let at = pseudo(13, k * m);
    let b = pseudo(17, k * n);
    let run_tn = |threads| {
        pcnn_parallel::with_threads(threads, || {
            let mut c = vec![0.0; m * n];
            gemm_tn(m, n, k, &at, &b, &mut c);
            c
        })
    };
    let tn1 = run_tn(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(tn1, run_tn(t), "gemm_tn differs between 1 and {t} threads");
    }
}

#[test]
fn im2col_bitwise_equal_across_thread_counts() {
    // 8 channels x 3x3 kernel over 32x32 -> 72 rows x 900 positions =
    // 64800 elements, above the kernel's serial cutoff.
    let geom = Conv2dGeometry::new(8, 32, 32, 3, 1, 1);
    let input = pseudo(23, 8 * 32 * 32);
    let run = |threads: usize| {
        pcnn_parallel::with_threads(threads, || {
            let mut cols = vec![0.0; geom.patch_len() * geom.out_positions()];
            im2col(&geom, &input, &mut cols);
            cols
        })
    };
    assert_eq!(run(1), run(8), "im2col differs across thread counts");
}

proptest! {
    /// Any shape — especially ragged ones around pack/panel boundaries —
    /// yields bitwise-identical gemm output at every thread count in
    /// {1, 2, 3, 4, 8}, and stays numerically close to the serial
    /// triple-loop oracle. Ragged (non-multiple-of-MR/NR/KC/MC) shapes
    /// dominate this range, exercising every partitioner edge.
    #[test]
    fn gemm_threads_agree_on_random_shapes(
        m in 1usize..100,
        n in 1usize..80,
        k in 1usize..140,
        seed in any::<u64>(),
    ) {
        let a = pseudo(seed, m * k);
        let b = pseudo(seed ^ 0xABCD, k * n);
        let c1 = gemm_at(1, m, n, k, &a, &b);
        for &t in &THREAD_SWEEP[1..] {
            let ct = gemm_at(t, m, n, k, &a, &b);
            prop_assert_eq!(&c1, &ct, "threads={}", t);
        }
        let mut oracle = vec![0.0; m * n];
        gemm_naive(m, n, k, &a, &b, &mut oracle);
        for (x, y) in c1.iter().zip(&oracle) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }
}
