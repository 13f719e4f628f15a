//! "The bits did not move": pinned hashes of the packed GEMM's output.
//!
//! The register tile (`MR x NR`), the `A`-packing group (`MC`), the
//! vector width and the thread count are all free to change, because
//! none of them touches any element's sequence of IEEE operations —
//! ascending `k` inside a `KC` block from a zero start, blocks added to
//! `C` in ascending order. This test holds that contract to the bit on
//! the shapes that dominate the engine: the hashes below were recorded
//! on the commit *before* the 6x16 explicit-intrinsics microkernel
//! replaced the autovectorised 4x8 one and are asserted unchanged, which
//! is why no golden, `results/*.txt` or `BENCH_serve`/`BENCH_fleet`
//! document needed re-pinning. A hash that moves means the rounding
//! contract in DESIGN.md ("GEMM rounding contract") was broken — an FMA
//! crept in, `KC` changed, or a reduction was reassociated.

mod common;

use common::{fixture, fnv1a};
use pcnn_tensor::gemm;

/// `(m, n, k, hash of C)`: the five AlexNet convolution GEMMs and two
/// Winograd per-coordinate GEMMs (VGG conv3-class and conv5-class).
const PINNED: &[(usize, usize, usize, u64)] = &[
    (96, 3025, 363, 0x700d_c516_ffda_63c4),
    (256, 729, 2400, 0x509b_45aa_5d7f_3f3e),
    (384, 169, 2304, 0x2334_195f_0209_86ce),
    (384, 169, 3456, 0x7c91_a70c_6bf0_681e),
    (256, 169, 3456, 0xf9ac_9b40_0246_7500),
    (256, 784, 256, 0x5e78_f456_8e3e_d937),
    (512, 49, 512, 0x93d0_6ab0_010b_2b86),
];

#[test]
fn gemm_output_bits_are_pinned_across_tile_and_thread_changes() {
    for &(m, n, k, want) in PINNED {
        let a = fixture(0x5047_454d, m * k);
        let b = fixture(0x0b17_5eed, k * n);
        for threads in [1usize, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                let mut c = vec![0.0f32; m * n];
                gemm(m, n, k, &a, &b, &mut c);
                fnv1a(&c)
            });
            assert_eq!(
                got, want,
                "gemm {m}x{n}x{k} at {threads} thread(s): hash {got:#018x}, pinned {want:#018x}"
            );
        }
    }
}
