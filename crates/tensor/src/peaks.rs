//! The machine's two roofs, measured once for every reader: `pcnn
//! profile`'s roofline, `bench-gemm`'s FC table, the conv tuner's cost model.

use std::time::Instant;

/// Machine peaks from the calibration probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachinePeaks {
    /// Peak compute, GFLOP/s (packed SGEMM probe).
    pub gflops: f64,
    /// Peak bandwidth, GB/s (buffer copy probe).
    pub gbs: f64,
}

impl MachinePeaks {
    /// The roofline balance point, FLOP/B: layers whose arithmetic
    /// intensity exceeds it are compute-bound.
    pub fn balance(&self) -> f64 {
        self.gflops / self.gbs
    }
}

/// Measures machine peaks at the current pool width, each the best of
/// `reps` runs (at least one; 3 take about 4 ms): the packed SGEMM where
/// it is fastest for the FLOP roof, a buffer copy for the bandwidth roof.
///
/// The FLOP probe is a roof, so it must flatter the kernel: one full pack
/// block deep (`k = 256`, the GEMM's `KC`), `m = 288 = lcm(6, 16, 96)` and
/// `n = 128` whole multiples of every tier's register tile and of the
/// 96-row packing group, so no tier runs a ragged edge, and ~570 KiB of
/// operands, L2-resident, packing amortised over 288 rows and 128 columns.
/// The copy moves 2 MiB into 2 MiB — a 4 MiB working set, past one core's
/// L2. The operands are plain buffers, dropped on return; the GEMM's own
/// packing scratch is the calling thread's workspace, like any `gemm`
/// call's. Run this *before* enabling the profiler, or the probe GEMM
/// lands on its unattributed row.
pub fn calibrate(reps: usize) -> MachinePeaks {
    let (m, n, k) = (288, 128, 256);
    let (a, b, mut c) = (vec![1.0; m * k], vec![0.5; k * n], vec![0.0; m * n]);
    let gemm_secs = best_of(reps, || {
        crate::gemm(m, n, k, &a, &b, &mut c);
        std::hint::black_box(&c);
    });
    drop((a, b, c));
    let (src, mut dst) = (vec![1.0f32; 1 << 19], vec![0.0f32; 1 << 19]);
    let secs = best_of(reps, || {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    });
    MachinePeaks {
        gflops: 2.0 * (m * n * k) as f64 / gemm_secs / 1e9,
        gbs: (2 * 4 * src.len()) as f64 / secs / 1e9,
    }
}

/// Best wall seconds of `reps` runs (at least one).
fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
