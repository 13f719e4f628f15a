//! Alternative convolution algorithms: direct (fused-pack) and Winograd
//! F(2x2,3x3), selectable per layer by the offline autotuner.
//!
//! The baseline path lowers every convolution with [`crate::im2col`] and
//! multiplies with the packed [`crate::gemm`]. That is the right call for
//! large-spatial layers, but the lowering materialises a
//! `patch_len x out_positions` matrix that the GEMM immediately re-reads
//! and re-packs — pure overhead for small-spatial/large-channel layers
//! (cuConv's observation). This module adds the two shape-dependent
//! alternatives the per-layer tuner chooses between:
//!
//! - [`conv2d_direct`]: streams input patches straight into the packed
//!   GEMM's `B` micropanel image — the padding-aware gather of `im2col`
//!   fused with the GEMM's `B` packing, skipping the materialised column
//!   matrix entirely. The packed bytes are identical to what
//!   [`crate::gemm`] packs from `im2col(input)`, and the compute tail is
//!   the *same* partition + loop nest as [`crate::gemm`], so outputs are
//!   **bitwise equal** to the im2col path at every thread count.
//! - [`conv2d_winograd`]: the F(2x2,3x3) minimal-filtering transform for
//!   stride-1 3x3 layers, cutting microkernel multiplies per output from
//!   9 to 16/4 = 4 (2.25x). Transform matrices use only `{0, ±1, ±0.5}`
//!   coefficients, all exact in f32. The accumulation *order* differs
//!   from im2col, so outputs are not bitwise-equal to the reference —
//!   they carry a small rounding difference bounded by
//!   [`winograd_error_bound`] — but they are bitwise **deterministic**:
//!   the transforms are serial pure element maps and the 16 per-coordinate
//!   multiplies go through the deterministic [`crate::gemm`], so every
//!   thread count produces the identical bits.
//!
//! # Profiling
//!
//! Direct's fused pack reports as [`Phase::PackB`] (it *is* the B pack);
//! Winograd's filter/input transforms report as
//! [`Phase::WinogradTransform`] and its inverse transform + bias as
//! [`Phase::WinogradInverse`], so `pcnn profile` attributes the new
//! phases per layer.

use crate::gemm::{active_partition, gemm, gemm_packed, pack_b_with, packed_b_len};
use crate::im2col::Conv2dGeometry;
use pcnn_profile::{phase_span, Phase};

/// A convolution algorithm the tuner can select for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// Materialised im2col lowering + packed GEMM (the baseline).
    Im2col,
    /// Fused patch-gather into the packed GEMM (no column matrix).
    Direct,
    /// Winograd F(2x2,3x3) minimal filtering (stride-1 3x3 only).
    Winograd,
}

impl ConvAlgo {
    /// Every algorithm, in tuner candidate order.
    pub const ALL: [ConvAlgo; 3] = [ConvAlgo::Im2col, ConvAlgo::Direct, ConvAlgo::Winograd];

    /// Stable lowercase name used in plans, reports and benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            ConvAlgo::Im2col => "im2col",
            ConvAlgo::Direct => "direct",
            ConvAlgo::Winograd => "winograd",
        }
    }

    /// Parses a [`name`](Self::name) back into the algorithm.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Whether this algorithm can execute the given layer shape exactly.
    /// Im2col and direct handle every geometry; Winograd F(2x2,3x3) is
    /// specialised to stride-1 3x3 filters.
    pub fn supports(self, geom: &Conv2dGeometry) -> bool {
        match self {
            ConvAlgo::Im2col | ConvAlgo::Direct => true,
            ConvAlgo::Winograd => geom.kernel == 3 && geom.stride == 1,
        }
    }
}

impl std::fmt::Display for ConvAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Direct convolution of one CHW image: `out = weight * patches + bias`.
///
/// `weight` is the `[out_channels, patch_len]` filter matrix, `out` the
/// `out_channels * out_positions` output map (fully overwritten). The
/// input patches are gathered straight into the packed GEMM's `B`
/// micropanel image — element order per patch row matches
/// [`crate::im2col`] exactly and the ragged panel edges are zero-filled
/// by the same packing walk [`crate::gemm`] uses — so the result is
/// bitwise identical to the im2col reference while skipping the
/// materialised column matrix (one full write + read of
/// `patch_len x out_positions` floats).
///
/// # Panics
///
/// Panics if any slice is shorter than the geometry implies.
pub fn conv2d_direct(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    let (m, n, k) = (out_channels, geom.out_positions(), geom.patch_len());
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    assert!(input.len() >= chw, "input too short");
    assert!(weight.len() >= m * k, "weight too short");
    assert!(bias.len() >= m, "bias too short");
    assert!(out.len() >= m * n, "out too short");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let part = active_partition(m, n, k);
    let span = phase_span(Phase::PackB);
    let mut b_pack = pcnn_parallel::scratch_f32(packed_b_len(n, k));
    pcnn_parallel::with_region_label("conv.direct.pack", || {
        pack_patches(geom, input, &mut b_pack, part.tasks() > 1);
    });
    if let Some(s) = span {
        // One image read, the packed image written (no column matrix).
        s.finish(0, 4 * (chw + packed_b_len(n, k)) as u64);
    }

    let span = phase_span(Phase::Epilogue);
    for (i, row) in out[..m * n].chunks_mut(n).enumerate() {
        row.fill(bias[i]);
    }
    if let Some(s) = span {
        s.finish(0, 4 * (m * n) as u64);
    }
    gemm_packed(m, n, k, weight, &b_pack, part, out);
}

/// Gathers input patches directly into the packed GEMM's `B` image:
/// `B[r][pos]` is the im2col element — patch row `r` decomposes as
/// `c = r / k^2, ky = r / k % k, kx = r % k` and column `pos` as
/// `(oy, ox)` — but each value lands at its packed address without ever
/// existing in row-major form. The layout walk (blocks, panels, zero-fill
/// of ragged panel edges, parallel split) is [`pack_b_with`]'s, shared
/// with [`gemm`], so the image is byte-for-byte the one
/// `gemm(.., im2col(geom, input), ..)` packs.
fn pack_patches(geom: &Conv2dGeometry, input: &[f32], packed: &mut [f32], parallel: bool) {
    let (n, k) = (geom.out_positions(), geom.patch_len());
    let kern = geom.kernel;
    pack_b_with(n, k, packed, parallel, |r, j0, dst| {
        let c = r / (kern * kern);
        let ky = r / kern % kern;
        let kx = r % kern;
        let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for (j, d) in dst.iter_mut().enumerate() {
            let pos = j0 + j;
            let (oy, ox) = (pos / geom.out_w, pos % geom.out_w);
            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
            *d = if iy >= 0 && (iy as usize) < geom.in_h && ix >= 0 && (ix as usize) < geom.in_w {
                chan[iy as usize * geom.in_w + ix as usize]
            } else {
                0.0
            };
        }
    });
}

/// Winograd F(2x2,3x3) convolution of one CHW image (stride-1 3x3 only):
/// `out = weight (*) input + bias`, fully overwriting `out`.
///
/// Each 2x2 output tile is produced from a 4x4 input tile via the
/// classic minimal-filtering factorisation `Y = A^T [ (G g G^T) .*
/// (B^T d B) ] A`, with the element-wise products batched over channels
/// into 16 `out_channels x in_channels x tiles` GEMMs (one per transform
/// coordinate) through the deterministic packed [`crate::gemm`]. All
/// transform coefficients are `{0, ±1, ±0.5}` — exact in f32 — and the
/// transforms are serial pure element maps, so the output is bitwise
/// deterministic at every thread count. Accumulation order differs from
/// im2col; the numerical difference is bounded by
/// [`winograd_error_bound`].
///
/// # Panics
///
/// Panics if `geom` is not a stride-1 3x3 layer or a slice is shorter
/// than the geometry implies.
pub fn conv2d_winograd(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    assert!(
        ConvAlgo::Winograd.supports(geom),
        "winograd F(2x2,3x3) requires kernel 3, stride 1 (got kernel {}, stride {})",
        geom.kernel,
        geom.stride
    );
    let (oc, ic) = (out_channels, geom.in_channels);
    let n_pos = geom.out_positions();
    let chw = ic * geom.in_h * geom.in_w;
    assert!(input.len() >= chw, "input too short");
    assert!(weight.len() >= oc * geom.patch_len(), "weight too short");
    assert!(bias.len() >= oc, "bias too short");
    assert!(out.len() >= oc * n_pos, "out too short");
    if oc == 0 || ic == 0 || n_pos == 0 {
        return;
    }

    let tiles_y = geom.out_h.div_ceil(2);
    let tiles_x = geom.out_w.div_ceil(2);
    let t = tiles_y * tiles_x;

    // U[xi]: oc x ic filter transform, V[xi]: ic x t input transform,
    // M[xi] = U[xi] * V[xi]: oc x t — 16 coordinates each.
    let mut u = pcnn_parallel::scratch_f32(16 * oc * ic);
    let mut v = pcnn_parallel::scratch_f32(16 * ic * t);
    let mut mbuf = pcnn_parallel::scratch_f32(16 * oc * t);

    // Filter transform: U = G g G^T per (oc, ic) 3x3 filter, where
    // G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]].
    let span = phase_span(Phase::WinogradTransform);
    for o in 0..oc {
        for c in 0..ic {
            let g = &weight[o * geom.patch_len() + c * 9..o * geom.patch_len() + c * 9 + 9];
            // Rows: G applied to the 3 filter rows -> 4 rows of 3.
            let mut gg = [[0.0f32; 3]; 4];
            for j in 0..3 {
                let (g0, g1, g2) = (g[j], g[3 + j], g[6 + j]);
                gg[0][j] = g0;
                gg[1][j] = 0.5 * (g0 + g1 + g2);
                gg[2][j] = 0.5 * (g0 - g1 + g2);
                gg[3][j] = g2;
            }
            // Columns: right-multiply by G^T -> 4x4.
            for (a, row) in gg.iter().enumerate() {
                let (t0, t1, t2) = (row[0], row[1], row[2]);
                let uu = [t0, 0.5 * (t0 + t1 + t2), 0.5 * (t0 - t1 + t2), t2];
                for (b, &val) in uu.iter().enumerate() {
                    u[(a * 4 + b) * oc * ic + o * ic + c] = val;
                }
            }
        }
    }
    // Input transform: V = B^T d B per (ic, tile) 4x4 input patch, where
    // B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]. Tile (ty, tx)
    // reads the patch at (ty*2 - pad, tx*2 - pad), zero outside.
    for c in 0..ic {
        let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ti in 0..t {
            let (ty, tx) = (ti / tiles_x, ti % tiles_x);
            let iy0 = (ty * 2) as isize - geom.pad as isize;
            let ix0 = (tx * 2) as isize - geom.pad as isize;
            let mut d = [[0.0f32; 4]; 4];
            for (dy, drow) in d.iter_mut().enumerate() {
                let iy = iy0 + dy as isize;
                if iy < 0 || iy as usize >= geom.in_h {
                    continue;
                }
                for (dx, dval) in drow.iter_mut().enumerate() {
                    let ix = ix0 + dx as isize;
                    if ix >= 0 && (ix as usize) < geom.in_w {
                        *dval = chan[iy as usize * geom.in_w + ix as usize];
                    }
                }
            }
            // Rows: B^T d -> 4 rows of 4.
            let mut w = [[0.0f32; 4]; 4];
            for j in 0..4 {
                w[0][j] = d[0][j] - d[2][j];
                w[1][j] = d[1][j] + d[2][j];
                w[2][j] = d[2][j] - d[1][j];
                w[3][j] = d[1][j] - d[3][j];
            }
            // Columns: (B^T d) B -> 4x4.
            for (a, row) in w.iter().enumerate() {
                let z = [
                    row[0] - row[2],
                    row[1] + row[2],
                    row[2] - row[1],
                    row[1] - row[3],
                ];
                for (b, &val) in z.iter().enumerate() {
                    v[(a * 4 + b) * ic * t + c * t + ti] = val;
                }
            }
        }
    }
    if let Some(s) = span {
        // Filter + input reads, U + V writes; ~40 adds/muls per 4x4.
        s.finish(
            (40 * oc * ic + 40 * ic * t) as u64,
            4 * (oc * geom.patch_len() + chw + 16 * (oc * ic + ic * t)) as u64,
        );
    }

    // 16 per-coordinate GEMMs: M[xi] = U[xi] * V[xi]. Pooled scratch has
    // unspecified contents and `gemm` accumulates, so zero M first.
    mbuf[..16 * oc * t].fill(0.0);
    for xi in 0..16 {
        gemm(
            oc,
            t,
            ic,
            &u[xi * oc * ic..(xi + 1) * oc * ic],
            &v[xi * ic * t..(xi + 1) * ic * t],
            &mut mbuf[xi * oc * t..(xi + 1) * oc * t],
        );
    }

    // Inverse transform: Y = A^T M A + bias per (oc, tile), clipping the
    // ragged right/bottom edge, where A^T = [[1,1,1,0],[0,1,-1,-1]].
    let span = phase_span(Phase::WinogradInverse);
    for o in 0..oc {
        let out_o = &mut out[o * n_pos..(o + 1) * n_pos];
        for ti in 0..t {
            let (ty, tx) = (ti / tiles_x, ti % tiles_x);
            let m_at = |xi: usize| mbuf[xi * oc * t + o * t + ti];
            // Rows: A^T M -> 2 rows of 4.
            let s: [[f32; 4]; 2] = [
                std::array::from_fn(|j| m_at(j) + m_at(4 + j) + m_at(8 + j)),
                std::array::from_fn(|j| m_at(4 + j) - m_at(8 + j) - m_at(12 + j)),
            ];
            // Columns: (A^T M) A -> 2x2, plus bias.
            for (dy, srow) in s.iter().enumerate() {
                let oy = ty * 2 + dy;
                if oy >= geom.out_h {
                    break;
                }
                let y = [
                    srow[0] + srow[1] + srow[2] + bias[o],
                    srow[1] - srow[2] - srow[3] + bias[o],
                ];
                for (dx, &val) in y.iter().enumerate() {
                    let ox = tx * 2 + dx;
                    if ox < geom.out_w {
                        out_o[oy * geom.out_w + ox] = val;
                    }
                }
            }
        }
    }
    if let Some(s) = span {
        s.finish((16 * oc * t) as u64, 4 * (16 * oc * t + oc * n_pos) as u64);
    }
}

/// Absolute error bound of [`conv2d_winograd`] vs the im2col reference,
/// per output element, for this layer's actual operands.
///
/// The F(2x2,3x3) transforms amplify magnitudes by at most 4 (`B^T d B`)
/// and 2.25 (`G g G^T`), each product chain then runs ~`patch_len`
/// accumulation steps plus the fixed-depth inverse, and every f32 step
/// contributes at most one half-ulp of the running magnitude. Folding
/// the amplification factors and the inverse-transform depth into one
/// safety constant gives
///
/// ```text
/// |winograd - im2col| <= 64 * patch_len * max|W| * max|X| * eps_f32
/// ```
///
/// which the property tests in `tests/conv_algorithms.rs` assert on
/// random operands (in practice the observed error is ~100x smaller).
pub fn winograd_error_bound(geom: &Conv2dGeometry, weight: &[f32], input: &[f32]) -> f32 {
    let max_abs = |xs: &[f32]| xs.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    64.0 * geom.patch_len() as f32 * max_abs(weight) * max_abs(input) * f32::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm_bias, im2col};

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

    fn fixture(geom: &Conv2dGeometry, oc: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let weight: Vec<f32> = (0..oc * geom.patch_len())
            .map(|i| ((i * 31 % 23) as f32 - 11.0) / 16.0)
            .collect();
        let bias: Vec<f32> = (0..oc).map(|i| i as f32 / 8.0 - 0.25).collect();
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i * 17 % 29) as f32 - 14.0) / 8.0)
            .collect();
        (weight, bias, input)
    }

    #[test]
    fn direct_matches_im2col_bitwise_on_alexnet_conv1_shape() {
        // Strided, unpadded, multi-channel: 11x11 stride 4 on 3x31x31.
        let geom = Conv2dGeometry::new(3, 31, 31, 11, 4, 0);
        let oc = 8;
        let (w, b, x) = fixture(&geom, oc);
        let want = reference(&geom, oc, &w, &b, &x);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_direct(&geom, oc, &w, &b, &x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn winograd_within_documented_bound_on_3x3_layer() {
        let geom = Conv2dGeometry::new(4, 13, 13, 3, 1, 1);
        let oc = 6;
        let (w, b, x) = fixture(&geom, oc);
        let want = reference(&geom, oc, &w, &b, &x);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_winograd(&geom, oc, &w, &b, &x, &mut got);
        let bound = winograd_error_bound(&geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - r).abs() <= bound,
                "element {i}: {g} vs {r} (bound {bound})"
            );
        }
    }

    #[test]
    fn winograd_exact_on_small_integers() {
        // Integer-valued operands keep every transform step exact (all
        // coefficients are 0/±1/±0.5 and 0.5 * even integers are exact),
        // so Winograd must agree with the reference to the bit.
        let geom = Conv2dGeometry::new(2, 8, 9, 3, 1, 1);
        let oc = 3;
        let weight: Vec<f32> = (0..oc * geom.patch_len())
            .map(|i| ((i % 5) as f32 - 2.0) * 2.0)
            .collect();
        let bias = vec![1.0, -2.0, 3.0];
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i % 7) as f32 - 3.0) * 2.0)
            .collect();
        let want = reference(&geom, oc, &weight, &bias, &input);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn winograd_rejects_unsupported_geometry() {
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 2, 1)));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 5, 1, 2)));
        assert!(ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 1, 0)));
    }

    #[test]
    #[should_panic(expected = "winograd F(2x2,3x3) requires")]
    fn winograd_panics_on_stride_2() {
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 2, 1);
        let mut out = vec![0.0; geom.out_positions()];
        conv2d_winograd(&geom, 1, &[0.0; 9], &[0.0], &[0.0; 64], &mut out);
    }

    #[test]
    fn algo_names_round_trip() {
        for a in ConvAlgo::ALL {
            assert_eq!(ConvAlgo::parse(a.name()), Some(a));
            assert_eq!(format!("{a}"), a.name());
        }
        assert_eq!(ConvAlgo::parse("fft"), None);
    }
}
