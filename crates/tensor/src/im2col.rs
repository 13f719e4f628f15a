//! The im2col lowering of a convolution to a matrix multiplication.
//!
//! Paper §II.A / Fig. 2: im2col stretches the local input regions into a
//! column-major data matrix `D_m` of shape `(S_f^2 * N_c) x (W_o * H_o)`, so
//! the convolution becomes the SGEMM `F_m x D_m`.

/// Static geometry of a 2-D convolution over one input image.
///
/// # Example
///
/// ```
/// use pcnn_tensor::Conv2dGeometry;
///
/// // AlexNet CONV1: 227x227x3 input, 11x11 filters, stride 4, no padding.
/// let g = Conv2dGeometry::new(3, 227, 227, 11, 4, 0);
/// assert_eq!((g.out_h, g.out_w), (55, 55));
/// assert_eq!(g.patch_len(), 11 * 11 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels (`N_c`).
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square filter side (`S_f`).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
    /// Output height (`H_o`), derived.
    pub out_h: usize,
    /// Output width (`W_o`), derived.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Derives the full geometry from the independent parameters.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or the filter does not fit in the padded
    /// input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        let out_h = conv_output_dim(in_h, kernel, stride, pad);
        let out_w = conv_output_dim(in_w, kernel, stride, pad);
        Self {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            pad,
            out_h,
            out_w,
        }
    }

    /// Number of elements in one stretched patch: `S_f^2 * N_c`
    /// (the K dimension of the convolution GEMM).
    pub fn patch_len(&self) -> usize {
        self.kernel * self.kernel * self.in_channels
    }

    /// Number of output positions `W_o * H_o` (the N dimension of the GEMM).
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Output dimension of a convolution along one axis.
///
/// # Panics
///
/// Panics if the kernel does not fit in the padded input.
pub fn conv_output_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Stretches one CHW image into the column matrix `D_m`.
///
/// `input` has `geom.in_channels * geom.in_h * geom.in_w` elements (CHW).
/// `cols` receives a `patch_len() x out_positions()` row-major matrix:
/// row `r` holds patch element `r` for every output position. Out-of-bounds
/// (padding) reads produce `0.0`.
///
/// Rows of `cols` are filled in parallel for large lowerings; each row is
/// a pure function of `input`, so the output is bitwise identical at any
/// thread count.
///
/// # Panics
///
/// Panics if `input` or `cols` have the wrong length.
pub fn im2col(geom: &Conv2dGeometry, input: &[f32], cols: &mut [f32]) {
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    assert_eq!(input.len(), chw, "input length mismatch");
    let n_pos = geom.out_positions();
    assert_eq!(cols.len(), geom.patch_len() * n_pos, "cols length mismatch");
    if n_pos == 0 {
        return;
    }

    let k = geom.kernel;
    let fill_row = |row: usize, out_row: &mut [f32]| {
        let c = row / (k * k);
        let ky = row / k % k;
        let kx = row % k;
        let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        let mut idx = 0;
        for oy in 0..geom.out_h {
            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
            for ox in 0..geom.out_w {
                let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                out_row[idx] =
                    if iy >= 0 && (iy as usize) < geom.in_h && ix >= 0 && (ix as usize) < geom.in_w
                    {
                        chan[iy as usize * geom.in_w + ix as usize]
                    } else {
                        0.0
                    };
                idx += 1;
            }
        }
    };
    // One task per patch row; tiny lowerings stay on this thread.
    if cols.len() < 1 << 14 {
        for (row, out_row) in cols.chunks_mut(n_pos).enumerate() {
            fill_row(row, out_row);
        }
    } else {
        pcnn_parallel::par_chunks_mut(cols, n_pos, fill_row);
    }
}

/// Like [`im2col`] but stretches only the requested output positions.
///
/// `positions` holds row-major output indices (`oy * out_w + ox`); `cols`
/// receives a `patch_len() x positions.len()` row-major matrix: the data
/// matrix of the paper's perforation (Fig. 11), where the convolution GEMM
/// is evaluated at a sampled subset `W'_o x H'_o` of output positions.
///
/// This is the **reference** lowering, with no production caller: the
/// engine's perforated forward gathers the same elements straight into the
/// GEMM's packed operand ([`crate::conv2d_sampled`]) and is tested bitwise
/// against this function followed by [`crate::gemm`].
///
/// # Panics
///
/// Panics if `input`/`cols` have the wrong length or any position is out of
/// range.
pub fn im2col_positions(
    geom: &Conv2dGeometry,
    input: &[f32],
    positions: &[usize],
    cols: &mut [f32],
) {
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    assert_eq!(input.len(), chw, "input length mismatch");
    let n_pos = positions.len();
    assert_eq!(cols.len(), geom.patch_len() * n_pos, "cols length mismatch");
    let total = geom.out_positions();
    let k = geom.kernel;
    for (col_idx, &pos) in positions.iter().enumerate() {
        assert!(pos < total, "position {pos} out of range ({total})");
        let oy = pos / geom.out_w;
        let ox = pos % geom.out_w;
        for c in 0..geom.in_channels {
            let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
            for ky in 0..k {
                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                for kx in 0..k {
                    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                    let row = (c * k + ky) * k + kx;
                    cols[row * n_pos + col_idx] = if iy >= 0
                        && (iy as usize) < geom.in_h
                        && ix >= 0
                        && (ix as usize) < geom.in_w
                    {
                        chan[iy as usize * geom.in_w + ix as usize]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Scatters a column matrix back into a CHW image, accumulating overlaps.
/// This is the adjoint of [`im2col`], used by the convolution backward pass.
///
/// # Panics
///
/// Panics if `cols` or `output` have the wrong length.
pub fn col2im_accumulate(geom: &Conv2dGeometry, cols: &[f32], output: &mut [f32]) {
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    assert_eq!(output.len(), chw, "output length mismatch");
    let n_pos = geom.out_positions();
    assert_eq!(cols.len(), geom.patch_len() * n_pos, "cols length mismatch");

    let k = geom.kernel;
    for c in 0..geom.in_channels {
        let chan = &mut output[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let in_row = &cols[row * n_pos..(row + 1) * n_pos];
                let mut idx = 0;
                for oy in 0..geom.out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..geom.out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if iy >= 0
                            && (iy as usize) < geom.in_h
                            && ix >= 0
                            && (ix as usize) < geom.in_w
                        {
                            chan[iy as usize * geom.in_w + ix as usize] += in_row[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dim_basic() {
        assert_eq!(conv_output_dim(227, 11, 4, 0), 55); // AlexNet CONV1
        assert_eq!(conv_output_dim(27, 5, 1, 2), 27); // AlexNet CONV2
        assert_eq!(conv_output_dim(13, 3, 1, 1), 13); // AlexNet CONV3-5
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn output_dim_rejects_oversize_kernel() {
        conv_output_dim(2, 5, 1, 0);
    }

    #[test]
    fn geometry_patch_and_positions() {
        let g = Conv2dGeometry::new(48, 27, 27, 5, 1, 2);
        assert_eq!(g.patch_len(), 5 * 5 * 48);
        assert_eq!(g.out_positions(), 27 * 27);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: D_m is the image itself, one row.
        let g = Conv2dGeometry::new(1, 2, 3, 1, 1, 0);
        let input = [1., 2., 3., 4., 5., 6.];
        let mut cols = vec![0.0; g.patch_len() * g.out_positions()];
        im2col(&g, &input, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_3x3_no_pad() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let mut cols = vec![0.0; g.patch_len() * g.out_positions()];
        im2col(&g, &input, &mut cols);
        // 4 patches: [1,2,4,5],[2,3,5,6],[4,5,7,8],[5,6,8,9] laid out as rows
        // of patch-elements.
        assert_eq!(
            cols,
            vec![
                1., 2., 4., 5., // patch element (0,0)
                2., 3., 5., 6., // (0,1)
                4., 5., 7., 8., // (1,0)
                5., 6., 8., 9., // (1,1)
            ]
        );
    }

    #[test]
    fn im2col_pads_with_zero() {
        let g = Conv2dGeometry::new(1, 1, 1, 3, 1, 1);
        let input = [7.0];
        let mut cols = vec![1.0; 9];
        im2col(&g, &input, &mut cols);
        // Only the center of the 3x3 patch hits the real pixel.
        let mut expected = vec![0.0; 9];
        expected[4] = 7.0;
        assert_eq!(cols, expected);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_patches() {
        // stride == kernel -> patches don't overlap, col2im(im2col(x)) == x.
        let g = Conv2dGeometry::new(2, 4, 4, 2, 2, 0);
        let input: Vec<f32> = (0..32).map(|x| x as f32).collect();
        let mut cols = vec![0.0; g.patch_len() * g.out_positions()];
        im2col(&g, &input, &mut cols);
        let mut back = vec![0.0; input.len()];
        col2im_accumulate(&g, &cols, &mut back);
        assert_eq!(back, input);
    }

    #[test]
    fn im2col_positions_matches_full_subset() {
        let g = Conv2dGeometry::new(2, 5, 5, 3, 1, 1);
        let input: Vec<f32> = (0..50).map(|x| (x as f32).sin()).collect();
        let mut full = vec![0.0; g.patch_len() * g.out_positions()];
        im2col(&g, &input, &mut full);
        let positions = [0usize, 7, 12, 24];
        let mut sub = vec![0.0; g.patch_len() * positions.len()];
        im2col_positions(&g, &input, &positions, &mut sub);
        for r in 0..g.patch_len() {
            for (ci, &p) in positions.iter().enumerate() {
                assert_eq!(
                    sub[r * positions.len() + ci],
                    full[r * g.out_positions() + p]
                );
            }
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 2x2 kernel stride 1 on 3x3: center pixel appears in all 4 patches.
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let cols = vec![1.0; g.patch_len() * g.out_positions()];
        let mut out = vec![0.0; 9];
        col2im_accumulate(&g, &cols, &mut out);
        assert_eq!(out[4], 4.0); // center counted 4 times
        assert_eq!(out[0], 1.0); // corner counted once
    }
}
