//! Naive CNN layers on plain slices: the reference the engine's outputs
//! are checked against. Shares no code with the measured crates and
//! accumulates in `f64`.

/// A square-kernel convolution over one CHW image.
#[derive(Debug, Clone, Copy)]
pub struct ConvDims {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    pub out_c: usize,
    pub out_h: usize,
    pub out_w: usize,
}

/// `out[oc][oy][ox] = bias[oc] + sum w[oc][c][ky][kx] * in[c][oy*s+ky-p][ox*s+kx-p]`,
/// with `weight` laid out `[out_c][in_c][kernel][kernel]` and zero padding.
pub fn conv(d: &ConvDims, weight: &[f32], bias: &[f32], input: &[f32]) -> Vec<f32> {
    let n_pos = d.out_h * d.out_w;
    let mut acc = vec![0f64; d.out_c * n_pos];
    for oc in 0..d.out_c {
        let out = &mut acc[oc * n_pos..(oc + 1) * n_pos];
        out.fill(f64::from(bias[oc]));
        for c in 0..d.in_c {
            let chan = &input[c * d.in_h * d.in_w..(c + 1) * d.in_h * d.in_w];
            for ky in 0..d.kernel {
                for kx in 0..d.kernel {
                    let w = f64::from(weight[((oc * d.in_c + c) * d.kernel + ky) * d.kernel + kx]);
                    let (ys, xs) = (taps(d.out_h, d.in_h, ky, d), taps(d.out_w, d.in_w, kx, d));
                    for oy in ys {
                        let row = &chan[(oy * d.stride + ky - d.pad) * d.in_w..][..d.in_w];
                        for ox in xs.clone() {
                            out[oy * d.out_w + ox] +=
                                w * f64::from(row[ox * d.stride + kx - d.pad]);
                        }
                    }
                }
            }
        }
    }
    acc.into_iter().map(|v| v as f32).collect()
}

/// The output coordinates along one axis whose kernel tap `k` reads inside
/// the input rather than the padding.
fn taps(out_len: usize, in_len: usize, k: usize, d: &ConvDims) -> std::ops::Range<usize> {
    let lo = d.pad.saturating_sub(k).div_ceil(d.stride);
    let hi = match (in_len + d.pad).checked_sub(k + 1) {
        Some(last) => (last / d.stride + 1).min(out_len),
        None => 0,
    };
    lo..hi.max(lo)
}

pub fn relu(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// Max pooling without padding over a `[c][h][w]` image; returns the
/// pooled image and its side lengths.
pub fn maxpool(
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    x: &[f32],
) -> (Vec<f32>, usize, usize) {
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        best = best.max(x[(ch * h + oy * stride + ky) * w + ox * stride + kx]);
                    }
                }
                out.push(best);
            }
        }
    }
    (out, oh, ow)
}

/// `out[o] = bias[o] + sum weight[o][i] * x[i]`.
pub fn linear(weight: &[f32], bias: &[f32], x: &[f32]) -> Vec<f32> {
    weight
        .chunks(x.len())
        .zip(bias)
        .map(|(row, &b)| {
            let dot: f64 = row
                .iter()
                .zip(x)
                .map(|(&w, &v)| f64::from(w) * f64::from(v))
                .sum();
            (f64::from(b) + dot) as f32
        })
        .collect()
}

/// Largest `|a - b|` as a share of the largest `|b|`.
pub fn max_rel_diff(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = b.iter().fold(0f64, |m, &v| m.max(f64::from(v).abs()));
    let diff = a.iter().zip(b).fold(0f64, |m, (&x, &y)| {
        m.max((f64::from(x) - f64::from(y)).abs())
    });
    if diff == 0.0 {
        0.0
    } else {
        diff / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_pads_and_strides() {
        // 1 channel 3x3 input, 2x2 kernel of ones, stride 1, pad 1 -> 4x4.
        let d = ConvDims {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            kernel: 2,
            stride: 1,
            pad: 1,
            out_c: 1,
            out_h: 4,
            out_w: 4,
        };
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let y = conv(&d, &[1.0; 4], &[0.5], &x);
        assert_eq!(y[0], 1.5); // only in[0][0] under the window
        assert_eq!(y[5], 0.5 + 1.0 + 2.0 + 4.0 + 5.0);
        assert_eq!(y[15], 9.5);
    }

    #[test]
    fn pool_linear_and_diff() {
        let (p, oh, ow) = maxpool(1, 3, 3, 2, 1, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        assert_eq!((p, oh, ow), (vec![5., 6., 8., 9.], 2, 2));
        assert_eq!(
            linear(&[1., 2., 3., 4.], &[0.5, -0.5], &[1., 1.]),
            vec![3.5, 6.5]
        );
        assert_eq!(max_rel_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(max_rel_diff(&[1.0, 3.0], &[1.0, 4.0]), 0.25);
        assert_eq!(max_rel_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }
}
