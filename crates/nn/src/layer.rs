//! Runnable CNN layers with real forward and backward passes.
//!
//! A full convolution is one [`conv2d`] call through the layer's chosen
//! algorithm; the default, direct, computes the paper's (§II.A, Fig. 2)
//! bit for bit: the filter matrix `F_m` multiplies the data matrix `D_m`
//! of the input's patches with a GEMM — the patches gathered straight
//! into the GEMM's packed operand — and the result is the output feature
//! map.
//! Perforated inference (Fig. 11) evaluates the GEMM only at a sampled
//! subset of output positions — gathered straight into the GEMM's packed
//! operand, one GEMM per group of images — and interpolates the rest.
//! Inference decides each layer's shapes by one rule
//! (`Layer::output_shape`: it checks the input, and the step against the
//! layer) and runs it through one step executor (`Layer::run_step`), which
//! trusts that rule and writes the output into the slice its caller hands
//! it, its kernels' scratch carved from a second one. `Network::run`
//! hands both from the slots its plan lays out in the calling thread's
//! workspace; the public forwards ([`Layer::forward_algo`] and the
//! per-layer ones) a new tensor of the rule's shape and the workspace.
//! Training runs through [`Layer::forward_train`].

use std::borrow::Cow;

use pcnn_parallel::{active_threads, carve, lines, with_workspace};
use pcnn_profile::{phase_span, Phase};
use pcnn_tensor::{
    col2im_accumulate, conv2d_in, conv2d_sampled, conv2d_sampled_scratch_len, conv2d_scratch_len,
    gemm, gemm_nt, gemm_tn, im2col, Conv2dGeometry, ConvAlgo, Tensor, WriteBack,
};
use rand::Rng;

use crate::perforation::LayerPerforation;
use crate::NnError;

/// Per-layer state captured by a training-mode forward pass and consumed by
/// the backward pass.
#[derive(Debug, Clone, Default)]
pub enum LayerCache {
    /// Nothing to remember.
    #[default]
    None,
    /// Max-pool: flat input index of each output element's argmax.
    PoolIndices(Vec<usize>),
    /// Dropout: the seed that generated the keep mask.
    DropoutSeed(u64),
}

/// Parameter gradients of one layer (only conv/linear layers have any).
#[derive(Debug, Clone)]
pub struct ParamGrads {
    /// Gradient of the weight tensor.
    pub d_weight: Tensor,
    /// Gradient of the bias vector.
    pub d_bias: Vec<f32>,
}

/// Budget, in `f32` elements, of the sampled data matrix (`patch_len x
/// images * kept`) one perforated GEMM multiplies: 4 MiB. Within it the
/// images of a group share one packing of the filter matrix; past it the
/// packed `B` of a whole worker group would outgrow the cache it is
/// re-read from and add its size to every worker's resident scratch. It
/// moves time, never bits.
const SAMPLED_GEMM_FLOATS: usize = 1 << 20;

/// Images per perforated GEMM for a layer with `patch_len`-long patches
/// and `n_keep` kept positions: as many as fit [`SAMPLED_GEMM_FLOATS`], at
/// least one — a pure function of the layer shape and the rate.
fn images_per_sampled_gemm(patch_len: usize, n_keep: usize) -> usize {
    (SAMPLED_GEMM_FLOATS / (patch_len * n_keep).max(1)).max(1)
}

/// `context`'s refusal of an input of shape `actual`.
pub(crate) fn refuse(context: &str, expected: String, actual: &[usize]) -> NnError {
    let (context, actual) = (context.into(), actual.to_vec());
    NnError::Shape {
        context,
        expected,
        actual,
    }
}

/// Floats of scratch `step` carves on a conv layer of this geometry and
/// output channel count, for `images` images at pool width `threads`: the
/// conv kernel's, and a perforated layer's sampled block beside the
/// sampled GEMM's (the larger of a whole image group's and the short last
/// group's). 0 for a step that runs no conv kernel.
pub(crate) fn conv_scratch_len(
    step: &Step,
    (geom, oc): (&Conv2dGeometry, usize),
    images: usize,
    threads: usize,
) -> usize {
    match step {
        Step::Conv(algo, _) => conv2d_scratch_len(*algo, geom, oc, threads),
        Step::Sampled(p) => {
            let n_keep = p.kept_positions().len();
            let group = images_per_sampled_gemm(geom.patch_len(), n_keep).min(images.max(1));
            let gather = |images| conv2d_sampled_scratch_len(geom, oc, images, n_keep, threads);
            lines(oc * group * n_keep) + gather(group).max(gather(images % group))
        }
        Step::Fused | Step::Other => 0,
    }
}

/// 2-D convolution: weights `[out_channels, S_f^2 * N_c]`, NCHW activations.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    weight: Tensor,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a conv layer with He-initialised weights.
    pub fn new(geom: Conv2dGeometry, out_channels: usize, rng: &mut impl Rng) -> Self {
        let fan_in = geom.patch_len() as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::from_fn(vec![out_channels, geom.patch_len()], |_| {
            // Box-Muller from two uniforms; cheap and dependency-free.
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        });
        Self {
            geom,
            out_channels,
            weight,
            bias: vec![0.0; out_channels],
        }
    }

    /// Reassembles a conv layer from saved parts.
    ///
    /// # Panics
    ///
    /// Panics if the weight shape does not match the geometry.
    pub fn from_parts(
        geom: Conv2dGeometry,
        out_channels: usize,
        weight: Tensor,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(
            weight.shape(),
            &[out_channels, geom.patch_len()],
            "conv weight shape mismatch"
        );
        assert_eq!(bias.len(), out_channels, "conv bias length mismatch");
        Self {
            geom,
            out_channels,
            weight,
            bias,
        }
    }

    /// The layer geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Whether the output map tiles exactly into 2x2 pooling windows.
    pub(crate) fn even_map(&self) -> bool {
        self.geom.out_h.is_multiple_of(2) && self.geom.out_w.is_multiple_of(2)
    }

    /// The conv arm of [`Layer::output_shape`]: `[N, out_channels, out_h,
    /// out_w]` (each side halved by a pool fused into the write-back) from
    /// `[N, in_channels, in_h, in_w]`, under a step this layer can run: an
    /// algorithm that supports its shape (Winograd to fuse a write-back, an
    /// even map to pool in it), or a perforation of its own output map.
    fn shape_after(&self, input: &[usize], step: &Step) -> Result<Vec<usize>, NnError> {
        let g = &self.geom;
        let halve = match step {
            Step::Conv(algo, _) if !algo.supports(g) => {
                return Err(NnError::Plan(format!(
                    "{algo} cannot run a {}x{} stride-{} conv layer",
                    g.kernel, g.kernel, g.stride
                )))
            }
            Step::Conv(ConvAlgo::Winograd, WriteBack::ReluPool) if self.even_map() => true,
            Step::Conv(ConvAlgo::Winograd, WriteBack::Relu) | Step::Conv(_, WriteBack::Bias) => {
                false
            }
            Step::Sampled(p) if (p.out_h(), p.out_w()) != (g.out_h, g.out_w) => {
                return Err(NnError::Perforation(format!(
                    "plan is for {}x{} map, layer has {}x{}",
                    p.out_h(),
                    p.out_w(),
                    g.out_h,
                    g.out_w
                )))
            }
            Step::Sampled(p) if p.kept_positions().is_empty() => {
                return Err(NnError::Perforation("no kept positions".into()))
            }
            Step::Sampled(_) => false,
            _ => return Err(foreign_step("conv")),
        };
        if input.len() != 4 || input[1..] != [g.in_channels, g.in_h, g.in_w] {
            let expected = format!("[N, {}, {}, {}]", g.in_channels, g.in_h, g.in_w);
            return Err(refuse("Conv2d", expected, input));
        }
        let d = 1 + usize::from(halve);
        Ok(vec![input[0], self.out_channels, g.out_h / d, g.out_w / d])
    }

    /// Full (unperforated) forward pass through the chosen convolution
    /// algorithm: one [`conv2d`] call on the whole batch.
    ///
    /// [`ConvAlgo::Direct`] (and [`ConvAlgo::Im2col`], its other name)
    /// computes the im2col reference lowering (paper Fig. 2) bit for bit
    /// without the materialised column matrix; [`ConvAlgo::Winograd`]
    /// (stride-1 3x3 and 5x5 layers only) is deterministic but within
    /// [`pcnn_tensor::winograd_error_bound`] of the reference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input shape mismatch, or
    /// [`NnError::Plan`] if the algorithm cannot run this layer's shape.
    pub fn forward_with(&self, input: &Tensor, algo: ConvAlgo) -> Result<Tensor, NnError> {
        self.forward_step(input, &Step::Conv(algo, WriteBack::Bias))
    }

    /// `step` on `input` into a new tensor, its kernels' scratch the
    /// calling thread's workspace: the public conv forwards.
    fn forward_step(&self, input: &Tensor, step: &Step) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(self.shape_after(input.shape(), step)?);
        let len = conv_scratch_len(step, self.shape(), input.shape()[0], active_threads());
        let (shape, x) = (input.shape(), input.data());
        with_workspace(len, |ws| self.run_step(shape, x, step, out.data_mut(), ws));
        Ok(out)
    }

    /// Geometry and output channels: what the layer's scratch is a
    /// function of.
    pub(crate) fn shape(&self) -> (&Conv2dGeometry, usize) {
        (&self.geom, self.out_channels)
    }

    /// The conv step executor: `step` on the `shape` input `x` into `out`,
    /// its kernels' scratch carved from `scratch` (`conv_scratch_len`
    /// floats), both as [`Layer::output_shape`] sized them.
    fn run_step(
        &self,
        shape: &[usize],
        x: &[f32],
        step: &Step,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        // The output map, booked to the epilogue as the layer's store.
        if let Some(s) = phase_span(Phase::Epilogue) {
            s.finish(0, 4 * out.len() as u64);
        }
        let (g, oc, w, b) = (
            &self.geom,
            self.out_channels,
            self.weight.data(),
            &self.bias,
        );
        match step {
            Step::Conv(algo, wb) => conv2d_in(*algo, *wb, g, oc, w, b, x, shape[0], out, scratch),
            Step::Sampled(p) => self.sampled_into(shape[0], x, p, out, scratch),
            Step::Fused | Step::Other => unreachable!("the shape rule refuses it a conv layer"),
        }
    }

    /// Perforated forward pass (paper Fig. 11): evaluate the convolution
    /// only at `perf`'s kept output positions and fill the rest by
    /// averaging each position's stencil of kept neighbours.
    ///
    /// The kept positions of a whole *group* of images go through one
    /// [`conv2d_sampled`] call — the patches gathered straight into the
    /// GEMM's packed `B`, `N = images x kept`, the filter matrix packed
    /// once per group — and each image's maps are then interpolated from
    /// its columns of the group's sampled block. The group is as many
    /// images as keep the sampled data matrix within a fixed budget, a
    /// function of the layer shape and the rate alone
    /// (`images_per_sampled_gemm`). No element's arithmetic depends on
    /// the grouping (DESIGN.md, "Sampled convolution"), so the output is
    /// bitwise the same at any batch size, group size or thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input shape mismatch, or
    /// [`NnError::Perforation`] if the plan's position list does not match
    /// this layer's output map.
    pub fn forward_perforated(
        &self,
        input: &Tensor,
        perf: &LayerPerforation,
    ) -> Result<Tensor, NnError> {
        self.forward_step(input, &Step::Sampled(Cow::Borrowed(perf)))
    }

    /// [`forward_perforated`](Self::forward_perforated) of `batch` images
    /// into `out`.
    fn sampled_into(
        &self,
        batch: usize,
        x: &[f32],
        perf: &LayerPerforation,
        out: &mut [f32],
        mut scratch: &mut [f32],
    ) {
        let (g, kept) = (&self.geom, perf.kept_positions());
        let (k, n_pos, n_keep) = (g.patch_len(), g.out_positions(), kept.len());
        let (oc, chw) = (self.out_channels, g.in_channels * g.in_h * g.in_w);
        let group = images_per_sampled_gemm(k, n_keep).min(batch.max(1));
        // `conv2d_sampled` overwrites all of the block it is handed.
        let sampled = carve(&mut scratch, oc * group * n_keep);
        for first in (0..batch).step_by(group) {
            let images = group.min(batch - first);
            let n = images * n_keep;
            conv2d_sampled(
                g,
                oc,
                self.weight.data(),
                &self.bias,
                &x[first * chw..(first + images) * chw],
                images,
                kept,
                &mut sampled[..oc * n],
                scratch,
            );
            let span = phase_span(Phase::Epilogue);
            for i in 0..images {
                let out_i = &mut out[(first + i) * oc * n_pos..][..oc * n_pos];
                for (row, map) in sampled[..oc * n].chunks(n).zip(out_i.chunks_mut(n_pos)) {
                    perf.interpolate(&row[i * n_keep..(i + 1) * n_keep], map);
                }
            }
            if let Some(s) = span {
                // One add per stencil source and one divide per output;
                // the sampled block read, the maps written.
                s.finish(
                    (images * oc * (perf.stencil_sources() + n_pos)) as u64,
                    4 * (images * oc * (n_keep + n_pos)) as u64,
                );
            }
        }
    }

    /// Backward pass. Recomputes im2col from the saved `input`.
    ///
    /// Returns `(d_input, grads)`.
    pub fn backward(&self, input: &Tensor, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        let batch = input.shape()[0];
        let g = &self.geom;
        let (k, n_pos) = (g.patch_len(), g.out_positions());
        let mut cols = vec![0.0; k * n_pos];
        let mut d_cols = vec![0.0; k * n_pos];
        let mut d_weight = Tensor::zeros(vec![self.out_channels, k]);
        let mut d_bias = vec![0.0; self.out_channels];
        let mut d_input = Tensor::zeros(input.shape().to_vec());
        for b in 0..batch {
            im2col(g, input.batch_item(b), &mut cols);
            let go = grad_out.batch_item(b);
            // dW += dOut x cols^T
            gemm_nt(self.out_channels, k, n_pos, go, &cols, d_weight.data_mut());
            for c in 0..self.out_channels {
                d_bias[c] += go[c * n_pos..(c + 1) * n_pos].iter().sum::<f32>();
            }
            // dCols = W^T x dOut
            d_cols.fill(0.0);
            gemm_tn(
                k,
                n_pos,
                self.out_channels,
                self.weight.data(),
                go,
                &mut d_cols,
            );
            col2im_accumulate(g, &d_cols, d_input.batch_item_mut(b));
        }
        (d_input, ParamGrads { d_weight, d_bias })
    }

    /// Mutable access to `(weight, bias)` for the optimiser.
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Vec<f32>) {
        (&mut self.weight, &mut self.bias)
    }

    /// Read-only access to `(weight, bias)`.
    pub fn params(&self) -> (&Tensor, &[f32]) {
        (&self.weight, &self.bias)
    }
}

/// 2-D max pooling with square window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2d {
    /// Window side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        Self { kernel, stride }
    }

    /// Training-mode forward pass; returns the pooled tensor and the
    /// argmax cache [`backward`](Self::backward) scatters through.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `input` is not 4-D or a window is
    /// larger than its map.
    pub fn forward(&self, input: &Tensor) -> Result<(Tensor, LayerCache), NnError> {
        let mut out = Tensor::zeros(self.shape_after(input.shape())?);
        let mut indices = Vec::with_capacity(out.len());
        self.pool(input.shape(), input.data(), out.data_mut(), |best_idx| {
            indices.push(best_idx)
        });
        Ok((out, LayerCache::PoolIndices(indices)))
    }

    /// The pool arm of [`Layer::output_shape`]: `[N, C, H, W]`, each
    /// window inside its map, to `[N, C, (H - k) / s + 1, (W - k) / s + 1]`.
    fn shape_after(&self, input: &[usize]) -> Result<Vec<usize>, NnError> {
        let (k, s) = (self.kernel, self.stride);
        match *input {
            [n, c, h, w] if h >= k && w >= k => Ok(vec![n, c, (h - k) / s + 1, (w - k) / s + 1]),
            _ => Err(refuse(
                "MaxPool2d",
                format!("[N, C, H >= {k}, W >= {k}]"),
                input,
            )),
        }
    }

    /// The pooling walk of a `shape` input into `out`. A window's best
    /// starts as its first element and a later one replaces it only if
    /// strictly greater, in row-major window order — ties keep the
    /// earliest, and a NaN wins exactly when it comes first. `on_max` is
    /// told the winner's flat input index, output by output.
    fn pool(
        &self,
        shape: &[usize],
        in_data: &[f32],
        out: &mut [f32],
        mut on_max: impl FnMut(usize),
    ) {
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let (n, oh, ow) = match self.shape_after(shape).as_deref() {
            Ok(&[n, _, oh, ow]) => (n, oh, ow),
            _ => unreachable!("the shape rule refuses the pool this input"),
        };
        let out_data = out;
        let mut oi = 0;
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = base + oy * self.stride * w + ox * self.stride;
                        let mut best = in_data[best_idx];
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let idx =
                                    base + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if in_data[idx] > best {
                                    best = in_data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_data[oi] = best;
                        on_max(best_idx);
                        oi += 1;
                    }
                }
            }
        }
    }

    /// Backward pass: scatter gradients to the cached argmax positions.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is not [`LayerCache::PoolIndices`] of matching size.
    pub fn backward(&self, input_shape: &[usize], cache: &LayerCache, grad_out: &Tensor) -> Tensor {
        let LayerCache::PoolIndices(indices) = cache else {
            panic!("MaxPool2d::backward requires PoolIndices cache");
        };
        assert_eq!(indices.len(), grad_out.len(), "cache/grad size mismatch");
        let mut d_input = Tensor::zeros(input_shape.to_vec());
        let d = d_input.data_mut();
        for (i, &src) in indices.iter().enumerate() {
            d[src] += grad_out.data()[i];
        }
        d_input
    }
}

/// Fully-connected layer: weights `[out_features, in_features]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a linear layer with He-initialised weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Tensor::from_fn(vec![out_features, in_features], |_| {
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        });
        Self {
            in_features,
            out_features,
            weight,
            bias: vec![0.0; out_features],
        }
    }

    /// Reassembles a linear layer from saved parts.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not 2-D or the bias length mismatches.
    pub fn from_parts(weight: Tensor, bias: Vec<f32>) -> Self {
        assert_eq!(weight.ndim(), 2, "linear weight must be [out, in]");
        let out_features = weight.shape()[0];
        let in_features = weight.shape()[1];
        assert_eq!(bias.len(), out_features, "linear bias length mismatch");
        Self {
            in_features,
            out_features,
            weight,
            bias,
        }
    }

    /// Read-only access to `(weight, bias)`.
    pub fn params(&self) -> (&Tensor, &[f32]) {
        (&self.weight, &self.bias)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward pass on a `[N, in_features]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on mismatch.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(self.shape_after(input.shape())?);
        self.forward_into(input.shape()[0], input.data(), out.data_mut());
        Ok(out)
    }

    /// The linear arm of [`Layer::output_shape`]: `[N, in_features]` to
    /// `[N, out_features]`.
    fn shape_after(&self, input: &[usize]) -> Result<Vec<usize>, NnError> {
        match *input {
            [n, features] if features == self.in_features => Ok(vec![n, self.out_features]),
            _ => Err(refuse(
                "Linear",
                format!("[N, {}]", self.in_features),
                input,
            )),
        }
    }

    /// [`forward`](Self::forward) of `n` rows into `out`.
    fn forward_into(&self, n: usize, x: &[f32], out: &mut [f32]) {
        let span = phase_span(Phase::Epilogue);
        for o in out.chunks_mut(self.out_features) {
            o.copy_from_slice(&self.bias);
        }
        if let Some(s) = span {
            // The output written and the bias broadcast into every row.
            s.finish(0, 8 * out.len() as u64);
        }
        let (m, k) = (self.out_features, self.in_features);
        gemm_nt(n, m, k, x, self.weight.data(), out);
    }

    /// Backward pass; returns `(d_input, grads)`.
    pub fn backward(&self, input: &Tensor, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        let n = input.shape()[0];
        let mut d_weight = Tensor::zeros(vec![self.out_features, self.in_features]);
        // dW = dOut^T x input
        gemm_tn(
            self.out_features,
            self.in_features,
            n,
            grad_out.data(),
            input.data(),
            d_weight.data_mut(),
        );
        let mut d_bias = vec![0.0; self.out_features];
        for row in grad_out.data().chunks(self.out_features) {
            for (b, &g) in d_bias.iter_mut().zip(row) {
                *b += g;
            }
        }
        let mut d_input = Tensor::zeros(vec![n, self.in_features]);
        // dIn = dOut x W
        gemm(
            n,
            self.in_features,
            self.out_features,
            grad_out.data(),
            self.weight.data(),
            d_input.data_mut(),
        );
        (d_input, ParamGrads { d_weight, d_bias })
    }

    /// Mutable access to `(weight, bias)` for the optimiser.
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Vec<f32>) {
        (&mut self.weight, &mut self.bias)
    }
}

/// How an inference forward runs one layer — what `Network::compile`
/// decides, so that `Network::run` only looks it up. A plan holds one per
/// layer (tens), so the perforation tables sit inline rather than behind
/// a second pointer.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Step<'a> {
    /// A full conv layer through one algorithm, and Winograd with the
    /// ReLU after it — and the 2x2 stride-2 max-pool after that — in its
    /// write-back when it says so.
    Conv(ConvAlgo, WriteBack),
    /// A conv layer evaluated at the perforation's kept positions only,
    /// the rest interpolated.
    Sampled(Cow<'a, LayerPerforation>),
    /// A ReLU or a pool the conv step before it has already applied.
    Fused,
    /// Relu, pooling, flatten, linear, dropout: nothing to decide.
    Other,
}

/// One layer of a runnable [`crate::Network`].
#[derive(Debug, Clone)]
pub enum Layer {
    /// Convolution.
    Conv2d(Conv2d),
    /// Element-wise max(0, x).
    Relu,
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// NCHW -> [N, C*H*W].
    Flatten,
    /// Fully-connected.
    Linear(Linear),
    /// Inverted dropout with the given drop probability — active only in
    /// training-mode forward passes (identity at inference). AlexNet-style
    /// regularisation; it also hardens the features against perforation.
    Dropout(f32),
}

/// The refusal of a step compiled for another layer than a `kind` one.
fn foreign_step(kind: &str) -> NnError {
    NnError::Plan(format!(
        "a {kind} layer cannot run a step compiled for another layer"
    ))
}

/// ReLU, `max(x, 0)` per element, as one `Activation` span: `out` written
/// from `input`, or in place without one.
pub(crate) fn relu(input: Option<&[f32]>, out: &mut [f32]) {
    let span = phase_span(Phase::Activation);
    match input {
        Some(x) => out.iter_mut().zip(x).for_each(|(o, &v)| *o = v.max(0.0)),
        None => out.iter_mut().for_each(|v| *v = v.max(0.0)),
    }
    if let Some(s) = span {
        let numel = out.len() as u64;
        s.finish(numel, 8 * numel);
    }
}

/// Inverted dropout of a copy of `t` — the forward's activations and the
/// backward's gradients take the same mask. The per-element keep decision
/// is deterministic: a multiplicative hash of `(seed, index)` compared
/// against the keep probability; kept elements are scaled by
/// `1 / (1 - drop_p)`.
fn dropout(t: &Tensor, seed: u64, drop_p: f32) -> Tensor {
    let keep_scale = 1.0 / (1.0 - drop_p);
    let mut out = t.clone();
    for (i, v) in out.data_mut().iter_mut().enumerate() {
        let h = (seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_mul(0xD1B54A32D192ED03)
            .rotate_left(29);
        let keep = ((h >> 11) as f64 / (1u64 << 53) as f64) >= drop_p as f64;
        *v = if keep { *v * keep_scale } else { 0.0 };
    }
    out
}

impl Layer {
    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv",
            Layer::Relu => "relu",
            Layer::MaxPool2d(_) => "maxpool",
            Layer::Flatten => "flatten",
            Layer::Linear(_) => "linear",
            Layer::Dropout(_) => "dropout",
        }
    }

    /// Inference forward pass: a conv layer under a non-identity `perf`
    /// runs the sampled convolution — perforation takes precedence — and
    /// a full one runs `algo`; every other layer ignores both (dropout is
    /// the identity). The cache is always [`LayerCache::None`]: only
    /// [`forward_train`](Self::forward_train) has a backward to cache for.
    ///
    /// # Errors
    ///
    /// Propagates shape/perforation/plan errors from the concrete layer.
    pub fn forward_algo(
        &self,
        input: &Tensor,
        perf: Option<&LayerPerforation>,
        algo: ConvAlgo,
    ) -> Result<(Tensor, LayerCache), NnError> {
        let step = self.step(perf, algo);
        let mut out = Tensor::zeros(self.output_shape(input.shape(), &step)?);
        let (shape, x) = (input.shape(), input.data());
        let images = shape.first().map_or(0, |n| *n);
        let len = self.scratch_len(images, perf, algo, active_threads());
        with_workspace(len, |ws| self.run_step(shape, x, &step, out.data_mut(), ws));
        Ok((out, LayerCache::None))
    }

    /// Floats of scratch [`forward_algo`](Self::forward_algo) takes from
    /// the calling thread's workspace on `images` images at pool width
    /// `threads` (the width it runs at: 1 inside a pool worker).
    pub fn scratch_len(
        &self,
        images: usize,
        perf: Option<&LayerPerforation>,
        algo: ConvAlgo,
        threads: usize,
    ) -> usize {
        match self {
            Layer::Conv2d(c) => {
                conv_scratch_len(&self.step(perf, algo), c.shape(), images, threads)
            }
            _ => 0,
        }
    }

    /// The step [`forward_algo`](Self::forward_algo) runs.
    fn step<'a>(&self, perf: Option<&'a LayerPerforation>, algo: ConvAlgo) -> Step<'a> {
        match (self, perf) {
            (Layer::Conv2d(_), Some(p)) if !p.is_identity() => Step::Sampled(Cow::Borrowed(p)),
            (Layer::Conv2d(_), _) => Step::Conv(algo, WriteBack::Bias),
            _ => Step::Other,
        }
    }

    /// The one shape rule of inference: the shape `step` writes on an
    /// input of shape `input` (`[N, ...]`), or why this layer cannot run
    /// it — an input of another shape ([`NnError::Shape`]), a perforation
    /// of another map ([`NnError::Perforation`]), or a step compiled for
    /// another layer ([`NnError::Plan`]). A ReLU or a 2x2 stride-2 pool
    /// fused into the conv before it passes that conv's output on.
    /// `Network::compile` records every step's output by it, `Network::run`
    /// refuses a plan that disagrees with it, and the public forwards
    /// allocate their output by it; the step bodies trust it.
    pub(crate) fn output_shape(&self, input: &[usize], step: &Step) -> Result<Vec<usize>, NnError> {
        match (self, step) {
            (Layer::Conv2d(c), _) => c.shape_after(input, step),
            (Layer::MaxPool2d(p), Step::Other) => p.shape_after(input),
            (Layer::Linear(l), Step::Other) => l.shape_after(input),
            (Layer::Flatten, Step::Other) => match input {
                [n, image @ ..] => Ok(vec![*n, image.iter().product()]),
                [] => Err(refuse("Flatten", "[N, ...]".into(), input)),
            },
            (Layer::Relu, Step::Other | Step::Fused) | (Layer::Dropout(_), Step::Other) => {
                Ok(input.to_vec())
            }
            (Layer::MaxPool2d(p), Step::Fused) if (p.kernel, p.stride) == (2, 2) => {
                Ok(input.to_vec())
            }
            _ => Err(foreign_step(self.kind())),
        }
    }

    /// The step executor: the one inference forward of a layer, behind
    /// both `Network::run` and [`forward_algo`](Self::forward_algo). It
    /// runs `step` on the `shape` input `x`, writing every element of
    /// `out`, and a conv's kernels carve their scratch from `scratch`
    /// (`conv_scratch_len` floats): both sized by
    /// [`output_shape`](Self::output_shape), which has checked `shape`.
    pub(crate) fn run_step(
        &self,
        shape: &[usize],
        x: &[f32],
        step: &Step,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        match self {
            Layer::Conv2d(c) => c.run_step(shape, x, step, out, scratch),
            Layer::Relu => relu(Some(x), out),
            Layer::MaxPool2d(p) => {
                let span = phase_span(Phase::Activation);
                // No argmax cache (8 bytes per output, twice the tensor
                // itself): only a training pass has a backward to feed.
                p.pool(shape, x, out, |_| {});
                if let Some(s) = span {
                    let (in_n, out_n) = (x.len() as u64, out.len() as u64);
                    // ~1 compare per input element.
                    s.finish(in_n, 4 * (in_n + out_n));
                }
            }
            Layer::Linear(l) => l.forward_into(shape[0], x, out),
            // A copy, flattened or not (dropout is the identity here).
            Layer::Flatten | Layer::Dropout(_) => {
                let span = phase_span(Phase::Epilogue);
                out.copy_from_slice(x);
                if let Some(s) = span {
                    s.finish(0, 8 * out.len() as u64);
                }
            }
        }
    }

    /// Training-mode forward pass: the inference forward (convolutions
    /// through direct, never perforated) except that max pooling records
    /// its argmax cache and dropout applies the keep mask derived
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the concrete layer.
    pub fn forward_train(
        &self,
        input: &Tensor,
        seed: u64,
    ) -> Result<(Tensor, LayerCache), NnError> {
        match self {
            Layer::MaxPool2d(p) => p.forward(input),
            Layer::Dropout(p) => Ok((dropout(input, seed, *p), LayerCache::DropoutSeed(seed))),
            _ => self.forward_algo(input, None, ConvAlgo::Direct),
        }
    }

    /// Backward pass.
    ///
    /// `input`/`output` are this layer's training-forward activations and
    /// `cache` its [`LayerCache`]. Returns `(d_input, parameter grads)`.
    pub fn backward(
        &self,
        input: &Tensor,
        output: &Tensor,
        cache: &LayerCache,
        grad_out: &Tensor,
    ) -> (Tensor, Option<ParamGrads>) {
        match self {
            Layer::Conv2d(c) => {
                let (d_in, g) = c.backward(input, grad_out);
                (d_in, Some(g))
            }
            Layer::Relu => {
                let mut d = grad_out.clone();
                for (dv, &o) in d.data_mut().iter_mut().zip(output.data()) {
                    if o <= 0.0 {
                        *dv = 0.0;
                    }
                }
                (d, None)
            }
            Layer::MaxPool2d(p) => (p.backward(input.shape(), cache, grad_out), None),
            Layer::Flatten => (
                grad_out
                    .clone()
                    .reshape(input.shape().to_vec())
                    .expect("flatten backward reshape cannot fail"),
                None,
            ),
            Layer::Linear(l) => {
                let (d_in, g) = l.backward(input, grad_out);
                (d_in, Some(g))
            }
            Layer::Dropout(p) => {
                let LayerCache::DropoutSeed(seed) = cache else {
                    // Inference-mode dropout is the identity.
                    return (grad_out.clone(), None);
                };
                (dropout(grad_out, *seed, *p), None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perforation::LayerPerforation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn conv_fixture() -> (Conv2d, Tensor) {
        let geom = Conv2dGeometry::new(2, 6, 6, 3, 1, 1);
        let conv = Conv2d::new(geom, 4, &mut rng());
        let input = Tensor::from_fn(vec![2, 2, 6, 6], |i| ((i * 7) % 11) as f32 / 11.0 - 0.5);
        (conv, input)
    }

    #[test]
    fn conv_forward_shape() {
        let (conv, input) = conv_fixture();
        let out = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        assert_eq!(out.shape(), &[2, 4, 6, 6]);
    }

    #[test]
    fn conv_matches_direct_convolution() {
        // Validate im2col+GEMM against a naive sliding-window convolution.
        let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 0);
        let conv = Conv2d::new(geom, 1, &mut rng());
        let input = Tensor::from_fn(vec![1, 1, 4, 4], |i| i as f32);
        let out = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        let (w, b) = conv.params();
        for oy in 0..2 {
            for ox in 0..2 {
                let mut acc = b[0];
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc += w.data()[ky * 3 + kx] * input.get(&[0, 0, oy + ky, ox + kx]);
                    }
                }
                let got = out.get(&[0, 0, oy, ox]);
                assert!((acc - got).abs() < 1e-4, "{acc} vs {got}");
            }
        }
    }

    #[test]
    fn conv_rejects_wrong_channels() {
        let (conv, _) = conv_fixture();
        let bad = Tensor::zeros(vec![1, 3, 6, 6]);
        assert!(matches!(
            conv.forward_with(&bad, ConvAlgo::Im2col),
            Err(NnError::Shape { .. })
        ));
    }

    #[test]
    fn winograd_batch_shares_one_filter_transform_bitwise() {
        // The filter is transformed once per call and shared by the
        // images of the batch: a batch of 3 must be exactly three
        // batch-1 calls.
        let geom = Conv2dGeometry::new(3, 9, 7, 3, 1, 1);
        let conv = Conv2d::new(geom, 5, &mut rng());
        let per_image = 3 * 9 * 7;
        let batch = Tensor::from_fn(vec![3, 3, 9, 7], |i| ((i * 7) % 13) as f32 / 13.0 - 0.5);
        let out = conv.forward_with(&batch, ConvAlgo::Winograd).unwrap();
        for b in 0..3 {
            let image = Tensor::from_vec(
                vec![1, 3, 9, 7],
                batch.data()[b * per_image..(b + 1) * per_image].to_vec(),
            )
            .unwrap();
            let single = conv.forward_with(&image, ConvAlgo::Winograd).unwrap();
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out.batch_item(b)), bits(single.data()), "image {b}");
        }
    }

    #[test]
    fn perforation_rate_zero_is_identity() {
        let (conv, input) = conv_fixture();
        let full = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        let plan = LayerPerforation::new(6, 6, 0.0, 1);
        let perf = conv.forward_perforated(&input, &plan).unwrap();
        assert_eq!(full, perf);
    }

    #[test]
    fn perforation_preserves_kept_positions() {
        let (conv, input) = conv_fixture();
        let full = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        let plan = LayerPerforation::new(6, 6, 0.5, 1);
        let perf = conv.forward_perforated(&input, &plan).unwrap();
        for &p in plan.kept_positions() {
            for c in 0..4 {
                let (y, x) = (p / 6, p % 6);
                assert!(
                    (full.get(&[0, c, y, x]) - perf.get(&[0, c, y, x])).abs() < 1e-4,
                    "kept position {p} changed"
                );
            }
        }
    }

    /// The perforated forward as it ran before the gather, kept verbatim
    /// as the reference: per image, `im2col_positions`, a bias fill,
    /// `gemm`, then every position averaged from its
    /// `interpolation_sources`.
    fn perforated_reference(conv: &Conv2d, input: &Tensor, perf: &LayerPerforation) -> Tensor {
        let g = conv.geometry();
        let (oc, k, n_pos) = (conv.out_channels(), g.patch_len(), g.out_positions());
        let kept = perf.kept_positions();
        let n_keep = kept.len();
        let (weight, bias) = conv.params();
        let batch = input.shape()[0];
        let mut out = Tensor::zeros(vec![batch, oc, g.out_h, g.out_w]);
        let mut cols = vec![0.0; k * n_keep];
        for b in 0..batch {
            pcnn_tensor::im2col_positions(g, input.batch_item(b), kept, &mut cols);
            let mut sampled: Vec<f32> = bias
                .iter()
                .flat_map(|&v| std::iter::repeat_n(v, n_keep))
                .collect();
            gemm(oc, n_keep, k, weight.data(), &cols, &mut sampled);
            let out_b = out.batch_item_mut(b);
            for c in 0..oc {
                let src = &sampled[c * n_keep..(c + 1) * n_keep];
                for (p, d) in out_b[c * n_pos..(c + 1) * n_pos].iter_mut().enumerate() {
                    let sources = perf.interpolation_sources(p);
                    let sum: f32 = sources.iter().map(|&i| src[i as usize]).sum();
                    *d = sum / sources.len() as f32;
                }
            }
        }
        out
    }

    proptest::proptest! {
        /// Gather, grouped GEMM and grouped-stencil walk together are, bit
        /// for bit, the per-image route they replaced — on the position
        /// lists and stencils `LayerPerforation` really builds, over
        /// strided and padded geometries, batches and pool widths.
        #[test]
        fn perforated_forward_is_bitwise_the_per_image_reference(
            c in 1usize..6,
            side in 5usize..14,
            kernel in 1usize..6,
            stride in 1usize..4,
            pad in 0usize..3,
            oc in 1usize..14,
            batch in 1usize..6,
            threads in 1usize..4,
            rate in 0.05f64..0.95,
        ) {
            let geom = Conv2dGeometry::new(c, side, side, kernel, stride, pad);
            let conv = Conv2d::new(geom, oc, &mut rng());
            let input = Tensor::from_fn(vec![batch, c, side, side], |i| {
                ((i * 2_654_435_761) % 1_000_003) as f32 / 1_000_003.0 - 0.5
            });
            let perf = LayerPerforation::new(geom.out_h, geom.out_w, rate, 1);
            let want = perforated_reference(&conv, &input, &perf);
            let got = pcnn_parallel::with_threads(threads, || {
                conv.forward_perforated(&input, &perf).unwrap()
            });
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn sampled_gemm_groups_follow_the_budget() {
        // AlexNet conv1-5 at rung 2 (45 %): the kept share of 3025, 729 and
        // 169 positions against 363-, 2400-, 2304- and 3456-long patches.
        assert_eq!(images_per_sampled_gemm(363, 1664), 1);
        assert_eq!(images_per_sampled_gemm(2400, 401), 1);
        assert_eq!(images_per_sampled_gemm(2304, 93), 4);
        assert_eq!(images_per_sampled_gemm(3456, 93), 3);
        // A layer whose single image overflows the budget still gets one.
        assert_eq!(images_per_sampled_gemm(4608, 784), 1);
    }

    #[test]
    fn perforated_batch_is_bitwise_its_images_alone_when_the_budget_splits_it() {
        // 576-long patches x 702 kept positions: two images per GEMM, so a
        // batch of five runs as groups of 2 + 2 + 1.
        let geom = Conv2dGeometry::new(64, 30, 30, 3, 1, 1);
        let plan = LayerPerforation::new(30, 30, 0.22, 1);
        assert_eq!(
            images_per_sampled_gemm(geom.patch_len(), plan.kept_positions().len()),
            2
        );
        let conv = Conv2d::new(geom, 4, &mut rng());
        let per_image = 64 * 30 * 30;
        let batch = Tensor::from_fn(vec![5, 64, 30, 30], |i| ((i * 7) % 13) as f32 / 13.0 - 0.5);
        let out = conv.forward_perforated(&batch, &plan).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for b in 0..5 {
            let image = Tensor::from_vec(
                vec![1, 64, 30, 30],
                batch.data()[b * per_image..(b + 1) * per_image].to_vec(),
            )
            .unwrap();
            let single = conv.forward_perforated(&image, &plan).unwrap();
            assert_eq!(bits(out.batch_item(b)), bits(single.data()), "image {b}");
        }
    }

    #[test]
    fn perforation_error_bounded_on_smooth_input() {
        // A constant input must be reproduced exactly regardless of rate.
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 1, 1);
        let conv = Conv2d::new(geom, 2, &mut rng());
        let input = Tensor::full(vec![1, 1, 8, 8], 1.0);
        let full = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        let plan = LayerPerforation::new(8, 8, 0.75, 1);
        let perf = conv.forward_perforated(&input, &plan).unwrap();
        // Interior positions (away from the zero-padding boundary) see the
        // same constant patch everywhere.
        for c in 0..2 {
            for y in 1..7 {
                for x in 1..7 {
                    let f = full.get(&[0, c, y, x]);
                    let p = perf.get(&[0, c, y, x]);
                    // The interpolant may copy a border value; allow the
                    // layer's own dynamic range.
                    assert!(p.is_finite(), "non-finite at {c},{y},{x}: {p} vs {f}");
                }
            }
        }
    }

    #[test]
    fn conv_backward_numerical_gradient() {
        let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 1);
        let mut conv = Conv2d::new(geom, 2, &mut rng());
        let input = Tensor::from_fn(vec![1, 1, 4, 4], |i| (i as f32 / 7.0).sin());
        // Loss = sum(out^2)/2, so dL/dOut = out.
        let out = conv.forward_with(&input, ConvAlgo::Im2col).unwrap();
        let (_, grads) = conv.backward(&input, &out);
        // Check dW numerically for a few weights.
        let eps = 1e-3;
        for &wi in &[0usize, 3, 8, 10] {
            let orig = conv.weight.data()[wi];
            conv.weight.data_mut()[wi] = orig + eps;
            let lp: f32 = conv
                .forward_with(&input, ConvAlgo::Im2col)
                .unwrap()
                .data()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            conv.weight.data_mut()[wi] = orig - eps;
            let lm: f32 = conv
                .forward_with(&input, ConvAlgo::Im2col)
                .unwrap()
                .data()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            conv.weight.data_mut()[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.d_weight.data()[wi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        )
        .unwrap();
        let pool = MaxPool2d::new(2, 2);
        let (out, cache) = pool.forward(&input).unwrap();
        assert_eq!(out.data(), &[6., 8., 14., 16.]);
        let grad = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let d_in = pool.backward(input.shape(), &cache, &grad);
        assert_eq!(d_in.get(&[0, 0, 1, 1]), 1.0);
        assert_eq!(d_in.get(&[0, 0, 1, 3]), 2.0);
        assert_eq!(d_in.get(&[0, 0, 3, 1]), 3.0);
        assert_eq!(d_in.get(&[0, 0, 3, 3]), 4.0);
        assert_eq!(d_in.sum(), 10.0);
    }

    #[test]
    fn maxpool_refuses_a_window_larger_than_its_map() {
        let small = Tensor::zeros(vec![1, 1, 2, 2]);
        for layer in [MaxPool2d::new(3, 2), MaxPool2d::new(3, 1)] {
            assert!(matches!(
                layer.forward(&small),
                Err(NnError::Shape { context, .. }) if context == "MaxPool2d"
            ));
            assert!(matches!(
                Layer::MaxPool2d(layer).forward_algo(&small, None, ConvAlgo::Direct),
                Err(NnError::Shape { .. })
            ));
        }
        // A 3x2 map is too short for a 3x3 window too.
        let short = Tensor::zeros(vec![1, 1, 3, 2]);
        assert!(MaxPool2d::new(3, 2).forward(&short).is_err());
        assert!(MaxPool2d::new(2, 2).forward(&short).is_ok());
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let lin = Linear::new(6, 3, &mut rng());
        let input = Tensor::from_fn(vec![4, 6], |i| i as f32 / 10.0);
        let out = lin.forward(&input).unwrap();
        assert_eq!(out.shape(), &[4, 3]);
        let (d_in, grads) = lin.backward(&input, &out);
        assert_eq!(d_in.shape(), &[4, 6]);
        assert_eq!(grads.d_weight.shape(), &[3, 6]);
        assert_eq!(grads.d_bias.len(), 3);
    }

    #[test]
    fn linear_numerical_gradient() {
        let mut lin = Linear::new(3, 2, &mut rng());
        let input = Tensor::from_fn(vec![2, 3], |i| (i as f32).cos());
        let out = lin.forward(&input).unwrap();
        let (_, grads) = lin.backward(&input, &out);
        let eps = 1e-3;
        for wi in 0..6 {
            let orig = lin.weight.data()[wi];
            lin.weight.data_mut()[wi] = orig + eps;
            let lp: f32 = lin
                .forward(&input)
                .unwrap()
                .data()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            lin.weight.data_mut()[wi] = orig - eps;
            let lm: f32 = lin
                .forward(&input)
                .unwrap()
                .data()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            lin.weight.data_mut()[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads.d_weight.data()[wi]).abs() < 1e-2 * (1.0 + numeric.abs()),
                "weight {wi}"
            );
        }
    }

    #[test]
    fn relu_backward_masks_negatives() {
        let layer = Layer::Relu;
        let input = Tensor::from_vec(vec![1, 4], vec![-1., 2., -3., 4.]).unwrap();
        let (out, cache) = layer.forward_algo(&input, None, ConvAlgo::Im2col).unwrap();
        assert_eq!(out.data(), &[0., 2., 0., 4.]);
        let grad = Tensor::from_vec(vec![1, 4], vec![1., 1., 1., 1.]).unwrap();
        let (d_in, _) = layer.backward(&input, &out, &cache, &grad);
        assert_eq!(d_in.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn flatten_roundtrip() {
        let layer = Layer::Flatten;
        let input = Tensor::from_fn(vec![2, 3, 2, 2], |i| i as f32);
        let (out, cache) = layer.forward_algo(&input, None, ConvAlgo::Im2col).unwrap();
        assert_eq!(out.shape(), &[2, 12]);
        let (back, _) = layer.backward(&input, &out, &cache, &out);
        assert_eq!(back.shape(), input.shape());
    }
}
