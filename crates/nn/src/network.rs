//! A runnable sequential CNN.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

use pcnn_parallel::lines;
use pcnn_tensor::{Conv2dGeometry, ConvAlgo, Tensor, WriteBack};

use crate::layer::{conv_scratch_len, relu, Layer, LayerCache, Step};
use crate::perforation::{LayerPerforation, PerforationPlan};
use crate::plan::ConvPlan;
use crate::spec::{ConvSpec, FcSpec, LayerSpec, NetworkSpec, PoolSpec};
use crate::NnError;

/// All intermediate state of a training-mode forward pass.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `activations[0]` is the input; `activations[i + 1]` is layer `i`'s
    /// output. The last entry holds the logits.
    pub activations: Vec<Tensor>,
    /// Per-layer caches for the backward pass.
    pub caches: Vec<LayerCache>,
}

impl ForwardTrace {
    /// The network output (logits).
    pub fn logits(&self) -> &Tensor {
        self.activations.last().expect("trace always has input")
    }
}

/// Everything [`Network::compile`] decided for one network under one
/// perforation plan and conv plan: one step per layer (a ReLU or pool
/// fused into the Winograd conv before it runs there), what each step
/// holds while it runs, and where the per-image prefix ends. It holds what
/// a forward used to rebuild at the top of every call and nothing else —
/// no weights, no batch size, no storage — so it is cheap to keep, valid
/// for any batch, and [`Network::run`] refuses it on any network it was
/// not compiled for. The workspace a forward lays out is a function of
/// the plan, the batch and the pool width ([`workspace_len`](Self::workspace_len)).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// One step per layer, in layer order.
    steps: Vec<Step<'static>>,
    /// One per layer, in layer order.
    mem: Vec<StepMem>,
    /// Index of the first `Flatten` (the layer count without one): the
    /// layers before it are batch-split, the rest run on the joined batch.
    split: usize,
}

/// What one layer's step holds while it runs, as `compile` sizes it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepMem {
    /// Floats per image of the layer's output (a fused layer's: what its
    /// conv wrote).
    output: usize,
    /// A ReLU: it rectifies an activation the walk holds where it is.
    relu: bool,
    /// A conv layer's geometry and output channels, which its scratch is
    /// a function of.
    conv: Option<(Conv2dGeometry, usize)>,
}

impl StepMem {
    /// `layer`'s, on images of `image` (its input's shape per image),
    /// under `step`; `image` becomes the output's.
    fn new(layer: &Layer, step: &Step, image: &mut Vec<usize>) -> Self {
        *image = match (layer, step) {
            (_, Step::Fused) | (Layer::Relu | Layer::Dropout(_), _) => image.clone(),
            (Layer::Conv2d(c), _) => {
                let d = 1 + usize::from(matches!(step, Step::Conv(_, WriteBack::ReluPool)));
                let g = c.geometry();
                vec![c.out_channels(), g.out_h / d, g.out_w / d]
            }
            (Layer::MaxPool2d(p), _) => match image[..] {
                [c, h, w] => {
                    let side = |x: usize| x.saturating_sub(p.kernel) / p.stride + 1;
                    vec![c, side(h), side(w)]
                }
                _ => image.clone(),
            },
            (Layer::Flatten, _) => vec![image.iter().product()],
            (Layer::Linear(l), _) => vec![l.out_features()],
        };
        Self {
            output: image.iter().product(),
            relu: matches!(layer, Layer::Relu),
            conv: conv_of(layer),
        }
    }
}

/// A conv layer's geometry and output channels.
fn conv_of(layer: &Layer) -> Option<(Conv2dGeometry, usize)> {
    match layer {
        Layer::Conv2d(c) => Some((*c.geometry(), c.out_channels())),
        _ => None,
    }
}

impl ExecPlan {
    /// Floats of the calling thread's workspace [`Network::run`] lays a
    /// forward of `batch` images out in at pool width `threads` (the
    /// width it runs at: 1 inside a pool worker) — a pure function of the
    /// plan, the batch and the width, and the engine's answer to the
    /// paper's Table III question (does this deployment fit?) for its own
    /// activations and scratch; the weights are the network's.
    ///
    /// A walk of layers keeps the activation it holds at one end of its
    /// region and writes the next at the other, each step's scratch in
    /// the gap between: the walk's region is the largest held input +
    /// output + scratch over its steps (a ReLU rectifies in place). One
    /// group walks every layer in the whole workspace. A batch split gives
    /// the joined `[batch, ...]` features their own region first, then one
    /// region per image group, each of which writes its last prefix
    /// activation straight into its rows of the features; the classifier
    /// tail then walks what the groups used.
    pub fn workspace_len(&self, batch: usize, threads: usize) -> usize {
        self.workspace_peak(batch, threads).0
    }

    /// [`workspace_len`](Self::workspace_len), and the layer whose step
    /// sets it: the one whose held input, output and scratch take the
    /// most.
    pub fn workspace_peak(&self, batch: usize, threads: usize) -> (usize, usize) {
        let all = 0..self.steps.len();
        if !self.batch_split(batch, threads) {
            return self.walk_len(all, batch, threads, false);
        }
        let group = batch.div_ceil(threads);
        let features = lines(batch * self.mem[self.split - 1].output);
        let (prefix, at) = self.walk_len(0..self.split, group, 1, true);
        let groups = batch.div_ceil(group) * prefix;
        match self.walk_len(self.split..all.end, batch, threads, false) {
            (tail, at) if tail > groups => (features + tail, at),
            _ => (features + groups, at),
        }
    }

    /// Whether a run of `batch` images at width `threads` splits the
    /// prefix across image groups: not for fewer images than workers (so
    /// the pool stays free for the 2-D GEMM split inside each layer) nor
    /// without a prefix.
    fn batch_split(&self, batch: usize, threads: usize) -> bool {
        batch >= 2 && threads >= 2 && batch >= threads && self.split > 0
    }

    /// The region one walk of `layers` on `images` images at width
    /// `threads` takes, its input elsewhere (and its last output too, with
    /// `out_elsewhere`), and the layer that sets it: the rule
    /// `Network::run_layers` lays activations out by.
    fn walk_len(
        &self,
        layers: Range<usize>,
        images: usize,
        threads: usize,
        out_elsewhere: bool,
    ) -> (usize, usize) {
        let last = self.last_step(layers.clone());
        let (mut held, mut peak) = (None, (0, layers.start));
        for i in layers.filter(|&i| !matches!(self.steps[i], Step::Fused)) {
            let m = &self.mem[i];
            let out = if out_elsewhere && Some(i) == last {
                0
            } else {
                lines(images * m.output)
            };
            let need = match held {
                Some(input) if m.relu && out > 0 => input,
                input => {
                    let scratch = m.conv.map_or(0, |(g, oc)| {
                        conv_scratch_len(&self.steps[i], (&g, oc), images, threads)
                    });
                    held = Some(out);
                    input.unwrap_or(0) + out + scratch
                }
            };
            if need > peak.0 {
                peak = (need, i);
            }
        }
        peak
    }

    /// The last layer of `layers` whose step runs (is not fused).
    fn last_step(&self, layers: Range<usize>) -> Option<usize> {
        layers
            .rev()
            .find(|&i| !matches!(self.steps[i], Step::Fused))
    }
}

/// A runnable sequential network.
///
/// # Example
///
/// ```
/// use pcnn_nn::models::tiny_alexnet;
/// use pcnn_nn::PerforationPlan;
/// use pcnn_tensor::Tensor;
///
/// let net = tiny_alexnet(7);
/// let input = Tensor::zeros(vec![1, 1, 32, 32]);
/// let logits = net.forward(&input, &PerforationPlan::identity(net.conv_count())).unwrap();
/// assert_eq!(logits.shape(), &[1, net.num_classes()]);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    input_shape: [usize; 3],
    num_classes: usize,
}

impl Network {
    /// Assembles a network.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or does not end in a linear layer.
    pub fn new(name: &str, input_shape: [usize; 3], layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        let num_classes = match layers.last() {
            Some(Layer::Linear(l)) => l.out_features(),
            _ => panic!("network must end in a Linear classifier layer"),
        };
        Self {
            name: name.to_string(),
            layers,
            input_shape,
            num_classes,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `[C, H, W]` of one input image.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Number of classifier outputs.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layers (for the optimiser).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of convolutional layers.
    pub fn conv_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, Layer::Conv2d(_)))
            .count()
    }

    /// Decides, once, how every layer of this network runs under a
    /// perforation plan and (optionally) a tuned conv plan — the offline
    /// half of the paper's compile / look-up split (§IV.B–C). A conv
    /// layer with a rate above 0 gets its [`LayerPerforation`] tables
    /// (kept list, nearest map, interpolation stencils) built here, at
    /// exact rates; a full one gets its algorithm from `conv_plan`
    /// (direct without one). Perforation takes precedence: a perforated
    /// layer ignores the conv plan's entry. A full Winograd layer followed
    /// by a ReLU takes the ReLU into its write-back, and the 2x2 stride-2
    /// max-pool after that too when its map is even: the same operations
    /// in the same order, so the same bits, but the maps in between are
    /// never written. Every plan error is raised here, so
    /// [`run`](Self::run) can only fail on its input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Plan`] for a conv plan that does not fit this
    /// network (length, or an algorithm a layer's shape cannot run) and
    /// [`NnError::Perforation`] for a perforation plan of the wrong
    /// length.
    pub fn compile(
        &self,
        plan: &PerforationPlan,
        conv_plan: Option<&ConvPlan>,
    ) -> Result<ExecPlan, NnError> {
        if let Some(cp) = conv_plan {
            cp.validate(self)?;
        }
        if plan.len() != self.conv_count() {
            return Err(NnError::Perforation(format!(
                "plan covers {} conv layers, network has {}",
                plan.len(),
                self.conv_count()
            )));
        }
        let mut ci = 0;
        let mut steps: Vec<Step> = self
            .layers
            .iter()
            .map(|layer| {
                let Layer::Conv2d(c) = layer else {
                    return Step::Other;
                };
                let (rate, algo) = (
                    plan.rate(ci),
                    conv_plan.map_or(ConvAlgo::Direct, |cp| cp.algo(ci)),
                );
                ci += 1;
                let g = c.geometry();
                let perf = (rate > 0.0).then(|| LayerPerforation::new(g.out_h, g.out_w, rate, 1));
                match perf {
                    Some(p) if !p.is_identity() => Step::Sampled(Cow::Owned(p)),
                    _ => Step::Conv(algo, WriteBack::Bias),
                }
            })
            .collect();
        for (i, w) in self.layers.windows(3).enumerate() {
            if let (Layer::Conv2d(c), Layer::Relu, Step::Conv(ConvAlgo::Winograd, _)) =
                (&w[0], &w[1], &steps[i])
            {
                let pool = c.even_map()
                    && matches!(&w[2], Layer::MaxPool2d(p) if (p.kernel, p.stride) == (2, 2));
                let wb = [WriteBack::Relu, WriteBack::ReluPool][usize::from(pool)];
                steps[i] = Step::Conv(ConvAlgo::Winograd, wb);
                steps[i + 1..i + 2 + usize::from(pool)].fill(Step::Fused);
            }
        }
        // The classifier tail starts at the first `Flatten`; everything
        // before it (conv / relu / pool) is the per-image prefix.
        let split = self
            .layers
            .iter()
            .position(|l| matches!(l, Layer::Flatten))
            .unwrap_or(self.layers.len());
        let mut image = self.input_shape.to_vec();
        let mem = (self.layers.iter().zip(&steps))
            .map(|(layer, step)| StepMem::new(layer, step, &mut image))
            .collect();
        Ok(ExecPlan { steps, mem, split })
    }

    /// Inference forward pass under a perforation plan. Returns logits
    /// `[N, classes]`. One-shot form of [`compile`](Self::compile) +
    /// [`run`](Self::run); a caller that runs one plan more than once
    /// compiles it once.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or an inconsistent plan.
    pub fn forward(&self, input: &Tensor, plan: &PerforationPlan) -> Result<Tensor, NnError> {
        self.run(&self.compile(plan, None)?, input)
    }

    /// Inference forward pass executing a tuned per-layer [`ConvPlan`]:
    /// each full (unperforated) conv layer runs the algorithm the offline
    /// tuner chose for its shape. One-shot form of
    /// [`compile`](Self::compile) + [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, an inconsistent perforation
    /// plan, or a conv plan that does not fit this network.
    pub fn forward_planned(
        &self,
        input: &Tensor,
        plan: &PerforationPlan,
        conv_plan: &ConvPlan,
    ) -> Result<Tensor, NnError> {
        self.run(&self.compile(plan, Some(conv_plan))?, input)
    }

    /// Executes a compiled plan on `input`: the one inference path.
    /// Returns logits `[N, classes]`.
    ///
    /// Every activation `run` makes, and every piece of kernel scratch,
    /// is laid out in one entry to the calling thread's workspace
    /// ([`pcnn_parallel::with_workspace`]), [`ExecPlan::workspace_len`]
    /// floats long, so a steady-state forward writes into memory the
    /// thread already holds and no worker allocates; only the logits are
    /// copied out.
    ///
    /// Batches are data-parallel (Cappuccino-style) up to the first
    /// `Flatten`: images are split into contiguous groups, one per worker,
    /// and each group runs the conv / relu / pool prefix independently,
    /// writing its last activation into its rows of the joined features.
    /// The classifier tail then runs once on the whole batch, so the FC
    /// weights — the operand every image shares — are streamed once per
    /// batch. Every layer treats images independently, so the logits are
    /// bitwise identical at any thread count (including 1), and the plan
    /// holds nothing that depends on the batch: one plan serves any batch
    /// size with the same per-image logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input shape mismatch, or
    /// [`NnError::Plan`] if `plan` was compiled for another network (its
    /// step count, a conv layer's position, geometry or channels, or a
    /// perforated layer's map does not match this one).
    pub fn run(&self, plan: &ExecPlan, input: &Tensor) -> Result<Tensor, NnError> {
        let fits = plan.steps.len() == self.layers.len()
            && self
                .layers
                .iter()
                .zip(plan.steps.iter().zip(&plan.mem))
                .all(|(l, (s, m))| l.accepts(s) && m.conv == conv_of(l));
        if !fits {
            return Err(NnError::Plan(format!(
                "execution plan ({} steps) was compiled for another network than {} ({} layers)",
                plan.steps.len(),
                self.name,
                self.layers.len()
            )));
        }
        let batch = if input.ndim() == 4 {
            input.shape()[0]
        } else {
            1
        };
        let threads = pcnn_parallel::active_threads();
        let (all, split) = (0..self.layers.len(), plan.split);
        let len = plan.workspace_len(batch, threads);
        pcnn_parallel::with_workspace(len, |ws| {
            if !plan.batch_split(batch, threads) {
                let x = (input.shape(), input.data());
                let (shape, at) = self.run_layers(plan, x, all, ws, None)?;
                return Ok(copy_out(shape, &ws[at]));
            }
            // Only the prefix is batch-split: contiguous image groups, one
            // per worker, boundaries a function of batch and thread count,
            // each writing its last activation into its rows of the joined
            // `[batch, ...]` features. The tail then runs once on them,
            // outside the region, so every FC weight is read once per batch
            // (by `gemm_nt`, split over weight rows) instead of once per
            // group. No layer mixes images, so where the pipeline is cut and
            // how images are grouped never reaches any logit's arithmetic:
            // outputs match the one-group path bitwise. Each group's layer
            // scopes and spans land in the caller's profile, so a profiled
            // forward is the forward production runs.
            let group = batch.div_ceil(threads);
            let (per_image, per_feature) = (input.len() / batch, plan.mem[split - 1].output);
            let (features, rest) = ws.split_at_mut(lines(batch * per_feature));
            let features = &mut features[..batch * per_feature];
            let region = plan.walk_len(0..split, group, 1, true).0;
            let ran: Vec<OnceLock<_>> = (0..batch.div_ceil(group))
                .map(|_| OnceLock::new())
                .collect();
            let handoff = pcnn_profile::Handoff::capture();
            // One group per worker, each with its rows of the features and
            // its own region.
            let rows = group * per_feature;
            pcnn_parallel::par_chunks_mut_with(features, rows, rest, region, |g, rows, region| {
                let images = group.min(batch - g * group);
                let shape = [&[images], &input.shape()[1..]].concat();
                let data = &input.data()[g * group * per_image..][..images * per_image];
                let layers = 0..split;
                let run = || self.run_layers(plan, (&shape, data), layers, region, Some(rows));
                let _ = ran[g].set(handoff.enter(run));
            });
            let mut shape = Vec::new();
            for result in ran {
                (shape, _) = result.into_inner().expect("every group ran")?;
            }
            shape[0] = batch;
            let (shape, at) =
                self.run_layers(plan, (&shape, features), split..all.end, rest, None)?;
            Ok(copy_out(shape, &rest[at]))
        })
    }

    /// Runs `layers` (at least one) of the pipeline on `input`, read in
    /// place, opening a profiler layer scope around each layer (a no-op
    /// unless profiling is on) but those a conv step has fused. The
    /// activations between them are laid out in `region` by
    /// [`ExecPlan::walk_len`]'s rule: the one held at one end, the next
    /// written at the other, the step's scratch the gap between; a ReLU
    /// rectifies the one held where it is. The last output goes to `last`
    /// instead when given. Returns the last output's shape and its place
    /// in `region` (empty when it went to `last`).
    fn run_layers(
        &self,
        plan: &ExecPlan,
        (shape, data): (&[usize], &[f32]),
        layers: Range<usize>,
        region: &mut [f32],
        mut last: Option<&mut [f32]>,
    ) -> Result<(Vec<usize>, Range<usize>), NnError> {
        let final_step = plan.last_step(layers.clone());
        let total = region.len();
        // The activation the walk holds: its shape and its place.
        let mut held: Option<(Vec<usize>, Range<usize>)> = None;
        for i in layers {
            let (layer, step) = (&self.layers[i], &plan.steps[i]);
            if matches!(step, Step::Fused) {
                continue;
            }
            let scope = pcnn_profile::layer_scope(i, layer.kind());
            let dest = if Some(i) == final_step {
                last.take()
            } else {
                None
            };
            if let (Layer::Relu, Some((_, at)), None) = (layer, &held, &dest) {
                relu(None, &mut region[at.clone()]);
                drop(scope);
                continue;
            }
            // The output goes to the end the held input is not at; the
            // first, its input elsewhere, to the back, so the first conv's
            // scratch starts where the region does. (Its packed `B` carved
            // 2.4 KB into a page instead gathered ~20 % slower on AlexNet's
            // conv1.)
            let (x_shape, x, free, front) = match &held {
                None => (shape, data, &mut region[..], false),
                Some((s, at)) if at.start == 0 => {
                    let (x, free) = region.split_at_mut(lines(at.end));
                    (&s[..], &x[..at.end], free, false)
                }
                Some((s, at)) => {
                    let (free, x) = region.split_at_mut(at.start);
                    (&s[..], &x[..at.len()], free, true)
                }
            };
            let to_last = dest.is_some();
            let new_out = |len: usize| match dest {
                Some(rows) if rows.len() == len => Ok((rows, free)),
                None if lines(len) <= free.len() => {
                    let (out, scratch) = if front {
                        free.split_at_mut(lines(len))
                    } else {
                        let (scratch, out) = free.split_at_mut(free.len() - lines(len));
                        (out, scratch)
                    };
                    Ok((&mut out[..len], scratch))
                }
                _ => Err(NnError::Plan(format!(
                    "layer {i}'s {len}-float output does not fit the workspace its plan laid out"
                ))),
            };
            let (out_shape, out) = layer.run_step(x_shape, x, step, new_out)?;
            let len = out.len();
            let at = match (to_last, front) {
                (true, _) => 0..0,
                (false, true) => 0..len,
                (false, false) => total - lines(len)..total - lines(len) + len,
            };
            held = Some((out_shape, at));
            drop(scope);
        }
        Ok(held.expect("a range of at least one layer"))
    }

    /// Training-mode forward pass (never perforated) that records every
    /// activation and cache. `seed` drives the dropout masks — pass a
    /// fresh value per optimisation step.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn forward_train(&self, input: &Tensor, seed: u64) -> Result<ForwardTrace, NnError> {
        let mut activations = vec![input.clone()];
        let mut caches = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let (out, cache) = layer.forward_train(
                activations.last().expect("nonempty"),
                seed.wrapping_add(li as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15),
            )?;
            activations.push(out);
            caches.push(cache);
        }
        Ok(ForwardTrace {
            activations,
            caches,
        })
    }

    /// Shape-level [`NetworkSpec`] of this runnable network, for the
    /// analytical time/resource models.
    pub fn spec(&self) -> NetworkSpec {
        let mut layers = Vec::new();
        let mut conv_idx = 0;
        let mut pool_idx = 0;
        let mut fc_idx = 0;
        // Track the running activation shape.
        let [mut c, mut h, mut w] = self.input_shape;
        for layer in &self.layers {
            match layer {
                Layer::Conv2d(conv) => {
                    conv_idx += 1;
                    let g = conv.geometry();
                    layers.push(LayerSpec::Conv(ConvSpec::new(
                        &format!("CONV{conv_idx}"),
                        conv.out_channels(),
                        g.kernel,
                        g.in_channels,
                        g.out_w,
                        g.out_h,
                        g.stride,
                        g.pad,
                        1,
                    )));
                    c = conv.out_channels();
                    h = g.out_h;
                    w = g.out_w;
                }
                Layer::MaxPool2d(p) => {
                    pool_idx += 1;
                    h = (h - p.kernel) / p.stride + 1;
                    w = (w - p.kernel) / p.stride + 1;
                    layers.push(LayerSpec::Pool(PoolSpec {
                        name: format!("POOL{pool_idx}"),
                        channels: c,
                        w_o: w,
                        h_o: h,
                    }));
                }
                Layer::Linear(l) => {
                    fc_idx += 1;
                    layers.push(LayerSpec::Fc(FcSpec {
                        name: format!("FC{fc_idx}"),
                        in_features: l.in_features(),
                        out_features: l.out_features(),
                    }));
                }
                Layer::Relu | Layer::Flatten | Layer::Dropout(_) => {}
            }
        }
        NetworkSpec {
            name: self.name.clone(),
            input_elems: self.input_shape.iter().product(),
            layers,
        }
    }
}

/// The logits, copied out of the workspace for the caller to keep.
fn copy_out(shape: Vec<usize>, data: &[f32]) -> Tensor {
    Tensor::from_vec(shape, data.to_vec()).expect("an activation fills its shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_alexnet;

    #[test]
    fn forward_produces_class_logits() {
        let net = tiny_alexnet(5);
        let input = Tensor::from_fn(vec![3, 1, 32, 32], |i| (i as f32 * 0.01).sin());
        let out = net
            .forward(&input, &PerforationPlan::identity(net.conv_count()))
            .unwrap();
        assert_eq!(out.shape(), &[3, 5]);
        assert!(out.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn forward_rejects_wrong_plan_length() {
        let net = tiny_alexnet(5);
        let input = Tensor::zeros(vec![1, 1, 32, 32]);
        let err = net
            .forward(&input, &PerforationPlan::identity(99))
            .unwrap_err();
        assert!(matches!(err, NnError::Perforation(_)));
    }

    #[test]
    fn error_inside_a_prefix_group_surfaces_as_err() {
        // 8 images over 2 workers takes the batch-split path; the wrong
        // image size is only noticed by the first conv, inside each
        // group's worker. The caller must see that error — not a panic,
        // and not logits assembled from whatever groups finished.
        let net = tiny_alexnet(5);
        let input = Tensor::zeros(vec![8, 1, 30, 30]);
        let err = pcnn_parallel::with_threads(2, || {
            net.forward(&input, &PerforationPlan::identity(net.conv_count()))
        })
        .unwrap_err();
        assert!(
            matches!(&err, NnError::Shape { context, .. } if context == "Conv2d"),
            "{err}"
        );
    }

    #[test]
    fn perforated_forward_changes_but_stays_finite() {
        let net = tiny_alexnet(5);
        let input = Tensor::from_fn(vec![2, 1, 32, 32], |i| ((i * 31 % 17) as f32) / 17.0);
        let full = net
            .forward(&input, &PerforationPlan::identity(net.conv_count()))
            .unwrap();
        let plan = PerforationPlan::from_rates(vec![0.5; net.conv_count()]);
        let perf = net.forward(&input, &plan).unwrap();
        assert_eq!(full.shape(), perf.shape());
        assert!(perf.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn planned_forward_direct_is_bitwise_identical() {
        let net = tiny_alexnet(5);
        let input = Tensor::from_fn(vec![2, 1, 32, 32], |i| ((i * 13 % 31) as f32) / 31.0 - 0.5);
        let identity = PerforationPlan::identity(net.conv_count());
        let base = net.forward(&input, &identity).unwrap();
        let direct = net
            .forward_planned(
                &input,
                &identity,
                &ConvPlan::from_algos(vec![ConvAlgo::Direct; net.conv_count()]),
            )
            .unwrap();
        assert_eq!(base, direct);
    }

    #[test]
    fn planned_forward_winograd_is_close_and_baseline_plan_exact() {
        let net = tiny_alexnet(5);
        let input = Tensor::from_fn(vec![1, 1, 32, 32], |i| ((i * 7 % 19) as f32) / 19.0 - 0.5);
        let identity = PerforationPlan::identity(net.conv_count());
        let base = net.forward(&input, &identity).unwrap();
        let im2col_plan = ConvPlan::im2col(net.conv_count());
        assert_eq!(
            base,
            net.forward_planned(&input, &identity, &im2col_plan)
                .unwrap()
        );
        let wino = net
            .forward_planned(
                &input,
                &identity,
                &ConvPlan::from_algos(vec![ConvAlgo::Winograd; net.conv_count()]),
            )
            .unwrap();
        for (a, b) in base.data().iter().zip(wino.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn planned_forward_rejects_bad_plan() {
        let net = tiny_alexnet(5);
        let input = Tensor::zeros(vec![1, 1, 32, 32]);
        let err = net
            .forward_planned(
                &input,
                &PerforationPlan::identity(net.conv_count()),
                &ConvPlan::im2col(net.conv_count() + 2),
            )
            .unwrap_err();
        assert!(matches!(err, NnError::Plan(_)));
    }

    #[test]
    fn forward_train_records_all_activations() {
        let net = tiny_alexnet(4);
        let input = Tensor::zeros(vec![1, 1, 32, 32]);
        let trace = net.forward_train(&input, 1).unwrap();
        assert_eq!(trace.activations.len(), net.layers().len() + 1);
        assert_eq!(trace.caches.len(), net.layers().len());
        assert_eq!(trace.logits().shape(), &[1, 4]);
    }

    #[test]
    fn spec_reflects_structure() {
        let net = tiny_alexnet(6);
        let spec = net.spec();
        assert_eq!(spec.conv_layers().len(), net.conv_count());
        assert!(spec.total_flops() > 0);
    }
}
