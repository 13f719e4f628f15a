//! Every reference to a repository API lives in this file: the network
//! builders, the operations, the output checks that need repository types
//! and the harness-side spans around each call into a crate. The rest of
//! the harness sees only [`Case`], [`Output`] and [`Check`], so a changed
//! signature in the repository is a change to this file alone.

use std::time::Instant;

use pcnn_bench::baselines::{FleetScenario, ServeScenario};
use pcnn_core::offline::gemm_layers_perforated;
use pcnn_core::prelude::{simulate_schedule, OfflineCompiler};
use pcnn_core::timemodel::opt_sm;
use pcnn_core::tune::{ConvTuner, WallClockTimer};
use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::DispatchPolicy;
use pcnn_kernels::sgemm::build_kernel;
use pcnn_kernels::tune_kernel_candidates;
use pcnn_nn::layer::{Conv2d, Linear, MaxPool2d};
use pcnn_nn::perforation::LayerPerforation;
use pcnn_nn::{ConvPlan, Layer, Network, PerforationPlan};
use pcnn_serve::{CostOracle, DegradationLadder, Platform, RouterPolicy, ServeReport};
use pcnn_tensor::{
    conv2d_direct, conv2d_winograd, gemm, gemm_bias, gemm_nt, im2col, im2col_positions,
    Conv2dGeometry, ConvAlgo, Tensor,
};

pub use pcnn_telemetry::json::{parse as parse_json, write_escaped, JsonValue};

use crate::alloc;
use crate::measure::{repeat, Probe};
use crate::reference::{self, ConvDims};
use crate::stats::{median, percentile_with_ten_beyond};
use crate::trace::{durations_ms, self_ms_per_op, Tracer};

/// The committed report of the canonical serving scenario at seed 42.
const BENCH_SERVE_JSON: &str = include_str!("../../BENCH_serve.json");
const BENCH_SERVE_SEED: u64 = 42;
/// Largest difference between the engine's logits and a reference's, as a
/// share of the largest reference logit.
const LOGIT_TOLERANCE: f64 = 1e-3;

/// `W`: the pool width of the workloads that use the pool.
pub fn machine_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn set_width(w: usize) {
    pcnn_parallel::set_threads(w);
}

/// What one operation produced.
pub struct Output {
    /// The bytes every later operation must reproduce: the logits, or the
    /// serving report's JSON.
    pub bytes: Vec<u8>,
    /// Images the operation processed (served or refused, when simulated).
    pub images: usize,
    /// The operation's own invariant: finite logits, conserved images.
    pub ok: bool,
    /// Simulated outcomes of the operation, by end-to-end metric name.
    pub outcome: Vec<(&'static str, f64)>,
}

/// A check of the first operation's output against a reference.
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

pub enum Case {
    Engine(Box<Engine>),
    Serve(Serve),
}

pub struct Engine {
    net: Network,
    input: Tensor,
    perforation: PerforationPlan,
    /// `Some`: the operation is `forward_planned` under this plan.
    plan: Option<ConvPlan>,
    width: usize,
    tuner_s: f64,
    /// Whether the naive reference is affordable (AlexNet: yes).
    naive_reference: bool,
}

pub struct Serve {
    scenario: ServeScenario,
    width: usize,
    canonical: bool,
}

impl Case {
    /// Builds the workload's inputs from the seed and sets the pool width
    /// its operations run at.
    pub fn build(workload: &str, seed: u64, smoke: bool) -> Result<Case, String> {
        let engine = |net: Network,
                      batch: usize,
                      rung: Option<usize>,
                      width: usize,
                      naive_reference: bool| {
            set_width(width);
            let perforation = match rung {
                Some(r) => {
                    let ladder = DegradationLadder::default_ladder(net.conv_count());
                    PerforationPlan::from_rates(ladder.levels[r].rates.clone())
                }
                None => PerforationPlan::identity(net.conv_count()),
            };
            let t0 = Instant::now();
            let plan = rung.is_none().then(|| conv_plan(&net, smoke));
            Case::Engine(Box::new(Engine {
                input: input(&net, batch, seed),
                perforation,
                plan,
                width,
                tuner_s: t0.elapsed().as_secs_f64(),
                naive_reference,
                net,
            }))
        };
        Ok(match workload {
            "alexnet_b1" => engine(alexnet(seed), 1, None, 1, true),
            "vgg16_b1" => engine(vgg16(seed), 1, None, 1, false),
            "alexnet_b8_rung2" => engine(alexnet(seed), 8, Some(2), machine_width(), true),
            "serve_mixed" => {
                let width = machine_width();
                set_width(width);
                let base = if smoke {
                    // A quarter of the batch sizes: the oracle fills a key
                    // per ladder level and batch size that traffic reaches.
                    ServeScenario {
                        max_batch: 4,
                        ..ServeScenario::smoke()
                    }
                } else {
                    ServeScenario::canonical()
                };
                Case::Serve(Serve {
                    scenario: ServeScenario { seed, ..base },
                    width,
                    canonical: !smoke,
                })
            }
            other => return Err(format!("unknown workload {other}")),
        })
    }

    pub fn width(&self) -> usize {
        match self {
            Case::Engine(e) => e.width,
            Case::Serve(s) => s.width,
        }
    }

    /// What set-up decided, for the run's log.
    pub fn summary(&self) -> String {
        match self {
            Case::Engine(e) => match &e.plan {
                Some(plan) => {
                    let algos: Vec<&str> = plan.algos().iter().map(|a| a.name()).collect();
                    format!("plan {}", algos.join(" "))
                }
                None => "no plan: perforated layers run im2col".to_string(),
            },
            Case::Serve(s) if s.canonical => "canonical scenario".to_string(),
            Case::Serve(_) => "smoke scenario".to_string(),
        }
    }

    /// One operation, untraced.
    pub fn op(&self) -> Result<Output, String> {
        match self {
            Case::Engine(e) => e.op(),
            Case::Serve(s) => s.op(),
        }
    }

    /// Checks the first operation's output against references that do not
    /// come from the code path it ran.
    pub fn verify(&self, first: &Output) -> Result<Vec<Check>, String> {
        match self {
            Case::Engine(e) => e.verify(first),
            Case::Serve(s) => Ok(s.verify(first)),
        }
    }

    /// Fills `probe` with the per-layer metrics of this workload.
    pub fn per_layer(&self, probe: &mut Probe, first: &Output) -> Result<(), String> {
        probe.set("parallel.width", machine_width() as f64);
        probe.set("parallel.region_overhead_us", region_overhead_us());
        match self {
            Case::Engine(e) => e.per_layer(probe, first),
            Case::Serve(s) => s.per_layer(probe, first),
        }
    }
}

// ---------------------------------------------------------------- inputs

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1)` from a hash of `(stream, i)`.
fn unit(stream: u64, i: usize) -> f32 {
    let h = mix(stream.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15)));
    (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn hashed(len: usize, scale: f32, stream: u64) -> Vec<f32> {
    (0..len).map(|i| scale * unit(stream, i)).collect()
}

/// Stacks layers while tracking the activation shape. Weights are a hash
/// of `(seed, layer, index)` scaled to the He variance `2 / fan_in`, which
/// keeps activations in range through 16 layers: `Conv2d::new` and
/// `Linear::new` draw Box-Muller normals, 11 s for AlexNet's 62 M weights.
struct Stack {
    seed: u64,
    layers: Vec<Layer>,
    channels: usize,
    side: usize,
}

impl Stack {
    fn weights(&self, rows: usize, fan_in: usize) -> (Tensor, Vec<f32>) {
        let stream = mix(self.seed ^ ((self.layers.len() as u64 + 1) << 32));
        let w = hashed(rows * fan_in, (6.0 / fan_in as f32).sqrt(), stream);
        let weight = Tensor::from_vec(vec![rows, fan_in], w).expect("length is rows * fan_in");
        (weight, hashed(rows, 0.01, stream ^ 1))
    }

    fn conv(&mut self, out: usize, kernel: usize, stride: usize, pad: usize) {
        let g = Conv2dGeometry::new(self.channels, self.side, self.side, kernel, stride, pad);
        let (weight, bias) = self.weights(out, g.patch_len());
        self.layers
            .push(Layer::Conv2d(Conv2d::from_parts(g, out, weight, bias)));
        self.layers.push(Layer::Relu);
        (self.channels, self.side) = (out, g.out_h);
    }

    fn pool(&mut self, kernel: usize, stride: usize) {
        self.layers
            .push(Layer::MaxPool2d(MaxPool2d::new(kernel, stride)));
        self.side = (self.side - kernel) / stride + 1;
    }

    fn flatten(&mut self) {
        self.layers.push(Layer::Flatten);
        (self.channels, self.side) = (self.channels * self.side * self.side, 1);
    }

    fn fc(&mut self, out: usize, relu: bool) {
        let (weight, bias) = self.weights(out, self.channels);
        self.layers
            .push(Layer::Linear(Linear::from_parts(weight, bias)));
        if relu {
            self.layers.push(Layer::Relu);
        }
        self.channels = out;
    }
}

/// One-tower AlexNet: 227x227 input, 5 conv / 3 pool / 3 FC, 62 M weights.
fn alexnet(seed: u64) -> Network {
    let mut s = Stack {
        seed,
        layers: Vec::new(),
        channels: 3,
        side: 227,
    };
    s.conv(96, 11, 4, 0);
    s.pool(3, 2);
    s.conv(256, 5, 1, 2);
    s.pool(3, 2);
    s.conv(384, 3, 1, 1);
    s.conv(384, 3, 1, 1);
    s.conv(256, 3, 1, 1);
    s.pool(3, 2);
    s.flatten();
    s.fc(4096, true);
    s.fc(4096, true);
    s.fc(1000, false);
    Network::new("AlexNet", [3, 227, 227], s.layers)
}

/// The VGG-16 conv stack (13 conv 3x3 / 5 pool) with a 25088 -> 1000 head.
fn vgg16(seed: u64) -> Network {
    let mut s = Stack {
        seed,
        layers: Vec::new(),
        channels: 3,
        side: 224,
    };
    for (convs, out) in [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)] {
        for _ in 0..convs {
            s.conv(out, 3, 1, 1);
        }
        s.pool(2, 2);
    }
    s.flatten();
    s.fc(1000, false);
    Network::new("VGG16", [3, 224, 224], s.layers)
}

fn input(net: &Network, batch: usize, seed: u64) -> Tensor {
    let [c, h, w] = net.input_shape();
    let data = hashed(batch * c * h * w, 1.0, mix(seed ^ 0x1234_ABCD));
    Tensor::from_vec(vec![batch, c, h, w], data).expect("length is the shape's product")
}

/// The conv plan the operation runs under: the tuner's choice, or for a
/// smoke run Winograd wherever it applies (what the tuner picks on large
/// maps) without the seconds of timing.
fn conv_plan(net: &Network, smoke: bool) -> ConvPlan {
    if !smoke {
        return ConvTuner::new(WallClockTimer::new(1))
            .tune_network(net)
            .plan();
    }
    let algos = net.layers().iter().filter_map(|l| match l {
        Layer::Conv2d(c) if ConvAlgo::Winograd.supports(c.geometry()) => Some(ConvAlgo::Winograd),
        Layer::Conv2d(_) => Some(ConvAlgo::Im2col),
        _ => None,
    });
    ConvPlan::from_algos(algos.collect())
}

// ---------------------------------------------------------------- engine

fn logits_bytes(logits: &[f32]) -> Vec<u8> {
    logits.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn bytes_logits(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("chunks of four")))
        .collect()
}

fn span_name(layer: &Layer) -> &'static str {
    match layer {
        Layer::Conv2d(_) => "nn.conv",
        Layer::Relu => "nn.relu",
        Layer::MaxPool2d(_) => "nn.maxpool",
        Layer::Flatten => "nn.flatten",
        Layer::Linear(_) => "nn.linear",
        Layer::Dropout(_) => "nn.dropout",
    }
}

impl Engine {
    fn batch(&self) -> usize {
        self.input.shape()[0]
    }

    fn forward(&self) -> Result<Tensor, String> {
        match &self.plan {
            Some(plan) => self
                .net
                .forward_planned(&self.input, &self.perforation, plan),
            None => self.net.forward(&self.input, &self.perforation),
        }
        .map_err(|e| e.to_string())
    }

    fn op(&self) -> Result<Output, String> {
        let logits = self.forward()?;
        Ok(Output {
            bytes: logits_bytes(logits.data()),
            images: self.batch(),
            ok: logits.data().iter().all(|v| v.is_finite()),
            outcome: Vec::new(),
        })
    }

    /// Per layer, the perforation (conv layers at a rate above 0) and the
    /// algorithm, as `Network::forward_planned` derives them.
    fn layer_modes(&self) -> Vec<(Option<LayerPerforation>, ConvAlgo)> {
        let mut ci = 0;
        self.net
            .layers()
            .iter()
            .map(|layer| {
                let Layer::Conv2d(c) = layer else {
                    return (None, ConvAlgo::Im2col);
                };
                let (rate, algo) = (
                    self.perforation.rate(ci),
                    self.plan.as_ref().map_or(ConvAlgo::Im2col, |p| p.algo(ci)),
                );
                ci += 1;
                let g = c.geometry();
                let perf = (rate > 0.0).then(|| LayerPerforation::new(g.out_h, g.out_w, rate, 1));
                (perf, algo)
            })
            .collect()
    }

    /// The engine's serial layer pipeline made from the harness, a span
    /// around each layer. `full` runs every conv layer unperforated
    /// through im2col under the span name `nn.conv_full`.
    fn walk(
        &self,
        tracer: &mut Tracer,
        modes: &[(Option<LayerPerforation>, ConvAlgo)],
        full: bool,
    ) -> Result<Tensor, String> {
        let mut x = self.input.clone();
        for (layer, (perf, algo)) in self.net.layers().iter().zip(modes) {
            let (name, perf, algo) = match layer {
                Layer::Conv2d(_) if full => ("nn.conv_full", None, ConvAlgo::Im2col),
                _ => (span_name(layer), perf.as_ref(), *algo),
            };
            let id = tracer.enter(name);
            let out = layer.forward_algo(&x, perf, algo);
            tracer.exit(id);
            x = out.map_err(|e| e.to_string())?.0;
        }
        Ok(x)
    }

    fn verify(&self, first: &Output) -> Result<Vec<Check>, String> {
        let got = bytes_logits(&first.bytes);
        let check = |name, reference: &[f32], got: &[f32]| {
            let diff = reference::max_rel_diff(got, reference);
            Check {
                name,
                passed: diff <= LOGIT_TOLERANCE,
                detail: format!("largest difference {diff:.2e} of the largest logit, limit {LOGIT_TOLERANCE:.0e}"),
            }
        };
        // The default path at width 1: im2col everywhere, no batch split.
        set_width(1);
        let default = self.net.forward(&self.input, &self.perforation);
        set_width(self.width);
        let default = default.map_err(|e| e.to_string())?;
        let mut checks = vec![check("default-im2col forward", default.data(), &got)];
        if self.naive_reference {
            // The last image: in a split batch another worker ran it than
            // image 0.
            let image = self.batch() - 1;
            let classes = self.net.num_classes();
            let naive = self.naive_forward(image);
            checks.push(check(
                "naive reference",
                &naive,
                &got[image * classes..(image + 1) * classes],
            ));
        }
        Ok(checks)
    }

    /// Forward of one image through [`reference`]'s loops. A perforated
    /// layer computes the kept positions and fills each position from the
    /// stencil its `LayerPerforation` defines (paper Fig. 11).
    fn naive_forward(&self, image: usize) -> Vec<f32> {
        let [mut c, mut h, mut w] = self.net.input_shape();
        let mut x = self.input.batch_item(image).to_vec();
        for (layer, (perf, _)) in self.net.layers().iter().zip(self.layer_modes()) {
            match layer {
                Layer::Conv2d(conv) => {
                    let g = conv.geometry();
                    let d = ConvDims {
                        in_c: g.in_channels,
                        in_h: g.in_h,
                        in_w: g.in_w,
                        kernel: g.kernel,
                        stride: g.stride,
                        pad: g.pad,
                        out_c: conv.out_channels(),
                        out_h: g.out_h,
                        out_w: g.out_w,
                    };
                    let (weight, bias) = conv.params();
                    let mut y = reference::conv(&d, weight.data(), bias, &x);
                    if let Some(p) = perf {
                        let kept = p.kept_positions();
                        for map in y.chunks_mut(g.out_positions()) {
                            let sampled: Vec<f32> = kept.iter().map(|&pos| map[pos]).collect();
                            for (pos, v) in map.iter_mut().enumerate() {
                                let sources = p.interpolation_sources(pos);
                                let sum: f32 = sources.iter().map(|&i| sampled[i as usize]).sum();
                                *v = sum / sources.len() as f32;
                            }
                        }
                    }
                    (x, c, h, w) = (y, d.out_c, d.out_h, d.out_w);
                }
                Layer::Relu => reference::relu(&mut x),
                Layer::MaxPool2d(p) => {
                    (x, h, w) = reference::maxpool(c, h, w, p.kernel, p.stride, &x);
                }
                Layer::Linear(l) => {
                    let (weight, bias) = l.params();
                    x = reference::linear(weight.data(), bias, &x);
                }
                Layer::Flatten | Layer::Dropout(_) => {}
            }
        }
        x
    }

    fn per_layer(&self, probe: &mut Probe, first: &Output) -> Result<(), String> {
        let result = self.per_layer_at_width_1(probe, first);
        pcnn_telemetry::set_enabled(false);
        pcnn_profile::set_enabled(false);
        set_width(self.width);
        result
    }

    fn per_layer_at_width_1(&self, probe: &mut Probe, first: &Output) -> Result<(), String> {
        let slice = probe.slice_s;
        let counted_op = |probe: &mut Probe| -> Result<(), String> {
            let out = self.op()?;
            probe.count(out.ok && out.bytes == first.bytes);
            Ok(())
        };
        probe.set("core.conv_tuner_s", self.tuner_s);
        probe.set("nn.peak_live_mb", probe.cold_peak_live_mb);

        // Whole forwards at width 1: what the layer walk has to add up to.
        set_width(1);
        let whole = repeat(1.5 * slice, 2, || counted_op(probe))?;
        let whole_p50 = median(&whole);
        probe.set("harness.op_p50_ms", whole_p50);
        probe.set("harness.op_samples", whole.len() as f64);
        probe.set(
            "harness.op_min_ms",
            whole.iter().copied().fold(f64::INFINITY, f64::min),
        );
        if let Some(p90) = percentile_with_ten_beyond(&whole, 0.90) {
            probe.set("harness.op_p90_ms", p90);
        }

        // The same forwards, layer by layer under spans, allocations counted.
        let modes = self.layer_modes();
        let first_logits = bytes_logits(&first.bytes);
        alloc::start();
        let walks = repeat(1.5 * slice, 2, || {
            probe.tracer.next_op();
            let id = probe.tracer.enter("op");
            let logits = self.walk(&mut probe.tracer, &modes, false);
            probe.tracer.exit(id);
            probe.count(logits?.data() == first_logits);
            Ok::<(), String>(())
        });
        let allocs = alloc::stop();
        let walks = walks?;
        let ops = walks.len() as f64;
        let spans = probe.tracer.spans();
        let layer_ms = |name| {
            let per_op = self_ms_per_op(spans, name);
            if per_op.is_empty() {
                0.0
            } else {
                median(&per_op)
            }
        };
        let conv_ms = layer_ms("nn.conv");
        let op_self = self_ms_per_op(spans, "op");
        let layers: Vec<f64> = walks
            .iter()
            .zip(&op_self)
            .map(|(op, own)| op - own)
            .collect();
        let relu_ms = layer_ms("nn.relu");
        let maxpool_ms = layer_ms("nn.maxpool");
        let linear_ms = layer_ms("nn.linear");
        probe.set("nn.conv_ms", conv_ms);
        probe.set("nn.relu_ms", relu_ms);
        probe.set("nn.maxpool_ms", maxpool_ms);
        probe.set("nn.linear_ms", linear_ms);
        probe.set("nn.layers_cover", median(&layers) / whole_p50);
        probe.set("harness.traced_ops", ops);
        probe.set("harness.trace_overhead_ratio", median(&walks) / whole_p50);
        probe.set("nn.alloc_calls_per_op", allocs.calls as f64 / ops);
        probe.set("nn.alloc_mb_per_op", allocs.bytes as f64 / ops / 1e6);

        // Each conv and FC shape replayed through the public kernels.
        let chosen_kernel_ms = self.replay_kernels(probe, &modes)?;
        probe.set("nn.conv_self_ms", conv_ms - chosen_kernel_ms);

        if !self.perforation.is_identity() {
            probe.tracer.next_op();
            let id = probe.tracer.enter("full_conv_walk");
            let full = self.walk(&mut probe.tracer, &modes, true);
            probe.tracer.exit(id);
            full?;
            let full_ms: f64 = self_ms_per_op(probe.tracer.spans(), "nn.conv_full")
                .iter()
                .sum();
            let flops: Vec<u64> = self.net.layers().iter().filter_map(conv_flops).collect();
            let retained = self.perforation.retained_flops_fraction(&flops);
            probe.set("nn.perforated_conv_ms", conv_ms);
            probe.set("nn.perforation_efficiency", retained / (conv_ms / full_ms));
        }

        // Width W against width 1: kernel-split at batch 1, batch-split above.
        let w = machine_width();
        if w > 1 {
            set_width(w);
            let wide = repeat(slice, 2, || counted_op(probe))?;
            set_width(1);
            probe.set("parallel.forward_speedup", whole_p50 / median(&wide));
        } else {
            probe.set("parallel.forward_speedup", 1.0);
        }

        // The repository's own instrumentation switched on.
        pcnn_telemetry::set_enabled(true);
        let traced = repeat(0.5 * slice, 1, || counted_op(probe));
        pcnn_telemetry::set_enabled(false);
        pcnn_telemetry::reset();
        probe.set("telemetry.on_ratio", median(&traced?) / whole_p50);
        pcnn_profile::set_enabled(true);
        let profiled = repeat(0.5 * slice, 1, || counted_op(probe));
        pcnn_profile::set_enabled(false);
        pcnn_profile::reset();
        probe.set("profile.on_ratio", median(&profiled?) / whole_p50);
        Ok(())
    }

    /// Times the public kernels on every conv and FC shape of the network
    /// (one image; conv totals are scaled by the batch) and returns the
    /// time of the kernels each conv layer's own mode uses.
    fn replay_kernels(
        &self,
        probe: &mut Probe,
        modes: &[(Option<LayerPerforation>, ConvAlgo)],
    ) -> Result<f64, String> {
        let batch = self.batch();
        let tr = &mut probe.tracer;
        let (mut gemm_flops, mut im2col_bytes) = (0.0, 0.0);
        let mut chosen = Vec::new();
        repeat(probe.slice_s, 1, || {
            tr.next_op();
            let replay = tr.enter("replay");
            (gemm_flops, im2col_bytes) = (0.0, 0.0);
            let mut chosen_ms = 0.0;
            for (layer, (perf, algo)) in self.net.layers().iter().zip(modes) {
                match layer {
                    Layer::Conv2d(conv) => {
                        let g = conv.geometry();
                        let (oc, k, n_pos) =
                            (conv.out_channels(), g.patch_len(), g.out_positions());
                        let (weight, bias) = conv.params();
                        let x = hashed(g.in_channels * g.in_h * g.in_w, 1.0, 7);
                        // Filled, not zeroed: zeroed pages would be faulted in inside the
                        // timed kernels.
                        let mut y = vec![0.5f32; oc * n_pos];
                        let kept = perf.as_ref().map(|p| p.kept_positions());
                        let n = kept.map_or(n_pos, <[usize]>::len);
                        let mut cols = vec![0.5f32; k * n];
                        let ((), lower_ms) = tr.time("tensor.im2col", || match kept {
                            Some(kept) => im2col_positions(g, &x, kept, &mut cols),
                            None => im2col(g, &x, &mut cols),
                        });
                        let ((), gemm_ms) = tr.time("tensor.gemm", || match kept {
                            Some(_) => gemm(oc, n, k, weight.data(), &cols, &mut y),
                            None => gemm_bias(oc, n, k, weight.data(), &cols, bias, &mut y),
                        });
                        gemm_flops += 2.0 * (oc * n * k) as f64;
                        im2col_bytes += 4.0 * (x.len() + cols.len()) as f64;
                        let direct_ms = tr
                            .time("tensor.direct", || {
                                conv2d_direct(g, oc, weight.data(), bias, &x, &mut y)
                            })
                            .1;
                        let winograd_ms = ConvAlgo::Winograd.supports(g).then(|| {
                            tr.time("tensor.winograd", || {
                                conv2d_winograd(g, oc, weight.data(), bias, &x, &mut y)
                            })
                            .1
                        });
                        chosen_ms += batch as f64
                            * match (kept, *algo) {
                                (Some(_), _) | (None, ConvAlgo::Im2col) => lower_ms + gemm_ms,
                                (None, ConvAlgo::Direct) => direct_ms,
                                (None, ConvAlgo::Winograd) => {
                                    winograd_ms.expect("the plan was validated")
                                }
                            };
                    }
                    Layer::Linear(l) => {
                        let (weight, _) = l.params();
                        let x = hashed(batch * l.in_features(), 1.0, 7);
                        let mut y = vec![0.5f32; batch * l.out_features()];
                        tr.time("tensor.gemm_nt", || {
                            gemm_nt(
                                batch,
                                l.out_features(),
                                l.in_features(),
                                &x,
                                weight.data(),
                                &mut y,
                            )
                        });
                    }
                    _ => {}
                }
            }
            tr.exit(replay);
            chosen.push(chosen_ms);
            Ok::<(), String>(())
        })?;
        let spans = probe.tracer.spans();
        let kernel_ms = |name| median(&self_ms_per_op(spans, name));
        let conv_scale = batch as f64;
        let gemm_ms = kernel_ms("tensor.gemm");
        let im2col_ms = kernel_ms("tensor.im2col");
        let winograd = self_ms_per_op(spans, "tensor.winograd");
        let values = [
            ("tensor.gemm_ms", conv_scale * gemm_ms),
            ("tensor.gemm_gflops", gemm_flops / gemm_ms / 1e6),
            ("tensor.im2col_ms", conv_scale * im2col_ms),
            ("tensor.im2col_gbs", im2col_bytes / im2col_ms / 1e6),
            ("tensor.direct_ms", conv_scale * kernel_ms("tensor.direct")),
            (
                "tensor.winograd_ms",
                if winograd.is_empty() {
                    0.0
                } else {
                    conv_scale * median(&winograd)
                },
            ),
            ("tensor.gemm_nt_ms", kernel_ms("tensor.gemm_nt")),
        ];
        for (name, value) in values {
            probe.set(name, value);
        }
        Ok(median(&chosen))
    }
}

/// Multiply-add FLOPs of one image through a conv layer.
fn conv_flops(layer: &Layer) -> Option<u64> {
    let Layer::Conv2d(c) = layer else { return None };
    let g = c.geometry();
    Some(2 * (c.out_channels() * g.out_positions() * g.patch_len()) as u64)
}

/// Mean cost in microseconds of a parallel region that does nothing.
fn region_overhead_us() -> f64 {
    const REGIONS: u32 = 2000;
    let w = machine_width();
    let before = pcnn_parallel::current_threads();
    set_width(w);
    let t0 = Instant::now();
    for _ in 0..REGIONS {
        pcnn_parallel::par_for(w, 1, |range| {
            std::hint::black_box(range);
        });
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REGIONS);
    set_width(before);
    us
}

// ----------------------------------------------------------------- serve

/// The simulated outcomes a serving report is judged by.
fn outcomes(r: &ServeReport) -> Vec<(&'static str, f64)> {
    let deadline_requests: usize = r
        .workloads
        .iter()
        .filter(|w| w.deadline_s.is_some())
        .map(|w| w.requests)
        .sum();
    let interactive_p99_s = r
        .workloads
        .iter()
        .find(|w| w.kind == WorkloadKind::Interactive)
        .map_or(0.0, |w| w.latency.p99);
    let (served, degraded) = r.gpus.iter().fold((0, 0), |(s, d), g| {
        (
            s + g.images,
            d + g.images_at_level.iter().skip(1).sum::<usize>(),
        )
    });
    vec![
        // A refused or unfinished request misses its deadline.
        (
            "sim_deadline_hit_rate",
            r.fleet.deadlines_met as f64 / deadline_requests.max(1) as f64,
        ),
        ("sim_soc", r.fleet.mean_soc),
        ("sim_joules_per_image", r.fleet.joules_per_image),
        ("sim_p99_ms", interactive_p99_s * 1e3),
        ("sim_degraded_share", degraded as f64 / served.max(1) as f64),
    ]
}

impl Serve {
    fn run(&self) -> Result<ServeReport, String> {
        self.scenario.run().map_err(|e| e.to_string())
    }

    fn output(report: &ServeReport) -> Output {
        Output {
            bytes: report.to_json().into_bytes(),
            images: report.workloads.iter().map(|w| w.images).sum(),
            ok: report
                .workloads
                .iter()
                .all(|w| w.served_images + w.rejected_images == w.images),
            outcome: outcomes(report),
        }
    }

    fn op(&self) -> Result<Output, String> {
        Ok(Self::output(&self.run()?))
    }

    fn verify(&self, first: &Output) -> Vec<Check> {
        if !(self.canonical && self.scenario.seed == BENCH_SERVE_SEED) {
            return Vec::new();
        }
        let passed = first.bytes == BENCH_SERVE_JSON.as_bytes();
        vec![Check {
            name: "committed BENCH_serve.json",
            passed,
            detail: if passed {
                "byte-identical"
            } else {
                "report differs"
            }
            .to_string(),
        }]
    }

    fn per_layer(&self, probe: &mut Probe, first: &Output) -> Result<(), String> {
        let (report, run_ms) = probe.tracer.time("serve.scenario_run", || self.run());
        let report = report?;
        let out = Self::output(&report);
        probe.count(out.ok && out.bytes == first.bytes);
        probe.set("serve.run_ms", run_ms);
        probe.set("harness.op_p50_ms", run_ms);
        probe.set("harness.op_min_ms", run_ms);
        probe.set("harness.op_samples", 1.0);
        probe.set("harness.traced_ops", 1.0);
        // One span around a call of seconds: the cold run of set-up is as
        // good an untraced baseline as a second run would be.
        probe.set("harness.trace_overhead_ratio", run_ms / probe.cold_ms);
        for (name, value) in &out.outcome {
            let per_layer = crate::record::PER_LAYER
                .iter()
                .find(|m| m.0.strip_prefix("serve.") == Some(*name))
                .expect("every simulated outcome has a serve.* twin");
            probe.set(per_layer.0, *value);
        }
        let offered = out.images.max(1) as f64;
        probe.set(
            "serve.rejected_share",
            report.total_rejected() as f64 / offered,
        );
        let t0 = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(report.to_json());
        }
        probe.set("serve.report_json_us", t0.elapsed().as_secs_f64() * 1e3);

        pcnn_telemetry::set_enabled(true);
        let t0 = Instant::now();
        let on = self.op();
        let on_ms = t0.elapsed().as_secs_f64() * 1e3;
        pcnn_telemetry::set_enabled(false);
        pcnn_telemetry::reset();
        let on = on?;
        probe.count(on.ok && on.bytes == first.bytes);
        probe.set("telemetry.serve_on_ratio", on_ms / run_ms);

        self.compiler_layers(probe)?;
        self.simulator_layers(probe);
        self.loop_layers(probe)
    }

    /// The cost oracle and, beneath it, the offline compiler: a sample of
    /// the `(ladder level, batch size)` keys a run fills its oracle with.
    fn compiler_layers(&self, probe: &mut Probe) -> Result<(), String> {
        const SIZES: [usize; 3] = [1, 8, 16];
        let spec = &self.scenario.net;
        let arch = self.scenario.gpus[0];
        let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
        let platforms = [Platform::new(arch, ladder.clone())];
        let tr = &mut probe.tracer;

        let mut oracle = CostOracle::new(&platforms, spec);
        let mut keys = 0;
        for level in 0..ladder.levels.len() {
            for size in SIZES {
                let (cost, _) = tr.time("serve.oracle_cost", || oracle.cost(0, level, size));
                cost.map_err(|e| e.to_string())?;
                keys += 1;
            }
        }
        let t0 = Instant::now();
        for level in 0..ladder.levels.len() {
            for size in SIZES {
                std::hint::black_box(oracle.cost(0, level, size).map_err(|e| e.to_string())?);
            }
        }
        let hit_ns = t0.elapsed().as_nanos() as f64 / keys as f64;

        let compiler = OfflineCompiler::new(arch, spec);
        for rung in &ladder.levels {
            for size in SIZES {
                let (schedule, _) = tr.time("core.compile", || {
                    compiler.try_compile_perforated(size, &rung.rates, true)
                });
                let schedule = schedule.map_err(|e| e.to_string())?;
                tr.time("core.simulate_schedule", || {
                    std::hint::black_box(simulate_schedule(arch, &schedule));
                });
            }
        }

        // Candidate enumeration over every shape the oracle can ask for.
        let max_batch = self.scenario.max_batch;
        for rung in &ladder.levels {
            for batch in 1..=max_batch {
                let layers =
                    gemm_layers_perforated(spec, batch, &rung.rates).map_err(|e| e.to_string())?;
                for (_, _, _, shape) in layers {
                    tr.time("kernels.tune_candidates", || {
                        std::hint::black_box(tune_kernel_candidates(arch, shape, 4));
                    });
                }
            }
        }

        let spans = probe.tracer.spans();
        let mean_ms = |name: &str| {
            let ms = durations_ms(spans, name);
            (ms.iter().sum::<f64>() / ms.len() as f64, ms.len() as f64)
        };
        let (oracle_ms, oracle_keys) = mean_ms("serve.oracle_cost");
        let (compile_ms, compile_calls) = mean_ms("core.compile");
        let (tune_ms, tune_calls) = mean_ms("kernels.tune_candidates");
        let values = [
            ("serve.oracle_ms", oracle_ms),
            ("serve.oracle_keys", oracle_keys),
            ("serve.oracle_hit_ns", hit_ns),
            ("core.compile_ms", compile_ms),
            ("core.compile_calls", compile_calls),
            (
                "core.simulate_schedule_ms",
                mean_ms("core.simulate_schedule").0,
            ),
            ("kernels.tune_candidates_us", tune_ms * 1e3),
            ("kernels.tune_calls", tune_calls),
        ];
        for (name, value) in values {
            probe.set(name, value);
        }
        Ok(())
    }

    /// The GPU simulator on the candidate kernels the compiler profiles
    /// for the unperforated network at batch 1 and at the batch cap, one
    /// harness-owned `SimCache` per kernel.
    fn simulator_layers(&self, probe: &mut Probe) {
        let spec = &self.scenario.net;
        let arch = self.scenario.gpus[0];
        let rates = vec![0.0; spec.conv_layers().len()];
        let (mut cycles, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let tr = &mut probe.tracer;
        for batch in [1, self.scenario.max_batch] {
            let layers =
                gemm_layers_perforated(spec, batch, &rates).expect("one rate per conv layer");
            for (_, name, _, shape) in layers {
                for tuned in tune_kernel_candidates(arch, shape, 4) {
                    let kernel = build_kernel(shape, &tuned.config, &name);
                    let mut cache = SimCache::new();
                    let mut tlps = vec![tuned.opt_tlp, tuned.opt_tlp.div_ceil(2), 1];
                    tlps.sort_unstable();
                    tlps.dedup();
                    for tlp in tlps {
                        let policy = DispatchPolicy::PrioritySm {
                            sms: opt_sm(kernel.grid.max(1), tlp, arch.n_sms),
                            tlp,
                            power_gate: true,
                        };
                        let (sim, _) = tr.time("gpu.simulate_kernel", || {
                            simulate_kernel(arch, &kernel, policy, &mut cache)
                        });
                        cycles += sim.cycles;
                    }
                    hits += cache.hits();
                    misses += cache.misses();
                }
            }
        }
        let ms = durations_ms(probe.tracer.spans(), "gpu.simulate_kernel");
        let total_ms: f64 = ms.iter().sum();
        probe.set("gpu.simulate_kernel_ms", total_ms / ms.len() as f64);
        probe.set("gpu.simulate_kernel_calls", ms.len() as f64);
        probe.set(
            "gpu.sim_mcycles_per_host_s",
            cycles as f64 / 1e6 / (total_ms / 1e3),
        );
        probe.set(
            "gpu.simcache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    /// The serving loop and the arrival generator with the oracle's share
    /// taken out: the FleetNet stream of `pcnn serve-fleet --stream` at
    /// two lengths, the difference divided by the extra requests.
    fn loop_layers(&self, probe: &mut Probe) -> Result<(), String> {
        const SHORT: usize = 200_000;
        const LONG: usize = 1_200_000;
        let fleet = FleetScenario::canonical();
        let mut stream = |n: usize, name: &'static str| -> Result<f64, String> {
            let (report, ms) = probe
                .tracer
                .time(name, || fleet.run_stream(RouterPolicy::RoundRobin, n));
            let report = report.map_err(|e| e.to_string())?;
            let w = &report.workloads[0];
            probe.count(w.served_images + w.rejected_images == n);
            Ok(ms)
        };
        let short_ms = stream(SHORT, "serve.stream_short")?;
        let long_ms = stream(LONG, "serve.stream_long")?;
        probe.set(
            "serve.loop_ns_per_req",
            (long_ms - short_ms) * 1e6 / (LONG - SHORT) as f64,
        );

        const ARRIVALS: usize = 1_000_000;
        let spec = TraceSpec::poisson(
            WorkloadKind::Interactive,
            ARRIVALS,
            900.0,
            self.scenario.seed,
        );
        let (last, ms) = probe
            .tracer
            .time("data.arrivals", || spec.arrivals().last());
        std::hint::black_box(last);
        probe.set("data.arrivals_per_s", ARRIVALS as f64 / (ms / 1e3));
        Ok(())
    }
}
