//! `pcnn bench-conv` — the per-layer convolution-algorithm benchmark
//! behind the committed `BENCH_conv.json` baseline.
//!
//! Two halves, one document:
//!
//! * A **shape sweep**: every [`BENCH_CONV_SHAPES`] layer (the real
//!   AlexNet conv tower plus three VGG 3x3 layers) measured under the
//!   im2col reference lowering and every eligible tuned algorithm
//!   ({direct, winograd}) at every [`CONV_THREAD_SWEEP`] pool width.
//!   `pcnn obs check` gates the machine-normalised `speedup_vs_im2col`
//!   ratios, never absolute GFLOP/s.
//! * A **cost-model score**: beside each tuned row's observed 1-thread
//!   ms, what the tuner's [`CostModel`] predicts for it — gated by
//!   [`crate::obs::gate_conv_model`].
//! * An **end-to-end proof**: the offline [`ConvTuner`] tunes the tiny
//!   AlexNet engine model, and the tuned plan's single-threaded
//!   best-of-`reps` forward wall time is compared against the default
//!   plan's. The gated `tuned_speedup` must not fall below parity — the
//!   tuner must never cost a real network time.
//!
//! Beside the document, on stdout only, a **perforation table**
//! ([`run_perforation_bench`]): what each AlexNet conv layer costs at the
//! degradation ladder's rates against what it costs in full — the paper's
//! `rEC` (eq. 9) as this engine achieves it.

use pcnn_core::tune::{ConvTuner, CostModel, WallClockTimer};
use pcnn_nn::layer::Conv2d;
use pcnn_nn::perforation::LayerPerforation;
use pcnn_nn::PerforationPlan;
use pcnn_serve::DegradationLadder;
use pcnn_tensor::{
    conv2d, gemm_bias, im2col, winograd_tile, Conv2dGeometry, ConvAlgo, MachinePeaks, Tensor,
};

use crate::baselines::machine_cores;
use crate::harness::best_secs;
use crate::profile::{pick_model, profile_input};

/// One benchmarked layer shape: a name and the conv geometry.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Layer label, e.g. `"ALEX_CONV1"`.
    pub name: &'static str,
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
    /// Output channels.
    pub oc: usize,
}

impl ConvShape {
    /// The shape's [`Conv2dGeometry`].
    pub fn geometry(&self) -> Conv2dGeometry {
        Conv2dGeometry::new(self.c, self.h, self.w, self.kernel, self.stride, self.pad)
    }

    /// Multiply-accumulate FLOPs of one pass (2 per MAC).
    pub fn gflop(&self) -> f64 {
        let g = self.geometry();
        2.0 * (self.oc * g.patch_len() * g.out_positions()) as f64 / 1e9
    }
}

/// The swept layer shapes: the real AlexNet conv tower (conv2 taken
/// ungrouped), VGG-16's conv1_2 and two VGG-style 3x3 stages. CONV1 is
/// strided 11x11 — Winograd-ineligible, the shape where direct's fused
/// packing wins; the stride-1 layers are Winograd's home turf (CONV2
/// through F(2x2,5x5), the 3x3 ones through F(2x2) or F(4x4)), and
/// VGG1_2 (12.8 MB maps, 64 channels) is the one whose Winograd working
/// set only fits cache a block of tile rows at a time.
pub const BENCH_CONV_SHAPES: &[ConvShape] = &[
    ConvShape {
        name: "ALEX_CONV1",
        c: 3,
        h: 227,
        w: 227,
        kernel: 11,
        stride: 4,
        pad: 0,
        oc: 96,
    },
    ConvShape {
        name: "ALEX_CONV2",
        c: 96,
        h: 27,
        w: 27,
        kernel: 5,
        stride: 1,
        pad: 2,
        oc: 256,
    },
    ConvShape {
        name: "ALEX_CONV3",
        c: 256,
        h: 13,
        w: 13,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 384,
    },
    ConvShape {
        name: "ALEX_CONV5",
        c: 384,
        h: 13,
        w: 13,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 256,
    },
    ConvShape {
        name: "VGG1_2",
        c: 64,
        h: 224,
        w: 224,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 64,
    },
    ConvShape {
        name: "VGG2_2",
        c: 128,
        h: 56,
        w: 56,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 128,
    },
    ConvShape {
        name: "VGG3_2",
        c: 256,
        h: 28,
        w: 28,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 256,
    },
];

/// The fast subset `--smoke` sweeps: one Winograd-ineligible strided
/// shape and one 3x3 stage, small enough for debug CI runs.
pub const SMOKE_CONV_SHAPES: &[ConvShape] = &[
    ConvShape {
        name: "ALEX_CONV1",
        c: 3,
        h: 63,
        w: 63,
        kernel: 11,
        stride: 4,
        pad: 0,
        oc: 32,
    },
    ConvShape {
        name: "ALEX_CONV3",
        c: 64,
        h: 13,
        w: 13,
        kernel: 3,
        stride: 1,
        pad: 1,
        oc: 96,
    },
];

/// Pool widths the sweep measures each algorithm at.
pub const CONV_THREAD_SWEEP: &[usize] = &[1, 2, 8];

/// One algorithm's measurements on one shape.
#[derive(Debug, Clone)]
pub struct AlgoRow {
    /// The algorithm.
    pub algo: ConvAlgo,
    /// Best wall seconds at each [`CONV_THREAD_SWEEP`] width.
    pub secs: Vec<f64>,
    /// Single-thread effective throughput (direct-conv FLOPs over
    /// measured seconds — Winograd's algorithmic saving shows up as
    /// *higher* effective GFLOP/s, not fewer FLOPs).
    pub gflops_1t: f64,
    /// `im2col_secs_1t / secs_1t` — the machine-normalised ratio the
    /// regression gate reads. 1.0 for im2col itself.
    pub speedup_vs_im2col_1t: f64,
    /// The tuner's predicted 1-thread seconds over the fastest probe
    /// (`None`: the im2col row).
    pub predicted_secs: Option<f64>,
    /// Median over reps of the tuner's |predicted / observed - 1|, each
    /// rep's prediction priced over that rep's probe (`None`: the im2col
    /// row) — what the conv-model gate reads.
    pub model_error: Option<f64>,
}

/// One swept shape with all its algorithm rows.
#[derive(Debug, Clone)]
pub struct ConvRow {
    /// The shape.
    pub shape: ConvShape,
    /// The im2col reference row, then one row per eligible
    /// [`ConvAlgo::TUNED`] algorithm.
    pub algos: Vec<AlgoRow>,
    /// The single-thread winner.
    pub winner: ConvAlgo,
    /// The fastest single-thread peaks probed over its reps.
    pub peaks: MachinePeaks,
}

/// The end-to-end tuned-plan proof on the tiny AlexNet engine model.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Model name.
    pub model: String,
    /// Batch size of the timed forward pass.
    pub batch: usize,
    /// Default-plan forward, best-of-`reps` single-thread wall ms.
    pub baseline_ms: f64,
    /// Tuned-plan forward, best-of-`reps` single-thread wall ms.
    pub tuned_ms: f64,
    /// `baseline_ms / tuned_ms` — the gated headline number.
    pub tuned_speedup: f64,
    /// The tuned plan, serialized (e.g. `"winograd,winograd"`).
    pub plan: String,
    /// Candidates the tuner actually timed.
    pub explored: u64,
    /// Candidates the tuner's model priced and decided untimed.
    pub predicted: u64,
    /// Candidates the tuner pruned by shape eligibility.
    pub pruned: u64,
}

/// A complete conv benchmark run.
#[derive(Debug, Clone)]
pub struct ConvBench {
    /// Per-shape sweep rows.
    pub rows: Vec<ConvRow>,
    /// The end-to-end tuned-plan result.
    pub e2e: E2eResult,
    /// Repetitions per measurement.
    pub reps: usize,
    /// Whether this was the `--smoke` subset.
    pub smoke: bool,
}

/// The tuner's deterministic operand fills, by flat index.
fn weight_fill(i: usize) -> f32 {
    ((i % 2017) as f32 - 1000.0) / 512.0
}

fn bias_fill(i: usize) -> f32 {
    (i % 7) as f32 / 8.0
}

fn input_fill(i: usize) -> f32 {
    ((i % 1999) as f32 - 999.0) / 512.0
}

/// Measures one shape under the im2col reference lowering and every
/// eligible tuned algorithm at every sweep width, and holds the tuned
/// ones' predictions to their one-thread timings rep by rep: each rep
/// probes the peaks, then times every algorithm once, each tuned one
/// priced over that probe. A row's model error is the median over reps of
/// `|predicted / observed - 1|`, so a stall caught by one probe or one
/// timing moves one sample, never the verdict. Operands are the tuner's
/// deterministic fills.
fn sweep_shape(shape: &ConvShape, reps: usize, threads: &[usize]) -> ConvRow {
    let geom = shape.geometry();
    let (k, n) = (geom.patch_len(), geom.out_positions());
    let weight: Vec<f32> = (0..shape.oc * k).map(weight_fill).collect();
    let bias: Vec<f32> = (0..shape.oc).map(bias_fill).collect();
    let input: Vec<f32> = (0..shape.c * shape.h * shape.w).map(input_fill).collect();
    let mut out = vec![0.0f32; shape.oc * n];
    let mut cols = vec![0.0f32; k * n];
    // `Im2col` names the reference row: the column matrix materialised,
    // then one GEMM with the bias (paper Fig. 2). No inference path runs
    // it; every ratio is taken against it.
    let eligible: Vec<ConvAlgo> = [ConvAlgo::Im2col]
        .into_iter()
        .chain(ConvAlgo::TUNED)
        .filter(|a| a.supports(&geom))
        .collect();
    let mut run = |algo: ConvAlgo| match algo {
        ConvAlgo::Im2col => {
            im2col(&geom, &input, &mut cols);
            gemm_bias(shape.oc, n, k, &weight, &cols, &bias, &mut out);
        }
        _ => conv2d(algo, &geom, shape.oc, &weight, &bias, &input, 1, &mut out),
    };
    let mut secs = vec![vec![f64::INFINITY; threads.len()]; eligible.len()];
    let mut errors = vec![Vec::new(); eligible.len()];
    let mut peaks = MachinePeaks {
        gflops: 0.0,
        gbs: 0.0,
    };
    pcnn_parallel::with_threads(1, || {
        // Warm once: pool scratch, page faults.
        eligible.iter().for_each(|&algo| run(algo));
        for _ in 0..reps.max(1) {
            let probe = pcnn_tensor::calibrate(3);
            (peaks.gflops, peaks.gbs) = (peaks.gflops.max(probe.gflops), peaks.gbs.max(probe.gbs));
            let model = CostModel::new(probe, pcnn_tensor::gemm_tile());
            for (i, &algo) in eligible.iter().enumerate() {
                let observed = best_secs(1, || run(algo));
                secs[i][0] = secs[i][0].min(observed);
                if algo != ConvAlgo::Im2col {
                    let predicted = model.predict(algo, &geom, shape.oc);
                    errors[i].push((predicted / observed - 1.0).abs());
                }
            }
        }
    });
    for (w, &t) in threads.iter().enumerate().skip(1) {
        for (i, &algo) in eligible.iter().enumerate() {
            secs[i][w] = pcnn_parallel::with_threads(t, || {
                run(algo); // warm once per width
                best_secs(reps, || run(algo))
            });
        }
    }
    // Priced for the document over the fastest probe.
    let model = CostModel::new(peaks, pcnn_tensor::gemm_tile());
    let im2col_1t = secs[0][0];
    let algos: Vec<AlgoRow> = eligible
        .into_iter()
        .zip(secs)
        .zip(errors.iter_mut())
        .map(|((algo, secs), errors)| {
            errors.sort_by(f64::total_cmp);
            let tuned = algo != ConvAlgo::Im2col;
            AlgoRow {
                algo,
                gflops_1t: shape.gflop() / secs[0],
                speedup_vs_im2col_1t: im2col_1t / secs[0],
                predicted_secs: tuned.then(|| model.predict(algo, &geom, shape.oc)),
                model_error: tuned.then(|| (errors[(reps - 1) / 2] + errors[reps / 2]) / 2.0),
                secs,
            }
        })
        .collect();
    let winner = algos
        .iter()
        .min_by(|a, b| a.secs[0].total_cmp(&b.secs[0]))
        .expect("at least im2col ran")
        .algo;
    ConvRow {
        shape: *shape,
        algos,
        winner,
        peaks,
    }
}

/// AlexNet's conv4, the one tower layer the sweep leaves out (it has
/// conv3's geometry and conv5's depth).
const ALEX_CONV4: ConvShape = ConvShape {
    name: "ALEX_CONV4",
    c: 384,
    h: 13,
    w: 13,
    kernel: 3,
    stride: 1,
    pad: 1,
    oc: 384,
};

/// Images per timed forward of the perforation table: one worker's group
/// of the batch-8 serving benchmark on a two-worker pool.
pub const PERFORATION_BATCH: usize = 4;

/// One layer at one ladder rung.
#[derive(Debug, Clone)]
pub struct PerforationRow {
    /// The layer.
    pub shape: ConvShape,
    /// Ladder rung (1-based; rung 0 is the unperforated network).
    pub rung: usize,
    /// Share of the layer's multiply-adds the rung keeps: kept / all
    /// positions.
    pub retained: f64,
    /// Unperforated direct `Conv2d::forward_with` (the same gather at
    /// every position), best-of-`reps` single-thread ms.
    pub full_ms: f64,
    /// `Conv2d::forward_perforated` at the rung's rate, likewise.
    pub perforated_ms: f64,
}

impl PerforationRow {
    /// Retained work over retained time: 1.0 when dropping a share of the
    /// positions drops the same share of the time.
    pub fn efficiency(&self) -> f64 {
        self.retained / (self.perforated_ms / self.full_ms)
    }
}

/// Times every AlexNet conv layer (the smoke subset's two under `smoke`)
/// in full and at the rates of every perforation rung of
/// [`DegradationLadder::default_ladder`], single-threaded, at
/// [`PERFORATION_BATCH`] images.
pub fn run_perforation_bench(reps: usize, smoke: bool) -> Vec<PerforationRow> {
    let tower: Vec<ConvShape> = if smoke {
        SMOKE_CONV_SHAPES.to_vec()
    } else {
        let mut alex: Vec<ConvShape> = BENCH_CONV_SHAPES
            .iter()
            .filter(|s| s.name.starts_with("ALEX_"))
            .copied()
            .collect();
        alex.insert(3, ALEX_CONV4);
        alex
    };
    let ladder = DegradationLadder::default_ladder(tower.len());
    let mut rows = Vec::new();
    pcnn_parallel::with_threads(1, || {
        for (li, shape) in tower.iter().enumerate() {
            let geom = shape.geometry();
            let weight = Tensor::from_fn(vec![shape.oc, geom.patch_len()], weight_fill);
            let bias = (0..shape.oc).map(bias_fill).collect();
            let conv = Conv2d::from_parts(geom, shape.oc, weight, bias);
            let input = Tensor::from_fn(
                vec![PERFORATION_BATCH, shape.c, shape.h, shape.w],
                input_fill,
            );
            let timed = |f: &dyn Fn() -> Tensor| {
                f(); // warm: pool scratch, page faults
                1e3 * best_secs(reps, || {
                    std::hint::black_box(f());
                })
            };
            let full_ms = timed(&|| {
                conv.forward_with(&input, ConvAlgo::Direct)
                    .expect("shapes match")
            });
            for (rung, level) in ladder.levels.iter().enumerate().skip(1) {
                let perf = LayerPerforation::new(geom.out_h, geom.out_w, level.rates[li], 1);
                rows.push(PerforationRow {
                    shape: *shape,
                    rung,
                    retained: 1.0 - perf.effective_rate(),
                    full_ms,
                    perforated_ms: timed(&|| {
                        conv.forward_perforated(&input, &perf)
                            .expect("shapes match")
                    }),
                });
            }
        }
    });
    rows
}

/// Batch of the end-to-end forward timing.
pub const E2E_BATCH: usize = 8;

/// Runs the tuner on the tiny AlexNet engine model and times the tuned
/// plan against the default plan, single-threaded best-of-`reps`.
///
/// # Errors
///
/// Returns the forward-pass error message on shape mismatch.
fn run_e2e(reps: usize) -> Result<E2eResult, String> {
    // The tiny-model forward is sub-millisecond, so both the tuner's
    // per-candidate timings and the end-to-end comparison need more
    // samples than the big shape sweep to keep the gated `tuned_speedup`
    // out of the noise floor.
    let reps = reps.max(20);
    let net = pick_model("alexnet").expect("alexnet is a known model");
    let report = pcnn_parallel::with_threads(1, || {
        ConvTuner::new(WallClockTimer::new(reps)).tune_network(&net)
    });
    let plan = report.plan();
    let input = profile_input(&net, E2E_BATCH);
    let perf = PerforationPlan::identity(net.conv_count());
    // Both plans are compiled once, outside the timed loop.
    let baseline = net.compile(&perf, None).map_err(|e| e.to_string())?;
    let tuned = net.compile(&perf, Some(&plan)).map_err(|e| e.to_string())?;
    let mut result = Ok(());
    // Interleave baseline and tuned rounds inside one measurement window:
    // back-to-back best-of windows see different host drift, which on a
    // sub-millisecond forward is the same order as the effect being
    // measured; interleaving lets both minima sample the same quiet
    // moments.
    let (baseline_s, tuned_s) = pcnn_parallel::with_threads(1, || {
        let mut run = |exec| {
            if let Err(e) = net.run(exec, &input) {
                result = Err(e.to_string());
            }
        };
        run(&baseline);
        run(&tuned);
        let (mut base_s, mut tuned_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            base_s = base_s.min(best_secs(1, || run(&baseline)));
            tuned_s = tuned_s.min(best_secs(1, || run(&tuned)));
        }
        (base_s, tuned_s)
    });
    result?;
    Ok(E2eResult {
        model: net.name().to_string(),
        batch: E2E_BATCH,
        baseline_ms: baseline_s * 1e3,
        tuned_ms: tuned_s * 1e3,
        tuned_speedup: baseline_s / tuned_s,
        plan: plan.serialize(),
        explored: report.explored,
        predicted: report.predicted,
        pruned: report.pruned,
    })
}

/// Runs the full conv benchmark: the shape sweep plus the end-to-end
/// tuned-plan timing. `smoke` swaps in [`SMOKE_CONV_SHAPES`] and a
/// narrower thread sweep.
///
/// # Errors
///
/// Returns the forward-pass error message if the end-to-end model run
/// fails.
pub fn run_conv_bench(reps: usize, smoke: bool) -> Result<ConvBench, String> {
    let _span = pcnn_telemetry::span!("bench.conv", smoke = u64::from(smoke));
    let (shapes, threads): (&[ConvShape], &[usize]) = if smoke {
        (SMOKE_CONV_SHAPES, &CONV_THREAD_SWEEP[..2])
    } else {
        (BENCH_CONV_SHAPES, CONV_THREAD_SWEEP)
    };
    let rows = shapes
        .iter()
        .map(|s| sweep_shape(s, reps, threads))
        .collect();
    let e2e = run_e2e(reps)?;
    Ok(ConvBench {
        rows,
        e2e,
        reps,
        smoke,
    })
}

/// Renders the `BENCH_conv.json` document — the same bytes `pcnn
/// bench-conv --json` writes and `pcnn obs check` regenerates. The
/// top-level `kernel` is the GEMM kernel every algorithm ran on
/// ([`pcnn_tensor::kernel_tier`]; a shape's own `kernel` is its filter
/// size).
pub fn conv_json(bench: &ConvBench, threads: &[usize]) -> String {
    let shapes: Vec<String> = bench
        .rows
        .iter()
        .map(|r| {
            let s = &r.shape;
            let algos: Vec<String> = r
                .algos
                .iter()
                .map(|a| {
                    let secs: Vec<String> = threads
                        .iter()
                        .zip(&a.secs)
                        .map(|(t, s)| format!("{{\"threads\": {t}, \"ms\": {:.4}}}", s * 1e3))
                        .collect();
                    let predicted = a
                        .predicted_secs
                        .zip(a.model_error)
                        .map(|(p, e)| {
                            format!(
                                "\"predicted_ms\": {:.4}, \"model_error\": {e:.4}, ",
                                p * 1e3
                            )
                        })
                        .unwrap_or_default();
                    let tile = winograd_tile_ran(a.algo, s)
                        .map(|t| format!("\"tile\": {t}, "))
                        .unwrap_or_default();
                    format!(
                        concat!(
                            "{{\"algo\": \"{}\", {}\"gflops_1t\": {:.3}, ",
                            "\"speedup_vs_im2col_1t\": {:.3}, {}\"sweep\": [{}]}}"
                        ),
                        a.algo.name(),
                        tile,
                        a.gflops_1t,
                        a.speedup_vs_im2col_1t,
                        predicted,
                        secs.join(", ")
                    )
                })
                .collect();
            format!(
                concat!(
                    "    {{\"layer\": \"{}\", \"c\": {}, \"h\": {}, \"w\": {}, ",
                    "\"kernel\": {}, \"stride\": {}, \"pad\": {}, \"oc\": {}, ",
                    "\"winner\": \"{}\", \"peaks_1t\": {{\"gflops\": {:.2}, \"gbs\": {:.2}}}, ",
                    "\"algos\": [\n      {}\n    ]}}"
                ),
                s.name,
                s.c,
                s.h,
                s.w,
                s.kernel,
                s.stride,
                s.pad,
                s.oc,
                r.winner.name(),
                r.peaks.gflops,
                r.peaks.gbs,
                algos.join(",\n      ")
            )
        })
        .collect();
    let e = &bench.e2e;
    format!(
        concat!(
            "{{\n  \"bench\": \"conv\",\n  \"kernel\": \"{}\",\n  \"smoke\": {},\n  \"reps\": {},\n  \"cores\": {},\n",
            "  \"e2e\": {{\"model\": \"{}\", \"batch\": {}, \"baseline_ms\": {:.4}, ",
            "\"tuned_ms\": {:.4}, \"tuned_speedup\": {:.3}, \"plan\": \"{}\", ",
            "\"explored\": {}, \"predicted\": {}, \"pruned\": {}}},\n  \"shapes\": [\n{}\n  ]\n}}\n"
        ),
        pcnn_tensor::kernel_tier(),
        bench.smoke,
        bench.reps,
        machine_cores(),
        e.model,
        e.batch,
        e.baseline_ms,
        e.tuned_ms,
        e.tuned_speedup,
        e.plan,
        e.explored,
        e.predicted,
        e.pruned,
        shapes.join(",\n")
    )
}

/// The output tile side a Winograd row ran at ([`winograd_tile`]); `None`
/// for the other algorithms.
pub fn winograd_tile_ran(algo: ConvAlgo, shape: &ConvShape) -> Option<usize> {
    (algo == ConvAlgo::Winograd).then(|| winograd_tile(&shape.geometry(), shape.oc))
}

/// The thread widths a [`ConvBench`] was swept at.
pub fn sweep_widths(bench: &ConvBench) -> &'static [usize] {
    if bench.smoke {
        &CONV_THREAD_SWEEP[..2]
    } else {
        CONV_THREAD_SWEEP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_table_has_each_algorithms_home_turf() {
        // At least one swept shape is Winograd-ineligible (direct's win)
        // and at least one is stride-1 3x3 or 5x5 (Winograd's win).
        let strided = BENCH_CONV_SHAPES
            .iter()
            .any(|s| !ConvAlgo::Winograd.supports(&s.geometry()));
        let wino = BENCH_CONV_SHAPES
            .iter()
            .any(|s| ConvAlgo::Winograd.supports(&s.geometry()));
        assert!(strided && wino);
        // Same property holds in the smoke subset.
        assert!(SMOKE_CONV_SHAPES
            .iter()
            .any(|s| !ConvAlgo::Winograd.supports(&s.geometry())));
        assert!(SMOKE_CONV_SHAPES
            .iter()
            .any(|s| ConvAlgo::Winograd.supports(&s.geometry())));
    }

    #[test]
    fn smoke_bench_document_is_well_formed() {
        let bench = run_conv_bench(1, true).unwrap();
        let doc = conv_json(&bench, sweep_widths(&bench));
        let parsed = pcnn_telemetry::json::parse(&doc).unwrap();
        assert_eq!(parsed.get("bench").and_then(|b| b.as_str()), Some("conv"));
        let shapes = parsed.get("shapes").unwrap().as_array().unwrap();
        assert_eq!(shapes.len(), SMOKE_CONV_SHAPES.len());
        // Every shape has an im2col row with ratio exactly 1.0 and a
        // winner drawn from its algo rows.
        for s in shapes {
            let algos = s.get("algos").unwrap().as_array().unwrap();
            let im2col = algos
                .iter()
                .find(|a| a.get("algo").and_then(|x| x.as_str()) == Some("im2col"))
                .expect("im2col always measured");
            assert_eq!(
                im2col.get("speedup_vs_im2col_1t").unwrap().as_f64(),
                Some(1.0)
            );
            let winner = s.get("winner").and_then(|w| w.as_str()).unwrap();
            assert!(algos
                .iter()
                .any(|a| a.get("algo").and_then(|x| x.as_str()) == Some(winner)));
        }
        let e2e = parsed.get("e2e").unwrap();
        assert!(e2e.get("tuned_speedup").unwrap().as_f64().unwrap() > 0.0);
        assert!(!e2e.get("plan").unwrap().as_str().unwrap().is_empty());
    }

    #[test]
    fn smoke_perforation_table_has_a_row_per_layer_and_rung() {
        let rows = run_perforation_bench(1, true);
        assert_eq!(rows.len(), SMOKE_CONV_SHAPES.len() * 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.rung, 1 + i % 3);
            assert!(r.retained > 0.0 && r.retained < 1.0);
            assert!(r.full_ms > 0.0 && r.perforated_ms > 0.0);
            assert!(r.efficiency().is_finite());
        }
        // Deeper rungs keep less.
        assert!(rows[0].retained > rows[1].retained && rows[1].retained > rows[2].retained);
    }
}
