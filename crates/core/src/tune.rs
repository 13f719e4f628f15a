//! Offline per-layer convolution algorithm search for the CPU engine:
//! predict, then time.
//!
//! The paper's offline stage tunes each layer's kernel to the deployed
//! microarchitecture, and it predicts before it observes: its time model
//! prices every candidate, and simulator time goes only to what the model
//! cannot separate. [`ConvTuner`] does the same on the real CPU path. For
//! every conv layer shape it prunes the [`ConvAlgo::TUNED`] candidates
//! (direct, winograd) the shape cannot run (a lone survivor is chosen
//! untimed), prices the rest with a [`CostModel`] — the work each kernel
//! does over the two peaks [`pcnn_tensor::calibrate`] probes — and takes
//! the predicted winner untimed when the predictions differ by more than
//! the model's stated [`ERROR_BAND`]; only the rest is benchmarked. The
//! winner goes into a [`ConvPlan`], memoized per shape, and the search is
//! traced (`tune.conv.candidates` / `.predicted` / `.pruned` counters and
//! one `tune.conv.layer` event per decision). Im2col is never a
//! candidate: direct computes the same bits without the column matrix;
//! `im2col` stays a valid [`ConvPlan`] entry that runs as direct.
//!
//! The [`CandidateTimer`] supplies the peaks and the timings: the default
//! [`WallClockTimer`] probes and measures real best-of-N wall time on the
//! worker pool, while the tests replay canned peaks and timings so tuner
//! *choices* stay golden on any machine or build.

use std::collections::HashMap;
use std::time::Instant;

use pcnn_nn::layer::Conv2d;
use pcnn_nn::{ConvPlan, Layer, Network};
use pcnn_tensor::{
    conv2d, gemm_tile, winograd_block_rows, winograd_coords, winograd_tile, Conv2dGeometry,
    ConvAlgo, MachinePeaks,
};

/// Memoization key: a conv layer's full shape.
pub type ConvShapeKey = (Conv2dGeometry, usize);

/// How the tuner measures one candidate, in seconds, and the machine
/// peaks its cost model prices work over. Deterministic implementations
/// (canned peaks and timings) make tuner choices reproducible in tests;
/// the production [`WallClockTimer`] measures for real.
pub trait CandidateTimer {
    /// Seconds one execution of `algo` on `layer` costs.
    fn time(&mut self, algo: ConvAlgo, layer: &Conv2d) -> f64;

    /// The machine's peaks. A tuner asks once, the first time a shape
    /// leaves it two candidates to compare.
    fn peaks(&mut self) -> MachinePeaks;
}

/// Measures candidates by running them: the layer's own weights on a
/// deterministic synthetic image, best-of-`reps` wall time. Runs on the
/// worker pool — the kernels parallelise internally at the configured
/// thread count. Image and output are plain buffers, dropped once timed;
/// what is timed is [`conv2d`], the entry point a plan's layer calls,
/// scratch from the calling thread's workspace included — so timing a
/// layer adds no copy of its weights.
#[derive(Debug, Clone)]
pub struct WallClockTimer {
    reps: usize,
}

impl WallClockTimer {
    /// A timer taking the best of `reps` runs (at least 1).
    pub fn new(reps: usize) -> Self {
        Self { reps: reps.max(1) }
    }
}

impl CandidateTimer for WallClockTimer {
    fn time(&mut self, algo: ConvAlgo, layer: &Conv2d) -> f64 {
        let (geom, oc) = (layer.geometry(), layer.out_channels());
        let (weight, bias) = layer.params();
        // A deterministic pseudo-random image (the GEMM benchmarks' fill
        // pattern): values in roughly [-2, 2).
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i % 1999) as f32 - 999.0) / 512.0)
            .collect();
        let mut out = vec![0.0; oc * geom.out_positions()];
        // The call the plan's layer then makes, one image at a time.
        let mut run = || conv2d(algo, geom, oc, weight.data(), bias, &input, 1, &mut out);
        // Warm once (workspace growth, page faults), then measure.
        run();
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    fn peaks(&mut self) -> MachinePeaks {
        pcnn_tensor::calibrate(3)
    }
}

/// The model's stated error, measured on the table beside the tests
/// (`tests::CALIBRATION`, which they hold it to): the predicted direct /
/// winograd ratio misses the observed one by at most 0.15 there (256 ->
/// 384 @ 13² and 256 -> 256 @ 28²); by up to 0.27 on the single
/// recordings it is the median of. Predictions further apart than this
/// name the faster candidate on the machine too.
pub const ERROR_BAND: f64 = 0.25;

/// The work one execution of a candidate does: microkernel FLOPs (padded
/// tiles included), then bytes — `C` traffic (bias fill, one read + write
/// per packed block), direct's patch gather into packed `B` and zero
/// border, Winograd's input / inverse transforms, its filter transform —
/// and GEMM calls.
#[derive(Debug, Default)]
struct Work {
    flops: f64,
    c: f64,
    gather: f64,
    transform: f64,
    filter: f64,
    calls: f64,
}

/// What one unit of each kind of [`Work`] costs, as a multiple of the
/// probed peak's time for it (`calls`: bytes of copy per call — pool
/// checkouts, partition, loop set-up); fitted over `tests::CALIBRATION`
/// by non-negative least squares on relative error, then by a
/// coordinate search from there on the worst direct / winograd ratio
/// miss (least squares alone left VGG-16's conv1_1 at 0.27, over
/// [`ERROR_BAND`]).
const COST: Work = Work {
    flops: 1.084,
    c: 1.203,
    gather: 2.324,
    transform: 0.641,
    filter: 1.937,
    calls: 3272.0,
};

impl Work {
    /// Adds `times` packed GEMMs `C[m x n] += A[m x k] B[k x n]`.
    fn gemm(&mut self, [mr, nr, kc]: [usize; 3], (m, n, k): (usize, usize, usize), times: usize) {
        let times = times as f64;
        self.flops += times * (2 * m.div_ceil(mr) * mr * n.div_ceil(nr) * nr * k) as f64;
        self.c += times * (8 * m * n * k.div_ceil(kc)) as f64;
        self.calls += times;
    }
}

/// The per-(shape, algorithm) CPU cost model: the work each kernel does
/// priced over the machine's two peaks. One execution, one image, one
/// thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    peaks: MachinePeaks,
    tile: [usize; 3],
}

impl CostModel {
    /// The model for these peaks on a GEMM tier's [`gemm_tile`].
    pub fn new(peaks: MachinePeaks, tile: [usize; 3]) -> Self {
        Self { peaks, tile }
    }

    /// Predicted seconds of one execution of `algo` on this shape
    /// (`Im2col` runs as direct, so it is priced as direct).
    ///
    /// # Panics
    ///
    /// Panics if `algo` does not support `geom`.
    pub fn predict(&self, algo: ConvAlgo, geom: &Conv2dGeometry, out_channels: usize) -> f64 {
        assert!(algo.supports(geom), "{algo} cannot run {geom:?}");
        let (oc, ic) = (out_channels, geom.in_channels);
        let (plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
        let mut w = Work::default();
        if algo == ConvAlgo::Winograd {
            // The tile the kernel runs: (t + r - 1)² coordinates per t x t
            // outputs of r x r filters.
            let t = winograd_tile(geom, oc);
            let coords = winograd_coords(t, geom.kernel);
            let (tiles_y, tiles_x) = (geom.out_h.div_ceil(t), geom.out_w.div_ceil(t));
            let rows = winograd_block_rows(coords, ic, oc, tiles_x, tiles_y);
            for first in (0..tiles_y).step_by(rows) {
                let tiles = rows.min(tiles_y - first) * tiles_x;
                w.gemm(self.tile, (oc, tiles, ic), coords);
            }
            // Input read, V written packed, M read, output written.
            let tiles = tiles_y * tiles_x;
            w.transform = (4 * (ic * plane + coords * (ic + oc) * tiles + oc * positions)) as f64;
            // r² weights read and `coords` values of U written per filter:
            // the vector walk runs at the rate U is written.
            let taps = geom.kernel * geom.kernel;
            w.filter = (4 * (taps + coords) * oc * ic) as f64;
        } else {
            let [_, nr, _] = self.tile;
            let (k, n) = (geom.patch_len(), positions);
            w.gemm(self.tile, (oc, n, k), 1);
            let padded = (geom.in_h + 2 * geom.pad) * (geom.in_w + 2 * geom.pad);
            let border = usize::from(geom.pad > 0) * 4 * ic * (plane + padded);
            w.gather = (4 * k * n.div_ceil(nr) * nr + border) as f64;
            w.c += (4 * oc * positions) as f64;
        }
        let bytes = COST.c * w.c
            + COST.gather * w.gather
            + COST.transform * w.transform
            + COST.filter * w.filter
            + COST.calls * w.calls;
        COST.flops * w.flops / (self.peaks.gflops * 1e9) + bytes / (self.peaks.gbs * 1e9)
    }

    /// The predicted fastest (earliest of equals) when every other
    /// prediction is over [`ERROR_BAND`] slower; `None`: time them.
    pub fn verdict(predictions: &[(ConvAlgo, f64)]) -> Option<ConvAlgo> {
        let best = predictions
            .iter()
            .copied()
            .reduce(|a, b| if b.1 < a.1 { b } else { a })?;
        let separated = predictions
            .iter()
            .all(|p| p.0 == best.0 || p.1 > best.1 * (1.0 + ERROR_BAND));
        separated.then_some(best.0)
    }
}

/// The tuning outcome for one conv layer.
#[derive(Debug, Clone)]
pub struct LayerTuning {
    /// Conv-layer ordinal within the network.
    pub conv_index: usize,
    /// The layer shape.
    pub geom: Conv2dGeometry,
    /// Output channels.
    pub out_channels: usize,
    /// Predicted `(candidate, seconds)` pairs, in candidate order; empty
    /// when the shape left a single candidate.
    pub predictions: Vec<(ConvAlgo, f64)>,
    /// Whether the model decided the shape untimed.
    pub predicted: bool,
    /// Measured `(candidate, seconds)` pairs, in candidate order; empty
    /// when the shape left a single candidate (or the model decided it).
    pub timings: Vec<(ConvAlgo, f64)>,
    /// [`ConvAlgo::TUNED`] candidates pruned because the shape does not
    /// support them.
    pub pruned: Vec<ConvAlgo>,
    /// The winning algorithm.
    pub chosen: ConvAlgo,
    /// Whether the result came from the shape cache (no new timing).
    pub cached: bool,
}

/// A full per-network tuning report.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Per-conv-layer outcomes, in network order.
    pub layers: Vec<LayerTuning>,
    /// Total candidates actually timed.
    pub explored: u64,
    /// Total candidates the model priced and the tuner never timed.
    pub predicted: u64,
    /// Total candidates pruned by shape eligibility.
    pub pruned: u64,
}

impl TuneReport {
    /// The tuned per-layer plan.
    pub fn plan(&self) -> ConvPlan {
        ConvPlan::from_algos(self.layers.iter().map(|l| l.chosen).collect())
    }
}

/// The offline conv-algorithm tuner: prices candidates over the peaks its
/// [`CandidateTimer`] supplies once, times the close calls through it, and
/// memoizes per shape, so repeated shapes and networks tune once.
#[derive(Debug, Clone)]
pub struct ConvTuner<T> {
    timer: T,
    model: Option<CostModel>,
    cache: HashMap<ConvShapeKey, ShapeTuning>,
}

/// A memoised tuning outcome for one shape.
#[derive(Debug, Clone)]
struct ShapeTuning {
    chosen: ConvAlgo,
    predictions: Vec<(ConvAlgo, f64)>,
    timings: Vec<(ConvAlgo, f64)>,
    pruned: Vec<ConvAlgo>,
}

impl ShapeTuning {
    /// Candidates priced and never timed: all when the model decided.
    fn untimed(&self) -> usize {
        self.predictions.len() * usize::from(self.timings.is_empty())
    }
}

impl<T: CandidateTimer> ConvTuner<T> {
    /// A tuner with an empty shape cache.
    pub fn new(timer: T) -> Self {
        Self {
            timer,
            model: None,
            cache: HashMap::new(),
        }
    }

    /// Tunes one layer's shape: prune unsupported candidates; unless only
    /// one is left, price the rest and take the model's verdict, or —
    /// where it has none — time them on the layer and pick the fastest
    /// (strict `<` scan in [`ConvAlgo::TUNED`] order, so ties resolve to
    /// the earlier candidate — the im2col-bitwise one —
    /// deterministically). Returns the choice and whether it came from the
    /// shape memo.
    pub fn tune_shape(&mut self, layer: &Conv2d) -> (ConvAlgo, bool) {
        let (geom, out_channels) = (layer.geometry(), layer.out_channels());
        let key = (*geom, out_channels);
        if let Some(hit) = self.cache.get(&key) {
            return (hit.chosen, true);
        }
        let _span = pcnn_telemetry::span!(
            "tune.conv.shape",
            kernel = geom.kernel,
            stride = geom.stride,
            in_channels = geom.in_channels,
            out_channels = out_channels
        );
        let (eligible, pruned): (Vec<_>, Vec<_>) =
            ConvAlgo::TUNED.into_iter().partition(|a| a.supports(geom));
        let (mut predictions, mut timings) = (Vec::new(), Vec::new());
        // Direct supports every geometry, so `eligible` is never empty,
        // and a lone candidate has nothing to be compared with.
        let chosen = if eligible.len() < 2 {
            eligible[0]
        } else {
            let timer = &mut self.timer;
            let model = *self
                .model
                .get_or_insert_with(|| CostModel::new(timer.peaks(), gemm_tile()));
            predictions = eligible
                .iter()
                .map(|&algo| (algo, model.predict(algo, geom, out_channels)))
                .collect();
            CostModel::verdict(&predictions).unwrap_or_else(|| {
                timings = eligible
                    .iter()
                    .map(|&algo| (algo, self.timer.time(algo, layer)))
                    .collect();
                let mut chosen = timings[0];
                for &(algo, secs) in &timings[1..] {
                    if secs < chosen.1 {
                        chosen = (algo, secs);
                    }
                }
                chosen.0
            })
        };
        let shape = ShapeTuning {
            chosen,
            predictions,
            timings,
            pruned,
        };
        pcnn_telemetry::counter("tune.conv.candidates", shape.timings.len() as u64);
        pcnn_telemetry::counter("tune.conv.predicted", shape.untimed() as u64);
        pcnn_telemetry::counter("tune.conv.pruned", shape.pruned.len() as u64);
        self.cache.insert(key, shape);
        (chosen, false)
    }

    /// Tunes every conv layer of `net`, returning the report (and through
    /// it the [`ConvPlan`]).
    pub fn tune_network(&mut self, net: &Network) -> TuneReport {
        let _span = pcnn_telemetry::span!("tune.conv", network = net.name());
        let mut layers = Vec::new();
        let (mut explored, mut predicted_total, mut pruned_total) = (0u64, 0u64, 0u64);
        let mut conv_index = 0;
        for layer in net.layers() {
            let Layer::Conv2d(c) = layer else { continue };
            let (geom, oc) = (*c.geometry(), c.out_channels());
            let (chosen, cached) = self.tune_shape(c);
            let shape = self.cache.get(&(geom, oc)).expect("just tuned").clone();
            let predicted = shape.untimed() > 0;
            if !cached {
                explored += shape.timings.len() as u64;
                predicted_total += shape.untimed() as u64;
                pruned_total += shape.pruned.len() as u64;
            }
            // Priced in `ConvAlgo::TUNED` order: direct, then winograd.
            let (direct_s, winograd_s) = match shape.predictions[..] {
                [(_, direct), (_, winograd)] => (direct, winograd),
                _ => (0.0, 0.0),
            };
            pcnn_telemetry::event!(
                "tune.conv.layer",
                conv_index = conv_index,
                chosen = chosen.name(),
                cached = cached,
                predicted = predicted,
                explored = shape.timings.len(),
                pruned = shape.pruned.len(),
                direct_predicted_s = direct_s,
                winograd_predicted_s = winograd_s
            );
            layers.push(LayerTuning {
                conv_index,
                geom,
                out_channels: oc,
                predictions: shape.predictions,
                predicted,
                timings: shape.timings,
                pruned: shape.pruned,
                chosen,
                cached,
            });
            conv_index += 1;
        }
        TuneReport {
            layers,
            explored,
            predicted: predicted_total,
            pruned: pruned_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_nn::models::tiny_alexnet;

    /// A [`CandidateTimer`] replaying canned peaks and timings, the timings
    /// keyed by `(shape, algorithm)`. Used by the goldened tuner-choice
    /// tests.
    ///
    /// # Panics
    ///
    /// [`time`](CandidateTimer::time) panics if asked for an unrecorded
    /// entry, so tests notice incomplete fixtures immediately — and that a
    /// shape the model decides is never timed.
    #[derive(Debug, Clone, Default)]
    pub(super) struct RecordedTimer {
        table: HashMap<(ConvShapeKey, ConvAlgo), f64>,
        peaks: Option<MachinePeaks>,
    }

    impl RecordedTimer {
        /// An empty recording replaying [`CALIBRATION_PEAKS`].
        pub fn new() -> Self {
            Self::default()
        }

        /// Records `secs` for one `(shape, algo)` pair.
        #[must_use]
        pub fn with(
            mut self,
            geom: Conv2dGeometry,
            out_channels: usize,
            algo: ConvAlgo,
            secs: f64,
        ) -> Self {
            self.table.insert(((geom, out_channels), algo), secs);
            self
        }

        /// Replays `peaks` instead.
        #[must_use]
        pub fn with_peaks(mut self, peaks: MachinePeaks) -> Self {
            self.peaks = Some(peaks);
            self
        }
    }

    impl CandidateTimer for RecordedTimer {
        fn time(&mut self, algo: ConvAlgo, layer: &Conv2d) -> f64 {
            let (geom, out_channels) = (*layer.geometry(), layer.out_channels());
            *self
                .table
                .get(&((geom, out_channels), algo))
                .unwrap_or_else(|| {
                    panic!("no recorded timing for {algo} on {geom:?} x{out_channels}")
                })
        }

        fn peaks(&mut self) -> MachinePeaks {
            self.peaks.unwrap_or(CALIBRATION_PEAKS)
        }
    }

    /// Typical peaks of [`CALIBRATION`]: what a [`RecordedTimer`] replays
    /// unless told otherwise.
    const CALIBRATION_PEAKS: MachinePeaks = MachinePeaks {
        gflops: 63.0,
        gbs: 23.0,
    };

    /// One [`CALIBRATION`] row: `[in_channels, side, kernel, stride, pad,
    /// out_channels]` of a square layer, the probed `(GFLOP/s, GB/s)`, and
    /// the observed direct and winograd ms (`NaN`: no Winograd).
    type CalibrationRow = ([usize; 6], (f64, f64), f64, f64);

    /// What [`COST`] was fitted to and [`ERROR_BAND`] measured on: per cell,
    /// the median of three recordings, each the medians of 22 interleaved
    /// rounds of probe, direct best-of-3 and winograd best-of-3 at one
    /// thread on one pinned core of the 2-vCPU Xeon recorder (`avx512
    /// 16x16`), taken on the kernels whose filter and input transforms
    /// write `U` and `V` packed with their 16-lane bodies: VGG-16's nine
    /// shapes, AlexNet's five, `BENCH_conv.json`'s VGG2_2 / VGG3_2 (the two
    /// rows after AlexNet's), a 5x5 row (the two-group AlexNet's per-group
    /// conv2), and the tiny and smoke ones. AlexNet conv2's row and the
    /// 5x5 one were recorded the same way, later, on the F(2x2,5x5)
    /// kernel.
    const CALIBRATION: [CalibrationRow; 21] = [
        ([3, 224, 3, 1, 1, 64], (64.4, 23.6), 7.761, 10.307),
        ([64, 224, 3, 1, 1, 64], (63.0, 22.9), 93.850, 26.208),
        ([64, 112, 3, 1, 1, 128], (61.9, 23.3), 46.369, 12.137),
        ([128, 112, 3, 1, 1, 128], (63.7, 23.5), 87.509, 21.535),
        ([128, 56, 3, 1, 1, 256], (61.1, 22.9), 39.167, 11.434),
        ([256, 56, 3, 1, 1, 256], (64.3, 22.4), 77.682, 22.488),
        ([256, 28, 3, 1, 1, 512], (64.2, 22.9), 33.694, 13.542),
        ([512, 28, 3, 1, 1, 512], (62.3, 22.9), 68.057, 26.204),
        ([512, 14, 3, 1, 1, 512], (64.1, 22.9), 17.281, 12.200),
        ([3, 227, 11, 4, 0, 96], (61.9, 22.8), 4.134, f64::NAN),
        ([96, 27, 5, 1, 2, 256], (62.0, 21.5), 17.092, 8.356),
        ([256, 13, 3, 1, 1, 384], (64.4, 22.7), 5.487, 3.705),
        ([384, 13, 3, 1, 1, 384], (64.4, 23.3), 8.632, 7.046),
        ([384, 13, 3, 1, 1, 256], (63.9, 22.7), 5.812, 3.973),
        ([128, 56, 3, 1, 1, 128], (62.1, 22.4), 21.597, 5.503),
        ([256, 28, 3, 1, 1, 256], (62.3, 22.7), 16.358, 6.962),
        ([48, 27, 5, 1, 2, 128], (62.2, 21.7), 4.382, 2.251),
        ([1, 32, 3, 1, 1, 8], (64.4, 22.8), 0.020, 0.029),
        ([8, 16, 3, 1, 1, 16], (64.3, 24.0), 0.024, 0.022),
        ([64, 13, 3, 1, 1, 96], (64.9, 23.8), 0.358, 0.274),
        ([3, 63, 11, 4, 0, 32], (64.6, 22.9), 0.126, f64::NAN),
    ];

    /// A layer of this shape; the recorded timers read only its shape.
    fn layer(geom: Conv2dGeometry, oc: usize) -> Conv2d {
        let weight = pcnn_tensor::Tensor::zeros(vec![oc, geom.patch_len()]);
        Conv2d::from_parts(geom, oc, weight, vec![0.0; oc])
    }

    /// AlexNet CONV1: large-spatial strided 11x11 — the canonical shape
    /// where direct wins (im2col's 8.8 MB column matrix is pure
    /// overhead).
    fn conv1_geom() -> Conv2dGeometry {
        Conv2dGeometry::new(3, 227, 227, 11, 4, 0)
    }

    /// AlexNet CONV3: small-spatial 3x3 stride 1 — the canonical Winograd
    /// shape (2.25x multiply reduction).
    fn conv3_geom() -> Conv2dGeometry {
        Conv2dGeometry::new(256, 13, 13, 3, 1, 1)
    }

    /// Golden tuner-choice test on recorded canonical timings: CONV1
    /// selects direct, CONV3 selects winograd. The timings are the shape
    /// of real release-build measurements (see `BENCH_conv.json`);
    /// recording them keeps the *choice* logic golden in debug test
    /// builds.
    #[test]
    fn tuner_selects_direct_and_winograd_on_canonical_shapes() {
        let timer = RecordedTimer::new()
            .with(conv3_geom(), 384, ConvAlgo::Direct, 0.0039)
            .with(conv3_geom(), 384, ConvAlgo::Winograd, 0.0024);
        let mut tuner = ConvTuner::new(timer);
        // CONV1: winograd ineligible (stride 4) -> pruned, direct is left.
        let (algo, cached) = tuner.tune_shape(&layer(conv1_geom(), 96));
        assert_eq!(algo, ConvAlgo::Direct);
        assert!(!cached);
        // CONV3: winograd eligible and fastest.
        let (algo, _) = tuner.tune_shape(&layer(conv3_geom(), 384));
        assert_eq!(algo, ConvAlgo::Winograd);
        // Repeat lookups come from the cache.
        let (algo, cached) = tuner.tune_shape(&layer(conv1_geom(), 96));
        assert_eq!((algo, cached), (ConvAlgo::Direct, true));
        assert_eq!(tuner.cache.len(), 2);
    }

    #[test]
    fn ties_resolve_to_the_earlier_candidate() {
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 1, 0);
        let timer = RecordedTimer::new()
            .with(geom, 4, ConvAlgo::Direct, 0.5)
            .with(geom, 4, ConvAlgo::Winograd, 0.5);
        let (algo, _) = ConvTuner::new(timer).tune_shape(&layer(geom, 4));
        assert_eq!(algo, ConvAlgo::Direct);
    }

    /// AlexNet CONV1 (11x11 stride 4), a 7x7 stem and a stride-2 5x5 layer
    /// leave direct alone: the empty recording panics if the tuner asks it
    /// for anything.
    #[test]
    fn a_single_candidate_shape_is_never_timed() {
        let mut tuner = ConvTuner::new(RecordedTimer::new());
        for (geom, oc) in [
            (conv1_geom(), 96),
            (Conv2dGeometry::new(3, 224, 224, 7, 2, 3), 64),
            (Conv2dGeometry::new(48, 27, 27, 5, 2, 2), 128),
        ] {
            assert_eq!(
                tuner.tune_shape(&layer(geom, oc)),
                (ConvAlgo::Direct, false)
            );
        }
    }

    #[test]
    fn tune_network_produces_a_valid_plan_and_counts_search() {
        pcnn_telemetry::set_enabled(true);
        pcnn_telemetry::reset();
        let net = tiny_alexnet(4);
        // Real wall-clock timing (1 rep — tiny shapes, debug build): the
        // *choices* are machine-dependent here, so assert only structure.
        let mut tuner = ConvTuner::new(WallClockTimer::new(1));
        let report = tuner.tune_network(&net);
        let metrics = pcnn_telemetry::snapshot();
        pcnn_telemetry::set_enabled(false);
        assert_eq!(report.layers.len(), net.conv_count());
        // Both tiny_alexnet convs are 3x3 stride 1: both candidates of
        // each are either timed or priced and decided by the model.
        assert_eq!(
            report.explored + report.predicted,
            (ConvAlgo::TUNED.len() * net.conv_count()) as u64
        );
        assert_eq!(report.pruned, 0);
        assert_eq!(
            metrics.counter_value("tune.conv.candidates"),
            report.explored
        );
        assert_eq!(
            metrics.counter_value("tune.conv.predicted"),
            report.predicted
        );
        let plan = report.plan();
        assert!(plan.validate(&net).is_ok());
        // A forward pass under the tuned plan runs.
        let input = pcnn_tensor::Tensor::zeros(vec![1, 1, 32, 32]);
        let perf = pcnn_nn::PerforationPlan::identity(net.conv_count());
        net.forward_planned(&input, &perf, &plan).unwrap();
    }

    /// The recorder's blocking, so the table test reads the same on every
    /// host tier.
    const RECORDER: [usize; 3] = [16, 16, 256];

    fn square(row: [usize; 6]) -> (Conv2dGeometry, usize) {
        let [c, side, kernel, stride, pad, oc] = row;
        (Conv2dGeometry::new(c, side, side, kernel, stride, pad), oc)
    }

    /// The band is evidence, not a guess: over the table it was measured
    /// from, no predicted direct / winograd ratio misses the observed one
    /// by more than [`ERROR_BAND`], and the median per-(shape, algorithm)
    /// |error| is inside the 15 % `pcnn obs check` gates.
    #[test]
    fn the_stated_band_covers_the_table_it_was_measured_from() {
        let (mut errors, mut worst_ratio) = (Vec::new(), 0.0f64);
        for (row, (gflops, gbs), direct_ms, winograd_ms) in CALIBRATION {
            let model = CostModel::new(MachinePeaks { gflops, gbs }, RECORDER);
            let (geom, oc) = square(row);
            let direct = 1e3 * model.predict(ConvAlgo::Direct, &geom, oc);
            errors.push((direct / direct_ms - 1.0).abs());
            if winograd_ms.is_nan() {
                continue;
            }
            let winograd = 1e3 * model.predict(ConvAlgo::Winograd, &geom, oc);
            errors.push((winograd / winograd_ms - 1.0).abs());
            let miss = (direct / winograd) / (direct_ms / winograd_ms);
            worst_ratio = worst_ratio.max(miss.max(1.0 / miss) - 1.0);
        }
        errors.sort_by(f64::total_cmp);
        let median = errors[errors.len() / 2];
        assert!(median <= 0.15, "median |error| {median:.3}");
        assert!(
            worst_ratio <= ERROR_BAND,
            "ratio missed by {worst_ratio:.3}"
        );
    }

    /// The conv towers of the full-size VGG-16 and AlexNet, zero weights,
    /// under a stand-in classifier.
    fn tower(name: &str, shapes: &[[usize; 6]]) -> Network {
        let mut layers: Vec<Layer> = shapes
            .iter()
            .map(|&row| {
                let (geom, oc) = square(row);
                let weight = pcnn_tensor::Tensor::zeros(vec![oc, geom.patch_len()]);
                Layer::Conv2d(pcnn_nn::layer::Conv2d::from_parts(
                    geom,
                    oc,
                    weight,
                    vec![0.0; oc],
                ))
            })
            .collect();
        let head = pcnn_tensor::Tensor::zeros(vec![10, 1]);
        layers.push(Layer::Linear(pcnn_nn::layer::Linear::from_parts(
            head,
            vec![0.0; 10],
        )));
        Network::new(name, [shapes[0][0], shapes[0][1], shapes[0][1]], layers)
    }

    const VGG16: [[usize; 6]; 13] = [
        [3, 224, 3, 1, 1, 64],
        [64, 224, 3, 1, 1, 64],
        [64, 112, 3, 1, 1, 128],
        [128, 112, 3, 1, 1, 128],
        [128, 56, 3, 1, 1, 256],
        [256, 56, 3, 1, 1, 256],
        [256, 56, 3, 1, 1, 256],
        [256, 28, 3, 1, 1, 512],
        [512, 28, 3, 1, 1, 512],
        [512, 28, 3, 1, 1, 512],
        [512, 14, 3, 1, 1, 512],
        [512, 14, 3, 1, 1, 512],
        [512, 14, 3, 1, 1, 512],
    ];

    const ALEXNET: [[usize; 6]; 5] = [
        [3, 227, 11, 4, 0, 96],
        [96, 27, 5, 1, 2, 256],
        [256, 13, 3, 1, 1, 384],
        [384, 13, 3, 1, 1, 384],
        [384, 13, 3, 1, 1, 256],
    ];

    /// With the recorder's peaks every full-size VGG-16 and AlexNet shape
    /// is separated by more than the band — the 14² and 13² ones too,
    /// since the filter transform runs at the rate `U` is written — so an
    /// empty recording (it panics on any timing) tunes both networks to
    /// exactly the plan exhaustive tuning builds from the recorded
    /// timings, and times nothing.
    #[test]
    fn the_model_times_only_close_calls_and_keeps_the_exhaustive_plan() {
        let recorded = |row: [usize; 6]| {
            CALIBRATION
                .iter()
                .find(|r| r.0 == row)
                .map(|r| (r.2 / 1e3, r.3 / 1e3))
                .expect("every full-size shape is in the table")
        };
        let mut tuner = ConvTuner::new(RecordedTimer::new());
        for (name, shapes) in [("VGG16", &VGG16[..]), ("AlexNet", &ALEXNET[..])] {
            let report = tuner.tune_network(&tower(name, shapes));
            let exhaustive: Vec<ConvAlgo> = shapes
                .iter()
                .map(|&row| {
                    let (direct, winograd) = recorded(row);
                    let wins = ConvAlgo::Winograd.supports(&square(row).0) && winograd < direct;
                    if wins {
                        ConvAlgo::Winograd
                    } else {
                        ConvAlgo::Direct
                    }
                })
                .collect();
            assert_eq!(report.plan(), ConvPlan::from_algos(exhaustive), "{name}");
            assert_eq!(report.explored, 0, "{name}");
            for (layer, row) in report.layers.iter().zip(shapes) {
                let two = ConvAlgo::Winograd.supports(&layer.geom);
                assert_eq!(layer.predicted, two, "{name} {row:?}");
            }
        }
    }

    proptest::proptest! {
        /// The model's verdict depends only on the shape and the peaks:
        /// two tuners replaying the same peaks but opposite timings agree
        /// wherever the model decided, never time those shapes, and follow
        /// their own timings wherever it did not.
        #[test]
        fn the_verdict_depends_only_on_shape_and_peaks(
            c in 1usize..96,
            side in 3usize..40,
            oc in 1usize..96,
            gflops in 5.0f64..200.0,
            gbs in 2.0f64..80.0,
        ) {
            let geom = Conv2dGeometry::new(c, side, side, 3, 1, 1);
            let peaks = MachinePeaks { gflops, gbs };
            let timer = |direct: f64, winograd: f64| {
                RecordedTimer::new()
                    .with_peaks(peaks)
                    .with(geom, oc, ConvAlgo::Direct, direct)
                    .with(geom, oc, ConvAlgo::Winograd, winograd)
            };
            let mut fast_direct = ConvTuner::new(timer(1.0, 2.0));
            let mut fast_winograd = ConvTuner::new(timer(2.0, 1.0));
            let (a, _) = fast_direct.tune_shape(&layer(geom, oc));
            let (b, _) = fast_winograd.tune_shape(&layer(geom, oc));
            let model = CostModel::new(peaks, gemm_tile());
            let priced: Vec<_> = ConvAlgo::TUNED
                .iter()
                .map(|&algo| (algo, model.predict(algo, &geom, oc)))
                .collect();
            match CostModel::verdict(&priced) {
                Some(algo) => {
                    proptest::prop_assert_eq!((a, b), (algo, algo));
                    proptest::prop_assert!(fast_direct.cache[&(geom, oc)].untimed() > 0);
                }
                None => proptest::prop_assert_eq!((a, b), (ConvAlgo::Direct, ConvAlgo::Winograd)),
            }
        }
    }
}
