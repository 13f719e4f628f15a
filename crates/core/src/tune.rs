//! Offline per-layer convolution algorithm search for the CPU engine.
//!
//! The paper's offline stage tunes each layer's kernel to the deployed
//! microarchitecture; this module is the same idea applied to the real
//! CPU inference path. For every conv layer shape, [`ConvTuner`]
//! prunes the candidates ([`ConvAlgo::TUNED`]: direct, winograd) the
//! shape cannot run, benchmarks the rest — a lone survivor is chosen
//! untimed — records the winner in a [`ConvPlan`] (serializable next to
//! the schedule, memoized per shape the way
//! [`crate::runtime::execute_trace`] memoizes per-size costs), and traces the
//! search through telemetry (`tune.conv.candidates` / `tune.conv.pruned`
//! counters plus one `tune.conv.layer` event per decision). Im2col is
//! never a candidate: direct computes the same bits without the column
//! matrix, so the tuner only times what can differ; `im2col` remains a
//! valid [`ConvPlan`] entry (it runs as direct, `Network::forward`'s
//! default), and the column matrix the reference of every differential
//! test.
//!
//! Timing goes through the [`CandidateTimer`] trait: the default
//! [`WallClockTimer`] measures real best-of-N wall time on the worker
//! pool (the kernels parallelise internally), while tests inject a
//! [`RecordedTimer`] with canned timings so tuner *choices* stay golden
//! regardless of the machine or build profile running the test.

use std::collections::HashMap;
use std::time::Instant;

use pcnn_nn::{ConvPlan, Layer, Network};
use pcnn_tensor::{conv2d, Conv2dGeometry, ConvAlgo};

/// Memoization key: a conv layer's full shape.
pub type ConvShapeKey = (Conv2dGeometry, usize);

/// How the tuner measures one candidate, in seconds. Deterministic
/// implementations (canned timings) make tuner choices reproducible in
/// tests; the production [`WallClockTimer`] measures for real.
pub trait CandidateTimer {
    /// Seconds one execution of `algo` on this layer shape costs.
    fn time(&mut self, algo: ConvAlgo, geom: &Conv2dGeometry, out_channels: usize) -> f64;
}

/// Measures candidates by running them: deterministic synthetic operands,
/// best-of-`reps` wall time. Runs on the worker pool — the kernels
/// parallelise internally at the configured thread count.
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

impl Default for WallClockTimer {
    fn default() -> Self {
        Self::new(3)
    }
}

impl CandidateTimer for WallClockTimer {
    fn time(&mut self, algo: ConvAlgo, geom: &Conv2dGeometry, out_channels: usize) -> f64 {
        // Deterministic pseudo-random operands (same fill pattern as the
        // GEMM benchmarks): values in roughly [-2, 2).
        let weight: Vec<f32> = (0..out_channels * geom.patch_len())
            .map(|i| ((i % 2017) as f32 - 1000.0) / 512.0)
            .collect();
        let bias: Vec<f32> = (0..out_channels).map(|i| (i % 7) as f32 / 8.0).collect();
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i % 1999) as f32 - 999.0) / 512.0)
            .collect();
        let mut out = vec![0.0f32; out_channels * geom.out_positions()];
        // The call the plan's layer then makes, one image at a time.
        let mut run = || {
            conv2d(
                algo,
                geom,
                out_channels,
                &weight,
                &bias,
                &input,
                1,
                &mut out,
            )
        };
        // Warm once (pool scratch checkout, page faults), then measure.
        run();
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }
}

/// A [`CandidateTimer`] replaying canned timings, keyed by
/// `(shape, algorithm)`. Used by the goldened tuner-choice tests.
///
/// # Panics
///
/// [`time`](CandidateTimer::time) panics if asked for an unrecorded
/// entry, so tests notice incomplete fixtures immediately.
#[derive(Debug, Clone, Default)]
pub struct RecordedTimer {
    table: HashMap<(ConvShapeKey, ConvAlgo), f64>,
}

impl RecordedTimer {
    /// An empty recording.
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
}

impl CandidateTimer for RecordedTimer {
    fn time(&mut self, algo: ConvAlgo, geom: &Conv2dGeometry, out_channels: usize) -> f64 {
        *self
            .table
            .get(&((*geom, out_channels), algo))
            .unwrap_or_else(|| panic!("no recorded timing for {algo} on {geom:?} x{out_channels}"))
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
    /// Measured `(candidate, seconds)` pairs, in candidate order; empty
    /// when the shape left a single candidate, which is chosen untimed.
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
    /// Total candidates pruned by shape eligibility.
    pub pruned: u64,
}

impl TuneReport {
    /// The tuned per-layer plan.
    pub fn plan(&self) -> ConvPlan {
        ConvPlan::from_algos(self.layers.iter().map(|l| l.chosen).collect())
    }
}

/// The offline conv-algorithm tuner: times candidates through a
/// [`CandidateTimer`] and memoizes per shape, so repeated shapes (VGG
/// towers) and repeated networks tune once.
#[derive(Debug, Clone)]
pub struct ConvTuner<T> {
    timer: T,
    cache: HashMap<ConvShapeKey, ShapeTuning>,
}

/// A memoised tuning outcome for one shape.
#[derive(Debug, Clone)]
struct ShapeTuning {
    chosen: ConvAlgo,
    timings: Vec<(ConvAlgo, f64)>,
    pruned: Vec<ConvAlgo>,
}

impl<T: CandidateTimer> ConvTuner<T> {
    /// A tuner with an empty shape cache.
    pub fn new(timer: T) -> Self {
        Self {
            timer,
            cache: HashMap::new(),
        }
    }

    /// Tunes one layer shape: prune unsupported candidates, time the
    /// rest unless only one is left, pick the fastest (strict `<` scan in
    /// [`ConvAlgo::TUNED`] order, so ties resolve to the earlier
    /// candidate — the im2col-bitwise one — deterministically).
    pub fn tune_shape(&mut self, geom: &Conv2dGeometry, out_channels: usize) -> (ConvAlgo, bool) {
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
        // A lone candidate has nothing to be compared with: no timing.
        let timings: Vec<(ConvAlgo, f64)> = if eligible.len() > 1 {
            eligible
                .iter()
                .map(|&algo| (algo, self.timer.time(algo, geom, out_channels)))
                .collect()
        } else {
            Vec::new()
        };
        // Direct supports every geometry, so `eligible` is never empty.
        let mut chosen = timings.first().copied().unwrap_or((eligible[0], 0.0));
        for &(algo, secs) in timings.iter().skip(1) {
            if secs < chosen.1 {
                chosen = (algo, secs);
            }
        }
        pcnn_telemetry::counter("tune.conv.candidates", timings.len() as u64);
        pcnn_telemetry::counter("tune.conv.pruned", pruned.len() as u64);
        self.cache.insert(
            key,
            ShapeTuning {
                chosen: chosen.0,
                timings,
                pruned,
            },
        );
        (chosen.0, false)
    }

    /// Tunes every conv layer of `net`, returning the report (and through
    /// it the [`ConvPlan`]).
    pub fn tune_network(&mut self, net: &Network) -> TuneReport {
        let _span = pcnn_telemetry::span!("tune.conv", network = net.name());
        let mut layers = Vec::new();
        let (mut explored, mut pruned_total) = (0u64, 0u64);
        let mut conv_index = 0;
        for layer in net.layers() {
            let Layer::Conv2d(c) = layer else { continue };
            let (geom, oc) = (*c.geometry(), c.out_channels());
            let (chosen, cached) = self.tune_shape(&geom, oc);
            let ShapeTuning {
                timings, pruned, ..
            } = self.cache.get(&(geom, oc)).expect("just tuned").clone();
            if !cached {
                explored += timings.len() as u64;
                pruned_total += pruned.len() as u64;
            }
            pcnn_telemetry::event!(
                "tune.conv.layer",
                conv_index = conv_index,
                chosen = chosen.name(),
                cached = cached,
                explored = timings.len(),
                pruned = pruned.len()
            );
            layers.push(LayerTuning {
                conv_index,
                geom,
                out_channels: oc,
                timings,
                pruned,
                chosen,
                cached,
            });
            conv_index += 1;
        }
        TuneReport {
            layers,
            explored,
            pruned: pruned_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_nn::models::tiny_alexnet;

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
        let (algo, cached) = tuner.tune_shape(&conv1_geom(), 96);
        assert_eq!(algo, ConvAlgo::Direct);
        assert!(!cached);
        // CONV3: winograd eligible and fastest.
        let (algo, _) = tuner.tune_shape(&conv3_geom(), 384);
        assert_eq!(algo, ConvAlgo::Winograd);
        // Repeat lookups come from the cache.
        let (algo, cached) = tuner.tune_shape(&conv1_geom(), 96);
        assert_eq!((algo, cached), (ConvAlgo::Direct, true));
        assert_eq!(tuner.cache.len(), 2);
    }

    #[test]
    fn ties_resolve_to_the_earlier_candidate() {
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 1, 0);
        let timer = RecordedTimer::new()
            .with(geom, 4, ConvAlgo::Direct, 0.5)
            .with(geom, 4, ConvAlgo::Winograd, 0.5);
        let (algo, _) = ConvTuner::new(timer).tune_shape(&geom, 4);
        assert_eq!(algo, ConvAlgo::Direct);
    }

    /// AlexNet CONV1 / CONV2 (11x11 stride 4, 5x5) leave direct alone:
    /// the empty recording panics if the tuner asks it for anything.
    #[test]
    fn a_single_candidate_shape_is_never_timed() {
        let mut tuner = ConvTuner::new(RecordedTimer::new());
        for (geom, oc) in [
            (conv1_geom(), 96),
            (Conv2dGeometry::new(48, 27, 27, 5, 1, 2), 128),
        ] {
            assert_eq!(tuner.tune_shape(&geom, oc), (ConvAlgo::Direct, false));
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
        // Both tiny_alexnet convs are 3x3 stride 1: both candidates run.
        assert_eq!(
            report.explored,
            (ConvAlgo::TUNED.len() * net.conv_count()) as u64
        );
        assert_eq!(report.pruned, 0);
        assert_eq!(
            metrics.counter_value("tune.conv.candidates"),
            report.explored
        );
        let plan = report.plan();
        assert!(plan.validate(&net).is_ok());
        // A forward pass under the tuned plan runs.
        let input = pcnn_tensor::Tensor::zeros(vec![1, 1, 32, 32]);
        let perf = pcnn_nn::PerforationPlan::identity(net.conv_count());
        net.forward_planned(&input, &perf, &plan).unwrap();
    }
}
