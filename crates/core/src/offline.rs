//! Cross-platform offline compilation (paper §IV.B, Fig. 10 left half).
//!
//! Given the deployed GPU architecture, the network and the inferred user
//! requirements, the compiler:
//!
//! 1. selects the initial batch size (background: fill the GPU; others:
//!    data available within the time requirement),
//! 2. coordinately fine-tunes each layer's SGEMM kernel (§IV.B.2),
//! 3. derives `optSM` per layer (eq. 11) and predicts the response time
//!    (eq. 12), shrinking the batch until the requirement holds (eq. 13).

use pcnn_data::WorkloadKind;
use pcnn_gpu::sim::dispatch::{initial_residents, simulate_kernel};
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::{DispatchPolicy, GpuArch, KernelDesc};
use pcnn_kernels::sgemm::{build_kernel, SgemmShape};
use pcnn_kernels::{tune_kernel, tune_kernel_candidates, Library, TunedKernel};
use pcnn_nn::spec::{LayerSpec, NetworkSpec};

use crate::error::{Error, Result};
use crate::runtime::{simulate_schedule_with, NetworkCost};
use crate::task::{AppSpec, UserRequirements};
use crate::timemodel::{adjust_batch, layer_time, opt_sm};

/// The compiled execution plan of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Layer name.
    pub name: String,
    /// The simulator kernel for one group.
    pub kernel: KernelDesc,
    /// Grouped-convolution group count (kernels run back-to-back).
    pub groups: usize,
    /// `optSM` for this layer (eq. 11).
    pub opt_sm: usize,
    /// `optTLP` for this layer.
    pub opt_tlp: usize,
    /// Time-model prediction for this layer (eq. 12), seconds.
    pub predicted_seconds: f64,
}

impl LayerPlan {
    /// The dispatch policy the run-time kernel scheduler uses for this
    /// layer (§IV.C.2): Priority-SM over `optSM` SMs with power gating.
    pub fn psm_policy(&self) -> DispatchPolicy {
        DispatchPolicy::PrioritySm {
            sms: self.opt_sm,
            tlp: self.opt_tlp,
            power_gate: true,
        }
    }
}

/// A compiled schedule: batch size plus per-GEMM-layer plans.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Selected batch size.
    pub batch: usize,
    /// One plan per GEMM layer (convolutions and classifier layers).
    pub layers: Vec<LayerPlan>,
    /// Whether the run-time scheduler power-gates unused SMs.
    pub power_gated: bool,
    /// Per-conv-layer perforation rates (empty when not tuned).
    pub perforation: Vec<f64>,
}

impl Schedule {
    /// Time-model prediction of one whole batch (sum over layers).
    pub fn predicted_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.predicted_seconds).sum()
    }
}

/// All GEMM layers of a network at a batch size, as `(spec index, name,
/// groups, shape)`. Classifier (FC) layers are `M = out, N = batch,
/// K = in` GEMMs. This is [`gemm_layers_perforated`] at rate 0, where
/// `ceil((1 - 0) x W_o H_o)` is `W_o H_o` exactly.
pub fn gemm_layers(spec: &NetworkSpec, batch: usize) -> Vec<(usize, String, usize, SgemmShape)> {
    let rates = vec![0.0; spec.conv_layers().len()];
    gemm_layers_perforated(spec, batch, &rates).expect("one rate per conv layer")
}

/// Like [`gemm_layers`] but with per-conv-layer perforation rates applied:
/// each perforated convolution evaluates only `ceil((1 - rate) x W_o H_o)`
/// output positions per image (paper Fig. 11), shrinking the GEMM's N.
///
/// # Errors
///
/// Returns [`Error::RateLenMismatch`] if `rates.len()` differs from the
/// spec's conv-layer count.
pub fn gemm_layers_perforated(
    spec: &NetworkSpec,
    batch: usize,
    rates: &[f64],
) -> Result<Vec<(usize, String, usize, SgemmShape)>> {
    let n_convs = spec.conv_layers().len();
    if rates.len() != n_convs {
        return Err(Error::RateLenMismatch {
            expected: n_convs,
            got: rates.len(),
        });
    }
    let mut out = Vec::new();
    let mut ci = 0;
    for (i, layer) in spec.layers.iter().enumerate() {
        match layer {
            LayerSpec::Conv(c) => {
                let rate = rates[ci].clamp(0.0, 0.95);
                ci += 1;
                let mut shape = SgemmShape::of_conv(c, batch);
                let kept = (((1.0 - rate) * c.out_positions() as f64).ceil() as usize).max(1);
                shape.n = kept * batch;
                out.push((i, c.name.clone(), c.groups, shape));
            }
            LayerSpec::Fc(f) => out.push((
                i,
                f.name.clone(),
                1,
                SgemmShape {
                    m: f.out_features,
                    n: batch,
                    k: f.in_features,
                },
            )),
            LayerSpec::Pool(_) => {}
        }
    }
    Ok(out)
}

/// One layer's candidate points for the offline compiler: each config's
/// kernel and time-model prediction, built once and shared by the config's
/// TLP variants.
struct Candidates {
    name: String,
    groups: usize,
    shape: SgemmShape,
    /// `(tuned config, its kernel, predicted seconds)`.
    configs: Vec<(TunedKernel, KernelDesc, f64)>,
    /// `(config index, TLP, optSM)`, in profiling order.
    points: Vec<(usize, usize, usize)>,
}

/// The Priority-SM policy a candidate point is profiled under.
fn psm(sms: usize, tlp: usize) -> DispatchPolicy {
    DispatchPolicy::PrioritySm {
        sms,
        tlp,
        power_gate: true,
    }
}

/// The cross-platform offline compiler.
///
/// Owns the wave memo of every candidate it profiles: batch size and
/// perforation rate only change a layer's grid, never its CTA program, so
/// compilations at different batches, ladder rungs and power-gating
/// choices on one compiler re-simulate almost nothing.
#[derive(Debug)]
pub struct OfflineCompiler<'a> {
    arch: &'a GpuArch,
    spec: &'a NetworkSpec,
    sim: SimCache,
}

impl<'a> OfflineCompiler<'a> {
    /// Creates a compiler for one (architecture, network) pair.
    pub fn new(arch: &'a GpuArch, spec: &'a NetworkSpec) -> Self {
        Self {
            arch,
            spec,
            sim: SimCache::new(),
        }
    }

    /// The wave memo shared by every compilation and
    /// [`simulate_schedule`](Self::simulate_schedule) call on this compiler.
    pub fn sim_cache(&self) -> &SimCache {
        &self.sim
    }

    /// [`runtime::simulate_schedule`](crate::runtime::simulate_schedule)
    /// through this compiler's wave memo: pricing a schedule this compiler
    /// produced re-simulates nothing.
    pub fn simulate_schedule(&self, schedule: &Schedule) -> NetworkCost {
        simulate_schedule_with(self.arch, schedule, &self.sim)
    }

    /// §IV.B.1(a): the optimal background batch — the smallest batch at
    /// which the *least-utilized* GEMM layer reaches `Util = 1`, capped by
    /// what fits in memory under the reference (cuBLAS) footprint.
    pub fn background_batch(&self) -> usize {
        let mut batch = 1usize;
        while batch < 512 {
            if !Library::CuBlas.fits(self.arch, self.spec, batch) {
                // Back off to the largest batch that fits.
                return (batch / 2).max(1);
            }
            let all_full = gemm_layers(self.spec, batch)
                .iter()
                .all(|(_, _, _, shape)| {
                    let tuned = tune_kernel(self.arch, *shape);
                    let max_blocks = self.arch.n_sms * tuned.opt_tlp;
                    tuned.grid >= max_blocks
                });
            if all_full {
                return batch;
            }
            batch *= 2;
        }
        512
    }

    /// §IV.B.1(b): the initial batch for time-sensitive tasks — the images
    /// that arrive within the time requirement.
    pub fn initial_batch(&self, app: &AppSpec, req: &UserRequirements) -> usize {
        match app.kind {
            WorkloadKind::Background => self.background_batch(),
            _ => {
                let t = req.t_user().unwrap_or(0.1);
                ((app.data_rate * t).floor() as usize).max(1)
            }
        }
    }

    /// Compiles a schedule for a batch size: per-layer coordinated kernel
    /// tuning, `optSM`, and time prediction.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroBatch`] for `batch == 0`.
    pub fn try_compile_batch(&self, batch: usize) -> Result<Schedule> {
        let rates = vec![0.0; self.spec.conv_layers().len()];
        self.try_compile_perforated(batch, &rates, true)
    }

    /// Compiles a schedule with perforation rates and an explicit
    /// power-gating choice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroBatch`] for `batch == 0` and
    /// [`Error::RateLenMismatch`] if `rates.len()` differs from the spec's
    /// conv-layer count.
    pub fn try_compile_perforated(
        &self,
        batch: usize,
        rates: &[f64],
        power_gated: bool,
    ) -> Result<Schedule> {
        if batch == 0 {
            return Err(Error::ZeroBatch);
        }
        let _span = pcnn_telemetry::span!(
            "offline.compile_batch",
            batch = batch,
            power_gated = power_gated
        );
        let layers: Vec<Candidates> = gemm_layers_perforated(self.spec, batch, rates)?
            .into_iter()
            .map(|(_, name, groups, shape)| self.candidates(name, groups, shape))
            .collect();
        self.simulate_waves(&layers);
        let layers = layers.into_iter().map(|l| self.select(l)).collect();
        Ok(Schedule {
            batch,
            layers,
            power_gated,
            perforation: rates.to_vec(),
        })
    }

    /// One layer's candidate points. The analytic S_kernel score prunes
    /// the design space to a handful of configs; a short simulator run on
    /// each decides (the "explore the performance of the candidate points"
    /// step of §IV.B.2). Packing CTAs at the staircase TLP is not always
    /// optimal for compute-bound tiles; also profile lower TLPs, which
    /// eq. 11 spreads across more SMs.
    fn candidates(&self, name: String, groups: usize, shape: SgemmShape) -> Candidates {
        let mut configs = Vec::new();
        let mut points = Vec::new();
        for tuned in tune_kernel_candidates(self.arch, shape, 4) {
            let kernel = build_kernel(shape, &tuned.config, &name);
            // Eq. 11 + eq. 12 at the config's own `optTLP`, as
            // `tuned_layer_time` computes them, from this kernel's
            // instruction mix: one prediction for all its TLP variants.
            let density = kernel.trace.warp_instr_counts().fp_fraction();
            let sm = opt_sm(kernel.grid, tuned.opt_tlp, self.arch.n_sms);
            let predicted =
                layer_time(self.arch, shape.flops(), sm, tuned.rec, density) * groups as f64;
            let mut tlps = vec![tuned.opt_tlp, tuned.opt_tlp.div_ceil(2), 1];
            tlps.sort_unstable();
            tlps.dedup();
            for tlp in tlps {
                let sm = opt_sm(kernel.grid, tlp, self.arch.n_sms);
                points.push((configs.len(), tlp, sm));
            }
            configs.push((tuned, kernel, predicted));
        }
        Candidates {
            name,
            groups,
            shape,
            configs,
            points,
        }
    }

    /// Simulates every wave the candidates' launches will look up, as one
    /// parallel batch. A launch only ever reads the waves of its initial
    /// fill, and the waves are deduplicated by the memo's own key
    /// (program content, resident CTAs, active SMs), so no two workers
    /// simulate one wave — even for two layers that share a program — and
    /// the selection scan after it misses nothing.
    fn simulate_waves(&self, layers: &[Candidates]) {
        let mut waves: Vec<(&KernelDesc, usize, usize)> = Vec::new();
        for layer in layers {
            for &(c, tlp, sm) in &layer.points {
                let kernel = &layer.configs[c].1;
                let resident = initial_residents(self.arch, kernel, psm(sm, tlp));
                let active = resident.len();
                for r in resident.into_iter().filter(|&r| r > 0) {
                    let known = waves.iter().any(|&(k, kr, ka)| {
                        (kr, ka) == (r, active)
                            && k.resources == kernel.resources
                            && k.trace == kernel.trace
                    });
                    if !known {
                        waves.push((kernel, r, active));
                    }
                }
            }
        }
        let _span = pcnn_telemetry::span!("offline.simulate_waves", waves = waves.len());
        pcnn_parallel::par_map(waves.len(), |i| {
            let (kernel, resident, active) = waves[i];
            self.sim.waves(self.arch, kernel, active).cycles(resident);
        });
    }

    /// Profiles a layer's candidate points in order and keeps the fastest;
    /// the strict `<` keeps the first of equals.
    fn select(&self, layer: Candidates) -> LayerPlan {
        let Candidates {
            name,
            groups,
            shape,
            mut configs,
            points,
        } = layer;
        let _layer_span = pcnn_telemetry::span!(
            "offline.tune_layer",
            layer = name.as_str(),
            m = shape.m,
            n = shape.n,
            k = shape.k
        );
        let mut best: Option<(f64, usize)> = None;
        for (i, &(c, tlp, sm)) in points.iter().enumerate() {
            let (tuned, kernel, predicted) = &configs[c];
            let sim = simulate_kernel(self.arch, kernel, psm(sm, tlp), &self.sim);
            let measured = sim.seconds * groups as f64;
            pcnn_telemetry::counter("offline.candidates.profiled", 1);
            pcnn_telemetry::event!(
                "offline.candidate",
                layer = name.as_str(),
                tlp = tlp,
                sm = sm,
                score = tuned.score,
                predicted_cycles = sim.cycles,
                measured_seconds = measured,
                predicted_seconds = *predicted
            );
            if best.is_none_or(|(b, _)| measured < b) {
                best = Some((measured, i));
            }
        }
        let (_, i) = best.expect("at least one candidate");
        let (c, tlp, sm) = points[i];
        let (_, kernel, predicted) = configs.swap_remove(c);
        LayerPlan {
            name,
            kernel,
            groups,
            opt_sm: sm,
            opt_tlp: tlp,
            predicted_seconds: predicted,
        }
    }

    /// The full offline compilation (§IV.B.3 "Global decision"): start
    /// from the task's initial batch, then shrink via eq. 13 until the
    /// predicted response time meets `T_user`.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors (the initial batch is always at
    /// least 1, so this only fails if a sub-compilation does).
    pub fn try_compile(&self, app: &AppSpec, req: &UserRequirements) -> Result<Schedule> {
        let _span = pcnn_telemetry::span!("offline.compile", app = app.name.as_str());
        let mut batch = self.initial_batch(app, req);
        let mut schedule = self.try_compile_batch(batch)?;
        let Some(t_user) = req.t_user() else {
            return Ok(schedule); // background: done after kernel optimization
        };
        for _ in 0..8 {
            let predicted = schedule.predicted_seconds();
            let new_batch = adjust_batch(batch, predicted, t_user);
            if new_batch == batch {
                break;
            }
            batch = new_batch;
            schedule = self.try_compile_batch(batch)?;
        }
        Ok(schedule)
    }
}

/// Builds a kernel plan for a library's (untuned) kernel choice — used by
/// the baseline schedulers that do not tune.
pub fn library_schedule(
    arch: &GpuArch,
    spec: &NetworkSpec,
    library: Library,
    batch: usize,
) -> Schedule {
    let layers = gemm_layers(spec, batch)
        .into_iter()
        .map(|(_, name, groups, shape)| {
            let config = library.config_for(arch, shape);
            let kernel = build_kernel(shape, &config, &name);
            let occ = pcnn_gpu::occupancy::Occupancy::of(arch, &config.resources()).ctas_per_sm();
            let tlp = occ.max(1);
            let sm = opt_sm(kernel.grid.max(1), tlp, arch.n_sms);
            LayerPlan {
                name,
                kernel,
                groups,
                opt_sm: sm,
                opt_tlp: tlp,
                predicted_seconds: 0.0,
            }
        })
        .collect();
    Schedule {
        batch,
        layers,
        power_gated: false,
        perforation: vec![0.0; spec.conv_layers().len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_gpu::arch::{JETSON_TX1, K20C};
    use pcnn_nn::spec::alexnet;

    #[test]
    fn gemm_layers_cover_convs_and_fcs() {
        let spec = alexnet();
        let layers = gemm_layers(&spec, 1);
        assert_eq!(layers.len(), 5 + 3);
        // CONV2's grouped shape.
        let (_, name, groups, shape) = &layers[1];
        assert_eq!(name, "CONV2");
        assert_eq!(*groups, 2);
        assert_eq!((shape.m, shape.n, shape.k), (128, 729, 1200));
    }

    #[test]
    fn compile_batch_produces_plans() {
        let spec = alexnet();
        let c = OfflineCompiler::new(&K20C, &spec);
        let s = c.try_compile_batch(1).unwrap();
        assert_eq!(s.layers.len(), 8);
        for l in &s.layers {
            assert!(l.opt_sm >= 1 && l.opt_sm <= K20C.n_sms, "{}", l.name);
            assert!(l.opt_tlp >= 1);
            assert!(l.predicted_seconds > 0.0);
        }
    }

    /// Batch size only changes each layer's grid, so a second compilation
    /// on the same compiler finds most of its waves already simulated, and
    /// pricing a schedule the compiler produced re-simulates nothing.
    #[test]
    fn compilations_on_one_compiler_share_wave_simulations() {
        let spec = alexnet();
        let c = OfflineCompiler::new(&K20C, &spec);
        let rates = vec![0.0; spec.conv_layers().len()];
        let s = c.try_compile_perforated(1, &rates, true).unwrap();
        let first = c.sim_cache().misses();
        assert!(first > 0);
        let warm = c.try_compile_perforated(4, &rates, true).unwrap();
        let second = c.sim_cache().misses() - first;
        assert!(second < first, "second compile missed {second} >= {first}");

        let before = c.sim_cache().misses();
        let cost = c.simulate_schedule(&s);
        assert_eq!(c.sim_cache().misses(), before);
        assert_eq!(cost, crate::runtime::simulate_schedule(&K20C, &s));
        // And the shared memo never changes what is compiled.
        let fresh = OfflineCompiler::new(&K20C, &spec);
        assert_eq!(fresh.try_compile_perforated(4, &rates, true).unwrap(), warm);
    }

    #[test]
    fn non_batching_releases_sms_on_k20() {
        // §III.C: at batch 1, AlexNet underutilizes the K20 — optSM must be
        // below 13 for at least the late layers.
        let spec = alexnet();
        let s = OfflineCompiler::new(&K20C, &spec)
            .try_compile_batch(1)
            .unwrap();
        let conv5 = s.layers.iter().find(|l| l.name == "CONV5").unwrap();
        assert!(conv5.opt_sm < K20C.n_sms, "optSM {}", conv5.opt_sm);
    }

    #[test]
    fn interactive_compile_meets_time_budget_on_k20() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let req = UserRequirements::infer(&app);
        let s = OfflineCompiler::new(&K20C, &spec)
            .try_compile(&app, &req)
            .unwrap();
        assert!(s.predicted_seconds() <= req.t_user().unwrap() * 1.05);
        assert!(s.batch >= 1);
    }

    #[test]
    fn background_batch_grows_with_gpu() {
        let spec = alexnet();
        let k20 = OfflineCompiler::new(&K20C, &spec).background_batch();
        let tx1 = OfflineCompiler::new(&JETSON_TX1, &spec).background_batch();
        assert!(k20 > tx1, "K20 {k20} vs TX1 {tx1}");
        assert!(tx1 >= 1);
    }

    #[test]
    fn library_schedule_has_no_gating() {
        let spec = alexnet();
        let s = library_schedule(&K20C, &spec, Library::CuBlas, 1);
        assert!(!s.power_gated);
        assert_eq!(s.layers.len(), 8);
    }
}
