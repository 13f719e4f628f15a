//! The five baseline schedulers and P-CNN itself (paper §V.B), plus the
//! evaluation harness that executes each on the GPU simulator and scores
//! the Satisfaction-of-CNN metric (Figs. 13–15).

use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::GpuArch;
use pcnn_nn::perforation::PerforationPlan;
use pcnn_nn::spec::NetworkSpec;

use pcnn_kernels::Library;

use crate::error::{Error, Result};
use crate::offline::{library_schedule, FnProvider, OfflineCompiler};
use crate::runtime::{execute_trace, ExecutionReport};
use crate::soc::{score, Soc, SocInputs};
use crate::task::{AppSpec, UserRequirements};
use crate::tuning::TuningPath;

/// The compared scheduling schemes (paper §V.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Non-batching, fastest response, no energy awareness.
    PerformancePreferred,
    /// Training-style big batch: best throughput/energy, worst latency.
    EnergyEfficient,
    /// Least energy subject to the time requirement (time model, no SM
    /// partitioning).
    Qpe,
    /// QPE plus optimal-SM partitioning with power gating (P-CNN without
    /// accuracy tuning).
    QpePlus,
    /// The full P-CNN: QPE+ plus entropy-based accuracy tuning.
    PCnn,
    /// Oracle: profiles every tuning point and batch candidate, keeps the
    /// best actual SoC.
    Ideal,
}

impl SchedulerKind {
    /// All six, in the paper's presentation order.
    pub fn all() -> [SchedulerKind; 6] {
        [
            SchedulerKind::PerformancePreferred,
            SchedulerKind::EnergyEfficient,
            SchedulerKind::Qpe,
            SchedulerKind::QpePlus,
            SchedulerKind::PCnn,
            SchedulerKind::Ideal,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::PerformancePreferred => "Performance-preferred",
            SchedulerKind::EnergyEfficient => "Energy-efficient",
            SchedulerKind::Qpe => "QPE",
            SchedulerKind::QpePlus => "QPE+",
            SchedulerKind::PCnn => "P-CNN",
            SchedulerKind::Ideal => "Ideal",
        }
    }
}

/// Everything a scheduler needs to decide.
#[derive(Debug, Clone)]
pub struct SchedulerContext<'a> {
    /// Target architecture.
    pub arch: &'a GpuArch,
    /// The network's shape-level spec.
    pub spec: &'a NetworkSpec,
    /// The application.
    pub app: &'a AppSpec,
    /// Inferred requirements.
    pub req: UserRequirements,
    /// The batch the training stage used (the energy-efficient scheduler
    /// reuses it; paper §III.B: 128 for AlexNet, 64 for GoogLeNet, 32 for
    /// VGGNet).
    pub training_batch: usize,
    /// Measured tuning path of the network's trainable counterpart (drives
    /// P-CNN's accuracy tuning and the entropy estimates of every
    /// scheduler; see `DESIGN.md`).
    pub tuning_path: &'a TuningPath,
}

/// A scheduler's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Batch size.
    pub batch: usize,
    /// Whether idle SMs are partitioned away and power-gated.
    pub power_gated: bool,
    /// Per-conv-layer perforation rates on the target network.
    pub rates: Vec<f64>,
    /// Expected output entropy under those rates.
    pub entropy: f64,
    /// Index into the tuning path (for calibration).
    pub table_index: usize,
    /// `Some(lib)` when the scheduler runs stock library kernels instead
    /// of P-CNN's offline-tuned ones (the baselines without the
    /// cross-platform compiler).
    pub library: Option<Library>,
}

/// Maps a tuning-path plan measured on the small counterpart network onto
/// the target network's conv layers by normalised depth. A network with
/// no conv layers maps to an empty rate vector.
pub fn map_rates(plan: &PerforationPlan, target_convs: usize) -> Vec<f64> {
    if target_convs == 0 {
        return Vec::new();
    }
    let k = plan.len();
    if k == 0 {
        return vec![0.0; target_convs];
    }
    (0..target_convs)
        .map(|j| {
            let idx = if target_convs == 1 {
                0
            } else {
                (j * (k - 1) + (target_convs - 1) / 2) / (target_convs - 1)
            };
            plan.rate(idx.min(k - 1))
        })
        .collect()
}

/// Produces a scheduler's decision (everything except the Ideal oracle,
/// which needs the trace — see [`evaluate`]).
///
/// # Errors
///
/// Returns [`Error::EmptyTuningPath`] if the context's tuning path has no
/// entries and propagates offline-compilation errors.
pub fn decide(kind: SchedulerKind, ctx: &SchedulerContext<'_>) -> Result<Decision> {
    if ctx.tuning_path.entries.is_empty() {
        return Err(Error::EmptyTuningPath);
    }
    let compiler = OfflineCompiler::new(ctx.arch, ctx.spec);
    let n_convs = ctx.spec.conv_layers().len();
    let base_entropy = ctx.tuning_path.entries[0].entropy;
    let no_rates = vec![0.0; n_convs];
    Ok(match kind {
        SchedulerKind::PerformancePreferred => Decision {
            batch: 1,
            power_gated: false,
            rates: no_rates,
            entropy: base_entropy,
            table_index: 0,
            library: Some(Library::CuBlas),
        },
        SchedulerKind::EnergyEfficient => Decision {
            batch: ctx.training_batch,
            power_gated: false,
            rates: no_rates,
            entropy: base_entropy,
            table_index: 0,
            library: Some(Library::CuBlas),
        },
        SchedulerKind::Qpe => {
            let s = compiler.try_compile(ctx.app, &ctx.req)?;
            Decision {
                batch: s.batch,
                power_gated: false,
                rates: no_rates,
                entropy: base_entropy,
                table_index: 0,
                library: Some(Library::CuBlas),
            }
        }
        SchedulerKind::QpePlus => {
            let s = compiler.try_compile(ctx.app, &ctx.req)?;
            Decision {
                batch: s.batch,
                power_gated: true,
                rates: no_rates,
                entropy: base_entropy,
                table_index: 0,
                library: None,
            }
        }
        SchedulerKind::PCnn => {
            let s = compiler.try_compile(ctx.app, &ctx.req)?;
            let mut idx = ctx
                .tuning_path
                .deepest_index_within(ctx.req.entropy_threshold);
            // Time has the highest priority (§IV): for a real-time task
            // whose deadline cannot be met even with the fastest
            // threshold-respecting kernel, keep taking more aggressive
            // tuning tables — SoC_accuracy pays the entropy penalty, but
            // the deadline (which would otherwise zero the whole score) is
            // met. This is how P-CNN alone satisfies the mobile real-time
            // task in the paper's Fig. 13(b)/15(b).
            if ctx.app.kind == pcnn_data::WorkloadKind::RealTime {
                if let Some(deadline) = ctx.req.t_user() {
                    while idx + 1 < ctx.tuning_path.entries.len() {
                        let rates = map_rates(&ctx.tuning_path.entries[idx].plan, n_convs);
                        let sched = compiler.try_compile_perforated(s.batch, &rates, true)?;
                        let cost = crate::runtime::simulate_schedule(ctx.arch, &sched);
                        if cost.seconds <= deadline {
                            break;
                        }
                        idx += 1;
                    }
                }
            }
            let entry = &ctx.tuning_path.entries[idx];
            Decision {
                batch: s.batch,
                power_gated: true,
                rates: map_rates(&entry.plan, n_convs),
                entropy: entry.entropy,
                table_index: idx,
                library: None,
            }
        }
        SchedulerKind::Ideal => {
            // Without the trace the oracle defaults to P-CNN's decision;
            // `evaluate` performs the profiling search.
            decide(SchedulerKind::PCnn, ctx)?
        }
    })
}

/// A scheduler's evaluated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The decision that was executed.
    pub decision: Decision,
    /// Execution trace results.
    pub report: ExecutionReport,
    /// The SoC score.
    pub soc: Soc,
}

fn run_decision(
    ctx: &SchedulerContext<'_>,
    trace: &TraceSpec,
    decision: &Decision,
) -> Result<Evaluation> {
    let compiler = OfflineCompiler::new(ctx.arch, ctx.spec);
    let mut provider = FnProvider(|size| match decision.library {
        Some(lib) => Ok(library_schedule(ctx.arch, ctx.spec, lib, size)),
        None => compiler.try_compile_perforated(size, &decision.rates, decision.power_gated),
    });
    let report = execute_trace(ctx.arch, trace, decision.batch, &mut provider)?;
    let response = report.response_time(ctx.app.kind);
    let s = score(
        &ctx.req,
        &SocInputs {
            response_time: response,
            entropy: decision.entropy,
            energy_j: report.energy.total_j(),
        },
    )?;
    Ok(Evaluation {
        decision: decision.clone(),
        report,
        soc: s,
    })
}

/// Executes `kind` on `trace` and scores it. The Ideal oracle profiles
/// every tuning table crossed with a small set of batch candidates and
/// keeps the best actual SoC (paper §V.B.5).
///
/// # Errors
///
/// Propagates [`decide`], execution and scoring errors (an empty trace or
/// tuning path, a zero training batch, a failed compilation).
pub fn evaluate(
    kind: SchedulerKind,
    ctx: &SchedulerContext<'_>,
    trace: &TraceSpec,
) -> Result<Evaluation> {
    if kind != SchedulerKind::Ideal {
        let decision = decide(kind, ctx)?;
        return run_decision(ctx, trace, &decision);
    }
    // Oracle search.
    let base = decide(SchedulerKind::QpePlus, ctx)?;
    let n_convs = ctx.spec.conv_layers().len();
    let mut batches = vec![base.batch, 1, ctx.training_batch];
    batches.sort_unstable();
    batches.dedup();
    let mut best: Option<Evaluation> = None;
    for &batch in &batches {
        for (idx, entry) in ctx.tuning_path.entries.iter().enumerate() {
            for power_gated in [true, false] {
                let decision = Decision {
                    batch,
                    power_gated,
                    rates: map_rates(&entry.plan, n_convs),
                    entropy: entry.entropy,
                    table_index: idx,
                    library: None,
                };
                let ev = run_decision(ctx, trace, &decision)?;
                if best
                    .as_ref()
                    .map(|b| ev.soc.score > b.soc.score)
                    .unwrap_or(true)
                {
                    best = Some(ev);
                }
            }
        }
    }
    Ok(best.expect("oracle evaluated at least one candidate"))
}

/// Builds the request trace the paper's three scenarios use (§V.C).
pub fn scenario_trace(app: &AppSpec, n_requests: usize, seed: u64) -> TraceSpec {
    match app.kind {
        WorkloadKind::Interactive => TraceSpec::interactive(n_requests, 0.8, 2.0, seed),
        WorkloadKind::RealTime => TraceSpec::real_time(n_requests, app.data_rate),
        WorkloadKind::Background => TraceSpec::background(n_requests),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::TuningEntry;
    use pcnn_gpu::arch::K20C;
    use pcnn_nn::spec::alexnet;

    /// A synthetic tuning path (so tests do not need to train a network).
    fn fake_path(n_convs: usize) -> TuningPath {
        let mk = |rates: Vec<f64>, entropy: f64, retained: f64| TuningEntry {
            plan: PerforationPlan::from_rates(rates),
            entropy,
            accuracy: None,
            retained_flops: retained,
            speedup: 1.0 / retained.max(0.2),
        };
        TuningPath {
            entries: vec![
                mk(vec![0.0; n_convs], 0.9, 1.0),
                mk(
                    {
                        let mut r = vec![0.0; n_convs];
                        r[0] = 0.2;
                        r
                    },
                    1.0,
                    0.9,
                ),
                mk(vec![0.3; n_convs], 1.3, 0.7),
                mk(vec![0.5; n_convs], 1.8, 0.5),
            ],
        }
    }

    fn ctx<'a>(
        spec: &'a NetworkSpec,
        app: &'a AppSpec,
        path: &'a TuningPath,
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            arch: &K20C,
            spec,
            app,
            req: UserRequirements::infer(app),
            training_batch: 128,
            tuning_path: path,
        }
    }

    #[test]
    fn map_rates_preserves_extremes() {
        let plan = PerforationPlan::from_rates(vec![0.1, 0.5]);
        let mapped = map_rates(&plan, 5);
        assert_eq!(mapped.len(), 5);
        assert_eq!(mapped[0], 0.1);
        assert_eq!(mapped[4], 0.5);
    }

    #[test]
    fn performance_preferred_is_non_batching() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let path = fake_path(5);
        let d = decide(
            SchedulerKind::PerformancePreferred,
            &ctx(&spec, &app, &path),
        )
        .unwrap();
        assert_eq!(d.batch, 1);
        assert!(!d.power_gated);
        assert!(d.rates.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn energy_efficient_uses_training_batch() {
        let spec = alexnet();
        let app = AppSpec::image_tagging();
        let path = fake_path(5);
        let d = decide(SchedulerKind::EnergyEfficient, &ctx(&spec, &app, &path)).unwrap();
        assert_eq!(d.batch, 128);
    }

    #[test]
    fn qpe_plus_gates_qpe_does_not() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let path = fake_path(5);
        let c = ctx(&spec, &app, &path);
        assert!(!decide(SchedulerKind::Qpe, &c).unwrap().power_gated);
        assert!(decide(SchedulerKind::QpePlus, &c).unwrap().power_gated);
        assert_eq!(
            decide(SchedulerKind::Qpe, &c).unwrap().batch,
            decide(SchedulerKind::QpePlus, &c).unwrap().batch
        );
    }

    #[test]
    fn pcnn_perforates_within_threshold() {
        let spec = alexnet();
        let app = AppSpec::age_detection(); // threshold 1.20
        let path = fake_path(5);
        let d = decide(SchedulerKind::PCnn, &ctx(&spec, &app, &path)).unwrap();
        assert_eq!(d.table_index, 1); // deepest entry with entropy <= 1.20
        assert!(d.rates.iter().any(|&r| r > 0.0));
        assert!(d.entropy <= 1.20);
    }

    #[test]
    fn pcnn_conservative_for_accuracy_sensitive() {
        let spec = alexnet();
        let app = AppSpec::video_surveillance(30.0); // threshold 1.10
        let path = fake_path(5);
        let d = decide(SchedulerKind::PCnn, &ctx(&spec, &app, &path)).unwrap();
        assert!(d.table_index <= 1, "picked {}", d.table_index);
    }

    #[test]
    fn evaluate_interactive_all_schedulers() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let path = fake_path(5);
        let c = ctx(&spec, &app, &path);
        let trace = scenario_trace(&app, 3, 42);
        let perf = evaluate(SchedulerKind::PerformancePreferred, &c, &trace).unwrap();
        let pcnn = evaluate(SchedulerKind::PCnn, &c, &trace).unwrap();
        // Both meet the 100 ms imperceptible bound on a K20.
        assert_eq!(
            perf.soc.time, 1.0,
            "perf latency {:?}",
            perf.report.latencies
        );
        assert_eq!(
            pcnn.soc.time, 1.0,
            "pcnn latency {:?}",
            pcnn.report.latencies
        );
        // P-CNN saves energy (gating + perforation) -> higher SoC.
        assert!(
            pcnn.report.energy.total_j() < perf.report.energy.total_j(),
            "pcnn {} vs perf {}",
            pcnn.report.energy.total_j(),
            perf.report.energy.total_j()
        );
        assert!(pcnn.soc.score > perf.soc.score);
    }

    #[test]
    fn ideal_at_least_matches_pcnn() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let path = fake_path(5);
        let c = ctx(&spec, &app, &path);
        let trace = scenario_trace(&app, 2, 7);
        let pcnn = evaluate(SchedulerKind::PCnn, &c, &trace).unwrap();
        let ideal = evaluate(SchedulerKind::Ideal, &c, &trace).unwrap();
        assert!(ideal.soc.score >= pcnn.soc.score * 0.999);
    }

    #[test]
    fn empty_tuning_path_is_a_typed_error() {
        let spec = alexnet();
        let app = AppSpec::age_detection();
        let path = TuningPath { entries: vec![] };
        let c = ctx(&spec, &app, &path);
        assert_eq!(
            decide(SchedulerKind::PerformancePreferred, &c).unwrap_err(),
            Error::EmptyTuningPath
        );
        let trace = scenario_trace(&app, 2, 1);
        assert_eq!(
            evaluate(SchedulerKind::PCnn, &c, &trace).unwrap_err(),
            Error::EmptyTuningPath
        );
    }
}
