//! Fixed-batch FIFO replay: the non-adaptive baseline the serving loop
//! is compared against. It runs the same trace through the core trace
//! executor — one queue, one GPU, always the same batch size, no
//! admission control and no degradation.

use pcnn_core::prelude::*;
use pcnn_gpu::GpuArch;
use pcnn_nn::spec::NetworkSpec;

use crate::config::ServeWorkload;
use crate::report::LatencyStats;

const EPS: f64 = 1e-12;

/// Outcome of a fixed-batch FIFO replay.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Latency percentiles over all requests (nothing is rejected; under
    /// overload the queue simply grows without bound).
    pub latency: LatencyStats,
    /// Requests that met `T_user`.
    pub deadlines_met: usize,
    /// Requests with a deadline.
    pub deadline_total: usize,
    /// Compute energy (J).
    pub energy_j: f64,
    /// First arrival to last completion (s).
    pub makespan_s: f64,
    /// Satisfaction-of-CNN at the workload's characteristic response
    /// time, scored at `base_entropy`.
    pub soc: Soc,
}

/// Replays `workload`'s trace at a fixed batch size on one GPU.
///
/// `base_entropy` is the unperforated network's mean output entropy (the
/// baseline never degrades accuracy).
///
/// # Errors
///
/// Propagates [`Error::ZeroBatch`] / [`Error::EmptyTrace`] from the trace
/// executor and [`Error::InvalidInput`] from scoring.
pub fn fifo_baseline(
    arch: &GpuArch,
    spec: &NetworkSpec,
    workload: &ServeWorkload,
    batch: usize,
    base_entropy: f64,
) -> Result<BaselineReport> {
    let compiler = OfflineCompiler::new(arch, spec);
    let schedule = |b| compiler.try_compile_batch(b);
    let report = execute_trace(arch, &workload.trace, batch, schedule)?;
    let latency = LatencyStats::of(&report.latencies);
    let (met, total) = match workload.t_user() {
        Some(t_user) => (
            report
                .latencies
                .iter()
                .filter(|&&l| l <= t_user + EPS)
                .count(),
            report.latencies.len(),
        ),
        None => (0, 0),
    };
    let response = report.response_time(workload.app.kind);
    let soc = score(
        &workload.req,
        &SocInputs {
            response_time: response,
            entropy: base_entropy,
            energy_j: report.energy.total_j(),
        },
    )?;
    Ok(BaselineReport {
        latency,
        deadlines_met: met,
        deadline_total: total,
        energy_j: report.energy.total_j(),
        makespan_s: report.makespan,
        soc,
    })
}
