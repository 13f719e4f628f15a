//! Run-time kernel management and workload execution (paper §IV.C.2).
//!
//! Executes a request trace against a compiled [`Schedule`]: every GEMM
//! layer is simulated on the `pcnn-gpu` simulator under the schedule's
//! dispatch policy (Priority-SM over `optSM` SMs with power gating for
//! P-CNN/QPE+; plain Round-Robin for the baselines), requests are batched
//! according to the schedule, and per-request latency plus end-to-end
//! energy are accounted.

use std::collections::HashMap;

use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::{DispatchPolicy, EnergyBreakdown, GpuArch};

use crate::error::{Error, Result};
use crate::offline::{Schedule, ScheduleProvider};

/// Simulated cost of one forward pass of the whole network at the
/// schedule's batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkCost {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Energy over the pass.
    pub energy: EnergyBreakdown,
}

/// Simulates every layer of `schedule` once and sums time and energy.
/// Grouped-convolution groups run back-to-back (cost multiplied).
///
/// Wave simulations are shared across the layers of this one call; use
/// [`OfflineCompiler::simulate_schedule`](crate::offline::OfflineCompiler::simulate_schedule)
/// to also share them with the compilation that produced the schedule.
pub fn simulate_schedule(arch: &GpuArch, schedule: &Schedule) -> NetworkCost {
    simulate_schedule_with(arch, schedule, &SimCache::new())
}

pub(crate) fn simulate_schedule_with(
    arch: &GpuArch,
    schedule: &Schedule,
    cache: &SimCache,
) -> NetworkCost {
    let _span = pcnn_telemetry::span!(
        "runtime.simulate_schedule",
        batch = schedule.batch,
        layers = schedule.layers.len(),
        power_gated = schedule.power_gated
    );
    let mut seconds = 0.0;
    let mut energy = EnergyBreakdown::default();
    for layer in &schedule.layers {
        let policy = if schedule.power_gated {
            layer.psm_policy()
        } else {
            DispatchPolicy::RoundRobin
        };
        let r = simulate_kernel(arch, &layer.kernel, policy, cache);
        let g = layer.groups as f64;
        seconds += r.seconds * g;
        energy = energy.plus(&r.energy.scaled(g));
    }
    NetworkCost { seconds, energy }
}

/// Outcome of executing a whole request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Per-request latency: completion of the request's last image minus
    /// the request's arrival (0 for a request of no images).
    pub latencies: Vec<f64>,
    /// Time from first arrival to last completion.
    pub makespan: f64,
    /// Energy spent computing (what the paper's GPGPU-Sim + GPUWattch
    /// setup measures and what the SoC metric divides by).
    pub energy: EnergyBreakdown,
    /// Additional idle energy between batches (constant platform power
    /// over the non-busy span) — identical across schedulers up to
    /// makespan differences, reported separately.
    pub idle_energy_j: f64,
}

impl ExecutionReport {
    /// Mean per-request latency.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }

    /// Worst per-request latency.
    pub fn max_latency(&self) -> f64 {
        self.latencies.iter().copied().fold(0.0, f64::max)
    }

    /// The characteristic response time the SoC metric scores: the worst
    /// frame for real-time tasks, the mean response for interactive tasks,
    /// and the makespan for background bursts.
    pub fn response_time(&self, kind: WorkloadKind) -> f64 {
        match kind {
            WorkloadKind::RealTime => self.max_latency(),
            WorkloadKind::Interactive => self.mean_latency(),
            WorkloadKind::Background => self.makespan,
        }
    }
}

/// Executes `trace` under schedules looked up from `provider` (one per
/// needed chunk size — the schedule's batch for full chunks, smaller for
/// the tail).
///
/// Images queue FIFO; a chunk of `batch` images starts when all its images
/// have arrived and the GPU is free. The final partial chunk runs at its
/// own size.
///
/// Any [`ScheduleProvider`] works: an
/// [`OfflineCompiler`](crate::offline::OfflineCompiler) directly, a
/// [`ScheduleCache`](crate::offline::ScheduleCache) shared with other
/// executions, or a closure wrapped in
/// [`FnProvider`](crate::offline::FnProvider). Costs are memoized per
/// chunk size for the duration of the call.
///
/// # Errors
///
/// Returns [`Error::ZeroBatch`] if `batch == 0`, [`Error::EmptyTrace`] if
/// the trace contains no images, [`Error::BatchMismatch`] if the provider
/// returns a schedule whose batch differs from the requested size, and
/// propagates provider errors.
pub fn execute_trace(
    arch: &GpuArch,
    trace: &TraceSpec,
    batch: usize,
    provider: &mut dyn ScheduleProvider,
) -> Result<ExecutionReport> {
    if batch == 0 {
        return Err(Error::ZeroBatch);
    }
    let requests: Vec<(f64, usize)> = trace.arrivals().collect();
    // Flatten images: (arrival, request index).
    let mut images: Vec<(f64, usize)> = Vec::new();
    for (ri, &(at, n)) in requests.iter().enumerate() {
        for _ in 0..n {
            images.push((at, ri));
        }
    }
    if images.is_empty() {
        return Err(Error::EmptyTrace);
    }
    let _span = pcnn_telemetry::span!(
        "runtime.execute_trace",
        batch = batch,
        requests = requests.len(),
        images = images.len()
    );

    let mut costs: HashMap<usize, NetworkCost> = HashMap::new();
    let mut cost_of = |size: usize| -> Result<NetworkCost> {
        if let Some(c) = costs.get(&size) {
            return Ok(*c);
        }
        let schedule = provider.schedule(size)?;
        if schedule.batch != size {
            return Err(Error::BatchMismatch {
                requested: size,
                got: schedule.batch,
            });
        }
        pcnn_telemetry::event!(
            "runtime.schedule",
            batch = size,
            power_gated = schedule.power_gated,
            mean_perforation =
                schedule.perforation.iter().sum::<f64>() / schedule.perforation.len().max(1) as f64
        );
        let c = simulate_schedule(arch, &schedule);
        costs.insert(size, c);
        Ok(c)
    };

    // A request is done when its last image is, and no sooner than it
    // arrives.
    let mut request_done: Vec<f64> = requests.iter().map(|&(at, _)| at).collect();
    let mut gpu_free = 0.0f64;
    let mut busy = 0.0f64;
    let mut energy = EnergyBreakdown::default();
    let mut idx = 0;
    while idx < images.len() {
        let size = batch.min(images.len() - idx);
        let chunk = &images[idx..idx + size];
        let ready = chunk.last().expect("non-empty chunk").0;
        let cost = cost_of(size)?;
        // Batch occupancy: how full each dispatched chunk actually was.
        pcnn_telemetry::histogram("runtime.batch_occupancy", size as f64 / batch as f64);
        let start = gpu_free.max(ready);
        let finish = start + cost.seconds;
        for &(_, ri) in chunk {
            request_done[ri] = request_done[ri].max(finish);
        }
        gpu_free = finish;
        busy += cost.seconds;
        energy = energy.plus(&cost.energy);
        idx += size;
    }
    let makespan = gpu_free;
    // Idle periods burn the constant platform power only (deep idle).
    let idle_energy_j = (makespan - busy).max(0.0) * arch.energy.constant_w;

    let latencies: Vec<f64> = requests
        .iter()
        .zip(&request_done)
        .map(|(&(at, _), &done)| done - at)
        .collect();
    if pcnn_telemetry::enabled() {
        for &l in &latencies {
            pcnn_telemetry::histogram("runtime.request_latency_s", l);
        }
    }
    Ok(ExecutionReport {
        latencies,
        makespan,
        energy,
        idle_energy_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{FnProvider, OfflineCompiler, ScheduleCache};
    use pcnn_gpu::arch::K20C;
    use pcnn_nn::spec::alexnet;

    fn schedule_builder(batch: usize) -> Schedule {
        let spec = alexnet();
        OfflineCompiler::new(&K20C, &spec)
            .try_compile_batch(batch)
            .unwrap()
    }

    fn run(trace: &TraceSpec, batch: usize) -> ExecutionReport {
        let mut provider = FnProvider(|size| Ok(schedule_builder(size)));
        execute_trace(&K20C, trace, batch, &mut provider).unwrap()
    }

    #[test]
    fn simulate_schedule_positive_cost() {
        let s = schedule_builder(1);
        let c = simulate_schedule(&K20C, &s);
        assert!(c.seconds > 0.0);
        assert!(c.energy.total_j() > 0.0);
    }

    #[test]
    fn interactive_trace_latencies() {
        let trace = TraceSpec::interactive(4, 0.5, 1.0, 7);
        let report = run(&trace, 1);
        assert_eq!(report.latencies.len(), 4);
        // Requests are well separated; each latency equals one batch-1 pass.
        let c = simulate_schedule(&K20C, &schedule_builder(1));
        for &l in &report.latencies {
            assert!((l - c.seconds).abs() < 1e-9, "latency {l} vs {}", c.seconds);
        }
    }

    #[test]
    fn background_burst_batches() {
        let trace = TraceSpec::background(10);
        let report = run(&trace, 4);
        // 3 chunks (4+4+2), one request.
        assert_eq!(report.latencies.len(), 1);
        assert!(report.makespan > 0.0);
        assert_eq!(
            report.response_time(WorkloadKind::Background),
            report.makespan
        );
    }

    #[test]
    fn tail_batch_runs_at_its_own_size() {
        // 10 images at t = 0, batch 4: chunks of 4, 4 and 2 run
        // back-to-back, so the makespan is exactly 2 x cost(4) + cost(2)
        // and the energy is the sum of the three chunk energies.
        let trace = TraceSpec::background(10);
        let report = run(&trace, 4);
        let c4 = simulate_schedule(&K20C, &schedule_builder(4));
        let c2 = simulate_schedule(&K20C, &schedule_builder(2));
        let expected = 2.0 * c4.seconds + c2.seconds;
        assert!(
            (report.makespan - expected).abs() < 1e-9 * expected,
            "makespan {} vs {}",
            report.makespan,
            expected
        );
        let expected_j = 2.0 * c4.energy.total_j() + c2.energy.total_j();
        assert!((report.energy.total_j() - expected_j).abs() < 1e-9 * expected_j);
    }

    #[test]
    fn tail_smaller_than_batch_is_not_padded() {
        // 3 images, batch 8: a single chunk of 3 — never an 8-image pass.
        let trace = TraceSpec::background(3);
        let mut sizes = Vec::new();
        let mut provider = FnProvider(|size| {
            sizes.push(size);
            Ok(schedule_builder(size))
        });
        let report = execute_trace(&K20C, &trace, 8, &mut provider).unwrap();
        assert_eq!(sizes, vec![3]);
        let c3 = simulate_schedule(&K20C, &schedule_builder(3));
        assert!((report.makespan - c3.seconds).abs() < 1e-12);
    }

    #[test]
    fn batching_delays_first_request() {
        // Real-time 30 fps frames, batch 8: the first frame waits for 7
        // more frames before processing starts.
        let trace = TraceSpec::real_time(8, 30.0);
        let batched = run(&trace, 8);
        let single = run(&trace, 1);
        assert!(
            batched.latencies[0] > single.latencies[0] + 7.0 / 30.0 - 1e-6,
            "batched {} vs single {}",
            batched.latencies[0],
            single.latencies[0]
        );
    }

    #[test]
    fn idle_energy_reported_separately() {
        // Two requests 10 s apart: idle energy is ~10 s x constant power,
        // and the compute energy is exactly two batch-1 passes.
        let trace = TraceSpec::interactive(2, 10.0, 10.0, 1);
        let report = run(&trace, 1);
        let compute = simulate_schedule(&K20C, &schedule_builder(1));
        assert!(
            (report.idle_energy_j - 10.0 * K20C.energy.constant_w).abs() / report.idle_energy_j
                < 0.05,
            "idle {}",
            report.idle_energy_j
        );
        assert!(
            (report.energy.total_j() - 2.0 * compute.energy.total_j()).abs()
                < 1e-9 * report.energy.total_j(),
            "compute energy mismatch"
        );
    }

    #[test]
    fn zero_batch_is_an_error() {
        let trace = TraceSpec::background(4);
        let spec = alexnet();
        let mut compiler = OfflineCompiler::new(&K20C, &spec);
        let err = execute_trace(&K20C, &trace, 0, &mut compiler).unwrap_err();
        assert_eq!(err, Error::ZeroBatch);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let trace = TraceSpec::explicit(WorkloadKind::Interactive, vec![]);
        let spec = alexnet();
        let mut compiler = OfflineCompiler::new(&K20C, &spec);
        let err = execute_trace(&K20C, &trace, 1, &mut compiler).unwrap_err();
        assert_eq!(err, Error::EmptyTrace);
        // A trace of requests that all carry zero images is also empty.
        let trace = TraceSpec::explicit(WorkloadKind::Interactive, vec![(0.0, 0)]);
        let err = execute_trace(&K20C, &trace, 1, &mut compiler).unwrap_err();
        assert_eq!(err, Error::EmptyTrace);
    }

    #[test]
    fn batch_mismatch_is_an_error() {
        let trace = TraceSpec::background(4);
        // A provider that always compiles batch 1 regardless of the ask.
        let mut wrong = FnProvider(|_| Ok(schedule_builder(1)));
        let err = execute_trace(&K20C, &trace, 2, &mut wrong).unwrap_err();
        assert_eq!(
            err,
            Error::BatchMismatch {
                requested: 2,
                got: 1
            }
        );
    }

    #[test]
    fn schedule_cache_compiles_each_size_once() {
        let mut compiles = 0usize;
        let mut cache = ScheduleCache::new(FnProvider(|size| {
            compiles += 1;
            Ok(schedule_builder(size))
        }));
        let trace = TraceSpec::background(10);
        let a = execute_trace(&K20C, &trace, 4, &mut cache).unwrap();
        let b = execute_trace(&K20C, &trace, 4, &mut cache).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 2); // sizes 4 and 2
        drop(cache);
        assert_eq!(compiles, 2);
    }

    #[test]
    fn a_request_of_no_images_waits_for_nothing() {
        let trace = TraceSpec::explicit(
            WorkloadKind::Interactive,
            vec![(0.0, 1), (2.0, 0), (3.0, 1)],
        );
        let report = run(&trace, 1);
        let pass = simulate_schedule(&K20C, &schedule_builder(1)).seconds;
        assert_eq!(report.latencies[1], 0.0);
        assert!((report.latencies[0] - pass).abs() < 1e-12);
        assert!((report.latencies[2] - pass).abs() < 1e-12);
        assert!((report.mean_latency() - 2.0 * pass / 3.0).abs() < 1e-12);
    }

    /// FNV-1a over the little-endian bytes of 64-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The executor behind `repro fig13`–`fig15`, pinned: latencies,
    /// makespan and energy of every shaped process and one explicit list
    /// on K20c, hashed bit for bit.
    #[test]
    fn executor_reports_are_golden() {
        let spec = alexnet();
        let mut cache = ScheduleCache::new(OfflineCompiler::new(&K20C, &spec));
        let traces = [
            TraceSpec::interactive(6, 0.05, 0.2, 3),
            TraceSpec::real_time(6, 30.0),
            TraceSpec::background(5),
            TraceSpec::poisson(WorkloadKind::Interactive, 6, 20.0, 11),
            TraceSpec::bursty(WorkloadKind::RealTime, 3, 2, 4.0, 5),
            TraceSpec::explicit(
                WorkloadKind::Interactive,
                vec![(0.0, 1), (0.01, 2), (0.5, 1)],
            ),
        ];
        let hashes: Vec<u64> = traces
            .iter()
            .map(|t| {
                let r = execute_trace(&K20C, t, 2, &mut cache).unwrap();
                let e = r.energy;
                let tail = [r.makespan, e.dynamic_j, e.leakage_j, e.dram_j, e.constant_j];
                fnv1a(r.latencies.iter().chain(&tail).map(|v| v.to_bits()))
            })
            .collect();
        assert_eq!(
            hashes,
            [
                0xe9ac_b3f8_4e25_c5c9,
                0xba13_8985_0e2d_0859,
                0xf832_242c_ac98_2bc2,
                0xc414_9936_16cd_2887,
                0xb247_c6ce_d731_8653,
                0xa5b0_a976_00df_cbea,
            ]
        );
    }
}
