//! The canonical benchmark scenarios behind the committed baselines.
//!
//! `BENCH_serve.json` and `BENCH_gemm.json` at the repository root are
//! regenerated by `pcnn serve --json` / `pcnn bench-gemm --json` and
//! regression-gated by `pcnn obs check`. Both code paths must produce the
//! scenario (and, for serve, the byte-identical report) from one
//! definition — this module is that definition.

use pcnn_core::prelude::{simulate_schedule, NetworkCost, OfflineCompiler};
use pcnn_core::task::AppSpec;
use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::arch::{GpuArch, JETSON_TX1, K20C};
use pcnn_nn::spec::{alexnet, NetworkSpec};
use pcnn_serve::{
    DegradationLadder, Platform, RouterPolicy, ServeReport, ServeWorkload, Server, ServerConfig,
};
use pcnn_telemetry::json::JsonValue;

use crate::harness::best_secs;
use crate::obs::{compare_conv, compare_gemm, Violation};

/// Resolved parameters of the `pcnn serve` scenario: one real-time camera
/// stream, one open-loop interactive tenant, one background batch job.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// The GPUs serving the mix.
    pub gpus: Vec<&'static GpuArch>,
    /// The network every workload runs.
    pub net: NetworkSpec,
    /// Seed of the interactive Poisson arrival trace.
    pub seed: u64,
    /// Real-time camera frame rate (frames/s) and count.
    pub fps: f64,
    /// Number of camera frames.
    pub frames: usize,
    /// Interactive request count.
    pub requests: usize,
    /// Interactive open-loop arrival rate, images/s.
    pub rate: f64,
    /// Background job size, images.
    pub bg_images: usize,
    /// Server batch cap.
    pub max_batch: usize,
    /// Whether ladder degradation is enabled.
    pub degradation: bool,
}

impl ServeScenario {
    /// The canonical overloaded mix: the committed `BENCH_serve.json` is
    /// this scenario at seed 42. The interactive rate (900 img/s) is
    /// ~1.5x a K20's AlexNet capacity, so the run exercises admission
    /// pressure and the degradation ladder.
    pub fn canonical() -> Self {
        Self {
            gpus: vec![&K20C],
            net: alexnet(),
            seed: 42,
            fps: 30.0,
            frames: 90,
            requests: 150,
            rate: 900.0,
            bg_images: 256,
            max_batch: 16,
            degradation: true,
        }
    }

    /// The fast variant used by smoke tests and CI determinism checks.
    pub fn smoke() -> Self {
        Self {
            frames: 30,
            requests: 40,
            rate: 150.0,
            bg_images: 64,
            ..Self::canonical()
        }
    }

    /// Runs the scenario to completion. Deterministic: the report (and,
    /// with telemetry enabled, the virtual-time trace) is a pure function
    /// of `self`.
    ///
    /// # Errors
    ///
    /// Propagates any [`pcnn_core::Error`] from server construction or
    /// the serving loop.
    pub fn run(&self) -> pcnn_core::Result<ServeReport> {
        let config = ServerConfig {
            max_batch: self.max_batch,
            degradation: self.degradation,
            ..ServerConfig::default()
        };
        let ladder = DegradationLadder::default_ladder(self.net.conv_layers().len());
        let mut builder = Server::builder(&self.net).config(config);
        for &gpu in &self.gpus {
            builder = builder.platform(Platform::new(gpu, ladder.clone()));
        }
        builder
            .workload(ServeWorkload::new(
                AppSpec::video_surveillance(self.fps),
                TraceSpec::real_time(self.frames, self.fps),
                64,
            ))
            .workload(ServeWorkload::new(
                AppSpec::age_detection(),
                TraceSpec::poisson(
                    WorkloadKind::Interactive,
                    self.requests,
                    self.rate,
                    self.seed,
                ),
                128,
            ))
            .workload(ServeWorkload::new(
                AppSpec::image_tagging(),
                TraceSpec::background(self.bg_images),
                self.bg_images,
            ))
            .build()?
            .run()
    }
}

/// The network behind `BENCH_fleet.json`. Small enough that the K20c and
/// the Jetson TX1 sit within ~2 % of each other at batch 1 — the regime
/// where *routing*, not raw speed, decides whether a tight deadline
/// holds — while the TX1 falls ~2x behind at the full target batch and
/// draws an order of magnitude less power, so the deadline, energy and
/// ladder scenarios all have real contrast on the same network.
pub fn fleet_net() -> NetworkSpec {
    use pcnn_nn::spec::{ConvSpec, FcSpec, LayerSpec};
    NetworkSpec {
        name: "FleetNet".into(),
        input_elems: 16 * 32 * 32,
        layers: vec![
            LayerSpec::Conv(ConvSpec::new("CONV1", 64, 3, 16, 32, 32, 1, 1, 1)),
            LayerSpec::Conv(ConvSpec::new("CONV2", 128, 3, 64, 16, 16, 1, 1, 1)),
            LayerSpec::Fc(FcSpec {
                name: "FC".into(),
                in_features: 128 * 8 * 8,
                out_features: 10,
            }),
        ],
    }
}

/// Resolved parameters of the `pcnn serve-fleet` scenario behind
/// `BENCH_fleet.json`: a mixed K20c + Jetson TX1 fleet serving three
/// canonical situations, each run under every routing policy.
///
/// * **deadline** — periodic camera frames whose forced dispatch leaves
///   exactly the reference platform's batch-1 latency of slack, so a
///   capability-blind router burns frames on silicon that cannot hold
///   the deadline;
/// * **slack** — bursts of one full target batch with generous deadlines
///   both platforms meet, so routing is pure energy;
/// * **drain** — one background batch job, where cross-GPU stealing
///   beats pinning everything to the big platform.
///
/// A fourth run (`ladder_demo`) replays the deadline frames with each
/// platform's full degradation ladder enabled: the TX1 can only hold the
/// deadline by walking its own ladder while the K20c serves the same
/// workload undegraded — the per-platform ladder-occupancy profile the
/// committed baseline locks in.
///
/// Every timing parameter is derived from simulator costs at run time,
/// never hard-coded seconds, so the scenario keeps its meaning when the
/// cost model moves (the tolerance bands absorb the drift).
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// The fleet, reference (highest peak-FLOPS) platform first.
    pub gpus: Vec<&'static GpuArch>,
    /// The network every workload runs.
    pub net: NetworkSpec,
    /// Seed of the burst arrival process.
    pub seed: u64,
    /// Camera frames in the deadline and ladder-demo runs.
    pub frames: usize,
    /// Burst count in the slack run.
    pub bursts: usize,
    /// Requests per burst (one full target batch).
    pub burst_size: usize,
    /// Background job size, images.
    pub bg_images: usize,
    /// Server batch cap (also the burst batch size).
    pub max_batch: usize,
}

impl FleetScenario {
    /// The canonical mixed fleet behind the committed `BENCH_fleet.json`.
    pub fn canonical() -> Self {
        Self {
            gpus: vec![&K20C, &JETSON_TX1],
            net: fleet_net(),
            seed: 42,
            frames: 90,
            bursts: 20,
            burst_size: 8,
            bg_images: 128,
            max_batch: 8,
        }
    }

    /// The fast variant used by smoke tests and CI determinism checks.
    pub fn smoke() -> Self {
        Self {
            frames: 30,
            bursts: 6,
            bg_images: 32,
            ..Self::canonical()
        }
    }

    /// Unperforated cost of a batch-`b` pass on `arch`.
    fn cost(&self, arch: &GpuArch, b: usize) -> pcnn_core::Result<NetworkCost> {
        let schedule = OfflineCompiler::new(arch, &self.net).try_compile_batch(b)?;
        Ok(simulate_schedule(arch, &schedule))
    }

    /// Builds and runs a fleet server over `workloads`. With degradation
    /// on, every platform gets its own full default ladder; off, the
    /// structural single-level one.
    fn serve(
        &self,
        policy: RouterPolicy,
        degradation: bool,
        workloads: Vec<ServeWorkload>,
    ) -> pcnn_core::Result<ServeReport> {
        let n = self.net.conv_layers().len();
        let mut builder = Server::builder(&self.net).config(
            ServerConfig::default()
                .with_max_batch(self.max_batch)
                .with_degradation(degradation)
                .with_router(policy),
        );
        for &gpu in &self.gpus {
            let ladder = if degradation {
                DegradationLadder::default_ladder(n)
            } else {
                DegradationLadder::none(n, 0.9)
            };
            builder = builder.platform(Platform::new(gpu, ladder));
        }
        for w in workloads {
            builder = builder.workload(w);
        }
        builder.build()?.run()
    }

    /// The camera-frame workload of the deadline and ladder-demo runs:
    /// forced dispatch leaves exactly the reference platform's batch-1
    /// latency of slack.
    fn frames_workload(&self) -> pcnn_core::Result<ServeWorkload> {
        let c1_ref = self.cost(self.gpus[0], 1)?.seconds;
        let fps = 1.0 / (1.5 * c1_ref);
        Ok(ServeWorkload::new(
            AppSpec::video_surveillance(fps),
            TraceSpec::real_time(self.frames, fps),
            64,
        ))
    }

    /// The deadline run: frames only, degradation off, per policy.
    pub fn run_deadline(&self, policy: RouterPolicy) -> pcnn_core::Result<ServeReport> {
        self.serve(policy, false, vec![self.frames_workload()?])
    }

    /// The slack run: full-batch bursts with a deadline every platform
    /// meets, so placement is pure energy.
    pub fn run_slack(&self, policy: RouterPolicy) -> pcnn_core::Result<ServeReport> {
        let mut c_full: f64 = 0.0;
        for &gpu in &self.gpus {
            c_full = c_full.max(self.cost(gpu, self.max_batch)?.seconds);
        }
        let t_user = 4.0 * c_full;
        let burst_rate = 1.0 / (3.0 * c_full);
        let app = AppSpec {
            name: "fleet bursts".into(),
            kind: WorkloadKind::Interactive,
            data_rate: burst_rate * self.burst_size as f64,
            accuracy_sensitive: false,
        };
        let mut w = ServeWorkload::new(
            app,
            TraceSpec::bursty(
                WorkloadKind::Interactive,
                self.bursts,
                self.burst_size,
                burst_rate,
                self.seed,
            ),
            2 * self.bursts * self.burst_size,
        );
        w.req.t_imperceptible = Some(t_user);
        w.req.t_unusable = Some(20.0 * t_user);
        self.serve(policy, false, vec![w])
    }

    /// The drain run: one background batch job, per policy.
    pub fn run_drain(&self, policy: RouterPolicy) -> pcnn_core::Result<ServeReport> {
        let bg = ServeWorkload::new(
            AppSpec::image_tagging(),
            TraceSpec::background(self.bg_images),
            2 * self.bg_images,
        );
        self.serve(policy, false, vec![bg])
    }

    /// The ladder-demo run: deadline frames with every platform's full
    /// ladder enabled, under the capability-blind round-robin router.
    pub fn run_ladder_demo(&self) -> pcnn_core::Result<ServeReport> {
        self.serve(
            RouterPolicy::RoundRobin,
            true,
            vec![self.frames_workload()?],
        )
    }

    /// The streaming smoke: `n` lazily-generated Poisson requests served
    /// through the event loop in memory independent of `n` — the trace
    /// is pulled from the spec one arrival at a time and only in-flight
    /// requests are ever held.
    pub fn run_stream(&self, policy: RouterPolicy, n: usize) -> pcnn_core::Result<ServeReport> {
        let c_ref = self.cost(self.gpus[0], self.max_batch)?.seconds;
        let t_user = 5.0 * c_ref;
        let rate = 1.5 * self.max_batch as f64 / c_ref;
        let app = AppSpec {
            name: "fleet stream".into(),
            kind: WorkloadKind::Interactive,
            data_rate: rate,
            accuracy_sensitive: false,
        };
        let mut w = ServeWorkload::new(
            app,
            TraceSpec::poisson(WorkloadKind::Interactive, n, rate, self.seed),
            128,
        );
        w.req.t_imperceptible = Some(t_user);
        w.req.t_unusable = Some(20.0 * t_user);
        self.serve(policy, true, vec![w])
    }

    /// Runs every scenario under every policy plus the ladder demo.
    ///
    /// # Errors
    ///
    /// Propagates any [`pcnn_core::Error`] from server construction or
    /// the serving loops.
    pub fn run_all(&self) -> pcnn_core::Result<FleetBench> {
        self.run_policies(&RouterPolicy::all())
    }

    /// Runs the three scenario families under each of `policies`, in
    /// order, plus the ladder demo (which is defined under round-robin).
    ///
    /// # Errors
    ///
    /// As [`run_all`](Self::run_all).
    pub fn run_policies(&self, policies: &[RouterPolicy]) -> pcnn_core::Result<FleetBench> {
        let mut deadline = Vec::new();
        let mut slack = Vec::new();
        let mut drain = Vec::new();
        for &policy in policies {
            deadline.push((policy, self.run_deadline(policy)?));
            slack.push((policy, self.run_slack(policy)?));
            drain.push((policy, self.run_drain(policy)?));
        }
        Ok(FleetBench {
            deadline,
            slack,
            drain,
            ladder_demo: self.run_ladder_demo()?,
        })
    }
}

/// Everything one `pcnn serve-fleet` invocation produced: per-policy
/// reports for the three scenario families plus the ladder demo.
pub struct FleetBench {
    /// Per-policy deadline-scenario reports, in [`RouterPolicy::all`]
    /// order.
    pub deadline: Vec<(RouterPolicy, ServeReport)>,
    /// Per-policy slack-scenario reports.
    pub slack: Vec<(RouterPolicy, ServeReport)>,
    /// Per-policy drain-scenario reports.
    pub drain: Vec<(RouterPolicy, ServeReport)>,
    /// The degradation-enabled round-robin frames run.
    pub ladder_demo: ServeReport,
}

/// `(policy, mean SoC, total joules, on the frontier)` points of the
/// slack runs — the axes of the fleet's SoC/energy Pareto trade. A point
/// is on the frontier when no other policy scores at least as well on
/// both axes and strictly better on one.
fn slack_points(bench: &FleetBench) -> Vec<(RouterPolicy, f64, f64, bool)> {
    let points: Vec<(RouterPolicy, f64, f64)> = bench
        .slack
        .iter()
        .map(|(p, r)| (*p, r.fleet.mean_soc, r.fleet.compute_j + r.fleet.idle_j))
        .collect();
    points
        .iter()
        .map(|&(p, soc, total_j)| {
            let dominated = points.iter().any(|&(q, qs, qj)| {
                q != p && qs >= soc && qj <= total_j && (qs > soc || qj < total_j)
            });
            (p, soc, total_j, !dominated)
        })
        .collect()
}

/// Policies on the slack-run SoC/energy Pareto frontier.
pub fn pareto_frontier(bench: &FleetBench) -> Vec<RouterPolicy> {
    slack_points(bench)
        .into_iter()
        .filter_map(|(p, _, _, on_frontier)| on_frontier.then_some(p))
        .collect()
}

/// One per-policy row of a `BENCH_fleet.json` section.
fn fleet_row(policy: RouterPolicy, r: &ServeReport) -> String {
    let platforms: Vec<String> = r
        .gpus
        .iter()
        .map(|g| {
            format!(
                "{{\"name\": \"{}\", \"dispatches\": {}, \"images\": {}, \"busy_s\": {}, \"energy_j\": {}}}",
                g.name, g.dispatches, g.images, g.busy_s, g.energy_j
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"policy\": \"{}\", \"deadlines_met\": {}, \"deadline_total\": {}, ",
            "\"served_images\": {}, \"rejected_images\": {}, \"makespan_s\": {}, ",
            "\"compute_j\": {}, \"idle_j\": {}, \"joules_per_image\": {}, ",
            "\"mean_soc\": {}, \"platforms\": [{}]}}"
        ),
        policy.name(),
        r.fleet.deadlines_met,
        r.fleet.deadline_total,
        r.fleet.served_images,
        r.total_rejected(),
        r.makespan_s,
        r.fleet.compute_j,
        r.fleet.idle_j,
        r.fleet.joules_per_image,
        r.fleet.mean_soc,
        platforms.join(", ")
    )
}

/// Renders the `BENCH_fleet.json` document — the same bytes
/// `pcnn serve-fleet --json` writes. Deterministic: fixed key order and
/// shortest-roundtrip float formatting, like
/// [`ServeReport::to_json`](pcnn_serve::ServeReport::to_json).
pub fn fleet_json(scenario: &FleetScenario, bench: &FleetBench) -> String {
    let section = |rows: &[(RouterPolicy, ServeReport)]| -> String {
        rows.iter()
            .map(|(p, r)| format!("\n    {}", fleet_row(*p, r)))
            .collect::<Vec<_>>()
            .join(",")
    };
    // SoC/energy Pareto points over the slack runs: the routing policies
    // trade satisfaction against total (compute + idle) joules on the
    // same arrivals.
    let pareto: Vec<String> = slack_points(bench)
        .into_iter()
        .map(|(p, soc, total_j, on_frontier)| {
            format!(
                "{{\"policy\": \"{}\", \"mean_soc\": {}, \"total_j\": {}, \"on_frontier\": {}}}",
                p.name(),
                soc,
                total_j,
                on_frontier
            )
        })
        .collect();
    let ladder = &bench.ladder_demo;
    let ladder_platforms: Vec<String> = ladder
        .gpus
        .iter()
        .map(|g| {
            let levels = g
                .images_at_level
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{\"name\": \"{}\", \"images\": {}, \"images_at_level\": [{}]}}",
                g.name, g.images, levels
            )
        })
        .collect();
    let gpu_names: Vec<String> = scenario
        .gpus
        .iter()
        .map(|g| format!("\"{}\"", g.name))
        .collect();
    format!(
        concat!(
            "{{\n  \"bench\": \"fleet\",\n  \"net\": \"{}\",\n  \"gpus\": [{}],",
            "\n  \"max_batch\": {},\n  \"frames\": {},\n  \"bursts\": {},",
            "\n  \"burst_size\": {},\n  \"bg_images\": {},\n  \"seed\": {},",
            "\n  \"deadline\": [{}\n  ],",
            "\n  \"slack\": [{}\n  ],",
            "\n  \"drain\": [{}\n  ],",
            "\n  \"pareto\": [\n    {}\n  ],",
            "\n  \"ladder_demo\": {{\"policy\": \"{}\", \"deadlines_met\": {}, ",
            "\"deadline_total\": {}, \"mean_entropy\": {}, \"platforms\": [\n    {}\n  ]}}\n}}\n"
        ),
        scenario.net.name,
        gpu_names.join(", "),
        scenario.max_batch,
        scenario.frames,
        scenario.bursts,
        scenario.burst_size,
        scenario.bg_images,
        scenario.seed,
        section(&bench.deadline),
        section(&bench.slack),
        section(&bench.drain),
        pareto.join(",\n    "),
        ladder.router,
        ladder.fleet.deadlines_met,
        ladder.fleet.deadline_total,
        ladder.workloads[0].mean_entropy,
        ladder_platforms.join(",\n    ")
    )
}

/// The AlexNet convolution layers as im2col GEMMs (`M` = output
/// channels, `N` = output positions, `K` = patch length) — the shapes the
/// paper's kernel tuner targets, reused to benchmark the CPU GEMM.
pub const BENCH_GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("CONV1", 96, 3025, 363),
    ("CONV2", 256, 729, 1200),
    ("CONV3", 384, 169, 2304),
    ("CONV5", 256, 169, 3456),
];

/// Thread counts the GEMM benchmark sweeps to record scaling curves.
pub const GEMM_THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// One point of a per-shape thread-scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Pool width the measurement ran at.
    pub threads: usize,
    /// Packed-kernel throughput at that width, GFLOP/s.
    pub gflops: f64,
    /// `gflops / gflops@1 thread` — the raw multithread speedup.
    pub speedup_vs_1t: f64,
}

/// One measured GEMM shape of the CPU benchmark.
#[derive(Debug, Clone)]
pub struct GemmRow {
    /// Layer label.
    pub layer: &'static str,
    /// GEMM dimensions.
    pub m: usize,
    /// GEMM dimensions.
    pub n: usize,
    /// GEMM dimensions.
    pub k: usize,
    /// Naive triple-loop throughput, GFLOP/s.
    pub naive_gflops: f64,
    /// Packed microkernel, one thread.
    pub packed_1t_gflops: f64,
    /// Packed microkernel, current pool width.
    pub packed_nt_gflops: f64,
    /// `packed_nt / naive` — the machine-normalised ratio `pcnn obs
    /// check` gates on (absolute GFLOP/s vary with the host).
    pub speedup_vs_naive: f64,
    /// Throughput at every [`GEMM_THREAD_SWEEP`] width.
    pub scaling: Vec<ScalingPoint>,
    /// Speedup at the widest sweep point divided by the cores the
    /// recording host could actually use — the machine-normalised
    /// scaling metric `pcnn obs check` gates on (a 1-core host records
    /// ~1.0 just like a perfectly-scaling 8-core host; a starved pool
    /// on a multicore host collapses toward `1 / cores`).
    pub scaling_efficiency: f64,
}

/// Worker threads this machine can actually run concurrently.
pub fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Measures every [`BENCH_GEMM_SHAPES`] entry: naive loop, the packed
/// kernel at every [`GEMM_THREAD_SWEEP`] width, and the packed kernel at
/// the current pool width.
pub fn run_gemm_bench(reps: usize) -> Vec<GemmRow> {
    let mut rows = Vec::with_capacity(BENCH_GEMM_SHAPES.len());
    let cores = machine_cores();
    for &(layer, m, n, k) in BENCH_GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i % 2017) as f32 - 1000.0) / 512.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i % 1013) as f32 - 500.0) / 256.0)
            .collect();
        let mut c = vec![0.0f32; m * n];
        let gflop = 2.0 * (m * n * k) as f64 / 1e9;
        let naive = best_secs(reps, || {
            c.fill(0.0);
            pcnn_tensor::gemm_naive(m, n, k, &a, &b, &mut c);
        });
        let mut scaling = Vec::with_capacity(GEMM_THREAD_SWEEP.len());
        for &t in GEMM_THREAD_SWEEP {
            let secs = pcnn_parallel::with_threads(t, || {
                best_secs(reps, || {
                    c.fill(0.0);
                    pcnn_tensor::gemm(m, n, k, &a, &b, &mut c);
                })
            });
            let gflops = gflop / secs;
            let base = scaling
                .first()
                .map(|p: &ScalingPoint| p.gflops)
                .unwrap_or(gflops);
            scaling.push(ScalingPoint {
                threads: t,
                gflops,
                speedup_vs_1t: gflops / base,
            });
        }
        let parallel = best_secs(reps, || {
            c.fill(0.0);
            pcnn_tensor::gemm(m, n, k, &a, &b, &mut c);
        });
        let widest = scaling.last().expect("sweep is non-empty");
        let usable = widest.threads.min(cores).max(1) as f64;
        rows.push(GemmRow {
            layer,
            m,
            n,
            k,
            naive_gflops: gflop / naive,
            packed_1t_gflops: scaling[0].gflops,
            packed_nt_gflops: gflop / parallel,
            speedup_vs_naive: (gflop / parallel) / (gflop / naive),
            scaling_efficiency: widest.speedup_vs_1t / usable,
            scaling,
        });
    }
    rows
}

/// The AlexNet classifier layers `pcnn bench-gemm` times through
/// `gemm_nt`, as `(layer, out features, in features)`.
pub const BENCH_FC_SHAPES: &[(&str, usize, usize)] = &[
    ("FC6", 4096, 9216),
    ("FC7", 4096, 4096),
    ("FC8", 1000, 4096),
];

/// Batch sizes of the FC section: the latency case and the batch the
/// weight traffic should amortise over.
pub const BENCH_FC_BATCHES: &[usize] = &[1, 8];

/// One FC layer at one batch size (stdout only — not part of
/// `BENCH_gemm.json`).
#[derive(Debug, Clone, Copy)]
pub struct FcRow {
    /// Layer name.
    pub layer: &'static str,
    /// Batch size (`gemm_nt`'s `m`).
    pub batch: usize,
    /// Output features (`n`, the weight rows).
    pub n: usize,
    /// Input features (`k`).
    pub k: usize,
    /// Best wall time of one `gemm_nt` call, ms.
    pub ms: f64,
    /// Weight bytes (`4 n k`) over that time, GB/s — the stream rate a
    /// call that reads every weight once has to sustain.
    pub weight_gbs: f64,
}

/// Times [`BENCH_FC_SHAPES`] x [`BENCH_FC_BATCHES`] at the current pool
/// width. Every repetition walks the three layers in forward order, so a
/// layer's 16–151 MB of weights are as cold as the 235 MB cycle of a real
/// forward leaves them.
pub fn run_fc_bench(reps: usize) -> Vec<FcRow> {
    let weights: Vec<Vec<f32>> = BENCH_FC_SHAPES
        .iter()
        .map(|&(_, n, k)| {
            (0..n * k)
                .map(|i| ((i % 1013) as f32 - 500.0) / 256.0)
                .collect()
        })
        .collect();
    let mut rows = Vec::new();
    for &batch in BENCH_FC_BATCHES {
        let mut best = vec![f64::INFINITY; BENCH_FC_SHAPES.len()];
        // The widest input serves every layer: `x[..batch * k]`.
        let widest = BENCH_FC_SHAPES.iter().map(|s| s.2).max().unwrap_or(0);
        let x: Vec<f32> = (0..batch * widest)
            .map(|i| ((i % 2017) as f32 - 1000.0) / 512.0)
            .collect();
        for _ in 0..reps.max(1) {
            for (li, &(_, n, k)) in BENCH_FC_SHAPES.iter().enumerate() {
                let mut y = vec![0.0f32; batch * n];
                let t0 = std::time::Instant::now();
                pcnn_tensor::gemm_nt(batch, n, k, &x, &weights[li], &mut y);
                best[li] = best[li].min(t0.elapsed().as_secs_f64());
                std::hint::black_box(&y);
            }
        }
        for (&(layer, n, k), &secs) in BENCH_FC_SHAPES.iter().zip(&best) {
            rows.push(FcRow {
                layer,
                batch,
                n,
                k,
                ms: secs * 1e3,
                weight_gbs: (4 * n * k) as f64 / secs / 1e9,
            });
        }
    }
    rows
}

/// Renders the `BENCH_gemm.json` document for `rows` — the same bytes
/// `pcnn bench-gemm --json` writes. `cores` records the recording host's
/// usable parallelism so readers (and reviewers) can interpret the raw
/// scaling curves; the gated `scaling_efficiency` already folds it in.
/// `kernel` names the ISA tier and register tile the packed GEMM ran
/// ([`pcnn_tensor::kernel_tier`]): absolute GFLOP/s of two documents are
/// comparable only when it agrees.
pub fn gemm_json(rows: &[GemmRow], threads: usize, cores: usize, reps: usize) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let curve: Vec<String> = r
                .scaling
                .iter()
                .map(|p| {
                    format!(
                        "{{\"threads\": {}, \"gflops\": {:.3}, \"speedup_vs_1t\": {:.3}}}",
                        p.threads, p.gflops, p.speedup_vs_1t
                    )
                })
                .collect();
            format!(
                concat!(
                    "    {{\"layer\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, ",
                    "\"naive_gflops\": {:.3}, \"packed_1t_gflops\": {:.3}, ",
                    "\"packed_nt_gflops\": {:.3}, \"speedup_vs_naive\": {:.3}, ",
                    "\"scaling_efficiency\": {:.3}, \"scaling\": [{}]}}"
                ),
                r.layer,
                r.m,
                r.n,
                r.k,
                r.naive_gflops,
                r.packed_1t_gflops,
                r.packed_nt_gflops,
                r.speedup_vs_naive,
                r.scaling_efficiency,
                curve.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"gemm\",\n  \"kernel\": \"{}\",\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \"reps\": {reps},\n  \"shapes\": [\n{}\n  ]\n}}\n",
        pcnn_tensor::kernel_tier(),
        body.join(",\n")
    )
}

/// One committed baseline `pcnn obs check` gates: everything the CLI
/// needs to know about it in one row. Adding a baseline is adding an
/// entry to [`baseline_gates`] — the check loop, the `--baseline-{name}`
/// / `--candidate-{name}` flags, and the file-vs-file fast path all fall
/// out of the declaration.
pub struct BaselineGate {
    /// Short name: the flag suffix and the report label.
    pub name: &'static str,
    /// Committed document at the repository root.
    pub default_path: &'static str,
    /// Regenerates the candidate document in-process (best-of-`reps`
    /// where the benchmark repeats measurements).
    pub regenerate: fn(reps: usize) -> Result<String, String>,
    /// How the candidate is held to the baseline, fixed by what the
    /// document measures. `None`: the document is deterministic and must
    /// be byte-identical. `Some`: it is wall-clock, and this diffs its
    /// machine-normalised ratios against tolerance bands.
    pub compare: Option<fn(&JsonValue, &JsonValue) -> Vec<Violation>>,
}

fn regen_serve(_reps: usize) -> Result<String, String> {
    ServeScenario::canonical()
        .run()
        .map(|r| r.to_json())
        .map_err(|e| format!("serve failed: {e}"))
}

fn regen_gemm(reps: usize) -> Result<String, String> {
    let rows = run_gemm_bench(reps);
    Ok(gemm_json(
        &rows,
        pcnn_parallel::current_threads(),
        machine_cores(),
        reps,
    ))
}

fn regen_profile(_reps: usize) -> Result<String, String> {
    crate::profile::baseline_run()
        .map(|r| crate::profile::profile_json(&r))
        .map_err(|e| format!("profile failed: {e}"))
}

fn regen_fleet(_reps: usize) -> Result<String, String> {
    let scenario = FleetScenario::canonical();
    scenario
        .run_all()
        .map(|b| fleet_json(&scenario, &b))
        .map_err(|e| format!("serve-fleet failed: {e}"))
}

fn regen_conv(reps: usize) -> Result<String, String> {
    let bench =
        crate::conv::run_conv_bench(reps, false).map_err(|e| format!("bench-conv failed: {e}"))?;
    Ok(crate::conv::conv_json(
        &bench,
        crate::conv::sweep_widths(&bench),
    ))
}

/// Every baseline `pcnn obs check` knows, in check order.
pub fn baseline_gates() -> &'static [BaselineGate] {
    &[
        BaselineGate {
            name: "serve",
            default_path: "BENCH_serve.json",
            regenerate: regen_serve,
            compare: None,
        },
        BaselineGate {
            name: "gemm",
            default_path: "BENCH_gemm.json",
            regenerate: regen_gemm,
            compare: Some(compare_gemm),
        },
        BaselineGate {
            name: "profile",
            default_path: "BENCH_profile.json",
            regenerate: regen_profile,
            compare: None,
        },
        BaselineGate {
            name: "conv",
            default_path: "BENCH_conv.json",
            regenerate: regen_conv,
            compare: Some(compare_conv),
        },
        BaselineGate {
            name: "fleet",
            default_path: "BENCH_fleet.json",
            regenerate: regen_fleet,
            compare: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_registry_covers_every_committed_baseline() {
        let gates = baseline_gates();
        let names: Vec<&str> = gates.iter().map(|g| g.name).collect();
        assert_eq!(names, ["serve", "gemm", "profile", "conv", "fleet"]);
        for g in gates {
            assert_eq!(g.default_path, format!("BENCH_{}.json", g.name));
        }
        // The simulator's and the reference roofline's documents are held
        // to their bytes; only the wall-clock ones are banded.
        let byte_gated: Vec<&str> = gates
            .iter()
            .filter(|g| g.compare.is_none())
            .map(|g| g.name)
            .collect();
        assert_eq!(byte_gated, ["serve", "profile", "fleet"]);
    }
}
