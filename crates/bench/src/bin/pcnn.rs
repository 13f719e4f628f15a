//! `pcnn` — command-line front end to the P-CNN framework.
//!
//! ```text
//! pcnn platforms
//! pcnn compile  --gpu <k20|titanx|970m|tx1> --net <alexnet|vggnet|googlenet>
//!               --task <interactive|realtime|background> [--rate <imgs/s>]
//! pcnn simulate --gpu <...> --net <...> [--batch N] [--library <cublas|cudnn|nervana>]
//! pcnn tune     --gpu <...> --m <M> --n <N> --k <K>
//! pcnn serve    [--gpu <a,b,...>] [--net <...>] [--seed N] [--requests N] [--rate R]
//!               [--fps F] [--frames N] [--bg-images N] [--max-batch N]
//!               [--no-degrade] [--smoke] [--json <path>]
//! pcnn serve-fleet [--smoke] [--policy <round-robin|affinity|energy|steal>]
//!                  [--scenario <deadline|slack|drain|ladder>]
//!                  [--stream N] [--json <path>]
//! pcnn bench-gemm [--reps N] [--json <path>]
//! pcnn bench-conv [--reps N] [--smoke] [--json <path>]
//! pcnn profile <alexnet|vggnet|googlenet> [--batch N] [--reps N] [--json <path>]
//! pcnn repro <id>                 print one table / figure / probe of the paper
//! pcnn repro --list               the experiment registry
//! pcnn repro all --dir <path>     write <path>/<id>.txt for every committed result
//! pcnn obs <trace.json>
//! pcnn obs diff <a.json> <b.json>
//! pcnn obs route <trace.json> [--req N] [--workload W]
//! pcnn obs incident <trace.json.incident.json>
//! pcnn obs check [--baseline-<name> P] [--candidate-<name> P] [--reps N]
//!                where <name> is any registered baseline:
//!                serve, gemm, profile, conv, fleet
//! ```

use std::process::ExitCode;

use pcnn_bench::args::check_threads_env;
use pcnn_bench::baselines::{self, FleetScenario, ServeScenario};
use pcnn_bench::obs::{
    analyze_route, analyze_trace, diff_documents, first_difference, load_document, ObsError,
    Violation,
};
use pcnn_bench::{conv, experiments, profile};
use pcnn_bench::{Args, CliError, TableWriter};
use pcnn_core::offline::{library_schedule, OfflineCompiler};
use pcnn_core::runtime::simulate_schedule;
use pcnn_core::task::{AppSpec, UserRequirements};
use pcnn_data::WorkloadKind;
use pcnn_gpu::arch::{all_platforms, GpuArch, GTX_970M, JETSON_TX1, K20C, TITAN_X};
use pcnn_kernels::sgemm::SgemmShape;
use pcnn_kernels::{tune_kernel, Library};
use pcnn_nn::spec::{alexnet, googlenet, vggnet, NetworkSpec};
use pcnn_serve::obs::{IncidentReport, RouteRecord};
use pcnn_serve::RouterPolicy;
use pcnn_telemetry::json::JsonValue;

/// What every subcommand returns: `Err(Usage)` exits 2 after the usage
/// text, `Err(Failed)` exits 1.
type CmdResult = Result<(), CliError>;

const USAGE: &str = "usage:\n  pcnn platforms\n  pcnn compile  --gpu <k20|titanx|970m|tx1> --net <alexnet|vggnet|googlenet> --task <interactive|realtime|background> [--rate <imgs/s>]\n  pcnn simulate --gpu <...> --net <...> [--batch N] [--library <cublas|cudnn|nervana>]\n  pcnn tune     --gpu <...> --m <M> --n <N> --k <K>\n  pcnn serve    [--gpu <a,b,...>] [--net <...>] [--seed N] [--requests N] [--rate R] [--fps F] [--frames N] [--bg-images N] [--max-batch N] [--no-degrade] [--smoke] [--json <path>]\n  pcnn serve-fleet [--smoke] [--policy <round-robin|affinity|energy|steal>] [--scenario <deadline|slack|drain|ladder>] [--stream N] [--json <path>]\n                                             run the heterogeneous K20c+TX1 fleet scenarios under every routing policy; --scenario runs exactly one (clean traces); --stream N serves N lazy requests in O(1) memory\n  pcnn bench-gemm [--reps N] [--json <path>]\n  pcnn bench-conv [--reps N] [--smoke] [--json <path>]\n                                             sweep conv algorithms ({im2col,direct,winograd}) over the canonical layer shapes, the tuner's predicted ms beside the observed, + tuned-plan e2e proof\n  pcnn profile <alexnet|vggnet|googlenet> [--batch N] [--reps N] [--json <path>]\n                                             per-layer phase/roofline report; --json writes the deterministic profile document\n  pcnn repro <id> | --list | all --dir <path>\n                                             regenerate a table / figure of the paper (ids: --list); `all` writes <path>/<id>.txt for every results/<id>.txt\n  pcnn obs <trace.json>                      analyze an exported serve trace\n  pcnn obs diff <a.json> <b.json>            attribute the time delta between two profile documents or Chrome traces\n  pcnn obs route <trace.json> [--req N] [--workload W]   routing audit trail: reason histogram, steal flows, per-request \"why platform P\"\n  pcnn obs incident <trace>.incident.json    postmortem a flight-recorder incident snapshot (alert + last windows + recent decisions)\n  pcnn obs check [--baseline-<name> P] [--candidate-<name> P] [--reps N]   (<name>: serve, gemm, profile, conv, fleet)\n                                             gate fresh runs against the committed baselines\nevery subcommand also accepts --trace <path> (or PCNN_TRACE=<path>) to write a Chrome trace + Prometheus metrics (+ an incident snapshot when an SLO alert fires),\nand --threads <N> (or PCNN_THREADS=<N>) to pin the CPU worker pool\nexit codes: 0 success, 1 the run failed, 2 the command line was refused";

/// A run that failed after its command line was accepted.
fn failed(msg: impl std::fmt::Display) -> CliError {
    CliError::Failed(msg.to_string())
}

/// A `--flag` value outside its closed set, naming the flag, the value
/// and the set.
fn unknown(flag: &str, value: &str, expected: &str) -> CliError {
    CliError::Usage(format!(
        "{flag}: unknown value `{value}` (expected {expected})"
    ))
}

fn pick_gpu(name: &str) -> Result<&'static GpuArch, CliError> {
    match name {
        "k20" | "k20c" => Ok(&K20C),
        "titanx" => Ok(&TITAN_X),
        "970m" | "gtx970m" => Ok(&GTX_970M),
        "tx1" => Ok(&JETSON_TX1),
        _ => Err(unknown("--gpu", name, "k20, titanx, 970m or tx1")),
    }
}

fn pick_net(name: &str) -> Result<NetworkSpec, CliError> {
    match name {
        "alexnet" => Ok(alexnet()),
        "vggnet" | "vgg" | "vgg16" => Ok(vggnet()),
        "googlenet" => Ok(googlenet()),
        _ => Err(unknown("--net", name, "alexnet, vggnet or googlenet")),
    }
}

fn pick_library(name: &str) -> Result<Library, CliError> {
    match name {
        "cublas" => Ok(Library::CuBlas),
        "cudnn" => Ok(Library::CuDnn),
        "nervana" => Ok(Library::Nervana),
        _ => Err(unknown("--library", name, "cublas, cudnn or nervana")),
    }
}

fn pick_policy(name: &str) -> Result<RouterPolicy, CliError> {
    RouterPolicy::parse(name)
        .ok_or_else(|| unknown("--policy", name, "round-robin, affinity, energy or steal"))
}

/// `a/b/c`, the way the tables print a sweep in one cell.
fn slashed<T: ToString>(items: impl Iterator<Item = T>) -> String {
    items.map(|x| x.to_string()).collect::<Vec<_>>().join("/")
}

/// Writes the `--json` document, if one was asked for, and says so.
fn write_json(path: Option<String>, document: impl FnOnce() -> String) -> CmdResult {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(&path, document())
        .map_err(|e| failed(format!("could not write {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Loads a JSON document (a trace, a baseline, an incident snapshot).
fn load(path: &str) -> Result<JsonValue, CliError> {
    load_document(path).map_err(failed)
}

fn cmd_platforms(args: Args) -> CmdResult {
    args.finish()?;
    let mut t = TableWriter::new(vec![
        "gpu", "class", "cores", "MHz", "SMs", "TFLOPS", "GB/s",
    ]);
    for a in all_platforms() {
        t.row(vec![
            a.name.to_string(),
            format!("{:?}", a.platform),
            a.total_cores().to_string(),
            a.freq_mhz.to_string(),
            a.n_sms.to_string(),
            format!("{:.2}", a.peak_flops() / 1e12),
            format!("{:.1}", a.mem_bandwidth_gbps),
        ]);
    }
    t.print("available platforms");
    Ok(())
}

fn cmd_compile(mut args: Args) -> CmdResult {
    let gpu = pick_gpu(&args.require::<String>("gpu")?)?;
    let net = pick_net(&args.require::<String>("net")?)?;
    let rate = args.positive("rate")?.unwrap_or(30.0);
    let app = match args.require::<String>("task")?.as_str() {
        "interactive" => AppSpec::age_detection(),
        "realtime" => AppSpec::video_surveillance(rate),
        "background" => AppSpec::image_tagging(),
        other => {
            return Err(unknown(
                "--task",
                other,
                "interactive, realtime or background",
            ))
        }
    };
    args.finish()?;
    let req = UserRequirements::infer(&app);
    let compiler = OfflineCompiler::new(gpu, &net);
    let schedule = compiler
        .try_compile(&app, &req)
        .map_err(|e| failed(format!("compile failed: {e}")))?;
    println!(
        "compiled {} for {} ({:?} task): batch {}",
        net.name, gpu.name, app.kind, schedule.batch
    );
    let mut t = TableWriter::new(vec!["layer", "grid", "optTLP", "optSM", "predicted (ms)"]);
    for l in &schedule.layers {
        t.row(vec![
            l.name.clone(),
            l.kernel.grid.to_string(),
            l.opt_tlp.to_string(),
            l.opt_sm.to_string(),
            format!("{:.3}", l.predicted_seconds * 1e3),
        ]);
    }
    t.print("per-layer plan");
    let cost = simulate_schedule(gpu, &schedule);
    println!(
        "simulated: {:.2} ms / batch, {:.4} J",
        cost.seconds * 1e3,
        cost.energy.total_j()
    );
    if app.kind != WorkloadKind::Background {
        if let Some(t_user) = req.t_user() {
            println!(
                "time requirement {:.1} ms: {}",
                t_user * 1e3,
                if cost.seconds <= t_user {
                    "met"
                } else {
                    "NOT met"
                }
            );
        }
    }
    Ok(())
}

fn cmd_simulate(mut args: Args) -> CmdResult {
    let gpu = pick_gpu(&args.require::<String>("gpu")?)?;
    let net = pick_net(&args.require::<String>("net")?)?;
    let batch = args.positive("batch")?.unwrap_or(1);
    let library = args.get::<String>("library")?;
    args.finish()?;
    let schedule = match library {
        Some(lib_name) => {
            let lib = pick_library(&lib_name)?;
            let batch = lib.legal_batch(batch);
            if !lib.fits(gpu, &net, batch) {
                println!(
                    "{} {} batch {batch} on {}: OUT OF MEMORY ({} MB needed, {} MB usable)",
                    lib.name(),
                    net.name,
                    gpu.name,
                    lib.memory_estimate(gpu, &net, batch).total() / (1 << 20),
                    gpu.usable_mem / (1 << 20)
                );
                return Ok(());
            }
            library_schedule(gpu, &net, lib, batch)
        }
        None => OfflineCompiler::new(gpu, &net)
            .try_compile_batch(batch)
            .map_err(|e| failed(format!("compile failed: {e}")))?,
    };
    let cost = simulate_schedule(gpu, &schedule);
    println!(
        "{} batch {} on {}: {:.2} ms ({:.0} images/s), {:.4} J",
        net.name,
        schedule.batch,
        gpu.name,
        cost.seconds * 1e3,
        schedule.batch as f64 / cost.seconds,
        cost.energy.total_j()
    );
    Ok(())
}

fn cmd_tune(mut args: Args) -> CmdResult {
    let gpu = pick_gpu(&args.require::<String>("gpu")?)?;
    let mut dim = |name| {
        args.positive(name)?
            .ok_or_else(|| CliError::Usage(format!("--{name} <value> is required")))
    };
    let (m, n, k) = (dim("m")?, dim("n")?, dim("k")?);
    args.finish()?;
    let shape = SgemmShape { m, n, k };
    let tuned = tune_kernel(gpu, shape);
    let v = tuned.config.variant;
    println!("GEMM {m}x{n}x{k} on {}:", gpu.name);
    println!(
        "  tile {}x{} ({} threads), {} regs/thread (spill {} shared / {} global)",
        v.tile_m,
        v.tile_n,
        v.block_size,
        tuned.config.regs_per_thread,
        tuned.config.spill.to_shared,
        tuned.config.spill.to_global
    );
    println!(
        "  grid {}, optTLP {}, rEC {:.3}, invocation waves {}",
        tuned.grid, tuned.opt_tlp, tuned.rec, tuned.invocations
    );
    Ok(())
}

/// `pcnn bench-conv` — sweep the canonical conv layer shapes across the
/// im2col reference and {direct, winograd} at the thread widths, then
/// prove the offline-tuned plan holds parity with the default plan on a
/// full single-threaded network forward, and print what perforation buys
/// per AlexNet layer at the degradation ladder's rates (stdout only).
/// `--json` writes the `BENCH_conv.json` document the obs gate reads;
/// `--smoke` runs the reduced CI subset (never commit a smoke document
/// as the baseline — the gate flags its missing shapes).
fn cmd_bench_conv(mut args: Args) -> CmdResult {
    let reps = args.positive("reps")?.unwrap_or(3);
    let smoke = args.flag("smoke");
    let json = args.get::<String>("json")?;
    args.finish()?;
    let bench =
        conv::run_conv_bench(reps, smoke).map_err(|e| failed(format!("bench-conv failed: {e}")))?;
    let widths = conv::sweep_widths(&bench);
    let sweep_header = format!("ms @ {}T", slashed(widths.iter()));
    let mut t = TableWriter::new(vec![
        "layer",
        "shape",
        "algo",
        "GF/s 1T",
        "vs im2col",
        sweep_header.as_str(),
        "pred ms 1T (|error|)",
        "win",
    ]);
    for r in &bench.rows {
        let s = &r.shape;
        for a in &r.algos {
            t.row(vec![
                s.name.to_string(),
                format!(
                    "{}x{}x{} k{} s{} p{} oc{}",
                    s.c, s.h, s.w, s.kernel, s.stride, s.pad, s.oc
                ),
                match conv::winograd_tile_ran(a.algo, s) {
                    Some(t) => format!("{} F({t}x{t})", a.algo.name()),
                    None => a.algo.name().to_string(),
                },
                format!("{:.2}", a.gflops_1t),
                format!("{:.2}x", a.speedup_vs_im2col_1t),
                slashed(a.secs.iter().map(|sec| format!("{:.2}", sec * 1e3))),
                a.predicted_secs
                    .zip(a.model_error)
                    .map_or(String::new(), |(p, e)| {
                        format!("{:.2} ({:.0}%)", p * 1e3, 100.0 * e)
                    }),
                if a.algo == r.winner { "*" } else { "" }.to_string(),
            ]);
        }
    }
    t.print(&format!(
        "conv algorithm sweep ({} shapes, best of {reps}, {} cores, GEMM kernel {}; \
         predicted over the fastest 1-thread probe; |error|: median over reps, \
         each rep priced over its own probe)",
        bench.rows.len(),
        baselines::machine_cores(),
        pcnn_tensor::kernel_tier()
    ));
    let e = &bench.e2e;
    print!(
        "e2e {} x{}: default {:.3} ms -> tuned {:.3} ms ",
        e.model, e.batch, e.baseline_ms, e.tuned_ms
    );
    println!(
        "({:.2}x, plan [{}], {} timed / {} predicted / {} pruned)",
        e.tuned_speedup, e.plan, e.explored, e.predicted, e.pruned
    );
    let mut p = TableWriter::new(vec![
        "layer",
        "rung",
        "retained",
        "full ms",
        "perforated ms",
        "time ratio",
        "efficiency",
    ]);
    for r in conv::run_perforation_bench(reps, smoke) {
        p.row(vec![
            r.shape.name.to_string(),
            r.rung.to_string(),
            format!("{:.3}", r.retained),
            format!("{:.2}", r.full_ms),
            format!("{:.2}", r.perforated_ms),
            format!("{:.3}", r.perforated_ms / r.full_ms),
            format!("{:.2}", r.efficiency()),
        ]);
    }
    p.print(&format!(
        "perforation (default ladder rungs, batch {}, 1 thread, best of {reps}; \
         efficiency = retained / time ratio)",
        conv::PERFORATION_BATCH
    ));
    write_json(json, || conv::conv_json(&bench, widths))
}

fn cmd_bench_gemm(mut args: Args) -> CmdResult {
    let reps = args.positive("reps")?.unwrap_or(3);
    let json = args.get::<String>("json")?;
    args.finish()?;
    let threads = pcnn_parallel::current_threads();
    let cores = baselines::machine_cores();
    let rows = baselines::run_gemm_bench(reps);
    let nt_header = format!("packed {threads}T GF/s");
    let sweep_header = format!("GF/s @ {}T", slashed(baselines::GEMM_THREAD_SWEEP.iter()));
    let mut t = TableWriter::new(vec![
        "layer",
        "MxNxK",
        "naive GF/s",
        "packed 1T GF/s",
        nt_header.as_str(),
        "speedup",
        sweep_header.as_str(),
        "scal eff",
    ]);
    for r in &rows {
        t.row(vec![
            r.layer.to_string(),
            format!("{}x{}x{}", r.m, r.n, r.k),
            format!("{:.2}", r.naive_gflops),
            format!("{:.2}", r.packed_1t_gflops),
            format!("{:.2}", r.packed_nt_gflops),
            format!("{:.2}x", r.speedup_vs_naive),
            slashed(r.scaling.iter().map(|p| format!("{:.1}", p.gflops))),
            format!("{:.2}", r.scaling_efficiency),
        ]);
    }
    t.print(&format!(
        "CPU GEMM baseline ({threads} worker threads, {cores} cores, kernel {})",
        pcnn_tensor::kernel_tier()
    ));
    let roof = pcnn_tensor::calibrate(5).gbs;
    let mut fc = TableWriter::new(vec![
        "layer",
        "batch",
        "NxK",
        "ms",
        "weight GB/s",
        "of copy roof",
    ]);
    for r in baselines::run_fc_bench(reps) {
        fc.row(vec![
            r.layer.to_string(),
            r.batch.to_string(),
            format!("{}x{}", r.n, r.k),
            format!("{:.2}", r.ms),
            format!("{:.2}", r.weight_gbs),
            format!("{:.0}%", 100.0 * r.weight_gbs / roof),
        ]);
    }
    fc.print(&format!(
        "FC layers through gemm_nt ({threads} worker threads; copy roof {roof:.1} GB/s)"
    ));
    write_json(json, || baselines::gemm_json(&rows, threads, cores, reps))
}

/// `pcnn serve` — run the online serving simulator on a canonical mixed
/// scenario (a real-time camera, an open-loop interactive tenant, and a
/// background batch job) and report per-workload outcomes.
///
/// The scenario is a pure function of the flags, so the JSON report is
/// byte-identical across runs with the same arguments; the committed
/// `BENCH_serve.json` baseline is [`ServeScenario::canonical`].
fn cmd_serve(mut args: Args) -> CmdResult {
    let gpu_names = args.get::<String>("gpu")?.unwrap_or_else(|| "k20".into());
    let gpus = gpu_names
        .split(',')
        .map(|name| pick_gpu(name.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    let net = pick_net(
        &args
            .get::<String>("net")?
            .unwrap_or_else(|| "alexnet".into()),
    )?;
    let base = if args.flag("smoke") {
        ServeScenario::smoke()
    } else {
        ServeScenario::canonical()
    };
    let scenario = ServeScenario {
        gpus,
        net,
        seed: args.get("seed")?.unwrap_or(base.seed),
        fps: args.positive("fps")?.unwrap_or(base.fps),
        frames: args.positive("frames")?.unwrap_or(base.frames),
        requests: args.positive("requests")?.unwrap_or(base.requests),
        rate: args.positive("rate")?.unwrap_or(base.rate),
        bg_images: args.positive("bg-images")?.unwrap_or(base.bg_images),
        max_batch: args.positive("max-batch")?.unwrap_or(base.max_batch),
        degradation: !args.flag("no-degrade"),
    };
    let json = args.get::<String>("json")?;
    args.finish()?;
    let seed = scenario.seed;
    // Seeded serve traces should be byte-identical: keep only the
    // virtual-time observability data unless the user forced a mode.
    if pcnn_telemetry::enabled() && std::env::var("PCNN_TRACE_MODE").is_err() {
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
    }

    let report = scenario
        .run()
        .map_err(|e| failed(format!("serve failed: {e}")))?;

    let mut t = TableWriter::new(vec![
        "workload",
        "kind",
        "served",
        "rejected",
        "deadlines",
        "p99 (ms)",
        "entropy",
        "level",
        "SoC",
    ]);
    for w in &report.workloads {
        t.row(vec![
            w.name.clone(),
            format!("{:?}", w.kind),
            format!("{}/{}", w.served_images, w.images),
            w.rejected_images.to_string(),
            match w.deadline_s {
                Some(_) => format!("{}/{}", w.deadlines_met, w.deadline_total),
                None => "-".to_string(),
            },
            format!("{:.2}", w.latency.p99 * 1e3),
            format!("{:.3}", w.mean_entropy),
            format!("{}↑{}↓{}", w.final_level, w.degrade_up, w.degrade_down),
            match &w.soc {
                Some(s) => format!("{:.3}", s.score),
                None => "-".to_string(),
            },
        ]);
    }
    t.print(&format!(
        "serving {} on {} (seed {seed}, makespan {:.2} s, {:.1} J compute + {:.1} J idle)",
        scenario.net.name,
        gpu_names,
        report.makespan_s,
        report.total_energy_j,
        report.total_idle_energy_j
    ));
    write_json(json, || report.to_json())
}

/// `pcnn serve-fleet` — run the canonical heterogeneous-fleet scenarios
/// (deadline frames, energy-slack bursts, background drain, and the
/// degradation-ladder demo) on the mixed K20c + Jetson TX1 fleet under
/// every routing policy, and report per-policy SoC/energy/deadline rows
/// plus the per-platform ladder-occupancy profile.
///
/// The scenarios are pure functions of the flags, so `--json` writes a
/// byte-identical document across runs; the committed `BENCH_fleet.json`
/// baseline is [`FleetScenario::canonical`]. `--stream N` instead serves
/// `N` lazily-generated Poisson requests through the streaming event
/// loop — memory stays independent of `N` because the trace is never
/// materialized.
fn cmd_serve_fleet(mut args: Args) -> CmdResult {
    let scenario = if args.flag("smoke") {
        FleetScenario::smoke()
    } else {
        FleetScenario::canonical()
    };
    let policy = match args.get::<String>("policy")? {
        Some(name) => Some(pick_policy(&name)?),
        None => None,
    };
    let only = args.get::<String>("scenario")?;
    let stream = args.positive::<usize>("stream")?;
    let json = args.get::<String>("json")?;
    args.finish()?;
    let fleet_failed = |e| failed(format!("serve-fleet failed: {e}"));
    // Seeded fleet runs should be byte-identical: keep only the
    // virtual-time observability data unless the user forced a mode.
    if pcnn_telemetry::enabled() && std::env::var("PCNN_TRACE_MODE").is_err() {
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
    }

    // `--scenario` runs exactly one scenario, so a trace (and its route
    // audit trail / incident snapshot) covers a single serving run
    // instead of the full 13-run bench sweep.
    if let Some(name) = only {
        if json.is_some() {
            return Err(CliError::Usage(
                "--json writes the full bench (drop --scenario)".into(),
            ));
        }
        let p = policy.unwrap_or_default();
        let report = match name.as_str() {
            "deadline" => scenario.run_deadline(p),
            "slack" => scenario.run_slack(p),
            "drain" => scenario.run_drain(p),
            // The ladder demo is defined under round-robin.
            "ladder" => scenario.run_ladder_demo(),
            other => {
                return Err(unknown(
                    "--scenario",
                    other,
                    "deadline, slack, drain or ladder",
                ))
            }
        }
        .map_err(fleet_failed)?;
        println!(
            "{name} scenario ({} router): {}/{} deadlines, {} images served, {:.3} compute J, makespan {:.3} s",
            report.router,
            report.fleet.deadlines_met,
            report.fleet.deadline_total,
            report.fleet.served_images,
            report.fleet.compute_j,
            report.makespan_s
        );
        return Ok(());
    }

    if let Some(n) = stream {
        let report = scenario
            .run_stream(policy.unwrap_or_default(), n)
            .map_err(fleet_failed)?;
        let w = &report.workloads[0];
        println!(
            "streamed {} lazy requests over {} platforms ({} router): {} served, {} rejected, p99 {:.2} ms, makespan {:.2} s",
            w.requests,
            report.gpus.len(),
            report.router,
            w.served_images,
            w.rejected_images,
            w.latency.p99 * 1e3,
            report.makespan_s
        );
        return Ok(());
    }

    if policy.is_some() && json.is_some() {
        return Err(CliError::Usage(
            "--json needs every policy (drop --policy)".into(),
        ));
    }
    let bench = match policy {
        Some(p) => scenario.run_policies(&[p]),
        None => scenario.run_all(),
    }
    .map_err(fleet_failed)?;

    let mut t = TableWriter::new(vec![
        "scenario",
        "policy",
        "deadlines",
        "served",
        "compute J",
        "idle J",
        "J/img",
        "SoC",
        "makespan (s)",
    ]);
    let sections = [
        ("deadline", &bench.deadline),
        ("slack", &bench.slack),
        ("drain", &bench.drain),
    ];
    for (sec, rows) in sections {
        for (p, r) in rows.iter() {
            t.row(vec![
                sec.to_string(),
                p.name().to_string(),
                if r.fleet.deadline_total > 0 {
                    format!("{}/{}", r.fleet.deadlines_met, r.fleet.deadline_total)
                } else {
                    "-".to_string()
                },
                r.fleet.served_images.to_string(),
                format!("{:.3}", r.fleet.compute_j),
                format!("{:.3}", r.fleet.idle_j),
                format!("{:.4}", r.fleet.joules_per_image),
                format!("{:.3}", r.fleet.mean_soc),
                format!("{:.3}", r.makespan_s),
            ]);
        }
    }
    let gpu_names: Vec<&str> = scenario.gpus.iter().map(|g| g.name).collect();
    t.print(&format!(
        "fleet serving {} on {} (seed {})",
        scenario.net.name,
        gpu_names.join(" + "),
        scenario.seed
    ));

    let mut lt = TableWriter::new(vec!["platform", "images", "images at ladder level 0.."]);
    for g in &bench.ladder_demo.gpus {
        lt.row(vec![
            g.name.clone(),
            g.images.to_string(),
            slashed(g.images_at_level.iter()),
        ]);
    }
    lt.print(&format!(
        "ladder demo ({} router, degradation on): each platform walks its own ladder",
        bench.ladder_demo.router
    ));

    if policy.is_none() {
        let frontier: Vec<&str> = baselines::pareto_frontier(&bench)
            .iter()
            .map(|p| p.name())
            .collect();
        println!(
            "SoC/energy pareto frontier over the slack runs: {}",
            frontier.join(", ")
        );
    }

    write_json(json, || baselines::fleet_json(&scenario, &bench))
}

/// `pcnn obs <trace.json>` — per-workload queueing-vs-service breakdown,
/// per-request critical path, and the SLO alert log of an exported serve
/// trace.
fn cmd_obs_analyze(path: &str) -> CmdResult {
    let analysis = analyze_trace(&load(path)?).map_err(|e| failed(format!("{path}: {e}")))?;
    if analysis.workloads.is_empty() {
        return Err(failed(format!("no per-request observability events in {path} (was the trace exported by `pcnn serve` with PCNN_TRACE set?)")));
    }
    let mut t = TableWriter::new(vec![
        "workload",
        "requests",
        "queue (ms)",
        "execute (ms)",
        "queue share",
        "critical path",
    ]);
    for (name, w) in &analysis.workloads {
        let total = w.queue_us + w.exec_us;
        let crit = w
            .critical
            .as_ref()
            .map(|c| {
                format!(
                    "#{} {:.1}+{:.1} ms (batch {} gpu {})",
                    c.req,
                    c.queue_us / 1e3,
                    c.exec_us / 1e3,
                    c.batch,
                    c.gpu
                )
            })
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            name.clone(),
            w.requests.to_string(),
            format!("{:.1}", w.queue_us / 1e3),
            format!("{:.1}", w.exec_us / 1e3),
            format!(
                "{:.0}%",
                if total > 0.0 {
                    100.0 * w.queue_us / total
                } else {
                    0.0
                }
            ),
            crit,
        ]);
    }
    t.print(&format!(
        "queueing vs service per workload ({} dispatched batches)",
        analysis.batches
    ));
    if analysis.alerts.is_empty() {
        println!("no SLO alerts");
    } else {
        let mut t = TableWriter::new(vec![
            "t (s)",
            "workload",
            "metric",
            "observed",
            "objective",
            "burn",
        ]);
        for a in &analysis.alerts {
            t.row(vec![
                format!("{:.2}", a.t_s),
                a.workload.clone(),
                a.metric.clone(),
                format!("{:.4}", a.observed),
                format!("{:.4}", a.objective),
                format!("{:.2}x", a.burn_rate),
            ]);
        }
        t.print(&format!("SLO alerts ({})", analysis.alerts.len()));
    }
    Ok(())
}

/// `pcnn obs diff <a> <b>` — attribute the time delta between two
/// profile documents (down the layer/phase tree) or two Chrome traces
/// (per span name), ranked by how much of the delta each row owns.
fn cmd_obs_diff(a_path: &str, b_path: &str) -> CmdResult {
    let d = diff_documents(&load(a_path)?, &load(b_path)?).map_err(failed)?;
    println!(
        "total: {:.3} ms -> {:.3} ms ({:+.3} ms)",
        d.base_ms,
        d.cand_ms,
        d.delta_ms()
    );
    let mut t = TableWriter::new(vec![
        "culprit",
        "a (ms)",
        "b (ms)",
        "delta (ms)",
        "top phase",
    ]);
    for e in d.culprits.iter().take(10) {
        let top_phase = e
            .children
            .first()
            .filter(|c| c.delta_ms().abs() > 0.0)
            .map(|c| {
                let phase = c.path.rsplit('/').next().unwrap_or(&c.path);
                format!("{phase} ({:+.3} ms)", c.delta_ms())
            })
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            e.path.clone(),
            format!("{:.3}", e.base_ms),
            format!("{:.3}", e.cand_ms),
            format!("{:+.3}", e.delta_ms()),
            top_phase,
        ]);
    }
    t.print(&format!(
        "delta attribution, ranked by |delta| ({} rows)",
        d.culprits.len()
    ));
    Ok(())
}

fn report_violations(what: &str, violations: &[Violation]) {
    if violations.is_empty() {
        println!("{what}: ok");
        return;
    }
    println!("{what}: {} regression(s)", violations.len());
    for v in violations {
        println!("  REGRESSION {v}");
    }
}

/// Reads an `obs check` baseline or candidate file as text.
fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|source| {
        let path = path.to_string();
        failed(ObsError::Io { path, source })
    })
}

/// `pcnn obs check` — diff fresh runs (or `--candidate-*` files) against
/// the committed baselines; exits nonzero on any regression. A
/// deterministic document must be byte-identical (the first differing
/// line is printed); a wall-clock one is held to per-metric tolerance
/// bands.
///
/// Every baseline comes from the [`baselines::baseline_gates`] registry:
/// each entry declares its default path, its in-process regenerator, and
/// its compare function (none for a byte-identical document), so this
/// loop is the whole command. With any explicit `--candidate-{name}`
/// file, only the provided sides are checked (fast file-vs-file mode),
/// and a `--baseline-{name}` without its candidate is refused; otherwise
/// every gate is re-run.
fn cmd_obs_check(mut args: Args) -> CmdResult {
    // The gate registry is the flag table: `--baseline-<name>` and
    // `--candidate-<name>` exist for exactly the registered gates.
    let mut gates = Vec::new();
    for gate in baselines::baseline_gates() {
        let baseline = args.get::<String>(&format!("baseline-{}", gate.name))?;
        let candidate = args.get::<String>(&format!("candidate-{}", gate.name))?;
        gates.push((gate, baseline, candidate));
    }
    let reps = args.positive("reps")?.unwrap_or(3);
    args.finish()?;
    let file_mode = gates.iter().any(|(_, _, candidate)| candidate.is_some());
    // Refused before any gate runs, so a refusal prints nothing on stdout.
    let unpaired = gates
        .iter()
        .find(|(_, b, c)| file_mode && b.is_some() && c.is_none());
    if let Some((gate, ..)) = unpaired {
        return Err(CliError::Usage(format!(
            "--baseline-{0} has no --candidate-{0}: with candidate files, only the gates given one are checked",
            gate.name
        )));
    }
    let mut violations = 0usize;
    for (gate, baseline, candidate) in gates {
        if file_mode && candidate.is_none() {
            continue;
        }
        let baseline_path = baseline.as_deref().unwrap_or(gate.default_path);
        let base = read(baseline_path)?;
        let cand = match &candidate {
            Some(p) => read(p)?,
            None => (gate.regenerate)(reps).map_err(failed)?,
        };
        let what = format!("{} vs {baseline_path}", gate.name);
        let Some(compare) = gate.compare else {
            match first_difference(&base, &cand) {
                None => println!("{what}: ok"),
                Some((line, committed, candidate)) => {
                    println!("{what}: not byte-identical, first at line {line}");
                    println!("  committed: {committed}");
                    println!("  candidate: {candidate}");
                    violations += 1;
                }
            }
            continue;
        };
        let parse = |text: &str, path: &str| {
            pcnn_telemetry::json::parse(text).map_err(|message| {
                let path = path.to_string();
                failed(ObsError::Parse { path, message })
            })
        };
        let base = parse(&base, baseline_path)?;
        let cand = parse(&cand, candidate.as_deref().unwrap_or(gate.name))?;
        let v = compare(&base, &cand);
        report_violations(&what, &v);
        // Documents recorded on different GEMM kernels gate on the same
        // machine-normalised ratios; say so rather than fail or stay
        // silent about whose GFLOP/s these are.
        let kernel = |doc: &JsonValue| Some(doc.get("kernel")?.as_str()?.to_string());
        if let (Some(b), Some(c)) = (kernel(&base), kernel(&cand)) {
            if b != c {
                println!(
                    "  note: {} baseline was recorded on the {b} kernel, the candidate ran {c}",
                    gate.name
                );
            }
        }
        violations += v.len();
    }

    if violations > 0 {
        return Err(failed(format!("{violations} regression(s)")));
    }
    Ok(())
}

fn fmt_slack(slack_s: Option<f64>) -> String {
    slack_s
        .map(|s| format!("{:+.2}", s * 1e3))
        .unwrap_or_else(|| "-".to_string())
}

/// The routing-decision table `obs route` and `obs incident` share.
fn route_decisions_table(decisions: &[&RouteRecord]) -> TableWriter {
    let mut t = TableWriter::new(vec![
        "t (s)",
        "workload",
        "req",
        "platform",
        "reason",
        "dispatched",
        "queue",
        "stolen from",
    ]);
    for d in decisions {
        t.row(vec![
            format!("{:.4}", d.t_s),
            d.workload.clone(),
            format!("#{}", d.req),
            d.platform.clone().unwrap_or_else(|| "hold".to_string()),
            d.reason.clone(),
            if d.dispatched { "yes" } else { "no" }.to_string(),
            d.queue.to_string(),
            d.from.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t
}

/// `pcnn obs route <trace.json>` — the routing-decision audit trail:
/// decision histogram by reason, steal-flow matrix, and (with `--req N`
/// and optionally `--workload W`) the full "why did request X land on
/// platform P" story including every rejected candidate's score.
fn cmd_obs_route(path: &str, mut args: Args) -> CmdResult {
    let req = args.get::<u64>("req")?;
    let workload = args.get::<String>("workload")?;
    args.finish()?;
    let report = analyze_route(&load(path)?).map_err(|e| failed(format!("{path}: {e}")))?;
    if report.decisions.is_empty() {
        return Err(failed(format!("no route.decision events in {path} (was the trace exported by a fleet run with PCNN_TRACE set?)")));
    }

    if let Some(req) = req {
        let workload = match workload {
            Some(w) => w,
            None => {
                // With a single workload in the trail the flag is noise.
                let mut names: Vec<&str> = report
                    .decisions
                    .iter()
                    .map(|d| d.workload.as_str())
                    .collect();
                names.sort_unstable();
                names.dedup();
                match names.as_slice() {
                    [only] => only.to_string(),
                    many => {
                        return Err(CliError::Usage(format!(
                            "trace has {} workloads ({}); pick one with --workload",
                            many.len(),
                            many.join(", ")
                        )))
                    }
                }
            }
        };
        let decisions = report.for_request(&workload, req);
        if decisions.is_empty() {
            return Err(failed(format!(
                "no routing decisions for request {workload}#{req} in {path}"
            )));
        }
        route_decisions_table(&decisions).print(&format!(
            "routing decisions for request {workload}#{req} ({})",
            path
        ));
        // The candidate scores behind the decision that actually placed
        // the request (falling back to the last attempt for holds).
        let story = decisions
            .iter()
            .rfind(|d| d.dispatched)
            .or(decisions.last())
            .expect("non-empty decisions");
        if story.candidates.is_empty() {
            println!("no candidate scores recorded for this decision");
        } else {
            let mut t = TableWriter::new(vec![
                "candidate",
                "batch",
                "predicted (ms)",
                "slack (ms)",
                "J/img",
                "feasible",
                "verdict",
            ]);
            for c in &story.candidates {
                let chosen = story.platform.as_deref() == Some(c.platform.as_str());
                t.row(vec![
                    c.platform.clone(),
                    c.batch.to_string(),
                    format!("{:.2}", c.predicted_s * 1e3),
                    fmt_slack(c.slack_s),
                    format!("{:.4}", c.joules_per_image),
                    if c.feasible { "yes" } else { "no" }.to_string(),
                    if chosen {
                        format!("chosen ({})", story.reason)
                    } else if c.feasible {
                        "passed over".to_string()
                    } else {
                        "rejected: misses deadline".to_string()
                    },
                ]);
            }
            t.print(&format!(
                "candidate scores at t={:.4}s (queue depth {})",
                story.t_s, story.queue
            ));
        }
        return Ok(());
    }

    let mut t = TableWriter::new(vec!["reason", "decisions", "dispatched"]);
    for (reason, (total, dispatched)) in &report.by_reason {
        t.row(vec![
            reason.clone(),
            total.to_string(),
            dispatched.to_string(),
        ]);
    }
    t.print(&format!(
        "decision histogram by reason ({} decisions)",
        report.decisions.len()
    ));
    if report.steals.is_empty() {
        println!("no steals");
    } else {
        let mut t = TableWriter::new(vec!["from", "to", "batches"]);
        for ((from, to), n) in &report.steals {
            t.row(vec![from.clone(), to.clone(), n.to_string()]);
        }
        t.print("steal-flow matrix");
    }
    println!("drill into one request with: pcnn obs route {path} --req <N> [--workload <name>]");
    Ok(())
}

/// `pcnn obs incident <snapshot.incident.json>` — postmortem view of a
/// self-contained incident snapshot: the alert that fired, the last
/// closed window's state, and the flight recorder's recent routing
/// decisions and ladder moves.
fn cmd_obs_incident(path: &str) -> CmdResult {
    let inc =
        IncidentReport::from_snapshot(&load(path)?).map_err(|e| failed(format!("{path}: {e}")))?;
    println!(
        "incident: {} SLO on {} violated at t={:.3}s — observed {:.4} vs objective {:.4} (burn {:.2}x)",
        inc.alert.metric,
        inc.alert.workload,
        inc.alert.t_s,
        inc.alert.observed,
        inc.alert.objective,
        inc.alert.burn_rate
    );
    println!(
        "run: {} router, {:.3}s SLO windows, platforms [{}], workloads [{}]",
        inc.router,
        inc.window_s,
        inc.platforms.join(", "),
        inc.workloads.join(", ")
    );
    if let Some(last) = inc.windows.last() {
        let get_f = JsonValue::f64_at;
        let get_s = |v: &JsonValue, k: &str| v.str_at(k).unwrap_or("?").to_string();
        let mut t = TableWriter::new(vec!["metric", "label", "count", "mean", "p99", "max"]);
        for r in last
            .get("records")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let (count, mean, p99, max) = match get_f(r, "count") {
                Some(n) => (n, None, None, None),
                None => (
                    get_f(r, "n").unwrap_or(0.0),
                    get_f(r, "mean"),
                    get_f(r, "p99"),
                    get_f(r, "max"),
                ),
            };
            let num = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "-".into());
            t.row(vec![
                get_s(r, "name"),
                get_s(r, "label"),
                format!("{count}"),
                num(mean),
                num(p99),
                num(max),
            ]);
        }
        t.print(&format!(
            "last closed window (#{}, {:.3}s..{:.3}s) of {} snapshotted",
            get_f(last, "window").unwrap_or(f64::NAN),
            get_f(last, "start_s").unwrap_or(f64::NAN),
            get_f(last, "end_s").unwrap_or(f64::NAN),
            inc.windows.len()
        ));
    }
    if inc.route_decisions.is_empty() {
        println!("no route decisions in the flight recorder");
    } else {
        let shown = inc.route_decisions.len().min(12);
        let recent: Vec<_> = inc.route_decisions[inc.route_decisions.len() - shown..]
            .iter()
            .collect();
        route_decisions_table(&recent).print(&format!(
            "most recent route decisions ({} of {} recorded)",
            shown,
            inc.route_decisions.len()
        ));
    }
    if inc.ladder_moves.is_empty() {
        println!("no ladder moves in the flight recorder");
    } else {
        let mut t = TableWriter::new(vec!["t (s)", "workload", "platform", "level", "dir"]);
        for m in &inc.ladder_moves {
            let f = |k: &str| m.f64_at(k);
            let s = |k: &str| m.str_at(k).unwrap_or("?").to_string();
            t.row(vec![
                format!("{:.4}", f("t_s").unwrap_or(f64::NAN)),
                s("workload"),
                s("platform"),
                format!("{}", f("level").unwrap_or(f64::NAN)),
                s("dir"),
            ]);
        }
        t.print(&format!("ladder moves ({})", inc.ladder_moves.len()));
    }
    Ok(())
}

/// The next positional, or a usage error saying what was expected there.
fn expect(args: &mut Args, what: &str) -> Result<String, CliError> {
    args.positional()
        .ok_or_else(|| CliError::Usage(format!("missing {what}")))
}

fn cmd_obs(mut args: Args) -> CmdResult {
    let first = expect(&mut args, "<trace.json> or an obs subcommand")?;
    match first.as_str() {
        "check" => cmd_obs_check(args),
        "diff" => {
            let a = expect(&mut args, "<a.json>")?;
            let b = expect(&mut args, "<b.json>")?;
            args.finish()?;
            cmd_obs_diff(&a, &b)
        }
        "route" => {
            let path = expect(&mut args, "<trace.json>")?;
            cmd_obs_route(&path, args)
        }
        "incident" => {
            let path = expect(&mut args, "<trace>.incident.json")?;
            args.finish()?;
            cmd_obs_incident(&path)
        }
        path => {
            args.finish()?;
            cmd_obs_analyze(path)
        }
    }
}

/// `pcnn profile <model>` — instrumented forward passes, the measured
/// roofline report, and (with `--json`) the deterministic profile
/// document regenerated single-threaded so it is byte-identical across
/// runs and hosts.
fn cmd_profile(mut args: Args) -> CmdResult {
    let model_name = expect(&mut args, "<alexnet|vggnet|googlenet>")?;
    let net = profile::pick_model(&model_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown model {model_name:?} (expected alexnet, vggnet, or googlenet)"
        ))
    })?;
    let batch = args.positive("batch")?.unwrap_or(profile::BASELINE_BATCH);
    let reps = args.positive("reps")?.unwrap_or(3);
    let json = args.get::<String>("json")?;
    args.finish()?;
    let profile_failed = |e| failed(format!("profile failed: {e}"));
    // Calibrate before profiling so the probe GEMM stays off the tables.
    let peaks = pcnn_tensor::calibrate(5);
    let run = profile::run_profile(&net, batch, reps).map_err(profile_failed)?;
    print!("{}", profile::render_report(&run, &peaks));
    if json.is_none() {
        return Ok(());
    }
    // The document models time from shape-determined FLOP/byte counts,
    // but span *counts* depend on the worker partition — regenerate
    // single-threaded so the file is host-independent.
    let doc_run = pcnn_parallel::with_threads(1, || profile::run_profile(&net, batch, 1))
        .map_err(profile_failed)?;
    write_json(json, || profile::profile_json(&doc_run))
}

/// `pcnn repro` — the paper's tables and figures out of the
/// [`experiments`] registry. One [`experiments::Fixtures`] serves the
/// whole invocation, so `all` trains and simulates shared inputs once.
fn cmd_repro(mut args: Args) -> CmdResult {
    let list = args.flag("list");
    let what = args.positional();
    let dir = args.get::<String>("dir")?;
    args.finish()?;
    let mut fixtures = experiments::Fixtures::default();
    let registry = &experiments::REGISTRY;
    match (what.as_deref(), dir) {
        _ if list => {
            for e in registry {
                let file = if e.committed { "results/" } else { "-" };
                println!(
                    "{:<18}{:<10}{:<9}{}",
                    e.id,
                    format!("{:?}", e.cost),
                    file,
                    e.title
                );
            }
        }
        (Some("all"), Some(dir)) => {
            for e in registry.iter().filter(|e| e.committed) {
                let path = std::path::Path::new(&dir).join(format!("{}.txt", e.id));
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, e.rendered(&mut fixtures)))
                    .map_err(|err| failed(format!("could not write {}: {err}", path.display())))?;
                println!("wrote {}", path.display());
            }
        }
        (Some("all"), None) => return Err(CliError::Usage("repro all needs --dir <path>".into())),
        (Some(id), None) => match registry.iter().find(|e| e.id == id) {
            Some(e) => print!("{}", e.rendered(&mut fixtures)),
            None => {
                return Err(CliError::Usage(format!(
                    "unknown experiment {id:?} (see `pcnn repro --list`)"
                )))
            }
        },
        (Some(_), Some(_)) => return Err(CliError::Usage("--dir goes with `repro all`".into())),
        (None, _) => return Err(CliError::Usage("missing <id>, `all` or --list".into())),
    }
    Ok(())
}

/// Everything after argument zero: the flags every subcommand shares,
/// then the subcommand. The trace session lives until the subcommand
/// returns, so its files are written on the way out whatever the result.
fn run(mut args: Args) -> CmdResult {
    let _trace = pcnn_bench::trace::init(&mut args)?;
    check_threads_env(std::env::var("PCNN_THREADS").ok().as_deref())?;
    if let Some(n) = args.positive("threads")? {
        pcnn_parallel::set_threads(n);
    }
    let cmd = expect(&mut args, "a subcommand")?;
    match cmd.as_str() {
        "platforms" => cmd_platforms(args),
        "compile" => cmd_compile(args),
        "simulate" => cmd_simulate(args),
        "tune" => cmd_tune(args),
        "serve" => cmd_serve(args),
        "serve-fleet" => cmd_serve_fleet(args),
        "bench-gemm" => cmd_bench_gemm(args),
        "bench-conv" => cmd_bench_conv(args),
        "profile" => cmd_profile(args),
        "repro" => cmd_repro(args),
        "obs" => cmd_obs(args),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

fn main() -> ExitCode {
    match run(Args::new(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
