//! `pcnn profile` — per-layer phase attribution and roofline reporting
//! for the real CPU inference engine.
//!
//! Two outputs from one instrumented forward pass:
//!
//! * A **measured report** ([`render_report`]): per-layer wall time split
//!   into pack-A / pack-B / microkernel / Winograd transforms / epilogue /
//!   activation,
//!   achieved GFLOP/s, arithmetic intensity, and a roofline
//!   classification against machine peaks measured once by
//!   [`pcnn_tensor::calibrate`]'s probe. When per-worker telemetry is on, the
//!   report also surfaces the pool's load-imbalance metric per GEMM
//!   region.
//! * A **deterministic profile document** ([`profile_json`]): the same
//!   phase tree priced by a fixed reference roofline
//!   ([`REF_FLOPS_PER_NS`] / [`REF_BYTES_PER_NS`]) instead of the clock.
//!   FLOP and byte counts are pure functions of the layer shapes, so the
//!   document is byte-identical across runs and hosts — it is what
//!   `BENCH_profile.json` commits and what `pcnn obs diff` attributes
//!   regressions against.

use std::time::Instant;

use pcnn_nn::models::{tiny_alexnet, tiny_googlenet, tiny_vggnet};
use pcnn_nn::{Network, PerforationPlan};
use pcnn_profile::{LayerProfile, Phase};
use pcnn_tensor::{MachinePeaks, Tensor};

use crate::TableWriter;

/// Reference roofline FLOP peak for the deterministic document:
/// 32 FLOP/ns = 32 GFLOP/s.
pub const REF_FLOPS_PER_NS: f64 = 32.0;

/// Reference roofline bandwidth for the deterministic document:
/// 16 B/ns = 16 GB/s (balance point 2 FLOP/B).
pub const REF_BYTES_PER_NS: f64 = 16.0;

/// Classes used by the `pcnn profile` model constructors.
const PROFILE_CLASSES: usize = 10;

/// Resolves a `pcnn profile` model name to its tiny-CNN constructor.
pub fn pick_model(name: &str) -> Option<Network> {
    match name {
        "alexnet" | "tiny_alexnet" => Some(tiny_alexnet(PROFILE_CLASSES)),
        "vggnet" | "tiny_vggnet" => Some(tiny_vggnet(PROFILE_CLASSES)),
        "googlenet" | "tiny_googlenet" => Some(tiny_googlenet(PROFILE_CLASSES)),
        _ => None,
    }
}

/// A deterministic pseudo-random input batch for `net`.
pub fn profile_input(net: &Network, batch: usize) -> Tensor {
    let [c, h, w] = net.input_shape();
    Tensor::from_fn(vec![batch, c, h, w], |i| {
        ((i.wrapping_mul(2654435761) % 1000) as f32) / 1000.0 - 0.5
    })
}

/// One instrumented profiling run.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Network name.
    pub model: String,
    /// Images per forward pass.
    pub batch: usize,
    /// Forward passes measured (phase counters are sums over all reps).
    pub reps: usize,
    /// Worker-pool width during the run.
    pub threads: usize,
    /// Per-layer phase profiles, index-ascending.
    pub layers: Vec<LayerProfile>,
    /// Wall time of the measured reps, nanoseconds.
    pub forward_wall_ns: u64,
    /// `(region label, max/mean busy ratio)` per instrumented pool
    /// region, from telemetry — empty unless telemetry was recording.
    pub imbalance: Vec<(String, f64)>,
}

impl ProfileRun {
    /// Fraction of the measured forward wall time attributed to phases.
    pub fn coverage(&self) -> f64 {
        if self.forward_wall_ns == 0 {
            return 0.0;
        }
        let attributed: u64 = self.layers.iter().map(|l| l.total().ns).sum();
        attributed as f64 / self.forward_wall_ns as f64
    }
}

/// Runs `reps` instrumented forward passes (after one unprofiled warmup)
/// and snapshots the per-layer phase tables.
///
/// The calling thread's profiler tables are reset on entry and on exit,
/// so runs compose; telemetry (if enabled) keeps accumulating, and its
/// `parallel.imbalance_milli.*` histograms are folded into the result.
///
/// # Errors
///
/// Returns the forward-pass error message on shape mismatch.
pub fn run_profile(net: &Network, batch: usize, reps: usize) -> Result<ProfileRun, String> {
    let reps = reps.max(1);
    let input = profile_input(net, batch);
    let plan = net
        .compile(&PerforationPlan::identity(net.conv_count()), None)
        .map_err(|e| e.to_string())?;
    let fwd = |x: &Tensor| net.run(&plan, x).map_err(|e| e.to_string());
    fwd(&input)?; // warmup: page in weights, allocate nothing lazily later
    pcnn_profile::set_enabled(true);
    pcnn_profile::reset();
    let t0 = Instant::now();
    let mut result = Ok(());
    for _ in 0..reps {
        if let Err(e) = fwd(&input) {
            result = Err(e);
            break;
        }
    }
    let forward_wall_ns = t0.elapsed().as_nanos() as u64;
    pcnn_profile::set_enabled(false);
    let layers = pcnn_profile::snapshot();
    pcnn_profile::reset();
    result?;
    let imbalance = if pcnn_telemetry::enabled() {
        let metrics = pcnn_telemetry::snapshot();
        let mut v: Vec<(String, f64)> = metrics
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let label = name.strip_prefix("parallel.imbalance_milli.")?;
                if h.count == 0 {
                    return None;
                }
                Some((label.to_string(), h.sum / h.count as f64 / 1000.0))
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    } else {
        Vec::new()
    };
    Ok(ProfileRun {
        model: net.name().to_string(),
        batch,
        reps,
        threads: pcnn_parallel::current_threads(),
        layers,
        forward_wall_ns,
        imbalance,
    })
}

/// The canonical deterministic run behind `BENCH_profile.json`: tiny
/// AlexNet, batch [`BASELINE_BATCH`], one rep, single-threaded. `pcnn
/// obs check` regenerates this and diffs it against the committed
/// document.
///
/// # Errors
///
/// Returns the forward-pass error message on shape mismatch.
pub fn baseline_run() -> Result<ProfileRun, String> {
    let net = pick_model("alexnet").expect("alexnet is a known model");
    pcnn_parallel::with_threads(1, || run_profile(&net, BASELINE_BATCH, 1))
}

/// Batch size of the committed `BENCH_profile.json` baseline.
pub const BASELINE_BATCH: usize = 2;

/// Reference-roofline time for a phase's work, nanoseconds: the larger
/// of its compute and memory terms.
fn modelled_ns(flops: u64, bytes: u64) -> f64 {
    (flops as f64 / REF_FLOPS_PER_NS).max(bytes as f64 / REF_BYTES_PER_NS)
}

/// Whether the reference roofline prices this work compute- or
/// memory-bound.
fn ref_bound(flops: u64, bytes: u64) -> &'static str {
    if flops as f64 / REF_FLOPS_PER_NS >= bytes as f64 / REF_BYTES_PER_NS {
        "compute"
    } else {
        "memory"
    }
}

/// Renders the deterministic profile document (`pcnn profile --json`,
/// the `BENCH_profile.json` schema). Phase counters are normalised to
/// one forward pass; every time is modelled from FLOP/byte counts
/// against the fixed reference roofline, so two runs of the same build
/// produce byte-identical documents.
pub fn profile_json(run: &ProfileRun) -> String {
    let reps = run.reps.max(1) as u64;
    let mut layer_rows = Vec::new();
    let mut total_ms = 0.0;
    for l in &run.layers {
        let t = l.total();
        let (flops, bytes) = (t.flops / reps, t.bytes / reps);
        let mut phase_rows = Vec::new();
        let mut layer_ms = 0.0;
        for p in Phase::ALL {
            let pt = l.phase(p);
            if pt.calls == 0 {
                continue;
            }
            let (pf, pb, pc) = (pt.flops / reps, pt.bytes / reps, pt.calls / reps);
            let ms = modelled_ns(pf, pb) / 1e6;
            layer_ms += ms;
            phase_rows.push(format!(
                "{{\"phase\": \"{}\", \"modelled_ms\": {:.6}, \"flops\": {}, \"bytes\": {}, \"calls\": {}}}",
                p.name(),
                ms,
                pf,
                pb,
                pc
            ));
        }
        total_ms += layer_ms;
        let intensity = if bytes > 0 {
            flops as f64 / bytes as f64
        } else {
            0.0
        };
        layer_rows.push(format!(
            "    {{\"layer\": \"{}\", \"modelled_ms\": {:.6}, \"flops\": {}, \"bytes\": {}, \"intensity\": {:.3}, \"bound\": \"{}\", \"phases\": [\n      {}\n    ]}}",
            l.name,
            layer_ms,
            flops,
            bytes,
            intensity,
            ref_bound(flops, bytes),
            phase_rows.join(",\n      ")
        ));
    }
    format!(
        "{{\n  \"bench\": \"profile\",\n  \"model\": \"{}\",\n  \"batch\": {},\n  \"threads\": {},\n  \"ref_gflops\": {:.3},\n  \"ref_gbs\": {:.3},\n  \"total_modelled_ms\": {:.6},\n  \"layers\": [\n{}\n  ]\n}}\n",
        run.model,
        run.batch,
        run.threads,
        REF_FLOPS_PER_NS,
        REF_BYTES_PER_NS,
        total_ms,
        layer_rows.join(",\n")
    )
}

/// Milliseconds per rep for one cell, `"-"` when the phase never ran.
fn ms_cell(ns: u64, calls: u64, reps: u64) -> String {
    if calls == 0 {
        "-".to_string()
    } else {
        format!("{:.3}", ns as f64 / reps as f64 / 1e6)
    }
}

/// Renders the measured human report: the per-layer roofline table,
/// phase coverage, and any pool-imbalance findings.
pub fn render_report(run: &ProfileRun, peaks: &MachinePeaks) -> String {
    let reps = run.reps.max(1) as u64;
    // A roof below what a layer sustained is a mis-measured roof (a
    // descheduled probe, a throttled core): raise it to the fastest layer
    // and say so, rather than classify against a ceiling the run itself
    // disproves.
    let sustained = |l: &LayerProfile| {
        let t = l.total();
        if t.ns > 0 {
            t.flops as f64 / t.ns as f64
        } else {
            0.0
        }
    };
    let fastest = run.layers.iter().map(sustained).fold(0.0, f64::max);
    let roof = MachinePeaks {
        gflops: peaks.gflops.max(fastest),
        ..*peaks
    };
    let mut t = TableWriter::new(vec![
        "layer", "wall ms", "pack_a", "pack_b", "micro", "wino_f", "wino_t", "wino_i", "epilog",
        "activ", "GFLOP/s", "FLOP/B", "bound",
    ]);
    for l in &run.layers {
        let total = l.total();
        let gflops = sustained(l);
        let intensity = if total.bytes > 0 {
            total.flops as f64 / total.bytes as f64
        } else {
            0.0
        };
        let bound = if intensity >= roof.balance() {
            "compute"
        } else {
            "memory"
        };
        let cell = |p: Phase| {
            let pt = l.phase(p);
            ms_cell(pt.ns, pt.calls, reps)
        };
        t.row(vec![
            l.name.clone(),
            format!("{:.3}", l.wall_ns as f64 / reps as f64 / 1e6),
            cell(Phase::PackA),
            cell(Phase::PackB),
            cell(Phase::Microkernel),
            cell(Phase::WinogradFilter),
            cell(Phase::WinogradTransform),
            cell(Phase::WinogradInverse),
            cell(Phase::Epilogue),
            cell(Phase::Activation),
            format!("{gflops:.2}"),
            format!("{intensity:.2}"),
            bound.to_string(),
        ]);
    }
    let mut out = format!(
        "== profile: {} (batch {}, {} rep{}, {} thread{}, GEMM kernel {}) ==\n",
        run.model,
        run.batch,
        run.reps,
        if run.reps == 1 { "" } else { "s" },
        run.threads,
        if run.threads == 1 { "" } else { "s" },
        pcnn_tensor::kernel_tier(),
    );
    out.push_str(&format!(
        "machine peaks: {:.2} GFLOP/s, {:.2} GB/s (balance {:.2} FLOP/B)\n\n",
        roof.gflops,
        roof.gbs,
        roof.balance()
    ));
    if fastest > peaks.gflops {
        out.push_str(&format!(
            "WARNING: a layer sustained {fastest:.2} GFLOP/s, above the calibrated {:.2} GFLOP/s roof — roof raised to it (the probe under-measured this machine)\n\n",
            peaks.gflops
        ));
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nphase coverage: {:.1}% of {:.3} ms measured forward wall time\n",
        run.coverage() * 100.0,
        run.forward_wall_ns as f64 / reps as f64 / 1e6
    ));
    for (label, ratio) in &run.imbalance {
        out.push_str(&format!(
            "pool imbalance [{label}]: max/mean busy = {ratio:.2}x{}\n",
            if *ratio > 1.5 {
                "  <- workers unevenly loaded"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_model_is_none() {
        assert!(pick_model("resnet").is_none());
        assert!(pick_model("alexnet").is_some());
    }

    #[test]
    fn profile_json_is_reps_invariant_and_deterministic() {
        let net = pick_model("alexnet").unwrap();
        let doc = pcnn_parallel::with_threads(1, || {
            let r1 = run_profile(&net, 2, 1).unwrap();
            let r2 = run_profile(&net, 2, 3).unwrap();
            (profile_json(&r1), profile_json(&r2))
        });
        // Modelled times come from per-rep counts, so rep count and
        // wall-clock jitter never leak into the document.
        assert_eq!(doc.0, doc.1);
        assert!(doc.0.contains("\"bench\": \"profile\""));
        assert!(doc.0.contains("L00 conv"));
        let parsed = pcnn_telemetry::json::parse(&doc.0).unwrap();
        assert!(parsed.get("total_modelled_ms").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn report_covers_the_forward_wall_time() {
        let net = pick_model("alexnet").unwrap();
        let run = pcnn_parallel::with_threads(1, || run_profile(&net, 1, 2).unwrap());
        assert!(run.coverage() > 0.5, "coverage {:.3}", run.coverage());
        let peaks = MachinePeaks {
            gflops: 32.0,
            gbs: 16.0,
        };
        let report = render_report(&run, &peaks);
        assert!(report.contains("phase coverage"));
        assert!(report.contains("L00 conv"));
        assert!(report.contains("GFLOP/s"));
        // A roof nothing reaches is reported as calibrated, silently; a
        // roof some layer beat (no machine is as slow as 1 kFLOP/s) is
        // raised to that layer and flagged.
        let report = render_report(
            &run,
            &MachinePeaks {
                gflops: 1e6,
                ..peaks
            },
        );
        assert!(!report.contains("WARNING"), "{report}");
        assert!(report.contains("machine peaks: 1000000.00 GFLOP/s"));
        let report = render_report(
            &run,
            &MachinePeaks {
                gflops: 1e-6,
                ..peaks
            },
        );
        assert!(report.contains("WARNING: a layer sustained"), "{report}");
        assert!(!report.contains("machine peaks: 0.00 GFLOP/s"), "{report}");
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        pcnn_profile::set_enabled(false);
        pcnn_profile::reset();
        let net = pick_model("alexnet").unwrap();
        let input = profile_input(&net, 1);
        net.forward(&input, &PerforationPlan::identity(net.conv_count()))
            .unwrap();
        assert!(pcnn_profile::snapshot().is_empty());
    }
}
