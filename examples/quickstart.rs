//! Quickstart: deploy a CNN on a GPU platform with P-CNN.
//!
//! Walks the full pipeline of the paper's Fig. 10 on one platform:
//! requirement inference, cross-platform offline compilation, and a short
//! simulated execution scored with the Satisfaction-of-CNN metric.
//!
//! Run with: `cargo run --release -p pcnn-core --example quickstart`

use pcnn_core::prelude::*;
use pcnn_data::TraceSpec;
use pcnn_gpu::arch::K20C;
use pcnn_nn::spec::alexnet;

fn main() {
    // 1. The application and its inferred requirements (§IV.A).
    let app = AppSpec::age_detection();
    let req = UserRequirements::infer(&app);
    println!("app: {} ({:?})", app.name, app.kind);
    println!(
        "inferred requirements: T_i = {:?} s, T_t = {:?} s, entropy threshold = {}",
        req.t_imperceptible, req.t_unusable, req.entropy_threshold
    );

    // 2. Cross-platform offline compilation on the server GPU (§IV.B).
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&K20C, &spec);
    let schedule = compiler
        .try_compile(&app, &req)
        .expect("compilation failed");
    println!(
        "\ncompiled for {}: batch {}, {} GEMM layers, power gating {}",
        K20C.name,
        schedule.batch,
        schedule.layers.len(),
        schedule.power_gated
    );
    for layer in &schedule.layers {
        println!(
            "  {:>6}: grid {:>4}, optTLP {:>2}, optSM {:>2}, predicted {:.2} ms",
            layer.name,
            layer.kernel.grid,
            layer.opt_tlp,
            layer.opt_sm,
            layer.predicted_seconds * 1e3
        );
    }
    let cost = simulate_schedule(&K20C, &schedule);
    println!(
        "one inference: simulated {:.2} ms, {:.3} J",
        cost.seconds * 1e3,
        cost.energy.total_j()
    );

    // 3. Execute a short interactive trace and score it (§V.A).
    let trace = TraceSpec::interactive(5, 0.8, 2.0, 42);
    let report = execute_trace(&K20C, &trace, schedule.batch, |b| {
        compiler.try_compile_batch(b)
    })
    .expect("trace execution");
    let score = score(
        &req,
        &SocInputs {
            response_time: report.mean_latency(),
            entropy: 0.95, // measured baseline entropy of the model family
            energy_j: report.energy.total_j(),
        },
    )
    .expect("scoring");
    println!(
        "\ntrace: mean latency {:.2} ms, energy {:.3} J (+ idle {:.2} J)",
        report.mean_latency() * 1e3,
        report.energy.total_j(),
        report.idle_energy_j
    );
    println!(
        "SoC = time {:.2} x accuracy {:.2} / energy = {:.4}",
        score.time, score.accuracy, score.score
    );
}
