//! Background scenario: tagging a camera roll (paper §V.C). No latency
//! requirement — the optimal batch size (§IV.B.1a: the smallest batch at
//! which the least-utilized layer fills the GPU) and SM power gating
//! minimise energy.
//!
//! Run with: `cargo run --release -p pcnn-core --example image_tagging`

use pcnn_core::prelude::*;
use pcnn_data::TraceSpec;
use pcnn_gpu::arch::all_platforms;
use pcnn_nn::spec::alexnet;

fn main() {
    let app = AppSpec::image_tagging();
    let req = UserRequirements::infer(&app);
    let spec = alexnet();
    let photos = 64;
    let trace = TraceSpec::background(photos);

    println!("tagging {photos} photos in the background\n");
    println!(
        "{:<10} {:>10} {:>14} {:>13} {:>13}",
        "platform", "opt batch", "makespan (ms)", "images/s", "energy (J)"
    );
    for arch in all_platforms() {
        let compiler = OfflineCompiler::new(arch, &spec);
        let schedule = compiler
            .try_compile(&app, &req)
            .expect("compilation failed");
        let report = execute_trace(arch, &trace, schedule.batch, |b| {
            compiler.try_compile_batch(b)
        })
        .expect("trace execution");
        println!(
            "{:<10} {:>10} {:>14.1} {:>13.0} {:>13.3}",
            arch.name,
            schedule.batch,
            report.makespan * 1e3,
            photos as f64 / report.makespan,
            report.energy.total_j()
        );
    }
    println!("\nBigger GPUs pick bigger optimal batches (paper Fig. 8's knee moves");
    println!("right with GPU size) and finish the same roll in less time.");
}
