//! Fig. 5: compute efficiency `cpE` (eq. 3) of each AlexNet conv layer,
//! cuBLAS vs cuDNN, on K20 and TX1 (non-batching, as in §III.C).
//!
//! Paper shape: cpE < 35% on K20 (< 15% for the last two layers); cuDNN's
//! small 32x32 tile on TX1 loses to cuBLAS despite higher occupancy
//! because its computation density is lower.

use pcnn_bench::TableWriter;
use pcnn_core::offline::library_schedule;
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::{DispatchPolicy, GpuArch};
use pcnn_kernels::Library;
use pcnn_nn::spec::alexnet;

fn layer_cpes(arch: &GpuArch, lib: Library) -> Vec<f64> {
    let spec = alexnet();
    let schedule = library_schedule(arch, &spec, lib, 1);
    schedule
        .layers
        .iter()
        .filter(|l| l.name.starts_with("CONV"))
        .map(|l| {
            let cache = SimCache::new();
            let r = simulate_kernel(arch, &l.kernel, DispatchPolicy::RoundRobin, &cache);
            // Grouped layers run groups back-to-back: same cpE per launch.
            r.cpe(arch)
        })
        .collect()
}

fn main() {
    let _trace = pcnn_bench::trace::init_from_env();
    pcnn_bench::threads::init_from_env();
    let mut t = TableWriter::new(vec![
        "GPU", "Library", "CONV1", "CONV2", "CONV3", "CONV4", "CONV5",
    ]);
    for arch in [&K20C, &JETSON_TX1] {
        for lib in [Library::CuBlas, Library::CuDnn] {
            let cpes = layer_cpes(arch, lib);
            let mut row = vec![arch.name.to_string(), lib.name().to_string()];
            row.extend(cpes.iter().map(|c| format!("{:.0}%", c * 100.0)));
            t.row(row);
        }
    }
    t.print("Fig. 5: compute efficiency per AlexNet conv layer, non-batching (shape: low overall, lowest on late layers; cuDNN < cuBLAS on TX1)");
}
