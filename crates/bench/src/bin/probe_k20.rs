//! Maintenance probe: K20 batch-1 per-layer simulated times, P-CNN tuned
//! (PSM/optSM) vs cuBLAS (RR).

use pcnn_core::offline::{library_schedule, OfflineCompiler};
use pcnn_gpu::arch::K20C;
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::DispatchPolicy;
use pcnn_kernels::Library;
use pcnn_nn::spec::alexnet;

fn main() {
    let _trace = pcnn_bench::trace::init_from_env();
    pcnn_bench::threads::init_from_env();
    let spec = alexnet();
    let tuned = OfflineCompiler::new(&K20C, &spec)
        .try_compile_batch(1)
        .expect("valid batch");
    let lib = library_schedule(&K20C, &spec, Library::CuBlas, 1);
    println!("layer      tuned(PSM)            cuBLAS(RR)");
    for (t, l) in tuned.layers.iter().zip(&lib.layers) {
        let cache = SimCache::new();
        let rt = simulate_kernel(&K20C, &t.kernel, t.psm_policy(), &cache);
        let rl = simulate_kernel(&K20C, &l.kernel, DispatchPolicy::RoundRobin, &cache);
        println!(
            "{:>6}  {:.3} ms (grid {:>3} tile {}x{} tlp {} sm {})   {:.3} ms (grid {:>3})",
            t.name,
            rt.seconds * 1e3 * t.groups as f64,
            t.kernel.grid,
            t.kernel.resources.block_size,
            t.kernel.resources.regs_per_thread,
            t.opt_tlp,
            t.opt_sm,
            rl.seconds * 1e3 * l.groups as f64,
            l.kernel.grid,
        );
    }
}
