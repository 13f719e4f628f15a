//! Criterion benchmarks of the offline compiler and the kernel tuner,
//! plus the S_kernel-selection ablation: how close the analytically
//! selected kernel comes to the exhaustively simulated optimum.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pcnn_core::offline::OfflineCompiler;
use pcnn_gpu::arch::K20C;
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::DispatchPolicy;
use pcnn_kernels::sgemm::{build_kernel, SgemmShape};
use pcnn_kernels::{tune_kernel, tune_kernel_candidates};
use pcnn_nn::spec::alexnet;

fn bench_tuner(c: &mut Criterion) {
    let shape = SgemmShape {
        m: 128,
        n: 729,
        k: 1200,
    };
    c.bench_function("tune_kernel conv2 on K20", |b| {
        b.iter(|| black_box(tune_kernel(&K20C, black_box(shape))))
    });
}

fn bench_compile(c: &mut Criterion) {
    let spec = alexnet();
    c.bench_function("offline compile AlexNet batch 1 on K20", |b| {
        b.iter(|| {
            let compiler = OfflineCompiler::new(&K20C, &spec);
            black_box(compiler.try_compile_batch(1).expect("valid batch"))
        })
    });
}

/// Ablation: the analytic S_kernel pick vs exhaustively simulating every
/// candidate. Printed once into the bench log.
fn skernel_selection_quality(c: &mut Criterion) {
    let shape = SgemmShape {
        m: 128,
        n: 729,
        k: 1200,
    };
    let candidates = tune_kernel_candidates(&K20C, shape, usize::MAX);
    let mut best_sim = f64::MAX;
    let mut analytic_sim = f64::MAX;
    for (i, cand) in candidates.iter().enumerate() {
        let kernel = build_kernel(shape, &cand.config, "ablate");
        let cache = SimCache::new();
        let r = simulate_kernel(&K20C, &kernel, DispatchPolicy::RoundRobin, &cache);
        if i == 0 {
            analytic_sim = r.seconds; // candidates are sorted by score
        }
        best_sim = best_sim.min(r.seconds);
    }
    println!(
        "[ablation S_kernel] analytic pick: {:.3} ms; exhaustive optimum: {:.3} ms (gap {:.1}%)",
        analytic_sim * 1e3,
        best_sim * 1e3,
        (analytic_sim / best_sim - 1.0) * 100.0
    );
    c.bench_function("skernel candidate enumeration", |b| {
        b.iter(|| black_box(tune_kernel_candidates(&K20C, shape, usize::MAX).len()))
    });
}

criterion_group!(
    benches,
    bench_tuner,
    bench_compile,
    skernel_selection_quality
);
criterion_main!(benches);
