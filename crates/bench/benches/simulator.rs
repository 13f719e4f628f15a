//! Criterion benchmarks of the GPU simulator, plus the two ablations the
//! design calls out: RR vs Priority-SM dispatch and spill-to-shared vs
//! spill-to-global kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::DispatchPolicy;
use pcnn_kernels::sgemm::{build_kernel, SgemmConfig, SgemmShape, TILE_128X128, TILE_64X64};
use pcnn_kernels::SpillPlan;

fn conv2_shape() -> SgemmShape {
    SgemmShape {
        m: 128,
        n: 729,
        k: 1200,
    }
}

fn bench_kernel_sim(c: &mut Criterion) {
    let kernel = build_kernel(conv2_shape(), &SgemmConfig::natural(TILE_64X64), "conv2");
    c.bench_function("simulate conv2 kernel on K20 (RR)", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &K20C,
                black_box(&kernel),
                DispatchPolicy::RoundRobin,
                &cache,
            ))
        })
    });
    c.bench_function("simulate conv2 kernel on TX1 (RR)", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &JETSON_TX1,
                black_box(&kernel),
                DispatchPolicy::RoundRobin,
                &cache,
            ))
        })
    });
}

/// Ablation: RR vs PSM on a small grid (Fig. 7's scenario). The benchmark
/// also prints the simulated outcome once so the numbers land in the
/// bench log.
fn bench_dispatch_ablation(c: &mut Criterion) {
    let kernel = build_kernel(
        SgemmShape {
            m: 128,
            n: 169,
            k: 1728,
        },
        &SgemmConfig::natural(TILE_64X64),
        "conv5",
    );
    let cache = SimCache::new();
    let rr = simulate_kernel(&K20C, &kernel, DispatchPolicy::RoundRobin, &cache);
    let psm = simulate_kernel(
        &K20C,
        &kernel,
        DispatchPolicy::PrioritySm {
            sms: 3,
            tlp: 2,
            power_gate: true,
        },
        &cache,
    );
    println!(
        "[ablation dispatch] RR: {:.3} ms / {:.3} J on {} SMs; PSM(3 SMs): {:.3} ms / {:.3} J",
        rr.seconds * 1e3,
        rr.energy.total_j(),
        rr.sms_used,
        psm.seconds * 1e3,
        psm.energy.total_j()
    );
    c.bench_function("dispatch RR conv5", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &K20C,
                &kernel,
                DispatchPolicy::RoundRobin,
                &cache,
            ))
        })
    });
    c.bench_function("dispatch PSM conv5", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &K20C,
                &kernel,
                DispatchPolicy::PrioritySm {
                    sms: 3,
                    tlp: 2,
                    power_gate: true,
                },
                &cache,
            ))
        })
    });
}

/// Ablation: spill destination. Shared-memory spilling must cost far less
/// simulated time than global spilling at the same register count.
fn bench_spill_ablation(c: &mut Criterion) {
    let shape = conv2_shape();
    let shared_cfg = SgemmConfig {
        variant: TILE_128X128,
        regs_per_thread: 121,
        spill: SpillPlan {
            to_shared: 6,
            to_global: 0,
        },
    };
    let global_cfg = SgemmConfig {
        variant: TILE_128X128,
        regs_per_thread: 121,
        spill: SpillPlan {
            to_shared: 0,
            to_global: 6,
        },
    };
    let ks = build_kernel(shape, &shared_cfg, "spill-shared");
    let kg = build_kernel(shape, &global_cfg, "spill-global");
    let cache = SimCache::new();
    let rs = simulate_kernel(&K20C, &ks, DispatchPolicy::RoundRobin, &cache);
    let rg = simulate_kernel(&K20C, &kg, DispatchPolicy::RoundRobin, &cache);
    println!(
        "[ablation spill] shared: {:.3} ms; global: {:.3} ms ({}x slower)",
        rs.seconds * 1e3,
        rg.seconds * 1e3,
        rg.seconds / rs.seconds
    );
    c.bench_function("sim spill-to-shared", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &K20C,
                &ks,
                DispatchPolicy::RoundRobin,
                &cache,
            ))
        })
    });
    c.bench_function("sim spill-to-global", |b| {
        b.iter(|| {
            let cache = SimCache::new();
            black_box(simulate_kernel(
                &K20C,
                &kg,
                DispatchPolicy::RoundRobin,
                &cache,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_kernel_sim,
    bench_dispatch_ablation,
    bench_spill_ablation
);
criterion_main!(benches);
