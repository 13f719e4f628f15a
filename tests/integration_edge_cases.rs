//! Edge-case integration tests across crates.

use pcnn_core::prelude::*;
use pcnn_data::TraceSpec;
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::DispatchPolicy;
use pcnn_kernels::sgemm::build_conv_kernel;
use pcnn_kernels::{Library, SgemmShape};
use pcnn_nn::spec::alexnet;

#[test]
fn batch_larger_than_trace_still_processes_everything() {
    // 3 images, batch 16: one undersized chunk, everything completes.
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&K20C, &spec);
    let trace = TraceSpec::interactive(3, 0.1, 0.2, 9);
    let report = execute_trace(&K20C, &trace, 16, |b| compiler.try_compile_batch(b)).unwrap();
    assert_eq!(report.latencies.len(), 3);
    assert!(report.latencies.iter().all(|&l| l > 0.0));
}

#[test]
fn single_image_background_burst() {
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&JETSON_TX1, &spec);
    let trace = TraceSpec::background(1);
    let report = execute_trace(&JETSON_TX1, &trace, 8, |b| compiler.try_compile_batch(b)).unwrap();
    assert_eq!(report.latencies.len(), 1);
    assert!(
        report.idle_energy_j.abs() < 1e-9,
        "no idle in a single burst"
    );
}

#[test]
fn psm_with_more_sms_than_grid_is_fine() {
    let spec = alexnet();
    let schedule = library_schedule(&K20C, &spec, Library::CuBlas, 1);
    let conv5 = schedule
        .layers
        .iter()
        .find(|l| l.name == "CONV5")
        .expect("CONV5 exists");
    // Grid 6 but 13 SMs requested: only 6 SMs can be touched.
    let cache = SimCache::new();
    let r = simulate_kernel(
        &K20C,
        &conv5.kernel,
        DispatchPolicy::PrioritySm {
            sms: 13,
            tlp: 1,
            power_gate: true,
        },
        &cache,
    );
    assert!(r.sms_used <= conv5.kernel.grid);
    assert!(r.seconds > 0.0);
}

#[test]
fn grouped_conv_kernel_covers_one_group() {
    let spec = alexnet();
    let conv2 = spec.conv_layers()[1].clone();
    assert_eq!(conv2.groups, 2);
    let config = Library::CuBlas.config_for(&K20C, SgemmShape::of_conv(&conv2, 1));
    let k = build_conv_kernel(&K20C, &conv2, 1, &config);
    // One group's useful FLOPs = half the layer total.
    assert_eq!(k.flops * 2, conv2.flops());
}

#[test]
fn dvfs_scaled_platform_trades_time_for_energy() {
    let spec = alexnet();
    let slow = K20C.with_frequency_scale(0.5);
    let fast_cost = {
        let c = OfflineCompiler::new(&K20C, &spec);
        simulate_schedule(&K20C, &c.try_compile_batch(4).unwrap())
    };
    let slow_cost = {
        let c = OfflineCompiler::new(&slow, &spec);
        simulate_schedule(&slow, &c.try_compile_batch(4).unwrap())
    };
    // Half the clock: slower...
    assert!(slow_cost.seconds > fast_cost.seconds * 1.4);
    // ...but the dynamic (V^2 f-scaled) energy drops.
    assert!(
        slow_cost.energy.dynamic_j < fast_cost.energy.dynamic_j * 0.6,
        "dynamic {} vs {}",
        slow_cost.energy.dynamic_j,
        fast_cost.energy.dynamic_j
    );
}
