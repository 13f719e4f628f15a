//! Edge-case integration tests across crates.

use pcnn_core::prelude::*;
use pcnn_data::TraceSpec;
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::SimCache;
use pcnn_gpu::{simulate_concurrent, DispatchPolicy, Partition};
use pcnn_kernels::sgemm::build_conv_kernel;
use pcnn_kernels::{Library, SgemmShape};
use pcnn_nn::io::{load, save};
use pcnn_nn::spec::alexnet;

#[test]
fn batch_larger_than_trace_still_processes_everything() {
    // 3 images, batch 16: one undersized chunk, everything completes.
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&K20C, &spec);
    let trace = TraceSpec::interactive(3, 0.1, 0.2, 9);
    let report = execute_trace(&K20C, &trace, 16, &mut &compiler).unwrap();
    assert_eq!(report.latencies.len(), 3);
    assert!(report.latencies.iter().all(|&l| l > 0.0));
}

#[test]
fn single_image_background_burst() {
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&JETSON_TX1, &spec);
    let trace = TraceSpec::background(1);
    let report = execute_trace(&JETSON_TX1, &trace, 8, &mut &compiler).unwrap();
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
fn multitask_hosts_cnn_layer_next_to_background_tenant() {
    // The P-CNN story for released SMs (§III.D.2): CONV5 on its optSM
    // partition, a co-tenant on the freed SMs; both complete.
    let spec = alexnet();
    let tuned = OfflineCompiler::new(&K20C, &spec)
        .try_compile_batch(1)
        .unwrap();
    let conv5 = tuned
        .layers
        .iter()
        .find(|l| l.name == "CONV5")
        .expect("CONV5 exists");
    let co_tenant = tuned
        .layers
        .iter()
        .find(|l| l.name == "CONV3")
        .expect("CONV3 exists");
    let free_sms = K20C.n_sms - conv5.opt_sm;
    assert!(free_sms > 0, "CONV5 must release SMs on the K20");
    let r = simulate_concurrent(
        &K20C,
        &[
            Partition {
                kernel: &conv5.kernel,
                sms: conv5.opt_sm,
                tlp: conv5.opt_tlp,
            },
            Partition {
                kernel: &co_tenant.kernel,
                sms: free_sms,
                tlp: co_tenant.opt_tlp,
            },
        ],
        false,
    );
    assert_eq!(r.kernels.len(), 2);
    // The cycles each tenant took on its partition, pinned.
    let cycles: Vec<u64> = r.kernels.iter().map(|k| k.cycles).collect();
    assert_eq!(cycles, [119_831, 845_232]);
    assert!(r.seconds > 0.0);
    // Both tenants' full work executed.
    for (res, plan) in r.kernels.iter().zip([conv5, co_tenant]) {
        let expected = plan
            .kernel
            .trace
            .warp_instr_counts()
            .scaled((plan.kernel.warps_per_cta() * plan.kernel.grid) as u64);
        assert_eq!(res.instr, expected, "{}", plan.name);
    }
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
fn saved_model_survives_cross_module_use() {
    // Train-free roundtrip through the tuning stack: a loaded model must
    // produce an identical tuning path to the original.
    use pcnn_core::tuning::AccuracyTuner;
    use pcnn_nn::models::tiny_alexnet;
    use pcnn_tensor::Tensor;

    let net = tiny_alexnet(5);
    let mut buf = Vec::new();
    save(&net, &mut buf).unwrap();
    let loaded = load(&mut buf.as_slice()).unwrap();
    let calib = Tensor::from_fn(vec![8, 1, 32, 32], |i| ((i % 97) as f32) / 97.0 - 0.5);
    let a = AccuracyTuner::new(&net, &calib).tune(f64::MAX, 3);
    let b = AccuracyTuner::new(&loaded, &calib).tune(f64::MAX, 3);
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.plan, y.plan);
        assert!((x.entropy - y.entropy).abs() < 1e-9);
    }
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
