//! End-to-end pipeline integration: requirement inference -> offline
//! compilation -> simulated execution -> SoC scoring, across crates.

use pcnn_core::prelude::*;
use pcnn_data::TraceSpec;
use pcnn_gpu::arch::{all_platforms, JETSON_TX1, K20C};
use pcnn_nn::spec::{alexnet, googlenet, vggnet};

#[test]
fn offline_compilation_meets_interactive_budget_everywhere() {
    let app = AppSpec::age_detection();
    let req = UserRequirements::infer(&app);
    let spec = alexnet();
    for arch in all_platforms() {
        let schedule = OfflineCompiler::new(arch, &spec)
            .try_compile(&app, &req)
            .unwrap();
        let cost = simulate_schedule(arch, &schedule);
        // 100 ms imperceptible budget holds on every platform for AlexNet.
        assert!(
            cost.seconds < 0.1,
            "{}: {:.1} ms exceeds the interactive budget",
            arch.name,
            cost.seconds * 1e3
        );
    }
}

#[test]
fn bigger_gpus_run_inference_faster() {
    let spec = alexnet();
    let times: Vec<f64> = all_platforms()
        .iter()
        .map(|arch| {
            let s = OfflineCompiler::new(arch, &spec)
                .try_compile_batch(1)
                .unwrap();
            simulate_schedule(arch, &s).seconds
        })
        .collect();
    // Platform order: K20, TitanX, 970m, TX1. TitanX fastest, TX1 slowest.
    assert!(times[1] < times[3], "TitanX vs TX1: {times:?}");
    assert!(times[0] < times[3], "K20 vs TX1: {times:?}");
    assert!(times[2] < times[3], "970m vs TX1: {times:?}");
}

#[test]
fn batching_improves_throughput_on_every_platform() {
    let spec = alexnet();
    for arch in all_platforms() {
        let compiler = OfflineCompiler::new(arch, &spec);
        let t1 = simulate_schedule(arch, &compiler.try_compile_batch(1).unwrap()).seconds;
        let t32 = simulate_schedule(arch, &compiler.try_compile_batch(32).unwrap()).seconds;
        let tp1 = 1.0 / t1;
        let tp32 = 32.0 / t32;
        assert!(
            tp32 > 1.5 * tp1,
            "{}: batching throughput {tp32:.0} not >> {tp1:.0}",
            arch.name
        );
    }
}

#[test]
fn perforation_reduces_time_and_energy() {
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&JETSON_TX1, &spec);
    let n = spec.conv_layers().len();
    let base = simulate_schedule(
        &JETSON_TX1,
        &compiler
            .try_compile_perforated(1, &vec![0.0; n], true)
            .unwrap(),
    );
    let perf = simulate_schedule(
        &JETSON_TX1,
        &compiler
            .try_compile_perforated(1, &vec![0.5; n], true)
            .unwrap(),
    );
    assert!(perf.seconds < base.seconds);
    assert!(perf.energy.total_j() < base.energy.total_j());
}

#[test]
fn trace_execution_scores_finite_soc() {
    let app = AppSpec::video_surveillance(30.0);
    let req = UserRequirements::infer(&app);
    let spec = alexnet();
    let compiler = OfflineCompiler::new(&K20C, &spec);
    let schedule = compiler.try_compile(&app, &req).unwrap();
    let trace = TraceSpec::real_time(5, 30.0);
    let report = execute_trace(&K20C, &trace, schedule.batch, &mut &compiler).unwrap();
    let s = score(
        &req,
        &SocInputs {
            response_time: report.max_latency(),
            entropy: 0.9,
            energy_j: report.energy.total_j(),
        },
    )
    .unwrap();
    assert!(s.score.is_finite());
    assert!(s.score > 0.0, "K20 must meet a 30 FPS deadline");
}

#[test]
fn compilation_works_for_all_three_networks() {
    for spec in [alexnet(), googlenet(), vggnet()] {
        let schedule = OfflineCompiler::new(&K20C, &spec)
            .try_compile_batch(1)
            .unwrap();
        assert!(!schedule.layers.is_empty(), "{}", spec.name);
        let cost = simulate_schedule(&K20C, &schedule);
        assert!(
            cost.seconds > 0.0 && cost.seconds < 1.0,
            "{}: {}",
            spec.name,
            cost.seconds
        );
    }
}
