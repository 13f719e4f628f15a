//! End-to-end serving acceptance tests.
//!
//! All timing comes from the deterministic simulator, so every threshold
//! here is derived from measured costs, not hard-coded seconds: the tests
//! build a small network, measure its batch costs, and scale deadlines
//! and arrival rates off those.

use pcnn_core::prelude::*;
use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::arch::K20C;
use pcnn_nn::spec::{ConvSpec, FcSpec, LayerSpec, NetworkSpec};
use pcnn_serve::{fifo_baseline, DegradationLadder, Platform, ServeWorkload, Server, ServerConfig};

/// A two-conv network small enough to compile in milliseconds but big
/// enough that perforation changes its cost measurably.
fn tiny_net() -> NetworkSpec {
    NetworkSpec {
        name: "TinyServe".into(),
        input_elems: 16 * 32 * 32,
        layers: vec![
            LayerSpec::Conv(ConvSpec::new("CONV1", 64, 3, 16, 32, 32, 1, 1, 1)),
            LayerSpec::Conv(ConvSpec::new("CONV2", 128, 3, 64, 16, 16, 1, 1, 1)),
            LayerSpec::Fc(FcSpec {
                name: "FC".into(),
                in_features: 128 * 8 * 8,
                out_features: 10,
            }),
        ],
    }
}

const BATCH: usize = 8;

/// Unperforated cost of one batch-`BATCH` pass on the K20.
fn batch_cost(spec: &NetworkSpec) -> f64 {
    let schedule = OfflineCompiler::new(&K20C, spec)
        .try_compile_batch(BATCH)
        .unwrap();
    simulate_schedule(&K20C, &schedule).seconds
}

/// An interactive workload whose deadline is `slack_batches` batch times,
/// driven by Poisson arrivals at `load` times the batch-`BATCH` service
/// rate.
fn interactive_workload(
    spec: &NetworkSpec,
    load: f64,
    n_requests: usize,
    capacity: usize,
    seed: u64,
) -> (ServeWorkload, f64) {
    let c = batch_cost(spec);
    let throughput = BATCH as f64 / c;
    let t_user = 5.0 * c; // 5 batch times = 40 image service times
    let trace = TraceSpec::poisson(
        WorkloadKind::Interactive,
        n_requests,
        load * throughput,
        seed,
    );
    let app = AppSpec {
        name: "interactive load test".into(),
        kind: WorkloadKind::Interactive,
        data_rate: load * throughput,
        accuracy_sensitive: false,
    };
    let mut w = ServeWorkload::new(app, trace, capacity);
    // Rescale the HCI-constant deadlines to the simulated timescale.
    w.req.t_imperceptible = Some(t_user);
    w.req.t_unusable = Some(20.0 * t_user);
    (w, t_user)
}

fn config() -> ServerConfig {
    ServerConfig {
        max_batch: BATCH,
        ..ServerConfig::default()
    }
}

#[test]
fn overload_degradation_beats_fixed_batch_fifo() {
    let spec = tiny_net();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let (workload, _) = interactive_workload(&spec, 1.5, 600, 512, 42);

    let server = Server::builder(&spec)
        .platform(Platform::new(&K20C, ladder.clone()))
        .config(config())
        .workload(workload.clone())
        .build()
        .unwrap();
    let report = server.run().unwrap();
    let served = &report.workloads[0];

    let fifo = fifo_baseline(&K20C, &spec, &workload, BATCH, ladder.levels[0].entropy).unwrap();

    // Under 1.5x overload the ladder must actually be walked…
    assert!(served.degrade_up > 0, "no degradation under overload");
    // …and the adaptive server must meet strictly more deadlines…
    assert!(
        served.deadlines_met > fifo.deadlines_met,
        "serve met {} vs fifo {}",
        served.deadlines_met,
        fifo.deadlines_met
    );
    // …and score a strictly higher SoC than the fixed-batch replay.
    let serve_soc = served.soc.as_ref().expect("served images").score;
    assert!(
        serve_soc > fifo.soc.score,
        "serve SoC {} vs fifo {}",
        serve_soc,
        fifo.soc.score
    );
}

#[test]
fn below_capacity_nothing_is_dropped_and_deadlines_hold() {
    let spec = tiny_net();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let (workload, _) = interactive_workload(&spec, 0.4, 200, 256, 7);

    let server = Server::builder(&spec)
        .platform(Platform::new(&K20C, ladder))
        .config(config())
        .workload(workload)
        .build()
        .unwrap();
    let report = server.run().unwrap();
    let w = &report.workloads[0];

    assert_eq!(report.total_rejected(), 0, "drops below capacity");
    assert_eq!(w.rejected_requests, 0);
    assert_eq!(w.served_images, w.images);
    assert_eq!(
        w.deadlines_met, w.deadline_total,
        "missed deadlines below capacity: {}/{}",
        w.deadlines_met, w.deadline_total
    );
    assert_eq!(w.deadline_total, 200);
}

#[test]
fn same_seed_is_byte_identical() {
    let spec = tiny_net();
    let run = || {
        let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
        let (workload, _) = interactive_workload(&spec, 1.2, 150, 128, 3);
        let server = Server::builder(&spec)
            .platform(Platform::new(&K20C, ladder))
            .config(config())
            .workload(workload)
            .build()
            .unwrap();
        server.run().unwrap().to_json()
    };
    assert_eq!(run(), run());
}

#[test]
fn realtime_outranks_background_and_both_finish() {
    let spec = tiny_net();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let c = batch_cost(&spec);
    // 30 frames whose period is 4 batch times; deadline = period.
    let period = 4.0 * c;
    let fps = 1.0 / period;
    let mut rt = ServeWorkload::new(
        AppSpec::video_surveillance(fps),
        TraceSpec::real_time(30, fps),
        64,
    );
    rt.req.t_imperceptible = Some(period);
    rt.req.t_unusable = Some(period);
    let bg = ServeWorkload::new(AppSpec::image_tagging(), TraceSpec::background(64), 128);

    let server = Server::builder(&spec)
        .platform(Platform::new(&K20C, ladder))
        .config(config())
        .workload(rt)
        .workload(bg)
        .build()
        .unwrap();
    let report = server.run().unwrap();

    let rt_report = &report.workloads[0];
    assert_eq!(rt_report.kind, WorkloadKind::RealTime);
    assert_eq!(
        rt_report.deadlines_met, rt_report.deadline_total,
        "real-time frames missed next to background work"
    );
    assert_eq!(rt_report.served_images, 30);

    let bg_report = &report.workloads[1];
    assert_eq!(bg_report.kind, WorkloadKind::Background);
    assert_eq!(bg_report.served_images, 64);
    assert_eq!(bg_report.rejected_images, 0);
    assert!(bg_report.soc.as_ref().expect("served").score > 0.0);
    assert_eq!(report.gpus[0].dispatches, rt_dispatches(&report));
}

fn rt_dispatches(report: &pcnn_serve::ServeReport) -> usize {
    // Sanity helper: total dispatches recorded on the single GPU.
    report.gpus[0].dispatches
}

#[test]
fn infeasible_deadline_is_refused_up_front() {
    let spec = tiny_net();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let c = batch_cost(&spec);
    // A frame deadline of 1/1000th of a batch time is unmeetable even at
    // the deepest ladder level and batch 1.
    let fps = 1000.0 * BATCH as f64 / c;
    let rt = ServeWorkload::new(
        AppSpec::video_surveillance(fps),
        TraceSpec::real_time(4, fps),
        16,
    );
    let server = Server::builder(&spec)
        .platform(Platform::new(&K20C, ladder))
        .config(config())
        .workload(rt)
        .build()
        .unwrap();
    match server.run() {
        Err(Error::InfeasibleSchedule { t_user, predicted }) => {
            assert!(predicted > t_user);
        }
        other => panic!("expected InfeasibleSchedule, got {other:?}"),
    }
}

#[test]
fn builder_rejects_bad_inputs() {
    let spec = tiny_net();
    let n_convs = spec.conv_layers().len();
    let ladder = DegradationLadder::default_ladder(n_convs);

    // No platform at all.
    assert!(matches!(
        Server::builder(&spec).config(config()).build(),
        Err(Error::InvalidInput {
            what: "server needs at least one GPU"
        })
    ));
    // A platform whose ladder has no levels.
    assert!(matches!(
        Server::builder(&spec)
            .platform(Platform::new(&K20C, DegradationLadder { levels: vec![] }))
            .config(config())
            .build(),
        Err(Error::InvalidInput {
            what: "degradation ladder needs at least one level"
        })
    ));
    // A ladder whose rate vectors don't match the network — even when
    // only the *second* platform carries it.
    assert!(matches!(
        Server::builder(&spec)
            .platform(Platform::new(&K20C, ladder.clone()))
            .platform(Platform::new(
                &K20C,
                DegradationLadder::default_ladder(n_convs + 1)
            ))
            .config(config())
            .build(),
        Err(Error::RateLenMismatch { .. })
    ));
    // Config knobs are validated through ServerConfig::validate.
    assert!(matches!(
        Server::builder(&spec)
            .platform(Platform::new(&K20C, ladder.clone()))
            .config(config().with_max_batch(0))
            .build(),
        Err(Error::InvalidInput {
            what: "max_batch must be at least 1"
        })
    ));

    // A server with no workloads is an error, not an empty report.
    let server = Server::builder(&spec)
        .platform(Platform::new(&K20C, ladder))
        .config(config())
        .build()
        .unwrap();
    assert!(matches!(server.run(), Err(Error::InvalidInput { .. })));
}

#[test]
fn two_gpus_serve_faster_than_one() {
    let spec = tiny_net();
    let ladder = DegradationLadder::none(spec.conv_layers().len(), 0.9);
    let no_degrade = ServerConfig {
        max_batch: BATCH,
        degradation: false,
        ..ServerConfig::default()
    };
    let run = |n_gpus: usize| {
        let bg = ServeWorkload::new(AppSpec::image_tagging(), TraceSpec::background(128), 256);
        let mut b = Server::builder(&spec)
            .config(no_degrade.clone())
            .workload(bg);
        for _ in 0..n_gpus {
            b = b.platform(Platform::new(&K20C, ladder.clone()));
        }
        b.build().unwrap().run().unwrap()
    };
    let one = run(1);
    let two = run(2);
    assert!(
        two.makespan_s < one.makespan_s,
        "two GPUs {} vs one {}",
        two.makespan_s,
        one.makespan_s
    );
    assert!(two.gpus.iter().all(|g| g.dispatches > 0));
}
