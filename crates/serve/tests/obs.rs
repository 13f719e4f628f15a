//! Observability acceptance tests: the recorder must never change the
//! serving outcome, and seeded traces must be byte-identical.

use pcnn_core::prelude::*;
use pcnn_data::{TraceSpec, WorkloadKind};
use pcnn_gpu::arch::{JETSON_TX1, K20C};
use pcnn_nn::spec::{ConvSpec, FcSpec, LayerSpec, NetworkSpec};
use pcnn_serve::obs::{IncidentReport, RouteRecord};
use pcnn_serve::{DegradationLadder, Platform, RouterPolicy, ServeWorkload, Server, ServerConfig};
use pcnn_telemetry::json::{self, JsonValue};

fn tiny_net() -> NetworkSpec {
    NetworkSpec {
        name: "TinyObs".into(),
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

fn batch_cost(spec: &NetworkSpec) -> f64 {
    let schedule = OfflineCompiler::new(&K20C, spec)
        .try_compile_batch(BATCH)
        .unwrap();
    simulate_schedule(&K20C, &schedule).seconds
}

/// A 1.5x-overloaded interactive workload (the canonical overload level).
fn overload_workload(spec: &NetworkSpec) -> ServeWorkload {
    let c = batch_cost(spec);
    let throughput = BATCH as f64 / c;
    let t_user = 5.0 * c;
    let trace = TraceSpec::poisson(WorkloadKind::Interactive, 300, 1.5 * throughput, 42);
    let app = AppSpec {
        name: "obs overload".into(),
        kind: WorkloadKind::Interactive,
        data_rate: 1.5 * throughput,
        accuracy_sensitive: false,
    };
    let mut w = ServeWorkload::new(app, trace, 256);
    w.req.t_imperceptible = Some(t_user);
    w.req.t_unusable = Some(20.0 * t_user);
    w
}

fn run_report(spec: &NetworkSpec) -> String {
    let config = ServerConfig {
        max_batch: BATCH,
        ..ServerConfig::default()
    };
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let server = Server::builder(spec)
        .platform(Platform::new(&K20C, ladder))
        .config(config)
        .workload(overload_workload(spec))
        .build()
        .unwrap();
    server.run().unwrap().to_json()
}

#[test]
fn report_is_byte_identical_with_telemetry_on() {
    let spec = tiny_net();
    pcnn_telemetry::set_enabled(false);
    let off = run_report(&spec);

    pcnn_telemetry::set_enabled(true);
    pcnn_telemetry::reset();
    let on = run_report(&spec);
    pcnn_telemetry::set_enabled(false);

    assert_eq!(off, on, "observability changed the serving outcome");
}

#[test]
fn seeded_traces_are_byte_identical() {
    let spec = tiny_net();
    let traced_run = || {
        pcnn_telemetry::set_enabled(true);
        pcnn_telemetry::reset();
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
        run_report(&spec);
        let trace = pcnn_telemetry::render_chrome_trace();
        let prom = pcnn_telemetry::render_prometheus();
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Full);
        pcnn_telemetry::set_enabled(false);
        (trace, prom)
    };
    let (trace_a, prom_a) = traced_run();
    let (trace_b, prom_b) = traced_run();
    assert_eq!(trace_a, trace_b, "seeded traces differ");
    assert_eq!(prom_a, prom_b, "seeded expositions differ");

    // The trace carries the full request lifecycle on named tracks.
    assert!(trace_a.contains("\"gpu0 (K20c)\""));
    assert!(trace_a.contains("\"workload: obs overload\""));
    assert!(trace_a.contains(": queue\""));
    assert!(trace_a.contains(": execute\""));
    assert!(trace_a.contains("\"batch 0: obs overload"));
    assert!(trace_a.contains("request.complete"));
    // Windowed series ride along as counter events; a histogram window's
    // sample carries its count, mean and quantiles.
    assert!(trace_a.contains("serve.throughput [obs overload]"));
    let doc = json::parse(&trace_a).expect("trace must be valid JSON");
    let records = pcnn_telemetry::read_chrome_trace(&doc).expect("trace must read back");
    let latency = records
        .iter()
        .find(|r| r.ph == "C" && r.name == "serve.latency_s [obs overload]")
        .expect("a latency window sample");
    assert!(latency.args.u64_at("count").is_some_and(|n| n > 0));
    for key in ["mean", "p50", "p95", "p99"] {
        assert!(
            latency.args.f64_at(key).is_some(),
            "no {key} in {latency:?}"
        );
    }
}

/// Batch-1 latency of `spec` on the reference K20c.
fn unit_cost(spec: &NetworkSpec) -> f64 {
    let schedule = OfflineCompiler::new(&K20C, spec)
        .try_compile_batch(1)
        .unwrap();
    simulate_schedule(&K20C, &schedule).seconds
}

/// A two-platform fleet run: the reference K20c plus a TX1 clocked down
/// to a quarter of its frequency (a single-rung ladder, so it can never
/// degrade its way back to feasibility), serving a real-time frame
/// stream whose deadline K20c holds with 2x slack. Routed per `policy` at
/// batch 1 so every frame is one routing decision.
fn doctored_fleet_report(spec: &NetworkSpec, policy: RouterPolicy, frames: usize) -> String {
    let c1 = unit_cost(spec);
    let n_convs = spec.conv_layers().len();
    let slow_tx1 = JETSON_TX1.with_frequency_scale(0.25);
    let fps = 1.0 / (2.0 * c1);
    let workload = ServeWorkload::new(
        AppSpec::video_surveillance(fps),
        TraceSpec::real_time(frames, fps),
        64,
    );
    let config = ServerConfig {
        max_batch: 1,
        ..ServerConfig::default()
    }
    .with_router(policy);
    let server = Server::builder(spec)
        .platform(Platform::new(
            &K20C,
            DegradationLadder::default_ladder(n_convs),
        ))
        .platform(Platform::new(
            &slow_tx1,
            DegradationLadder::none(n_convs, 0.9),
        ))
        .config(config)
        .workload(workload)
        .build()
        .unwrap();
    server.run().unwrap().to_json()
}

/// Every `name` instant of a rendered trace, read back through the
/// format's one reader and the event's own `from_args`.
fn instants<T>(
    trace: &str,
    name: &str,
    from_args: impl Fn(f64, &JsonValue) -> Result<T, String>,
) -> Vec<T> {
    let doc = json::parse(trace).expect("trace must be valid JSON");
    let records = pcnn_telemetry::read_chrome_trace(&doc).expect("trace must read back");
    let named = records.iter().filter(|r| r.ph == "i" && r.name == name);
    named
        .map(|r| from_args(r.ts_us / 1e6, r.args).expect("instant must read back"))
        .collect()
}

/// Round-robin onto the doctored fleet misses deadlines on the slow
/// platform, so the real-time SLO (95 % hit rate) alerts and freezes an
/// incident snapshot — and two seeded runs produce byte-identical traces
/// AND byte-identical incidents.
#[test]
fn fleet_incident_and_route_trail_are_deterministic() {
    let spec = tiny_net();
    let traced_run = || {
        pcnn_telemetry::set_enabled(true);
        pcnn_telemetry::reset();
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
        let report = doctored_fleet_report(&spec, RouterPolicy::RoundRobin, 12);
        let trace = pcnn_telemetry::render_chrome_trace();
        let incident = pcnn_telemetry::incident();
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Full);
        pcnn_telemetry::set_enabled(false);
        (report, trace, incident)
    };
    let (report_a, trace_a, incident_a) = traced_run();
    let (report_b, trace_b, incident_b) = traced_run();
    assert_eq!(report_a, report_b, "seeded fleet reports differ");
    assert_eq!(trace_a, trace_b, "seeded fleet traces differ");
    assert_eq!(incident_a, incident_b, "seeded incidents differ");

    // The audit trail rode along in the trace (the name lands in the
    // string table when interned, so the literal always appears).
    assert!(trace_a.contains("route.decision"), "no routing audit trail");
    assert!(trace_a.contains("\"RoundRobin\""));

    // The slow platform missed at least one deadline, which burned the
    // 95 % error budget and froze a parseable, self-contained snapshot.
    let incident = incident_a.expect("round-robin onto the slow platform must alert");
    let doc = json::parse(&incident).expect("incident must be valid JSON");
    let inc = IncidentReport::from_snapshot(&doc).expect("incident must read back");
    assert_eq!(inc.router, "round-robin");
    assert_eq!(inc.alert.workload, "video surveillance");
    assert_eq!(inc.alert.metric, "deadline_hit_rate");
    assert!(
        !inc.route_decisions.is_empty(),
        "flight recorder captured no routes"
    );
    // The snapshot's decision records are the trace instants' args.
    let trail = instants(&trace_a, "route.decision", RouteRecord::from_args);
    let last = inc.route_decisions.last().unwrap();
    let traced = trail.iter().find(|d| d.req == last.req && d.dispatched);
    let traced = traced.expect("frozen decision is in the trace");
    assert_eq!(traced.candidates, last.candidates);
    assert!(
        !inc.windows.is_empty(),
        "flight recorder captured no windows"
    );
}

/// Affinity routing on the same doctored fleet keeps every frame on the
/// fast platform: the audit trail must *name* `DeadlineSlack` as the
/// reason and encode the slow candidate as infeasible — and with no
/// misses, no incident is frozen.
#[test]
fn audit_trail_names_deadline_slack_for_the_infeasible_platform() {
    let spec = tiny_net();
    pcnn_telemetry::set_enabled(true);
    pcnn_telemetry::reset();
    pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
    let report = doctored_fleet_report(&spec, RouterPolicy::Affinity, 12);
    let trace = pcnn_telemetry::render_chrome_trace();
    let incident = pcnn_telemetry::incident();
    pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Full);
    pcnn_telemetry::set_enabled(false);

    // Every frame was placed for its deadline slack, on the fast K20c,
    // with the slow candidate in the trail, scored and marked infeasible.
    let trail = instants(&trace, "route.decision", RouteRecord::from_args);
    let placed: Vec<_> = trail.iter().filter(|d| d.dispatched).collect();
    assert_eq!(placed.len(), 12, "one placement per frame");
    for d in placed {
        assert_eq!(d.reason, "DeadlineSlack", "request #{}", d.req);
        assert_eq!(d.platform.as_deref(), Some("K20c"));
        let slow = d.candidates.iter().find(|c| c.platform == "TX1");
        let slow = slow.expect("slow platform scored in the candidate trail");
        assert!(!slow.feasible, "TX1 should be infeasible: {slow:?}");
        assert!(slow.slack_s.is_some_and(|s| s < 0.0), "{slow:?}");
    }
    // All frames on the fast platform, all deadlines met, no incident.
    assert!(report.contains("\"deadlines_met\": 12, \"deadline_total\": 12"));
    assert!(
        incident.is_none(),
        "a clean run must not freeze an incident"
    );
}

#[test]
fn overload_fires_slo_alerts_in_the_trace() {
    let spec = tiny_net();
    pcnn_telemetry::set_enabled(true);
    pcnn_telemetry::reset();
    pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
    // The interactive policy every workload of its kind is monitored by
    // (90 % hit rate, 1.4-nat entropy ceiling), over 0.25 s windows.
    run_report(&spec);
    let trace = pcnn_telemetry::render_chrome_trace();
    let prom = pcnn_telemetry::render_prometheus();
    pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Full);
    pcnn_telemetry::set_enabled(false);

    assert!(
        trace.contains("\"slo.alert\""),
        "no SLO alert fired under 1.5x overload"
    );
    assert!(trace.contains("serve.slo_alerts [obs overload]"));
    // The exposition totals the alert counter over the windows.
    assert!(prom.contains("serve_slo_alerts{label=\"obs overload\"}"));
}
