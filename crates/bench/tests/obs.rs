//! End-to-end tests of the `pcnn obs` subcommand: the analyzer over a
//! real exported trace, binary-level trace determinism, the
//! tolerance-band regression gate, and every analyzer on damaged
//! documents.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use pcnn_bench::baselines::FleetScenario;
use pcnn_bench::obs::{analyze_route, analyze_trace, diff_documents};
use pcnn_serve::obs::IncidentReport;
use pcnn_serve::RouterPolicy;
use pcnn_telemetry::{json, read_chrome_trace};
use proptest::prelude::*;

fn pcnn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pcnn"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcnn-obs-{}-{name}", std::process::id()))
}

#[test]
fn obs_check_passes_clean_and_fails_injected_regression() {
    let root = repo_root();
    let serve_baseline = root.join("BENCH_serve.json");
    let gemm_baseline = root.join("BENCH_gemm.json");

    // Baseline vs itself is clean for both documents.
    let out = pcnn()
        .args(["obs", "check"])
        .arg(format!("--baseline-serve={}", serve_baseline.display()))
        .arg(format!("--baseline-gemm={}", gemm_baseline.display()))
        .arg(format!("--candidate-serve={}", serve_baseline.display()))
        .arg(format!("--candidate-gemm={}", gemm_baseline.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clean check failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("note:"),
        "same-kernel documents drew a kernel note"
    );

    // A candidate recorded on another GEMM kernel is noted, not gated.
    let baseline = std::fs::read_to_string(&gemm_baseline).unwrap();
    let kernel = pcnn_telemetry::json::parse(&baseline).unwrap();
    let kernel = kernel.get("kernel").unwrap().as_str().unwrap().to_string();
    let other = tmp("other-kernel-gemm.json");
    std::fs::write(&other, baseline.replace(&kernel, "some other 4x4")).unwrap();
    let out = pcnn()
        .args(["obs", "check"])
        .arg(format!("--candidate-gemm={}", other.display()))
        .current_dir(&root)
        .output()
        .unwrap();
    std::fs::remove_file(&other).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "kernel mismatch gated: {stdout}");
    assert!(
        stdout.contains(&format!(
            "note: gemm baseline was recorded on the {kernel} kernel, the candidate ran some other 4x4"
        )),
        "no kernel note: {stdout}"
    );

    // A doctored candidate (dropped deadline hits) must gate.
    let baseline = std::fs::read_to_string(&serve_baseline).unwrap();
    let doctored = baseline.replace("\"deadlines_met\": 140", "\"deadlines_met\": 100");
    assert_ne!(baseline, doctored, "baseline fixture changed shape");
    let bad = tmp("doctored-serve.json");
    std::fs::write(&bad, doctored).unwrap();
    let out = pcnn()
        .args(["obs", "check"])
        .arg(format!("--baseline-serve={}", serve_baseline.display()))
        .arg(format!("--candidate-serve={}", bad.display()))
        .output()
        .unwrap();
    std::fs::remove_file(&bad).ok();
    assert!(!out.status.success(), "regressed candidate passed the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("REGRESSION") && stdout.contains("deadline_hit_rate"),
        "unexpected gate output: {stdout}"
    );
}

#[test]
fn traced_serve_runs_are_byte_identical_and_analyzable() {
    let run = |trace: &Path| {
        let out = pcnn()
            .args(["serve", "--smoke"])
            .env("PCNN_TRACE", trace)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "serve failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let trace_a = tmp("trace-a.json");
    let trace_b = tmp("trace-b.json");
    run(&trace_a);
    run(&trace_b);
    let a = std::fs::read(&trace_a).unwrap();
    let b = std::fs::read(&trace_b).unwrap();
    assert_eq!(a, b, "seeded smoke traces differ at the binary level");

    let out = pcnn().arg("obs").arg(&trace_a).output().unwrap();
    for p in [&trace_a, &trace_b] {
        std::fs::remove_file(p).ok();
        std::fs::remove_file(format!("{}.manifest.jsonl", p.display())).ok();
        std::fs::remove_file(format!("{}.prom", p.display())).ok();
    }
    assert!(
        out.status.success(),
        "analyzer failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("queueing vs service per workload"));
    assert!(stdout.contains("age detection"));
    assert!(stdout.contains("critical path"));
}

#[test]
fn fleet_incident_and_route_trail_are_queryable_end_to_end() {
    // A traced single-scenario fleet run: round-robin onto the mixed
    // K20c + TX1 fleet misses deadlines on the slow platform, so the run
    // must leave behind a trace with a routing audit trail AND an
    // incident snapshot sidecar.
    let trace = tmp("fleet-trace.json");
    let incident = PathBuf::from(format!("{}.incident.json", trace.display()));
    let out = pcnn()
        .args(["serve-fleet", "--smoke", "--scenario", "deadline"])
        .args(["--policy", "round-robin"])
        .env("PCNN_TRACE", &trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "serve-fleet failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("deadline scenario (round-robin router)"),
        "unexpected scenario summary: {stdout}"
    );
    assert!(
        incident.is_file(),
        "overload run left no incident snapshot next to the trace"
    );

    // `obs route` answers "why": histogram by reason, then the drill-in.
    let out = pcnn().args(["obs", "route"]).arg(&trace).output().unwrap();
    assert!(
        out.status.success(),
        "obs route failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("RoundRobin"),
        "no reason histogram: {stdout}"
    );

    let out = pcnn()
        .args(["obs", "route"])
        .arg(&trace)
        .args(["--req", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "obs route --req failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("chosen"),
        "no per-request verdict: {stdout}"
    );

    // `obs incident` renders the postmortem from the snapshot alone.
    let out = pcnn()
        .args(["obs", "incident"])
        .arg(&incident)
        .output()
        .unwrap();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&incident).ok();
    std::fs::remove_file(format!("{}.manifest.jsonl", trace.display())).ok();
    std::fs::remove_file(format!("{}.prom", trace.display())).ok();
    assert!(
        out.status.success(),
        "obs incident failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("incident:") && stdout.contains("deadline_hit_rate"),
        "unexpected incident rendering: {stdout}"
    );
}

#[test]
fn analyzer_rejects_non_trace_input() {
    let path = tmp("not-a-trace.json");
    std::fs::write(&path, "{\"not\": \"a trace\"}").unwrap();
    let out = pcnn().arg("obs").arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
}

/// A real rendered trace and the incident snapshot frozen beside it: the
/// smoke fleet's deadline scenario under round-robin, which routes,
/// misses on the slow platform and alerts.
fn real_documents() -> &'static [String; 2] {
    static DOCS: OnceLock<[String; 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        pcnn_telemetry::set_enabled(true);
        pcnn_telemetry::reset();
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Deterministic);
        FleetScenario::smoke()
            .run_deadline(RouterPolicy::RoundRobin)
            .unwrap();
        let trace = pcnn_telemetry::render_chrome_trace();
        let incident = pcnn_telemetry::incident().expect("the run alerts");
        pcnn_telemetry::set_export_mode(pcnn_telemetry::ExportMode::Full);
        pcnn_telemetry::set_enabled(false);
        [trace, incident]
    })
}

/// Whatever the bytes, every stage answers `Ok` or `Err`: a panic in any
/// of them unwinds through here and fails the test. Each document goes
/// through each reader — `pcnn obs` takes any path for any subcommand.
fn survives(bytes: &[u8]) {
    let Ok(doc) = json::parse(&String::from_utf8_lossy(bytes)) else {
        return;
    };
    let _ = read_chrome_trace(&doc);
    let _ = analyze_trace(&doc);
    let _ = analyze_route(&doc);
    let _ = diff_documents(&doc, &doc);
    let _ = IncidentReport::from_snapshot(&doc);
}

#[test]
fn the_real_documents_read_back_and_truncated_ones_never_panic() {
    let [trace, incident] = real_documents();
    let doc = json::parse(trace).unwrap();
    assert!(!analyze_trace(&doc).unwrap().workloads.is_empty());
    assert!(!analyze_route(&doc).unwrap().decisions.is_empty());
    let inc = IncidentReport::from_snapshot(&json::parse(incident).unwrap()).unwrap();
    assert!(!inc.route_decisions.is_empty());
    for text in [trace, incident] {
        for cut in (0..text.len()).step_by(97) {
            survives(&text.as_bytes()[..cut]);
        }
    }
}

/// Bytes that keep a document parseable more often than a uniform draw:
/// digits, signs and the separators of JSON and of the packed candidates.
const STRUCTURAL: &[u8] = b"0123456789-+.eE\"#:;,{}[] ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn a_mutated_document_is_an_error_never_a_panic(
        which in 0usize..2,
        at in 0.0f64..1.0,
        draw in any::<u16>(),
    ) {
        let mut bytes = real_documents()[which].clone().into_bytes();
        let at = (at * bytes.len() as f64) as usize;
        bytes[at] = if draw & 0x100 == 0 {
            draw as u8
        } else {
            STRUCTURAL[(draw >> 9) as usize % STRUCTURAL.len()]
        };
        survives(&bytes);
    }
}
