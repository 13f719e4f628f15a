//! End-to-end tests of the `pcnn obs` subcommand: the analyzer over a
//! real exported trace, binary-level trace determinism, the baseline
//! regression gate (bytes for deterministic documents, bands for
//! wall-clock ones), and every analyzer on damaged documents.

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

    // A deterministic document is held to its bytes: each doctored
    // candidate fails and names its line, however small the drift.
    for (gate, row, from, to) in [
        // 10 of 150 interactive deadlines lost.
        ("serve", "\"deadlines_met\": 140", "140", "100"),
        // 3 of 150.
        ("serve", "\"deadlines_met\": 140", "140", "137"),
        // +4.7 % makespan.
        ("serve", "\"makespan_s\"", "2.9999999999666667", "3.14"),
        // +7.8 % on one layer's modelled time.
        (
            "profile",
            "\"L00 conv\"",
            "\"modelled_ms\": 0.027822",
            "\"modelled_ms\": 0.030000",
        ),
        // +3.7 % compute energy on the deadline section's energy row (the
        // first energy row in the document).
        (
            "fleet",
            "{\"policy\": \"energy\"",
            "\"compute_j\": 2.7961660608639143",
            "\"compute_j\": 2.9",
        ),
    ] {
        let committed_path = root.join(format!("BENCH_{gate}.json"));
        let committed = std::fs::read_to_string(&committed_path).unwrap();
        let (index, line) = committed
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains(row))
            .unwrap_or_else(|| panic!("BENCH_{gate}.json has no {row} line"));
        assert!(line.contains(from), "BENCH_{gate}.json changed shape");
        let doctored_line = line.replacen(from, to, 1);
        let doctored = committed.replacen(line, &doctored_line, 1);
        let bad = tmp(&format!("doctored-{gate}.json"));
        std::fs::write(&bad, doctored).unwrap();
        let out = pcnn()
            .args(["obs", "check"])
            .arg(format!("--baseline-{gate}={}", committed_path.display()))
            .arg(format!("--candidate-{gate}={}", bad.display()))
            .output()
            .unwrap();
        std::fs::remove_file(&bad).ok();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{gate} {from} -> {to} passed the gate: {stdout}"
        );
        for needle in [
            format!("first at line {}", index + 1),
            format!("committed: {line}"),
            format!("candidate: {doctored_line}"),
        ] {
            assert!(
                stdout.contains(&needle),
                "{gate} {from} -> {to}: no `{needle}` in {stdout}"
            );
        }
    }
}

#[test]
fn obs_check_refuses_a_baseline_without_its_candidate() {
    // With candidate files only the gates given one run, so a baseline
    // flag for any other gate would be read and then silently ignored.
    let out = pcnn()
        .args(["obs", "check", "--baseline-serve", "/nonexistent.json"])
        .args(["--candidate-gemm", "BENCH_gemm.json"])
        .current_dir(repo_root())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "not refused: {stderr}");
    assert!(
        stderr.contains("--baseline-serve"),
        "flag not named: {stderr}"
    );
    assert!(out.stdout.is_empty(), "a refused command line ran");
}

#[test]
fn committed_fleet_baseline_shows_every_policy_contrast() {
    // The contrasts the fleet exists to demonstrate, over the committed
    // document that `pcnn obs check` holds every regeneration to.
    let text = std::fs::read_to_string(repo_root().join("BENCH_fleet.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let at = |section: &str, policy: &str, key: &str| {
        let rows = doc.get(section).and_then(|s| s.as_array());
        let row = rows
            .and_then(|rows| rows.iter().find(|r| r.str_at("policy") == Some(policy)))
            .unwrap_or_else(|| panic!("no {section}.{policy} row"));
        row.f64_at(key)
            .unwrap_or_else(|| panic!("no {section}.{policy}.{key}"))
    };
    assert!(
        at("deadline", "affinity", "deadlines_met")
            > at("deadline", "round-robin", "deadlines_met"),
        "deadline.affinity deadlines_met must strictly beat round-robin"
    );
    assert_eq!(
        at("deadline", "affinity", "deadlines_met"),
        at("deadline", "affinity", "deadline_total"),
        "deadline.affinity must meet every deadline"
    );
    assert!(
        at("slack", "energy", "compute_j") < at("slack", "round-robin", "compute_j"),
        "slack.energy compute_j must stay strictly under round-robin"
    );
    assert!(
        at("slack", "energy", "joules_per_image") < at("slack", "round-robin", "joules_per_image"),
        "slack.energy joules_per_image must stay strictly under round-robin"
    );
    assert!(
        at("slack", "energy", "mean_soc") >= at("slack", "round-robin", "mean_soc"),
        "slack.energy mean_soc must stay at least round-robin's"
    );
    assert!(
        at("drain", "steal", "makespan_s") < at("drain", "affinity", "makespan_s"),
        "drain.steal makespan_s must stay strictly under affinity"
    );
    // Images each ladder-demo platform served below level 0.
    let platforms = doc
        .get("ladder_demo")
        .and_then(|l| l.get("platforms"))
        .and_then(|p| p.as_array())
        .expect("ladder_demo platforms");
    let degraded = |i: usize| -> f64 {
        let levels = platforms[i]
            .get("images_at_level")
            .and_then(|l| l.as_array());
        let levels = levels.expect("images_at_level");
        levels.iter().skip(1).map(|n| n.as_f64().unwrap()).sum()
    };
    assert_eq!(
        degraded(0),
        0.0,
        "ladder_demo reference platform must stay undegraded"
    );
    assert!(
        degraded(1) > 0.0,
        "ladder_demo small platform must walk its own ladder"
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
fn an_unwritable_sidecar_leaves_the_others_written() {
    // `<trace>.prom` cannot be written over a directory of that name; the
    // trace and the incident snapshot of the alerting run still are.
    let trace = tmp("unwritable-prom.json");
    let prom = PathBuf::from(format!("{}.prom", trace.display()));
    let incident = PathBuf::from(format!("{}.incident.json", trace.display()));
    std::fs::create_dir_all(&prom).unwrap();
    let out = pcnn()
        .args(["serve-fleet", "--smoke", "--scenario", "deadline"])
        .args(["--policy", "round-robin"])
        .env("PCNN_TRACE", &trace)
        .output()
        .unwrap();
    let (trace_written, incident_written) = (trace.is_file(), incident.is_file());
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&incident).ok();
    std::fs::remove_dir(&prom).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve-fleet failed: {stderr}");
    assert!(
        stderr.contains(&format!("could not write metrics {}", prom.display())),
        "the failed sidecar is not named: {stderr}"
    );
    assert!(trace_written, "no trace: {stderr}");
    assert!(incident_written, "no incident snapshot: {stderr}");
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
