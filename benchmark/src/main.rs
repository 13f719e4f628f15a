//! End-to-end benchmark of the P-CNN engine, offline compiler and serving
//! simulator. See `README.md` beside this package.
//!
//! ```text
//! pcnn-benchmark run --workload <name|all> --seed <u64> [--seconds <s>]
//!                    [--trace <0|1> | --traced] [--smoke] [--json <path>]
//! pcnn-benchmark compare <a.json> <b.json>
//! ```

mod alloc;
mod api;
mod compare;
mod measure;
mod record;
mod reference;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use api::{Case, Output};
use record::{unit_of, Meta, Record, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where traces are written: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const DEFAULT_SECONDS: f64 = 15.0;
/// `setup_s` is the median of at most this many set-ups.
const SETUP_REPEATS: usize = 3;
/// Set-ups are repeated while the next fits this share of the window: the
/// VGG tuner alone takes 8 s, and a run may take the driver half a minute.
const SETUP_BOX_SHARE: f64 = 0.8;
const USAGE: &str = "usage:
  pcnn-benchmark run --workload <alexnet_b1|vgg16_b1|alexnet_b8_rung2|serve_mixed|all> --seed <u64>
                     [--seconds <s>] [--trace <0|1> | --traced] [--smoke] [--json <path>]
  pcnn-benchmark compare <a.json> <b.json>";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    json: Option<String>,
}

impl RunArgs {
    /// Length of the measured window: a smoke run makes a twentieth of
    /// the operations under the same checks.
    fn window_s(&self) -> f64 {
        if self.smoke {
            self.seconds / 20.0
        } else {
            self.seconds
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".to_string());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => run.traced = true,
            "--smoke" => run.smoke = true,
            "--json" => run.json = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let known = run.workload == "all" || WORKLOADS.iter().any(|(name, _)| *name == run.workload);
    if !known {
        return Err(format!(
            "--workload must be one of the four workloads or all, not \"{}\"",
            run.workload
        ));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| {
            if run.workload == "all" {
                run_all(&run)
            } else {
                run_one(&run)
            }
        }),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Runs each workload in a process of its own, one after the other, so
/// that each one's peak memory is its own.
fn run_all(run: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_passed = true;
    for (workload, _) in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args([
            "run",
            "--workload",
            workload,
            "--seed",
            &run.seed.to_string(),
        ]);
        child.args(["--seconds", &run.seconds.to_string()]);
        child.args(["--trace", if run.traced { "1" } else { "0" }]);
        if run.smoke {
            child.arg("--smoke");
        }
        if let Some(path) = &run.json {
            child.args(["--json", path]);
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        all_passed &= status.success();
    }
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // `git` is not to look for a repository above this checkout.
        .env(
            "GIT_CEILING_DIRECTORIES",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../.."),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn meta(pool_width: usize) -> Meta {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Meta {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_width,
        cpu_model,
        rustc: first_line_of("rustc", &["--version"]),
        git_commit: first_line_of(
            "git",
            &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
        ),
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A built workload after its first operation, and what that cost.
struct SetUp {
    case: Case,
    first: Output,
    /// Wall time of the first, cold operation.
    cold_ms: f64,
    /// What the first operation allocated (counted on a traced run only).
    cold_allocs: alloc::AllocStats,
    /// Seconds of each set-up made; `setup_s` is their median.
    seconds: Vec<f64>,
}

/// Set-up as a user pays it before the first steady operation: inputs and
/// weights from the seed, the conv tuner, the first (cold) operation, so
/// that work a later change moves out of the steady operation shows here.
/// Made up to [`SETUP_REPEATS`] times, each from nothing, while the next
/// one fits `box_s` seconds; the last one made is the one measured on.
fn set_up(run: &RunArgs, box_s: f64) -> Result<SetUp, String> {
    let start = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let t0 = Instant::now();
        let case = Case::build(&run.workload, run.seed, run.smoke)?;
        let build_s = t0.elapsed().as_secs_f64();
        if run.traced {
            alloc::start();
        }
        let t_first = Instant::now();
        let first = case.op();
        let cold_ms = t_first.elapsed().as_secs_f64() * 1e3;
        let cold_allocs = alloc::stop();
        let first = first.map_err(|e| format!("the first operation failed: {e}"))?;
        let this = t0.elapsed().as_secs_f64();
        seconds.push(this);
        println!(
            "set-up {this:.3} s (build {build_s:.3} s, first operation {cold_ms:.1} ms) {}",
            case.summary()
        );
        if seconds.len() == SETUP_REPEATS || start.elapsed().as_secs_f64() + this > box_s {
            return Ok(SetUp {
                case,
                first,
                cold_ms,
                cold_allocs,
                seconds,
            });
        }
        // `case` is dropped here, before the next is built: two networks
        // alive at once would be a peak this program never has.
    }
}

fn run_one(run: &RunArgs) -> Result<ExitCode, String> {
    let window_s = run.window_s();
    println!(
        "workload {} seed {} window {window_s} s traced {} smoke {}",
        run.workload, run.seed, run.traced, run.smoke
    );
    let SetUp {
        case,
        first,
        cold_ms,
        cold_allocs,
        seconds: setups,
    } = set_up(run, SETUP_BOX_SHARE * window_s)?;

    let mut metrics: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        let unit = unit_of(name).expect("a listed metric");
        metrics.insert(name.to_string(), (value, unit.to_string()));
    };
    let (mut attempted, mut failed) = (1, u64::from(!first.ok));
    if run.traced {
        let mut probe = measure::Probe::new(
            window_s / 10.0,
            cold_ms,
            cold_allocs.peak_live_bytes as f64 / 1e6,
        );
        case.per_layer(&mut probe, &first)?;
        attempted += probe.attempted;
        failed += probe.failed;
        write_trace(&run.workload, probe.tracer.spans())?;
        for (name, value) in probe.values() {
            put(name, *value);
        }
    } else {
        let window = measure_window(&case, &first, window_s);
        attempted += window.ms.len() as u64;
        failed += window.failed;
        put("op_p10_ms", stats::percentile(&window.ms, 0.10));
        put("op_p50_ms", stats::median(&window.ms));
        put(
            "images_per_s",
            (first.images * window.ms.len()) as f64 / window.seconds,
        );
        put("setup_s", stats::median(&setups));
        put("peak_rss_mb", window.peak_rss_mb?);
        for (name, value) in &first.outcome {
            put(name, *value);
        }
        put("harness.op_samples", window.ms.len() as f64);
        put(
            "harness.op_min_ms",
            window.ms.iter().copied().fold(f64::INFINITY, f64::min),
        );
        if let Some(p90) = stats::percentile_with_ten_beyond(&window.ms, 0.90) {
            put("harness.op_p90_ms", p90);
        }
    }

    // References are computed after the window so that their memory is
    // not part of the peak the window reports.
    let checks = case.verify(&first)?;
    for c in &checks {
        println!(
            "check {}: {} ({})",
            c.name,
            if c.passed { "passed" } else { "FAILED" },
            c.detail
        );
    }
    if checks.iter().any(|c| !c.passed) {
        // Every operation reproduced the first one's output, which is wrong.
        failed = attempted;
    }
    let share = failed as f64 / attempted as f64;
    let share_name = if run.traced {
        "harness.failed_ops_share"
    } else {
        "failed_ops_share"
    };
    metrics.insert(share_name.to_string(), (share, "share".to_string()));

    let record = Record {
        workload: run.workload.clone(),
        seed: run.seed,
        seconds: window_s,
        traced: run.traced,
        smoke: run.smoke,
        attempted,
        failed,
        correct: failed == 0,
        meta: meta(case.width()),
        metrics,
    };
    for (name, (value, unit)) in &record.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if let Some(path) = &run.json {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", record.to_json_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    // The driver's line comes last: the end-to-end metrics `BENCHMARK.json`
    // lists from an untraced run, every per-layer metric from a traced one.
    let line = if run.traced {
        record.driver_line(PER_LAYER.iter().map(|m| m.0))
    } else {
        record.driver_line(END_TO_END.iter().filter(|m| m.driver).map(|m| m.name))
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

struct Window {
    /// Wall time of each operation.
    ms: Vec<f64>,
    failed: u64,
    /// Length of the whole window, checks included.
    seconds: f64,
    peak_rss_mb: Result<f64, String>,
}

/// The measured window: one client, each operation sent when the last
/// one has returned and its output has been compared with the first's.
fn measure_window(case: &Case, first: &Output, seconds: f64) -> Window {
    let start = Instant::now();
    let (mut ms, mut failed) = (Vec::new(), 0);
    while ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = case.op();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let passed = out.is_ok_and(|o| o.ok && o.bytes == first.bytes);
        failed += u64::from(!passed);
    }
    Window {
        ms,
        failed,
        seconds: start.elapsed().as_secs_f64(),
        peak_rss_mb: peak_rss_mb(),
    }
}

fn write_trace(workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{workload}.trace.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(spans)))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("trace of {} spans written to {path}", spans.len());
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| {
                Record::from_json_line(l).map_err(|e| format!("{path} line {}: {e}", i + 1))
            })
            .collect()
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} regression, {} unresolved, {} missing",
        rows.len(),
        count(compare::Verdict::Regression),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Missing)
    );
    Ok(if count(compare::Verdict::Regression) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_flags_and_the_harness_own() {
        let run = parse_run(&args("--workload vgg16_b1 --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.traced),
            ("vgg16_b1", 7, 20.0, true)
        );
        let run = parse_run(&args("--workload all --traced --smoke --json out.json")).unwrap();
        assert!(run.traced && run.smoke);
        assert_eq!(
            (run.seed, run.window_s(), run.json.as_deref()),
            (42, DEFAULT_SECONDS / 20.0, Some("out.json"))
        );
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seed",
            "--workload all --seconds 0",
            "--workload all --frobnicate",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` repeats the tables of `record.rs` for the driver.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let doc = api::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key}"))
                .to_vec()
        };
        let text = |v: &api::JsonValue, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .unwrap_or_else(|| panic!("{key}"))
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(|b| b.as_f64()).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.driver)
            .map(|m| {
                let record::Bound::Share(bound) = m.bound else {
                    panic!("{}: the driver takes a share as bound", m.name)
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                    bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.word().to_string()))
            .collect();
        assert_eq!(per_layer, expected);

        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            list("paths"),
            vec![api::JsonValue::String("benchmark".into())]
        );
    }
}
