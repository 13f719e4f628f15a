//! The `pcnn` front end refuses a number no run can use: a count or a
//! rate that is not a finite number above zero, on a flag or in
//! `PCNN_THREADS`, exits 2 naming its source before anything runs — not
//! a panic (101) inside the run, and not a silent fallback.

use std::process::Command;

/// Runs `pcnn args` with `PCNN_THREADS` set to `threads` (or removed)
/// and asserts the command line was refused naming `source`.
fn refused(source: &str, threads: Option<&str>, args: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcnn"));
    cmd.args(args).env_remove("PCNN_TRACE");
    match threads {
        Some(v) => cmd.env("PCNN_THREADS", v),
        None => cmd.env_remove("PCNN_THREADS"),
    };
    let out = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} not refused: {stderr}");
    assert!(
        stderr.contains(source),
        "{args:?}: {source} not named: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a refused command line ran"
    );
}

#[test]
fn out_of_range_counts_and_rates_are_refused_by_flag() {
    for (flag, args) in [
        ("--fps", &["serve", "--smoke", "--fps", "0"][..]),
        ("--fps", &["serve", "--smoke", "--fps", "-1"]),
        ("--fps", &["serve", "--smoke", "--fps", "inf"]),
        ("--rate", &["serve", "--smoke", "--rate", "0"]),
        ("--rate", &["serve", "--smoke", "--rate", "nan"]),
        ("--requests", &["serve", "--smoke", "--requests", "0"]),
        ("--frames", &["serve", "--smoke", "--frames", "0"]),
        ("--bg-images", &["serve", "--smoke", "--bg-images", "0"]),
        ("--stream", &["serve-fleet", "--smoke", "--stream", "0"]),
        (
            "--m",
            &["tune", "--gpu", "k20", "--m", "0", "--n", "1", "--k", "1"],
        ),
        ("--threads", &["--threads", "0", "platforms"]),
    ] {
        refused(flag, None, args);
    }
}

#[test]
fn a_threads_variable_that_is_no_count_is_refused_by_name() {
    for value in ["banana", "0"] {
        refused("PCNN_THREADS", Some(value), &["platforms"]);
    }
}
