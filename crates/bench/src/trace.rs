//! Telemetry wiring for `pcnn`: every subcommand accepts
//! `--trace <path>` (or the `PCNN_TRACE` environment variable) and
//! writes a Chrome trace-event file there, a Prometheus text exposition
//! to `<path>.prom` and, when an SLO alert fired, an incident snapshot
//! to `<path>.incident.json` when it exits.
//!
//! `PCNN_TRACE_MODE=full|deterministic` forces the export mode; without
//! it, `pcnn serve` switches to the deterministic (virtual-time-only)
//! export so seeded traces are byte-identical, while other commands keep
//! the full wall-clock export.

use std::path::{Path, PathBuf};

use pcnn_telemetry::ExportMode;

use crate::args::{Args, CliError};

/// RAII handle returned by [`init`]; exports the trace files on
/// drop (i.e. when `main` returns).
#[must_use = "telemetry is exported when the session is dropped"]
pub struct TraceSession {
    path: Option<PathBuf>,
}

impl TraceSession {
    /// Whether tracing was requested.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }
}

impl Drop for TraceSession {
    /// Writes each file on its own: one that cannot be written is named
    /// on stderr and the others are still written.
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let mut files = vec![
            ("trace", path.clone(), pcnn_telemetry::render_chrome_trace()),
            (
                "metrics",
                sidecar(&path, ".prom"),
                pcnn_telemetry::render_prometheus(),
            ),
        ];
        // An SLO alert during the run froze an incident snapshot: it goes
        // next to the trace for `pcnn obs incident`.
        if let Some(snapshot) = pcnn_telemetry::incident() {
            files.push((
                "incident snapshot",
                sidecar(&path, ".incident.json"),
                snapshot,
            ));
        }
        for (what, file, body) in files {
            match std::fs::write(&file, body) {
                Ok(()) => eprintln!("telemetry: {what} {}", file.display()),
                Err(e) => eprintln!("warning: could not write {what} {}: {e}", file.display()),
            }
        }
    }
}

/// The file `suffix` names next to a trace file: `.prom` for the
/// Prometheus text exposition, `.incident.json` for the incident snapshot
/// a run that fires an SLO alert freezes (see
/// [`pcnn_telemetry::record_incident`]).
fn sidecar(trace: &Path, suffix: &str) -> PathBuf {
    let mut s = trace.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// The trace path: `--trace <path>` / `--trace=<path>` read out of
/// `args`, falling back to the `env` value (the `PCNN_TRACE` variable).
///
/// # Errors
///
/// A `--trace` with no path after it is a usage error naming the flag,
/// whatever `PCNN_TRACE` says.
pub fn trace_path(args: &mut Args, env: Option<String>) -> Result<Option<PathBuf>, CliError> {
    let flag = args.get::<PathBuf>("trace")?;
    Ok(flag.or_else(|| env.filter(|v| !v.is_empty()).map(PathBuf::from)))
}

/// Parses the `PCNN_TRACE_MODE` value: unset or empty forces nothing,
/// anything but `full` or `deterministic` is an error naming the two.
fn trace_mode(env: Option<String>) -> Result<Option<ExportMode>, String> {
    match env.as_deref() {
        None | Some("") => Ok(None),
        Some("full") => Ok(Some(ExportMode::Full)),
        Some("deterministic") => Ok(Some(ExportMode::Deterministic)),
        Some(other) => Err(format!(
            "PCNN_TRACE_MODE must be `full` or `deterministic`, not `{other}`"
        )),
    }
}

/// Call once at the top of `main`, with the process's [`Args`]. When
/// tracing was requested, telemetry recording is switched on for the
/// calling (main) thread for the rest of the run and the files are
/// written when the returned session drops.
///
/// # Errors
///
/// A malformed `--trace` or `PCNN_TRACE_MODE` is a [`CliError::Usage`].
pub fn init(args: &mut Args) -> Result<TraceSession, CliError> {
    let path = trace_path(args, std::env::var("PCNN_TRACE").ok())?;
    let mode = trace_mode(std::env::var("PCNN_TRACE_MODE").ok()).map_err(CliError::Usage)?;
    if path.is_some() {
        pcnn_telemetry::set_enabled(true);
    }
    if let Some(mode) = mode {
        pcnn_telemetry::set_export_mode(mode);
    }
    Ok(TraceSession { path })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Args {
        Args::new(v.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_flag_forms() {
        assert_eq!(
            trace_path(&mut s(&["--trace", "/tmp/t.json"]), None),
            Ok(Some(PathBuf::from("/tmp/t.json")))
        );
        assert_eq!(
            trace_path(&mut s(&["--trace=/tmp/t.json"]), None),
            Ok(Some(PathBuf::from("/tmp/t.json")))
        );
        assert_eq!(trace_path(&mut s(&["--other"]), None), Ok(None));
    }

    #[test]
    fn a_flag_without_a_path_is_an_error_not_tracing_off() {
        for args in [&["--gpu", "k20", "--trace"][..], &["--trace="]] {
            for env in [None, Some("/tmp/e.json".to_string())] {
                let err = trace_path(&mut s(args), env).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(m) if m.contains("--trace needs a value")),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn mode_is_full_or_deterministic_or_an_error() {
        assert_eq!(trace_mode(None), Ok(None));
        assert_eq!(trace_mode(Some(String::new())), Ok(None));
        assert_eq!(trace_mode(Some("full".into())), Ok(Some(ExportMode::Full)));
        assert_eq!(
            trace_mode(Some("deterministic".into())),
            Ok(Some(ExportMode::Deterministic))
        );
        for bad in ["Full", "det", " full"] {
            let err = trace_mode(Some(bad.into())).unwrap_err();
            assert!(err.contains("`full` or `deterministic`"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn env_is_the_fallback() {
        assert_eq!(
            trace_path(&mut s(&[]), Some("/tmp/e.json".into())),
            Ok(Some(PathBuf::from("/tmp/e.json")))
        );
        assert_eq!(trace_path(&mut s(&[]), Some(String::new())), Ok(None));
        // The flag wins over the env var.
        assert_eq!(
            trace_path(&mut s(&["--trace", "/a"]), Some("/b".into())),
            Ok(Some(PathBuf::from("/a")))
        );
    }

    #[test]
    fn sidecars_sit_beside_the_trace() {
        let trace = Path::new("/tmp/x.json");
        assert_eq!(sidecar(trace, ".prom"), PathBuf::from("/tmp/x.json.prom"));
        assert_eq!(
            sidecar(trace, ".incident.json"),
            PathBuf::from("/tmp/x.json.incident.json")
        );
    }
}
