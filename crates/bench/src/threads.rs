//! Worker-pool wiring for `pcnn`: every subcommand accepts
//! `--threads <N>` (or the `PCNN_THREADS` environment variable, which
//! `pcnn-parallel` reads itself) and pins the CPU worker pool to that
//! many threads for the whole run.

/// Extracts the thread count from `--threads <N>` / `--threads=<N>` args.
pub fn threads_flag(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse().ok();
        }
    }
    None
}

/// Call once at the top of `main`, next to
/// [`crate::trace::init_from_env`]. When `--threads <N>` was passed, the
/// process-wide pool override is installed; otherwise `pcnn-parallel`
/// falls back to `PCNN_THREADS` and then the machine's parallelism.
pub fn init_from_env() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(n) = threads_flag(&args) {
        pcnn_parallel::set_threads(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flag_forms() {
        assert_eq!(threads_flag(&s(&["--threads", "4"])), Some(4));
        assert_eq!(threads_flag(&s(&["--threads=8"])), Some(8));
        assert_eq!(
            threads_flag(&s(&["--gpu", "k20", "--threads", "2"])),
            Some(2)
        );
        assert_eq!(threads_flag(&s(&["--other"])), None);
        assert_eq!(threads_flag(&s(&["--threads", "notanum"])), None);
    }
}
