//! The `pcnn` command line, read once: [`Args`] holds the tokens, every
//! subcommand declares its flags by reading them through the typed
//! getters, and [`Args::finish`] rejects whatever no one read — so there
//! is no flag table to keep in sync and no flag that is silently ignored.
//! `main` reads `--trace` and `--threads` through the same value.

use std::fmt::Display;
use std::str::FromStr;

/// Why a `pcnn` invocation did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is wrong (an unknown or valueless flag, a
    /// value of the wrong type, a missing argument): `main` prints the
    /// message and the usage text and exits 2.
    Usage(String),
    /// The command line was fine and the run failed: `main` prints the
    /// message and exits 1.
    Failed(String),
}

/// The arguments after the program name. A token is consumed by the
/// getter that reads it; `--name value` and `--name=value` are the same
/// flag, and positionals come before the flags that follow them.
#[derive(Debug, Clone)]
pub struct Args {
    /// `None` once read.
    tokens: Vec<Option<String>>,
}

impl Args {
    /// Arguments from their tokens (program name already stripped).
    pub fn new(tokens: impl IntoIterator<Item = String>) -> Self {
        Self {
            tokens: tokens.into_iter().map(Some).collect(),
        }
    }

    /// The next positional: the first unread token, unless it is a flag.
    pub fn positional(&mut self) -> Option<String> {
        let next = self.tokens.iter_mut().find(|t| t.is_some())?;
        if next.as_deref()?.starts_with("--") {
            return None;
        }
        next.take()
    }

    /// Whether the bare switch `--name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let switch = format!("--{name}");
        let found = self
            .tokens
            .iter_mut()
            .find(|t| t.as_deref() == Some(&switch));
        found.is_some_and(|t| t.take().is_some())
    }

    /// The value of `--name <value>` / `--name=<value>`, parsed as `T`;
    /// `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`], naming the flag, when it has no value (it is
    /// last, or followed by another flag) or the value does not parse as
    /// `T`.
    pub fn get<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        let (switch, prefix) = (format!("--{name}"), format!("--{name}="));
        let Some(at) = self.tokens.iter().position(|t| {
            t.as_deref()
                .is_some_and(|t| t == switch || t.starts_with(&prefix))
        }) else {
            return Ok(None);
        };
        let token = self.tokens[at].take().expect("position found it unread");
        let value = match token.strip_prefix(&prefix) {
            Some(v) => Some(v.to_string()),
            None => self
                .tokens
                .get_mut(at + 1)
                .filter(|next| next.as_deref().is_some_and(|n| !n.starts_with("--")))
                .and_then(Option::take),
        };
        let value = value.filter(|v| !v.is_empty()).ok_or_else(|| {
            CliError::Usage(format!(
                "{switch} needs a value: `{switch} <value>` or `{switch}=<value>`"
            ))
        })?;
        value.parse().map(Some).map_err(|_| {
            let ty = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
            CliError::Usage(format!("{switch}: `{value}` is not a valid {ty}"))
        })
    }

    /// [`get`](Self::get) for a count or a rate, which only a finite
    /// number above zero can be.
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get), plus [`CliError::Usage`] naming the flag
    /// when the value is zero, negative, infinite or NaN.
    pub fn positive<T: Positive>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        match self.get::<T>(name)? {
            Some(v) if !v.is_positive() => Err(CliError::Usage(format!(
                "--{name}: `{v}` is not a finite number above zero"
            ))),
            v => Ok(v),
        }
    }

    /// [`get`](Self::get) for a flag the subcommand cannot run without.
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get), plus [`CliError::Usage`] when the flag is
    /// absent.
    pub fn require<T: FromStr>(&mut self, name: &str) -> Result<T, CliError> {
        self.get(name)?
            .ok_or_else(|| CliError::Usage(format!("--{name} <value> is required")))
    }

    /// Ends parsing: every token must have been read by now.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the first token no getter asked for.
    pub fn finish(self) -> Result<(), CliError> {
        match self.tokens.into_iter().flatten().next() {
            None => Ok(()),
            Some(t) if t.starts_with("--") => {
                let name = t.split('=').next().unwrap_or(&t);
                Err(CliError::Usage(format!("unknown flag `{name}`")))
            }
            Some(t) => Err(CliError::Usage(format!("unexpected argument `{t}`"))),
        }
    }
}

/// A flag value [`Args::positive`] reads: a count or a real.
pub trait Positive: FromStr + Display {
    /// Whether the value is a finite number above zero.
    fn is_positive(&self) -> bool;
}

impl Positive for usize {
    fn is_positive(&self) -> bool {
        *self > 0
    }
}

impl Positive for f64 {
    fn is_positive(&self) -> bool {
        self.is_finite() && *self > 0.0
    }
}

/// Checks the `PCNN_THREADS` value `env` the worker pool falls back to:
/// unset or empty leaves the width to the hardware; anything else must
/// be a count above zero, which the pool would otherwise ignore.
///
/// # Errors
///
/// [`CliError::Usage`] naming the variable when the value is not a
/// count above zero.
pub fn check_threads_env(env: Option<&str>) -> Result<(), CliError> {
    match env.map(str::trim) {
        None | Some("") => Ok(()),
        Some(v) if v.parse::<usize>().is_ok_and(|n| n > 0) => Ok(()),
        Some(v) => Err(CliError::Usage(format!(
            "PCNN_THREADS: `{v}` is not a thread count above zero"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|x| x.to_string()))
    }

    fn usage(r: Result<impl std::fmt::Debug, CliError>) -> String {
        match r {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn both_value_forms_parse_and_are_consumed() {
        for form in [&["--frames", "12"][..], &["--frames=12"]] {
            let mut a = args(form);
            assert_eq!(a.get::<usize>("frames"), Ok(Some(12)));
            assert_eq!(a.get::<usize>("frames"), Ok(None), "read twice");
            assert_eq!(a.finish(), Ok(()));
        }
        let mut a = args(&["--rate=-1.5", "--name", "x=y"]);
        assert_eq!(a.get::<f64>("rate"), Ok(Some(-1.5)));
        assert_eq!(a.get::<String>("name"), Ok(Some("x=y".into())));
        assert_eq!(a.get::<u64>("seed"), Ok(None));
        assert_eq!(args(&["--m", "64"]).require::<usize>("m"), Ok(64));
        assert_eq!(
            usage(args(&[]).require::<usize>("m")),
            "--m <value> is required"
        );
    }

    /// The inputs of the `threads_flag` test this module's predecessor
    /// had: both forms, among other flags, absent — and a non-number,
    /// which read as "no flag" there and is an error naming it here.
    #[test]
    fn threads_flag_forms() {
        let threads = |v: &[&str]| args(v).get::<usize>("threads");
        assert_eq!(threads(&["--threads", "4"]), Ok(Some(4)));
        assert_eq!(threads(&["--threads=8"]), Ok(Some(8)));
        assert_eq!(threads(&["--gpu", "k20", "--threads", "2"]), Ok(Some(2)));
        assert_eq!(threads(&["--other"]), Ok(None));
        let msg = usage(threads(&["--threads", "notanum"]));
        assert!(
            msg.contains("--threads") && msg.contains("notanum"),
            "{msg}"
        );
    }

    #[test]
    fn a_value_flag_without_a_value_is_refused_by_name() {
        for (argv, flag) in [
            (&["all", "--dir"][..], "dir"),
            (&["--json", "--smoke"], "json"),
            (&["--reps"], "reps"),
            (&["--trace="], "trace"),
        ] {
            let msg = usage(args(argv).get::<String>(flag));
            assert!(msg.contains(&format!("--{flag} needs a value")), "{msg}");
        }
    }

    #[test]
    fn a_number_of_the_wrong_type_is_refused_naming_flag_value_and_type() {
        let msg = usage(args(&["--seed", "banana"]).get::<u64>("seed"));
        assert_eq!(msg, "--seed: `banana` is not a valid u64");
        let msg = usage(args(&["--frames", "10.7"]).get::<usize>("frames"));
        assert_eq!(msg, "--frames: `10.7` is not a valid usize");
        // The same text is a fine f64.
        assert_eq!(args(&["--fps", "10.7"]).get::<f64>("fps"), Ok(Some(10.7)));
    }

    #[test]
    fn a_count_or_rate_not_above_zero_is_refused_by_name() {
        assert_eq!(
            args(&["--frames", "3"]).positive::<usize>("frames"),
            Ok(Some(3))
        );
        assert_eq!(args(&["--fps=0.5"]).positive::<f64>("fps"), Ok(Some(0.5)));
        assert_eq!(args(&[]).positive::<f64>("fps"), Ok(None));
        let msg = usage(args(&["--frames", "0"]).positive::<usize>("frames"));
        assert_eq!(msg, "--frames: `0` is not a finite number above zero");
        for bad in ["0", "-1", "nan", "inf", "-inf"] {
            let msg = usage(args(&["--rate", bad]).positive::<f64>("rate"));
            assert!(msg.starts_with("--rate: `"), "{bad}: {msg}");
        }
        // A value of the wrong type is still the type's refusal.
        let msg = usage(args(&["--m", "-1"]).positive::<usize>("m"));
        assert_eq!(msg, "--m: `-1` is not a valid usize");
    }

    #[test]
    fn threads_env_is_a_count_above_zero_or_unset() {
        for ok in [None, Some(""), Some("2"), Some(" 8 ")] {
            assert_eq!(check_threads_env(ok), Ok(()), "{ok:?}");
        }
        for bad in ["0", "banana", "-2", "1.5"] {
            let msg = usage(check_threads_env(Some(bad)));
            assert!(msg.starts_with("PCNN_THREADS: `"), "{bad}: {msg}");
        }
    }

    #[test]
    fn finish_names_the_first_leftover() {
        let mut a = args(&["--smoke", "--bogus", "1"]);
        assert!(a.flag("smoke") && !a.flag("smoke"));
        assert_eq!(usage(a.finish()), "unknown flag `--bogus`");
        assert_eq!(usage(args(&["--oops=3"]).finish()), "unknown flag `--oops`");
        // A switch does not swallow what follows it; a value flag does.
        let mut a = args(&["--smoke", "extra"]);
        assert!(a.flag("smoke"));
        assert_eq!(usage(a.finish()), "unexpected argument `extra`");
    }

    #[test]
    fn positionals_come_first_and_stop_at_a_flag() {
        let mut a = args(&["route", "t.json", "--req", "3"]);
        assert_eq!(a.positional().as_deref(), Some("route"));
        assert_eq!(a.positional().as_deref(), Some("t.json"));
        assert_eq!(a.positional(), None);
        assert_eq!(a.get::<u64>("req"), Ok(Some(3)));
        assert_eq!((a.positional(), a.finish()), (None, Ok(())));
        // A flag `main` read ahead of the subcommand leaves it first.
        let mut a = args(&["--threads", "2", "platforms"]);
        assert_eq!(a.get::<usize>("threads"), Ok(Some(2)));
        assert_eq!(a.positional().as_deref(), Some("platforms"));
    }
}
