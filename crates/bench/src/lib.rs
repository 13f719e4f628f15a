//! Everything behind the one `pcnn` binary: the [`experiments`] registry
//! that regenerates every table and figure of the paper (`pcnn repro`;
//! see `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results), the committed baselines and the observability
//! tools.

pub mod args;
pub mod baselines;
pub mod conv;
pub mod experiments;
pub mod harness;
pub mod obs;
pub mod profile;
pub mod trace;
pub mod trained;

pub use args::{Args, CliError};
pub use harness::TableWriter;
