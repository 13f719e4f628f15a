//! One-stop imports for the common P-CNN workflow.
//!
//! The bench binaries, examples and downstream crates (`pcnn-serve`)
//! import from here instead of memorising which module owns which item:
//!
//! ```no_run
//! use pcnn_core::prelude::*;
//! use pcnn_gpu::arch::K20C;
//! use pcnn_nn::spec::alexnet;
//!
//! let spec = alexnet();
//! let app = AppSpec::age_detection();
//! let req = UserRequirements::infer(&app);
//! let schedule = OfflineCompiler::new(&K20C, &spec)
//!     .try_compile(&app, &req)
//!     .unwrap();
//! let cost = simulate_schedule(&K20C, &schedule);
//! println!("{:.2} ms", cost.seconds * 1e3);
//! ```

pub use crate::calibration::{CalibratedPipeline, CalibratedStep};
pub use crate::error::{Error, Result};
pub use crate::offline::{library_schedule, LayerPlan, OfflineCompiler, Schedule};
pub use crate::runtime::{execute_trace, simulate_schedule, ExecutionReport, NetworkCost};
pub use crate::scheduler::{
    decide, evaluate, scenario_trace, Decision, Evaluation, SchedulerContext, SchedulerKind,
};
pub use crate::soc::{score, soc_accuracy, soc_time, Soc, SocInputs};
pub use crate::task::{AppSpec, UserRequirements};
pub use crate::tuning::{AccuracyTuner, TuningEntry, TuningPath};
