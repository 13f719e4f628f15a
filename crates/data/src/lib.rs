//! Synthetic labelled image data and inference request workloads.
//!
//! The paper evaluates on ImageNet images and three application scenarios
//! (age detection, video surveillance, image tagging). We have neither
//! ImageNet nor users, so this crate provides:
//!
//! * [`dataset`] — a generator of labelled images built from smooth class
//!   prototypes plus noise. Classes are genuinely separable but not
//!   trivially so (controlled by the noise level), so trained accuracy is
//!   meaningful, perforation degrades it smoothly, and output entropy
//!   tracks accuracy — the three properties the paper's accuracy
//!   experiments rely on.
//! * [`workload`] — the three task classes of §II.B (interactive,
//!   real-time, background).
//! * [`spec`] — their deterministic request-arrival processes as lazy
//!   specifications ([`TraceSpec`]), generated one arrival at a time so a
//!   server can stream million-request scenarios in O(1) memory.

pub mod dataset;
pub mod spec;
pub mod workload;

pub use dataset::{Dataset, DatasetBuilder};
pub use spec::{ArrivalIter, TraceSpec};
pub use workload::WorkloadKind;
