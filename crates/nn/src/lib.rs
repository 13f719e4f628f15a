//! CNN layers, networks, training, perforation and entropy — the deep
//! learning substrate of the P-CNN reproduction.
//!
//! Two views of a network coexist:
//!
//! * [`spec::NetworkSpec`] — a *shape-level* description (filter counts,
//!   kernel sizes, output maps) of the paper's full-size networks (AlexNet,
//!   VGGNet-16, GoogLeNet). The analytical models, the SGEMM kernel model
//!   and the GPU simulator consume these shapes; no full-size network is
//!   ever executed numerically.
//! * [`network::Network`] — a *runnable* network of [`layer::Layer`]s.
//!   Inference is decided once and then run: [`Network::compile`] turns a
//!   [`PerforationPlan`] (paper Fig. 11) and an optional tuned
//!   [`ConvPlan`] (direct or Winograd per conv layer) into an
//!   [`ExecPlan`], and [`Network::run`] executes it on any batch —
//!   batch-split below the first `Flatten`, bitwise the same at any pool
//!   width. Training has its own forward and a backward pass for SGD. The
//!   accuracy/entropy experiments (Table I, Fig. 16) run small trainable
//!   variants of the three paper networks on a synthetic labelled
//!   dataset, as documented in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use pcnn_nn::spec::alexnet;
//!
//! let net = alexnet();
//! // CONV2 of AlexNet is the grouped 5x5 layer with a 128 x 729 GEMM.
//! let conv2 = &net.conv_layers()[1];
//! assert_eq!(conv2.gemm_shape(1), (128, 729, 1200));
//! ```

pub mod entropy;
mod error;
pub mod layer;
pub mod memory;
pub mod models;
pub mod network;
pub mod perforation;
pub mod plan;
pub mod spec;
pub mod train;

pub use error::NnError;
pub use layer::Layer;
pub use network::{ExecPlan, Network};
pub use perforation::PerforationPlan;
pub use plan::ConvPlan;
