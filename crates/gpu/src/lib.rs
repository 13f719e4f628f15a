//! A cycle-approximate GPU microarchitecture simulator for CNN SGEMM
//! kernels — the stand-in for GPGPU-Sim + GPUWattch in the P-CNN
//! reproduction (paper §V: "Our simulator framework is implemented based on
//! GPGPU-Sim. GPUWattch is used to measure the energy consumption").
//!
//! The simulator has two levels:
//!
//! 1. [`sim::warp`] — a detailed single-SM cycle simulation: warps issue
//!    instructions under a greedy-then-oldest (GTO) scheduler, subject to
//!    per-class issue throughputs (FFMA units, shared-memory ports, DRAM
//!    bandwidth share) and latencies; `__syncthreads` barriers and
//!    outstanding-load fences are modelled. The SGEMM main loop is simulated
//!    for a sample of iterations and extrapolated to the full trip count
//!    (documented sampling — see `DESIGN.md` §5).
//! 2. [`sim::dispatch`] — an event-driven CTA-level simulation across SMs
//!    with pluggable dispatch policies: the hardware Round-Robin scheduler
//!    and the paper's Priority-SM scheduler (§III.C Fig. 7, §IV.C.2),
//!    optionally restricted to `optSM` SMs with the remaining SMs
//!    power-gated.
//!
//! [`energy`] implements a GPUWattch-style decomposition: per-instruction
//! dynamic energy + per-SM leakage (zero for power-gated SMs) + DRAM access
//! energy + constant platform power.

pub mod arch;
pub mod energy;
pub mod metrics;
pub mod occupancy;
pub mod sim;

pub use arch::{GpuArch, Platform};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use metrics::{compute_efficiency, utilization};
pub use occupancy::{KernelResources, Occupancy};
pub use sim::dispatch::{DispatchPolicy, KernelResult};
pub use sim::trace::{CtaTrace, Op};
pub use sim::KernelDesc;
