//! Dense `f32` tensors and the linear-algebra primitives that a
//! matrix-multiplication based CNN engine needs.
//!
//! This crate is the numerical substrate of the P-CNN reproduction: it
//! provides an NCHW [`Tensor`] type, a blocked row-major [`gemm`]
//! implementation (the CPU stand-in for the GPU SGEMM kernels that the rest
//! of the workspace *models*), and the [`im2col`] lowering that turns a
//! convolution into a matrix multiplication (paper §II.A, Fig. 2).
//!
//! # Example
//!
//! ```
//! use pcnn_tensor::{Tensor, gemm};
//!
//! // C (2x2) = A (2x3) * B (3x2)
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
//! let mut c = Tensor::zeros(vec![2, 2]);
//! gemm(2, 2, 3, a.data(), b.data(), c.data_mut());
//! assert_eq!(c.data(), &[58., 64., 139., 154.]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod conv;
mod error;
mod gemm;
mod im2col;
mod lanes;
mod peaks;
mod tensor;

pub use conv::{
    conv2d, conv2d_direct, conv2d_in, conv2d_sampled, conv2d_sampled_scratch_len,
    conv2d_scratch_len, conv2d_winograd, winograd_block_rows, winograd_coords,
    winograd_error_bound, winograd_scratch_len, winograd_tile, ConvAlgo, WriteBack,
};
pub use error::ShapeError;
pub use gemm::{
    gemm, gemm_bias, gemm_naive, gemm_nt, gemm_tile, gemm_tn, kernel_tier, partition_gemm,
    GemmPartition,
};
pub use im2col::{col2im_accumulate, conv_output_dim, im2col, im2col_positions, Conv2dGeometry};
pub use peaks::{calibrate, MachinePeaks};
pub use tensor::Tensor;
