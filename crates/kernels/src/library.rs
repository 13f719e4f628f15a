//! Kernel-selection and memory policies of the three deep-learning
//! libraries the paper characterizes: cuBLAS (Caffe's default), cuDNN, and
//! Nervana (§III, Tables III and IV).
//!
//! Each library is modelled by (a) which SGEMM tile it launches on each
//! architecture generation — reproducing Table IV — (b) its batch-size
//! constraints (Nervana requires multiples of 32), and (c) its memory
//! workspace behaviour, which determines the out-of-memory cells of
//! Table III (see `pcnn-nn::memory` and `DESIGN.md` §2 for the
//! calibration).

use pcnn_gpu::{GpuArch, Platform};
use pcnn_nn::memory::{estimate, ActivationPrecision, MemoryEstimate, WorkspacePolicy};
use pcnn_nn::spec::NetworkSpec;

use crate::sgemm::{
    SgemmConfig, SgemmShape, SgemmVariant, TILE_128X128, TILE_32X128, TILE_32X32, TILE_64X128,
    TILE_64X64,
};

/// The three characterized libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// cuBLAS, as used by Caffe.
    CuBlas,
    /// cuDNN.
    CuDnn,
    /// Nervana (neon) — the fastest of the three, batch multiple of 32.
    Nervana,
}

impl Library {
    /// All three, in Table III column order.
    pub fn all() -> [Library; 3] {
        [Library::CuBlas, Library::CuDnn, Library::Nervana]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Library::CuBlas => "cuBLAS",
            Library::CuDnn => "cuDNN",
            Library::Nervana => "Nervana",
        }
    }

    /// The smallest batch this library can run (paper §III.C: "the batch
    /// size of Nervana must be a multiple of 32").
    pub fn min_batch(&self) -> usize {
        match self {
            Library::Nervana => 32,
            _ => 1,
        }
    }

    /// Rounds a desired batch up to the library's constraint.
    pub fn legal_batch(&self, batch: usize) -> usize {
        let min = self.min_batch();
        batch.max(1).div_ceil(min) * min
    }

    /// The SGEMM tile this library launches for a GEMM of `shape` on
    /// `arch` (Table IV). Matrix-vector shapes (classifier layers at batch
    /// 1) take the GEMV-style kernel, as all three libraries do.
    pub fn variant_for(&self, arch: &GpuArch, shape: SgemmShape) -> SgemmVariant {
        if shape.n < 32 {
            return crate::sgemm::TILE_64X8;
        }
        let kepler = arch.cores_per_sm >= 192;
        match self {
            Library::CuBlas => {
                if kepler {
                    TILE_64X64
                } else {
                    TILE_64X128
                }
            }
            Library::CuDnn => {
                if arch.platform == Platform::Mobile {
                    TILE_32X32
                } else {
                    TILE_64X64
                }
            }
            Library::Nervana => {
                // Nervana's Maxwell assembler kernels: 128-wide tiles,
                // tile_m chosen by the result matrix's row count.
                if shape.m >= 128 {
                    TILE_128X128
                } else if shape.m >= 64 {
                    TILE_64X128
                } else {
                    TILE_32X128
                }
            }
        }
    }

    /// Full kernel configuration (libraries run their natural register
    /// allocation; only P-CNN's offline compiler tunes registers).
    pub fn config_for(&self, arch: &GpuArch, shape: SgemmShape) -> SgemmConfig {
        SgemmConfig::natural(self.variant_for(arch, shape))
    }

    /// The library's convolution-workspace strategy on a platform
    /// (calibrated against Table III; see `DESIGN.md`).
    pub fn workspace_policy(&self, platform: Platform) -> WorkspacePolicy {
        match (self, platform) {
            // Caffe's cuBLAS path lowers one image at a time.
            (Library::CuBlas, _) => WorkspacePolicy::SingleImageMax,
            // Caffe's cuDNN integration caps per-layer workspace at 8 MB on
            // discrete GPUs; on the unified-memory mobile part the
            // fastest-algorithm preference allocates whole-batch lowering
            // buffers across layers.
            (Library::CuDnn, Platform::Mobile) => WorkspacePolicy::FullBatchSum { factor: 1.0 },
            (Library::CuDnn, _) => WorkspacePolicy::PerLayerCapped {
                cap_bytes: 8 * 1024 * 1024,
            },
            // Nervana pads and double-buffers aggressively on mobile.
            (Library::Nervana, Platform::Mobile) => WorkspacePolicy::FullBatchSum { factor: 0.75 },
            (Library::Nervana, _) => WorkspacePolicy::SingleImageMax,
        }
    }

    /// Activation storage precision (Nervana stores fp16 activations on
    /// desktop-class Maxwell GPUs).
    pub fn activation_precision(&self, platform: Platform) -> ActivationPrecision {
        match (self, platform) {
            (Library::Nervana, Platform::Desktop | Platform::Notebook) => ActivationPrecision::Fp16,
            _ => ActivationPrecision::Fp32,
        }
    }

    /// Memory footprint of running `spec` at `batch` with this library on
    /// `arch`.
    pub fn memory_estimate(
        &self,
        arch: &GpuArch,
        spec: &NetworkSpec,
        batch: usize,
    ) -> MemoryEstimate {
        estimate(
            spec,
            batch,
            self.workspace_policy(arch.platform),
            self.activation_precision(arch.platform),
        )
    }

    /// Whether `spec` at `batch` fits in `arch`'s usable memory — `false`
    /// reproduces an `x` cell of Table III.
    pub fn fits(&self, arch: &GpuArch, spec: &NetworkSpec, batch: usize) -> bool {
        batch.is_multiple_of(self.min_batch())
            && self
                .memory_estimate(arch, spec, batch)
                .fits(arch.usable_mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgemm::build_conv_kernel;
    use pcnn_gpu::arch::{GTX_970M, JETSON_TX1, K20C, TITAN_X};
    use pcnn_gpu::occupancy::Occupancy;
    use pcnn_nn::spec::{alexnet, googlenet, vggnet};

    fn conv2_shape() -> SgemmShape {
        SgemmShape {
            m: 128,
            n: 729,
            k: 1200,
        }
    }

    #[test]
    fn table4_tx1_cublas_kernel() {
        let v = Library::CuBlas.variant_for(&JETSON_TX1, conv2_shape());
        assert_eq!((v.tile_m, v.tile_n), (64, 128));
        assert_eq!(v.natural_regs, 120);
        assert_eq!(v.shmem_bytes, 12544);
        assert_eq!(v.block_size, 128);
    }

    #[test]
    fn table4_tx1_cudnn_kernel() {
        let v = Library::CuDnn.variant_for(&JETSON_TX1, conv2_shape());
        assert_eq!((v.tile_m, v.tile_n), (32, 32));
        assert_eq!(v.natural_regs, 48);
        assert_eq!(v.block_size, 64);
    }

    #[test]
    fn table4_k20_kernels_identical_for_both_libs() {
        let a = Library::CuBlas.variant_for(&K20C, conv2_shape());
        let b = Library::CuDnn.variant_for(&K20C, conv2_shape());
        assert_eq!(a, b);
        assert_eq!((a.tile_m, a.tile_n), (64, 64));
        assert_eq!(a.natural_regs, 79);
        assert_eq!(a.shmem_bytes, 8468);
    }

    #[test]
    fn table4_maxblocks() {
        // TX1 cuBLAS: min(14, 8) = 8; K20: min(65, 39) = 39.
        let v = Library::CuBlas.variant_for(&JETSON_TX1, conv2_shape());
        let occ = Occupancy::of(&JETSON_TX1, &SgemmConfig::natural(v).resources());
        assert_eq!(occ.max_blocks(&JETSON_TX1), 8);
        let v = Library::CuBlas.variant_for(&K20C, conv2_shape());
        let occ = Occupancy::of(&K20C, &SgemmConfig::natural(v).resources());
        assert_eq!(occ.max_blocks(&K20C), 39);
    }

    #[test]
    fn nervana_batch_constraint() {
        assert_eq!(Library::Nervana.legal_batch(1), 32);
        assert_eq!(Library::Nervana.legal_batch(33), 64);
        assert_eq!(Library::CuBlas.legal_batch(1), 1);
    }

    /// Table III's out-of-memory pattern: the batching column.
    #[test]
    fn table3_oom_cells_tx1() {
        let (alex, goog, vgg) = (alexnet(), googlenet(), vggnet());
        // AlexNet batch 128 runs under every library on TX1.
        for lib in Library::all() {
            assert!(lib.fits(&JETSON_TX1, &alex, 128), "{} AlexNet", lib.name());
        }
        // GoogLeNet batch 64: cuBLAS runs, cuDNN and Nervana OOM.
        assert!(Library::CuBlas.fits(&JETSON_TX1, &goog, 64));
        assert!(!Library::CuDnn.fits(&JETSON_TX1, &goog, 64));
        assert!(!Library::Nervana.fits(&JETSON_TX1, &goog, 64));
        // VGG batch 32: cuBLAS runs, cuDNN and Nervana OOM.
        assert!(Library::CuBlas.fits(&JETSON_TX1, &vgg, 32));
        assert!(!Library::CuDnn.fits(&JETSON_TX1, &vgg, 32));
        assert!(!Library::Nervana.fits(&JETSON_TX1, &vgg, 32));
    }

    #[test]
    fn table3_no_oom_on_desktop_and_notebook() {
        for arch in [&TITAN_X, &GTX_970M] {
            for (spec, batch) in [(alexnet(), 128), (googlenet(), 64), (vggnet(), 32)] {
                for lib in Library::all() {
                    assert!(
                        lib.fits(arch, &spec, batch),
                        "{} {} batch {batch} on {}",
                        lib.name(),
                        spec.name,
                        arch.name
                    );
                }
            }
        }
    }

    #[test]
    fn non_batching_vgg_nervana_still_ooms_on_tx1() {
        // Table III non-batching: Nervana's minimum is 32, which already
        // OOMs for VGG on TX1.
        let vgg = vggnet();
        let b = Library::Nervana.legal_batch(1);
        assert!(!Library::Nervana.fits(&JETSON_TX1, &vgg, b));
        // But GoogLeNet at batch 32 fits (paper: 527 ms).
        assert!(Library::Nervana.fits(&JETSON_TX1, &googlenet(), 32));
    }

    #[test]
    fn conv_kernel_has_positive_work() {
        let alex = alexnet();
        let conv2 = alex.conv_layers()[1].clone();
        let config = Library::CuBlas.config_for(&JETSON_TX1, SgemmShape::of_conv(&conv2, 1));
        let k = build_conv_kernel(&JETSON_TX1, &conv2, 1, &config);
        assert_eq!(k.grid, 12); // Table IV
        assert!(k.flops > 0);
        assert!(k.trace.body_iters > 0);
    }
}
