//! Spatial multitasking: concurrent kernels on disjoint SM partitions.
//!
//! §III.D.2 of the paper discusses why MPS-style sharing cannot guarantee
//! run-time for time-sensitive CNNs and why spatial partitioning
//! (Adriaens et al. [22], Liang et al. [20]) needs per-layer `Util`
//! awareness. This module implements the mechanism P-CNN's released SMs
//! enable: each kernel receives an exclusive, contiguous set of SMs and
//! runs its CTAs only there, while DRAM bandwidth is shared by every
//! active partition.

use crate::arch::GpuArch;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::occupancy::Occupancy;
use crate::sim::dispatch::{
    initial_residents, launch_shape, run_ctas, DispatchPolicy, KernelResult,
};
use crate::sim::{KernelDesc, SimCache};

/// One tenant of a spatial-multitasking launch.
#[derive(Debug, Clone)]
pub struct Partition<'a> {
    /// The kernel to run.
    pub kernel: &'a KernelDesc,
    /// Number of SMs dedicated to it.
    pub sms: usize,
    /// Resident-CTA cap per SM (clamped to occupancy).
    pub tlp: usize,
}

/// Result of a concurrent launch: per-kernel results plus the combined
/// window energy.
#[derive(Debug, Clone)]
pub struct MultitaskResult {
    /// Per-partition kernel results, in input order. Each partition's
    /// leakage/constant energy covers only its own busy window; the
    /// combined accounting lives in `energy`.
    pub kernels: Vec<KernelResult>,
    /// End-to-end seconds (the slowest partition).
    pub seconds: f64,
    /// Whole-launch energy: dynamic energy of every kernel, leakage of
    /// every powered SM over the full window, gated residual for the
    /// rest, one constant-power term.
    pub energy: EnergyBreakdown,
}

/// Simulates `partitions` concurrently on disjoint SM sets.
///
/// DRAM bandwidth is shared: every kernel sees an `active_sms` equal to
/// the *total* powered SM count, so each SM's bandwidth share reflects all
/// co-runners (first-order contention, same model as single-kernel runs).
/// SMs not belonging to any partition are power-gated when `gate_unused`.
///
/// # Panics
///
/// Panics if no partitions are given, any partition is empty, or the SM
/// counts exceed the architecture.
pub fn simulate_concurrent(
    arch: &GpuArch,
    partitions: &[Partition<'_>],
    gate_unused: bool,
) -> MultitaskResult {
    assert!(!partitions.is_empty(), "need at least one partition");
    let total_sms: usize = partitions.iter().map(|p| p.sms).sum();
    assert!(
        total_sms <= arch.n_sms,
        "partitions need {total_sms} SMs, architecture has {}",
        arch.n_sms
    );
    for p in partitions {
        assert!(p.sms > 0, "empty partition for {}", p.kernel.name);
        assert!(p.kernel.grid > 0, "empty grid for {}", p.kernel.name);
    }

    // Each partition runs like an ungated PSM launch on its own SMs, but
    // with the DRAM share of the whole co-running set; its energy is its
    // own SMs over its own window.
    let cache = SimCache::new();
    let kernels: Vec<KernelResult> = partitions
        .iter()
        .map(|p| {
            let policy = DispatchPolicy::PrioritySm {
                sms: p.sms,
                tlp: p.tlp,
                power_gate: false,
            };
            let occ = Occupancy::of(arch, &p.kernel.resources);
            let (_, tlp, _) = launch_shape(arch, occ.ctas_per_sm().max(1), policy);
            let resident = initial_residents(arch, p.kernel, policy);
            let sms_used = resident.iter().filter(|&&r| r > 0).count();
            let mut waves = cache.waves(arch, p.kernel, total_sms);
            let (cycles, _) = run_ctas(&mut waves, resident, p.kernel.grid);
            let seconds = cycles as f64 / arch.freq_hz();
            let per_warp = p.kernel.trace.warp_instr_counts();
            let instr = per_warp.scaled((p.kernel.warps_per_cta() * p.kernel.grid) as u64);
            KernelResult {
                cycles,
                seconds,
                sms_used,
                tlp,
                max_blocks: occ.max_blocks(arch),
                instr,
                energy: EnergyModel.compute(arch, &instr, seconds, p.sms, 0),
                flops: p.kernel.flops,
            }
        })
        .collect();
    let seconds = kernels.iter().map(|k| k.seconds).fold(0.0, f64::max);

    // Combined energy over the slowest partition's window.
    let mut dynamic = EnergyBreakdown::default();
    for k in &kernels {
        dynamic.dynamic_j += k.energy.dynamic_j;
        dynamic.dram_j += k.energy.dram_j;
    }
    let gated = if gate_unused {
        arch.n_sms - total_sms
    } else {
        0
    };
    let powered = arch.n_sms - gated;
    let window = EnergyModel.compute(
        arch,
        &crate::sim::trace::InstrCounts::default(),
        seconds,
        powered,
        gated,
    );
    let energy = EnergyBreakdown {
        dynamic_j: dynamic.dynamic_j,
        dram_j: dynamic.dram_j,
        leakage_j: window.leakage_j,
        constant_j: window.constant_j,
    };
    MultitaskResult {
        kernels,
        seconds,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::K20C;
    use crate::occupancy::KernelResources;
    use crate::sim::dispatch::simulate_kernel;
    use crate::sim::trace::{CtaTrace, Op};
    use proptest::prelude::*;

    fn kernel(grid: usize, name: &str) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            grid,
            resources: KernelResources {
                block_size: 128,
                regs_per_thread: 48,
                shmem_per_block: 4096,
            },
            trace: CtaTrace {
                prologue: vec![(Op::Ialu, 8), (Op::Ldg, 4), (Op::WaitMem, 1)],
                body: vec![(Op::Ldg, 2), (Op::Lds, 8), (Op::Ffma, 48), (Op::Bar, 1)],
                body_iters: 24,
                epilogue: vec![(Op::Stg, 4)],
            },
            flops: grid as u64 * 1_000_000,
        }
    }

    #[test]
    fn two_tenants_complete_all_work() {
        let (ka, kb) = (kernel(12, "a"), kernel(20, "b"));
        let r = simulate_concurrent(
            &K20C,
            &[
                Partition {
                    kernel: &ka,
                    sms: 6,
                    tlp: 2,
                },
                Partition {
                    kernel: &kb,
                    sms: 7,
                    tlp: 2,
                },
            ],
            false,
        );
        assert_eq!(r.kernels.len(), 2);
        let pa = ka
            .trace
            .warp_instr_counts()
            .scaled((ka.warps_per_cta() * ka.grid) as u64);
        assert_eq!(r.kernels[0].instr, pa);
        assert!(r.seconds >= r.kernels[0].seconds.max(r.kernels[1].seconds) - 1e-12);
    }

    #[test]
    fn colocation_is_slower_than_solo_but_finishes_both() {
        let k = kernel(26, "x");
        // Solo on all 13 SMs.
        let cache = SimCache::new();
        let solo = simulate_kernel(&K20C, &k, DispatchPolicy::RoundRobin, &cache);
        // Two copies side by side on 6+7 SMs.
        let r = simulate_concurrent(
            &K20C,
            &[
                Partition {
                    kernel: &k,
                    sms: 6,
                    tlp: 4,
                },
                Partition {
                    kernel: &k,
                    sms: 7,
                    tlp: 4,
                },
            ],
            false,
        );
        // Each copy has fewer SMs than solo, so it takes at least as long...
        assert!(r.seconds >= solo.seconds * 0.9);
        // ...but both finish within a reasonable factor (spatial sharing
        // works).
        assert!(
            r.seconds < solo.seconds * 4.0,
            "{} vs {}",
            r.seconds,
            solo.seconds
        );
    }

    #[test]
    fn gating_unused_sms_cuts_leakage() {
        let k = kernel(4, "small");
        let gated = simulate_concurrent(
            &K20C,
            &[Partition {
                kernel: &k,
                sms: 2,
                tlp: 2,
            }],
            true,
        );
        let ungated = simulate_concurrent(
            &K20C,
            &[Partition {
                kernel: &k,
                sms: 2,
                tlp: 2,
            }],
            false,
        );
        assert!(gated.energy.leakage_j < ungated.energy.leakage_j);
        assert!((gated.energy.dynamic_j - ungated.energy.dynamic_j).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "partitions need")]
    fn rejects_oversubscription() {
        let k = kernel(4, "big");
        simulate_concurrent(
            &K20C,
            &[
                Partition {
                    kernel: &k,
                    sms: 10,
                    tlp: 2,
                },
                Partition {
                    kernel: &k,
                    sms: 10,
                    tlp: 2,
                },
            ],
            false,
        );
    }

    #[test]
    fn bandwidth_is_shared_across_partitions() {
        // A memory-heavy kernel on few SMs: co-running with a second
        // partition (same total SMs powered) must not be faster than
        // running with the whole chip's bandwidth to itself.
        let k = kernel(6, "mem");
        let alone = simulate_concurrent(
            &K20C,
            &[Partition {
                kernel: &k,
                sms: 3,
                tlp: 2,
            }],
            true,
        );
        let shared = simulate_concurrent(
            &K20C,
            &[
                Partition {
                    kernel: &k,
                    sms: 3,
                    tlp: 2,
                },
                Partition {
                    kernel: &k,
                    sms: 10,
                    tlp: 2,
                },
            ],
            true,
        );
        assert!(shared.kernels[0].seconds >= alone.kernels[0].seconds);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A lone partition is an ungated PSM launch on its SMs: every
        /// field equals `simulate_kernel`'s except the energy, which covers
        /// only the partition's own SMs — and so equals it too when the
        /// partition is the whole chip.
        #[test]
        fn one_partition_is_an_ungated_psm_launch(
            grid in 1usize..80,
            sms in 1usize..K20C.n_sms + 1,
            tlp in 1usize..10,
        ) {
            let k = kernel(grid, "solo");
            let r = simulate_concurrent(&K20C, &[Partition { kernel: &k, sms, tlp }], false);
            let policy = DispatchPolicy::PrioritySm { sms, tlp, power_gate: false };
            let want = simulate_kernel(&K20C, &k, policy, &SimCache::new());
            let got = &r.kernels[0];
            prop_assert_eq!(
                &KernelResult { energy: want.energy, ..got.clone() },
                &want
            );
            if sms == K20C.n_sms {
                prop_assert_eq!(got.energy, want.energy);
            }
        }
    }
}
