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
use crate::sim::dispatch::KernelResult;
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

    let mut kernels = Vec::with_capacity(partitions.len());
    let mut seconds: f64 = 0.0;
    let cache = SimCache::new();
    for p in partitions {
        // Run the partition exactly like a PSM launch restricted to its
        // SMs, but with the DRAM share of the full co-running set.
        let occ = Occupancy::of(arch, &p.kernel.resources)
            .ctas_per_sm()
            .max(1);
        let tlp = p.tlp.clamp(1, occ);
        let result = simulate_partition(arch, p.kernel, p.sms, tlp, total_sms, &cache);
        seconds = seconds.max(result.seconds);
        kernels.push(result);
    }

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

/// PSM-style event loop over `sms` SMs with a fixed DRAM-sharing SM count.
fn simulate_partition(
    arch: &GpuArch,
    kernel: &KernelDesc,
    sms: usize,
    tlp: usize,
    bandwidth_sms: usize,
    cache: &SimCache,
) -> KernelResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut waves = cache.waves(arch, kernel, bandwidth_sms);
    let mut resident = vec![0usize; sms];
    let mut remaining = kernel.grid;
    for r in resident.iter_mut() {
        while *r < tlp && remaining > 0 {
            *r += 1;
            remaining -= 1;
        }
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut touched = 0usize;
    for (sm, &r) in resident.iter().enumerate() {
        if r > 0 {
            touched += 1;
            let d = waves.cycles(r);
            for _ in 0..r {
                heap.push(Reverse((d, sm)));
            }
        }
    }
    let mut end = 0u64;
    while let Some(Reverse((t, sm))) = heap.pop() {
        end = end.max(t);
        resident[sm] -= 1;
        if remaining > 0 {
            remaining -= 1;
            resident[sm] += 1;
            let d = waves.cycles(resident[sm]);
            heap.push(Reverse((t + d, sm)));
        }
    }
    let seconds = end as f64 / arch.freq_hz();
    let per_warp = kernel.trace.warp_instr_counts();
    let instr = per_warp.scaled((kernel.warps_per_cta() * kernel.grid) as u64);
    let occ = Occupancy::of(arch, &kernel.resources);
    // Per-partition energy: this partition's SMs over its own window.
    let energy = EnergyModel.compute(arch, &instr, seconds, sms, 0);
    KernelResult {
        cycles: end,
        seconds,
        sms_used: touched,
        tlp,
        max_blocks: occ.max_blocks(arch),
        instr,
        energy,
        flops: kernel.flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::K20C;
    use crate::occupancy::KernelResources;
    use crate::sim::dispatch::{simulate_kernel, DispatchPolicy};
    use crate::sim::trace::{CtaTrace, Op};

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
}
