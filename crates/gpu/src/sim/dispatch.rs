//! Event-driven CTA dispatch across SMs.
//!
//! Implements the hardware Round-Robin CTA scheduler and the paper's
//! Priority-SM scheduler (§III.C Fig. 7): PSM packs `optTLP` CTAs onto the
//! first SM, then the second, using only `optSM` SMs so the rest can be
//! power-gated (§IV.C.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arch::GpuArch;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::metrics::{compute_efficiency, utilization};
use crate::occupancy::Occupancy;
use crate::sim::trace::InstrCounts;
use crate::sim::{KernelDesc, SimCache, Waves};

/// CTA dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Hardware behaviour: CTAs spread round-robin over all SMs, each SM
    /// filled up to the occupancy limit; all SMs stay powered.
    RoundRobin,
    /// Priority-SM: pack `tlp` CTAs per SM onto at most `sms` SMs; unused
    /// SMs are power-gated when `power_gate` is set.
    PrioritySm {
        /// SMs to use (`optSM`); clamped to the architecture's SM count.
        sms: usize,
        /// CTAs per SM (`optTLP`); clamped to the occupancy limit.
        tlp: usize,
        /// Power-gate the unused SMs.
        power_gate: bool,
    },
}

/// Result of simulating one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// End-to-end cycles.
    pub cycles: u64,
    /// End-to-end seconds.
    pub seconds: f64,
    /// SMs that executed at least one CTA.
    pub sms_used: usize,
    /// Resident-CTA cap per SM that was in force.
    pub tlp: usize,
    /// Chip-wide `maxBlocks` for this kernel (occupancy x all SMs).
    pub max_blocks: usize,
    /// Warp-instruction counts of the whole launch.
    pub instr: InstrCounts,
    /// Energy decomposition over the launch window.
    pub energy: EnergyBreakdown,
    /// Useful FLOPs of the launch.
    pub flops: u64,
}

impl KernelResult {
    /// Paper eq. 3 `cpE` for this launch.
    pub fn cpe(&self, arch: &GpuArch) -> f64 {
        compute_efficiency(arch, self.flops, self.seconds)
    }

    /// Paper eq. 6 `Util` for this launch (grid vs the chip-wide
    /// occupancy-limited `maxBlocks`).
    pub fn util(&self, grid: usize) -> f64 {
        utilization(grid, self.max_blocks)
    }

    /// Achieved throughput in FLOP/s.
    pub fn throughput(&self) -> f64 {
        self.flops as f64 / self.seconds
    }
}

/// The SMs a launch uses, its resident-CTA cap and its gated SMs, after
/// clamping `policy` to the architecture and the kernel's occupancy.
fn launch_shape(arch: &GpuArch, occ_tlp: usize, policy: DispatchPolicy) -> (usize, usize, usize) {
    match policy {
        DispatchPolicy::RoundRobin => (arch.n_sms, occ_tlp, 0),
        DispatchPolicy::PrioritySm {
            sms,
            tlp,
            power_gate,
        } => {
            let sms = sms.clamp(1, arch.n_sms);
            let tlp = tlp.clamp(1, occ_tlp);
            let gated = if power_gate { arch.n_sms - sms } else { 0 };
            (sms, tlp, gated)
        }
    }
}

/// The initial fill of a launch: one resident-CTA count per SM it uses,
/// so the length is the launch's active-SM count. RR deals one CTA per SM
/// in turn; PSM fills an SM to its TLP before moving on (paper Fig. 7).
///
/// A finished CTA is replaced on its own SM while CTAs remain, which puts
/// that SM back at its initial count, so `(count, len)` over the nonzero
/// counts are the only waves [`simulate_kernel`] looks up for this launch:
/// simulating exactly those first leaves it nothing to miss.
///
/// # Panics
///
/// Panics if the kernel has an empty grid.
pub fn initial_residents(
    arch: &GpuArch,
    kernel: &KernelDesc,
    policy: DispatchPolicy,
) -> Vec<usize> {
    assert!(kernel.grid > 0, "empty grid");
    let occ_tlp = Occupancy::of(arch, &kernel.resources).ctas_per_sm().max(1);
    let (sms, tlp, _) = launch_shape(arch, occ_tlp, policy);
    let mut resident = vec![0usize; sms];
    let mut remaining = kernel.grid;
    match policy {
        DispatchPolicy::RoundRobin => 'fill: loop {
            let mut assigned = false;
            for r in resident.iter_mut() {
                if remaining == 0 {
                    break 'fill;
                }
                if *r < tlp {
                    *r += 1;
                    remaining -= 1;
                    assigned = true;
                }
            }
            if !assigned {
                break;
            }
        },
        DispatchPolicy::PrioritySm { .. } => {
            for r in resident.iter_mut() {
                while *r < tlp && remaining > 0 {
                    *r += 1;
                    remaining -= 1;
                }
            }
        }
    }
    resident
}

/// Simulates one kernel launch under `policy`. Wave durations come from
/// `cache`, which may be shared with any other launch on any architecture.
///
/// # Panics
///
/// Panics if the kernel has an empty grid or zero-sized blocks.
pub fn simulate_kernel(
    arch: &GpuArch,
    kernel: &KernelDesc,
    policy: DispatchPolicy,
    cache: &SimCache,
) -> KernelResult {
    let occ = Occupancy::of(arch, &kernel.resources);
    let telem = pcnn_telemetry::enabled();
    let (sms, tlp, gated) = launch_shape(arch, occ.ctas_per_sm().max(1), policy);

    let _span = pcnn_telemetry::span!(
        "sim.kernel",
        name = kernel.name.as_str(),
        grid = kernel.grid,
        sms = sms,
        tlp = tlp,
        gated = gated
    );

    let resident = initial_residents(arch, kernel, policy);
    let sms_used = resident.iter().filter(|&&r| r > 0).count();
    let mut waves = cache.waves(arch, kernel, sms);
    let (end, sm_end) = run_ctas(&mut waves, resident, kernel.grid);

    let seconds = end as f64 / arch.freq_hz();
    let per_warp = kernel.trace.warp_instr_counts();
    let instr = per_warp.scaled((kernel.warps_per_cta() * kernel.grid) as u64);
    let powered = arch.n_sms - gated;
    let energy = EnergyModel.compute(arch, &instr, seconds, powered, gated);
    if telem {
        let mut m = pcnn_telemetry::Metrics::default();
        m.add("sim.kernel.launches", 1);
        m.add("sim.kernel.ctas", kernel.grid as u64);
        m.add("sim.kernel.gated_sms", gated as u64);
        m.observe("sim.kernel.sms_used", sms_used as f64);
        m.observe("sim.kernel.seconds", seconds);
        pcnn_telemetry::merge_metrics(&m);
        // One busy slice per touched SM on the shared simulated-time axis:
        // this launch reserves [base, base + end) and each SM shows busy
        // from the launch start to its last CTA completion.
        let to_us = 1e6 / arch.freq_hz();
        let base = pcnn_telemetry::sim_window(end as f64 * to_us);
        for (sm, &e) in sm_end.iter().enumerate() {
            if let Some(e) = e {
                pcnn_telemetry::sim_slice(&kernel.name, sm as u64, base, e as f64 * to_us);
            }
        }
    }
    KernelResult {
        cycles: end,
        seconds,
        sms_used,
        tlp,
        max_blocks: occ.max_blocks(arch),
        instr,
        energy,
        flops: kernel.flops,
    }
}

/// The CTA event loop every launch drains through: each SM's initial
/// residents start at cycle 0 and each runs for a wave at its SM's
/// resident count; a finished CTA is replaced on its own SM while any of
/// the grid's CTAs remain.
///
/// Returns the last completion cycle and, per SM, its last completion
/// (`None` for an SM that ran nothing).
fn run_ctas(
    waves: &mut Waves<'_>,
    mut resident: Vec<usize>,
    grid: usize,
) -> (u64, Vec<Option<u64>>) {
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut remaining = grid - resident.iter().sum::<usize>();
    let mut sm_end = vec![None; resident.len()];
    for (sm, &r) in resident.iter().enumerate() {
        if r > 0 {
            sm_end[sm] = Some(0);
            let d = waves.cycles(r);
            for _ in 0..r {
                heap.push(Reverse((d, sm)));
            }
        }
    }
    let mut end = 0u64;
    while let Some(Reverse((t, sm))) = heap.pop() {
        end = end.max(t);
        sm_end[sm] = sm_end[sm].max(Some(t));
        resident[sm] -= 1;
        if remaining > 0 {
            remaining -= 1;
            resident[sm] += 1;
            let d = waves.cycles(resident[sm]);
            heap.push(Reverse((t + d, sm)));
        }
    }
    (end, sm_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::K20C;
    use crate::occupancy::KernelResources;
    use crate::sim::trace::{CtaTrace, Op};
    use proptest::prelude::*;

    fn kernel(grid: usize) -> KernelDesc {
        KernelDesc {
            name: "t".into(),
            grid,
            resources: KernelResources {
                block_size: 128,
                regs_per_thread: 64,
                shmem_per_block: 8192,
            },
            trace: CtaTrace {
                prologue: vec![(Op::Ialu, 8), (Op::Ldg, 4), (Op::WaitMem, 1)],
                body: vec![(Op::Ldg, 4), (Op::Lds, 8), (Op::Ffma, 64), (Op::Bar, 1)],
                body_iters: 32,
                epilogue: vec![(Op::Stg, 8)],
            },
            // Useful FLOPs consistent with the trace: 32 iters x 64 FFMA x
            // 4 warps x 32 lanes x 2 FLOPs per CTA.
            flops: 2 * 32 * 64 * 4 * 32 * grid as u64,
        }
    }

    #[test]
    fn all_ctas_complete() {
        let k = kernel(50);
        let cache = SimCache::new();
        let r = simulate_kernel(&K20C, &k, DispatchPolicy::RoundRobin, &cache);
        assert!(r.cycles > 0);
        assert!(r.seconds > 0.0);
        // Instruction counts cover the full grid.
        let per_warp = k.trace.warp_instr_counts();
        assert_eq!(r.instr.ffma, per_warp.ffma * 4 * 50);
    }

    #[test]
    fn psm_uses_fewer_sms_for_small_grids() {
        // 4 CTAs, PSM tlp 2 -> 2 SMs; RR spreads to 4 SMs.
        let k = kernel(4);
        let cache = SimCache::new();
        let rr = simulate_kernel(&K20C, &k, DispatchPolicy::RoundRobin, &cache);
        let psm = simulate_kernel(
            &K20C,
            &k,
            DispatchPolicy::PrioritySm {
                sms: 2,
                tlp: 2,
                power_gate: true,
            },
            &cache,
        );
        assert_eq!(rr.sms_used, 4);
        assert_eq!(psm.sms_used, 2);
        // Fig. 7's point: nearly the same performance with half the SMs.
        assert!(psm.seconds < rr.seconds * 2.5);
        // And lower leakage energy thanks to gating.
        assert!(psm.energy.leakage_j < rr.energy.leakage_j);
    }

    #[test]
    fn bigger_grid_takes_longer() {
        let cache = SimCache::new();
        let small = simulate_kernel(&K20C, &kernel(10), DispatchPolicy::RoundRobin, &cache);
        let big = simulate_kernel(&K20C, &kernel(200), DispatchPolicy::RoundRobin, &cache);
        assert!(big.cycles > small.cycles);
    }

    #[test]
    fn rr_on_full_grid_uses_all_sms() {
        let cache = SimCache::new();
        let r = simulate_kernel(&K20C, &kernel(100), DispatchPolicy::RoundRobin, &cache);
        assert_eq!(r.sms_used, K20C.n_sms);
    }

    #[test]
    fn util_matches_eq6() {
        let k = kernel(20);
        let cache = SimCache::new();
        let r = simulate_kernel(&K20C, &k, DispatchPolicy::RoundRobin, &cache);
        let util = r.util(k.grid);
        assert!(util > 0.0 && util <= 1.0);
    }

    #[test]
    fn cpe_below_one() {
        let cache = SimCache::new();
        let r = simulate_kernel(&K20C, &kernel(100), DispatchPolicy::RoundRobin, &cache);
        let cpe = r.cpe(&K20C);
        assert!(cpe > 0.0 && cpe < 1.0, "cpe {cpe}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The initial fill is a launch's whole wave set: warming exactly
        /// its nonzero counts leaves the launch nothing to simulate.
        #[test]
        fn warming_the_initial_residents_leaves_no_miss(
            grid in 1usize..200,
            sms in 1usize..20,
            tlp in 1usize..10,
            psm in any::<bool>(),
        ) {
            let k = kernel(grid);
            let policy = if psm {
                DispatchPolicy::PrioritySm { sms, tlp, power_gate: true }
            } else {
                DispatchPolicy::RoundRobin
            };
            let resident = initial_residents(&K20C, &k, policy);
            let occ = Occupancy::of(&K20C, &k.resources).ctas_per_sm().max(1);
            let (n, cap) = if psm {
                (sms.min(K20C.n_sms), tlp.min(occ))
            } else {
                (K20C.n_sms, occ)
            };
            prop_assert_eq!(resident.len(), n);
            prop_assert_eq!(resident.iter().sum::<usize>(), grid.min(n * cap));
            let cache = SimCache::new();
            let mut waves = cache.waves(&K20C, &k, resident.len());
            let mut listed: Vec<usize> = resident.iter().copied().filter(|&r| r > 0).collect();
            listed.sort_unstable();
            listed.dedup();
            for &r in &listed {
                waves.cycles(r);
            }
            drop(waves);
            prop_assert_eq!(cache.misses(), listed.len() as u64);
            simulate_kernel(&K20C, &k, policy, &cache);
            prop_assert_eq!(cache.misses(), listed.len() as u64);
        }
    }
}
