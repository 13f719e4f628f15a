//! Property-based tests of the GPU substrate's invariants.

use pcnn_gpu::arch::{GpuArch, JETSON_TX1, K20C, TITAN_X};
use pcnn_gpu::metrics::utilization;
use pcnn_gpu::occupancy::{KernelResources, Occupancy};
use pcnn_gpu::sim::dispatch::simulate_kernel;
use pcnn_gpu::sim::trace::{CtaTrace, Op};
use pcnn_gpu::sim::{KernelDesc, SimCache};
use pcnn_gpu::{DispatchPolicy, EnergyModel};
use proptest::prelude::*;

fn arch_strategy() -> impl Strategy<Value = &'static GpuArch> {
    prop_oneof![Just(&K20C), Just(&TITAN_X), Just(&JETSON_TX1)]
}

fn toy_kernel(grid: usize, block_size: usize, regs: usize, iters: u32) -> KernelDesc {
    KernelDesc {
        name: "prop".into(),
        grid,
        resources: KernelResources {
            block_size,
            regs_per_thread: regs,
            shmem_per_block: 2048,
        },
        trace: CtaTrace {
            prologue: vec![(Op::Ialu, 4), (Op::Ldg, 2), (Op::WaitMem, 1)],
            body: vec![(Op::Ldg, 2), (Op::Lds, 4), (Op::Ffma, 24), (Op::Bar, 1)],
            body_iters: iters,
            epilogue: vec![(Op::Stg, 2)],
        },
        flops: 24 * 32 * iters as u64 * (block_size as u64 / 32) * 2 * grid as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Occupancy never increases when any resource demand grows.
    #[test]
    fn occupancy_antitone_in_demand(
        arch in arch_strategy(),
        block in prop_oneof![Just(64usize), Just(128), Just(256)],
        regs in 16usize..128,
        shmem in 0usize..32768,
    ) {
        let base = KernelResources { block_size: block, regs_per_thread: regs, shmem_per_block: shmem };
        let o1 = Occupancy::of(arch, &base).ctas_per_sm();
        for bumped in [
            KernelResources { regs_per_thread: regs + 8, ..base },
            KernelResources { shmem_per_block: shmem + 4096, ..base },
            KernelResources { block_size: block * 2, ..base },
        ] {
            let o2 = Occupancy::of(arch, &bumped).ctas_per_sm();
            prop_assert!(o2 <= o1, "occupancy rose {o1} -> {o2} for {bumped:?}");
        }
    }

    /// Util is in (0, 1] and equals 1 exactly on full waves.
    #[test]
    fn util_bounds(grid in 1usize..500, max_blocks in 1usize..100) {
        let u = utilization(grid, max_blocks);
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
        if grid % max_blocks == 0 {
            prop_assert!((u - 1.0).abs() < 1e-12);
        }
    }

    /// Every CTA executes exactly once: the launch's instruction counts are
    /// the per-warp counts x warps x grid, under either dispatcher.
    #[test]
    fn dispatch_conserves_work(
        arch in arch_strategy(),
        grid in 1usize..40,
        iters in 1u32..20,
        psm_sms in 1usize..8,
        psm_tlp in 1usize..6,
    ) {
        let k = toy_kernel(grid, 64, 32, iters);
        let per_warp = k.trace.warp_instr_counts();
        let expected = per_warp.scaled((k.warps_per_cta() * grid) as u64);
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::PrioritySm { sms: psm_sms, tlp: psm_tlp, power_gate: true },
        ] {
            let cache = SimCache::new();
            let r = simulate_kernel(arch, &k, policy, &cache);
            prop_assert_eq!(r.instr, expected);
            prop_assert!(r.cycles > 0);
            prop_assert!(r.seconds > 0.0);
        }
    }

    /// One cache shared by launches of different kernels, policies and
    /// architectures, visited in a shuffled order, returns exactly what a
    /// fresh cache per launch returns (cycles, counts and f64 energy).
    #[test]
    fn shared_cache_equals_fresh_caches(
        launches in prop::collection::vec(
            ((arch_strategy(), 1usize..40, 1u32..20, 8u32..40), (any::<bool>(), 1usize..8, 1usize..6)),
            2..8,
        ),
        shuffle in any::<u64>(),
    ) {
        let launches: Vec<_> = launches
            .iter()
            .map(|&((arch, grid, iters, ffma), (psm, sms, tlp))| {
                let mut k = toy_kernel(grid, 64, 32, iters);
                k.trace.body[2] = (Op::Ffma, ffma);
                let policy = if psm {
                    DispatchPolicy::PrioritySm { sms, tlp, power_gate: true }
                } else {
                    DispatchPolicy::RoundRobin
                };
                (arch, k, policy)
            })
            .collect();
        let fresh: Vec<_> = launches
            .iter()
            .map(|(arch, k, policy)| simulate_kernel(arch, k, *policy, &SimCache::new()))
            .collect();
        // Fisher-Yates driven by the generated seed.
        let mut order: Vec<usize> = (0..launches.len()).collect();
        let mut state = shuffle;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shared = SimCache::new();
        for _pass in 0..2 {
            for &i in &order {
                let (arch, k, policy) = &launches[i];
                prop_assert_eq!(&simulate_kernel(arch, k, *policy, &shared), &fresh[i]);
            }
        }
    }

    /// Simulated time is monotone (weakly) in the grid size.
    #[test]
    fn time_monotone_in_grid(arch in arch_strategy(), grid in 1usize..30, extra in 1usize..30) {
        let cache = SimCache::new();
        let small = simulate_kernel(arch, &toy_kernel(grid, 64, 32, 8), DispatchPolicy::RoundRobin, &cache);
        let large = simulate_kernel(arch, &toy_kernel(grid + extra, 64, 32, 8), DispatchPolicy::RoundRobin, &cache);
        prop_assert!(large.cycles >= small.cycles, "{} < {}", large.cycles, small.cycles);
    }

    /// Energy components are non-negative and gating never increases
    /// leakage.
    #[test]
    fn energy_sane(arch in arch_strategy(), grid in 1usize..20) {
        let k = toy_kernel(grid, 64, 32, 8);
        let cache = SimCache::new();
        let rr = simulate_kernel(arch, &k, DispatchPolicy::RoundRobin, &cache);
        let psm = simulate_kernel(
            arch,
            &k,
            DispatchPolicy::PrioritySm { sms: 1, tlp: 4, power_gate: true },
            &cache,
        );
        for e in [&rr.energy, &psm.energy] {
            prop_assert!(e.dynamic_j >= 0.0 && e.leakage_j >= 0.0);
            prop_assert!(e.dram_j >= 0.0 && e.constant_j >= 0.0);
        }
        // Same dynamic work under both dispatchers.
        prop_assert!((rr.energy.dynamic_j - psm.energy.dynamic_j).abs() < 1e-12);
        // Gated leakage power is strictly below all-on power.
        let rr_leak_w = rr.energy.leakage_j / rr.seconds;
        let psm_leak_w = psm.energy.leakage_j / psm.seconds;
        prop_assert!(psm_leak_w < rr_leak_w, "{psm_leak_w} !< {rr_leak_w}");
    }

    /// Idle energy scales linearly with time.
    #[test]
    fn idle_energy_linear(arch in arch_strategy(), secs in 0.01f64..10.0) {
        let one = EnergyModel.idle(arch, secs, 0).total_j();
        let two = EnergyModel.idle(arch, 2.0 * secs, 0).total_j();
        prop_assert!((two - 2.0 * one).abs() < 1e-9 * two.max(1.0));
    }
}
