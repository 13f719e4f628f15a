//! Coordinated fine-tuning of sub-matrix size and registers per thread
//! (paper §IV.B.2, Fig. 9, eq. 10).

use pcnn_gpu::occupancy::Occupancy;
use pcnn_gpu::GpuArch;

use crate::sgemm::{
    effective_computation, grid_size, n_invocations, SgemmConfig, SgemmShape, SgemmVariant,
    ALL_TILES,
};
use crate::spill::SpillPlan;

/// One pruned design point on the TLP staircase of Fig. 9: within a stair
/// (fixed TLP) the rightmost point — the one using the most registers —
/// dominates, so only those are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StairPoint {
    /// Registers per thread at this point.
    pub regs: usize,
    /// Resident CTAs per SM this register count permits.
    pub tlp: usize,
}

/// Minimum useful registers per thread: the register file divided by the
/// maximum thread count (below this, registers are no longer the occupancy
/// limiter — §IV.B.2's `minReg`).
pub fn min_regs(arch: &GpuArch) -> usize {
    (arch.regs_per_sm / arch.max_threads_per_sm).max(16)
}

/// The pruned TLP staircase for a tile variant: for every achievable TLP,
/// the maximum register count that still achieves it (Fig. 9's red
/// points), from `curReg` down to `minReg`.
///
/// Like the paper's eq. 5 and Fig. 9, the staircase considers the
/// *register* limit (with thread/CTA-slot caps); shared memory is handled
/// separately by the tuner, which clamps each point to the full occupancy.
pub fn tlp_stairs(arch: &GpuArch, variant: &SgemmVariant) -> Vec<StairPoint> {
    let lo = min_regs(arch);
    let hi = variant.natural_regs;
    let mut stairs: Vec<StairPoint> = Vec::new();
    for regs in (lo..=hi).rev() {
        let mut res = SgemmConfig::natural(*variant).resources();
        res.regs_per_thread = regs;
        res.shmem_per_block = 0; // register-driven staircase (eq. 5)
        let occ = Occupancy::of(arch, &res);
        let tlp = occ.by_registers.min(occ.by_threads).min(occ.by_cta_slots);
        if tlp == 0 {
            continue;
        }
        match stairs.last() {
            Some(last) if last.tlp >= tlp => {}
            _ => stairs.push(StairPoint { regs, tlp }),
        }
    }
    stairs
}

/// The effective selection score (smaller is better): an analytic estimate
/// of the kernel's execution cycles combining the three penalties of
/// eq. 10 in non-degenerate form (the literal `(1 - rEC) x Spill_cost x
/// nInvocations` scores every unspilled or exactly-fitting kernel 0) —
///
/// * `nInvocations` waves of work (eq. 8),
/// * compute per wave inflated by padding waste `1/rEC` (eq. 9),
/// * spill overhead per wave (eq. 7), amortised by TLP latency hiding.
pub fn s_kernel_effective(
    arch: &GpuArch,
    shape: SgemmShape,
    config: &SgemmConfig,
    tlp: usize,
) -> f64 {
    let v = &config.variant;
    let grid = grid_size(shape, v);
    let rec = effective_computation(shape, v);
    let invocations = n_invocations(grid, tlp, arch.n_sms);
    let k_iters = shape.k.div_ceil(v.k_step).max(1) as f64;
    // Compute-bound cycles of one wave: FFMA thread-ops / SM FFMA lanes.
    let tile_macs = (v.tile_m * v.tile_n) as f64 * shape.k as f64;
    let compute = tlp as f64 * tile_macs / arch.cores_per_sm as f64;
    // Memory-bound cycles of one wave: each CTA streams (m + n) x K tile
    // elements from DRAM, against this SM's bandwidth share. Small tiles
    // trade compute density for occupancy (Fig. 6), which this term
    // captures.
    let tile_bytes = ((v.tile_m + v.tile_n) * 4) as f64 * shape.k as f64;
    let bytes_per_cycle_per_sm = arch.bytes_per_cycle() / arch.n_sms as f64;
    let memory = tlp as f64 * tile_bytes / bytes_per_cycle_per_sm;
    // Spill overhead per wave, partially hidden by TLP.
    let spill = k_iters * config.spill.cost(arch) / tlp as f64;
    invocations as f64 * (compute.max(memory) + spill) / rec
}

/// Result of coordinated fine-tuning for one GEMM shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedKernel {
    /// Selected tile + register configuration.
    pub config: SgemmConfig,
    /// Selected TLP (`optTLP`).
    pub opt_tlp: usize,
    /// Grid size of the selected kernel.
    pub grid: usize,
    /// Effective-computation ratio (eq. 9).
    pub rec: f64,
    /// Invocation waves at `opt_tlp` (eq. 8).
    pub invocations: usize,
    /// The effective selection score that won.
    pub score: f64,
}

/// Coordinately fine-tunes the tile variant and register count for an SGEMM
/// of `shape` on `arch` (paper §IV.B.2): enumerate the pruned TLP-stair
/// points of every common tile, score each with [`s_kernel_effective`], and
/// return the smallest.
///
/// # Panics
///
/// Panics if `shape` has a zero dimension.
pub fn tune_kernel(arch: &GpuArch, shape: SgemmShape) -> TunedKernel {
    tune_kernel_candidates(arch, shape, 1)
        .into_iter()
        .next()
        .expect("at least one tile variant always yields a candidate")
}

/// Like [`tune_kernel`] but returns the `top_k` best-scored candidates
/// (ascending score). The offline compiler profiles these on the simulator
/// and keeps the fastest — the analytic score prunes the design space, the
/// measurement decides (§IV.B.2's "explore the performance of the
/// candidate points").
///
/// # Panics
///
/// Panics if `shape` has a zero dimension or `top_k == 0`.
pub fn tune_kernel_candidates(arch: &GpuArch, shape: SgemmShape, top_k: usize) -> Vec<TunedKernel> {
    assert!(
        shape.m > 0 && shape.n > 0 && shape.k > 0,
        "degenerate GEMM shape {shape:?}"
    );
    assert!(top_k > 0, "top_k must be positive");
    let _span = pcnn_telemetry::span!(
        "tuner.tune_kernel",
        m = shape.m,
        n = shape.n,
        k = shape.k,
        top_k = top_k
    );
    let mut skipped: u64 = 0;
    let mut candidates: Vec<TunedKernel> = Vec::new();
    let mut seen_tlp = std::collections::HashSet::new();
    for variant in &ALL_TILES {
        seen_tlp.clear();
        // The natural-config occupancy depends only on the tile variant,
        // not the staircase point — compute it once per variant instead of
        // once per (variant, point).
        let natural_occ =
            Occupancy::of(arch, &SgemmConfig::natural(*variant).resources()).ctas_per_sm();
        for point in tlp_stairs(arch, variant) {
            // Clamp the register-driven staircase to the full occupancy
            // (shared memory included) and dedupe by effective TLP.
            let tlp = point.tlp.min(natural_occ.max(1));
            if !seen_tlp.insert(tlp) {
                skipped += 1;
                continue;
            }
            let spill = SpillPlan::plan(arch, variant, point.regs, tlp);
            let config = SgemmConfig {
                variant: *variant,
                regs_per_thread: point.regs,
                spill,
            };
            // Spill-to-shared consumes shared memory; re-check that the
            // intended TLP still fits.
            let occ = Occupancy::of(arch, &config.resources()).ctas_per_sm();
            if occ < tlp {
                skipped += 1;
                continue;
            }
            let score = s_kernel_effective(arch, shape, &config, tlp);
            let grid = grid_size(shape, variant);
            let candidate = TunedKernel {
                config,
                opt_tlp: tlp,
                grid,
                rec: effective_computation(shape, variant),
                invocations: n_invocations(grid, tlp, arch.n_sms),
                score,
            };
            candidates.push(candidate);
        }
    }
    candidates.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));
    let explored = candidates.len() as u64;
    candidates.truncate(top_k);
    if pcnn_telemetry::enabled() {
        let mut m = pcnn_telemetry::Metrics::default();
        m.add("tuner.candidates.explored", explored);
        m.add("tuner.candidates.kept", candidates.len() as u64);
        m.add(
            "tuner.candidates.pruned",
            skipped + explored - candidates.len() as u64,
        );
        pcnn_telemetry::merge_metrics(&m);
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgemm::{TILE_128X128, TILE_32X32};
    use pcnn_gpu::arch::{JETSON_TX1, K20C};

    #[test]
    fn stairs_are_monotone() {
        let stairs = tlp_stairs(&K20C, &TILE_128X128);
        assert!(!stairs.is_empty());
        // Regs decrease, TLP increases along the staircase.
        for w in stairs.windows(2) {
            assert!(w[1].regs < w[0].regs);
            assert!(w[1].tlp > w[0].tlp);
        }
        // The first point is the natural kernel.
        assert_eq!(stairs[0].regs, TILE_128X128.natural_regs);
    }

    #[test]
    fn fig9_stair_values_on_k20() {
        // Fig. 9: 128x128 tile, 256 threads on K20, curReg 127, minReg 32.
        assert_eq!(min_regs(&K20C), 32);
        let stairs = tlp_stairs(&K20C, &TILE_128X128);
        // Natural 127 regs -> 65536/(256*128-granule) = 2 CTAs.
        assert_eq!(stairs[0].tlp, 2);
        // Max TLP at 32 regs: 65536/(256*32) = 8.
        let last = stairs.last().unwrap();
        assert_eq!(last.tlp, 8);
    }

    #[test]
    fn tuner_picks_small_tile_for_small_gemm() {
        // AlexNet CONV5 non-batched on TX1: M=128, N=169. A 128x128 tile
        // wastes most of the padded work; the tuner must pick something
        // smaller.
        let shape = SgemmShape {
            m: 128,
            n: 169,
            k: 1728,
        };
        let tuned = tune_kernel(&JETSON_TX1, shape);
        assert!(
            tuned.config.variant.tile_m * tuned.config.variant.tile_n
                < TILE_128X128.tile_m * TILE_128X128.tile_n,
            "picked {:?}",
            tuned.config.variant
        );
        assert!(tuned.rec > 0.5);
    }

    #[test]
    fn tuner_picks_large_tile_for_large_gemm() {
        // A big batched GEMM: padding is negligible, compute density wins.
        let shape = SgemmShape {
            m: 256,
            n: 93184,
            k: 1200,
        };
        let tuned = tune_kernel(&K20C, shape);
        assert!(
            tuned.config.variant.tile_n >= 64,
            "picked {:?}",
            tuned.config.variant
        );
    }

    #[test]
    fn tuned_tlp_within_occupancy() {
        let shape = SgemmShape {
            m: 128,
            n: 729,
            k: 1200,
        };
        let tuned = tune_kernel(&K20C, shape);
        let occ = Occupancy::of(&K20C, &tuned.config.resources()).ctas_per_sm();
        assert!(tuned.opt_tlp <= occ);
        assert!(tuned.opt_tlp >= 1);
    }

    #[test]
    fn stairs_exist_for_small_tile_on_tx1() {
        let stairs = tlp_stairs(&JETSON_TX1, &TILE_32X32);
        assert!(!stairs.is_empty());
        // The 32x32 kernel's occupancy on TX1 is capped by CTA slots (16),
        // so the staircase collapses early.
        assert!(stairs.iter().all(|p| p.tlp <= 16));
    }

    #[test]
    fn effective_score_penalizes_spilling_to_global() {
        let shape = SgemmShape {
            m: 128,
            n: 4096,
            k: 1200,
        };
        let natural = SgemmConfig::natural(TILE_128X128);
        let heavy_spill = SgemmConfig {
            variant: TILE_128X128,
            regs_per_thread: 32,
            spill: SpillPlan {
                to_shared: 0,
                to_global: 95,
            },
        };
        let a = s_kernel_effective(&K20C, shape, &natural, 2);
        let b = s_kernel_effective(&K20C, shape, &heavy_spill, 8);
        assert!(b > a, "global spilling not penalised: {a} vs {b}");
    }
}
