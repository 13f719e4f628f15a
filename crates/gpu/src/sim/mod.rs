//! The two-level kernel simulator (see crate docs).

pub mod dispatch;
pub mod trace;
pub mod warp;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::arch::GpuArch;
use crate::occupancy::KernelResources;
use trace::CtaTrace;

/// Number of main-loop iterations simulated in detail before extrapolating
/// to the full trip count.
const SAMPLE_ITERS: u32 = 6;

/// Everything the simulator needs to execute one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name for diagnostics.
    pub name: String,
    /// Number of CTAs (paper eq. 4's `GridSize`).
    pub grid: usize,
    /// Static per-CTA resources.
    pub resources: KernelResources,
    /// Per-warp instruction trace template.
    pub trace: CtaTrace,
    /// Useful floating-point work of the whole launch, for `cpE`.
    pub flops: u64,
}

impl KernelDesc {
    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> usize {
        self.resources.block_size.div_ceil(32)
    }
}

/// One interned wave program: everything [`warp::simulate_sm`] reads
/// besides `(tlp, active_sms)`. The architecture is held by value — two
/// `with_frequency_scale` temporaries may share an address, not a clock.
#[derive(Debug)]
struct Program {
    resources: KernelResources,
    trace: CtaTrace,
    arch: GpuArch,
}

#[derive(Debug, Default)]
struct Memo {
    programs: Vec<Program>,
    /// `(program id, resident CTAs, active SMs)` -> wave cycles.
    waves: HashMap<(u32, u32, u32), u64>,
}

/// Memoization of single-SM wave simulations, keyed by content:
/// `(architecture, kernel resources, CTA trace)` interned to a program id,
/// then `(program id, resident CTAs, active SMs)`. A wave's cycle count is
/// a pure function of exactly that key — the grid, the kernel's name and
/// its FLOP count never reach the warp simulator — so one cache is correct
/// across kernels, layers, batch sizes and architectures.
///
/// The cache is internally synchronized and shared by `&self`: the lock is
/// held for a lookup or an insert, never across a simulation. Two threads
/// that miss on the same key both simulate and store the same value, so
/// [`misses`](Self::misses) may count a racing duplicate; results never
/// differ.
#[derive(Debug, Default)]
pub struct SimCache {
    memo: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups served from the memo without re-simulating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran a detailed wave simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        // Every update is a single push or insert, so the memo is valid
        // even if a holder panicked.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Binds `kernel`'s program on `arch` to this cache for one launch in
    /// which `active_sms` SMs share DRAM bandwidth.
    pub fn waves<'c>(
        &'c self,
        arch: &'c GpuArch,
        kernel: &'c KernelDesc,
        active_sms: usize,
    ) -> Waves<'c> {
        let mut memo = self.memo();
        let found = memo.programs.iter().position(|p| {
            p.resources == kernel.resources && p.trace == kernel.trace && p.arch == *arch
        });
        let program = found.unwrap_or_else(|| {
            memo.programs.push(Program {
                resources: kernel.resources,
                trace: kernel.trace.clone(),
                arch: arch.clone(),
            });
            memo.programs.len() - 1
        });
        Waves {
            cache: self,
            arch,
            kernel,
            program: u32::try_from(program).expect("fewer than 2^32 programs"),
            active_sms,
            by_tlp: Vec::new(),
            hits: 0,
        }
    }
}

/// One kernel launch's view of a [`SimCache`]: the program is interned
/// once, and wave durations already looked up are kept by resident-CTA
/// count so the dispatch loop's per-CTA lookups take no lock.
#[derive(Debug)]
pub struct Waves<'c> {
    cache: &'c SimCache,
    arch: &'c GpuArch,
    kernel: &'c KernelDesc,
    program: u32,
    active_sms: usize,
    by_tlp: Vec<Option<u64>>,
    /// Hits not yet added to the cache's counter (flushed on drop).
    hits: u64,
}

impl Waves<'_> {
    /// Cycles for `tlp` resident CTAs to run to completion on one SM.
    ///
    /// A miss runs a detailed simulation of a sampled number of main-loop
    /// iterations and extrapolates linearly over the remaining trip count
    /// (steady-state CPI sampling).
    pub fn cycles(&mut self, tlp: usize) -> u64 {
        if let Some(&Some(c)) = self.by_tlp.get(tlp) {
            self.hits += 1;
            return c;
        }
        let key = (
            self.program,
            u32::try_from(tlp).expect("resident CTAs fit u32"),
            u32::try_from(self.active_sms).expect("SM count fits u32"),
        );
        let cached = self.cache.memo().waves.get(&key).copied();
        let cycles = match cached {
            Some(c) => {
                self.hits += 1;
                c
            }
            None => {
                self.cache.misses.fetch_add(1, Ordering::Relaxed);
                pcnn_telemetry::counter("sim.cache.misses", 1);
                let c = simulate_wave(self.arch, self.kernel, tlp, self.active_sms);
                self.cache.memo().waves.insert(key, c);
                c
            }
        };
        if self.by_tlp.len() <= tlp {
            self.by_tlp.resize(tlp + 1, None);
        }
        self.by_tlp[tlp] = Some(cycles);
        cycles
    }
}

impl Drop for Waves<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
            pcnn_telemetry::counter("sim.cache.hits", self.hits);
        }
    }
}

fn simulate_wave(arch: &GpuArch, kernel: &KernelDesc, tlp: usize, active_sms: usize) -> u64 {
    let warps = kernel.warps_per_cta();
    let iters = kernel.trace.body_iters;
    if iters <= 2 * SAMPLE_ITERS {
        // Short loop: simulate exactly.
        pcnn_telemetry::counter("sim.wave.exact", 1);
        let ops = kernel.trace.sampled(iters);
        return warp::simulate_sm(arch, &ops, warps, tlp, active_sms);
    }
    pcnn_telemetry::counter("sim.wave.extrapolated", 1);
    pcnn_telemetry::counter(
        "sim.wave.iters_extrapolated",
        u64::from(iters - 2 * SAMPLE_ITERS),
    );
    // Two detailed samples give the steady-state cycles-per-iteration;
    // they agree up to iteration `SAMPLE_ITERS + 1`, so they share a run.
    let (c1, c2) = warp::simulate_sm_pair(
        arch,
        &kernel.trace.sampled(SAMPLE_ITERS),
        &kernel.trace.sampled(2 * SAMPLE_ITERS),
        warps,
        tlp,
        active_sms,
    );
    let per_iter = (c2.saturating_sub(c1)) as f64 / SAMPLE_ITERS as f64;
    c2 + (per_iter * (iters - 2 * SAMPLE_ITERS) as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::trace::{CtaTrace, Op};
    use super::*;
    use crate::arch::{JETSON_TX1, K20C};

    fn wave_cycles(
        cache: &SimCache,
        arch: &GpuArch,
        kernel: &KernelDesc,
        tlp: usize,
        active_sms: usize,
    ) -> u64 {
        cache.waves(arch, kernel, active_sms).cycles(tlp)
    }

    fn toy_kernel(iters: u32) -> KernelDesc {
        KernelDesc {
            name: "toy".into(),
            grid: 8,
            resources: KernelResources {
                block_size: 64,
                regs_per_thread: 32,
                shmem_per_block: 1024,
            },
            trace: CtaTrace {
                prologue: vec![(Op::Ialu, 4), (Op::Ldg, 2), (Op::WaitMem, 1)],
                body: vec![(Op::Lds, 4), (Op::Ffma, 32), (Op::Bar, 1)],
                body_iters: iters,
                epilogue: vec![(Op::Stg, 2)],
            },
            flops: 1_000_000,
        }
    }

    #[test]
    fn wave_cycles_scale_with_iters() {
        let k_short = toy_kernel(8);
        let k_long = toy_kernel(80);
        let cache = SimCache::new();
        let short = wave_cycles(&cache, &K20C, &k_short, 2, 13);
        let long = wave_cycles(&cache, &K20C, &k_long, 2, 13);
        // 10x the iterations: well over 3x the cycles even after the fixed
        // prologue/memory-latency overhead of the short run.
        assert!(long > 3 * short, "long {long} vs short {short}");
    }

    #[test]
    fn extrapolation_close_to_exact() {
        // For a kernel whose trip count is just above the sampling
        // threshold, extrapolation must agree with exact simulation well.
        let k = toy_kernel(13);
        let exact = warp::simulate_sm(&K20C, &k.trace.sampled(13), k.warps_per_cta(), 2, 13);
        let cache = SimCache::new();
        let est = wave_cycles(&cache, &K20C, &k, 2, 13);
        let err = (est as f64 - exact as f64).abs() / exact as f64;
        assert!(err < 0.15, "extrapolation error {err:.3}: {est} vs {exact}");
    }

    /// The regression the old "one cache per (arch, kernel)" contract
    /// papered over: kernels with different traces, and one kernel on
    /// three architectures (one a frequency-scaled temporary), pushed
    /// through ONE cache return exactly what fresh caches return.
    #[test]
    fn one_cache_serves_many_kernels_and_archs() {
        let scaled = K20C.with_frequency_scale(0.5);
        let kernels = [toy_kernel(8), toy_kernel(40), toy_kernel(80)];
        let shared = SimCache::new();
        for _pass in 0..2 {
            for arch in [&K20C, &JETSON_TX1, &scaled] {
                for k in &kernels {
                    for tlp in [1, 3] {
                        let fresh = wave_cycles(&SimCache::new(), arch, k, tlp, arch.n_sms);
                        let got = wave_cycles(&shared, arch, k, tlp, arch.n_sms);
                        assert_eq!(
                            got, fresh,
                            "{} iters {} tlp {tlp}",
                            arch.name, k.trace.body_iters
                        );
                    }
                }
            }
        }
        // 3 archs x 3 kernels x 2 tlps distinct waves; the second pass hits.
        assert_eq!(shared.misses(), 18);
        assert_eq!(shared.hits(), 18);
        // The three architectures really are different programs.
        let k = &kernels[1];
        let k20 = wave_cycles(&shared, &K20C, k, 3, 13);
        assert_ne!(k20, wave_cycles(&shared, &scaled, k, 3, 13));
        assert_ne!(k20, wave_cycles(&shared, &JETSON_TX1, k, 3, 13));
    }

    /// The grid, the name and the FLOP count are not part of the key: the
    /// same program at another batch size is a hit.
    #[test]
    fn grid_name_and_flops_do_not_split_the_memo() {
        let cache = SimCache::new();
        let a = toy_kernel(40);
        let b = KernelDesc {
            name: "other".into(),
            grid: 4096,
            flops: 7,
            ..toy_kernel(40)
        };
        assert_eq!(
            wave_cycles(&cache, &K20C, &a, 2, 13),
            wave_cycles(&cache, &K20C, &b, 2, 13)
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn repeated_wave_cycles_do_not_resimulate() {
        let k = toy_kernel(40);
        let cache = SimCache::new();
        let a = wave_cycles(&cache, &K20C, &k, 3, 13);
        for _ in 0..5 {
            assert_eq!(wave_cycles(&cache, &K20C, &k, 3, 13), a);
        }
        assert_eq!(cache.misses(), 1, "same (tlp, active_sms) key re-simulated");
        assert_eq!(cache.hits(), 5);
        // A different key is a genuine miss.
        wave_cycles(&cache, &K20C, &k, 4, 13);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 5);
        // Lookups one launch repeats are hits too, counted when it ends.
        let mut waves = cache.waves(&K20C, &k, 13);
        assert_eq!([waves.cycles(3), waves.cycles(3), waves.cycles(3)], [a; 3]);
        drop(waves);
        assert_eq!((cache.misses(), cache.hits()), (2, 8));
    }

    #[test]
    fn more_tlp_takes_longer_per_wave_but_not_linearly() {
        // Running 4 CTAs together must take less than 4x the time of 1 CTA
        // (latency hiding) but at least as long as 1 CTA.
        let k = toy_kernel(40);
        let cache = SimCache::new();
        let one = wave_cycles(&cache, &K20C, &k, 1, 13);
        let four = wave_cycles(&cache, &K20C, &k, 4, 13);
        assert!(four >= one);
        assert!(four < 4 * one, "no latency hiding: {four} vs 4x{one}");
    }
}
