//! Packed, register-blocked, multicore single-precision matrix
//! multiplication.
//!
//! The GPU kernels in the paper are SGEMMs (§III.C, Table IV); this module
//! is the CPU implementation that actually performs the arithmetic in the
//! reproduction, while `pcnn-kernels`/`pcnn-gpu` model how the same SGEMM
//! would behave on each GPU microarchitecture.
//!
//! # Algorithm
//!
//! [`gemm`] follows the classic packed-GEMM structure (the same
//! register-blocking discipline the paper's GPU kernels use, Fig. 6/7,
//! transplanted to CPU SIMD):
//!
//! 1. `B` is packed once into `NR`-column micropanels, zero-padded to a
//!    multiple of [`NR`], one [`KC`]-deep block at a time, into reusable
//!    scratch from the `pcnn-parallel` buffer pool;
//! 2. a shape-aware partitioner ([`partition_gemm`]) splits the `MR`-row
//!    tile and `NR`-column panel grids of `C` into a 2-D grid of
//!    `row_splits x col_splits` rectangles — one per worker — so both fat
//!    (`n = 3025`) and skinny (`n = 169`) convolution shapes saturate the
//!    pool (the earlier one-dimensional `MC`-row-panel split produced only
//!    `ceil(m / 64)` = 2–6 work units for AlexNet shapes, starving it);
//! 3. every worker shares the read-only packed `B`, packs its own
//!    `MR`-row micropanels of `A` into pooled scratch ([`MC`]-row groups,
//!    L2-resident), and runs a branch-free `MR x `[`NR`] register-blocked
//!    microkernel that accumulates each tile over one `KC` block and adds
//!    it to `C`.
//!
//! An `A` many GEMMs share (Winograd's `U`) is packed once instead, by
//! [`pack_a_images`]; a caller that also writes `B` in the packed layout
//! (Winograd's `V`) runs the loop nest on both in place through
//! [`gemm_packed_ab`] (`C = A * B`).
//!
//! # ISA tiers
//!
//! The register tile is fitted to the register file it runs on, the way
//! the paper's offline compiler fits an SGEMM tile to each GPU (§IV.B,
//! Table IV). A private [`Tier`] — resolved by one cached runtime probe,
//! the only dispatch, with no knob to override it — is a tile height `MR`
//! plus a microkernel; `NR = 16` columns and the packed-`B` layout are the
//! same on every tier, so nothing outside this module (the direct and
//! sampled convolutions' gather, Winograd's 16 GEMMs) knows tiers exist:
//!
//! | tier       | runs on               | tile    | registers                          |
//! |------------|-----------------------|---------|------------------------------------|
//! | `avx512`   | x86-64, `avx512f`     | 16 x 16 | 16 acc + `B` + broadcast, 32 `zmm` |
//! | `avx2`     | x86-64, `avx2`        | 6 x 16  | 12 acc + 2 `B` + broadcast, 16 `ymm` |
//! | `portable` | everything else       | 6 x 16  | the autovectorizer's choice        |
//!
//! The two x86 tiers run [`microkernel_avx512`] / [`microkernel_avx2`],
//! written with explicit `mul_ps` + `add_ps` intrinsics so the hot loop's
//! shape does not hang on the autovectorizer's heuristics (an
//! autovectorised tile is a lottery: the same constant-bound body compiles
//! to clean broadcast/mul/add in one context and to shuffles with a stack
//! spill in another), and the loop nest around them is instantiated per
//! tile height inside the tier's `#[target_feature]` function, so
//! `A`-packing and the `C` update may use the tier's vectors too. The
//! portable tier runs [`microkernel`], plain indexed
//! arithmetic with constant bounds on the *same* packed layout — which is
//! also the oracle both explicit kernels are tested bitwise against, and
//! the whole `gemm` is held bitwise equal across every tier the host can
//! run. [`kernel_tier`] names the tier in force so a recording can say
//! which kernel produced it.
//!
//! [`gemm_nt`] (`C += A * B^T`, the FC layers) reduces along the
//! contiguous axis of both operands, so it needs no packing: it is a
//! register tile of split-accumulator dot products walked so that the
//! larger operand — for an FC layer the weights — is read from memory once
//! per call, however many images the batch holds (see its docs).
//!
//! # Determinism
//!
//! Each `C` element starts every `KC` block from `+0.0`, accumulates
//! `acc = acc + a * b` (one IEEE multiply, one IEEE add — never a fused
//! multiply-add) in ascending-`k` order, and the blocks are added to `C`
//! in ascending order ([`gemm_packed_ab`] stores the first instead, which
//! is the same bits as adding it to a zeroed `C`). That sequence — and therefore [`KC`] — *is* the
//! rounding contract; `MR`, `NR`, `MC`, the vector width — the whole ISA
//! tier — and the thread count only decide which elements are computed
//! side by side, never any element's operation sequence, so they are free
//! to change (DESIGN.md, "GEMM rounding contract"; `tests/gemm_bits.rs`
//! pins the output bits across exactly such changes). The parallel split
//! never touches the `k` (reduction) dimension, and the rectangle
//! boundaries depend only on the shape, the tier's tile and the pool
//! width — never on timing. Workers own
//! disjoint rectangles of `C`, so which worker runs a rectangle is
//! irrelevant: `PCNN_THREADS=1` and `PCNN_THREADS=N` produce
//! **bitwise-identical** outputs (asserted by
//! `tests/parallel_determinism.rs`). [`gemm_nt`] has its own contract —
//! eight lanes and a fixed combining tree per output — with the same
//! freedoms (`tests/gemm_nt_bits.rs`).
//!
//! # Profiling
//!
//! When `pcnn-profile` recording is on, the packed GEMM reports its
//! phases to the engine profiler: `B`-packing as one [`Phase::PackB`]
//! span per call, `A`-packing (none when `A` arrives packed) and the
//! microkernel loop as [`Phase::PackA`] / [`Phase::Microkernel`] spans
//! per (`KC` block, `MC`-row group) — coarse enough to stay off the hot
//! path — each carrying its flop and byte traffic for roofline
//! classification, and
//! [`gemm_bias`]'s bias broadcast as a [`Phase::Epilogue`] span. The
//! counts are of the *unpadded* operands and [`MC`] is one constant for
//! every tier, so at a given pool width a profile reads the same whichever
//! tier ran.
//! Parallel regions carry the `gemm` / `gemm.pack_b` / `gemm_nt` labels
//! on the worker-pool trace tracks. Disabled recording costs one atomic
//! load per would-be span and never changes any arithmetic.

use pcnn_profile::{phase_span, Phase};
use std::ops::Range;

/// Microkernel columns on every tier: two 8-lane AVX2 vectors or one
/// 16-lane AVX-512 vector per accumulator row. Being tier-independent is
/// what keeps the packed-`B` layout (and everyone who fills it) ignorant
/// of tiers.
pub(crate) const NR: usize = 16;

/// Tile height of the `portable` and `avx2` tiers: 6x16 is 12 of AVX2's 16
/// `ymm` registers for accumulators, two for the `B` row and one for the
/// `A` broadcast.
const MR_BASE: usize = 6;
/// Tile height of the `avx512` tier: 16x16 is 16 of the 32 `zmm` registers
/// for accumulators, one for the `B` row and one for the `A` broadcast —
/// the height a sweep of 8/12/16/24/28 picked (EXPERIMENTS.md, "A 16-lane
/// tier"), and a divisor of every AlexNet / VGG channel count, so those
/// layers never compute a padded row.
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 16;

/// Rows per `A`-packing group: one group's packed `A` block (`MC x KC`
/// f32, 96 KiB) stays L2-resident. One value for every tier — a multiple
/// of each tier's `MR` — so the group boundaries, and with them the
/// profiler's span counts, do not depend on the tier.
const MC: usize = 96;
/// Live columns up to which the `avx512` tier computes a ragged last panel
/// column by column ([`microkernel_avx512_columns`]) rather than as a full
/// padded tile: the width where the column kernel stops winning
/// (EXPERIMENTS.md, "The ragged last panel").
#[cfg(target_arch = "x86_64")]
const RAGGED_COLUMNS: usize = 12;
/// Depth of one packed block: a `KC x NR` `B` micropanel (16 KiB) stays
/// L1-resident while every row tile of a group streams over it. Unlike
/// the tile constants above, `KC` is part of the rounding contract (every
/// block's accumulators start from zero), so changing it moves output
/// bits.
const KC: usize = 256;

/// Work (in multiply-adds) below which [`gemm`] stays on one thread: the
/// cost of a scoped spawn round is ~tens of microseconds, which a GEMM
/// this small finishes on its own.
const PAR_MAC_THRESHOLD: usize = 64 * 64 * 64;

/// The instruction-set tier the packed GEMM runs on: a register-tile
/// height [`Tier::mr`] plus the microkernel [`gemm_tiles`] dispatches to.
///
/// Production code only ever runs [`Tier::detect`]; the `_on` functions
/// take the tier as a parameter so the tests can hold every tier the host
/// supports ([`Tier::available`]) bitwise equal to the portable one.
///
/// Invariant the `unsafe` dispatch in [`gemm_tiles`] relies on: the x86
/// variants are constructed only by [`Tier::detect`] and
/// [`Tier::available`], after the runtime probe for their feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The best tier this CPU runs (`std` caches the feature probe, so
    /// this is a load and a bit test).
    fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Tier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Portable
    }

    /// Every tier this CPU runs, portable first.
    #[cfg(test)]
    fn available() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }

    /// Rows of the tier's register tile.
    fn mr(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => MR_AVX512,
            _ => MR_BASE,
        }
    }
}

/// `name MRxNR`, e.g. `avx512 16x16`.
impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Tier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512",
        };
        write!(f, "{name} {}x{NR}", self.mr())
    }
}

/// The kernel [`gemm`] runs on this machine — ISA tier and register tile,
/// displayed as e.g. `avx512 16x16` — for benchmark headers and recorded
/// documents: GFLOP/s from different tiers are different experiments.
pub fn kernel_tier() -> impl std::fmt::Display {
    Tier::detect()
}

/// `[MR, NR, KC]` on this machine's tier: the register tile a shape is
/// padded to and the depth of a packed block (each adds a `C` round trip).
pub fn gemm_tile() -> [usize; 3] {
    [Tier::detect().mr(), NR, KC]
}

/// How [`gemm`] splits the output grid across workers: the `MR`-row tile
/// axis into `row_splits` bands and the `NR`-column panel axis into
/// `col_splits` bands, yielding `row_splits * col_splits` disjoint
/// rectangles of `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPartition {
    /// Bands along the `MR`-row tile axis.
    pub row_splits: usize,
    /// Bands along the `NR`-column panel axis.
    pub col_splits: usize,
}

impl GemmPartition {
    /// Total parallel tasks this partition produces.
    pub fn tasks(&self) -> usize {
        self.row_splits * self.col_splits
    }
}

/// Picks the 2-D split of an `m x n x k` GEMM for `threads` workers on
/// this machine's register tile.
///
/// Minimises modelled cost per worker: microkernel multiply-adds for its
/// rectangle plus the `A`-packing work it duplicates (every column band
/// covering the same rows re-packs those rows — the term that steers fat
/// shapes toward row splits). Candidates enumerate row-band counts
/// `1..=threads` with the column bands taking the residual factor, so the
/// result depends only on `(m, n, k, threads)` and the tile height — never
/// on timing — and tasks never exceed `threads`.
pub fn partition_gemm(m: usize, n: usize, k: usize, threads: usize) -> GemmPartition {
    partition_tiles(Tier::detect().mr(), m, n, k, threads)
}

/// [`partition_gemm`] for a register tile `mr` rows high.
fn partition_tiles(mr: usize, m: usize, n: usize, k: usize, threads: usize) -> GemmPartition {
    let threads = threads.max(1);
    let mr_tiles = m.div_ceil(mr).max(1);
    let nr_panels = n.div_ceil(NR).max(1);
    let mut best = GemmPartition {
        row_splits: 1,
        col_splits: 1,
    };
    let mut best_cost = u128::MAX;
    for ti in 1..=threads.min(mr_tiles) {
        let tj = (threads / ti).min(nr_panels).max(1);
        let rows = mr_tiles.div_ceil(ti);
        let cols = nr_panels.div_ceil(tj);
        // Per-worker cost: compute on its rectangle + its share of the
        // (col_splits-duplicated) A packing.
        let compute = (rows * cols * mr * NR) as u128 * k as u128;
        let packing = (rows * mr * k) as u128;
        let cost = compute + packing;
        if cost < best_cost {
            best_cost = cost;
            best = GemmPartition {
                row_splits: ti,
                col_splits: tj,
            };
        }
    }
    best
}

/// Band `idx` of `0..total` split into `parts` balanced contiguous ranges
/// (the first `total % parts` bands get one extra element). Depends only
/// on its arguments, so rectangle boundaries are thread-count-stable for
/// a fixed partition.
fn split_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    let per = total / parts;
    let rem = total % parts;
    let start = idx * per + idx.min(rem);
    start..start + per + usize::from(idx < rem)
}

/// Shared mutable view of `C` for workers that own **disjoint**
/// rectangles of it. The 2-D split of [`gemm`] (and the column-range
/// split of [`gemm_nt`]) hands each worker rectangles whose element
/// ranges interleave in memory, so safe `split_at_mut` decomposition is
/// impossible; this wrapper makes the disjointness invariant explicit
/// instead.
struct TileSink {
    ptr: *mut f32,
}

// SAFETY: every `accumulate` / `write` call writes a span derived from a
// `(row tile, column panel)` rectangle, and `gemm` and `gemm_nt` assign
// each rectangle to exactly one task — concurrent writers never overlap.
unsafe impl Sync for TileSink {}

impl TileSink {
    /// `C[start..start + vals.len()] += vals`.
    ///
    /// # Safety
    ///
    /// The span must lie inside the matrix and be written by no other
    /// concurrent task.
    #[inline(always)]
    unsafe fn accumulate(&self, start: usize, vals: &[f32]) {
        let dst = std::slice::from_raw_parts_mut(self.ptr.add(start), vals.len());
        for (d, &v) in dst.iter_mut().zip(vals) {
            *d += v;
        }
    }

    /// `C[start..start + vals.len()] = vals` when `set`, else
    /// [`accumulate`](Self::accumulate); safe as that is.
    #[inline(always)]
    unsafe fn write(&self, set: bool, start: usize, vals: &[f32]) {
        if !set {
            return self.accumulate(start, vals);
        }
        let dst = std::slice::from_raw_parts_mut(self.ptr.add(start), vals.len());
        match <&[f32; NR]>::try_from(vals) {
            // Constant length: vector stores, not a `memcpy` call.
            Ok(full) => dst.copy_from_slice(full),
            Err(_) => dst.copy_from_slice(vals),
        }
    }
}

/// `C += A * B` for row-major matrices.
///
/// `A` is `m x k`, `B` is `k x n`, `C` is `m x n`. Accumulates into `C`
/// (callers wanting `C = A * B` should zero `C` first — [`crate::Tensor::zeros`]
/// does). Runs on multiple cores for large shapes (see the module docs for
/// the determinism guarantee); [`gemm_naive`] is the serial oracle.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m/n/k`-implied length.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_on(Tier::detect(), m, n, k, a, b, c);
}

/// `C = A * B` with both operands already packed: `A` one image of a
/// [`pack_a_images`] result, `B` a [`pack_b_with`] image of
/// [`packed_b_len`] elements. So a caller whose operands are produced in
/// the layouts the loop nest reads (Winograd's `U` and `V`) pays for no
/// packing here.
///
/// The first `KC` block *stores* its products into `C` instead of adding
/// them, so `C` needs no zero-fill. That is bitwise [`gemm`] into a zeroed
/// `C`: an accumulator starts at `+0.0` and `+0.0 + x` is `+0.0` for
/// `x = -0.0`, so it is never `-0.0`, and `+0.0 + x == x` for every other
/// `x`.
pub(crate) fn gemm_packed_ab(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
) {
    gemm_packed_ab_on(Tier::detect(), m, n, k, a, b_pack, c);
}

/// [`gemm_packed_ab`] on an explicit tier (the one that packed `A`; its
/// slices panic if it is short).
fn gemm_packed_ab_on(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
) {
    assert!(b_pack.len() >= packed_b_len(n, k), "packed B too short");
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if k == 0 {
        c[..m * n].fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let part = active_partition_on(tier, m, n, k);
    gemm_packed_on(tier, m, n, k, OperandA::Packed(a), b_pack, part, c);
}

/// [`gemm`] on an explicit tier.
fn gemm_on(tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let part = active_partition_on(tier, m, n, k);
    // The span starts before the scratch checkout so pool bookkeeping
    // (and any first-use zero-fill) counts as packing time.
    let span = phase_span(Phase::PackB);
    let mut b_pack = pcnn_parallel::scratch_f32(packed_b_len(n, k));
    pcnn_parallel::with_region_label("gemm.pack_b", || {
        pack_b_with(n, k, &mut b_pack, part.tasks() > 1, |p, j0, dst| {
            dst.copy_from_slice(&b[p * n + j0..p * n + j0 + dst.len()]);
        });
    });
    if let Some(s) = span {
        // Reads the k x n source, writes the padded packed image.
        s.finish(0, 4 * (k * n + packed_b_len(n, k)) as u64);
    }
    gemm_packed_on(tier, m, n, k, OperandA::Rows(a), &b_pack, part, c);
}

/// The partition [`gemm`] would actually run with right now: collapses to
/// a single task inside a parallel region, below [`PAR_MAC_THRESHOLD`],
/// or on a one-thread pool. Callers that build their own packed `B` (the
/// direct convolution) use it to decide whether to parallelise packing.
pub(crate) fn active_partition(m: usize, n: usize, k: usize) -> GemmPartition {
    active_partition_on(Tier::detect(), m, n, k)
}

fn active_partition_on(tier: Tier, m: usize, n: usize, k: usize) -> GemmPartition {
    let threads = if pcnn_parallel::in_parallel_region() {
        1
    } else {
        pcnn_parallel::current_threads()
    };
    if threads <= 1 || m * n * k < PAR_MAC_THRESHOLD {
        GemmPartition {
            row_splits: 1,
            col_splits: 1,
        }
    } else {
        partition_tiles(tier.mr(), m, n, k, threads)
    }
}

/// Length in f32 elements of the packed-`B` image for a `k x n` operand:
/// `k` rows of `ceil(n/NR)` zero-padded `NR`-wide micropanels.
pub(crate) fn packed_b_len(n: usize, k: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// `C += A * B` where `B` is already packed in [`pack_b_with`]'s
/// micropanel layout. The compute tail of [`gemm`], shared with the direct
/// convolution (which streams input patches into the packed image
/// without materialising `B` at all); identical partitioning and loop
/// nest, so outputs are bitwise-equal to the two-step path.
pub(crate) fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_pack: &[f32],
    part: GemmPartition,
    c: &mut [f32],
) {
    gemm_packed_on(Tier::detect(), m, n, k, OperandA::Rows(a), b_pack, part, c);
}

/// The `A` operand of the packed loop nest, and with it what the loop
/// nest does to `C`.
#[derive(Clone, Copy)]
enum OperandA<'a> {
    /// Row-major `m x k`: each `MC`-row group is packed per `KC` block,
    /// and every block's products are added to `C` (`C += A * B`).
    Rows(&'a [f32]),
    /// A [`pack_a_images`] image, read in place; the first `KC` block's
    /// products are stored into `C` (`C = A * B`, see [`gemm_packed_ab`]).
    Packed(&'a [f32]),
}

#[allow(clippy::too_many_arguments)]
fn gemm_packed_on(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    a: OperandA,
    b_pack: &[f32],
    part: GemmPartition,
    c: &mut [f32],
) {
    let n_panels = n.div_ceil(NR);
    let mr_tiles = m.div_ceil(tier.mr());
    let sink = TileSink {
        ptr: c.as_mut_ptr(),
    };
    if part.tasks() <= 1 {
        gemm_tiles(tier, m, n, k, a, b_pack, &sink, 0..mr_tiles, 0..n_panels);
        return;
    }
    let run_task = |t: usize| {
        let rows = split_range(mr_tiles, part.row_splits, t / part.col_splits);
        let cols = split_range(n_panels, part.col_splits, t % part.col_splits);
        gemm_tiles(tier, m, n, k, a, b_pack, &sink, rows, cols);
    };
    // Workers record their pack-A / microkernel spans into the caller's
    // profile, under the caller's layer.
    let handoff = pcnn_profile::Handoff::capture();
    pcnn_parallel::with_region_label("gemm", || {
        pcnn_parallel::par_for(part.tasks(), 1, |range| {
            handoff.enter(|| range.for_each(run_task));
        });
    });
}

/// Builds the packed-`B` image of a `k x n` operand in `packed` (pooled
/// scratch, [`packed_b_len`] elements) as `NR`-wide micropanels, one `KC`
/// block after another — the one owner of that layout. The operand
/// itself is never read here: `fill_row(p, j0, dst)` must write
/// `B[p][j0..j0 + dst.len()]` into `dst`, which lets [`gemm`] copy rows of
/// a materialised matrix and the direct convolution gather input patches
/// through the same walk.
///
/// Block `pc` starts at `p0 * n_panels * NR` (`p0 = pc * KC`) and holds
/// `n_panels` micropanels of `kc * NR` elements each; element `(p, j)` of
/// a micropanel is at `p * NR + j`. Ragged column edges are zero-filled
/// explicitly — the scratch arrives with unspecified contents — so the
/// microkernel never branches on bounds; the depth direction is packed
/// tight (the final block is simply shorter).
///
/// When `parallel`, full `KC` blocks additionally split at micropanel
/// boundaries so even a single-block `B` feeds the whole pool.
pub(crate) fn pack_b_with(
    n: usize,
    k: usize,
    packed: &mut [f32],
    parallel: bool,
    fill_row: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let n_panels = n.div_ceil(NR);
    let fill = |pc: usize, offset: usize, part: &mut [f32]| {
        let p0 = pc * KC;
        let kc = KC.min(k - p0);
        // Only full (kc == KC) blocks are ever split, so `offset` is a
        // whole number of KC-deep micropanels; the tight-depth final
        // block always arrives whole with offset 0.
        let jp0 = offset / (KC * NR);
        for (dj, panel) in part.chunks_mut(kc * NR).enumerate() {
            let j0 = (jp0 + dj) * NR;
            let nr = NR.min(n - j0);
            for (p, row) in panel.chunks_mut(NR).enumerate() {
                let (live, pad) = row.split_at_mut(nr);
                fill_row(p0 + p, j0, live);
                pad.fill(0.0);
            }
        }
    };
    let packed = &mut packed[..packed_b_len(n, k)];
    if parallel {
        pcnn_parallel::par_chunks_mut_fine(packed, n_panels * KC * NR, KC * NR, fill);
    } else {
        for (pc, block) in packed.chunks_mut(n_panels * KC * NR).enumerate() {
            fill(pc, 0, block);
        }
    }
}

/// Where element `(p, j)` of a `k x n` operand sits in its [`pack_b_with`]
/// image; the rest of `j`'s micropanel row follows it, up to the next
/// multiple of `NR`.
pub(crate) fn packed_b_at(n: usize, k: usize, p: usize, j: usize) -> usize {
    let p0 = p / KC * KC;
    p0 * n.div_ceil(NR) * NR + j / NR * KC.min(k - p0) * NR + (p - p0) * NR + j % NR
}

/// Whether the packed GEMM runs on the AVX-512 tier: what a producer of a
/// packed operand asks before running its own 16-lane body.
pub(crate) fn avx512_tier() -> bool {
    #[cfg(target_arch = "x86_64")]
    if Tier::detect() == Tier::Avx512 {
        return true;
    }
    false
}

/// Writes `row` as `B[p][j0..j0 + row.len()]` of a `k x n` operand into
/// its [`pack_b_with`] image `packed`, a contiguous run per micropanel —
/// for a producer that writes `B` packed itself. The row may run on into
/// the last micropanel's padding, up to [`packed_b_len`]`(n, 1)`: that is
/// how such a producer zeroes it.
pub(crate) fn write_packed_b_row(
    n: usize,
    k: usize,
    p: usize,
    j0: usize,
    row: &[f32],
    packed: &mut [f32],
) {
    let (mut j, mut rest) = (j0, row);
    while !rest.is_empty() {
        let (run, tail) = rest.split_at((NR - j % NR).min(rest.len()));
        packed[packed_b_at(n, k, p, j)..][..run.len()].copy_from_slice(run);
        (j, rest) = (j + run.len(), tail);
    }
}

/// Floats between the end of one packed image and the start of the next,
/// in [`pack_a_images`]'s result and Winograd's `V`: one cache line, so
/// that the same element of the `N` images — which a producer writes
/// together — does not fall in one L1 set (an image is a multiple of 4 KiB
/// on most layer shapes).
pub(crate) const IMAGE_SKEW: usize = 16;

/// Lanes of the column an [`AColumns`] source returns: at least every
/// tier's `MR`.
pub(crate) const A_LANES: usize = 16;

/// The `N` operands [`pack_a_images`] packs, computed a tile column at a
/// time in one pass over their common source.
pub(crate) trait AColumns<const N: usize> {
    /// Column `p` of rows `i0..i0 + live` (`live <= MR`) of every image,
    /// with zeros in the lanes past `live`: they are a ragged last tile's
    /// padding. The portable body, and the oracle of
    /// [`store_avx512`](Self::store_avx512).
    fn column(&self, p: usize, i0: usize, live: usize) -> [[f32; A_LANES]; N];

    /// [`column`](Self::column) on the AVX-512 tier, stored in place: image
    /// `x`'s 16 lanes at `images[x * len + at..][..A_LANES]`, bitwise what
    /// `column` returns — which is all this default does. A source
    /// overrides it with an explicit 16-lane body.
    ///
    /// # Safety
    ///
    /// The CPU runs `avx512f`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn store_avx512(
        &self,
        p: usize,
        i0: usize,
        live: usize,
        images: &mut [f32],
        at: usize,
        len: usize,
    ) {
        for (x, col) in self.column(p, i0, live).iter().enumerate() {
            images[x * len + at..][..A_LANES].copy_from_slice(col);
        }
    }
}

/// A closure returning the columns is a source with the portable body
/// only.
impl<F: Fn(usize, usize, usize) -> [[f32; A_LANES]; N], const N: usize> AColumns<N> for F {
    fn column(&self, p: usize, i0: usize, live: usize) -> [[f32; A_LANES]; N] {
        self(p, i0, live)
    }
}

/// Length in f32 of one packed-`A` image of an `m x k` operand on `tier`.
fn packed_a_len_on(tier: Tier, m: usize, k: usize) -> usize {
    m.div_ceil(tier.mr()) * tier.mr() * k
}

/// Packs `N` `m x k` operands for [`gemm_packed_ab`] into one pooled
/// scratch of `N` equal images — the `A` side's one owner of the layout,
/// as [`pack_b_with`] is `B`'s — from the columns `source` computes, so a
/// caller computes all `N` operands in one pass over its source. Each
/// image is followed by [`IMAGE_SKEW`] unused floats: image `x` starts at
/// `x * packed.len() / N`.
///
/// The image is the layout [`gemm`] packs one `MC`-row group into, for the
/// whole operand: `KC` block `pc` starts at `p0 * ceil(m/MR) * MR`
/// (`p0 = pc * KC`) and holds the row tiles in order, `kc * MR` elements
/// each, element `(p, i)` of a tile at `p * MR + i`.
pub(crate) fn pack_a_images<const N: usize>(
    m: usize,
    k: usize,
    source: &impl AColumns<N>,
) -> pcnn_parallel::ScratchF32 {
    pack_a_images_on(Tier::detect(), m, k, source)
}

fn pack_a_images_on<const N: usize>(
    tier: Tier,
    m: usize,
    k: usize,
    source: &impl AColumns<N>,
) -> pcnn_parallel::ScratchF32 {
    let len = packed_a_len_on(tier, m, k) + IMAGE_SKEW;
    let mut packed = pcnn_parallel::scratch_f32(N * len);
    let images = &mut packed[..];
    match tier {
        // SAFETY: `Tier::Avx512` is only constructed after the runtime
        // probe found `avx512f` (the invariant on `Tier`).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { fill_a_images_avx512(m, k, images, len, source) },
        _ => a_image_walk::<MR_BASE>(m, k, |p, i0, live, at| {
            for (x, col) in source.column(p, i0, live).iter().enumerate() {
                images[x * len + at..][..MR_BASE].copy_from_slice(&col[..MR_BASE]);
            }
        }),
    }
    packed
}

/// [`pack_a_images`] on the AVX-512 tier: the source's 16-lane body stores
/// each column in place.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_a_images_avx512<const N: usize>(
    m: usize,
    k: usize,
    images: &mut [f32],
    len: usize,
    source: &impl AColumns<N>,
) {
    a_image_walk::<MR_AVX512>(m, k, |p, i0, live, at| {
        // SAFETY: this function runs only where `avx512f` does.
        unsafe { source.store_avx512(p, i0, live, images, at, len) }
    });
}

/// The packed-`A` image's walk for an `MR`-row tile: blocks, then tiles,
/// then depth, so each image is written front to back in `MR`-float runs.
/// `visit(p, i0, live, at)`: column `p` of the tile at row `i0` (`live`
/// rows of it real) starts at `at` in each image.
#[inline(always)]
fn a_image_walk<const MR: usize>(
    m: usize,
    k: usize,
    mut visit: impl FnMut(usize, usize, usize, usize),
) {
    const { assert!(MR <= A_LANES, "a tile column fits the lanes") };
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            let tile = p0 * m.div_ceil(MR) * MR + i0 * kc;
            for p in 0..kc {
                visit(p0 + p, i0, MR.min(m - i0), tile + p * MR);
            }
        }
    }
}

/// Packs `rows x kc` of `A` (starting at `(m0, p0)`) into `MR`-row
/// micropanels: tile `ir` starts at `ir * kc * MR`, element `(p, i)` at
/// `p * MR + i`. Short bottom tiles are zero-padded; every element of
/// `packed[..ceil(rows/MR) * kc * MR]` is written, so pooled scratch with
/// unspecified contents is safe.
fn pack_a<const MR: usize>(
    m0: usize,
    rows: usize,
    p0: usize,
    kc: usize,
    k: usize,
    a: &[f32],
    packed: &mut [f32],
) {
    for (ir, tile) in packed[..rows.div_ceil(MR) * kc * MR]
        .chunks_mut(kc * MR)
        .enumerate()
    {
        let i0 = ir * MR;
        let mr = MR.min(rows - i0);
        if mr < MR {
            tile.fill(0.0);
        }
        for i in 0..mr {
            let row = &a[(m0 + i0 + i) * k + p0..(m0 + i0 + i) * k + p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                tile[p * MR + i] = v;
            }
        }
    }
}

/// One worker's rectangle of the packed GEMM:
/// `C[tiles tile_rows, panels tile_cols] += A * B`, the tiles being
/// `tier`'s.
///
/// Checks its `A`-packing scratch out of the pool (unless `A` arrives
/// packed), then dispatches to the tier's instantiation of
/// [`gemm_tiles_body`]: the whole loop nest
/// compiled for AVX-512 around [`microkernel_avx512`], for AVX2 around
/// [`microkernel_avx2`], or the baseline build around the portable
/// [`microkernel`]. All three perform the identical sequence of IEEE
/// mul/add per accumulator on the one packed-`B` layout, so the result is
/// bitwise-equal whichever runs.
#[allow(clippy::too_many_arguments)]
fn gemm_tiles(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    a: OperandA,
    b_pack: &[f32],
    sink: &TileSink,
    tile_rows: Range<usize>,
    tile_cols: Range<usize>,
) {
    if tile_rows.is_empty() || tile_cols.is_empty() {
        return;
    }
    let mr = tier.mr();
    let group_cap = (MC / mr).min(tile_rows.len());
    // A packed image needs no packing scratch.
    let mut a_pack = matches!(a, OperandA::Rows(_)).then(|| {
        let span = phase_span(Phase::PackA);
        let a_pack = pcnn_parallel::scratch_f32(group_cap * KC * mr);
        if let Some(s) = span {
            // Scratch checkout for the A-panel group (pool bookkeeping plus
            // any first-use zero-fill), counted without the tile padding.
            let rows = (tile_rows.end * mr).min(m) - tile_rows.start * mr;
            s.finish(0, 4 * (rows.min(MC) * KC) as u64);
        }
        a_pack
    });
    let a_pack = a_pack.as_deref_mut().unwrap_or_default();
    match tier {
        // SAFETY: `Tier::Avx512` is only constructed after the runtime
        // probe found `avx512f` (the invariant on `Tier`).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe {
            gemm_tiles_avx512(m, n, k, a, b_pack, sink, tile_rows, tile_cols, a_pack)
        },
        // SAFETY: `Tier::Avx2` is only constructed after the runtime
        // probe found `avx2` (the invariant on `Tier`).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe {
            gemm_tiles_avx2(m, n, k, a, b_pack, sink, tile_rows, tile_cols, a_pack)
        },
        Tier::Portable => gemm_tiles_body(
            m,
            n,
            k,
            a,
            b_pack,
            sink,
            tile_rows,
            tile_cols,
            a_pack,
            |kc, _, a_micro, b_micro| microkernel::<MR_BASE>(kc, a_micro, b_micro),
        ),
    }
}

/// AVX-512 instantiation of [`gemm_tiles_body`]: packing and the `C`
/// update are compiled for the 16-row tile with 512-bit vectors available,
/// and the tile product is the explicit [`microkernel_avx512`] — or, on a
/// last panel of at most [`RAGGED_COLUMNS`] live columns,
/// [`microkernel_avx512_columns`] (the closure inherits this function's
/// target features, so the kernels inline into the loop nest).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn gemm_tiles_avx512(
    m: usize,
    n: usize,
    k: usize,
    a: OperandA,
    b_pack: &[f32],
    sink: &TileSink,
    tile_rows: Range<usize>,
    tile_cols: Range<usize>,
    a_pack: &mut [f32],
) {
    gemm_tiles_body(
        m,
        n,
        k,
        a,
        b_pack,
        sink,
        tile_rows,
        tile_cols,
        a_pack,
        |kc, nr, a_micro, b_micro| match nr {
            NR => microkernel_avx512::<MR_AVX512>(kc, a_micro, b_micro),
            _ => ragged_avx512(kc, nr, a_micro, b_micro),
        },
    )
}

/// The AVX-512 tile product of a panel with `nr < NR` live columns:
/// [`microkernel_avx512_columns`] at the next multiple of 4 up to
/// [`RAGGED_COLUMNS`] (a dead column reads `B`'s zero padding and is never
/// stored), the full tile past it. Never inlined: at most one panel per
/// row band is ragged, and its kernels inlined into the loop nest cost the
/// full tiles' code 15–20 % on `k = 27` (VGG-16's conv1_1 through direct).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn ragged_avx512(kc: usize, nr: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR_AVX512] {
    const { assert!(RAGGED_COLUMNS == 12, "one arm per width below") };
    match nr {
        ..=4 => microkernel_avx512_columns::<4>(kc, a, b),
        5..=8 => microkernel_avx512_columns::<8>(kc, a, b),
        9..=12 => microkernel_avx512_columns::<12>(kc, a, b),
        _ => microkernel_avx512::<MR_AVX512>(kc, a, b),
    }
}

/// AVX2 instantiation of [`gemm_tiles_body`]: packing and the `C` update
/// autovectorise 8 lanes wide, and the tile product is the explicit
/// [`microkernel_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_tiles_avx2(
    m: usize,
    n: usize,
    k: usize,
    a: OperandA,
    b_pack: &[f32],
    sink: &TileSink,
    tile_rows: Range<usize>,
    tile_cols: Range<usize>,
    a_pack: &mut [f32],
) {
    gemm_tiles_body(
        m,
        n,
        k,
        a,
        b_pack,
        sink,
        tile_rows,
        tile_cols,
        a_pack,
        |kc, _, a_micro, b_micro| microkernel_avx2(kc, a_micro, b_micro),
    )
}

/// The rectangle loop nest: ascending `KC` blocks on the outside (the
/// per-element accumulation order that fixes bitwise determinism), then
/// `MC`-row `A` groups (packed into `a_pack`, or read from a packed
/// image), then the `jr`/`ir` loops calling `kernel(kc, nr, a, b)` on one
/// `MR x NR` tile at a time, `nr` of its columns live. `tile_rows` counts
/// `MR`-row tiles.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tiles_body<const MR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: OperandA,
    b_pack: &[f32],
    sink: &TileSink,
    tile_rows: Range<usize>,
    tile_cols: Range<usize>,
    a_pack: &mut [f32],
    kernel: impl Fn(usize, usize, &[f32], &[f32]) -> [[f32; NR]; MR],
) {
    const { assert!(MC.is_multiple_of(MR), "packing groups hold whole tiles") };
    let n_panels = n.div_ceil(NR);
    for pc in 0..k.div_ceil(KC) {
        let p0 = pc * KC;
        let kc = KC.min(k - p0);
        let b_block = &b_pack[p0 * n_panels * NR..];
        let mut g0 = tile_rows.start;
        while g0 < tile_rows.end {
            let g_tiles = (MC / MR).min(tile_rows.end - g0);
            let rows = (g_tiles * MR).min(m - g0 * MR);
            let a_group: &[f32] = match a {
                OperandA::Rows(a) => {
                    let span = phase_span(Phase::PackA);
                    pack_a::<MR>(
                        g0 * MR,
                        rows,
                        p0,
                        kc,
                        k,
                        a,
                        &mut a_pack[..g_tiles * kc * MR],
                    );
                    if let Some(s) = span {
                        // Reads the rows x kc source and writes it packed;
                        // the tile padding is the tier's and is not counted.
                        s.finish(0, 4 * (2 * rows * kc) as u64);
                    }
                    &a_pack[..g_tiles * kc * MR]
                }
                // The group's tiles are one run of the block's image.
                OperandA::Packed(image) => {
                    &image[p0 * m.div_ceil(MR) * MR + g0 * kc * MR..][..g_tiles * kc * MR]
                }
            };
            let set = pc == 0 && matches!(a, OperandA::Packed(_));
            let span = phase_span(Phase::Microkernel);
            for jp in tile_cols.clone() {
                let b_micro = &b_block[jp * kc * NR..(jp + 1) * kc * NR];
                let j0 = jp * NR;
                let nr = NR.min(n - j0);
                for (g, a_micro) in a_group.chunks(kc * MR).enumerate() {
                    let i0 = (g0 + g) * MR;
                    let mr = MR.min(m - i0);
                    let acc = kernel(kc, nr, a_micro, b_micro);
                    for (i, acc_row) in acc.iter().enumerate().take(mr) {
                        // SAFETY: row `i0 + i` < m and columns
                        // `j0..j0 + nr` <= n lie inside `C`, and this
                        // task is the sole owner of the rectangle.
                        unsafe { sink.write(set, (i0 + i) * n + j0, &acc_row[..nr]) };
                    }
                }
            }
            if let Some(s) = span {
                // Effective (unpadded) column count of this rectangle.
                let ncols = tile_cols.len() * NR
                    - if tile_cols.end == n_panels {
                        n_panels * NR - n
                    } else {
                        0
                    };
                s.finish(
                    2 * (rows * kc * ncols) as u64,
                    // The group's rows of A + packed B panels + C
                    // read/write (written only, when set).
                    4 * (rows * kc + tile_cols.len() * kc * NR + (2 - set as usize) * rows * ncols)
                        as u64,
                );
            }
            g0 += g_tiles;
        }
    }
}

/// The portable `MR x NR` register-blocked microkernel: returns the
/// product of an `MR x kc` packed `A` micropanel and a `kc x NR` packed
/// `B` micropanel. Constant loop bounds let LLVM keep `acc` in vector
/// registers and autovectorize without reassociating any float sum.
///
/// It is the kernel of the portable tier and, at each explicit kernel's
/// tile height, the differential oracle that kernel is tested bitwise
/// against.
#[inline(always)]
fn microkernel<const MR: usize>(kc: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let av: &[f32; MR] = a[p * MR..p * MR + MR].try_into().expect("packed A tile");
        let bv: &[f32; NR] = b[p * NR..p * NR + NR].try_into().expect("packed B tile");
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
    acc
}

/// [`microkernel`] written out for AVX2: each accumulator row is two
/// 8-lane vectors, each depth step is two `B` loads, `MR` broadcasts and
/// `2 * MR` multiply-then-add pairs. Explicitly `_mm256_mul_ps` followed
/// by `_mm256_add_ps` — never a fused multiply-add, whose single rounding would change
/// the bits — with the accumulator as the add's first operand, exactly
/// the portable body's `acc + a * b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn microkernel_avx2(kc: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR_BASE] {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const MR: usize = MR_BASE;
    const { assert!(NR == 16, "two 8-lane vectors per accumulator row") };
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        // SAFETY: `bv` is a `chunks_exact(NR)` chunk — exactly 16
        // contiguous f32 — so both unaligned 8-lane loads are in bounds.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bv.as_ptr()),
                _mm256_loadu_ps(bv.as_ptr().add(8)),
            )
        };
        for i in 0..MR {
            let ai = _mm256_set1_ps(av[i]);
            acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(ai, b0));
            acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(ai, b1));
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, vecs) in out.iter_mut().zip(&acc) {
        // SAFETY: `row` is a `[f32; 16]`, room for two unaligned 8-lane
        // stores at offsets 0 and 8.
        unsafe {
            _mm256_storeu_ps(row.as_mut_ptr(), vecs[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), vecs[1]);
        }
    }
    out
}

/// [`microkernel`] written out for AVX-512: each accumulator row is one
/// 16-lane vector, each depth step is one `B` load, `MR` broadcasts and
/// `MR` multiply-then-add pairs. Explicitly `_mm512_mul_ps` followed by
/// `_mm512_add_ps` — never a fused multiply-add, for the same reason as
/// [`microkernel_avx2`] — with the accumulator as the add's first operand.
/// The kernel does not miss the FMA: `MR` independent four-cycle add
/// chains keep both 512-bit ports busy on separate multiplies and adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn microkernel_avx512<const MR: usize>(kc: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    const { assert!(NR == 16, "one 16-lane vector per accumulator row") };
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    let mut acc = [_mm512_setzero_ps(); MR];
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        // SAFETY: `bv` is a `chunks_exact(NR)` chunk — exactly 16
        // contiguous f32 — so the unaligned 16-lane load is in bounds.
        let b0 = unsafe { _mm512_loadu_ps(bv.as_ptr()) };
        for i in 0..MR {
            acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(_mm512_set1_ps(av[i]), b0));
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, &v) in out.iter_mut().zip(&acc) {
        // SAFETY: `row` is a `[f32; 16]`, room for one unaligned 16-lane
        // store.
        unsafe { _mm512_storeu_ps(row.as_mut_ptr(), v) };
    }
    out
}

/// [`microkernel`]'s first `L < NR` columns, for a ragged panel of at most
/// `L` live ones, written out for AVX-512 the other way round: each column
/// `j` is one 16-lane accumulator over the tile's rows, and each depth
/// step is one `A` load, `L` broadcasts of `b[p][j]` and `L`
/// multiply-then-add pairs, `acc[j] + a[p][0..16] * b[p][j]` — per element
/// the product and the sum [`microkernel`] forms, in the same order over
/// `p` (an IEEE product commutes), so the columns are bitwise its. They
/// are transposed on the way out; the columns past `L` are zero.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn microkernel_avx512_columns<const L: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
) -> [[f32; NR]; MR_AVX512] {
    use core::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    const MR: usize = MR_AVX512;
    const { assert!(MR == 16 && L < NR, "one 16-lane vector per live column") };
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    let mut acc = [_mm512_setzero_ps(); L];
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        // SAFETY: `av` is a `chunks_exact(MR)` chunk — exactly 16
        // contiguous f32 — so the unaligned 16-lane load is in bounds.
        let a0 = unsafe { _mm512_loadu_ps(av.as_ptr()) };
        for j in 0..L {
            acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(a0, _mm512_set1_ps(bv[j])));
        }
    }
    let mut cols = [[0.0f32; MR]; L];
    for (col, &v) in cols.iter_mut().zip(&acc) {
        // SAFETY: `col` is a `[f32; 16]`, room for one unaligned 16-lane
        // store.
        unsafe { _mm512_storeu_ps(col.as_mut_ptr(), v) };
    }
    let mut out = [[0.0f32; NR]; MR];
    for (i, row) in out.iter_mut().enumerate() {
        for (d, col) in row.iter_mut().zip(&cols) {
            *d = col[i];
        }
    }
    out
}

/// `C = A * B + bias` where `bias` is broadcast along rows: `C[i][j] += bias[i]`.
///
/// This matches the fused filter-matrix x data-matrix convolution of the
/// paper's Fig. 2, where each output channel (row of `C`) has one bias.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m/n/k` or
/// `bias.len() < m`.
pub fn gemm_bias(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], bias: &[f32], c: &mut [f32]) {
    assert!(bias.len() >= m, "bias too short: {} < {m}", bias.len());
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    let span = phase_span(Phase::Epilogue);
    for i in 0..m {
        let row = &mut c[i * n..i * n + n];
        for v in row.iter_mut() {
            *v = bias[i];
        }
    }
    if let Some(s) = span {
        s.finish(0, 4 * (m * n) as u64);
    }
    gemm(m, n, k, a, b, c);
}

/// Lanes of the split-accumulator dot product behind every [`gemm_nt`]
/// output. The lane structure (and the final combining tree) is fixed in
/// source, so the reduction order never depends on the compiler's vector
/// width — and with eight lanes one accumulator is exactly one AVX2
/// register.
const DOT_LANES: usize = 8;

/// Rows of the outermost operand per [`gemm_nt`] panel: the unit of the
/// loop nest and of the parallel split, and the `B` side of the tall
/// `1 x NT_PANEL` tile — one `A` row (a leftover after the groups of
/// [`NT_GROUP`]; every row when `m < 4`, so this is the batch-1 FC
/// kernel) against four streamed `B` rows, four independent accumulator
/// chains.
const NT_PANEL: usize = 4;
/// Rows of `A` in the wide `NT_GROUP x NT_PAIR` tile.
const NT_GROUP: usize = 4;
/// Rows of `B` in the wide tile (half a panel): 8 accumulators + 4 `A`
/// vectors + 2 `B` vectors = 14 of AVX2's 16 `ymm` registers, and six
/// loads feed eight multiply-add pairs.
const NT_PAIR: usize = 2;

/// `C += A * B^T` for row-major matrices: `A` is `m x k`, `B` is `n x k`,
/// `C` is `m x n`.
///
/// Used by the linear forward pass (`A` = the batch's features, `B` = the
/// weights) and the convolution backward pass (`dW = dOut * cols^T`).
///
/// Every output is one split-accumulator dot product: [`DOT_LANES`]
/// lanes, lane `l` accumulating `acc = acc + a[p] * b[p]` (one IEEE
/// multiply, one IEEE add — never fused) over `p = l, l + 8, ...` in
/// ascending order from `+0.0`, the lanes combined by the fixed tree
/// `((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))` and the result added to `C`
/// once. That sequence is the rounding contract (DESIGN.md, "`gemm_nt`
/// rounding contract"; `tests/gemm_nt_bits.rs` pins the bits). Everything
/// else only decides which outputs are computed side by side:
///
/// - a register tile of `NT_GROUP x NT_PAIR` or `1 x NT_PANEL` dot
///   products shares every operand load between its accumulators;
/// - the operand with more rows is walked outermost, [`NT_PANEL`] rows at
///   a time, and is therefore read from memory **once per call** — for a
///   batched FC layer each weight row feeds every image of the batch —
///   while the smaller operand is re-read per panel, from cache;
/// - large calls split into contiguous ranges of those panels, one per
///   worker (a function of shape and pool width only), each worker
///   computing every row of the other operand for its range.
///
/// Results are therefore bitwise identical at any thread count.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied length.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "A too short");
    assert!(b.len() >= n * k, "B too short");
    assert!(c.len() >= m * n, "C too short");
    if m == 0 || n == 0 {
        return;
    }
    let sink = TileSink {
        ptr: c.as_mut_ptr(),
    };
    // The operand with more rows goes outermost: it is the one that may
    // not fit in cache, and the outermost operand is streamed once.
    let b_outer = n >= m;
    let panels = if b_outer { n } else { m }.div_ceil(NT_PANEL);
    let run = |panels: Range<usize>| {
        let outer = |len: usize| panels.start * NT_PANEL..(panels.end * NT_PANEL).min(len);
        let (rows, cols) = if b_outer {
            (0..m, outer(n))
        } else {
            (outer(m), 0..n)
        };
        gemm_nt_rect(n, k, a, b, &sink, rows, cols, b_outer);
    };
    let span = phase_span(Phase::Microkernel);
    if m * n * k < PAR_MAC_THRESHOLD {
        run(0..panels);
    } else {
        pcnn_parallel::with_region_label("gemm_nt", || pcnn_parallel::par_for(panels, 1, run));
    }
    if let Some(s) = span {
        s.finish(
            2 * (m * n * k) as u64,
            // Each operand once plus the C read/write — the packed
            // GEMM's convention, and since the panel walk what a call
            // whose smaller operand stays in cache really moves.
            4 * (m * k + n * k + 2 * m * n) as u64,
        );
    }
}

/// One worker's rectangle of [`gemm_nt`]: `C[rows, cols] += A[rows] *
/// B[cols]^T`, dispatched once (cached feature probe) between the two
/// instantiations of [`gemm_nt_rect_body`] — the explicit AVX2 tiles on
/// x86-64 with AVX2, their portable twins anywhere else. Both run the
/// identical IEEE sequence per output, so the result is bitwise-equal
/// whichever path runs.
#[allow(clippy::too_many_arguments)]
fn gemm_nt_rect(
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    sink: &TileSink,
    rows: Range<usize>,
    cols: Range<usize>,
    b_outer: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is established by the runtime
        // feature probe on the line above.
        return unsafe { gemm_nt_rect_avx2(n, k, a, b, sink, rows, cols, b_outer) };
    }
    gemm_nt_rect_body(n, k, a, b, sink, rows, cols, b_outer, nt_dots, nt_dots)
}

/// AVX2 instantiation of [`gemm_nt_rect_body`] (the closures inherit this
/// function's target features, so calling the explicit tiles is safe).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_nt_rect_avx2(
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    sink: &TileSink,
    rows: Range<usize>,
    cols: Range<usize>,
    b_outer: bool,
) {
    gemm_nt_rect_body(
        n,
        k,
        a,
        b,
        sink,
        rows,
        cols,
        b_outer,
        |a_rows, b_rows| nt_dots_avx2(a_rows, b_rows),
        |a_rows, b_rows| nt_dots_avx2(a_rows, b_rows),
    )
}

/// Row `r` of a row-major matrix with `k` columns.
#[inline(always)]
fn row_of(x: &[f32], k: usize, r: usize) -> &[f32] {
    &x[r * k..(r + 1) * k]
}

/// The rectangle loop nest of [`gemm_nt`]. `rows` decompose into groups
/// of [`NT_GROUP`] and then single rows, `cols` into panels of
/// [`NT_PANEL`]; `b_outer` puts the panel loop outside (each `B` panel
/// meets every row group while it is cache-hot) or inside (each `A` row
/// group meets every panel). `wide` and `tall` return the finished dot
/// products of one register tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nt_rect_body(
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    sink: &TileSink,
    rows: Range<usize>,
    cols: Range<usize>,
    b_outer: bool,
    wide: impl Fn([&[f32]; NT_GROUP], [&[f32]; NT_PAIR]) -> [[f32; NT_PAIR]; NT_GROUP],
    tall: impl Fn([&[f32]; 1], [&[f32]; NT_PANEL]) -> [[f32; NT_PANEL]; 1],
) {
    // C[i0..i0 + mb, j0..j0 + nb] for one row group and one panel.
    let block = |i0: usize, mb: usize, j0: usize, nb: usize| {
        // A ragged panel repeats its last row, so every tile is whole;
        // the repeated dot products are computed and dropped.
        let b_rows: [&[f32]; NT_PANEL] = std::array::from_fn(|j| row_of(b, k, j0 + j.min(nb - 1)));
        if mb == NT_GROUP {
            let a_rows = std::array::from_fn(|i| row_of(a, k, i0 + i));
            for jj in (0..nb).step_by(NT_PAIR) {
                let dots = wide(a_rows, [b_rows[jj], b_rows[jj + 1]]);
                for (i, d) in dots.iter().enumerate() {
                    // SAFETY: row `i0 + i` and columns `j0 + jj..` up to
                    // `j0 + nb` lie inside this task's rectangle of `C`,
                    // which no other task writes.
                    unsafe {
                        sink.accumulate((i0 + i) * n + j0 + jj, &d[..NT_PAIR.min(nb - jj)]);
                    }
                }
            }
        } else {
            let dots = tall([row_of(a, k, i0)], b_rows);
            // SAFETY: as above — row `i0`, columns `j0..j0 + nb`.
            unsafe { sink.accumulate(i0 * n + j0, &dots[0][..nb]) };
        }
    };
    let col_panels = || {
        cols.clone()
            .step_by(NT_PANEL)
            .map(|j0| (j0, NT_PANEL.min(cols.end - j0)))
    };
    let full = rows.start + rows.len() / NT_GROUP * NT_GROUP;
    let row_groups = || {
        (rows.start..full)
            .step_by(NT_GROUP)
            .map(|i0| (i0, NT_GROUP))
            .chain((full..rows.end).map(|i0| (i0, 1)))
    };
    if b_outer {
        for (j0, nb) in col_panels() {
            for (i0, mb) in row_groups() {
                block(i0, mb, j0, nb);
            }
        }
    } else {
        for (i0, mb) in row_groups() {
            for (j0, nb) in col_panels() {
                block(i0, mb, j0, nb);
            }
        }
    }
}

/// The portable `MB x NB` register tile of [`gemm_nt`]: the dot products
/// of `MB` rows of `A` with `NB` rows of `B`, each accumulated in its own
/// [`DOT_LANES`] lanes over the whole eight-element chunks of `k` and
/// finished by [`nt_finish`]. Constant bounds let LLVM keep `acc` in
/// vector registers without reassociating any sum.
///
/// It is the kernel of every target without AVX2 and the differential
/// oracle [`nt_dots_avx2`] is tested bitwise against.
#[inline(always)]
fn nt_dots<const MB: usize, const NB: usize>(a: [&[f32]; MB], b: [&[f32]; NB]) -> [[f32; NB]; MB] {
    let chunk = |row: &[f32], p: usize| -> [f32; DOT_LANES] {
        row[p * DOT_LANES..(p + 1) * DOT_LANES]
            .try_into()
            .expect("whole chunk")
    };
    let mut acc = [[[0.0f32; DOT_LANES]; NB]; MB];
    for p in 0..a[0].len() / DOT_LANES {
        let bv: [[f32; DOT_LANES]; NB] = std::array::from_fn(|j| chunk(b[j], p));
        for i in 0..MB {
            let av = chunk(a[i], p);
            for j in 0..NB {
                for l in 0..DOT_LANES {
                    acc[i][j][l] += av[l] * bv[j][l];
                }
            }
        }
    }
    nt_finish(a, b, acc)
}

/// [`nt_dots`] written out for AVX2: one `ymm` register per dot product,
/// each chunk `NB` loads of `B`, `MB` loads of `A` and `MB * NB`
/// multiply-then-add pairs. Explicitly `_mm256_mul_ps` followed by
/// `_mm256_add_ps` — never a fused multiply-add — with the accumulator as
/// the add's first operand, exactly the portable body's `acc + a * b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn nt_dots_avx2<const MB: usize, const NB: usize>(
    a: [&[f32]; MB],
    b: [&[f32]; NB],
) -> [[f32; NB]; MB] {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    const { assert!(DOT_LANES == 8, "one 8-lane vector per dot product") };
    let chunks = a[0].len() / DOT_LANES;
    assert!(
        a.iter()
            .chain(&b)
            .all(|row| row.len() >= chunks * DOT_LANES),
        "tile rows shorter than the first"
    );
    let mut acc = [[_mm256_setzero_ps(); NB]; MB];
    for p in 0..chunks {
        let at = p * DOT_LANES;
        let mut bv = [_mm256_setzero_ps(); NB];
        for j in 0..NB {
            // SAFETY: `at + 8 <= chunks * 8 <= b[j].len()` by the assert
            // before the loop, so the unaligned 8-lane load is in bounds.
            bv[j] = unsafe { _mm256_loadu_ps(b[j].as_ptr().add(at)) };
        }
        for i in 0..MB {
            // SAFETY: as above, for `a[i]`.
            let av = unsafe { _mm256_loadu_ps(a[i].as_ptr().add(at)) };
            for j in 0..NB {
                acc[i][j] = _mm256_add_ps(acc[i][j], _mm256_mul_ps(av, bv[j]));
            }
        }
    }
    let mut lanes = [[[0.0f32; DOT_LANES]; NB]; MB];
    for (row, vecs) in lanes.iter_mut().zip(&acc) {
        for (l, &v) in row.iter_mut().zip(vecs) {
            // SAFETY: `l` is a `[f32; 8]`, room for one unaligned 8-lane
            // store.
            unsafe { _mm256_storeu_ps(l.as_mut_ptr(), v) };
        }
    }
    nt_finish(a, b, lanes)
}

/// Finishes a tile's dot products from their lane accumulators: the
/// `k % 8` tail elements go to lanes `0..k % 8` in order, then the fixed
/// combining tree. Scalar on every ISA — once per output, not per `k`.
#[inline(always)]
fn nt_finish<const MB: usize, const NB: usize>(
    a: [&[f32]; MB],
    b: [&[f32]; NB],
    lanes: [[[f32; DOT_LANES]; NB]; MB],
) -> [[f32; NB]; MB] {
    let k = a[0].len();
    let tail = k - k % DOT_LANES;
    let mut dots = [[0.0f32; NB]; MB];
    for i in 0..MB {
        for j in 0..NB {
            let mut l = lanes[i][j];
            for (lane, (x, y)) in l.iter_mut().zip(a[i][tail..].iter().zip(&b[j][tail..k])) {
                *lane += x * y;
            }
            dots[i][j] = ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]));
        }
    }
    dots
}

/// `C += A^T * B` for row-major matrices: `A` is `k x m`, `B` is `k x n`,
/// `C` is `m x n`.
///
/// Used by the convolution/linear backward passes (`dCols = W^T * dOut`).
/// Rows of `C` are computed in parallel, splitting *within* rows when
/// there are fewer rows than workers; per element the accumulation runs
/// in ascending `k` order exactly as the serial loop does, so results are
/// deterministic at any thread count.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied length.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= k * m, "A too short");
    assert!(b.len() >= k * n, "B too short");
    assert!(c.len() >= m * n, "C too short");
    if m == 0 || n == 0 {
        return;
    }
    let row_job = |i: usize, j0: usize, c_part: &mut [f32]| {
        for p in 0..k {
            let aval = a[p * m + i];
            // Whole-row skip: backward passes feed ReLU-masked gradients
            // where entire `dOut` rows are zero. (The *inner* loop stays
            // branch-free.)
            if aval == 0.0 {
                continue;
            }
            let b_row = &b[p * n + j0..p * n + j0 + c_part.len()];
            for (cv, &bv) in c_part.iter_mut().zip(b_row) {
                *cv += aval * bv;
            }
        }
    };
    if m * n * k < PAR_MAC_THRESHOLD {
        for (i, c_row) in c[..m * n].chunks_mut(n).enumerate() {
            row_job(i, 0, c_row);
        }
    } else {
        pcnn_parallel::par_chunks_mut_fine(&mut c[..m * n], n, 1, row_job);
    }
}

/// Reference triple-loop GEMM used to validate [`gemm`] in tests and
/// property checks. `C += A * B`.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied length.
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i % 13) as f32 - 6.0).collect()
    }

    #[test]
    fn gemm_matches_naive_small() {
        let (m, n, k) = (3, 4, 5);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, n, k, &a, &b, &mut c1);
        gemm_naive(m, n, k, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn gemm_matches_naive_blocked_boundary() {
        // One past the packing group (96 rows), a ragged last tile on
        // both axes whatever the tier (97 = 16 x 6 + 1 = 6 x 16 + 1,
        // 67 = 4 x 16 + 3) and one past a full pack block (257 = KC + 1).
        let (m, n, k) = (97, 67, 257);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, n, k, &a, &b, &mut c1);
        gemm_naive(m, n, k, &a, &b, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_accumulates() {
        let mut c = vec![1.0; 4];
        gemm(2, 2, 1, &[1.0, 2.0], &[3.0, 4.0], &mut c);
        assert_eq!(c, vec![4.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn gemm_bias_broadcasts_per_row() {
        let a = [1.0, 0.0, 0.0, 1.0]; // identity
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        gemm_bias(2, 2, 2, &a, &b, &[10.0, 20.0], &mut c);
        assert_eq!(c, vec![15.0, 16.0, 27.0, 28.0]);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        gemm(0, 0, 0, &[], &[], &mut c);
        let mut c = vec![3.0; 2];
        gemm(1, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn gemm_panics_on_short_a() {
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &[1.0; 3], &[1.0; 4], &mut c);
    }

    #[test]
    fn microkernel_matches_naive_exactly_on_integers() {
        // Small-integer values make every f32 operation exact, so packed
        // and naive accumulation orders must agree to the bit — at both
        // tile heights the tiers use.
        fn check<const MR: usize>() {
            let kc = 19;
            let a: Vec<f32> = (0..kc * MR).map(|i| (i % 5) as f32 - 2.0).collect();
            let b: Vec<f32> = (0..kc * NR).map(|i| (i % 9) as f32 - 4.0).collect();
            let acc = microkernel::<MR>(kc, &a, &b);
            for i in 0..MR {
                for j in 0..NR {
                    let want: f32 = (0..kc).map(|p| a[p * MR + i] * b[p * NR + j]).sum();
                    assert_eq!(acc[i][j], want, "{MR}-row tile ({i},{j})");
                }
            }
        }
        check::<MR_BASE>();
        check::<16>();
    }

    /// Full-mantissa pseudo-random values in `[-0.5, 0.5)`: every
    /// product and every partial sum rounds, so a fused multiply-add or
    /// a reordered sum would show in the bits.
    fn noise(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Holds an explicit `kernel` bitwise to the portable microkernel of
    /// its tile height at every depth in `0..=300` (past `KC`: the kernel
    /// does not know the constant), the live extent of the tile cycling
    /// through 1..=MR rows and 1..=NR columns; the dead rows and columns
    /// are zero, as `pack_a` / `pack_b_with` pad them.
    #[cfg(target_arch = "x86_64")]
    fn assert_bitwise_the_portable_microkernel<const MR: usize>(
        kernel: impl Fn(usize, &[f32], &[f32]) -> [[f32; NR]; MR],
    ) {
        for kc in 0..=300 {
            let (mr, nr) = (1 + kc % MR, 1 + kc % NR);
            let mut a = noise(kc as u64, kc * MR);
            let mut b = noise(!(kc as u64), kc * NR);
            for p in 0..kc {
                a[p * MR + mr..(p + 1) * MR].fill(0.0);
                b[p * NR + nr..(p + 1) * NR].fill(0.0);
            }
            let want = microkernel::<MR>(kc, &a, &b);
            let got = kernel(kc, &a, &b);
            for i in 0..MR {
                assert_eq!(bits(&got[i]), bits(&want[i]), "kc {kc}, tile row {i}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_microkernel_is_bitwise_the_portable_microkernel() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU lacks AVX2, the explicit microkernel never runs here");
            return;
        }
        // SAFETY: AVX2 support was probed at the top of the test.
        assert_bitwise_the_portable_microkernel(|kc, a, b| unsafe { microkernel_avx2(kc, a, b) });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_microkernel_is_bitwise_the_portable_microkernel() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            eprintln!("skipped: this CPU lacks AVX-512F, the 16-lane microkernel never runs here");
            return;
        }
        // SAFETY: AVX-512F support was probed at the top of the test.
        assert_bitwise_the_portable_microkernel(|kc, a, b| unsafe {
            microkernel_avx512::<MR_AVX512>(kc, a, b)
        });
    }

    proptest::proptest! {
        /// The whole `gemm` — packing, partition, loop nest, microkernel,
        /// `C` update — on every tier this CPU runs is bitwise the
        /// portable tier: ragged rows and columns on both tile heights,
        /// depths on either side of `KC` and of two blocks, a non-zero
        /// `C`, and pool widths that split the larger cases — 1–3, or
        /// (drawn as 0) the ambient width, which CI sets to 2 and 8.
        #[test]
        fn gemm_on_every_tier_is_bitwise_the_portable_tier(
            m in 1usize..71,
            n in 1usize..71,
            k in 0usize..601,
            threads in 0usize..4,
            seed in proptest::any::<u64>(),
        ) {
            let a = noise(seed, m * k);
            let b = noise(seed ^ 0xB0B, k * n);
            let c0 = noise(seed ^ 0xC0C, m * n);
            let width = match threads {
                0 => pcnn_parallel::current_threads(),
                w => w,
            };
            let run = |tier: Tier| {
                let mut c = c0.clone();
                pcnn_parallel::with_threads(width, || {
                    gemm_on(tier, m, n, k, &a, &b, &mut c)
                });
                bits(&c)
            };
            let want = run(Tier::Portable);
            for tier in Tier::available() {
                proptest::prop_assert_eq!(
                    &run(tier), &want,
                    "{}x{}x{} at width {} on {}", m, n, k, width, tier
                );
            }
        }
    }

    /// The packed entry with its first-block store is, bit for bit, `gemm`
    /// into a zeroed `C`, on every tier this CPU runs, at pool widths 1, 2
    /// and the ambient one (CI sets 2 and 8); the 2-D split reads a row
    /// range of the packed `A` image and a panel range of the packed `B`.
    /// Shapes: ragged rows on both tile heights, ragged columns (every
    /// last-panel width the AVX-512 tier computes column by column among
    /// them), one and three `KC` blocks, `k = 0`, and operands whose
    /// products are all `-0.0` or cancel exactly, where a first block that
    /// stored a `-0.0` would show. Both images of a two-image pack are run,
    /// so the image offsets are held too.
    #[test]
    fn packed_a_gemm_on_every_tier_is_bitwise_gemm_into_a_zeroed_c() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (7, 33, 300),
            (97, 35, 600),
            (130, 70, 300),
            (16, 16, 256),
            (33, 17, 5),
            (3, 4, 0),
            (16, 28, 513),
            (48, 61, 257),
        ];
        for (case, &(m, n, k)) in shapes.iter().enumerate() {
            let seed = case as u64;
            // `-0.0` times a non-negative `B`: every product is `-0.0`.
            let b_abs: Vec<f32> = noise(seed ^ 0xB0B, k * n).iter().map(|v| v.abs()).collect();
            let minus_zero = [noise(seed, m * k), vec![-0.0; m * k]];
            // Rows whose odd columns negate the even ones, against a `B`
            // whose odd rows repeat the even ones: each pair of products
            // cancels exactly, back to `+0.0`.
            let mut b_pairs = noise(seed ^ 0xB1B, k * n);
            let mut cancel = [noise(seed ^ 0xA2, m * k), noise(seed ^ 0xA3, m * k)];
            for p in (0..k.saturating_sub(1)).step_by(2) {
                for i in 0..m {
                    cancel[0][i * k + p + 1] = -cancel[0][i * k + p];
                }
                b_pairs.copy_within(p * n..(p + 1) * n, (p + 1) * n);
            }
            for (a, b) in [(&minus_zero, &b_abs), (&cancel, &b_pairs)] {
                // `B` packed through its producers' entry, in runs that
                // start anywhere in a micropanel, and the padding zeroed.
                let mut b_pack = vec![f32::NAN; packed_b_len(n, k)];
                for p in 0..k {
                    let row = &b[p * n..][..n];
                    for (i, run) in row.chunks(7 + p % 5).enumerate() {
                        write_packed_b_row(n, k, p, i * (7 + p % 5), run, &mut b_pack);
                    }
                    let pad = vec![0.0; packed_b_len(n, 1) - n];
                    write_packed_b_row(n, k, p, n, &pad, &mut b_pack);
                }
                for width in [1, 2, pcnn_parallel::current_threads()] {
                    for tier in Tier::available() {
                        let packed = pack_a_images_on::<2>(tier, m, k, &|p, i0, live| {
                            let mut cols = [[0.0; A_LANES]; 2];
                            for (x, col) in cols.iter_mut().enumerate() {
                                for (l, v) in col[..live].iter_mut().enumerate() {
                                    *v = a[x][(i0 + l) * k + p];
                                }
                            }
                            cols
                        });
                        let len = packed.len() / 2;
                        for (x, a) in a.iter().enumerate() {
                            let mut want = vec![0.0; m * n];
                            let mut got = vec![f32::NAN; m * n];
                            pcnn_parallel::with_threads(width, || {
                                gemm_on(tier, m, n, k, a, b, &mut want);
                                let image = &packed[x * len..(x + 1) * len];
                                gemm_packed_ab_on(tier, m, n, k, image, &b_pack, &mut got);
                            });
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{m}x{n}x{k}, image {x}, width {width}, {tier}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every ragged last panel, `n % 16` in 1..=15, computes bitwise what
    /// the portable tier does, on every tier this CPU runs — the AVX-512
    /// tier's column kernel up to `RAGGED_COLUMNS` live columns, its full
    /// tile past that — with `k` spanning two `KC` blocks, from a
    /// row-major `A` (added into a non-zero `C`) and from a packed one
    /// (stored).
    #[test]
    fn ragged_panels_on_every_tier_are_bitwise_the_portable_tier() {
        let (m, k) = (37, KC + 45);
        for nr in 1..NR {
            let n = NR + nr;
            let a = noise(nr as u64, m * k);
            let b = noise(!(nr as u64), k * n);
            let c0 = noise(0xC0C ^ nr as u64, m * n);
            let mut b_pack = vec![0.0; packed_b_len(n, k)];
            pack_b_with(n, k, &mut b_pack, false, |p, j0, dst| {
                dst.copy_from_slice(&b[p * n + j0..][..dst.len()]);
            });
            let run = |tier: Tier| {
                let mut rows = c0.clone();
                gemm_on(tier, m, n, k, &a, &b, &mut rows);
                let image = pack_a_images_on::<1>(tier, m, k, &|p, i0, live| {
                    let mut col = [[0.0; A_LANES]; 1];
                    for (l, v) in col[0][..live].iter_mut().enumerate() {
                        *v = a[(i0 + l) * k + p];
                    }
                    col
                });
                let mut packed = vec![f32::NAN; m * n];
                gemm_packed_ab_on(tier, m, n, k, &image, &b_pack, &mut packed);
                (bits(&rows), bits(&packed))
            };
            let want = run(Tier::Portable);
            for tier in Tier::available() {
                assert!(run(tier) == want, "n % 16 = {nr} on {tier}");
            }
        }
    }

    #[test]
    fn kernel_tier_names_the_detected_tier_and_its_tile() {
        let shown = kernel_tier().to_string();
        // CI prints this line first (`--nocapture`): which kernel the
        // runner's pinned-bits and determinism tests actually exercised.
        println!(
            "GEMM kernel tier: {shown}; tiers under test: {:?}",
            Tier::available()
        );
        let tier = Tier::detect();
        assert_eq!(shown, tier.to_string());
        assert!(shown.ends_with(&format!(" {}x{NR}", tier.mr())), "{shown}");
        assert_eq!(Tier::Portable.to_string(), "portable 6x16");
        // Production runs the best tier the tests can reach.
        assert_eq!(Tier::available().last(), Some(&tier));
    }

    /// The per-output dot product `gemm_nt` was before it was tiled, kept
    /// verbatim as the reference its rounding contract is stated in.
    fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f32; DOT_LANES];
        let chunks = a.len() / DOT_LANES;
        for p in 0..chunks {
            let av = &a[p * DOT_LANES..(p + 1) * DOT_LANES];
            let bv = &b[p * DOT_LANES..(p + 1) * DOT_LANES];
            for l in 0..DOT_LANES {
                lanes[l] += av[l] * bv[l];
            }
        }
        for p in chunks * DOT_LANES..a.len() {
            lanes[p % DOT_LANES] += a[p] * b[p];
        }
        ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
    }

    /// Both tile shapes of one kernel family against `dot_lanes` on
    /// `rows_a` x `rows_b` noise rows of every length in `0..=max_k`.
    fn assert_tiles_match_dot_lanes(
        max_k: usize,
        wide: impl Fn([&[f32]; NT_GROUP], [&[f32]; NT_PAIR]) -> [[f32; NT_PAIR]; NT_GROUP],
        tall: impl Fn([&[f32]; 1], [&[f32]; NT_PANEL]) -> [[f32; NT_PANEL]; 1],
    ) {
        for k in 0..=max_k {
            let a = noise(k as u64, NT_GROUP * k);
            let b = noise(!(k as u64), NT_PANEL * k);
            let a_rows: [&[f32]; NT_GROUP] = std::array::from_fn(|i| row_of(&a, k, i));
            let b_rows: [&[f32]; NT_PANEL] = std::array::from_fn(|j| row_of(&b, k, j));
            let w = wide(a_rows, [b_rows[1], b_rows[2]]);
            for (i, row) in w.iter().enumerate() {
                for (j, got) in row.iter().enumerate() {
                    let want = dot_lanes(a_rows[i], b_rows[1 + j]);
                    assert_eq!(got.to_bits(), want.to_bits(), "k {k}, wide ({i},{j})");
                }
            }
            let t = tall([a_rows[3]], b_rows);
            for (j, got) in t[0].iter().enumerate() {
                let want = dot_lanes(a_rows[3], b_rows[j]);
                assert_eq!(got.to_bits(), want.to_bits(), "k {k}, tall (0,{j})");
            }
        }
    }

    #[test]
    fn portable_nt_tiles_are_bitwise_dot_lanes() {
        assert_tiles_match_dot_lanes(300, nt_dots, nt_dots);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_nt_tiles_are_bitwise_the_portable_tiles() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU lacks AVX2, the explicit tiles never run here");
            return;
        }
        for k in 0..=300 {
            let a = noise(k as u64, NT_GROUP * k);
            let b = noise(!(k as u64), NT_PANEL * k);
            let a_rows: [&[f32]; NT_GROUP] = std::array::from_fn(|i| row_of(&a, k, i));
            let b_rows: [&[f32]; NT_PANEL] = std::array::from_fn(|j| row_of(&b, k, j));
            let wide_b = [b_rows[0], b_rows[3]];
            // SAFETY: AVX2 support was probed at the top of the test.
            let (wide, tall) = unsafe {
                (
                    nt_dots_avx2(a_rows, wide_b),
                    nt_dots_avx2([a_rows[2]], b_rows),
                )
            };
            assert_eq!(
                wide.map(|r| r.map(f32::to_bits)),
                nt_dots(a_rows, wide_b).map(|r| r.map(f32::to_bits)),
                "k {k}, wide"
            );
            assert_eq!(
                tall.map(|r| r.map(f32::to_bits)),
                nt_dots([a_rows[2]], b_rows).map(|r| r.map(f32::to_bits)),
                "k {k}, tall"
            );
        }
        // And against the reference the contract is stated in.
        assert_tiles_match_dot_lanes(
            300,
            // SAFETY: as above.
            |a, b| unsafe { nt_dots_avx2(a, b) },
            |a, b| unsafe { nt_dots_avx2(a, b) },
        );
    }

    proptest::proptest! {
        /// `gemm_nt` is one `dot_lanes` per output, added to `C` once —
        /// whatever the row-group and panel remainders (`m % 4`, `n % 4`,
        /// odd `n`), the `k % 8` tail, which operand is outermost
        /// (`m > n` or not) and, for the cases big enough to split, the
        /// pool width.
        #[test]
        fn gemm_nt_is_bitwise_one_dot_lanes_per_output(
            m in 1usize..11,
            n in 1usize..41,
            k in 0usize..1100,
            threads in 1usize..4,
            seed in proptest::any::<u64>(),
        ) {
            let a = noise(seed, m * k);
            let b = noise(seed ^ 0xB0B, n * k);
            let c0 = noise(seed ^ 0xC0C, m * n);
            let mut c = c0.clone();
            pcnn_parallel::with_threads(threads, || gemm_nt(m, n, k, &a, &b, &mut c));
            for i in 0..m {
                for j in 0..n {
                    let want = c0[i * n + j] + dot_lanes(row_of(&a, k, i), row_of(&b, k, j));
                    proptest::prop_assert_eq!(
                        c[i * n + j].to_bits(),
                        want.to_bits(),
                        "{}x{}x{} at {} threads, element ({}, {})", m, n, k, threads, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn profiling_never_changes_gemm_results() {
        let (m, n, k) = (65, 67, 129);
        let a = seq(m * k);
        let b = seq(k * n);
        let bias = seq(m);
        let mut plain = vec![0.0; m * n];
        gemm_bias(m, n, k, &a, &b, &bias, &mut plain);
        let mut profiled = vec![0.0; m * n];
        pcnn_profile::set_enabled(true);
        pcnn_profile::reset();
        let scope = pcnn_profile::layer_scope(0, "test");
        gemm_bias(m, n, k, &a, &b, &bias, &mut profiled);
        drop(scope);
        pcnn_profile::set_enabled(false);
        assert_eq!(plain, profiled, "profiling perturbed the arithmetic");
        let layers = pcnn_profile::snapshot();
        let l = layers.iter().find(|l| l.index == 0).expect("layer profile");
        assert!(l.phase(Phase::Microkernel).ns > 0 || l.phase(Phase::Microkernel).calls > 0);
        assert!(l.phase(Phase::PackB).calls > 0);
        assert!(l.phase(Phase::Epilogue).calls > 0);
        pcnn_profile::reset();
    }

    #[test]
    fn profile_counts_are_the_same_on_every_tier() {
        // `BENCH_profile.json` is specified machine-independent, so what
        // a span counts may not depend on the tile: flops, bytes and
        // calls per phase agree across tiers on shapes that are whole on
        // every tile (96 = 16 x 6 = 6 x 16 rows), ragged on every tile,
        // shorter than one tile, and several `MC` groups and `KC` blocks
        // long. The pool width is pinned to 1, the width the document is
        // recorded at: a wider pool's 2-D split follows the tile grid, so
        // there the span *counts* are the tier's own.
        for &(m, n, k) in &[
            (96usize, 64usize, 256usize),
            (97, 67, 257),
            (8, 50, 9),
            (200, 33, 600),
            (1, 1, 1),
        ] {
            let (a, b) = (seq(m * k), seq(k * n));
            let counts = |tier: Tier| {
                let mut c = vec![0.0; m * n];
                pcnn_profile::set_enabled(true);
                pcnn_profile::reset();
                {
                    let _scope = pcnn_profile::layer_scope(0, "gemm");
                    pcnn_parallel::with_threads(1, || gemm_on(tier, m, n, k, &a, &b, &mut c));
                }
                pcnn_profile::set_enabled(false);
                let snap = pcnn_profile::snapshot();
                Phase::ALL.map(|p| {
                    let t = snap[0].phase(p);
                    (p.name(), t.flops, t.bytes, t.calls)
                })
            };
            let want = counts(Tier::Portable);
            assert_eq!(want[Phase::Microkernel as usize].1, (2 * m * n * k) as u64);
            for tier in Tier::available() {
                assert_eq!(counts(tier), want, "{m}x{n}x{k} on {tier}");
            }
        }
    }

    #[test]
    fn concurrent_profiles_hold_only_their_own_gemm() {
        // Two tenants profile GEMMs of different shapes at pool width 2
        // (so each has a spawned worker recording through the handoff)
        // while a third thread that never enabled runs one too. Three
        // rendezvous: everyone is live before any GEMM starts, and every
        // GEMM has finished before anyone reads.
        let barrier = std::sync::Barrier::new(3);
        let run = |layer: Option<usize>, (m, n, k): (usize, usize, usize)| {
            let (a, b) = (seq(m * k), seq(k * n));
            let mut c = vec![0.0; m * n];
            pcnn_profile::set_enabled(layer.is_some());
            barrier.wait();
            {
                let _scope = layer.and_then(|l| pcnn_profile::layer_scope(l, "gemm"));
                pcnn_parallel::with_threads(2, || gemm(m, n, k, &a, &b, &mut c));
            }
            barrier.wait();
            pcnn_profile::set_enabled(false);
            pcnn_profile::snapshot()
        };
        let shapes = [(65, 67, 129), (48, 130, 70)];
        let (first, second, bystander) = std::thread::scope(|s| {
            let first = s.spawn(|| run(Some(1), shapes[0]));
            let second = s.spawn(|| run(Some(2), shapes[1]));
            let bystander = s.spawn(|| run(None, (64, 64, 64)));
            (
                first.join().unwrap(),
                second.join().unwrap(),
                bystander.join().unwrap(),
            )
        });
        assert!(bystander.is_empty());
        for (snap, layer, (m, n, k)) in [(first, 1, shapes[0]), (second, 2, shapes[1])] {
            assert_eq!(snap.len(), 1, "a neighbour's GEMM leaked in: {snap:?}");
            assert_eq!(snap[0].index, layer);
            assert_eq!(
                snap[0].phase(Phase::Microkernel).flops,
                (2 * m * n * k) as u64
            );
        }
    }

    #[test]
    fn partitioner_golden_splits_on_alexnet_bench_shapes() {
        // The four `pcnn bench-gemm` shapes at 8 threads, per tile height,
        // each derived by hand from the cost model (per unit of k a worker
        // costs `rows * cols * MR * NR` for compute + `rows * MR` for its
        // share of the column-split-duplicated A packing).
        let golden = |mr: usize, want: [(usize, usize); 4]| {
            let shapes = [
                (96usize, 3025usize, 363usize), // CONV1
                (256, 729, 1200),               // CONV2
                (384, 169, 2304),               // CONV3
                (256, 169, 3456),               // CONV5
            ];
            for ((m, n, k), want) in shapes.into_iter().zip(want) {
                let p = partition_tiles(mr, m, n, k, 8);
                assert_eq!(
                    (p.row_splits, p.col_splits),
                    want,
                    "partition for ({m},{n},{k}) on {mr}-row tiles"
                );
            }
        };
        // Six-row tiles. CONV1/3/5 have 16, 64 and 43 of them against
        // 190, 11 and 11 panels: eight row bands balance as well as any
        // 2-D grid (e.g. CONV5: 6 x 11 tiles per worker at 8x1, 11 x 6 at
        // 4x2 — the same 66 tiles) and pack less A, so the pure row split
        // wins.
        //
        // CONV2's 43 tiles do not divide by 8: 8x1 leaves the widest
        // worker 6 tiles x 46 panels = 276 tile products, while 4x2
        // gives 11 x 23 = 253 — the 2-D grid balances the ragged tile
        // count better than the duplicated A packing costs. (With the
        // old 4-row tile this shape had 64 tiles and split 8x1.)
        golden(6, [(8, 1), (4, 2), (8, 1), (8, 1)]);
        // Sixteen-row tiles. CONV1 has only 6 of them: no row split
        // beats 144 tile products per worker (1x8: 6 x 24; 2x4: 3 x 48;
        // 6x1: 1 x 190) and of the two that reach it 2x4 packs half the
        // A. CONV2/3/5 have 16, 24 and 16 tiles, which eight row bands
        // divide evenly — 2 x 46 = 92, 3 x 11 = 33, 2 x 11 = 22 tile
        // products — matching or beating every 2-D grid (CONV2 at 4x2:
        // 4 x 23 = 92 as well) with the least A packed.
        golden(16, [(2, 4), (8, 1), (8, 1), (8, 1)]);
    }

    #[test]
    fn partitioner_engages_column_axis_on_short_matrices() {
        // Only ceil(16/6) = 3 row tiles against 190 column panels: any
        // row split strands most of an 8-worker pool (3x2 leaves a worker
        // 1 x 95 = 95 tile products), while eight column bands of 24
        // panels cost 3 x 24 = 72 each — the column axis takes the whole
        // split and the tripled A packing (18 rows) is noise beside it.
        // On 16-row tiles the matrix is one tile high and there is no
        // other choice.
        for mr in [6, 16] {
            let p = partition_tiles(mr, 16, 3025, 363, 8);
            assert_eq!((p.row_splits, p.col_splits), (1, 8), "{mr}-row tiles");
            // Degenerate grids never exceed the available work.
            let p = partition_tiles(mr, 4, 8, 1024, 8);
            assert_eq!((p.row_splits, p.col_splits), (1, 1), "{mr}-row tiles");
        }
        // The public entry point is the detected tier's row of the above.
        assert_eq!(
            partition_gemm(96, 3025, 363, 8),
            partition_tiles(Tier::detect().mr(), 96, 3025, 363, 8)
        );
    }

    #[test]
    fn partitioner_never_exceeds_thread_budget() {
        for mr in [6usize, 16] {
            for &threads in &[1usize, 2, 3, 4, 6, 8, 16] {
                for &(m, n, k) in &[(96usize, 3025usize, 363), (16, 3025, 363), (130, 17, 513)] {
                    let p = partition_tiles(mr, m, n, k, threads);
                    assert!(
                        p.tasks() <= threads.max(1),
                        "({m},{n},{k}) x {threads} threads on {mr}-row tiles -> {p:?}"
                    );
                    assert!(p.row_splits <= m.div_ceil(mr) && p.col_splits <= n.div_ceil(NR));
                }
            }
        }
    }

    #[test]
    fn split_range_covers_exactly() {
        for &(total, parts) in &[(24usize, 8usize), (22, 8), (7, 3), (5, 5)] {
            let mut next = 0;
            for idx in 0..parts {
                let r = split_range(total, parts, idx);
                assert_eq!(r.start, next, "gap at band {idx} of {total}/{parts}");
                assert!(!r.is_empty() || total < parts);
                next = r.end;
            }
            assert_eq!(next, total);
        }
    }

    fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = x[i * cols + j];
            }
        }
        t
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, n, k) = (4, 5, 6);
        let a = seq(m * k);
        let b = seq(n * k); // B is n x k
        let bt = transpose(n, k, &b); // k x n
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, &b, &mut c1);
        gemm_naive(m, n, k, &a, &bt, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (m, n, k) = (4, 5, 6);
        let a = seq(k * m); // A is k x m
        let b = seq(k * n);
        let at = transpose(k, m, &a); // m x k
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_tn(m, n, k, &a, &b, &mut c1);
        gemm_naive(m, n, k, &at, &b, &mut c2);
        assert_eq!(c1, c2);
    }
}
