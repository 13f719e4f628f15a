//! The inference convolutions: direct (fused-pack) and Winograd
//! F(2x2, r x r) / F(4x4,3x3), selectable per layer by the offline
//! autotuner — and the sampled convolution perforated inference runs on.
//!
//! The reference lowering is [`crate::im2col`] followed by the packed
//! [`crate::gemm`] (paper Fig. 2), but the lowering materialises a
//! `patch_len x out_positions` matrix that the GEMM immediately re-reads
//! and re-packs (cuConv's observation). No inference path builds it; the
//! column matrix survives only in training's backward pass and as the
//! test reference. The two shape-dependent algorithms the per-layer tuner
//! chooses between are:
//!
//! - [`conv2d_direct`]: streams input patches straight into the packed
//!   GEMM's `B` micropanel image — the gather of `im2col` fused with the
//!   GEMM's `B` packing, skipping the materialised column matrix
//!   entirely. The packed bytes are identical to what [`crate::gemm`]
//!   packs from `im2col(input)`, and the compute tail is the *same*
//!   partition + loop nest as [`crate::gemm`], so outputs are **bitwise
//!   equal** to the im2col path at every thread count.
//! - Winograd minimal filtering F(t x t, r x r) for stride-1 3x3 and 5x5
//!   layers, at the output tile [`winograd_tile`] picks from the layer's
//!   shape: on 3x3 layers F(4x4,3x3) on maps of 28 and more with 16 or
//!   more channels each way (microkernel multiplies per output 9 -> 36/16
//!   = 2.25, 4x), F(2x2,3x3) everywhere else (9 -> 16/4 = 4, 2.25x); on
//!   5x5 layers F(2x2,5x5) (25 -> 36/4 = 9, 2.78x). [`conv2d_winograd`]
//!   runs F(2x2, r x r). F(2x2,3x3)'s transform matrices use only
//!   `{0, ±1, ±0.5}`, exact in f32; the other two share six interpolation
//!   points, so one integer `B`, and a `G` with sixths, twelfths and
//!   twenty-fourths, which round. Either way the accumulation *order*
//!   differs from im2col, so outputs are not bitwise-equal to the
//!   reference — they carry a rounding difference bounded by
//!   [`winograd_error_bound`], 16x larger on six points — but they are
//!   bitwise **deterministic**: the tile is a function of the shape
//!   alone, the transforms are pure per-element maps with one fixed
//!   sequence of adds, subs and multiplies by constants, and the
//!   per-coordinate multiplies go through the deterministic
//!   [`crate::gemm`], so every thread count and every host produce the
//!   identical bits.
//!
//! [`conv2d`] is the dispatcher over the algorithms: one call convolves a
//! group of images through one [`ConvAlgo`], and it is what the layer
//! forward, the offline tuner and `pcnn bench-conv` all call.
//!
//! # The patch gather
//!
//! There is one way a convolution here fills `B` without a column matrix,
//! and [`conv2d_direct`] is a case of it: [`conv2d_sampled`] convolves a
//! *group of images* at a *list of output positions* as one GEMM whose
//! `N` is `images x positions` — the paper's perforation (Fig. 11), with
//! the images of a group sharing one packing of the filter matrix. The
//! gather behind both has no division, no bounds test and no branch per
//! element:
//!
//! - the images are copied once into a scratch with a **zero border** of
//!   `pad` on every side (skipped when `pad == 0`), so a patch hanging
//!   over the edge reads its padding as ordinary memory;
//! - every patch row `r = (c, ky, kx)` gets a `u32` **base** — where that
//!   element sits relative to a patch's top-left corner — and every
//!   column a `u32` **offset** — its image's start plus its position's
//!   corner — so `B[r][j] = src[base[r] + offset[j]]`;
//! - the loads are written straight into the micropanels by
//!   `gemm::pack_b_with`, the one owner of the packed layout.
//!
//! A `C` element's operation sequence depends on `k` and `KC` only —
//! never on `N`, on where its column sits in `N`, or on which images
//! share the GEMM (DESIGN.md, "Sampled convolution") — so the sampled
//! result is bitwise [`crate::im2col_positions`] + bias fill +
//! [`crate::gemm`] per image, at any group size and thread count.
//!
//! # The Winograd block pipeline
//!
//! One pipeline runs the three kernels; only the per-line transform
//! kernels (`input_line`, `inverse_line`, `filter_line`) differ. A `t x t`
//! output tile of `r x r` filters reads an `alpha = t + r - 1` square
//! input patch, so there are `alpha²` transform coordinates: 16 for
//! F(2x2,3x3), 36 for F(4x4,3x3) and F(2x2,5x5). `B^T` depends on the
//! interpolation points alone, so `input_line` is keyed by `alpha`.
//!
//! Winograd's intermediates are large — `V` (transformed input) and `M`
//! (products) are each `coordinates x channels x tiles`, 51 MB on VGG
//! conv1_2 at F(2x2,3x3) — so the image is never transformed whole. It runs
//! as a pipeline over **blocks of whole tile rows** (`winograd_block_rows`
//! of them, from the shape and one cache-budget constant): transform the
//! block's input rows into a cache-resident `V` block, run the
//! per-coordinate GEMMs into a cache-resident `M` block, inverse-transform
//! that block straight into its rows of the output. The three transforms
//! work a row at a time with contiguous inner loops. Blocks are also the
//! unit of parallelism: one parallel region per layer, whole blocks per
//! worker, the GEMMs inside a block on that worker alone (a single-block
//! layer — a small map — lets its GEMMs split across the pool instead).
//! Block boundaries depend on shape only and no element's operation
//! sequence depends on them, so the block height moves time and never
//! bits (`tests/winograd_bits.rs`).
//!
//! The filter transform depends on the weights only, so [`conv2d`] does
//! it once per call, for all its images (`WinogradFilter`). It writes
//! `U` straight into the packed-`A` micropanels the GEMM reads, so no
//! block packs `U` again, however many blocks re-read it; the input
//! transform likewise writes each block's `V` into the packed-`B` panels;
//! on the AVX-512 tier both walks gather and store 16 lanes at a time,
//! and run the one transform body (`filter_tile`, `input_line`) on
//! `__m512` lanes, bitwise the portable walks. Each GEMM stores its first `KC` block into `M` instead
//! of adding it, so `M` is never zero-filled — bitwise the same as
//! zero-fill plus add. A `U`
//! larger than its budget, `WINOGRAD_U_FLOATS` (36 coordinates on 256 ->
//! 512 and 512 -> 512), is packed and run in chunks of output
//! channels instead: such a layer is one block, its input transformed
//! once, and each chunk's filter transform, GEMMs and inverse run in turn
//! on it. GEMM rows are independent, so the chunk moves no bit either.
//!
//! # Profiling
//!
//! The patch gather reports as [`Phase::PackB`] (it *is* the B pack) and
//! its bias broadcast as [`Phase::Epilogue`]. Winograd's filter transform
//! reports as [`Phase::WinogradFilter`] (once, or once per `U` chunk),
//! its input transform as [`Phase::WinogradTransform`] and its inverse
//! transform + bias as [`Phase::WinogradInverse`] (per block); they write
//! `U` and `V` packed, so its GEMMs report neither [`Phase::PackA`] nor
//! [`Phase::PackB`]. Their flops and bytes sum per layer to the
//! whole-image figures, so `pcnn profile` attributes the phases per layer.

use crate::gemm::{
    active_partition, avx512_tier, gemm_packed, gemm_packed_ab, gemm_packed_scratch_len,
    pack_a_images, pack_b_with, packed_a_images_len, packed_b_at, packed_b_len, write_packed_b_row,
    AColumns, A_LANES, IMAGE_SKEW, NR,
};
use crate::im2col::Conv2dGeometry;
use crate::lanes::Lane;
#[cfg(target_arch = "x86_64")]
use crate::lanes::Strided;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::__m512;
use pcnn_parallel::{active_threads, carve, lines, with_workspace};
use pcnn_profile::{phase_span, Phase};
use std::ops::Range;

/// A convolution algorithm the tuner can select for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// The im2col + GEMM computation (paper Fig. 2), kept only as a name:
    /// stored plans say `im2col`, and it runs as [`ConvAlgo::Direct`],
    /// which computes the same bits without the column matrix.
    Im2col,
    /// Fused patch-gather into the packed GEMM (no column matrix).
    Direct,
    /// Winograd minimal filtering F(t x t, r x r) (stride-1 3x3 and 5x5
    /// only): F(4x4,3x3) on maps of 28 and more with 16 or more channels
    /// each way, F(2x2,3x3) on other 3x3 layers, F(2x2,5x5) on every 5x5
    /// one ([`winograd_tile`]). The tile is a function of the shape alone,
    /// so a layer's bits are the same on every host; F(4x4,3x3)'s and
    /// F(2x2,5x5)'s filter transforms round (their `G` has sixths), so
    /// their error bounds are looser ([`winograd_error_bound`]).
    Winograd,
}

impl ConvAlgo {
    /// Every algorithm a [`ConvAlgo`] can name.
    pub const ALL: [ConvAlgo; 3] = [ConvAlgo::Im2col, ConvAlgo::Direct, ConvAlgo::Winograd];

    /// The tuner's candidates, in candidate order. Im2col is not one:
    /// direct is bitwise im2col without the column matrix and ties or
    /// beats it on every AlexNet / VGG-16 shape, so timing both only
    /// measures noise.
    pub const TUNED: [ConvAlgo; 2] = [ConvAlgo::Direct, ConvAlgo::Winograd];

    /// Stable lowercase name used in plans, reports and benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            ConvAlgo::Im2col => "im2col",
            ConvAlgo::Direct => "direct",
            ConvAlgo::Winograd => "winograd",
        }
    }

    /// Parses a [`name`](Self::name) back into the algorithm.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Whether this algorithm can execute the given layer shape exactly.
    /// Im2col and direct handle every geometry; Winograd is specialised to
    /// stride-1 3x3 and 5x5 filters.
    pub fn supports(self, geom: &Conv2dGeometry) -> bool {
        match self {
            ConvAlgo::Im2col | ConvAlgo::Direct => true,
            ConvAlgo::Winograd => geom.stride == 1 && matches!(geom.kernel, 3 | 5),
        }
    }
}

impl std::fmt::Display for ConvAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full convolution of `images` CHW images through `algo`, written back
/// through `wb` — the one way an unperforated conv layer runs, whoever
/// asks: the layer forward, the offline tuner timing a candidate,
/// `pcnn bench-conv`.
///
/// `input` holds the images back to back, `weight` is the
/// `[out_channels, patch_len]` filter matrix, and image `i`'s map is
/// written (every element) to `out[i * map..(i + 1) * map]`: `out_channels
/// x out_positions` floats, a quarter of that under [`WriteBack::ReluPool`].
/// [`ConvAlgo::Im2col`] and [`ConvAlgo::Direct`] both run [`conv2d_direct`]
/// per image. What the images of a Winograd call share is one transformed
/// filter, built here and dropped on return, never arithmetic — so a call
/// on a group is bitwise the calls on its images alone. A fused write-back
/// applies the same operations in the same order as the separate ReLU (and
/// pool) passes, so their bits, but the maps in between are never stored.
/// Its scratch is the calling thread's workspace; [`conv2d_in`] takes it
/// from the caller instead.
///
/// # Panics
///
/// Panics if `algo` does not [support](ConvAlgo::supports) `geom`, a slice
/// is shorter than the geometry and `images` imply, a write-back other
/// than the bias is asked of an algorithm other than Winograd, or the pool
/// of an odd map.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    algo: ConvAlgo,
    wb: WriteBack,
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    out: &mut [f32],
) {
    let (oc, w, b, x) = (out_channels, weight, bias, input);
    let len = conv2d_scratch_len(algo, geom, oc, active_threads());
    with_workspace(len, |ws| {
        conv2d_in(algo, wb, geom, oc, w, b, x, images, out, ws)
    });
}

/// Floats of scratch [`conv2d_in`] carves for `algo` on this layer at pool
/// width `threads`, whatever the image count: per image the direct
/// gather's, or Winograd's transformed filter and one block's scratch per
/// worker. 0 where `algo` cannot run the layer.
pub fn conv2d_scratch_len(
    algo: ConvAlgo,
    geom: &Conv2dGeometry,
    oc: usize,
    threads: usize,
) -> usize {
    match algo {
        _ if !algo.supports(geom) => 0,
        ConvAlgo::Im2col | ConvAlgo::Direct => {
            conv2d_sampled_scratch_len(geom, oc, 1, geom.out_positions(), threads)
        }
        ConvAlgo::Winograd => winograd_scratch_len(geom, oc, winograd_tile(geom, oc), threads),
    }
}

/// [`conv2d`] in `scratch`: at least [`conv2d_scratch_len`] floats at the
/// width the call runs, on a cache line, contents unspecified.
///
/// # Panics
///
/// As [`conv2d`], and if `scratch` is too short.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_in(
    algo: ConvAlgo,
    wb: WriteBack,
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let even = geom.out_h.is_multiple_of(2) && geom.out_w.is_multiple_of(2);
    assert!(
        wb != WriteBack::ReluPool || even,
        "a fused 2x2 pool needs an even map"
    );
    let (oc, chw) = (out_channels, geom.in_channels * geom.in_h * geom.in_w);
    let map = oc * wb.positions(geom);
    assert!(input.len() >= images * chw, "input too short");
    assert!(out.len() >= images * map, "out too short");
    match algo {
        ConvAlgo::Im2col | ConvAlgo::Direct => {
            assert!(wb == WriteBack::Bias, "only winograd fuses its write-back");
            for i in 0..images {
                let (x, y) = (&input[i * chw..][..chw], &mut out[i * map..][..map]);
                let all = 0..geom.out_positions();
                gather_conv(geom, oc, weight, bias, x, 1, all, y, scratch);
            }
        }
        ConvAlgo::Winograd => {
            let filter = WinogradFilter::new(geom, oc, weight, winograd_tile(geom, oc));
            winograd_images(geom, &filter, bias, input, images, wb, out, scratch);
        }
    }
}

/// What Winograd's write-back applies after the bias. The discriminant
/// counts the layers fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteBack {
    /// Nothing: the layer's own map.
    Bias,
    /// `max(x, 0)`.
    Relu,
    /// `max(x, 0)`, then the 2x2 stride-2 max-pool, one window per tile:
    /// a map of `out_h/2 x out_w/2` per channel.
    ReluPool,
}

impl WriteBack {
    /// Positions per channel of the map written back.
    fn positions(self, geom: &Conv2dGeometry) -> usize {
        geom.out_positions() / if self == WriteBack::ReluPool { 4 } else { 1 }
    }
}

/// Direct convolution of one CHW image: `out = weight * patches + bias`.
///
/// `weight` is the `[out_channels, patch_len]` filter matrix, `out` the
/// `out_channels * out_positions` output map (fully overwritten). This is
/// [`conv2d_sampled`] at every output position of one image: the input
/// patches are gathered straight into the packed GEMM's `B` micropanel
/// image — element order per patch row matches [`crate::im2col`] exactly
/// and the ragged panel edges are zero-filled by the same packing walk
/// [`crate::gemm`] uses — so the result is bitwise identical to the
/// im2col reference while skipping the materialised column matrix (one
/// full write + read of `patch_len x out_positions` floats).
///
/// # Panics
///
/// Panics if any slice is shorter than the geometry implies.
pub fn conv2d_direct(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    conv2d(
        ConvAlgo::Direct,
        WriteBack::Bias,
        geom,
        out_channels,
        weight,
        bias,
        input,
        1,
        out,
    );
}

/// Convolution of a group of images at a sampled subset of output
/// positions — the computational core of the paper's perforation
/// (Fig. 11, §IV.C.1) — as **one** GEMM whose `N` is
/// `images * positions.len()`.
///
/// `input` holds `images` CHW images back to back; `positions` holds
/// row-major output indices (`oy * out_w + ox`, any order, repeats
/// allowed). `out` receives the `out_channels x (images *
/// positions.len())` row-major matrix `weight * patches + bias` (fully
/// overwritten): column `i * positions.len() + j` is image `i` at
/// `positions[j]`. No column matrix exists at any point — the patches are
/// gathered straight into the packed `B` micropanels (see the module
/// docs) — and the filter matrix is packed once for the whole group.
/// Its scratch is `scratch`, on a cache line, contents unspecified.
///
/// Every element is bitwise what [`crate::im2col_positions`] followed by
/// a bias fill and [`crate::gemm`] computes for its image alone: a `C`
/// element's operation sequence depends on `k` and `KC` only, never on
/// how many columns share the GEMM or where its own sits among them.
///
/// # Panics
///
/// Panics if any slice is shorter than the geometry implies, `scratch`
/// shorter than [`conv2d_sampled_scratch_len`] at the width the call runs,
/// a position out of range, or the group too large for 32-bit offsets
/// (`images` padded images of 2^32 floats or more).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_sampled(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    positions: &[usize],
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let (g, oc, w, b, at) = (geom, out_channels, weight, bias, positions.iter().copied());
    gather_conv(g, oc, w, b, input, images, at, out, scratch);
}

/// Floats of scratch [`conv2d_sampled`] carves for `images` images at
/// `positions` output positions each, at pool width `threads`: the
/// zero-bordered images of a padded layer, the packed `B`, the GEMM's `A`
/// packs. [`conv2d_direct`] is the case of one image at every position.
pub fn conv2d_sampled_scratch_len(
    geom: &Conv2dGeometry,
    out_channels: usize,
    images: usize,
    positions: usize,
    threads: usize,
) -> usize {
    let (m, n, k) = (out_channels, images * positions, geom.patch_len());
    if m == 0 || n == 0 || k == 0 {
        return 0;
    }
    let padded = (geom.in_h + 2 * geom.pad) * (geom.in_w + 2 * geom.pad);
    let border = if geom.pad > 0 {
        images * geom.in_channels * padded
    } else {
        0
    };
    lines(border) + lines(packed_b_len(n, k)) + gemm_packed_scratch_len(m, n, k, threads)
}

/// The one patch gather behind [`conv2d_direct`] and [`conv2d_sampled`]:
/// bias broadcast, `B` packed straight from the images, packed GEMM.
///
/// `B[r][j] = src[row_base[r] + col_off[j]]`, a load with no branch and no
/// division: `src` is the image group with its zero border (the input
/// itself when `pad == 0`), `row_base[r]` where patch element
/// `r = (c, ky, kx)` sits relative to a patch's top-left corner, and
/// `col_off[j]` the corner of column `j`'s patch — its image's start plus
/// `(oy, ox) * stride`. The layout walk (blocks, panels, zero-fill of
/// ragged panel edges, parallel split) is [`pack_b_with`]'s, shared with
/// [`gemm`], so the packed image is byte-for-byte the one `gemm` packs
/// from the materialised column matrix, and the compute tail is the same
/// [`gemm_packed`]. Its bordered images, packed `B` and `A` packs are
/// carved from `scratch` ([`conv2d_sampled_scratch_len`]).
#[allow(clippy::too_many_arguments)]
fn gather_conv(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    positions: impl ExactSizeIterator<Item = usize> + Clone,
    out: &mut [f32],
    mut scratch: &mut [f32],
) {
    let (m, n, k) = (out_channels, images * positions.len(), geom.patch_len());
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    assert!(input.len() >= images * chw, "input too short");
    assert!(weight.len() >= m * k, "weight too short");
    assert!(bias.len() >= m, "bias too short");
    assert!(out.len() >= m * n, "out too short");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let part = active_partition(m, n, k);
    let span = phase_span(Phase::PackB);
    let (pad, kern) = (geom.pad, geom.kernel);
    let (ph, pw) = (geom.in_h + 2 * pad, geom.in_w + 2 * pad);
    let image_len = geom.in_channels * ph * pw;
    assert!(
        images
            .checked_mul(image_len)
            .is_some_and(|len| u32::try_from(len).is_ok()),
        "image group too large for 32-bit gather offsets"
    );
    let bordered = (pad > 0).then(|| {
        let buf = carve(&mut scratch, images * image_len);
        add_zero_border(geom, &input[..images * chw], buf);
        &*buf
    });
    let src = bordered.unwrap_or(&input[..images * chw]);
    // Every offset is below `images * image_len`, so the casts are exact.
    let row_base: Vec<u32> = (0..k)
        .map(|r| {
            let (c, ky, kx) = (r / (kern * kern), r / kern % kern, r % kern);
            ((c * ph + ky) * pw + kx) as u32
        })
        .collect();
    let total = geom.out_positions();
    let mut col_off: Vec<u32> = Vec::with_capacity(n);
    for image in 0..images {
        col_off.extend(positions.clone().map(|pos| {
            assert!(pos < total, "position {pos} out of range ({total})");
            let (oy, ox) = (pos / geom.out_w, pos % geom.out_w);
            (image * image_len + (oy * pw + ox) * geom.stride) as u32
        }));
    }
    let b_pack = carve(&mut scratch, packed_b_len(n, k));
    pcnn_parallel::with_region_label("conv.gather", || {
        pack_b_with(n, k, b_pack, part.tasks() > 1, |r, j0, dst| {
            let row = &src[row_base[r] as usize..];
            for (d, &off) in dst.iter_mut().zip(&col_off[j0..]) {
                *d = row[off as usize];
            }
        });
    });
    if let Some(s) = span {
        // The images read, their bordered copy and the packed image
        // written (no column matrix).
        let border = bordered.as_ref().map_or(0, |b| b.len());
        s.finish(0, 4 * (images * chw + border + packed_b_len(n, k)) as u64);
    }

    let span = phase_span(Phase::Epilogue);
    for (i, row) in out[..m * n].chunks_mut(n).enumerate() {
        row.fill(bias[i]);
    }
    if let Some(s) = span {
        s.finish(0, 4 * (m * n) as u64);
    }
    gemm_packed(m, n, k, weight, b_pack, part, out, scratch);
}

/// Copies CHW planes (`geom.in_h x geom.in_w` each) into `bordered` with
/// `geom.pad` zeros on every side, writing every element of `bordered`
/// once: a patch that hangs over the image edge then reads its padding as
/// ordinary memory.
fn add_zero_border(geom: &Conv2dGeometry, planes: &[f32], bordered: &mut [f32]) {
    let (pad, in_w) = (geom.pad, geom.in_w);
    let pw = in_w + 2 * pad;
    if planes.is_empty() {
        bordered.fill(0.0);
        return;
    }
    for (plane, src) in bordered
        .chunks_exact_mut((geom.in_h + 2 * pad) * pw)
        .zip(planes.chunks_exact(geom.in_h * in_w))
    {
        let (top, rest) = plane.split_at_mut(pad * pw);
        let (rows, bottom) = rest.split_at_mut(geom.in_h * pw);
        top.fill(0.0);
        bottom.fill(0.0);
        for (row, src_row) in rows.chunks_exact_mut(pw).zip(src.chunks_exact(in_w)) {
            row[..pad].fill(0.0);
            row[pad..pad + in_w].copy_from_slice(src_row);
            row[pad + in_w..].fill(0.0);
        }
    }
}

/// Cache budget of one 16-coordinate Winograd block (F(2x2,3x3)), in
/// `f32` elements (2 MiB, one core's L2): the `V` and `M` planes of a
/// block of tile rows — `16 * (ic + oc)` floats per tile — stay within
/// it, so what the input transform writes is still cache-resident when
/// the 16 GEMMs read it, and what they write still is when the inverse
/// transform reads it. The 36-coordinate kernels' `36 * (ic + oc)` floats
/// per tile get twice the budget: at 2 MiB the GEMMs of 256 -> 256 @ 56²
/// would get 28 tiles a block. The Winograd analogue of the GEMM's `MC` /
/// `KC`: it moves time, never bits.
const WINOGRAD_BLOCK_FLOATS: usize = 512 * 1024;

/// Budget of one packed `U`, in `f32` elements (16 MiB): F(2x2)'s `U` of
/// a 512 -> 512 layer, no more than a VGG-16 forward's own largest
/// activation (conv1's 64 x 224² maps). A larger `U` (36 coordinates on
/// 256 -> 512 and 512 -> 512) is packed and run in chunks of output
/// channels, one chunk held at a time.
const WINOGRAD_U_FLOATS: usize = 16 * 512 * 512;

/// The output tile side [`ConvAlgo::Winograd`] runs a layer at: 2 on a
/// 5x5 layer — F(2x2,5x5), 36 coordinates already; on a 3x3 one, 4 —
/// F(4x4,3x3) — where the map is at least 28 on each side and both
/// channel counts are at least 16, and 2 — F(2x2,3x3) — elsewhere.
///
/// F(4x4) does 36 products per 16 outputs against F(2x2)'s 16 per 4,
/// 1.78x fewer GEMM flops, but its filter transform costs ~2.3x F(2x2)'s
/// and its input and inverse transforms more per tile: on a 14² or 13²
/// map, or with few channels, that outweighs the saving (EXPERIMENTS.md,
/// "F(4x4) on large maps"). A pure function of the shape, like
/// [`winograd_block_rows`]: no flag and no timing, so a layer computes
/// the same bits on every host.
pub fn winograd_tile(geom: &Conv2dGeometry, out_channels: usize) -> usize {
    if geom.kernel == 5 {
        return 2;
    }
    let large = geom.out_h.min(geom.out_w) >= 28;
    if large && geom.in_channels.min(out_channels) >= 16 {
        4
    } else {
        2
    }
}

/// Tile rows per block of the Winograd pipeline on a kernel of `coords`
/// transform coordinates (16 or 36) — a pure function of the layer shape,
/// so block boundaries (and with them the parallel split) never depend on
/// thread count or timing.
///
/// A block is as many whole tile rows as fit the kernel's share of
/// [`WINOGRAD_BLOCK_FLOATS`], at least one: `U` is packed once per call,
/// so a block re-reads it but never re-packs it. A layer whose `U` is
/// chunked is one block, so its input is transformed once and each chunk
/// of `U` is packed once.
pub fn winograd_block_rows(
    coords: usize,
    ic: usize,
    oc: usize,
    tiles_x: usize,
    tiles_y: usize,
) -> usize {
    if winograd_chunk(coords, ic, oc) < oc {
        return tiles_y;
    }
    (WINOGRAD_BLOCK_FLOATS * (coords / 16) / (coords * (ic + oc) * tiles_x)).clamp(1, tiles_y)
}

/// The transform coordinates of a `tile x tile`-output kernel on `kernel
/// x kernel` filters: `(tile + kernel - 1)²`.
pub fn winograd_coords(tile: usize, kernel: usize) -> usize {
    (tile + kernel - 1) * (tile + kernel - 1)
}

/// Output channels per chunk of a `coords`-coordinate kernel's packed
/// `U`: all of them where `U` fits [`WINOGRAD_U_FLOATS`], else the fewest
/// balanced chunks of whole `A_LANES`-row tiles that each fit. GEMM rows
/// are independent, so the chunk moves time and memory, never bits.
fn winograd_chunk(coords: usize, ic: usize, oc: usize) -> usize {
    if coords * ic * oc <= WINOGRAD_U_FLOATS {
        return oc;
    }
    let fit = (WINOGRAD_U_FLOATS / (coords * ic) / A_LANES * A_LANES).max(A_LANES);
    oc.div_ceil(oc.div_ceil(fit))
        .next_multiple_of(A_LANES)
        .min(oc)
}

/// The profiler's flop counts of F(`tile`, `kernel`)'s transforms: one
/// filter, one input tile, one output tile's inverse and bias. F(2x2,5x5)
/// shares F(4x4,3x3)'s input transform; its filter runs 11 lines of 21
/// operations, its inverse 8 lines of 9 and 4 bias adds.
const fn transform_flops(tile: usize, kernel: usize) -> [usize; 3] {
    match (tile, kernel) {
        (2, 3) => [40, 40, 16],
        (2, _) => [231, 210, 76],
        _ => [117, 210, 146],
    }
}

/// The Winograd-domain image of one layer's `r x r` filters on a `tile`
/// kernel: `U[xi] = (G g G^T)[xi]`, one `out_channels x in_channels`
/// matrix per transform coordinate ([`filter_line`] has `G`), each
/// written straight into the packed-`A` image its GEMM reads
/// ([`gemm_packed_ab`]), so no block packs it again.
///
/// It depends on the weights only, so [`conv2d`] transforms it once for
/// all the images of a call, into its scratch. A `U` over
/// [`WINOGRAD_U_FLOATS`] is instead transformed a chunk of output channels
/// at a time, by the block that runs the chunk, into one chunk's room.
/// Nothing is cached on the layer.
struct WinogradFilter<'w> {
    tile: usize,
    /// The filters' side `r`.
    kernel: usize,
    out_channels: usize,
    in_channels: usize,
    /// Output channels per chunk of `U`.
    chunk: usize,
    weight: &'w [f32],
}

impl<'w> WinogradFilter<'w> {
    /// The filter matrix `weight` (`[out_channels, patch_len]`) for a
    /// `tile` kernel, chunked as [`winograd_chunk`] says.
    ///
    /// # Panics
    ///
    /// Panics if `geom` is not a stride-1 3x3 or 5x5 layer or `weight` is
    /// shorter than the geometry implies.
    fn new(geom: &Conv2dGeometry, out_channels: usize, weight: &'w [f32], tile: usize) -> Self {
        let coords = winograd_coords(tile, geom.kernel);
        let chunk = winograd_chunk(coords, geom.in_channels, out_channels);
        Self::chunked(geom, out_channels, weight, tile, chunk)
    }

    /// [`new`](Self::new) with `chunk` output channels per chunk.
    fn chunked(
        geom: &Conv2dGeometry,
        out_channels: usize,
        weight: &'w [f32],
        tile: usize,
        chunk: usize,
    ) -> Self {
        assert_winograd_supports(geom);
        assert!(
            weight.len() >= out_channels * geom.patch_len(),
            "weight too short"
        );
        Self {
            tile,
            kernel: geom.kernel,
            out_channels,
            in_channels: geom.in_channels,
            chunk: chunk.max(1),
            weight,
        }
    }

    /// Whether `U` is one chunk: transformed once, before any block.
    fn whole(&self) -> bool {
        self.chunk >= self.out_channels
    }

    /// The chunks of output channels, in order.
    fn chunks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.out_channels)
            .step_by(self.chunk)
            .map(|o| o..self.out_channels.min(o + self.chunk))
    }

    /// Floats of the packed `U` of `rows` output channels.
    fn u_len(&self, rows: usize) -> usize {
        let coords = winograd_coords(self.tile, self.kernel);
        packed_a_images_len(coords, rows, self.in_channels)
    }

    /// Writes the packed `U` of output channels `rows` into `u`, its
    /// [`u_len`](Self::u_len) floats.
    fn transform(&self, rows: Range<usize>, u: &mut [f32]) {
        match (self.tile, self.kernel) {
            (2, 3) => self.transform_tile::<2, 3, 16>(rows, u),
            (2, _) => self.transform_tile::<2, 5, 36>(rows, u),
            _ => self.transform_tile::<4, 3, 36>(rows, u),
        }
    }

    /// [`transform`](Self::transform) for tile side `T` and filter side
    /// `R`, with `N = (T + R - 1)²` coordinates.
    fn transform_tile<const T: usize, const R: usize, const N: usize>(
        &self,
        rows: Range<usize>,
        u: &mut [f32],
    ) {
        let ic = self.in_channels;
        let span = phase_span(Phase::WinogradFilter);
        let source = FilterColumns::<T, R> {
            weight: self.weight,
            ic,
            first: rows.start,
        };
        pack_a_images::<N>(rows.len(), ic, &source, u);
        if let Some(s) = span {
            // Filter reads, packed U writes (without the tier's tile
            // padding).
            let filters = rows.len() * ic;
            s.finish(
                (transform_flops(T, R)[0] * filters) as u64,
                4 * (filters * (R * R + N)) as u64,
            );
        }
    }
}

/// The packed `U` a block multiplies by: all of it, transformed before
/// the blocks, or one chunk's room that the block transforms each chunk
/// into in turn.
enum UStore<'a> {
    Whole(&'a [f32]),
    Chunks(&'a mut [f32]),
}

/// The filter transform as the source of `U`'s packed images: column `c`
/// of the tile at output channel `o0` is input channel `c` of the filters
/// of output channels `first + o0..`, lane `l` being `first + o0 + l`'s.
struct FilterColumns<'w, const T: usize, const R: usize> {
    weight: &'w [f32],
    ic: usize,
    first: usize,
}

impl<const T: usize, const R: usize, const N: usize> AColumns<N> for FilterColumns<'_, T, R> {
    /// The per-lane walk: each lane's taps read into `A_LANES`-wide arrays
    /// (lanes past `live` stay zero, and so does their transform),
    /// [`filter_tile`] run over the arrays.
    fn column(&self, c: usize, o0: usize, live: usize) -> [[f32; A_LANES]; N] {
        let (ic, taps) = (self.ic, R * R);
        let first = ((self.first + o0) * ic + c) * taps;
        // Every lane's `R²` (at most 25) taps, a filter's run at a time.
        let mut g = [[0.0f32; A_LANES]; 25];
        let filters = self.weight[first..].chunks(ic * taps);
        for (l, f) in filters.take(live).enumerate() {
            for (g, &w) in g.iter_mut().zip(&f[..taps]) {
                g[l] = w;
            }
        }
        let mut uu = [[0.0f32; A_LANES]; N];
        filter_tile::<[f32; A_LANES], A_LANES, T, R>(|q| g[q], |xi, u| uu[xi] = u);
        uu
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn store_avx512(
        &self,
        c: usize,
        o0: usize,
        live: usize,
        images: &mut [f32],
        at: usize,
        len: usize,
    ) {
        // SAFETY: this method's caller guarantees `avx512f`; the body
        // checks its own bounds.
        unsafe { filter_column_avx512::<T, R, N>(self, c, o0, live, images, at, len) };
    }
}

/// [`FilterColumns::column`] on `__m512` lanes, stored in place: each of
/// the `R²` taps is one masked gather ([`Strided`]) across the tile's filters
/// (`ic * R²` floats apart; lanes past `live` masked, so they read nothing
/// and stay zero), [`filter_tile`] runs on the vectors, and each of the
/// `N` results is stored at `at` in its image — so every lane is bitwise
/// the per-lane walk's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn filter_column_avx512<const T: usize, const R: usize, const N: usize>(
    source: &FilterColumns<'_, T, R>,
    c: usize,
    o0: usize,
    live: usize,
    images: &mut [f32],
    at: usize,
    len: usize,
) {
    const { assert!(N == (T + R - 1) * (T + R - 1), "a coordinate per image") };
    let (ic, taps) = (source.ic, R * R);
    let first = ((source.first + o0) * ic + c) * taps;
    assert!((N - 1) * len + at + A_LANES <= images.len(), "images");
    let lanes = Strided::new(ic * taps, 0..live);
    let images = images.as_mut_ptr();
    filter_tile::<__m512, A_LANES, T, R>(
        |q| lanes.gather(source.weight, first + q),
        // SAFETY: coordinate `xi < N`'s 16 floats at `at` lie inside its
        // image, inside `images` by the assertion.
        |xi, u| u.store(unsafe { &mut *images.add(xi * len + at).cast::<[f32; A_LANES]>() }),
    );
}

/// `U = G g G^T` of one tile column, written once for every lane type:
/// `tap(q)` is tap `q` (row-major) of the lanes' `R x R` filters, and
/// `put(xi, u)` takes coordinate `xi = a * alpha + b`, `alpha = T + R - 1`.
/// Rows first — [`filter_line`] on each filter column's `R` taps, `alpha`
/// lines of `R` — then columns, right-multiplying by `G^T`.
#[inline(always)]
fn filter_tile<L: Lane<W>, const W: usize, const T: usize, const R: usize>(
    tap: impl Fn(usize) -> L,
    mut put: impl FnMut(usize, L),
) {
    // Loops, not `array::from_fn`, whose closures would not get the
    // caller's target features and could leave the lane ops out of line.
    let (alpha, mut line) = (T + R - 1, [L::splat(0.0); R]);
    let mut rows = [[L::splat(0.0); 6]; R];
    for (j, row) in rows.iter_mut().enumerate() {
        for (i, g) in line.iter_mut().enumerate() {
            *g = tap(i * R + j);
        }
        *row = filter_line::<L, W, T, R>(line);
    }
    for a in 0..alpha {
        for (g, row) in line.iter_mut().zip(&rows) {
            *g = row[a];
        }
        let u = filter_line::<L, W, T, R>(line);
        for (b, &u) in u[..alpha].iter().enumerate() {
            put(a * alpha + b, u);
        }
    }
}

/// `G` applied to one line of an `R x R` filter, giving the `T + R - 1`
/// lines of `u` (the rest unused). F(2x2,3x3): `G = [[1,0,0],[1/2,1/2,1/2],
/// [1/2,-1/2,1/2],[0,0,1]]`, exact in f32. F(4x4,3x3): `G = [[1/4,0,0],
/// [-1/6,-1/6,-1/6],[-1/6,1/6,-1/6],[1/24,1/12,1/6],[1/24,-1/12,1/6],
/// [0,0,1]]`, whose sixths, twelfths and twenty-fourths round.
/// F(2x2,5x5), on the same points `0, ±1, ±2, ∞`: `G = [[1/4,0,0,0,0],
/// [-1/6]x5,[-1/6,1/6,-1/6,1/6,-1/6],[1/24,1/12,1/6,1/3,2/3],
/// [1/24,-1/12,1/6,-1/3,2/3],[0,0,0,0,1]]` — point `p`'s row is
/// F(4x4,3x3)'s scale times `[1, p, p², p³, p⁴]`.
#[inline(always)]
fn filter_line<L: Lane<W>, const W: usize, const T: usize, const R: usize>(g: [L; R]) -> [L; 6] {
    let (add, sub, mul, k) = (L::add, L::sub, L::mul, L::splat);
    let sixth = k(-1.0 / 6.0);
    if R == 5 {
        let (g0, g1, g2, g3, g4) = (g[0], g[1], g[2], g[3], g[4]);
        let outer = add(
            add(mul(g0, k(1.0 / 24.0)), mul(g2, k(1.0 / 6.0))),
            mul(g4, k(2.0 / 3.0)),
        );
        let inner = add(mul(g1, k(1.0 / 12.0)), mul(g3, k(1.0 / 3.0)));
        return [
            mul(k(0.25), g0),
            mul(add(add(add(add(g0, g1), g2), g3), g4), sixth),
            mul(add(sub(add(sub(g0, g1), g2), g3), g4), sixth),
            add(outer, inner),
            sub(outer, inner),
            g4,
        ];
    }
    let (g0, g1, g2) = (g[0], g[1], g[2]);
    if T == 2 {
        let half = k(0.5);
        return [
            g0,
            mul(half, add(add(g0, g1), g2)),
            mul(half, add(sub(g0, g1), g2)),
            g2,
            g2,
            g2,
        ];
    }
    let outer = add(mul(g0, k(1.0 / 24.0)), mul(g2, k(1.0 / 6.0)));
    let inner = mul(g1, k(1.0 / 12.0));
    [
        mul(k(0.25), g0),
        mul(add(add(g0, g1), g2), sixth),
        mul(add(sub(g0, g1), g2), sixth),
        add(outer, inner),
        sub(outer, inner),
        g2,
    ]
}

/// `B^T` applied to one line of `alpha = T + R - 1` input values (the
/// rest of `d` unused, and so are the lines past `alpha`). `B^T` depends
/// only on the `alpha` interpolation points, so it is keyed by `alpha`. 4
/// (F(2x2,3x3)): `B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]`. 6
/// (F(4x4,3x3) and F(2x2,5x5), points `0, ±1, ±2, ∞`): `B^T =
/// [[4,0,-5,0,1,0],[0,-4,-4,1,1,0],[0,4,-4,-1,1,0],[0,-2,-1,2,1,0],
/// [0,2,-1,-2,1,0],[0,4,0,-5,0,1]]`. Integer coefficients: only the sums
/// round.
#[inline(always)]
fn input_line<L: Lane<W>, const W: usize, const T: usize, const R: usize>(d: [L; 6]) -> [L; 6] {
    let (add, sub, mul, k) = (L::add, L::sub, L::mul, L::splat);
    if T + R - 1 == 4 {
        return [
            sub(d[0], d[2]),
            add(d[1], d[2]),
            sub(d[2], d[1]),
            sub(d[1], d[3]),
            d[0],
            d[0],
        ];
    }
    let (e, f) = (sub(d[4], d[2]), sub(d[3], d[1]));
    [
        add(mul(k(4.0), sub(d[0], d[2])), e),
        sub(add(d[3], d[4]), mul(k(4.0), add(d[1], d[2]))),
        add(sub(d[4], d[3]), mul(k(4.0), sub(d[1], d[2]))),
        add(e, mul(k(2.0), f)),
        sub(e, mul(k(2.0), f)),
        add(mul(k(4.0), sub(d[1], d[3])), sub(d[5], d[3])),
    ]
}

/// `A^T` applied to one line of `T + R - 1` products, giving `T` outputs
/// (the rest zero). F(2x2,3x3): `A^T = [[1,1,1,0],[0,1,-1,-1]]`.
/// F(4x4,3x3): `A^T = [[1,1,1,1,1,0],[0,1,-1,2,-2,0],[0,1,1,4,4,0],
/// [0,1,-1,8,-8,1]]`. F(2x2,5x5): `A^T = [[1,1,1,1,1,0],
/// [0,1,-1,2,-2,1]]`, F(4x4,3x3)'s first two rows with `∞`'s term moved to
/// the last output.
#[inline(always)]
fn inverse_line<const T: usize, const R: usize>(m: [f32; 6]) -> [f32; 4] {
    if T + R - 1 == 4 {
        return [m[0] + m[1] + m[2], m[1] - m[2] - m[3], 0.0, 0.0];
    }
    let (a, b, c, d) = (m[1] + m[2], m[1] - m[2], m[3] + m[4], m[3] - m[4]);
    if T == 2 {
        return [m[0] + a + c, b + 2.0 * d + m[5], 0.0, 0.0];
    }
    [m[0] + a + c, b + 2.0 * d, a + 4.0 * c, b + 8.0 * d + m[5]]
}

fn assert_winograd_supports(geom: &Conv2dGeometry) {
    assert!(
        ConvAlgo::Winograd.supports(geom),
        "winograd requires kernel 3 or 5, stride 1 (got kernel {}, stride {})",
        geom.kernel,
        geom.stride
    );
}

/// Winograd F(2x2, r x r) convolution of one CHW image (stride-1 3x3 or
/// 5x5 only): `out = weight (*) input + bias`, fully overwriting `out` —
/// the 2x2-output kernel for the layer's `r` whatever the map ([`conv2d`]
/// picks the tile by [`winograd_tile`]).
///
/// Each 2x2 output tile is produced from a `(r + 1)²` input tile via the
/// classic minimal-filtering factorisation `Y = A^T [ (G g G^T) .*
/// (B^T d B) ] A`, with the element-wise products batched over channels
/// into `(r + 1)²` `out_channels x in_channels x tiles` GEMMs (one per
/// transform coordinate) through the deterministic packed GEMM — bitwise
/// [`crate::gemm`] into a zeroed product, with the transformed filter
/// packed once per call. The image is processed as a pipeline over
/// blocks of whole tile rows (see the module docs). F(2x2,3x3)'s
/// transform coefficients are `{0, ±1, ±0.5}` — exact in f32 —
/// F(2x2,5x5)'s `G` rounds; either way the transforms are pure
/// per-element maps, so the output is bitwise deterministic at every
/// thread count. Accumulation order differs from im2col; the numerical
/// difference is bounded by [`winograd_error_bound`].
///
/// # Panics
///
/// Panics if `geom` is not a stride-1 3x3 or 5x5 layer or a slice is
/// shorter than the geometry implies.
pub fn conv2d_winograd(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    let len = winograd_scratch_len(geom, out_channels, 2, active_threads());
    with_workspace(len, |ws| {
        let filter = WinogradFilter::new(geom, out_channels, weight, 2);
        winograd_images(geom, &filter, bias, input, 1, WriteBack::Bias, out, ws);
    });
}

/// Floats of scratch a `tile x tile`-output Winograd kernel carves for
/// this layer at pool width `threads`: the packed `U` (one chunk of it when
/// it is chunked), then one block's scratch per worker of the block
/// region. 0 where Winograd cannot run the layer.
pub fn winograd_scratch_len(
    geom: &Conv2dGeometry,
    oc: usize,
    tile: usize,
    threads: usize,
) -> usize {
    if !ConvAlgo::Winograd.supports(geom) {
        return 0;
    }
    let (ic, coords) = (geom.in_channels, winograd_coords(tile, geom.kernel));
    let chunk = winograd_chunk(coords, ic, oc).min(oc);
    let u = lines(packed_a_images_len(coords, chunk, ic));
    if oc == 0 || ic == 0 || geom.out_positions() == 0 {
        return u;
    }
    let (tiles_y, tiles_x) = (geom.out_h.div_ceil(tile), geom.out_w.div_ceil(tile));
    let block_rows = winograd_block_rows(coords, ic, oc, tiles_x, tiles_y);
    let workers = pcnn_parallel::workers(tiles_y.div_ceil(block_rows), threads);
    u + workers * winograd_block_len(geom, tile, chunk, block_rows)
}

/// Floats of scratch one block of `block_rows` tile rows carves: `V`
/// (`ic x tiles` per coordinate, packed as the GEMMs' `B`), `M` (`chunk x
/// tiles` per coordinate) and the transforms' row temporaries — the input
/// transform's 3 x 6 rows of the padded width `wp`, the inverse's 6 x 4 + 4
/// rows of at most `T * tiles_x`.
fn winograd_block_len(geom: &Conv2dGeometry, t: usize, chunk: usize, block_rows: usize) -> usize {
    let (coords, tiles_x) = (winograd_coords(t, geom.kernel), geom.out_w.div_ceil(t));
    let (tb, wp) = (block_rows * tiles_x, t * tiles_x + geom.kernel - 1);
    let v = coords * (packed_b_len(tb, geom.in_channels) + IMAGE_SKEW);
    lines(v) + lines(coords * chunk * tb) + lines(40 * wp)
}

/// `images` CHW images through the Winograd kernel of `filter`, writing
/// back through `wb`: `U` carved from `scratch` and transformed once (or a
/// chunk's room carved), then each image's block pipeline, at the block
/// height `winograd_block_rows` picks for the shape, in the rest. Nothing
/// image-sized is materialised, and every output element sees the same
/// sequence of IEEE operations whatever the block height, chunk or thread
/// count.
///
/// # Panics
///
/// Panics if `filter` was built for another layer, or if a slice is
/// shorter than the geometry implies.
#[allow(clippy::too_many_arguments)]
fn winograd_images(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    bias: &[f32],
    input: &[f32],
    images: usize,
    wb: WriteBack,
    out: &mut [f32],
    mut scratch: &mut [f32],
) {
    let (ic, kernel) = (geom.in_channels, geom.kernel);
    let (filtered, (oc, t)) = (
        (filter.in_channels, filter.kernel),
        (filter.out_channels, filter.tile),
    );
    assert_eq!(
        filtered,
        (ic, kernel),
        "filter was transformed for another layer"
    );
    let (chw, map) = (ic * geom.in_h * geom.in_w, oc * wb.positions(geom));
    assert!(input.len() >= images * chw, "input too short");
    assert!(bias.len() >= oc, "bias too short");
    assert!(out.len() >= images * map, "out too short");
    if oc == 0 || ic == 0 || geom.out_positions() == 0 {
        return;
    }
    let u = carve(&mut scratch, filter.u_len(filter.chunk.min(oc)));
    if filter.whole() {
        filter.transform(0..oc, u);
    }
    let (tiles_y, tiles_x) = (geom.out_h.div_ceil(t), geom.out_w.div_ceil(t));
    let block_rows = winograd_block_rows(winograd_coords(t, kernel), ic, oc, tiles_x, tiles_y);
    for i in 0..images {
        let (x, y) = (&input[i * chw..][..chw], &mut out[i * map..][..map]);
        let u = if filter.whole() {
            UStore::Whole(&*u)
        } else {
            UStore::Chunks(&mut *u)
        };
        winograd_pipeline(geom, filter, u, bias, x, wb, y, block_rows, &mut *scratch);
    }
}

/// Runs the block pipeline at `block_rows` tile rows per block (the last
/// block takes what is left). `out` is handed to the blocks as safely
/// split per-channel row bands: block `b` owns output rows
/// `tile * b * block_rows..` of every channel (half that, pooled). Each
/// worker gets one block's scratch of `scratch` with its run of blocks.
#[allow(clippy::too_many_arguments)]
fn winograd_pipeline(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    u: UStore,
    bias: &[f32],
    input: &[f32],
    wb: WriteBack,
    out: &mut [f32],
    block_rows: usize,
    scratch: &mut [f32],
) {
    let (oc, map, t) = (filter.out_channels, wb.positions(geom), filter.tile);
    let tiles_y = geom.out_h.div_ceil(t);
    let band = match wb {
        WriteBack::ReluPool => block_rows * t / 2 * geom.out_w / 2,
        _ => t * block_rows * geom.out_w,
    };
    let n_blocks = tiles_y.div_ceil(block_rows);
    // Block-major list of bands: `bands[b * oc + o]` is channel `o`'s
    // rows of block `b`.
    let mut channels: Vec<_> = out[..oc * map]
        .chunks_mut(map)
        .map(|chan| chan.chunks_mut(band))
        .collect();
    let mut bands: Vec<&mut [f32]> = Vec::with_capacity(n_blocks * oc);
    for _ in 0..n_blocks {
        for chan in &mut channels {
            bands.push(chan.next().expect("every channel has one band per block"));
        }
    }
    let run_block = |b: usize, bands: &mut [&mut [f32]], u: UStore, ws: &mut [f32]| {
        let tile_rows = b * block_rows..tiles_y.min((b + 1) * block_rows);
        let (g, x) = (geom, input);
        match (t, filter.kernel) {
            (2, 3) => winograd_block::<2, 3>(g, filter, u, bias, x, tile_rows, wb, bands, ws),
            (2, _) => winograd_block::<2, 5>(g, filter, u, bias, x, tile_rows, wb, bands, ws),
            _ => winograd_block::<4, 3>(g, filter, u, bias, x, tile_rows, wb, bands, ws),
        }
    };
    let u = match u {
        // Not a region of one task: that would mark this thread as a pool
        // worker and serialise the GEMMs inside. A chunked `U` is one block
        // (`winograd_block_rows`); were it more, they would take turns
        // with its one room.
        UStore::Chunks(room) => {
            for (b, bands) in bands.chunks_mut(oc).enumerate() {
                run_block(b, bands, UStore::Chunks(&mut *room), &mut *scratch);
            }
            return;
        }
        UStore::Whole(u) if n_blocks == 1 => {
            return run_block(0, &mut bands, UStore::Whole(u), scratch)
        }
        UStore::Whole(u) => u,
    };
    // Workers record their blocks' spans into the caller's profile, under
    // the caller's layer.
    let handoff = pcnn_profile::Handoff::capture();
    let per_worker = winograd_block_len(geom, t, filter.chunk.min(oc), block_rows);
    pcnn_parallel::with_region_label("conv.winograd", || {
        pcnn_parallel::par_chunks_mut_with(&mut bands, oc, scratch, per_worker, |b, bands, ws| {
            handoff.enter(|| run_block(b, bands, UStore::Whole(u), ws));
        });
    });
}

/// One block of the pipeline on a `T x T`-output, `R x R`-filter kernel:
/// input transform of tile rows `tile_rows`; then per chunk of `U` (each
/// chunk transformed into `u`'s room first when `U` is chunked), the
/// `(T + R - 1)²` GEMMs and the inverse transform into that chunk's
/// `bands` (one slice of output rows per channel). `V`, `M` and the row
/// temporaries are carved from `scratch` ([`winograd_block_len`]).
#[allow(clippy::too_many_arguments)]
fn winograd_block<const T: usize, const R: usize>(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    mut u: UStore,
    bias: &[f32],
    input: &[f32],
    tile_rows: Range<usize>,
    wb: WriteBack,
    bands: &mut [&mut [f32]],
    mut scratch: &mut [f32],
) {
    let (oc, ic, coords) = (filter.out_channels, geom.in_channels, winograd_coords(T, R));
    let tiles_x = geom.out_w.div_ceil(T);
    let tb = tile_rows.len() * tiles_x;
    let chunk = filter.chunk.min(oc);

    // The span covers the carve too, so whatever the scratch costs counts
    // as transform time.
    let span = phase_span(Phase::WinogradTransform);
    // V[xi]: ic x tb packed as the GEMMs' B, M[xi]: chunk x tb — per
    // coordinate — plus row temporaries: `winograd_block_len`.
    let v_len = packed_b_len(tb, ic) + IMAGE_SKEW;
    let v = carve(&mut scratch, coords * v_len);
    let m = carve(&mut scratch, coords * chunk * tb);
    let rows = carve(&mut scratch, 40 * (T * tiles_x + R - 1));
    input_transform::<T, R>(geom, input, tile_rows.clone(), v, rows, avx512_tier());
    if let Some(s) = span {
        // The input rows this block is the first to read (halo rows
        // belong to the block above), V written (without its panel
        // padding).
        let first_row = |ty: usize| match ty {
            0 => 0,
            ty if ty == geom.out_h.div_ceil(T) => geom.in_h,
            ty => (T * ty).saturating_sub(geom.pad).min(geom.in_h),
        };
        let in_rows = first_row(tile_rows.end) - first_row(tile_rows.start);
        s.finish(
            (transform_flops(T, R)[1] * ic * tb) as u64,
            4 * (ic * in_rows * geom.in_w + coords * ic * tb) as u64,
        );
    }

    for chans in filter.chunks() {
        let u: &[f32] = match &mut u {
            UStore::Whole(u) => u,
            UStore::Chunks(room) => {
                let u = &mut room[..filter.u_len(chans.len())];
                filter.transform(chans.clone(), u);
                u
            }
        };
        // Per-coordinate GEMMs on both operands in place: M[xi] =
        // U[xi] * V[xi], stored, so M needs no zero-fill.
        let n = chans.len();
        let m = &mut m[..coords * n * tb];
        let us = u.chunks_exact(u.len() / coords);
        for ((u, v), m) in us
            .zip(v.chunks_exact(v_len))
            .zip(m.chunks_exact_mut(n * tb))
        {
            gemm_packed_ab(n, tb, ic, u, v, m);
        }

        let span = phase_span(Phase::WinogradInverse);
        let bands = &mut bands[chans.clone()];
        inverse_transform::<T, R>(geom, tile_rows.clone(), m, &bias[chans], wb, bands, rows);
        if let Some(s) = span {
            // The inverse and bias per tile, and the fused layers' own
            // counts: a max per output for the ReLU, a compare per window
            // element for the pool.
            s.finish(
                ((transform_flops(T, R)[2] + T * T * wb as usize) * n * tb) as u64,
                4 * (coords * n * tb + bands.iter().map(|b| b.len()).sum::<usize>()) as u64,
            );
        }
    }
}

/// Input transform of a block: `V = B^T d B` per (channel, tile)
/// `(T + R - 1)²` input patch ([`input_line`] has `B^T`), where tile
/// `(ty, tx)` reads the patch at `(T ty - pad, T tx - pad)`, zero outside
/// the image. `v` holds one `ic x tiles` operand per coordinate, each
/// written straight into the packed-`B` layout its GEMM reads
/// ([`write_packed_b_row`]), padding lanes zeroed: the `B`-side twin of
/// the filter transform's packed `U`.
///
/// Works a tile row at a time so every inner loop is contiguous: the
/// `T + R - 1` zero-padded input rows of the tile row, the `B^T d` row
/// combination across their whole width, then the stride-`T` column
/// combination writing each coordinate's row along the tiles, copied into
/// its packed image a micropanel run at a time — or on the AVX-512 tier
/// (`vector`), [`input_columns_avx512`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn input_transform<const T: usize, const R: usize>(
    geom: &Conv2dGeometry,
    input: &[f32],
    tile_rows: Range<usize>,
    v: &mut [f32],
    rows: &mut [f32],
    vector: bool,
) {
    let (ic, alpha) = (geom.in_channels, T + R - 1);
    let tiles_x = geom.out_w.div_ceil(T);
    let tb = tile_rows.len() * tiles_x;
    let wp = T * tiles_x + R - 1;
    let [d, w, z] = split_rows(rows, 6 * wp);
    let v_len = v.len() / (alpha * alpha);
    for (r, ty) in tile_rows.clone().enumerate() {
        for c in 0..ic {
            let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
            for (dy, drow) in d.chunks_exact_mut(wp).take(alpha).enumerate() {
                drow.fill(0.0);
                if let Some(iy) = (T * ty + dy).checked_sub(geom.pad) {
                    if iy < geom.in_h {
                        drow[geom.pad..geom.pad + geom.in_w]
                            .copy_from_slice(&chan[iy * geom.in_w..(iy + 1) * geom.in_w]);
                    }
                }
            }
            // Rows: B^T d -> alpha rows, across the whole padded width.
            let [d0, d1, d2, d3, d4, d5] = split_rows(d, wp);
            let [w0, w1, w2, w3, w4, w5] = split_rows(w, wp);
            for j in 0..wp {
                let far = |row: &[f32]| if alpha == 6 { row[j] } else { 0.0 };
                let line =
                    input_line::<f32, 1, T, R>([d0[j], d1[j], d2[j], d3[j], far(d4), far(d5)]);
                (w0[j], w1[j], w2[j], w3[j]) = (line[0], line[1], line[2], line[3]);
                if alpha == 6 {
                    (w4[j], w5[j]) = (line[4], line[5]);
                }
            }
            // Columns: (B^T d) B -> alpha² per tile.
            #[cfg(target_arch = "x86_64")]
            if vector {
                // SAFETY: `vector` is set only on the AVX-512 tier.
                unsafe { input_columns_avx512::<T, R>(w, wp, tiles_x, r, tb, ic, c, v, v_len) };
                continue;
            }
            // Row `a`'s alpha coordinates along the tiles in `z`, then
            // into their images.
            for (a, wa) in w.chunks_exact(wp).take(alpha).enumerate() {
                let wa = &wa[..wp];
                let [z0, z1, z2, z3, z4, z5] = split_rows(z, tiles_x);
                for tx in 0..tiles_x {
                    let x = |k: usize| if k < alpha { wa[T * tx + k] } else { 0.0 };
                    let line = input_line::<f32, 1, T, R>([x(0), x(1), x(2), x(3), x(4), x(5)]);
                    (z0[tx], z1[tx], z2[tx], z3[tx]) = (line[0], line[1], line[2], line[3]);
                    if alpha == 6 {
                        (z4[tx], z5[tx]) = (line[4], line[5]);
                    }
                }
                for (b, zb) in z.chunks_exact(tiles_x).take(alpha).enumerate() {
                    let image = &mut v[(a * alpha + b) * v_len..][..v_len];
                    write_packed_b_row(tb, ic, c, r * tiles_x, zb, image);
                }
            }
        }
    }
    // The last micropanel's padding lanes.
    let padding = [0.0; A_LANES];
    for image in v.chunks_exact_mut(v_len).take(alpha * alpha) {
        for c in 0..ic {
            write_packed_b_row(tb, ic, c, tb, &padding[..packed_b_len(tb, 1) - tb], image);
        }
    }
}

/// The column pass of [`input_transform`] on the AVX-512 tier, for
/// channel `c` of tile row `r`: the micropanels the row's tiles fall in
/// are computed 16 tiles at once — lane `l` is the panel's tile `l` —
/// each `(B^T d)` value a masked gather ([`Strided`]) along the row `w` (`T` floats
/// apart per tile, lanes of tiles outside the row masked, so they read
/// nothing), [`input_line`] on `__m512` lanes, and each coordinate stored
/// into its image with the same mask: every lane bitwise the portable
/// pass's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn input_columns_avx512<const T: usize, const R: usize>(
    w: &[f32],
    wp: usize,
    tiles_x: usize,
    r: usize,
    tb: usize,
    ic: usize,
    c: usize,
    v: &mut [f32],
    v_len: usize,
) {
    const { assert!(NR == 16, "one lane per tile of a micropanel") };
    let alpha = T + R - 1;
    let row = r * tiles_x..(r + 1) * tiles_x;
    for j0 in (row.start / NR * NR..row.end).step_by(NR) {
        // Lane `l` is tile `j0 + l`, column `j0 + l - row.start` of the
        // tile row, whose patch starts at `T` times that in `w`.
        let live = row.start.saturating_sub(j0)..(row.end - j0).min(NR);
        let first = T * (j0 + live.start - row.start);
        let (lanes, at) = (Strided::new(T, live), packed_b_at(tb, ic, c, j0));
        // Row `a` of `w` feeds images `a * alpha..(a + 1) * alpha`.
        let images = v.chunks_exact_mut(alpha * v_len);
        for (wa, images) in w.chunks_exact(wp).zip(images).take(alpha) {
            let x = std::array::from_fn(|k| lanes.gather(wa, first + k.min(alpha - 1)));
            let line = input_line::<__m512, 16, T, R>(x);
            for (value, image) in line.iter().zip(images.chunks_exact_mut(v_len)) {
                lanes.store(*value, image[at..].first_chunk_mut().expect("a row"));
            }
        }
    }
}

/// Inverse transform of a block: `Y = A^T M A + bias` per (channel, tile)
/// ([`inverse_line`] has `A^T`), clipping the ragged right/bottom edge.
/// `m` is `[coordinate][oc][tiles of the block]`, `bands[o]` channel
/// `o`'s output rows of the block.
///
/// The mirror image of [`input_transform`]: a tile row at a time, the
/// coordinates' planes read contiguously along the tiles, the tile row's
/// `T` output rows assembled in `rows`, rectified there if `wb` says so,
/// and copied out clipped to the map — or pooled in `MaxPool2d`'s window
/// order (a 2x2 window of an even map lies inside one tile).
fn inverse_transform<const T: usize, const R: usize>(
    geom: &Conv2dGeometry,
    tile_rows: Range<usize>,
    m: &[f32],
    bias: &[f32],
    wb: WriteBack,
    bands: &mut [&mut [f32]],
    rows: &mut [f32],
) {
    let (oc, alpha) = (bands.len(), T + R - 1);
    let tiles_x = geom.out_w.div_ceil(T);
    let tb = tile_rows.len() * tiles_x;
    // `s[j * T + i]`: row `i` of `A^T M`, column `j`, along the tiles;
    // then the tile row's `T` output rows.
    let (s, ys) = rows.split_at_mut(6 * 4 * tiles_x);
    let mut ys: [&mut [f32]; 4] = split_rows(ys, T * tiles_x);
    let ys = &mut ys[..T];
    for (o, band) in bands.iter_mut().enumerate() {
        let bias_o = bias[o];
        for (r, ty) in tile_rows.clone().enumerate() {
            let plane = |xi: usize| &m[xi * oc * tb + o * tb + r * tiles_x..][..tiles_x];
            // Rows: A^T M -> T rows of alpha, a column j at a time, along
            // the tiles.
            for j in 0..alpha {
                let p = |a: usize| plane(if a < alpha { a * alpha + j } else { j });
                let (p0, p1, p2, p3, p4, p5) = (p(0), p(1), p(2), p(3), p(4), p(5));
                let mut sj = s[j * T * tiles_x..][..T * tiles_x].chunks_exact_mut(tiles_x);
                let mut row = || sj.next().expect("T rows per column");
                let (s0, s1) = (row(), row());
                let (s2, s3) = if T == 4 {
                    (row(), row())
                } else {
                    Default::default()
                };
                for tx in 0..tiles_x {
                    let far = |plane: &[f32]| if alpha == 6 { plane[tx] } else { 0.0 };
                    let line =
                        inverse_line::<T, R>([p0[tx], p1[tx], p2[tx], p3[tx], far(p4), far(p5)]);
                    (s0[tx], s1[tx]) = (line[0], line[1]);
                    if T == 4 {
                        (s2[tx], s3[tx]) = (line[2], line[3]);
                    }
                }
            }
            // Columns: (A^T M) A -> T x T per tile, plus bias.
            for (i, y) in ys.iter_mut().enumerate() {
                let q =
                    |j: usize| &s[((if j < alpha { j } else { 0 }) * T + i) * tiles_x..][..tiles_x];
                let (q0, q1, q2, q3, q4, q5) = (q(0), q(1), q(2), q(3), q(4), q(5));
                let y = &mut y[..T * tiles_x];
                for tx in 0..tiles_x {
                    let far = |row: &[f32]| if alpha == 6 { row[tx] } else { 0.0 };
                    let line =
                        inverse_line::<T, R>([q0[tx], q1[tx], q2[tx], q3[tx], far(q4), far(q5)]);
                    for (jj, v) in line.into_iter().take(T).enumerate() {
                        y[T * tx + jj] = v + bias_o;
                    }
                }
            }
            if wb != WriteBack::Bias {
                for v in ys.iter_mut().flat_map(|y| y.iter_mut()) {
                    *v = v.max(0.0);
                }
            }
            if wb == WriteBack::ReluPool {
                let half = geom.out_w / 2;
                for pr in 0..T / 2 {
                    if T * ty + 2 * pr >= geom.out_h {
                        break;
                    }
                    let (y0, y1) = (&ys[2 * pr], &ys[2 * pr + 1]);
                    for (q, d) in band[(T / 2 * r + pr) * half..][..half]
                        .iter_mut()
                        .enumerate()
                    {
                        let mut best = y0[2 * q];
                        for v in [y0[2 * q + 1], y1[2 * q], y1[2 * q + 1]] {
                            if v > best {
                                best = v;
                            }
                        }
                        *d = best;
                    }
                }
                continue;
            }
            for (dy, y) in ys.iter().enumerate() {
                if T * ty + dy < geom.out_h {
                    band[(T * r + dy) * geom.out_w..][..geom.out_w]
                        .copy_from_slice(&y[..geom.out_w]);
                }
            }
        }
    }
}

/// The first `N` rows of `buf`, each `len` long.
#[inline(always)]
fn split_rows<const N: usize>(buf: &mut [f32], len: usize) -> [&mut [f32]; N] {
    let mut rows = buf.chunks_exact_mut(len);
    std::array::from_fn(|_| rows.next().expect("scratch holds the rows"))
}

/// Absolute error bound of a `tile` Winograd kernel on the layer's
/// filters — [`conv2d_winograd`] at 2, [`conv2d`] at [`winograd_tile`]'s
/// choice; the filter side is `geom.kernel` — vs the im2col reference, per
/// output element, for this layer's actual operands.
///
/// The F(2x2,3x3) transforms amplify magnitudes by at most 4 (`B^T d B`)
/// and 2.25 (`G g G^T`), each product chain then runs ~`patch_len`
/// accumulation steps plus the fixed-depth inverse, and every f32 step
/// contributes at most one half-ulp of the running magnitude. Folding
/// the amplification factors and the inverse-transform depth into one
/// safety constant gives
///
/// ```text
/// |winograd - im2col| <= 64 * patch_len * max|W| * max|X| * eps_f32
/// ```
///
/// F(4x4,3x3)'s transforms amplify far more — up to 100 (`B^T d B`, row
/// sums of 10) and 361 (`A^T M A`, row sums of 19) — and its `G` rounds
/// (sixths, twelfths, twenty-fourths). On the property tests' operands
/// its error reaches ~8 of the units above against F(2x2)'s ~0.5, so its
/// constant is 16 times F(2x2)'s: 1024.
///
/// F(2x2,5x5) shares F(4x4,3x3)'s `B^T` (the same six points) and its
/// rounding `G`; its `A^T M A` amplifies by at most 49 (row sums of 5 and
/// 7), its `G g G^T` by (31/24)². Bounding an output by `Σ_a |A_ia| |G_a|
/// |B_a|` over the six points, squared, per patch element, gives 133
/// against F(4x4,3x3)'s 256 (its 5x5 patch is 25/9 as long), and on
/// random operands over 1 to 40 channels its error reaches ~5 units, as
/// F(4x4,3x3)'s does: the same constant, 1024.
///
/// The property tests in `tests/conv_algorithms.rs` assert all three on
/// random operands (in practice the observed error is ~100x smaller).
pub fn winograd_error_bound(
    tile: usize,
    geom: &Conv2dGeometry,
    weight: &[f32],
    input: &[f32],
) -> f32 {
    let max_abs = |xs: &[f32]| xs.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    let safety = if winograd_coords(tile, geom.kernel) == 16 {
        64.0
    } else {
        1024.0
    };
    safety * geom.patch_len() as f32 * max_abs(weight) * max_abs(input) * f32::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::tests::{agree, with_specials};
    use crate::{gemm, gemm_bias, im2col, im2col_positions};

    fn reference(
        geom: &Conv2dGeometry,
        oc: usize,
        weight: &[f32],
        bias: &[f32],
        input: &[f32],
    ) -> Vec<f32> {
        let (k, n) = (geom.patch_len(), geom.out_positions());
        let mut cols = vec![0.0; k * n];
        im2col(geom, input, &mut cols);
        let mut out = vec![0.0; oc * n];
        gemm_bias(oc, n, k, weight, &cols, bias, &mut out);
        out
    }

    fn fixture(geom: &Conv2dGeometry, oc: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let weight: Vec<f32> = (0..oc * geom.patch_len())
            .map(|i| ((i * 31 % 23) as f32 - 11.0) / 16.0)
            .collect();
        let bias: Vec<f32> = (0..oc).map(|i| i as f32 / 8.0 - 0.25).collect();
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i * 17 % 29) as f32 - 14.0) / 8.0)
            .collect();
        (weight, bias, input)
    }

    #[test]
    fn direct_matches_im2col_bitwise_on_alexnet_conv1_shape() {
        // Strided, unpadded, multi-channel: 11x11 stride 4 on 3x31x31.
        let geom = Conv2dGeometry::new(3, 31, 31, 11, 4, 0);
        let oc = 8;
        let (w, b, x) = fixture(&geom, oc);
        let want = reference(&geom, oc, &w, &b, &x);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_direct(&geom, oc, &w, &b, &x, &mut got);
        assert_eq!(got, want);
    }

    /// What the perforated forward ran before the gather: per image,
    /// `im2col_positions`, a bias fill and `gemm` — here laid out as
    /// [`conv2d_sampled`] lays its output out, image `i` in columns
    /// `i * positions.len()..`.
    fn sampled_reference(
        geom: &Conv2dGeometry,
        oc: usize,
        weight: &[f32],
        bias: &[f32],
        input: &[f32],
        images: usize,
        positions: &[usize],
    ) -> Vec<f32> {
        let (k, np) = (geom.patch_len(), positions.len());
        let chw = geom.in_channels * geom.in_h * geom.in_w;
        let mut out = vec![f32::NAN; oc * images * np];
        let mut cols = vec![0.0; k * np];
        for i in 0..images {
            im2col_positions(geom, &input[i * chw..(i + 1) * chw], positions, &mut cols);
            let mut sampled: Vec<f32> = bias[..oc]
                .iter()
                .flat_map(|&b| std::iter::repeat_n(b, np))
                .collect();
            gemm(oc, np, k, weight, &cols, &mut sampled);
            for (c, row) in sampled.chunks(np.max(1)).enumerate() {
                out[(c * images + i) * np..][..np].copy_from_slice(row);
            }
        }
        out
    }

    /// `conv2d_sampled`'s output as bit patterns.
    fn sampled_bits(
        geom: &Conv2dGeometry,
        oc: usize,
        (weight, bias, input): (&[f32], &[f32], &[f32]),
        images: usize,
        positions: &[usize],
    ) -> Vec<u32> {
        let mut out = vec![f32::NAN; oc * images * positions.len()];
        let threads = pcnn_parallel::active_threads();
        let len = conv2d_sampled_scratch_len(geom, oc, images, positions.len(), threads);
        let (w, b, x, at) = (weight, bias, input, positions);
        conv2d_sampled(
            geom,
            oc,
            w,
            b,
            x,
            images,
            at,
            &mut out,
            &mut vec![f32::NAN; len],
        );
        out.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        /// The gather + one GEMM per image group is, bit for bit, the
        /// per-image `im2col_positions` -> bias fill -> `gemm` it replaced:
        /// over strided and padded geometries, groups of one to five
        /// images, pool widths, and position lists that are sorted and
        /// unique (as `LayerPerforation` builds them) or shuffled with
        /// repeats (the signature admits both).
        #[test]
        fn sampled_is_bitwise_im2col_positions_then_gemm(
            c in 1usize..6,
            in_h in 3usize..12,
            in_w in 3usize..12,
            kernel in 1usize..6,
            stride in 1usize..4,
            pad in 0usize..3,
            oc in 1usize..20,
            images in 1usize..6,
            threads in 1usize..4,
            keep_mod in 1usize..5,
            scramble in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            proptest::prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
            let geom = Conv2dGeometry::new(c, in_h, in_w, kernel, stride, pad);
            let total = geom.out_positions();
            let positions: Vec<usize> = if scramble {
                // Any order, with repeats.
                noise(seed ^ 0x5CA7, total + 3)
                    .iter()
                    .map(|v| ((v + 0.5) * total as f32) as usize % total)
                    .collect()
            } else {
                (0..total).filter(|p| p % keep_mod == 0).collect()
            };
            let weight = noise(seed, oc * geom.patch_len());
            let bias = noise(seed ^ 0xB1A5, oc);
            let input = noise(seed ^ 0x1DEA, images * c * in_h * in_w);
            let want: Vec<u32> =
                sampled_reference(&geom, oc, &weight, &bias, &input, images, &positions)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
            let got = pcnn_parallel::with_threads(threads, || {
                sampled_bits(&geom, oc, (&weight, &bias, &input), images, &positions)
            });
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn sampled_splits_across_the_pool_without_moving_a_bit() {
        // Big enough (oc * N * k > 64^3) that the packed GEMM and the
        // gather really split at 2, 3 and 8 workers; 3 images x 150 kept
        // positions leave a ragged last panel and panels that straddle two
        // images.
        let geom = Conv2dGeometry::new(8, 20, 20, 3, 1, 1);
        let (oc, images) = (40, 3);
        let positions: Vec<usize> = (0..geom.out_positions()).filter(|p| p % 8 < 3).collect();
        assert_eq!(positions.len(), 150);
        let weight = noise(1, oc * geom.patch_len());
        let bias = noise(2, oc);
        let input = noise(3, images * 8 * 20 * 20);
        let want: Vec<u32> =
            sampled_reference(&geom, oc, &weight, &bias, &input, images, &positions)
                .iter()
                .map(|v| v.to_bits())
                .collect();
        for threads in [1, 2, 3, 8] {
            let got = pcnn_parallel::with_threads(threads, || {
                sampled_bits(&geom, oc, (&weight, &bias, &input), images, &positions)
            });
            assert_eq!(got, want, "{threads} thread(s)");
        }
    }

    #[test]
    #[should_panic(expected = "position 36 out of range (36)")]
    fn sampled_panics_on_an_out_of_range_position() {
        let geom = Conv2dGeometry::new(1, 6, 6, 3, 1, 1);
        let (mut out, mut scratch) = (vec![0.0; 2], vec![0.0; 1024]);
        conv2d_sampled(
            &geom,
            1,
            &[0.0; 9],
            &[0.0],
            &[0.0; 36],
            1,
            &[0, 36],
            &mut out,
            &mut scratch,
        );
    }

    #[test]
    fn winograd_within_documented_bound_on_3x3_layer() {
        let geom = Conv2dGeometry::new(4, 13, 13, 3, 1, 1);
        let oc = 6;
        let (w, b, x) = fixture(&geom, oc);
        let want = reference(&geom, oc, &w, &b, &x);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_winograd(&geom, oc, &w, &b, &x, &mut got);
        let bound = winograd_error_bound(2, &geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - r).abs() <= bound,
                "element {i}: {g} vs {r} (bound {bound})"
            );
        }
    }

    #[test]
    fn winograd_exact_on_small_integers() {
        // Integer-valued operands keep every transform step exact (all
        // coefficients are 0/±1/±0.5 and 0.5 * even integers are exact),
        // so Winograd must agree with the reference to the bit.
        let geom = Conv2dGeometry::new(2, 8, 9, 3, 1, 1);
        let oc = 3;
        let weight: Vec<f32> = (0..oc * geom.patch_len())
            .map(|i| ((i % 5) as f32 - 2.0) * 2.0)
            .collect();
        let bias = vec![1.0, -2.0, 3.0];
        let input: Vec<f32> = (0..geom.in_channels * geom.in_h * geom.in_w)
            .map(|i| ((i % 7) as f32 - 3.0) * 2.0)
            .collect();
        let want = reference(&geom, oc, &weight, &bias, &input);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut got);
        assert_eq!(got, want);
    }

    /// Full-mantissa pseudo-random values in `[-0.5, 0.5)`: every
    /// transform step and every accumulation rounds, so an element whose
    /// operation sequence depended on the block height would show in the
    /// bits.
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

    proptest::proptest! {
        /// The block height decides which tiles are computed together,
        /// never what any tile computes: every height — one tile row,
        /// heights that leave a short last block, the whole image — gives
        /// the same bits, on 3x3 and 5x5 filters alike.
        #[test]
        fn winograd_is_bitwise_independent_of_block_height(
            ic in 1usize..7,
            in_h in 1usize..20,
            in_w in 1usize..20,
            pad in 0usize..3,
            oc in 1usize..9,
            five in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let kernel = if five { 5 } else { 3 };
            proptest::prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
            let geom = Conv2dGeometry::new(ic, in_h, in_w, kernel, 1, pad);
            let weight = noise(seed, oc * geom.patch_len());
            let bias = noise(seed ^ 0xB1A5, oc);
            let input = noise(seed ^ 0x1DEA, ic * in_h * in_w);
            let filter = WinogradFilter::new(&geom, oc, &weight, 2);
            let tiles_y = geom.out_h.div_ceil(2);
            let run = |block_rows: usize| {
                let mut out = vec![f32::NAN; oc * geom.out_positions()];
                pipeline(&geom, &filter, &bias, &input, &mut out, block_rows);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let whole = run(tiles_y);
            for block_rows in [1, 2, 3] {
                proptest::prop_assert_eq!(run(block_rows.min(tiles_y)), whole.clone());
            }
        }
    }

    /// [`winograd_pipeline`] at `block_rows` tile rows a block, `U` and
    /// the blocks' scratch in buffers of their own, NaN-filled.
    fn pipeline(
        geom: &Conv2dGeometry,
        filter: &WinogradFilter,
        bias: &[f32],
        input: &[f32],
        out: &mut [f32],
        block_rows: usize,
    ) {
        let (oc, t) = (filter.out_channels, filter.tile);
        let mut u = vec![f32::NAN; filter.u_len(filter.chunk.min(oc))];
        let u = if filter.whole() {
            filter.transform(0..oc, &mut u);
            UStore::Whole(&u)
        } else {
            UStore::Chunks(&mut u)
        };
        let block = winograd_block_len(geom, t, filter.chunk.min(oc), block_rows);
        let mut scratch = vec![f32::NAN; block * pcnn_parallel::active_threads()];
        let wb = WriteBack::Bias;
        winograd_pipeline(
            geom,
            filter,
            u,
            bias,
            input,
            wb,
            out,
            block_rows,
            &mut scratch,
        );
    }

    #[test]
    fn block_rows_follow_the_cache_budget() {
        // VGG conv1_2 (64 -> 64 @ 224^2): one tile row of V + M is
        // 16 * 128 * 112 floats = 7/16 of the budget, so blocks are two
        // tile rows.
        assert_eq!(winograd_block_rows(16, 64, 64, 112, 112), 2);
        // A map whose single tile row already overflows still gets one.
        assert_eq!(winograd_block_rows(16, 64, 64, 400, 9), 1);
        // Small maps fit whole.
        assert_eq!(winograd_block_rows(16, 128, 128, 7, 7), 7);
        // Deep layers follow the same rule: U is packed once per call, so
        // a block re-reads it but never re-packs it.
        assert_eq!(winograd_block_rows(16, 128, 256, 28, 28), 3);
        assert_eq!(winograd_block_rows(16, 512, 512, 14, 14), 2);
        // The budget keys on the coordinates, not the tile: AlexNet
        // conv2's F(2x2,5x5) (96 -> 256 @ 27², 14 tile rows of 14) gets
        // the 36-coordinate share, five tile rows a block.
        assert_eq!(winograd_block_rows(36, 96, 256, 14, 14), 5);
        // So every VGG-16 3x3 layer's V + M block is within the budget.
        for (ic, oc, map) in [
            (3, 64, 224),
            (64, 64, 224),
            (64, 128, 112),
            (128, 128, 112),
            (128, 256, 56),
            (256, 256, 56),
            (256, 512, 28),
            (512, 512, 28),
            (512, 512, 14),
        ] {
            let tiles = map / 2;
            let rows = winograd_block_rows(16, ic, oc, tiles, tiles);
            assert!(
                16 * (ic + oc) * rows * tiles <= WINOGRAD_BLOCK_FLOATS,
                "{ic} -> {oc} @ {map}: {rows} tile rows"
            );
        }
    }

    proptest::proptest! {
        /// F(4x4) the same way, and on top the `U` chunk: which output
        /// channels share a GEMM never changes what a row computes, so
        /// every block height under every chunk width gives the same bits
        /// (a chunk of 1 is a one-row GEMM per channel).
        #[test]
        fn winograd4_is_bitwise_independent_of_block_height_and_chunk(
            ic in 1usize..7,
            in_h in 1usize..24,
            in_w in 1usize..24,
            pad in 0usize..3,
            oc in 1usize..9,
            seed in proptest::any::<u64>(),
        ) {
            proptest::prop_assume!(in_h + 2 * pad >= 3 && in_w + 2 * pad >= 3);
            let geom = Conv2dGeometry::new(ic, in_h, in_w, 3, 1, pad);
            let weight = noise(seed, oc * geom.patch_len());
            let bias = noise(seed ^ 0xB1A5, oc);
            let input = noise(seed ^ 0x1DEA, ic * in_h * in_w);
            let tiles_y = geom.out_h.div_ceil(4);
            let run = |chunk: usize, block_rows: usize| {
                let filter = WinogradFilter::chunked(&geom, oc, &weight, 4, chunk);
                let mut out = vec![f32::NAN; oc * geom.out_positions()];
                pipeline(&geom, &filter, &bias, &input, &mut out, block_rows);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let whole = run(oc, tiles_y);
            for chunk in [oc, 1, 3] {
                for block_rows in [1, 2, tiles_y] {
                    proptest::prop_assert_eq!(run(chunk, block_rows.min(tiles_y)), whole.clone());
                }
            }
        }
    }

    #[test]
    fn winograd4_within_documented_bound() {
        // Ragged tiles on both axes (out 13 x 10) and a channel tail.
        let geom = Conv2dGeometry::new(5, 13, 10, 3, 1, 1);
        let oc = 7;
        let (w, b, x) = fixture(&geom, oc);
        let want = reference(&geom, oc, &w, &b, &x);
        let filter = WinogradFilter::new(&geom, oc, &w, 4);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        let mut scratch = vec![f32::NAN; winograd_scratch_len(&geom, oc, 4, 1)];
        pcnn_parallel::with_threads(1, || {
            winograd_images(
                &geom,
                &filter,
                &b,
                &x,
                1,
                WriteBack::Bias,
                &mut got,
                &mut scratch,
            );
        });
        let bound = winograd_error_bound(4, &geom, &w, &x);
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - r).abs() <= bound,
                "element {i}: {g} vs {r} (bound {bound})"
            );
        }
    }

    #[test]
    fn winograd5_exact_on_scaled_integers() {
        // Filter taps of 576 * {-1, 0, 1} (576 = 24²) and inputs of
        // {-1, 0, 1}: `G g G^T` lands on integers (each pass divides by at
        // most 24) and every later sum stays an integer below 2^24, so
        // F(2x2,5x5) — `G` rounding and all — must agree with the
        // reference to the bit.
        let geom = Conv2dGeometry::new(1, 13, 11, 5, 1, 2);
        let oc = 17;
        let weight: Vec<f32> = (0..oc * geom.patch_len())
            .map(|i| 576.0 * ((i * 7 % 3) as f32 - 1.0))
            .collect();
        let bias: Vec<f32> = (0..oc).map(|i| i as f32).collect();
        let input: Vec<f32> = (0..geom.in_h * geom.in_w)
            .map(|i| (i * 5 % 3) as f32 - 1.0)
            .collect();
        let want = reference(&geom, oc, &weight, &bias, &input);
        let mut got = vec![f32::NAN; oc * geom.out_positions()];
        conv2d_winograd(&geom, oc, &weight, &bias, &input, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn the_tile_follows_the_map_and_the_channels() {
        let tile = |ic, side, oc| winograd_tile(&Conv2dGeometry::new(ic, side, side, 3, 1, 1), oc);
        // VGG-16: F(4x4) from 224² down to 28², F(2x2) on 14² and on the
        // three-channel first layer.
        for (ic, side, oc) in [
            (64, 224, 64),
            (64, 112, 128),
            (256, 56, 256),
            (512, 28, 512),
        ] {
            assert_eq!(tile(ic, side, oc), 4, "{ic} -> {oc} @ {side}");
        }
        assert_eq!(tile(512, 14, 512), 2);
        assert_eq!(tile(3, 224, 64), 2);
        // AlexNet's 13² layers and the tiny nets' few-channel ones.
        assert_eq!(tile(384, 13, 384), 2);
        assert_eq!(tile(8, 32, 8), 2);
        assert_eq!(tile(16, 16, 16), 2);
        // Both sides count: a 28-row map 27 wide stays F(2x2).
        let narrow = Conv2dGeometry::new(16, 28, 27, 3, 1, 1);
        assert_eq!(winograd_tile(&narrow, 16), 2);
        // A 5x5 layer is F(2x2,5x5) whatever its map: 36 coordinates
        // already.
        let five = |side| winograd_tile(&Conv2dGeometry::new(96, side, side, 5, 1, 2), 256);
        assert_eq!((five(27), five(56)), (2, 2));
    }

    /// [`FilterColumns`] with the portable body only: its `store_avx512`
    /// is the default, which stores the per-lane walk's columns.
    struct PerLane<'w, const T: usize, const R: usize>(FilterColumns<'w, T, R>);

    impl<const T: usize, const R: usize, const N: usize> AColumns<N> for PerLane<'_, T, R> {
        fn column(&self, c: usize, o0: usize, live: usize) -> [[f32; A_LANES]; N] {
            self.0.column(c, o0, live)
        }
    }

    /// The filter transform's vector walk (the AVX-512 tier's: the one
    /// `filter_tile` on `__m512` lanes) packs bitwise the images the
    /// per-lane walk (on `[f32; 16]` lanes) does: all three kernels (the
    /// 5x5 one's 25 taps `ic * 25` floats apart), ragged last
    /// tiles (`oc % 16` of 1, 7 and 15, starting past the first tile as a
    /// chunk of `U` does), input channels on either side of one and two
    /// `KC` blocks, at pool widths 1 to 3; on noise, then on filters
    /// holding signed zeros and infinities (bit for bit), then NaNs too (by
    /// position).
    #[test]
    fn the_vector_filter_walk_on_every_tier_is_bitwise_the_per_lane_walk() {
        fn check<const T: usize, const R: usize, const N: usize>(
            weight: &[f32],
            ic: usize,
            rows: Range<usize>,
            nan: bool,
        ) {
            let walk = || FilterColumns::<T, R> {
                weight,
                ic,
                first: rows.start,
            };
            let packed = |source: &dyn Fn(&mut [f32])| {
                let mut u = vec![f32::NAN; packed_a_images_len(N, rows.len(), ic)];
                source(&mut u);
                u
            };
            let vector = packed(&|u| pack_a_images::<N>(rows.len(), ic, &walk(), u));
            let per_lane = packed(&|u| pack_a_images::<N>(rows.len(), ic, &PerLane(walk()), u));
            // Each image, without the unwritten skew after it.
            let images = |u: &[f32]| {
                u.chunks_exact(u.len() / N)
                    .flat_map(|x| &x[..x.len() - IMAGE_SKEW])
                    .copied()
                    .collect::<Vec<_>>()
            };
            assert!(
                agree(&images(&vector), &images(&per_lane), nan),
                "F({T}x{T},{R}x{R}), ic {ic}, rows {rows:?}, NaNs {nan}"
            );
        }
        let kc = crate::gemm_tile()[2];
        for ic in [1, kc - 1, kc + 1, 2 * kc + 3] {
            for oc in [17, 23, 31] {
                let seed = (ic * oc) as u64;
                let noise = noise(seed, oc * ic * 25);
                for (weight, nan) in [
                    (noise.clone(), false),
                    (with_specials(noise.clone(), seed, false), false),
                    (with_specials(noise, seed, true), true),
                ] {
                    for width in 1..=3 {
                        pcnn_parallel::with_threads(width, || {
                            for rows in [0..oc, 16..oc] {
                                check::<2, 3, 16>(&weight, ic, rows.clone(), nan);
                                check::<4, 3, 36>(&weight, ic, rows.clone(), nan);
                                check::<2, 5, 36>(&weight, ic, rows, nan);
                            }
                        });
                    }
                }
            }
        }
    }

    /// The input transform's vector column pass (the AVX-512 tier's:
    /// `input_line` on `__m512` lanes) writes bitwise the packed `V` the
    /// portable pass (on `f32`) does, padding lanes included: all three
    /// kernels, tile rows whose tiles start and end inside a micropanel (a
    /// block of several rows, a short one of one), borders of 0 and 1,
    /// input channels on either side of one and two `KC` blocks; on noise,
    /// then on inputs holding signed zeros and infinities (bit for bit),
    /// then NaNs too (by position).
    #[test]
    fn the_vector_input_transform_on_every_tier_is_bitwise_the_portable_one() {
        if !avx512_tier() {
            eprintln!("skipped: the AVX-512 tier does not run here");
            return;
        }
        fn check<const T: usize, const R: usize>(geom: &Conv2dGeometry, tile_rows: Range<usize>) {
            let (ic, coords) = (geom.in_channels, winograd_coords(T, R));
            let tiles_x = geom.out_w.div_ceil(T);
            let tb = tile_rows.len() * tiles_x;
            let seed = (ic * geom.in_w) as u64;
            let noise = noise(seed, ic * geom.in_h * geom.in_w);
            for (input, nan) in [
                (noise.clone(), false),
                (with_specials(noise.clone(), seed, false), false),
                (with_specials(noise, seed, true), true),
            ] {
                let run = |vector: bool| {
                    let mut v = vec![f32::NAN; coords * packed_b_len(tb, ic)];
                    let mut rows = vec![0.0; 40 * (T * tiles_x + R - 1)];
                    let tiles = tile_rows.clone();
                    input_transform::<T, R>(geom, &input, tiles, &mut v, &mut rows, vector);
                    v
                };
                assert!(
                    agree(&run(true), &run(false), nan),
                    "F({T}x{T},{R}x{R}) {geom:?} rows {tile_rows:?}, NaNs {nan}"
                );
            }
        }
        let kc = crate::gemm_tile()[2];
        for ic in [1, 3, kc - 1, kc + 1, 2 * kc + 3] {
            for (side, pad) in [(13, 1), (23, 0), (30, 1)] {
                let geom = Conv2dGeometry::new(ic, side, side + 5, 3, 1, pad);
                let rows = |t: usize| geom.out_h.div_ceil(t);
                check::<2, 3>(&geom, 0..rows(2));
                check::<2, 3>(&geom, 1..4.min(rows(2)));
                check::<4, 3>(&geom, 0..rows(4));
                check::<4, 3>(&geom, rows(4) - 1..rows(4));
                let five = Conv2dGeometry::new(ic, side, side + 5, 5, 1, 2 * pad);
                let rows = five.out_h.div_ceil(2);
                check::<2, 5>(&five, 0..rows);
                check::<2, 5>(&five, 1..4.min(rows));
            }
        }
    }

    #[test]
    fn u_chunks_stay_inside_the_budget() {
        // VGG-16's two F(4x4) layers over the budget: 512 -> 512 in three
        // chunks of whole 16-row tiles, 256 -> 512 in two.
        assert_eq!(winograd_chunk(36, 512, 512), 176);
        assert_eq!(winograd_chunk(36, 256, 512), 256);
        // Everything else is one chunk, F(2x2)'s 512 -> 512 included.
        assert_eq!(winograd_chunk(36, 256, 256), 256);
        assert_eq!(winograd_chunk(16, 512, 512), 512);
        for (coords, ic, oc) in [
            (36, 512, 512),
            (36, 256, 512),
            (36, 2048, 100),
            (16, 1024, 1024),
        ] {
            let chunk = winograd_chunk(coords, ic, oc);
            assert!(coords * ic * chunk.next_multiple_of(16) <= WINOGRAD_U_FLOATS);
            // A chunked layer is one block: its input is transformed once.
            assert_eq!(winograd_block_rows(coords, ic, oc, 7, 7), 7);
        }
        // AlexNet conv2's F(2x2,5x5) U (36 x 96 x 256) is one chunk.
        assert_eq!(winograd_chunk(36, 96, 256), 256);
        // F(4x4)'s unchunked VGG layers keep V + M within their budget.
        for (ic, oc, map) in [
            (64, 64, 224),
            (64, 128, 112),
            (128, 128, 112),
            (128, 256, 56),
            (256, 256, 56),
        ] {
            let tiles = map / 4;
            let rows = winograd_block_rows(36, ic, oc, tiles, tiles);
            assert!(rows < tiles, "{ic} -> {oc} @ {map}: one block");
            assert!(36 * (ic + oc) * rows * tiles <= 2 * WINOGRAD_BLOCK_FLOATS);
        }
    }

    #[test]
    fn winograd_rejects_unsupported_geometry() {
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 2, 1)));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 5, 2, 2)));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 7, 1, 3)));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 1, 1, 0)));
        assert!(ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 1, 0)));
        assert!(ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 5, 1, 2)));
    }

    #[test]
    #[should_panic(expected = "winograd requires kernel 3 or 5, stride 1")]
    fn winograd_panics_on_stride_2() {
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 2, 1);
        let mut out = vec![0.0; geom.out_positions()];
        conv2d_winograd(&geom, 1, &[0.0; 9], &[0.0], &[0.0; 64], &mut out);
    }

    #[test]
    fn algo_names_round_trip() {
        for a in ConvAlgo::ALL {
            assert_eq!(ConvAlgo::parse(a.name()), Some(a));
            assert_eq!(format!("{a}"), a.name());
        }
        assert_eq!(ConvAlgo::parse("fft"), None);
    }
}
