//! The inference convolutions: direct (fused-pack) and Winograd
//! F(2x2,3x3), selectable per layer by the offline autotuner — and the
//! sampled convolution perforated inference runs on.
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
//! - [`conv2d_winograd`]: the F(2x2,3x3) minimal-filtering transform for
//!   stride-1 3x3 layers, cutting microkernel multiplies per output from
//!   9 to 16/4 = 4 (2.25x). Transform matrices use only `{0, ±1, ±0.5}`
//!   coefficients, all exact in f32. The accumulation *order* differs
//!   from im2col, so outputs are not bitwise-equal to the reference —
//!   they carry a small rounding difference bounded by
//!   [`winograd_error_bound`] — but they are bitwise **deterministic**:
//!   the transforms are pure per-element maps with one fixed sequence of
//!   adds, subs and `x 0.5`, and the 16 per-coordinate multiplies go
//!   through the deterministic [`crate::gemm`], so every thread count
//!   produces the identical bits.
//!
//! [`conv2d`] is the dispatcher over the two: one call convolves a
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
//! Winograd's intermediates are large — `V` (transformed input) and `M`
//! (products) are each `16 x channels x tiles`, 51 MB on VGG conv1_2 — so
//! the image is never transformed whole. It runs as a pipeline over
//! **blocks of whole tile rows** (`winograd_block_rows` of them, from
//! the shape and one cache-budget constant): transform the block's input
//! rows into a cache-resident `V` block, run the 16 GEMMs into a
//! cache-resident `M` block, inverse-transform that block straight into
//! its rows of the output. The three transforms work a row at a time
//! with contiguous inner loops. Blocks are also the unit of parallelism:
//! one parallel region per layer, whole blocks per worker, the GEMMs
//! inside a block on that worker alone (a single-block layer — a small
//! map — lets its GEMMs split across the pool instead). Block boundaries
//! depend on shape only and no element's operation sequence depends on
//! them, so the block height moves time and never bits
//! (`tests/winograd_bits.rs`).
//!
//! The filter transform depends on the weights only, so [`conv2d`] does
//! it once per call, for all its images (`WinogradFilter`). It writes
//! `U` straight into the packed-`A` micropanels the GEMM reads, so no
//! block packs `U` again, however many blocks re-read it; and each GEMM
//! stores its first `KC` block into `M` instead of adding it, so `M` is
//! never zero-filled — bitwise the same as zero-fill plus add.
//!
//! # Profiling
//!
//! The patch gather reports as [`Phase::PackB`] (it *is* the B pack) and
//! its bias broadcast as [`Phase::Epilogue`];
//! Winograd's filter transform (once, packing `U` included — its GEMMs
//! report no [`Phase::PackA`]) and input transform (per block) report as
//! [`Phase::WinogradTransform`], the per-GEMM copy of `V` into packed `B`
//! as [`Phase::PackB`], and its inverse transform + bias (per block) as
//! [`Phase::WinogradInverse`], their flops and bytes summing per layer to
//! the whole-image figures, so `pcnn profile` attributes the phases per
//! layer.

use crate::gemm::{
    active_partition, gemm_packed, gemm_packed_a, pack_a_images, pack_b_with, packed_b_len, A_LANES,
};
use crate::im2col::Conv2dGeometry;
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
    /// Winograd F(2x2,3x3) minimal filtering (stride-1 3x3 only).
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
    /// Im2col and direct handle every geometry; Winograd F(2x2,3x3) is
    /// specialised to stride-1 3x3 filters.
    pub fn supports(self, geom: &Conv2dGeometry) -> bool {
        match self {
            ConvAlgo::Im2col | ConvAlgo::Direct => true,
            ConvAlgo::Winograd => geom.kernel == 3 && geom.stride == 1,
        }
    }
}

impl std::fmt::Display for ConvAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full convolution of `images` CHW images through `algo` — the one way
/// an unperforated conv layer runs, whoever asks: the layer forward, the
/// offline tuner timing a candidate, `pcnn bench-conv`.
///
/// `input` holds the images back to back, `weight` is the
/// `[out_channels, patch_len]` filter matrix, and image `i`'s
/// `out_channels x out_positions` map is written (every element) to
/// `out[i * map..(i + 1) * map]`. [`ConvAlgo::Im2col`] and
/// [`ConvAlgo::Direct`] both run [`conv2d_direct`] per image. What the
/// images of a Winograd call share is one [`WinogradFilter`], built here
/// and dropped on return, never arithmetic — so a call on a group is
/// bitwise the calls on its images alone.
///
/// # Panics
///
/// Panics if `algo` does not [support](ConvAlgo::supports) `geom` or a
/// slice is shorter than the geometry and `images` imply.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    algo: ConvAlgo,
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    out: &mut [f32],
) {
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    let map = out_channels * geom.out_positions();
    assert!(input.len() >= images * chw, "input too short");
    assert!(out.len() >= images * map, "out too short");
    let (image, maps) = (|i| i * chw..(i + 1) * chw, |i| i * map..(i + 1) * map);
    match algo {
        ConvAlgo::Im2col | ConvAlgo::Direct => {
            for i in 0..images {
                let (x, y) = (&input[image(i)], &mut out[maps(i)]);
                conv2d_direct(geom, out_channels, weight, bias, x, y);
            }
        }
        ConvAlgo::Winograd => {
            let filter = WinogradFilter::new(geom, out_channels, weight);
            for i in 0..images {
                let (x, y) = (&input[image(i)], &mut out[maps(i)]);
                conv2d_winograd_prepared(geom, &filter, bias, x, WriteBack::Bias, y);
            }
        }
    }
}

/// What Winograd's write-back applies after the bias: nothing, ReLU, or
/// ReLU and then the 2x2 stride-2 max-pool, one window per tile. The
/// discriminant counts the layers fused.
#[derive(Clone, Copy, PartialEq)]
enum WriteBack {
    Bias,
    Relu,
    ReluPool,
}

impl WriteBack {
    /// Positions per channel of the map written back.
    fn positions(self, geom: &Conv2dGeometry) -> usize {
        geom.out_positions() / if self == WriteBack::ReluPool { 4 } else { 1 }
    }
}

/// [`conv2d`] through Winograd with the ReLU after the layer — and, with
/// `pool`, the 2x2 stride-2 max-pool after that — in the inverse
/// transform's write-back: the same operations in the same order as the
/// separate passes, so their bits, but the maps in between are never
/// stored. With `pool`, image `i`'s map is `out_channels x out_h/2 x
/// out_w/2` floats.
///
/// # Panics
///
/// As [`conv2d`] for Winograd, and if `pool` is asked of an odd map.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_winograd_relu(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    images: usize,
    pool: bool,
    out: &mut [f32],
) {
    assert!(
        !pool || (geom.out_h.is_multiple_of(2) && geom.out_w.is_multiple_of(2)),
        "a fused 2x2 pool needs an even map"
    );
    let wb = if pool {
        WriteBack::ReluPool
    } else {
        WriteBack::Relu
    };
    let chw = geom.in_channels * geom.in_h * geom.in_w;
    let map = out_channels * wb.positions(geom);
    let filter = WinogradFilter::new(geom, out_channels, weight);
    for i in 0..images {
        let (x, y) = (&input[i * chw..][..chw], &mut out[i * map..][..map]);
        conv2d_winograd_prepared(geom, &filter, bias, x, wb, y);
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
    let all = 0..geom.out_positions();
    gather_conv(geom, out_channels, weight, bias, input, 1, all, out);
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
///
/// Every element is bitwise what [`crate::im2col_positions`] followed by
/// a bias fill and [`crate::gemm`] computes for its image alone: a `C`
/// element's operation sequence depends on `k` and `KC` only, never on
/// how many columns share the GEMM or where its own sits among them.
///
/// # Panics
///
/// Panics if any slice is shorter than the geometry implies, if a
/// position is out of range, or if the group is too large for 32-bit
/// offsets (`images` padded images of 2^32 floats or more).
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
) {
    let positions = positions.iter().copied();
    gather_conv(
        geom,
        out_channels,
        weight,
        bias,
        input,
        images,
        positions,
        out,
    );
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
/// [`gemm_packed`].
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
        let mut buf = pcnn_parallel::scratch_f32(images * image_len);
        add_zero_border(geom, &input[..images * chw], &mut buf);
        buf
    });
    let src = bordered.as_deref().unwrap_or(&input[..images * chw]);
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
    let mut b_pack = pcnn_parallel::scratch_f32(packed_b_len(n, k));
    pcnn_parallel::with_region_label("conv.gather", || {
        pack_b_with(n, k, &mut b_pack, part.tasks() > 1, |r, j0, dst| {
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
    gemm_packed(m, n, k, weight, &b_pack, part, out);
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

/// Cache budget of one Winograd block, in `f32` elements (2 MiB, one
/// core's L2): the `V` and `M` planes of a block of tile rows —
/// `16 * (ic + oc)` floats per tile — stay within it, so what the input
/// transform writes is still cache-resident when the 16 GEMMs read it,
/// and what they write still is when the inverse transform reads it. The
/// Winograd analogue of the GEMM's `MC` / `KC`: it moves time, never
/// bits.
const WINOGRAD_BLOCK_FLOATS: usize = 512 * 1024;

/// Tile rows per block of [`conv2d_winograd`]'s pipeline — a pure
/// function of the layer shape, so block boundaries (and with them the
/// parallel split) never depend on thread count or timing.
///
/// A block is as many whole tile rows as fit [`WINOGRAD_BLOCK_FLOATS`],
/// at least one, on every layer: the transformed filter `U` is packed
/// once per call, so a block re-reads it but never re-packs it.
pub fn winograd_block_rows(ic: usize, oc: usize, tiles_x: usize, tiles_y: usize) -> usize {
    (WINOGRAD_BLOCK_FLOATS / (16 * (ic + oc) * tiles_x)).clamp(1, tiles_y)
}

/// The Winograd-domain image of one layer's 3x3 filters:
/// `U[xi] = (G g G^T)[xi]`, one `out_channels x in_channels` matrix per
/// transform coordinate, where
/// `G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]` — each written
/// straight into the packed-`A` image its 16 GEMMs read
/// ([`gemm_packed_a`]), so no block packs it again.
///
/// It depends on the weights only, so [`conv2d`] builds it once for all
/// the images of a call. The storage is pooled scratch: dropping the
/// value returns it, nothing is cached on the layer.
struct WinogradFilter {
    out_channels: usize,
    in_channels: usize,
    /// The 16 packed images, `U[xi]` at `xi * u.len() / 16`.
    u: pcnn_parallel::ScratchF32,
}

impl WinogradFilter {
    /// Transforms the `[out_channels, patch_len]` filter matrix `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `geom` is not a stride-1 3x3 layer or `weight` is shorter
    /// than the geometry implies.
    fn new(geom: &Conv2dGeometry, out_channels: usize, weight: &[f32]) -> Self {
        assert_winograd_supports(geom);
        let (oc, ic) = (out_channels, geom.in_channels);
        assert!(weight.len() >= oc * ic * 9, "weight too short");
        let span = phase_span(Phase::WinogradTransform);
        // A tile column at a time: lane `l` is output channel `o0 + l`'s
        // filter of input channel `c` (lanes past `live` stay zero, and so
        // does their transform), so the arithmetic runs over
        // `A_LANES`-wide arrays and returns the column of all 16 images.
        let u = pack_a_images::<16>(oc, ic, |c, o0, live| {
            let mut g = [[0.0f32; A_LANES]; 9];
            for l in 0..live {
                let f = &weight[((o0 + l) * ic + c) * 9..][..9];
                for (q, &val) in f.iter().enumerate() {
                    g[q][l] = val;
                }
            }
            // Rows: G applied to the 3 filter rows -> 4 rows of 3.
            let mut gg = [[[0.0f32; A_LANES]; 3]; 4];
            for j in 0..3 {
                for l in 0..A_LANES {
                    let (g0, g1, g2) = (g[j][l], g[3 + j][l], g[6 + j][l]);
                    gg[0][j][l] = g0;
                    gg[1][j][l] = 0.5 * (g0 + g1 + g2);
                    gg[2][j][l] = 0.5 * (g0 - g1 + g2);
                    gg[3][j][l] = g2;
                }
            }
            // Columns: right-multiply by G^T -> 4x4, coordinate a * 4 + b.
            let mut uu = [[0.0f32; A_LANES]; 16];
            for (a, row) in gg.iter().enumerate() {
                for l in 0..A_LANES {
                    let (t0, t1, t2) = (row[0][l], row[1][l], row[2][l]);
                    uu[a * 4][l] = t0;
                    uu[a * 4 + 1][l] = 0.5 * (t0 + t1 + t2);
                    uu[a * 4 + 2][l] = 0.5 * (t0 - t1 + t2);
                    uu[a * 4 + 3][l] = t2;
                }
            }
            uu
        });
        if let Some(s) = span {
            // Filter reads, packed U writes (without the tier's tile
            // padding); ~40 adds/muls per 3x3 filter.
            s.finish(
                (40 * oc * ic) as u64,
                4 * (oc * ic * 9 + 16 * oc * ic) as u64,
            );
        }
        Self {
            out_channels,
            in_channels: ic,
            u,
        }
    }
}

fn assert_winograd_supports(geom: &Conv2dGeometry) {
    assert!(
        ConvAlgo::Winograd.supports(geom),
        "winograd F(2x2,3x3) requires kernel 3, stride 1 (got kernel {}, stride {})",
        geom.kernel,
        geom.stride
    );
}

/// Winograd F(2x2,3x3) convolution of one CHW image (stride-1 3x3 only):
/// `out = weight (*) input + bias`, fully overwriting `out`.
///
/// Each 2x2 output tile is produced from a 4x4 input tile via the
/// classic minimal-filtering factorisation `Y = A^T [ (G g G^T) .*
/// (B^T d B) ] A`, with the element-wise products batched over channels
/// into 16 `out_channels x in_channels x tiles` GEMMs (one per transform
/// coordinate) through the deterministic packed GEMM — bitwise
/// [`crate::gemm`] into a zeroed product, with the transformed filter
/// packed once per call. The image is processed as a pipeline over
/// blocks of whole tile rows (see the module docs). All transform
/// coefficients are `{0, ±1, ±0.5}` — exact in f32 — and the transforms
/// are pure per-element maps, so the output is bitwise deterministic at
/// every thread count. Accumulation order differs from im2col; the numerical
/// difference is bounded by [`winograd_error_bound`].
///
/// # Panics
///
/// Panics if `geom` is not a stride-1 3x3 layer or a slice is shorter
/// than the geometry implies.
pub fn conv2d_winograd(
    geom: &Conv2dGeometry,
    out_channels: usize,
    weight: &[f32],
    bias: &[f32],
    input: &[f32],
    out: &mut [f32],
) {
    let filter = WinogradFilter::new(geom, out_channels, weight);
    conv2d_winograd_prepared(geom, &filter, bias, input, WriteBack::Bias, out);
}

/// [`conv2d_winograd`] with the filter transform already done, writing
/// back through `wb`.
///
/// Runs the block pipeline of the module docs at the block height
/// `winograd_block_rows` picks for the shape: nothing image-sized is
/// materialised, and every output element sees the same sequence of IEEE
/// operations whatever the block height or thread count.
///
/// # Panics
///
/// Panics if `geom` is not a stride-1 3x3 layer, if `filter` was built
/// for another channel count, or if a slice is shorter than the geometry
/// implies.
fn conv2d_winograd_prepared(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    bias: &[f32],
    input: &[f32],
    wb: WriteBack,
    out: &mut [f32],
) {
    assert_winograd_supports(geom);
    assert_eq!(
        filter.in_channels, geom.in_channels,
        "filter was transformed for another layer"
    );
    let (oc, ic) = (filter.out_channels, geom.in_channels);
    assert!(input.len() >= ic * geom.in_h * geom.in_w, "input too short");
    assert!(bias.len() >= oc, "bias too short");
    assert!(out.len() >= oc * wb.positions(geom), "out too short");
    if oc == 0 || ic == 0 || geom.out_positions() == 0 {
        return;
    }
    let (tiles_y, tiles_x) = (geom.out_h.div_ceil(2), geom.out_w.div_ceil(2));
    let block_rows = winograd_block_rows(ic, oc, tiles_x, tiles_y);
    winograd_pipeline(geom, filter, bias, input, wb, out, block_rows);
}

/// Runs the block pipeline at `block_rows` tile rows per block (the last
/// block takes what is left). `out` is handed to the blocks as safely
/// split per-channel row bands: block `b` owns output rows
/// `2 * b * block_rows..` of every channel (`b * block_rows..` pooled).
fn winograd_pipeline(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    bias: &[f32],
    input: &[f32],
    wb: WriteBack,
    out: &mut [f32],
    block_rows: usize,
) {
    let (oc, map) = (filter.out_channels, wb.positions(geom));
    let tiles_y = geom.out_h.div_ceil(2);
    let band = match wb {
        WriteBack::ReluPool => block_rows * geom.out_w / 2,
        _ => 2 * block_rows * geom.out_w,
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
    let run_block = |b: usize, bands: &mut [&mut [f32]]| {
        let tile_rows = b * block_rows..tiles_y.min((b + 1) * block_rows);
        winograd_block(geom, filter, bias, input, tile_rows, wb, bands);
    };
    if n_blocks == 1 {
        // Not a region of one task: that would mark this thread as a
        // pool worker and serialise the GEMMs inside.
        run_block(0, &mut bands);
    } else {
        // Workers record their blocks' spans into the caller's profile,
        // under the caller's layer.
        let handoff = pcnn_profile::Handoff::capture();
        pcnn_parallel::with_region_label("conv.winograd", || {
            pcnn_parallel::par_chunks_mut(&mut bands, oc, |b, bands| {
                handoff.enter(|| run_block(b, bands));
            });
        });
    }
}

/// One block of the pipeline: input transform of tile rows `tile_rows`,
/// the 16 GEMMs, inverse transform into `bands` (one slice of output rows
/// per channel).
fn winograd_block(
    geom: &Conv2dGeometry,
    filter: &WinogradFilter,
    bias: &[f32],
    input: &[f32],
    tile_rows: Range<usize>,
    wb: WriteBack,
    bands: &mut [&mut [f32]],
) {
    let (oc, ic) = (filter.out_channels, geom.in_channels);
    let tiles_x = geom.out_w.div_ceil(2);
    let tb = tile_rows.len() * tiles_x;
    // Padded input row width: tile `tx` reads columns `2 tx..2 tx + 4`.
    let wp = 2 * tiles_x + 2;

    // The span starts before the checkout (pooled scratch), so pool
    // bookkeeping counts as transform time.
    let span = phase_span(Phase::WinogradTransform);
    // V[xi]: ic x tb, M[xi]: oc x tb — 16 coordinates each — plus row
    // temporaries for the two transforms.
    let mut scratch = pcnn_parallel::scratch_f32(16 * (ic + oc) * tb + 8 * wp);
    let (v, rest) = scratch.split_at_mut(16 * ic * tb);
    let (m, rows) = rest.split_at_mut(16 * oc * tb);
    input_transform(geom, input, tile_rows.clone(), v, rows);
    if let Some(s) = span {
        // The input rows this block is the first to read (halo rows
        // belong to the block above), V written; ~40 adds per 4x4.
        let first_row = |ty: usize| match ty {
            0 => 0,
            ty if ty == geom.out_h.div_ceil(2) => geom.in_h,
            ty => (2 * ty).saturating_sub(geom.pad).min(geom.in_h),
        };
        let in_rows = first_row(tile_rows.end) - first_row(tile_rows.start);
        s.finish(
            (40 * ic * tb) as u64,
            4 * (ic * in_rows * geom.in_w + 16 * ic * tb) as u64,
        );
    }

    // 16 per-coordinate GEMMs: M[xi] = U[xi] * V[xi], stored, so M needs
    // no zero-fill.
    let us = filter.u.chunks_exact(filter.u.len() / 16);
    let vs = v.chunks_exact(ic * tb);
    for ((u, v), m) in us.zip(vs).zip(m.chunks_exact_mut(oc * tb)) {
        gemm_packed_a(oc, tb, ic, u, v, m);
    }

    let span = phase_span(Phase::WinogradInverse);
    inverse_transform(geom, tile_rows, m, bias, wb, bands, rows);
    if let Some(s) = span {
        // 16 adds per tile, and the fused layers' own counts: a max per
        // output for the ReLU, a compare per window element for the pool.
        s.finish(
            ((16 + 4 * wb as usize) * oc * tb) as u64,
            4 * (16 * oc * tb + bands.iter().map(|b| b.len()).sum::<usize>()) as u64,
        );
    }
}

/// Input transform of a block: `V = B^T d B` per (channel, tile) 4x4
/// input patch, where `B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]`
/// and tile `(ty, tx)` reads the patch at `(2 ty - pad, 2 tx - pad)`, zero
/// outside the image. `v` is `[16][ic][tiles of the block]`.
///
/// Works a tile row at a time so every inner loop is contiguous: the four
/// zero-padded input rows of the tile row, the `B^T d` row combination
/// across their whole width, then the stride-2 column combination writing
/// each of the 16 planes along the tiles.
fn input_transform(
    geom: &Conv2dGeometry,
    input: &[f32],
    tile_rows: Range<usize>,
    v: &mut [f32],
    rows: &mut [f32],
) {
    let ic = geom.in_channels;
    let tiles_x = geom.out_w.div_ceil(2);
    let tb = tile_rows.len() * tiles_x;
    let wp = 2 * tiles_x + 2;
    let [d, w] = split_rows(rows, 4 * wp);
    for c in 0..ic {
        let chan = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for (r, ty) in tile_rows.clone().enumerate() {
            for (dy, drow) in d.chunks_exact_mut(wp).enumerate() {
                drow.fill(0.0);
                if let Some(iy) = (2 * ty + dy).checked_sub(geom.pad) {
                    if iy < geom.in_h {
                        drow[geom.pad..geom.pad + geom.in_w]
                            .copy_from_slice(&chan[iy * geom.in_w..(iy + 1) * geom.in_w]);
                    }
                }
            }
            // Rows: B^T d -> 4 rows, across the whole padded width.
            let [d0, d1, d2, d3] = split_rows(d, wp);
            let [w0, w1, w2, w3] = split_rows(w, wp);
            for j in 0..wp {
                w0[j] = d0[j] - d2[j];
                w1[j] = d1[j] + d2[j];
                w2[j] = d2[j] - d1[j];
                w3[j] = d1[j] - d3[j];
            }
            // Columns: (B^T d) B -> 4x4 per tile, plane by plane.
            for (a, wa) in w.chunks_exact(wp).enumerate() {
                let at = |b: usize| (a * 4 + b) * ic * tb + c * tb + r * tiles_x;
                // The four planes of row `a` are `ic * tb` apart.
                let (z0, rest) = v[at(0)..].split_at_mut(ic * tb);
                let (z1, rest) = rest.split_at_mut(ic * tb);
                let (z2, z3) = rest.split_at_mut(ic * tb);
                let (z0, z1, z2, z3) = (
                    &mut z0[..tiles_x],
                    &mut z1[..tiles_x],
                    &mut z2[..tiles_x],
                    &mut z3[..tiles_x],
                );
                for tx in 0..tiles_x {
                    let (r0, r1, r2, r3) =
                        (wa[2 * tx], wa[2 * tx + 1], wa[2 * tx + 2], wa[2 * tx + 3]);
                    z0[tx] = r0 - r2;
                    z1[tx] = r1 + r2;
                    z2[tx] = r2 - r1;
                    z3[tx] = r1 - r3;
                }
            }
        }
    }
}

/// Inverse transform of a block: `Y = A^T M A + bias` per (channel, tile),
/// clipping the ragged right/bottom edge, where
/// `A^T = [[1,1,1,0],[0,1,-1,-1]]`. `m` is `[16][oc][tiles of the block]`,
/// `bands[o]` channel `o`'s output rows of the block.
///
/// The mirror image of [`input_transform`]: a tile row at a time, the 16
/// planes read contiguously along the tiles, both output rows of the tile
/// row assembled in `rows`, rectified there if `wb` says so, and copied
/// out clipped to the map width — or pooled in `MaxPool2d`'s window order.
fn inverse_transform(
    geom: &Conv2dGeometry,
    tile_rows: Range<usize>,
    m: &[f32],
    bias: &[f32],
    wb: WriteBack,
    bands: &mut [&mut [f32]],
    rows: &mut [f32],
) {
    let oc = bands.len();
    let tiles_x = geom.out_w.div_ceil(2);
    let tb = tile_rows.len() * tiles_x;
    let [y0, y1] = split_rows(rows, 2 * tiles_x);
    for (o, band) in bands.iter_mut().enumerate() {
        let bias_o = bias[o];
        for (r, ty) in tile_rows.clone().enumerate() {
            let p: [&[f32]; 16] =
                std::array::from_fn(|xi| &m[xi * oc * tb + o * tb + r * tiles_x..][..tiles_x]);
            for tx in 0..tiles_x {
                // Rows: A^T M -> 2 rows of 4.
                let s0: [f32; 4] = std::array::from_fn(|j| p[j][tx] + p[4 + j][tx] + p[8 + j][tx]);
                let s1: [f32; 4] =
                    std::array::from_fn(|j| p[4 + j][tx] - p[8 + j][tx] - p[12 + j][tx]);
                // Columns: (A^T M) A -> 2x2, plus bias.
                y0[2 * tx] = s0[0] + s0[1] + s0[2] + bias_o;
                y0[2 * tx + 1] = s0[1] - s0[2] - s0[3] + bias_o;
                y1[2 * tx] = s1[0] + s1[1] + s1[2] + bias_o;
                y1[2 * tx + 1] = s1[1] - s1[2] - s1[3] + bias_o;
            }
            if wb != WriteBack::Bias {
                for v in y0.iter_mut().chain(y1.iter_mut()) {
                    *v = v.max(0.0);
                }
            }
            if wb == WriteBack::ReluPool {
                for (tx, d) in band[r * tiles_x..][..tiles_x].iter_mut().enumerate() {
                    let mut best = y0[2 * tx];
                    for v in [y0[2 * tx + 1], y1[2 * tx], y1[2 * tx + 1]] {
                        if v > best {
                            best = v;
                        }
                    }
                    *d = best;
                }
                continue;
            }
            for (dy, y) in [&*y0, &*y1].into_iter().enumerate() {
                if 2 * ty + dy < geom.out_h {
                    band[(2 * r + dy) * geom.out_w..][..geom.out_w]
                        .copy_from_slice(&y[..geom.out_w]);
                }
            }
        }
    }
}

/// The first `N` rows of `buf`, each `len` long.
fn split_rows<const N: usize>(buf: &mut [f32], len: usize) -> [&mut [f32]; N] {
    let mut rows = buf.chunks_exact_mut(len);
    std::array::from_fn(|_| rows.next().expect("scratch holds the rows"))
}

/// Absolute error bound of [`conv2d_winograd`] vs the im2col reference,
/// per output element, for this layer's actual operands.
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
/// which the property tests in `tests/conv_algorithms.rs` assert on
/// random operands (in practice the observed error is ~100x smaller).
pub fn winograd_error_bound(geom: &Conv2dGeometry, weight: &[f32], input: &[f32]) -> f32 {
    let max_abs = |xs: &[f32]| xs.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    64.0 * geom.patch_len() as f32 * max_abs(weight) * max_abs(input) * f32::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
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
        conv2d_sampled(geom, oc, weight, bias, input, images, positions, &mut out);
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
        let mut out = vec![0.0; 2];
        conv2d_sampled(
            &geom,
            1,
            &[0.0; 9],
            &[0.0],
            &[0.0; 36],
            1,
            &[0, 36],
            &mut out,
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
        let bound = winograd_error_bound(&geom, &w, &x);
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
        /// the same bits.
        #[test]
        fn winograd_is_bitwise_independent_of_block_height(
            ic in 1usize..7,
            in_h in 1usize..20,
            in_w in 1usize..20,
            pad in 0usize..3,
            oc in 1usize..9,
            seed in proptest::any::<u64>(),
        ) {
            proptest::prop_assume!(in_h + 2 * pad >= 3 && in_w + 2 * pad >= 3);
            let geom = Conv2dGeometry::new(ic, in_h, in_w, 3, 1, pad);
            let weight = noise(seed, oc * geom.patch_len());
            let bias = noise(seed ^ 0xB1A5, oc);
            let input = noise(seed ^ 0x1DEA, ic * in_h * in_w);
            let filter = WinogradFilter::new(&geom, oc, &weight);
            let tiles_y = geom.out_h.div_ceil(2);
            let run = |block_rows: usize| {
                let mut out = vec![f32::NAN; oc * geom.out_positions()];
                winograd_pipeline(&geom, &filter, &bias, &input, WriteBack::Bias, &mut out, block_rows);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let whole = run(tiles_y);
            for block_rows in [1, 2, 3] {
                proptest::prop_assert_eq!(run(block_rows.min(tiles_y)), whole.clone());
            }
        }
    }

    #[test]
    fn block_rows_follow_the_cache_budget() {
        // VGG conv1_2 (64 -> 64 @ 224^2): one tile row of V + M is
        // 16 * 128 * 112 floats = 7/16 of the budget, so blocks are two
        // tile rows.
        assert_eq!(winograd_block_rows(64, 64, 112, 112), 2);
        // A map whose single tile row already overflows still gets one.
        assert_eq!(winograd_block_rows(64, 64, 400, 9), 1);
        // Small maps fit whole.
        assert_eq!(winograd_block_rows(128, 128, 7, 7), 7);
        // Deep layers follow the same rule: U is packed once per call, so
        // a block re-reads it but never re-packs it.
        assert_eq!(winograd_block_rows(128, 256, 28, 28), 3);
        assert_eq!(winograd_block_rows(512, 512, 14, 14), 2);
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
            let rows = winograd_block_rows(ic, oc, tiles, tiles);
            assert!(
                16 * (ic + oc) * rows * tiles <= WINOGRAD_BLOCK_FLOATS,
                "{ic} -> {oc} @ {map}: {rows} tile rows"
            );
        }
    }

    #[test]
    fn winograd_rejects_unsupported_geometry() {
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 2, 1)));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 5, 1, 2)));
        assert!(ConvAlgo::Winograd.supports(&Conv2dGeometry::new(1, 8, 8, 3, 1, 0)));
    }

    #[test]
    #[should_panic(expected = "winograd F(2x2,3x3) requires")]
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
