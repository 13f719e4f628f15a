//! The crate's one SIMD seam: every `_mm256_*` / `_mm512_*` call lives
//! here, behind [`Lane`].
//!
//! A kernel — the packed GEMM's microkernel, `gemm_nt`'s dot tile,
//! Winograd's filter and input lines — is written once, generic over a
//! lane type `L: Lane<W>` holding `W` floats side by side, and each ISA
//! tier instantiates it with its own type:
//!
//! | lane type     | `W`    | used by                                         |
//! |---------------|--------|-------------------------------------------------|
//! | `f32`         | 1      | the portable input transform                    |
//! | `[f32; W]`    | 8, 16  | the portable tier (the autovectorizer's choice) |
//! | `__m256`      | 8      | AVX2: `gemm_nt`'s dot products                  |
//! | `[__m256; 2]` | 16     | AVX2: a 16-column microkernel row               |
//! | `__m512`      | 16     | AVX-512: microkernel, filter and input walks    |
//!
//! The trait has `mul` and `add` and nothing that fuses them: a fused
//! multiply-add rounds once where `add(acc, mul(a, b))` rounds twice, so a
//! kernel written over [`Lane`] performs, in every lane and on every type,
//! the one IEEE operation sequence its source spells out, and its bits do
//! not depend on the tier (DESIGN.md §7).
//!
//! The two AVX-512 walks' masked gather and masked store are a
//! [`Strided`] lane pattern's `#[target_feature]` methods rather than
//! trait methods: only those walks use them.
//!
//! # Safety
//!
//! The x86 lane types' methods call their intrinsics in `unsafe` blocks.
//! What makes those calls sound is where the types are instantiated: only
//! inside the tiers' `#[target_feature(enable = "avx2")]` /
//! `#[target_feature(enable = "avx512f")]` entry points, which run after
//! the runtime probe found the feature (the invariant on `gemm::Tier`),
//! and in tests behind the same probe.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
#[cfg(target_arch = "x86_64")]
use std::ops::Range;

/// `W` `f32` lanes, combined lane by lane.
pub(crate) trait Lane<const W: usize>: Copy {
    /// `x` in every lane.
    fn splat(x: f32) -> Self;
    /// The lanes from `src`.
    fn load(src: &[f32; W]) -> Self;
    /// The lanes into the caller's row `dst`.
    fn store(self, dst: &mut [f32; W]);
    /// `self + rhs`, lane by lane.
    fn add(self, rhs: Self) -> Self;
    /// `self - rhs`, lane by lane.
    fn sub(self, rhs: Self) -> Self;
    /// `self * rhs`, lane by lane.
    fn mul(self, rhs: Self) -> Self;
}

impl Lane<1> for f32 {
    #[inline(always)]
    fn splat(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn load(src: &[f32; 1]) -> Self {
        src[0]
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; 1]) {
        dst[0] = self;
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
}

impl<const W: usize> Lane<W> for [f32; W] {
    fn splat(x: f32) -> Self {
        [x; W]
    }
    fn load(src: &[f32; W]) -> Self {
        *src
    }
    fn store(self, dst: &mut [f32; W]) {
        *dst = self;
    }
    fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] + rhs[l])
    }
    fn sub(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] - rhs[l])
    }
    fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] * rhs[l])
    }
}

/// [`Lane`] for each x86 vector type of `$w` floats, from its intrinsics.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    ($($t:ty, $w:literal: $set1:ident, $loadu:ident, $storeu:ident, $($op:ident = $f:ident),+;)+) => {$(
        impl Lane<$w> for $t {
            #[inline(always)]
            fn splat(x: f32) -> Self {
                // SAFETY: the CPU has the type's feature (module docs).
                unsafe { $set1(x) }
            }
            #[inline(always)]
            fn load(src: &[f32; $w]) -> Self {
                // SAFETY: as in `splat`; the unaligned load reads `src`.
                unsafe { $loadu(src.as_ptr()) }
            }
            #[inline(always)]
            fn store(self, dst: &mut [f32; $w]) {
                // SAFETY: as in `splat`; the unaligned store writes `dst`.
                unsafe { $storeu(dst.as_mut_ptr(), self) }
            }
            $(
                #[inline(always)]
                fn $op(self, rhs: Self) -> Self {
                    // SAFETY: as in `splat`.
                    unsafe { $f(self, rhs) }
                }
            )+
        }
    )+};
}

#[cfg(target_arch = "x86_64")]
x86_lanes! {
    __m256, 8: _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps,
        add = _mm256_add_ps, sub = _mm256_sub_ps, mul = _mm256_mul_ps;
    __m512, 16: _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps,
        add = _mm512_add_ps, sub = _mm512_sub_ps, mul = _mm512_mul_ps;
}

/// AVX2's 16-column row: two 8-lane halves, each combined on its own.
#[cfg(target_arch = "x86_64")]
impl Lane<16> for [__m256; 2] {
    #[inline(always)]
    fn splat(x: f32) -> Self {
        [Lane::splat(x); 2]
    }
    #[inline(always)]
    fn load(src: &[f32; 16]) -> Self {
        let (halves, _) = src.as_chunks::<8>();
        [Lane::load(&halves[0]), Lane::load(&halves[1])]
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; 16]) {
        let (halves, _) = dst.as_chunks_mut::<8>();
        self[0].store(&mut halves[0]);
        self[1].store(&mut halves[1]);
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        [self[0].add(rhs[0]), self[1].add(rhs[1])]
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        [self[0].sub(rhs[0]), self[1].sub(rhs[1])]
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        [self[0].mul(rhs[0]), self[1].mul(rhs[1])]
    }
}

/// Sixteen lanes `step` floats apart, of which lanes `live` are real: how
/// the two AVX-512 walks read their operands (a masked gather) and write
/// their results (a masked store), touching a lane only when it is live.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Strided {
    index: __m512i,
    mask: u16,
    /// Floats from the first live lane's element to the last's.
    reach: usize,
}

#[cfg(target_arch = "x86_64")]
impl Strided {
    /// Lane `l` in `live` sits `(l - live.start) * step` floats past the
    /// first live lane. Panics if `live` is empty or not within `0..16`,
    /// or the lanes span more than an `i32` index reaches.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn new(step: usize, live: Range<usize>) -> Self {
        assert!(live.start < live.end && live.end <= 16, "lanes {live:?}");
        assert!(16 * step <= i32::MAX as usize, "step {step}");
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let from_first = _mm512_sub_epi32(lane, _mm512_set1_epi32(live.start as i32));
        Strided {
            index: _mm512_mullo_epi32(from_first, _mm512_set1_epi32(step as i32)),
            mask: ((1u32 << live.end) - (1u32 << live.start)) as u16,
            reach: (live.len() - 1) * step,
        }
    }

    /// The live lanes of `src` from `at` on, zero in the others, which read
    /// nothing (a masked gather). Panics if a live lane's element is
    /// outside `src`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn gather(self, src: &[f32], at: usize) -> __m512 {
        assert!(at < src.len().saturating_sub(self.reach), "past the source");
        // SAFETY: a live lane reads `src[at + (l - live.start) * step]`,
        // inside `src` by the assertion; masked lanes read nothing.
        unsafe {
            let base = src.as_ptr().add(at);
            _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), self.mask, self.index, base)
        }
    }

    /// The live lanes of `v` into the same lanes of `dst`, whose other
    /// floats are not written (a masked store).
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn store(self, v: __m512, dst: &mut [f32; 16]) {
        // SAFETY: the store's extent is `dst`'s 16 floats, of which it
        // writes only the live lanes.
        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), self.mask, v) }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `x` with about one element in eight replaced, in turn, by `+0.0`,
    /// `-0.0`, `+inf`, `-inf` and, when `nan`, a NaN: operands on which a
    /// fused, reordered or regrouped lane op would show in the sign of a
    /// zero or an infinity, or in where a NaN comes out.
    pub(crate) fn with_specials(mut x: Vec<f32>, seed: u64, nan: bool) -> Vec<f32> {
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let kinds = if nan { 5 } else { 4 };
        let (mut state, mut turn) = (seed | 1, 0);
        for v in &mut x {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 61 == 0 {
                *v = specials[turn % kinds];
                turn += 1;
            }
        }
        x
    }

    /// `got` is `want` bit for bit — except, when the operands held NaNs
    /// (`nan`), that any NaN matches any NaN: LLVM may swap the operands
    /// of an add, so which NaN's payload survives is not a contract; where
    /// the NaNs are is.
    pub(crate) fn agree(got: &[f32], want: &[f32], nan: bool) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (nan && g.is_nan() && w.is_nan()))
    }

    /// Each operation of lane type `L`, on rows of signed zeros,
    /// infinities, NaNs and ordinary values, against `f32` lane by lane.
    fn check<L: Lane<W>, const W: usize>() {
        for nan in [false, true] {
            let x = with_specials((0..64).map(|i| i as f32 / 7.0 - 4.0).collect(), 1, nan);
            let y = with_specials((0..64).map(|i| 3.0 - i as f32 / 5.0).collect(), 2, nan);
            for (x, y) in x.as_chunks::<W>().0.iter().zip(y.as_chunks::<W>().0) {
                let (a, b) = (L::load(x), L::load(y));
                type Op<L> = fn(L, L) -> L;
                let ops: [(Op<L>, Op<f32>); 3] = [
                    (L::add, |x, y| x + y),
                    (L::sub, |x, y| x - y),
                    (L::mul, |x, y| x * y),
                ];
                for (lane_op, scalar_op) in ops {
                    let mut got = [0.0; W];
                    lane_op(a, b).store(&mut got);
                    let want = std::array::from_fn::<_, W, _>(|l| scalar_op(x[l], y[l]));
                    assert!(agree(&got, &want, nan), "{got:?} against {want:?}");
                }
                let mut got = [1.0; W];
                L::splat(x[0]).store(&mut got);
                assert!(agree(&got, &[x[0]; W], nan));
            }
        }
    }

    #[test]
    fn every_lane_type_is_f32_lane_by_lane() {
        check::<f32, 1>();
        check::<[f32; 8], 8>();
        check::<[f32; 16], 16>();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                check::<__m256, 8>();
                check::<[__m256; 2], 16>();
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                check::<__m512, 16>();
            }
        }
    }
}
