//! Perforation + interpolation of convolutional outputs (paper §IV.C.1,
//! Fig. 11).
//!
//! The perforation rate of a layer is `1 - W'_o H'_o / (W_o H_o)`: the GEMM
//! is evaluated only at `W'_o H'_o` sampled output positions and the missing
//! values are interpolated from the nearest computed neighbour. The sampled
//! set is deterministic and quasi-uniform over the output map, and its size
//! can be rounded to a multiple of the SGEMM tile dimension `n` so that the
//! effective-computation ratio `rEC` (paper eq. 9) stays high.

/// Perforation configuration for one convolutional layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerforation {
    out_h: usize,
    out_w: usize,
    rate: f64,
    kept: Vec<usize>,
    /// The interpolation stencil, grouped by how many kept values a
    /// position averages: `stencil[len - 1]` holds the positions with
    /// `len` sources.
    stencil: [StencilGroup; MAX_STENCIL],
    /// Per position, `(stencil length, rank inside that length's group)`.
    stencil_at: Vec<(u8, u32)>,
}

/// Most sources a stencil can have: the 3x3 neighbourhood without its
/// centre.
const MAX_STENCIL: usize = 8;

/// The positions whose stencils all have the same length. Grouping by
/// length makes interpolation a handful of fixed-trip loops instead of a
/// CSR walk with a variable-length inner loop.
#[derive(Debug, Clone, PartialEq, Default)]
struct StencilGroup {
    /// Output positions of the group, ascending.
    positions: Vec<u32>,
    /// Each position's indices into the kept list, back to back.
    sources: Vec<u32>,
}

impl StencilGroup {
    /// `dst[p] = (-0.0 + s0 + s1 + ...) / L` for every position of the
    /// group, the sources added in stencil order. `-0.0` is the identity
    /// `f32: Sum` folds from — what `sources.iter().sum()` computed before
    /// the walk was grouped — so `-0.0 + x` is `x` for every `x`, a
    /// sampled `-0.0` included.
    fn average<const L: usize>(&self, src: &[f32], dst: &mut [f32]) {
        for (&p, sources) in self.positions.iter().zip(self.sources.chunks_exact(L)) {
            let sources: &[u32; L] = sources.try_into().expect("chunks of L");
            let mut sum = -0.0f32;
            for &i in sources {
                sum += src[i as usize];
            }
            dst[p as usize] = sum / L as f32;
        }
    }
}

impl LayerPerforation {
    /// Builds a perforation for an `out_h x out_w` map.
    ///
    /// `rate` is clamped to `[0, 1)`; the number of *kept* positions is
    /// `round((1 - rate) * positions)` rounded **up** to a multiple of
    /// `multiple` (pass 1 for no rounding; pass the kernel tile dimension
    /// `n` to maximise `rEC` as §IV.C.1 prescribes) and always at least
    /// `multiple`.
    ///
    /// # Panics
    ///
    /// Panics if `out_h`, `out_w` or `multiple` is zero.
    pub fn new(out_h: usize, out_w: usize, rate: f64, multiple: usize) -> Self {
        assert!(out_h > 0 && out_w > 0, "empty output map");
        assert!(multiple > 0, "multiple must be positive");
        let n_pos = out_h * out_w;
        let rate = rate.clamp(0.0, 1.0);
        let raw_keep = ((1.0 - rate) * n_pos as f64).round() as usize;
        let n_keep = raw_keep
            .max(1)
            .div_ceil(multiple)
            .saturating_mul(multiple)
            .min(n_pos);
        let kept = kept_positions(out_h, out_w, n_keep);
        let nearest = nearest_kept_map(out_h, out_w, &kept);
        let (stencil, stencil_at) = interpolation_stencil(out_h, out_w, &kept, &nearest);
        Self {
            out_h,
            out_w,
            rate,
            kept,
            stencil,
            stencil_at,
        }
    }

    /// The averaging stencil of position `p`: indices into the kept list
    /// whose computed values are averaged to reconstruct `p` (kept
    /// positions reference only themselves).
    pub fn interpolation_sources(&self, p: usize) -> &[u32] {
        let (len, rank) = self.stencil_at[p];
        let len = len as usize;
        &self.stencil[len - 1].sources[rank as usize * len..][..len]
    }

    /// Sources summed to reconstruct one whole map: the stencil lengths
    /// of all positions added up.
    pub(crate) fn stencil_sources(&self) -> usize {
        self.stencil.iter().map(|g| g.sources.len()).sum()
    }

    /// Reconstructs one channel's whole output map `dst` from that
    /// channel's values at the kept positions `src`: every position is
    /// the average of its [`interpolation_sources`](Self::interpolation_sources),
    /// exactly `sources.iter().map(|&i| src[i]).sum::<f32>() / len`, one
    /// fixed-trip loop per stencil length.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not one value per kept position or `dst` not
    /// one per output position.
    pub(crate) fn interpolate(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), self.kept.len(), "one value per kept position");
        assert_eq!(dst.len(), self.stencil_at.len(), "one value per position");
        let [g1, g2, g3, g4, g5, g6, g7, g8] = &self.stencil;
        g1.average::<1>(src, dst);
        g2.average::<2>(src, dst);
        g3.average::<3>(src, dst);
        g4.average::<4>(src, dst);
        g5.average::<5>(src, dst);
        g6.average::<6>(src, dst);
        g7.average::<7>(src, dst);
        g8.average::<8>(src, dst);
    }

    /// Output map height this plan was built for.
    pub fn out_h(&self) -> usize {
        self.out_h
    }

    /// Output map width this plan was built for.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// Requested perforation rate (before rounding of the kept count).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The *effective* perforation rate after rounding:
    /// `1 - kept / positions`.
    pub fn effective_rate(&self) -> f64 {
        1.0 - self.kept.len() as f64 / (self.out_h * self.out_w) as f64
    }

    /// Sorted list of kept output positions (row-major indices).
    pub fn kept_positions(&self) -> &[usize] {
        &self.kept
    }

    /// Whether this perforation keeps every position.
    pub fn is_identity(&self) -> bool {
        self.kept.len() == self.out_h * self.out_w
    }
}

/// Deterministic quasi-uniform selection of `n_keep` positions out of an
/// `out_h x out_w` grid.
///
/// Positions are ranked by a multiplicative hash of their index (a fixed
/// pseudo-random permutation), which scatters kept positions evenly without
/// any RNG state; the returned list is sorted in row-major order.
///
/// # Panics
///
/// Panics if `n_keep` is zero or exceeds the number of positions.
pub fn kept_positions(out_h: usize, out_w: usize, n_keep: usize) -> Vec<usize> {
    let n_pos = out_h * out_w;
    assert!(
        n_keep >= 1 && n_keep <= n_pos,
        "n_keep {n_keep} out of range"
    );
    if n_keep == n_pos {
        return (0..n_pos).collect();
    }
    let mut order: Vec<usize> = (0..n_pos).collect();
    order.sort_by_key(|&p| (p as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17));
    let mut kept: Vec<usize> = order[..n_keep].to_vec();
    kept.sort_unstable();
    kept
}

/// Multi-source BFS over the 4-connected grid: for every position, the index
/// (into `kept`) of the nearest kept position.
///
/// # Panics
///
/// Panics if `kept` is empty or contains an out-of-range position.
pub fn nearest_kept_map(out_h: usize, out_w: usize, kept: &[usize]) -> Vec<usize> {
    let n_pos = out_h * out_w;
    assert!(!kept.is_empty(), "kept set must be non-empty");
    let mut nearest = vec![usize::MAX; n_pos];
    let mut queue = std::collections::VecDeque::with_capacity(kept.len());
    for (i, &p) in kept.iter().enumerate() {
        assert!(p < n_pos, "kept position {p} out of range");
        nearest[p] = i;
        queue.push_back(p);
    }
    while let Some(p) = queue.pop_front() {
        let (y, x) = (p / out_w, p % out_w);
        let src = nearest[p];
        let mut visit = |q: usize| {
            if nearest[q] == usize::MAX {
                nearest[q] = src;
                queue.push_back(q);
            }
        };
        if y > 0 {
            visit(p - out_w);
        }
        if y + 1 < out_h {
            visit(p + out_w);
        }
        if x > 0 {
            visit(p - 1);
        }
        if x + 1 < out_w {
            visit(p + 1);
        }
    }
    nearest
}

/// Builds the averaging stencil, grouped by length: a dropped position
/// averages the kept positions within its 3x3 neighbourhood (row-major
/// neighbour order); if none are kept there, it falls back to its
/// BFS-nearest kept position. Kept positions reference themselves.
/// Returns the groups and, per position, its length and rank in its group.
fn interpolation_stencil(
    out_h: usize,
    out_w: usize,
    kept: &[usize],
    nearest: &[usize],
) -> ([StencilGroup; MAX_STENCIL], Vec<(u8, u32)>) {
    let n_pos = out_h * out_w;
    // Map position -> index in kept (u32::MAX if dropped).
    let mut kept_index = vec![u32::MAX; n_pos];
    for (i, &p) in kept.iter().enumerate() {
        kept_index[p] = i as u32;
    }
    let mut stencil: [StencilGroup; MAX_STENCIL] = Default::default();
    let mut at = Vec::with_capacity(n_pos);
    let mut idx = Vec::with_capacity(MAX_STENCIL);
    for p in 0..n_pos {
        idx.clear();
        if kept_index[p] != u32::MAX {
            idx.push(kept_index[p]);
        } else {
            let (y, x) = (p / out_w, p % out_w);
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dy == 0 && dx == 0 {
                        continue;
                    }
                    let (ny, nx) = (y as isize + dy, x as isize + dx);
                    if ny < 0 || nx < 0 || ny as usize >= out_h || nx as usize >= out_w {
                        continue;
                    }
                    let q = ny as usize * out_w + nx as usize;
                    if kept_index[q] != u32::MAX {
                        idx.push(kept_index[q]);
                    }
                }
            }
            if idx.is_empty() {
                idx.push(nearest[p] as u32);
            }
        }
        let group = &mut stencil[idx.len() - 1];
        at.push((idx.len() as u8, group.positions.len() as u32));
        group.positions.push(p as u32);
        group.sources.extend_from_slice(&idx);
    }
    (stencil, at)
}

/// Per-network perforation plan: one rate per convolutional layer, in
/// network order. This is the quantity the run-time accuracy tuner adjusts
/// (paper Fig. 12's "perforation rate" vectors).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerforationPlan {
    rates: Vec<f64>,
}

impl PerforationPlan {
    /// The identity plan (no perforation) for `n_conv_layers` layers.
    pub fn identity(n_conv_layers: usize) -> Self {
        Self {
            rates: vec![0.0; n_conv_layers],
        }
    }

    /// A plan with explicit per-conv-layer rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1)`.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        for &r in &rates {
            assert!((0.0..1.0).contains(&r), "rate {r} outside [0,1)");
        }
        Self { rates }
    }

    /// Number of conv layers covered.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the plan covers no layers.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Rate of conv layer `i` (0.0 if out of range).
    pub fn rate(&self, i: usize) -> f64 {
        self.rates.get(i).copied().unwrap_or(0.0)
    }

    /// All rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Returns a copy with conv layer `i` set to `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `rate` outside `[0, 1)`.
    pub fn with_rate(&self, i: usize, rate: f64) -> Self {
        assert!(i < self.rates.len(), "layer index {i} out of range");
        assert!((0.0..1.0).contains(&rate), "rate {rate} outside [0,1)");
        let mut rates = self.rates.clone();
        rates[i] = rate;
        Self { rates }
    }

    /// Whether every layer is unperforated.
    pub fn is_identity(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// The fraction of convolution FLOPs retained under this plan, given
    /// each layer's share of total conv FLOPs.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_layer.len() != self.len()`.
    pub fn retained_flops_fraction(&self, flops_per_layer: &[u64]) -> f64 {
        assert_eq!(flops_per_layer.len(), self.rates.len(), "length mismatch");
        let total: u64 = flops_per_layer.iter().sum();
        if total == 0 {
            return 1.0;
        }
        self.rates
            .iter()
            .zip(flops_per_layer)
            .map(|(&r, &f)| (1.0 - r) * f as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_positions_full_is_identity() {
        assert_eq!(kept_positions(2, 3, 6), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn kept_positions_are_sorted_unique() {
        let kept = kept_positions(13, 13, 40);
        assert_eq!(kept.len(), 40);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert!(kept.iter().all(|&p| p < 169));
    }

    #[test]
    fn kept_positions_spread_across_quadrants() {
        // Quasi-uniformity: each quadrant of a 16x16 map gets a fair share
        // of 64 kept positions (at least half the ideal 16).
        let kept = kept_positions(16, 16, 64);
        let mut quad = [0usize; 4];
        for &p in &kept {
            let (y, x) = (p / 16, p % 16);
            quad[(y / 8) * 2 + x / 8] += 1;
        }
        for (i, &q) in quad.iter().enumerate() {
            assert!(q >= 8, "quadrant {i} starved: {quad:?}");
        }
    }

    #[test]
    fn nearest_map_is_self_for_kept() {
        let kept = vec![0, 5, 8];
        let nearest = nearest_kept_map(3, 3, &kept);
        assert_eq!(nearest[0], 0);
        assert_eq!(nearest[5], 1);
        assert_eq!(nearest[8], 2);
        // Everything resolved.
        assert!(nearest.iter().all(|&i| i < kept.len()));
    }

    #[test]
    fn nearest_map_prefers_adjacent() {
        // Kept at the two ends of a 1x5 strip; middle splits.
        let kept = vec![0, 4];
        let nearest = nearest_kept_map(1, 5, &kept);
        assert_eq!(nearest[1], 0);
        assert_eq!(nearest[3], 1);
    }

    #[test]
    fn layer_perforation_identity() {
        let p = LayerPerforation::new(4, 4, 0.0, 1);
        assert!(p.is_identity());
        assert_eq!(p.effective_rate(), 0.0);
    }

    #[test]
    fn layer_perforation_rounds_to_multiple() {
        let p = LayerPerforation::new(10, 10, 0.5, 8);
        assert_eq!(p.kept_positions().len() % 8, 0);
        assert!(p.effective_rate() <= 0.5);
    }

    #[test]
    fn layer_perforation_extreme_rate_keeps_some() {
        let p = LayerPerforation::new(4, 4, 0.999, 1);
        assert!(!p.kept_positions().is_empty());
    }

    /// The interpolation as it ran before the stencil was grouped, kept
    /// verbatim as the reference: per position, its sources summed by
    /// `Iterator::sum` and divided by their count.
    fn interpolate_per_position(perf: &LayerPerforation, src: &[f32]) -> Vec<f32> {
        (0..perf.out_h() * perf.out_w())
            .map(|p| {
                let sources = perf.interpolation_sources(p);
                let sum: f32 = sources.iter().map(|&i| src[i as usize]).sum();
                sum / sources.len() as f32
            })
            .collect()
    }

    #[test]
    fn grouped_walk_is_bitwise_the_per_position_loop() {
        // Maps and rates that between them reach every stencil length from
        // 1 to 8, border positions and the BFS fallback (no kept
        // neighbour).
        let mut lens = std::collections::BTreeSet::new();
        for (h, w, rate) in [
            (13, 13, 0.45),
            (27, 27, 0.25),
            (27, 27, 0.05),
            (9, 14, 0.6),
            (7, 5, 0.93),
        ] {
            let perf = LayerPerforation::new(h, w, rate, 1);
            lens.extend((0..h * w).map(|p| perf.interpolation_sources(p).len()));
            // Full-mantissa values, so every add and divide rounds.
            let src: Vec<f32> = (0..perf.kept_positions().len())
                .map(|i| ((i * 2_654_435_761) % 1_000_003) as f32 / 1_000_003.0 - 0.5)
                .collect();
            let mut got = vec![f32::NAN; h * w];
            perf.interpolate(&src, &mut got);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&interpolate_per_position(&perf, &src)),
                "{h}x{w} at {rate}"
            );
        }
        assert_eq!(
            lens.into_iter().collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn interpolation_keeps_the_sign_of_a_sampled_negative_zero() {
        // `f32: Sum` folds from -0.0, and -0.0 + x is x for every x: a
        // -0.0 computed at a kept position reaches the output as -0.0, at
        // that position and wherever it is the only source. A walk that
        // started its sums from +0.0 would turn it into +0.0.
        let perf = LayerPerforation::new(6, 6, 0.5, 1);
        let src = vec![-0.0f32; perf.kept_positions().len()];
        let mut got = vec![f32::NAN; 36];
        perf.interpolate(&src, &mut got);
        assert!(got.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_eq!(
            interpolate_per_position(&perf, &src)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            vec![(-0.0f32).to_bits(); 36]
        );
    }

    #[test]
    fn interpolation_sources_survive_the_regrouping() {
        // Kept positions reference themselves; a dropped position lists
        // its kept 3x3 neighbours in row-major order.
        let perf = LayerPerforation::new(5, 5, 0.5, 1);
        let kept = perf.kept_positions();
        for p in 0..25 {
            let sources = perf.interpolation_sources(p);
            match kept.binary_search(&p) {
                Ok(i) => assert_eq!(sources, &[i as u32]),
                Err(_) => {
                    let (y, x) = (p / 5, p % 5);
                    let near: Vec<u32> = kept
                        .iter()
                        .enumerate()
                        .filter(|(_, &q)| (q / 5).abs_diff(y) <= 1 && (q % 5).abs_diff(x) <= 1)
                        .map(|(i, _)| i as u32)
                        .collect();
                    if near.is_empty() {
                        assert_eq!(sources, &[nearest_kept_map(5, 5, kept)[p] as u32]);
                    } else {
                        assert_eq!(sources, near.as_slice());
                    }
                }
            }
        }
    }

    #[test]
    fn plan_with_rate_is_persistent() {
        let plan = PerforationPlan::identity(3);
        let p2 = plan.with_rate(1, 0.25);
        assert_eq!(plan.rate(1), 0.0);
        assert_eq!(p2.rate(1), 0.25);
        assert!(!p2.is_identity());
    }

    #[test]
    fn retained_flops_weights_by_layer() {
        let plan = PerforationPlan::from_rates(vec![0.5, 0.0]);
        // Layer 0 has 3x the FLOPs of layer 1.
        let frac = plan.retained_flops_fraction(&[300, 100]);
        assert!((frac - (150.0 + 100.0) / 400.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0,1)")]
    fn plan_rejects_rate_one() {
        PerforationPlan::from_rates(vec![1.0]);
    }
}
