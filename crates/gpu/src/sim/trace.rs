//! Compact per-warp instruction traces.
//!
//! A CTA's program is a run-length-encoded instruction sequence split into
//! prologue, a main loop body repeated `body_iters` times, and an epilogue.
//! `pcnn-kernels` generates these from the SGEMM tiling model; the warp
//! simulator executes them.

/// Warp-level instruction classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Fused multiply-add (the useful FLOPs).
    Ffma,
    /// Integer/address arithmetic.
    Ialu,
    /// Shared-memory load.
    Lds,
    /// Shared-memory store.
    Sts,
    /// Global-memory load (fire-and-forget; completion at `WaitMem`).
    Ldg,
    /// Global-memory store.
    Stg,
    /// Fence: wait until all outstanding global loads complete (models the
    /// consumption point of double-buffered tile loads).
    WaitMem,
    /// CTA-wide barrier (`__syncthreads`).
    Bar,
}

impl Op {
    /// Whether this op is pure scheduler bookkeeping (consumes no issue
    /// slot).
    pub fn is_pseudo(self) -> bool {
        matches!(self, Op::WaitMem | Op::Bar)
    }
}

/// Bytes moved by one global warp access (32 threads x 4 bytes, coalesced).
pub const GLOBAL_ACCESS_BYTES: u64 = 128;

/// Per-class warp-instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrCounts {
    /// FFMA warp-instructions.
    pub ffma: u64,
    /// Integer/address warp-instructions.
    pub ialu: u64,
    /// Shared loads.
    pub lds: u64,
    /// Shared stores.
    pub sts: u64,
    /// Global loads.
    pub ldg: u64,
    /// Global stores.
    pub stg: u64,
}

impl InstrCounts {
    /// Records `count` occurrences of `op` (pseudo ops are ignored).
    pub fn add(&mut self, op: Op, count: u64) {
        match op {
            Op::Ffma => self.ffma += count,
            Op::Ialu => self.ialu += count,
            Op::Lds => self.lds += count,
            Op::Sts => self.sts += count,
            Op::Ldg => self.ldg += count,
            Op::Stg => self.stg += count,
            Op::WaitMem | Op::Bar => {}
        }
    }

    /// Total issued warp-instructions.
    pub fn total(&self) -> u64 {
        self.ffma + self.ialu + self.lds + self.sts + self.ldg + self.stg
    }

    /// Fraction of floating-point instructions — the paper's computation
    /// density (Fig. 6).
    pub fn fp_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.ffma as f64 / self.total() as f64
    }

    /// Bytes of DRAM traffic implied by the global accesses.
    pub fn dram_bytes(&self) -> u64 {
        (self.ldg + self.stg) * GLOBAL_ACCESS_BYTES
    }

    /// Element-wise scaling (e.g. per-warp -> per-kernel).
    pub fn scaled(&self, factor: u64) -> InstrCounts {
        InstrCounts {
            ffma: self.ffma * factor,
            ialu: self.ialu * factor,
            lds: self.lds * factor,
            sts: self.sts * factor,
            ldg: self.ldg * factor,
            stg: self.stg * factor,
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &InstrCounts) -> InstrCounts {
        InstrCounts {
            ffma: self.ffma + other.ffma,
            ialu: self.ialu + other.ialu,
            lds: self.lds + other.lds,
            sts: self.sts + other.sts,
            ldg: self.ldg + other.ldg,
            stg: self.stg + other.stg,
        }
    }
}

/// Run-length-encoded per-warp program of one CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaTrace {
    /// Executed once at CTA start (first tile loads, address setup).
    pub prologue: Vec<(Op, u32)>,
    /// The main (k-) loop body.
    pub body: Vec<(Op, u32)>,
    /// Main-loop trip count.
    pub body_iters: u32,
    /// Executed once at the end (result stores).
    pub epilogue: Vec<(Op, u32)>,
}

impl CtaTrace {
    /// Materializes the RLE program with `iters` body repetitions.
    pub fn sampled(&self, iters: u32) -> Vec<(Op, u32)> {
        let mut out = self.prologue.clone();
        for _ in 0..iters {
            out.extend_from_slice(&self.body);
        }
        out.extend_from_slice(&self.epilogue);
        out
    }

    /// Per-warp instruction counts over the *full* execution (all
    /// `body_iters` iterations) — used for exact energy accounting.
    pub fn warp_instr_counts(&self) -> InstrCounts {
        let mut c = InstrCounts::default();
        for &(op, n) in &self.prologue {
            c.add(op, n as u64);
        }
        let mut body = InstrCounts::default();
        for &(op, n) in &self.body {
            body.add(op, n as u64);
        }
        c = c.plus(&body.scaled(self.body_iters as u64));
        for &(op, n) in &self.epilogue {
            c.add(op, n as u64);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> CtaTrace {
        CtaTrace {
            prologue: vec![(Op::Ialu, 10), (Op::Ldg, 4)],
            body: vec![(Op::Lds, 2), (Op::Ffma, 16), (Op::Bar, 1)],
            body_iters: 5,
            epilogue: vec![(Op::Stg, 3)],
        }
    }

    #[test]
    fn sampled_repeats_body() {
        let t = trace();
        let s = t.sampled(2);
        // prologue (2 segs) + 2 x body (3 segs) + epilogue (1 seg)
        assert_eq!(s.len(), 2 + 2 * 3 + 1);
        assert_eq!(s[2], (Op::Lds, 2));
        assert_eq!(s[5], (Op::Lds, 2));
    }

    #[test]
    fn counts_cover_all_iters() {
        let c = trace().warp_instr_counts();
        assert_eq!(c.ffma, 16 * 5);
        assert_eq!(c.lds, 2 * 5);
        assert_eq!(c.ialu, 10);
        assert_eq!(c.ldg, 4);
        assert_eq!(c.stg, 3);
        assert_eq!(c.total(), 80 + 10 + 10 + 4 + 3);
    }

    #[test]
    fn fp_fraction_and_dram_bytes() {
        let c = trace().warp_instr_counts();
        assert!((c.fp_fraction() - 80.0 / 107.0).abs() < 1e-12);
        assert_eq!(c.dram_bytes(), 7 * GLOBAL_ACCESS_BYTES);
    }

    #[test]
    fn pseudo_ops_not_counted() {
        let mut c = InstrCounts::default();
        c.add(Op::Bar, 100);
        c.add(Op::WaitMem, 100);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn scaled_and_plus() {
        let c = trace().warp_instr_counts();
        let twice = c.scaled(2);
        assert_eq!(twice.ffma, 2 * c.ffma);
        assert_eq!(c.plus(&c), twice);
    }
}
