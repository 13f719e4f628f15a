//! The fixture shared by the pinned-hash tests (`gemm_bits.rs`,
//! `winograd_bits.rs`, and `pcnn-nn`'s): operands and hash are part of
//! what the recorded constants mean, so there is one copy — and the
//! poisoned workspace those tests run their entry points on.

/// Deterministic operand fill from an integer hash of the index: values
/// in `[-1000, 1000] / 512`, so products carry ~20 significant bits and
/// every transform step and long accumulation really rounds.
pub fn fixture(seed: u32, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u32).wrapping_mul(2_654_435_761) ^ seed;
            h ^= h >> 15;
            h = h.wrapping_mul(0x2c1b_3c6d);
            h ^= h >> 12;
            ((h % 2001) as f32 - 1000.0) / 512.0
        })
        .collect()
}

/// FNV-1a (64-bit) over the little-endian bit patterns of `c`.
pub fn fnv1a(c: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in c {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs `f` after filling the first `len` floats of the calling thread's
/// workspace with NaN: an entry point in `f` that asks for `len` floats or
/// fewer starts from NaN wherever its kernels read scratch they did not
/// write, and a pinned hash would show it.
#[allow(dead_code)] // `gemm_bits.rs` pins no entry point that takes scratch.
pub fn poisoned<R>(len: usize, f: impl FnOnce() -> R) -> R {
    pcnn_parallel::with_workspace(len, |ws| ws.fill(f32::NAN));
    f()
}
