//! `pcnn-profile` — per-layer, per-phase attribution for the real CPU
//! inference path.
//!
//! The offline flow of the source paper chooses kernels from *measured*
//! per-layer phase costs; this crate is that measurement substrate for
//! the CPU engine. `pcnn-nn` opens a [`layer_scope`] around each layer of
//! a forward pass, and the hot kernels in `pcnn-tensor` / `pcnn-nn` wrap
//! their phases (im2col, A/B packing, the microkernel loop, epilogues,
//! activations) in [`phase_span`]s that record elapsed time plus the
//! phase's arithmetic work (FLOPs) and memory traffic (bytes). Everything
//! lands in static atomic tables keyed by `(layer, phase)`; [`snapshot`]
//! turns them into per-layer profiles from which `pcnn-bench` derives
//! GFLOP/s, arithmetic intensity, and a roofline classification.
//!
//! # Zero cost when disabled
//!
//! The profiler is off by default. When off, [`layer_scope`] and
//! [`phase_span`] return `None` after one relaxed atomic load — no clock
//! is read, no lock is taken, and **no state is allocated** on the
//! forward path (the tables are static). This preserves the engine's
//! measured-overhead guarantee.
//!
//! # Attribution across worker threads
//!
//! The active layer is a process-global atomic, so phase spans finished
//! on pool workers attribute to the layer the main thread is executing.
//! That is only unambiguous while a single forward pass runs at a time —
//! `Network::forward` therefore routes to its serial (per-image kernels
//! still parallel) path whenever profiling is [`enabled`]. Phase counts
//! and span boundaries depend only on shapes and thread count, so FLOP
//! and byte totals are deterministic; elapsed times are wall-clock.
//!
//! Spans finished outside any layer scope (e.g. a raw GEMM benchmark)
//! accumulate on a separate "(unattributed)" row rather than vanishing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Maximum distinct layer rows; deeper networks fold into the
/// unattributed row rather than losing time, and every folded layer is
/// counted by [`dropped_layers`] so reports can say so instead of
/// silently merging.
pub const MAX_LAYERS: usize = 128;

/// Number of [`Phase`] variants.
pub const NUM_PHASES: usize = 8;

/// One row past the last layer: work recorded outside any layer scope.
const UNATTRIBUTED: usize = MAX_LAYERS;
const ROWS: usize = MAX_LAYERS + 1;
const CELLS: usize = ROWS * NUM_PHASES;

/// Sentinel for "no layer scope active".
const NO_LAYER: usize = usize::MAX;

/// The execution phases a layer's time divides into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Convolution input lowering: `im2col`'s materialised column
    /// matrix.
    Im2col,
    /// Packing `A` micropanels inside the GEMM.
    PackA,
    /// Packing `B` micropanels inside the GEMM — for the direct and the
    /// perforated convolution, the patch gather that fills them.
    PackB,
    /// The register-blocked multiply loops (or the `gemm_nt` dot tiles).
    Microkernel,
    /// Bias broadcast, output allocation, interpolation, reshapes.
    Epilogue,
    /// Elementwise nonlinearities and pooling.
    Activation,
    /// Winograd filter/input transforms (`G g G^T`, `B^T d B`).
    WinogradTransform,
    /// Winograd inverse transform + bias (`A^T M A`).
    WinogradInverse,
}

impl Phase {
    /// All phases in table order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Im2col,
        Phase::PackA,
        Phase::PackB,
        Phase::Microkernel,
        Phase::Epilogue,
        Phase::Activation,
        Phase::WinogradTransform,
        Phase::WinogradInverse,
    ];

    /// Stable lowercase name used in reports and profile documents.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Im2col => "im2col",
            Phase::PackA => "pack_a",
            Phase::PackB => "pack_b",
            Phase::Microkernel => "microkernel",
            Phase::Epilogue => "epilogue",
            Phase::Activation => "activation",
            Phase::WinogradTransform => "winograd_transform",
            Phase::WinogradInverse => "winograd_inverse",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(NO_LAYER);

static NS: [AtomicU64; CELLS] = [const { AtomicU64::new(0) }; CELLS];
static FLOPS: [AtomicU64; CELLS] = [const { AtomicU64::new(0) }; CELLS];
static BYTES: [AtomicU64; CELLS] = [const { AtomicU64::new(0) }; CELLS];
static CALLS: [AtomicU64; CELLS] = [const { AtomicU64::new(0) }; CELLS];
static WALL_NS: [AtomicU64; ROWS] = [const { AtomicU64::new(0) }; ROWS];

/// Layer scopes opened with `index >= MAX_LAYERS` (their spans fold into
/// the unattributed row); surfaced as the `profile.dropped_layers`
/// metric so deep models degrade visibly instead of silently merging.
static DROPPED_LAYERS: AtomicU64 = AtomicU64::new(0);

/// Layer display names, registered lazily by [`layer_scope`] (off the
/// hot path: one short lock per layer per forward, only while enabled).
static NAMES: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());

/// Turns profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is recording. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every accumulated cell and forgets registered layer names.
pub fn reset() {
    for table in [&NS, &FLOPS, &BYTES, &CALLS] {
        for cell in table.iter() {
            cell.store(0, Ordering::Relaxed);
        }
    }
    for cell in WALL_NS.iter() {
        cell.store(0, Ordering::Relaxed);
    }
    DROPPED_LAYERS.store(0, Ordering::Relaxed);
    NAMES.lock().unwrap_or_else(PoisonError::into_inner).clear();
}

/// How many layer scopes overflowed the table (folded into the
/// unattributed row) since the last [`reset`].
pub fn dropped_layers() -> u64 {
    DROPPED_LAYERS.load(Ordering::Relaxed)
}

/// Marks layer `index` as the attribution target until dropped; restores
/// the previous target (scopes nest) and records the layer's wall time.
pub struct LayerGuard {
    prev: usize,
    row: usize,
    t0: Instant,
}

impl Drop for LayerGuard {
    fn drop(&mut self) {
        WALL_NS[self.row].fetch_add(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        CURRENT.store(self.prev, Ordering::Relaxed);
    }
}

/// Opens a layer scope: until the guard drops, phase spans (from any
/// thread) attribute to layer `index`, displayed as `L{index:02} {kind}`.
/// Returns `None` — at the cost of one atomic load — when disabled.
#[must_use]
pub fn layer_scope(index: usize, kind: &str) -> Option<LayerGuard> {
    if !enabled() {
        return None;
    }
    let row = if index < MAX_LAYERS {
        index
    } else {
        DROPPED_LAYERS.fetch_add(1, Ordering::Relaxed);
        UNATTRIBUTED
    };
    if row != UNATTRIBUTED {
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if !names.iter().any(|(r, _)| *r == row) {
            names.push((row, format!("L{index:02} {kind}")));
        }
    }
    let prev = CURRENT.swap(row, Ordering::Relaxed);
    Some(LayerGuard {
        prev,
        row,
        t0: Instant::now(),
    })
}

/// An open phase measurement; finish it with the work it performed.
#[must_use]
pub struct PhaseSpan {
    phase: Phase,
    t0: Instant,
}

/// Starts timing `phase`, or returns `None` (one relaxed load, nothing
/// allocated) when profiling is disabled.
#[inline]
pub fn phase_span(phase: Phase) -> Option<PhaseSpan> {
    if !enabled() {
        return None;
    }
    Some(PhaseSpan {
        phase,
        t0: Instant::now(),
    })
}

impl PhaseSpan {
    /// Records the span: elapsed nanoseconds plus `flops` floating-point
    /// operations and `bytes` of memory traffic, attributed to the
    /// currently scoped layer (or the unattributed row).
    pub fn finish(self, flops: u64, bytes: u64) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        let row = match CURRENT.load(Ordering::Relaxed) {
            NO_LAYER => UNATTRIBUTED,
            r => r,
        };
        let cell = row * NUM_PHASES + self.phase as usize;
        NS[cell].fetch_add(ns, Ordering::Relaxed);
        FLOPS[cell].fetch_add(flops, Ordering::Relaxed);
        BYTES[cell].fetch_add(bytes, Ordering::Relaxed);
        CALLS[cell].fetch_add(1, Ordering::Relaxed);
    }
}

/// Accumulated totals for one `(layer, phase)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Summed elapsed wall time, nanoseconds.
    pub ns: u64,
    /// Summed floating-point operations.
    pub flops: u64,
    /// Summed bytes moved (reads + writes the phase is responsible for).
    pub bytes: u64,
    /// Number of finished spans.
    pub calls: u64,
}

/// One layer's accumulated profile.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Layer index within the network ([`MAX_LAYERS`] = unattributed).
    pub index: usize,
    /// Display name (`L{index:02} {kind}`, or `(unattributed)`).
    pub name: String,
    /// Wall time spent inside the layer's scope, nanoseconds.
    pub wall_ns: u64,
    /// Per-phase totals, indexed by [`Phase`] in [`Phase::ALL`] order.
    pub phases: [PhaseTotals; NUM_PHASES],
}

impl LayerProfile {
    /// The totals for one phase.
    pub fn phase(&self, p: Phase) -> PhaseTotals {
        self.phases[p as usize]
    }

    /// Sum over all phases (calls summed too).
    pub fn total(&self) -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for p in &self.phases {
            t.ns += p.ns;
            t.flops += p.flops;
            t.bytes += p.bytes;
            t.calls += p.calls;
        }
        t
    }
}

/// Reads the current tables into per-layer profiles, index-ascending,
/// skipping rows with no recorded activity.
pub fn snapshot() -> Vec<LayerProfile> {
    let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    (0..ROWS)
        .filter_map(|row| {
            let phases: [PhaseTotals; NUM_PHASES] = std::array::from_fn(|p| {
                let cell = row * NUM_PHASES + p;
                PhaseTotals {
                    ns: NS[cell].load(Ordering::Relaxed),
                    flops: FLOPS[cell].load(Ordering::Relaxed),
                    bytes: BYTES[cell].load(Ordering::Relaxed),
                    calls: CALLS[cell].load(Ordering::Relaxed),
                }
            });
            let wall_ns = WALL_NS[row].load(Ordering::Relaxed);
            if wall_ns == 0 && phases.iter().all(|t| t.calls == 0) {
                return None;
            }
            let name = if row == UNATTRIBUTED {
                "(unattributed)".to_string()
            } else {
                names
                    .iter()
                    .find(|(r, _)| *r == row)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_else(|| format!("L{row:02}"))
            };
            Some(LayerProfile {
                index: row,
                name,
                wall_ns,
                phases,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables are process-global, so tests serialize on this.
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_returns_none_and_records_nothing() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        assert!(layer_scope(0, "conv").is_none());
        assert!(phase_span(Phase::Im2col).is_none());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_attribute_to_the_scoped_layer_and_scopes_nest() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _outer = layer_scope(2, "conv");
            phase_span(Phase::PackB).unwrap().finish(0, 128);
            {
                let _inner = layer_scope(5, "relu");
                phase_span(Phase::Activation).unwrap().finish(64, 512);
            }
            // Restored after the inner guard dropped.
            phase_span(Phase::Microkernel).unwrap().finish(1000, 256);
        }
        let snap = snapshot();
        set_enabled(false);
        let l2 = snap.iter().find(|l| l.index == 2).expect("layer 2");
        assert_eq!(l2.name, "L02 conv");
        assert_eq!(l2.phase(Phase::PackB).bytes, 128);
        assert_eq!(l2.phase(Phase::Microkernel).flops, 1000);
        assert_eq!(l2.phase(Phase::Microkernel).calls, 1);
        assert!(l2.wall_ns > 0 || l2.total().calls == 2);
        let l5 = snap.iter().find(|l| l.index == 5).expect("layer 5");
        assert_eq!(l5.phase(Phase::Activation).flops, 64);
        assert_eq!(l5.total().calls, 1);
    }

    #[test]
    fn worker_thread_spans_attribute_to_the_main_threads_layer() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        {
            let _scope = layer_scope(7, "conv");
            std::thread::scope(|s| {
                s.spawn(|| {
                    phase_span(Phase::PackA).unwrap().finish(0, 64);
                });
            });
        }
        let snap = snapshot();
        set_enabled(false);
        let l7 = snap.iter().find(|l| l.index == 7).expect("layer 7");
        assert_eq!(l7.phase(Phase::PackA).calls, 1);
        assert_eq!(l7.phase(Phase::PackA).bytes, 64);
    }

    #[test]
    fn out_of_scope_and_overflow_spans_land_on_the_unattributed_row() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        phase_span(Phase::Microkernel).unwrap().finish(10, 20);
        {
            let _scope = layer_scope(MAX_LAYERS + 3, "conv");
            phase_span(Phase::Epilogue).unwrap().finish(1, 2);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.len(), 1);
        let row = &snap[0];
        assert_eq!(row.index, MAX_LAYERS);
        assert_eq!(row.name, "(unattributed)");
        assert_eq!(row.phase(Phase::Microkernel).flops, 10);
        assert_eq!(row.phase(Phase::Epilogue).bytes, 2);
    }

    #[test]
    fn layer_table_boundary_counts_dropped_layers() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        // The last in-table index gets its own row, no drop counted.
        {
            let _scope = layer_scope(MAX_LAYERS - 1, "conv");
            phase_span(Phase::Microkernel).unwrap().finish(3, 4);
        }
        assert_eq!(dropped_layers(), 0);
        // The first out-of-table index folds — and is counted.
        {
            let _scope = layer_scope(MAX_LAYERS, "conv");
            phase_span(Phase::Microkernel).unwrap().finish(7, 8);
        }
        let snap = snapshot();
        assert_eq!(dropped_layers(), 1);
        set_enabled(false);
        let last = snap
            .iter()
            .find(|l| l.index == MAX_LAYERS - 1)
            .expect("boundary layer row");
        assert_eq!(last.name, format!("L{:02} conv", MAX_LAYERS - 1));
        assert_eq!(last.phase(Phase::Microkernel).flops, 3);
        let unattributed = snap
            .iter()
            .find(|l| l.index == MAX_LAYERS)
            .expect("unattributed row");
        assert_eq!(unattributed.phase(Phase::Microkernel).flops, 7);
        reset();
        assert_eq!(dropped_layers(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let _ = layer_scope(1, "linear");
        phase_span(Phase::Microkernel).unwrap().finish(5, 5);
        assert!(!snapshot().is_empty());
        reset();
        assert!(snapshot().is_empty());
        set_enabled(false);
    }
}
