//! `pcnn-profile` — per-layer, per-phase attribution for the real CPU
//! inference path.
//!
//! The offline flow of the source paper chooses kernels from *measured*
//! per-layer phase costs; this crate is that measurement substrate for
//! the CPU engine. `pcnn-nn` opens a [`layer_scope`] around each layer of
//! a forward pass, and the hot kernels in `pcnn-tensor` / `pcnn-nn` wrap
//! their phases (A/B packing, the microkernel loop, epilogues,
//! activations, the three Winograd transforms) in [`phase_span`]s that record elapsed time plus the
//! phase's arithmetic work (FLOPs) and memory traffic (bytes). Everything
//! lands in tables keyed by `(layer, phase)` that belong to the thread
//! that switched profiling on; [`snapshot`] returns them as per-layer
//! profiles from which `pcnn-bench` derives GFLOP/s, arithmetic
//! intensity, and a roofline classification.
//!
//! # Zero cost when disabled
//!
//! The profiler is off by default. While no thread is recording,
//! [`layer_scope`], [`phase_span`] and [`Handoff::capture`] return their
//! empty value after one relaxed atomic load — no clock is read, no lock
//! is taken, and **no state is allocated** on the forward path (a
//! thread's tables are allocated by its first [`set_enabled`]`(true)`).
//! This preserves the engine's measured-overhead guarantee.
//!
//! # Thread-owned state and the handoff
//!
//! [`set_enabled`]`(true)` gives the **calling thread** its own tables,
//! and every function here acts on the calling thread's: two forwards
//! profiled on two threads never see each other's spans, and a thread
//! that never enabled records nothing. A pool worker records into its
//! spawner's tables through a [`Handoff`] — captured on the spawning
//! thread with its current layer, entered on the worker, a no-op on the
//! thread it was captured on. `pcnn-parallel` must not depend on this
//! crate, so the handoff is taken at exactly the three regions whose
//! workers record spans: the packed GEMM's tile region, the Winograd
//! block region and `Network::forward`'s batch split (DESIGN.md §9).
//!
//! Phase counts and span boundaries depend only on shapes and thread
//! count, so FLOP and byte totals are deterministic; elapsed times are
//! wall-clock and *summed over workers* — a layer's phase time at width
//! > 1, and its wall time under a batch split, can exceed the forward's.
//!
//! Spans finished outside any layer scope (e.g. a raw GEMM benchmark)
//! accumulate on a separate "(unattributed)" row rather than vanishing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of [`Phase`] variants.
pub const NUM_PHASES: usize = 8;

/// The row past any layer index: work recorded outside any layer scope.
const UNATTRIBUTED: usize = usize::MAX;

/// The execution phases a layer's time divides into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
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
    /// Winograd filter transform (`G g G^T`), written as the GEMMs'
    /// packed `A`: its bytes over its time are the rate `U` is written.
    WinogradFilter,
    /// Winograd input transform (`B^T d B`), written as the GEMMs' packed
    /// `B`.
    WinogradTransform,
    /// Winograd inverse transform + bias (`A^T M A`).
    WinogradInverse,
}

impl Phase {
    /// All phases in table order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::PackA,
        Phase::PackB,
        Phase::Microkernel,
        Phase::Epilogue,
        Phase::Activation,
        Phase::WinogradFilter,
        Phase::WinogradTransform,
        Phase::WinogradInverse,
    ];

    /// Stable lowercase name used in reports and profile documents.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PackA => "pack_a",
            Phase::PackB => "pack_b",
            Phase::Microkernel => "microkernel",
            Phase::Epilogue => "epilogue",
            Phase::Activation => "activation",
            Phase::WinogradFilter => "winograd_filter",
            Phase::WinogradTransform => "winograd_transform",
            Phase::WinogradInverse => "winograd_inverse",
        }
    }
}

/// Threads currently recording (own tables switched on, or inside an
/// entered [`Handoff`]): the only process-global, so the disabled path is
/// one load. `Relaxed` suffices — it publishes no data, and a recording
/// thread always sees at least its own increment.
static RECORDING_THREADS: AtomicUsize = AtomicUsize::new(0);

/// One recording's accumulated state, shared between the thread that owns
/// it and the workers it is handed to.
type Tables = Arc<Mutex<Recording>>;

#[derive(Default)]
struct Recording {
    /// Rows by index, created on first touch ([`UNATTRIBUTED`] last).
    layers: BTreeMap<usize, LayerProfile>,
}

impl Recording {
    /// Row `index`, created as `name()` on first touch.
    fn row(&mut self, index: usize, name: impl FnOnce() -> String) -> &mut LayerProfile {
        self.layers.entry(index).or_insert_with(|| LayerProfile {
            index,
            name: name(),
            wall_ns: 0,
            phases: Default::default(),
        })
    }

    /// Row `index` for a span or guard finishing on it: named by its
    /// [`layer_scope`] unless a [`reset`] came in between.
    fn open_row(&mut self, index: usize) -> &mut LayerProfile {
        self.row(index, || match index {
            UNATTRIBUTED => "(unattributed)".to_string(),
            _ => format!("L{index:02}"),
        })
    }
}

/// A thread's view of the profiler.
struct Local {
    /// What this thread reads and records into: its own tables (kept
    /// after switching off, for [`snapshot`]) or, inside an entered
    /// [`Handoff`], its spawner's.
    tables: Option<Tables>,
    /// Counted in [`RECORDING_THREADS`] while set; implies `tables`.
    recording: bool,
    /// The row spans finished on this thread attribute to.
    row: usize,
}

impl Local {
    /// Sets `recording`, keeping [`RECORDING_THREADS`] in step, and
    /// returns the previous value.
    fn set_recording(&mut self, on: bool) -> bool {
        match (self.recording, on) {
            (false, true) => RECORDING_THREADS.fetch_add(1, Ordering::Relaxed),
            (true, false) => RECORDING_THREADS.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
        std::mem::replace(&mut self.recording, on)
    }
}

impl Drop for Local {
    /// A thread that exits while recording stops counting.
    fn drop(&mut self) {
        self.set_recording(false);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            tables: None,
            recording: false,
            row: UNATTRIBUTED,
        })
    };
}

/// Turns profiling on or off for the calling thread (and, through a
/// [`Handoff`], the pool workers it spawns). The first `true` allocates
/// the thread's tables; `false` keeps them for [`snapshot`].
pub fn set_enabled(on: bool) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if on && l.tables.is_none() {
            l.tables = Some(Tables::default());
        }
        l.set_recording(on);
    });
}

/// Whether the calling thread is recording. One relaxed load while no
/// thread is.
#[inline]
pub fn enabled() -> bool {
    RECORDING_THREADS.load(Ordering::Relaxed) != 0 && thread_recording()
}

/// The thread-local half of [`enabled`]. Out of line, so a span site in
/// a kernel's loop nest holds only the load and a branch, as it did when
/// the switch was one atomic.
#[cold]
#[inline(never)]
fn thread_recording() -> bool {
    LOCAL.with(|l| l.borrow().recording)
}

/// Runs `f` on the calling thread's tables and current row, if it has
/// tables.
fn with_tables<R>(f: impl FnOnce(&mut Recording, usize) -> R) -> Option<R> {
    LOCAL.with(|l| {
        let l = l.borrow();
        let tables = l.tables.as_ref()?;
        // Every update leaves the tables valid, so a poisoned lock is
        // still good to read and add to.
        let mut rec = tables.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut rec, l.row))
    })
}

/// Discards everything the calling thread accumulated, layer names
/// included.
pub fn reset() {
    with_tables(|rec, _| *rec = Recording::default());
}

/// A recording thread's tables and current layer, for a pool worker it
/// spawns to record into: capture it on the spawning thread, enter it on
/// the worker. Empty — and free — when the capturing thread is not
/// recording.
pub struct Handoff(Option<(Tables, usize)>);

impl Handoff {
    /// Captures the calling thread's recording state. One relaxed load
    /// and nothing allocated while no thread is recording.
    pub fn capture() -> Handoff {
        if RECORDING_THREADS.load(Ordering::Relaxed) == 0 {
            return Handoff(None);
        }
        Handoff(LOCAL.with(|l| {
            let l = l.borrow();
            l.tables.clone().filter(|_| l.recording).map(|t| (t, l.row))
        }))
    }

    /// Runs `f` with the calling thread recording into the captured
    /// tables under the captured layer, then restores its own state (also
    /// on panic). Just `f()` when the handoff is empty or the thread
    /// already records into those tables — the one it was captured on.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Tables>, bool, usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                LOCAL.with(|l| {
                    let mut l = l.borrow_mut();
                    l.tables = self.0.take();
                    l.set_recording(self.1);
                    l.row = self.2;
                });
            }
        }
        let Some((tables, row)) = &self.0 else {
            return f();
        };
        let _restore = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.recording && l.tables.as_ref().is_some_and(|t| Arc::ptr_eq(t, tables)) {
                return None;
            }
            Some(Restore(
                l.tables.replace(Arc::clone(tables)),
                l.set_recording(true),
                std::mem::replace(&mut l.row, *row),
            ))
        });
        f()
    }
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
        let ns = self.t0.elapsed().as_nanos() as u64;
        with_tables(|rec, _| rec.open_row(self.row).wall_ns += ns);
        LOCAL.with(|l| l.borrow_mut().row = self.prev);
    }
}

/// Opens a layer scope: until the guard drops, phase spans finished on
/// this thread (and on workers it hands off to) attribute to layer
/// `index`, displayed as `L{index:02} {kind}`. Returns `None` — at the
/// cost of one atomic load — when disabled.
#[must_use]
pub fn layer_scope(index: usize, kind: &str) -> Option<LayerGuard> {
    if !enabled() {
        return None;
    }
    with_tables(|rec, _| {
        rec.row(index, || format!("L{index:02} {kind}"));
    })?;
    let prev = LOCAL.with(|l| std::mem::replace(&mut l.borrow_mut().row, index));
    Some(LayerGuard {
        prev,
        row: index,
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
        with_tables(|rec, row| {
            let t = &mut rec.open_row(row).phases[self.phase as usize];
            t.ns += ns;
            t.flops += flops;
            t.bytes += bytes;
            t.calls += 1;
        });
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
    /// Layer index within the network (`usize::MAX` = unattributed).
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

/// The calling thread's per-layer profiles, index-ascending, skipping
/// rows with no recorded activity.
pub fn snapshot() -> Vec<LayerProfile> {
    with_tables(|rec, _| {
        let active = |l: &&LayerProfile| l.wall_ns != 0 || l.phases.iter().any(|t| t.calls != 0);
        rec.layers.values().filter(active).cloned().collect()
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_returns_none_and_records_nothing() {
        set_enabled(false);
        reset();
        assert!(layer_scope(0, "conv").is_none());
        assert!(phase_span(Phase::PackA).is_none());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_attribute_to_the_scoped_layer_and_scopes_nest() {
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
    fn handoff_records_into_the_spawner_and_ends_with_its_closure() {
        // Captured while not recording: empty, whatever happens later.
        set_enabled(false);
        let empty = Handoff::capture();
        set_enabled(true);
        reset();
        {
            let _scope = layer_scope(7, "conv");
            let handoff = Handoff::capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!enabled(), "a fresh thread records nothing");
                    empty.enter(|| assert!(phase_span(Phase::PackA).is_none()));
                    handoff.enter(|| {
                        assert!(enabled());
                        phase_span(Phase::PackA).unwrap().finish(0, 64);
                    });
                    // Non-recording again once the closure returned.
                    assert!(!enabled());
                    assert!(phase_span(Phase::PackA).is_none());
                    assert!(snapshot().is_empty());
                });
            });
            // On the thread it was captured on, entering changes nothing:
            // same tables, same layer, and what the closure switches
            // stays switched.
            handoff.enter(|| phase_span(Phase::Microkernel).unwrap().finish(5, 0));
            assert!(enabled());
            phase_span(Phase::PackB).unwrap().finish(0, 8);
            handoff.enter(|| set_enabled(false));
            assert!(!enabled());
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        let l7 = &snap[0];
        assert_eq!(l7.index, 7);
        assert_eq!(l7.phase(Phase::PackA).calls, 1);
        assert_eq!(l7.phase(Phase::PackA).bytes, 64);
        assert_eq!(l7.phase(Phase::Microkernel).flops, 5);
        assert_eq!(l7.phase(Phase::PackB).bytes, 8);
        assert_eq!(l7.total().calls, 3);
    }

    #[test]
    fn concurrent_recorders_and_a_bystander_stay_apart() {
        // Three rendezvous: everyone is live before anyone records, and
        // everyone has recorded before anyone reads.
        let barrier = std::sync::Barrier::new(3);
        let record = |layer: usize, phase: Phase, flops: u64| {
            set_enabled(true);
            barrier.wait();
            {
                let _scope = layer_scope(layer, "conv");
                phase_span(phase).unwrap().finish(flops, 0);
            }
            barrier.wait();
            set_enabled(false);
            snapshot()
        };
        let (a, b, bystander) = std::thread::scope(|s| {
            let a = s.spawn(|| record(1, Phase::PackA, 10));
            let b = s.spawn(|| record(2, Phase::PackB, 20));
            let bystander = s.spawn(|| {
                barrier.wait();
                assert!(!enabled());
                assert!(layer_scope(3, "conv").is_none());
                assert!(phase_span(Phase::Microkernel).is_none());
                barrier.wait();
                snapshot()
            });
            (
                a.join().unwrap(),
                b.join().unwrap(),
                bystander.join().unwrap(),
            )
        });
        assert!(bystander.is_empty());
        for (snap, layer, phase, flops) in [(a, 1, Phase::PackA, 10), (b, 2, Phase::PackB, 20)] {
            assert_eq!(snap.len(), 1, "a neighbour's layer leaked in");
            assert_eq!(snap[0].index, layer);
            assert_eq!(snap[0].total().calls, 1);
            assert_eq!(snap[0].phase(phase).flops, flops);
        }
    }

    #[test]
    fn out_of_scope_spans_land_on_the_unattributed_row() {
        set_enabled(true);
        reset();
        phase_span(Phase::Microkernel).unwrap().finish(10, 20);
        {
            let _scope = layer_scope(3, "conv");
            phase_span(Phase::Epilogue).unwrap().finish(1, 2);
        }
        phase_span(Phase::Epilogue).unwrap().finish(4, 8);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.len(), 2);
        let row = &snap[1];
        assert_eq!(row.index, UNATTRIBUTED);
        assert_eq!(row.name, "(unattributed)");
        assert_eq!(row.phase(Phase::Microkernel).flops, 10);
        assert_eq!(row.phase(Phase::Epilogue).bytes, 8);
    }

    #[test]
    fn a_layer_past_index_128_gets_its_own_row() {
        set_enabled(true);
        reset();
        {
            let _scope = layer_scope(200, "conv");
            phase_span(Phase::Microkernel).unwrap().finish(7, 8);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.len(), 1, "no unattributed row: {snap:?}");
        assert_eq!(snap[0].index, 200);
        assert_eq!(snap[0].name, "L200 conv");
        assert_eq!(snap[0].phase(Phase::Microkernel).flops, 7);
    }

    #[test]
    fn reset_clears_everything() {
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
