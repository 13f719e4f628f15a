//! `pcnn-parallel` — a zero-dependency scoped worker pool for the CPU
//! execution layer of the P-CNN reproduction.
//!
//! Every FLOP of the reproduction flows through `pcnn-tensor`'s GEMM and
//! `pcnn-nn`'s layer loops; this crate supplies the multicore substrate
//! they run on: chunked index-range parallelism ([`par_for`]), ordered
//! parallel mapping ([`par_map`]), disjoint `&mut` slice-chunk
//! parallelism ([`par_chunks_mut`], [`par_chunks_mut_with`], which hands
//! each worker its own piece of scratch, and the grain-splitting
//! [`par_chunks_mut_fine`] for chunk counts smaller than the pool). All
//! five are splits in front of one private scaffold, `region`: one
//! scoped thread per item but the last, which runs on the caller, every
//! handle joined — built on [`std::thread::scope`] so borrowed data needs
//! no `'static` bound and no `unsafe`. Each thread has one grow-only
//! workspace ([`with_workspace`]) that the engine's entry points lay their
//! activations and kernel scratch out in, so a steady caller allocates
//! nothing.
//!
//! # Determinism
//!
//! The helpers only decide *which worker* runs a chunk, never what a chunk
//! computes or in what order a chunk's own arithmetic happens. Callers
//! that split work along dimensions whose per-element accumulation order
//! is fixed (micro-tiles of a GEMM, images of a batch, independent tuning
//! candidates) therefore produce **bitwise-identical** results at any
//! thread count — the property the repo's parallel-determinism tests
//! assert.
//!
//! # Thread-count resolution
//!
//! In precedence order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests and benches to compare thread counts in-process),
//! 2. the process-wide override set by [`set_threads`] (wired to the
//!    `--threads` flag of the `pcnn-bench` binaries),
//! 3. the `PCNN_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! Steps 3 and 4 are resolved once and cached for the process lifetime:
//! `available_parallelism` performs syscalls (and cgroup reads) that are
//! far too expensive to repeat on every parallel region.
//!
//! Nested parallel regions run serially on the worker they land on: a
//! parallel `Network::forward` that reaches a parallel `gemm` does not
//! multiply its worker count.
//!
//! # Telemetry
//!
//! `pcnn-telemetry`'s state belongs to the thread that switched it on,
//! and every worker thread of the workspace is born in `region` — so
//! that is the one place a worker is connected to its spawner's sink: a
//! [`pcnn_telemetry::Handoff`] captured on the caller and entered around
//! each worker's closure. Code on a worker records where the thread that
//! started the region records (nowhere, for one relaxed load, when that
//! thread is not recording); different threads' regions never mix.
//!
//! When the calling thread is recording, every parallel region counts
//! `parallel.regions` and `parallel.tasks` (chunks executed), each
//! worker records its busy time in the `parallel.worker_busy_ns`
//! histogram, and the region emits `parallel.busy_ns` /
//! `parallel.idle_ns` counters (summed worker busy time vs. the
//! remainder of `workers x region wall time`) so pool starvation is
//! visible in a trace's `.prom` exposition: a starved region shows
//! `idle_ns` dwarfing `busy_ns`. Every allocation a workspace makes
//! counts `parallel.workspace.alloc`.
//!
//! Regions additionally meter **per-worker** busy time: every worker of
//! a parallel region emits a [`pcnn_telemetry::worker_slice`] onto the
//! worker-pool track group of the Chrome trace (one lane per worker
//! index, labelled with the region's name), and the finished region
//! records its load imbalance — max over mean per-worker busy time, in
//! thousandths — in the `parallel.imbalance_milli.<label>` histogram
//! (1000 = perfectly balanced). Callers name the regions they start via
//! [`with_region_label`]; unlabelled regions meter as `"region"`.
//!
//! # Example
//!
//! ```
//! let mut data = vec![0u64; 1000];
//! pcnn_parallel::par_chunks_mut(&mut data, 100, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 100 + i) as u64;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on worker threads, guarding against absurd `PCNN_THREADS`.
pub const MAX_THREADS: usize = 256;

/// Process-wide thread-count override; 0 means "not set".
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached automatic thread count (`PCNN_THREADS` env var falling back to
/// `available_parallelism`); 0 means "not resolved yet". Cached because
/// `available_parallelism` costs syscalls on every call, and parallel
/// regions consult the thread count on their hot path.
static AUTO_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override installed by [`with_threads`]; 0 = unset.
    static LOCAL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing inside a pool worker, so
    /// nested parallel regions degrade to serial execution.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Telemetry label the next parallel region started from this thread
    /// will carry; installed by [`with_region_label`].
    static REGION_LABEL: Cell<&'static str> = const { Cell::new("region") };
}

/// The thread count parallel regions started from this thread will use,
/// after applying the overrides described in the crate docs.
pub fn current_threads() -> usize {
    let local = LOCAL_OVERRIDE.with(Cell::get);
    if local > 0 {
        return local.min(MAX_THREADS);
    }
    let global = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
    if global > 0 {
        return global.min(MAX_THREADS);
    }
    let auto = AUTO_THREADS.load(Ordering::Relaxed);
    if auto > 0 {
        return auto;
    }
    let resolved = resolve_auto_threads();
    AUTO_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Automatic resolution (env var, then hardware), run once per process.
fn resolve_auto_threads() -> usize {
    if let Ok(v) = std::env::var("PCNN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Sets the process-wide thread-count override (`0` resets to automatic
/// resolution). The `--threads` flag of the `pcnn-bench` binaries calls
/// this.
pub fn set_threads(n: usize) {
    GLOBAL_OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Runs `f` with a thread-local thread-count override, restoring the
/// previous override afterwards (also on panic). This is how tests compare
/// 1-thread and N-thread runs in the same process without racing on global
/// state.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(n.clamp(1, MAX_THREADS));
        prev
    }));
    f()
}

/// True while the current thread is inside a pool worker (nested parallel
/// regions run serially).
fn in_parallel_region() -> bool {
    IN_POOL.with(Cell::get)
}

/// Runs `f` with every parallel region started from this thread labelled
/// `label` in telemetry: worker slices on the trace's worker-pool tracks
/// carry the label as their name, and the region's load-imbalance
/// histogram becomes `parallel.imbalance_milli.<label>`. Restores the
/// previous label afterwards (also on panic), so labels nest like scopes.
pub fn with_region_label<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    struct Restore(&'static str);
    impl Drop for Restore {
        fn drop(&mut self) {
            REGION_LABEL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(REGION_LABEL.with(|c| {
        let prev = c.get();
        c.set(label);
        prev
    }));
    f()
}

/// The width a region started from this thread runs at: 1 inside a pool
/// worker (nested regions run serially), else [`current_threads`]. What a
/// caller sizes per-worker scratch with.
pub fn active_threads() -> usize {
    if in_parallel_region() {
        1
    } else {
        current_threads()
    }
}

/// Workers a region of `n_tasks` independent tasks runs on at width
/// `threads`: the one count both the helpers and a caller sizing one piece
/// of scratch per worker use.
pub fn workers(n_tasks: usize, threads: usize) -> usize {
    if n_tasks <= 1 {
        1
    } else {
        threads.min(n_tasks).max(1)
    }
}

/// Worker count for a region of `n_tasks` independent tasks.
fn effective_threads(n_tasks: usize) -> usize {
    workers(n_tasks, active_threads())
}

/// Runs `f` as a pool worker: marks the thread as in-pool for the
/// duration (restoring the previous mark, so a nested region that ran
/// serially on a worker leaves it a worker) and, when telemetry is
/// recording, records busy time (per-worker histogram plus the region's
/// per-worker busy slot) and emits the worker's trace slice onto the
/// worker-pool track of its index.
fn as_worker<R>(ctx: Option<(&RegionMeter, usize)>, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL.with(|c| c.replace(true)));
    if pcnn_telemetry::enabled() {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        pcnn_telemetry::histogram("parallel.worker_busy_ns", ns as f64);
        if let Some((m, w)) = ctx {
            m.busy[w].fetch_add(ns, Ordering::Relaxed);
            pcnn_telemetry::worker_slice(m.label, w as u64, start, ns);
        }
        out
    } else {
        f()
    }
}

/// Per-region utilisation meter: measures the region's wall time on the
/// caller and one busy total per worker, and emits on finish the
/// `parallel.busy_ns` / `parallel.idle_ns` counters plus the
/// `parallel.imbalance_milli.<label>` histogram (max over mean worker
/// busy time, in thousandths) that make pool starvation and skew visible
/// in traces. Only constructed (and only timing) when telemetry is
/// recording.
struct RegionMeter {
    t0: Instant,
    label: &'static str,
    busy: Vec<AtomicU64>,
}

impl RegionMeter {
    /// Starts metering a parallel region of `tasks` tasks on `workers`
    /// workers; also bumps the `parallel.regions`/`parallel.tasks`
    /// counters. Returns `None` (zero overhead) when telemetry is off.
    fn start(workers: usize, tasks: usize) -> Option<Self> {
        if !pcnn_telemetry::enabled() {
            return None;
        }
        pcnn_telemetry::counter("parallel.regions", 1);
        pcnn_telemetry::counter("parallel.tasks", tasks as u64);
        Some(Self {
            t0: Instant::now(),
            label: REGION_LABEL.with(Cell::get),
            busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Emits the busy/idle split and load-imbalance metric for the
    /// finished region.
    fn finish(self) {
        let wall = self.t0.elapsed().as_nanos() as u64;
        let workers = self.busy.len() as u64;
        let mut busy = 0u64;
        let mut max = 0u64;
        for b in &self.busy {
            let ns = b.load(Ordering::Relaxed);
            busy += ns;
            max = max.max(ns);
        }
        pcnn_telemetry::counter("parallel.busy_ns", busy);
        pcnn_telemetry::counter("parallel.idle_ns", (workers * wall).saturating_sub(busy));
        // max / mean in thousandths; 1000 = perfectly balanced,
        // `workers * 1000` = one worker did everything.
        if let Some(imbalance_milli) = max
            .saturating_mul(1000)
            .saturating_mul(workers)
            .checked_div(busy)
        {
            pcnn_telemetry::histogram(
                &format!("parallel.imbalance_milli.{}", self.label),
                imbalance_milli as f64,
            );
        }
    }
}

/// The one spawn / meter / join scaffold under every helper: runs
/// `f(item)` once per item, each item moved into a worker of its own —
/// scoped threads for all but the last, which runs on the caller. A
/// single item is the serial path: no thread, meter or handoff. `tasks`
/// is what the region's `parallel.tasks` counter reports.
///
/// Workers record into their spawner's telemetry sink: the handoff is
/// captured here, on the caller, and entered around each worker's
/// closure (a no-op for the caller's own item, free when the caller is
/// not recording).
fn region<T, F>(tasks: usize, items: impl ExactSizeIterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let workers = items.len();
    if workers <= 1 {
        return as_worker(None, || items.for_each(f));
    }
    let meter = RegionMeter::start(workers, tasks);
    let handoff = pcnn_telemetry::Handoff::capture();
    std::thread::scope(|s| {
        let (f, meter, handoff) = (&f, meter.as_ref(), &handoff);
        let mut handles = Vec::with_capacity(workers - 1);
        for (w, item) in items.enumerate() {
            let run = move || handoff.enter(|| as_worker(meter.map(|m| (m, w)), || f(item)));
            if w + 1 == workers {
                run();
            } else {
                handles.push(s.spawn(run));
            }
        }
        // Join, not just the scope's completion count: a worker that is
        // still exiting keeps its malloc arena attached, so the next
        // region's worker gets a fresh one, and back-to-back short regions
        // (the offline compiler's, one per layer) grow resident memory by
        // an arena each.
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    if let Some(m) = meter {
        m.finish();
    }
}

/// `n` split into `parts` balanced counts: the first `n % parts` get one
/// extra.
fn balanced(n: usize, parts: usize) -> impl ExactSizeIterator<Item = usize> {
    (0..parts).map(move |w| n / parts + usize::from(w < n % parts))
}

/// Splits `0..len` into one contiguous range per worker (at most
/// `threads`, each at least `min_chunk` long except possibly the last)
/// and runs `f` on each range in parallel.
///
/// `f` sees every index exactly once; ranges are contiguous and ascending
/// per worker, so callers that only read shared data (or write through
/// interior mutability at disjoint indices) get deterministic results.
pub fn par_for<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = effective_threads(len.div_ceil(min_chunk.max(1)));
    let mut start = 0;
    let ranges = balanced(len, threads).map(|take| {
        start += take;
        start - take..start
    });
    region(threads, ranges, f);
}

/// Splits `data` into `chunk_len`-long chunks (the last may be shorter)
/// and runs `f(chunk_index, chunk)` on every chunk, distributing
/// contiguous runs of chunks across workers.
///
/// Chunk boundaries depend only on `chunk_len`, never on the thread
/// count, so a caller whose chunks are computed independently produces
/// bitwise-identical data at any thread count. When the chunk count is
/// smaller than the pool, workers beyond it stay idle — callers whose
/// chunks decompose into finer independent units should use
/// [`par_chunks_mut_fine`] instead.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(data, chunk_len, &mut [], 0, |i, chunk, _| f(i, chunk));
}

/// [`par_chunks_mut`] that also hands each worker its own `per_worker`
/// floats of `scratch`, the same piece for every chunk of its run: one
/// piece per worker, not per chunk. `scratch` must hold
/// [`workers`]`(n_chunks, `[`active_threads`]`())` pieces; a caller sizes
/// it with that count.
///
/// # Panics
///
/// Panics if `chunk_len == 0` or `scratch` is shorter than the pieces.
pub fn par_chunks_mut_with<T, F>(
    data: &mut [T],
    chunk_len: usize,
    scratch: &mut [f32],
    per_worker: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut [f32]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let (mut rest, mut pieces) = (data, scratch);
    let mut first_chunk = 0;
    let parts = balanced(n_chunks, effective_threads(n_chunks)).map(|take_chunks| {
        let take = (take_chunks * chunk_len).min(rest.len());
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(take);
        rest = tail;
        let (piece, later) = std::mem::take(&mut pieces).split_at_mut(per_worker);
        pieces = later;
        first_chunk += take_chunks;
        (first_chunk - take_chunks, part, piece)
    });
    region(
        n_chunks,
        parts,
        |(base, part, piece): (usize, &mut [T], &mut [f32])| {
            for (i, chunk) in part.chunks_mut(chunk_len).enumerate() {
                f(base + i, chunk, piece);
            }
        },
    );
}

/// [`par_chunks_mut`] with a grain fallback for coarse workloads: when
/// there are fewer chunks than pool workers, full-length chunks are
/// subdivided at `unit`-element boundaries so every worker still gets
/// work (the old row-panel GEMM starved 6 of 8 workers on `m = 96`,
/// `MC = 64` — only two 64-row chunks).
///
/// `f(chunk_index, offset_in_chunk, part)` receives a sub-slice starting
/// `offset_in_chunk` elements into chunk `chunk_index`; `offset_in_chunk`
/// is always a multiple of `unit` and is `0` whenever the chunk was not
/// split. A short final chunk (length `< chunk_len`) is never split — its
/// interior layout may differ from full chunks (e.g. the tight-depth
/// final block of a packed GEMM `B`).
///
/// Each `unit` must be computable independently of how the chunk was
/// split, which also makes the output bitwise-independent of the thread
/// count.
///
/// # Panics
///
/// Panics if `chunk_len == 0`, `unit == 0`, or `unit` does not divide
/// `chunk_len`.
pub fn par_chunks_mut_fine<T, F>(data: &mut [T], chunk_len: usize, unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert!(
        unit > 0 && chunk_len.is_multiple_of(unit),
        "unit must be positive and divide chunk_len"
    );
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks == 0 {
        return;
    }
    let threads = active_threads();
    let splits = (chunk_len / unit).min(threads);
    if threads <= 1 || n_chunks >= threads || splits <= 1 {
        // Enough chunks to feed the pool (or no parallelism at all):
        // plain chunk-per-task scheduling.
        par_chunks_mut(data, chunk_len, |ci, chunk| f(ci, 0, chunk));
        return;
    }
    // Starved: split every full chunk into up to `splits` unit-aligned
    // pieces. (chunk index, offset in chunk, length.)
    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for ci in 0..n_chunks {
        let len = chunk_len.min(data.len() - ci * chunk_len);
        if len == chunk_len {
            let mut off = 0;
            for units in balanced(chunk_len / unit, splits).filter(|&u| u > 0) {
                tasks.push((ci, off, units * unit));
                off += units * unit;
            }
        } else {
            tasks.push((ci, 0, len));
        }
    }
    let mut rest = data;
    let mut queue = tasks.as_slice();
    let parts = balanced(tasks.len(), threads.min(tasks.len())).map(|take_tasks| {
        let (mine, later) = queue.split_at(take_tasks);
        queue = later;
        let span = mine.iter().map(|t| t.2).sum();
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(span);
        rest = tail;
        (mine, part)
    });
    region(
        tasks.len(),
        parts,
        |(mine, mut part): (&[(usize, usize, usize)], &mut [T])| {
            for &(ci, off, len) in mine {
                let (cur, next) = part.split_at_mut(len);
                f(ci, off, cur);
                part = next;
            }
        },
    );
}

/// Computes `f(i)` for every `i in 0..len` in parallel and returns the
/// results **in index order**.
///
/// Tasks are claimed dynamically (one index at a time), so workloads with
/// very uneven per-task cost — e.g. simulating tuning candidates of
/// different grid sizes — balance well; the output order is nevertheless
/// always `0..len`.
pub fn par_map<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(len);
    if threads <= 1 {
        return as_worker(None, || (0..len).map(f).collect());
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    region(len, 0..threads, |_| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            local.push((i, f(i)));
        }
        results.lock().expect("par_map results").extend(local);
    });
    let mut collected = results.into_inner().expect("par_map results");
    collected.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), len);
    collected.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// The calling thread's workspace
// ---------------------------------------------------------------------------

/// Floats per 64-byte cache line: every carve of a workspace takes a whole
/// number of them, so each carved view starts on a line.
const LINE_FLOATS: usize = 64 / std::mem::size_of::<f32>();

/// `len` rounded up to whole cache lines: the floats a carve of `len`
/// takes out of a workspace.
pub fn lines(len: usize) -> usize {
    len.next_multiple_of(LINE_FLOATS)
}

/// Splits a `len`-float view off the front of `ws`, taking [`lines`]`(len)`
/// floats, so what is left starts on a cache line when `ws` did.
///
/// # Panics
///
/// Panics if `ws` is shorter than `lines(len)`: the caller sized it for
/// less than it carves.
pub fn carve<'a>(ws: &mut &'a mut [f32], len: usize) -> &'a mut [f32] {
    let (head, rest) = std::mem::take(ws).split_at_mut(lines(len));
    *ws = rest;
    &mut head[..len]
}

thread_local! {
    /// This thread's workspace: grown, never shrunk, and handed out from
    /// its first cache line.
    static WORKSPACE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a `len`-float view of the calling thread's workspace,
/// starting on a 64-byte cache line (glibc puts a plain `Vec`'s data at 16
/// mod 64), so a 16-float vector store into it never straddles two lines.
///
/// The buffer is grown when it is shorter than `len` and never shrunk, so
/// a thread that asks for the same length again allocates nothing. Each
/// public entry point of the engine that needs scratch — `Network::run`,
/// a conv forward, `gemm` — enters once and hands its kernels views
/// carved from this one ([`carve`]), workers included, so no worker
/// allocates. An entry from inside another on the same thread gets a
/// buffer of its own instead, dropped on return; one on a pool worker uses
/// that worker's, which lives as long as the worker. Growth and that
/// fallback are the only allocations, and each counts
/// `parallel.workspace.alloc` when telemetry is recording.
///
/// **Contents are unspecified**: what an earlier entry left, or zeros.
/// Callers write every element they later read.
pub fn with_workspace<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len == 0 {
        return f(&mut []);
    }
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if line_view(&mut buf, len).is_none() {
                // The old buffer goes before the new one comes.
                *buf = Vec::new();
                *buf = fresh(len);
            }
            f(line_view(&mut buf, len).expect("a grown workspace holds the view"))
        }
        Err(_) => {
            let mut buf = fresh(len);
            f(line_view(&mut buf, len).expect("a fresh buffer holds the view"))
        }
    })
}

/// A new buffer with room for a `len`-float view on a cache line: zeroed
/// memory straight from the allocator, counted.
fn fresh(len: usize) -> Vec<f32> {
    if pcnn_telemetry::enabled() {
        pcnn_telemetry::counter("parallel.workspace.alloc", 1);
    }
    vec![0.0; len + LINE_FLOATS - 1]
}

/// The `len` floats of `buf` from its first cache-line boundary, if it
/// holds them.
fn line_view(buf: &mut [f32], len: usize) -> Option<&mut [f32]> {
    let start = (buf.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<f32>();
    buf.get_mut(start..start + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_covers_every_index_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        with_threads(4, || {
            par_for(1000, 10, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_is_noop() {
        par_for(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_chunks_mut_chunk_indices_match_offsets() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![usize::MAX; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 10, |ci, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = ci * 10 + i;
                    }
                });
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_chunks_mut_handles_ragged_tail() {
        let mut data = vec![0u8; 7];
        with_threads(8, || {
            par_chunks_mut(&mut data, 2, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
        });
        assert_eq!(data, vec![1; 7]);
    }

    #[test]
    fn fine_chunks_feed_all_workers_when_chunks_are_coarse() {
        // The old row-panel GEMM's starvation case scaled down: m = 96
        // rows in 64-row panels is only ceil(96/64) = 2 chunks, so 6 of
        // 8 workers used to idle. Split at 4-row units (the panel and
        // tile heights of that schedule, not of today's 6x16 GEMM) the
        // region must produce at least as many tasks as workers.
        let n = 7; // row length, to make units multi-element
        let (mc, mr) = (64 * n, 4 * n);
        let mut data = vec![usize::MAX; 96 * n];
        let tasks = AtomicUsize::new(0);
        with_threads(8, || {
            par_chunks_mut_fine(&mut data, mc, mr, |ci, off, part| {
                tasks.fetch_add(1, Ordering::Relaxed);
                assert_eq!(off % mr, 0, "offset not unit-aligned");
                let base = ci * mc + off;
                for (i, v) in part.iter_mut().enumerate() {
                    *v = base + i;
                }
            });
        });
        assert!(
            tasks.load(Ordering::Relaxed) >= 8,
            "coarse workload produced only {} tasks for 8 workers",
            tasks.load(Ordering::Relaxed)
        );
        assert!(
            data.iter().enumerate().all(|(i, &v)| v == i),
            "some element missed or written twice"
        );
    }

    #[test]
    fn fine_chunks_never_split_the_short_tail() {
        // 2.5 chunks: the final half-chunk must arrive whole (offset 0).
        let mut data = vec![0usize; 100];
        with_threads(8, || {
            par_chunks_mut_fine(&mut data, 40, 10, |ci, off, part| {
                if ci == 2 {
                    assert_eq!((off, part.len()), (0, 20), "short tail was split");
                }
                for v in part.iter_mut() {
                    *v += 1;
                }
            });
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn fine_chunks_delegate_when_grain_is_already_fine() {
        // 10 chunks over 2 workers: no splitting, offsets all zero.
        let mut data = vec![0u8; 100];
        with_threads(2, || {
            par_chunks_mut_fine(&mut data, 10, 5, |_, off, part| {
                assert_eq!(off, 0);
                assert_eq!(part.len(), 10);
                for v in part.iter_mut() {
                    *v += 1;
                }
            });
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 3, 7] {
            let out = with_threads(threads, || par_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_run_serially() {
        with_threads(4, || {
            par_for(4, 1, |_| {
                assert!(in_parallel_region());
                // A nested region must not spawn: it runs inline on this
                // worker, so the flag stays set throughout — and after it.
                par_for(8, 1, |_| assert!(in_parallel_region()));
                assert!(in_parallel_region(), "nested region unmarked its worker");
            });
        });
        assert!(!in_parallel_region());
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn set_threads_is_overridden_by_with_threads() {
        set_threads(3);
        assert_eq!(current_threads(), 3);
        with_threads(1, || assert_eq!(current_threads(), 1));
        set_threads(0);
    }

    fn aligned(s: &[f32]) -> bool {
        (s.as_ptr() as usize).is_multiple_of(64)
    }

    fn disjoint(a: &[f32], b: &[f32]) -> bool {
        let (a, b) = (a.as_ptr_range(), b.as_ptr_range());
        a.end <= b.start || b.end <= a.start
    }

    #[test]
    fn scratch_checkouts_are_disjoint_and_sized() {
        with_workspace(16 + 16 + lines(8), |mut ws| {
            assert_eq!(ws.len(), 48);
            let a = carve(&mut ws, 16);
            let b = carve(&mut ws, 16);
            let c = carve(&mut ws, 8);
            assert_eq!((a.len(), b.len(), c.len(), ws.len()), (16, 16, 8, 0));
            a.fill(1.0);
            b.fill(2.0);
            c.fill(3.0);
            assert!(a.iter().all(|&v| v == 1.0), "carves alias");
            assert!(b.iter().all(|&v| v == 2.0), "carves alias");
        });
        // A shorter entry later is a view of the same buffer; contents are
        // unspecified but the length contract holds.
        with_workspace(8, |ws| assert_eq!(ws.len(), 8));
    }

    #[test]
    #[should_panic]
    fn a_carve_longer_than_its_workspace_panics() {
        with_workspace(16, |mut ws| {
            carve(&mut ws, 17);
        });
    }

    #[test]
    fn scratch_views_start_on_a_cache_line_and_stay_disjoint() {
        for len in [1, 15, 16, 17, 1000, 40_000, 1 << 20] {
            // Grown to `len` at least (a longer earlier entry leaves it
            // longer), carved into ragged pieces, and entered again inside
            // itself.
            with_workspace(3 * lines(len), |mut ws| {
                assert!(aligned(ws), "workspace {len}");
                let pieces = [len, len / 2 + 1, 1].map(|l| carve(&mut ws, l));
                for (i, p) in pieces.iter().enumerate() {
                    assert!(aligned(p), "carve {i} of {len}");
                    for q in &pieces[i + 1..] {
                        assert!(disjoint(p, q), "carves of {len}");
                    }
                }
                with_workspace(len, |nested| {
                    assert!(aligned(nested), "nested {len}");
                    assert!(pieces.iter().all(|p| disjoint(p, nested)), "nested {len}");
                    assert_eq!(nested.len(), len);
                });
            });
        }
        // A grown buffer keeps its alignment.
        let before = with_workspace(LINE_FLOATS, |ws| ws.as_ptr() as usize);
        with_workspace(1 << 22, |ws| assert!(aligned(ws), "grown"));
        with_workspace(LINE_FLOATS, |ws| assert!(aligned(ws), "after growth"));
        assert!(before.is_multiple_of(64));
    }

    #[test]
    fn only_growth_and_nesting_allocate() {
        pcnn_telemetry::set_enabled(true);
        let allocs = |len: usize, nest: bool| {
            pcnn_telemetry::reset();
            with_workspace(len, |_| {
                if nest {
                    with_workspace(len, |_| {});
                }
            });
            pcnn_telemetry::snapshot().counter_value("parallel.workspace.alloc")
        };
        allocs(1 << 16, false);
        assert_eq!(allocs(1 << 16, false), 0, "same length again");
        assert_eq!(allocs(1 << 10, false), 0, "shorter");
        assert_eq!(allocs(1 << 10, true), 1, "nested entry");
        assert_eq!(allocs(1 << 17, false), 1, "growth");
        pcnn_telemetry::set_enabled(false);
    }

    #[test]
    fn regions_emit_per_worker_slices_and_imbalance() {
        pcnn_telemetry::set_enabled(true);
        pcnn_telemetry::reset();
        with_threads(4, || {
            with_region_label("imbalance_probe", || {
                par_for(64, 1, |range| {
                    let mut acc = 0u64;
                    for i in range {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    }
                    std::hint::black_box(acc);
                });
            });
        });
        let metrics = pcnn_telemetry::snapshot();
        let trace = pcnn_telemetry::render_chrome_trace();
        pcnn_telemetry::set_enabled(false);

        let h = metrics
            .histogram("parallel.imbalance_milli.imbalance_probe")
            .expect("labelled imbalance histogram missing");
        assert_eq!(h.count, 1, "one region, one imbalance sample");
        // max/mean is at least 1.0 by construction.
        assert!(h.sum >= 1000.0, "imbalance below 1000 milli: {}", h.sum);
        // Worker slices land on the worker-pool track group, named after
        // the region label (literally or via the trace string table).
        assert!(
            trace.contains("imbalance_probe"),
            "region label not in trace"
        );
        assert!(
            trace.contains("\"worker pool\""),
            "worker-pool process track missing"
        );
        assert!(
            trace.contains("\"worker 0\""),
            "per-worker thread track missing"
        );
    }

    #[test]
    fn region_labels_nest_and_restore() {
        with_region_label("outer", || {
            assert_eq!(REGION_LABEL.with(Cell::get), "outer");
            with_region_label("inner", || {
                assert_eq!(REGION_LABEL.with(Cell::get), "inner");
            });
            assert_eq!(REGION_LABEL.with(Cell::get), "outer");
        });
        assert_eq!(REGION_LABEL.with(Cell::get), "region");
    }

    #[test]
    fn scratch_is_usable_from_workers() {
        // One piece per worker, the same for each chunk of its run.
        let mut data = vec![0usize; 8];
        let mut scratch = vec![0.0f32; 4 * 64];
        with_threads(4, || {
            par_chunks_mut_with(&mut data, 1, &mut scratch, 64, |i, chunk, piece| {
                assert_eq!(piece.len(), 64);
                piece.fill(i as f32);
                assert!(piece.iter().all(|&v| v == i as f32), "pieces alias");
                chunk[0] = i;
            });
            // A worker entering the workspace gets its own thread's.
            par_for(8, 1, |range| {
                for _ in range {
                    with_workspace(64, |ws| {
                        ws.fill(3.0);
                        assert!(aligned(ws) && ws.iter().all(|&v| v == 3.0));
                    });
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }
}
