//! `pcnn-telemetry` — spans, counters and trace export for the P-CNN
//! reproduction.
//!
//! The paper's argument rests on *measured* microarchitectural behaviour
//! (warp stall composition, occupancy, per-layer time/energy); this crate
//! is the measurement substrate the simulator, offline compiler, runtime
//! and bench harness all report into. It provides:
//!
//! * **Spans** — hierarchical wall-clock regions via [`span!`]:
//!   `let _s = span!("offline.tune_layer", layer = name);` times the
//!   enclosing scope; spans nest per thread and export as Chrome
//!   trace-event "X" (complete) events.
//! * **Counters and histograms** — named monotonic counters
//!   ([`counter`]) and log2-bucketed histograms ([`histogram`]).
//! * **Instant events** — point-in-time records with arguments via
//!   [`event!`] (calibration backtracks, tuning candidates, …).
//! * **Simulated-time slices** — [`sim_slice`] places events on a
//!   separate "simulated time" process so per-SM busy timelines from the
//!   dispatch simulator can be inspected alongside wall-clock spans.
//! * **Exporters** — [`render_chrome_trace`] renders a Perfetto /
//!   `chrome://tracing`-loadable JSON document (every span, instant and
//!   window); [`render_prometheus`] renders the counters, histograms and
//!   windowed totals as a Prometheus text exposition.
//!
//! # Thread-owned state and the handoff
//!
//! Everything recorded lands in a *sink* that belongs to the thread that
//! switched recording on: [`set_enabled`]`(true)` gives the calling
//! thread its own, and every free function here — recording, [`reset`],
//! [`snapshot`], [`set_export_mode`], the renderers — acts on the
//! calling thread's. Two threads that enable never see each
//! other's data; a thread that never enabled records nothing. A pool
//! worker records into its spawner's sink through a [`Handoff`], which
//! `pcnn-parallel` captures and enters in every region it runs — every
//! thread of the workspace is born there — so instrumented code never
//! handles one itself (DESIGN.md §9).
//!
//! # Cost when disabled
//!
//! Telemetry is **disabled by default**. While no thread is recording,
//! every entry point performs a single relaxed atomic load and returns;
//! the [`span!`]/[`event!`] macros build their argument vectors inside a
//! closure that is never called in that case. No allocation, locking or
//! formatting happens on any hot path — a thread's sink is allocated by
//! its first [`set_enabled`]`(true)`.
//!
//! # Example
//!
//! ```
//! use pcnn_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span!("demo.work", size = 42u64);
//!     telemetry::counter("demo.items", 3);
//!     telemetry::histogram("demo.latency_ms", 1.5);
//! }
//! let snapshot = telemetry::snapshot();
//! assert_eq!(snapshot.counter_value("demo.items"), 3);
//! telemetry::set_enabled(false);
//! telemetry::reset();
//! ```

pub mod flight;
pub mod json;
pub mod prom;
pub mod windowed;

pub use flight::Ring;
pub use windowed::WindowedSeries;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 histogram buckets. Bucket `i` covers values in
/// `[2^(i-BUCKET_BIAS), 2^(i+1-BUCKET_BIAS))`; with a bias of 32 the range
/// spans 2^-32 … 2^31, comfortably covering nanoseconds-to-hours in any
/// sane unit.
pub const N_BUCKETS: usize = 64;
const BUCKET_BIAS: i32 = 32;

/// Chrome-trace name interning thresholds: a name only becomes a
/// `"#<table index>"` reference when it is emitted at least this many
/// times and is at least this long — otherwise the reference plus the
/// table entry costs more than the repeats it replaces.
const INTERN_MIN_COUNT: u32 = 4;
const INTERN_MIN_LEN: usize = 8;

/// Threads currently recording (own sink switched on, or inside an
/// entered [`Handoff`]): the only process-global switch, so the disabled
/// path is one load. `Relaxed` suffices — it publishes no data, and a
/// recording thread always sees at least its own increment.
static RECORDING_THREADS: AtomicUsize = AtomicUsize::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

type Sink = Arc<Mutex<Collector>>;

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        sink: None,
        recording: false,
        export_mode: ExportMode::Full,
    });
}

struct ThreadState {
    tid: u64,
    depth: u32,
    /// What this thread reads and records into: its own sink (kept after
    /// switching off, for the exporters) or, inside an entered
    /// [`Handoff`], its spawner's.
    sink: Option<Sink>,
    /// Counted in [`RECORDING_THREADS`] while set; implies `sink`.
    recording: bool,
    export_mode: ExportMode,
}

impl ThreadState {
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

impl Drop for ThreadState {
    /// A thread that exits while recording stops counting.
    fn drop(&mut self) {
        self.set_recording(false);
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Whether the calling thread is recording. One relaxed load while no
/// thread is.
#[inline(always)]
pub fn enabled() -> bool {
    RECORDING_THREADS.load(Ordering::Relaxed) != 0 && thread_recording()
}

/// The thread-local half of [`enabled`]. Out of line, so an instrumented
/// site holds only the load and a branch, as it did when the switch was
/// one atomic.
#[cold]
#[inline(never)]
fn thread_recording() -> bool {
    THREAD.with(|t| t.borrow().recording)
}

/// Turns recording on or off for the calling thread (and, through a
/// [`Handoff`], the pool workers it spawns). The first `true` allocates
/// the thread's sink and pins the wall-clock epoch; `false` keeps the
/// sink for the exporters.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if on && t.sink.is_none() {
            t.sink = Some(Sink::default());
        }
        t.set_recording(on);
    });
}

/// Runs `f` on the calling thread's sink if it is recording.
#[inline]
fn record(f: impl FnOnce(&mut Collector)) {
    if RECORDING_THREADS.load(Ordering::Relaxed) == 0 {
        return;
    }
    THREAD.with(|t| {
        let t = t.borrow();
        if let (true, Some(sink)) = (t.recording, &t.sink) {
            f(&mut sink.lock().expect("telemetry lock"));
        }
    });
}

/// The calling thread's sink, for reading — an empty one if it never
/// enabled.
fn sink() -> Sink {
    THREAD.with(|t| t.borrow().sink.clone()).unwrap_or_default()
}

/// Discards everything the calling thread recorded (counters,
/// histograms, spans, events).
pub fn reset() {
    *sink().lock().expect("telemetry lock") = Collector::default();
}

/// A recording thread's sink, for a pool worker it spawns to record
/// into: capture it on the spawning thread, enter it on the worker.
/// Empty — and free — when the capturing thread is not recording.
pub struct Handoff(Option<Sink>);

impl Handoff {
    /// Captures the calling thread's sink. One relaxed load and nothing
    /// allocated while no thread is recording.
    pub fn capture() -> Handoff {
        if RECORDING_THREADS.load(Ordering::Relaxed) == 0 {
            return Handoff(None);
        }
        Handoff(THREAD.with(|t| {
            let t = t.borrow();
            t.sink.clone().filter(|_| t.recording)
        }))
    }

    /// Runs `f` with the calling thread recording into the captured
    /// sink, then restores its own state (also on panic). Just `f()` when
    /// the handoff is empty or the thread already records into that sink
    /// — the one it was captured on.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Sink>, bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD.with(|t| {
                    let mut t = t.borrow_mut();
                    t.sink = self.0.take();
                    t.set_recording(self.1);
                });
            }
        }
        let Some(sink) = &self.0 else {
            return f();
        };
        let _restore = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            if t.recording && t.sink.as_ref().is_some_and(|s| Arc::ptr_eq(s, sink)) {
                return None;
            }
            Some(Restore(
                t.sink.replace(Arc::clone(sink)),
                t.set_recording(true),
            ))
        });
        f()
    }
}

/// A typed argument value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text.
    Str(String),
    /// Float.
    F64(f64),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => json::write_escaped(out, s),
            Value::F64(v) => json::write_number(out, *v),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident via $conv:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                #[allow(clippy::redundant_closure_call)]
                Value::$variant(($conv)(v))
            }
        }
    )*};
}

value_from! {
    String => Str via |v| v,
    &str => Str via |v: &str| v.to_string(),
    &String => Str via |v: &String| v.clone(),
    f64 => F64 via |v| v,
    f32 => F64 via |v: f32| v as f64,
    u64 => U64 via |v| v,
    u32 => U64 via |v: u32| v as u64,
    usize => U64 via |v: usize| v as u64,
    i64 => I64 via |v| v,
    i32 => I64 via |v: i32| v as i64,
    bool => Bool via |v| v,
}

/// A log2-bucketed histogram with count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// The bucket index a value falls into.
pub fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        return 0;
    }
    (value.log2().floor() as i32 + BUCKET_BIAS).clamp(0, N_BUCKETS as i32 - 1) as usize
}

/// The lower bound of bucket `i` (inverse of [`bucket_index`]).
pub fn bucket_low(i: usize) -> f64 {
    2f64.powi(i as i32 - BUCKET_BIAS)
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the observed distribution,
    /// linearly interpolated inside the log2 bucket the quantile rank
    /// falls into and clamped to the exact observed `[min, max]` range.
    /// Returns 0 for an empty histogram.
    ///
    /// Because buckets are powers of two, the interpolation error is
    /// bounded by the bucket width (a factor of 2); the min/max clamp
    /// makes the extreme quantiles exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        if q == 0.0 {
            return self.min;
        }
        // Nearest-rank target: the k-th smallest observation with
        // k = ceil(q * count), clamped to [1, count].
        let target = (q * self.count as f64).ceil().max(1.0);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let through = below + n;
            if (through as f64) >= target {
                let lo = bucket_low(i);
                let hi = lo * 2.0;
                // Fraction of this bucket's observations at or below the
                // target rank, assuming a uniform spread inside the bucket.
                let frac = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
                let v = lo + (hi - lo) * frac;
                return v.clamp(self.min, self.max);
            }
            below = through;
        }
        self.max
    }

    /// Folds another histogram in. Merging is commutative and associative
    /// (up to float summation order in `sum`).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    /// A span: wall-clock complete event ("X").
    Complete { dur_us: f64 },
    /// A point-in-time record ("i").
    Instant,
    /// A slice on the simulated-time process.
    SimSlice { dur_us: f64 },
    /// A virtual-time slice on the observability process (pid 3) —
    /// deterministic per run, unlike wall-clock spans.
    ObsSlice { dur_us: f64 },
    /// A virtual-time instant on the observability process.
    ObsInstant,
    /// A wall-clock busy slice on the worker-pool process (pid 4); the
    /// tid is the worker's *index within its region*, so consecutive
    /// regions stack onto stable per-worker tracks.
    WorkerSlice { dur_us: f64 },
}

impl EventKind {
    /// Whether this event is stamped purely in virtual time (and thus
    /// survives deterministic export).
    fn is_virtual(&self) -> bool {
        matches!(self, EventKind::ObsSlice { .. } | EventKind::ObsInstant)
    }
}

/// What the exporters include.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportMode {
    /// Everything: wall-clock spans, instants, simulated-time slices,
    /// observability events and windowed series.
    #[default]
    Full,
    /// Only data stamped in *virtual* time — observability events, their
    /// track names and windowed series. Byte-identical across runs with
    /// identical inputs, which is what regression tests diff.
    Deterministic,
}

#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    /// Index into the collector's interned-name table — long runs repeat
    /// a handful of span names millions of times, so events store 4
    /// bytes instead of an owned `String`.
    name: u32,
    ts_us: f64,
    tid: u64,
    depth: u32,
    kind: EventKind,
    args: Vec<(&'static str, Value)>,
}

/// Counter/histogram registries, detachable from a thread's sink for
/// merging and testing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Named monotonic counters.
    pub counters: HashMap<String, u64>,
    /// Named histograms.
    pub histograms: HashMap<String, Histogram>,
}

impl Metrics {
    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// The current value of a counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram under `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` in. Counter-wise addition and histogram merge, so the
    /// result is independent of merge order (see the property tests).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[derive(Debug, Default)]
struct Collector {
    metrics: Metrics,
    events: Vec<TraceEvent>,
    /// Track-name metadata for the observability process, in
    /// registration order: `(track id, name)`.
    obs_tracks: Vec<(u64, String)>,
    /// Windowed virtual-time series merged in at run end.
    windowed: Vec<windowed::WindowedSeries>,
    /// Interned event names; `TraceEvent::name` indexes into this.
    names: Vec<String>,
    /// Reverse lookup for [`Collector::intern`].
    name_ids: HashMap<String, u32>,
    /// The first incident snapshot of the run (a self-contained JSON
    /// document the serving flight recorder dumps when an SLO burn-rate
    /// alert fires). First-wins: the state *at the first alert* is the
    /// postmortem-relevant one.
    incident: Option<String>,
    /// How far [`sim_window`] has reserved the simulated-time axis,
    /// integer nanoseconds.
    sim_clock_ns: u64,
}

impl Collector {
    /// Interns `name`, returning its stable index.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// The interned string for an event's name index.
    fn name(&self, ev: &TraceEvent) -> &str {
        &self.names[ev.name as usize]
    }

    /// Appends a depth-0 event.
    fn push(
        &mut self,
        name: &str,
        ts_us: f64,
        tid: u64,
        kind: EventKind,
        args: Vec<(&'static str, Value)>,
    ) {
        let name = self.intern(name);
        self.events.push(TraceEvent {
            name,
            ts_us,
            tid,
            depth: 0,
            kind,
            args,
        });
    }
}

/// Selects what the calling thread's [`render_chrome_trace`] /
/// [`render_prometheus`] include. Defaults to [`ExportMode::Full`].
pub fn set_export_mode(mode: ExportMode) {
    THREAD.with(|t| t.borrow_mut().export_mode = mode);
}

/// The calling thread's export mode.
pub fn export_mode() -> ExportMode {
    THREAD.with(|t| t.borrow().export_mode)
}

/// Adds `delta` to the counter `name`. No-op while disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    record(|c| c.metrics.add(name, delta));
}

/// Records `value` into the histogram `name`. No-op while disabled.
#[inline]
pub fn histogram(name: &str, value: f64) {
    record(|c| c.metrics.observe(name, value));
}

/// Folds a locally accumulated [`Metrics`] into the sink in one lock
/// acquisition — the cheap way for hot loops to batch updates.
pub fn merge_metrics(local: &Metrics) {
    record(|c| c.metrics.merge(local));
}

/// An RAII guard recording a span from construction to drop.
#[must_use = "a span guard records its duration when dropped"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    /// The sink the span was opened under, so it lands there whatever
    /// the thread's state is by the time it drops.
    sink: Sink,
    name: String,
    args: Vec<(&'static str, Value)>,
    start_us: f64,
    tid: u64,
    depth: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        THREAD.with(|t| t.borrow_mut().depth = span.depth);
        let dur_us = now_us() - span.start_us;
        let mut c = span.sink.lock().expect("telemetry lock");
        let name = c.intern(&span.name);
        c.events.push(TraceEvent {
            name,
            ts_us: span.start_us,
            tid: span.tid,
            depth: span.depth,
            kind: EventKind::Complete { dur_us },
            args: span.args,
        });
    }
}

/// Opens a span; prefer the [`span!`] macro. `args` is only invoked when
/// telemetry is enabled.
pub fn enter_span(name: &str, args: impl FnOnce() -> Vec<(&'static str, Value)>) -> SpanGuard {
    if RECORDING_THREADS.load(Ordering::Relaxed) == 0 {
        return SpanGuard { active: None };
    }
    let opened = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let sink = t.sink.clone().filter(|_| t.recording)?;
        t.depth += 1;
        Some((sink, t.tid, t.depth - 1))
    });
    let Some((sink, tid, depth)) = opened else {
        return SpanGuard { active: None };
    };
    SpanGuard {
        active: Some(ActiveSpan {
            sink,
            name: name.to_string(),
            args: args(),
            start_us: now_us(),
            tid,
            depth,
        }),
    }
}

/// Records an instant event; prefer the [`event!`] macro. `args` is only
/// invoked when telemetry is enabled.
pub fn record_event(name: &str, args: impl FnOnce() -> Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    let tid = THREAD.with(|t| t.borrow().tid);
    let ts_us = now_us();
    let args = args();
    record(|c| c.push(name, ts_us, tid, EventKind::Instant, args));
}

/// Reserves `dur_us` simulated microseconds on the sink's simulated-time
/// axis and returns the window's start offset (0 while disabled).
/// Consecutive kernel launches reserve their windows up front so their
/// [`sim_slice`] timelines lay out end-to-end instead of all overlapping
/// at zero.
pub fn sim_window(dur_us: f64) -> f64 {
    let ns = (dur_us.max(0.0) * 1e3).ceil() as u64;
    let mut start_ns = 0;
    record(|c| {
        start_ns = c.sim_clock_ns;
        c.sim_clock_ns += ns;
    });
    start_ns as f64 / 1e3
}

/// Places a slice on the simulated-time process (pid 2): `track` becomes
/// the tid (e.g. one per SM), `ts_us`/`dur_us` are in *simulated*
/// microseconds. No-op while disabled.
pub fn sim_slice(name: &str, track: u64, ts_us: f64, dur_us: f64) {
    record(|c| {
        c.push(
            name,
            ts_us,
            track,
            EventKind::SimSlice { dur_us },
            Vec::new(),
        )
    });
}

/// Names a track on the observability process (pid 3) — e.g. one track
/// per GPU and one per workload. Registration order is preserved, so a
/// deterministic caller yields a deterministic export. No-op while
/// disabled; re-registering a track overwrites its name.
pub fn obs_track_name(track: u64, name: &str) {
    record(|c| {
        if let Some(entry) = c.obs_tracks.iter_mut().find(|(t, _)| *t == track) {
            entry.1 = name.to_string();
        } else {
            c.obs_tracks.push((track, name.to_string()));
        }
    });
}

/// Places a slice on the observability process (pid 3): `ts_us`/`dur_us`
/// are in *virtual* microseconds, so the event is a pure function of the
/// simulation inputs and survives [`ExportMode::Deterministic`] export.
/// `args` is only invoked when telemetry is enabled.
pub fn obs_slice(
    name: &str,
    track: u64,
    ts_us: f64,
    dur_us: f64,
    args: impl FnOnce() -> Vec<(&'static str, Value)>,
) {
    if !enabled() {
        return;
    }
    let args = args();
    record(|c| c.push(name, ts_us, track, EventKind::ObsSlice { dur_us }, args));
}

/// Records a virtual-time instant on the observability process (pid 3).
/// `args` is only invoked when telemetry is enabled.
pub fn obs_instant(
    name: &str,
    track: u64,
    ts_us: f64,
    args: impl FnOnce() -> Vec<(&'static str, Value)>,
) {
    if !enabled() {
        return;
    }
    let args = args();
    record(|c| c.push(name, ts_us, track, EventKind::ObsInstant, args));
}

/// Places a wall-clock busy slice on the worker-pool process (pid 4):
/// `worker` is the worker's index within its parallel region, so every
/// region's slices stack onto the same small set of per-worker tracks
/// ("worker 0", "worker 1", …) and pool utilisation reads directly off
/// the timeline. `start` must not predate the telemetry epoch (the pool
/// only calls this for regions that began after recording was enabled;
/// earlier starts clamp to 0). No-op while disabled; dropped by
/// [`ExportMode::Deterministic`] export like all wall-clock data.
pub fn worker_slice(name: &str, worker: u64, start: Instant, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let ts_us = start
        .checked_duration_since(epoch())
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0);
    let dur_us = dur_ns as f64 / 1e3;
    record(|c| {
        c.push(
            name,
            ts_us,
            worker,
            EventKind::WorkerSlice { dur_us },
            Vec::new(),
        )
    });
}

/// Stores an incident snapshot (a self-contained JSON document) in the
/// sink. First-wins: later calls in the same run are ignored, so the
/// snapshot always describes the state at the *first* alert. No-op while
/// disabled.
pub fn record_incident(snapshot: String) {
    record(|c| {
        c.incident.get_or_insert(snapshot);
    });
}

/// The incident snapshot recorded this run, if any alert fired.
pub fn incident() -> Option<String> {
    sink().lock().expect("telemetry lock").incident.clone()
}

/// Merges a windowed virtual-time series into the sink for export
/// (Chrome counter track, Prometheus totals).
/// No-op while disabled.
pub fn merge_windowed(series: &windowed::WindowedSeries) {
    if !series.is_empty() {
        record(|c| c.windowed.push(series.clone()));
    }
}

/// Opens a timed span guard: `span!("name")` or
/// `span!("name", key = value, ...)`. Argument expressions are not
/// evaluated while telemetry is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter_span($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::enter_span($name, || ::std::vec![
            $((::std::stringify!($k), $crate::Value::from($v))),+
        ])
    };
}

/// Records an instant event: `event!("name", key = value, ...)`. Argument
/// expressions are not evaluated while telemetry is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::record_event($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::record_event($name, || ::std::vec![
            $((::std::stringify!($k), $crate::Value::from($v))),+
        ])
    };
}

/// A copy of the calling thread's counter/histogram registries.
pub fn snapshot() -> Metrics {
    sink().lock().expect("telemetry lock").metrics.clone()
}

/// Appends an args list as one JSON object, keys in list order — the
/// `"args"` of every trace event and flight record, and the form any
/// other sink should use for the same list.
pub fn write_args(out: &mut String, args: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// Renders the Chrome trace-event document. Under
/// [`ExportMode::Deterministic`] only virtual-time data is included
/// (observability events, their track names, windowed counter tracks), so
/// the document is byte-identical across runs with identical simulation
/// inputs.
pub fn render_chrome_trace() -> String {
    let sink = sink();
    let c = sink.lock().expect("telemetry lock");
    let mode = export_mode();
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push_event = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    // Process-name metadata so Perfetto labels the tracks.
    let processes: &[(u64, &str)] = match mode {
        ExportMode::Full => &[
            (1, "wall clock"),
            (2, "simulated time"),
            (3, "serving (virtual time)"),
        ],
        ExportMode::Deterministic => &[(3, "serving (virtual time)")],
    };
    for &(pid, label) in processes {
        push_event(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ),
            &mut out,
        );
    }
    if mode == ExportMode::Full {
        // Worker-pool process plus one named track per worker index,
        // only when any pool slices were recorded.
        let mut workers: Vec<u64> = c
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WorkerSlice { .. }))
            .map(|e| e.tid)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        if !workers.is_empty() {
            push_event(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"tid\":0,\
                 \"args\":{\"name\":\"worker pool\"}}"
                    .to_string(),
                &mut out,
            );
            for w in workers {
                push_event(
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":4,\"tid\":{w},\
                         \"args\":{{\"name\":\"worker {w}\"}}}}"
                    ),
                    &mut out,
                );
            }
        }
    }
    for (tid, name) in &c.obs_tracks {
        let mut line = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":{tid},\"args\":{{\"name\":"
        );
        json::write_escaped(&mut line, name);
        line.push_str("}}");
        push_event(line, &mut out);
    }
    // Repeated event names are emitted as `"#<table index>"` references
    // into one string-table metadata event — long runs repeat a handful
    // of span names millions of times, and the references keep the file
    // small. Table indices are assigned in first-emission order over the
    // *mode-filtered* stream, so deterministic exports stay byte-identical
    // across runs regardless of wall-clock event interleaving.
    let emitted = |ev: &TraceEvent| mode == ExportMode::Full || ev.kind.is_virtual();
    let mut counts = vec![0u32; c.names.len()];
    let mut order: Vec<u32> = Vec::new();
    for ev in c.events.iter().filter(|e| emitted(e)) {
        if counts[ev.name as usize] == 0 {
            order.push(ev.name);
        }
        counts[ev.name as usize] += 1;
    }
    let mut refs: HashMap<u32, usize> = HashMap::new();
    for id in order {
        let name = &c.names[id as usize];
        if counts[id as usize] >= INTERN_MIN_COUNT
            && name.len() >= INTERN_MIN_LEN
            && !name.starts_with('#')
        {
            let k = refs.len();
            refs.insert(id, k);
        }
    }
    if !refs.is_empty() {
        let mut table: Vec<(usize, u32)> = refs.iter().map(|(&id, &k)| (k, id)).collect();
        table.sort_unstable();
        let mut line = String::from(
            "{\"name\":\"trace_string_table\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{",
        );
        for (k, id) in table {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{k}\":"));
            json::write_escaped(&mut line, &c.names[id as usize]);
        }
        line.push_str("}}");
        push_event(line, &mut out);
    }
    for ev in c.events.iter().filter(|e| emitted(e)) {
        let mut line = String::from("{\"name\":");
        match refs.get(&ev.name) {
            Some(k) => json::write_escaped(&mut line, &format!("#{k}")),
            None => json::write_escaped(&mut line, c.name(ev)),
        }
        let (ph, pid, dur) = match ev.kind {
            EventKind::Complete { dur_us } => ("X", 1, Some(dur_us)),
            EventKind::Instant => ("i", 1, None),
            EventKind::SimSlice { dur_us } => ("X", 2, Some(dur_us)),
            EventKind::ObsSlice { dur_us } => ("X", 3, Some(dur_us)),
            EventKind::ObsInstant => ("i", 3, None),
            EventKind::WorkerSlice { dur_us } => ("X", 4, Some(dur_us)),
        };
        line.push_str(&format!(
            ",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{}",
            ev.tid
        ));
        line.push_str(",\"ts\":");
        json::write_number(&mut line, ev.ts_us);
        if let Some(d) = dur {
            line.push_str(",\"dur\":");
            json::write_number(&mut line, d.max(0.0));
        }
        if matches!(ev.kind, EventKind::Instant | EventKind::ObsInstant) {
            line.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() {
            line.push_str(",\"args\":");
            write_args(&mut line, &ev.args);
        }
        line.push('}');
        push_event(line, &mut out);
    }
    // Windowed series plot as counter tracks on the virtual-time process:
    // one "C" sample per window at the window's start, a histogram's
    // carrying its count, mean and interpolated quantiles.
    for series in &c.windowed {
        for rec in series.records() {
            let mut line = String::from("{\"name\":");
            if rec.label.is_empty() {
                json::write_escaped(&mut line, rec.name);
            } else {
                json::write_escaped(&mut line, &format!("{} [{}]", rec.name, rec.label));
            }
            line.push_str(",\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":");
            json::write_number(&mut line, rec.start_s * 1e6);
            line.push_str(",\"args\":{");
            match rec.value {
                windowed::WindowValue::Count(v) => {
                    line.push_str(&format!("\"value\":{v}"));
                }
                windowed::WindowValue::Hist(h) => {
                    line.push_str(&format!("\"count\":{},\"mean\":", h.count));
                    json::write_number(&mut line, h.mean());
                    for (key, q) in prom::QUANTILES {
                        line.push_str(&format!(",\"{key}\":"));
                        json::write_number(&mut line, h.quantile(q));
                    }
                }
            }
            line.push_str("}}");
            push_event(line, &mut out);
        }
    }
    out.push_str("\n]\n");
    out
}

/// One event of a rendered Chrome trace, as [`read_chrome_trace`] hands
/// it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord<'a> {
    /// Event name, `#k` string-table references already resolved.
    pub name: &'a str,
    /// Phase: `"X"` slice, `"i"` instant, `"C"` counter sample, `"M"`
    /// metadata (process / track names, the string table).
    pub ph: &'a str,
    /// Process: 1 wall clock, 2 simulated time, 3 serving (virtual time),
    /// 4 worker pool; 0 carries only the string table.
    pub pid: u64,
    /// Track within the process.
    pub tid: u64,
    /// Timestamp, µs on the process's own clock (0 on metadata).
    pub ts_us: f64,
    /// Duration of an `"X"` slice, µs (0 on every other phase).
    pub dur_us: f64,
    /// The event's `args` object; [`JsonValue::Null`](json::JsonValue)
    /// when it has none, so typed lookups on it simply miss.
    pub args: &'a json::JsonValue,
}

/// Reads back what [`render_chrome_trace`] wrote — the one place outside
/// the writer that knows the array shape, the string table and the pid
/// numbering. What the writer always emits is required, and its absence
/// is an error naming the event rather than a default: every event needs
/// a string `name` and `ph` and integer `pid` / `tid`, every event but
/// metadata a `ts`, every `"X"` slice a `dur`. `args` is optional (the
/// writer omits an empty list), and a name that is not a key of the
/// string table stands for itself.
///
/// # Errors
///
/// Returns a message when the document is not a trace-event array or an
/// event lacks a required field.
pub fn read_chrome_trace(doc: &json::JsonValue) -> Result<Vec<TraceRecord<'_>>, String> {
    static NO_ARGS: json::JsonValue = json::JsonValue::Null;
    let events = doc
        .as_array()
        .ok_or_else(|| "trace is not a JSON array".to_string())?;
    let mut table: HashMap<String, &str> = HashMap::new();
    for ev in events {
        if ev.str_at("name") == Some("trace_string_table") {
            if let Some(json::JsonValue::Object(args)) = ev.get("args") {
                for (k, v) in args {
                    if let Some(name) = v.as_str() {
                        table.insert(format!("#{k}"), name);
                    }
                }
            }
        }
    }
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let missing = |field: &str| format!("trace event {i} has no valid \"{field}\"");
        let raw = ev.str_at("name").ok_or_else(|| missing("name"))?;
        let ph = ev.str_at("ph").ok_or_else(|| missing("ph"))?;
        let required = |field: &str| ev.f64_at(field).ok_or_else(|| missing(field));
        out.push(TraceRecord {
            name: table.get(raw).copied().unwrap_or(raw),
            ph,
            pid: ev.u64_at("pid").ok_or_else(|| missing("pid"))?,
            tid: ev.u64_at("tid").ok_or_else(|| missing("tid"))?,
            ts_us: if ph == "M" { 0.0 } else { required("ts")? },
            dur_us: if ph == "X" { required("dur")? } else { 0.0 },
            args: ev.get("args").unwrap_or(&NO_ARGS),
        });
    }
    Ok(out)
}

/// Renders the Prometheus text exposition (see [`prom`]). Under
/// [`ExportMode::Deterministic`] only the windowed virtual-time series
/// are exposed, since the wall-clock counters/histograms vary across
/// runs.
pub fn render_prometheus() -> String {
    let sink = sink();
    let c = sink.lock().expect("telemetry lock");
    match export_mode() {
        ExportMode::Full => prom::render(&c.metrics, &c.windowed),
        ExportMode::Deterministic => prom::render(&Metrics::default(), &c.windowed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        set_enabled(false);
        reset();
        counter("x", 5);
        histogram("h", 1.0);
        let _s = span!("s", a = 1u64);
        drop(_s);
        event!("e", b = 2u64);
        assert_eq!(snapshot(), Metrics::default());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        set_enabled(true);
        reset();
        counter("c", 2);
        counter("c", 3);
        histogram("h", 0.5);
        histogram("h", 8.0);
        let m = snapshot();
        set_enabled(false);
        assert_eq!(m.counter_value("c"), 5);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 8.0);
        assert!((h.mean() - 4.25).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        set_enabled(true);
        reset();
        {
            let _outer = span!("outer");
            let _inner = span!("inner", layer = "CONV2");
        }
        let trace = render_chrome_trace();
        set_enabled(false);
        assert!(trace.contains("\"name\":\"outer\",\"ph\":\"X\""));
        let doc = json::parse(&trace).expect("valid chrome trace");
        let events = doc.as_array().unwrap();
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("inner"))
            .unwrap();
        assert_eq!(inner.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            inner.get("args").unwrap().get("layer").unwrap().as_str(),
            Some("CONV2")
        );
    }

    #[test]
    fn bucket_index_roundtrips_bounds() {
        for i in 1..N_BUCKETS - 1 {
            let lo = bucket_low(i);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(lo * 1.999), i, "inside bucket {i}");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        assert_eq!(bucket_index(1e300), N_BUCKETS - 1);
    }

    #[test]
    fn sim_slices_land_on_pid_2() {
        set_enabled(true);
        reset();
        sim_slice("SM0 wave", 0, 10.0, 25.0);
        let trace = render_chrome_trace();
        set_enabled(false);
        let doc = json::parse(&trace).unwrap();
        let slice = doc
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("SM0 wave"))
            .unwrap();
        assert_eq!(slice.get("pid").unwrap().as_f64(), Some(2.0));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(25.0));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        // Extremes are exact thanks to the min/max clamp.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 4.0);
        // Interior quantiles stay within the bucket the rank falls into:
        // rank 2 of 4 lands in bucket [2, 4).
        let p50 = h.quantile(0.5);
        assert!((2.0..4.0).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.75) >= p50);
        // Bad q clamps instead of panicking.
        assert_eq!(h.quantile(f64::NAN), 4.0);
        assert_eq!(h.quantile(-1.0), 1.0);
        assert_eq!(h.quantile(2.0), 4.0);
    }

    #[test]
    fn quantile_single_value_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(3.0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.0);
        }
    }

    #[test]
    fn quantile_bounded_by_bucket_width() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0); // 0.01 .. 10.0
        }
        // Exact p90 is 9.0; the log2-interpolated estimate must stay
        // within the containing bucket [8, 16) ∩ [min, max].
        let p90 = h.quantile(0.9);
        assert!((8.0..=10.0).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn obs_events_land_on_pid_3_and_survive_deterministic_export() {
        set_enabled(true);
        reset();
        set_export_mode(ExportMode::Full);
        obs_track_name(7, "gpu0 (K20)");
        obs_slice("req 3: queue", 7, 100.0, 50.0, || {
            vec![("batch", Value::U64(2))]
        });
        obs_instant("slo.alert", 7, 150.0, || vec![("budget", Value::F64(0.5))]);
        let _wall = span!("wall.span");
        drop(_wall);
        event!("wall.event");
        let mut w = WindowedSeries::new(0.001);
        w.add(0.0001, "serve.throughput", "interactive", 4);
        merge_windowed(&w);

        let full = render_chrome_trace();
        set_export_mode(ExportMode::Deterministic);
        let det = render_chrome_trace();
        set_export_mode(ExportMode::Full);
        set_enabled(false);

        let doc = json::parse(&full).unwrap();
        let events = doc.as_array().unwrap();
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("req 3: queue"))
            .unwrap();
        assert_eq!(slice.get("pid").unwrap().as_f64(), Some(3.0));
        assert_eq!(slice.get("tid").unwrap().as_f64(), Some(7.0));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(50.0));
        assert!(full.contains("gpu0 (K20)"));
        assert!(full.contains("wall.span"));
        assert!(full.contains("serve.throughput [interactive]"));

        // Deterministic export drops every wall-clock event but keeps the
        // virtual-time ones.
        assert!(!det.contains("wall.span"));
        assert!(!det.contains("wall.event"));
        assert!(det.contains("req 3: queue"));
        assert!(det.contains("slo.alert"));
        assert!(det.contains("gpu0 (K20)"));
        assert!(det.contains("\"ph\":\"C\""));
    }

    #[test]
    fn windowed_series_render_in_trace_and_prometheus() {
        set_enabled(true);
        reset();
        set_export_mode(ExportMode::Full);
        let mut w = WindowedSeries::new(0.25);
        w.add(0.1, "serve.deadline_hits", "real_time", 3);
        w.observe(0.1, "serve.latency_s", "real_time", 0.02);
        w.observe(0.3, "serve.latency_s", "real_time", 0.04);
        merge_windowed(&w);
        let trace = render_chrome_trace();
        let prom_doc = render_prometheus();
        set_enabled(false);
        assert!(trace.contains(
            "{\"name\":\"serve.deadline_hits [real_time]\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
             \"ts\":0,\"args\":{\"value\":3}}"
        ));
        // One sample per window, each with its own quantiles.
        let doc = json::parse(&trace).unwrap();
        let records = read_chrome_trace(&doc).unwrap();
        let latency: Vec<_> = records
            .iter()
            .filter(|r| r.name == "serve.latency_s [real_time]")
            .collect();
        assert_eq!(latency.len(), 2);
        assert_eq!(latency[1].ts_us, 0.25e6);
        assert_eq!(latency[1].args.u64_at("count"), Some(1));
        assert_eq!(latency[1].args.f64_at("p99"), Some(0.04));
        assert!(prom_doc.contains("serve_deadline_hits{label=\"real_time\"} 3"));
        assert!(prom_doc.contains("serve_latency_s_count{label=\"real_time\"} 2"));
    }

    #[test]
    fn repeated_names_are_interned_via_a_string_table() {
        set_enabled(true);
        reset();
        for i in 0..50 {
            sim_slice("a.very.repetitive.span.name", 0, i as f64, 1.0);
        }
        sim_slice("once", 0, 0.0, 1.0);
        let trace = render_chrome_trace();
        set_enabled(false);
        // The long repeated name appears exactly once — in the table;
        // every event line carries the reference instead.
        assert_eq!(trace.matches("a.very.repetitive.span.name").count(), 1);
        assert!(trace.contains("trace_string_table"));
        assert_eq!(trace.matches("\"name\":\"#0\"").count(), 50);
        // Short or rare names stay literal.
        assert_eq!(trace.matches("\"once\"").count(), 1);
        // The document stays valid JSON and the reader hands both kinds
        // of name back resolved, with the writer's pid / µs / dur.
        let doc = json::parse(&trace).unwrap();
        let records = read_chrome_trace(&doc).unwrap();
        let slices: Vec<_> = records.iter().filter(|r| r.ph == "X").collect();
        assert_eq!(slices.len(), 51);
        let interned = |r: &&&TraceRecord| r.name == "a.very.repetitive.span.name";
        assert_eq!(slices.iter().filter(interned).count(), 50);
        let once = slices
            .iter()
            .find(|r| r.name == "once")
            .expect("literal name");
        assert_eq!(
            (once.pid, once.tid, once.ts_us, once.dur_us),
            (2, 0, 0.0, 1.0)
        );
        assert_eq!(
            once.args.f64_at("anything"),
            None,
            "no args reads as a miss"
        );
        assert!(records
            .iter()
            .any(|r| r.ph == "M" && r.name == "process_name"));
        // What the writer always emits is required of a document.
        for (damaged, field) in [
            (trace.replacen("\"ph\":\"X\"", "\"pi\":\"X\"", 1), "ph"),
            (trace.replacen(",\"dur\":1", "", 1), "dur"),
            (
                trace.replacen("\"tid\":0,\"ts\"", "\"tid\":-1,\"ts\"", 1),
                "tid",
            ),
        ] {
            let err = read_chrome_trace(&json::parse(&damaged).unwrap()).unwrap_err();
            assert!(err.contains(&format!("\"{field}\"")), "{err}");
        }
        assert!(read_chrome_trace(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn interned_trace_size_stays_bounded_and_empty_args_are_omitted() {
        set_enabled(true);
        reset();
        const N: usize = 1000;
        for i in 0..N {
            sim_slice("pcnn.repeated.region.name", 3, i as f64, 2.0);
        }
        let trace = render_chrome_trace();
        set_enabled(false);
        assert!(!trace.contains("\"args\":{}"), "empty args not omitted");
        // Size regression bound: with referenced names and no empty args
        // objects a repeated slice costs well under 80 bytes; the
        // pre-interning encoding was over 100.
        let bytes_per_event = trace.len() / N;
        assert!(bytes_per_event < 80, "bytes/event = {bytes_per_event}");
        json::parse(&trace).expect("valid chrome trace");
    }

    #[test]
    fn worker_slices_land_on_pid_4_with_named_tracks() {
        set_enabled(true);
        reset();
        let t0 = Instant::now();
        worker_slice("gemm", 0, t0, 1500);
        worker_slice("gemm", 1, t0, 2500);
        let full = render_chrome_trace();
        set_export_mode(ExportMode::Deterministic);
        let det = render_chrome_trace();
        set_export_mode(ExportMode::Full);
        set_enabled(false);
        assert!(full.contains("\"name\":\"worker pool\""));
        assert!(full.contains("\"name\":\"worker 1\""));
        let doc = json::parse(&full).unwrap();
        let slice = doc
            .as_array()
            .unwrap()
            .iter()
            .find(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("gemm")
                    && e.get("tid").and_then(|t| t.as_f64()) == Some(1.0)
            })
            .expect("worker slice");
        assert_eq!(slice.get("pid").unwrap().as_f64(), Some(4.0));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(2.5));
        // Wall-clock data: dropped from deterministic export.
        assert!(!det.contains("worker pool"));
    }

    #[test]
    fn incident_snapshot_is_first_wins_and_gated_on_enabled() {
        set_enabled(false);
        reset();
        record_incident("{\"dropped\":true}".to_string());
        assert_eq!(incident(), None);
        set_enabled(true);
        record_incident("{\"first\":true}".to_string());
        record_incident("{\"second\":true}".to_string());
        let snap = incident();
        set_enabled(false);
        assert_eq!(snap.as_deref(), Some("{\"first\":true}"));
        reset();
        assert_eq!(incident(), None);
    }

    #[test]
    fn concurrent_recorders_and_a_bystander_stay_apart() {
        // Three rendezvous: everyone is live before anyone records, and
        // everyone has recorded before anyone reads.
        let barrier = std::sync::Barrier::new(3);
        let record = |name: &str, n: u64| {
            set_enabled(true);
            barrier.wait();
            counter(name, n);
            histogram(name, n as f64);
            drop(span!(name));
            event!(name);
            barrier.wait();
            set_enabled(false);
            (snapshot(), render_chrome_trace())
        };
        let (a, b, bystander) = std::thread::scope(|s| {
            let a = s.spawn(|| record("tenant.a", 3));
            let b = s.spawn(|| record("tenant.b", 5));
            let bystander = s.spawn(|| {
                barrier.wait();
                assert!(!enabled());
                counter("bystander", 1);
                drop(span!("bystander"));
                barrier.wait();
                (snapshot(), render_chrome_trace())
            });
            (
                a.join().unwrap(),
                b.join().unwrap(),
                bystander.join().unwrap(),
            )
        });
        assert_eq!(bystander.0, Metrics::default());
        for ((metrics, trace), own, n, other) in [
            (a, "tenant.a", 3, "tenant.b"),
            (b, "tenant.b", 5, "tenant.a"),
        ] {
            assert_eq!(metrics.counters.len(), 1, "a neighbour's counter leaked in");
            assert_eq!(metrics.counter_value(own), n);
            assert_eq!(metrics.histograms.len(), 1);
            assert!(trace.contains(&format!("\"name\":\"{own}\",\"ph\":\"X\"")));
            assert!(trace.contains(&format!("\"name\":\"{own}\",\"ph\":\"i\"")));
            assert!(!trace.contains(other) && !trace.contains("bystander"));
        }
    }

    #[test]
    fn handoff_records_into_the_spawner_and_ends_with_its_closure() {
        // Captured while not recording: empty, whatever happens later.
        set_enabled(false);
        let empty = Handoff::capture();
        set_enabled(true);
        reset();
        let handoff = Handoff::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled(), "a fresh thread records nothing");
                empty.enter(|| counter("worker", 100));
                handoff.enter(|| {
                    assert!(enabled());
                    counter("worker", 2);
                    drop(span!("worker.span"));
                });
                // Non-recording again once the closure returned.
                assert!(!enabled());
                counter("worker", 100);
                assert_eq!(snapshot(), Metrics::default());
            });
        });
        // On the thread it was captured on, entering changes nothing: same
        // sink, and what the closure switches stays switched.
        handoff.enter(|| counter("spawner", 1));
        assert!(enabled());
        handoff.enter(|| set_enabled(false));
        assert!(!enabled());
        let m = snapshot();
        assert_eq!(m.counter_value("worker"), 2);
        assert_eq!(m.counter_value("spawner"), 1);
        assert!(render_chrome_trace().contains("worker.span"));
    }

    #[test]
    fn sim_windows_lay_out_end_to_end_per_sink() {
        set_enabled(false);
        assert_eq!(sim_window(5.0), 0.0);
        assert_eq!(sim_window(5.0), 0.0, "a disabled thread reserves nothing");
        set_enabled(true);
        reset();
        assert_eq!(sim_window(2.0), 0.0);
        assert_eq!(sim_window(3.0), 2.0);
        reset();
        assert_eq!(sim_window(1.0), 0.0);
        set_enabled(false);
    }

    #[test]
    fn merge_metrics_batches_into_global() {
        set_enabled(true);
        reset();
        let mut local = Metrics::default();
        local.add("batched", 7);
        local.observe("lat", 2.0);
        merge_metrics(&local);
        merge_metrics(&local);
        let m = snapshot();
        set_enabled(false);
        assert_eq!(m.counter_value("batched"), 14);
        assert_eq!(m.histogram("lat").unwrap().count, 2);
    }
}
