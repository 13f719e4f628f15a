//! `pcnn obs` — trace analysis and baseline regression gating.
//!
//! Two halves:
//!
//! * [`analyze_trace`] / [`analyze_route`] consume an exported Chrome
//!   trace (the pid-3 virtual-time observability events written by
//!   `pcnn serve` under `PCNN_TRACE`) and compute per-workload
//!   queueing-vs-service breakdowns, the per-request critical path, the
//!   SLO alert log and the routing audit trail. They own no format: the
//!   events come from [`pcnn_telemetry::read_chrome_trace`], the alert
//!   and decision records from their writer's crate
//!   ([`pcnn_serve::obs`]), as does the incident snapshot's parser.
//! * `pcnn obs check` holds each committed `BENCH_*.json` to one check.
//!   The deterministic documents (serve, fleet, profile: outputs of the
//!   simulator or of the fixed reference roofline) must regenerate byte
//!   for byte; [`first_difference`] names the first line that moved.
//!   The wall-clock documents are banded: [`compare_gemm`] /
//!   [`compare_conv`] floor machine-normalised speedup ratios, never
//!   absolute GFLOP/s or milliseconds, and [`gate_conv_model`] bounds the
//!   conv tuner's cost-model error on the candidate.
//!
//! When a gate fails, [`diff_documents`] (`pcnn obs diff <a> <b>`)
//! attributes the top-level time delta between two profile documents
//! down the layer/phase tree — or between two Chrome traces per span
//! name — and returns ranked culprits, so the failure names the
//! regressing layer instead of just a number that moved.

use std::collections::{BTreeMap, BTreeSet};

use pcnn_serve::obs::{Alert, RouteRecord};
use pcnn_telemetry::json::JsonValue;
use pcnn_telemetry::read_chrome_trace;

/// A relative floor under a baseline value: a candidate regresses when it
/// drops more than `rel · |baseline|` below it. Every gated metric is a
/// ratio where higher is better, so the band is open upward.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Relative slack, as a fraction of `|baseline|`.
    pub rel: f64,
}

impl Band {
    /// A band allowing `rel` relative worsening downward.
    pub fn lower_worse(rel: f64) -> Self {
        Self { rel }
    }

    /// The worst candidate value still inside the band.
    pub fn limit(&self, baseline: f64) -> f64 {
        baseline - self.rel * baseline.abs()
    }

    /// Whether `candidate` regresses past the band.
    pub fn violated(&self, baseline: f64, candidate: f64) -> bool {
        candidate < self.limit(baseline)
    }
}

/// One metric that moved outside its tolerance band.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Dotted metric path, e.g. `CONV1.speedup_vs_naive`.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Fresh-run value.
    pub candidate: f64,
    /// The worst value the band allowed.
    pub limit: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.6} -> {:.6} (allowed {:.6})",
            self.metric, self.baseline, self.candidate, self.limit
        )
    }
}

fn check(
    out: &mut Vec<Violation>,
    metric: String,
    baseline: Option<f64>,
    candidate: Option<f64>,
    band: Band,
) {
    let (Some(b), Some(c)) = (baseline, candidate) else {
        // A metric missing on either side is itself a regression signal.
        out.push(Violation {
            metric: format!("{metric} (missing)"),
            baseline: baseline.unwrap_or(f64::NAN),
            candidate: candidate.unwrap_or(f64::NAN),
            limit: f64::NAN,
        });
        return;
    };
    if band.violated(b, c) {
        out.push(Violation {
            metric,
            baseline: b,
            candidate: c,
            limit: band.limit(b),
        });
    }
}

/// The rows of `doc[section]` — the array of objects a benchmark or
/// profile document keeps its per-shape / per-algorithm / per-layer
/// numbers in — keyed by each row's string field `key`. `None` when the
/// section is not an array; a row without the key is in nobody's map, so
/// a gate reads it as missing.
fn rows_by<'a>(
    doc: &'a JsonValue,
    section: &str,
    key: &str,
) -> Option<BTreeMap<String, &'a JsonValue>> {
    let rows = doc.get(section)?.as_array()?.iter();
    Some(
        rows.filter_map(|row| Some((row.str_at(key)?.to_string(), row)))
            .collect(),
    )
}

/// Diffs a fresh GEMM benchmark against the committed baseline. Only
/// machine-normalised ratios are gated (generously — wall-clock noise
/// and host differences are real), never absolute GFLOP/s:
///
/// * `speedup_vs_naive` — packed kernel vs the triple loop;
/// * `scaling_efficiency` — widest-sweep speedup over usable cores, which
///   catches a pool starved by construction (it collapses toward
///   `1 / cores` on any multicore host) while staying insensitive to how
///   many cores the measuring host happens to have.
pub fn compare_gemm(baseline: &JsonValue, candidate: &JsonValue) -> Vec<Violation> {
    let mut v = Vec::new();
    let base = rows_by(baseline, "shapes", "layer").unwrap_or_default();
    let cand = rows_by(candidate, "shapes", "layer").unwrap_or_default();
    for (key, band) in [
        ("speedup_vs_naive", Band::lower_worse(0.40)),
        // Hyperthreaded hosts legitimately land near 0.5 (8 "cores", ~4x
        // real speedup), so the band is wide; a starved pool on a
        // multicore host reads ~1/cores <= 0.25 and still trips it.
        ("scaling_efficiency", Band::lower_worse(0.60)),
    ] {
        for (layer, brow) in &base {
            // A ratio the baseline never recorded is not gated.
            if let Some(b) = brow.f64_at(key) {
                let c = cand.get(layer).and_then(|crow| crow.f64_at(key));
                check(&mut v, format!("{layer}.{key}"), Some(b), c, band);
            }
        }
    }
    v
}

/// Diffs a fresh conv-algorithm benchmark against the committed
/// `BENCH_conv.json` baseline. Like the GEMM gate, only
/// machine-normalised ratios are gated, never absolute GFLOP/s or
/// milliseconds:
///
/// * per shape and algorithm, `speedup_vs_im2col_1t` — a collapsed ratio
///   means the alternative kernel lost its advantage on that shape;
/// * `e2e.tuned_speedup` — the tuned plan vs the default plan on the
///   full network forward, banded against the baseline *and*
///   hard-floored: a tuned plan that *loses* to the default
///   (`< `[`E2E_SPEEDUP_FLOOR`]`, i.e. beyond measurement noise) is a
///   regression regardless of what the committed document says. The
///   floor sits 5 % under parity because the tuner may honestly pick the
///   default's own algorithm, which reads ~1.0x plus timer noise — a
///   broken tuned path reads far lower.
pub fn compare_conv(baseline: &JsonValue, candidate: &JsonValue) -> Vec<Violation> {
    let mut v = Vec::new();
    let algo_ratios = |doc| -> BTreeMap<String, f64> {
        let mut ratios = BTreeMap::new();
        for (layer, shape) in rows_by(doc, "shapes", "layer").unwrap_or_default() {
            for (algo, row) in rows_by(shape, "algos", "algo").unwrap_or_default() {
                if let Some(ratio) = row.f64_at("speedup_vs_im2col_1t") {
                    ratios.insert(format!("{layer}.{algo}"), ratio);
                }
            }
        }
        ratios
    };
    let base = algo_ratios(baseline);
    let cand = algo_ratios(candidate);
    for (key, b) in &base {
        check(
            &mut v,
            format!("{key}.speedup_vs_im2col_1t"),
            Some(*b),
            cand.get(key).copied(),
            Band::lower_worse(0.40),
        );
    }
    let e2e = |doc: &JsonValue| doc.get("e2e")?.f64_at("tuned_speedup");
    let (be, ce) = (e2e(baseline), e2e(candidate));
    check(
        &mut v,
        "e2e.tuned_speedup".into(),
        be,
        ce,
        Band::lower_worse(0.25),
    );
    if let Some(c) = ce {
        // Hard floor: the tuned plan must never lose to the default plan
        // beyond measurement noise, whatever the committed value is.
        if c < E2E_SPEEDUP_FLOOR {
            v.push(Violation {
                metric: format!("e2e.tuned_speedup (must not drop under {E2E_SPEEDUP_FLOOR})"),
                baseline: be.unwrap_or(f64::NAN),
                candidate: c,
                limit: E2E_SPEEDUP_FLOOR,
            });
        }
    }
    v
}

/// Lowest `e2e.tuned_speedup` the conv gate accepts, regardless of the
/// committed baseline: parity with the default plan minus 5 % timer noise.
pub const E2E_SPEEDUP_FLOOR: f64 = 0.95;

/// Highest median |error| of the conv tuner's cost model on a candidate.
pub const CONV_MODEL_MEDIAN_ERROR: f64 = 0.15;

/// Highest single |error| the conv gate accepts. Evidence: the worst was
/// 0.22 over the table the model was fitted to (in `pcnn_core::tune`'s
/// tests), 0.29 over an independent recording of it, and 0.14-0.34 in
/// eight `bench-conv` runs on a busy host, each worst on a cell whose
/// observed time was itself the outlier.
pub const CONV_MODEL_WORST_ERROR: f64 = 0.5;

/// The `model_error` of every algorithm row of a conv document that
/// carries one — the row's median over reps of `|predicted / observed -
/// 1|`, each rep priced over its own probe; sorted.
fn conv_model_errors(doc: &JsonValue) -> Vec<f64> {
    let mut errors: Vec<f64> = rows_by(doc, "shapes", "layer")
        .unwrap_or_default()
        .values()
        .flat_map(|shape| {
            rows_by(shape, "algos", "algo")
                .unwrap_or_default()
                .into_values()
        })
        .filter_map(|row| row.f64_at("model_error"))
        .collect();
    errors.sort_by(f64::total_cmp);
    errors
}

/// The cost-model gate on a conv candidate: the median and the worst
/// |error| of the tuner's predictions against the candidate's own
/// single-thread timings, under [`CONV_MODEL_MEDIAN_ERROR`] and
/// [`CONV_MODEL_WORST_ERROR`]. Only the candidate is held to the bounds
/// (the baseline's figure is shown beside it); one without predictions
/// fails.
pub fn gate_conv_model(baseline: &JsonValue, candidate: &JsonValue) -> Vec<Violation> {
    let stats = |doc| {
        let e = conv_model_errors(doc);
        let median = (!e.is_empty()).then(|| (e[(e.len() - 1) / 2] + e[e.len() / 2]) / 2.0);
        [median, e.last().copied()]
    };
    let limits = [
        ("median", CONV_MODEL_MEDIAN_ERROR),
        ("worst", CONV_MODEL_WORST_ERROR),
    ];
    let mut v = Vec::new();
    for ((stat, limit), (b, c)) in limits
        .into_iter()
        .zip(stats(baseline).into_iter().zip(stats(candidate)))
    {
        if c.is_none_or(|c| c > limit) {
            let missing = if c.is_none() { " (missing)" } else { "" };
            v.push(Violation {
                metric: format!("conv model {stat} |error|{missing}"),
                baseline: b.unwrap_or(f64::NAN),
                candidate: c.unwrap_or(f64::NAN),
                limit,
            });
        }
    }
    v
}

/// Where a regenerated deterministic document first departs from the
/// committed one: `(1-based line number, committed line, candidate line)`,
/// or `None` when the two are byte-identical. Every row of the serve,
/// fleet and profile documents is one line, so the line names the
/// workload, policy row or layer that moved. A side that ends first reads
/// as `<end of file>`.
pub fn first_difference<'a>(
    committed: &'a str,
    candidate: &'a str,
) -> Option<(usize, &'a str, &'a str)> {
    if committed == candidate {
        return None;
    }
    // Unequal texts split into unequal line sequences, so the search over
    // the endlessly `None`-padded pair stops.
    let lines = |text: &'a str| text.split('\n').map(Some).chain(std::iter::repeat(None));
    let eof = |line: Option<&'a str>| line.unwrap_or("<end of file>");
    (1..)
        .zip(lines(committed).zip(lines(candidate)))
        .find(|(_, (a, b))| a != b)
        .map(|(line, (a, b))| (line, eof(a), eof(b)))
}

/// A typed `pcnn obs` failure. The CLI prints the message on stderr and
/// exits nonzero — a missing or corrupt document is a diagnosable
/// condition, not a panic.
#[derive(Debug)]
pub enum ObsError {
    /// The document could not be read from disk.
    Io {
        /// Path passed on the command line.
        path: String,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// The document is not valid JSON.
    Parse {
        /// Path passed on the command line.
        path: String,
        /// Parser message with the byte offset.
        message: String,
    },
    /// The document parsed but has the wrong shape for the command.
    Shape {
        /// Path passed on the command line.
        path: String,
        /// What was expected and what was found.
        message: String,
    },
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io { path, source } => write!(f, "{path}: {source}"),
            ObsError::Parse { path, message } => write!(f, "{path}: invalid JSON: {message}"),
            ObsError::Shape { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Reads and parses a JSON document (trace, report, or profile).
///
/// # Errors
///
/// Returns [`ObsError::Io`] when the file cannot be read and
/// [`ObsError::Parse`] when it is not valid JSON.
pub fn load_document(path: &str) -> Result<JsonValue, ObsError> {
    let text = std::fs::read_to_string(path).map_err(|source| ObsError::Io {
        path: path.to_string(),
        source,
    })?;
    pcnn_telemetry::json::parse(&text).map_err(|message| ObsError::Parse {
        path: path.to_string(),
        message,
    })
}

/// One node in a diff tree: a layer (with phase children) or a leaf.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Human path, e.g. `L00 conv` or `L00 conv/pack_b`.
    pub path: String,
    /// Time on side A, ms.
    pub base_ms: f64,
    /// Time on side B, ms.
    pub cand_ms: f64,
    /// Phase-level children, ranked by `|delta|` descending.
    pub children: Vec<DiffEntry>,
}

impl DiffEntry {
    /// Signed time delta (B − A), ms.
    pub fn delta_ms(&self) -> f64 {
        self.cand_ms - self.base_ms
    }
}

/// A ranked attribution of the time delta between two documents.
#[derive(Debug, Clone, Default)]
pub struct ProfileDiff {
    /// Total time on side A, ms.
    pub base_ms: f64,
    /// Total time on side B, ms.
    pub cand_ms: f64,
    /// Rows ranked by `|delta|` descending (ties break on path order, so
    /// the ranking is deterministic).
    pub culprits: Vec<DiffEntry>,
}

impl ProfileDiff {
    /// Signed top-level time delta (B − A), ms.
    pub fn delta_ms(&self) -> f64 {
        self.cand_ms - self.base_ms
    }
}

/// Sorts entries by `|delta|` descending, tie-breaking on path.
fn rank(entries: &mut [DiffEntry]) {
    entries.sort_by(|a, b| {
        b.delta_ms()
            .abs()
            .partial_cmp(&a.delta_ms().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
}

/// A layer's `(modelled_ms, phase -> modelled_ms)` attribution row.
type LayerRow = (f64, BTreeMap<String, f64>);

/// `layer name -> (modelled_ms, phase -> modelled_ms)` from a profile
/// document.
fn profile_rows(doc: &JsonValue) -> Result<BTreeMap<String, LayerRow>, String> {
    let layers = rows_by(doc, "layers", "layer")
        .ok_or_else(|| "profile document has no \"layers\" array".to_string())?;
    let ms = |row: &JsonValue| row.f64_at("modelled_ms");
    Ok(layers
        .into_iter()
        .map(|(name, layer)| {
            let phases = rows_by(layer, "phases", "phase").unwrap_or_default();
            let phases = phases
                .into_iter()
                .filter_map(|(phase, row)| Some((phase, ms(row)?)));
            (name, (ms(layer).unwrap_or(0.0), phases.collect()))
        })
        .collect())
}

/// Diffs two profile documents (`pcnn profile --json` output): the
/// top-level modelled-time delta is attributed down the layer/phase
/// tree, and the layers are ranked by how much of the delta they own.
///
/// # Errors
///
/// Returns a message when either document has no `layers` array.
pub fn diff_profiles(a: &JsonValue, b: &JsonValue) -> Result<ProfileDiff, String> {
    let ra = profile_rows(a)?;
    let rb = profile_rows(b)?;
    let names: BTreeSet<&String> = ra.keys().chain(rb.keys()).collect();
    let empty = (0.0, BTreeMap::new());
    let mut culprits = Vec::new();
    for name in names {
        let (bms, bph) = ra.get(name).unwrap_or(&empty);
        let (cms, cph) = rb.get(name).unwrap_or(&empty);
        let phase_names: BTreeSet<&String> = bph.keys().chain(cph.keys()).collect();
        let mut children: Vec<DiffEntry> = phase_names
            .into_iter()
            .map(|p| DiffEntry {
                path: format!("{name}/{p}"),
                base_ms: bph.get(p).copied().unwrap_or(0.0),
                cand_ms: cph.get(p).copied().unwrap_or(0.0),
                children: Vec::new(),
            })
            .collect();
        rank(&mut children);
        culprits.push(DiffEntry {
            path: name.clone(),
            base_ms: *bms,
            cand_ms: *cms,
            children,
        });
    }
    rank(&mut culprits);
    let total = |doc: &JsonValue, rows: &BTreeMap<String, (f64, BTreeMap<String, f64>)>| {
        doc.f64_at("total_modelled_ms")
            .unwrap_or_else(|| rows.values().map(|(ms, _)| ms).sum())
    };
    Ok(ProfileDiff {
        base_ms: total(a, &ra),
        cand_ms: total(b, &rb),
        culprits,
    })
}

/// Per-name total `"X"`-slice durations (ms) from a Chrome trace.
fn trace_slice_totals(doc: &JsonValue) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for ev in read_chrome_trace(doc)?.iter().filter(|ev| ev.ph == "X") {
        *out.entry(ev.name.to_string()).or_insert(0.0) += ev.dur_us / 1e3;
    }
    Ok(out)
}

/// Diffs two Chrome traces per span name, ranked by `|delta|`.
fn diff_traces(a: &JsonValue, b: &JsonValue) -> Result<ProfileDiff, String> {
    let ta = trace_slice_totals(a)?;
    let tb = trace_slice_totals(b)?;
    let names: BTreeSet<&String> = ta.keys().chain(tb.keys()).collect();
    let mut culprits: Vec<DiffEntry> = names
        .into_iter()
        .map(|name| DiffEntry {
            path: name.clone(),
            base_ms: ta.get(name).copied().unwrap_or(0.0),
            cand_ms: tb.get(name).copied().unwrap_or(0.0),
            children: Vec::new(),
        })
        .collect();
    rank(&mut culprits);
    Ok(ProfileDiff {
        base_ms: ta.values().sum(),
        cand_ms: tb.values().sum(),
        culprits,
    })
}

/// Diffs two observability documents of the same kind: profile
/// documents (objects with a `layers` array) are attributed down the
/// layer/phase tree; Chrome traces (JSON arrays) are aggregated and
/// diffed per span name.
///
/// # Errors
///
/// Returns a message when the documents are of different kinds or
/// neither kind.
pub fn diff_documents(a: &JsonValue, b: &JsonValue) -> Result<ProfileDiff, String> {
    match (a.as_array().is_some(), b.as_array().is_some()) {
        (true, true) => diff_traces(a, b),
        (false, false) => diff_profiles(a, b),
        _ => Err("cannot diff a Chrome trace against a profile document".to_string()),
    }
}

/// Per-workload queueing-vs-service aggregate from the trace.
#[derive(Debug, Clone, Default)]
pub struct WorkloadBreakdown {
    /// Distinct requests seen on this workload's track.
    pub requests: usize,
    /// Total queue-wait across requests, µs.
    pub queue_us: f64,
    /// Total execution time across requests, µs.
    pub exec_us: f64,
    /// The request with the longest queue+execute critical path.
    pub critical: Option<CriticalPath>,
}

/// The longest per-request path through the server.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Request id within the workload.
    pub req: u64,
    /// Queue wait, µs.
    pub queue_us: f64,
    /// Execution, µs.
    pub exec_us: f64,
    /// The batch the request finished in.
    pub batch: u64,
    /// GPU index of that batch.
    pub gpu: u64,
}

/// Everything `pcnn obs` prints, extracted from one Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Per-workload breakdowns, keyed by workload name.
    pub workloads: BTreeMap<String, WorkloadBreakdown>,
    /// Dispatched batches seen on GPU tracks.
    pub batches: usize,
    /// SLO alerts in window order.
    pub alerts: Vec<Alert>,
}

/// Splits `req {label}#{id}: {stage}` into its parts.
fn parse_req_name(name: &str) -> Option<(&str, u64, &str)> {
    let rest = name.strip_prefix("req ")?;
    let (label_id, stage) = rest.rsplit_once(": ")?;
    let (label, id) = label_id.rsplit_once('#')?;
    Some((label, id.parse().ok()?, stage))
}

/// Analyzes an exported Chrome trace document.
///
/// # Errors
///
/// Returns a message when the document does not read as a trace
/// ([`read_chrome_trace`]), when a request's `execute` slice does not
/// say which batch and GPU ran it, or when an SLO alert's args do not
/// read back ([`Alert::from_args`]) — a critical path on "batch 0, gpu 0"
/// or an alert log with a hole in it would be a wrong answer, not a
/// degraded one.
pub fn analyze_trace(doc: &JsonValue) -> Result<TraceAnalysis, String> {
    let mut out = TraceAnalysis::default();
    // (label, req) -> accumulated path.
    let mut paths: BTreeMap<(String, u64), CriticalPath> = BTreeMap::new();
    for ev in read_chrome_trace(doc)? {
        match ev.ph {
            "X" => {
                if ev.name.starts_with("batch ") && ev.args.f64_at("actual_s").is_some() {
                    out.batches += 1;
                    continue;
                }
                let Some((label, req, stage)) = parse_req_name(ev.name) else {
                    continue;
                };
                let path = paths
                    .entry((label.to_string(), req))
                    .or_insert(CriticalPath {
                        req,
                        queue_us: 0.0,
                        exec_us: 0.0,
                        batch: 0,
                        gpu: 0,
                    });
                match stage {
                    "queue" => path.queue_us += ev.dur_us,
                    "execute" => {
                        let ran_on = |key: &str| {
                            let id = ev.args.u64_at(key);
                            id.ok_or_else(|| format!("`{}` has no valid \"{key}\"", ev.name))
                        };
                        path.exec_us += ev.dur_us;
                        path.batch = ran_on("batch")?;
                        path.gpu = ran_on("gpu")?;
                    }
                    _ => {}
                }
            }
            "i" if ev.name == "slo.alert" => {
                let t_s = ev.ts_us / 1e6;
                let alert = Alert::from_args(t_s, ev.args);
                out.alerts
                    .push(alert.map_err(|e| format!("{} at t={t_s}s: {e}", ev.name))?);
            }
            _ => {}
        }
    }
    for ((label, _req), path) in paths {
        let w = out.workloads.entry(label).or_default();
        w.requests += 1;
        w.queue_us += path.queue_us;
        w.exec_us += path.exec_us;
        let total = path.queue_us + path.exec_us;
        if w.critical
            .as_ref()
            .map(|c| total > c.queue_us + c.exec_us)
            .unwrap_or(true)
        {
            w.critical = Some(path);
        }
    }
    Ok(out)
}

/// The routing audit trail extracted from one trace: every decision in
/// order, the decision histogram by reason, and the steal-flow matrix.
#[derive(Debug, Clone, Default)]
pub struct RouteReport {
    /// Decisions in trace (= virtual time) order.
    pub decisions: Vec<RouteRecord>,
    /// `reason -> (decisions, dispatched)`.
    pub by_reason: BTreeMap<String, (usize, usize)>,
    /// `(from, to) -> dispatched steals`.
    pub steals: BTreeMap<(String, String), usize>,
}

impl RouteReport {
    /// Every decision made for request `req` of `workload`, in order —
    /// holds and vetoes first, the dispatching decision (if any) last.
    pub fn for_request(&self, workload: &str, req: u64) -> Vec<&RouteRecord> {
        self.decisions
            .iter()
            .filter(|d| d.workload == workload && d.req == req)
            .collect()
    }
}

/// Extracts the routing audit trail from an exported Chrome trace:
/// answers "why did request X land on platform P" (`for_request`), and
/// aggregates the decision histogram and steal-flow matrix.
///
/// # Errors
///
/// Returns a message when the document does not read as a trace
/// ([`read_chrome_trace`]) or a `route.decision` instant's args do not
/// read back ([`RouteRecord::from_args`]): a trail that skipped the
/// decisions it could not parse would answer "why" wrongly.
pub fn analyze_route(doc: &JsonValue) -> Result<RouteReport, String> {
    let mut out = RouteReport::default();
    for ev in read_chrome_trace(doc)? {
        if ev.ph != "i" || ev.name != "route.decision" {
            continue;
        }
        let t_s = ev.ts_us / 1e6;
        let rec = RouteRecord::from_args(t_s, ev.args)
            .map_err(|e| format!("route.decision at t={t_s}s: {e}"))?;
        let entry = out.by_reason.entry(rec.reason.clone()).or_insert((0, 0));
        entry.0 += 1;
        if rec.dispatched {
            entry.1 += 1;
            if let (Some(from), Some(to)) = (&rec.from, &rec.platform) {
                if rec.reason == "Steal" {
                    *out.steals.entry((from.clone(), to.clone())).or_insert(0) += 1;
                }
            }
        }
        out.decisions.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_telemetry::json;

    #[test]
    fn bands_are_one_sided() {
        let floor = Band::lower_worse(0.40);
        assert_eq!(floor.limit(10.0), 6.0);
        assert!(!floor.violated(10.0, 6.5));
        assert!(floor.violated(10.0, 5.5));
        assert!(!floor.violated(10.0, 100.0)); // improvements never violate
                                               // The slack is relative to |baseline|, so a negative baseline's
                                               // floor still sits below it.
        assert_eq!(floor.limit(-10.0), -14.0);
        // A zero band admits exactly the baseline and anything above it.
        let exact = Band::lower_worse(0.0);
        assert!(!exact.violated(0.95, 0.95));
        assert!(exact.violated(0.95, 0.94));
    }

    #[test]
    fn first_difference_names_the_line_that_moved() {
        let committed = "{\n  \"a\": 1,\n  \"b\": 2\n}\n";
        assert_eq!(first_difference(committed, committed), None);
        let moved = committed.replace("\"b\": 2", "\"b\": 3");
        assert_eq!(
            first_difference(committed, &moved),
            Some((3, "  \"b\": 2", "  \"b\": 3"))
        );
        // A document cut short, or one that lost only its final newline,
        // differs where the shorter side ends.
        assert_eq!(
            first_difference(committed, "{"),
            Some((2, "  \"a\": 1,", "<end of file>"))
        );
        assert_eq!(
            first_difference(committed, committed.trim_end()),
            Some((5, "", "<end of file>"))
        );
        // Text that spells the end-of-file marker is still a difference.
        let spelled = format!("{committed}<end of file>");
        assert_eq!(
            first_difference(committed, &spelled),
            Some((5, "", "<end of file>"))
        );
    }

    #[test]
    fn parse_req_names() {
        assert_eq!(
            parse_req_name("req age detection#37: queue"),
            Some(("age detection", 37, "queue"))
        );
        assert_eq!(
            parse_req_name("req a#b#9: execute"),
            Some(("a#b", 9, "execute"))
        );
        assert_eq!(parse_req_name("batch 3: x"), None);
    }

    #[test]
    fn analyze_picks_critical_path_and_alerts() {
        let doc = json::parse(
            r#"[
            {"name":"req a#0: queue","ph":"X","pid":3,"tid":5,"ts":0,"dur":100,"args":{"batch":0}},
            {"name":"req a#0: execute","ph":"X","pid":3,"tid":5,"ts":100,"dur":50,"args":{"batch":0,"gpu":0}},
            {"name":"req a#1: queue","ph":"X","pid":3,"tid":5,"ts":10,"dur":400,"args":{"batch":1}},
            {"name":"req a#1: execute","ph":"X","pid":3,"tid":5,"ts":410,"dur":60,"args":{"batch":1,"gpu":0}},
            {"name":"batch 0: a x2 L0","ph":"X","pid":3,"tid":0,"ts":100,"dur":50,"args":{"actual_s":1.0,"planned_s":1.0}},
            {"name":"slo.alert","ph":"i","pid":3,"tid":5,"ts":250000,"s":"t","args":{"workload":"a","metric":"entropy","observed":1.5,"objective":1.4,"burn_rate":1.07}}
            ]"#,
        )
        .unwrap();
        let a = analyze_trace(&doc).unwrap();
        assert_eq!(a.batches, 1);
        let w = &a.workloads["a"];
        assert_eq!(w.requests, 2);
        assert_eq!(w.queue_us, 500.0);
        assert_eq!(w.exec_us, 110.0);
        let crit = w.critical.as_ref().unwrap();
        assert_eq!(crit.req, 1);
        assert_eq!(crit.batch, 1);
        assert_eq!(a.alerts.len(), 1);
        assert_eq!(a.alerts[0].metric, "entropy");
        assert!((a.alerts[0].t_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn compare_gemm_gates_ratios_not_gflops() {
        let base = json::parse(
            r#"{"shapes":[{"layer":"CONV1","speedup_vs_naive":10.0,"naive_gflops":1.7}]}"#,
        )
        .unwrap();
        // Halved absolute GFLOP/s but a preserved ratio passes...
        let slower_host = json::parse(
            r#"{"shapes":[{"layer":"CONV1","speedup_vs_naive":9.0,"naive_gflops":0.9}]}"#,
        )
        .unwrap();
        assert!(compare_gemm(&base, &slower_host).is_empty());
        // ...a collapsed ratio does not.
        let regressed =
            json::parse(r#"{"shapes":[{"layer":"CONV1","speedup_vs_naive":4.0}]}"#).unwrap();
        assert_eq!(compare_gemm(&base, &regressed).len(), 1);
        // A vanished layer is flagged.
        let missing = json::parse(r#"{"shapes":[]}"#).unwrap();
        assert_eq!(compare_gemm(&base, &missing).len(), 1);
    }

    #[test]
    fn compare_gemm_admits_an_avx2_runner_against_an_avx512_baseline() {
        let doc = |kernel: &str, ratios: [f64; 4]| {
            let rows: Vec<String> = ["CONV1", "CONV2", "CONV3", "CONV5"]
                .iter()
                .zip(ratios)
                .map(|(layer, r)| {
                    format!(
                        r#"{{"layer":"{layer}","speedup_vs_naive":{r},"scaling_efficiency":0.9}}"#
                    )
                })
                .collect();
            json::parse(&format!(
                r#"{{"bench":"gemm","kernel":"{kernel}","shapes":[{}]}}"#,
                rows.join(",")
            ))
            .unwrap()
        };
        // The committed recording's ratios on the 16-lane tier, and the
        // same host forced onto the AVX2 tier the same hour: a runner
        // without avx512f reads 0.77–0.82x of every baseline ratio, inside
        // the 40 % band — the gate compares a kernel with the naive loop,
        // not one tier with another.
        let base = doc("avx512 16x16", [32.92, 38.59, 26.03, 35.01]);
        let avx2 = doc("avx2 6x16", [26.25, 28.31, 20.14, 26.45]);
        assert!(compare_gemm(&base, &avx2).is_empty());
        // Losing the register tile altogether (the portable tier's SSE2
        // autovectorisation reads 5–8x) still trips it on every shape,
        // whatever the document calls its kernel.
        let portable = doc("portable 6x16", [7.37, 7.94, 5.28, 6.86]);
        assert_eq!(compare_gemm(&base, &portable).len(), 4);
    }

    #[test]
    fn compare_conv_gates_ratios_and_tuned_floor() {
        let base = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":1.30},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0,"gflops_1t":20.0},
                    {"algo":"winograd","speedup_vs_im2col_1t":1.8,"gflops_1t":36.0}]}
            ]}"#,
        )
        .unwrap();
        assert!(compare_conv(&base, &base).is_empty());
        // A slower host with preserved ratios passes...
        let slower = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":1.25},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0,"gflops_1t":9.0},
                    {"algo":"winograd","speedup_vs_im2col_1t":1.7,"gflops_1t":15.0}]}
            ]}"#,
        )
        .unwrap();
        assert!(compare_conv(&base, &slower).is_empty());
        // ...a collapsed per-shape ratio does not.
        let collapsed = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":1.30},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0},
                    {"algo":"winograd","speedup_vs_im2col_1t":0.9}]}
            ]}"#,
        )
        .unwrap();
        let v = compare_conv(&base, &collapsed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "ALEX_CONV3.winograd.speedup_vs_im2col_1t");
        // A tuned plan that *loses* to the default plan trips the hard floor
        // even when the band alone would tolerate the drop...
        let floor = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":0.93},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0},
                    {"algo":"winograd","speedup_vs_im2col_1t":1.8}]}
            ]}"#,
        )
        .unwrap();
        let v = compare_conv(&base, &floor);
        assert!(v.iter().any(|x| x.metric.contains("must not drop")));
        // ...while an honest near-tie (tuner kept the default, ~1.0x) passes.
        let tie = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":0.99},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0},
                    {"algo":"winograd","speedup_vs_im2col_1t":1.8}]}
            ]}"#,
        )
        .unwrap();
        assert!(!compare_conv(&base, &tie)
            .iter()
            .any(|x| x.metric.contains("must not drop")));
        // A vanished algorithm row is flagged as missing.
        let missing = json::parse(
            r#"{"bench":"conv","e2e":{"tuned_speedup":1.30},"shapes":[
                {"layer":"ALEX_CONV3","algos":[
                    {"algo":"im2col","speedup_vs_im2col_1t":1.0}]}
            ]}"#,
        )
        .unwrap();
        assert!(compare_conv(&base, &missing)
            .iter()
            .any(|x| x.metric.contains("winograd") && x.metric.contains("missing")));
    }

    /// A conv document whose one shape carries algorithm rows whose median
    /// model errors are `|p / o - 1|` of `(p, o)` pairs.
    fn model_doc(rows: &[(f64, f64)]) -> JsonValue {
        let algos: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, (p, o))| {
                let e = (p / o - 1.0f64).abs();
                format!(r#"{{"algo":"a{i}","predicted_ms":{p},"model_error":{e}}}"#)
            })
            .collect();
        json::parse(&format!(
            r#"{{"bench":"conv","shapes":[{{"layer":"L","algos":[{}]}}]}}"#,
            algos.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn gate_conv_model_bounds_the_candidates_median_and_worst_error() {
        // Errors 0.05, 0.10, 0.20: median 0.10, worst 0.20 — passes.
        let good = model_doc(&[(1.05, 1.0), (0.9, 1.0), (1.2, 1.0)]);
        assert!(gate_conv_model(&good, &good).is_empty());
        // Median 0.20 over the 0.15 bar.
        let biased = model_doc(&[(1.2, 1.0), (0.8, 1.0), (1.25, 1.0)]);
        let v = gate_conv_model(&good, &biased);
        assert_eq!(v.len(), 1);
        assert!(v[0].metric.contains("median"));
        assert!((v[0].baseline - 0.10).abs() < 1e-9);
        // One row off by half: the worst bound trips, the median does not.
        let outlier = model_doc(&[(1.0, 1.0), (1.01, 1.0), (1.7, 1.0)]);
        let v = gate_conv_model(&good, &outlier);
        assert_eq!(v.len(), 1);
        assert!(v[0].metric.contains("worst"));
        // Only the candidate is held to the bounds, and one without
        // predictions fails as missing.
        assert!(gate_conv_model(&biased, &good).is_empty());
        let v = gate_conv_model(
            &good,
            &json::parse(r#"{"bench":"conv","shapes":[]}"#).unwrap(),
        );
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.metric.contains("missing")));
    }

    fn profile_doc(conv_ms: f64, micro_ms: f64) -> JsonValue {
        json::parse(&format!(
            r#"{{"bench":"profile","model":"TinyAlexNet","total_modelled_ms":{},
                "layers":[
                  {{"layer":"L00 conv","modelled_ms":{conv_ms},"phases":[
                     {{"phase":"pack_b","modelled_ms":0.4}},
                     {{"phase":"microkernel","modelled_ms":{micro_ms}}}]}},
                  {{"layer":"L03 linear","modelled_ms":1.0,"phases":[
                     {{"phase":"microkernel","modelled_ms":1.0}}]}}
                ]}}"#,
            conv_ms + 1.0
        ))
        .unwrap()
    }

    #[test]
    fn diff_profiles_names_the_slow_layer_and_phase() {
        // Doctored baseline: L00's microkernel got 1 ms slower, everything
        // else is unchanged — the diff must rank that layer first and its
        // microkernel phase first within it.
        let base = profile_doc(2.0, 1.6);
        let cand = profile_doc(3.0, 2.6);
        let d = diff_profiles(&base, &cand).unwrap();
        assert!((d.delta_ms() - 1.0).abs() < 1e-9);
        assert_eq!(d.culprits[0].path, "L00 conv");
        assert!((d.culprits[0].delta_ms() - 1.0).abs() < 1e-9);
        assert_eq!(d.culprits[0].children[0].path, "L00 conv/microkernel");
        // The untouched layer ranks last with a zero delta.
        assert_eq!(d.culprits[1].path, "L03 linear");
        assert!(d.culprits[1].delta_ms().abs() < 1e-9);
    }

    #[test]
    fn diff_traces_resolves_string_table_refs() {
        let a = json::parse(
            r##"[
            {"name":"trace_string_table","ph":"M","pid":0,"tid":0,"args":{"0":"gemm.pack_b.slice"}},
            {"name":"#0","ph":"X","pid":1,"tid":0,"ts":0,"dur":1000},
            {"name":"#0","ph":"X","pid":1,"tid":0,"ts":1000,"dur":1000},
            {"name":"other","ph":"X","pid":1,"tid":0,"ts":0,"dur":500}
            ]"##,
        )
        .unwrap();
        let b = json::parse(
            r#"[
            {"name":"gemm.pack_b.slice","ph":"X","pid":1,"tid":0,"ts":0,"dur":5000},
            {"name":"other","ph":"X","pid":1,"tid":0,"ts":0,"dur":500}
            ]"#,
        )
        .unwrap();
        let d = diff_documents(&a, &b).unwrap();
        // 2 ms -> 5 ms on the interned name; "other" unchanged.
        assert_eq!(d.culprits[0].path, "gemm.pack_b.slice");
        assert!((d.culprits[0].base_ms - 2.0).abs() < 1e-9);
        assert!((d.culprits[0].cand_ms - 5.0).abs() < 1e-9);
        assert!((d.delta_ms() - 3.0).abs() < 1e-9);
        // Mixed kinds are a typed refusal, not a panic.
        let profile = profile_doc(2.0, 1.6);
        assert!(diff_documents(&a, &profile).is_err());
    }

    #[test]
    fn load_document_returns_typed_errors() {
        let missing = load_document("/nonexistent/trace.json").unwrap_err();
        assert!(matches!(missing, ObsError::Io { .. }));
        assert!(missing.to_string().contains("/nonexistent/trace.json"));
        let dir = std::env::temp_dir().join("pcnn_obs_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{not json").unwrap();
        let err = load_document(corrupt.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ObsError::Parse { .. }));
        assert!(err.to_string().contains("invalid JSON"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_gemm_gates_scaling_efficiency() {
        let base = json::parse(
            r#"{"shapes":[{"layer":"CONV2","speedup_vs_naive":10.0,"scaling_efficiency":1.0}]}"#,
        )
        .unwrap();
        assert!(compare_gemm(&base, &base).is_empty());
        // An honest multicore run (~0.8, or ~0.5 with hyperthreading)
        // stays inside the band...
        let multicore = json::parse(
            r#"{"shapes":[{"layer":"CONV2","speedup_vs_naive":10.0,"scaling_efficiency":0.45}]}"#,
        )
        .unwrap();
        assert!(compare_gemm(&base, &multicore).is_empty());
        // ...a pool starved by construction (~1/cores) does not.
        let starved = json::parse(
            r#"{"shapes":[{"layer":"CONV2","speedup_vs_naive":10.0,"scaling_efficiency":0.125}]}"#,
        )
        .unwrap();
        let v = compare_gemm(&base, &starved);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "CONV2.scaling_efficiency");
        // A candidate that stopped recording the curve is itself flagged.
        let dropped =
            json::parse(r#"{"shapes":[{"layer":"CONV2","speedup_vs_naive":10.0}]}"#).unwrap();
        assert!(compare_gemm(&base, &dropped)
            .iter()
            .any(|v| v.metric.contains("scaling_efficiency") && v.metric.contains("missing")));
    }

    #[test]
    fn analyze_route_builds_histogram_and_steal_matrix() {
        // `route.decision` is long and frequent enough to be interned, so
        // the analyzer must resolve the trail through the string table.
        let doc = json::parse(
            r##"[
            {"name":"trace_string_table","ph":"M","pid":0,"tid":0,"args":{"3":"route.decision"}},
            {"name":"#3","ph":"i","pid":3,"tid":5,"ts":0,"s":"t","args":
              {"workload":"vid","req":0,"platform":"K20c","reason":"DeadlineSlack",
               "dispatched":true,"queue":1,"candidates":"K20c:1:0.5:0.25:2:1;TX1:1:2:-0.5:0.5:0"}},
            {"name":"#3","ph":"i","pid":3,"tid":5,"ts":100,"s":"t","args":
              {"workload":"vid","req":1,"platform":"hold","reason":"HoldForBusy",
               "dispatched":false,"queue":2,"candidates":""}},
            {"name":"#3","ph":"i","pid":3,"tid":5,"ts":200,"s":"t","args":
              {"workload":"vid","req":1,"platform":"TX1","reason":"Steal",
               "dispatched":true,"queue":2,"from":"K20c","candidates":""}}
            ]"##,
        )
        .unwrap();
        let r = analyze_route(&doc).unwrap();
        assert_eq!(r.decisions.len(), 3);
        assert_eq!(r.by_reason["DeadlineSlack"], (1, 1));
        assert_eq!(r.by_reason["HoldForBusy"], (1, 0));
        assert_eq!(r.steals[&("K20c".to_string(), "TX1".to_string())], 1);
        // "Why did request 1 land where it did": hold first, steal last.
        let trail = r.for_request("vid", 1);
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[0].platform, None);
        assert_eq!(trail[1].platform.as_deref(), Some("TX1"));
        assert_eq!(trail[1].from.as_deref(), Some("K20c"));
        // The dispatching decision's candidates decode with their verdicts.
        assert!(r.decisions[0].candidates[0].feasible);
        assert_eq!(r.decisions[0].candidates[1].slack_s, Some(-0.5));
    }
}
