//! Per-request observability, SLO monitoring and the incident flight
//! recorder for the serving loop.
//!
//! Everything here is stamped in *virtual* time — the simulator's clock,
//! not the wall clock — so an enabled-telemetry run exports byte-identical
//! traces for identical inputs, and a disabled-telemetry run is untouched
//! (the recorder is never constructed; see [`Obs::maybe`]).
//!
//! Four export surfaces are fed:
//!
//! * **Per-request lifecycle slices** on the observability process (pid 3
//!   in the Chrome trace): each request's queue wait and execution render
//!   on its workload's track, each dispatched batch on its GPU's track,
//!   causally linked through a `batch` argument. Admission rejections,
//!   ladder moves, routing decisions and SLO alerts are instant events on
//!   the same tracks.
//! * **Windowed series** ([`pcnn_telemetry::WindowedSeries`]): throughput,
//!   queue depth, latency, deadline hits, ladder level, batch occupancy
//!   and oracle error (predicted vs dispatched batch latency) per
//!   fixed-width virtual-time window — per workload *and*, under a
//!   `platform:<arch>` label, per platform — exported as Chrome counter
//!   tracks (per-window quantiles included) and Prometheus totals (the
//!   `platform:` prefix renders as a `platform="…"` label pair; see
//!   [`pcnn_telemetry::prom::PLATFORM_LABEL_PREFIX`]).
//! * **Routing audit trail**: every [`RouteDecision`] the router returns —
//!   placements, holds and steals alike — lands as a `route.decision`
//!   instant carrying the chosen platform, the reason code and every
//!   candidate's rejected score, answering "why did request X land on
//!   platform P" offline (`pcnn obs route`).
//! * **SLO alerts + incident snapshot**: each workload's objectives
//!   ([`SloPolicy::for_kind`]) are evaluated as each window closes;
//!   violations emit `slo.alert` instants carrying the error-budget burn
//!   rate, and the *first* alert of a run freezes the
//!   [`FlightRecorder`] — the last few closed windows plus recent
//!   route decisions and ladder moves — into a self-contained JSON
//!   incident snapshot ([`pcnn_telemetry::record_incident`]) for
//!   postmortem without a full trace.
//!
//! A routing decision, ladder move or alert is rendered **once**
//! ([`emit`]): one args list is the trace instant's `args` and, behind a
//! `t_s` stamp, the flight-recorder record. The read side lives here too
//! — [`RouteRecord::from_args`], [`Alert::from_args`] and
//! [`IncidentReport::from_snapshot`] take a trace instant's `args` and a
//! snapshot record alike — so `pcnn obs` parses neither format itself.

use pcnn_data::WorkloadKind;
use pcnn_telemetry::json::JsonValue;
use pcnn_telemetry::windowed::WindowValue;
use pcnn_telemetry::{self as telemetry, json, Ring, Value, WindowedSeries};

use crate::config::ServeWorkload;
use crate::fleet::{Platform, RouteCtx, RouteDecision, RouteReason};

/// Width of the observability / SLO-evaluation windows, virtual seconds.
/// Only read when telemetry is enabled; it never changes the serving
/// decisions or the report.
const OBS_WINDOW_S: f64 = 0.25;
/// Closed-window snapshots the flight recorder keeps.
const FLIGHT_WINDOWS: usize = 8;
/// Route decisions the flight recorder keeps.
const FLIGHT_DECISIONS: usize = 64;
/// Ladder moves the flight recorder keeps.
const FLIGHT_LADDER: usize = 64;

/// A workload's service-level objectives, evaluated once per
/// virtual-time window ([`OBS_WINDOW_S`] wide). Objectives left `None`
/// are not monitored; a policy with every field `None` never alerts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloPolicy {
    /// Deadline hit-rate floor for the window (`0.0 ..= 1.0`). The error
    /// budget is `1 - min_hit_rate`; a window burns at
    /// `miss_rate / budget`, and a burn rate above 1 alerts.
    pub min_hit_rate: Option<f64>,
    /// Ceiling on the window's p99 completion latency, seconds.
    pub max_p99_s: Option<f64>,
    /// Ceiling on the window's image-weighted mean output entropy (nats) —
    /// alerts when degradation is trading away more accuracy than the
    /// workload tolerates.
    pub max_entropy: Option<f64>,
}

impl SloPolicy {
    /// The policy a workload of `kind` is monitored by: real-time demands
    /// a 95 % hit rate and p99 within its deadline, interactive a 90 % hit
    /// rate and a 1.4-nat entropy ceiling (one rung above the default
    /// ladder's deepest level), background nothing.
    pub fn for_kind(kind: WorkloadKind, t_user: Option<f64>) -> Self {
        match kind {
            WorkloadKind::RealTime => Self {
                min_hit_rate: Some(0.95),
                max_p99_s: t_user,
                max_entropy: None,
            },
            WorkloadKind::Interactive => Self {
                min_hit_rate: Some(0.90),
                max_p99_s: None,
                max_entropy: Some(1.4),
            },
            WorkloadKind::Background => Self::default(),
        }
    }
}

/// One request's worth of images inside a dispatched batch.
pub(crate) struct BatchMember {
    /// Request index within its workload.
    pub req: usize,
    /// The request's arrival time, virtual seconds.
    pub arrival: f64,
    /// Images of this request in this batch.
    pub images: usize,
}

/// A request that completed (its last image finished) at this dispatch.
pub(crate) struct Completion {
    /// Request index within its workload.
    pub req: usize,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Completion time, virtual seconds.
    pub done: f64,
    /// Whether the deadline was met (`true` for no-deadline workloads).
    pub hit: bool,
}

/// The windowed-series label that groups a metric under a platform: the
/// `platform:` prefix renders as a `platform="…"` Prometheus label pair
/// instead of the generic `label="…"`.
fn platform_label(arch_name: &str) -> String {
    format!("{}{arch_name}", telemetry::prom::PLATFORM_LABEL_PREFIX)
}

/// One event's args, in the order they are written.
type EventArgs = Vec<(&'static str, Value)>;

/// Renders one serving event for both sinks: `args` become the `name`
/// instant on `track` at virtual time `t_s`, and the returned
/// flight-recorder record is the same list behind what the trace carries
/// outside `args` — `{"t_s":…, <context>, <args>}`, where `context` is
/// whatever else only the instant's track and name say (a ladder move's
/// workload and direction). Only called with the recorder live.
fn emit(name: &str, track: u64, t_s: f64, context: EventArgs, args: EventArgs) -> String {
    let mut fields = vec![("t_s", Value::F64(t_s))];
    fields.extend(context);
    let head = fields.len();
    fields.extend(args);
    let mut record = String::with_capacity(256);
    telemetry::write_args(&mut record, &fields);
    telemetry::obs_instant(name, track, t_s * 1e6, move || fields.split_off(head));
    record
}

/// The `platform` a `route.decision` names when the router placed nothing.
const HOLD: &str = "hold";

/// A routing decision's args: the chosen platform (or [`HOLD`]), the
/// reason code, the queue depth at decision time and every candidate's
/// score, so the audit trail can answer why the *other* platforms were
/// passed over. [`RouteRecord::from_args`] is the inverse.
fn route_args(
    workload: &str,
    platform_names: &[String],
    ctx: &RouteCtx<'_>,
    decision: &RouteDecision,
    dispatched: bool,
) -> EventArgs {
    let named = |p: Option<usize>| p.map(|p| platform_names[p].clone());
    let chosen = named(decision.platform).unwrap_or_else(|| HOLD.to_string());
    let mut args = vec![
        ("workload", Value::Str(workload.to_string())),
        ("req", Value::U64(ctx.head_req as u64)),
        ("platform", Value::Str(chosen)),
        ("reason", Value::Str(decision.reason.name().to_string())),
        ("dispatched", Value::Bool(dispatched)),
        ("queue", Value::U64(ctx.queue_len as u64)),
        (
            "candidates",
            Value::Str(encode_candidates(platform_names, decision)),
        ),
    ];
    if let Some(from) = named(decision.stolen_from) {
        args.push(("from", Value::Str(from)));
    }
    args
}

/// Bounded rings of pre-rendered JSON records: the last few closed
/// windows, route decisions and ladder moves. Cheap enough to run on
/// every traced run (one rendering per event, fixed memory), and frozen
/// into the incident snapshot when the first SLO alert fires.
struct FlightRecorder {
    windows: Ring<String>,
    decisions: Ring<String>,
    ladder: Ring<String>,
}

impl FlightRecorder {
    fn new() -> Self {
        Self {
            windows: Ring::new(FLIGHT_WINDOWS),
            decisions: Ring::new(FLIGHT_DECISIONS),
            ladder: Ring::new(FLIGHT_LADDER),
        }
    }
}

/// The per-run observability recorder. Constructed only when telemetry is
/// enabled, so the disabled path costs exactly one branch per call site.
pub(crate) struct Obs {
    windows: WindowedSeries,
    labels: Vec<String>,
    platform_names: Vec<String>,
    gpu_track: Vec<u64>,
    wl_track: Vec<u64>,
    /// Per-platform, per-rung output entropy — platforms carry their own
    /// ladders, so the tables are jagged.
    level_entropy: Vec<Vec<f64>>,
    /// Each workload's objectives ([`SloPolicy::for_kind`]).
    slos: Vec<SloPolicy>,
    /// First window index not yet closed (snapshotted + SLO-evaluated).
    next_window: u64,
    next_batch: u64,
    router: String,
    flight: FlightRecorder,
    incident_fired: bool,
}

impl Obs {
    /// Builds the recorder when telemetry is on, registering one pid-3
    /// track per platform and per workload; `None` otherwise.
    pub(crate) fn maybe(
        router_name: &str,
        platforms: &[Platform<'_>],
        workloads: &[ServeWorkload],
    ) -> Option<Obs> {
        if !telemetry::enabled() {
            return None;
        }
        let gpu_track: Vec<u64> = (0..platforms.len() as u64).collect();
        let wl_track: Vec<u64> = (0..workloads.len() as u64)
            .map(|w| platforms.len() as u64 + w)
            .collect();
        for (g, p) in platforms.iter().enumerate() {
            telemetry::obs_track_name(gpu_track[g], &format!("gpu{g} ({})", p.arch.name));
        }
        for (w, workload) in workloads.iter().enumerate() {
            let name = &workload.app.name;
            telemetry::obs_track_name(wl_track[w], &format!("workload: {name}"));
        }
        Some(Obs {
            windows: WindowedSeries::new(OBS_WINDOW_S),
            labels: workloads.iter().map(|w| w.app.name.clone()).collect(),
            platform_names: platforms.iter().map(|p| p.arch.name.to_string()).collect(),
            gpu_track,
            wl_track,
            level_entropy: platforms
                .iter()
                .map(|p| p.ladder.levels.iter().map(|l| l.entropy).collect())
                .collect(),
            slos: workloads
                .iter()
                .map(|w| SloPolicy::for_kind(w.app.kind, w.t_user()))
                .collect(),
            next_window: 0,
            next_batch: 0,
            router: router_name.to_string(),
            flight: FlightRecorder::new(),
            incident_fired: false,
        })
    }

    /// Records one arrival: admitted/rejected image counts and the queue
    /// depth after admission.
    pub(crate) fn on_arrival(
        &mut self,
        w: usize,
        req: usize,
        t: f64,
        admitted: usize,
        rejected: usize,
        queue_len: usize,
    ) {
        self.advance(t);
        let label = &self.labels[w];
        if admitted > 0 {
            self.windows
                .add(t, "serve.admitted", label, admitted as u64);
        }
        if rejected > 0 {
            self.windows
                .add(t, "serve.rejected", label, rejected as u64);
            telemetry::obs_instant("admission.reject", self.wl_track[w], t * 1e6, || {
                vec![
                    ("req", Value::U64(req as u64)),
                    ("images", Value::U64(rejected as u64)),
                ]
            });
        }
        self.windows
            .observe(t, "serve.queue_depth", label, queue_len as f64);
    }

    /// Records one routing decision — placement, hold or steal — as a
    /// `route.decision` instant on the workload's track ([`route_args`])
    /// and the same record in the flight recorder, and bumps the windowed
    /// decision-by-reason and steal-flow counters.
    ///
    /// `dispatched` is `false` for holds, busy-platform returns and
    /// placements the dispatcher then vetoed (background starvation).
    pub(crate) fn on_route(
        &mut self,
        w: usize,
        now: f64,
        ctx: &RouteCtx<'_>,
        decision: &RouteDecision,
        dispatched: bool,
    ) {
        self.advance(now);
        self.windows
            .add(now, "route.decisions", decision.reason.name(), 1);
        if decision.reason == RouteReason::Steal && dispatched {
            if let (Some(f), Some(t)) = (decision.stolen_from, decision.platform) {
                let (f, t) = (&self.platform_names[f], &self.platform_names[t]);
                self.windows
                    .add(now, "route.steals", &format!("{f}->{t}"), 1);
            }
        }
        let args = route_args(
            &self.labels[w],
            &self.platform_names,
            ctx,
            decision,
            dispatched,
        );
        let record = emit("route.decision", self.wl_track[w], now, Vec::new(), args);
        self.flight.decisions.push(record);
    }

    /// Records a ladder move (`up` = deeper / more perforation) on
    /// platform `g`. The instant says whose ladder and which way with its
    /// track and its name; the flight record spells both out.
    pub(crate) fn on_degrade(&mut self, w: usize, g: usize, t: f64, level: usize, up: bool) {
        self.advance(t);
        let (name, dir) = if up {
            ("degrade.up", "up")
        } else {
            ("degrade.down", "down")
        };
        let record = emit(
            name,
            self.wl_track[w],
            t,
            vec![
                ("workload", Value::Str(self.labels[w].clone())),
                ("dir", Value::Str(dir.to_string())),
            ],
            vec![
                ("level", Value::U64(level as u64)),
                ("platform", Value::Str(self.platform_names[g].clone())),
            ],
        );
        self.flight.ladder.push(record);
    }

    /// Records one dispatched batch: the batch slice on the GPU track,
    /// queue/execute slices per member request on the workload track
    /// (causally linked via the batch id), windowed dispatch metrics —
    /// per workload *and* per platform — and the completions this batch
    /// finishes.
    ///
    /// `planned_s` is the latency the batcher *planned* for (pre-
    /// adjustment ladder level and size); `actual_s` is the dispatched
    /// batch's simulated latency — their relative gap is the oracle
    /// error. `energy_j` is the batch's predicted energy and
    /// `queue_after` the workload queue depth once the batch popped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_dispatch(
        &mut self,
        w: usize,
        g: usize,
        now: f64,
        finish: f64,
        level: usize,
        size: usize,
        target_batch: usize,
        planned_s: f64,
        actual_s: f64,
        energy_j: f64,
        queue_after: usize,
        members: &[BatchMember],
        completions: &[Completion],
    ) {
        self.advance(now);
        let label = self.labels[w].clone();
        let plabel = platform_label(&self.platform_names[g]);
        let batch = self.next_batch;
        self.next_batch += 1;
        let batch_name = format!("batch {batch}: {label} x{size} L{level}");
        telemetry::obs_slice(
            &batch_name,
            self.gpu_track[g],
            now * 1e6,
            (finish - now) * 1e6,
            || {
                vec![
                    ("batch", Value::U64(batch)),
                    ("workload", Value::Str(label.clone())),
                    ("size", Value::U64(size as u64)),
                    ("level", Value::U64(level as u64)),
                    ("planned_s", Value::F64(planned_s)),
                    ("actual_s", Value::F64(actual_s)),
                ]
            },
        );
        for m in members {
            let queue_name = format!("req {label}#{}: queue", m.req);
            let exec_name = format!("req {label}#{}: execute", m.req);
            telemetry::obs_slice(
                &queue_name,
                self.wl_track[w],
                m.arrival * 1e6,
                (now - m.arrival).max(0.0) * 1e6,
                || {
                    vec![
                        ("batch", Value::U64(batch)),
                        ("images", Value::U64(m.images as u64)),
                    ]
                },
            );
            telemetry::obs_slice(
                &exec_name,
                self.wl_track[w],
                now * 1e6,
                (finish - now) * 1e6,
                || {
                    vec![
                        ("batch", Value::U64(batch)),
                        ("gpu", Value::U64(g as u64)),
                        ("images", Value::U64(m.images as u64)),
                    ]
                },
            );
        }
        // Windowed dispatch metrics: level/occupancy/oracle error at the
        // dispatch instant, throughput and entropy at the finish instant.
        self.windows
            .observe(now, "serve.level", &label, level as f64);
        let occupancy = size as f64 / target_batch.max(1) as f64;
        self.windows
            .observe(now, "serve.batch_occupancy", &label, occupancy);
        let oracle_err = (planned_s - actual_s).abs() / actual_s.max(1e-12);
        self.windows
            .observe(now, "serve.oracle_error", &label, oracle_err);
        self.windows
            .add(finish, "serve.throughput", &label, size as u64);
        self.windows
            .add(now, "serve.dispatches", &format!("gpu{g}"), 1);
        // The same dispatch re-keyed by platform: the `platform="…"`
        // Prometheus families read these.
        self.windows
            .observe(now, "fleet.level", &plabel, level as f64);
        self.windows
            .observe(now, "fleet.occupancy", &plabel, occupancy);
        self.windows
            .observe(now, "fleet.oracle_error", &plabel, oracle_err);
        self.windows
            .observe(now, "fleet.batch_planned_s", &plabel, planned_s);
        self.windows
            .observe(now, "fleet.batch_s", &plabel, actual_s);
        self.windows
            .observe(now, "fleet.energy_j", &plabel, energy_j);
        self.windows
            .observe(now, "fleet.queue_depth", &plabel, queue_after as f64);
        self.windows.add(now, "fleet.dispatches", &plabel, 1);
        let entropy = self.level_entropy[g][level];
        for _ in 0..size {
            self.windows
                .observe(finish, "serve.entropy", &label, entropy);
            self.windows
                .observe(finish, "fleet.entropy", &plabel, entropy);
        }
        for c in completions {
            self.windows
                .observe(c.done, "serve.latency_s", &label, c.latency_s);
            self.windows.add(c.done, "serve.deadline_total", &label, 1);
            self.windows
                .observe(c.done, "fleet.latency_s", &plabel, c.latency_s);
            self.windows.add(c.done, "fleet.deadline_total", &plabel, 1);
            if c.hit {
                self.windows.add(c.done, "serve.deadline_hits", &label, 1);
                self.windows.add(c.done, "fleet.deadline_hits", &plabel, 1);
            }
            telemetry::obs_instant("request.complete", self.wl_track[w], c.done * 1e6, || {
                vec![
                    ("req", Value::U64(c.req as u64)),
                    ("latency_s", Value::F64(c.latency_s)),
                    ("hit", Value::Bool(c.hit)),
                ]
            });
        }
    }

    /// Finalizes every window strictly below the one containing `now`:
    /// snapshots it into the flight recorder, then evaluates every
    /// workload's SLO over it. Safe to call on every event: the
    /// simulator's clock is monotonic, so all future records land in the
    /// window containing `now` or later.
    pub(crate) fn advance(&mut self, now: f64) {
        let upto = self.windows.index_of(now);
        while self.next_window < upto {
            let idx = self.next_window;
            self.next_window += 1;
            self.close_window(idx);
        }
    }

    /// Flushes every remaining window (through the last one holding data)
    /// and merges the windowed series into the telemetry sink.
    pub(crate) fn finish(&mut self) {
        let last = self.windows.last_index().unwrap_or(0);
        while self.next_window <= last {
            let idx = self.next_window;
            self.next_window += 1;
            self.close_window(idx);
        }
        telemetry::merge_windowed(&self.windows);
    }

    /// Snapshot first, evaluate second: an alert fired from this window
    /// freezes a flight recorder that already contains the alerting
    /// window's state.
    fn close_window(&mut self, idx: u64) {
        self.snapshot_window(idx);
        for w in 0..self.slos.len() {
            self.evaluate_window(w, idx);
        }
    }

    /// Renders closed window `idx` (every counter and histogram cell that
    /// landed in it) into the flight recorder's window ring.
    fn snapshot_window(&mut self, idx: u64) {
        let (start_s, end_s) = self.windows.bounds(idx);
        let records = self.windows.records_in(idx);
        if records.is_empty() {
            return;
        }
        let mut out = String::with_capacity(512);
        out.push_str("{\"window\":");
        json::write_number(&mut out, idx as f64);
        out.push_str(",\"start_s\":");
        json::write_number(&mut out, start_s);
        out.push_str(",\"end_s\":");
        json::write_number(&mut out, end_s);
        out.push_str(",\"records\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, r.name);
            out.push_str(",\"label\":");
            json::write_escaped(&mut out, r.label);
            match &r.value {
                WindowValue::Count(n) => {
                    out.push_str(",\"count\":");
                    json::write_number(&mut out, *n as f64);
                }
                WindowValue::Hist(h) => {
                    out.push_str(",\"n\":");
                    json::write_number(&mut out, h.count as f64);
                    out.push_str(",\"mean\":");
                    json::write_number(&mut out, h.mean());
                    out.push_str(",\"p99\":");
                    json::write_number(&mut out, h.quantile(0.99));
                    out.push_str(",\"max\":");
                    json::write_number(&mut out, h.max);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        self.flight.windows.push(out);
    }

    /// Evaluates workload `w`'s objectives over closed window `idx`: per
    /// violated objective, one alert instant on the workload's track,
    /// counted under `serve.slo_alerts`, and (the run's first) an
    /// incident.
    fn evaluate_window(&mut self, w: usize, idx: u64) {
        let violations = self.check_policy(&self.slos[w], idx, &self.labels[w]);
        if violations.is_empty() {
            return;
        }
        let label = self.labels[w].clone();
        let (start_s, _end_s) = self.windows.bounds(idx);
        for (metric, observed, objective, burn) in violations {
            self.windows.add(start_s, "serve.slo_alerts", &label, 1);
            let args = vec![
                ("workload", Value::Str(label.clone())),
                ("window", Value::U64(idx)),
                ("metric", Value::Str(metric.to_string())),
                ("observed", Value::F64(observed)),
                ("objective", Value::F64(objective)),
                ("burn_rate", Value::F64(burn)),
            ];
            let alert = emit("slo.alert", self.wl_track[w], start_s, Vec::new(), args);
            self.fire_incident(&alert);
        }
    }

    /// Checks one policy against window `idx` of the `serve.*` series
    /// under `label`, returning `(metric, observed, objective, burn)` per
    /// violated objective.
    fn check_policy(
        &self,
        policy: &SloPolicy,
        idx: u64,
        label: &str,
    ) -> Vec<(&'static str, f64, f64, f64)> {
        let mut violations = Vec::new();
        if let Some(min_hit) = policy.min_hit_rate {
            let total = self.windows.counter_in(idx, "serve.deadline_total", label);
            if total > 0 {
                let hits = self.windows.counter_in(idx, "serve.deadline_hits", label);
                let hit_rate = hits as f64 / total as f64;
                let budget = (1.0 - min_hit).max(1e-9);
                let burn = (1.0 - hit_rate) / budget;
                if burn > 1.0 {
                    violations.push(("deadline_hit_rate", hit_rate, min_hit, burn));
                }
            }
        }
        if let Some(max_p99) = policy.max_p99_s {
            if let Some(h) = self.windows.histogram_in(idx, "serve.latency_s", label) {
                let p99 = h.quantile(0.99);
                if p99 > max_p99 {
                    violations.push(("p99_latency_s", p99, max_p99, p99 / max_p99));
                }
            }
        }
        if let Some(max_entropy) = policy.max_entropy {
            if let Some(h) = self.windows.histogram_in(idx, "serve.entropy", label) {
                let mean = h.mean();
                if mean > max_entropy {
                    violations.push(("entropy", mean, max_entropy, mean / max_entropy));
                }
            }
        }
        violations
    }

    /// Freezes the flight recorder into a self-contained JSON incident
    /// snapshot the moment the run's *first* SLO alert fires (later
    /// alerts are still traced, but the snapshot captures the onset):
    /// the run's identity, `alert` — that alert's flight record — and the
    /// recorder's three rings. Registered via
    /// [`pcnn_telemetry::record_incident`]; the trace session writes it
    /// next to the trace as `<trace>.incident.json`.
    /// [`IncidentReport::from_snapshot`] reads it back.
    fn fire_incident(&mut self, alert: &str) {
        if self.incident_fired {
            return;
        }
        self.incident_fired = true;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"kind\":\"incident\",\"router\":");
        json::write_escaped(&mut out, &self.router);
        out.push_str(",\"window_s\":");
        json::write_number(&mut out, OBS_WINDOW_S);
        out.push_str(",\"alert\":");
        out.push_str(alert);
        let quoted = |name: &String| {
            let mut q = String::new();
            json::write_escaped(&mut q, name);
            q
        };
        let sections: [(&str, Vec<String>); 5] = [
            (
                "platforms",
                self.platform_names.iter().map(quoted).collect(),
            ),
            ("workloads", self.labels.iter().map(quoted).collect()),
            ("windows", self.flight.windows.iter().cloned().collect()),
            (
                "route_decisions",
                self.flight.decisions.iter().cloned().collect(),
            ),
            ("ladder_moves", self.flight.ladder.iter().cloned().collect()),
        ];
        for (key, items) in sections {
            out.push_str(&format!(",\"{key}\":[{}]", items.join(",")));
        }
        out.push('}');
        telemetry::record_incident(out);
    }
}

/// The compact per-candidate encoding the `route.decision` args carry:
/// `platform:batch:predicted_s:slack_s:joules_per_image:feasible` per
/// candidate, `;`-joined, `-` for a deadline-free slack. Kept flat so the
/// trace stays cheap; [`decode_candidates`] re-expands it.
fn encode_candidates(platform_names: &[String], decision: &RouteDecision) -> String {
    let mut out = String::new();
    for (i, c) in decision.candidates.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&platform_names[c.platform]);
        out.push(':');
        json::write_number(&mut out, c.batch as f64);
        out.push(':');
        json::write_number(&mut out, c.predicted_s);
        out.push(':');
        match c.slack_s {
            Some(s) => json::write_number(&mut out, s),
            None => out.push('-'),
        }
        out.push(':');
        json::write_number(&mut out, c.joules_per_image);
        out.push(':');
        out.push(if c.feasible { '1' } else { '0' });
    }
    out
}

/// The inverse of [`encode_candidates`]. A fragment that is not six
/// well-formed fields is an error, not a candidate quietly dropped from
/// the audit trail.
fn decode_candidates(s: &str) -> Result<Vec<RouteCandidate>, String> {
    s.split(';')
        .filter(|c| !c.is_empty())
        .map(|c| {
            let bad = || format!("malformed route candidate `{c}`");
            // The platform name is free-form; the five score fields are
            // not, so split from the right.
            let fields: Vec<&str> = c.rsplitn(6, ':').collect();
            let &[feasible, jpi, slack, predicted, batch, platform] = fields.as_slice() else {
                return Err(bad());
            };
            let num = |field: &str| {
                let v = field.parse::<f64>().ok();
                v.filter(|v| v.is_finite()).ok_or_else(bad)
            };
            Ok(RouteCandidate {
                platform: platform.to_string(),
                batch: batch.parse().map_err(|_| bad())?,
                predicted_s: num(predicted)?,
                slack_s: (slack != "-").then(|| num(slack)).transpose()?,
                joules_per_image: num(jpi)?,
                feasible: match feasible {
                    "1" => true,
                    "0" => false,
                    _ => return Err(bad()),
                },
            })
        })
        .collect()
}

/// A field the writer always emits: its absence (or a wrong type, a
/// negative or fractional count) fails the record instead of defaulting.
fn need<T>(value: Option<T>, what: &str, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("{what} has no valid \"{key}\""))
}

/// One per-candidate score the router considered and (mostly) rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteCandidate {
    /// Platform (architecture) name.
    pub platform: String,
    /// Batch size the score was computed for.
    pub batch: u64,
    /// Predicted batch latency on this platform, seconds.
    pub predicted_s: f64,
    /// Deadline slack were the batch placed here (`None` for
    /// deadline-free workloads).
    pub slack_s: Option<f64>,
    /// Predicted energy per image, joules.
    pub joules_per_image: f64,
    /// Whether the head deadline would still be met here.
    pub feasible: bool,
}

/// One routing decision from the audit trail — a placement, hold or
/// steal, with every candidate's score at decision time.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRecord {
    /// Decision time, virtual seconds.
    pub t_s: f64,
    /// Workload name.
    pub workload: String,
    /// Head request id the decision was made for.
    pub req: u64,
    /// Chosen platform name, `None` for a hold.
    pub platform: Option<String>,
    /// Reason code (`DeadlineSlack`, `JoulesPerImage`, `Steal`, …).
    pub reason: String,
    /// Whether the dispatcher went through with the placement (`false`
    /// for holds, busy platforms and starvation vetoes).
    pub dispatched: bool,
    /// Workload queue depth at decision time, images.
    pub queue: u64,
    /// For steals: the busy platform the work was stolen from.
    pub from: Option<String>,
    /// Per-candidate scores (empty when the router saw no alternatives).
    pub candidates: Vec<RouteCandidate>,
}

impl RouteRecord {
    /// Reads a decision back from a `route.decision` instant's `args`
    /// (`t_s` from the event's timestamp) or from an incident snapshot's
    /// `route_decisions[]` record (`t_s` from the record's own stamp) —
    /// the two are the same list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the field when anything but `from` (only
    /// steals carry it) is absent or ill-typed, or a candidate is
    /// malformed.
    pub fn from_args(t_s: f64, args: &JsonValue) -> Result<RouteRecord, String> {
        let what = "route decision";
        let text = |key: &str| need(args.str_at(key), what, key);
        let platform = Some(text("platform")?).filter(|p| *p != HOLD);
        Ok(RouteRecord {
            t_s,
            workload: text("workload")?.to_string(),
            req: need(args.u64_at("req"), what, "req")?,
            platform: platform.map(str::to_string),
            reason: text("reason")?.to_string(),
            dispatched: need(
                args.get("dispatched").and_then(JsonValue::as_bool),
                what,
                "dispatched",
            )?,
            queue: need(args.u64_at("queue"), what, "queue")?,
            from: args.str_at("from").map(str::to_string),
            candidates: decode_candidates(text("candidates")?)?,
        })
    }
}

/// One SLO alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Start of the violating window, virtual seconds.
    pub t_s: f64,
    /// The workload whose objective was violated.
    pub workload: String,
    /// Violated objective.
    pub metric: String,
    /// Observed value over the window.
    pub observed: f64,
    /// The objective it crossed.
    pub objective: f64,
    /// Error-budget burn rate.
    pub burn_rate: f64,
}

impl Alert {
    /// Reads an alert back from an `slo.alert` instant's `args` or from
    /// an incident snapshot's `alert` record (`t_s` as for
    /// [`RouteRecord::from_args`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the args lack the workload, the metric or
    /// one of its three numbers.
    pub fn from_args(t_s: f64, args: &JsonValue) -> Result<Alert, String> {
        let what = "SLO alert";
        let num = |key: &str| need(args.f64_at(key), what, key);
        Ok(Alert {
            t_s,
            workload: need(args.str_at("workload"), what, "workload")?.to_string(),
            metric: need(args.str_at("metric"), what, "metric")?.to_string(),
            observed: num("observed")?,
            objective: num("objective")?,
            burn_rate: num("burn_rate")?,
        })
    }
}

/// One parsed incident snapshot (`<trace>.incident.json`): the alert
/// that froze the flight recorder plus the recorder's contents.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Router policy name the run was serving under.
    pub router: String,
    /// SLO window width, virtual seconds.
    pub window_s: f64,
    /// The alert that fired first.
    pub alert: Alert,
    /// Fleet platform names, routing-index order.
    pub platforms: Vec<String>,
    /// Workload names.
    pub workloads: Vec<String>,
    /// The last closed-window snapshots, oldest first (raw records).
    pub windows: Vec<JsonValue>,
    /// Recent routing decisions, oldest first.
    pub route_decisions: Vec<RouteRecord>,
    /// Recent ladder moves, oldest first (raw records: `t_s`, `workload`,
    /// `dir`, then the `degrade.*` instant's `level` and `platform`).
    pub ladder_moves: Vec<JsonValue>,
}

impl IncidentReport {
    /// Parses the self-contained snapshot frozen when a run's first SLO
    /// alert fired.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not an incident snapshot,
    /// lacks one of its sections, or its alert or one of its decision
    /// records does not read back.
    pub fn from_snapshot(doc: &JsonValue) -> Result<IncidentReport, String> {
        let what = "incident snapshot";
        if doc.str_at("kind") != Some("incident") {
            return Err("document is not an incident snapshot (kind != \"incident\")".to_string());
        }
        let array = |key: &str| need(doc.get(key).and_then(JsonValue::as_array), what, key);
        let names = |key: &str| -> Result<Vec<String>, String> {
            let names = array(key)?.iter().map(JsonValue::as_str);
            names.map(|n| Ok(need(n, what, key)?.to_string())).collect()
        };
        let stamp = |record: &JsonValue| need(record.f64_at("t_s"), "flight record", "t_s");
        let alert = need(doc.get("alert"), what, "alert")?;
        let decisions = array("route_decisions")?.iter();
        Ok(IncidentReport {
            router: need(doc.str_at("router"), what, "router")?.to_string(),
            window_s: need(doc.f64_at("window_s"), what, "window_s")?,
            alert: Alert::from_args(stamp(alert)?, alert)?,
            platforms: names("platforms")?,
            workloads: names("workloads")?,
            windows: array("windows")?.to_vec(),
            route_decisions: decisions
                .map(|d| RouteRecord::from_args(stamp(d)?, d))
                .collect::<Result<_, _>>()?,
            ladder_moves: array("ladder_moves")?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_match_kinds() {
        let rt = SloPolicy::for_kind(WorkloadKind::RealTime, Some(0.05));
        assert_eq!(rt.min_hit_rate, Some(0.95));
        assert_eq!(rt.max_p99_s, Some(0.05));
        let bg = SloPolicy::for_kind(WorkloadKind::Background, None);
        assert_eq!(bg, SloPolicy::default());
    }

    use crate::fleet::CandidateScore;

    fn score(platform: usize, slack_s: Option<f64>, feasible: bool) -> CandidateScore {
        CandidateScore {
            platform,
            batch: 4,
            predicted_s: 0.5 * 4f64.powi(platform as i32),
            slack_s,
            joules_per_image: 2.0 / 4f64.powi(platform as i32),
            feasible,
        }
    }

    fn names() -> Vec<String> {
        vec!["K20c".into(), "Jetson TX1".into(), "GTX 970m".into()]
    }

    #[test]
    fn candidate_encoding_is_compact_and_stable() {
        let d = RouteDecision::place(0, RouteReason::DeadlineSlack)
            .with_candidates(vec![score(0, Some(0.25), true), score(1, None, true)]);
        assert_eq!(
            encode_candidates(&names(), &d),
            "K20c:4:0.5:0.25:2:1;Jetson TX1:4:2:-:0.5:1"
        );
    }

    #[test]
    fn candidate_parsing_splits_from_the_right() {
        // Platform names are free-form (spaces included); only the five
        // score fields are colon-structured.
        let cands = decode_candidates("K20c:4:0.5:0.25:2:1;Jetson TX1:4:2:-:0.5:0").unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].platform, "K20c");
        assert_eq!(cands[0].batch, 4);
        assert_eq!(cands[0].slack_s, Some(0.25));
        assert!(cands[0].feasible);
        assert_eq!(cands[1].platform, "Jetson TX1");
        assert_eq!(cands[1].slack_s, None); // deadline-free
        assert!(!cands[1].feasible);
        assert!(decode_candidates("").unwrap().is_empty());
        // A damaged fragment fails the decision it belongs to rather than
        // vanishing from its trail: too few fields, a batch that is no
        // count, a number that is none, a verdict that is neither.
        for bad in [
            "junk",
            "4:0.5:0.25:2:1",
            "K20c:-4:0.5:0.25:2:1",
            "K20c:4:NaN:0.25:2:1",
            "K20c:4:0.5:0.25:2:yes",
            "K20c:4:0.5:0.25:2:1;junk",
        ] {
            let err = decode_candidates(bad).unwrap_err();
            assert!(err.contains("malformed route candidate"), "{bad}: {err}");
        }
    }

    /// What the reader makes of `args` once rendered and parsed — as a
    /// trace instant's `args` are.
    fn reread(args: &EventArgs) -> JsonValue {
        let mut rendered = String::new();
        telemetry::write_args(&mut rendered, args);
        json::parse(&rendered).unwrap()
    }

    #[test]
    fn route_decision_round_trips_through_its_args() {
        let ctx = RouteCtx {
            workload: 0,
            kind: WorkloadKind::RealTime,
            t_user: Some(0.1),
            now: 1.5,
            head_arrival: 1.25,
            head_req: 37,
            queue_len: 5,
            queue_fill: 0.5,
            idle: &[],
            free_at: &[],
            levels: &[],
            targets: &[],
            peak_flops: &[],
        };
        let placed = RouteDecision::place(1, RouteReason::DeadlineSlack).with_candidates(vec![
            score(0, Some(-0.125), false),
            score(1, Some(0.25), true),
            score(2, None, true),
        ]);
        let hold = RouteDecision::hold(RouteReason::HoldForBusy);
        let mut steal =
            RouteDecision::place(2, RouteReason::Steal).with_candidates(vec![score(2, None, true)]);
        steal.stolen_from = Some(0);
        for (decision, dispatched) in [(placed, true), (hold, false), (steal, true)] {
            let args = route_args("video, \"hd\"", &names(), &ctx, &decision, dispatched);
            let back = RouteRecord::from_args(1.5, &reread(&args)).unwrap();
            let named = |p: Option<usize>| p.map(|p| names()[p].clone());
            assert_eq!(back.t_s, 1.5);
            assert_eq!(back.workload, "video, \"hd\"");
            assert_eq!((back.req, back.queue), (37, 5));
            assert_eq!(back.platform, named(decision.platform));
            assert_eq!(back.reason, decision.reason.name());
            assert_eq!(back.dispatched, dispatched);
            assert_eq!(back.from, named(decision.stolen_from));
            assert_eq!(back.candidates.len(), decision.candidates.len());
            for (b, c) in back.candidates.iter().zip(&decision.candidates) {
                assert_eq!(b.platform, names()[c.platform]);
                assert_eq!(b.batch, c.batch as u64);
                assert_eq!(b.predicted_s, c.predicted_s);
                assert_eq!(b.slack_s, c.slack_s);
                assert_eq!(b.joules_per_image, c.joules_per_image);
                assert_eq!(b.feasible, c.feasible);
            }
        }
        // Every field but `from` is required of a record.
        let hold = RouteDecision::hold(RouteReason::HoldForBusy);
        let args = route_args("vid", &names(), &ctx, &hold, false);
        for dropped in 0..args.len() {
            let mut partial = args.clone();
            let (key, _) = partial.remove(dropped);
            let err = RouteRecord::from_args(0.0, &reread(&partial)).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{key}: {err}");
        }
    }

    #[test]
    fn analyze_incident_parses_a_snapshot() {
        // The records are what `emit` renders: the instants' args behind
        // a `t_s` stamp, candidates packed.
        let doc = json::parse(
            r#"{"kind":"incident","router":"round-robin","window_s":0.25,
            "alert":{"t_s":0.5,"workload":"vid","window":2,
                     "metric":"deadline_hit_rate","observed":0.5,"objective":0.95,
                     "burn_rate":10.0},
            "platforms":["K20c","TX1"],"workloads":["vid"],
            "windows":[{"window":2,"records":[]}],
            "route_decisions":[
              {"t_s":0.4,"workload":"vid","req":7,"platform":"TX1",
               "reason":"RoundRobin","dispatched":true,"queue":3,
               "candidates":"TX1:1:2:-1:0.5:0"},
              {"t_s":0.45,"workload":"vid","req":8,"platform":"hold",
               "reason":"HoldForBusy","dispatched":false,"queue":4,"candidates":""}],
            "ladder_moves":[{"t_s":0.3,"workload":"vid","dir":"down","level":1,"platform":"TX1"}]}"#,
        )
        .unwrap();
        let inc = IncidentReport::from_snapshot(&doc).unwrap();
        assert_eq!(inc.router, "round-robin");
        assert_eq!(inc.alert.workload, "vid");
        assert_eq!(inc.alert.metric, "deadline_hit_rate");
        assert_eq!(inc.alert.t_s, 0.5);
        assert_eq!(inc.platforms, vec!["K20c", "TX1"]);
        assert_eq!(inc.windows.len(), 1);
        assert_eq!(inc.ladder_moves.len(), 1);
        let d = &inc.route_decisions[0];
        assert_eq!((d.t_s, d.req), (0.4, 7));
        assert_eq!(d.platform.as_deref(), Some("TX1"));
        assert!(!d.candidates[0].feasible);
        assert_eq!(d.candidates[0].slack_s, Some(-1.0));
        assert_eq!(inc.route_decisions[1].platform, None);
        // A non-incident document is a typed refusal, and so is a
        // snapshot whose alert names nobody or that lost a section.
        let not = json::parse(r#"{"kind":"report"}"#).unwrap();
        assert!(IncidentReport::from_snapshot(&not).is_err());
        let text = |doc: &JsonValue| {
            let JsonValue::Object(fields) = doc else {
                unreachable!("the snapshot is an object")
            };
            fields.clone()
        };
        let mut anonymous = text(&doc);
        anonymous.insert(
            "alert".into(),
            json::parse(
                r#"{"t_s":0.5,"metric":"entropy","observed":1,"objective":1,"burn_rate":1}"#,
            )
            .unwrap(),
        );
        let err = IncidentReport::from_snapshot(&JsonValue::Object(anonymous)).unwrap_err();
        assert!(err.contains("\"workload\""), "{err}");
        let mut cut = text(&doc);
        cut.remove("ladder_moves");
        let err = IncidentReport::from_snapshot(&JsonValue::Object(cut)).unwrap_err();
        assert!(err.contains("\"ladder_moves\""), "{err}");
    }
}
