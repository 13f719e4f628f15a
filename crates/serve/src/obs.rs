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
//!   tracks, manifest `window` records and Prometheus totals (the
//!   `platform:` prefix renders as a `platform="…"` label pair; see
//!   [`pcnn_telemetry::prom::PLATFORM_LABEL_PREFIX`]).
//! * **Routing audit trail**: every [`RouteDecision`] the router returns —
//!   placements, holds and steals alike — lands as a `route.decision`
//!   instant carrying the chosen platform, the reason code and every
//!   candidate's rejected score, answering "why did request X land on
//!   platform P" offline (`pcnn obs route`).
//! * **SLO alerts + incident snapshot**: per-workload and per-platform
//!   objectives ([`SloPolicy`]) are evaluated as each window closes;
//!   violations emit `slo.alert` / `slo.platform_alert` instants carrying
//!   the error-budget burn rate, and the *first* alert of a run freezes
//!   the [`FlightRecorder`] — the last few closed windows plus recent
//!   route decisions and ladder moves — into a self-contained JSON
//!   incident snapshot ([`pcnn_telemetry::record_incident`]) for
//!   postmortem without a full trace.

use pcnn_data::WorkloadKind;
use pcnn_telemetry::windowed::WindowValue;
use pcnn_telemetry::{self as telemetry, json, Ring, Value, WindowedSeries};

use crate::config::{ServeWorkload, ServerConfig};
use crate::fleet::{Platform, RouteCtx, RouteDecision, RouteReason};

/// Closed-window snapshots the flight recorder keeps.
const FLIGHT_WINDOWS: usize = 8;
/// Route decisions the flight recorder keeps.
const FLIGHT_DECISIONS: usize = 64;
/// Ladder moves the flight recorder keeps.
const FLIGHT_LADDER: usize = 64;

/// Per-workload (or per-platform) service-level objectives, evaluated
/// once per virtual-time window (width [`ServerConfig::obs_window_s`]).
/// Objectives left `None` are not monitored; a policy with every field
/// `None` never alerts.
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
    /// No objectives: never alerts.
    pub fn none() -> Self {
        Self::default()
    }

    /// The default policy a workload of `kind` gets when none is declared:
    /// real-time demands a 95 % hit rate and p99 within its deadline,
    /// interactive a 90 % hit rate and a 1.4-nat entropy ceiling (one rung
    /// above the default ladder's deepest level), background nothing.
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
            WorkloadKind::Background => Self::none(),
        }
    }

    /// Validates objective domains.
    ///
    /// # Errors
    ///
    /// Returns [`pcnn_core::Error::InvalidInput`] when an objective is
    /// outside its domain.
    pub fn validate(&self) -> pcnn_core::Result<()> {
        if let Some(r) = self.min_hit_rate {
            if !(0.0..=1.0).contains(&r) {
                return Err(pcnn_core::Error::InvalidInput {
                    what: "slo min_hit_rate must be within [0, 1]",
                });
            }
        }
        if let Some(p) = self.max_p99_s {
            if !p.is_finite() || p <= 0.0 {
                return Err(pcnn_core::Error::InvalidInput {
                    what: "slo max_p99_s must be positive and finite",
                });
            }
        }
        if let Some(e) = self.max_entropy {
            if !e.is_finite() || e <= 0.0 {
                return Err(pcnn_core::Error::InvalidInput {
                    what: "slo max_entropy must be positive and finite",
                });
            }
        }
        Ok(())
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

/// Bounded rings of pre-rendered JSON fragments: the last few closed
/// windows, route decisions and ladder moves. Cheap enough to run on
/// every traced run (a few string clones per event, fixed memory), and
/// frozen into the incident snapshot when the first SLO alert fires.
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
    slo: Vec<SloPolicy>,
    /// Per-platform objectives, indexed by platform
    /// ([`ServerConfig::platform_slos`]).
    platform_slo: Vec<Option<SloPolicy>>,
    /// First window index not yet closed (snapshotted + SLO-evaluated).
    next_window: u64,
    next_batch: u64,
    router: String,
    window_s: f64,
    flight: FlightRecorder,
    incident_fired: bool,
}

impl Obs {
    /// Builds the recorder when telemetry is on, registering one pid-3
    /// track per platform and per workload; `None` otherwise.
    pub(crate) fn maybe(
        router_name: &str,
        config: &ServerConfig,
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
        let mut labels = Vec::with_capacity(workloads.len());
        let mut slo = Vec::with_capacity(workloads.len());
        for (w, workload) in workloads.iter().enumerate() {
            telemetry::obs_track_name(wl_track[w], &format!("workload: {}", workload.app.name));
            labels.push(workload.app.name.clone());
            slo.push(
                workload
                    .slo
                    .clone()
                    .unwrap_or_else(|| SloPolicy::for_kind(workload.app.kind, workload.t_user())),
            );
        }
        let mut platform_slo: Vec<Option<SloPolicy>> = vec![None; platforms.len()];
        for (g, policy) in &config.platform_slos {
            platform_slo[*g] = Some(policy.clone());
        }
        Some(Obs {
            windows: WindowedSeries::new(config.obs_window_s),
            labels,
            platform_names: platforms.iter().map(|p| p.arch.name.to_string()).collect(),
            gpu_track,
            wl_track,
            level_entropy: platforms
                .iter()
                .map(|p| p.ladder.levels.iter().map(|l| l.entropy).collect())
                .collect(),
            slo,
            platform_slo,
            next_window: 0,
            next_batch: 0,
            router: router_name.to_string(),
            window_s: config.obs_window_s,
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

    /// Records one routing decision — placement, hold or steal. Emits a
    /// `route.decision` instant on the workload's track carrying the
    /// chosen platform, the reason code, the queue depth at decision time
    /// and every candidate's score (so the audit trail can answer why the
    /// *other* platforms were passed over), bumps the windowed
    /// decision-by-reason and steal-flow counters, and appends the
    /// decision to the flight recorder.
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
        let label = self.labels[w].clone();
        let platform = decision.platform.map(|p| self.platform_names[p].clone());
        let from = decision.stolen_from.map(|p| self.platform_names[p].clone());
        let reason = decision.reason.name();
        let candidates = encode_candidates(&self.platform_names, decision);
        telemetry::obs_instant("route.decision", self.wl_track[w], now * 1e6, || {
            let mut args = vec![
                ("workload", Value::Str(label.clone())),
                ("req", Value::U64(ctx.head_req as u64)),
                (
                    "platform",
                    Value::Str(platform.clone().unwrap_or_else(|| "hold".to_string())),
                ),
                ("reason", Value::Str(reason.to_string())),
                ("dispatched", Value::Bool(dispatched)),
                ("queue", Value::U64(ctx.queue_len as u64)),
                ("candidates", Value::Str(candidates.clone())),
            ];
            if let Some(f) = &from {
                args.push(("from", Value::Str(f.clone())));
            }
            args
        });
        self.windows.add(now, "route.decisions", reason, 1);
        if decision.reason == RouteReason::Steal && dispatched {
            if let (Some(f), Some(t)) = (&from, &platform) {
                self.windows
                    .add(now, "route.steals", &format!("{f}->{t}"), 1);
            }
        }
        let mut rec = String::with_capacity(256);
        rec.push_str("{\"t_s\":");
        json::write_number(&mut rec, now);
        rec.push_str(",\"workload\":");
        json::write_escaped(&mut rec, &label);
        rec.push_str(",\"req\":");
        json::write_number(&mut rec, ctx.head_req as f64);
        rec.push_str(",\"platform\":");
        match &platform {
            Some(p) => json::write_escaped(&mut rec, p),
            None => rec.push_str("null"),
        }
        rec.push_str(",\"reason\":");
        json::write_escaped(&mut rec, reason);
        rec.push_str(",\"dispatched\":");
        rec.push_str(if dispatched { "true" } else { "false" });
        rec.push_str(",\"queue\":");
        json::write_number(&mut rec, ctx.queue_len as f64);
        if let Some(f) = &from {
            rec.push_str(",\"from\":");
            json::write_escaped(&mut rec, f);
        }
        rec.push_str(",\"candidates\":[");
        for (i, c) in decision.candidates.iter().enumerate() {
            if i > 0 {
                rec.push(',');
            }
            rec.push_str("{\"platform\":");
            json::write_escaped(&mut rec, &self.platform_names[c.platform]);
            rec.push_str(",\"batch\":");
            json::write_number(&mut rec, c.batch as f64);
            rec.push_str(",\"predicted_s\":");
            json::write_number(&mut rec, c.predicted_s);
            rec.push_str(",\"slack_s\":");
            match c.slack_s {
                Some(s) => json::write_number(&mut rec, s),
                None => rec.push_str("null"),
            }
            rec.push_str(",\"joules_per_image\":");
            json::write_number(&mut rec, c.joules_per_image);
            rec.push_str(",\"feasible\":");
            rec.push_str(if c.feasible { "true" } else { "false" });
            rec.push('}');
        }
        rec.push_str("]}");
        self.flight.decisions.push(rec);
    }

    /// Records a ladder move (`up` = deeper / more perforation) on
    /// platform `g`.
    pub(crate) fn on_degrade(&mut self, w: usize, g: usize, t: f64, level: usize, up: bool) {
        self.advance(t);
        let name = if up { "degrade.up" } else { "degrade.down" };
        let platform = self.platform_names[g].clone();
        telemetry::obs_instant(name, self.wl_track[w], t * 1e6, || {
            vec![
                ("level", Value::U64(level as u64)),
                ("platform", Value::Str(platform.clone())),
            ]
        });
        let mut rec = String::with_capacity(96);
        rec.push_str("{\"t_s\":");
        json::write_number(&mut rec, t);
        rec.push_str(",\"workload\":");
        json::write_escaped(&mut rec, &self.labels[w]);
        rec.push_str(",\"platform\":");
        json::write_escaped(&mut rec, &platform);
        rec.push_str(",\"level\":");
        json::write_number(&mut rec, level as f64);
        rec.push_str(",\"dir\":\"");
        rec.push_str(if up { "up" } else { "down" });
        rec.push_str("\"}");
        self.flight.ladder.push(rec);
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
        // The same dispatch re-keyed by platform: the per-platform SLO
        // monitors and the `platform="…"` Prometheus families read these.
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
    /// workload's and platform's SLO over it. Safe to call on every
    /// event: the simulator's clock is monotonic, so all future records
    /// land in the window containing `now` or later.
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
        for w in 0..self.slo.len() {
            self.evaluate_window(w, idx);
        }
        for g in 0..self.platform_slo.len() {
            self.evaluate_platform_window(g, idx);
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

    /// Evaluates workload `w`'s SLO over closed window `idx`, emitting one
    /// `slo.alert` instant per violated objective.
    fn evaluate_window(&mut self, w: usize, idx: u64) {
        let policy = self.slo[w].clone();
        let label = self.labels[w].clone();
        let (start_s, _end_s) = self.windows.bounds(idx);
        let violations = self.check_policy(&policy, idx, "serve", &label);
        for (metric, observed, objective, burn) in violations {
            self.windows.add(start_s, "serve.slo_alerts", &label, 1);
            telemetry::obs_instant("slo.alert", self.wl_track[w], start_s * 1e6, || {
                vec![
                    ("workload", Value::Str(label.clone())),
                    ("window", Value::U64(idx)),
                    ("metric", Value::Str(metric.to_string())),
                    ("observed", Value::F64(observed)),
                    ("objective", Value::F64(objective)),
                    ("burn_rate", Value::F64(burn)),
                ]
            });
            self.fire_incident(
                "workload",
                &label.clone(),
                idx,
                start_s,
                metric,
                observed,
                objective,
                burn,
            );
        }
    }

    /// Evaluates platform `g`'s SLO (if one was configured) over closed
    /// window `idx`, emitting one `slo.platform_alert` instant — naming
    /// the platform — per violated objective.
    fn evaluate_platform_window(&mut self, g: usize, idx: u64) {
        let Some(policy) = self.platform_slo[g].clone() else {
            return;
        };
        let name = self.platform_names[g].clone();
        let plabel = platform_label(&name);
        let (start_s, _end_s) = self.windows.bounds(idx);
        let violations = self.check_policy(&policy, idx, "fleet", &plabel);
        for (metric, observed, objective, burn) in violations {
            self.windows.add(start_s, "fleet.slo_alerts", &plabel, 1);
            telemetry::obs_instant(
                "slo.platform_alert",
                self.gpu_track[g],
                start_s * 1e6,
                || {
                    vec![
                        ("platform", Value::Str(name.clone())),
                        ("window", Value::U64(idx)),
                        ("metric", Value::Str(metric.to_string())),
                        ("observed", Value::F64(observed)),
                        ("objective", Value::F64(objective)),
                        ("burn_rate", Value::F64(burn)),
                    ]
                },
            );
            self.fire_incident(
                "platform", &name, idx, start_s, metric, observed, objective, burn,
            );
        }
    }

    /// Checks one policy against window `idx` of the `{prefix}.*` series
    /// under `label`, returning `(metric, observed, objective, burn)` per
    /// violated objective.
    fn check_policy(
        &self,
        policy: &SloPolicy,
        idx: u64,
        prefix: &str,
        label: &str,
    ) -> Vec<(&'static str, f64, f64, f64)> {
        let mut violations = Vec::new();
        if let Some(min_hit) = policy.min_hit_rate {
            let total = self
                .windows
                .counter_in(idx, &format!("{prefix}.deadline_total"), label);
            if total > 0 {
                let hits = self
                    .windows
                    .counter_in(idx, &format!("{prefix}.deadline_hits"), label);
                let hit_rate = hits as f64 / total as f64;
                let budget = (1.0 - min_hit).max(1e-9);
                let burn = (1.0 - hit_rate) / budget;
                if burn > 1.0 {
                    violations.push(("deadline_hit_rate", hit_rate, min_hit, burn));
                }
            }
        }
        if let Some(max_p99) = policy.max_p99_s {
            if let Some(h) = self
                .windows
                .histogram_in(idx, &format!("{prefix}.latency_s"), label)
            {
                let p99 = h.quantile(0.99);
                if p99 > max_p99 {
                    violations.push(("p99_latency_s", p99, max_p99, p99 / max_p99));
                }
            }
        }
        if let Some(max_entropy) = policy.max_entropy {
            if let Some(h) = self
                .windows
                .histogram_in(idx, &format!("{prefix}.entropy"), label)
            {
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
    /// alerts are still traced, but the snapshot captures the onset).
    /// Registered via [`pcnn_telemetry::record_incident`]; the trace
    /// session writes it next to the trace as `<trace>.incident.json`.
    #[allow(clippy::too_many_arguments)]
    fn fire_incident(
        &mut self,
        scope: &str,
        subject: &str,
        window: u64,
        t_s: f64,
        metric: &str,
        observed: f64,
        objective: f64,
        burn: f64,
    ) {
        if self.incident_fired {
            return;
        }
        self.incident_fired = true;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"kind\":\"incident\",\"router\":");
        json::write_escaped(&mut out, &self.router);
        out.push_str(",\"window_s\":");
        json::write_number(&mut out, self.window_s);
        out.push_str(",\"alert\":{\"t_s\":");
        json::write_number(&mut out, t_s);
        out.push_str(",\"scope\":");
        json::write_escaped(&mut out, scope);
        out.push_str(",\"subject\":");
        json::write_escaped(&mut out, subject);
        out.push_str(",\"window\":");
        json::write_number(&mut out, window as f64);
        out.push_str(",\"metric\":");
        json::write_escaped(&mut out, metric);
        out.push_str(",\"observed\":");
        json::write_number(&mut out, observed);
        out.push_str(",\"objective\":");
        json::write_number(&mut out, objective);
        out.push_str(",\"burn_rate\":");
        json::write_number(&mut out, burn);
        out.push_str("},\"platforms\":[");
        for (i, p) in self.platform_names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, p);
        }
        out.push_str("],\"workloads\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, l);
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.flight.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(w);
        }
        out.push_str("],\"route_decisions\":[");
        for (i, d) in self.flight.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(d);
        }
        out.push_str("],\"ladder_moves\":[");
        for (i, m) in self.flight.ladder.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(m);
        }
        out.push_str("]}");
        telemetry::record_incident(out);
    }
}

/// The compact per-candidate encoding the `route.decision` instant
/// carries: `platform:batch:predicted_s:slack_s:joules_per_image:feasible`
/// per candidate, `;`-joined, `-` for a deadline-free slack. Kept flat so
/// the trace stays cheap; `pcnn obs route` re-expands it.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_match_kinds() {
        let rt = SloPolicy::for_kind(WorkloadKind::RealTime, Some(0.05));
        assert_eq!(rt.min_hit_rate, Some(0.95));
        assert_eq!(rt.max_p99_s, Some(0.05));
        let bg = SloPolicy::for_kind(WorkloadKind::Background, None);
        assert_eq!(bg, SloPolicy::none());
    }

    #[test]
    fn policy_validation_rejects_bad_domains() {
        assert!(SloPolicy::none().validate().is_ok());
        let bad_rate = SloPolicy {
            min_hit_rate: Some(1.5),
            ..SloPolicy::none()
        };
        assert!(bad_rate.validate().is_err());
        let bad_p99 = SloPolicy {
            max_p99_s: Some(0.0),
            ..SloPolicy::none()
        };
        assert!(bad_p99.validate().is_err());
        let bad_entropy = SloPolicy {
            max_entropy: Some(f64::NAN),
            ..SloPolicy::none()
        };
        assert!(bad_entropy.validate().is_err());
    }

    #[test]
    fn candidate_encoding_is_compact_and_stable() {
        use crate::fleet::{CandidateScore, RouteDecision, RouteReason};
        let names = vec!["K20c".to_string(), "Jetson TX1".to_string()];
        let d = RouteDecision::place(0, RouteReason::DeadlineSlack).with_candidates(vec![
            CandidateScore {
                platform: 0,
                batch: 4,
                predicted_s: 0.5,
                slack_s: Some(0.25),
                joules_per_image: 2.0,
                feasible: true,
            },
            CandidateScore {
                platform: 1,
                batch: 4,
                predicted_s: 2.0,
                slack_s: None,
                joules_per_image: 0.5,
                feasible: true,
            },
        ]);
        assert_eq!(
            encode_candidates(&names, &d),
            "K20c:4:0.5:0.25:2:1;Jetson TX1:4:2:-:0.5:1"
        );
    }
}
