//! The event-driven serving loop: priority queues, deadline-aware dynamic
//! batching, admission control, graceful degradation and fleet routing.
//!
//! Time is simulated, not measured: the loop advances a virtual clock
//! from event to event (arrival, platform completion, forced-dispatch
//! timer), so a run is a pure function of its inputs — same traces, same
//! platforms, same config ⇒ byte-identical report.
//!
//! Arrivals stream lazily from each workload's [`TraceSpec`]: the loop
//! holds one pending arrival per workload (a k-way merge) and only the
//! in-flight requests bounded by the admission queues, so a ~1M-request
//! scenario runs in O(1) memory.

use std::collections::{HashMap, VecDeque};

use pcnn_core::prelude::*;
use pcnn_data::{ArrivalIter, WorkloadKind};
use pcnn_gpu::EnergyBreakdown;
use pcnn_nn::spec::NetworkSpec;

use crate::config::{ServeWorkload, ServerConfig};
use crate::fleet::{Platform, RouteCtx};
use crate::obs::{BatchMember, Completion, Obs};
use crate::report::{FleetSummary, GpuReport, LatencyAcc, ServeReport, WorkloadReport};

const EPS: f64 = 1e-12;

/// Queue fill fraction beyond which the dispatcher escalates one ladder
/// level even if deadlines still hold.
const QUEUE_HIGH_WATERMARK: f64 = 0.75;
/// Queue fill fraction at or below which a dispatch can count as calm —
/// the restore side of the hysteresis whose escalate side is
/// [`QUEUE_HIGH_WATERMARK`].
const QUEUE_LOW_WATERMARK: f64 = 0.25;
/// Fraction of `T_user` a dispatch must finish early by to count as calm.
const SLACK_MARGIN: f64 = 0.25;
/// Consecutive calm dispatches before a platform's ladder walks back up
/// one level: hysteresis against oscillating around the watermark.
const RESTORE_PATIENCE: usize = 4;

/// Memoized latency/energy predictor: one offline compilation + simulator
/// run per distinct `(platform, ladder level, batch size)` triple, reused
/// for every dispatch and routing decision thereafter. This is the
/// paper's offline time model doing double duty as the server's batching
/// cost oracle — each platform's costs come from *its own* ladder, so two
/// platforms at different rungs predict different costs for the same
/// batch.
///
/// One compiler per platform lives as long as the oracle, so every key of
/// a run shares that platform's wave memo: ladder level and batch size
/// change each layer's grid, not its CTA program.
pub struct CostOracle<'a> {
    platforms: &'a [Platform<'a>],
    compilers: Vec<OfflineCompiler<'a>>,
    cache: HashMap<(usize, usize, usize), NetworkCost>,
}

impl<'a> CostOracle<'a> {
    /// Builds an empty oracle over the fleet.
    pub fn new(platforms: &'a [Platform<'a>], spec: &'a NetworkSpec) -> Self {
        Self {
            platforms,
            compilers: platforms
                .iter()
                .map(|p| OfflineCompiler::new(p.arch, spec))
                .collect(),
            cache: HashMap::new(),
        }
    }

    /// Detailed wave simulations run so far, over every platform.
    pub fn wave_simulations(&self) -> u64 {
        self.compilers.iter().map(|c| c.sim_cache().misses()).sum()
    }

    /// Predicted cost of a `size`-image batch on `platform` at that
    /// platform's ladder `level`.
    ///
    /// # Errors
    ///
    /// Propagates offline-compilation errors.
    pub fn cost(&mut self, platform: usize, level: usize, size: usize) -> Result<NetworkCost> {
        let key = (platform, level, size);
        if let Some(c) = self.cache.get(&key) {
            return Ok(*c);
        }
        let rung = &self.platforms[platform].ladder.levels[level];
        let compiler = &self.compilers[platform];
        let schedule = compiler.try_compile_perforated(size, &rung.rates, true)?;
        let c = compiler.simulate_schedule(&schedule);
        self.cache.insert(key, c);
        Ok(c)
    }
}

/// Per-request bookkeeping, held only while the request is in flight.
#[derive(Debug, Clone)]
struct ReqState {
    arrival: f64,
    remaining: usize,
    done: f64,
    rejected: bool,
}

/// One queued image.
#[derive(Debug, Clone, Copy)]
struct QItem {
    arrival: f64,
    req: usize,
}

/// One workload's lazy arrival stream with a single look-ahead slot.
struct ArrivalStream<'t> {
    iter: ArrivalIter<'t>,
    /// The next `(arrival, images)` pair, or `None` when drained.
    next: Option<(f64, usize)>,
    /// Request index the pending arrival will get.
    next_ri: usize,
}

impl<'t> ArrivalStream<'t> {
    fn new(mut iter: ArrivalIter<'t>) -> Self {
        let next = iter.next();
        Self {
            iter,
            next,
            next_ri: 0,
        }
    }

    fn pop(&mut self) -> Option<(f64, usize, usize)> {
        let (t, n) = self.next?;
        let ri = self.next_ri;
        self.next_ri += 1;
        self.next = self.iter.next();
        Some((t, n, ri))
    }
}

/// Per-workload serving state. `reqs` holds only in-flight requests
/// (bounded by the admission queue), and latency percentiles accumulate
/// in constant space, so state never grows with trace length.
struct WState {
    queue: VecDeque<QItem>,
    reqs: HashMap<usize, ReqState>,
    arrivals_left: usize,
    /// Current ladder level per platform — each platform walks its own
    /// ladder independently.
    levels: Vec<usize>,
    /// Consecutive calm dispatches per platform.
    calms: Vec<usize>,
    /// Target batch per platform (big batches to big GPUs).
    targets: Vec<usize>,
    t_user: Option<f64>,
    rejected_images: usize,
    rejected_requests: usize,
    served_images: usize,
    entropy_sum: f64,
    energy: EnergyBreakdown,
    degrade_up: usize,
    degrade_down: usize,
    deadlines_met: usize,
    deadline_total: usize,
    latency: LatencyAcc,
    last_finish: f64,
    first_arrival: f64,
}

/// Per-platform serving state.
struct GState {
    free_at: f64,
    busy: f64,
    energy: EnergyBreakdown,
    dispatches: usize,
    images: usize,
    images_at_level: Vec<usize>,
}

fn kind_rank(kind: WorkloadKind) -> u8 {
    match kind {
        WorkloadKind::RealTime => 0,
        WorkloadKind::Interactive => 1,
        WorkloadKind::Background => 2,
    }
}

/// Assembles a [`Server`] from platforms, workloads and config, running
/// every validation the legacy constructor performed at [`build`] time.
///
/// [`build`]: ServerBuilder::build
pub struct ServerBuilder<'a> {
    spec: &'a NetworkSpec,
    platforms: Vec<Platform<'a>>,
    config: ServerConfig,
    workloads: Vec<ServeWorkload>,
}

impl<'a> ServerBuilder<'a> {
    /// Adds one platform to the fleet, in routing-index order.
    #[must_use]
    pub fn platform(mut self, platform: Platform<'a>) -> Self {
        self.platforms.push(platform);
        self
    }

    /// Sets the server configuration (defaults to
    /// [`ServerConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers a workload. Submission order breaks priority ties.
    #[must_use]
    pub fn workload(mut self, workload: ServeWorkload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Validates everything and builds the server.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if no platform was added, a
    /// platform's ladder has no levels or a config knob is out of domain
    /// (see [`ServerConfig::validate`]), and [`Error::RateLenMismatch`]
    /// if any ladder level's rate vector does not match the network's
    /// conv-layer count.
    pub fn build(self) -> Result<Server<'a>> {
        if self.platforms.is_empty() {
            return Err(Error::InvalidInput {
                what: "server needs at least one GPU",
            });
        }
        self.config.validate()?;
        let n_convs = self.spec.conv_layers().len();
        for p in &self.platforms {
            if p.ladder.levels.is_empty() {
                return Err(Error::InvalidInput {
                    what: "degradation ladder needs at least one level",
                });
            }
            for level in &p.ladder.levels {
                if level.rates.len() != n_convs {
                    return Err(Error::RateLenMismatch {
                        expected: n_convs,
                        got: level.rates.len(),
                    });
                }
            }
        }
        Ok(Server {
            spec: self.spec,
            platforms: self.platforms,
            config: self.config,
            workloads: self.workloads,
        })
    }
}

/// The serving simulator: a fleet of simulated platforms running one
/// network for a mix of workloads.
///
/// ```no_run
/// use pcnn_gpu::arch::{JETSON_TX1, K20C};
/// use pcnn_nn::spec::alexnet;
/// use pcnn_data::TraceSpec;
/// use pcnn_core::prelude::AppSpec;
/// use pcnn_serve::{DegradationLadder, Platform, Server, ServerConfig, ServeWorkload};
///
/// # fn main() -> pcnn_core::Result<()> {
/// let spec = alexnet();
/// let n = spec.conv_layers().len();
/// let server = Server::builder(&spec)
///     .platform(Platform::new(&K20C, DegradationLadder::default_ladder(n)))
///     .platform(Platform::new(&JETSON_TX1, DegradationLadder::default_ladder(n)))
///     .config(ServerConfig::default())
///     .workload(ServeWorkload::new(
///         AppSpec::age_detection(),
///         TraceSpec::poisson(pcnn_data::WorkloadKind::Interactive, 100, 20.0, 7),
///         64,
///     ))
///     .build()?;
/// let report = server.run()?;
/// println!("{}", report.to_json());
/// # Ok(())
/// # }
/// ```
pub struct Server<'a> {
    spec: &'a NetworkSpec,
    platforms: Vec<Platform<'a>>,
    config: ServerConfig,
    workloads: Vec<ServeWorkload>,
}

impl<'a> Server<'a> {
    /// Starts assembling a server over `spec`.
    pub fn builder(spec: &'a NetworkSpec) -> ServerBuilder<'a> {
        ServerBuilder {
            spec,
            platforms: Vec::new(),
            config: ServerConfig::default(),
            workloads: Vec::new(),
        }
    }

    /// The registered workloads.
    pub fn workloads(&self) -> &[ServeWorkload] {
        &self.workloads
    }

    /// The fleet, in routing-index order.
    pub fn platforms(&self) -> &[Platform<'a>] {
        &self.platforms
    }

    /// Index of the reference platform — the highest-peak one — used for
    /// forced-dispatch timing and feasibility.
    fn reference(&self) -> usize {
        let mut best = 0;
        for (i, p) in self.platforms.iter().enumerate() {
            if p.capability.peak_flops > self.platforms[best].capability.peak_flops + EPS {
                best = i;
            }
        }
        best
    }

    /// Per-platform target batch: the largest power-of-two batch
    /// (≤ `max_batch`) whose unperforated forward pass on that platform
    /// fits `t_user`; background workloads get the platform's offline
    /// background batch, capped. Bigger platforms get bigger targets.
    fn target_batch(
        &self,
        workload: &ServeWorkload,
        platform: usize,
        costs: &mut CostOracle,
    ) -> Result<usize> {
        match workload.t_user() {
            None => Ok(
                OfflineCompiler::new(self.platforms[platform].arch, self.spec)
                    .background_batch()
                    .clamp(1, self.config.max_batch),
            ),
            Some(t_user) => {
                let mut best = 1;
                let mut b = 1;
                while b <= self.config.max_batch {
                    let c = costs.cost(platform, 0, b)?;
                    if c.seconds <= t_user {
                        best = b;
                    } else {
                        break;
                    }
                    b *= 2;
                }
                Ok(best)
            }
        }
    }

    /// Latest virtual time at which the head of `w`'s queue can still be
    /// dispatched (at the current ladder level, on the reference
    /// platform) without missing `T_user`. `None` for background
    /// workloads.
    fn forced_time(
        &self,
        ws: &WState,
        reference: usize,
        costs: &mut CostOracle,
    ) -> Result<Option<f64>> {
        let (Some(t_user), Some(head)) = (ws.t_user, ws.queue.front()) else {
            return Ok(None);
        };
        let size = ws.queue.len().min(ws.targets[reference]);
        let c = costs.cost(reference, ws.levels[reference], size)?;
        // Relative safety margin so the predicted finish lands strictly
        // inside the deadline despite float rounding — real-time SoC has
        // a satisfaction cliff exactly at `T_user`.
        Ok(Some(head.arrival + t_user * (1.0 - 1e-9) - c.seconds))
    }

    /// Whether `w`'s queue can dispatch right now: a full target batch is
    /// waiting, the head's deadline forces a partial dispatch, or (for
    /// background work) the trace has drained.
    fn dispatchable(
        &self,
        ws: &WState,
        reference: usize,
        now: f64,
        costs: &mut CostOracle,
    ) -> Result<bool> {
        if ws.queue.is_empty() {
            return Ok(false);
        }
        if ws.queue.len() >= ws.targets[reference] {
            return Ok(true);
        }
        match self.forced_time(ws, reference, costs)? {
            Some(forced) => Ok(now >= forced - EPS),
            None => Ok(ws.arrivals_left == 0),
        }
    }

    /// Runs the whole simulation to completion with the configured
    /// routing policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if no workload was registered, and
    /// [`Error::InfeasibleSchedule`] if some deadline
    /// workload cannot meet `T_user` at batch 1 on the deepest usable
    /// ladder level of *any* platform — admission control rejects the
    /// whole workload up front rather than accepting requests it can
    /// never serve in time.
    pub fn run(&self) -> Result<ServeReport> {
        let mut router = self.config.router.build();
        let router_name = self.config.router.name();
        if self.workloads.is_empty() {
            return Err(Error::InvalidInput {
                what: "server has no workloads",
            });
        }
        let _span = pcnn_telemetry::span!(
            "serve.run",
            gpus = self.platforms.len(),
            workloads = self.workloads.len()
        );
        // The recorder exists only while telemetry is enabled; with it
        // disabled the serving decisions and the report are bit-for-bit
        // the code paths of the un-instrumented server.
        let mut obs = Obs::maybe(router_name, &self.platforms, &self.workloads);
        let mut costs = CostOracle::new(&self.platforms, self.spec);
        let reference = self.reference();
        let peaks: Vec<f64> = self
            .platforms
            .iter()
            .map(|p| p.capability.peak_flops)
            .collect();

        // Feasibility gate: batch 1 at the deepest level must fit T_user
        // on the best platform for it.
        for w in &self.workloads {
            if let Some(t_user) = w.t_user() {
                let mut fastest = f64::INFINITY;
                for (p, platform) in self.platforms.iter().enumerate() {
                    let deepest = if self.config.degradation {
                        platform.ladder.max_level()
                    } else {
                        0
                    };
                    fastest = fastest.min(costs.cost(p, deepest, 1)?.seconds);
                }
                if fastest > t_user {
                    return Err(Error::InfeasibleSchedule {
                        t_user,
                        predicted: fastest,
                    });
                }
            }
        }

        // Per-workload and per-platform state; arrivals stream lazily.
        let mut streams: Vec<ArrivalStream<'_>> = self
            .workloads
            .iter()
            .map(|w| ArrivalStream::new(w.trace.arrivals()))
            .collect();
        let mut wstates: Vec<WState> = Vec::with_capacity(self.workloads.len());
        for (wi, w) in self.workloads.iter().enumerate() {
            let mut targets = Vec::with_capacity(self.platforms.len());
            for p in 0..self.platforms.len() {
                targets.push(self.target_batch(w, p, &mut costs)?);
            }
            wstates.push(WState {
                queue: VecDeque::new(),
                reqs: HashMap::new(),
                arrivals_left: w.trace.len(),
                levels: vec![0; self.platforms.len()],
                calms: vec![0; self.platforms.len()],
                targets,
                t_user: w.t_user(),
                rejected_images: 0,
                rejected_requests: 0,
                served_images: 0,
                entropy_sum: 0.0,
                energy: EnergyBreakdown::default(),
                degrade_up: 0,
                degrade_down: 0,
                deadlines_met: 0,
                deadline_total: 0,
                latency: LatencyAcc::default(),
                last_finish: 0.0,
                first_arrival: streams[wi].next.map(|(t, _)| t).unwrap_or(0.0),
            });
        }
        let mut gstates: Vec<GState> = self
            .platforms
            .iter()
            .map(|p| GState {
                free_at: 0.0,
                busy: 0.0,
                energy: EnergyBreakdown::default(),
                dispatches: 0,
                images: 0,
                images_at_level: vec![0; p.ladder.levels.len()],
            })
            .collect();

        // The k-way merge over the per-workload streams: the earliest
        // pending arrival, ties broken by workload index (matching the
        // materialized sort order the loop used to rely on).
        let peek_min = |streams: &[ArrivalStream<'_>]| -> Option<(f64, usize)> {
            let mut min: Option<(f64, usize)> = None;
            for (w, s) in streams.iter().enumerate() {
                if let Some((t, _)) = s.next {
                    if min.is_none_or(|(mt, mw)| t.total_cmp(&mt).then(w.cmp(&mw)).is_lt()) {
                        min = Some((t, w));
                    }
                }
            }
            min
        };

        let mut now = peek_min(&streams).map(|(t, _)| t).unwrap_or(0.0);
        loop {
            // 1. Admit every arrival due by `now` into its bounded queue.
            while let Some((t, w)) = peek_min(&streams) {
                if t > now + EPS {
                    break;
                }
                // Invariant: `peek_min` saw a pending arrival.
                let (t, n, ri) = streams[w].pop().expect("peeked arrival");
                let cap = self.workloads[w].queue_capacity;
                let ws = &mut wstates[w];
                ws.arrivals_left -= 1;
                let room = cap.saturating_sub(ws.queue.len());
                let admitted = n.min(room);
                let rejected = n - admitted;
                for _ in 0..admitted {
                    ws.queue.push_back(QItem {
                        arrival: t,
                        req: ri,
                    });
                }
                if admitted > 0 {
                    ws.reqs.insert(
                        ri,
                        ReqState {
                            arrival: t,
                            remaining: admitted,
                            done: t,
                            rejected: rejected > 0,
                        },
                    );
                }
                if rejected > 0 {
                    ws.rejected_images += rejected;
                    ws.rejected_requests += 1;
                    for _ in 0..rejected {
                        pcnn_telemetry::counter("serve.rejected", 1);
                    }
                }
                pcnn_telemetry::histogram("serve.queue_depth", ws.queue.len() as f64);
                if let Some(o) = obs.as_mut() {
                    o.on_arrival(w, ri, t, admitted, rejected, ws.queue.len());
                }
            }

            // 2. Route and dispatch onto idle platforms until nothing
            // more can start.
            'dispatch: loop {
                let idle: Vec<usize> = gstates
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.free_at <= now + EPS)
                    .map(|(i, _)| i)
                    .collect();
                if idle.is_empty() {
                    break;
                }
                let free_at: Vec<f64> = gstates.iter().map(|g| g.free_at).collect();
                // Priority order: real-time, interactive, background;
                // earliest waiting head first; submission order last.
                let mut order: Vec<usize> = (0..wstates.len())
                    .filter(|&w| !wstates[w].queue.is_empty())
                    .collect();
                order.sort_by(|&a, &b| {
                    kind_rank(self.workloads[a].app.kind)
                        .cmp(&kind_rank(self.workloads[b].app.kind))
                        .then(
                            wstates[a]
                                .queue
                                .front()
                                .map(|q| q.arrival)
                                .unwrap_or(f64::INFINITY)
                                .total_cmp(
                                    &wstates[b]
                                        .queue
                                        .front()
                                        .map(|q| q.arrival)
                                        .unwrap_or(f64::INFINITY),
                                ),
                        )
                        .then(a.cmp(&b))
                });
                for (pos, &w) in order.iter().enumerate() {
                    if !self.dispatchable(&wstates[w], reference, now, &mut costs)? {
                        continue;
                    }
                    let ws = &wstates[w];
                    let cap = self.workloads[w].queue_capacity;
                    // Invariant: `dispatchable` required a non-empty
                    // queue.
                    let head = ws.queue.front().expect("non-empty queue");
                    let ctx = RouteCtx {
                        workload: w,
                        kind: self.workloads[w].app.kind,
                        t_user: ws.t_user,
                        now,
                        head_arrival: head.arrival,
                        head_req: head.req,
                        queue_len: ws.queue.len(),
                        queue_fill: ws.queue.len() as f64 / cap.max(1) as f64,
                        idle: &idle,
                        free_at: &free_at,
                        levels: &ws.levels,
                        targets: &ws.targets,
                        peak_flops: &peaks,
                    };
                    let decision = router.route(&ctx, &mut costs)?;
                    // A router returning a busy platform would corrupt
                    // the timeline; treat it as a hold, like an explicit
                    // one. Either way its completion event retries.
                    let placed = decision.platform.filter(|p| idle.contains(p));
                    let Some(g) = placed else {
                        if let Some(o) = obs.as_mut() {
                            o.on_route(w, now, &ctx, &decision, false);
                        }
                        continue;
                    };
                    // Slack fit: don't start work on `g` that would make
                    // a higher-priority waiting queue miss its
                    // forced-dispatch time — unless some *other* platform
                    // is free by then and fast enough to serve that
                    // queue's head within its deadline. On a heterogeneous
                    // fleet an idle platform is no safety net if it cannot
                    // make the deadline, so coverage is checked against
                    // each platform's own predicted cost.
                    {
                        let size = wstates[w].queue.len().min(wstates[w].targets[g]);
                        let my_cost = costs.cost(g, wstates[w].levels[g], size)?.seconds;
                        let mut starves = false;
                        for &hp in &order[..pos] {
                            let Some(forced) =
                                self.forced_time(&wstates[hp], reference, &mut costs)?
                            else {
                                continue;
                            };
                            if now + my_cost <= forced + EPS {
                                continue;
                            }
                            let hs = &wstates[hp];
                            // Invariant: `forced_time` returned `Some`, so
                            // the queue is non-empty and has a deadline.
                            let t_user = hs.t_user.expect("deadline workload");
                            let head_deadline =
                                hs.queue.front().expect("non-empty queue").arrival + t_user;
                            let dispatch_at = forced.max(now);
                            let mut covered = false;
                            for (p, &free) in free_at.iter().enumerate() {
                                if p == g || free > dispatch_at + EPS {
                                    continue;
                                }
                                let c = costs.cost(p, hs.levels[p], 1)?.seconds;
                                if dispatch_at + c <= head_deadline + EPS {
                                    covered = true;
                                    break;
                                }
                            }
                            if !covered {
                                starves = true;
                                break;
                            }
                        }
                        if starves {
                            // The server overrode the router's placement
                            // to protect a higher-priority queue; the
                            // audit trail records the decision as not
                            // dispatched.
                            if let Some(o) = obs.as_mut() {
                                o.on_route(w, now, &ctx, &decision, false);
                            }
                            continue;
                        }
                    }
                    if let Some(o) = obs.as_mut() {
                        o.on_route(w, now, &ctx, &decision, true);
                    }
                    self.dispatch(w, g, now, &mut wstates, &mut gstates, &mut costs, &mut obs)?;
                    continue 'dispatch;
                }
                break;
            }

            // 3. Advance the clock to the next event.
            let mut next = f64::INFINITY;
            if let Some((t, _)) = peek_min(&streams) {
                next = next.min(t);
            }
            for g in &gstates {
                if g.free_at > now + EPS {
                    next = next.min(g.free_at);
                }
            }
            for ws in &wstates {
                if !ws.queue.is_empty() {
                    if let Some(forced) = self.forced_time(ws, reference, &mut costs)? {
                        if forced > now + EPS {
                            next = next.min(forced);
                        }
                    }
                }
            }
            if !next.is_finite() {
                break;
            }
            now = next;
        }

        if let Some(o) = obs.as_mut() {
            o.finish();
        }
        self.build_report(router_name, wstates, gstates)
    }

    /// Dispatches one batch from workload `w` onto platform `g` at time
    /// `now`, walking that platform's degradation ladder first if the
    /// head deadline or queue pressure demands it, and back up when
    /// things have been calm.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        w: usize,
        g: usize,
        now: f64,
        wstates: &mut [WState],
        gstates: &mut [GState],
        costs: &mut CostOracle,
        obs: &mut Option<Obs>,
    ) -> Result<()> {
        let cap = self.workloads[w].queue_capacity;
        let max_level = self.platforms[g].ladder.max_level();
        let ws = &mut wstates[w];
        let q = ws.queue.len();
        let mut size = q.min(ws.targets[g]);
        // What the batcher planned for before any escalation or shrink:
        // the oracle-error metric compares this against the dispatched
        // batch's latency. Only the recorder reads it.
        let planned_s = if obs.is_some() {
            costs.cost(g, ws.levels[g], size)?.seconds
        } else {
            0.0
        };
        if let Some(t_user) = ws.t_user {
            // Escalate on queue pressure before it turns into misses.
            if self.config.degradation
                && q as f64 >= QUEUE_HIGH_WATERMARK * cap as f64
                && ws.levels[g] < max_level
            {
                ws.levels[g] += 1;
                ws.degrade_up += 1;
                ws.calms[g] = 0;
                pcnn_telemetry::counter("serve.degrade.up", 1);
                if let Some(o) = obs.as_mut() {
                    o.on_degrade(w, g, now, ws.levels[g], true);
                }
            }
            // Invariant: `dispatchable` required a non-empty queue before
            // this workload was selected, and nothing pops between there
            // and here.
            let head_deadline = ws.queue.front().expect("non-empty queue").arrival + t_user;
            let mut meets = |level: usize, s: usize| -> Result<bool> {
                Ok(now + costs.cost(g, level, s)?.seconds <= head_deadline + EPS)
            };
            if !meets(ws.levels[g], size)? {
                // A late arrival can inflate the batch past what the head's
                // deadline allows: first try a smaller (faster) batch at
                // the current level, leaving the newer images for the next
                // dispatch.
                let shrink = |meets: &mut dyn FnMut(usize, usize) -> Result<bool>,
                              level: usize,
                              from: usize|
                 -> Result<Option<usize>> {
                    for s in (1..from).rev() {
                        if meets(level, s)? {
                            return Ok(Some(s));
                        }
                    }
                    Ok(None)
                };
                if let Some(s) = shrink(&mut |l, s| meets(l, s), ws.levels[g], size)? {
                    size = s;
                } else if self.config.degradation {
                    // Even batch 1 misses at this level: walk the ladder.
                    while ws.levels[g] < max_level && !meets(ws.levels[g], size)? {
                        ws.levels[g] += 1;
                        ws.degrade_up += 1;
                        ws.calms[g] = 0;
                        pcnn_telemetry::counter("serve.degrade.up", 1);
                        if let Some(o) = obs.as_mut() {
                            o.on_degrade(w, g, now, ws.levels[g], true);
                        }
                    }
                    if !meets(ws.levels[g], size)? {
                        if let Some(s) = shrink(&mut |l, s| meets(l, s), ws.levels[g], size)? {
                            size = s;
                        }
                        // Otherwise the head is lost regardless; keep the
                        // full batch for throughput.
                    }
                }
            }
        }
        let level = ws.levels[g];
        let cost = costs.cost(g, level, size)?;
        let finish = now + cost.seconds;
        let mut earliest_arrival = f64::INFINITY;
        let mut members: Vec<BatchMember> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        for _ in 0..size {
            // Invariant: `size` is clamped to the queue length above, so
            // exactly `size` items are poppable.
            let item = ws.queue.pop_front().expect("sized pop");
            earliest_arrival = earliest_arrival.min(item.arrival);
            // Invariant: every queued image belongs to an in-flight
            // request inserted at admission.
            let r = ws.reqs.get_mut(&item.req).expect("in-flight request");
            r.remaining -= 1;
            r.done = r.done.max(finish);
            ws.served_images += 1;
            ws.entropy_sum += self.platforms[g].ladder.levels[level].entropy;
            if obs.is_some() {
                // A request's images arrive together, so they sit
                // contiguously in the queue: extend the last member.
                match members.last_mut() {
                    Some(m) if m.req == item.req => m.images += 1,
                    _ => members.push(BatchMember {
                        req: item.req,
                        arrival: item.arrival,
                        images: 1,
                    }),
                }
            }
            if r.remaining == 0 {
                // Invariant: just looked up.
                let r = ws.reqs.remove(&item.req).expect("in-flight request");
                if !r.rejected {
                    let latency_s = r.done - r.arrival;
                    ws.latency.record(latency_s);
                    let hit = ws.t_user.map(|t| latency_s <= t + EPS).unwrap_or(true);
                    if ws.t_user.is_some() {
                        ws.deadline_total += 1;
                        if hit {
                            ws.deadlines_met += 1;
                        }
                    }
                    if obs.is_some() {
                        completions.push(Completion {
                            req: item.req,
                            latency_s,
                            done: r.done,
                            hit,
                        });
                    }
                }
            }
        }
        ws.energy = ws.energy.plus(&cost.energy);
        ws.last_finish = ws.last_finish.max(finish);
        let gs = &mut gstates[g];
        gs.free_at = finish;
        gs.busy += cost.seconds;
        gs.energy = gs.energy.plus(&cost.energy);
        gs.dispatches += 1;
        gs.images += size;
        gs.images_at_level[level] += size;
        pcnn_telemetry::histogram("serve.batch_occupancy", size as f64 / ws.targets[g] as f64);
        if let Some(o) = obs.as_mut() {
            o.on_dispatch(
                w,
                g,
                now,
                finish,
                level,
                size,
                ws.targets[g],
                planned_s,
                cost.seconds,
                cost.energy.total_j(),
                ws.queue.len(),
                &members,
                &completions,
            );
        }

        // Restore path: enough consecutive calm dispatches (short queue,
        // comfortable slack) walk this platform's ladder back up.
        if self.config.degradation && ws.levels[g] > 0 {
            if let Some(t_user) = ws.t_user {
                let calm = ws.queue.len() as f64 <= QUEUE_LOW_WATERMARK * cap as f64
                    && finish <= earliest_arrival + t_user * (1.0 - SLACK_MARGIN);
                if calm {
                    ws.calms[g] += 1;
                    if ws.calms[g] >= RESTORE_PATIENCE {
                        ws.levels[g] -= 1;
                        ws.degrade_down += 1;
                        ws.calms[g] = 0;
                        pcnn_telemetry::counter("serve.degrade.down", 1);
                        if let Some(o) = obs.as_mut() {
                            o.on_degrade(w, g, now, ws.levels[g], false);
                        }
                    }
                } else {
                    ws.calms[g] = 0;
                }
            }
        }
        Ok(())
    }

    fn build_report(
        &self,
        router_name: &'static str,
        wstates: Vec<WState>,
        gstates: Vec<GState>,
    ) -> Result<ServeReport> {
        let reference = self.reference();
        let makespan = wstates.iter().map(|w| w.last_finish).fold(0.0, f64::max);
        let mut workloads = Vec::with_capacity(wstates.len());
        for (w, ws) in self.workloads.iter().zip(wstates) {
            let mean_entropy = if ws.served_images == 0 {
                self.platforms[reference].ladder.levels[0].entropy
            } else {
                ws.entropy_sum / ws.served_images as f64
            };
            let latency = ws.latency.stats();
            let soc = if ws.served_images == 0 {
                None
            } else {
                let response = match w.app.kind {
                    WorkloadKind::RealTime => latency.max,
                    WorkloadKind::Interactive => latency.mean,
                    WorkloadKind::Background => ws.last_finish - ws.first_arrival,
                };
                Some(pcnn_core::soc::score(
                    &w.req,
                    &pcnn_core::soc::SocInputs {
                        response_time: response,
                        entropy: mean_entropy,
                        energy_j: ws.energy.total_j(),
                    },
                )?)
            };
            workloads.push(WorkloadReport {
                name: w.app.name.clone(),
                kind: w.app.kind,
                requests: w.trace.len(),
                images: w.trace.total_images(),
                served_images: ws.served_images,
                rejected_images: ws.rejected_images,
                rejected_requests: ws.rejected_requests,
                target_batch: ws.targets[reference],
                deadline_s: ws.t_user,
                deadlines_met: ws.deadlines_met,
                deadline_total: ws.deadline_total,
                latency,
                mean_entropy,
                degrade_up: ws.degrade_up,
                degrade_down: ws.degrade_down,
                final_level: ws.levels.iter().copied().max().unwrap_or(0),
                energy_j: ws.energy.total_j(),
                soc,
            });
        }
        let gpus = self
            .platforms
            .iter()
            .zip(gstates)
            .map(|(p, gs)| GpuReport {
                name: p.arch.name.to_string(),
                dispatches: gs.dispatches,
                images: gs.images,
                busy_s: gs.busy,
                energy_j: gs.energy.total_j(),
                idle_energy_j: (makespan - gs.busy).max(0.0) * p.arch.energy.constant_w,
                images_at_level: gs.images_at_level,
            })
            .collect::<Vec<_>>();
        let total_energy_j = gpus.iter().map(|g| g.energy_j).sum();
        let total_idle_energy_j = gpus.iter().map(|g| g.idle_energy_j).sum();
        let mut report = ServeReport {
            workloads,
            gpus,
            makespan_s: makespan,
            total_energy_j,
            total_idle_energy_j,
            degradation: self.config.degradation,
            max_batch: self.config.max_batch,
            router: router_name,
            fleet: FleetSummary {
                served_images: 0,
                deadlines_met: 0,
                deadline_total: 0,
                compute_j: 0.0,
                idle_j: 0.0,
                joules_per_image: 0.0,
                mean_soc: 0.0,
            },
        };
        report.fleet = report.fleet_summary();
        Ok(report)
    }
}
