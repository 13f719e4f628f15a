//! Serving-side configuration: workloads, the degradation ladder and the
//! server knobs.

use pcnn_core::prelude::*;
use pcnn_core::scheduler::map_rates;
use pcnn_data::TraceSpec;

use crate::fleet::RouterPolicy;
use crate::server::QUEUE_LOW_WATERMARK;

/// One tenant of the serving simulator: an application, its inferred user
/// requirements, the open-loop request trace it submits, and how many
/// images its admission queue may hold.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// The application (task class, data rate, accuracy sensitivity).
    pub app: AppSpec,
    /// Inferred user requirements (deadline and entropy threshold).
    pub req: UserRequirements,
    /// The arrival process this workload plays against the server. A lazy
    /// [`TraceSpec`] so million-request scenarios stream in O(1) memory.
    pub trace: TraceSpec,
    /// Bounded admission queue, in images. Arrivals beyond this are
    /// rejected (counted, never silently dropped).
    pub queue_capacity: usize,
    /// Service-level objectives the SLO monitor evaluates per window.
    /// `None` means the kind's default policy
    /// ([`SloPolicy::for_kind`](crate::obs::SloPolicy::for_kind)); use
    /// [`SloPolicy::none`](crate::obs::SloPolicy::none) to opt out.
    pub slo: Option<crate::obs::SloPolicy>,
}

impl ServeWorkload {
    /// Builds a workload, inferring requirements from the app spec.
    pub fn new(app: AppSpec, trace: TraceSpec, queue_capacity: usize) -> Self {
        let req = UserRequirements::infer(&app);
        Self {
            app,
            req,
            trace,
            queue_capacity,
            slo: None,
        }
    }

    /// Declares explicit service-level objectives for this workload.
    #[must_use]
    pub fn with_slo(mut self, slo: crate::obs::SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The target response time (`T_user`) or `None` for background work.
    pub fn t_user(&self) -> Option<f64> {
        self.req.t_user()
    }
}

/// One rung of the degradation ladder: perforation rates for every conv
/// layer plus the expected mean output entropy at those rates.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationLevel {
    /// Per-conv-layer perforation rates (level 0 is all zeros).
    pub rates: Vec<f64>,
    /// Expected mean output entropy under these rates (nats).
    pub entropy: f64,
    /// Multiplier on the predicted execution time (and proportionally on
    /// energy) relative to the baseline convolution algorithm. `1.0` for
    /// perforation rungs; an algorithm-downgrade rung (e.g. switching
    /// eligible layers to Winograd/direct kernels) has `time_scale < 1.0`
    /// with all-zero rates — it is faster without dropping any work.
    pub time_scale: f64,
}

impl DegradationLevel {
    /// A perforation rung: `time_scale` 1.0.
    pub fn perforated(rates: Vec<f64>, entropy: f64) -> Self {
        Self {
            rates,
            entropy,
            time_scale: 1.0,
        }
    }
}

/// The offline tuning path rewritten as an overload-shedding ladder:
/// level 0 is the unperforated network; each deeper level perforates more
/// aggressively, trading entropy (accuracy) for throughput. Under
/// overload the server walks down the ladder; when load drops it walks
/// back up.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationLadder {
    /// Levels in degradation order, unperforated first. Never empty.
    pub levels: Vec<DegradationLevel>,
}

impl DegradationLadder {
    /// A ladder with only the unperforated level — degradation disabled
    /// structurally.
    pub fn none(n_convs: usize, base_entropy: f64) -> Self {
        Self {
            levels: vec![DegradationLevel::perforated(
                vec![0.0; n_convs],
                base_entropy,
            )],
        }
    }

    /// A synthetic ladder with uniform per-layer rates: level 0 is
    /// unperforated at `base_entropy`; each `(rate, entropy)` step adds a
    /// level perforating every conv layer at `rate`.
    pub fn uniform(n_convs: usize, base_entropy: f64, steps: &[(f64, f64)]) -> Self {
        let mut levels = vec![DegradationLevel::perforated(
            vec![0.0; n_convs],
            base_entropy,
        )];
        for &(rate, entropy) in steps {
            levels.push(DegradationLevel::perforated(vec![rate; n_convs], entropy));
        }
        Self { levels }
    }

    /// The default synthetic ladder used when no measured tuning path is
    /// available: three perforation steps up to 60 %, with entropies
    /// rising the way Fig. 12's measured paths do.
    pub fn default_ladder(n_convs: usize) -> Self {
        Self::uniform(n_convs, 0.90, &[(0.25, 1.05), (0.45, 1.25), (0.60, 1.50)])
    }

    /// Builds the ladder from a measured [`TuningPath`], mapping each
    /// entry's perforation plan onto a network with `n_convs` conv layers
    /// (normalised-depth mapping, as the run-time scheduler does).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTuningPath`] if the path has no entries.
    pub fn from_tuning_path(path: &TuningPath, n_convs: usize) -> Result<Self> {
        if path.entries.is_empty() {
            return Err(Error::EmptyTuningPath);
        }
        let levels = path
            .entries
            .iter()
            .map(|e| DegradationLevel::perforated(map_rates(&e.plan, n_convs), e.entropy))
            .collect();
        Ok(Self { levels })
    }

    /// Inserts an algorithm-downgrade rung right after the unperforated
    /// level: same all-zero perforation rates, `time_scale < 1.0` from a
    /// tuned convolution plan (Winograd/direct kernels), and a small
    /// `entropy_cost` for the Winograd layers' bounded numeric drift.
    /// Under overload the ladder walks this rung *before* any perforation
    /// rung — free speed is spent before accuracy is.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not in `(0, 1]`.
    #[must_use]
    pub fn with_algo_rung(mut self, time_scale: f64, entropy_cost: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale <= 1.0,
            "algo rung time_scale must be in (0, 1]"
        );
        let base = &self.levels[0];
        let rung = DegradationLevel {
            rates: base.rates.clone(),
            entropy: base.entropy + entropy_cost,
            time_scale,
        };
        self.levels.insert(1, rung);
        self
    }

    /// Deepest level index.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }
}

/// Server policy knobs. [`Default`] gives the configuration every test
/// and benchmark starts from.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Upper bound on any dispatched batch, across all workloads.
    pub max_batch: usize,
    /// Whether overload degradation (ladder walking) is enabled.
    pub degradation: bool,
    /// Queue fill fraction beyond which the dispatcher escalates one
    /// ladder level even if deadlines still hold.
    pub queue_high_watermark: f64,
    /// Width of the observability / SLO-evaluation windows, virtual
    /// seconds. Only read when telemetry is enabled; it never changes the
    /// serving decisions or the report.
    pub obs_window_s: f64,
    /// The fleet routing policy placing batches onto platforms. The
    /// default round-robin reproduces the legacy homogeneous behaviour.
    pub router: RouterPolicy,
    /// Per-platform service-level objectives, as `(platform index,
    /// policy)` pairs — evaluated per window against that platform's
    /// `fleet.*` series, alerting with the platform's name. Like
    /// [`obs_window_s`](Self::obs_window_s), only read when telemetry is
    /// enabled; it never changes the serving decisions or the report.
    pub platform_slos: Vec<(usize, crate::obs::SloPolicy)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            degradation: true,
            queue_high_watermark: 0.75,
            obs_window_s: 0.25,
            router: RouterPolicy::RoundRobin,
            platform_slos: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// Sets the upper bound on any dispatched batch.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Enables or disables overload degradation (ladder walking).
    #[must_use]
    pub fn with_degradation(mut self, degradation: bool) -> Self {
        self.degradation = degradation;
        self
    }

    /// Sets the queue fill fraction that triggers escalation.
    #[must_use]
    pub fn with_queue_high_watermark(mut self, frac: f64) -> Self {
        self.queue_high_watermark = frac;
        self
    }

    /// Sets the observability / SLO window width, virtual seconds.
    #[must_use]
    pub fn with_obs_window(mut self, seconds: f64) -> Self {
        self.obs_window_s = seconds;
        self
    }

    /// Sets the fleet routing policy.
    #[must_use]
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Adds a per-platform service-level objective. `platform` is the
    /// fleet index the policy monitors; [`validate`](Self::validate)
    /// checks the policy's domains and
    /// [`ServerBuilder::build`](crate::server::ServerBuilder::build)
    /// rejects an index outside the fleet.
    #[must_use]
    pub fn with_platform_slo(mut self, platform: usize, slo: crate::obs::SloPolicy) -> Self {
        self.platform_slos.push((platform, slo));
        self
    }

    /// Checks every knob. Called by
    /// [`ServerBuilder::build`](crate::server::ServerBuilder::build);
    /// callable directly when a config is assembled elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(Error::InvalidInput {
                what: "max_batch must be at least 1",
            });
        }
        if !(self.queue_high_watermark.is_finite()
            && (0.0..=1.0).contains(&self.queue_high_watermark))
        {
            return Err(Error::InvalidInput {
                what: "queue_high_watermark must be in [0, 1]",
            });
        }
        if self.queue_high_watermark < QUEUE_LOW_WATERMARK {
            return Err(Error::InvalidInput {
                what: "queue_high_watermark must not be below the restore watermark (0.25)",
            });
        }
        if !(self.obs_window_s.is_finite() && self.obs_window_s > 0.0) {
            return Err(Error::InvalidInput {
                what: "obs_window_s must be positive and finite",
            });
        }
        for (_, slo) in &self.platform_slos {
            slo.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_is_monotonic() {
        let l = DegradationLadder::default_ladder(5);
        assert_eq!(l.levels[0].rates, vec![0.0; 5]);
        for w in l.levels.windows(2) {
            assert!(w[0].entropy < w[1].entropy);
            assert!(w[0].rates[0] < w[1].rates[0]);
        }
        assert_eq!(l.max_level(), 3);
    }

    #[test]
    fn algo_rung_inserts_before_perforation() {
        let l = DegradationLadder::default_ladder(5).with_algo_rung(0.72, 0.02);
        assert_eq!(l.max_level(), 4);
        // The rung drops no work and is faster than the baseline level.
        assert_eq!(l.levels[1].rates, vec![0.0; 5]);
        assert!(l.levels[1].time_scale < 1.0);
        assert!(l.levels[1].entropy > l.levels[0].entropy);
        assert!(l.levels[1].entropy < l.levels[2].entropy);
        // Perforation rungs behind it are untouched.
        assert!(l.levels[2].rates[0] > 0.0);
        assert_eq!(l.levels[2].time_scale, 1.0);
    }

    #[test]
    #[should_panic(expected = "time_scale")]
    fn algo_rung_rejects_bad_time_scale() {
        let _ = DegradationLadder::default_ladder(3).with_algo_rung(1.5, 0.02);
    }

    #[test]
    fn none_ladder_has_single_level() {
        let l = DegradationLadder::none(3, 0.8);
        assert_eq!(l.max_level(), 0);
        assert_eq!(l.levels[0].entropy, 0.8);
    }

    #[test]
    fn empty_tuning_path_is_a_typed_error() {
        let path = TuningPath { entries: vec![] };
        assert_eq!(
            DegradationLadder::from_tuning_path(&path, 3).unwrap_err(),
            Error::EmptyTuningPath
        );
    }

    #[test]
    fn combinators_set_every_knob() {
        let c = ServerConfig::default()
            .with_max_batch(32)
            .with_degradation(false)
            .with_queue_high_watermark(0.9)
            .with_obs_window(1.0)
            .with_router(RouterPolicy::Affinity)
            .with_platform_slo(
                1,
                crate::obs::SloPolicy {
                    min_hit_rate: Some(0.9),
                    ..crate::obs::SloPolicy::none()
                },
            );
        assert_eq!(c.max_batch, 32);
        assert!(!c.degradation);
        assert_eq!(c.queue_high_watermark, 0.9);
        assert_eq!(c.obs_window_s, 1.0);
        assert_eq!(c.router, RouterPolicy::Affinity);
        assert_eq!(c.platform_slos.len(), 1);
        assert_eq!(c.platform_slos[0].0, 1);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_every_bad_knob() {
        let what = |c: ServerConfig| match c.validate().unwrap_err() {
            Error::InvalidInput { what } => what,
            e => panic!("expected InvalidInput, got {e:?}"),
        };
        let ok = ServerConfig::default;
        assert_eq!(what(ok().with_max_batch(0)), "max_batch must be at least 1");
        assert_eq!(
            what(ok().with_queue_high_watermark(1.5)),
            "queue_high_watermark must be in [0, 1]"
        );
        assert_eq!(
            what(ok().with_queue_high_watermark(f64::NAN)),
            "queue_high_watermark must be in [0, 1]"
        );
        assert_eq!(
            what(ok().with_queue_high_watermark(0.2)),
            "queue_high_watermark must not be below the restore watermark (0.25)"
        );
        assert_eq!(
            what(ok().with_obs_window(0.0)),
            "obs_window_s must be positive and finite"
        );
        assert_eq!(
            what(ok().with_obs_window(f64::INFINITY)),
            "obs_window_s must be positive and finite"
        );
        assert_eq!(
            what(ok().with_platform_slo(
                0,
                crate::obs::SloPolicy {
                    min_hit_rate: Some(2.0),
                    ..crate::obs::SloPolicy::none()
                }
            )),
            "slo min_hit_rate must be within [0, 1]"
        );
        ok().validate().unwrap();
    }
}
