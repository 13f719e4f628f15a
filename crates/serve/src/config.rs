//! Serving-side configuration: workloads, the degradation ladder and the
//! server knobs.

use pcnn_core::prelude::*;
use pcnn_core::scheduler::map_rates;
use pcnn_data::TraceSpec;

use crate::fleet::RouterPolicy;

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
        }
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
        Self::uniform(n_convs, base_entropy, &[])
    }

    /// A synthetic ladder with uniform per-layer rates: level 0 is
    /// unperforated at `base_entropy`; each `(rate, entropy)` step adds a
    /// level perforating every conv layer at `rate`.
    pub fn uniform(n_convs: usize, base_entropy: f64, steps: &[(f64, f64)]) -> Self {
        let level = |rate, entropy| DegradationLevel {
            rates: vec![rate; n_convs],
            entropy,
        };
        let mut levels = vec![level(0.0, base_entropy)];
        levels.extend(steps.iter().map(|&(rate, entropy)| level(rate, entropy)));
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
            .map(|e| DegradationLevel {
                rates: map_rates(&e.plan, n_convs),
                entropy: e.entropy,
            })
            .collect();
        Ok(Self { levels })
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
    /// The fleet routing policy placing batches onto platforms. The
    /// default round-robin reproduces the legacy homogeneous behaviour.
    pub router: RouterPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            degradation: true,
            router: RouterPolicy::RoundRobin,
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

    /// Sets the fleet routing policy.
    #[must_use]
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
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
            .with_router(RouterPolicy::Affinity);
        assert_eq!(c.max_batch, 32);
        assert!(!c.degradation);
        assert_eq!(c.router, RouterPolicy::Affinity);
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
        ok().validate().unwrap();
    }
}
