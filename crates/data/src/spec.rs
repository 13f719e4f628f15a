//! Arrival processes for the three task classes of §II.B.
//!
//! A [`TraceSpec`] is an arrival process as a *specification* — the shape
//! parameters and the seed, or an explicit request list — from which
//! arrivals are generated one at a time ([`TraceSpec::arrivals`]).
//! Request count and total images are known analytically, so a server can
//! stream a ~1M-request scenario in O(1) memory, and an executor that
//! needs the whole list collects it. This is the only arrival generator,
//! and the golden tests below pin each process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::WorkloadKind;

/// An arrival process: either an explicit request list or the parameters
/// of a shaped process, whose arrivals are generated lazily. Arrivals are
/// `(arrival time in seconds, number of images)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// An explicit request list; see [`TraceSpec::explicit`].
    Explicit {
        /// Workload class.
        kind: WorkloadKind,
        /// `(arrival seconds, image count)` pairs, in arrival order.
        requests: Vec<(f64, usize)>,
    },
    /// Single-image requests with think times drawn uniformly from
    /// `[min_gap, max_gap]` seconds; see [`TraceSpec::interactive`].
    Interactive {
        /// Request count.
        n_requests: usize,
        /// Shortest think time, seconds.
        min_gap: f64,
        /// Longest think time, seconds.
        max_gap: f64,
        /// RNG seed.
        seed: u64,
    },
    /// One frame every `1/fps` seconds; see [`TraceSpec::real_time`].
    RealTime {
        /// Frame count.
        n_frames: usize,
        /// Frames per second.
        fps: f64,
    },
    /// All images available at time zero; see
    /// [`TraceSpec::background`].
    Background {
        /// Image count.
        n_images: usize,
    },
    /// Open-loop Poisson arrivals; see [`TraceSpec::poisson`].
    Poisson {
        /// Workload class.
        kind: WorkloadKind,
        /// Request count.
        n_requests: usize,
        /// Mean arrival rate, requests/second.
        rate: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Bursts at Poisson arrivals, each a fan-out of simultaneous
    /// single-image requests; see [`TraceSpec::bursty`].
    Bursty {
        /// Workload class.
        kind: WorkloadKind,
        /// Burst count.
        n_bursts: usize,
        /// Requests per burst.
        burst_size: usize,
        /// Mean burst rate, bursts/second.
        burst_rate: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl TraceSpec {
    /// An explicit `(arrival seconds, image count)` list. Unlike the
    /// shaped processes this accepts any request list, including an empty
    /// one or requests of zero images — downstream executors report an
    /// image-free trace as a typed error instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is negative or not finite, or if arrivals are
    /// not monotonically non-decreasing.
    pub fn explicit(kind: WorkloadKind, requests: Vec<(f64, usize)>) -> Self {
        assert!(
            requests.iter().all(|&(at, _)| at.is_finite() && at >= 0.0),
            "arrivals must be finite and non-negative"
        );
        assert!(
            requests.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrivals must be sorted"
        );
        TraceSpec::Explicit { kind, requests }
    }

    /// Open-loop Poisson workload: `n_requests` single-image requests
    /// whose inter-arrival gaps are exponentially distributed with mean
    /// `1 / rate` seconds — the classic model of independent users hitting
    /// an online service. Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or `rate` is not positive and finite.
    pub fn poisson(kind: WorkloadKind, n_requests: usize, rate: f64, seed: u64) -> Self {
        assert!(n_requests > 0, "need at least one request");
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        TraceSpec::Poisson {
            kind,
            n_requests,
            rate,
            seed,
        }
    }

    /// Real-time workload: one frame every `1/fps` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `fps <= 0` or `n_frames == 0`.
    pub fn real_time(n_frames: usize, fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        assert!(n_frames > 0, "need at least one frame");
        TraceSpec::RealTime { n_frames, fps }
    }

    /// Background workload: all `n_images` available at time zero (e.g. a
    /// camera roll to tag).
    ///
    /// # Panics
    ///
    /// Panics if `n_images == 0`.
    pub fn background(n_images: usize) -> Self {
        assert!(n_images > 0, "need at least one image");
        TraceSpec::Background { n_images }
    }

    /// Interactive workload: single-image requests separated by think
    /// times drawn uniformly from `[min_gap, max_gap]` seconds.
    /// Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or the gap range is invalid.
    pub fn interactive(n_requests: usize, min_gap: f64, max_gap: f64, seed: u64) -> Self {
        assert!(n_requests > 0, "need at least one request");
        assert!(
            min_gap >= 0.0 && max_gap >= min_gap,
            "invalid gap range [{min_gap}, {max_gap}]"
        );
        TraceSpec::Interactive {
            n_requests,
            min_gap,
            max_gap,
            seed,
        }
    }

    /// Open-loop bursty workload: `n_bursts` burst events at Poisson
    /// arrivals of rate `burst_rate` per second, each delivering
    /// `burst_size` single-image requests at the same instant (a fan-out
    /// of simultaneous users, or a device uploading a backlog).
    /// Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_bursts == 0`, `burst_size == 0` or `burst_rate` is
    /// not positive and finite.
    pub fn bursty(
        kind: WorkloadKind,
        n_bursts: usize,
        burst_size: usize,
        burst_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(n_bursts > 0, "need at least one burst");
        assert!(burst_size > 0, "bursts must carry images");
        assert!(
            burst_rate > 0.0 && burst_rate.is_finite(),
            "burst rate must be positive"
        );
        TraceSpec::Bursty {
            kind,
            n_bursts,
            burst_size,
            burst_rate,
            seed,
        }
    }

    /// The workload class.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            TraceSpec::Explicit { kind, .. } => *kind,
            TraceSpec::Interactive { .. } => WorkloadKind::Interactive,
            TraceSpec::RealTime { .. } => WorkloadKind::RealTime,
            TraceSpec::Background { .. } => WorkloadKind::Background,
            TraceSpec::Poisson { kind, .. } | TraceSpec::Bursty { kind, .. } => *kind,
        }
    }

    /// Number of requests the process will emit — analytic, never
    /// generated.
    pub fn len(&self) -> usize {
        match self {
            TraceSpec::Explicit { requests, .. } => requests.len(),
            TraceSpec::Interactive { n_requests, .. } => *n_requests,
            TraceSpec::RealTime { n_frames, .. } => *n_frames,
            TraceSpec::Background { .. } => 1,
            TraceSpec::Poisson { n_requests, .. } => *n_requests,
            TraceSpec::Bursty {
                n_bursts,
                burst_size,
                ..
            } => n_bursts * burst_size,
        }
    }

    /// Whether the process emits no requests (only possible for an
    /// explicit empty list).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total images across all requests — analytic, never generated.
    pub fn total_images(&self) -> usize {
        match self {
            TraceSpec::Explicit { requests, .. } => requests.iter().map(|&(_, n)| n).sum(),
            TraceSpec::Background { n_images } => *n_images,
            _ => self.len(),
        }
    }

    /// A lazy iterator over `(arrival seconds, image count)` pairs, in
    /// arrival order. O(1) state regardless of trace length.
    pub fn arrivals(&self) -> ArrivalIter<'_> {
        let gapped =
            |seed: u64, bursts_left: usize, burst_size: usize, gap: Gap| IterState::Gapped {
                rng: StdRng::seed_from_u64(seed),
                t: 0.0,
                bursts_left,
                in_burst: 0,
                burst_size,
                gap,
            };
        let state = match *self {
            TraceSpec::Explicit { ref requests, .. } => IterState::Slice(requests.iter()),
            TraceSpec::Interactive {
                n_requests,
                min_gap,
                max_gap,
                seed,
            } => gapped(
                seed,
                n_requests,
                1,
                Gap::Uniform {
                    min: min_gap,
                    max: max_gap,
                },
            ),
            TraceSpec::RealTime { n_frames, fps } => IterState::Periodic {
                i: 0,
                n: n_frames,
                period: 1.0 / fps,
            },
            TraceSpec::Background { n_images } => IterState::Once(Some(n_images)),
            TraceSpec::Poisson {
                n_requests,
                rate,
                seed,
                ..
            } => gapped(seed, n_requests, 1, Gap::Exponential { rate }),
            TraceSpec::Bursty {
                n_bursts,
                burst_size,
                burst_rate,
                seed,
                ..
            } => gapped(
                seed,
                n_bursts,
                burst_size,
                Gap::Exponential { rate: burst_rate },
            ),
        };
        ArrivalIter { state }
    }
}

/// How a gap-process iterator draws its next inter-arrival time.
enum Gap {
    Uniform { min: f64, max: f64 },
    Exponential { rate: f64 },
}

impl Gap {
    fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Gap::Uniform { min, max } => rng.gen_range(min..=max),
            Gap::Exponential { rate } => {
                // Inverse-CDF exponential sample; 1 - u stays in (0, 1].
                let u: f64 = rng.gen_range(0.0..1.0);
                -(1.0 - u).ln() / rate
            }
        }
    }
}

enum IterState<'a> {
    Slice(std::slice::Iter<'a, (f64, usize)>),
    /// Bursts of `burst_size` simultaneous single-image requests, one
    /// gap drawn after each burst; a plain gap process is bursts of one.
    Gapped {
        rng: StdRng,
        t: f64,
        bursts_left: usize,
        in_burst: usize,
        burst_size: usize,
        gap: Gap,
    },
    Periodic {
        i: usize,
        n: usize,
        period: f64,
    },
    Once(Option<usize>),
}

/// Lazy `(arrival seconds, image count)` iterator over a [`TraceSpec`];
/// see [`TraceSpec::arrivals`].
pub struct ArrivalIter<'a> {
    state: IterState<'a>,
}

impl Iterator for ArrivalIter<'_> {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        match &mut self.state {
            IterState::Slice(it) => it.next().copied(),
            IterState::Gapped {
                rng,
                t,
                bursts_left,
                in_burst,
                burst_size,
                gap,
            } => {
                if *bursts_left == 0 {
                    return None;
                }
                let at = *t;
                *in_burst += 1;
                if *in_burst == *burst_size {
                    *in_burst = 0;
                    *bursts_left -= 1;
                    *t += gap.draw(rng);
                }
                Some((at, 1))
            }
            IterState::Periodic { i, n, period } => {
                if *i == *n {
                    return None;
                }
                let at = *i as f64 * *period;
                *i += 1;
                Some((at, 1))
            }
            IterState::Once(n) => n.take().map(|n| (0.0, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(spec: &TraceSpec) -> Vec<(f64, usize)> {
        spec.arrivals().collect()
    }

    /// The arrivals at `picks` plus the last one.
    fn sample(spec: &TraceSpec, picks: [usize; 3]) -> Vec<(f64, usize)> {
        let all = collect(spec);
        assert_eq!(all.len(), spec.len());
        assert_eq!(all.iter().map(|r| r.1).sum::<usize>(), spec.total_images());
        let mut out: Vec<_> = picks.iter().map(|&i| all[i]).collect();
        out.push(*all.last().unwrap());
        out
    }

    // One golden per process, recorded from the eager generators these
    // specs replaced.

    #[test]
    fn poisson_arrivals_are_golden() {
        let spec = TraceSpec::poisson(WorkloadKind::Interactive, 500, 20.0, 11);
        assert_eq!((spec.len(), spec.total_images()), (500, 500));
        assert_eq!(
            sample(&spec, [0, 1, 2]),
            [
                (0.0, 1),
                (0.01900773623991328, 1),
                (0.03422305436139808, 1),
                (25.479560809016263, 1)
            ]
        );
    }

    #[test]
    fn interactive_arrivals_are_golden() {
        let spec = TraceSpec::interactive(50, 0.1, 1.0, 7);
        assert_eq!(spec.kind(), WorkloadKind::Interactive);
        assert_eq!(
            sample(&spec, [0, 1, 2]),
            [
                (0.0, 1),
                (0.4508467735521443, 1),
                (0.5659562386274848, 1),
                (27.23568530703577, 1)
            ]
        );
    }

    #[test]
    fn real_time_and_background_arrivals_are_golden() {
        assert_eq!(
            sample(&TraceSpec::real_time(30, 60.0), [0, 1, 2]),
            [
                (0.0, 1),
                (0.016666666666666666, 1),
                (0.03333333333333333, 1),
                (0.48333333333333334, 1)
            ]
        );
        assert_eq!(collect(&TraceSpec::background(256)), [(0.0, 256)]);
        assert_eq!(TraceSpec::background(256).total_images(), 256);
        assert_eq!(TraceSpec::background(256).len(), 1);
    }

    #[test]
    fn bursty_arrivals_are_golden() {
        let spec = TraceSpec::bursty(WorkloadKind::Interactive, 10, 4, 2.0, 3);
        assert_eq!((spec.len(), spec.total_images()), (40, 40));
        // The first request of bursts 0, 1 and 2, and the last of burst 9.
        assert_eq!(
            sample(&spec, [0, 4, 8]),
            [
                (0.0, 1),
                (0.06020906965436336, 1),
                (0.6626849006012302, 1),
                (3.3108639173289216, 1)
            ]
        );
    }

    #[test]
    fn explicit_round_trips() {
        let requests = vec![(0.0, 2), (0.5, 1)];
        let spec = TraceSpec::explicit(WorkloadKind::Background, requests.clone());
        assert_eq!(collect(&spec), requests);
        assert_eq!((spec.len(), spec.total_images()), (2, 3));
        assert_eq!(spec.kind(), WorkloadKind::Background);
        assert!(!spec.is_empty());
    }

    #[test]
    #[should_panic(expected = "arrivals must be finite and non-negative")]
    fn explicit_rejects_a_nan_arrival() {
        let _ = TraceSpec::explicit(WorkloadKind::Interactive, vec![(0.0, 1), (f64::NAN, 1)]);
    }

    #[test]
    #[should_panic(expected = "arrivals must be finite and non-negative")]
    fn explicit_rejects_a_negative_arrival() {
        let _ = TraceSpec::explicit(WorkloadKind::Interactive, vec![(-1.0, 1), (0.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted")]
    fn explicit_rejects_unsorted_arrivals() {
        let _ = TraceSpec::explicit(WorkloadKind::Interactive, vec![(1.0, 1), (0.5, 1)]);
    }

    #[test]
    fn iterator_state_is_constant_size() {
        // A million-request spec is four words of parameters; pulling a
        // few arrivals never allocates the tail.
        let spec = TraceSpec::poisson(WorkloadKind::Interactive, 1_000_000, 900.0, 42);
        let first: Vec<(f64, usize)> = spec.arrivals().take(3).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].0, 0.0);
        assert_eq!(spec.len(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_spec_rejects_bad_rate() {
        let _ = TraceSpec::poisson(WorkloadKind::Interactive, 10, 0.0, 1);
    }
}
