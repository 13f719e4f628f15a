//! Inference request workloads for the three task classes of §II.B.
//!
//! A [`RequestTrace`] is a materialized request list. Its shaped
//! constructors are the matching [`TraceSpec`] arrival process collected
//! into a vector: the generator lives in [`crate::spec`] only.

use crate::spec::TraceSpec;

/// The three CNN application classes of the paper (§II.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// User-facing, latency-tolerant up to a point (e.g. age detection).
    Interactive,
    /// Hard per-frame deadline (e.g. video surveillance).
    RealTime,
    /// No latency requirement, energy-sensitive (e.g. image tagging).
    Background,
}

/// A deterministic, materialized trace of inference requests.
///
/// Each entry is `(arrival time in seconds, number of images)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    kind: WorkloadKind,
    requests: Vec<(f64, usize)>,
}

impl RequestTrace {
    /// Interactive workload: single-image requests separated by think
    /// times drawn uniformly from `[min_gap, max_gap]` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or the gap range is invalid.
    pub fn interactive(n_requests: usize, min_gap: f64, max_gap: f64, seed: u64) -> Self {
        TraceSpec::interactive(n_requests, min_gap, max_gap, seed).materialize()
    }

    /// Real-time workload: one frame every `1/fps` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `fps <= 0` or `n_frames == 0`.
    pub fn real_time(n_frames: usize, fps: f64) -> Self {
        TraceSpec::real_time(n_frames, fps).materialize()
    }

    /// Background workload: all `n_images` available at time zero (e.g. a
    /// camera roll to tag).
    ///
    /// # Panics
    ///
    /// Panics if `n_images == 0`.
    pub fn background(n_images: usize) -> Self {
        TraceSpec::background(n_images).materialize()
    }

    /// Builds a trace from explicit `(arrival seconds, image count)`
    /// pairs. Unlike the shaped constructors this accepts any request
    /// list, including an empty one — downstream executors report an
    /// image-free trace as a typed error instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not monotonically non-decreasing.
    pub fn from_requests(kind: WorkloadKind, requests: Vec<(f64, usize)>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrivals must be sorted"
        );
        Self { kind, requests }
    }

    /// Open-loop Poisson workload: `n_requests` single-image requests
    /// whose inter-arrival gaps are exponentially distributed with mean
    /// `1 / rate` seconds — the classic model of independent users hitting
    /// an online service. Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or `rate <= 0`.
    pub fn poisson(kind: WorkloadKind, n_requests: usize, rate: f64, seed: u64) -> Self {
        TraceSpec::poisson(kind, n_requests, rate, seed).materialize()
    }

    /// Open-loop bursty workload: `n_bursts` burst events at Poisson
    /// arrivals of rate `burst_rate` per second, each delivering
    /// `burst_size` single-image requests at the same instant (a fan-out
    /// of simultaneous users, or a device uploading a backlog).
    /// Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_bursts == 0`, `burst_size == 0` or `burst_rate <= 0`.
    pub fn bursty(
        kind: WorkloadKind,
        n_bursts: usize,
        burst_size: usize,
        burst_rate: f64,
        seed: u64,
    ) -> Self {
        TraceSpec::bursty(kind, n_bursts, burst_size, burst_rate, seed).materialize()
    }

    /// The workload class.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The `(arrival seconds, image count)` pairs, in arrival order.
    pub fn requests(&self) -> &[(f64, usize)] {
        &self.requests
    }

    /// Total images across all requests.
    pub fn total_images(&self) -> usize {
        self.requests.iter().map(|&(_, n)| n).sum()
    }

    /// Mean image arrival rate in images/second over the trace span
    /// (`total images / last arrival`), or `f64::INFINITY` for a
    /// zero-length span (single burst).
    pub fn arrival_rate(&self) -> f64 {
        let span = self.requests.last().map(|&(t, _)| t).unwrap_or(0.0);
        if span == 0.0 {
            f64::INFINITY
        } else {
            self.total_images() as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_is_periodic() {
        let t = RequestTrace::real_time(4, 60.0);
        let times: Vec<f64> = t.requests().iter().map(|&(at, _)| at).collect();
        for (i, at) in times.iter().enumerate() {
            assert!((at - i as f64 / 60.0).abs() < 1e-12);
        }
        assert_eq!(t.kind(), WorkloadKind::RealTime);
    }

    #[test]
    fn interactive_is_monotonic_and_single_image() {
        let t = RequestTrace::interactive(10, 0.5, 2.0, 3);
        let mut prev = -1.0;
        for &(at, n) in t.requests() {
            assert!(at > prev);
            assert_eq!(n, 1);
            prev = at;
        }
    }

    #[test]
    fn interactive_is_deterministic_per_seed() {
        assert_eq!(
            RequestTrace::interactive(5, 0.1, 1.0, 7),
            RequestTrace::interactive(5, 0.1, 1.0, 7)
        );
    }

    #[test]
    fn background_is_one_burst() {
        let t = RequestTrace::background(500);
        assert_eq!(t.requests().len(), 1);
        assert_eq!(t.total_images(), 500);
        assert_eq!(t.arrival_rate(), f64::INFINITY);
    }

    #[test]
    fn arrival_rate_counts_span() {
        let t = RequestTrace::real_time(61, 60.0);
        // 61 frames over exactly 1 second span.
        assert!((t.arrival_rate() - 61.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_is_deterministic_and_near_rate() {
        let a = RequestTrace::poisson(WorkloadKind::Interactive, 500, 20.0, 11);
        let b = RequestTrace::poisson(WorkloadKind::Interactive, 500, 20.0, 11);
        assert_eq!(a, b);
        let mut prev = -1.0;
        for &(at, n) in a.requests() {
            assert!(at >= prev);
            assert_eq!(n, 1);
            prev = at;
        }
        // Sample mean of 500 exponential gaps is within ~20 % of the rate.
        let rate = a.arrival_rate();
        assert!((rate - 20.0).abs() / 20.0 < 0.2, "rate {rate}");
    }

    #[test]
    fn poisson_seeds_differ() {
        assert_ne!(
            RequestTrace::poisson(WorkloadKind::Interactive, 50, 5.0, 1),
            RequestTrace::poisson(WorkloadKind::Interactive, 50, 5.0, 2)
        );
    }

    #[test]
    fn bursty_groups_simultaneous_requests() {
        let t = RequestTrace::bursty(WorkloadKind::Interactive, 10, 4, 2.0, 3);
        assert_eq!(t.requests().len(), 40);
        assert_eq!(t.total_images(), 40);
        // Each burst's 4 requests share an arrival instant.
        for chunk in t.requests().chunks(4) {
            assert!(chunk.iter().all(|&(at, _)| at == chunk[0].0));
        }
        assert_eq!(
            t,
            RequestTrace::bursty(WorkloadKind::Interactive, 10, 4, 2.0, 3)
        );
    }

    #[test]
    fn from_requests_accepts_empty_and_keeps_order() {
        let empty = RequestTrace::from_requests(WorkloadKind::Background, vec![]);
        assert_eq!(empty.total_images(), 0);
        let t = RequestTrace::from_requests(WorkloadKind::Interactive, vec![(0.0, 2), (0.5, 1)]);
        assert_eq!(t.total_images(), 3);
        assert_eq!(t.kind(), WorkloadKind::Interactive);
    }
}
