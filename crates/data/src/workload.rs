//! The three task classes of §II.B. Their request arrivals are the
//! [`TraceSpec`](crate::TraceSpec) processes.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSpec;

    fn requests(spec: &TraceSpec) -> Vec<(f64, usize)> {
        spec.arrivals().collect()
    }

    #[test]
    fn real_time_is_periodic() {
        let t = TraceSpec::real_time(4, 60.0);
        let times: Vec<f64> = requests(&t).iter().map(|&(at, _)| at).collect();
        for (i, at) in times.iter().enumerate() {
            assert!((at - i as f64 / 60.0).abs() < 1e-12);
        }
        assert_eq!(t.kind(), WorkloadKind::RealTime);
    }

    #[test]
    fn interactive_is_monotonic_and_single_image() {
        let t = TraceSpec::interactive(10, 0.5, 2.0, 3);
        let mut prev = -1.0;
        for (at, n) in requests(&t) {
            assert!(at > prev);
            assert_eq!(n, 1);
            prev = at;
        }
    }

    #[test]
    fn interactive_is_deterministic_per_seed() {
        assert_eq!(
            requests(&TraceSpec::interactive(5, 0.1, 1.0, 7)),
            requests(&TraceSpec::interactive(5, 0.1, 1.0, 7))
        );
    }

    #[test]
    fn background_is_one_burst() {
        let t = TraceSpec::background(500);
        assert_eq!(requests(&t).len(), 1);
        assert_eq!(t.total_images(), 500);
    }

    #[test]
    fn poisson_is_deterministic_and_near_rate() {
        let a = requests(&TraceSpec::poisson(
            WorkloadKind::Interactive,
            500,
            20.0,
            11,
        ));
        let b = requests(&TraceSpec::poisson(
            WorkloadKind::Interactive,
            500,
            20.0,
            11,
        ));
        assert_eq!(a, b);
        let mut prev = -1.0;
        for &(at, n) in &a {
            assert!(at >= prev);
            assert_eq!(n, 1);
            prev = at;
        }
        // Sample mean of 500 exponential gaps is within ~20 % of the rate:
        // 500 images over the span to the last arrival.
        let rate = a.len() as f64 / a.last().unwrap().0;
        assert!((rate - 20.0).abs() / 20.0 < 0.2, "rate {rate}");
    }

    #[test]
    fn poisson_seeds_differ() {
        assert_ne!(
            requests(&TraceSpec::poisson(WorkloadKind::Interactive, 50, 5.0, 1)),
            requests(&TraceSpec::poisson(WorkloadKind::Interactive, 50, 5.0, 2))
        );
    }

    #[test]
    fn bursty_groups_simultaneous_requests() {
        let t = TraceSpec::bursty(WorkloadKind::Interactive, 10, 4, 2.0, 3);
        let all = requests(&t);
        assert_eq!(all.len(), 40);
        assert_eq!(t.total_images(), 40);
        // Each burst's 4 requests share an arrival instant.
        for chunk in all.chunks(4) {
            assert!(chunk.iter().all(|&(at, _)| at == chunk[0].0));
        }
        assert_eq!(
            all,
            requests(&TraceSpec::bursty(WorkloadKind::Interactive, 10, 4, 2.0, 3))
        );
    }

    #[test]
    fn from_requests_accepts_empty_and_keeps_order() {
        let empty = TraceSpec::explicit(WorkloadKind::Background, vec![]);
        assert_eq!(empty.total_images(), 0);
        assert!(empty.is_empty());
        let t = TraceSpec::explicit(WorkloadKind::Interactive, vec![(0.0, 2), (0.5, 1)]);
        assert_eq!(t.total_images(), 3);
        assert_eq!(t.kind(), WorkloadKind::Interactive);
        assert_eq!(requests(&t), [(0.0, 2), (0.5, 1)]);
    }
}
