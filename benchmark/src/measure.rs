//! What a traced run collects its per-layer numbers in.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::record::PER_LAYER;
use crate::trace::Tracer;

/// Calls `f` until `budget_s` seconds have passed, and at least `min`
/// times; returns each call's wall time in milliseconds.
pub fn repeat<E>(
    budget_s: f64,
    min: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f()?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

pub struct Probe {
    pub tracer: Tracer,
    /// A tenth of the run's `--seconds`: the unit the phases of a traced
    /// run are budgeted in.
    pub slice_s: f64,
    /// Wall time of the untraced first operation made during set-up.
    pub cold_ms: f64,
    /// Highest growth of the live heap during that first operation.
    pub cold_peak_live_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub fn new(slice_s: f64, cold_ms: f64, cold_peak_live_mb: f64) -> Self {
        Self {
            tracer: Tracer::new(),
            slice_s,
            cold_ms,
            cold_peak_live_mb,
            attempted: 0,
            failed: 0,
            values: PER_LAYER.iter().map(|m| (m.0, 0.0)).collect(),
        }
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that [`PER_LAYER`] does not list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Counts one operation and whether its output passed its check.
    pub fn count(&mut self, passed: bool) {
        self.attempted += 1;
        self.failed += u64::from(!passed);
    }

    /// Every per-layer metric, 0 for those this workload did not set.
    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_honours_minimum_and_budget() {
        let mut calls = 0;
        let ms = repeat(0.0, 3, || {
            calls += 1;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!((ms.len(), calls), (3, 3));
        let ms = repeat(0.02, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert!((1..=5).contains(&ms.len()), "{}", ms.len());
        assert_eq!(repeat(1.0, 1, || Err::<(), &str>("boom")), Err("boom"));
    }

    #[test]
    fn probe_reports_every_metric_and_rejects_unknown_names() {
        let mut p = Probe::new(1.0, 0.0, 0.0);
        p.set("nn.conv_ms", 2.5);
        assert_eq!(p.values().len(), PER_LAYER.len());
        assert_eq!(p.values()["nn.conv_ms"], 2.5);
        assert_eq!(p.values()["gpu.simcache_hit_ratio"], 0.0);
        assert!(std::panic::catch_unwind(move || p.set("nn.nope", 1.0)).is_err());
    }
}
