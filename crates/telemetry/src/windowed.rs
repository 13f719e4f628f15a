//! Windowed time-series metrics over a virtual clock.
//!
//! The serving simulator advances a *virtual* clock, so "throughput over
//! time" cannot come from wall-clock sampling: instead every observation
//! is stamped with its virtual time and folded into a fixed-width window
//! ([`WindowedSeries`]). Each `(metric, label)` pair holds either a
//! per-window counter or a per-window [`Histogram`], so deadline
//! hit-rate, queue depth, latency quantiles and oracle error can be
//! plotted over the run — deterministically, because the windows are a
//! pure function of the observation stream.
//!
//! A series merged into the recording thread's sink via
//! [`merge_windowed`](crate::merge_windowed) is exported two ways:
//! Chrome trace counter events (`ph:"C"`, one point per window, plotted
//! by Perfetto; a histogram window carries its count, mean, p50, p95 and
//! p99), and the cumulative Prometheus exposition (see [`crate::prom`]).

use std::collections::BTreeMap;

use crate::Histogram;

/// A labelled set of windowed counters and histograms over one fixed
/// virtual-clock window width.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    window_s: f64,
    counters: BTreeMap<(String, String), BTreeMap<u64, u64>>,
    histograms: BTreeMap<(String, String), BTreeMap<u64, Histogram>>,
}

/// One flattened per-window record, in deterministic `(name, label,
/// window)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord<'a> {
    /// Metric name.
    pub name: &'a str,
    /// Series label (e.g. a workload name); empty when unlabelled.
    pub label: &'a str,
    /// Window index (`floor(t / window_s)`).
    pub index: u64,
    /// Window start, virtual seconds.
    pub start_s: f64,
    /// Window end, virtual seconds.
    pub end_s: f64,
    /// The windowed value.
    pub value: WindowValue<'a>,
}

/// The value carried by one window of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowValue<'a> {
    /// Counter delta accumulated in this window.
    Count(u64),
    /// Histogram of observations that landed in this window.
    Hist(&'a Histogram),
}

impl WindowedSeries {
    /// A series with `window_s`-second windows. Non-positive or
    /// non-finite widths are clamped to one second rather than panicking.
    pub fn new(window_s: f64) -> Self {
        let window_s = if window_s.is_finite() && window_s > 0.0 {
            window_s
        } else {
            1.0
        };
        Self {
            window_s,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// The window width in (virtual) seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// The window index a timestamp falls into (negative times clamp to
    /// window 0).
    pub fn index_of(&self, t_s: f64) -> u64 {
        if !t_s.is_finite() || t_s <= 0.0 {
            return 0;
        }
        (t_s / self.window_s).floor() as u64
    }

    /// `[start, end)` bounds of window `index`, virtual seconds.
    pub fn bounds(&self, index: u64) -> (f64, f64) {
        (
            index as f64 * self.window_s,
            (index + 1) as f64 * self.window_s,
        )
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to counter `name{label}` in the window containing
    /// `t_s`.
    pub fn add(&mut self, t_s: f64, name: &str, label: &str, delta: u64) {
        let w = self.index_of(t_s);
        *self
            .counters
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .entry(w)
            .or_insert(0) += delta;
    }

    /// Records `value` into histogram `name{label}` in the window
    /// containing `t_s`.
    pub fn observe(&mut self, t_s: f64, name: &str, label: &str, value: f64) {
        let w = self.index_of(t_s);
        self.histograms
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .entry(w)
            .or_default()
            .observe(value);
    }

    /// Counter value of `name{label}` in window `index` (0 when absent).
    pub fn counter_in(&self, index: u64, name: &str, label: &str) -> u64 {
        self.counters
            .get(&(name.to_string(), label.to_string()))
            .and_then(|m| m.get(&index))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram of `name{label}` in window `index`, if anything landed
    /// there.
    pub fn histogram_in(&self, index: u64, name: &str, label: &str) -> Option<&Histogram> {
        self.histograms
            .get(&(name.to_string(), label.to_string()))
            .and_then(|m| m.get(&index))
    }

    /// Counter total across all windows.
    pub fn counter_total(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(&(name.to_string(), label.to_string()))
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Histogram folded across all windows.
    pub fn histogram_total(&self, name: &str, label: &str) -> Option<Histogram> {
        let series = self
            .histograms
            .get(&(name.to_string(), label.to_string()))?;
        let mut total = Histogram::default();
        for h in series.values() {
            total.merge(h);
        }
        Some(total)
    }

    /// Highest window index carrying any data, or `None` when empty.
    pub fn last_index(&self) -> Option<u64> {
        self.counters
            .values()
            .filter_map(|m| m.keys().next_back())
            .chain(
                self.histograms
                    .values()
                    .filter_map(|m| m.keys().next_back()),
            )
            .copied()
            .max()
    }

    /// Folds `other` in window-by-window. Both series must share the same
    /// window width; if they do not, `other`'s windows are re-indexed by
    /// their start time into `self`'s grid.
    pub fn merge(&mut self, other: &WindowedSeries) {
        let same_grid = (self.window_s - other.window_s).abs() < 1e-12;
        for ((name, label), windows) in &other.counters {
            for (&w, &v) in windows {
                let idx = if same_grid {
                    w
                } else {
                    self.index_of(other.bounds(w).0)
                };
                *self
                    .counters
                    .entry((name.clone(), label.clone()))
                    .or_default()
                    .entry(idx)
                    .or_insert(0) += v;
            }
        }
        for ((name, label), windows) in &other.histograms {
            for (&w, h) in windows {
                let idx = if same_grid {
                    w
                } else {
                    self.index_of(other.bounds(w).0)
                };
                self.histograms
                    .entry((name.clone(), label.clone()))
                    .or_default()
                    .entry(idx)
                    .or_default()
                    .merge(h);
            }
        }
    }

    /// The records of one window only, in deterministic `(name, label)`
    /// order — what the incident flight recorder snapshots when a window
    /// closes. Values are the same cells [`records`](Self::records)
    /// flattens, so a snapshot always agrees with the exported trace.
    pub fn records_in(&self, index: u64) -> Vec<WindowRecord<'_>> {
        let (start_s, end_s) = self.bounds(index);
        let mut out = Vec::new();
        for ((name, label), windows) in &self.counters {
            if let Some(&v) = windows.get(&index) {
                out.push(WindowRecord {
                    name,
                    label,
                    index,
                    start_s,
                    end_s,
                    value: WindowValue::Count(v),
                });
            }
        }
        for ((name, label), windows) in &self.histograms {
            if let Some(h) = windows.get(&index) {
                out.push(WindowRecord {
                    name,
                    label,
                    index,
                    start_s,
                    end_s,
                    value: WindowValue::Hist(h),
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(b.name).then(a.label.cmp(b.label)));
        out
    }

    /// Flattens every `(series, window)` cell into deterministic
    /// `(name, label, window)` order — the order all exporters use.
    pub fn records(&self) -> Vec<WindowRecord<'_>> {
        let mut out = Vec::new();
        for ((name, label), windows) in &self.counters {
            for (&w, &v) in windows {
                let (start_s, end_s) = self.bounds(w);
                out.push(WindowRecord {
                    name,
                    label,
                    index: w,
                    start_s,
                    end_s,
                    value: WindowValue::Count(v),
                });
            }
        }
        for ((name, label), windows) in &self.histograms {
            for (&w, h) in windows {
                let (start_s, end_s) = self.bounds(w);
                out.push(WindowRecord {
                    name,
                    label,
                    index: w,
                    start_s,
                    end_s,
                    value: WindowValue::Hist(h),
                });
            }
        }
        out.sort_by(|a, b| {
            a.name
                .cmp(b.name)
                .then(a.label.cmp(b.label))
                .then(a.index.cmp(&b.index))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_their_windows() {
        let mut s = WindowedSeries::new(0.5);
        s.add(0.1, "served", "a", 2);
        s.add(0.4, "served", "a", 1);
        s.add(0.6, "served", "a", 5);
        s.observe(1.2, "lat", "a", 0.25);
        assert_eq!(s.counter_in(0, "served", "a"), 3);
        assert_eq!(s.counter_in(1, "served", "a"), 5);
        assert_eq!(s.counter_in(2, "served", "a"), 0);
        assert_eq!(s.counter_total("served", "a"), 8);
        assert_eq!(s.histogram_in(2, "lat", "a").unwrap().count, 1);
        assert_eq!(s.last_index(), Some(2));
    }

    #[test]
    fn labels_separate_series() {
        let mut s = WindowedSeries::new(1.0);
        s.add(0.0, "served", "a", 1);
        s.add(0.0, "served", "b", 2);
        assert_eq!(s.counter_in(0, "served", "a"), 1);
        assert_eq!(s.counter_in(0, "served", "b"), 2);
        assert_eq!(s.counter_in(0, "served", ""), 0);
    }

    #[test]
    fn negative_and_bad_times_clamp_to_window_zero() {
        let mut s = WindowedSeries::new(1.0);
        s.add(-3.0, "c", "", 1);
        s.add(f64::NAN, "c", "", 1);
        assert_eq!(s.counter_in(0, "c", ""), 2);
        let z = WindowedSeries::new(0.0);
        assert_eq!(z.window_s(), 1.0);
        let n = WindowedSeries::new(f64::NAN);
        assert_eq!(n.window_s(), 1.0);
    }

    #[test]
    fn merge_folds_window_by_window() {
        let mut a = WindowedSeries::new(1.0);
        a.add(0.5, "c", "x", 1);
        a.observe(1.5, "h", "x", 2.0);
        let mut b = WindowedSeries::new(1.0);
        b.add(0.9, "c", "x", 3);
        b.observe(1.1, "h", "x", 8.0);
        a.merge(&b);
        assert_eq!(a.counter_in(0, "c", "x"), 4);
        let h = a.histogram_in(1, "h", "x").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 8.0);
    }

    #[test]
    fn merge_rebuckets_on_mismatched_grids() {
        let mut a = WindowedSeries::new(1.0);
        let mut b = WindowedSeries::new(0.25);
        b.add(0.3, "c", "", 1); // window 1 of b starts at 0.25 → window 0 of a
        b.add(1.6, "c", "", 1); // window 6 of b starts at 1.5 → window 1 of a
        a.merge(&b);
        assert_eq!(a.counter_in(0, "c", ""), 1);
        assert_eq!(a.counter_in(1, "c", ""), 1);
    }

    #[test]
    fn records_are_sorted_and_complete() {
        let mut s = WindowedSeries::new(1.0);
        s.add(1.5, "b", "", 1);
        s.add(0.5, "b", "", 1);
        s.observe(0.5, "a", "z", 1.0);
        let recs = s.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].name, "a");
        assert_eq!(recs[1].index, 0);
        assert_eq!(recs[2].index, 1);
        assert_eq!(recs[1].start_s, 0.0);
        assert_eq!(recs[2].end_s, 2.0);
        assert!(matches!(recs[0].value, WindowValue::Hist(_)));
    }

    #[test]
    fn records_in_matches_the_flattened_view() {
        let mut s = WindowedSeries::new(1.0);
        s.add(0.5, "b", "", 1);
        s.add(1.5, "b", "", 2);
        s.observe(1.5, "a", "platform:K20c", 3.0);
        let one = s.records_in(1);
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].name, "a");
        assert_eq!(one[0].label, "platform:K20c");
        assert_eq!(one[1].value, WindowValue::Count(2));
        // Every record of window 1 appears (with equal values) in the
        // full flattened view.
        let all = s.records();
        for rec in &one {
            assert!(all.contains(rec));
        }
        assert!(s.records_in(7).is_empty());
    }

    #[test]
    fn histogram_total_folds_all_windows() {
        let mut s = WindowedSeries::new(0.5);
        for i in 0..10 {
            s.observe(i as f64 * 0.3, "lat", "", (i + 1) as f64);
        }
        let total = s.histogram_total("lat", "").unwrap();
        assert_eq!(total.count, 10);
        assert_eq!(total.min, 1.0);
        assert_eq!(total.max, 10.0);
        assert!(s.histogram_total("other", "").is_none());
    }
}
