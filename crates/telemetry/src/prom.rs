//! Prometheus text-exposition rendering of a sink.
//!
//! [`render_prometheus`](crate::render_prometheus) writes the counters,
//! histograms and windowed series of the current snapshot in the
//! [Prometheus text format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! counters as `<name> <value>`, log2 histograms as cumulative
//! `_bucket{le="…"}` series plus `_sum`/`_count`, and p50/p95/p99 gauges
//! interpolated with [`Histogram::quantile`](crate::Histogram::quantile).
//! Windowed series are exposed cumulatively (totals across windows) with
//! their label as a `label="…"` pair — per-window detail lives in the
//! Chrome trace counter track, which this exposition complements rather
//! than duplicates. Labels carrying the
//! [`PLATFORM_LABEL_PREFIX`] convention (`"platform:<name>"`, used by the
//! per-platform fleet series) render as a first-class `platform="…"`
//! label pair instead of being flattened into the generic `label`
//! dimension, so per-device SLO dashboards can select on `platform`
//! directly.
//!
//! The output follows the exposition grammar: each metric family is one
//! contiguous group headed by exactly one `# HELP` line followed by one
//! `# TYPE` line (in that order), metric names are mapped onto the legal
//! charset by [`sanitize_name`], and label values escape `\`, `"` and
//! newlines. The exposition is deterministic for a deterministic metric
//! set: all series render in sorted order and numbers use the same
//! shortest-roundtrip formatting as the JSON exporters.

use crate::json::write_number;
use crate::windowed::WindowedSeries;
use crate::{bucket_low, Histogram, Metrics, N_BUCKETS};

/// Maps a metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and
/// a leading digit gains a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` docstring (the grammar escapes `\` and newline
/// only; quotes stay literal).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Writes the one `# HELP` + `# TYPE` header pair of a metric family, in
/// the order the exposition grammar requires.
fn write_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {kind}\n",
        escape_help(help)
    ));
}

/// Windowed-series labels carrying this prefix denote a *platform*
/// dimension (`"platform:<name>"`) and render as `platform="<name>"` in
/// the exposition instead of the generic `label="…"` pair.
pub const PLATFORM_LABEL_PREFIX: &str = "platform:";

const HELP_COUNTER: &str = "Monotonic event counter.";
const HELP_HISTOGRAM: &str = "Log2-bucketed distribution of observed values.";
const HELP_QUANTILE: &str = "Quantile interpolated from the log2 buckets.";
const HELP_WINDOW_TOTAL: &str = "Cumulative total across virtual-time windows.";

fn push_value(out: &mut String, v: f64) {
    let mut s = String::new();
    write_number(&mut s, v);
    out.push_str(&s);
}

/// The `_bucket`/`_sum`/`_count` samples of one labelled histogram —
/// headers are the caller's job so multi-label families emit them once.
fn write_histogram_base(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for i in 0..N_BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        cumulative += h.buckets[i];
        // Upper bound of bucket `i` is the lower bound of `i + 1`.
        out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\""));
        push_value(out, bucket_low(i + 1));
        out.push_str(&format!("\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
        h.count
    ));
    out.push_str(&format!("{name}_sum{{{labels}}} ",));
    push_value(out, h.sum);
    out.push('\n');
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count));
}

/// The quantile-gauge suffixes derived from every histogram family (and
/// carried by every histogram window sample of the Chrome trace).
pub(crate) const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

fn write_quantile(out: &mut String, name: &str, suffix: &str, labels: &str, h: &Histogram, q: f64) {
    out.push_str(&format!("{name}_{suffix}{{{labels}}} "));
    push_value(out, h.quantile(q));
    out.push('\n');
}

/// A histogram family with a single label set: headers plus samples plus
/// the derived quantile gauges.
fn write_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    write_header(out, name, "histogram", HELP_HISTOGRAM);
    write_histogram_base(out, name, labels, h);
    for (suffix, q) in QUANTILES {
        write_header(out, &format!("{name}_{suffix}"), "gauge", HELP_QUANTILE);
        write_quantile(out, name, suffix, labels, h, q);
    }
}

/// Renders `metrics` plus the `windowed` series as one Prometheus text
/// exposition document.
pub fn render(metrics: &Metrics, windowed: &[WindowedSeries]) -> String {
    let mut out = String::with_capacity(4096);

    let mut counters: Vec<_> = metrics.counters.iter().collect();
    counters.sort();
    for (name, value) in counters {
        let name = sanitize_name(name);
        write_header(&mut out, &name, "counter", HELP_COUNTER);
        out.push_str(&format!("{name} {value}\n"));
    }

    let mut histograms: Vec<_> = metrics.histograms.iter().collect();
    histograms.sort_by_key(|(k, _)| k.as_str());
    for (name, h) in histograms {
        write_histogram(&mut out, &sanitize_name(name), "", h);
    }

    // Windowed series: cumulative totals with the label attached, in
    // deterministic (name, label) order across every merged series. A
    // name occurring with several labels is one metric family — one
    // header pair, then one sample (or histogram sample group) per label.
    enum Total {
        Count(u64),
        Hist(Box<Histogram>),
    }
    let mut totals: Vec<(String, String, Total)> = Vec::new();
    for series in windowed {
        let mut seen: std::collections::BTreeSet<(&str, &str)> = std::collections::BTreeSet::new();
        for rec in series.records() {
            if !seen.insert((rec.name, rec.label)) {
                continue;
            }
            let entry = match rec.value {
                crate::windowed::WindowValue::Count(_) => {
                    Total::Count(series.counter_total(rec.name, rec.label))
                }
                crate::windowed::WindowValue::Hist(_) => Total::Hist(Box::new(
                    series
                        .histogram_total(rec.name, rec.label)
                        .unwrap_or_default(),
                )),
            };
            totals.push((sanitize_name(rec.name), rec.label.to_string(), entry));
        }
    }
    totals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let labels_of = |label: &str| match label.strip_prefix(PLATFORM_LABEL_PREFIX) {
        Some(platform) => format!("platform=\"{}\"", escape_label(platform)),
        None if label.is_empty() => String::new(),
        None => format!("label=\"{}\"", escape_label(label)),
    };
    let mut i = 0;
    while i < totals.len() {
        let name = totals[i].0.clone();
        let group_len = totals[i..].iter().take_while(|t| t.0 == name).count();
        let group = &totals[i..i + group_len];
        i += group_len;
        match group[0].2 {
            Total::Count(_) => {
                write_header(&mut out, &name, "counter", HELP_WINDOW_TOTAL);
                for (_, label, value) in group {
                    if let Total::Count(v) = value {
                        out.push_str(&format!("{name}{{{}}} {v}\n", labels_of(label)));
                    }
                }
            }
            Total::Hist(_) => {
                write_header(&mut out, &name, "histogram", HELP_HISTOGRAM);
                for (_, label, value) in group {
                    if let Total::Hist(h) = value {
                        write_histogram_base(&mut out, &name, &labels_of(label), h);
                    }
                }
                for (suffix, q) in QUANTILES {
                    write_header(
                        &mut out,
                        &format!("{name}_{suffix}"),
                        "gauge",
                        HELP_QUANTILE,
                    );
                    for (_, label, value) in group {
                        if let Total::Hist(h) = value {
                            write_quantile(&mut out, &name, suffix, &labels_of(label), h, q);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("serve.queue_depth"), "serve_queue_depth");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a b-c"), "a_b_c");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn renders_counters_and_histograms() {
        let mut m = Metrics::default();
        m.add("serve.rejected", 3);
        m.observe("lat.s", 0.5);
        m.observe("lat.s", 0.5);
        m.observe("lat.s", 2.0);
        let doc = render(&m, &[]);
        assert!(doc.contains("# TYPE serve_rejected counter\nserve_rejected 3\n"));
        assert!(doc.contains("# HELP serve_rejected "));
        assert!(doc.contains("lat_s_count{} 3"));
        assert!(doc.contains("lat_s_sum{} 3\n"));
        assert!(doc.contains("le=\"+Inf\"} 3"));
        // Cumulative buckets: two at 0.5 (bucket upper bound 1), one at 2.
        assert!(doc.contains("le=\"1\"} 2"));
        assert!(doc.contains("lat_s_p50{} "));
    }

    #[test]
    fn renders_windowed_totals_with_labels() {
        let mut w = WindowedSeries::new(1.0);
        w.add(0.5, "serve_images", "age detection", 2);
        w.add(1.5, "serve_images", "age detection", 3);
        w.observe(0.2, "serve_latency", "age detection", 0.125);
        let doc = render(&Metrics::default(), &[w]);
        assert!(doc.contains("serve_images{label=\"age detection\"} 5"));
        assert!(doc.contains("serve_latency_count{label=\"age detection\"} 1"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut w = WindowedSeries::new(1.0);
        w.add(0.5, "wl_images", "quo\"te\\slash\nline", 1);
        let doc = render(&Metrics::default(), &[w]);
        assert!(doc.contains("wl_images{label=\"quo\\\"te\\\\slash\\nline\"} 1"));
    }

    #[test]
    fn help_escaping() {
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
    }

    #[test]
    fn platform_labels_render_as_their_own_dimension() {
        let mut w = WindowedSeries::new(1.0);
        w.add(0.5, "fleet.dispatches", "platform:K20c", 4);
        w.add(0.5, "fleet.dispatches", "platform:Jetson TX1", 1);
        w.observe(0.5, "fleet.batch_s", "platform:K20c", 0.25);
        w.add(0.5, "wl.images", "age detection", 2);
        let doc = render(&Metrics::default(), &[w]);
        // Counters: one family, one sample per platform, sorted order.
        assert!(doc.contains("fleet_dispatches{platform=\"Jetson TX1\"} 1"));
        assert!(doc.contains("fleet_dispatches{platform=\"K20c\"} 4"));
        // Histogram samples carry the platform pair alongside `le`.
        assert!(doc.contains("fleet_batch_s_count{platform=\"K20c\"} 1"));
        assert!(doc.contains("fleet_batch_s_bucket{platform=\"K20c\",le=\""));
        assert!(doc.contains("fleet_batch_s_p99{platform=\"K20c\"} "));
        // The prefix is consumed, never leaked into the value; workload
        // labels keep the generic dimension.
        assert!(!doc.contains("platform:"));
        assert!(doc.contains("wl_images{label=\"age detection\"} 2"));
    }

    #[test]
    fn platform_label_values_are_escaped() {
        let mut w = WindowedSeries::new(1.0);
        w.add(0.5, "fleet.dispatches", "platform:quo\"te\\x", 1);
        let doc = render(&Metrics::default(), &[w]);
        assert!(doc.contains("fleet_dispatches{platform=\"quo\\\"te\\\\x\"} 1"));
    }

    /// Validates a name against `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// A messy snapshot exercising every rendering path.
    fn messy_doc() -> String {
        let mut m = Metrics::default();
        m.add("9serve.weird name-#", 1);
        m.add("plain_total", 2);
        m.observe("lat.s", 0.5);
        let mut w = WindowedSeries::new(1.0);
        w.add(0.5, "wl.images", "age detection", 2);
        w.add(0.5, "wl.images", "face id", 3);
        w.observe(0.5, "wl.latency", "age detection", 0.25);
        w.observe(0.5, "wl.latency", "face id", 0.5);
        w.add(0.5, "fleet.dispatches", "platform:K20c", 4);
        w.add(0.5, "fleet.dispatches", "platform:Jetson TX1", 1);
        w.observe(0.5, "fleet.batch_s", "platform:K20c", 0.01);
        render(&m, &[w])
    }

    #[test]
    fn every_rendered_metric_name_is_grammar_valid() {
        let doc = messy_doc();
        for line in doc.lines() {
            let name = if let Some(rest) = line.strip_prefix("# HELP ") {
                rest.split_whitespace().next()
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                rest.split_whitespace().next()
            } else {
                line.split(['{', ' ']).next()
            };
            let name = name.expect("nonempty line");
            assert!(valid_metric_name(name), "invalid metric name in {line:?}");
        }
    }

    #[test]
    fn help_precedes_type_exactly_once_per_family() {
        let doc = messy_doc();
        use std::collections::HashMap;
        // metric name -> (help lines, type lines), with positions.
        let mut seen: HashMap<&str, (Vec<usize>, Vec<usize>)> = HashMap::new();
        for (pos, line) in doc.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap();
                seen.entry(name).or_default().0.push(pos);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                seen.entry(name).or_default().1.push(pos);
            }
        }
        assert!(!seen.is_empty());
        for (name, (helps, types)) in seen {
            assert_eq!(helps.len(), 1, "{name}: HELP must appear exactly once");
            assert_eq!(types.len(), 1, "{name}: TYPE must appear exactly once");
            assert!(helps[0] < types[0], "{name}: HELP must precede TYPE");
        }
    }

    #[test]
    fn families_are_contiguous_groups() {
        // Every sample line must belong to the family announced by the
        // most recent TYPE header (name, name_bucket, name_sum, …).
        let doc = messy_doc();
        let mut current: Option<(String, String)> = None;
        for line in doc.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                current = Some((
                    it.next().unwrap().to_string(),
                    it.next().unwrap().to_string(),
                ));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name, kind) = current.as_ref().expect("sample before any TYPE header");
            let sample = line.split(['{', ' ']).next().unwrap();
            let ok = match kind.as_str() {
                "histogram" => {
                    sample == format!("{name}_bucket")
                        || sample == format!("{name}_sum")
                        || sample == format!("{name}_count")
                }
                _ => sample == *name,
            };
            assert!(ok, "sample {sample:?} outside its family {name:?} ({kind})");
        }
    }
}
