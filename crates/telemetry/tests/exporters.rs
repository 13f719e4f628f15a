//! Golden tests for the exporters and property tests for metric merging.

use pcnn_telemetry::json::{self, JsonValue};
use pcnn_telemetry::{self as telemetry, Histogram, Metrics};
use proptest::prelude::*;

fn spans_of<'a>(events: &'a [JsonValue], name: &str) -> Vec<&'a JsonValue> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
        .collect()
}

#[test]
fn chrome_trace_is_valid_json_with_nested_complete_events() {
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _outer = telemetry::span!("outer", phase = "tuning");
        {
            let _inner = telemetry::span!("inner", layer = "CONV1", tlp = 4u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _sibling = telemetry::span!("sibling");
    }
    telemetry::event!("marker", kind = "checkpoint");
    let rendered = telemetry::render_chrome_trace();
    telemetry::set_enabled(false);

    // The whole document parses, and the top level is an array.
    let doc = json::parse(&rendered).expect("chrome trace must be valid JSON");
    let events = doc.as_array().expect("trace-event format is a JSON array");

    // Every non-metadata event carries the required trace-event fields.
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
        assert!(ev.get("pid").and_then(|p| p.as_f64()).is_some());
        assert!(ev.get("tid").and_then(|t| t.as_f64()).is_some());
        match ph {
            "X" => {
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                let dur = ev.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= 0.0 && dur >= 0.0, "negative X event: {ts} {dur}");
            }
            "i" => assert!(ev.get("ts").is_some()),
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }

    // The spans nest: inner and sibling lie strictly within outer on the
    // same thread, and do not overlap each other.
    let outer = spans_of(events, "outer")[0];
    let inner = spans_of(events, "inner")[0];
    let sibling = spans_of(events, "sibling")[0];
    let window = |e: &JsonValue| {
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        (ts, ts + e.get("dur").unwrap().as_f64().unwrap())
    };
    let (o0, o1) = window(outer);
    let (i0, i1) = window(inner);
    let (s0, s1) = window(sibling);
    assert_eq!(outer.get("tid").unwrap(), inner.get("tid").unwrap());
    assert!(
        o0 <= i0 && i1 <= o1,
        "inner [{i0},{i1}] outside outer [{o0},{o1}]"
    );
    assert!(o0 <= s0 && s1 <= o1, "sibling outside outer");
    assert!(
        i1 <= s0,
        "siblings overlap: inner ends {i1}, sibling starts {s0}"
    );
    assert!(
        i1 - i0 >= 1000.0,
        "inner slept 2ms but dur is {} us",
        i1 - i0
    );

    // Span args survive the round trip.
    assert_eq!(
        inner.get("args").unwrap().get("layer").unwrap().as_str(),
        Some("CONV1")
    );
    assert_eq!(
        inner.get("args").unwrap().get("tlp").unwrap().as_f64(),
        Some(4.0)
    );

    // The instant event is present with its scope field.
    let marker = spans_of(events, "marker")[0];
    assert_eq!(marker.get("ph").unwrap().as_str(), Some("i"));
    assert_eq!(marker.get("s").unwrap().as_str(), Some("t"));
}

fn histograms_equivalent(a: &Histogram, b: &Histogram) -> bool {
    a.buckets == b.buckets
        && a.count == b.count
        && a.min == b.min
        && a.max == b.max
        // Float summation order may differ; demand near-equality.
        && (a.sum - b.sum).abs() <= 1e-9 * (1.0 + a.sum.abs())
}

fn metrics_equivalent(a: &Metrics, b: &Metrics) -> bool {
    a.counters == b.counters
        && a.histograms.len() == b.histograms.len()
        && a.histograms.iter().all(|(k, h)| {
            b.histograms
                .get(k)
                .map(|other| histograms_equivalent(h, other))
                .unwrap_or(false)
        })
}

fn build_metrics(ops: &[(u8, u8, f64)]) -> Metrics {
    let names = ["alpha", "beta", "gamma"];
    let mut m = Metrics::default();
    for &(kind, which, value) in ops {
        let name = names[which as usize % names.len()];
        if kind % 2 == 0 {
            m.add(name, (value.abs() * 16.0) as u64);
        } else {
            m.observe(name, value);
        }
    }
    m
}

proptest! {
    #[test]
    fn metrics_merge_is_order_independent(
        parts in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u8..4, -1.0e4f64..1.0e4), 0..12),
            1..6,
        ),
    ) {
        let metrics: Vec<Metrics> = parts.iter().map(|p| build_metrics(p)).collect();
        // Forward order.
        let mut fwd = Metrics::default();
        for m in &metrics {
            fwd.merge(m);
        }
        // Reverse order.
        let mut rev = Metrics::default();
        for m in metrics.iter().rev() {
            rev.merge(m);
        }
        prop_assert!(
            metrics_equivalent(&fwd, &rev),
            "merge depended on order: {:?} vs {:?}",
            fwd,
            rev
        );
        // Merging is also associative: ((a+b)+c) == (a+(b+c)) pairwise.
        if metrics.len() >= 3 {
            let mut left = metrics[0].clone();
            left.merge(&metrics[1]);
            left.merge(&metrics[2]);
            let mut bc = metrics[1].clone();
            bc.merge(&metrics[2]);
            let mut right = metrics[0].clone();
            right.merge(&bc);
            prop_assert!(metrics_equivalent(&left, &right));
        }
    }

    #[test]
    fn histogram_observations_always_land_in_one_bucket(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..64),
    ) {
        let mut h = Histogram::default();
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.buckets.iter().sum::<u64>(), values.len() as u64);
    }
}
