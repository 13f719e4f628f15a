//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the record one run writes.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a unit test keeps the two in step.

use std::collections::BTreeMap;

use Better::{Higher, Lower};

pub const SCHEMA: u32 = 1;

/// Workload names with the reason each is in the set.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "alexnet_b1",
        "batch-1 planned forward of full-size AlexNet: large-K packed GEMM (conv ~80%) and 235 MB of FC weights streamed per image; Winograd and activation traffic barely matter",
    ),
    (
        "vgg16_b1",
        "batch-1 planned forward of the VGG-16 conv stack: 3x3 stride-1 layers on 12.8 MB maps, conv ~98%, tuner picks Winograd; FC negligible, im2col-free and arena changes show here",
    ),
    (
        "alexnet_b8_rung2",
        "batch-8 AlexNet forward at 45% perforation, pool width W: sampled im2col, interpolation and the batch-parallel path; conv plans are bypassed, so a ConvPlan change must not move it",
    ),
    (
        "serve_mixed",
        "the canonical BENCH_serve scenario run to completion: host time is offline compiler and GPU simulator filling the cost oracle; no engine code runs",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the first side's median.
    Share(f64),
    /// Deterministic per seed: compared exactly, seed by seed.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Whether `BENCHMARK.json` lists it. The driver's contract takes a
    /// metric that every workload measures, that is never 0 and whose
    /// spread over ten seeds stays inside its bound; `compare` applies
    /// the others too.
    pub driver: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    driver: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver,
    }
}

// The timing bounds are what this shared two-core recorder supports, not
// what one would like: README.md, "Noise, and what it decided".
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("op_p10_ms", "ms", Lower, Bound::Share(0.25), true),
    e2e("setup_s", "s", Lower, Bound::Share(0.25), true),
    e2e("peak_rss_mb", "MB", Lower, Bound::Share(0.10), true),
    e2e("op_p50_ms", "ms", Lower, Bound::Share(0.25), false),
    e2e("images_per_s", "1/s", Higher, Bound::Share(0.25), false),
    e2e("failed_ops_share", "share", Lower, Bound::Exact, false),
    e2e(
        "sim_deadline_hit_rate",
        "share",
        Higher,
        Bound::Exact,
        false,
    ),
    e2e("sim_soc", "score", Higher, Bound::Exact, false),
    e2e("sim_joules_per_image", "J", Lower, Bound::Exact, false),
    e2e("sim_p99_ms", "ms", Lower, Bound::Exact, false),
    e2e("sim_degraded_share", "share", Lower, Bound::Exact, false),
];

/// Per-layer metrics of a traced run, `(name, unit, better)`; the prefix
/// names the crate. Every traced run reports all of them: 0 where the
/// workload does not run the layer.
pub const PER_LAYER: [(&str, &str, Better); 54] = [
    ("tensor.gemm_ms", "ms", Lower),
    ("tensor.gemm_gflops", "GFLOP/s", Higher),
    ("tensor.im2col_ms", "ms", Lower),
    ("tensor.im2col_gbs", "GB/s", Higher),
    ("tensor.direct_ms", "ms", Lower),
    ("tensor.winograd_ms", "ms", Lower),
    ("tensor.gemm_nt_ms", "ms", Lower),
    ("nn.conv_ms", "ms", Lower),
    ("nn.relu_ms", "ms", Lower),
    ("nn.maxpool_ms", "ms", Lower),
    ("nn.linear_ms", "ms", Lower),
    ("nn.conv_self_ms", "ms", Lower),
    ("nn.layers_cover", "ratio", Higher),
    ("nn.perforated_conv_ms", "ms", Lower),
    ("nn.perforation_efficiency", "ratio", Higher),
    ("nn.alloc_calls_per_op", "count", Lower),
    ("nn.alloc_mb_per_op", "MB", Lower),
    ("nn.peak_live_mb", "MB", Lower),
    ("parallel.width", "count", Higher),
    ("parallel.forward_speedup", "ratio", Higher),
    ("parallel.region_overhead_us", "us", Lower),
    ("kernels.tune_candidates_us", "us", Lower),
    ("kernels.tune_calls", "count", Lower),
    ("gpu.simulate_kernel_ms", "ms", Lower),
    ("gpu.simulate_kernel_calls", "count", Lower),
    ("gpu.sim_mcycles_per_host_s", "Mcycle/s", Higher),
    ("gpu.simcache_hit_ratio", "ratio", Higher),
    ("core.compile_ms", "ms", Lower),
    ("core.compile_calls", "count", Lower),
    ("core.simulate_schedule_ms", "ms", Lower),
    ("core.conv_tuner_s", "s", Lower),
    ("serve.oracle_ms", "ms", Lower),
    ("serve.oracle_keys", "count", Lower),
    ("serve.oracle_hit_ns", "ns", Lower),
    ("serve.run_ms", "ms", Lower),
    ("serve.loop_ns_per_req", "ns", Lower),
    ("serve.report_json_us", "us", Lower),
    ("serve.rejected_share", "share", Lower),
    ("serve.sim_deadline_hit_rate", "share", Higher),
    ("serve.sim_soc", "score", Higher),
    ("serve.sim_joules_per_image", "J", Lower),
    ("serve.sim_p99_ms", "ms", Lower),
    ("serve.sim_degraded_share", "share", Lower),
    ("data.arrivals_per_s", "1/s", Higher),
    ("telemetry.on_ratio", "ratio", Lower),
    ("telemetry.serve_on_ratio", "ratio", Lower),
    ("profile.on_ratio", "ratio", Lower),
    ("harness.op_min_ms", "ms", Lower),
    ("harness.op_p50_ms", "ms", Lower),
    ("harness.op_p90_ms", "ms", Lower),
    ("harness.op_samples", "count", Higher),
    ("harness.traced_ops", "count", Higher),
    ("harness.trace_overhead_ratio", "ratio", Lower),
    ("harness.failed_ops_share", "share", Lower),
];

/// The unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    end_to_end.or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// Where and with what a run was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    pub nproc: usize,
    pub pool_width: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

/// One run of one workload: a line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub meta: Meta,
    /// Metric name to `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    crate::api::write_escaped(&mut out, s);
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quoted(name),
                quoted(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and the named metrics.
    pub fn driver_line(&self, names: impl Iterator<Item = &'static str>) -> String {
        let metrics = names.map(|n| {
            let (value, unit) = self
                .metrics
                .get(n)
                .unwrap_or_else(|| panic!("run did not measure {n}"));
            (n, *value, unit.as_str())
        });
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }

    /// One line of a result file.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, (v, u))| (n.as_str(), *v, u.as_str()));
        format!(
            "{{\"schema\": {SCHEMA}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"nproc\": {}, \"pool_width\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"metrics\": {}}}",
            quoted(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.attempted,
            self.failed,
            self.correct,
            self.meta.nproc,
            self.meta.pool_width,
            quoted(&self.meta.cpu_model),
            quoted(&self.meta.rustc),
            quoted(&self.meta.git_commit),
            metrics_json(metrics)
        )
    }

    /// Parses a line [`to_json_line`](Self::to_json_line) wrote.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let doc = crate::api::parse_json(line)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("no \"{key}\""));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" is not a number"))
        };
        let text = |key: &str| {
            Ok::<_, String>(
                field(key)?
                    .as_str()
                    .ok_or_else(|| format!("\"{key}\" is not a string"))?
                    .to_string(),
            )
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("\"{key}\" is not a boolean"))
        };
        if number("schema")? != f64::from(SCHEMA) {
            return Err(format!(
                "schema {} where {SCHEMA} is understood",
                number("schema")?
            ));
        }
        let crate::api::JsonValue::Object(entries) = field("metrics")? else {
            return Err("\"metrics\" is not an object".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in entries {
            let value = m.get("value").and_then(|v| v.as_f64());
            let unit = m.get("unit").and_then(|u| u.as_str());
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name} lacks a value or a unit"));
            };
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Record {
            workload: text("workload")?,
            seed: number("seed")? as u64,
            seconds: number("seconds")?,
            traced: flag("traced")?,
            smoke: flag("smoke")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            correct: flag("correct")?,
            meta: Meta {
                nproc: number("nproc")? as usize,
                pool_width: number("pool_width")? as usize,
                cpu_model: text("cpu_model")?,
                rustc: text("rustc")?,
                git_commit: text("git_commit")?,
            },
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn a_record_survives_its_json_line() {
        let record = Record {
            workload: "vgg16_b1".into(),
            seed: 7,
            seconds: 2.5,
            traced: false,
            smoke: true,
            attempted: 12,
            failed: 1,
            correct: false,
            meta: Meta {
                nproc: 2,
                pool_width: 1,
                cpu_model: "Some \"CPU\" @ 2.10GHz".into(),
                rustc: "rustc 1.95.0".into(),
                git_commit: "unknown".into(),
            },
            metrics: [("op_p50_ms".to_string(), (1312.123456789, "ms".to_string()))].into(),
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(Record::from_json_line(&line), Ok(record.clone()));
        assert_eq!(
            record.driver_line(["op_p50_ms"].into_iter()),
            "{\"correct\": false, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"op_p50_ms\": {\"value\": 1312.123456789, \"unit\": \"ms\"}}}"
        );
        assert!(Record::from_json_line("{\"schema\": 99}").is_err());
        assert!(Record::from_json_line("not json").is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(
            metrics_json([("x", 1.25, "ms")].into_iter()),
            "{\"x\": {\"value\": 1.25, \"unit\": \"ms\"}}"
        );
    }
}
