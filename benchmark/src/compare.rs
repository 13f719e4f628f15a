//! Applies the end-to-end bounds to two sets of runs, workload by
//! workload and metric by metric.

use std::collections::{BTreeMap, BTreeSet};

use crate::record::{Better, Bound, EndToEnd, Record, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the first side by more than the bound.
    Ok,
    /// Better by more than the bound, or an exact metric that moved the
    /// good way: a change of behaviour the author has to declare.
    Improved,
    Regression,
    /// A side's own run-to-run spread is wider than the bound (or an exact
    /// metric differs between runs of one seed), so nothing can be said.
    Unresolved,
    /// The two sides share no run to compare.
    Missing,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub verdict: Verdict,
    /// Medians of the two sides, where both have runs.
    pub medians: Option<(f64, f64)>,
    pub note: String,
}

fn better_than(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

fn bounded(def: &EndToEnd, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, String) {
    let (ma, mb) = (median(a), median(b));
    let gap = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // Worsening as a share of the first side; absolute where that is 0.
    let worse = if ma == 0.0 { gap } else { gap / ma.abs() };
    let (sa, sb) = (spread(a), spread(b));
    let note = format!(
        "{:+.1}% worse, bound {:.0}%, spread {:.1}% / {:.1}% over {} / {} runs",
        worse * 100.0,
        bound * 100.0,
        sa * 100.0,
        sb * 100.0,
        a.len(),
        b.len()
    );
    let all = |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    let verdict = if sa.max(sb) > bound {
        if all(&|x, y| better_than(def.better, y, x)) {
            Verdict::Improved
        } else if worse > bound && all(&|x, y| better_than(def.better, x, y)) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, note)
}

fn exact(def: &EndToEnd, a: &[(u64, f64)], b: &[(u64, f64)]) -> (Verdict, String) {
    let by_seed = |runs: &[(u64, f64)]| {
        let mut m: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &(seed, v) in runs {
            m.entry(seed).or_default().insert(v.to_bits());
        }
        m
    };
    let (sa, sb) = (by_seed(a), by_seed(b));
    let mut verdict = Verdict::Missing;
    let mut notes = Vec::new();
    for (seed, va) in &sa {
        let Some(vb) = sb.get(seed) else { continue };
        if va.len() > 1 || vb.len() > 1 {
            return (
                Verdict::Unresolved,
                format!("seed {seed}: runs of one side disagree"),
            );
        }
        let (x, y) = (
            f64::from_bits(*va.iter().next().expect("nonempty")),
            f64::from_bits(*vb.iter().next().expect("nonempty")),
        );
        if x == y {
            if verdict == Verdict::Missing {
                verdict = Verdict::Ok;
            }
        } else if better_than(def.better, y, x) {
            if verdict != Verdict::Regression {
                verdict = Verdict::Improved;
            }
            notes.push(format!("seed {seed}: {x} -> {y}"));
        } else {
            verdict = Verdict::Regression;
            notes.push(format!("seed {seed}: {x} -> {y}"));
        }
    }
    let note = match verdict {
        Verdict::Missing => "no seed run on both sides".to_string(),
        Verdict::Ok => "identical per seed".to_string(),
        _ => notes.join("; "),
    };
    (verdict, note)
}

/// One row per workload and end-to-end metric that either side measured.
/// Traced runs carry no end-to-end metrics and are skipped.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let runs = |side: &[Record], workload: &str, metric: &str| -> Vec<(u64, f64)> {
        side.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.metric(metric).map(|v| (r.seed, v)))
            .collect()
    };
    let workloads: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for def in &END_TO_END {
            let (ra, rb) = (runs(a, workload, def.name), runs(b, workload, def.name));
            if ra.is_empty() && rb.is_empty() {
                continue;
            }
            let values = |r: &[(u64, f64)]| r.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
            let (va, vb) = (values(&ra), values(&rb));
            let (verdict, note) = if va.is_empty() || vb.is_empty() {
                (Verdict::Missing, "measured on one side only".to_string())
            } else {
                match def.bound {
                    Bound::Share(bound) => bounded(def, bound, &va, &vb),
                    Bound::Exact => exact(def, &ra, &rb),
                }
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                verdict,
                medians: (!va.is_empty() && !vb.is_empty()).then(|| (median(&va), median(&vb))),
                note,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let medians = r
            .medians
            .map_or("-".to_string(), |(x, y)| format!("{x:.4} -> {y:.4}"));
        out.push_str(&format!(
            "{:<17} {:<22} {:<11} {:<26} {}\n",
            r.workload,
            r.metric,
            format!("{:?}", r.verdict).to_lowercase(),
            medians,
            r.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Meta;

    fn run(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.into(),
            seed,
            seconds: 1.0,
            traced: false,
            smoke: false,
            attempted: 1,
            failed: 0,
            correct: true,
            meta: Meta {
                nproc: 2,
                pool_width: 2,
                cpu_model: "cpu".into(),
                rustc: "rustc".into(),
                git_commit: "abc".into(),
            },
            metrics: metrics
                .iter()
                .map(|(n, v)| (n.to_string(), (*v, "u".to_string())))
                .collect(),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row")
            .verdict
    }

    #[test]
    fn bounds_are_direction_aware() {
        let a = [run("w", 1, &[("op_p50_ms", 100.0), ("images_per_s", 10.0)])];
        let slower = [run("w", 1, &[("op_p50_ms", 126.0), ("images_per_s", 7.4)])];
        let rows = compare(&a, &slower);
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Regression);
        assert_eq!(verdict(&rows, "images_per_s"), Verdict::Regression);
        let within = [run("w", 1, &[("op_p50_ms", 124.0), ("images_per_s", 7.6)])];
        let rows = compare(&a, &within);
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Ok);
        assert_eq!(verdict(&rows, "images_per_s"), Verdict::Ok);
        let faster = [run("w", 1, &[("op_p50_ms", 70.0), ("images_per_s", 13.0)])];
        let rows = compare(&a, &faster);
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Improved);
        assert_eq!(verdict(&rows, "images_per_s"), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let side = |vals: &[f64]| -> Vec<Record> {
            vals.iter()
                .map(|&v| run("w", 1, &[("op_p50_ms", v)]))
                .collect()
        };
        let noisy = side(&[100.0, 140.0]);
        assert_eq!(
            verdict(&compare(&noisy, &side(&[110.0, 135.0])), "op_p50_ms"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&compare(&noisy, &side(&[80.0, 99.0])), "op_p50_ms"),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&compare(&noisy, &side(&[150.0, 170.0])), "op_p50_ms"),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_compare_seed_by_seed() {
        let a = [
            run(
                "serve_mixed",
                42,
                &[("sim_soc", 0.5), ("failed_ops_share", 0.0)],
            ),
            run(
                "serve_mixed",
                7,
                &[("sim_soc", 0.6), ("failed_ops_share", 0.0)],
            ),
        ];
        let rows = compare(&a, &a.clone());
        assert_eq!(verdict(&rows, "sim_soc"), Verdict::Ok);
        assert_eq!(verdict(&rows, "failed_ops_share"), Verdict::Ok);
        // Seeds differ in value, which is not a disagreement.
        let mut b = a.clone();
        b[1].metrics.insert("sim_soc".into(), (0.59, "u".into()));
        b[1].metrics
            .insert("failed_ops_share".into(), (0.1, "u".into()));
        let rows = compare(&a, &b);
        assert_eq!(verdict(&rows, "sim_soc"), Verdict::Regression);
        assert_eq!(verdict(&rows, "failed_ops_share"), Verdict::Regression);
        b[1].metrics.insert("sim_soc".into(), (0.61, "u".into()));
        assert_eq!(verdict(&compare(&a, &b), "sim_soc"), Verdict::Improved);
        // One side disagreeing with itself on a seed says nothing.
        let twice = [a[0].clone(), run("serve_mixed", 42, &[("sim_soc", 0.4)])];
        assert_eq!(
            verdict(&compare(&twice, &a), "sim_soc"),
            Verdict::Unresolved
        );
        let other_seed = [run("serve_mixed", 9, &[("sim_soc", 0.5)])];
        assert_eq!(
            verdict(&compare(&a, &other_seed), "sim_soc"),
            Verdict::Missing
        );
    }

    #[test]
    fn traced_runs_and_unmeasured_metrics_make_no_rows() {
        let mut traced = run("w", 1, &[("op_p50_ms", 1.0)]);
        traced.traced = true;
        assert!(compare(&[traced.clone()], &[traced]).is_empty());
        let rows = compare(
            &[run("w", 1, &[("setup_s", 1.0)])],
            &[run("w", 1, &[("setup_s", 1.2)])],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(render(&rows).contains("setup_s"));
    }
}
