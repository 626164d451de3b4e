//! `skute-benchmark compare A.json B.json`: the parent-vs-change table.
//!
//! For every workload × end-to-end metric it prints both medians, the
//! ratio with its base, the bound, both run-to-run spreads and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a spread (interquartile range over median, either
//!   side) exceeds the bound, so the runs cannot tell, unless every run of
//!   B reads better than every run of A;
//! * `ok` — otherwise.

use std::collections::BTreeMap;

use crate::catalog::{Better, Metric, END_TO_END, WORKLOADS};
use crate::json::{self, Json};
use crate::stats::{median, spread};

/// `workload → metric → values`, one value per end-to-end run in a file.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The end-to-end values of a results file, and how many of its runs were
/// incorrect.
pub fn load(text: &str) -> Result<(Values, usize), String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("results file has no \"runs\" array")?;
    let mut values = Values::new();
    let mut incorrect = 0;
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        if run.get("correct") != Some(&Json::Bool(true)) {
            incorrect += 1;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run has no metrics")?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name} has no value"))?;
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((values, incorrect))
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread lets the runs tell.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative = better).
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match metric.better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

/// The rule in the module docs.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    if spread(a).max(spread(b)) > bound {
        let all_better = a.iter().all(|&x| {
            b.iter().all(|&y| match metric.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the table; returns the process exit code (1 on any regression,
/// any incorrect run, or a workload × metric missing from either file).
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| load(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, incorrect_a) = read(path_a)?;
    let (b, incorrect_b) = read(path_b)?;
    println!("A = {path_a}\nB = {path_b}   (ratio = B/A, base A)");
    println!(
        "{:<22} {:<13} {:>14} {:>3} {:>14} {:>3} {:>7} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "n",
        "B median",
        "n",
        "B/A",
        "bound",
        "spreadA",
        "spreadB"
    );
    let mut exit = 0;
    let mut counts = BTreeMap::new();
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let side = |values: &Values| {
                values
                    .get(workload.name)
                    .and_then(|m| m.get(metric.name))
                    .cloned()
            };
            let (Some(va), Some(vb)) = (side(&a), side(&b)) else {
                println!(
                    "{:<22} {:<13} missing from A or B",
                    workload.name, metric.name
                );
                exit = 1;
                continue;
            };
            let v = verdict(metric, &va, &vb);
            *counts.entry(v.as_str()).or_insert(0) += 1;
            if v == Verdict::Regressed {
                exit = 1;
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<22} {:<13} {:>14.4} {:>3} {:>14.4} {:>3} {:>7.3} {:>6.2} {:>8.3} {:>8.3}  {}",
                workload.name,
                metric.name,
                ma,
                va.len(),
                mb,
                vb.len(),
                mb / ma,
                metric.bound.expect("end-to-end metrics carry a bound"),
                spread(&va),
                spread(&vb),
                v.as_str()
            );
        }
    }
    println!("verdicts: {counts:?}");
    if incorrect_a + incorrect_b > 0 {
        println!("incorrect runs: {incorrect_a} in A, {incorrect_b} in B");
        exit = 1;
    }
    Ok(exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let rate = metric("ops_per_s"); // higher is better
        let bound = rate.bound.unwrap();
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(rate, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * (1.0 - bound * 1.2)).collect();
        assert_eq!(verdict(rate, &steady, &slower), Verdict::Regressed);
        let slightly: Vec<f64> = steady.iter().map(|v| v * (1.0 - bound * 0.8)).collect();
        assert_eq!(verdict(rate, &steady, &slightly), Verdict::Ok);
        // A wide spread cannot resolve a small difference ...
        let noisy = [40.0, 100.0, 160.0, 70.0, 130.0];
        assert_eq!(verdict(rate, &steady, &noisy), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let faster = [140.0, 200.0, 260.0, 170.0, 230.0];
        assert_eq!(verdict(rate, &steady, &faster), Verdict::Ok);

        let latency = metric("p50_us"); // lower is better
        assert!(worsening(latency, 100.0, 120.0) > 0.19);
        assert!(worsening(rate, 100.0, 120.0) < 0.0);
        let worse = 50.0 * (1.0 + latency.bound.unwrap() * 1.2);
        assert_eq!(verdict(latency, &[50.0], &[worse]), Verdict::Regressed);
    }

    #[test]
    fn loads_only_end_to_end_runs() {
        let text = r#"{"runs": [
            {"workload": "w", "trace": 0, "correct": true, "metrics": {"p50_us": {"value": 5, "unit": "us"}}},
            {"workload": "w", "trace": 0, "correct": false, "metrics": {"p50_us": {"value": 7, "unit": "us"}}},
            {"workload": "w", "trace": 1, "correct": true, "metrics": {"store.put_ns": {"value": 9, "unit": "ns"}}}
        ]}"#;
        let (values, incorrect) = load(text).unwrap();
        assert_eq!(values["w"]["p50_us"], vec![5.0, 7.0]);
        assert!(!values["w"].contains_key("store.put_ns"));
        assert_eq!(incorrect, 1);
        assert!(load("{}").is_err());
    }
}
