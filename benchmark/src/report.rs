//! What one run was asked to do and what it found, plus the printing the
//! driver and a human both read.

use std::path::PathBuf;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// The measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics and a span file) instead of the
    /// end-to-end run.
    pub trace: bool,
    /// Divisor on data sizes and the window: 1 for a real run, 50 for
    /// `--smoke`, which only proves the workload runs and checks.
    pub shrink: usize,
    /// Where span files, result files and the LSM stores' directories go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// A data size (keys, partitions' worth of data) under `--smoke`.
    pub fn sized(&self, full: usize) -> usize {
        (full / self.shrink).max(1)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that failed or returned something wrong.
    pub failed: u64,
    /// Checks beyond single operations that did not hold (a trajectory
    /// that diverged from its reference, a store that differs from the
    /// oracle). Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Free-form lines for the human reader (`# ...` on stdout).
    pub notes: Vec<String>,
    values: Vec<(&'static str, f64, u64)>,
}

impl Outcome {
    /// Records metric `name` with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.push((name, value, samples));
    }

    /// Records `ops_per_s` from equal slices of the run, each `(work done,
    /// seconds it took)`: the median of the slice rates, with the whole
    /// run's rate noted beside it.
    pub fn set_rate(&mut self, slices: &[(u64, f64)], what: &str) {
        let rates: Vec<f64> = slices.iter().map(|&(n, s)| n as f64 / s).collect();
        let total: u64 = slices.iter().map(|s| s.0).sum();
        let seconds: f64 = slices.iter().map(|s| s.1).sum();
        self.set("ops_per_s", stats::median(&rates), total);
        self.notes.push(format!(
            "{what}: {} slices, rates {}",
            rates.len(),
            rounded(&rates)
        ));
        self.notes.push(format!(
            "whole run: rate = {:.1} /s",
            total as f64 / seconds
        ));
    }

    /// Records `p50_us` from equal slices of the run, each the exact
    /// samples of that slice in nanoseconds: the median of the slices' own
    /// medians. The tail is not a metric of this run (see `catalog.rs`)
    /// but is printed for the reader: every slice's p99, and the pooled
    /// sample's median, p99 and highest percentile that has ten samples
    /// beyond it.
    pub fn set_latency_us(&mut self, mut slices: Vec<Vec<u64>>, what: &str) {
        slices.retain(|s| !s.is_empty());
        let mut all = Vec::new();
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for slice in &mut slices {
            slice.sort_unstable();
            p50s.push(stats::quantile(slice, 0.50) as f64 / 1e3);
            p99s.push(stats::quantile(slice, 0.99) as f64 / 1e3);
            all.extend_from_slice(slice);
        }
        all.sort_unstable();
        let n = all.len() as u64;
        self.set("p50_us", stats::median(&p50s), n);
        let tail = match stats::tail(&all) {
            Some((label, ns, beyond)) => format!(
                "{label} = {:.1} us ({beyond} samples beyond)",
                ns as f64 / 1e3
            ),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        self.notes
            .push(format!("{what}: n={n} in {} slices; {tail}", slices.len()));
        self.notes.push(format!(
            "whole run: p50 = {:.1} us, p99 = {:.1} us; median of slice p99s = {:.1} us",
            stats::quantile(&all, 0.50) as f64 / 1e3,
            stats::quantile(&all, 0.99) as f64 / 1e3,
            stats::median(&p99s)
        ));
        self.notes
            .push(format!("{what}: slice p50 us {}", rounded(&p50s)));
        self.notes
            .push(format!("{what}: slice p99 us {}", rounded(&p99s)));
    }

    /// A failed structural check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// True when nothing failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints every declared metric of the run's kind as
    /// `name unit value n=samples`, the notes and problems, and — as the
    /// last line — the result object the driver parses. An end-to-end
    /// metric the workload did not set is a bug; a per-layer metric it did
    /// not set belongs to a layer the workload does not exercise and
    /// prints 0.
    pub fn print(&self, trace: bool) {
        let declared: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for m in declared {
            let found = self.values.iter().find(|v| v.0 == m.name);
            assert!(
                trace || found.is_some(),
                "end-to-end metric {} was not measured",
                m.name
            );
            let (value, samples) = found.map_or((0.0, 0), |v| (v.1, v.2));
            println!("{} {} {} n={samples}", m.name, m.unit, value);
            metrics.push((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
        for (name, ..) in &self.values {
            assert!(
                END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == *name),
                "metric {name} is not declared in the catalogue"
            );
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac frac {fail_frac} n={} failed={}",
            self.attempted, self.failed
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.problems {
            println!("# PROBLEM: {problem}");
        }
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}

fn rounded(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
    format!("[{}]", cells.join(" "))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s` from the run's own set-up (`first`, in seconds) and further
/// repetitions of it: `again` sets up once more, tears that instance down
/// and returns the seconds the set-up took. At least three readings in
/// all, and up to 31 while they are cheap, so a 6 ms set-up is not
/// reported from three noisy ones; the metric is their median. Called after the measurement and after `peak_rss_mib` is read,
/// so that the memory metric is one instance's.
pub fn setup_seconds(
    first: f64,
    mut again: impl FnMut() -> std::io::Result<f64>,
) -> std::io::Result<(f64, u64)> {
    let mut times = vec![first];
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 31) {
        times.push(again()?);
    }
    Ok((stats::median(&times), times.len() as u64))
}
