//! Time-series recording and CSV output (`skute-sim --csv`).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::engine::Observation;

/// Collects per-epoch [`Observation`]s and renders them as CSV, one row per
/// epoch with per-ring columns — the raw material of Figs. 2–5.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    observations: Vec<Observation>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch.
    pub fn push(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// The recorded observations.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of recorded epochs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.observations.len()
    }

    /// Renders the full time series as CSV.
    pub(crate) fn to_csv(&self) -> String {
        let rings = self
            .observations
            .first()
            .map(|o| o.report.rings.len())
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str("epoch,alive_servers,total_vnodes,cheap_mean_vnodes,expensive_mean_vnodes");
        out.push_str(",offered_rate,storage_frac,insert_failures,partitions_lost");
        out.push_str(",repl_avail,repl_profit,migrations,suicides,splits,blocked");
        out.push_str(",repl_bytes,migr_bytes,rent_paid,utility_earned");
        for r in 0..rings {
            let _ = write!(
                out,
                ",ring{r}_vnodes,ring{r}_partitions,ring{r}_load_per_server,ring{r}_load_cv,ring{r}_mean_avail,ring{r}_sla_frac,ring{r}_served,ring{r}_dropped,ring{r}_client_dist"
            );
        }
        out.push('\n');
        for obs in &self.observations {
            let r = &obs.report;
            let _ = write!(
                out,
                "{},{},{},{:.3},{:.3},{:.1},{:.4},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4}",
                r.epoch,
                r.alive_servers,
                r.total_vnodes(),
                obs.cheap_mean_vnodes,
                obs.expensive_mean_vnodes,
                obs.offered_rate,
                r.storage_frac(),
                r.insert_failures,
                r.partitions_lost,
                r.actions.availability_replications,
                r.actions.profit_replications,
                r.actions.migrations,
                r.actions.suicides,
                r.actions.splits,
                r.actions.blocked_transfers,
                r.actions.replicated_bytes,
                r.actions.migrated_bytes,
                r.rent_paid,
                r.utility_earned,
            );
            for ring in &r.rings {
                let _ = write!(
                    out,
                    ",{},{},{:.4},{:.4},{:.2},{:.4},{:.1},{:.1},{:.3}",
                    ring.vnodes,
                    ring.partitions,
                    ring.load_per_server,
                    ring.load_cv,
                    ring.mean_availability,
                    ring.sla_satisfied_frac,
                    ring.queries_served,
                    ring.queries_dropped,
                    ring.mean_client_distance,
                );
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to `path`, creating parent directories as needed.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::paper;

    #[test]
    fn csv_has_header_and_rows() {
        let mut sim = Simulation::new(paper::scaled_scenario("csv", 4, 100, 3));
        let mut rec = Recorder::new();
        for obs in sim.run() {
            rec.push(obs);
        }
        assert_eq!(rec.len(), 3);
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 epochs");
        assert!(lines[0].starts_with("epoch,alive_servers"));
        assert!(lines[0].contains("ring2_vnodes"), "three rings expected");
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn write_csv_creates_dirs() {
        let mut sim = Simulation::new(paper::scaled_scenario("io", 4, 100, 2));
        let mut rec = Recorder::new();
        for obs in sim.run() {
            rec.push(obs);
        }
        let dir = std::env::temp_dir().join("skute-test-recorder");
        let path = dir.join("nested").join("out.csv");
        rec.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("epoch,"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
