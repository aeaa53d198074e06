//! Sweep results: the file a finished sweep leaves behind, and the table
//! rendered from it.
//!
//! `fedms exp run` writes a [`SweepResults`] — the spec's name and hash and
//! every [`TrialRecord`] in trial order — as the provenance-stamped
//! `results/<name>.json`. Each record names its seed and config hash, so
//! the file alone ties every number to the spec that produced it.
//! [`render_table`] turns the records into one markdown row per grid cell,
//! keyed by the spec's own axis values: the table `fedms exp run` prints
//! and `fedms exp report` prints again from a committed file.

use crate::provenance::{save_json_stamped_in, Provenance};
use crate::trial::TrialRecord;
use fedms_sim::CommStats;
use serde::{Deserialize, Serialize};
use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};

/// A finished sweep, as `results/<name>.json` holds it under its
/// [`Provenance`] stamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// The spec's `[experiment] name`.
    pub name: String,
    /// [`SweepSpec::spec_hash`](crate::SweepSpec::spec_hash) of the spec
    /// source.
    pub spec_hash: String,
    /// Every trial's record, in trial order.
    pub records: Vec<TrialRecord>,
}

/// The stamped file: the payload under its provenance block.
#[derive(Deserialize)]
struct Stamped {
    provenance: Provenance,
    data: SweepResults,
}

impl SweepResults {
    /// Writes `dir/<name>-<hash8>.json` and points `dir/<name>.json` at it
    /// (see [`save_json_stamped_in`]). Returns the artifact path.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save_in(&self, dir: &Path) -> io::Result<PathBuf> {
        save_json_stamped_in(dir, &self.name, self, "fedms exp run")
    }

    /// Reads a results file written by [`SweepResults::save_in`].
    ///
    /// # Errors
    ///
    /// Names the path when it cannot be read or does not parse.
    pub fn load(path: &Path) -> Result<(Provenance, SweepResults), String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        let stamped: Stamped = serde_json::from_str(&body)
            .map_err(|e| format!("could not parse {}: {e}", path.display()))?;
        Ok((stamped.provenance, stamped.data))
    }
}

/// Renders records as a markdown table: one row per grid cell, in
/// first-seen (expansion) order, with the cell's axis values, the number of
/// completed seeds, their mean final accuracy and min–max, and the mean
/// upload messages and MiB per round from `comm`. A trial's round count is
/// its last evaluated round plus one (the engine always evaluates the
/// final round). Failed records are left out.
pub fn render_table(records: &[TrialRecord]) -> String {
    let mut cells: Vec<Vec<&TrialRecord>> = Vec::new();
    for record in records.iter().filter(|r| r.is_completed()) {
        match cells.iter_mut().find(|group| group[0].axes == record.axes) {
            Some(group) => group.push(record),
            None => cells.push(vec![record]),
        }
    }
    let mut out = String::new();
    let axes = cells.first().map_or(&[][..], |group| &group[0].axes);
    for (key, _) in axes {
        let _ = write!(out, "| {key} ");
    }
    out.push_str("| seeds | final acc | seed range | up msg/round | up MiB/round |\n");
    out.push_str(&"|---".repeat(axes.len()));
    out.push_str("|---:|---:|---:|---:|---:|\n");
    for group in &cells {
        for (_, value) in &group[0].axes {
            let _ = write!(out, "| {value} ");
        }
        let n = group.len() as f64;
        let finals: Vec<f64> =
            group.iter().map(|r| 100.0 * f64::from(r.final_accuracy.unwrap_or(f32::NAN))).collect();
        let lo = finals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let per_round = |count: fn(&CommStats) -> u64| {
            group
                .iter()
                .map(|r| {
                    let rounds = r.points.last().map_or(1, |&(round, _)| round + 1);
                    r.comm.as_ref().map_or(0, count) as f64 / rounds as f64
                })
                .sum::<f64>()
                / n
        };
        let _ = writeln!(
            out,
            "| {} | {:.1} % | {lo:.1}–{hi:.1} % | {:.1} | {:.2} |",
            group.len(),
            finals.iter().sum::<f64>() / n,
            per_round(|c| c.upload_messages),
            per_round(|c| c.upload_bytes) / (1024.0 * 1024.0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::TrialStatus;

    fn record(axes: &[(&str, &str)], seed: u64, points: Vec<(usize, f32)>) -> TrialRecord {
        let rounds = points.last().map_or(0, |&(r, _)| r as u64 + 1);
        TrialRecord {
            trial_id: format!("t-{seed}-{}", axes.iter().map(|(_, v)| *v).collect::<String>()),
            label: String::new(),
            axes: axes.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            seed,
            config_hash: String::new(),
            status: TrialStatus::Completed,
            final_accuracy: points.last().map(|&(_, a)| a),
            points,
            comm: Some(CommStats {
                upload_messages: 50 * rounds,
                upload_bytes: 1024 * 1024 * rounds,
                ..CommStats::default()
            }),
        }
    }

    #[test]
    fn one_row_per_cell_with_seeds_averaged() {
        let noise_mean = [("attack", "noise"), ("filter", "mean")];
        let records = vec![
            record(&noise_mean, 1, vec![(0, 0.2), (3, 0.5)]),
            record(&noise_mean, 2, vec![(0, 0.4), (3, 0.75)]),
            record(&[("attack", "noise"), ("filter", "trimmed:0.2")], 1, vec![(0, 0.5), (3, 0.7)]),
            record(&[("attack", "zero"), ("filter", "mean")], 1, vec![(1, 0.25)]),
        ];
        assert_eq!(
            render_table(&records),
            "| attack | filter | seeds | final acc | seed range | up msg/round | up MiB/round |\n\
             |---|---|---:|---:|---:|---:|---:|\n\
             | noise | mean | 2 | 62.5 % | 50.0–75.0 % | 50.0 | 1.00 |\n\
             | noise | trimmed:0.2 | 1 | 70.0 % | 70.0–70.0 % | 50.0 | 1.00 |\n\
             | zero | mean | 1 | 25.0 % | 25.0–25.0 % | 50.0 | 1.00 |\n"
        );
    }

    #[test]
    fn failed_records_are_skipped() {
        let axes = [("filter", "mean")];
        let mut bad = record(&axes, 1, vec![(0, 0.9)]);
        bad.status = TrialStatus::Failed { error: "boom".into() };
        let table = render_table(&[bad, record(&axes, 2, vec![(0, 0.4)])]);
        assert!(table.ends_with("| mean | 1 | 40.0 % | 40.0–40.0 % | 50.0 | 1.00 |\n"), "{table}");
    }

    #[test]
    fn results_round_trip_through_the_stamped_file() {
        let dir = std::env::temp_dir().join(format!("fedms-exp-results-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = SweepResults {
            name: "fig9".into(),
            spec_hash: "0123456789abcdef".into(),
            records: vec![record(&[("filter", "mean")], 1, vec![(0, 0.4)])],
        };
        let artifact = results.save_in(&dir).unwrap();
        let (provenance, back) = SweepResults::load(&dir.join("fig9.json")).unwrap();
        assert_eq!(back, results);
        assert_eq!(provenance.tool, "fedms exp run");
        assert!(artifact.ends_with(format!("fig9-{}.json", &provenance.content_hash[..8])));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
