//! Experiment harness shared by the per-figure binaries and the
//! microbenches.
//!
//! Every table and figure of the paper's evaluation section has a binary
//! in `src/bin/`; the binary ↔ paper-artefact mapping (and the checked-in
//! sweep specs under `experiments/` that back the accuracy figures) is
//! tabulated in the repository README under *Reproducing the paper*. The
//! accuracy figures (`fig2`, `fig3`, `fig5`) are thin
//! wrappers over `fedms exp run` on those specs; the remaining drivers
//! build their configs by hand and call [`run_averaged`].
//!
//! The shared helpers ([`harness_defaults`], [`seeds_from_env`],
//! [`rounds_from_env`], [`save_json`], [`Series`],
//! [`print_series_table`]) live in `fedms-exp` and are re-exported here so
//! the drivers keep a single import path.
//!
//! Environment knobs honoured by the accuracy experiments:
//! `FEDMS_ROUNDS` (default 60), `FEDMS_SEEDS` (comma-separated, default
//! `42`), `FEDMS_FAST=1` (10 rounds, quick smoke run), `FEDMS_THREADS`
//! (sweep parallelism); a malformed value is an error naming the variable.
//! Results print as text tables and are written to
//! `results/` as provenance-stamped artifacts with a `<name>.json` pointer
//! to the latest.
//!
//! [`perf`] is the microbench harness: `filterbench` and `nnbench` measure
//! through it, write one report schema (`BENCH_*.json`) and gate against
//! their committed baselines through one check.

use fedms_core::{FedMsConfig, Result};

pub mod perf;

pub use fedms_exp::{
    harness_defaults, print_series_table, rounds_from_env, save_json, seeds_from_env, Series,
};

/// Runs `cfg` once per seed and averages the accuracy series point-wise.
///
/// # Errors
///
/// Propagates the first failing run's error.
pub fn run_averaged(cfg: &FedMsConfig, seeds: &[u64]) -> Result<Vec<(usize, f32)>> {
    let mut acc: Vec<(usize, f64)> = Vec::new();
    for &seed in seeds {
        let mut cfg = cfg.clone();
        cfg.seed = seed;
        let result = cfg.run()?;
        let series = result.accuracy_series();
        if acc.is_empty() {
            acc = series.iter().map(|&(r, a)| (r, a as f64)).collect();
        } else {
            for (slot, &(r, a)) in acc.iter_mut().zip(series.iter()) {
                debug_assert_eq!(slot.0, r);
                slot.1 += a as f64;
            }
        }
    }
    let n = seeds.len().max(1) as f64;
    Ok(acc.into_iter().map(|(r, a)| (r, (a / n) as f32)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_averaged_over_two_seeds() {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.rounds = 2;
        let avg = run_averaged(&cfg, &[1, 2]).unwrap();
        assert_eq!(avg.len(), 2);
        let one = run_averaged(&cfg, &[1]).unwrap();
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn reexported_series_still_works() {
        let s = Series { label: "x".into(), points: vec![(0, 0.1), (5, 0.9)] };
        assert_eq!(s.final_accuracy(), Some(0.9));
    }
}
