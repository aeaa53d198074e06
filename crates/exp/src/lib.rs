//! # fedms-exp — parallel experiment orchestration
//!
//! The paper's evaluation is a grid — 4 attacks × ε ∈ {0,10,20,30}% ×
//! D_α ∈ {1,5,10,1000} × filters × seeds — and this crate turns any such
//! grid into a config file instead of a new binary:
//!
//! 1. **Declarative sweep specs** ([`SweepSpec`], [`toml`]): a TOML-subset
//!    document describing a base [`FedMsConfig`], a grid of overrides and a
//!    seed list, expanded into a deduplicated list of [`Trial`]s.
//! 2. **A work-stealing scheduler** ([`run_sweep`]): trials run in parallel
//!    across `--threads` workers with bounded-channel progress reporting
//!    and per-trial panic isolation — a poisoned trial is recorded as
//!    failed, the sweep continues.
//! 3. **A resumable run store** ([`RunStore`]): `results/runs/<run-id>/`
//!    holds a manifest (spec hash, git rev, seed list, trial roster) and
//!    one JSONL record per finished trial; a killed sweep re-run with the
//!    same spec skips every trial whose completed record is already on
//!    disk, and long trials additionally checkpoint mid-flight through the
//!    engine's [`fedms_sim::Snapshot`].
//! 4. **Results and their table** ([`SweepResults`], [`render_table`]): a
//!    finished sweep's records land in the provenance-stamped
//!    `results/<name>.json`, and one markdown row per grid cell is
//!    rendered from them.
//!
//! The spec file is the only input that decides a sweep's trials: no
//! environment variable or flag changes them, so the run id
//! `<name>-<spechash8>` and `results/<name>.json` always name the trials
//! that ran.
//!
//! The headline invariant is **determinism**: a trial's record is a pure
//! function of its config and seed, so a sweep at `--threads 8` writes
//! byte-identical per-trial records to the same sweep at `--threads 1`,
//! interrupted-and-resumed or not. `tests/sweep.rs` enforces this by
//! proptest.
//!
//! Every engine experiment of the reproduction is a checked-in spec under
//! `experiments/`; run one, which ends by writing `results/fig3.json` and
//! printing its table, with:
//!
//! ```text
//! fedms exp run experiments/fig3.toml --threads 8
//! fedms exp report results/fig3.json
//! ```
//!
//! [`FedMsConfig`]: fedms_core::FedMsConfig

mod provenance;
mod report;
mod scheduler;
mod spec;
mod store;
pub mod toml;
mod trial;

pub use provenance::{save_json, save_json_stamped_in, Provenance};
pub use report::{render_table, SweepResults};
pub use scheduler::{run_sweep, run_sweep_with, Progress, SweepReport};
pub use spec::{Scale, SpecError, SweepSpec};
pub use store::{git_rev, ManifestTrial, RunManifest, RunStore};
pub use trial::{execute_trial, Trial, TrialRecord, TrialStatus};

use std::path::Path;

/// Builds the [`RunManifest`] for a spec and its expanded trials.
pub fn manifest_for(spec: &SweepSpec, run_id: &str, trials: &[Trial]) -> RunManifest {
    RunManifest {
        run_id: run_id.to_string(),
        name: spec.name.clone(),
        spec_hash: spec.spec_hash(),
        git_rev: git_rev(),
        seeds: spec.seeds.clone(),
        rounds: spec.rounds,
        trials: trials
            .iter()
            .map(|t| ManifestTrial {
                id: t.id.clone(),
                label: t.label.clone(),
                seed: t.seed,
                config_hash: t.config_hash.clone(),
            })
            .collect(),
    }
}

/// Parses `source`, expands the grid, opens (or resumes) the run store
/// `<name>-<spechash8>` under `base_dir`, and runs the sweep on `threads`
/// workers. A run directory whose manifest names a *different* spec is
/// refused rather than mixed with this spec's records.
///
/// # Errors
///
/// Fails on spec errors, store I/O errors and spec-hash mismatches.
/// Individual trial failures do not fail the sweep — they are reported in
/// the returned [`SweepReport`].
pub fn run_spec_in(
    source: &str,
    base_dir: &Path,
    threads: usize,
    on_progress: impl FnMut(&Progress),
) -> Result<(SweepSpec, RunStore, SweepReport), SpecError> {
    let spec = SweepSpec::parse(source)?;
    let trials = spec.expand()?;
    let run_id = spec.default_run_id();
    let store = RunStore::create_or_open(base_dir, &run_id)
        .map_err(|e| SpecError(format!("open run store: {e}")))?;
    if let Ok(existing) = store.load_manifest() {
        if existing.spec_hash != spec.spec_hash() {
            return Err(SpecError(format!(
                "run {run_id} was created from spec hash {} but this spec hashes to {} — \
                 refusing to mix records",
                existing.spec_hash,
                spec.spec_hash()
            )));
        }
    }
    store
        .write_manifest(&manifest_for(&spec, &run_id, &trials), &spec.source)
        .map_err(|e| SpecError(format!("write manifest: {e}")))?;
    let report = run_sweep(&trials, &store, threads, on_progress).map_err(SpecError)?;
    Ok((spec, store, report))
}

/// The default progress printer: one line per finished trial.
pub fn print_progress(progress: &Progress) {
    match progress {
        Progress::Skipped { trial_id } => println!("  [skip] {trial_id} (already completed)"),
        Progress::Started { .. } => {}
        Progress::Finished { record } => match &record.status {
            TrialStatus::Completed => println!(
                "  [done] {} final={:.3}",
                record.trial_id,
                record.final_accuracy.unwrap_or(0.0)
            ),
            TrialStatus::Failed { error } => {
                println!("  [FAIL] {} {error}", record.trial_id);
            }
        },
    }
}
