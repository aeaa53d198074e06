//! The resumable run store: `results/runs/<run-id>/`.
//!
//! Layout:
//!
//! ```text
//! results/runs/<run-id>/
//!   manifest.json          # RunManifest: spec hash, git rev, trial roster
//!   spec.toml              # verbatim copy of the spec that defined the run
//!   trials/<trial-id>.json # one JSONL record per finished trial
//!   trials/<trial-id>.ckpt.json  # transient engine snapshot (long trials)
//! ```
//!
//! The store is the sweep's source of truth for resume: a trial is done iff
//! its record file exists and parses as `Completed`. Records are written by
//! a single thread (the scheduler's collector) with a write-then-rename so
//! a kill never leaves a half-written record behind.

use crate::trial::TrialRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Per-trial roster entry in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestTrial {
    /// The trial's deterministic id (also its record file stem).
    pub id: String,
    /// Human-readable cell label.
    pub label: String,
    /// The trial's seed.
    pub seed: u64,
    /// The trial's config hash.
    pub config_hash: String,
}

/// The run's identity and provenance, written once at sweep start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The run directory name, `<spec-name>-<spec-hash8>`.
    pub run_id: String,
    /// The spec's `[experiment] name`.
    pub name: String,
    /// FNV-1a hash (16 hex digits) of the spec source text.
    pub spec_hash: String,
    /// `git rev-parse --short HEAD` at sweep start (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// The seed list the grid was crossed with.
    pub seeds: Vec<u64>,
    /// Training rounds per trial.
    pub rounds: usize,
    /// The full trial roster, in execution order.
    pub trials: Vec<ManifestTrial>,
}

/// `git rev-parse --short HEAD` of the checkout around the working
/// directory, with `-dirty` appended unless git confirms that the tracked
/// files match `HEAD` (untracked files do not count), or `"unknown"` when
/// git or the checkout is unavailable. Best effort by design — provenance
/// must never fail a sweep.
pub fn git_rev() -> String {
    git_rev_in(Path::new("."))
}

/// [`git_rev`] for the checkout around `dir`.
fn git_rev_in(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.trim().is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// Handle to one run directory.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Opens (creating if needed) `base/<run_id>` and its `trials/`
    /// subdirectory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create_or_open(base: &Path, run_id: &str) -> io::Result<RunStore> {
        let root = base.join(run_id);
        std::fs::create_dir_all(root.join("trials"))?;
        Ok(RunStore { root })
    }

    /// Opens an existing run directory as-is (for `exp check`).
    ///
    /// # Errors
    ///
    /// Fails when the directory or its manifest is missing.
    pub fn open_existing(root: &Path) -> io::Result<RunStore> {
        if !root.join("manifest.json").is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no manifest.json — not a run directory", root.display()),
            ));
        }
        Ok(RunStore { root: root.to_path_buf() })
    }

    /// The run directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Writes the manifest and a verbatim copy of the spec source.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_manifest(&self, manifest: &RunManifest, spec_source: &str) -> io::Result<()> {
        let body =
            serde_json::to_string_pretty(manifest).map_err(|e| io::Error::other(e.to_string()))?;
        write_atomic(&self.root.join("manifest.json"), body.as_bytes())?;
        write_atomic(&self.root.join("spec.toml"), spec_source.as_bytes())
    }

    /// Loads the manifest.
    ///
    /// # Errors
    ///
    /// Fails when the manifest is missing or unparsable.
    pub fn load_manifest(&self) -> Result<RunManifest, String> {
        let path = self.root.join("manifest.json");
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&body).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// The record path for `trial_id`.
    pub fn record_path(&self, trial_id: &str) -> PathBuf {
        self.root.join("trials").join(format!("{trial_id}.json"))
    }

    /// The transient engine-snapshot path for `trial_id`.
    pub fn checkpoint_path(&self, trial_id: &str) -> PathBuf {
        self.root.join("trials").join(format!("{trial_id}.ckpt.json"))
    }

    /// Writes one trial record (single JSONL line, atomic rename).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_record(&self, record: &TrialRecord) -> io::Result<()> {
        let line = record.to_jsonl().map_err(io::Error::other)?;
        write_atomic(&self.record_path(&record.trial_id), line.as_bytes())
    }

    /// All stored records that parse as `Completed`, keyed by trial id —
    /// the skip set for resume. Unparsable or `Failed` records are left out
    /// (and therefore re-run).
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures (a missing `trials/` directory is
    /// an empty store, not an error).
    pub fn completed_records(&self) -> io::Result<HashMap<String, TrialRecord>> {
        let mut out = HashMap::new();
        let dir = self.root.join("trials");
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json")
                || path.to_string_lossy().ends_with(".ckpt.json")
            {
                continue;
            }
            let Ok(body) = std::fs::read_to_string(&path) else { continue };
            let Ok(record) = TrialRecord::from_jsonl(&body) else { continue };
            if record.is_completed() {
                out.insert(record.trial_id.clone(), record);
            }
        }
        Ok(out)
    }

    /// Loads **every** record file, parsed or not: `(file stem, parse
    /// result)` pairs, sorted by stem. Used by `exp check`.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures.
    pub fn all_records(&self) -> io::Result<Vec<(String, Result<TrialRecord, String>)>> {
        let mut out = Vec::new();
        let dir = self.root.join("trials");
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json")
                || path.to_string_lossy().ends_with(".ckpt.json")
            {
                continue;
            }
            let stem =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|body| TrialRecord::from_jsonl(&body));
            out.push((stem, parsed));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// Write-then-rename so readers (and resumed sweeps) never observe a
/// half-written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{Trial, TrialRecord, TrialStatus};
    use fedms_core::FedMsConfig;

    fn tmp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fedms-exp-store-{}-{tag}", std::process::id()))
    }

    #[test]
    fn git_rev_marks_modified_tracked_files() {
        let dir = tmp_base("git-rev");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(git_rev_in(&dir), "unknown", "not a repository");
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git")
                .args(["-c", "user.name=fedms", "-c", "user.email=fedms@example.invalid"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .current_dir(&dir)
                .output()
                .unwrap();
            assert!(out.status.success(), "git {args:?}: {out:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("tracked.txt"), "a\n").unwrap();
        git(&["add", "tracked.txt"]);
        git(&["commit", "-q", "-m", "init"]);
        let clean = git_rev_in(&dir);
        assert!(clean.len() >= 7 && clean.chars().all(|c| c.is_ascii_hexdigit()), "{clean}");
        std::fs::write(dir.join("untracked.txt"), "b\n").unwrap();
        assert_eq!(git_rev_in(&dir), clean, "untracked files do not count");
        std::fs::write(dir.join("tracked.txt"), "c\n").unwrap();
        assert_eq!(git_rev_in(&dir), format!("{clean}-dirty"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn record(id: &str, completed: bool) -> TrialRecord {
        let config = FedMsConfig::tiny(1);
        let trial = Trial {
            id: id.into(),
            label: "base".into(),
            axes: vec![],
            seed: 1,
            config_hash: config.stable_hash_hex(),
            config,
            checkpoint_every: 0,
        };
        let mut r = TrialRecord::failed(&trial, "x".into());
        if completed {
            r.status = TrialStatus::Completed;
        }
        r
    }

    #[test]
    fn manifest_roundtrip_and_open_existing() {
        let base = tmp_base("manifest");
        let store = RunStore::create_or_open(&base, "demo-abc").unwrap();
        let manifest = RunManifest {
            run_id: "demo-abc".into(),
            name: "demo".into(),
            spec_hash: "deadbeefdeadbeef".into(),
            git_rev: git_rev(),
            seeds: vec![1, 2],
            rounds: 3,
            trials: vec![ManifestTrial {
                id: "t1".into(),
                label: "base".into(),
                seed: 1,
                config_hash: "00".into(),
            }],
        };
        store.write_manifest(&manifest, "[experiment]\nname = \"demo\"\n").unwrap();
        assert_eq!(store.load_manifest().unwrap(), manifest);
        let reopened = RunStore::open_existing(store.root()).unwrap();
        assert_eq!(reopened.load_manifest().unwrap(), manifest);
        assert!(RunStore::open_existing(&base.join("nope")).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn completed_records_skips_failed_corrupt_and_checkpoints() {
        let base = tmp_base("records");
        let store = RunStore::create_or_open(&base, "r").unwrap();
        store.write_record(&record("done", true)).unwrap();
        store.write_record(&record("boom", false)).unwrap();
        std::fs::write(store.record_path("corrupt"), b"{ not json").unwrap();
        std::fs::write(store.checkpoint_path("done"), b"{}").unwrap();

        let done = store.completed_records().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done.contains_key("done"));

        let all = store.all_records().unwrap();
        assert_eq!(all.len(), 3, "checkpoint files are not records");
        assert!(all.iter().any(|(s, r)| s == "corrupt" && r.is_err()));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn empty_store_has_no_records() {
        let base = tmp_base("empty");
        let store = RunStore { root: base.join("missing") };
        assert!(store.completed_records().unwrap().is_empty());
        assert!(store.all_records().unwrap().is_empty());
    }
}
