//! Integration tests for the sweep scheduler's headline guarantees:
//!
//! 1. **Determinism** (proptest): a trial record is a pure function of
//!    config + seed, so `--threads 1` and `--threads 4` write byte-identical
//!    per-trial files.
//! 2. **Resume**: a killed sweep re-run over a partially-populated store
//!    never re-executes a completed trial, and the resumed store ends up
//!    byte-identical to an uninterrupted run.
//! 3. **Panic isolation**: a panicking trial becomes a `Failed` record; the
//!    rest of the sweep completes.

use fedms_exp::{
    run_spec_in, run_sweep_with, Progress, RunStore, SweepSpec, Trial, TrialRecord, TrialStatus,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_base(tag: &str) -> PathBuf {
    let n = {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        COUNTER.fetch_add(1, Ordering::Relaxed)
    };
    std::env::temp_dir().join(format!("fedms-exp-sweep-{}-{tag}-{n}", std::process::id()))
}

/// A tiny two-trial spec parameterised by seed/rounds/attack so proptest
/// can vary the workload without leaving the fast path.
fn tiny_spec(seed: u64, rounds: usize, attack: &str) -> String {
    format!(
        "[experiment]\n\
         name = \"prop\"\n\
         scale = \"tiny\"\n\
         seeds = [{seed}]\n\
         rounds = {rounds}\n\
         eval_every = 1\n\
         \n\
         [base]\n\
         attack = \"{attack}\"\n\
         \n\
         [grid]\n\
         filter = [\"trimmed:0.25\", \"mean\"]\n"
    )
}

/// Reads every per-trial record file in a run directory as raw bytes.
fn record_bytes(run_dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(run_dir.join("trials")).expect("trials dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if name.ends_with(".ckpt.json") {
            continue;
        }
        out.insert(name, std::fs::read(&path).expect("read record"));
    }
    out
}

fn run_in(source: &str, base: &Path, threads: usize) -> PathBuf {
    let (spec, store, report) = run_spec_in(source, base, threads, |_| {}).expect("sweep runs");
    assert_eq!(report.failed, 0, "sweep `{}` had failed trials", spec.name);
    store.root().to_path_buf()
}

proptest! {
    /// The headline invariant: a parallel sweep writes byte-identical
    /// per-trial records to a serial sweep of the same spec.
    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte(
        seed in 0u64..1_000,
        rounds in 1usize..3,
        attack_pick in 0usize..3,
    ) {
        let attack = ["benign", "noise", "random"][attack_pick];
        let source = tiny_spec(seed, rounds, attack);
        let (serial_base, parallel_base) = (tmp_base("serial"), tmp_base("parallel"));
        let serial = run_in(&source, &serial_base, 1);
        let parallel = run_in(&source, &parallel_base, 4);
        let (serial_records, parallel_records) = (record_bytes(&serial), record_bytes(&parallel));
        let _ = std::fs::remove_dir_all(&serial_base);
        let _ = std::fs::remove_dir_all(&parallel_base);
        prop_assert_eq!(serial_records.len(), 2, "spec expands to two trials");
        prop_assert_eq!(serial_records, parallel_records);
    }
}

/// Pre-seeding a store with a subset of completed records (as a killed
/// sweep leaves behind) must (a) never re-execute those trials and (b)
/// finish with records byte-identical to an uninterrupted run.
#[test]
fn resume_skips_completed_trials_and_matches_uninterrupted_run() {
    let source = tiny_spec(3, 2, "noise");
    let run_id = SweepSpec::parse(&source).expect("spec parses").default_run_id();

    let full_base = tmp_base("full");
    let full = run_in(&source, &full_base, 2);
    let full_records = record_bytes(&full);
    assert_eq!(full_records.len(), 2);

    // Simulate the kill: only the first record (in name order) survived.
    let resumed_base = tmp_base("resumed");
    let resumed_dir = resumed_base.join(&run_id);
    std::fs::create_dir_all(resumed_dir.join("trials")).expect("mkdir");
    let (preseeded_name, preseeded_body) = full_records.iter().next().expect("one record");
    std::fs::write(resumed_dir.join("trials").join(preseeded_name), preseeded_body)
        .expect("pre-seed record");
    let preseeded_id = preseeded_name.trim_end_matches(".json").to_string();

    let mut started = Vec::new();
    let mut skipped = Vec::new();
    let (_, store, report) = run_spec_in(&source, &resumed_base, 2, |p| match p {
        Progress::Started { trial_id, .. } => started.push(trial_id.clone()),
        Progress::Skipped { trial_id } => skipped.push(trial_id.clone()),
        Progress::Finished { .. } => {}
    })
    .expect("resumed sweep runs");

    assert_eq!(report.skipped, 1);
    assert_eq!(report.executed, 1);
    assert_eq!(skipped, vec![preseeded_id.clone()]);
    assert!(
        !started.contains(&preseeded_id),
        "completed trial {preseeded_id} must not execute twice"
    );
    assert_eq!(
        record_bytes(store.root()),
        full_records,
        "resumed store must match the uninterrupted run byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&full_base);
    let _ = std::fs::remove_dir_all(&resumed_base);
}

fn synthetic_record(trial: &Trial) -> TrialRecord {
    TrialRecord {
        trial_id: trial.id.clone(),
        label: trial.label.clone(),
        axes: trial.axes.clone(),
        seed: trial.seed,
        config_hash: trial.config_hash.clone(),
        status: TrialStatus::Completed,
        points: vec![(0, 0.5)],
        final_accuracy: Some(0.5),
        comm: None,
    }
}

/// One poisoned trial must not take down the sweep: it lands as a `Failed`
/// record, every other trial completes, and a re-run retries only the
/// failure.
#[test]
fn panicking_trial_is_isolated_and_retried_on_resume() {
    let source = tiny_spec(1, 1, "benign");
    let spec = SweepSpec::parse(&source).expect("spec parses");
    let trials = spec.expand().expect("spec expands");
    assert_eq!(trials.len(), 2);
    let poisoned = trials[0].id.clone();

    let base = tmp_base("panic");
    let store = RunStore::create_or_open(&base, &spec.default_run_id()).expect("store opens");
    let runner = |trial: &Trial, _ckpt: Option<&Path>| {
        assert!(trial.id == poisoned || trial.id == trials[1].id);
        if trial.id == poisoned {
            panic!("injected failure");
        }
        synthetic_record(trial)
    };
    let report = run_sweep_with(&trials, &store, 2, runner, |_| {}).expect("sweep survives");
    assert_eq!(report.executed, 2);
    assert_eq!(report.failed, 1);
    let failed: Vec<_> = report.records.iter().filter(|r| !r.is_completed()).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].trial_id, poisoned);
    match &failed[0].status {
        TrialStatus::Failed { error } => assert!(
            error.contains("injected failure"),
            "panic payload must reach the record, got: {error}"
        ),
        TrialStatus::Completed => unreachable!("filtered above"),
    }

    // Failed records are not final: a re-run retries exactly the failure.
    let mut started = Vec::new();
    let report = run_sweep_with(
        &trials,
        &store,
        2,
        |trial, _| synthetic_record(trial),
        |p| {
            if let Progress::Started { trial_id, .. } = p {
                started.push(trial_id.clone());
            }
        },
    )
    .expect("retry sweep runs");
    assert_eq!(report.skipped, 1);
    assert_eq!(report.executed, 1);
    assert_eq!(started, vec![poisoned]);
    assert!(report.records.iter().all(TrialRecord::is_completed));
    let _ = std::fs::remove_dir_all(&base);
}
