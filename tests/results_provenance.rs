//! The committed sweep results are tied to the tree: each spec's
//! `results/<name>.json` was produced by `experiments/<name>.toml` as
//! checked in, holds one completed record per trial of its expansion, in
//! order, and renders the table EXPERIMENTS.md quotes.
//!
//! The ignored test re-runs the first trial of each committed result and
//! compares its record byte for byte (nine 60-round trials, ~25 s in
//! release): `cargo test --release --test results_provenance -- --ignored`.

use std::path::Path;

use fedms::exp::{execute_trial, render_table, SweepResults, SweepSpec, TrialRecord};

/// The committed spec results. A fixed list, so a results file a local run
/// leaves behind (`results/smoke.json`) is not checked.
const SPEC_RESULTS: [&str; 9] = [
    "fig2",
    "fig2-beta-sweep",
    "fig2-filters",
    "fig3",
    "fig5",
    "comm",
    "dual",
    "stealth",
    "worstcase",
];

fn load(name: &str) -> (SweepSpec, SweepResults) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(root.join(format!("experiments/{name}.toml"))).unwrap();
    let spec = SweepSpec::parse(&source).unwrap();
    let (_, results) = SweepResults::load(&root.join(format!("results/{name}.json"))).unwrap();
    (spec, results)
}

#[test]
fn committed_results_match_their_specs_and_experiments_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    for name in SPEC_RESULTS {
        let (spec, results) = load(name);
        assert_eq!(results.name, name);
        assert_eq!(results.spec_hash, spec.spec_hash(), "{name}: written from another spec");
        let want: Vec<(String, String)> =
            spec.expand().unwrap().into_iter().map(|t| (t.id, t.config_hash)).collect();
        let got: Vec<(String, String)> =
            results.records.iter().map(|r| (r.trial_id.clone(), r.config_hash.clone())).collect();
        assert_eq!(got, want, "{name}: records are not the spec's trials");
        assert!(results.records.iter().all(TrialRecord::is_completed), "{name}");
        let table = render_table(&results.records);
        assert!(experiments.contains(&table), "EXPERIMENTS.md lacks the {name} table:\n{table}");
    }
}

#[test]
#[ignore = "nine 60-round trials; run in release"]
fn first_committed_trial_of_each_spec_reruns_byte_for_byte() {
    for name in SPEC_RESULTS {
        let (spec, results) = load(name);
        let committed = &results.records[0];
        let trial = spec.expand().unwrap().into_iter().find(|t| t.id == committed.trial_id);
        let rerun = execute_trial(&trial.expect("the first record names a trial"), None);
        assert_eq!(rerun.to_jsonl(), committed.to_jsonl(), "{name}");
    }
}
