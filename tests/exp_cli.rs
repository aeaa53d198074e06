//! End-to-end tests of the `fedms exp` subcommand: running the checked-in
//! smoke spec writes a manifest, one record per trial and a results file,
//! a re-run skips everything, `exp check` validates the run directory and
//! `exp report` prints the results table.

use std::path::PathBuf;
use std::process::Command;

fn fedms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedms"))
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedms-exp-cli-{}-{name}", std::process::id()))
}

fn smoke_spec() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("experiments/smoke.toml")
}

#[test]
fn exp_run_writes_manifest_and_records_then_resumes_and_checks() {
    let tmp = temp_dir("run");
    let _ = std::fs::remove_dir_all(&tmp);
    let out_dir = tmp.join("runs");
    let spec = smoke_spec();

    let out = fedms()
        .args(["exp", "run", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 executed, 0 skipped, 0 failed"), "unexpected summary: {stdout}");
    let header = "| filter | seeds | final acc | seed range | up msg/round | up MiB/round |";
    assert!(stdout.contains(header) && stdout.contains("| trimmed:0.25 | 1 |"), "{stdout}");

    // The results file lands next to the run store, and reports its table.
    let results = tmp.join("smoke.json");
    assert!(results.is_file(), "no {}", results.display());
    let out = fedms().args(["exp", "report", results.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains(header) && report.contains("| mean | 1 |"), "{report}");

    // One run directory with a manifest, the spec copy, and two records.
    let runs: Vec<_> = std::fs::read_dir(&out_dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(runs.len(), 1, "exactly one run id for the smoke spec");
    let run_dir = &runs[0];
    let manifest_body = std::fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    let manifest: serde_json::Value = serde_json::from_str(&manifest_body).unwrap();
    assert_eq!(manifest["name"].as_str(), Some("smoke"));
    assert_eq!(manifest["trials"].as_array().map(Vec::len), Some(2));
    assert!(run_dir.join("spec.toml").is_file());
    let records: Vec<_> =
        std::fs::read_dir(run_dir.join("trials")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(records.len(), 2);
    for record in &records {
        let body = std::fs::read_to_string(record).unwrap();
        let value: serde_json::Value = serde_json::from_str(&body).expect("record parses");
        assert_eq!(value["status"].as_str(), Some("Completed"), "in {}", record.display());
    }

    // Second run over the same store: everything skips.
    let out = fedms()
        .args(["exp", "run", spec.to_str().unwrap(), "--threads", "2"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 executed, 2 skipped, 0 failed"), "unexpected summary: {stdout}");

    // `exp check` accepts the complete run directory...
    let out =
        fedms().args(["exp", "check", run_dir.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2/2 trials completed, 0 problem(s)"));

    // ...and flags a deleted record as a problem.
    std::fs::remove_file(&records[0]).unwrap();
    let out =
        fedms().args(["exp", "check", run_dir.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success(), "check must fail on a missing record");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[missing]"));

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn exp_list_prints_expansion_without_running() {
    let out = fedms()
        .args(["exp", "list", smoke_spec().to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 trials"), "unexpected listing: {stdout}");
    assert!(stdout.contains("filter=trimmed:0.25"));
    assert!(stdout.contains("filter=mean"));
}

#[test]
fn exp_run_rejects_bad_specs() {
    let bad = temp_dir("bad-spec.toml");
    std::fs::write(&bad, "[experiment]\nname = \"x\"\n\n[grid]\nfilter = [\"quantum\"]\n").unwrap();
    let out = fedms().args(["exp", "run", bad.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown filter"));
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn exp_run_rejects_malformed_harness_variables() {
    let tmp = temp_dir("env");
    let _ = std::fs::remove_dir_all(&tmp);
    let out_dir = tmp.join("runs");
    for (var, value) in [("FEDMS_SEEDS", "1,x,3"), ("FEDMS_ROUNDS", "6O"), ("FEDMS_THREADS", "abc")]
    {
        let out = fedms()
            .args(["exp", "run", smoke_spec().to_str().unwrap()])
            .args(["--out-dir", out_dir.to_str().unwrap()])
            .env(var, value)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(stderr.contains(var) && stderr.contains(value), "{var}={value}: {stderr}");
    }
    assert!(!tmp.exists(), "no trial runs under a malformed variable");
}
