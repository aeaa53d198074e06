//! End-to-end tests of the `fedms` CLI binary.

use std::process::Command;

fn fedms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedms"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fedms-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = fedms().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn attacks_and_filters_list() {
    let out = fedms().arg("attacks").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["noise", "random", "safeguard", "backward", "alie", "label_flip"] {
        assert!(text.contains(needle), "attack list missing {needle}");
    }
    let out = fedms().arg("filters").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in
        ["fed-ms", "vanilla", "krum", "bulyan", "centeredclip", "normbound", "trimmed:0.2"]
    {
        assert!(text.contains(needle), "filter list missing {needle}");
    }
}

#[test]
fn init_config_then_run_roundtrip() {
    let cfg_path = temp_path("cfg.json");
    let out_path = temp_path("metrics.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Shrink the config so the test is fast.
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    cfg["clients"] = 6.into();
    cfg["servers"] = 3.into();
    cfg["byzantine_count"] = 1.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

    let out = fedms()
        .args([
            "run",
            cfg_path.to_str().unwrap(),
            "--rounds",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final accuracy"));

    // The metrics file parses back into a RunResult.
    let metrics: fedms::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(metrics.rounds.len(), 2);

    let _ = std::fs::remove_file(cfg_path);
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn compare_prints_summary_table() {
    let cfg_path = temp_path("cmp.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    cfg["clients"] = 6.into();
    cfg["servers"] = 3.into();
    cfg["byzantine_count"] = 1.into();
    cfg["rounds"] = 2.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

    let out = fedms()
        .args(["compare", cfg_path.to_str().unwrap(), cfg_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final acc"));
    assert_eq!(text.lines().count(), 3, "header + two rows");
    assert!(fedms().arg("compare").output().unwrap().status.code() != Some(0));
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn run_rejects_garbage_config() {
    let cfg_path = temp_path("bad.json");
    std::fs::write(&cfg_path, "{not json").unwrap();
    let out = fedms().args(["run", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not load"));
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn run_rejects_a_config_key_that_names_no_field() {
    // A misspelt key must fail the load instead of leaving its field at
    // the default (`"clinets": 6` would train with K = 50), at the top
    // level and inside a nested object alike.
    let cfg_path = temp_path("typo.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    // Small enough that a regression fails fast instead of running a
    // paper-size experiment.
    cfg["rounds"] = 1.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    for (path, key) in [(None, "clinets"), (Some("dataset"), "hieght")] {
        let mut typo = cfg.clone();
        let target = match path {
            Some(p) => &mut typo[p],
            None => &mut typo,
        };
        target[key] = 6.into();
        std::fs::write(&cfg_path, serde_json::to_string(&typo).unwrap()).unwrap();
        let out = fedms().args(["run", cfg_path.to_str().unwrap()]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
        assert!(stderr.contains(&format!("unknown field `{key}`")), "{key}: {stderr}");
    }
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn run_rejects_an_inverse_decay_schedule_that_turns_negative() {
    // η_0 = −1/−10 = 0.1 is a fine first rate, but γ + t reaches zero at
    // step 10 and every later rate is negative: the run must refuse the
    // schedule and name the field instead of training on it.
    let cfg_path = temp_path("decay.json");
    let out =
        fedms().args(["init-config", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&cfg_path).unwrap();
    let mut cfg: serde_json::Value = serde_json::from_str(&body).unwrap();
    cfg["clients"] = 10.into();
    cfg["servers"] = 4.into();
    cfg["byzantine_count"] = 0.into();
    cfg["rounds"] = 6.into();
    cfg["dataset"]["train_per_class"] = 5.into();
    cfg["dataset"]["test_per_class"] = 2.into();
    cfg["model"] = serde_json::json!({"Mlp": {"widths": [192, 8, 10]}});
    cfg["schedule"] = serde_json::json!({"InverseDecay": {"phi": -1.0, "gamma": -10.0}});
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = fedms().args(["run", cfg_path.to_str().unwrap()]).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("InverseDecay phi"), "{stderr}");
    let _ = std::fs::remove_file(cfg_path);
}

#[test]
fn deeply_nested_json_fails_with_the_depth_error() {
    // Without a depth limit, the parser recursed once per `[` and 200,000
    // of them overflowed its stack (exit 134) before any error printed.
    let path = temp_path("nested.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let p = path.to_str().unwrap();
    for args in [&["run", p][..], &["compare", p, p][..]] {
        let out = fedms().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("deeper than 128 levels at byte 128"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_flag_rejected() {
    let out = fedms().args(["run", "--bogus"]).output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn bad_or_missing_flag_values_exit_2_naming_flag_and_value() {
    for (args, needles) in [
        (&["run", "--crash", "abc"][..], &["--crash", "\"abc\""][..]),
        (&["run", "--rounds"][..], &["--rounds", "needs a value"][..]),
        (&["client", "127.0.0.1:1", "--dim", "x"][..], &["--dim", "\"x\""][..]),
        (&["run", "--transport", "carrier-pigeon"][..], &["--transport", "\"carrier-pigeon\""][..]),
        (
            &["run", "--threat-schedule", "1..: wat=3"][..],
            &["--threat-schedule", "\"1..: wat=3\""][..],
        ),
    ] {
        let out = fedms().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in needles {
            assert!(stderr.contains(needle), "{args:?}: {stderr:?} lacks {needle}");
        }
    }
}
