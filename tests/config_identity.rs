//! Config identity pins: every checked-in sweep spec and every documented
//! `fedms run` flag group resolves to a fixed `FedMsConfig`, named by its
//! `stable_hash`. A change to how override keys, flags or kind strings are
//! interpreted that alters any resolved config fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

use fedms::exp::SweepSpec;
use fedms::FedMsConfig;

/// Per spec file: every trial's `(id, config_hash)` in expansion order.
const SPEC_PINS: &[(&str, &[(&str, &str)])] = &[
    (
        "fig2.toml",
        &[
            ("attack-noise-filter-trimmed-0-2-s42-8d436147", "8d436147b48f917f"),
            ("attack-noise-filter-trimmed-0-1-s42-5396ddb8", "5396ddb832b132e2"),
            ("attack-noise-filter-mean-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("attack-random-filter-trimmed-0-2-s42-66b20bdc", "66b20bdccdc1cdab"),
            ("attack-random-filter-trimmed-0-1-s42-ceecca93", "ceecca939dcc730e"),
            ("attack-random-filter-mean-s42-d42befa3", "d42befa385528fbb"),
            ("attack-safeguard-filter-trimmed-0-2-s42-eb4927a3", "eb4927a3f4c71ece"),
            ("attack-safeguard-filter-trimmed-0-1-s42-af4598f1", "af4598f1c36d926b"),
            ("attack-safeguard-filter-mean-s42-c495e215", "c495e215bd1c971e"),
            ("attack-backward-filter-trimmed-0-2-s42-6ebb0333", "6ebb03331526e471"),
            ("attack-backward-filter-trimmed-0-1-s42-4610f53a", "4610f53a93c45028"),
            ("attack-backward-filter-mean-s42-6fb03f49", "6fb03f49cf9d8e31"),
        ],
    ),
    (
        "fig3.toml",
        &[
            ("epsilon-0-filter-trimmed-matched-s42-f9cc9cd7", "f9cc9cd74c14b491"),
            ("epsilon-0-filter-mean-s42-0565afdc", "0565afdc63820d75"),
            ("epsilon-0-1-filter-trimmed-matched-s42-6d46f8ec", "6d46f8ecc2af8a9f"),
            ("epsilon-0-1-filter-mean-s42-7db3737a", "7db3737a6ee306e2"),
            ("epsilon-0-2-filter-trimmed-matched-s42-8d436147", "8d436147b48f917f"),
            ("epsilon-0-2-filter-mean-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("epsilon-0-3-filter-trimmed-matched-s42-1dcfd5c3", "1dcfd5c3fae9fbff"),
            ("epsilon-0-3-filter-mean-s42-f5209cc5", "f5209cc510f73cbc"),
        ],
    ),
    (
        "fig5.toml",
        &[
            ("filter-trimmed-0-2-dirichlet-alpha-1-s42-7b724b50", "7b724b506f6f473b"),
            ("filter-trimmed-0-2-dirichlet-alpha-5-s42-d81ddc7f", "d81ddc7fc6b0188f"),
            ("filter-trimmed-0-2-dirichlet-alpha-10-s42-8d436147", "8d436147b48f917f"),
            ("filter-trimmed-0-2-dirichlet-alpha-1000-s42-b9e76100", "b9e761003a67352f"),
            ("filter-mean-dirichlet-alpha-1-s42-fccdcd74", "fccdcd7407a1362b"),
            ("filter-mean-dirichlet-alpha-5-s42-51e50639", "51e50639988fe18f"),
            ("filter-mean-dirichlet-alpha-10-s42-ae9e3c4c", "ae9e3c4c10f3195f"),
            ("filter-mean-dirichlet-alpha-1000-s42-347df6bc", "347df6bc1d1138ef"),
        ],
    ),
    (
        "scale.toml",
        &[
            ("cohort-256-attack-benign-s42-7519f96f", "7519f96f36a4a9fb"),
            ("cohort-256-attack-noise-s42-a5958d6b", "a5958d6b66da318c"),
            ("cohort-1024-attack-benign-s42-d5d3361b", "d5d3361bede7e8fb"),
            ("cohort-1024-attack-noise-s42-03da90e1", "03da90e144a4710e"),
        ],
    ),
    (
        "smoke.toml",
        &[
            ("filter-trimmed-0-25-s7-7cb77b64", "7cb77b6454727474"),
            ("filter-mean-s7-2cf3ce5a", "2cf3ce5a0b0b43b7"),
        ],
    ),
    (
        "threat.toml",
        &[
            ("estimate-b-false-s42-048644ba", "048644ba7e8bfe31"),
            ("estimate-b-true-s42-88a5c3e6", "88a5c3e6d4fb6374"),
        ],
    ),
];

/// `fedms run <tiny.json> --rounds 1 <flags>` → the `config=` hash its
/// banner prints. The JSON is `FedMsConfig::tiny(42)`.
const RUN_PINS: &[(&[&str], &str)] = &[
    (&[], "64691fe6a713e2e0"),
    (
        &[
            "--crash",
            "1",
            "--crash-round",
            "1",
            "--stragglers",
            "1",
            "--straggler-delay",
            "2",
            "--downlink-omission",
            "0.05",
            "--duplicate-rate",
            "0.1",
        ],
        "6768bcc86a0384d3",
    ),
    (
        &[
            "--retry-budget",
            "4",
            "--attempt-timeout",
            "40",
            "--backoff-base",
            "5",
            "--failover",
            "--proceed-degraded",
        ],
        "6f298fa565f2c988",
    ),
    (&["--transport", "net", "--net-profile", "edge"], "43fb59c607e1c943"),
    // A straggler count alone implies a one-round delay.
    (&["--stragglers", "1"], "73c4ed14405b9eb4"),
    (&["--backend", "scalar"], "64691fe6a713e2e0"),
    (
        &["--threat-schedule", "0..: compromise=1, attack=noise:2", "--estimate-b"],
        "cd741e23f7a2b6b7",
    ),
    (&["--seed", "9"], "b8a61f9a23c92d51"),
];

fn experiments() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments")
}

#[test]
fn checked_in_specs_keep_trial_ids_and_config_hashes() {
    let mut files: Vec<String> = std::fs::read_dir(experiments())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".toml"))
        .collect();
    files.sort();
    let pinned: Vec<&str> = SPEC_PINS.iter().map(|(file, _)| *file).collect();
    assert_eq!(pinned, files, "every experiments/*.toml is pinned");
    for (file, want) in SPEC_PINS {
        let source = std::fs::read_to_string(experiments().join(file)).unwrap();
        let trials = SweepSpec::parse(&source).unwrap().expand().unwrap();
        let got: Vec<(&str, &str)> =
            trials.iter().map(|t| (t.id.as_str(), t.config_hash.as_str())).collect();
        assert_eq!(got, *want, "{file}");
    }
    let total: usize = SPEC_PINS.iter().map(|(_, pins)| pins.len()).sum();
    assert_eq!(total, 36);
}

#[test]
fn run_flag_groups_resolve_to_pinned_config_hashes() {
    let cfg_path =
        std::env::temp_dir().join(format!("fedms-config-identity-{}.json", std::process::id()));
    std::fs::write(&cfg_path, serde_json::to_string(&FedMsConfig::tiny(42)).unwrap()).unwrap();
    for (flags, want) in RUN_PINS {
        let out = Command::new(env!("CARGO_BIN_EXE_fedms"))
            .args(["run", cfg_path.to_str().unwrap(), "--rounds", "1"])
            .args(*flags)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        let banner = stdout.lines().find(|l| l.starts_with("fed-ms run:")).unwrap_or_default();
        assert!(banner.ends_with(&format!(" config={want}")), "{flags:?}: {banner:?}");
    }
    let _ = std::fs::remove_file(&cfg_path);
}
