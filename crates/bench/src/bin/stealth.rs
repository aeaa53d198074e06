//! Extension experiment E6 — stealth adversaries beyond the paper's four:
//! ALIE ("a little is enough") and IPM (inner-product manipulation).
//!
//! Both attacks are designed to sit just inside a robust filter's
//! tolerance instead of sending obvious garbage. The sweep measures how
//! the Fed-MS trimmed mean, the coordinate median and plain averaging hold
//! up at ε = 20% Byzantine servers.
//!
//! Expected shape: the paper's Random attack is the *easiest* for trimming
//! (extremes are trivially discarded); ALIE with tuned `z` degrades the
//! trimmed mean more than Random does, while still being far from fatal at
//! ε = 20% — illustrating the known gap between trimming's worst-case
//! guarantee (Lemma 2's spread bound) and its typical-case performance.
//!
//! Usage: `cargo run --release -p fedms-bench --bin stealth`

use fedms_attacks::AttackKind;
use fedms_bench::{
    harness_defaults, print_series_table, run_averaged, save_json, seeds_from_env, Series,
};
use fedms_core::{FilterKind, Result};

fn curve(label: &str, attack: AttackKind, filter: FilterKind, seeds: &[u64]) -> Result<Series> {
    let mut cfg = harness_defaults(42)?;
    cfg.byzantine_count = 2;
    cfg.attack = attack;
    cfg.filter = filter;
    Ok(Series { label: label.into(), points: run_averaged(&cfg, seeds)? })
}

fn main() -> Result<()> {
    let seeds = seeds_from_env()?;
    println!("Stealth attacks (ALIE / IPM) vs robust filters; e=20%, seeds {seeds:?}");
    let mut all = serde_json::Map::new();
    for (name, attack) in [
        ("alie-z1", AttackKind::Alie { z: 1.0 }),
        ("alie-z4", AttackKind::Alie { z: 4.0 }),
        ("ipm-0.5", AttackKind::Ipm { epsilon: 0.5 }),
        ("ipm-2", AttackKind::Ipm { epsilon: 2.0 }),
        ("random (paper)", AttackKind::Random { lo: -10.0, hi: 10.0 }),
    ] {
        let series = vec![
            curve("trimmed 0.2", attack, FilterKind::TrimmedMean { beta: 0.2 }, &seeds)?,
            curve("median", attack, FilterKind::Median, &seeds)?,
            curve("vanilla", attack, FilterKind::Mean, &seeds)?,
        ];
        print_series_table(&format!("{name} attack"), &series);
        all.insert(name.into(), serde_json::to_value(&series).unwrap_or_default());
    }
    save_json("stealth", &all);
    Ok(())
}
