//! Extension experiment E5 — the paper's worst-case adversary: Byzantine
//! servers that **equivocate**, sending different tampered models to
//! different clients ("Such a Byzantine behavior cannot be detected since
//! the clients cannot directly communicate with each other", Section III-A).
//!
//! Compares consistent vs equivocating dissemination for the Random and
//! Noise attacks under the Fed-MS filter. The theory treats both the same
//! way (each client's filter bounds its own view), so the expected shape is
//! equivalence — a non-obvious property this experiment certifies.
//!
//! Usage: `cargo run --release -p fedms-bench --bin worstcase`

use fedms_attacks::AttackKind;
use fedms_bench::{
    harness_defaults, print_series_table, run_averaged, save_json, seeds_from_env, Series,
};
use fedms_core::{FilterKind, Result};

fn curve(label: &str, attack: AttackKind, equivocate: bool, seeds: &[u64]) -> Result<Series> {
    let mut cfg = harness_defaults(42)?;
    cfg.byzantine_count = 2;
    cfg.attack = attack;
    cfg.equivocate = equivocate;
    cfg.filter = FilterKind::TrimmedMean { beta: 0.2 };
    Ok(Series { label: label.into(), points: run_averaged(&cfg, seeds)? })
}

fn main() -> Result<()> {
    let seeds = seeds_from_env()?;
    println!("Worst-case adversary: equivocating vs consistent dissemination");
    println!("K=50 P=10 e=20%, Fed-MS beta=0.2; seeds {seeds:?}");
    let mut all = serde_json::Map::new();
    for (name, attack) in [
        ("random", AttackKind::Random { lo: -10.0, hi: 10.0 }),
        ("noise", AttackKind::Noise { std: 1.0 }),
    ] {
        let series = vec![
            curve("consistent", attack, false, &seeds)?,
            curve("equivocating", attack, true, &seeds)?,
        ];
        print_series_table(&format!("{name} attack"), &series);
        all.insert(name.into(), serde_json::to_value(&series).unwrap_or_default());
    }
    save_json("worstcase", &all);
    println!("\n(shape check: the curves should coincide — the per-client filter");
    println!(" gives each client its own guarantee, so equivocation buys nothing)");
    Ok(())
}
