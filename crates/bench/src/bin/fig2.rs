//! Figure 2 (a–d): test accuracy vs training epochs under the four
//! server-side Byzantine attacks, for Fed-MS (β = 0.2), Fed-MS⁻ (β = 0.1)
//! and Vanilla FL — a thin wrapper over the checked-in sweep spec
//! `experiments/fig2.toml` executed through `fedms-exp`.
//!
//! Paper shape to reproduce: Fed-MS climbs to ~73–76% under every attack;
//! Fed-MS⁻ and Vanilla collapse under Random (≈8–20%); Noise degrades the
//! undefended baselines; Backward slows convergence.
//!
//! Usage: `cargo run --release -p fedms-bench --bin fig2`
//! (`FEDMS_FAST=1` for a quick smoke run; `--sweep-beta` adds a finer trim-
//! rate ablation; `--filters` compares trimmed mean against median/Krum/
//! geometric-median filters under the Random attack.)

use fedms_exp::{panels, print_series_table, run_spec, save_json, Series, SpecError};

const SPEC: &str = include_str!("../../../../experiments/fig2.toml");

const BETA_SWEEP_SPEC: &str = r#"
[experiment]
name = "fig2-beta-sweep"
title = "ablation: trim rate beta under Random attack"
seeds = [42]
rounds = 60

[base]
byzantine = 2
attack = "random"

[grid]
filter = ["trimmed:0.0", "trimmed:0.1", "trimmed:0.2", "trimmed:0.3", "trimmed:0.4"]
"#;

const FILTER_ABLATION_SPEC: &str = r#"
[experiment]
name = "fig2-filters"
title = "ablation: filter choice under Random attack"
seeds = [42]
rounds = 60

[base]
byzantine = 2
attack = "random"

[grid]
filter = ["trimmed:0.2", "median", "krum:2", "multikrum:2:4", "geomedian"]
"#;

/// Old panel names kept so downstream plotting of `results/fig2.json`
/// stays stable.
fn panel_name(attack: &str) -> String {
    match attack {
        "noise" => "2a-noise".into(),
        "random" => "2b-random".into(),
        "safeguard" => "2c-safeguard".into(),
        "backward" => "2d-backward".into(),
        other => other.into(),
    }
}

fn algorithm_label(filter: &str) -> String {
    match filter {
        "trimmed:0.2" => "fed-ms (b=0.2)".into(),
        "trimmed:0.1" => "fed-ms- (b=0.1)".into(),
        "mean" => "vanilla".into(),
        other => other.into(),
    }
}

fn main() -> Result<(), SpecError> {
    let args: Vec<String> = std::env::args().collect();
    println!("Figure 2: accuracy vs epochs under four Byzantine attacks");
    println!("K=50 P=10 e=20% E=3 D_a=10");

    let (_, report) = run_spec(SPEC)?;
    let mut all = serde_json::Map::new();
    for (attack, series) in panels(&report.records, "attack", "filter") {
        let series: Vec<Series> = series
            .into_iter()
            .map(|s| Series { label: algorithm_label(&s.label), points: s.points })
            .collect();
        let name = panel_name(&attack);
        print_series_table(&format!("Fig. {name}"), &series);
        all.insert(name, serde_json::to_value(&series).unwrap_or_default());
    }
    save_json("fig2", &all);

    if args.iter().any(|a| a == "--sweep-beta") {
        let (_, report) = run_spec(BETA_SWEEP_SPEC)?;
        let series: Vec<Series> = panels(&report.records, "", "filter")
            .into_iter()
            .flat_map(|(_, s)| s)
            .map(|s| Series { label: s.label.replace("trimmed:", "beta="), points: s.points })
            .collect();
        print_series_table("ablation: trim rate beta under Random attack", &series);
        save_json("fig2_beta_sweep", &series);
    }
    if args.iter().any(|a| a == "--filters") {
        let (_, report) = run_spec(FILTER_ABLATION_SPEC)?;
        let series: Vec<Series> =
            panels(&report.records, "", "filter").into_iter().flat_map(|(_, s)| s).collect();
        print_series_table("ablation: filter choice under Random attack", &series);
        save_json("fig2_filters", &series);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_exp::SweepSpec;

    #[test]
    fn inline_specs_expand() {
        for spec in [SPEC, BETA_SWEEP_SPEC, FILTER_ABLATION_SPEC] {
            assert!(!SweepSpec::parse(spec).unwrap().expand().unwrap().is_empty());
        }
    }
}
