//! Extension experiment E4 — the paper's stated future work: federated
//! learning with Byzantine parameter servers **and** Byzantine clients.
//!
//! The dual defence is symmetric trimming: benign servers aggregate client
//! uploads with a trimmed mean (instead of the paper's plain mean), and
//! clients keep the Fed-MS trimmed-mean filter against the servers. The
//! sweep varies the Byzantine-client fraction at a fixed 20% of Byzantine
//! servers and compares:
//!
//! * `fed-ms`       — the paper's algorithm (robust clients, naive servers),
//! * `dual fed-ms`  — robust at both levels,
//! * `vanilla`      — no defence anywhere.
//!
//! Expected shape: plain Fed-MS survives Byzantine servers but degrades as
//! malicious clients grow (their garbage enters every server's mean);
//! dual Fed-MS stays near the clean ceiling until client trimming capacity
//! is exceeded.
//!
//! Usage: `cargo run --release -p fedms-bench --bin dual`

use fedms_attacks::{AttackKind, ClientAttackKind};
use fedms_bench::{
    harness_defaults, print_series_table, run_averaged, save_json, seeds_from_env, Series,
};
use fedms_core::{FilterKind, Result};

fn curve(
    label: &str,
    byz_clients: usize,
    filter: FilterKind,
    server_filter: FilterKind,
    seeds: &[u64],
) -> Result<Series> {
    let mut cfg = harness_defaults(42)?;
    cfg.byzantine_count = 2;
    cfg.attack = AttackKind::Noise { std: 1.0 };
    cfg.byzantine_clients = byz_clients;
    cfg.client_attack = ClientAttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.filter = filter;
    cfg.server_filter = server_filter;
    Ok(Series { label: label.into(), points: run_averaged(&cfg, seeds)? })
}

fn main() -> Result<()> {
    let seeds = seeds_from_env()?;
    println!("Dual threat model: Byzantine servers (20%, Noise) AND clients");
    println!("client attack: Random [-10,10] uploads; seeds {seeds:?}");
    let trim_client = FilterKind::TrimmedMean { beta: 0.2 };
    // Server-side rule: with sparse upload each server sees only ~K/P = 5
    // uploads, and the Byzantine clients among them are binomially
    // distributed — a fixed trim rate under-trims the unlucky servers. The
    // coordinate-wise median is the max-breakdown member of the trimmed-
    // mean family and handles any per-server Byzantine minority.
    let trim_server = FilterKind::Median;

    let mut all = serde_json::Map::new();
    for byz_frac in [0usize, 10, 20] {
        let byz_clients = byz_frac / 2; // of K = 50 → 0, 5, 10 clients
        let series = vec![
            curve("dual fed-ms", byz_clients, trim_client, trim_server, &seeds)?,
            curve("fed-ms", byz_clients, trim_client, FilterKind::Mean, &seeds)?,
            curve("vanilla", byz_clients, FilterKind::Mean, FilterKind::Mean, &seeds)?,
        ];
        print_series_table(
            &format!("{byz_frac}% byzantine clients ({byz_clients} of 50)"),
            &series,
        );
        all.insert(
            format!("byz_clients_{byz_frac}pct"),
            serde_json::to_value(&series).unwrap_or_default(),
        );
    }
    save_json("dual", &all);
    println!("\n(shape check: only 'dual fed-ms' should stay near the clean ceiling");
    println!(" as the byzantine-client fraction grows)");
    Ok(())
}
