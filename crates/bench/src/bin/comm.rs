//! Extra experiment E2 — Section IV-A's communication claim: sparse
//! uploading keeps Fed-MS's aggregation cost at `K` messages per round
//! (single-server-FL level) instead of the trivial `K·P`, and the accuracy
//! cost of that saving is small (Lemma 3's variance term).
//!
//! Prints measured message/byte counts from the simulator's accounting for
//! sparse / redundant(k) / full upload, plus the final accuracy each
//! strategy reaches under the same attack.
//!
//! Usage: `cargo run --release -p fedms-bench --bin comm`

use fedms_attacks::AttackKind;
use fedms_bench::{harness_defaults, save_json, seeds_from_env};
use fedms_core::{FilterKind, Result};
use fedms_sim::UploadStrategy;
use serde::Serialize;

#[derive(Serialize)]
struct CommRow {
    strategy: String,
    upload_msgs_per_round: f64,
    download_msgs_per_round: f64,
    upload_mib: f64,
    final_accuracy: f32,
}

fn main() -> Result<()> {
    let seeds = seeds_from_env()?;
    println!("Communication cost of model aggregation (Section IV-A)");
    println!("K=50 P=10 e=20% noise attack, Fed-MS filter; seeds {seeds:?}");
    println!(
        "\n{:<16} {:>12} {:>12} {:>12} {:>10}",
        "upload", "up msg/rnd", "down msg/rnd", "up MiB", "final acc"
    );
    let mut rows = Vec::new();
    for (label, strategy) in [
        ("sparse (paper)", UploadStrategy::Sparse),
        ("redundant k=3", UploadStrategy::Redundant(3)),
        ("full K*P", UploadStrategy::Full),
    ] {
        let mut cfg = harness_defaults(seeds[0])?;
        cfg.byzantine_count = 2;
        cfg.attack = AttackKind::Noise { std: 1.0 };
        cfg.filter = FilterKind::TrimmedMean { beta: 0.2 };
        cfg.upload = strategy;
        let result = cfg.run()?;
        let rounds = cfg.rounds as f64;
        let comm = result.total_comm;
        let row = CommRow {
            strategy: label.to_string(),
            upload_msgs_per_round: comm.upload_messages as f64 / rounds,
            download_msgs_per_round: comm.download_messages as f64 / rounds,
            upload_mib: comm.upload_bytes as f64 / (1024.0 * 1024.0),
            final_accuracy: result.final_accuracy().unwrap_or(0.0),
        };
        println!(
            "{:<16} {:>12.0} {:>12.0} {:>12.2} {:>10.3}",
            row.strategy,
            row.upload_msgs_per_round,
            row.download_msgs_per_round,
            row.upload_mib,
            row.final_accuracy
        );
        rows.push(row);
    }
    println!("\n(claim check: sparse = K = 50 uploads/round, full = K*P = 500;");
    println!(" accuracy difference between them is the Lemma-3 variance cost)");
    save_json("comm", &rows);
    Ok(())
}
