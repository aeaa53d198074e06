//! Pins of the rounds in which clients realize different downlink views.
//!
//! The client filter phase applies `Def(·)` once per distinct realized
//! view and hands every client of a group the same result. The other pins
//! (`backend_parity`, roundbench's `pins.json`) only run rounds in which
//! every client shares one view, so these two runs cover the rest:
//!
//! * a lossy, duplicating downlink whose degraded views ride the round out
//!   on the client's local model — shared, distinct and fallback views mixed
//!   in one round;
//! * an equivocating server, so every client's view differs from every
//!   other's.
//!
//! Each digest covers the `RunResult` JSON (with defence diagnostics), the
//! final snapshot JSON (whose model bank layout depends on the order the
//! distinct results were interned in), the bits of every client's final
//! model, and the round, client and displacement bits of every `Filtered`
//! event, in log order. Both were
//! recorded on the engine that filtered every client separately, so they
//! show that grouping moves no bit.

use fedms::core::fnv1a64;
use fedms::{AttackKind, DegradedMode, FaultSpec, FedMsConfig, RecoveryPolicy, RoundEvent};

/// Runs `cfg` with diagnostics, the event log and two worker threads, and
/// digests the result, the snapshot, the final models and the `Filtered`
/// events.
fn run_digest(cfg: &FedMsConfig) -> u64 {
    let mut engine = cfg.build_engine().expect("engine build");
    engine.enable_event_log(1 << 16);
    let result = engine.run(cfg.rounds).expect("engine run");
    let mut bytes = serde_json::to_string(&result).expect("serialize RunResult").into_bytes();
    bytes.extend(serde_json::to_string(&engine.snapshot()).expect("serialize Snapshot").bytes());
    for model in engine.client_models() {
        for v in model.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let log = engine.event_log().expect("event log enabled");
    assert_eq!(log.evicted(), 0, "the log must hold the whole run");
    for event in log.iter() {
        if let RoundEvent::Filtered { round, client, displacement } = *event {
            bytes.extend_from_slice(&(round as u64).to_le_bytes());
            bytes.extend_from_slice(&(client as u64).to_le_bytes());
            bytes.extend_from_slice(&displacement.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The shared base: a tiny federation with one Byzantine server of four,
/// diagnostics on, and the filter spread over two worker threads.
fn base(seed: u64) -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(seed);
    cfg.clients = 12;
    cfg.rounds = 4;
    cfg.byzantine_count = 1;
    cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.record_diagnostics = true;
    cfg.parallel = true;
    cfg.threads = 2;
    cfg
}

/// Downlink omission and duplicates on the local transport, with degraded
/// views kept on the local model: some clients share the full view, some
/// filter a partial one, and some skip the filter.
fn mixed_views_cfg() -> FedMsConfig {
    let mut cfg = base(5);
    cfg.fault = FaultSpec { downlink_omission: 0.3, duplicate_rate: 0.2, ..FaultSpec::default() };
    cfg.recovery =
        RecoveryPolicy { on_degraded: DegradedMode::Proceed, ..RecoveryPolicy::disabled() };
    cfg
}

/// One equivocating `Random` server: every client's view is its own.
fn distinct_views_cfg() -> FedMsConfig {
    let mut cfg = base(6);
    cfg.equivocate = true;
    cfg
}

/// Digest of `mixed_views_cfg()`, recorded on the per-client filter.
const MIXED_DIGEST: u64 = 5514208492402381205;
/// Digest of `distinct_views_cfg()`, recorded on the per-client filter.
const DISTINCT_DIGEST: u64 = 9111098961803482928;

#[test]
fn mixed_shared_and_distinct_views_are_bit_identical_to_per_client_filtering() {
    assert_eq!(run_digest(&mixed_views_cfg()), MIXED_DIGEST);
}

#[test]
fn all_distinct_views_are_bit_identical_to_per_client_filtering() {
    assert_eq!(run_digest(&distinct_views_cfg()), DISTINCT_DIGEST);
}
