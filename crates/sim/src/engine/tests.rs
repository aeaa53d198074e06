//! Tests for the engine orchestrator and its phase pipeline (child module
//! of `engine`, relocated to keep the orchestrator readable).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::*;
use fedms_aggregation::{EstimatorPolicy, Mean, TrimmedMean};
use fedms_attacks::AttackKind;
use fedms_data::{DirichletPartitioner, SynthVisionConfig};

use crate::{ModelSpec, RecoveryPolicy, RoundEvent, ThreatSchedule, Topology, UploadStrategy};
use fedms_nn::LrSchedule;

fn small_setup(
    byzantine: Vec<usize>,
    attack: AttackKind,
    filter: Box<dyn AggregationRule>,
    parallel: bool,
) -> SimulationEngine {
    let attacks = byzantine.into_iter().map(|id| (id, attack.build().unwrap())).collect();
    small_setup_with(attacks, filter, parallel)
}

/// [`small_setup`] with prebuilt server attacks (one per Byzantine id).
fn small_setup_with(
    attacks: Vec<(usize, Box<dyn ServerAttack>)>,
    filter: Box<dyn AggregationRule>,
    parallel: bool,
) -> SimulationEngine {
    let topo = Topology::new(8, 4, attacks.iter().map(|(id, _)| *id)).unwrap();
    small_engine(small_config(topo, parallel), filter, attacks)
}

/// The small run the helpers here share: an MLP on the small vision set,
/// two local steps of batch 4 per round, every round evaluated.
fn small_config(topology: Topology, parallel: bool) -> EngineConfig {
    EngineConfig {
        topology,
        model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 2,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 9,
        eval_every: 1,
        eval_clients: 0,
        parallel,
        threads: 0,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort: 0,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    }
}

/// An engine running `config` (8 clients) over the small vision set.
fn small_engine(
    config: EngineConfig,
    filter: Box<dyn AggregationRule>,
    attacks: Vec<(usize, Box<dyn ServerAttack>)>,
) -> SimulationEngine {
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 8, 3).unwrap();
    SimulationEngine::new(config, &train, &test, &parts, filter, attacks).unwrap()
}

#[test]
fn engine_runs_and_records() {
    let mut e = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    let result = e.run(3).unwrap();
    assert_eq!(result.rounds.len(), 3);
    assert_eq!(e.round(), 3);
    assert!(result.final_accuracy().unwrap() > 0.0);
    assert!(result.total_comm.upload_messages > 0);
}

#[test]
fn all_clients_share_filtered_model_under_broadcast() {
    // With consistent dissemination every client applies the same filter
    // to the same inputs → identical post-filter models.
    let mut e = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    e.step_round(false).unwrap();
    let models = e.client_models();
    for m in &models[1..] {
        assert_eq!(m, &models[0]);
    }
}

/// A client filter that counts its `aggregate` calls.
struct CountingRule {
    inner: Box<dyn AggregationRule>,
    calls: Arc<AtomicUsize>,
}

impl AggregationRule for CountingRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aggregate(&self, models: &[Tensor]) -> fedms_aggregation::Result<Tensor> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.aggregate(models)
    }
}

/// A trimmed mean (β = 0.25) that counts its calls into `calls`.
fn counting(calls: &Arc<AtomicUsize>) -> Box<dyn AggregationRule> {
    Box::new(CountingRule {
        inner: Box::new(TrimmedMean::new(0.25).unwrap()),
        calls: Arc::clone(calls),
    })
}

#[test]
fn filter_runs_once_per_distinct_view() {
    // A consistent Byzantine broadcast and no faults: all 8 clients
    // realize one view, so one filter call serves the round.
    let calls = Arc::new(AtomicUsize::new(0));
    let attacks = vec![(1, AttackKind::Noise { std: 0.5 }.build().unwrap())];
    let mut e = small_setup_with(attacks, counting(&calls), true);
    e.step_round(false).unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), 1);
    assert_eq!(e.distinct_client_models(), 1);
    // An equivocating server sends every client its own model, so every
    // view is distinct: one call per cohort client, every round.
    let calls = Arc::new(AtomicUsize::new(0));
    let attacks =
        vec![(1, AttackKind::Random { lo: -10.0, hi: 10.0 }.build_equivocating(5).unwrap())];
    let mut e = small_setup_with(attacks, counting(&calls), true);
    e.run(2).unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), 2 * 8);
    assert_eq!(e.distinct_client_models(), 8);
}

#[test]
fn estimator_rule_replaces_the_configured_filter() {
    // With the estimator on, each round filters with an adaptive trimmed
    // mean at the estimated trim, so the configured filter never runs.
    let run = |estimator: EstimatorPolicy| {
        let calls = Arc::new(AtomicUsize::new(0));
        let attacks = vec![(1, AttackKind::Noise { std: 0.5 }.build().unwrap())];
        let topo = Topology::new(8, 4, [1]).unwrap();
        let config = EngineConfig { estimator, ..small_config(topo, true) };
        let mut e = small_engine(config, counting(&calls), attacks);
        e.run(2).unwrap();
        (calls.load(Ordering::Relaxed), e.estimated_trim())
    };
    let (calls, trim) = run(EstimatorPolicy::enabled());
    assert_eq!(calls, 0);
    assert!(trim.is_some());
    let (calls, trim) = run(EstimatorPolicy::default());
    assert!(calls >= 1, "the configured filter ran {calls} times");
    assert_eq!(trim, None);
}

#[test]
fn deterministic_across_parallelism() {
    let mut seq = small_setup(
        vec![1],
        AttackKind::Noise { std: 0.5 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    let mut par = small_setup(
        vec![1],
        AttackKind::Noise { std: 0.5 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        true,
    );
    seq.run(2).unwrap();
    par.run(2).unwrap();
    assert_eq!(seq.client_models(), par.client_models());
    assert_eq!(seq.result().rounds, par.result().rounds);
}

#[test]
fn sparse_upload_comm_matches_formula() {
    let mut e = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    e.run(2).unwrap();
    let comm = e.result().total_comm;
    // K=8 uploads and K·P=32 downloads per round, 2 rounds.
    assert_eq!(comm.upload_messages, 16);
    assert_eq!(comm.download_messages, 64);
}

#[test]
fn attack_ids_must_match_topology() {
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let topo = Topology::new(4, 3, [1]).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 4, 3).unwrap();
    let config = EngineConfig {
        topology: topo,
        model: ModelSpec::Mlp { widths: vec![16, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 1,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 0,
        eval_every: 1,
        eval_clients: 0,
        parallel: false,
        threads: 0,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort: 0,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    };
    // No attack supplied for byzantine server 1 → error.
    let err = SimulationEngine::new(config, &train, &test, &parts, Box::new(Mean::new()), vec![]);
    assert!(err.is_err());
}

#[test]
fn config_validation() {
    let base = || small_config(Topology::new(8, 4, []).unwrap(), false);
    let mut cfg = base();
    cfg.local_epochs = 0;
    assert!(cfg.validate().is_err());
    let mut cfg = base();
    cfg.batch_size = 0;
    assert!(cfg.validate().is_err());
    let mut cfg = base();
    cfg.eval_every = 0;
    assert!(cfg.validate().is_err());
    assert!(base().validate().is_ok());
}

#[test]
fn trimmed_mean_resists_random_attack_in_miniature() {
    // 1 Byzantine of 4 servers with the Random attack: the mean filter
    // absorbs garbage while the trimmed filter (β=0.25 trims 1/side)
    // stays near the honest aggregate.
    let mut vanilla = small_setup(
        vec![2],
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        Box::new(Mean::new()),
        false,
    );
    let mut fedms = small_setup(
        vec![2],
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    vanilla.run(4).unwrap();
    fedms.run(4).unwrap();
    let v_norm = vanilla.client_models()[0].norm_l2();
    let f_norm = fedms.client_models()[0].norm_l2();
    // The random attack injects coordinates of magnitude ~10; a mean
    // over 4 servers keeps ~1/4 of that, blowing up the model norm.
    assert!(v_norm > 2.0 * f_norm, "vanilla norm {v_norm} should dwarf fed-ms norm {f_norm}");
}

#[test]
fn byzantine_clients_are_filtered_by_robust_server_rule() {
    use fedms_attacks::ClientAttackKind;
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let topo = Topology::new(8, 2, []).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 8, 3).unwrap();
    let config = EngineConfig {
        topology: topo,
        model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
        upload: UploadStrategy::Full,
        local_epochs: 2,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 9,
        eval_every: 1,
        eval_clients: 0,
        parallel: false,
        threads: 0,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort: 0,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    };
    let client_attacks =
        vec![(1usize, ClientAttackKind::Random { lo: -10.0, hi: 10.0 }.build().unwrap())];
    // Robust server rule: trimmed mean over the 8 uploads (trim 1/side).
    let mut robust = SimulationEngine::with_adversaries(
        config.clone(),
        &train,
        &test,
        &parts,
        Box::new(Mean::new()),
        Box::new(TrimmedMean::new(0.13).unwrap()),
        vec![],
        client_attacks,
    )
    .unwrap();
    assert_eq!(robust.byzantine_client_ids(), vec![1]);
    robust.run(3).unwrap();
    let robust_norm = robust.client_models()[0].norm_l2();

    // Same attack with the plain mean at the servers: garbage leaks in.
    let client_attacks =
        vec![(1usize, ClientAttackKind::Random { lo: -10.0, hi: 10.0 }.build().unwrap())];
    let mut naive = SimulationEngine::with_adversaries(
        config,
        &train,
        &test,
        &parts,
        Box::new(Mean::new()),
        Box::new(Mean::new()),
        vec![],
        client_attacks,
    )
    .unwrap();
    naive.run(3).unwrap();
    let naive_norm = naive.client_models()[0].norm_l2();
    assert!(
        naive_norm > 1.5 * robust_norm,
        "naive server mean {naive_norm} should blow up vs robust {robust_norm}"
    );
}

#[test]
fn client_attack_validation() {
    use fedms_attacks::ClientAttackKind;
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 4, 3).unwrap();
    let config = EngineConfig {
        topology: Topology::new(4, 2, []).unwrap(),
        model: ModelSpec::Mlp { widths: vec![16, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 1,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 0,
        eval_every: 1,
        eval_clients: 0,
        parallel: false,
        threads: 0,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort: 0,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    };
    let atk = || ClientAttackKind::SignFlip { scale: 1.0 }.build().unwrap();
    // Out-of-range id.
    assert!(SimulationEngine::with_adversaries(
        config.clone(),
        &train,
        &test,
        &parts,
        Box::new(Mean::new()),
        Box::new(Mean::new()),
        vec![],
        vec![(4, atk())],
    )
    .is_err());
    // Duplicate id.
    assert!(SimulationEngine::with_adversaries(
        config.clone(),
        &train,
        &test,
        &parts,
        Box::new(Mean::new()),
        Box::new(Mean::new()),
        vec![],
        vec![(1, atk()), (1, atk())],
    )
    .is_err());
    // All clients Byzantine → evaluation impossible.
    let all: Vec<_> = (0..4).map(|i| (i, atk())).collect();
    let engine = SimulationEngine::with_adversaries(
        config,
        &train,
        &test,
        &parts,
        Box::new(Mean::new()),
        Box::new(Mean::new()),
        vec![],
        all,
    )
    .unwrap();
    assert!(engine.evaluate_mean_accuracy().is_err());
}

#[test]
fn partial_participation_trains_fewer_clients() {
    let mut e = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    e.set_participation(0.5).unwrap();
    e.step_round(false).unwrap();
    // 8 clients at 50% → 4 uploads this round (sparse = 1 per client).
    assert_eq!(e.result().total_comm.upload_messages, 4);
    assert!(e.set_participation(0.0).is_err());
    assert!(e.set_participation(1.5).is_err());
    assert!(e.set_participation(f64::NAN).is_err());
}

#[test]
fn event_log_records_every_stage() {
    let mut e = small_setup(
        vec![1],
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    e.enable_event_log(10_000);
    e.step_round(false).unwrap();
    let log = e.event_log().unwrap();
    // 8 clients train, 8 sparse uploads, 4 aggregations, 4
    // disseminations, 8 filters.
    assert_eq!(log.of_kind("train").len(), 8);
    assert_eq!(log.of_kind("upload").len(), 8);
    assert_eq!(log.of_kind("aggregate").len(), 4);
    assert_eq!(log.of_kind("disseminate").len(), 4);
    assert_eq!(log.of_kind("filter").len(), 8);
    // The Byzantine server is flagged.
    let byz: Vec<bool> = log
        .of_kind("disseminate")
        .iter()
        .map(|ev| matches!(ev, RoundEvent::Disseminated { byzantine: true, .. }))
        .collect();
    assert_eq!(byz.iter().filter(|&&b| b).count(), 1);
    // Disabling stops recording.
    e.enable_event_log(0);
    e.step_round(false).unwrap();
    assert!(e.event_log().is_none());
}

#[test]
fn upload_drops_are_survivable() {
    let mut e =
        small_setup(vec![], AttackKind::Benign, Box::new(TrimmedMean::new(0.25).unwrap()), false);
    e.set_upload_drop_rate(0.5).unwrap();
    e.run(4).unwrap();
    assert!(e.result().final_accuracy().unwrap().is_finite());
    // Senders still pay for dropped messages.
    assert_eq!(e.result().total_comm.upload_messages, 8 * 4);
    assert!(e.set_upload_drop_rate(1.0).is_err());
    assert!(e.set_upload_drop_rate(-0.1).is_err());
}

#[test]
fn diagnostics_reflect_attack_intensity() {
    let mut clean =
        small_setup(vec![], AttackKind::Benign, Box::new(TrimmedMean::new(0.25).unwrap()), false);
    clean.set_record_diagnostics(true);
    clean.step_round(true).unwrap();
    let clean_d = clean.result().rounds[0].diagnostics.clone().unwrap();

    let mut attacked = small_setup(
        vec![1],
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    attacked.set_record_diagnostics(true);
    attacked.step_round(true).unwrap();
    let attacked_d = attacked.result().rounds[0].diagnostics.clone().unwrap();

    assert!(
        attacked_d.server_disagreement > 5.0 * clean_d.server_disagreement,
        "random attack should explode disagreement: {} vs {}",
        attacked_d.server_disagreement,
        clean_d.server_disagreement
    );
    assert!(
        attacked_d.filter_displacement > clean_d.filter_displacement,
        "filter must move further under attack"
    );
    assert!(clean_d.max_update_norm > 0.0);
    // Without recording, no diagnostics appear.
    let mut off = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    off.step_round(true).unwrap();
    assert!(off.result().rounds[0].diagnostics.is_none());
}

#[test]
fn snapshot_resume_is_bit_exact() {
    let make = || {
        small_setup(
            vec![1],
            AttackKind::Backward { delay: 2 }, // history-dependent attack
            Box::new(TrimmedMean::new(0.25).unwrap()),
            false,
        )
    };
    // Reference: uninterrupted 6-round run.
    let mut reference = make();
    reference.run(6).unwrap();

    // Checkpointed: 3 rounds, snapshot, fresh engine, restore, 3 more.
    let mut first = make();
    first.run(3).unwrap();
    let snap = first.snapshot();
    assert_eq!(snap.round, 3);
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    let mut resumed = make();
    resumed.restore(&snap).unwrap();
    resumed.run(3).unwrap();

    assert_eq!(reference.client_models(), resumed.client_models());
    assert_eq!(reference.result().rounds, resumed.result().rounds);
}

#[test]
fn restore_validates_shape() {
    let mut a = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    let fresh = a.snapshot();
    a.run(1).unwrap();
    let trained = a.snapshot();
    let servers = fresh.server_state.len();
    let mut rejects = |needle: &str, edit: &dyn Fn(&mut Snapshot)| {
        let mut snap = fresh.clone();
        edit(&mut snap);
        match a.restore(&snap) {
            Err(SimError::BadConfig(msg)) => assert!(msg.contains(needle), "{needle}: {msg}"),
            other => panic!("{needle}: expected BadConfig, got {other:?}"),
        }
        // Every check runs before anything is restored.
        assert_eq!(a.snapshot(), trained, "{needle}");
    };
    rejects("clients", &|s| {
        s.model_refs.pop();
    });
    rejects("servers", &|s| {
        s.server_state.pop();
    });
    rejects("model size", &|s| s.model_pool[0] = Tensor::zeros(&[3]));
    rejects("model reference", &|s| s.model_refs[0] = s.model_pool.len() as u32);
    // Per-server state: one entry per server, every tensor the model's size.
    rejects("recovery_state", &|s| s.recovery_state = vec![0; servers + 1]);
    rejects("estimator_scores", &|s| s.estimator_scores = vec![0.0; servers - 1]);
    rejects("server_state[1] history", &|s| s.server_state[1].0.push(Tensor::zeros(&[3])));
    rejects("server_state[1] last aggregate", &|s| {
        s.server_state[1].1 = Some(Tensor::zeros(&[3]));
    });
    rejects("server_state[1] outbox", &|s| s.server_state[1].2.push(Tensor::zeros(&[3])));
    // Empty per-server vectors (older snapshots, recovery or the estimator
    // off) still restore.
    assert!(fresh.recovery_state.is_empty());
    a.restore(&fresh).unwrap();
    assert_eq!(a.snapshot(), fresh);
}

#[test]
fn restore_accepts_dense_v1_snapshots() {
    // Simulates resuming from a checkpoint written by the pre-cohort
    // engine: version 1 with dense per-client models instead of the
    // interned bank. Continuing must be bit-identical to the run the
    // snapshot came from.
    let make = || {
        small_setup(
            vec![1],
            AttackKind::Backward { delay: 2 },
            Box::new(TrimmedMean::new(0.25).unwrap()),
            false,
        )
    };
    let mut reference = make();
    reference.run(6).unwrap();

    let mut first = make();
    first.run(3).unwrap();
    // Rewrite the snapshot into the v1 layout the old engine produced.
    let v2 = first.snapshot();
    let legacy = Snapshot {
        version: 1,
        round: v2.round,
        client_models: first.client_models(),
        model_pool: Vec::new(),
        model_refs: Vec::new(),
        server_state: v2.server_state.clone(),
        result: v2.result.clone(),
        recovery_state: v2.recovery_state.clone(),
        estimator_scores: Vec::new(),
        estimator_trim: 0,
    };
    // The v1 layout survives serde (the v2-only fields default to empty).
    let json = serde_json::to_string(&legacy).unwrap();
    let legacy: Snapshot = serde_json::from_str(&json).unwrap();

    let mut resumed = make();
    resumed.restore(&legacy).unwrap();
    resumed.run(3).unwrap();
    assert_eq!(reference.client_models(), resumed.client_models());
    assert_eq!(reference.result().rounds, resumed.result().rounds);

    // v1 validation still guards entity counts and model sizes.
    let mut bad = Snapshot { version: 1, ..legacy.clone() };
    bad.client_models.pop();
    assert!(resumed.restore(&bad).is_err());
    let mut bad = legacy.clone();
    bad.client_models[0] = Tensor::zeros(&[3]);
    assert!(resumed.restore(&bad).is_err());
}

#[test]
fn restore_rejects_version_mismatch() {
    let mut a = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    let mut snap = a.snapshot();
    snap.version = SNAPSHOT_VERSION + 41;
    match a.restore(&snap) {
        Err(SimError::SnapshotVersion { found, expected }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 41);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
    // An unversioned (legacy) snapshot deserializes to version 0 and is
    // rejected the same way, never silently reinterpreted.
    let json = serde_json::to_string(&a.snapshot()).unwrap();
    let json = json.replace(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":0");
    let legacy: Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(legacy.version, 0);
    assert!(matches!(a.restore(&legacy), Err(SimError::SnapshotVersion { found: 0, .. })));
}

#[test]
fn trivial_fault_plan_is_bit_identical_to_no_plan() {
    let mut plain = small_setup(
        vec![1],
        AttackKind::Noise { std: 0.5 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    let mut planned = small_setup(
        vec![1],
        AttackKind::Noise { std: 0.5 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    planned.set_fault_plan(crate::FaultPlan::none()).unwrap();
    plain.run(3).unwrap();
    planned.run(3).unwrap();
    assert_eq!(plain.client_models(), planned.client_models());
    assert_eq!(plain.result(), planned.result());
}

#[test]
fn crashed_server_goes_silent_and_run_survives() {
    use crate::{FaultPlan, ServerFault};
    let mut e =
        small_setup(vec![], AttackKind::Benign, Box::new(TrimmedMean::new(0.25).unwrap()), false);
    e.enable_event_log(10_000);
    e.set_record_diagnostics(true);
    e.set_fault_plan(FaultPlan {
        server_faults: vec![ServerFault::None, ServerFault::Crash { round: 1 }],
        ..FaultPlan::default()
    })
    .unwrap();
    e.run(3).unwrap();
    assert!(e.result().final_accuracy().unwrap().is_finite());
    let log = e.event_log().unwrap();
    // Server 1 is up in round 0, silent in rounds 1 and 2.
    assert_eq!(log.of_kind("silent").len(), 2);
    assert!(log
        .of_kind("silent")
        .iter()
        .all(|ev| matches!(ev, RoundEvent::ServerSilent { server: 1, crashed: true, .. })));
    // Round 0 disseminates from 4 servers, later rounds from 3.
    assert_eq!(log.round(0).iter().filter(|e| e.kind() == "disseminate").count(), 4);
    assert_eq!(log.round(2).iter().filter(|e| e.kind() == "disseminate").count(), 3);
    // Uploads routed to the dead server are lost and accounted.
    let comm = e.result().total_comm;
    assert_eq!(
        comm.download_messages,
        (4 + 3 + 3) * 8 // live servers × clients per round
    );
    let diag = e.result().rounds[2].diagnostics.clone().unwrap();
    assert_eq!(diag.silent_servers, 1);
}

#[test]
fn adaptive_filter_survives_crash_plus_byzantine() {
    use crate::{FaultPlan, ServerFault};
    use fedms_aggregation::AdaptiveTrimmedMean;
    // 4 servers, B = 1 Byzantine, 1 crashed from round 1: clients see
    // P' = 3 > 2B models; the fixed-count trim still removes the
    // Byzantine extreme.
    let mut e = small_setup(
        vec![1],
        AttackKind::Random { lo: -10.0, hi: 10.0 },
        Box::new(AdaptiveTrimmedMean::new(1)),
        false,
    );
    e.set_fault_plan(FaultPlan {
        server_faults: vec![
            ServerFault::None,
            ServerFault::None,
            ServerFault::Crash { round: 1 },
            ServerFault::None,
        ],
        ..FaultPlan::default()
    })
    .unwrap();
    e.run(4).unwrap();
    // The random attack injects coordinates ~10; a surviving filter
    // keeps the model norm modest.
    assert!(e.client_models()[0].norm_l2() < 50.0);
}

#[test]
fn degraded_quorum_is_a_typed_error() {
    use crate::{FaultPlan, ServerFault};
    // 4 servers, B = 1: two crashes leave P' = 2 ≤ 2B.
    let mut e = small_setup(
        vec![1],
        AttackKind::Noise { std: 0.5 },
        Box::new(TrimmedMean::new(0.25).unwrap()),
        false,
    );
    e.set_fault_plan(FaultPlan {
        server_faults: vec![
            ServerFault::Crash { round: 1 },
            ServerFault::None,
            ServerFault::Crash { round: 1 },
            ServerFault::None,
        ],
        ..FaultPlan::default()
    })
    .unwrap();
    // Round 0 is healthy…
    e.step_round(false).unwrap();
    // …round 1 must fail fast with the structured error, not panic.
    match e.step_round(false) {
        Err(SimError::DegradedQuorum { round, client, received, needed, total, .. }) => {
            assert_eq!(round, 1);
            assert_eq!(client, 0);
            assert_eq!(received, 2);
            assert_eq!(needed, 2);
            assert_eq!(total, 4);
        }
        other => panic!("expected DegradedQuorum, got {other:?}"),
    }
}

#[test]
fn straggler_delays_then_delivers_stale_models() {
    use crate::{FaultPlan, ServerFault};
    let mut e =
        small_setup(vec![], AttackKind::Benign, Box::new(TrimmedMean::new(0.25).unwrap()), false);
    e.enable_event_log(10_000);
    e.set_fault_plan(FaultPlan {
        server_faults: vec![ServerFault::Straggler { delay: 2 }],
        ..FaultPlan::default()
    })
    .unwrap();
    e.run(4).unwrap();
    let log = e.event_log().unwrap();
    // Warm-up: silent in rounds 0 and 1, delivering from round 2 on.
    let silent: Vec<usize> = log.of_kind("silent").iter().map(|ev| ev.round()).collect();
    assert_eq!(silent, vec![0, 1]);
    assert_eq!(log.round(3).iter().filter(|e| e.kind() == "disseminate").count(), 4);
    assert!(e.result().final_accuracy().unwrap().is_finite());
}

#[test]
fn lossy_downlink_is_deterministic_and_accounted() {
    use crate::FaultPlan;
    let make = || {
        let mut e = small_setup(
            vec![],
            AttackKind::Benign,
            Box::new(TrimmedMean::new(0.25).unwrap()),
            false,
        );
        e.set_fault_plan(FaultPlan {
            downlink_omission: 0.3,
            duplicate_rate: 0.2,
            ..FaultPlan::default()
        })
        .unwrap();
        e
    };
    let mut a = make();
    let mut b = make();
    a.run(3).unwrap();
    b.run(3).unwrap();
    assert_eq!(a.client_models(), b.client_models());
    assert_eq!(a.result(), b.result());
    let comm = a.result().total_comm;
    assert!(comm.dropped_downloads > 0, "30% omission must drop something");
    assert!(comm.duplicated_downloads > 0, "20% duplication must duplicate something");
    // Duplicates add real traffic on top of the 4·8·3 base messages.
    assert_eq!(comm.download_messages, 4 * 8 * 3 + comm.duplicated_downloads);
}

#[test]
fn set_fault_plan_validates_against_topology() {
    use crate::{FaultPlan, ServerFault};
    let mut e = small_setup(vec![], AttackKind::Benign, Box::new(Mean::new()), false);
    // 5 entries for a 4-server federation.
    assert!(e
        .set_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::None; 5],
            ..FaultPlan::default()
        })
        .is_err());
    assert!(e
        .set_fault_plan(FaultPlan { downlink_omission: 1.5, ..FaultPlan::default() })
        .is_err());
    assert!(e.set_fault_plan(FaultPlan::none()).is_ok());
}

#[test]
fn snapshot_resume_is_bit_exact_under_faults() {
    use crate::{FaultPlan, ServerFault};
    // No Byzantine set here: with B = 0 the quorum guard stays out of
    // the way and arbitrarily harsh fault realizations stay runnable.
    let make = || {
        let mut e = small_setup(
            vec![],
            AttackKind::Benign,
            Box::new(TrimmedMean::new(0.25).unwrap()),
            false,
        );
        e.set_fault_plan(FaultPlan {
            server_faults: vec![
                ServerFault::Straggler { delay: 1 },
                ServerFault::Crash { round: 4 },
            ],
            downlink_omission: 0.1,
            ..FaultPlan::default()
        })
        .unwrap();
        e
    };
    let mut reference = make();
    reference.run(6).unwrap();
    let mut first = make();
    first.run(3).unwrap();
    let snap = first.snapshot();
    let mut resumed = make();
    resumed.restore(&snap).unwrap();
    resumed.run(3).unwrap();
    assert_eq!(reference.client_models(), resumed.client_models());
    assert_eq!(reference.result().rounds, resumed.result().rounds);
}

#[test]
fn snapshot_resume_is_bit_exact_with_straggler_and_byzantine() {
    use crate::{FaultPlan, ServerFault};
    // The dual-threat checkpoint case the transport refactor must not
    // break: a history-dependent Byzantine server AND an active straggler
    // outbox cross the snapshot boundary together. With 4 servers, B = 1
    // and one straggler, every client still sees P' = 3 > 2B distinct
    // models, so the quorum guard stays satisfied.
    let make = || {
        let mut e = small_setup(
            vec![3],
            AttackKind::Backward { delay: 2 },
            Box::new(TrimmedMean::new(0.25).unwrap()),
            false,
        );
        e.set_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 1 }],
            ..FaultPlan::default()
        })
        .unwrap();
        e
    };
    let mut reference = make();
    reference.run(6).unwrap();

    let mut first = make();
    first.run(3).unwrap();
    let snap = first.snapshot();
    // The straggler's outbox must actually carry in-flight state across
    // the boundary, and the Byzantine server must carry attack history.
    assert_eq!(snap.server_state[0].2.len(), 1, "straggler outbox in flight");
    assert!(!snap.server_state[3].0.is_empty(), "attack history in flight");

    let mut resumed = make();
    resumed.restore(&snap).unwrap();
    resumed.run(3).unwrap();
    assert_eq!(reference.client_models(), resumed.client_models());
    assert_eq!(reference.result().rounds, resumed.result().rounds);
}
