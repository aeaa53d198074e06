//! The timing decorators must not change what the program computes: a
//! traced engine ends in the same client models and comm counters as an
//! untraced one, on the local and the net transport, and the timing trial
//! runner writes the same records as `fedms_exp::execute_trial`.

use std::sync::Arc;

use fedms_aggregation::{AggregationRule, EstimatorPolicy, Mean, TrimmedMean};
use fedms_attacks::{AttackKind, ServerAttack};
use fedms_core::{FedMsConfig, TransportKind};
use fedms_exp::{execute_trial, Trial};
use fedms_roundbench::timed::{build_traced, TimedAttack, TimedRule, TimedTransport};
use fedms_roundbench::trace::{RoundTrace, SpanSink};
use fedms_roundbench::workloads::{digest, evaluates, run_sweep_pass, run_trial, Mode, Samples};
use fedms_sim::{
    DegradedMode, FaultSpec, LocalTransport, NetModel, RecoveryPolicy, SimulationEngine, Transport,
};

fn tiny(seed: u64, transport: TransportKind) -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(seed);
    cfg.byzantine_count = 1;
    cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
    cfg.parallel = true;
    cfg.threads = 2;
    cfg.rounds = 4;
    cfg.eval_every = 2;
    cfg.transport = transport;
    cfg
}

/// The faulty edge network of `mlp_edge_faults`, shrunk to `tiny`.
fn faulty(seed: u64) -> FedMsConfig {
    let mut cfg = tiny(seed, TransportKind::Net);
    cfg.servers = 6;
    cfg.net_model = NetModel::edge();
    cfg.fault = FaultSpec {
        crashed_servers: 1,
        straggler_servers: 1,
        straggler_delay: 1,
        downlink_omission: 0.05,
        duplicate_rate: 0.05,
        ..FaultSpec::default()
    };
    cfg.recovery = RecoveryPolicy {
        retry_budget: 4,
        failover: true,
        on_degraded: DegradedMode::Proceed,
        ..RecoveryPolicy::disabled()
    };
    cfg.estimator = EstimatorPolicy::enabled();
    cfg
}

fn step_plain(engine: &mut SimulationEngine, cfg: &FedMsConfig) {
    for r in 0..cfg.rounds {
        engine.step_round(evaluates(r, cfg.rounds, cfg.eval_every)).unwrap();
    }
}

fn assert_traced_matches_plain(cfg: &FedMsConfig) {
    let mut plain = cfg.build_engine().unwrap();
    step_plain(&mut plain, cfg);

    let sink = Arc::new(SpanSink::default());
    let trace = RoundTrace::new(sink.clone(), 0);
    let (mut traced, _) = build_traced(cfg, &trace).unwrap();
    for r in 0..cfg.rounds {
        trace.begin_round(r);
        traced.step_round(false).unwrap();
        trace.end_round();
        traced.evaluate_mean_accuracy().unwrap();
    }

    assert_eq!(plain.client_models(), traced.client_models());
    assert_eq!(plain.result().total_comm, traced.result().total_comm);
    assert_eq!(digest(&plain), digest(&traced));
    let spans = sink.spans();
    for name in ["round", "phase.train", "phase.upload", "phase.filter", "transport.drain"] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    assert_eq!(sink.rounds().len(), cfg.rounds);
}

#[test]
fn traced_engine_matches_untraced_on_local() {
    assert_traced_matches_plain(&tiny(3, TransportKind::Local));
}

#[test]
fn traced_engine_matches_untraced_on_net() {
    assert_traced_matches_plain(&tiny(4, TransportKind::Net));
}

#[test]
fn traced_engine_matches_untraced_on_a_faulty_edge_network() {
    assert_traced_matches_plain(&faulty(5));
}

#[test]
fn decorators_forward_identity_methods() {
    let trace = RoundTrace::new(Arc::new(SpanSink::default()), 0);
    let local = LocalTransport::new(1, 4, 3);
    let (name, streaming) = (local.name(), local.supports_streaming());
    let timed = TimedTransport::new(Box::new(local), trace.clone());
    assert_eq!((timed.name(), timed.supports_streaming()), (name, streaming));

    let mean = TimedRule::new(Box::new(Mean::new()), "agg.server", trace.clone());
    assert_eq!(mean.name(), Mean::new().name());
    assert!(mean.make_accumulator().is_some(), "the streaming accumulator must survive");
    let trimmed =
        TimedRule::new(Box::new(TrimmedMean::new(0.25).unwrap()), "agg.filter", trace.clone());
    assert!(trimmed.make_accumulator().is_none());

    let inner = AttackKind::Noise { std: 1.0 }.build_equivocating(9).unwrap();
    let (name, equivocating) = (inner.name(), inner.is_equivocating());
    let attack = TimedAttack::new(inner, trace);
    assert_eq!((attack.name(), attack.is_equivocating()), (name, equivocating));
}

fn trial(cfg: FedMsConfig, id: &str) -> Trial {
    Trial {
        id: id.to_string(),
        label: id.to_string(),
        axes: Vec::new(),
        seed: cfg.seed,
        config_hash: cfg.stable_hash_hex(),
        config: cfg,
        checkpoint_every: 0,
    }
}

#[test]
fn timing_runner_writes_the_records_of_execute_trial() {
    let t = trial(faulty(6), "faulty");
    let expected = execute_trial(&t, None);
    let (record, plain) = run_trial(&t, &Mode::Plain, 0, &mut Samples::default()).unwrap();
    assert_eq!(record, expected);
    let sink = Arc::new(SpanSink::default());
    let (_, traced) = run_trial(&t, &Mode::Traced(sink), 1, &mut Samples::default()).unwrap();
    assert_eq!((traced.digest, traced.comm), (plain.digest, plain.comm));
}

#[test]
fn sweep_pass_matches_execute_trial_and_cleans_up() {
    let trials =
        vec![trial(tiny(7, TransportKind::Local), "a"), trial(tiny(8, TransportKind::Local), "b")];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("roundbench-sweep");
    let mut s = Samples::default();
    run_sweep_pass(&trials, &Mode::Plain, &dir, 0, &mut s).unwrap();
    let expected: Vec<_> = trials.iter().map(|t| execute_trial(t, None)).collect();
    assert_eq!(s.records, vec![expected]);
    assert_eq!(s.setup_s.len(), 2);
    assert_eq!(s.round_ms.len(), 8);
    assert!(!dir.exists(), "the sweep's run store must be removed");
}
