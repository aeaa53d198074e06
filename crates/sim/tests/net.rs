//! The Local≡Net equivalence contract and the network transport's
//! integration surface.
//!
//! Three layers:
//!
//! 1. **Transport-level oracle property** — under [`NetModel::ideal`] a
//!    [`NetTransport`] round replays the same message fates, inbox
//!    contents, downlink realizations and [`CommStats`] counters as
//!    [`LocalTransport`], for arbitrary fault plans and drop rates. This
//!    is the property that lets `LocalTransport` stay the CI oracle while
//!    `NetTransport` actually moves frames between threads.
//! 2. **Engine-level equivalence** — a full faulty training run over the
//!    net transport reproduces the local engine's snapshot byte-for-byte
//!    (which also pins the streaming-upload path against the buffered
//!    one, since `NetTransport` does not stream).
//! 3. **Wire + TCP** — frame roundtrips survive arbitrary payloads,
//!    incompatible versions are rejected with the typed error, and a
//!    loopback-TCP round aggregates concurrent client uploads.

use fedms_aggregation::{EstimatorPolicy, TrimmedMean};
use fedms_attacks::AttackKind;
use fedms_data::{DirichletPartitioner, SynthVisionConfig};
use fedms_nn::LrSchedule;
use fedms_sim::net::wire::{decode_frame, encode_frame};
use fedms_sim::net::Frame;
use fedms_sim::{
    CommStats, DeliveryOutcome, Dissemination, EngineConfig, FaultPlan, LocalTransport, ModelSpec,
    NetModel, NetTransport, RecoveryPolicy, ResilientTransport, ServerFault, SimulationEngine,
    ThreatSchedule, Topology, Transport, Upload, UploadStrategy, WireError,
};
use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;
use proptest::prelude::*;

/// Everything observable about one replayed round, payloads included.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Upload {
        round: usize,
        client: usize,
        server: usize,
        outcome: DeliveryOutcome,
    },
    Inbox {
        round: usize,
        server: usize,
        models: Vec<Vec<f32>>,
    },
    Release {
        round: usize,
        server: usize,
        outcome: DeliveryOutcome,
        released: Option<Vec<f32>>,
    },
    Downlink {
        round: usize,
        client: usize,
        server: usize,
        outcome: DeliveryOutcome,
        model: Vec<f32>,
    },
}

/// Drives `rounds` full rounds of protocol traffic through `t`, recording
/// every fate *and* every payload. Even servers broadcast, odd servers
/// equivocate per client — so the per-client dissemination path crosses
/// the wire too. With a `pool`, downlinks drain through it and every
/// delivered model is handed back after it is recorded, as the filter
/// phase does.
fn replay(
    t: &mut dyn Transport,
    clients: usize,
    servers: usize,
    rounds: usize,
    pool: Option<&BufferPool>,
) -> (Vec<Ev>, Vec<CommStats>) {
    let mut trace = Vec::new();
    let mut comms = Vec::new();
    for round in 0..rounds {
        t.begin_round(round, 2);
        for k in 0..clients {
            let s = k % servers;
            let model = Tensor::from_slice(&[k as f32, round as f32]);
            let outcome = t.send_upload(Upload { client: k, server: s, model });
            trace.push(Ev::Upload { round, client: k, server: s, outcome });
        }
        for s in 0..servers {
            let inbox = t.take_inbox(s);
            trace.push(Ev::Inbox {
                round,
                server: s,
                models: inbox.iter().map(|m| m.as_slice().to_vec()).collect(),
            });
            let agg = Tensor::from_slice(&[s as f32, round as f32]);
            let (outcome, released) = t.release_aggregate(s, agg);
            trace.push(Ev::Release {
                round,
                server: s,
                outcome,
                released: released.as_ref().map(|m| m.as_slice().to_vec()),
            });
            if let Some(model) = released {
                let diss = if s % 2 == 0 {
                    Dissemination::Broadcast(model)
                } else {
                    Dissemination::PerClient(
                        (0..clients)
                            .map(|k| Tensor::from_slice(&[(s * 100 + k) as f32, round as f32]))
                            .collect(),
                    )
                };
                t.broadcast(fedms_sim::Broadcast { server: s, model: diss })
                    .expect("full-coverage dissemination is accepted");
            }
        }
        for k in 0..clients {
            let deliveries = match pool {
                Some(pool) => t.drain_deliveries_pooled(k, pool),
                None => t.drain_deliveries(k),
            };
            for d in deliveries {
                trace.push(Ev::Downlink {
                    round,
                    client: k,
                    server: d.server,
                    outcome: d.outcome,
                    model: d.model.as_slice().to_vec(),
                });
                if let Some(pool) = pool {
                    pool.release_tensor(d.model);
                }
            }
        }
        comms.push(t.take_comm());
    }
    (trace, comms)
}

/// Maps generated per-server fault codes onto a [`FaultPlan`].
fn plan_from_codes(
    codes: &[u8],
    crash_round: usize,
    delay: usize,
    omission: f64,
    duplicate: f64,
) -> FaultPlan {
    FaultPlan {
        server_faults: codes
            .iter()
            .map(|c| match c {
                0 => ServerFault::None,
                1 => ServerFault::Crash { round: crash_round },
                _ => ServerFault::Straggler { delay },
            })
            .collect(),
        downlink_omission: omission,
        duplicate_rate: duplicate,
    }
}

proptest! {
    /// The oracle property: under the ideal model, `NetTransport` replays
    /// `LocalTransport` message-for-message (fates, inbox order, downlink
    /// realizations, payloads) and counter-for-counter, for arbitrary
    /// crash/straggler/omission/duplicate plans and uplink drop rates —
    /// bare or both wrapped in the recovery layer (retries and failover),
    /// draining plainly or through a shared buffer pool.
    #[test]
    fn net_under_ideal_model_replays_local_exactly(
        seed in 0u64..1000,
        clients in 1usize..10,
        codes in proptest::collection::vec(0u8..3, 2..6),
        crash_round in 0usize..3,
        delay in 1usize..4,
        omission in 0.0f64..0.9,
        duplicate in 0.0f64..0.9,
        drop_rate in 0.0f64..0.9,
        recovery in 0u8..2,
        pooled in 0u8..2,
    ) {
        let servers = codes.len();
        let rounds = 1 + (seed % 3) as usize;
        let plan = plan_from_codes(&codes, crash_round, delay, omission, duplicate);
        let mut local = LocalTransport::new(seed, clients, servers);
        let mut net = NetTransport::new(seed, clients, servers, NetModel::ideal());
        for t in [&mut local as &mut dyn Transport, &mut net as &mut dyn Transport] {
            t.install_fault_plan(plan.clone()).expect("generated plan is valid");
            t.set_upload_drop_rate(drop_rate).expect("generated rate is valid");
        }
        let pool = (pooled == 1).then(BufferPool::new);
        let (a, b) = if recovery == 1 {
            let policy =
                RecoveryPolicy { retry_budget: 3, failover: true, ..RecoveryPolicy::standard() };
            let mut local = ResilientTransport::new(local, policy, seed, clients, servers)
                .expect("policy is valid");
            let mut net = ResilientTransport::new(net, policy, seed, clients, servers)
                .expect("policy is valid");
            (
                replay(&mut local, clients, servers, rounds, pool.as_ref()),
                replay(&mut net, clients, servers, rounds, pool.as_ref()),
            )
        } else {
            let a = replay(&mut local, clients, servers, rounds, pool.as_ref());
            let b = replay(&mut net, clients, servers, rounds, pool.as_ref());
            prop_assert!(net.take_wire_error().is_none(), "a healthy run decoded a bad frame");
            (a, b)
        };
        prop_assert_eq!(a.0, b.0, "message traces diverged between local and net");
        prop_assert_eq!(a.1, b.1, "comm counters diverged between local and net");
    }

    /// Thread scheduling never leaks into results: two `NetTransport`s
    /// under the same seed and a *non-trivial* delay model produce
    /// identical traces and counters.
    #[test]
    fn net_transport_is_deterministic_under_real_delays(
        seed in 0u64..500,
        clients in 1usize..8,
        servers in 2usize..5,
        drop_rate in 0.0f64..0.5,
    ) {
        let model = NetModel { deadline_ms: 40, ..NetModel::edge() };
        let mut first = NetTransport::new(seed, clients, servers, model);
        let mut second = NetTransport::new(seed, clients, servers, model);
        for t in [&mut first, &mut second] {
            t.set_upload_drop_rate(drop_rate).expect("generated rate is valid");
        }
        let a = replay(&mut first, clients, servers, 2, None);
        let b = replay(&mut second, clients, servers, 2, None);
        prop_assert_eq!(a, b, "same seed, same model, different realization");
    }

    /// Every frame kind roundtrips through the wire encoding bit-exactly,
    /// and the decoder consumes the frame completely.
    #[test]
    fn frames_roundtrip_through_the_wire(
        round in 0u32..1000,
        client in 0u32..500,
        server in 0u32..64,
        arrival in 0u64..100_000,
        payload in proptest::collection::vec(-1e6f32..1e6, 0..64),
        per_client in 1usize..5,
    ) {
        let model = Tensor::from_slice(&payload);
        let frames = vec![
            Frame::Hello { client },
            Frame::Upload { round, client, server, arrival_ms: arrival, model: model.clone() },
            Frame::Broadcast {
                round,
                server,
                model: Dissemination::Broadcast(model.clone()),
            },
            Frame::Broadcast {
                round,
                server,
                model: Dissemination::PerClient(vec![model.clone(); per_client]),
            },
            Frame::Aggregate { round, contributors: client, model },
            Frame::Bye,
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let (back, used) = decode_frame(&bytes).expect("encoder output must decode");
            prop_assert_eq!(&back, &frame);
            prop_assert_eq!(used, bytes.len(), "decoder left trailing bytes");
        }
    }

    /// Fuzz hardening: feeding the decoder arbitrary bytes never panics
    /// and never over-allocates — it returns a frame or a typed
    /// [`WireError`], and when it succeeds it consumed no more bytes than
    /// it was given.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u8..=255u8, 0..512),
    ) {
        match decode_frame(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(
                WireError::Truncated { .. }
                | WireError::Version { .. }
                | WireError::UnknownKind(_)
                | WireError::Oversized { .. }
                | WireError::TrailingBytes { .. },
            ) => {}
            Err(other) => prop_assert!(false, "pure decode surfaced {other:?}"),
        }
    }

    /// Fuzz hardening: every truncation of a well-formed frame decodes to
    /// a typed error — never a panic, never a bogus success.
    #[test]
    fn truncations_of_valid_frames_are_typed_errors(
        round in 0u32..100,
        server in 0u32..16,
        payload in proptest::collection::vec(-1e3f32..1e3, 0..16),
        cut_seed in 0u64..=u64::MAX,
    ) {
        let bytes = encode_frame(&Frame::Broadcast {
            round,
            server,
            model: Dissemination::Broadcast(Tensor::from_slice(&payload)),
        });
        let cut = (cut_seed as usize) % bytes.len();
        match decode_frame(&bytes[..cut]) {
            Err(WireError::Truncated { needed, got }) => prop_assert!(got < needed),
            other => prop_assert!(false, "cut at {cut}: expected truncation, got {other:?}"),
        }
    }

    /// Fuzz hardening: a single flipped bit anywhere in a valid frame
    /// yields a decode (possibly of different content) or a typed error —
    /// the decoder has no panicking path and no unchecked allocation.
    #[test]
    fn bit_flips_decode_or_fail_typed(
        client in 0u32..100,
        arrival in 0u64..1000,
        payload in proptest::collection::vec(-1e3f32..1e3, 1..16),
        flip_seed in 0u64..=u64::MAX,
    ) {
        let bytes = encode_frame(&Frame::Upload {
            round: 1,
            client,
            server: 0,
            arrival_ms: arrival,
            model: Tensor::from_slice(&payload),
        });
        let mut corrupted = bytes.clone();
        let bit = (flip_seed as usize) % (bytes.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        match decode_frame(&corrupted) {
            Ok((_, used)) => prop_assert!(used <= corrupted.len()),
            Err(WireError::Io(msg)) => {
                prop_assert!(false, "pure decode surfaced an i/o error: {msg}")
            }
            Err(_) => {}
        }
    }
}

/// A frame stamped with a future protocol version is rejected with the
/// typed error, not misparsed — the cross-build safety net of the TCP
/// mode.
#[test]
fn incompatible_frame_version_is_rejected() {
    let mut bytes = encode_frame(&Frame::Hello { client: 3 });
    // Layout: [u32 len][u16 version][u8 kind][payload].
    bytes[4] = 0xFF;
    bytes[5] = 0xFF;
    match decode_frame(&bytes) {
        Err(WireError::Version { found, expected }) => {
            assert_eq!(found, 0xFFFF);
            assert_eq!(expected, fedms_sim::FRAME_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// Truncated input surfaces the typed decode error with the byte counts.
#[test]
fn truncated_frames_report_how_much_was_missing() {
    let bytes = encode_frame(&Frame::Hello { client: 3 });
    for cut in 0..bytes.len() {
        match decode_frame(&bytes[..cut]) {
            Err(WireError::Truncated { needed, got }) => assert!(got < needed),
            other => panic!("cut at {cut}: expected truncation, got {other:?}"),
        }
    }
}

fn engine(cohort: usize) -> SimulationEngine {
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let topo = Topology::new(12, 4, vec![1]).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 12, 3).unwrap();
    let config = EngineConfig {
        topology: topo,
        model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 2,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 11,
        eval_every: 1,
        eval_clients: 0,
        parallel: false,
        threads: 0,
        eval_after_local: false,
        recovery: RecoveryPolicy::disabled(),
        cohort,
        threat: ThreatSchedule::none(),
        estimator: EstimatorPolicy::default(),
        backend: fedms_tensor::BackendKind::Scalar,
    };
    let attacks = vec![(1usize, AttackKind::Noise { std: 0.5 }.build().unwrap())];
    SimulationEngine::new(
        config,
        &train,
        &test,
        &parts,
        Box::new(TrimmedMean::new(0.25).unwrap()),
        attacks,
    )
    .unwrap()
}

/// A benign-but-busy fault schedule: one straggler pipeline, a lossy
/// uplink and a duplicating downlink (no omission, so the quorum guard
/// never trips and the comparison covers full rounds).
fn faults() -> FaultPlan {
    FaultPlan {
        server_faults: vec![
            ServerFault::None,
            ServerFault::Straggler { delay: 1 },
            ServerFault::None,
            ServerFault::None,
        ],
        downlink_omission: 0.0,
        duplicate_rate: 0.3,
    }
}

/// Runs `rounds` rounds over the engine's default local transport (which
/// streams uploads) or over a fresh ideal-model [`NetTransport`] (which
/// buffers them), returning the serialized snapshot and the comm totals.
fn engine_run(cohort: usize, rounds: usize, net: bool) -> (Vec<u8>, CommStats) {
    let mut e = engine(cohort);
    if net {
        e.set_transport(Box::new(NetTransport::new(11, 12, 4, NetModel::ideal())));
    }
    e.set_fault_plan(faults()).unwrap();
    e.set_upload_drop_rate(0.2).unwrap();
    let result = e.run(rounds).unwrap();
    (serde_json::to_string(&e.snapshot()).unwrap().into_bytes(), result.total_comm)
}

/// The end-to-end acceptance property: a full faulty training run over
/// the concurrent transport reproduces the local engine byte-for-byte —
/// models, server histories, outboxes, metrics and message totals. This
/// also pins streaming uploads (local) against buffered uploads (net).
#[test]
fn engine_over_net_transport_matches_local_bit_exactly() {
    let (local_snap, local_comm) = engine_run(0, 3, false);
    let (net_snap, net_comm) = engine_run(0, 3, true);
    assert_eq!(local_comm, net_comm, "comm totals diverged");
    assert_eq!(local_snap, net_snap, "snapshots diverged between local and net engines");
}

/// Cohort sampling composes with the net transport: download accounting
/// follows the declared cohort (not the federation), matching the local
/// engine exactly — the regression for recipients being silently reset by
/// `begin_round`.
#[test]
fn cohorted_net_rounds_account_downloads_to_the_cohort() {
    let (local_snap, local_comm) = engine_run(4, 3, false);
    let (net_snap, net_comm) = engine_run(4, 3, true);
    assert_eq!(net_comm, local_comm);
    // Base disseminations go to the 4 cohort clients only: 4 servers × 4
    // recipients × 3 rounds, minus the straggler's silent warm-up round
    // (one round with 3 active servers). Fault-injected duplicates are
    // accounted on top of this base.
    assert_eq!(net_comm.download_messages - net_comm.duplicated_downloads, 4 * 4 * 2 + 3 * 4);
    assert_eq!(local_snap, net_snap);
}

/// The filter phase's pool bound holds on the recovery-over-net stack:
/// every downlink view — inner deliveries, duplicates and repairs alike —
/// is drawn from the engine's buffer pool and handed back to it. The
/// filter keeps only each distinct view (a repeat's views go back before
/// the next client drains), so the pool allocates for the round with the
/// most distinct views; it never allocates more than one round drains,
/// which is what a filter lending every view of the round at once would
/// need, and a view that is never handed back would push it past that.
#[test]
fn resilient_net_rounds_recycle_the_engine_pool() {
    let mut e = engine(0);
    let mut net = NetTransport::new(11, 12, 4, NetModel::ideal());
    net.install_fault_plan(FaultPlan {
        downlink_omission: 0.2,
        duplicate_rate: 0.2,
        ..FaultPlan::default()
    })
    .unwrap();
    let policy = RecoveryPolicy {
        retry_budget: 8,
        failover: true,
        round_deadline_ms: 0,
        ..RecoveryPolicy::standard()
    };
    e.set_transport(Box::new(ResilientTransport::new(net, policy, 11, 12, 4).unwrap()));
    let mut lent_before = 0;
    let mut most_drained = 0;
    for _ in 0..6 {
        e.step_round(false).unwrap();
        let stats = e.pool_stats();
        // Every buffer the pool lends is one drained view.
        let lent = stats.allocated + stats.reused;
        most_drained = most_drained.max(lent - lent_before);
        lent_before = lent;
        assert!(
            stats.allocated <= most_drained,
            "the pool allocated more views than one round drains ({most_drained}): {stats:?}"
        );
    }
    let stats = e.pool_stats();
    assert!(stats.reused > 0, "views must come from recycled storage: {stats:?}");
    assert_eq!(
        stats.released,
        stats.allocated + stats.reused,
        "every released view was lent by the pool: {stats:?}"
    );
}

/// Without faults or equivocation every client drains the same `P`
/// disseminations, so the filter holds one distinct view plus the one
/// being drained: the pool never lends more than `2 × P` buffers at once,
/// however many clients the round has.
#[test]
fn fault_free_rounds_lend_at_most_two_views_of_buffers() {
    let mut e = engine(0);
    e.set_transport(Box::new(NetTransport::new(11, 12, 4, NetModel::ideal())));
    let view_bytes = 4 * e.initial_model().len() as u64;
    for _ in 0..3 {
        e.step_round(false).unwrap();
    }
    let stats = e.pool_stats();
    assert!(stats.allocated <= 2 * 4, "{stats:?}");
    assert!(stats.high_water_bytes <= 2 * 4 * view_bytes, "{stats:?}");
    assert_eq!(stats.released, stats.allocated + stats.reused, "{stats:?}");
}

/// Runs a short federation with the given server attack on the default
/// local transport or an ideal-model net transport, returning the
/// per-round accuracy trajectory.
fn stealth_run(attack: Box<dyn fedms_attacks::ServerAttack>, net: bool) -> Vec<f32> {
    let (train, test) = SynthVisionConfig::small().generate(3).unwrap();
    let topo = Topology::new(12, 4, vec![1]).unwrap();
    let parts = DirichletPartitioner::new(10.0).unwrap().partition(&train, 12, 3).unwrap();
    let config = EngineConfig {
        topology: topo,
        model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
        upload: UploadStrategy::Sparse,
        local_epochs: 1,
        batch_size: 4,
        schedule: LrSchedule::Constant(0.05),
        seed: 21,
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
    let mut e = SimulationEngine::new(
        config,
        &train,
        &test,
        &parts,
        Box::new(TrimmedMean::new(0.25).unwrap()),
        vec![(1usize, attack)],
    )
    .unwrap();
    if net {
        e.set_transport(Box::new(NetTransport::new(21, 12, 4, NetModel::ideal())));
    }
    let result = e.run(3).unwrap();
    result.rounds.iter().map(|r| r.mean_accuracy).collect()
}

/// Stealth attacks cross the wire unchanged: ALIE, IPM and per-client
/// equivocation produce bit-identical accuracy trajectories whether the
/// tampered disseminations travel through `LocalTransport` or through the
/// concurrent `NetTransport` under the ideal model. Equivocation
/// exercises the per-client (`Dissemination::PerClient`) wire path, the
/// one a broadcast-only codec would silently collapse.
#[test]
fn stealth_attacks_cross_the_net_transport_unchanged() {
    type AttackBuilder = fn() -> Box<dyn fedms_attacks::ServerAttack>;
    let builds: Vec<(&str, AttackBuilder)> = vec![
        ("alie", || AttackKind::Alie { z: 1.0 }.build().unwrap()),
        ("ipm", || AttackKind::Ipm { epsilon: 0.5 }.build().unwrap()),
        ("equivocation", || {
            AttackKind::Random { lo: -10.0, hi: 10.0 }.build_equivocating(1).unwrap()
        }),
    ];
    for (name, build) in builds {
        let local = stealth_run(build(), false);
        let net = stealth_run(build(), true);
        assert!(!local.is_empty(), "{name}: no accuracy samples recorded");
        assert_eq!(local, net, "{name}: accuracy trajectory diverged between local and net");
    }
}

/// One loopback-TCP round with *concurrent* clients: the serve loop folds
/// every upload into the running mean regardless of arrival interleaving.
#[test]
fn tcp_round_aggregates_concurrent_clients() {
    let server = fedms_sim::net::TcpRound::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve(4).unwrap());
    let clients: Vec<_> = (0..4)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let model = Tensor::from_slice(&[k as f32, 2.0 * k as f32]);
                fedms_sim::net::run_client(&addr, k as usize, &model).unwrap()
            })
        })
        .collect();
    for c in clients {
        let (contributors, agg) = c.join().unwrap();
        assert!((1..=4).contains(&contributors));
        assert_eq!(agg.len(), 2);
    }
    let report = serving.join().unwrap();
    assert_eq!(report.uploads, 4);
    // mean of [k, 2k] for k = 0..4 is [1.5, 3.0].
    assert_eq!(report.aggregate.unwrap().as_slice(), &[1.5, 3.0]);
}
