//! The round-loop orchestrator: a thin driver over the phase pipeline
//! ([`crate::phases`]) and the message layer ([`crate::transport`]).

use fedms_aggregation::{AdaptiveTrimmedMean, AggregationRule, ByzantineEstimator, Mean};
use fedms_attacks::{AttackKind, ClientAttack, ServerAttack};
use fedms_data::Dataset;
use fedms_nn::NeuralNet;
use fedms_tensor::pool::{BufferPool, PoolStats};
use fedms_tensor::rng::{derive_seed, rng_for};
use fedms_tensor::Tensor;

use crate::store::{ClientStore, Partitions};
use crate::transport::{LocalTransport, Transport};
use crate::{
    phases, EventLog, FaultPlan, Result, RoundEvent, RoundMetrics, RunResult, Server, SimError,
    ThreatView,
};

mod config;
mod snapshot;

pub use config::EngineConfig;
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};

/// A running federation.
///
/// Generic over the client-side model filter (`Def(·)` in the problem
/// definition): [`fedms_aggregation::TrimmedMean`] makes this Fed-MS,
/// [`fedms_aggregation::Mean`] makes it the Vanilla-FL baseline, and any
/// other [`AggregationRule`] gives an ablation. Also generic over the
/// delivery substrate: each round is executed as the phase pipeline
/// local train → upload → aggregate → disseminate → filter over a
/// [`Transport`] (a [`LocalTransport`] by default; swap it with
/// [`SimulationEngine::set_transport`]).
///
/// Clients live in a client store — per-client metadata plus an
/// interned bank of model vectors — and are rehydrated lazily for the
/// rounds that sample them, so memory scales with the per-round *cohort*
/// ([`EngineConfig::cohort`]), not the federation size `K`.
pub struct SimulationEngine {
    config: EngineConfig,
    store: ClientStore,
    servers: Vec<Server>,
    filter: Box<dyn AggregationRule>,
    server_rule: Box<dyn AggregationRule>,
    client_attacks: Vec<Option<Box<dyn ClientAttack>>>,
    participation: f64,
    transport: Box<dyn Transport>,
    pool: BufferPool,
    record_diagnostics: bool,
    event_log: Option<EventLog>,
    initial_model: Tensor,
    test_samples: Tensor,
    test_labels: Vec<usize>,
    round: usize,
    result: RunResult,
    /// The compromise currently applied to each server by the dynamic
    /// threat schedule (`None` = running its built-in behaviour). Applied
    /// state, not configuration: rebuilt by diffing against the schedule
    /// each round, so a restored engine re-applies the right view on its
    /// first step.
    dynamic_attack: Vec<Option<AttackKind>>,
    /// The online Byzantine-count estimator, when the adaptive defence is
    /// enabled. `None` keeps the statically configured filter bit-identical
    /// in charge.
    estimator: Option<ByzantineEstimator>,
}

impl std::fmt::Debug for SimulationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationEngine")
            .field("round", &self.round)
            .field("clients", &self.store.num_clients())
            .field("servers", &self.servers.len())
            .field("filter", &self.filter.name())
            .field("transport", &self.transport.name())
            .finish()
    }
}

impl SimulationEngine {
    /// Builds a federation.
    ///
    /// * `train`/`test` — the global dataset splits (image layout; the
    ///   engine flattens them if the model wants flat input),
    /// * `partitions` — per-client sample indices into `train` (from
    ///   [`fedms_data::DirichletPartitioner`]),
    /// * `filter` — the client-side defence `Def(·)`,
    /// * `attacks` — one attack per Byzantine server id declared in the
    ///   topology; ids must match exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for mismatched partitions/attacks or
    /// invalid configuration values, and propagates substrate errors.
    pub fn new(
        config: EngineConfig,
        train: &Dataset,
        test: &Dataset,
        partitions: &[Vec<usize>],
        filter: Box<dyn AggregationRule>,
        attacks: Vec<(usize, Box<dyn ServerAttack>)>,
    ) -> Result<Self> {
        Self::with_adversaries(
            config,
            train,
            test,
            partitions,
            filter,
            Box::new(Mean::new()),
            attacks,
            Vec::new(),
        )
    }

    /// Builds a federation with the full dual threat model: Byzantine
    /// *servers* (as in [`SimulationEngine::new`]) **and** Byzantine
    /// *clients* (`client_attacks`, one per malicious client id), with a
    /// configurable server-side aggregation rule (`server_rule`; the
    /// paper's benign servers use the plain mean, a robust rule extends
    /// Fed-MS to the client threat the paper leaves as future work).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimulationEngine::new`], plus
    /// [`SimError::BadConfig`] for duplicate or out-of-range Byzantine
    /// client ids.
    #[allow(clippy::too_many_arguments)]
    pub fn with_adversaries(
        config: EngineConfig,
        train: &Dataset,
        test: &Dataset,
        partitions: &[Vec<usize>],
        filter: Box<dyn AggregationRule>,
        server_rule: Box<dyn AggregationRule>,
        attacks: Vec<(usize, Box<dyn ServerAttack>)>,
        client_attacks: Vec<(usize, Box<dyn ClientAttack>)>,
    ) -> Result<Self> {
        Self::with_store(
            config,
            train,
            test,
            Partitions::explicit(partitions.to_vec()),
            filter,
            server_rule,
            attacks,
            client_attacks,
        )
    }

    /// Builds a federation from a [`Partitions`] description instead of
    /// eager per-client index lists. [`Partitions::Uniform`] keeps the
    /// description O(1) regardless of `K`, which is what makes
    /// million-client topologies constructible at all; everything else is
    /// identical to [`SimulationEngine::with_adversaries`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimulationEngine::with_adversaries`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_store(
        config: EngineConfig,
        train: &Dataset,
        test: &Dataset,
        partitions: Partitions,
        filter: Box<dyn AggregationRule>,
        server_rule: Box<dyn AggregationRule>,
        attacks: Vec<(usize, Box<dyn ServerAttack>)>,
        client_attacks: Vec<(usize, Box<dyn ClientAttack>)>,
    ) -> Result<Self> {
        config.validate()?;
        let topo = &config.topology;
        if partitions.num_clients() != topo.num_clients() {
            return Err(SimError::BadConfig(format!(
                "{} partitions for {} clients",
                partitions.num_clients(),
                topo.num_clients()
            )));
        }
        {
            let mut attack_ids: Vec<usize> = attacks.iter().map(|(id, _)| *id).collect();
            attack_ids.sort_unstable();
            let mut byz_ids: Vec<usize> = topo.byzantine_ids().collect();
            byz_ids.sort_unstable();
            if attack_ids != byz_ids {
                return Err(SimError::BadConfig(format!(
                    "attack ids {attack_ids:?} do not match byzantine ids {byz_ids:?}"
                )));
            }
        }

        // All clients start from the same w₀ (Algorithm 1 line 6).
        let init_seed = derive_seed(config.seed, &[0x494E_4954]); // "INIT"
        let reference = config.model.build(init_seed)?;
        let initial_model = fedms_nn::NeuralNet::param_vector(reference.as_ref());

        let flat = config.model.wants_flat_input();
        let test_set = if flat { test.flattened() } else { test.clone() };
        // Flattening the whole train split up front (a reshape) makes
        // per-client shards bit-identical to the old subset-then-flatten
        // path while letting the store hydrate lazily.
        let train_set = if flat { train.flattened() } else { train.clone() };
        let store = ClientStore::new(
            config.model.clone(),
            init_seed,
            config.seed,
            config.batch_size,
            config.schedule,
            train_set,
            partitions,
            initial_model.clone(),
            config.resolve_backend()?,
        )?;

        let mut attack_map: std::collections::BTreeMap<usize, Box<dyn ServerAttack>> =
            attacks.into_iter().collect();
        let mut servers = Vec::with_capacity(topo.num_servers());
        for i in 0..topo.num_servers() {
            let seed = config.seed;
            servers.push(match attack_map.remove(&i) {
                Some(attack) => Server::byzantine(i, attack, seed),
                None => Server::benign(i, seed),
            });
        }

        let mut client_attack_slots: Vec<Option<Box<dyn ClientAttack>>> =
            (0..topo.num_clients()).map(|_| None).collect();
        for (id, attack) in client_attacks {
            if id >= client_attack_slots.len() {
                return Err(SimError::BadConfig(format!(
                    "byzantine client id {id} out of range for {} clients",
                    client_attack_slots.len()
                )));
            }
            if client_attack_slots[id].is_some() {
                return Err(SimError::BadConfig(format!("duplicate attack for client {id}")));
            }
            client_attack_slots[id] = Some(attack);
        }

        let transport = config.recovery.wrap(
            LocalTransport::new(config.seed, topo.num_clients(), topo.num_servers()),
            config.seed,
            topo.num_clients(),
            topo.num_servers(),
        )?;

        let estimator = config
            .estimator
            .enabled
            .then(|| ByzantineEstimator::new(topo.num_servers(), config.estimator));
        let dynamic_attack = vec![None; topo.num_servers()];
        Ok(SimulationEngine {
            participation: 1.0,
            transport,
            pool: BufferPool::new(),
            record_diagnostics: false,
            event_log: None,
            client_attacks: client_attack_slots,
            server_rule,
            config,
            store,
            servers,
            filter,
            initial_model,
            test_samples: test_set.samples().clone(),
            test_labels: test_set.labels().to_vec(),
            round: 0,
            result: RunResult::new(),
            dynamic_attack,
            estimator,
        })
    }

    /// Ids of the Byzantine clients (empty under the paper's base model).
    pub fn byzantine_client_ids(&self) -> Vec<usize> {
        self.client_attacks.iter().enumerate().filter_map(|(i, a)| a.as_ref().map(|_| i)).collect()
    }

    /// Rotates the labels of one client's training shard (the data-level
    /// side of a label-flip Byzantine client).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an out-of-range client id.
    pub fn poison_client_labels(&mut self, client: usize, offset: usize) -> Result<()> {
        if client >= self.store.num_clients() {
            return Err(SimError::BadConfig(format!(
                "client {client} out of range for {} clients",
                self.store.num_clients()
            )));
        }
        self.store.poison(client, offset);
        Ok(())
    }

    /// Sets the per-round client participation fraction: each round only a
    /// uniformly sampled `⌈fraction·K⌉` clients train and upload (classic
    /// partial device participation; the paper's Lemma 3 machinery covers
    /// it). Everyone still receives the dissemination and filters. Under
    /// cohort sampling ([`EngineConfig::cohort`]) the fraction applies
    /// *within* the cohort.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] unless `0 < fraction ≤ 1`.
    pub fn set_participation(&mut self, fraction: f64) -> Result<()> {
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(SimError::BadConfig(format!(
                "participation must be in (0, 1], got {fraction}"
            )));
        }
        self.participation = fraction;
        Ok(())
    }

    /// Replaces the delivery substrate the phase pipeline runs over. The
    /// new transport starts from its own configuration — re-install any
    /// fault plan or drop rate on it (or configure it before handing it
    /// over).
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// The active delivery substrate.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Sets the probability that any single client→server upload message is
    /// lost in transit (outdoor edge links are lossy; the fallback of
    /// re-using the previous aggregate covers servers that receive
    /// nothing). Dropped messages are still counted as sent — the sender
    /// pays for the attempt.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] unless `0 ≤ rate < 1`.
    pub fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        self.transport.set_upload_drop_rate(rate)
    }

    /// Installs a benign-fault schedule on the transport
    /// (crash/straggler/omission/duplicate faults; see
    /// [`crate::FaultPlan`]). The trivial plan restores fault-free
    /// behaviour bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the plan does not fit this
    /// topology (see [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        self.transport.install_fault_plan(plan)
    }

    /// The active fault schedule (trivial by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.transport.fault_plan()
    }

    /// The online estimator's current trim level `β̂·P`, when the adaptive
    /// defence ([`EngineConfig::estimator`]) is enabled.
    pub fn estimated_trim(&self) -> Option<usize> {
        self.estimator.as_ref().map(|e| e.trim())
    }

    /// Ids of the servers currently compromised by the dynamic threat
    /// schedule (empty whenever the schedule is trivial or quiescent).
    pub fn compromised_servers(&self) -> Vec<usize> {
        self.dynamic_attack.iter().enumerate().filter_map(|(i, a)| a.as_ref().map(|_| i)).collect()
    }

    /// Applies the dynamic threat schedule's view for the current round:
    /// diffs the scheduled compromise set against what is already applied
    /// (attacks are built or removed only on transitions, so a steady
    /// epoch does no per-round work), hands the network-layer threat to
    /// the transport, and emits a [`RoundEvent::ThreatEpoch`] whenever the
    /// view changed since the previous round.
    fn apply_threat_view(&mut self) -> Result<()> {
        let view = self.config.threat.view(self.round);
        for (i, applied) in self.dynamic_attack.iter_mut().enumerate() {
            let want = view.compromised.get(&i).copied();
            if want != *applied {
                let attack = match want {
                    Some(kind) => Some(kind.build().map_err(SimError::from)?),
                    None => None,
                };
                self.servers[i].set_attack(attack);
                *applied = want;
            }
        }
        self.transport.set_net_threat(view.net_threat());
        let previous = if self.round == 0 {
            ThreatView::default()
        } else {
            self.config.threat.view(self.round - 1)
        };
        if view != previous {
            if let Some(log) = self.event_log.as_mut() {
                log.push(RoundEvent::ThreatEpoch {
                    round: self.round,
                    epoch: self.config.threat.epoch_index(self.round),
                    compromised: view.compromised.keys().copied().collect(),
                    partitioned: view.partitioned.iter().copied().collect(),
                    corrupt_rate: view.corrupt_rate,
                });
            }
        }
        Ok(())
    }

    /// Enables the structured event log with the given retention capacity
    /// (see [`crate::EventLog`]); pass 0 to disable recording again.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.event_log = if capacity == 0 { None } else { Some(EventLog::with_capacity(capacity)) };
    }

    /// The event log, if enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.event_log.as_ref()
    }

    /// Enables per-round defence diagnostics (see
    /// [`crate::RoundDiagnostics`]). Costs a few extra vector passes per
    /// evaluated round.
    pub fn set_record_diagnostics(&mut self, on: bool) {
        self.record_diagnostics = on;
    }

    /// The static configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current round (number of completed rounds).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The shared initial model `w₀`.
    pub fn initial_model(&self) -> &Tensor {
        &self.initial_model
    }

    /// Metrics recorded so far.
    pub fn result(&self) -> &RunResult {
        &self.result
    }

    /// The current flat model vector of each client. Materializes `K`
    /// dense tensors — fine for inspection at paper scale, not something
    /// to call inside a million-client loop (use
    /// [`SimulationEngine::distinct_client_models`] there).
    pub fn client_models(&self) -> Vec<Tensor> {
        self.store.dense_models()
    }

    /// Number of *distinct* model vectors across all clients (the interned
    /// bank's size): the engine's resident model state is proportional to
    /// this, not to `K`.
    pub fn distinct_client_models(&self) -> usize {
        self.store.distinct_models()
    }

    /// Counters of the engine's downlink buffer pool (see
    /// [`PoolStats`]); `high_water_bytes` bounds the transient filter-view
    /// memory of the run so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Runs `rounds` training rounds, evaluating per the configuration.
    /// Returns the accumulated result (clone of [`SimulationEngine::result`]).
    ///
    /// # Errors
    ///
    /// Propagates any substrate error; the engine is left at the round that
    /// failed.
    pub fn run(&mut self, rounds: usize) -> Result<RunResult> {
        for r in 0..rounds {
            let evaluate = self.round.is_multiple_of(self.config.eval_every) || (r + 1 == rounds);
            self.step_round(evaluate)?;
        }
        Ok(self.result.clone())
    }

    /// Executes exactly one round as the five-phase pipeline over the
    /// transport; records metrics if `evaluate`.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors. On error the round is not committed:
    /// models, the round counter and the comm totals are untouched (the
    /// next [`Transport::begin_round`] discards the partial round's
    /// counters).
    pub fn step_round(&mut self, evaluate: bool) -> Result<()> {
        let topo = self.config.topology.clone();
        let (num_clients, num_servers) = (topo.num_clients(), topo.num_servers());

        // Dynamic threat: realize this round's scheduled view — compromise
        // or heal servers, move the partition/corruption state to the wire
        // — before the transport opens the round. A trivial schedule takes
        // this branch never, leaving the engine bit-identical to a build
        // without the threat layer.
        let threat_epoch = if self.config.threat.is_trivial() {
            None
        } else {
            self.apply_threat_view()?;
            self.config.threat.epoch_index(self.round)
        };

        self.transport.begin_round(self.round, self.initial_model.len());

        // All engine-level randomness is derived per round from the root
        // seed, making every round a pure function of (config, round,
        // client/server state) — the property behind bit-exact
        // checkpoint/resume ([`SimulationEngine::snapshot`]).
        let round_label = self.round as u64;
        let worker_threads = self.worker_threads();
        let mut upload_rng = rng_for(self.config.seed, &[0x55_50_4C_44, round_label]); // "UPLD"
        let mut participation_rng = rng_for(self.config.seed, &[0x50_41_52_54, round_label]); // "PART"
        let mut client_attack_rng = rng_for(self.config.seed, &[0x43_41_54, round_label]); // "CAT"

        // This round's cohort: the clients that exist for the round at all
        // (train, upload, receive, filter). `cohort = 0` or ≥ K keeps the
        // full federation and is bit-identical to the pre-cohort engine.
        let cohort: Vec<usize> = if self.config.cohort == 0 || self.config.cohort >= num_clients {
            (0..num_clients).collect()
        } else {
            let mut cohort_rng = rng_for(self.config.seed, &[0x43_48_52_54, round_label]); // "CHRT"
            phases::sample_cohort((0..num_clients).collect(), self.config.cohort, &mut cohort_rng)
        };
        self.transport.set_round_recipients(cohort.len());

        // Partial participation applies within the cohort.
        let active: Vec<usize> = if self.participation >= 1.0 {
            cohort.clone()
        } else {
            let take =
                ((self.participation * cohort.len() as f64).ceil() as usize).clamp(1, cohort.len());
            phases::sample_cohort(cohort.clone(), take, &mut participation_rng)
        };

        // 1. Local training (Algorithm 1 lines 8–10) — active clients only,
        // rehydrated one-at-a-time per worker from the store.
        let (mut trained, mean_train_loss) = phases::local_train(phases::TrainCtx {
            store: &self.store,
            active: &active,
            round: self.round,
            local_epochs: self.config.local_epochs,
            threads: worker_threads,
            event_log: self.event_log.as_mut(),
        })?;

        // Accuracy of the freshly trained *local* models (the paper's
        // metric), measured before aggregation touches them.
        let local_accuracy = if evaluate && self.config.eval_after_local {
            Some(self.mean_accuracy_over(Some((&active, &trained)))?)
        } else {
            None
        };

        // 2. Sparse upload (line 11) over the transport. The assignment is
        // drawn over the cohort (positions align with cohort order), so a
        // full cohort consumes the "UPLD" stream exactly as before. When
        // both the transport and the server rule can stream, delivered
        // uploads fold into per-server running aggregates instead of being
        // buffered — at most O(P × dim) extra memory.
        let assignment = self.config.upload.assign(cohort.len(), num_servers, &mut upload_rng)?;
        let mut accumulators = if self.transport.supports_streaming() {
            (0..num_servers)
                .map(|_| self.server_rule.make_accumulator())
                .collect::<Option<Vec<_>>>()
        } else {
            None
        };
        phases::upload(
            phases::UploadCtx {
                transport: self.transport.as_mut(),
                store: &self.store,
                client_attacks: &self.client_attacks,
                cohort: &cohort,
                active: &active,
                trained: &mut trained,
                round: self.round,
                event_log: self.event_log.as_mut(),
            },
            &assignment,
            &mut client_attack_rng,
            accumulators.as_deref_mut(),
        )?;

        // 3. Aggregation (lines 3–4): online servers reduce their streamed
        // accumulator or aggregate their inbox; crash/straggler silence is
        // realized by the transport.
        let (ready, silent_servers) = phases::aggregate(phases::AggregateCtx {
            transport: self.transport.as_mut(),
            servers: &mut self.servers,
            server_rule: self.server_rule.as_ref(),
            initial_model: &self.initial_model,
            round: self.round,
            accumulators,
            event_log: self.event_log.as_mut(),
        })?;

        // 4. Dissemination (line 5), Byzantine or not. Equivocating
        // attacks still cover all K client slots; only the cohort drains
        // them. When the estimator runs, each server's post-attack
        // dissemination is also captured as its observable view.
        let mut estimator_views: Vec<(usize, Tensor)> = Vec::new();
        phases::disseminate(
            phases::DisseminateCtx {
                transport: self.transport.as_mut(),
                servers: &mut self.servers,
                num_clients,
                round: self.round,
                event_log: self.event_log.as_mut(),
            },
            ready,
            self.estimator.is_some().then_some(&mut estimator_views),
        )?;

        // Online B̂ estimation: score the servers' observable
        // disseminations (partitioned servers contribute nothing — their
        // frames never arrive) and let the adaptive trimmed mean take over
        // the client-side defence at the estimated trim level.
        let mut beta_hat = None;
        let mut adaptive: Option<AdaptiveTrimmedMean> = None;
        if let Some(estimator) = self.estimator.as_mut() {
            if threat_epoch.is_some() {
                let view = self.config.threat.view(self.round);
                estimator_views.retain(|(s, _)| !view.partitioned.contains(s));
            }
            let observed: Vec<(usize, &[f32])> =
                estimator_views.iter().map(|(s, t)| (*s, t.as_slice())).collect();
            let previous = estimator.trim();
            let estimate = estimator.observe(&observed);
            drop(observed);
            estimator_views.clear();
            if estimate.trim != previous {
                if let Some(log) = self.event_log.as_mut() {
                    log.push(RoundEvent::BetaAdjusted {
                        round: self.round,
                        previous,
                        trim: estimate.trim,
                        suspects: estimate.suspects,
                    });
                }
            }
            beta_hat = Some(estimate.trim);
            adaptive = Some(AdaptiveTrimmedMean::new(estimate.trim));
        }

        // 5. Client-side filtering (lines 12–13): w_{t+1,0}^k = Def(ã…),
        // over however many models survive the faults, block by block
        // through the buffer pool.
        let capture_views = self.record_diagnostics && evaluate;
        let filter: &dyn AggregationRule = match adaptive.as_ref() {
            Some(rule) => rule,
            None => self.filter.as_ref(),
        };
        let outcome = phases::filter(phases::FilterCtx {
            transport: self.transport.as_mut(),
            store: &self.store,
            cohort: &cohort,
            active: &active,
            trained: &trained,
            pool: &self.pool,
            filter,
            num_servers,
            byz_servers: match beta_hat {
                Some(trim) => trim,
                None => topo.byzantine_ids().count(),
            },
            round: self.round,
            event_log: self.event_log.as_mut(),
            capture_views,
            on_degraded: self.config.recovery.on_degraded,
            threads: worker_threads,
            beta_hat,
            threat_epoch,
        })?;

        let diagnostics = if capture_views {
            Some(phases::diagnostics(phases::DiagnosticsCtx {
                views: &outcome.first_views,
                filtered0: &outcome.models[0],
                store: &self.store,
                active: &active,
                trained: &trained,
                silent_servers,
                suppressed_duplicates: outcome.suppressed_duplicates,
            })?)
        } else {
            None
        };

        // Commit: install the cohort's filtered models into the bank (the
        // rest of the federation keeps its banked state), advance the
        // round, absorb the transport's counters.
        for (&k, model) in cohort.iter().zip(outcome.models) {
            self.store.set_model(k, model)?;
        }
        self.store.sweep();
        self.round += 1;
        let comm = self.transport.take_comm();
        self.result.total_comm += comm;

        // 6. Evaluation: mean test accuracy of the local models.
        if evaluate {
            let mean_accuracy = match local_accuracy {
                Some(acc) => acc,
                None => self.mean_accuracy_over(None)?,
            };
            self.result.rounds.push(RoundMetrics {
                round: self.round - 1,
                mean_accuracy,
                mean_train_loss: mean_train_loss as f32,
                comm,
                diagnostics,
            });
        }
        Ok(())
    }

    /// Mean test accuracy over the configured number of **benign** clients
    /// (Byzantine clients train on purpose-poisoned objectives; excluding
    /// them from the quality metric is the robust-FL convention).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns [`SimError::BadConfig`] if
    /// every client is Byzantine.
    pub fn evaluate_mean_accuracy(&self) -> Result<f32> {
        self.mean_accuracy_over(None)
    }

    /// Accuracy over the banked models, with `overrides` substituting the
    /// freshly trained vectors for this round's active clients (both
    /// slices sorted by client id, aligned with each other).
    fn mean_accuracy_over(&self, overrides: Option<(&[usize], &[Tensor])>) -> Result<f32> {
        let mut indices: Vec<usize> =
            (0..self.store.num_clients()).filter(|&i| self.client_attacks[i].is_none()).collect();
        if indices.is_empty() {
            return Err(SimError::BadConfig("no benign clients to evaluate".into()));
        }
        if self.config.eval_clients != 0 {
            indices.truncate(self.config.eval_clients);
        }
        let store = &self.store;
        let samples = &self.test_samples;
        let labels = &self.test_labels;
        let results = phases::map_in_order(indices, self.worker_threads(), |k| {
            let vector = match overrides {
                Some((active, trained)) => match active.binary_search(&k) {
                    Ok(pos) => &trained[pos],
                    Err(_) => store.model(k),
                },
                None => store.model(k),
            };
            let mut model = store.build_model()?;
            model.set_param_vector(vector)?;
            Ok::<f32, SimError>(model.evaluate(samples, labels)?)
        });
        let mut accs = Vec::with_capacity(results.len());
        for res in results {
            accs.push(res?);
        }
        Ok((accs.iter().map(|&a| a as f64).sum::<f64>() / accs.len() as f64) as f32)
    }

    /// Resolves the effective worker-thread count for the client-parallel
    /// phases: 1 when `parallel` is off, the configured count when set,
    /// one per available core otherwise.
    fn worker_threads(&self) -> usize {
        if !self.config.parallel {
            1
        } else if self.config.threads != 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4)
        }
    }
}

#[cfg(test)]
mod tests;
