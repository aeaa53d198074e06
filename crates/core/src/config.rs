//! End-to-end Fed-MS experiment configuration.

use fedms_aggregation::EstimatorPolicy;
use fedms_attacks::{AttackKind, ClientAttack, ClientAttackKind, ServerAttack};
use fedms_data::{DirichletPartitioner, SynthVisionConfig};
use fedms_nn::LrSchedule;
use fedms_sim::{
    EngineConfig, FaultPlan, FaultSpec, LocalTransport, ModelSpec, NetModel, NetTransport,
    Partitions, RecoveryPolicy, RunResult, SimulationEngine, ThreatSchedule, Topology, Transport,
    UploadStrategy,
};
use fedms_tensor::rng::derive_seed;
use fedms_tensor::BackendKind;
use serde::{Deserialize, Serialize};

use crate::{CoreError, FilterKind, Result};

/// A complete, serializable description of one Fed-MS experiment: the
/// federation (K, P, B), the Byzantine behaviour, the client-side filter,
/// the learning task and all training hyper-parameters.
///
/// [`FedMsConfig::paper_defaults`] reproduces Table II of the paper:
/// `K = 50` clients, `P = 10` servers, `E = 3` local iterations, Dirichlet
/// `D_α = 10`, sparse uploading, 60 training epochs, with `B`, the attack
/// and the trim rate left for each experiment to set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedMsConfig {
    /// Number of clients `K`.
    pub clients: usize,
    /// Number of parameter servers `P`.
    pub servers: usize,
    /// Number of Byzantine servers `B` (placed uniformly at random).
    pub byzantine_count: usize,
    /// The behaviour mounted on every Byzantine server.
    pub attack: AttackKind,
    /// Whether Byzantine servers equivocate (send different models to
    /// different clients — the paper's worst case).
    pub equivocate: bool,
    /// The client-side model filter `Def(·)`.
    pub filter: FilterKind,
    /// Client→server upload strategy.
    pub upload: UploadStrategy,
    /// Local SGD iterations per round (`E`).
    pub local_epochs: usize,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Dirichlet concentration `D_α` for the non-iid partition.
    pub dirichlet_alpha: f64,
    /// Number of training rounds (the paper's "epochs").
    pub rounds: usize,
    /// The synthetic dataset standing in for CIFAR-10.
    pub dataset: SynthVisionConfig,
    /// The training model standing in for MobileNet V2.
    pub model: ModelSpec,
    /// Root seed for the whole experiment.
    pub seed: u64,
    /// Evaluate every `eval_every` rounds.
    pub eval_every: usize,
    /// Clients averaged for the accuracy metric (0 = all).
    pub eval_clients: usize,
    /// Multi-threaded client training (bit-identical results).
    pub parallel: bool,
    /// Worker-thread count for the client-parallel phases when `parallel`
    /// is on: 0 picks one thread per available core. Any count produces
    /// bit-identical results.
    #[serde(default)]
    pub threads: usize,
    /// Evaluate the clients' local models right after local training (the
    /// paper's metric) instead of the post-filter models.
    pub eval_after_local: bool,
    /// Number of Byzantine *clients* (extension beyond the paper: its
    /// stated future work). Placed uniformly at random.
    pub byzantine_clients: usize,
    /// The behaviour mounted on every Byzantine client.
    pub client_attack: ClientAttackKind,
    /// The aggregation rule benign servers apply to client uploads (the
    /// paper uses the plain mean; a robust rule defends against Byzantine
    /// clients).
    pub server_filter: FilterKind,
    /// Per-round client participation fraction in `(0, 1]` (1.0 = every
    /// client trains every round, the paper's setting).
    pub participation: f64,
    /// Record per-round defence diagnostics
    /// ([`fedms_sim::RoundDiagnostics`]).
    pub record_diagnostics: bool,
    /// Probability in `[0, 1)` that any single upload message is lost in
    /// transit (lossy outdoor edge links; 0 = the paper's reliable
    /// channel).
    pub upload_drop_rate: f64,
    /// Benign-fault scenario (crashed/straggler servers, lossy downlinks).
    /// The concrete victims are sampled from the run seed at build time;
    /// the default injects no faults.
    #[serde(default)]
    pub fault: FaultSpec,
    /// Transport recovery policy (deadline-driven retries, backoff and
    /// upload failover). Disabled by default, which keeps delivery
    /// bit-identical to the bare transport.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
    /// Per-round cohort size: each round uniformly samples this many
    /// clients to train, upload and filter; the rest keep their current
    /// model. 0 (the default, the paper's setting) runs every client every
    /// round. Round memory and time scale with the cohort, which is what
    /// makes `K = 10⁶` federations simulable.
    #[serde(default)]
    pub cohort: usize,
    /// The delivery substrate: the synchronous in-process transport (the
    /// default, and the CI oracle) or the concurrent message-passing
    /// transport moving wire frames through an actor thread under
    /// [`FedMsConfig::net_model`].
    #[serde(default)]
    pub transport: TransportKind,
    /// Latency/bandwidth model of the `net` transport (ignored by
    /// `local`). The default ideal model keeps every delay at zero, which
    /// makes the two transports bit-identical; [`NetModel::edge`]-style
    /// settings make stragglers and deadline misses emerge from the
    /// network itself.
    #[serde(default)]
    pub net_model: NetModel,
    /// When positive, replaces the Dirichlet partition with a procedural
    /// uniform partition: every client draws this many samples (with
    /// replacement, on its own seed stream) from the training set, at
    /// `O(1)` storage per client. Required beyond ~10⁵ clients, where
    /// materializing explicit index lists stops being feasible.
    #[serde(default)]
    pub shard_samples: usize,
    /// Dynamic threat schedule: per-round epochs that compromise honest
    /// servers mid-run, partition links and corrupt wire frames
    /// ([`ThreatSchedule`]; parse one from the CLI grammar with
    /// [`ThreatSchedule::parse`]). Trivial by default.
    #[serde(default)]
    pub threat: ThreatSchedule,
    /// Online Byzantine-count estimator driving the adaptive trimmed-mean
    /// defence ([`EstimatorPolicy`]). Disabled by default, which keeps the
    /// configured `filter` in charge.
    #[serde(default)]
    pub estimator: EstimatorPolicy,
    /// The backend selection ([`fedms_tensor::BackendKind`]): `Scalar`, the
    /// only value, so no spec key or `fedms run` flag sets it; a JSON
    /// config may name it. Nothing reads it; every client runs the kernels
    /// in `fedms_tensor::kernels`. It stays because this config serialises
    /// it into every config hash.
    #[serde(default)]
    pub backend: BackendKind,
}

/// Which delivery substrate [`FedMsConfig::build_engine`] hands to the
/// engine's phase pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// The synchronous in-process [`LocalTransport`] — the CI oracle.
    #[default]
    Local,
    /// The concurrent message-passing [`NetTransport`]: versioned wire
    /// frames moved over a bounded channel to a decoding actor, under the
    /// config's [`FedMsConfig::net_model`].
    Net,
}

impl FedMsConfig {
    /// Table II defaults with no Byzantine servers and the Fed-MS filter at
    /// the paper's `β = 0.2`.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in defaults; the `Result` mirrors the
    /// fallible construction path used by customised configurations.
    pub fn paper_defaults(seed: u64) -> Result<Self> {
        Ok(Self::table_ii(seed))
    }

    fn table_ii(seed: u64) -> Self {
        FedMsConfig {
            clients: 50,
            servers: 10,
            byzantine_count: 0,
            attack: AttackKind::Noise { std: 1.0 },
            equivocate: false,
            filter: FilterKind::TrimmedMean { beta: 0.2 },
            upload: UploadStrategy::Sparse,
            local_epochs: 3,
            batch_size: 32,
            schedule: LrSchedule::Constant(0.1),
            dirichlet_alpha: 10.0,
            rounds: 60,
            dataset: SynthVisionConfig::default(),
            model: ModelSpec::default_mlp(),
            seed,
            eval_every: 1,
            eval_clients: 0,
            parallel: true,
            threads: 0,
            eval_after_local: true,
            byzantine_clients: 0,
            client_attack: ClientAttackKind::SignFlip { scale: 1.0 },
            server_filter: FilterKind::Mean,
            participation: 1.0,
            record_diagnostics: false,
            upload_drop_rate: 0.0,
            fault: FaultSpec::default(),
            recovery: RecoveryPolicy::disabled(),
            transport: TransportKind::Local,
            net_model: NetModel::ideal(),
            cohort: 0,
            shard_samples: 0,
            threat: ThreatSchedule::none(),
            estimator: EstimatorPolicy::default(),
            backend: BackendKind::Scalar,
        }
    }

    /// A miniature configuration for tests: the Table II defaults shrunk
    /// to 8 clients, 4 servers (β = 0.25), a tiny dataset and model, and
    /// sequential training.
    pub fn tiny(seed: u64) -> Self {
        FedMsConfig {
            clients: 8,
            servers: 4,
            filter: FilterKind::TrimmedMean { beta: 0.25 },
            local_epochs: 2,
            batch_size: 8,
            rounds: 3,
            dataset: SynthVisionConfig::small(),
            model: ModelSpec::Mlp { widths: vec![16, 8, 4] },
            parallel: false,
            ..Self::table_ii(seed)
        }
    }

    /// The Byzantine fraction ε = B/P.
    pub fn epsilon(&self) -> f64 {
        self.byzantine_count as f64 / self.servers as f64
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an infeasible federation
    /// (`B > P`, more Byzantine clients than clients) or zero rounds;
    /// engine-level validation happens at build time.
    pub fn validate(&self) -> Result<()> {
        if self.byzantine_count > self.servers {
            return Err(CoreError::BadConfig(format!(
                "{} byzantine of {} servers",
                self.byzantine_count, self.servers
            )));
        }
        if self.byzantine_clients >= self.clients {
            return Err(CoreError::BadConfig(format!(
                "{} byzantine of {} clients leaves no benign client",
                self.byzantine_clients, self.clients
            )));
        }
        if self.rounds == 0 {
            return Err(CoreError::BadConfig("rounds must be positive".into()));
        }
        self.fault.validate(self.servers).map_err(CoreError::from)?;
        Ok(())
    }

    /// Builds the live federation: generates the dataset, partitions it,
    /// places the Byzantine servers, instantiates attacks and filter.
    ///
    /// # Errors
    ///
    /// Propagates dataset, partitioning, attack and engine construction
    /// errors.
    pub fn build_engine(&self) -> Result<SimulationEngine> {
        self.validate()?;
        let (train, test) = self.dataset.generate(derive_seed(self.seed, &[0xDA7A]))?;
        // Explicit Dirichlet partitioning is the paper's setup; the
        // procedural uniform partition keeps construction O(1) per client
        // for federations too large to hold index lists for.
        let partitions = if self.shard_samples > 0 {
            Partitions::uniform(
                self.clients,
                train.len(),
                self.shard_samples,
                derive_seed(self.seed, &[0x9A97]),
            )?
        } else {
            Partitions::explicit(DirichletPartitioner::new(self.dirichlet_alpha)?.partition(
                &train,
                self.clients,
                derive_seed(self.seed, &[0x9A97]),
            )?)
        };
        let topology = Topology::with_random_byzantine(
            self.clients,
            self.servers,
            self.byzantine_count,
            derive_seed(self.seed, &[0xB42]),
        )?;
        let mut attacks: Vec<(usize, Box<dyn ServerAttack>)> = Vec::new();
        for id in topology.byzantine_ids() {
            let attack = if self.equivocate {
                self.attack.build_equivocating(derive_seed(self.seed, &[0xEC, id as u64]))?
            } else {
                self.attack.build()?
            };
            attacks.push((id, attack));
        }
        let mut client_attacks: Vec<(usize, Box<dyn ClientAttack>)> = Vec::new();
        if self.byzantine_clients > 0 {
            // Uniform random placement, seeded independently of the servers.
            let mut ids: Vec<usize> = (0..self.clients).collect();
            use rand::seq::SliceRandom;
            let mut rng = fedms_tensor::rng::rng_for(self.seed, &[0xC11E]);
            ids.shuffle(&mut rng);
            for &id in ids.iter().take(self.byzantine_clients) {
                client_attacks.push((id, self.client_attack.build()?));
            }
        }
        let engine_config = EngineConfig {
            topology,
            model: self.model.clone(),
            upload: self.upload,
            local_epochs: self.local_epochs,
            batch_size: self.batch_size,
            schedule: self.schedule,
            seed: self.seed,
            eval_every: self.eval_every,
            eval_clients: self.eval_clients,
            parallel: self.parallel,
            threads: self.threads,
            eval_after_local: self.eval_after_local,
            recovery: self.recovery,
            cohort: self.cohort,
            threat: self.threat.clone(),
            estimator: self.estimator,
            backend: self.backend,
        };
        let byz_client_ids: Vec<usize> = client_attacks.iter().map(|(id, _)| *id).collect();
        let mut engine = SimulationEngine::with_store(
            engine_config,
            &train,
            &test,
            partitions,
            self.filter.build()?,
            self.server_filter.build()?,
            attacks,
            client_attacks,
        )?;
        // Label-flip clients poison their *data*, not their upload.
        if let Some(offset) = self.client_attack.data_poison_offset() {
            for id in byz_client_ids {
                engine.poison_client_labels(id, offset)?;
            }
        }
        engine.set_participation(self.participation)?;
        // The delivery substrate is built explicitly: channel loss and the
        // realized fault plan are transport concerns, configured before the
        // transport is handed to the engine's phase pipeline. Either base
        // transport composes with the recovery decorator.
        let transport = match self.transport {
            TransportKind::Local => {
                self.finish_transport(LocalTransport::new(self.seed, self.clients, self.servers))?
            }
            TransportKind::Net => self.finish_transport(NetTransport::new(
                self.seed,
                self.clients,
                self.servers,
                self.net_model,
            ))?,
        };
        engine.set_transport(transport);
        engine.set_record_diagnostics(self.record_diagnostics);
        Ok(engine)
    }

    /// Installs channel loss and the sampled fault plan on a freshly built
    /// base transport, then wraps it in the recovery layer when the policy
    /// is active.
    fn finish_transport<T: Transport + 'static>(&self, mut base: T) -> Result<Box<dyn Transport>> {
        base.set_upload_drop_rate(self.upload_drop_rate)?;
        if !self.fault.is_trivial() {
            // The victims are a pure function of (spec, seed): FaultPlan
            // sampling draws from its own labelled RNG stream.
            let plan = FaultPlan::sample(&self.fault, self.servers, self.seed)?;
            base.install_fault_plan(plan)?;
        }
        Ok(self.recovery.wrap(base, self.seed, self.clients, self.servers)?)
    }

    /// A stable 64-bit content hash of the full configuration (FNV-1a over
    /// the canonical JSON serialization).
    ///
    /// Two configs hash equal iff they serialize identically, so the hash
    /// is a durable identity for provenance stamps, run-store directory
    /// names and resume lookups. The seed is part of the hash: the same
    /// grid cell under two seeds is two distinct trials.
    pub fn stable_hash(&self) -> u64 {
        let json = serde_json::to_string(self).unwrap_or_default();
        crate::hash::fnv1a64(json.as_bytes())
    }

    /// [`FedMsConfig::stable_hash`] as 16 lowercase hex digits.
    pub fn stable_hash_hex(&self) -> String {
        format!("{:016x}", self.stable_hash())
    }

    /// Runs the full experiment and returns the per-round metrics.
    ///
    /// # Errors
    ///
    /// Propagates construction and training errors.
    pub fn run(&self) -> Result<RunResult> {
        let mut engine = self.build_engine()?;
        Ok(engine.run(self.rounds)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_threat_run_completes() {
        let mut cfg = FedMsConfig::tiny(13);
        cfg.byzantine_count = 1;
        cfg.attack = AttackKind::Noise { std: 1.0 };
        cfg.byzantine_clients = 2;
        cfg.client_attack = ClientAttackKind::SignFlip { scale: 2.0 };
        cfg.server_filter = FilterKind::TrimmedMean { beta: 0.3 };
        let result = cfg.run().unwrap();
        assert_eq!(result.rounds.len(), 3);
        assert!(result.final_accuracy().unwrap().is_finite());
    }

    #[test]
    fn label_flip_clients_run() {
        let mut cfg = FedMsConfig::tiny(15);
        cfg.byzantine_clients = 2;
        cfg.client_attack = ClientAttackKind::LabelFlip { offset: 1 };
        cfg.server_filter = FilterKind::Median;
        let result = cfg.run().unwrap();
        assert!(result.final_accuracy().unwrap().is_finite());
    }

    #[test]
    fn lossy_uplink_run() {
        let mut cfg = FedMsConfig::tiny(16);
        cfg.upload_drop_rate = 0.3;
        let result = cfg.run().unwrap();
        assert!(result.final_accuracy().unwrap().is_finite());
        let mut bad = FedMsConfig::tiny(16);
        bad.upload_drop_rate = 1.0;
        assert!(bad.run().is_err());
    }

    #[test]
    fn partial_participation_run() {
        let mut cfg = FedMsConfig::tiny(14);
        cfg.participation = 0.5;
        cfg.record_diagnostics = true;
        let result = cfg.run().unwrap();
        // 8 clients at 50% → 4 sparse uploads per round over 3 rounds.
        assert_eq!(result.total_comm.upload_messages, 12);
        assert!(result.rounds[0].diagnostics.is_some());
        let mut bad = FedMsConfig::tiny(14);
        bad.participation = 0.0;
        assert!(bad.run().is_err());
    }

    #[test]
    fn validates_byzantine_client_count() {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.byzantine_clients = cfg.clients;
        assert!(cfg.validate().is_err());
        cfg.byzantine_clients = cfg.clients - 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn paper_defaults_match_table_ii() {
        let cfg = FedMsConfig::paper_defaults(0).unwrap();
        assert_eq!(cfg.clients, 50);
        assert_eq!(cfg.servers, 10);
        assert_eq!(cfg.local_epochs, 3);
        assert_eq!(cfg.dirichlet_alpha, 10.0);
        assert_eq!(cfg.rounds, 60);
        assert_eq!(cfg.upload, UploadStrategy::Sparse);
        assert_eq!(cfg.filter, FilterKind::TrimmedMean { beta: 0.2 });
    }

    #[test]
    fn validation() {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.byzantine_count = 5; // > servers = 4
        assert!(cfg.validate().is_err());
        let mut cfg = FedMsConfig::tiny(0);
        cfg.rounds = 0;
        assert!(cfg.validate().is_err());
        assert!(FedMsConfig::tiny(0).validate().is_ok());
    }

    #[test]
    fn epsilon_computation() {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.byzantine_count = 1;
        assert!((cfg.epsilon() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tiny_run_completes_and_is_deterministic() {
        let cfg = FedMsConfig::tiny(5);
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rounds.len(), 3);
        assert!(a.final_accuracy().unwrap() > 0.0);
    }

    #[test]
    fn byzantine_run_with_attack() {
        let mut cfg = FedMsConfig::tiny(6);
        cfg.byzantine_count = 1;
        cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
        let result = cfg.run().unwrap();
        assert_eq!(result.rounds.len(), 3);
    }

    #[test]
    fn equivocating_run_completes() {
        let mut cfg = FedMsConfig::tiny(7);
        cfg.byzantine_count = 1;
        cfg.equivocate = true;
        cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
        let result = cfg.run().unwrap();
        assert_eq!(result.rounds.len(), 3);
    }

    #[test]
    fn stable_hash_tracks_content() {
        let a = FedMsConfig::tiny(1);
        let b = FedMsConfig::tiny(1);
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash_hex().len(), 16);
        let mut c = FedMsConfig::tiny(1);
        c.seed = 2;
        assert_ne!(a.stable_hash(), c.stable_hash(), "seed must be part of the identity");
        let mut d = FedMsConfig::tiny(1);
        d.rounds += 1;
        assert_ne!(a.stable_hash(), d.stable_hash());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = FedMsConfig::paper_defaults(1).unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FedMsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
