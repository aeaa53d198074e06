//! Versioned bit-exact checkpointing of a running federation.

use fedms_tensor::Tensor;
use serde::{Deserialize, Serialize};

use super::SimulationEngine;
use crate::{Result, RunResult, Server, SimError};

/// The snapshot layout produced by this build; [`SimulationEngine::restore`]
/// accepts this version and the dense version-1 layout, and rejects
/// anything else with [`SimError::SnapshotVersion`].
///
/// Version history:
/// * **1** — dense `client_models`: one tensor per client.
/// * **2** — interned model bank: `model_pool` (distinct vectors) +
///   `model_refs` (one `u32` per client). Snapshot size scales with the
///   number of *distinct* client states, which cohort-sampled
///   million-client runs keep far below `K`.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A bit-exact checkpoint of a running federation: everything that evolves
/// during training and is not re-derivable from the configuration.
///
/// Because every stochastic stream in the engine is a pure function of
/// `(seed, round, entity)`, restoring a snapshot into a freshly built
/// engine (same config, datasets and adversaries) and continuing produces
/// results identical to the uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]). Serde-defaulted to
    /// 0, so snapshots that predate versioning are explicitly rejected by
    /// [`SimulationEngine::restore`] rather than silently reinterpreted.
    #[serde(default)]
    pub version: u32,
    /// Completed rounds.
    pub round: usize,
    /// Every client's flat model vector, in client order (version-1
    /// layout; empty in version-2 snapshots, which carry the interned
    /// bank instead).
    #[serde(default)]
    pub client_models: Vec<Tensor>,
    /// The distinct model vectors referenced by `model_refs` (version-2
    /// layout).
    #[serde(default)]
    pub model_pool: Vec<Tensor>,
    /// One index into `model_pool` per client, in client order (version-2
    /// layout).
    #[serde(default)]
    pub model_refs: Vec<u32>,
    /// Per-server evolving state: (attack history, last aggregate,
    /// straggler outbox).
    pub server_state: Vec<(Vec<Tensor>, Option<Tensor>, Vec<Tensor>)>,
    /// Metrics recorded so far.
    pub result: RunResult,
    /// The recovery layer's cross-round state (per-server delivery records
    /// steering failover); empty when recovery is disabled, so snapshots
    /// from older builds restore cleanly.
    #[serde(default)]
    pub recovery_state: Vec<u32>,
    /// The online B̂ estimator's per-server suspicion scores; empty when
    /// the estimator is disabled (and in snapshots from older builds,
    /// which restore cleanly with a fresh estimator).
    #[serde(default)]
    pub estimator_scores: Vec<f64>,
    /// The estimator's current trim level, paired with `estimator_scores`.
    #[serde(default)]
    pub estimator_trim: usize,
}

impl SimulationEngine {
    /// Captures a bit-exact checkpoint of the federation's evolving state.
    pub fn snapshot(&self) -> Snapshot {
        let outboxes = self.transport.state_snapshot();
        let (model_pool, model_refs) = self.store.bank_parts();
        Snapshot {
            version: SNAPSHOT_VERSION,
            round: self.round,
            client_models: Vec::new(),
            model_pool,
            model_refs,
            server_state: self
                .servers
                .iter()
                .map(Server::state_snapshot)
                .zip(outboxes)
                .map(|((history, last), outbox)| (history, last, outbox))
                .collect(),
            result: self.result.clone(),
            recovery_state: self.transport.recovery_state(),
            estimator_scores: self
                .estimator
                .as_ref()
                .map(|e| e.scores().to_vec())
                .unwrap_or_default(),
            estimator_trim: self.estimator.as_ref().map(|e| e.trim()).unwrap_or(0),
        }
    }

    /// Restores a checkpoint taken from an engine with the same
    /// configuration, datasets and adversaries. Continuing afterwards is
    /// bit-identical to the uninterrupted run. Both the current interned
    /// layout and the dense version-1 layout are accepted (a v1 snapshot's
    /// models are interned on the way in).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotVersion`] for a snapshot written with an
    /// unknown layout version, and [`SimError::BadConfig`] if the
    /// snapshot's entity counts or model sizes do not match this engine:
    /// that covers every `server_state` tensor, and a non-empty
    /// `recovery_state` or `estimator_scores` must hold one entry per
    /// server. Every check runs before anything is restored, so a rejected
    /// snapshot leaves the engine as it was.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<()> {
        match snapshot.version {
            1 => {
                if snapshot.client_models.len() != self.store.num_clients() {
                    return Err(SimError::BadConfig(format!(
                        "snapshot has {} clients, engine has {}",
                        snapshot.client_models.len(),
                        self.store.num_clients()
                    )));
                }
                if snapshot.client_models.iter().any(|m| m.len() != self.store.model_len()) {
                    return Err(SimError::BadConfig(
                        "snapshot model size does not match the engine's model".into(),
                    ));
                }
            }
            SNAPSHOT_VERSION => {
                if snapshot.model_refs.len() != self.store.num_clients() {
                    return Err(SimError::BadConfig(format!(
                        "snapshot has {} clients, engine has {}",
                        snapshot.model_refs.len(),
                        self.store.num_clients()
                    )));
                }
                if snapshot.model_pool.iter().any(|m| m.len() != self.store.model_len()) {
                    return Err(SimError::BadConfig(
                        "snapshot model size does not match the engine's model".into(),
                    ));
                }
                if snapshot.model_refs.iter().any(|&r| r as usize >= snapshot.model_pool.len()) {
                    return Err(SimError::BadConfig(
                        "snapshot model reference out of range of its model pool".into(),
                    ));
                }
            }
            other => {
                return Err(SimError::SnapshotVersion { found: other, expected: SNAPSHOT_VERSION });
            }
        }
        if snapshot.server_state.len() != self.servers.len() {
            return Err(SimError::BadConfig(format!(
                "snapshot has {} servers, engine has {}",
                snapshot.server_state.len(),
                self.servers.len()
            )));
        }
        let servers = self.servers.len();
        for (field, len) in [
            ("recovery_state", snapshot.recovery_state.len()),
            ("estimator_scores", snapshot.estimator_scores.len()),
        ] {
            if len != 0 && len != servers {
                return Err(SimError::BadConfig(format!(
                    "snapshot {field} has {len} entries, engine has {servers} servers"
                )));
            }
        }
        let model_len = self.store.model_len();
        for (id, (history, last, outbox)) in snapshot.server_state.iter().enumerate() {
            for (part, tensors) in [
                ("history", history.as_slice()),
                ("last aggregate", last.as_slice()),
                ("outbox", outbox.as_slice()),
            ] {
                if tensors.iter().any(|t| t.len() != model_len) {
                    return Err(SimError::BadConfig(format!(
                        "snapshot server_state[{id}] {part} size does not match the engine's model"
                    )));
                }
            }
        }
        if snapshot.version == 1 {
            self.store.restore_dense(&snapshot.client_models);
        } else {
            self.store.restore_parts(snapshot.model_pool.clone(), snapshot.model_refs.clone());
        }
        let mut outboxes = Vec::with_capacity(snapshot.server_state.len());
        for (server, (history, last, outbox)) in
            self.servers.iter_mut().zip(snapshot.server_state.iter())
        {
            server.restore_state(history.clone(), last.clone());
            outboxes.push(outbox.clone());
        }
        self.transport.restore_state(outboxes);
        self.transport.restore_recovery_state(snapshot.recovery_state.clone());
        if let Some(estimator) = self.estimator.as_mut() {
            // Pre-estimator snapshots carry no scores; a fresh estimator is
            // the right state for them.
            if !snapshot.estimator_scores.is_empty() {
                estimator.restore(snapshot.estimator_scores.clone(), snapshot.estimator_trim);
            }
        }
        self.round = snapshot.round;
        self.result = snapshot.result.clone();
        Ok(())
    }
}
