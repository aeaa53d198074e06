//! The federated edge learning (FEEL) network simulator.
//!
//! This crate is the substrate on which the Fed-MS algorithm (in
//! `fedms-core`) runs: a deterministic, single-process simulation of the
//! paper's system model — `K` end clients, `P` edge parameter servers of
//! which `B` are Byzantine, synchronized rounds of local training → sparse
//! upload → aggregation → dissemination → client-side filtering.
//!
//! Main pieces:
//!
//! * [`Topology`] — client/server counts and the (hidden) Byzantine set,
//! * [`UploadStrategy`] — the paper's sparse upload, plus full and
//!   k-redundant ablations,
//! * [`Client`] / [`Server`] — stateful simulation entities,
//! * [`Partitions`] — explicit or procedural (`O(1)`-storage) per-client
//!   data assignment; the engine stores clients as metadata and rehydrates
//!   them lazily, so memory follows the per-round cohort
//!   ([`EngineConfig::cohort`]), not the federation size,
//! * [`Transport`] / [`LocalTransport`] — the message layer: typed
//!   [`Upload`]/[`Broadcast`] protocol messages, delivery outcomes,
//!   fault realization and all [`CommStats`] accounting,
//! * [`net::NetTransport`] — the concurrent message-passing transport:
//!   versioned wire frames moved to a decoding actor over a bounded
//!   channel (or loopback TCP), under a seed-deterministic
//!   latency/bandwidth model ([`net::NetModel`]); both transports decide
//!   every message fate through one shared delivery core,
//! * [`ResilientTransport`] / [`RecoveryPolicy`] — the recovery layer:
//!   deadline-driven retries with seed-deterministic backoff, and upload
//!   failover to alternate servers, layered over any transport,
//! * [`SimulationEngine`] — a thin orchestrator that runs each round as an
//!   explicit phase pipeline (train → upload → aggregate → disseminate →
//!   filter) over the transport, generic over the client-side model filter
//!   (`Def(·)`) and per-server attacks,
//! * [`CommStats`] — message/byte accounting (the communication-efficiency
//!   claims of Section IV-A),
//! * [`RoundMetrics`] / [`RunResult`] — per-round accuracy/loss series, the
//!   data behind every accuracy figure in the paper.
//!
//! Determinism: every stochastic decision (mini-batches, upload choices,
//! attack noise) draws from an RNG stream derived from one experiment seed
//! via [`fedms_tensor::rng`], so runs are bit-reproducible — including under
//! the optional scoped-thread parallel client training.

mod client;
mod comm;
mod delivery;
mod engine;
mod error;
mod events;
mod fault;
mod metrics;
mod model_spec;
pub mod net;
mod phases;
mod recovery;
mod server;
mod store;
mod threat;
mod topology;
mod transport;
mod upload;

pub use client::Client;
pub use comm::CommStats;
pub use engine::{EngineConfig, SimulationEngine, Snapshot, SNAPSHOT_VERSION};
pub use error::SimError;
pub use events::{EventLog, RoundEvent};
pub use fault::{FaultClass, FaultPlan, FaultSpec, ServerFault};
pub use metrics::{RoundDiagnostics, RoundMetrics, RunResult, RunSummary};
pub use model_spec::ModelSpec;
pub use net::{NetModel, NetStats, NetTransport, WireError, FRAME_VERSION};
pub use phases::sample_cohort;
pub use recovery::{
    downlink_id, uplink_id, DegradedMode, RecoveryPolicy, ResilientTransport, UploadReport,
};
pub use server::Server;
pub use store::Partitions;
pub use threat::{NetThreat, ThreatEpoch, ThreatSchedule, ThreatView, DEFAULT_COMPROMISE_ATTACK};
pub use topology::Topology;
pub use transport::{
    Broadcast, Delivery, DeliveryOutcome, Dissemination, LocalTransport, Transport, Upload,
};
pub use upload::UploadStrategy;

/// Crate-wide `Result` alias using [`SimError`].
pub type Result<T> = std::result::Result<T, SimError>;
