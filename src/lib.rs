//! # Fed-MS — fault tolerant federated edge learning with multiple Byzantine servers
//!
//! A from-scratch Rust reproduction of *Fed-MS: Fault Tolerant Federated
//! Edge Learning with Multiple Byzantine Servers* (Qi, Ma, Zou, Yuan, Li,
//! Yu — ICDCS 2024).
//!
//! The paper asks: what happens to federated learning when the **parameter
//! servers themselves** may be Byzantine? Its answer — multiple servers,
//! sparse uploading, and a client-side trimmed-mean model filter — is
//! implemented here on top of a complete, deterministic, pure-Rust stack:
//!
//! * [`tensor`] — dense `f32` tensors, matmul, im2col, seeded RNG streams,
//! * [`nn`] — hand-differentiated layers, SGD, an MLP and a miniature
//!   MobileNetV2,
//! * [`data`] — a synthetic CIFAR-10 stand-in and the Dirichlet `D_α`
//!   non-iid partitioner,
//! * [`aggregation`] — trimmed mean (the Fed-MS filter), median, Krum,
//!   geometric median, mean,
//! * [`attacks`] — the paper's Noise/Random/Safeguard/Backward server
//!   attacks plus sign-flip, zero and equivocation,
//! * [`sim`] — the K-client / P-server round-loop simulator with
//!   communication accounting,
//! * [`core`] — the Fed-MS algorithm itself ([`FedMsConfig`]) and the
//!   Theorem-1 theory module,
//! * [`exp`] — declarative sweep specs (`experiments/*.toml`), the
//!   work-stealing parallel scheduler and the resumable run store behind
//!   `fedms exp run`.
//!
//! # Quickstart
//!
//! ```no_run
//! use fedms::{AttackKind, FedMsConfig, FilterKind};
//!
//! // Table II federation; 2 of 10 servers Byzantine with the Random attack.
//! let mut cfg = FedMsConfig::paper_defaults(42)?;
//! cfg.byzantine_count = 2;
//! cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
//! cfg.filter = FilterKind::TrimmedMean { beta: 0.2 };
//! let result = cfg.run()?;
//! println!("final mean accuracy: {:?}", result.final_accuracy());
//! # Ok::<(), fedms::CoreError>(())
//! ```
//!
//! Run `cargo run --release --example quickstart` for the end-to-end demo,
//! and see `crates/bench/src/bin/` for the binaries that regenerate every
//! table and figure of the paper.

pub use fedms_aggregation as aggregation;
pub use fedms_attacks as attacks;
pub use fedms_core as core;
pub use fedms_data as data;
pub use fedms_exp as exp;
pub use fedms_nn as nn;
pub use fedms_sim as sim;
pub use fedms_tensor as tensor;

pub use fedms_aggregation::{
    AdaptiveTrimmedMean, AggregationRule, Bulyan, ByzantineEstimator, CenteredClip,
    CoordinateMedian, Estimate, EstimatorPolicy, GeometricMedian, Krum, Mean, MultiKrum, NormBound,
    TrimmedMean,
};
pub use fedms_attacks::{
    AlieAttack, AttackContext, AttackKind, BackwardAttack, Benign, ClientAttack,
    ClientAttackContext, ClientAttackKind, Equivocation, IpmAttack, NoiseAttack, RandomAttack,
    RotatingAttack, SafeguardAttack, ServerAttack, SignFlipAttack, ZeroAttack,
};
pub use fedms_core::{theory, CoreError, FedMsConfig, FilterKind, TransportKind};
pub use fedms_data::{
    BatchSampler, Dataset, DirichletPartitioner, LabelHistogram, SynthVision, SynthVisionConfig,
};
pub use fedms_nn::{
    Layer, LrSchedule, Mlp, MobileNetNano, MobileNetNanoConfig, NeuralNet, Sequential, Sgd,
};
pub use fedms_sim::{
    CommStats, DegradedMode, EngineConfig, EventLog, FaultClass, FaultPlan, FaultSpec,
    LocalTransport, ModelSpec, NetModel, NetStats, NetThreat, NetTransport, RecoveryPolicy,
    ResilientTransport, RoundDiagnostics, RoundEvent, RoundMetrics, RunResult, RunSummary,
    ServerFault, SimError, SimulationEngine, Snapshot, ThreatEpoch, ThreatSchedule, ThreatView,
    Topology, Transport, UploadReport, UploadStrategy, WireError,
};
pub use fedms_tensor::{BackendKind, Shape, Tensor, TensorError};
