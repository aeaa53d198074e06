//! Real concurrent message-passing: the network transport layer.
//!
//! This module is the second [`crate::Transport`] implementation (ROADMAP
//! item "a second Transport implementation over threads/sockets"):
//!
//! * [`wire`] — the length-prefixed, versioned frame protocol
//!   ([`FRAME_VERSION`], typed [`WireError`] decode errors),
//! * [`model`] — the seed-deterministic latency/bandwidth/jitter model
//!   ([`NetModel`]; [`NetModel::ideal`] is the zero-delay oracle
//!   configuration),
//! * [`transport`] — [`NetTransport`]: frames moved over a bounded
//!   in-process channel to one decoding actor, every fate decided by the
//!   delivery core `LocalTransport` shares,
//! * [`tcp`] — the loopback-TCP mode behind `fedms serve` /
//!   `fedms client` ([`TcpRound`], [`run_client`]).
//!
//! The contract that keeps all of this honest: under [`NetModel::ideal`]
//! a `NetTransport` round produces the same delivered-message multiset and
//! [`crate::CommStats`] totals as [`crate::LocalTransport`] — by
//! construction, since both run the same delivery core, and guarded by
//! the property tests in `crates/sim/tests/net.rs` — while a non-trivial
//! model makes straggler and deadline-miss outcomes *emerge* from delay
//! arithmetic instead of fault injection.

pub mod model;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use model::NetModel;
pub use tcp::{run_client, TcpRound, TcpRoundReport};
pub use transport::{NetStats, NetTransport};
pub use wire::{Frame, WireError, FRAME_VERSION};
