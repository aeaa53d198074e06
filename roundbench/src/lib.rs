//! Round-level benchmark of the Fed-MS reproduction.
//!
//! Three closed-loop workloads — `nano_paper`, `mlp_edge_faults` and
//! `sweep_fig3` ([`workloads`]) — are driven in-process through the
//! program's public API. An untraced run reports the end-to-end metrics
//! of `BENCHMARK.json`; a traced run wraps the engine's transport, rules
//! and attacks in timing decorators ([`timed`]), records spans
//! ([`trace`]), times `fedms-nn` layers directly ([`profile`]) and reports
//! the per-layer metrics ([`run`]).

pub mod profile;
pub mod run;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
