//! Datasets and non-iid partitioning for the Fed-MS reproduction.
//!
//! The paper evaluates on CIFAR-10 split across 50 clients with a Dirichlet
//! partitioner (Hsu et al., 2019). This crate provides:
//!
//! * [`SynthVision`] — a seeded 10-class synthetic image dataset standing in
//!   for CIFAR-10 (see DESIGN.md for the substitution argument),
//! * [`Dataset`] — an in-memory sample store with batching and subsetting,
//! * [`DirichletPartitioner`] — the `D_α` non-iid splitter from the paper,
//! * [`LabelHistogram`] — per-client class statistics (Figure 4), and
//! * [`BatchSampler`] — seeded mini-batch index streams for local SGD.
//!
//! # Example
//!
//! ```
//! use fedms_data::{DirichletPartitioner, SynthVisionConfig};
//!
//! let (train, _test) = SynthVisionConfig::small().generate(7)?;
//! let parts = DirichletPartitioner::new(10.0)?.partition(&train, 5, 7)?;
//! assert_eq!(parts.len(), 5);
//! assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), train.len());
//! # Ok::<(), fedms_data::DataError>(())
//! ```

mod dataset;
mod error;
mod histogram;
mod partition;
mod sampler;
mod synth;

pub use dataset::Dataset;
pub use error::DataError;
pub use histogram::LabelHistogram;
pub use partition::{mean_tv_distance, DirichletPartitioner};
pub use sampler::BatchSampler;
pub use synth::{SynthVision, SynthVisionConfig};

/// Crate-wide `Result` alias using [`DataError`].
pub type Result<T> = std::result::Result<T, DataError>;
