//! Robust aggregation rules for federated learning.
//!
//! The Fed-MS clients defend against Byzantine parameter servers with a
//! coordinate-wise **β-trimmed mean** ([`TrimmedMean`]) over the `P` global
//! models they receive each round (the paper's `trmean_β{·}` filter,
//! Algorithm 1 line 13). This crate implements that filter together with the
//! classic baselines the paper positions against:
//!
//! * [`Mean`] — plain FedAvg averaging (the "Vanilla FL" baseline),
//! * [`CoordinateMedian`] — coordinate-wise median (Yin et al., 2018),
//! * [`GeometricMedian`] — smoothed Weiszfeld iteration (Pillutla et al.),
//! * [`Krum`] / [`MultiKrum`] — distance-based selection (Blanchard et al.).
//!
//! All rules implement [`AggregationRule`] and operate on slices of
//! same-shape tensors (flat model parameter vectors in practice).
//!
//! The coordinate-wise rules (trimmed mean, median, Bulyan stage 2) run
//! on the blocked selection kernels in [`kernel`]; the historical
//! sort-per-coordinate code lives on in [`mod@reference`] as the oracle the
//! kernels are property-tested against bit-for-bit.
//!
//! When the Byzantine count is unknown or time-varying, the online
//! [`ByzantineEstimator`] scores each server's disseminated model against
//! the median view and feeds [`AdaptiveTrimmedMean`] a per-round trim
//! count B̂.
//!
//! # Example
//!
//! ```
//! use fedms_aggregation::{AggregationRule, TrimmedMean};
//! use fedms_tensor::Tensor;
//!
//! // The paper's worked example: trmean_0.2{1,2,3,4,5} = 3.
//! let models: Vec<Tensor> =
//!     [1.0f32, 2.0, 3.0, 4.0, 5.0].iter().map(|&v| Tensor::from_slice(&[v])).collect();
//! let filtered = TrimmedMean::new(0.2)?.aggregate(&models)?;
//! assert_eq!(filtered.as_slice(), &[3.0]);
//! # Ok::<(), fedms_aggregation::AggError>(())
//! ```

mod bulyan;
mod clipping;
mod error;
mod estimate;
mod geomedian;
pub mod kernel;
mod krum;
mod mean;
mod median;
mod normbound;
pub mod reference;
mod rule;
mod trimmed;

pub use bulyan::Bulyan;
pub use clipping::CenteredClip;
pub use error::AggError;
pub use estimate::{ByzantineEstimator, Estimate, EstimatorPolicy};
pub use geomedian::GeometricMedian;
pub use krum::{Krum, MultiKrum};
pub use mean::{Mean, MeanAccumulator};
pub use median::CoordinateMedian;
pub use normbound::NormBound;
pub use rule::AggregationRule;
pub use trimmed::{trimmed_mean_scalars, AdaptiveTrimmedMean, TrimmedMean};

/// Crate-wide `Result` alias using [`AggError`].
pub type Result<T> = std::result::Result<T, AggError>;
