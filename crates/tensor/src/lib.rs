//! Dense `f32` tensor substrate for the Fed-MS reproduction.
//!
//! This crate provides the numerical foundation shared by every other crate
//! in the workspace: a contiguous, row-major [`Tensor`] type with the
//! elementwise arithmetic, linear algebra ([`Tensor::matmul`]), convolution
//! lowering ([`im2col`]/[`col2im`]) and reduction operations needed to train
//! small neural networks from scratch, the bit-exact slice [`kernels`]
//! behind them, and deterministic random-number utilities ([`rng`]) used to
//! fan a single experiment seed out to every client, server and attack in a
//! simulation.
//!
//! # Example
//!
//! ```
//! use fedms_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), fedms_tensor::TensorError>(())
//! ```

mod backend;
mod conv;
mod error;
pub mod kernels;
mod ops;
pub mod pool;
pub mod rng;
mod shape;
mod tensor;

pub use backend::BackendKind;
pub use conv::{col2im, im2col, Conv2dGeometry};
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide `Result` alias using [`TensorError`].
pub type Result<T> = std::result::Result<T, TensorError>;
