//! Neural-network training substrate for the Fed-MS reproduction.
//!
//! The paper trains MobileNet V2 on CIFAR-10 with PyTorch; this crate is the
//! from-scratch Rust equivalent sized for a deterministic CPU reproduction:
//!
//! * a [`Layer`] trait with hand-written forward/backward passes,
//! * dense ([`Linear`]), convolutional ([`Conv2d`], [`DepthwiseConv2d`]),
//!   activation ([`ReLU`], [`ReLU6`]) and pooling ([`GlobalAvgPool`],
//!   [`Flatten`]) layers, composed with [`Sequential`],
//! * softmax cross-entropy loss ([`softmax_cross_entropy`]),
//! * mini-batch SGD ([`Sgd`]) with the paper's decaying step size
//!   `η_t = φ/(γ+t)` ([`LrSchedule::InverseDecay`]),
//! * ready-made models: [`Mlp`] and [`MobileNetNano`] (a miniature
//!   MobileNetV2 with inverted-residual blocks),
//! * convex quadratic objectives ([`convex`]) with known `L`, `μ`, `G`, `σ`
//!   for validating Theorem 1, and
//! * numerical gradient checking ([`gradcheck`]).
//!
//! Every model exposes its parameters as a single flat vector
//! ([`NeuralNet::param_vector`]) — the representation the Fed-MS aggregation
//! layer and the Byzantine attacks operate on.
//!
//! # Example
//!
//! ```
//! use fedms_nn::{Mlp, NeuralNet};
//! use fedms_tensor::Tensor;
//!
//! let mut net = Mlp::new(&[4, 8, 3], 42)?;
//! let x = Tensor::zeros(&[2, 4]); // batch of 2 samples
//! let logits = net.predict(&x)?;
//! assert_eq!(logits.dims(), &[2, 3]);
//! # Ok::<(), fedms_nn::NnError>(())
//! ```

pub mod convex;
mod error;
pub mod gradcheck;
mod layer;
mod layers;
mod loss;
mod models;
mod net;
mod sgd;

pub use error::NnError;
pub use layer::Layer;
pub use layers::{
    Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, LeakyReLU, Linear, ReLU, ReLU6, Sequential,
};
pub use loss::{accuracy, softmax, softmax_cross_entropy, LossOutput};
pub use models::{Mlp, MobileNetNano, MobileNetNanoConfig};
pub use net::{NeuralNet, EVAL_TILE};
pub use sgd::{LrSchedule, Sgd};

/// Crate-wide `Result` alias using [`NnError`].
pub type Result<T> = std::result::Result<T, NnError>;
