//! Concrete layer implementations.

mod activation;
mod conv;
mod linear;
mod pool;
mod sequential;

pub use activation::{LeakyReLU, ReLU, ReLU6};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use linear::Linear;
pub use pool::{Flatten, GlobalAvgPool};
pub use sequential::Sequential;
