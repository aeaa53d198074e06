//! The [`Layer`] trait: hand-written reverse-mode differentiation.

use fedms_tensor::{BackendHandle, Tensor};

use crate::Result;

/// A differentiable network layer.
///
/// The contract is the classic cached-activation scheme:
///
/// 1. [`Layer::forward`] computes the output for a batch and, in training
///    mode ([`Layer::set_training`]), caches whatever it needs for the
///    backward pass.
/// 2. [`Layer::backward`] consumes the gradient of the loss with respect to
///    the layer's *output*, **accumulates** gradients into the layer's
///    parameter-gradient buffers, and returns the gradient with respect to
///    the layer's *input*.
/// 3. [`Layer::zero_grads`] resets the accumulated gradients between
///    mini-batches.
///
/// Parameters and their gradients are exposed positionally; position `i` of
/// [`Layer::params`] corresponds to position `i` of [`Layer::grads`] and of
/// [`Layer::params_mut`]. Layers without parameters return empty vectors.
///
/// The trait is object-safe: models are `Vec<Box<dyn Layer>>`.
pub trait Layer: Send {
    /// A short human-readable layer name used in error messages.
    fn name(&self) -> &'static str;

    /// Computes the layer output for `input`, caching the activations
    /// [`Layer::backward`] needs when in training mode.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` has the wrong shape for this layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::NoForwardCache`] if called before
    /// [`Layer::forward`], or a tensor error if `grad_out` has the wrong
    /// shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out` into the parameter gradients only: the
    /// same accumulation as [`Layer::backward`], bit for bit, without the
    /// gradient w.r.t. the input. [`crate::NeuralNet::train_batch`] calls
    /// it on the whole model, whose first layer's input gradient nobody
    /// reads.
    ///
    /// The default runs [`Layer::backward`] and drops its result. Layers
    /// whose input gradient costs a GEMM skip it, and containers run
    /// `backward` through every layer but the first.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
    }

    /// The layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access to the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// The accumulated parameter gradients, aligned with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters in this layer.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Switches between training (`true`, the mode every layer starts in)
    /// and inference behaviour. Containers must propagate the call.
    ///
    /// In inference mode the layers of [`crate::Mlp`] and
    /// [`crate::MobileNetNano`] (linear, convolutions, activations, global
    /// average pooling and the inverted-residual blocks) keep no backward
    /// cache: they compute the same output bits as in training, and a
    /// [`Layer::backward`] right after an inference forward returns
    /// [`crate::NnError::NoForwardCache`]. The default is a no-op for
    /// mode-free layers such as [`crate::Flatten`].
    fn set_training(&mut self, _training: bool) {}

    /// Routes this layer's dense kernels through `backend`. Layers whose
    /// hot path is elementwise (activations, pooling) ignore it (default
    /// no-op); matmul/conv layers store the handle, and containers must
    /// propagate the call to their children.
    fn set_backend(&mut self, _backend: BackendHandle) {}

    /// The compute backend this layer currently runs on (the scalar
    /// reference backend unless [`Layer::set_backend`] changed it).
    fn backend(&self) -> BackendHandle {
        BackendHandle::scalar()
    }
}
