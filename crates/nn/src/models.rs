//! Ready-made model architectures: [`Mlp`] and [`MobileNetNano`].

use fedms_tensor::rng::rng_for;
use fedms_tensor::{BackendHandle, Conv2dGeometry, Tensor};
use serde::{Deserialize, Serialize};

use crate::{
    Conv2d, DepthwiseConv2d, GlobalAvgPool, Layer, Linear, NnError, ReLU, ReLU6, Result, Sequential,
};

/// A multi-layer perceptron: `Linear → ReLU → … → Linear`.
///
/// This is the fast model used by the experiment harness (the paper's
/// attack/defence dynamics act on the flat parameter vector and are
/// architecture-agnostic; see DESIGN.md).
///
/// # Example
///
/// ```
/// use fedms_nn::{Layer, Mlp};
///
/// let net = Mlp::new(&[192, 64, 10], 0)?;
/// assert!(net.num_params() > 10_000);
/// # Ok::<(), fedms_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Mlp {
    seq: Sequential,
    widths: Vec<usize>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths (input first, classes
    /// last), deterministically initialised from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if fewer than two widths are given or
    /// any width is zero.
    pub fn new(widths: &[usize], seed: u64) -> Result<Self> {
        if widths.len() < 2 {
            return Err(NnError::BadConfig("mlp needs at least input and output widths".into()));
        }
        if widths.contains(&0) {
            return Err(NnError::BadConfig("mlp widths must be positive".into()));
        }
        let mut rng = rng_for(seed, &[0x4D4C50]); // "MLP"
        let mut seq = Sequential::new();
        for (i, pair) in widths.windows(2).enumerate() {
            seq.push(Box::new(Linear::new(pair[0], pair[1], &mut rng)?));
            if i + 2 < widths.len() {
                seq.push(Box::new(ReLU::new()));
            }
        }
        Ok(Mlp { seq, widths: widths.to_vec() })
    }

    /// The layer widths this MLP was built with.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }
}

impl Layer for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn set_training(&mut self, training: bool) {
        self.seq.set_training(training)
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.seq.forward(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.seq.backward(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.seq.backward_params(grad_out)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.seq.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.seq.params_mut()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.seq.grads()
    }

    fn zero_grads(&mut self) {
        self.seq.zero_grads()
    }

    fn set_backend(&mut self, backend: BackendHandle) {
        self.seq.set_backend(backend)
    }

    fn backend(&self) -> BackendHandle {
        self.seq.backend()
    }
}

/// One MobileNetV2 inverted-residual block: pointwise expansion → ReLU6 →
/// depthwise 3×3 → ReLU6 → pointwise projection, with a residual connection
/// when the input and output shapes agree (stride 1, equal channels).
///
/// The skip path passes the output gradient straight through, so the block
/// caches nothing of its own: its backward cache is the body's.
struct InvertedResidual {
    body: Sequential,
    use_residual: bool,
}

impl InvertedResidual {
    fn new(
        in_channels: usize,
        out_channels: usize,
        expansion: usize,
        h: usize,
        w: usize,
        stride: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<(Self, usize, usize)> {
        let hidden = in_channels * expansion;
        let expand_geom = Conv2dGeometry::new(in_channels, h, w, 1, 1, 0)?;
        let dw_geom = Conv2dGeometry::new(hidden, h, w, 3, stride, 1)?;
        let (oh, ow) = (dw_geom.out_h, dw_geom.out_w);
        let project_geom = Conv2dGeometry::new(hidden, oh, ow, 1, 1, 0)?;
        let body = Sequential::new()
            .with(Conv2d::new(expand_geom, hidden, rng)?)
            .with(ReLU6::new())
            .with(DepthwiseConv2d::new(dw_geom, rng)?)
            .with(ReLU6::new())
            .with(Conv2d::new(project_geom, out_channels, rng)?);
        let use_residual = stride == 1 && in_channels == out_channels;
        Ok((InvertedResidual { body, use_residual }, oh, ow))
    }
}

impl Layer for InvertedResidual {
    fn name(&self) -> &'static str {
        "inverted_residual"
    }

    fn set_training(&mut self, training: bool) {
        self.body.set_training(training)
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut out = self.body.forward(input)?;
        if self.use_residual {
            out.add_inplace(input)?;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad_in = self.body.backward(grad_out)?;
        if self.use_residual {
            grad_in.add_inplace(grad_out)?;
        }
        Ok(grad_in)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.body.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.body.params_mut()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.body.grads()
    }

    fn zero_grads(&mut self) {
        self.body.zero_grads()
    }

    fn set_backend(&mut self, backend: BackendHandle) {
        self.body.set_backend(backend)
    }

    fn backend(&self) -> BackendHandle {
        self.body.backend()
    }
}

/// Configuration for [`MobileNetNano`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MobileNetNanoConfig {
    /// Input channels (3 for RGB-like synthetic images).
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Channels produced by the stem convolution.
    pub stem_channels: usize,
    /// Inverted-residual blocks as `(expansion, out_channels, stride)`.
    pub blocks: Vec<(usize, usize, usize)>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl Default for MobileNetNanoConfig {
    /// The configuration used by the experiment harness: 3×8×8 inputs, an
    /// 8-channel stem, three inverted-residual blocks and a 10-class head.
    fn default() -> Self {
        MobileNetNanoConfig {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            stem_channels: 8,
            blocks: vec![(2, 8, 1), (2, 16, 2), (2, 16, 1)],
            num_classes: 10,
        }
    }
}

/// A miniature MobileNetV2 for the synthetic vision task.
///
/// Architecturally faithful to the paper's training model — stem convolution,
/// a stack of inverted-residual (expand → depthwise → project) blocks with
/// ReLU6, global average pooling and a linear classifier — scaled down to a
/// few thousand parameters so that a full 50-client federated run completes
/// in CI time.
pub struct MobileNetNano {
    seq: Sequential,
    config: MobileNetNanoConfig,
}

impl std::fmt::Debug for MobileNetNano {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileNetNano").field("config", &self.config).finish()
    }
}

impl MobileNetNano {
    /// Builds the network from `config`, deterministically initialised from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero dimensions or an empty block
    /// list, or a tensor error if a block's geometry is infeasible.
    pub fn new(config: MobileNetNanoConfig, seed: u64) -> Result<Self> {
        if config.num_classes == 0 || config.stem_channels == 0 || config.in_channels == 0 {
            return Err(NnError::BadConfig("mobilenet dimensions must be positive".into()));
        }
        if config.blocks.is_empty() {
            return Err(NnError::BadConfig("mobilenet needs at least one block".into()));
        }
        if config.blocks.iter().any(|&(e, c, s)| e == 0 || c == 0 || s == 0) {
            return Err(NnError::BadConfig("block parameters must be positive".into()));
        }
        let mut rng = rng_for(seed, &[0x4D4E32]); // "MN2"
        let stem_geom = Conv2dGeometry::new(config.in_channels, config.in_h, config.in_w, 3, 1, 1)?;
        let mut seq = Sequential::new()
            .with(Conv2d::new(stem_geom, config.stem_channels, &mut rng)?)
            .with(ReLU6::new());
        let (mut c, mut h, mut w) = (config.stem_channels, stem_geom.out_h, stem_geom.out_w);
        for &(expansion, out_c, stride) in &config.blocks {
            let (block, oh, ow) =
                InvertedResidual::new(c, out_c, expansion, h, w, stride, &mut rng)?;
            seq.push(Box::new(block));
            c = out_c;
            h = oh;
            w = ow;
        }
        seq.push(Box::new(GlobalAvgPool::new()));
        seq.push(Box::new(Linear::new(c, config.num_classes, &mut rng)?));
        Ok(MobileNetNano { seq, config })
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &MobileNetNanoConfig {
        &self.config
    }
}

impl Layer for MobileNetNano {
    fn name(&self) -> &'static str {
        "mobilenet_nano"
    }

    fn set_training(&mut self, training: bool) {
        self.seq.set_training(training)
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.seq.forward(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.seq.backward(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.seq.backward_params(grad_out)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.seq.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.seq.params_mut()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.seq.grads()
    }

    fn zero_grads(&mut self) {
        self.seq.zero_grads()
    }

    fn set_backend(&mut self, backend: BackendHandle) {
        self.seq.set_backend(backend)
    }

    fn backend(&self) -> BackendHandle {
        self.seq.backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LrSchedule, NeuralNet, Sgd};

    #[test]
    fn mlp_validates_widths() {
        assert!(Mlp::new(&[4], 0).is_err());
        assert!(Mlp::new(&[4, 0, 2], 0).is_err());
        assert!(Mlp::new(&[4, 2], 0).is_ok());
    }

    #[test]
    fn mlp_deterministic_per_seed() {
        let a = Mlp::new(&[4, 8, 3], 5).unwrap();
        let b = Mlp::new(&[4, 8, 3], 5).unwrap();
        let c = Mlp::new(&[4, 8, 3], 6).unwrap();
        assert_eq!(a.param_vector(), b.param_vector());
        assert_ne!(a.param_vector(), c.param_vector());
        assert_eq!(a.widths(), &[4, 8, 3]);
    }

    #[test]
    fn mlp_forward_shape() {
        let mut m = Mlp::new(&[6, 10, 4], 1).unwrap();
        let y = m.forward(&Tensor::zeros(&[3, 6])).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
    }

    #[test]
    fn mlp_gradient_matches_numerical() {
        let m = Mlp::new(&[4, 6, 3], 2).unwrap();
        crate::gradcheck::check_layer(Box::new(m), &[2, 4], 31, 2e-2).unwrap();
    }

    #[test]
    fn mobilenet_validates_config() {
        let mut cfg = MobileNetNanoConfig::default();
        cfg.blocks.clear();
        assert!(MobileNetNano::new(cfg, 0).is_err());
        let cfg = MobileNetNanoConfig { num_classes: 0, ..Default::default() };
        assert!(MobileNetNano::new(cfg, 0).is_err());
        let cfg = MobileNetNanoConfig { blocks: vec![(0, 8, 1)], ..Default::default() };
        assert!(MobileNetNano::new(cfg, 0).is_err());
    }

    #[test]
    fn mobilenet_forward_shape_and_param_count() {
        let mut m = MobileNetNano::new(MobileNetNanoConfig::default(), 0).unwrap();
        let y = m.forward(&Tensor::zeros(&[2, 3, 8, 8])).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
        assert!(m.num_params() > 1000, "nano should still be non-trivial: {}", m.num_params());
    }

    #[test]
    fn mobilenet_deterministic_per_seed() {
        let a = MobileNetNano::new(MobileNetNanoConfig::default(), 3).unwrap();
        let b = MobileNetNano::new(MobileNetNanoConfig::default(), 3).unwrap();
        assert_eq!(a.param_vector(), b.param_vector());
    }

    #[test]
    fn mobilenet_gradient_matches_numerical() {
        let cfg = MobileNetNanoConfig {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            stem_channels: 4,
            blocks: vec![(2, 4, 1)],
            num_classes: 3,
        };
        let m = MobileNetNano::new(cfg, 4).unwrap();
        crate::gradcheck::check_layer(Box::new(m), &[2, 2, 4, 4], 37, 4e-2).unwrap();
    }

    #[test]
    fn inverted_residual_skip_path() {
        // With the projection conv zeroed the block must act as identity
        // (residual) — verifies the skip wiring.
        let mut rng = fedms_tensor::rng::rng_for(5, &[]);
        let (mut block, _, _) = InvertedResidual::new(2, 2, 2, 4, 4, 1, &mut rng).unwrap();
        let nparams = block.params().len();
        // Projection conv is the last parameterised layer: weight at index
        // nparams-2, bias at nparams-1.
        for v in block.params_mut()[nparams - 2].as_mut_slice().iter_mut() {
            *v = 0.0;
        }
        let x = Tensor::randn(&mut rng, &[1, 2, 4, 4], 0.0, 1.0);
        let y = block.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn mobilenet_trains_on_trivial_task() {
        // One-batch sanity check: loss decreases on a tiny task.
        let cfg = MobileNetNanoConfig {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            stem_channels: 4,
            blocks: vec![(2, 4, 1)],
            num_classes: 2,
        };
        let mut m = MobileNetNano::new(cfg, 6).unwrap();
        let mut rng = fedms_tensor::rng::rng_for(6, &[1]);
        let mut x = Tensor::randn(&mut rng, &[8, 1, 4, 4], 0.0, 0.1);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        // Make class-1 samples bright so the task is learnable.
        for (i, &l) in labels.iter().enumerate() {
            if l == 1 {
                for v in &mut x.as_mut_slice()[i * 16..(i + 1) * 16] {
                    *v += 2.0;
                }
            }
        }
        let mut opt = Sgd::new(LrSchedule::Constant(0.05)).unwrap();
        let first = m.train_batch(&x, &labels, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..40 {
            last = m.train_batch(&x, &labels, &mut opt).unwrap();
        }
        assert!(last < first, "loss should decrease: {first} → {last}");
    }
}
