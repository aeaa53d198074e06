//! Convolutional layers: standard (im2col + GEMM, lowering-free at 1×1) and
//! depthwise (a direct kernel over a zero-padded input).

use fedms_tensor::{BackendHandle, Conv2dGeometry, Tensor, TensorError};
use rand::Rng;

use crate::{Layer, NnError, Result};

fn check_input_4d(input: &Tensor, c: usize, h: usize, w: usize) -> Result<usize> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, got: input.rank() }.into());
    }
    let d = input.dims();
    if d[1] != c || d[2] != h || d[3] != w {
        return Err(
            TensorError::ShapeMismatch { left: d.to_vec(), right: vec![d[0], c, h, w] }.into()
        );
    }
    Ok(d[0])
}

/// Checks that `grad_out` is `(batch, c, h, w)` for the `batch` samples the
/// cached forward saw.
fn check_grad_out(grad_out: &Tensor, batch: usize, c: usize, h: usize, w: usize) -> Result<()> {
    if grad_out.dims() != [batch, c, h, w] {
        return Err(NnError::Tensor(TensorError::ShapeMismatch {
            left: grad_out.dims().to_vec(),
            right: vec![batch, c, h, w],
        }));
    }
    Ok(())
}

/// A standard 2-D convolution: `out_c` filters over all input channels.
///
/// * input: `(batch, in_c, H, W)`
/// * output: `(batch, out_c, out_h, out_w)`
/// * weight: `(out_c, in_c·k·k)` (flattened filter bank), bias: `(out_c)`
///
/// Each sample is lowered to its `(in_c·k·k, out_h·out_w)` column matrix
/// and multiplied by the filter bank. A 1×1 conv with stride 1 and no
/// padding skips the lowering, which is the identity there. A training
/// forward keeps the batch's column matrices in one contiguous buffer for
/// the backward pass; an inference forward keeps nothing. The buffers are
/// reused, so a steady-state training loop does not grow them.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The last training forward's column matrices, one
    /// `(col_rows × col_cols)` block per sample.
    cols: Vec<f32>,
    /// Samples whose columns `cols` holds; 0 when no forward is cached.
    cached_batch: usize,
    /// One sample's scratch: inference columns, backward `dW` and `dCols`.
    scratch: Vec<f32>,
    training: bool,
    backend: BackendHandle,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `out_channels == 0`, or a tensor
    /// error if the geometry is infeasible.
    pub fn new<R: Rng + ?Sized>(
        geom: Conv2dGeometry,
        out_channels: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if out_channels == 0 {
            return Err(NnError::BadConfig("out_channels must be positive".into()));
        }
        let fan_in = geom.col_rows();
        let bound = (6.0f32 / fan_in as f32).sqrt();
        Ok(Conv2d {
            geom,
            out_channels,
            weight: Tensor::rand_uniform(rng, &[out_channels, fan_in], -bound, bound),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cols: Vec::new(),
            cached_batch: 0,
            scratch: Vec::new(),
            training: true,
            backend: BackendHandle::scalar(),
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The backward pass over the cached forward: accumulates the parameter
    /// gradients and, when `grad_in` (the zeroed input gradient) is given,
    /// writes the input gradient into it.
    fn backward_into(&mut self, grad_out: &Tensor, mut grad_in: Option<&mut [f32]>) -> Result<()> {
        let batch = self.cached_batch;
        if batch == 0 {
            return Err(NnError::NoForwardCache("conv2d"));
        }
        let g = self.geom;
        let (rows, plane, oc) = (g.col_rows(), g.col_cols(), self.out_channels);
        check_grad_out(grad_out, batch, oc, g.out_h, g.out_w)?;
        let (vol, block) = (g.input_volume(), rows * plane);
        let lowered = !g.is_pointwise();
        // `dW` is overwritten by each GEMM, `dCols` zeroed before each.
        let dcols_len = if lowered && grad_in.is_some() { block } else { 0 };
        self.scratch.resize(oc * rows + dcols_len, 0.0);
        let (dw, dcols) = self.scratch.split_at_mut(oc * rows);
        for s in 0..batch {
            let go = &grad_out.as_slice()[s * oc * plane..(s + 1) * oc * plane];
            let cols = &self.cols[s * block..(s + 1) * block];
            // dW += gradOut · colsᵀ, one per-sample product at a time.
            self.backend.matmul_transb(go, cols, dw, oc, plane, rows);
            for (gw, &v) in self.grad_weight.as_mut_slice().iter_mut().zip(dw.iter()) {
                *gw += v;
            }
            // db += row sums
            for (gb, orow) in self.grad_bias.as_mut_slice().iter_mut().zip(go.chunks_exact(plane)) {
                *gb += orow.iter().sum::<f32>();
            }
            let Some(grad_in) = grad_in.as_deref_mut() else {
                continue;
            };
            let gi = &mut grad_in[s * vol..(s + 1) * vol];
            // dCols = Wᵀ · gradOut, scattered back to image space. At 1×1
            // the scatter would add each value onto a zero, so the GEMM
            // writes the image gradient directly.
            if lowered {
                dcols.fill(0.0);
                self.backend.matmul_transa(self.weight.as_slice(), go, dcols, rows, oc, plane);
                self.backend.col2im(dcols, &g, gi);
            } else {
                self.backend.matmul_transa(self.weight.as_slice(), go, gi, rows, oc, plane);
            }
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let g = self.geom;
        let batch = check_input_4d(input, g.in_channels, g.in_h, g.in_w)?;
        let (rows, plane, oc) = (g.col_rows(), g.col_cols(), self.out_channels);
        let (vol, block) = (g.input_volume(), rows * plane);
        let lowered = !g.is_pointwise();
        self.cached_batch = 0;
        // im2col writes the in-bounds taps only, the same ones on every
        // call for this geometry, so padded taps keep the zeros the buffers
        // were filled with. The cache is only ever resized; the scratch is
        // shared with backward and refilled.
        if self.training {
            self.cols.resize(batch * block, 0.0);
        } else if lowered {
            self.scratch.clear();
            self.scratch.resize(block, 0.0);
        }
        let mut out = Tensor::zeros(&[batch, oc, g.out_h, g.out_w]);
        for s in 0..batch {
            let img = &input.as_slice()[s * vol..(s + 1) * vol];
            let dst = &mut out.as_mut_slice()[s * oc * plane..(s + 1) * oc * plane];
            // The sample's column matrix: lowered into the batch cache or
            // the inference scratch (im2col leaves padded taps at zero),
            // or the image itself for a 1×1 conv.
            let cols: &[f32] = if self.training {
                let cols = &mut self.cols[s * block..(s + 1) * block];
                if lowered {
                    self.backend.im2col(img, &g, cols);
                } else {
                    cols.copy_from_slice(img);
                }
                cols
            } else if lowered {
                self.backend.im2col(img, &g, &mut self.scratch);
                &self.scratch
            } else {
                img
            };
            self.backend.matmul(self.weight.as_slice(), cols, dst, oc, rows, plane);
            for (orow, &b) in dst.chunks_exact_mut(plane).zip(self.bias.as_slice()) {
                for d in orow {
                    *d += b;
                }
            }
        }
        if self.training {
            self.cached_batch = batch;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let g = self.geom;
        let mut grad_in = Tensor::zeros(&[self.cached_batch, g.in_channels, g.in_h, g.in_w]);
        self.backward_into(grad_out, Some(grad_in.as_mut_slice()))?;
        Ok(grad_in)
    }

    /// Skips the `Wᵀ · gradOut` GEMM and the col2im scatter per sample.
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_into(grad_out, None)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale(0.0);
        self.grad_bias.scale(0.0);
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn set_backend(&mut self, backend: BackendHandle) {
        self.backend = backend;
    }

    fn backend(&self) -> BackendHandle {
        self.backend
    }
}

/// A depthwise 2-D convolution: one `k×k` filter per channel, no cross-
/// channel mixing — the core of MobileNet's depthwise-separable blocks.
///
/// * input/output channels are equal
/// * weight: `(channels, k·k)`, bias: `(channels)`
///
/// Runs the backend's direct depthwise kernel over a zero-padded copy of
/// the input. A training forward keeps the batch's padded input in one
/// contiguous buffer for the backward pass; an inference forward pads one
/// sample at a time into the same buffer and keeps nothing.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    geom: Conv2dGeometry,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The zero-padded input: the whole batch after a training forward,
    /// one sample's scratch after an inference forward.
    padded: Vec<f32>,
    /// Samples whose padded input `padded` holds; 0 when no forward is
    /// cached.
    cached_batch: usize,
    training: bool,
    backend: BackendHandle,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-uniform weights.
    ///
    /// `geom.in_channels` is the (shared) channel count.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed geometry; the `Result` keeps the
    /// signature uniform with the other layer constructors.
    pub fn new<R: Rng + ?Sized>(geom: Conv2dGeometry, rng: &mut R) -> Result<Self> {
        let kk = geom.kernel * geom.kernel;
        let bound = (6.0f32 / kk as f32).sqrt();
        Ok(DepthwiseConv2d {
            geom,
            weight: Tensor::rand_uniform(rng, &[geom.in_channels, kk], -bound, bound),
            bias: Tensor::zeros(&[geom.in_channels]),
            grad_weight: Tensor::zeros(&[geom.in_channels, kk]),
            grad_bias: Tensor::zeros(&[geom.in_channels]),
            padded: Vec::new(),
            cached_batch: 0,
            training: true,
            backend: BackendHandle::scalar(),
        })
    }

    /// The convolution geometry (channel count shared between in and out).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let g = self.geom;
        let batch = check_input_4d(input, g.in_channels, g.in_h, g.in_w)?;
        let (vol, block) = (g.input_volume(), g.padded_volume());
        self.cached_batch = 0;
        // `pad_image` writes the interior only, so the border keeps the
        // zeros `resize` filled it with.
        self.padded.resize(if self.training { batch * block } else { block }, 0.0);
        let out_vol = g.in_channels * g.col_cols();
        let mut out = Tensor::zeros(&[batch, g.in_channels, g.out_h, g.out_w]);
        for s in 0..batch {
            let img = &input.as_slice()[s * vol..(s + 1) * vol];
            let dst = &mut out.as_mut_slice()[s * out_vol..(s + 1) * out_vol];
            let at = if self.training { s * block } else { 0 };
            let padded = &mut self.padded[at..at + block];
            g.pad_image(img, padded);
            self.backend.depthwise_forward(
                padded,
                self.weight.as_slice(),
                self.bias.as_slice(),
                &g,
                dst,
            );
        }
        if self.training {
            self.cached_batch = batch;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let batch = self.cached_batch;
        if batch == 0 {
            return Err(NnError::NoForwardCache("depthwise_conv2d"));
        }
        let g = self.geom;
        check_grad_out(grad_out, batch, g.in_channels, g.out_h, g.out_w)?;
        let mut grad_in = Tensor::zeros(&[batch, g.in_channels, g.in_h, g.in_w]);
        self.backend.depthwise_backward(
            &self.padded,
            self.weight.as_slice(),
            grad_out.as_slice(),
            &g,
            grad_in.as_mut_slice(),
            self.grad_weight.as_mut_slice(),
            self.grad_bias.as_mut_slice(),
        );
        Ok(grad_in)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale(0.0);
        self.grad_bias.scale(0.0);
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn set_backend(&mut self, backend: BackendHandle) {
        self.backend = backend;
    }

    fn backend(&self) -> BackendHandle {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_tensor::rng::rng_for;

    fn geom(c: usize, hw: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(c, hw, hw, k, s, p).unwrap()
    }

    #[test]
    fn conv_forward_shape() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(3, 8, 3, 1, 1), 4, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        assert_eq!(l.out_channels(), 4);
    }

    #[test]
    fn conv_rejects_wrong_input() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(3, 8, 3, 1, 1), 4, &mut rng).unwrap();
        assert!(l.forward(&Tensor::zeros(&[2, 3, 4, 4])).is_err());
        assert!(l.forward(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert!(Conv2d::new(geom(3, 8, 3, 1, 1), 0, &mut rng).is_err());
    }

    #[test]
    fn conv_1x1_equals_linear_mix() {
        // A 1×1 conv is a per-pixel linear map across channels.
        let mut rng = rng_for(2, &[]);
        let mut l = Conv2d::new(geom(2, 2, 1, 1, 0), 1, &mut rng).unwrap();
        l.params_mut()[0].as_mut_slice().copy_from_slice(&[2.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2])
            .unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[-8.0, -16.0, -24.0, -32.0]);
    }

    #[test]
    fn conv_bias_applied() {
        let mut rng = rng_for(3, &[]);
        let mut l = Conv2d::new(geom(1, 2, 1, 1, 0), 1, &mut rng).unwrap();
        l.params_mut()[0].as_mut_slice()[0] = 0.0;
        l.params_mut()[1].as_mut_slice()[0] = 3.5;
        let y = l.forward(&Tensor::zeros(&[1, 1, 2, 2])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn conv_backward_requires_forward() {
        let mut rng = rng_for(1, &[]);
        let mut l = Conv2d::new(geom(1, 4, 3, 1, 1), 2, &mut rng).unwrap();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 2, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn conv_gradient_matches_numerical() {
        let mut rng = rng_for(5, &[]);
        let l = Conv2d::new(geom(2, 4, 3, 1, 1), 3, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 2, 4, 4], 17, 3e-2).unwrap();
    }

    #[test]
    fn conv_strided_gradient_matches_numerical() {
        let mut rng = rng_for(6, &[]);
        let l = Conv2d::new(geom(1, 5, 3, 2, 1), 2, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[1, 1, 5, 5], 19, 3e-2).unwrap();
    }

    #[test]
    fn depthwise_forward_shape_and_independence() {
        let mut rng = rng_for(7, &[]);
        let mut l = DepthwiseConv2d::new(geom(2, 4, 3, 1, 1), &mut rng).unwrap();
        // Zero the second channel's filter: its output must be its bias (0).
        for v in &mut l.params_mut()[0].as_mut_slice()[9..18] {
            *v = 0.0;
        }
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for v in x.as_mut_slice().iter_mut() {
            *v = 1.0;
        }
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        assert!(y.as_slice()[16..32].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn depthwise_gradient_matches_numerical() {
        let mut rng = rng_for(8, &[]);
        let l = DepthwiseConv2d::new(geom(3, 4, 3, 1, 1), &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 3, 4, 4], 23, 3e-2).unwrap();
    }

    #[test]
    fn depthwise_backward_requires_forward() {
        let mut rng = rng_for(9, &[]);
        let mut l = DepthwiseConv2d::new(geom(1, 4, 3, 1, 1), &mut rng).unwrap();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 1, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn caches_reach_steady_state_after_one_step() {
        // After a warm-up step at a fixed batch, training steps and an
        // interleaved evaluation reuse every buffer: no capacity changes.
        let mut rng = rng_for(10, &[]);
        let mut stem = Conv2d::new(geom(2, 5, 3, 2, 1), 3, &mut rng).unwrap();
        let mut pointwise = Conv2d::new(geom(2, 5, 1, 1, 0), 3, &mut rng).unwrap();
        let mut depthwise = DepthwiseConv2d::new(geom(2, 5, 3, 2, 1), &mut rng).unwrap();
        let x = Tensor::randn(&mut rng, &[4, 2, 5, 5], 0.0, 1.0);
        let step = |l: &mut dyn Layer| {
            l.set_training(true);
            let y = l.forward(&x).unwrap();
            l.backward(&y).unwrap();
        };
        step(&mut stem);
        step(&mut pointwise);
        step(&mut depthwise);
        let capacities = |c: &Conv2d, p: &Conv2d, d: &DepthwiseConv2d| {
            let (cc, cs) = (c.cols.capacity(), c.scratch.capacity());
            [cc, cs, p.cols.capacity(), p.scratch.capacity(), d.padded.capacity()]
        };
        let warm = capacities(&stem, &pointwise, &depthwise);
        assert!(warm.iter().all(|&c| c > 0), "every layer caches its batch: {warm:?}");
        for i in 0..20 {
            step(&mut stem);
            step(&mut pointwise);
            step(&mut depthwise);
            if i == 10 {
                for l in [&mut stem as &mut dyn Layer, &mut pointwise, &mut depthwise] {
                    l.set_training(false);
                    l.forward(&x).unwrap();
                }
            }
        }
        assert_eq!(capacities(&stem, &pointwise, &depthwise), warm);
    }

    #[test]
    fn inference_forward_needs_one_sample_of_scratch() {
        let mut rng = rng_for(11, &[]);
        let mut conv = Conv2d::new(geom(2, 4, 3, 1, 1), 3, &mut rng).unwrap();
        let mut dw = DepthwiseConv2d::new(geom(2, 4, 3, 1, 1), &mut rng).unwrap();
        let x = Tensor::randn(&mut rng, &[3, 2, 4, 4], 0.0, 1.0);
        conv.set_training(false);
        dw.set_training(false);
        conv.forward(&x).unwrap();
        dw.forward(&x).unwrap();
        // One sample's columns and padded input, never the batch's.
        assert_eq!(conv.cols.capacity(), 0);
        assert_eq!(conv.scratch.len(), 18 * 16);
        assert_eq!(dw.padded.len(), 2 * 6 * 6);
    }

    #[test]
    fn backward_rejects_a_batch_other_than_the_cached_one() {
        let mut rng = rng_for(12, &[]);
        let mut conv = Conv2d::new(geom(1, 4, 3, 1, 1), 2, &mut rng).unwrap();
        let mut dw = DepthwiseConv2d::new(geom(2, 4, 3, 1, 1), &mut rng).unwrap();
        conv.forward(&Tensor::zeros(&[2, 1, 4, 4])).unwrap();
        dw.forward(&Tensor::zeros(&[2, 2, 4, 4])).unwrap();
        assert!(conv.backward(&Tensor::zeros(&[3, 2, 4, 4])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[2, 2, 4])).is_err());
        assert!(dw.backward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
        assert!(dw.backward(&Tensor::zeros(&[2, 3, 4, 4])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[2, 2, 4, 4])).is_ok());
        assert!(dw.backward(&Tensor::zeros(&[2, 2, 4, 4])).is_ok());
    }

    #[test]
    fn pointwise_gradient_matches_numerical() {
        let mut rng = rng_for(13, &[]);
        let l = Conv2d::new(geom(3, 4, 1, 1, 0), 2, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 3, 4, 4], 29, 3e-2).unwrap();
    }

    #[test]
    fn strided_depthwise_gradient_matches_numerical() {
        let mut rng = rng_for(14, &[]);
        let l = DepthwiseConv2d::new(geom(2, 5, 3, 2, 1), &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 2, 5, 5], 31, 3e-2).unwrap();
    }
}
