//! High-level model operations: flat parameter vectors, training steps and
//! evaluation.

use fedms_tensor::{Tensor, TensorError};

use crate::{accuracy, softmax_cross_entropy, Layer, NnError, Result, Sgd};

/// Extracts samples `[start, end)` along axis 0 of a batch tensor.
///
/// # Errors
///
/// Returns an index error if `start > end` or `end` exceeds the batch size,
/// and a rank error for rank-0 tensors.
pub fn slice_batch(x: &Tensor, start: usize, end: usize) -> Result<Tensor> {
    if x.rank() == 0 {
        return Err(TensorError::RankMismatch { expected: 1, got: 0 }.into());
    }
    let batch = x.dims()[0];
    if start > end || end > batch {
        return Err(TensorError::IndexOutOfBounds { index: end, bound: batch }.into());
    }
    let stride: usize = x.dims()[1..].iter().product();
    let mut dims = x.dims().to_vec();
    dims[0] = end - start;
    Ok(Tensor::from_vec(x.as_slice()[start * stride..end * stride].to_vec(), &dims)?)
}

/// Whole-model convenience operations, blanket-implemented for every
/// [`Layer`].
///
/// The central abstraction is the **flat parameter vector**
/// ([`NeuralNet::param_vector`]): the Fed-MS servers aggregate, the
/// Byzantine attacks tamper with, and the trimmed-mean filter trims exactly
/// this representation.
pub trait NeuralNet: Layer {
    /// All parameters concatenated into one rank-1 tensor, in layer order.
    fn param_vector(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.num_params());
        for p in self.params() {
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_slice(&data)
    }

    /// All accumulated gradients concatenated into one rank-1 tensor.
    fn grad_vector(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.num_params());
        for g in self.grads() {
            data.extend_from_slice(g.as_slice());
        }
        Tensor::from_slice(&data)
    }

    /// Overwrites every parameter from a flat vector produced by
    /// [`NeuralNet::param_vector`] (of this or an architecturally identical
    /// model).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the vector length differs
    /// from [`Layer::num_params`].
    fn set_param_vector(&mut self, v: &Tensor) -> Result<()> {
        let expected = self.num_params();
        if v.len() != expected {
            return Err(NnError::ParamLengthMismatch { got: v.len(), expected });
        }
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.len();
            p.as_mut_slice().copy_from_slice(&v.as_slice()[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Runs a forward pass without touching gradients.
    ///
    /// # Errors
    ///
    /// Propagates layer errors for ill-shaped inputs.
    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        self.forward(x)
    }

    /// One mini-batch SGD step: zero grads → forward → softmax-CE →
    /// backward → optimiser update. Returns the batch loss.
    ///
    /// The backward pass is [`Layer::backward_params`]: the model's input
    /// gradient is never computed, and the parameters come out as they
    /// would after a full [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors from the forward pass and loss.
    fn train_batch(&mut self, x: &Tensor, labels: &[usize], opt: &mut Sgd) -> Result<f32> {
        self.set_training(true);
        self.zero_grads();
        let logits = self.forward(x)?;
        let loss = softmax_cross_entropy(&logits, labels)?;
        self.backward_params(&loss.grad_logits)?;
        opt.step(self)?;
        Ok(loss.loss)
    }

    /// Classification accuracy over a dataset: the mean of [`accuracy`]
    /// over chunks of at most 256 samples, weighted by chunk size.
    ///
    /// Each chunk's logits come from inference forwards over tiles of 32
    /// samples (see [`EVAL_TILE`]); every layer's inference output is
    /// computed per sample, so they are the chunk's own forward bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32> {
        chunked_mean(self, x, labels, accuracy)
    }

    /// Mean softmax cross-entropy over a dataset, chunked and tiled as in
    /// [`NeuralNet::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    fn evaluate_loss(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32> {
        chunked_mean(self, x, labels, |logits, labels| {
            Ok(softmax_cross_entropy(logits, labels)?.loss)
        })
    }
}

/// Samples [`NeuralNet::evaluate`] and [`NeuralNet::evaluate_loss`] score
/// with one [`accuracy`] or [`softmax_cross_entropy`] call.
const EVAL_CHUNK: usize = 256;

/// Samples one inference forward of an evaluation runs at once. A tile's
/// activations stay small enough to be recycled by the allocator between
/// layers: at the nano shape a 200-sample forward page-faults on its large
/// activations (~970 minor faults per client evaluation), while tiles of
/// 8 to 32 samples fault on none and evaluate ~30% faster.
pub const EVAL_TILE: usize = 32;

/// The sample-weighted mean of `score` over `x`'s chunks of
/// [`EVAL_CHUNK`] samples, each scored on its tiled inference logits.
fn chunked_mean<L: Layer + ?Sized>(
    model: &mut L,
    x: &Tensor,
    labels: &[usize],
    score: impl Fn(&Tensor, &[usize]) -> Result<f32>,
) -> Result<f32> {
    let batch = x.dims().first().copied().unwrap_or(0);
    if batch != labels.len() || batch == 0 {
        return Err(NnError::BadLabels(format!("{} labels for dataset of {batch}", labels.len())));
    }
    model.set_training(false);
    let mut total = 0.0f64;
    for start in (0..batch).step_by(EVAL_CHUNK) {
        let end = (start + EVAL_CHUNK).min(batch);
        let logits = tiled_logits(model, x, start, end)?;
        total += score(&logits, &labels[start..end])? as f64 * (end - start) as f64;
    }
    Ok((total / batch as f64) as f32)
}

/// The logits of samples `[start, end)` of `x`, computed by forwards over
/// tiles of [`EVAL_TILE`] samples and assembled in sample order.
fn tiled_logits<L: Layer + ?Sized>(
    model: &mut L,
    x: &Tensor,
    start: usize,
    end: usize,
) -> Result<Tensor> {
    let mut logits = Vec::new();
    let mut dims = Vec::new();
    for at in (start..end).step_by(EVAL_TILE) {
        let tile = model.forward(&slice_batch(x, at, (at + EVAL_TILE).min(end))?)?;
        logits.extend_from_slice(tile.as_slice());
        dims = tile.dims().to_vec();
    }
    if let Some(rows) = dims.first_mut() {
        *rows = end - start;
    }
    Ok(Tensor::from_vec(logits, &dims)?)
}

impl<T: Layer + ?Sized> NeuralNet for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LrSchedule, Mlp};
    use fedms_tensor::rng::rng_for;

    #[test]
    fn slice_batch_extracts_rows() {
        let x = Tensor::linspace(0.0, 11.0, 12).reshape(&[4, 3]).unwrap();
        let s = slice_batch(&x, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert!(slice_batch(&x, 3, 5).is_err());
        assert!(slice_batch(&x, 3, 2).is_err());
        assert!(slice_batch(&Tensor::scalar(1.0), 0, 0).is_err());
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut net = Mlp::new(&[3, 5, 2], 1).unwrap();
        let v = net.param_vector();
        assert_eq!(v.len(), net.num_params());
        let doubled = v.scaled(2.0);
        net.set_param_vector(&doubled).unwrap();
        assert_eq!(net.param_vector(), doubled);
    }

    #[test]
    fn set_param_vector_validates_length() {
        let mut net = Mlp::new(&[3, 5, 2], 1).unwrap();
        assert!(matches!(
            net.set_param_vector(&Tensor::zeros(&[3])),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn two_identical_models_share_vectors() {
        let a = Mlp::new(&[4, 6, 3], 7).unwrap();
        let mut b = Mlp::new(&[4, 6, 3], 8).unwrap();
        b.set_param_vector(&a.param_vector()).unwrap();
        assert_eq!(a.param_vector(), b.param_vector());
    }

    #[test]
    fn train_batch_reduces_loss_on_separable_data() {
        let mut rng = rng_for(99, &[]);
        // Two well-separated Gaussian blobs.
        let n = 64usize;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            let noise = Tensor::randn(&mut rng, &[4], center, 0.3);
            data.extend_from_slice(noise.as_slice());
            labels.push(c);
        }
        let x = Tensor::from_vec(data, &[n, 4]).unwrap();
        let mut net = Mlp::new(&[4, 8, 2], 3).unwrap();
        let mut opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
        let first = net.train_batch(&x, &labels, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = net.train_batch(&x, &labels, &mut opt).unwrap();
        }
        assert!(last < first * 0.5, "loss should halve: first {first}, last {last}");
        assert!(net.evaluate(&x, &labels).unwrap() > 0.95);
        assert!(net.evaluate_loss(&x, &labels).unwrap() < first);
    }

    #[test]
    fn evaluate_validates_inputs() {
        let mut net = Mlp::new(&[4, 8, 2], 3).unwrap();
        assert!(net.evaluate(&Tensor::zeros(&[2, 4]), &[0]).is_err());
        assert!(net.evaluate(&Tensor::zeros(&[0, 4]), &[]).is_err());
        assert!(net.evaluate_loss(&Tensor::zeros(&[2, 4]), &[0]).is_err());
    }

    #[test]
    fn grad_vector_has_param_length() {
        let mut net = Mlp::new(&[3, 4, 2], 5).unwrap();
        let x = Tensor::ones(&[2, 3]);
        net.zero_grads();
        let logits = net.forward(&x).unwrap();
        let loss = softmax_cross_entropy(&logits, &[0, 1]).unwrap();
        net.backward(&loss.grad_logits).unwrap();
        let g = net.grad_vector();
        assert_eq!(g.len(), net.num_params());
        assert!(g.norm_l2() > 0.0);
    }
}
