//! Fully connected layer.

use fedms_tensor::{BackendHandle, Tensor};
use rand::Rng;

use crate::{Layer, NnError, Result};

/// A fully connected (affine) layer: `y = x·Wᵀ + b`.
///
/// * input: `(batch, in_features)`
/// * output: `(batch, out_features)`
/// * weight: `(out_features, in_features)`, bias: `(out_features)`
///
/// Weights are initialised with Kaiming-uniform scaling
/// (`U(-√(6/in), √(6/in))`), biases with zero — the PyTorch default family,
/// matching the paper's training stack.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    training: bool,
    backend: BackendHandle,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig("linear dimensions must be positive".into()));
        }
        let bound = (6.0f32 / in_features as f32).sqrt();
        let weight = Tensor::rand_uniform(rng, &[out_features, in_features], -bound, bound);
        Ok(Linear {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            training: true,
            backend: BackendHandle::scalar(),
        })
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut out = input.matmul_transb_on(&self.weight, self.backend)?;
        let (batch, of) = (out.dims()[0], self.out_features);
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for i in 0..batch {
            for (o, &b) in data[i * of..(i + 1) * of].iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        self.cached_input = self.training.then(|| input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_out)?;
        // dX = gradOut · W   →  (batch, out)·(out, in) = (batch, in)
        Ok(grad_out.matmul_on(&self.weight, self.backend)?)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let input = self.cached_input.as_ref().ok_or(NnError::NoForwardCache("linear"))?;
        // dW += gradOutᵀ · x   →  (out, batch)·(batch, in) = (out, in)
        let dw = grad_out.matmul_transa_on(input, self.backend)?;
        self.grad_weight.add_inplace(&dw)?;
        // db += column sums of gradOut
        let (batch, of) = (grad_out.dims()[0], self.out_features);
        let g = grad_out.as_slice();
        let db = self.grad_bias.as_mut_slice();
        for i in 0..batch {
            for (acc, &v) in db.iter_mut().zip(g[i * of..(i + 1) * of].iter()) {
                *acc += v;
            }
        }
        Ok(())
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

    #[test]
    fn rejects_zero_dims() {
        let mut rng = rng_for(1, &[]);
        assert!(Linear::new(0, 4, &mut rng).is_err());
        assert!(Linear::new(4, 0, &mut rng).is_err());
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = rng_for(1, &[]);
        let mut l = Linear::new(3, 2, &mut rng).unwrap();
        l.params_mut()[1].as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        // zero input → output equals bias in every row
        for i in 0..4 {
            assert_eq!(y.row(i).unwrap(), &[1.0, -1.0]);
        }
    }

    #[test]
    fn forward_known_weights() {
        let mut rng = rng_for(1, &[]);
        let mut l = Linear::new(2, 2, &mut rng).unwrap();
        l.params_mut()[0].as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = rng_for(1, &[]);
        let mut l = Linear::new(2, 2, &mut rng).unwrap();
        assert!(matches!(l.backward(&Tensor::zeros(&[1, 2])), Err(NnError::NoForwardCache(_))));
    }

    #[test]
    fn backward_accumulates_and_zeroes() {
        let mut rng = rng_for(2, &[]);
        let mut l = Linear::new(2, 2, &mut rng).unwrap();
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        l.forward(&x).unwrap();
        l.backward(&g).unwrap();
        let first: Vec<f32> = l.grads()[0].as_slice().to_vec();
        l.forward(&x).unwrap();
        l.backward(&g).unwrap();
        let second: Vec<f32> = l.grads()[0].as_slice().to_vec();
        for (a, b) in first.iter().zip(second.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-6, "gradients should accumulate");
        }
        l.zero_grads();
        assert!(l.grads().iter().all(|g| g.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = rng_for(3, &[]);
        let l = Linear::new(5, 7, &mut rng).unwrap();
        assert_eq!(l.num_params(), 5 * 7 + 7);
        assert_eq!(l.in_features(), 5);
        assert_eq!(l.out_features(), 7);
    }

    #[test]
    fn gradient_matches_numerical() {
        let mut rng = rng_for(4, &[]);
        let l = Linear::new(3, 2, &mut rng).unwrap();
        crate::gradcheck::check_layer(Box::new(l), &[2, 3], 11, 2e-2).unwrap();
    }
}
