//! Pooling and reshaping layers.

use fedms_tensor::{Tensor, TensorError};

use crate::{Layer, NnError, Result};

/// Global average pooling: `(batch, C, H, W) → (batch, C)`.
///
/// Each output channel is the mean of its `H·W` spatial positions — the
/// MobileNetV2 head before the classifier.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    cached_dims: Option<[usize; 4]>,
    training: bool,
}

impl GlobalAvgPool {
    /// Creates the pooling layer (in training mode).
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None, training: true }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        GlobalAvgPool::new()
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, got: input.rank() }.into());
        }
        let [b, c, h, w] = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
        if h * w == 0 {
            return Err(TensorError::Empty("global average pool over empty plane").into());
        }
        self.cached_dims = self.training.then_some([b, c, h, w]);
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        let src = input.as_slice();
        let mut out = Tensor::zeros(&[b, c]);
        for i in 0..b * c {
            out.as_mut_slice()[i] = src[i * plane..(i + 1) * plane].iter().sum::<f32>() * inv;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let [b, c, h, w] = self.cached_dims.ok_or(NnError::NoForwardCache("global_avg_pool"))?;
        if grad_out.dims() != [b, c] {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.dims().to_vec(),
                right: vec![b, c],
            }
            .into());
        }
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        let mut grad_in = Tensor::zeros(&[b, c, h, w]);
        for (i, &g) in grad_out.as_slice().iter().enumerate() {
            for v in &mut grad_in.as_mut_slice()[i * plane..(i + 1) * plane] {
                *v = g * inv;
            }
        }
        Ok(grad_in)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

/// Flattens `(batch, …) → (batch, volume)` and restores the shape on the
/// backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the flattening layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.rank() < 1 {
            return Err(TensorError::RankMismatch { expected: 2, got: 0 }.into());
        }
        let dims = input.dims().to_vec();
        let batch = dims[0];
        let volume: usize = dims[1..].iter().product();
        self.cached_dims = Some(dims);
        Ok(input.reshape(&[batch, volume])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self.cached_dims.as_ref().ok_or(NnError::NoForwardCache("flatten"))?;
        Ok(grad_out.reshape(dims)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_averages_planes() {
        let mut l = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2])
            .unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 25.0]);
    }

    #[test]
    fn gap_backward_distributes_evenly() {
        let mut l = GlobalAvgPool::new();
        l.forward(&Tensor::zeros(&[1, 1, 2, 2])).unwrap();
        let g = l.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap()).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gap_rejects_bad_shapes() {
        let mut l = GlobalAvgPool::new();
        assert!(l.forward(&Tensor::zeros(&[2, 3])).is_err());
        assert!(matches!(l.backward(&Tensor::zeros(&[1, 1])), Err(NnError::NoForwardCache(_))));
        l.forward(&Tensor::zeros(&[1, 2, 2, 2])).unwrap();
        assert!(l.backward(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Flatten::new();
        let x = Tensor::linspace(0.0, 7.0, 8).reshape(&[2, 2, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        let g = l.backward(&y).unwrap();
        assert_eq!(g.dims(), &[2, 2, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn flatten_backward_requires_forward() {
        let mut l = Flatten::new();
        assert!(matches!(l.backward(&Tensor::zeros(&[1, 4])), Err(NnError::NoForwardCache(_))));
    }

    #[test]
    fn pool_layers_have_no_params() {
        assert_eq!(GlobalAvgPool::new().num_params(), 0);
        assert_eq!(Flatten::new().num_params(), 0);
    }

    #[test]
    fn gap_gradient_matches_numerical() {
        crate::gradcheck::check_layer(Box::new(GlobalAvgPool::new()), &[2, 3, 2, 2], 5, 1e-2)
            .unwrap();
    }
}
