//! Sequential composition of layers.

use fedms_tensor::Tensor;

use crate::{Layer, NnError, Result};

/// A chain of layers applied in order; itself a [`Layer`], so sequences nest
/// (used by the inverted-residual blocks of
/// [`MobileNetNano`](crate::MobileNetNano)).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::BadConfig("forward through empty sequential".into()));
        }
        let mut x = self.layers[0].forward(input)?;
        for layer in &mut self.layers[1..] {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        backward_through(&mut self.layers, grad_out)
    }

    /// `backward` through every layer but the first, whose input gradient
    /// is the one left out.
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        match self.layers.split_first_mut() {
            None => Err(empty_backward()),
            Some((first, [])) => first.backward_params(grad_out),
            Some((first, rest)) => first.backward_params(&backward_through(rest, grad_out)?),
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    fn set_training(&mut self, training: bool) {
        for l in &mut self.layers {
            l.set_training(training);
        }
    }
}

/// Back-propagates `grad_out` through `layers` from last to first and
/// returns the gradient w.r.t. the first layer's input.
fn backward_through(layers: &mut [Box<dyn Layer>], grad_out: &Tensor) -> Result<Tensor> {
    let (last, rest) = layers.split_last_mut().ok_or_else(empty_backward)?;
    let mut g = last.backward(grad_out)?;
    for layer in rest.iter_mut().rev() {
        g = layer.backward(&g)?;
    }
    Ok(g)
}

fn empty_backward() -> NnError {
    NnError::BadConfig("backward through empty sequential".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeakyReLU, Linear, ReLU};
    use fedms_tensor::rng::rng_for;

    #[test]
    fn empty_sequential_errors() {
        let mut s = Sequential::new();
        assert!(s.is_empty());
        assert!(s.forward(&Tensor::zeros(&[1, 2])).is_err());
        assert!(s.backward(&Tensor::zeros(&[1, 2])).is_err());
        assert!(s.backward_params(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn chains_layers_in_order() {
        let mut rng = rng_for(1, &[]);
        let mut s = Sequential::new()
            .with(Linear::new(3, 4, &mut rng).unwrap())
            .with(ReLU::new())
            .with(Linear::new(4, 2, &mut rng).unwrap());
        assert_eq!(s.len(), 3);
        let y = s.forward(&Tensor::zeros(&[5, 3])).unwrap();
        assert_eq!(y.dims(), &[5, 2]);
    }

    #[test]
    fn params_concatenated_positionally() {
        let mut rng = rng_for(2, &[]);
        let s = Sequential::new()
            .with(Linear::new(3, 4, &mut rng).unwrap())
            .with(ReLU::new())
            .with(Linear::new(4, 2, &mut rng).unwrap());
        assert_eq!(s.params().len(), 4); // 2 weights + 2 biases
        assert_eq!(s.num_params(), 3 * 4 + 4 + 4 * 2 + 2);
        assert_eq!(s.params().len(), s.grads().len());
    }

    #[test]
    fn zero_grads_propagates() {
        let mut rng = rng_for(3, &[]);
        let mut s = Sequential::new().with(Linear::new(2, 2, &mut rng).unwrap());
        let x = Tensor::ones(&[1, 2]);
        let y = s.forward(&x).unwrap();
        s.backward(&y).unwrap();
        assert!(s.grads()[0].as_slice().iter().any(|&v| v != 0.0));
        s.zero_grads();
        assert!(s.grads()[0].as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_matches_numerical() {
        let mut rng = rng_for(4, &[]);
        let s = Sequential::new()
            .with(Linear::new(4, 6, &mut rng).unwrap())
            .with(LeakyReLU::new())
            .with(Linear::new(6, 3, &mut rng).unwrap());
        crate::gradcheck::check_layer(Box::new(s), &[3, 4], 29, 2e-2).unwrap();
    }
}
