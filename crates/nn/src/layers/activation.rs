//! Parameter-free activation layers.

use fedms_tensor::Tensor;

use crate::{Layer, NnError, Result};

macro_rules! activation_layer {
    ($(#[$doc:meta])* $name:ident, $tag:literal, $fwd:expr, $gate:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            cached_input: Option<Tensor>,
            training: bool,
        }

        impl $name {
            /// Creates the activation layer (in training mode).
            pub fn new() -> Self {
                Self { cached_input: None, training: true }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Layer for $name {
            fn name(&self) -> &'static str {
                $tag
            }

            fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
                self.cached_input = self.training.then(|| input.clone());
                Ok(input.map($fwd))
            }

            fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
                let input = self
                    .cached_input
                    .as_ref()
                    .ok_or(NnError::NoForwardCache($tag))?;
                if input.shape() != grad_out.shape() {
                    return Err(fedms_tensor::TensorError::ShapeMismatch {
                        left: grad_out.dims().to_vec(),
                        right: input.dims().to_vec(),
                    }
                    .into());
                }
                let gate = $gate;
                let mut out = grad_out.clone();
                for (g, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    *g *= gate(x);
                }
                Ok(out)
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
    };
}

activation_layer!(
    /// Rectified linear unit: `max(0, x)`.
    ReLU,
    "relu",
    |x| x.max(0.0),
    |x: f32| if x > 0.0 { 1.0 } else { 0.0 }
);

activation_layer!(
    /// ReLU clipped at 6: `min(max(0, x), 6)` — the MobileNetV2 activation.
    ReLU6,
    "relu6",
    |x| x.clamp(0.0, 6.0),
    |x: f32| if x > 0.0 && x < 6.0 { 1.0 } else { 0.0 }
);

activation_layer!(
    /// Leaky ReLU with fixed slope 0.01 for negative inputs.
    LeakyReLU,
    "leaky_relu",
    |x| if x > 0.0 { x } else { 0.01 * x },
    |x: f32| if x > 0.0 { 1.0 } else { 0.01 }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward() {
        let mut l = ReLU::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0])).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu6_clips_both_sides() {
        let mut l = ReLU6::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 3.0, 9.0])).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let mut l = LeakyReLU::new();
        let y = l.forward(&Tensor::from_slice(&[-2.0, 2.0])).unwrap();
        assert_eq!(y.as_slice(), &[-0.02, 2.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut l = ReLU::new();
        l.forward(&Tensor::from_slice(&[-1.0, 1.0])).unwrap();
        let g = l.backward(&Tensor::from_slice(&[5.0, 5.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu6_backward_gates_above_six() {
        let mut l = ReLU6::new();
        l.forward(&Tensor::from_slice(&[-1.0, 3.0, 7.0])).unwrap();
        let g = l.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut l = ReLU::new();
        assert!(matches!(l.backward(&Tensor::zeros(&[2])), Err(NnError::NoForwardCache(_))));
    }

    #[test]
    fn backward_rejects_shape_mismatch() {
        let mut l = ReLU::new();
        l.forward(&Tensor::zeros(&[3])).unwrap();
        assert!(l.backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        let l = ReLU6::new();
        assert!(l.params().is_empty());
        assert!(l.grads().is_empty());
        assert_eq!(l.num_params(), 0);
    }

    #[test]
    fn gradient_matches_numerical() {
        // LeakyReLU is differentiable a.e. with nonzero slope everywhere,
        // making it the cleanest numerical check of the macro's backward.
        crate::gradcheck::check_layer(Box::new(LeakyReLU::new()), &[2, 5], 3, 2e-2).unwrap();
    }
}
