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

activation_layer!(
    /// Logistic sigmoid `1/(1+e^{−x})`.
    Sigmoid,
    "sigmoid",
    |x| 1.0 / (1.0 + (-x).exp()),
    |x: f32| {
        let s = 1.0 / (1.0 + (-x).exp());
        s * (1.0 - s)
    }
);

activation_layer!(
    /// Hyperbolic tangent.
    Tanh,
    "tanh",
    |x| x.tanh(),
    |x: f32| {
        let t = x.tanh();
        1.0 - t * t
    }
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

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Tensor::from_slice(&[-100.0, 0.0, 100.0])).unwrap();
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 1.0])).unwrap();
        assert!((y.as_slice()[0] + y.as_slice()[2]).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
    }

    #[test]
    fn smooth_activations_pass_gradcheck() {
        crate::gradcheck::check_layer(Box::new(Sigmoid::new()), &[3, 4], 5, 2e-2).unwrap();
        crate::gradcheck::check_layer(Box::new(Tanh::new()), &[3, 4], 7, 2e-2).unwrap();
    }
}
