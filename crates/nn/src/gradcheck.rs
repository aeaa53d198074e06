//! Numerical gradient checking for [`Layer`] implementations.
//!
//! Every layer in this crate is back-propagated by hand, so every layer is
//! verified against central finite differences. The check uses the scalar
//! loss `L(out) = ½‖out‖²`, whose gradient with respect to the output is the
//! output itself — no loss layer needed.

use fedms_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Layer, NnError, Result};

/// Maximum number of parameter coordinates probed per layer.
const MAX_PARAM_PROBES: usize = 48;
/// Maximum number of input coordinates probed.
const MAX_INPUT_PROBES: usize = 24;
/// Central-difference step, sized for `f32`.
const EPS: f32 = 5e-3;

fn loss_of(layer: &mut dyn Layer, input: &Tensor) -> Result<f32> {
    let out = layer.forward(input)?;
    Ok(0.5 * out.norm_l2_sq())
}

fn relative_error(analytic: f32, numeric: f32) -> f32 {
    (analytic - numeric).abs() / 1.0f32.max(analytic.abs()).max(numeric.abs())
}

/// Central difference with a kink detector. Returns `None` when the forward
/// and backward one-sided differences disagree, which signals a
/// non-differentiable kink (ReLU/ReLU6) inside the probing interval — e.g. a
/// zero-initialised bias sitting exactly on the ReLU kink. Such coordinates
/// are skipped rather than reported as failures.
fn numeric_grad(probe: &mut impl FnMut(f32) -> Result<f32>, orig: f32) -> Result<Option<f32>> {
    let l0 = probe(orig)?;
    let lp = probe(orig + EPS)?;
    let lm = probe(orig - EPS)?;
    probe(orig)?; // restore the original value (and the forward cache)
    let fwd = (lp - l0) / EPS;
    let bwd = (l0 - lm) / EPS;
    if relative_error(fwd, bwd) > 0.02 {
        return Ok(None);
    }
    Ok(Some((lp - lm) / (2.0 * EPS)))
}

/// Verifies a layer's analytic gradients (both parameter and input) against
/// central finite differences on a random input.
///
/// Probes up to 48 randomly chosen parameter coordinates and 24 input
/// coordinates; each must match within relative tolerance `tol`. The
/// gradients checked are those of [`Layer::backward`], and
/// [`Layer::backward_params`] must reproduce its parameter gradients bit
/// for bit.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] describing the first coordinate whose
/// analytic and numeric gradients disagree, or propagates layer errors.
///
/// # Example
///
/// ```
/// use fedms_nn::{gradcheck, Linear};
/// use fedms_tensor::rng::rng_for;
///
/// let mut rng = rng_for(7, &[]);
/// let layer = Linear::new(3, 2, &mut rng)?;
/// gradcheck::check_layer(Box::new(layer), &[2, 3], 7, 2e-2)?;
/// # Ok::<(), fedms_nn::NnError>(())
/// ```
pub fn check_layer(
    mut layer: Box<dyn Layer>,
    input_dims: &[usize],
    seed: u64,
    tol: f32,
) -> Result<()> {
    check_layer_ref(layer.as_mut(), input_dims, seed, tol)
}

/// Borrowing form of [`check_layer`]: verifies the layer in place, leaving
/// every parameter at its original value afterwards. Useful for checking
/// the same layer repeatedly under different compute backends.
///
/// # Errors
///
/// Same contract as [`check_layer`].
pub fn check_layer_ref(
    layer: &mut dyn Layer,
    input_dims: &[usize],
    seed: u64,
    tol: f32,
) -> Result<()> {
    let mut rng = fedms_tensor::rng::rng_for(seed, &[0xC0DE]);
    let input = Tensor::randn(&mut rng, input_dims, 0.0, 1.0);

    // Analytic pass.
    let out = layer.forward(&input)?;
    layer.zero_grads();
    let grad_in = layer.backward(&out)?;
    let param_grads: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.as_slice().to_vec()).collect();

    // The parameter-only backward a training step runs must leave the very
    // same gradient bits after the same forward.
    layer.forward(&input)?;
    layer.zero_grads();
    layer.backward_params(&out)?;
    for (pi, (g, want)) in layer.grads().iter().zip(&param_grads).enumerate() {
        let same = g.as_slice().iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(NnError::BadConfig(format!(
                "backward_params left different gradient bits than backward in tensor {pi}"
            )));
        }
    }

    // Parameter gradients. The index walks `layer.params()` and
    // `layer.params_mut()` at once, so an iterator can't replace it.
    let n_tensors = layer.params().len();
    #[allow(clippy::needless_range_loop)]
    for pi in 0..n_tensors {
        let plen = layer.params()[pi].len();
        let mut coords: Vec<usize> = (0..plen).collect();
        coords.shuffle(&mut rng);
        coords.truncate(MAX_PARAM_PROBES / n_tensors.max(1) + 1);
        for ci in coords {
            let orig = layer.params()[pi].as_slice()[ci];
            let mut probe = |v: f32| -> Result<f32> {
                layer.params_mut()[pi].as_mut_slice()[ci] = v;
                loss_of(&mut *layer, &input)
            };
            let Some(numeric) = numeric_grad(&mut probe, orig)? else {
                continue; // kink inside the probing interval
            };
            let analytic = param_grads[pi][ci];
            let err = relative_error(analytic, numeric);
            if err > tol {
                return Err(NnError::BadConfig(format!(
                    "param grad mismatch at tensor {pi} coord {ci}: analytic {analytic}, numeric {numeric}, rel err {err}"
                )));
            }
        }
    }

    // Input gradients. Re-establish the forward cache on the true input.
    let mut input = input;
    let mut coords: Vec<usize> = (0..input.len()).collect();
    coords.shuffle(&mut rng);
    coords.truncate(MAX_INPUT_PROBES);
    for ci in coords {
        let orig = input.as_slice()[ci];
        let mut probe = |v: f32| -> Result<f32> {
            input.as_mut_slice()[ci] = v;
            loss_of(&mut *layer, &input)
        };
        let Some(numeric) = numeric_grad(&mut probe, orig)? else {
            continue;
        };
        let analytic = grad_in.as_slice()[ci];
        let err = relative_error(analytic, numeric);
        if err > tol {
            return Err(NnError::BadConfig(format!(
                "input grad mismatch at coord {ci}: analytic {analytic}, numeric {numeric}, rel err {err}"
            )));
        }
    }
    Ok(())
}

/// Draws a fresh random input compatible with `dims`; exposed so callers can
/// build custom checks for composite models.
pub fn random_input<R: Rng + ?Sized>(rng: &mut R, dims: &[usize]) -> Tensor {
    Tensor::randn(rng, dims, 0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;

    #[test]
    fn accepts_correct_layer() {
        let mut rng = fedms_tensor::rng::rng_for(1, &[]);
        let l = Linear::new(3, 3, &mut rng).unwrap();
        check_layer(Box::new(l), &[2, 3], 1, 2e-2).unwrap();
    }

    /// A linear layer whose two backward passes scale `grad_out` first, by
    /// `full` in `backward` and by `params_only` in `backward_params`.
    struct Scaled {
        inner: Linear,
        full: f32,
        params_only: f32,
    }

    impl Layer for Scaled {
        fn name(&self) -> &'static str {
            "scaled"
        }
        fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
            self.inner.forward(input)
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            self.inner.backward(&grad_out.scaled(self.full))
        }
        fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
            self.inner.backward_params(&grad_out.scaled(self.params_only))
        }
        fn params(&self) -> Vec<&Tensor> {
            self.inner.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.inner.params_mut()
        }
        fn grads(&self) -> Vec<&Tensor> {
            self.inner.grads()
        }
        fn zero_grads(&mut self) {
            self.inner.zero_grads()
        }
    }

    fn scaled(full: f32, params_only: f32) -> Box<dyn Layer> {
        let mut rng = fedms_tensor::rng::rng_for(2, &[]);
        Box::new(Scaled { inner: Linear::new(3, 3, &mut rng).unwrap(), full, params_only })
    }

    #[test]
    fn rejects_broken_backward() {
        // Both passes double the true gradient.
        assert!(check_layer(scaled(2.0, 2.0), &[2, 3], 2, 2e-2).is_err());
    }

    #[test]
    fn rejects_backward_params_that_disagree_with_backward() {
        check_layer(scaled(1.0, 1.0), &[2, 3], 2, 2e-2).unwrap();
        let err = check_layer(scaled(1.0, 2.0), &[2, 3], 2, 2e-2).unwrap_err();
        assert!(err.to_string().contains("backward_params"), "{err}");
    }

    #[test]
    fn random_input_has_requested_shape() {
        let mut rng = fedms_tensor::rng::rng_for(3, &[]);
        assert_eq!(random_input(&mut rng, &[2, 3]).dims(), &[2, 3]);
    }
}
