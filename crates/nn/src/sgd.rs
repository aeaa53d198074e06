//! Mini-batch stochastic gradient descent with the paper's step-size family.

use serde::{Deserialize, Serialize};

use crate::{Layer, NnError, Result};

/// Learning-rate schedule.
///
/// The Fed-MS convergence proof (Theorem 1) requires the decaying schedule
/// `η_t = φ/(γ+t)` with `φ = 2/μ` and `γ = max(8L/μ, E)`; that family is
/// [`LrSchedule::InverseDecay`]. The experiments in Section VI use the
/// standard near-constant rates of practical FL, covered by
/// [`LrSchedule::Constant`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// `η_t = phi / (gamma + t)`, the schedule assumed by Theorem 1.
    InverseDecay {
        /// Numerator `φ` (the proof takes `φ = 2/μ`).
        phi: f32,
        /// Offset `γ` (the proof takes `γ = max(8L/μ, E)`).
        gamma: f32,
    },
}

impl LrSchedule {
    /// The learning rate at global step `t` (0-based).
    pub fn lr_at(&self, t: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::InverseDecay { phi, gamma } => phi / (gamma + t as f32),
        }
    }

    /// Validates that the schedule produces positive, finite rates at
    /// every step.
    ///
    /// [`LrSchedule::InverseDecay`] needs finite `phi > 0` and `gamma > 0`
    /// (Theorem 1 takes `φ = 2/μ` and `γ = max(8L/μ, E)`): with a negative
    /// `γ`, `γ + t` reaches zero after `−γ` steps and every rate past it
    /// has the wrong sign. With both positive the rates fall from `η_0`, so
    /// a finite `η_0` bounds every step of either schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] naming the offending field for
    /// non-positive or non-finite values.
    pub fn validate(&self) -> Result<()> {
        if let LrSchedule::InverseDecay { phi, gamma } = *self {
            for (field, value) in [("phi", phi), ("gamma", gamma)] {
                if !(value.is_finite() && value > 0.0) {
                    return Err(NnError::BadConfig(format!(
                        "InverseDecay {field} must be finite and positive, got {value}"
                    )));
                }
            }
        }
        let probe = self.lr_at(0);
        if !(probe.is_finite() && probe > 0.0) {
            return Err(NnError::BadConfig(format!("learning rate at t=0 is {probe}")));
        }
        Ok(())
    }
}

/// Plain SGD: `p ← p − η_t · ∇p`.
///
/// # Example
///
/// ```
/// use fedms_nn::{LrSchedule, Sgd};
///
/// let mut opt = Sgd::new(LrSchedule::Constant(0.1))?;
/// assert_eq!(opt.current_lr(), 0.1);
/// # Ok::<(), fedms_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    schedule: LrSchedule,
    step: usize,
}

impl Sgd {
    /// Creates an optimiser with the given schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the schedule is invalid.
    pub fn new(schedule: LrSchedule) -> Result<Self> {
        schedule.validate()?;
        Ok(Sgd { schedule, step: 0 })
    }

    /// The learning rate that the *next* [`Sgd::step`] will use.
    pub fn current_lr(&self) -> f32 {
        self.schedule.lr_at(self.step)
    }

    /// Rewinds or advances the internal step counter (used when a client
    /// resumes from a filtered global model at a given global step).
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Applies one SGD update to every parameter of `model` from its
    /// accumulated gradients, then advances the step counter.
    ///
    /// Does **not** zero the gradients; callers zero before accumulating.
    ///
    /// # Errors
    ///
    /// Currently infallible for well-formed layers; reserved for future
    /// schedule validation.
    pub fn step<M: Layer + ?Sized>(&mut self, model: &mut M) -> Result<()> {
        let lr = self.current_lr();
        let grads: Vec<Vec<f32>> = model.grads().iter().map(|g| g.as_slice().to_vec()).collect();
        for (param, grad) in model.params_mut().into_iter().zip(&grads) {
            for (p, &g) in param.as_mut_slice().iter_mut().zip(grad) {
                *p -= lr * g;
            }
        }
        self.step += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use fedms_tensor::rng::rng_for;
    use fedms_tensor::Tensor;
    use rand::Rng;
    use std::hint::black_box;

    /// A layer that is only parameters and gradients, both set by the test.
    struct Fixed {
        params: Vec<Tensor>,
        grads: Vec<Tensor>,
    }

    impl Layer for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            Ok(grad_out.clone())
        }

        fn params(&self) -> Vec<&Tensor> {
            self.params.iter().collect()
        }

        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.params.iter_mut().collect()
        }

        fn grads(&self) -> Vec<&Tensor> {
            self.grads.iter().collect()
        }

        fn zero_grads(&mut self) {}
    }

    #[test]
    fn step_matches_the_unit_scale_zero_decay_update_bit_for_bit() {
        // The pinned run digests come from `p − lr·(scale·g +
        // weight_decay·p)` with `scale = 1.0` and `weight_decay = 0.0` as
        // run-time values, and `p − lr·g` must keep their bits. It does for
        // every finite or NaN `p`: the `0.0·p` term can only turn a `−0.0`
        // gradient into `+0.0`, and `p − lr·(±0.0)` is the same for every
        // `p`. The two differ at `p = ±∞` alone, where `0.0·p` is NaN (the
        // reference gives NaN, `p − lr·g` gives ±∞), so infinite
        // parameters are left out.
        let special = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX,
            f32::NAN,
            1.0,
            -1.0,
        ];
        let mut p = Vec::new();
        let mut g = Vec::new();
        for &a in &special {
            for &b in special.iter().chain(&[f32::INFINITY, f32::NEG_INFINITY]) {
                p.push(a);
                g.push(b);
            }
        }
        let mut rng = rng_for(0x5CD, &[]);
        // Random bit patterns reach every exponent and NaN payload; values
        // of one scale exercise the rounding of `lr·g` against `p`.
        while p.len() < 8192 {
            let a = f32::from_bits(rng.gen());
            if !a.is_infinite() {
                p.push(a);
                g.push(f32::from_bits(rng.gen()));
            }
        }
        let mut ordinary = Tensor::randn(&mut rng, &[2, 8192], 0.0, 1.0).into_vec();
        g.extend(ordinary.split_off(8192));
        p.extend(ordinary);
        let mid = p.len() / 2;
        for lr in [0.05f32, 0.1, 1.0, 3.0, 1.5e-7] {
            let mut layer = Fixed {
                params: vec![Tensor::from_slice(&p[..mid]), Tensor::from_slice(&p[mid..])],
                grads: vec![Tensor::from_slice(&g[..mid]), Tensor::from_slice(&g[mid..])],
            };
            Sgd::new(LrSchedule::Constant(lr)).unwrap().step(&mut layer).unwrap();
            let (scale, weight_decay) = (black_box(1.0f32), black_box(0.0f32));
            let stepped = layer.params.iter().flat_map(|t| t.as_slice());
            for ((&p, &g), &got) in p.iter().zip(&g).zip(stepped) {
                let want = p - lr * (scale * g + weight_decay * p);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "lr {lr:e}, p {p:e}, g {g:e}: stepped to {got:e}, reference {want:e}"
                );
            }
        }
    }

    #[test]
    fn schedules_evaluate() {
        assert_eq!(LrSchedule::Constant(0.5).lr_at(100), 0.5);
        let d = LrSchedule::InverseDecay { phi: 2.0, gamma: 8.0 };
        assert_eq!(d.lr_at(0), 0.25);
        assert_eq!(d.lr_at(2), 0.2);
    }

    #[test]
    fn inverse_decay_is_non_increasing_and_halves_slowly() {
        // The proof needs η_t ≤ 2·η_{t+E}; verify for E = 3 over a horizon.
        let d = LrSchedule::InverseDecay { phi: 2.0, gamma: 8.0 };
        for t in 0..100 {
            assert!(d.lr_at(t + 1) <= d.lr_at(t));
            assert!(d.lr_at(t) <= 2.0 * d.lr_at(t + 3));
        }
    }

    #[test]
    fn validation_rejects_bad_rates() {
        assert!(LrSchedule::Constant(0.0).validate().is_err());
        assert!(LrSchedule::Constant(-1.0).validate().is_err());
        assert!(LrSchedule::Constant(f32::NAN).validate().is_err());
        assert!(Sgd::new(LrSchedule::Constant(0.0)).is_err());
        // η_0 = 0.1 here, but γ + t reaches zero at t = 10.
        let err = LrSchedule::InverseDecay { phi: -1.0, gamma: -10.0 }.validate().unwrap_err();
        assert!(err.to_string().contains("phi"), "{err}");
        for gamma in [-10.0, 0.0, f32::NAN, f32::INFINITY] {
            let err = LrSchedule::InverseDecay { phi: 2.0, gamma }.validate().unwrap_err();
            assert!(err.to_string().contains("gamma"), "{gamma}: {err}");
        }
        for phi in [-1.0, 0.0, f32::NAN, f32::INFINITY] {
            let err = LrSchedule::InverseDecay { phi, gamma: 8.0 }.validate().unwrap_err();
            assert!(err.to_string().contains("phi"), "{phi}: {err}");
        }
        // Positive fields whose η_0 overflows are still rejected.
        assert!(LrSchedule::InverseDecay { phi: f32::MAX, gamma: 0.5 }.validate().is_err());
        assert!(LrSchedule::InverseDecay { phi: 2.0, gamma: 8.0 }.validate().is_ok());
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut rng = rng_for(1, &[]);
        let mut l = Linear::new(2, 1, &mut rng).unwrap();
        let before = l.params()[0].as_slice().to_vec();
        let x = Tensor::ones(&[1, 2]);
        let y = l.forward(&x).unwrap();
        l.zero_grads();
        l.backward(&y.map(|_| 1.0)).unwrap(); // d loss/d out = 1 → dW = x = 1
        let mut opt = Sgd::new(LrSchedule::Constant(0.1)).unwrap();
        opt.step(&mut l).unwrap();
        let after = l.params()[0].as_slice().to_vec();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a - 0.1).abs() < 1e-6, "each weight should decrease by lr*1");
        }
    }

    #[test]
    fn step_counter_advances_schedule() {
        let mut opt = Sgd::new(LrSchedule::InverseDecay { phi: 1.0, gamma: 1.0 }).unwrap();
        assert_eq!(opt.current_lr(), 1.0);
        opt.set_step(4);
        assert_eq!(opt.current_lr(), 0.2);
        // Each step uses the current rate, then advances the counter.
        let mut l = Linear::new(2, 1, &mut rng_for(5, &[])).unwrap();
        opt.step(&mut l).unwrap();
        assert_eq!(opt.current_lr(), 1.0 / 6.0);
    }
}
