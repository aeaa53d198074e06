//! Smoothed geometric median via the Weiszfeld iteration (Pillutla et al.,
//! 2022 — reference [7]/[8] of the paper).

use fedms_tensor::Tensor;

use crate::rule::validate_models;
use crate::{AggregationRule, Result};

/// The geometric median: the point minimising the sum of Euclidean
/// distances to the models, computed by damped Weiszfeld fixed-point
/// iteration with an `ε` smoothing floor to avoid division blow-ups when the
/// iterate lands on a model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeometricMedian;

impl GeometricMedian {
    /// Iteration budget.
    const MAX_ITERS: usize = 64;
    /// The iteration stops once an update moves the iterate by at most this.
    const TOLERANCE: f32 = 1e-6;
    /// Floor on the distance to a model (the smoothing `ε`).
    const EPSILON: f32 = 1e-8;

    /// Creates the rule (64 iterations, tolerance 1e-6).
    pub fn new() -> Self {
        GeometricMedian
    }
}

impl AggregationRule for GeometricMedian {
    fn name(&self) -> &'static str {
        "geometric_median"
    }

    fn aggregate(&self, models: &[Tensor]) -> Result<Tensor> {
        let len = validate_models(models)?;
        // Start from the coordinate-wise mean.
        let mut current = crate::Mean::new().aggregate(models)?;
        let mut next = vec![0.0f64; len];
        for _ in 0..Self::MAX_ITERS {
            next.iter_mut().for_each(|v| *v = 0.0);
            let mut weight_sum = 0.0f64;
            for m in models {
                let dist = m.sub(&current)?.norm_l2().max(Self::EPSILON) as f64;
                let w = 1.0 / dist;
                weight_sum += w;
                for (acc, &v) in next.iter_mut().zip(m.as_slice()) {
                    *acc += w * v as f64;
                }
            }
            let candidate: Vec<f32> = next.iter().map(|&v| (v / weight_sum) as f32).collect();
            let candidate = Tensor::from_vec(candidate, current.dims())?;
            let moved = candidate.sub(&current)?.norm_l2();
            current = candidate;
            if moved <= Self::TOLERANCE {
                break;
            }
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalars(vs: &[f32]) -> Vec<Tensor> {
        vs.iter().map(|&v| Tensor::from_slice(&[v])).collect()
    }

    #[test]
    fn scalar_geometric_median_is_median() {
        let out = GeometricMedian::new().aggregate(&scalars(&[1.0, 2.0, 100.0])).unwrap();
        assert!((out.as_slice()[0] - 2.0).abs() < 0.1, "got {}", out.as_slice()[0]);
    }

    #[test]
    fn symmetric_cluster_converges_to_center() {
        let models = vec![
            Tensor::from_slice(&[1.0, 0.0]),
            Tensor::from_slice(&[-1.0, 0.0]),
            Tensor::from_slice(&[0.0, 1.0]),
            Tensor::from_slice(&[0.0, -1.0]),
        ];
        let out = GeometricMedian::new().aggregate(&models).unwrap();
        assert!(out.norm_l2() < 1e-4);
    }

    #[test]
    fn robust_to_single_far_outlier() {
        let mut models = vec![Tensor::from_slice(&[0.0, 0.0]); 6];
        models.push(Tensor::from_slice(&[1e6, 1e6]));
        let out = GeometricMedian::new().aggregate(&models).unwrap();
        assert!(out.norm_l2() < 1.0, "outlier pulled the median to {out}");
    }

    #[test]
    fn identical_models_are_fixed_point() {
        let models = vec![Tensor::from_slice(&[3.0, -1.0]); 5];
        let out = GeometricMedian::new().aggregate(&models).unwrap();
        assert!((out.as_slice()[0] - 3.0).abs() < 1e-5);
        assert!((out.as_slice()[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(GeometricMedian::new().aggregate(&[]).is_err());
    }
}
