//! Linear algebra and reduction operations on [`Tensor`].
//!
//! The matmul-family entry points validate shapes here and delegate their
//! inner loops to a [`BackendHandle`] — by default the scalar reference
//! backend, whose kernels are the original loop bodies moved verbatim. The
//! `*_on` variants accept an explicit backend for optimized execution.

use crate::{BackendHandle, Tensor, TensorError};

/// `rows · cols` with overflow detection: degenerate shapes such as
/// `(2³³ × 0) · (0 × 2³³)` are valid inputs whose *output* volume exceeds
/// `usize`, which must surface as a typed error rather than a wrapped
/// allocation size.
pub(crate) fn checked_out_len(rows: usize, cols: usize) -> Result<usize, TensorError> {
    rows.checked_mul(cols)
        .ok_or_else(|| TensorError::Invalid(format!("output size {rows}x{cols} overflows usize")))
}

impl Tensor {
    // ------------------------------------------------------------------
    // Linear algebra (rank-2)
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: `(m×k) · (k×n) → (m×n)` on the
    /// default (scalar) backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::MatmulDimMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_on(other, BackendHandle::scalar())
    }

    /// [`Tensor::matmul`] on an explicit backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`].
    pub fn matmul_on(&self, other: &Tensor, backend: BackendHandle) -> Result<Tensor, TensorError> {
        let (m, k) = self.matrix_dims()?;
        let (k2, n) = other.matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch { left: (m, k), right: (k2, n) });
        }
        let mut out = vec![0.0f32; checked_out_len(m, n)?];
        backend.matmul(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self · otherᵀ` for rank-2 tensors: `(m×k) · (n×k)ᵀ → (m×n)` on the
    /// default (scalar) backend.
    ///
    /// Equivalent to `self.matmul(&other.transposed()?)` but avoids
    /// materialising the transpose; used on backward passes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::MatmulDimMismatch`] if the shared dimension disagrees.
    pub fn matmul_transb(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_transb_on(other, BackendHandle::scalar())
    }

    /// [`Tensor::matmul_transb`] on an explicit backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul_transb`].
    pub fn matmul_transb_on(
        &self,
        other: &Tensor,
        backend: BackendHandle,
    ) -> Result<Tensor, TensorError> {
        let (m, k) = self.matrix_dims()?;
        let (n, k2) = other.matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch { left: (m, k), right: (k2, n) });
        }
        let mut out = vec![0.0f32; checked_out_len(m, n)?];
        backend.matmul_transb(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ · other` for rank-2 tensors: `(k×m)ᵀ · (k×n) → (m×n)` on the
    /// default (scalar) backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::MatmulDimMismatch`] if the shared dimension disagrees.
    pub fn matmul_transa(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_transa_on(other, BackendHandle::scalar())
    }

    /// [`Tensor::matmul_transa`] on an explicit backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul_transa`].
    pub fn matmul_transa_on(
        &self,
        other: &Tensor,
        backend: BackendHandle,
    ) -> Result<Tensor, TensorError> {
        let (k, m) = self.matrix_dims()?;
        let (k2, n) = other.matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch { left: (m, k), right: (k2, n) });
        }
        let mut out = vec![0.0f32; checked_out_len(m, n)?];
        backend.matmul_transa(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transposed(&self) -> Result<Tensor, TensorError> {
        let (m, n) = self.matrix_dims()?;
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    fn matrix_dims(&self) -> Result<(usize, usize), TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, got: self.rank() });
        }
        Ok((self.dims()[0], self.dims()[1]))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// The sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// The arithmetic mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn mean(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty("mean"));
        }
        Ok(self.sum() / self.len() as f32)
    }

    /// The maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32, TensorError> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, v| Some(m.map_or(v, |m| m.max(v))))
            .ok_or(TensorError::Empty("max"))
    }

    /// The minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn min(&self) -> Result<f32, TensorError> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, v| Some(m.map_or(v, |m| m.min(v))))
            .ok_or(TensorError::Empty("min"))
    }

    /// The Euclidean (`L₂`) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        self.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt() as f32
    }

    /// The squared Euclidean norm of the flattened tensor.
    pub fn norm_l2_sq(&self) -> f32 {
        self.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() as f32
    }

    /// The inner product of two same-shape tensors (flattened).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32)
    }

    /// Index of the maximum element of a rank-1 tensor (ties → first).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize, TensorError> {
        let s = self.as_slice();
        if s.is_empty() {
            return Err(TensorError::Empty("argmax"));
        }
        let mut best = 0usize;
        for (i, &v) in s.iter().enumerate() {
            if v > s[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Per-row argmax for a rank-2 tensor: the predicted class of each
    /// sample in a batch of logits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        let (m, _n) = self.matrix_dims()?;
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = self.row(i)?;
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Whether every element is finite (no NaN/±∞).
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = mat(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(a.matmul(&b), Err(TensorError::MatmulDimMismatch { .. })));
        assert!(matches!(Tensor::zeros(&[3]).matmul(&b), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn degenerate_shapes_with_overflowing_output_are_rejected() {
        // (huge × 0) · (0 × huge): both inputs are empty and cheap to build,
        // but the output volume exceeds usize — must be a typed error, not a
        // wrapped allocation.
        let huge = 1usize << 33;
        let a = Tensor::zeros(&[huge, 0]);
        let b = Tensor::zeros(&[0, huge]);
        assert!(matches!(a.matmul(&b), Err(TensorError::Invalid(_))));
        let bt = Tensor::zeros(&[huge, 0]);
        assert!(matches!(a.matmul_transb(&bt), Err(TensorError::Invalid(_))));
        let at = Tensor::zeros(&[0, huge]);
        assert!(matches!(at.matmul_transa(&b), Err(TensorError::Invalid(_))));
        // The check itself, on a product that overflows and on one that
        // does not.
        assert!(matches!(checked_out_len(huge, huge), Err(TensorError::Invalid(_))));
        assert_eq!(checked_out_len(huge, 0).unwrap(), 0);
    }

    #[test]
    fn on_variants_match_default_backend() {
        use crate::BackendHandle;
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = mat(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let h = BackendHandle::scalar();
        assert_eq!(a.matmul_on(&b, h).unwrap(), a.matmul(&b).unwrap());
        let bt = mat(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], 2, 3);
        assert_eq!(a.matmul_transb_on(&bt, h).unwrap(), a.matmul_transb(&bt).unwrap());
        let at = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        assert_eq!(at.matmul_transa_on(&b, h).unwrap(), at.matmul_transa(&b).unwrap());
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = mat(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0, 1.0, 1.0, 2.0, -2.0, 0.5, 0.5], 4, 3);
        let fast = a.matmul_transb(&b).unwrap();
        let slow = a.matmul(&b.transposed().unwrap()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = mat(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], 3, 2);
        let fast = a.matmul_transa(&b).unwrap();
        let slow = a.transposed().unwrap().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let t = a.transposed().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transposed().unwrap(), a);
        assert_eq!(t.get(&[2, 1]).unwrap(), 6.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -3.0, 2.0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean().unwrap(), 0.0);
        assert_eq!(t.max().unwrap(), 2.0);
        assert_eq!(t.min().unwrap(), -3.0);
        assert!((t.norm_l2() - 14.0f32.sqrt()).abs() < 1e-6);
        assert!((t.norm_l2_sq() - 14.0).abs() < 1e-5);
    }

    #[test]
    fn reductions_reject_empty() {
        let e = Tensor::zeros(&[0]);
        assert!(e.mean().is_err());
        assert!(e.max().is_err());
        assert!(e.min().is_err());
        assert!(e.argmax().is_err());
        assert_eq!(e.sum(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 12.0);
        assert!(a.dot(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax().unwrap(), 1);
    }

    #[test]
    fn argmax_rows_per_sample() {
        let t = mat(&[0.1, 0.9, 0.0, 0.7, 0.2, 0.1], 2, 3);
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::zeros(&[3]).argmax_rows().is_err());
    }

    #[test]
    fn is_finite_detects_nan_inf() {
        assert!(Tensor::ones(&[4]).is_finite());
        let mut t = Tensor::ones(&[4]);
        t.as_mut_slice()[2] = f32::NAN;
        assert!(!t.is_finite());
        t.as_mut_slice()[2] = f32::INFINITY;
        assert!(!t.is_finite());
    }
}
