//! The dense, contiguous, row-major tensor type.

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Shape, TensorError};

/// A dense `f32` tensor stored contiguously in row-major order.
///
/// `Tensor` is the workhorse value type of the whole workspace: model
/// parameters, gradients, mini-batches, aggregated global models and
/// Byzantine-tampered disseminations are all `Tensor`s.
///
/// Fallible operations return [`TensorError`]; infallible convenience
/// operators (`+`, `-`) are provided for references and **panic** on shape
/// mismatch (documented per impl), mirroring the standard practice of
/// numerical array libraries.
///
/// # Example
///
/// ```
/// use fedms_tensor::Tensor;
///
/// let x = Tensor::linspace(0.0, 1.0, 5);
/// assert_eq!(x.len(), 5);
/// assert!((x.mean()? - 0.5).abs() < 1e-6);
/// # Ok::<(), fedms_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch { got: data.len(), expected: shape.volume() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: data.to_vec() }
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        Tensor { shape, data: (0..n).map(&mut f).collect() }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor of `n` evenly spaced values from `start` to
    /// `end` inclusive. With `n == 1` the single value is `start`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        if n == 0 {
            return Tensor::zeros(&[0]);
        }
        if n == 1 {
            return Tensor::from_slice(&[start]);
        }
        let step = (end - start) / (n as f32 - 1.0);
        Tensor::from_fn(&[n], |i| start + step * i as f32)
    }

    /// Creates a tensor with entries drawn i.i.d. from `N(mean, std²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    pub fn randn<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], mean: f32, std: f32) -> Self {
        let normal = Normal::new(mean, std).expect("std must be finite and non-negative");
        Tensor::from_fn(dims, |_| normal.sample(rng))
    }

    /// Creates a tensor with entries drawn i.i.d. uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], lo: f32, hi: f32) -> Self {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let dist = Uniform::new(lo, hi);
        Tensor::from_fn(dims, |_| dist.sample(rng))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents as a slice, for quick destructuring.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a per-axis index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::flat_index`].
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Sets the element at a per-axis index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::flat_index`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Borrows row `i` of a rank-2 tensor as a contiguous slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] if `i` exceeds the row count.
    pub fn row(&self, i: usize) -> Result<&[f32], TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, got: self.rank() });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds { index: i, bound: rows });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Returns a new tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch { got: self.len(), expected: shape.volume() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Returns this tensor flattened to rank 1.
    pub fn flattened(&self) -> Tensor {
        Tensor { shape: Shape::new(&[self.len()]), data: self.data.clone() }
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn check_same_shape(&self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a + b))
    }

    /// Elementwise difference, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a - b))
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a * b))
    }

    /// In-place elementwise addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_inplace(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`, in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a copy with every element multiplied by `alpha`.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        self.map(|a| a * alpha)
    }

    /// Returns a copy with `alpha` added to every element.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        self.map(|a| a + alpha)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&a| f(a)).collect() }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// Shape agreement is the caller's responsibility; all public callers in
    /// this crate validate first.
    pub(crate) fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.shape, other.shape);
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }
}

/// Panics on shape mismatch; prefer [`Tensor::add`] in fallible contexts.
impl std::ops::Add for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs).expect("tensor + tensor requires matching shapes")
    }
}

/// Panics on shape mismatch; prefer [`Tensor::sub`] in fallible contexts.
impl std::ops::Sub for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs).expect("tensor - tensor requires matching shapes")
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|v| format!("{v:.4}")).collect();
        write!(f, "[{}{}]", preview.join(", "), if self.len() > 8 { ", …" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_produce_expected_values() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).rank(), 0);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(-1.0, 1.0, 5);
        assert_eq!(t.as_slice()[0], -1.0);
        assert_eq!(t.as_slice()[4], 1.0);
        assert_eq!(Tensor::linspace(3.0, 9.0, 1).as_slice(), &[3.0]);
        assert!(Tensor::linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&mut r1, &[16], 0.0, 1.0);
        let b = Tensor::randn(&mut r2, &[16], 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_statistics_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, &[10_000], 2.0, 0.5);
        let mean = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn rand_uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -10.0, 10.0);
        assert!(t.as_slice().iter().all(|&v| (-10.0..10.0).contains(&v)));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
        assert!(Tensor::zeros(&[4]).row(0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::linspace(0.0, 5.0, 6);
        let m = t.reshape(&[2, 3]).unwrap();
        assert_eq!(m.dims(), &[2, 3]);
        assert_eq!(m.as_slice(), t.as_slice());
        assert!(t.reshape(&[4]).is_err());
        assert_eq!(m.flattened().dims(), &[6]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
        let mut c = a.clone();
        assert!(c.add_inplace(&b).is_err());
        assert!(c.axpy(1.0, &b).is_err());
    }

    #[test]
    fn inplace_ops() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        a.add_inplace(&b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[8.0, 16.0]);
    }

    #[test]
    fn map_and_scalar_helpers() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[20]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(!Tensor::scalar(1.0).to_string().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::linspace(0.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
