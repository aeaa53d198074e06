//! Convolution geometry and lowering: `im2col` / `col2im`.
//!
//! Standard 2-D convolutions in [`fedms-nn`](https://docs.rs/fedms-nn) are
//! computed by lowering each input image to a column matrix and multiplying
//! by the flattened kernel bank — the standard "im2col + GEMM" approach used
//! by most CPU deep-learning runtimes. A 1×1 convolution with stride 1 and no
//! padding needs no lowering (its column matrix is the image itself), and
//! depthwise convolutions read a zero-padded copy of the image
//! ([`Conv2dGeometry::pad_image`]) in a direct kernel instead.

use serde::{Deserialize, Serialize};

use crate::{kernels, Tensor, TensorError};

/// Static geometry of a 2-D convolution: input extents, kernel size, stride
/// and zero padding, with derived output extents.
///
/// # Example
///
/// ```
/// use fedms_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1)?;
/// assert_eq!((g.out_h, g.out_w), (8, 8)); // "same" padding
/// # Ok::<(), fedms_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Number of input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on every spatial border.
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the geometry, validating that the kernel fits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] if the stride is zero or the padded
    /// input is smaller than the kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::Invalid("conv stride must be positive".into()));
        }
        if kernel == 0 {
            return Err(TensorError::Invalid("conv kernel must be positive".into()));
        }
        let overflow = || TensorError::Invalid("conv geometry overflows usize".into());
        let pad2 = padding.checked_mul(2).ok_or_else(overflow)?;
        let padded_h = in_h.checked_add(pad2).ok_or_else(overflow)?;
        let padded_w = in_w.checked_add(pad2).ok_or_else(overflow)?;
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::Invalid(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        let out_h = (padded_h - kernel) / stride + 1;
        let out_w = (padded_w - kernel) / stride + 1;
        let geom =
            Conv2dGeometry { in_channels, in_h, in_w, kernel, stride, padding, out_h, out_w };
        // Reject geometries whose derived volumes wrap: every downstream
        // buffer size (input image, padded image, column matrix) is a
        // product of these extents, and a wrapped product would silently
        // under-allocate. The padded image bounds the plain one.
        let col_rows = in_channels
            .checked_mul(kernel)
            .and_then(|v| v.checked_mul(kernel))
            .ok_or_else(overflow)?;
        let col_cols = out_h.checked_mul(out_w).ok_or_else(overflow)?;
        col_rows.checked_mul(col_cols).ok_or_else(overflow)?;
        in_channels
            .checked_mul(padded_h)
            .and_then(|v| v.checked_mul(padded_w))
            .ok_or_else(overflow)?;
        Ok(geom)
    }

    /// Number of rows of the im2col matrix: `C · k · k`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the im2col matrix: `out_h · out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Volume of one input image: `C · H · W`.
    pub fn input_volume(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Height of the zero-padded input: `H + 2p`.
    pub fn padded_h(&self) -> usize {
        self.in_h + 2 * self.padding
    }

    /// Width of the zero-padded input: `W + 2p`.
    pub fn padded_w(&self) -> usize {
        self.in_w + 2 * self.padding
    }

    /// Volume of one zero-padded input image: `C · (H + 2p) · (W + 2p)`.
    pub fn padded_volume(&self) -> usize {
        self.in_channels * self.padded_h() * self.padded_w()
    }

    /// Whether this is a 1×1 convolution with stride 1 and no padding,
    /// whose im2col lowering is the identity: the column matrix of an image
    /// is the image itself.
    pub fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }

    /// Copies one `(C, H, W)` image (`image.len() == self.input_volume()`)
    /// into the interior of its zero-padded `(C, H + 2p, W + 2p)` form.
    ///
    /// Only the interior of `out` is written: its border must already be
    /// zero, and stays so across calls.
    pub fn pad_image(&self, image: &[f32], out: &mut [f32]) {
        let (h, w, p) = (self.in_h, self.in_w, self.padding);
        let (ph, pw) = (self.padded_h(), self.padded_w());
        for c in 0..self.in_channels {
            for y in 0..h {
                let src = &image[(c * h + y) * w..(c * h + y + 1) * w];
                let at = (c * ph + y + p) * pw + p;
                out[at..at + w].copy_from_slice(src);
            }
        }
    }
}

/// Lowers one `(C, H, W)` image into its `(C·k·k, out_h·out_w)` column
/// matrix, zero-filling padded positions.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `image.len()` differs from the
/// geometry's input volume.
pub fn im2col(image: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    if image.len() != geom.input_volume() {
        return Err(TensorError::LengthMismatch {
            got: image.len(),
            expected: geom.input_volume(),
        });
    }
    let mut out = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    kernels::im2col(image.as_slice(), geom, &mut out);
    Tensor::from_vec(out, &[geom.col_rows(), geom.col_cols()])
}

/// Scatters a `(C·k·k, out_h·out_w)` column-gradient matrix back onto a
/// `(C, H, W)` image gradient, accumulating overlapping contributions — the
/// adjoint of [`im2col`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the
/// geometry's column-matrix shape.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    if cols.dims() != [geom.col_rows(), geom.col_cols()] {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: vec![geom.col_rows(), geom.col_cols()],
        });
    }
    let mut out = vec![0.0f32; geom.input_volume()];
    kernels::col2im(cols.as_slice(), geom, &mut out);
    Tensor::from_vec(out, &[geom.in_channels, geom.in_h, geom.in_w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 64);
        assert_eq!(g.input_volume(), 192);
    }

    #[test]
    fn geometry_stride_two() {
        let g = Conv2dGeometry::new(1, 8, 8, 3, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geometry_validation() {
        assert!(Conv2dGeometry::new(1, 4, 4, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(1, 4, 4, 0, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 2).is_ok());
    }

    #[test]
    fn geometry_rejects_overflowing_volumes() {
        // Padding arithmetic and derived column-matrix volumes must never
        // wrap — a wrapped product would under-allocate downstream buffers.
        assert!(matches!(
            Conv2dGeometry::new(1, 4, 4, 3, 1, usize::MAX / 2 + 1),
            Err(TensorError::Invalid(_))
        ));
        assert!(matches!(
            Conv2dGeometry::new(usize::MAX, 4, 4, 3, 1, 1),
            Err(TensorError::Invalid(_))
        ));
        assert!(matches!(
            Conv2dGeometry::new(1, usize::MAX / 2, usize::MAX / 2, 3, 1, 1),
            Err(TensorError::Invalid(_))
        ));
    }

    #[test]
    fn pad_image_fills_the_interior_only() {
        let g = Conv2dGeometry::new(2, 2, 3, 3, 2, 1).unwrap();
        assert_eq!((g.padded_h(), g.padded_w(), g.padded_volume()), (4, 5, 40));
        let img: Vec<f32> = (1..=12).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; g.padded_volume()];
        g.pad_image(&img, &mut out);
        #[rustfmt::skip]
        let expected = [
            0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 2.0, 3.0, 0.0,
            0.0, 4.0, 5.0, 6.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 7.0, 8.0, 9.0, 0.0,
            0.0, 10.0, 11.0, 12.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0,
        ];
        assert_eq!(out, expected);
        // Without padding the padded image is the image.
        let g = Conv2dGeometry::new(2, 2, 3, 1, 1, 0).unwrap();
        assert!(g.is_pointwise());
        let mut out = vec![0.0f32; g.padded_volume()];
        g.pad_image(&img, &mut out);
        assert_eq!(out, img);
        assert!(!Conv2dGeometry::new(2, 2, 3, 1, 2, 0).unwrap().is_pointwise());
        assert!(!Conv2dGeometry::new(2, 2, 3, 1, 1, 1).unwrap().is_pointwise());
    }

    #[test]
    fn im2col_1x1_kernel_is_identity_layout() {
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 0).unwrap();
        let img = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2]).unwrap();
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_known_patch() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding → 2x2 output.
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // Row 0 is the top-left element of every patch.
        assert_eq!(cols.row(0).unwrap(), &[1.0, 2.0, 4.0, 5.0]);
        // Row 3 is the bottom-right element of every patch.
        assert_eq!(cols.row(3).unwrap(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (2, 2));
        let img = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&img, &g).unwrap();
        // Top-left kernel tap over the top-left output position reads padding.
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        // Center kernel tap always reads real pixels.
        assert_eq!(cols.row(4).unwrap(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn im2col_validates_input_volume() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        assert!(im2col(&Tensor::zeros(&[5]), &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property the backward pass relies on.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&mut rng, &[2, 5, 4], 0.0, 1.0);
        let y = Tensor::randn(&mut rng, &[g.col_rows(), g.col_cols()], 0.0, 1.0);
        let lhs = im2col(&x, &g).unwrap().dot(&y).unwrap();
        let rhs = x.flattened().dot(&col2im(&y, &g).unwrap().flattened()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        assert!(col2im(&Tensor::zeros(&[3, 3]), &g).is_err());
    }
}
