//! The compute backend behind the tensor hot path.
//!
//! The dense kernels the layers dispatch — the three matmul variants,
//! im2col/col2im convolution lowering and the direct depthwise convolution
//! pair — are routed through the [`Backend`] trait. One implementation
//! ships: [`ScalarBackend`], the **deterministic oracle**. Every run on it
//! is bit-identical to the code that predates the backend abstraction. A
//! scalar kernel may change its loop nesting only if every output element
//! keeps its exact sequence of f32 operations (the same start value and the
//! same term order).
//!
//! Consumers hold a [`BackendHandle`] — a `Copy` reference to an interned
//! backend instance — and configs carry a serializable [`BackendKind`]
//! resolved once at engine construction. The exactness contract is
//! documented in DESIGN.md §14.

use crate::conv::Conv2dGeometry;

mod scalar;
pub use scalar::ScalarBackend;

/// Slice-level compute kernels behind every tensor/NN hot path.
///
/// All methods operate on caller-validated, exactly-sized slices; the
/// shape-checked entry points live on [`crate::Tensor`] and in
/// [`crate::im2col`]/[`crate::col2im`]. Output-buffer contracts are
/// per-method: kernels that *accumulate* require a zero-initialized
/// output, kernels that overwrite state so.
///
/// Implementations must be deterministic: the same inputs must produce the
/// same bits on every call.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// A short stable identifier (`"scalar"`).
    fn name(&self) -> &'static str;

    /// `out += a · b` for row-major `a: (m×k)`, `b: (k×n)`, `out: (m×n)`.
    ///
    /// `out` must be zero-initialized (the kernel accumulates).
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out = a · bᵀ` for row-major `a: (m×k)`, `b: (n×k)`, `out: (m×n)`.
    ///
    /// Overwrites `out` completely.
    fn matmul_transb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out += aᵀ · b` for row-major `a: (k×m)`, `b: (k×n)`, `out: (m×n)`.
    ///
    /// `out` must be zero-initialized (the kernel accumulates).
    fn matmul_transa(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Lowers one `(C, H, W)` image (`image.len() == geom.input_volume()`)
    /// into its `(C·k·k, out_h·out_w)` column matrix.
    ///
    /// Overwrites `out` completely, padded positions with `0.0`.
    fn im2col(&self, image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]);

    /// Scatters a `(C·k·k, out_h·out_w)` column matrix back onto a
    /// `(C, H, W)` image, accumulating overlaps — the adjoint of
    /// [`Backend::im2col`].
    ///
    /// `out` must be zero-initialized (the kernel accumulates).
    fn col2im(&self, cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]);

    /// Depthwise convolution forward: one `k×k` filter per channel.
    ///
    /// `padded` holds `n` zero-padded `(C, H+2p, W+2p)` images (see
    /// [`Conv2dGeometry::pad_image`]), `weight` is `(C, k·k)`, `bias` is
    /// `(C)` and `out` receives the `n` `(C, out_h, out_w)` outputs, where
    /// `n = out.len() / (C·out_h·out_w)`. Overwrites `out` completely. Each
    /// output starts at its channel's bias and adds its tap products in
    /// `(ky, kx)` order, padded taps included as `w·0.0`.
    fn depthwise_forward(
        &self,
        padded: &[f32],
        weight: &[f32],
        bias: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
    );

    /// Depthwise convolution backward over the `n` padded images a
    /// [`Backend::depthwise_forward`] read, given `grad_out` of the
    /// outputs' shape.
    ///
    /// Writes the input gradient into `grad_in` (`n` unpadded images,
    /// zero-initialized: the kernel accumulates) and adds each sample's
    /// weight and bias gradients into `grad_weight` `(C, k·k)` and
    /// `grad_bias` `(C)`, one per-sample partial sum at a time in sample
    /// order.
    // Three gradient outputs on top of the forward's inputs; a struct
    // would only be unpacked again by every implementation.
    #[allow(clippy::too_many_arguments)]
    fn depthwise_backward(
        &self,
        padded: &[f32],
        weight: &[f32],
        grad_out: &[f32],
        geom: &Conv2dGeometry,
        grad_in: &mut [f32],
        grad_weight: &mut [f32],
        grad_bias: &mut [f32],
    );
}

/// The interned scalar oracle.
static SCALAR: ScalarBackend = ScalarBackend;

/// A `Copy` reference to an interned [`Backend`] instance.
///
/// Handles are cheap to pass around and embed in layers; they
/// deref to the backend's kernels. The default handle is the scalar
/// oracle.
#[derive(Clone, Copy)]
pub struct BackendHandle(&'static (dyn Backend + 'static));

impl BackendHandle {
    /// The default [`ScalarBackend`] handle.
    pub fn scalar() -> Self {
        BackendHandle(&SCALAR)
    }
}

impl Default for BackendHandle {
    fn default() -> Self {
        BackendHandle::scalar()
    }
}

impl std::ops::Deref for BackendHandle {
    type Target = dyn Backend + 'static;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BackendHandle({})", self.0.name())
    }
}

/// Serializable backend selection carried by configs and spec files.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum BackendKind {
    /// The deterministic scalar oracle (the default and the only backend).
    #[default]
    Scalar,
}

impl BackendKind {
    /// Parses a CLI/spec token (`"scalar"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(BackendKind::Scalar),
            other => Err(format!("unknown backend `{other}` (expected scalar)")),
        }
    }

    /// The token form accepted by [`BackendKind::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
        }
    }

    /// Resolves the kind to its interned backend instance.
    pub fn resolve(&self) -> BackendHandle {
        match self {
            BackendKind::Scalar => BackendHandle::scalar(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_handle_is_default_and_named() {
        let h = BackendHandle::default();
        assert_eq!(h.name(), "scalar");
        assert_eq!(BackendHandle::scalar().name(), "scalar");
        assert_eq!(format!("{h:?}"), "BackendHandle(scalar)");
    }

    #[test]
    fn kind_parses_and_round_trips() {
        assert_eq!(BackendKind::parse("scalar").unwrap(), BackendKind::Scalar);
        assert!(BackendKind::parse("gpu").is_err());
        assert_eq!(BackendKind::Scalar.to_string(), "scalar");
        assert_eq!(BackendKind::Scalar.as_str(), "scalar");
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        let json = serde_json::to_string(&BackendKind::Scalar).unwrap();
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Scalar);
    }

    #[test]
    fn scalar_always_resolves() {
        assert_eq!(BackendKind::Scalar.resolve().name(), "scalar");
    }

    #[test]
    fn blocked_is_an_unknown_backend() {
        // The blocked backend is gone: its token parses as any unknown one.
        let err = BackendKind::parse("blocked").unwrap_err();
        assert_eq!(err, "unknown backend `blocked` (expected scalar)");
        assert!(serde_json::from_str::<BackendKind>("\"Blocked\"").is_err());
    }

    #[test]
    fn handle_is_send_sync_copy() {
        fn assert_traits<T: Send + Sync + Copy>() {}
        assert_traits::<BackendHandle>();
    }
}
