//! Pluggable compute backends for the tensor hot path.
//!
//! Every dense kernel the training stack leans on — matmul variants,
//! im2col/col2im convolution lowering, the direct depthwise convolution
//! pair, the elementwise/reduction primitives and the SGD parameter update
//! — is routed through the [`Backend`] trait. Two implementations ship:
//!
//! * [`ScalarBackend`] — the original hand-rolled loops. This is the
//!   **deterministic CI oracle**: every run on it is bit-identical to the
//!   code that predates the backend abstraction, and it stays the default
//!   everywhere. A scalar kernel may change its loop nesting only if every
//!   output element keeps its exact sequence of f32 operations (the same
//!   start value and the same term order).
//! * `BlockedBackend` (behind the `backend-blocked` feature) — cache
//!   blocked, autovectorization-friendly kernels with optional intra-op
//!   threading. It reassociates floating-point reductions, so results are
//!   *statistically* equivalent (pinned by gradcheck and elementwise
//!   tolerance tests) but not bit-identical to the scalar oracle.
//!
//! Consumers hold a [`BackendHandle`] — a `Copy` reference to an interned
//! backend instance — and configs carry a serializable [`BackendKind`]
//! resolved once at engine construction. The determinism contract and the
//! threading composition rules are documented in DESIGN.md §14.

use crate::conv::Conv2dGeometry;
use crate::TensorError;

mod scalar;
pub use scalar::ScalarBackend;

#[cfg(feature = "backend-blocked")]
mod blocked;
#[cfg(feature = "backend-blocked")]
pub use blocked::BlockedBackend;

/// Slice-level compute kernels behind every tensor/NN hot path.
///
/// All methods operate on caller-validated, exactly-sized slices; the
/// shape-checked entry points live on [`crate::Tensor`] and in
/// [`crate::conv`]. Output-buffer contracts are per-method: kernels that
/// *accumulate* require a zero-initialized output, kernels that overwrite
/// state so.
///
/// Implementations must be deterministic: the same inputs (and the same
/// configured thread count) must produce the same bits on every call.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// A short stable identifier (`"scalar"`, `"blocked"`).
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

    /// `out = a · x` for row-major `a: (m×n)`, `x: (n)`, `out: (m)`.
    ///
    /// Overwrites `out` completely.
    fn matvec(&self, a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize);

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

    /// `y += alpha · x` elementwise (`x.len() == y.len()`).
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// `x *= alpha` elementwise.
    fn scale(&self, alpha: f32, x: &mut [f32]);

    /// The inner product of two equal-length slices.
    fn dot(&self, x: &[f32], y: &[f32]) -> f32;

    /// The sum of all elements.
    fn sum(&self, x: &[f32]) -> f32;

    /// Numerically stable in-place softmax over each row of a row-major
    /// `(rows × cols)` matrix.
    fn softmax_rows(&self, data: &mut [f32], rows: usize, cols: usize);

    /// One SGD parameter update over a flat parameter/gradient pair:
    ///
    /// ```text
    /// eff = scale·g + weight_decay·p
    /// if momentum > 0 { v = momentum·v + eff; eff = v }
    /// p -= lr·eff
    /// ```
    ///
    /// `velocity` must be `Some` iff `momentum > 0`, with the same length
    /// as `params`.
    // One flat argument per optimizer hyper-parameter keeps the trait
    // object-safe without a config struct that every impl would unpack.
    #[allow(clippy::too_many_arguments)]
    fn sgd_update(
        &self,
        params: &mut [f32],
        grads: &[f32],
        lr: f32,
        scale: f32,
        weight_decay: f32,
        momentum: f32,
        velocity: Option<&mut [f32]>,
    );
}

/// The interned scalar oracle.
static SCALAR: ScalarBackend = ScalarBackend;

/// A `Copy` reference to an interned [`Backend`] instance.
///
/// Handles are cheap to pass around and embed in layers/optimizers; they
/// deref to the backend's kernels. The default handle is the scalar
/// oracle.
#[derive(Clone, Copy)]
pub struct BackendHandle(&'static (dyn Backend + 'static));

impl BackendHandle {
    /// The default [`ScalarBackend`] handle.
    pub fn scalar() -> Self {
        BackendHandle(&SCALAR)
    }

    /// Wraps a leaked/static backend instance.
    pub fn from_static(backend: &'static (dyn Backend + 'static)) -> Self {
        BackendHandle(backend)
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
    /// The deterministic scalar oracle (the default).
    #[default]
    Scalar,
    /// The cache-blocked, vectorization-friendly CPU backend. Requires the
    /// `backend-blocked` feature; resolving it without the feature is a
    /// configuration error, never a silent fallback.
    Blocked,
}

impl BackendKind {
    /// Parses a CLI/spec token (`"scalar"` or `"blocked"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(BackendKind::Scalar),
            "blocked" => Ok(BackendKind::Blocked),
            other => Err(format!("unknown backend `{other}` (expected scalar or blocked)")),
        }
    }

    /// The token form accepted by [`BackendKind::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Blocked => "blocked",
        }
    }

    /// Whether this kind can be resolved in the current build.
    pub fn is_available(&self) -> bool {
        match self {
            BackendKind::Scalar => true,
            BackendKind::Blocked => cfg!(feature = "backend-blocked"),
        }
    }

    /// Resolves the kind to an interned backend instance.
    ///
    /// `intra_threads` is the intra-op worker count granted by the caller
    /// (the engine owns the thread budget): `0` picks one worker per
    /// available core, `1` disables intra-op threading. The scalar oracle
    /// ignores it — it is single-threaded by definition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when the kind is not compiled in
    /// (`Blocked` without the `backend-blocked` feature).
    pub fn resolve(&self, intra_threads: usize) -> Result<BackendHandle, TensorError> {
        match self {
            BackendKind::Scalar => {
                let _ = intra_threads;
                Ok(BackendHandle::scalar())
            }
            #[cfg(feature = "backend-blocked")]
            BackendKind::Blocked => Ok(blocked::handle(intra_threads)),
            #[cfg(not(feature = "backend-blocked"))]
            BackendKind::Blocked => Err(TensorError::Invalid(
                "backend `blocked` is not compiled in; rebuild with --features backend-blocked"
                    .into(),
            )),
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
        assert_eq!(BackendKind::parse("blocked").unwrap(), BackendKind::Blocked);
        assert!(BackendKind::parse("gpu").is_err());
        assert_eq!(BackendKind::Scalar.to_string(), "scalar");
        assert_eq!(BackendKind::Blocked.as_str(), "blocked");
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        let json = serde_json::to_string(&BackendKind::Blocked).unwrap();
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Blocked);
    }

    #[test]
    fn scalar_always_resolves() {
        assert!(BackendKind::Scalar.is_available());
        assert_eq!(BackendKind::Scalar.resolve(0).unwrap().name(), "scalar");
        assert_eq!(BackendKind::Scalar.resolve(8).unwrap().name(), "scalar");
    }

    #[cfg(not(feature = "backend-blocked"))]
    #[test]
    fn blocked_errors_without_feature() {
        assert!(!BackendKind::Blocked.is_available());
        let err = BackendKind::Blocked.resolve(1).unwrap_err();
        assert!(matches!(err, TensorError::Invalid(_)));
        assert!(err.to_string().contains("backend-blocked"), "{err}");
    }

    #[cfg(feature = "backend-blocked")]
    #[test]
    fn blocked_resolves_with_feature() {
        assert!(BackendKind::Blocked.is_available());
        assert_eq!(BackendKind::Blocked.resolve(1).unwrap().name(), "blocked");
        // Interning: the same thread count yields the same instance.
        let a = BackendKind::Blocked.resolve(2).unwrap();
        let b = BackendKind::Blocked.resolve(2).unwrap();
        assert!(std::ptr::eq(a.0, b.0));
    }

    #[test]
    fn handle_is_send_sync_copy() {
        fn assert_traits<T: Send + Sync + Copy>() {}
        assert_traits::<BackendHandle>();
    }
}
