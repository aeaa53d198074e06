//! The optimized CPU backend: blocked, multi-accumulator, optionally
//! threaded kernels.
//!
//! Only available behind the `backend-blocked` feature. The kernels here
//! reassociate floating-point reductions (multiple accumulators, pairwise
//! combination), so results differ from [`super::ScalarBackend`] in the last
//! ulps; gradcheck and elementwise-tolerance tests pin them to the
//! reference. For a fixed thread count the kernels are fully deterministic:
//! intra-op threading splits *output* rows into disjoint contiguous chunks,
//! each computed with the identical per-element arithmetic, so the result
//! bits do not depend on scheduling.

use std::sync::{Mutex, OnceLock};

use crate::conv::Conv2dGeometry;

use super::{scalar, Backend, BackendHandle};

/// Number of parallel accumulator lanes in the blocked dot product. 16 f32
/// lanes fill one AVX-512 register (or two AVX2 registers) and break the
/// serial dependency chain of a naive accumulation loop.
const LANES: usize = 16;

/// Minimum output rows per thread before intra-op threading pays for itself.
const MIN_ROWS_PER_THREAD: usize = 2;

/// The cache-blocked, autovectorization-friendly CPU backend.
///
/// Construct via [`crate::backend::BackendKind::resolve`], which interns one
/// instance per intra-op thread count.
#[derive(Debug, Clone, Copy)]
pub struct BlockedBackend {
    /// Intra-op worker count (1 = single-threaded).
    threads: usize,
}

impl BlockedBackend {
    /// Creates a backend with the given intra-op worker count (`0` picks one
    /// worker per available core).
    pub fn new(intra_threads: usize) -> Self {
        let threads = if intra_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            intra_threads
        };
        BlockedBackend { threads }
    }

    /// The resolved intra-op worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `m` output rows into per-thread chunks and runs `work` on each
    /// disjoint `(row_start, out_chunk)` slice. Falls back to inline
    /// execution when threading cannot pay off. Determinism: the chunk
    /// boundaries depend only on `(m, threads)` and each output element is
    /// written by exactly one thread with the same arithmetic as the inline
    /// path.
    fn for_row_chunks<F>(&self, out: &mut [f32], m: usize, n: usize, work: F)
    where
        F: Fn(usize, &mut [f32]) + Send + Sync,
    {
        let workers = self.threads.min(m / MIN_ROWS_PER_THREAD.max(1)).max(1);
        if workers <= 1 || m == 0 {
            work(0, out);
            return;
        }
        let rows_per = m.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut row = 0usize;
            while row < m {
                let take = rows_per.min(m - row);
                let (chunk, tail) = rest.split_at_mut(take * n);
                rest = tail;
                let start = row;
                let work = &work;
                scope.spawn(move || work(start, chunk));
                row += take;
            }
        });
    }
}

/// Dot product with [`LANES`] independent accumulators and a pairwise
/// reduction — the shape LLVM autovectorizes into wide FMA-free SIMD.
#[inline]
fn dot_blocked(x: &[f32], y: &[f32]) -> f32 {
    // Mirror the zip semantics of the scalar reference: pair elementwise up
    // to the shorter operand (otherwise unequal chunk remainders mispair).
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder().iter()) {
        tail += a * b;
    }
    // Pairwise reduce the lanes for a deterministic, shallow tree.
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] += acc[l + width];
        }
        width /= 2;
    }
    acc[0] + tail
}

/// `orow += aik · brow` over one blocked row — the vectorizable axpy core of
/// the k-unrolled matmul kernels.
#[inline]
#[allow(clippy::too_many_arguments)] // four (coefficient, row) pairs, flat for codegen
fn row_axpy4(
    orow: &mut [f32],
    a0: f32,
    b0: &[f32],
    a1: f32,
    b1: &[f32],
    a2: f32,
    b2: &[f32],
    a3: f32,
    b3: &[f32],
) {
    for (j, o) in orow.iter_mut().enumerate() {
        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
}

impl Backend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.for_row_chunks(out, m, n, |row0, chunk| {
            for (local_i, orow) in chunk.chunks_mut(n).enumerate() {
                let i = row0 + local_i;
                let arow = &a[i * k..(i + 1) * k];
                let mut kk = 0;
                while kk + 4 <= k {
                    row_axpy4(
                        orow,
                        arow[kk],
                        &b[kk * n..(kk + 1) * n],
                        arow[kk + 1],
                        &b[(kk + 1) * n..(kk + 2) * n],
                        arow[kk + 2],
                        &b[(kk + 2) * n..(kk + 3) * n],
                        arow[kk + 3],
                        &b[(kk + 3) * n..(kk + 4) * n],
                    );
                    kk += 4;
                }
                while kk < k {
                    let aik = arow[kk];
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                        *o += aik * bkj;
                    }
                    kk += 1;
                }
            }
        });
    }

    fn matmul_transb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.for_row_chunks(out, m, n, |row0, chunk| {
            for (local_i, orow) in chunk.chunks_mut(n).enumerate() {
                let i = row0 + local_i;
                let arow = &a[i * k..(i + 1) * k];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = dot_blocked(arow, &b[j * k..(j + 1) * k]);
                }
            }
        });
    }

    fn matmul_transa(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.for_row_chunks(out, m, n, |row0, chunk| {
            for (local_i, orow) in chunk.chunks_mut(n).enumerate() {
                let i = row0 + local_i;
                let mut kk = 0;
                while kk + 4 <= k {
                    row_axpy4(
                        orow,
                        a[kk * m + i],
                        &b[kk * n..(kk + 1) * n],
                        a[(kk + 1) * m + i],
                        &b[(kk + 1) * n..(kk + 2) * n],
                        a[(kk + 2) * m + i],
                        &b[(kk + 2) * n..(kk + 3) * n],
                        a[(kk + 3) * m + i],
                        &b[(kk + 3) * n..(kk + 4) * n],
                    );
                    kk += 4;
                }
                while kk < k {
                    let aki = a[kk * m + i];
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                        *o += aki * bkj;
                    }
                    kk += 1;
                }
            }
        });
    }

    fn matvec(&self, a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize) {
        let _ = m;
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot_blocked(&a[i * n..(i + 1) * n], x);
        }
    }

    fn im2col(&self, image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        scalar::im2col_loops(image, geom, out);
    }

    fn col2im(&self, cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        scalar::col2im_loops(cols, geom, out);
    }

    fn depthwise_forward(
        &self,
        padded: &[f32],
        weight: &[f32],
        bias: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
    ) {
        scalar::depthwise_forward_loops(padded, weight, bias, geom, out);
    }

    fn depthwise_backward(
        &self,
        padded: &[f32],
        weight: &[f32],
        grad_out: &[f32],
        geom: &Conv2dGeometry,
        grad_in: &mut [f32],
        grad_weight: &mut [f32],
        grad_bias: &mut [f32],
    ) {
        scalar::depthwise_backward_loops(
            padded,
            weight,
            grad_out,
            geom,
            grad_in,
            grad_weight,
            grad_bias,
        );
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        for (o, &v) in y.iter_mut().zip(x.iter()) {
            *o += alpha * v;
        }
    }

    fn scale(&self, alpha: f32, x: &mut [f32]) {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    }

    fn dot(&self, x: &[f32], y: &[f32]) -> f32 {
        dot_blocked(x, y)
    }

    fn sum(&self, x: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut xc = x.chunks_exact(LANES);
        for xs in &mut xc {
            for l in 0..LANES {
                acc[l] += xs[l];
            }
        }
        let tail: f32 = xc.remainder().iter().sum();
        let mut width = LANES / 2;
        while width > 0 {
            for l in 0..width {
                acc[l] += acc[l + width];
            }
            width /= 2;
        }
        acc[0] + tail
    }

    fn softmax_rows(&self, data: &mut [f32], rows: usize, cols: usize) {
        ScalarBackendDelegate.softmax_rows(data, rows, cols);
    }

    fn sgd_update(
        &self,
        params: &mut [f32],
        grads: &[f32],
        lr: f32,
        scale: f32,
        weight_decay: f32,
        momentum: f32,
        velocity: Option<&mut [f32]>,
    ) {
        ScalarBackendDelegate.sgd_update(
            params,
            grads,
            lr,
            scale,
            weight_decay,
            momentum,
            velocity,
        );
    }
}

/// Local alias so delegation reads clearly (softmax and the SGD update are
/// elementwise — there is nothing to block, and keeping the scalar
/// expression order makes the optimized path easier to compare).
use super::ScalarBackend as ScalarBackendDelegate;

/// Interned instances, keyed by resolved thread count. Backends are tiny and
/// the set of distinct thread counts per process is bounded, so leaking them
/// into `'static` handles is the simplest safe way to hand out `Copy`
/// references (`unsafe` is forbidden workspace-wide).
static INSTANCES: OnceLock<Mutex<Vec<(usize, &'static BlockedBackend)>>> = OnceLock::new();

/// Resolves an interned handle for the given intra-op thread count.
pub(super) fn handle(intra_threads: usize) -> BackendHandle {
    let backend = BlockedBackend::new(intra_threads);
    let instances = INSTANCES.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = instances.lock().expect("backend intern table poisoned");
    if let Some(&(_, existing)) = guard.iter().find(|(t, _)| *t == backend.threads) {
        return BackendHandle::from_static(existing);
    }
    let leaked: &'static BlockedBackend = Box::leak(Box::new(backend));
    guard.push((backend.threads, leaked));
    BackendHandle::from_static(leaked)
}

#[cfg(test)]
mod tests {
    use super::super::ScalarBackend;
    use super::*;

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        // SplitMix64-style stream, matching the bench harness idiom.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..len)
            .map(|_| {
                state =
                    state.wrapping_mul(0xAF25_1AF3_B0F0_25B5).wrapping_add(0xB564_EF22_EC7A_ECE5);
                let bits = (state >> 40) as u32;
                bits as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let denom = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() / denom <= tol, "{what}: coord {i} differs: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmuls_match_scalar() {
        let sc = ScalarBackend;
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 2), (32, 192, 64), (7, 33, 17)] {
            let a = pseudo(1, m * k);
            let b = pseudo(2, k * n);
            for threads in [1usize, 4] {
                let bl = BlockedBackend::new(threads);
                let mut s_out = vec![0.0f32; m * n];
                let mut b_out = vec![0.0f32; m * n];
                sc.matmul(&a, &b, &mut s_out, m, k, n);
                bl.matmul(&a, &b, &mut b_out, m, k, n);
                assert_close(&s_out, &b_out, 1e-5, "matmul");

                let bt = pseudo(3, n * k);
                let mut s_t = vec![0.0f32; m * n];
                let mut b_t = vec![0.0f32; m * n];
                sc.matmul_transb(&a, &bt, &mut s_t, m, k, n);
                bl.matmul_transb(&a, &bt, &mut b_t, m, k, n);
                assert_close(&s_t, &b_t, 1e-5, "matmul_transb");

                let at = pseudo(4, k * m);
                let mut s_a = vec![0.0f32; m * n];
                let mut b_a = vec![0.0f32; m * n];
                sc.matmul_transa(&at, &b, &mut s_a, m, k, n);
                bl.matmul_transa(&at, &b, &mut b_a, m, k, n);
                assert_close(&s_a, &b_a, 1e-5, "matmul_transa");
            }
        }
    }

    #[test]
    fn blocked_matvec_and_reductions_match_scalar() {
        let sc = ScalarBackend;
        let bl = BlockedBackend::new(1);
        let (m, n) = (13usize, 37usize);
        let a = pseudo(5, m * n);
        let x = pseudo(6, n);
        let mut s_out = vec![0.0f32; m];
        let mut b_out = vec![0.0f32; m];
        sc.matvec(&a, &x, &mut s_out, m, n);
        bl.matvec(&a, &x, &mut b_out, m, n);
        assert_close(&s_out, &b_out, 1e-5, "matvec");
        let y = pseudo(7, 1001);
        let z = pseudo(8, 1001);
        assert!((sc.dot(&y, &z) - bl.dot(&y, &z)).abs() < 1e-3);
        assert!((sc.sum(&y) - bl.sum(&y)).abs() < 1e-3);
    }

    #[test]
    fn blocked_im2col_is_bit_identical_to_scalar() {
        // Pure data movement — must be exactly equal, not just close.
        let sc = ScalarBackend;
        let bl = BlockedBackend::new(1);
        let g = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let img = pseudo(9, g.input_volume());
        let mut s_cols = vec![0.0f32; g.col_rows() * g.col_cols()];
        let mut b_cols = vec![0.0f32; g.col_rows() * g.col_cols()];
        sc.im2col(&img, &g, &mut s_cols);
        bl.im2col(&img, &g, &mut b_cols);
        assert_eq!(s_cols, b_cols);
        let mut s_im = vec![0.0f32; g.input_volume()];
        let mut b_im = vec![0.0f32; g.input_volume()];
        sc.col2im(&s_cols, &g, &mut s_im);
        bl.col2im(&b_cols, &g, &mut b_im);
        assert_eq!(s_im, b_im);
    }

    #[test]
    fn threaded_matmul_is_deterministic() {
        let bl = BlockedBackend::new(4);
        let (m, k, n) = (16usize, 48usize, 24usize);
        let a = pseudo(10, m * k);
        let b = pseudo(11, k * n);
        let mut first = vec![0.0f32; m * n];
        bl.matmul_transb(&a, &b, &mut first, m, k, n);
        for _ in 0..8 {
            let mut again = vec![0.0f32; m * n];
            bl.matmul_transb(&a, &b, &mut again, m, k, n);
            assert_eq!(first, again, "threaded kernel must be run-to-run deterministic");
        }
        // Thread count must not change the bits either: chunks are disjoint
        // and per-element arithmetic is identical.
        let solo = BlockedBackend::new(1);
        let mut single = vec![0.0f32; m * n];
        solo.matmul_transb(&a, &b, &mut single, m, k, n);
        assert_eq!(first, single, "bits must not depend on intra-op thread count");
    }

    #[test]
    fn zero_thread_count_resolves_to_cores() {
        assert!(BlockedBackend::new(0).threads() >= 1);
        assert_eq!(BlockedBackend::new(3).threads(), 3);
    }
}
