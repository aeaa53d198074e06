//! The reference scalar backend: the pre-backend loop bodies.
//!
//! Every kernel here preserves the exact floating-point expression order of
//! the code it was lifted from (`ops.rs`, `conv.rs` and the NN crate's
//! softmax/SGD/depthwise inner loops), so routing through this backend is
//! bit-identical to the pre-refactor engine — the property the checked-in
//! run digests in `tests/backend_parity.rs` pin. The depthwise pair replaces
//! a per-channel im2col lowering with direct loops, nested differently but
//! giving every output element the same start value and term order, and
//! `matmul`/`matmul_transa` keep blocks of one output row in registers
//! across the whole reduction under the same rule.

use std::ops::Range;

use crate::conv::Conv2dGeometry;

use super::Backend;

/// The deterministic single-threaded reference backend (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            gemm_row(&mut out[i * n..(i + 1) * n], |kk| arow[kk], &b[..k * n]);
        }
    }

    fn matmul_transb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
    }

    fn matmul_transa(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            gemm_row(&mut out[i * n..(i + 1) * n], |kk| a[kk * m + i], &b[..k * n]);
        }
    }

    fn matvec(&self, a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize) {
        let _ = m;
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * n..(i + 1) * n];
            let mut acc = 0.0f64;
            for (&r, &xv) in row.iter().zip(x.iter()) {
                acc += r as f64 * xv as f64;
            }
            *o = acc as f32;
        }
    }

    fn im2col(&self, image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        im2col_loops(image, geom, out);
    }

    fn col2im(&self, cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        col2im_loops(cols, geom, out);
    }

    fn depthwise_forward(
        &self,
        padded: &[f32],
        weight: &[f32],
        bias: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
    ) {
        depthwise_forward_loops(padded, weight, bias, geom, out);
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
        depthwise_backward_loops(padded, weight, grad_out, geom, grad_in, grad_weight, grad_bias);
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
        x.iter().zip(y.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum::<f64>() as f32
    }

    fn sum(&self, x: &[f32]) -> f32 {
        x.iter().sum()
    }

    fn softmax_rows(&self, data: &mut [f32], rows: usize, cols: usize) {
        for i in 0..rows {
            let row = &mut data[i * cols..(i + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
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
        match velocity {
            Some(vel) => {
                for ((p, &g), v) in params.iter_mut().zip(grads.iter()).zip(vel.iter_mut()) {
                    let mut eff = scale * g + weight_decay * *p;
                    if momentum > 0.0 {
                        *v = momentum * *v + eff;
                        eff = *v;
                    }
                    *p -= lr * eff;
                }
            }
            None => {
                for (p, &g) in params.iter_mut().zip(grads.iter()) {
                    let eff = scale * g + weight_decay * *p;
                    *p -= lr * eff;
                }
            }
        }
    }
}

/// One output row of the scalar `matmul`/`matmul_transa`:
/// `orow[j] += Σ_kk coeff(kk) · b[kk][j]`, where `b` holds `k` rows of
/// `orow.len()` and terms whose coefficient compares equal to zero are
/// skipped.
///
/// Every element starts at its value in `orow` and adds its terms in `kk`
/// order, as the `kk`-outer loops this replaced did; only the loop nest
/// differs. Blocks of 32 and then 16 columns stay in a local array across
/// the whole `kk` loop, so their partial sums live in registers instead of
/// being loaded and stored once per term. The columns left over take the
/// row-at-a-time form.
fn gemm_row(orow: &mut [f32], coeff: impl Fn(usize) -> f32, b: &[f32]) {
    let n = orow.len();
    if n == 0 {
        return;
    }
    let mut j = 0;
    while j + 32 <= n {
        gemm_block::<32>(&mut orow[j..j + 32], &coeff, b, n, j);
        j += 32;
    }
    if j + 16 <= n {
        gemm_block::<16>(&mut orow[j..j + 16], &coeff, b, n, j);
        j += 16;
    }
    if j < n {
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let c = coeff(kk);
            if c == 0.0 {
                continue;
            }
            for (o, &v) in orow[j..].iter_mut().zip(&brow[j..]) {
                *o += c * v;
            }
        }
    }
}

/// The `W` columns of [`gemm_row`] starting at `j0`, accumulated in a
/// local array.
#[inline(always)]
fn gemm_block<const W: usize>(
    dst: &mut [f32],
    coeff: &impl Fn(usize) -> f32,
    b: &[f32],
    n: usize,
    j0: usize,
) {
    let mut acc: [f32; W] = std::array::from_fn(|j| dst[j]);
    for (kk, brow) in b.chunks_exact(n).enumerate() {
        let c = coeff(kk);
        if c == 0.0 {
            continue;
        }
        for (x, &v) in acc.iter_mut().zip(&brow[j0..j0 + W]) {
            *x += c * v;
        }
    }
    dst.copy_from_slice(&acc);
}

/// The im2col loop nest, shared by the scalar and blocked backends (the
/// lowering is pure data movement — no floating-point arithmetic to
/// reassociate).
pub(crate) fn im2col_loops(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let cols = geom.col_cols();
    for c in 0..geom.in_channels {
        let chan = &src[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for oy in 0..geom.out_h {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..geom.out_w {
                        let ix = (ox * s + kx) as isize - p as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        row[oy * geom.out_w + ox] = chan[iy as usize * geom.in_w + ix as usize];
                    }
                }
            }
        }
    }
}

/// The col2im loop nest (adjoint of [`im2col_loops`]), shared by both CPU
/// backends; per-position accumulation order is identical in each.
pub(crate) fn col2im_loops(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let ncols = geom.col_cols();
    for c in 0..geom.in_channels {
        let chan = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let row = &src[row_idx * ncols..(row_idx + 1) * ncols];
                for oy in 0..geom.out_h {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..geom.out_w {
                        let ix = (ox * s + kx) as isize - p as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        chan[iy as usize * geom.in_w + ix as usize] += row[oy * geom.out_w + ox];
                    }
                }
            }
        }
    }
}

/// The depthwise forward loop nest, shared by the scalar and blocked
/// backends. Per output element: the channel's bias, then `+= w·x` for each
/// tap in `(ky, kx)` order, reading padded taps as the `0.0` of the padded
/// image — the sequence the per-channel im2col lowering produced.
pub(crate) fn depthwise_forward_loops(
    padded: &[f32],
    weight: &[f32],
    bias: &[f32],
    geom: &Conv2dGeometry,
    out: &mut [f32],
) {
    let (k, s, c) = (geom.kernel, geom.stride, geom.in_channels);
    let kk = k * k;
    let pw = geom.padded_w();
    let pplane = geom.padded_h() * pw;
    let ow = geom.out_w;
    for (i, dst) in out.chunks_exact_mut(geom.out_h * ow).enumerate() {
        let ch = i % c;
        let src = &padded[i * pplane..(i + 1) * pplane];
        let w = &weight[ch * kk..(ch + 1) * kk];
        // Every MobileNetV2 depthwise filter is 3×3; a compile-time size
        // unrolls the taps, which is 2–4× faster on the nano planes.
        if k == 3 {
            plane_forward::<3>(src, w, bias[ch], pw, s, ow, dst);
            continue;
        }
        for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
            for (ox, o) in orow.iter_mut().enumerate() {
                let mut acc = bias[ch];
                for (ky, wrow) in w.chunks_exact(k).enumerate() {
                    let window = &src[(oy * s + ky) * pw + ox * s..][..k];
                    for (&wv, &x) in wrow.iter().zip(window) {
                        acc += wv * x;
                    }
                }
                *o = acc;
            }
        }
    }
}

/// One plane of [`depthwise_forward_loops`] for a `K×K` filter known at
/// compile time, so the tap loops unroll: the same per-element sequence.
fn plane_forward<const K: usize>(
    src: &[f32],
    w: &[f32],
    b: f32,
    pw: usize,
    s: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let w: [[f32; K]; K] = std::array::from_fn(|ky| std::array::from_fn(|kx| w[ky * K + kx]));
    for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
        let rows: [&[f32]; K] = std::array::from_fn(|ky| &src[(oy * s + ky) * pw..][..pw]);
        for (ox, o) in orow.iter_mut().enumerate() {
            let mut acc = b;
            for (wrow, row) in w.iter().zip(rows) {
                for (&wv, &x) in wrow.iter().zip(&row[ox * s..ox * s + K]) {
                    acc += wv * x;
                }
            }
            *o = acc;
        }
    }
}

/// The depthwise backward loop nest, shared by the scalar and blocked
/// backends, in the operation order of the per-channel im2col lowering:
///
/// * `dW[c, t]` gains one partial sum per sample, accumulated from `0.0`
///   over the output positions in order (padded taps as `dy·0.0`);
/// * `db[c]` gains each sample's output-gradient sum;
/// * every input position adds `w·dy` over its in-bounds taps in `(ky, kx)`
///   order, as col2im scattered them.
#[allow(clippy::too_many_arguments)] // mirrors `Backend::depthwise_backward`
pub(crate) fn depthwise_backward_loops(
    padded: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    geom: &Conv2dGeometry,
    grad_in: &mut [f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    let (k, s, p, c) = (geom.kernel, geom.stride, geom.padding, geom.in_channels);
    let kk = k * k;
    let pw = geom.padded_w();
    let pplane = geom.padded_h() * pw;
    let (w_in, plane) = (geom.in_w, geom.in_h * geom.in_w);
    let ow = geom.out_w;
    let rows: Vec<Range<usize>> =
        (0..k).map(|t| tap_range(t, p, s, geom.in_h, geom.out_h)).collect();
    let cols: Vec<Range<usize>> = (0..k).map(|t| tap_range(t, p, s, w_in, ow)).collect();
    let mut sums = vec![0.0f32; kk];
    for (i, go) in grad_out.chunks_exact(geom.out_h * ow).enumerate() {
        let ch = i % c;
        let src = &padded[i * pplane..(i + 1) * pplane];
        let w = &weight[ch * kk..(ch + 1) * kk];
        // As in the forward, the 3×3 case gets a compile-time size: its nine
        // accumulators then live in registers.
        if k == 3 {
            plane_tap_sums::<3>(go, src, pw, s, ow, &mut sums);
        } else {
            for (t, sum) in sums.iter_mut().enumerate() {
                *sum = 0.0;
                for (oy, grow) in go.chunks_exact(ow).enumerate() {
                    let row = &src[(oy * s + t / k) * pw + t % k..];
                    for (ox, &gv) in grow.iter().enumerate() {
                        *sum += gv * row[ox * s];
                    }
                }
            }
        }
        for (gw, &sum) in grad_weight[ch * kk..(ch + 1) * kk].iter_mut().zip(&sums) {
            *gw += sum;
        }
        grad_bias[ch] += go.iter().sum::<f32>();
        let gi = &mut grad_in[i * plane..(i + 1) * plane];
        for ky in 0..k {
            for kx in 0..k {
                let wv = w[ky * k + kx];
                let span = cols[kx].clone();
                for oy in rows[ky].clone() {
                    let grow = &go[oy * ow..(oy + 1) * ow];
                    let iy = oy * s + ky - p;
                    let dst = &mut gi[iy * w_in..(iy + 1) * w_in];
                    if s == 1 {
                        let at = span.start + kx - p;
                        let dst = &mut dst[at..at + span.len()];
                        for (d, &gv) in dst.iter_mut().zip(&grow[span.clone()]) {
                            *d += wv * gv;
                        }
                    } else {
                        for ox in span.clone() {
                            dst[ox * s + kx - p] += wv * grow[ox];
                        }
                    }
                }
            }
        }
    }
}

/// One plane's weight-gradient partial sums for a `K×K` filter known at
/// compile time: `sums[t] = Σ_j dy[j]·x_t[j]` from `0.0` in output order,
/// `x_t` being tap `t`'s view of the padded plane. The `K·K` accumulators
/// stay in registers and interleave; each keeps its own sequential order.
fn plane_tap_sums<const K: usize>(
    go: &[f32],
    src: &[f32],
    pw: usize,
    s: usize,
    ow: usize,
    sums: &mut [f32],
) {
    let mut acc = [[0.0f32; K]; K];
    for (oy, grow) in go.chunks_exact(ow).enumerate() {
        let rows: [&[f32]; K] = std::array::from_fn(|ky| &src[(oy * s + ky) * pw..][..pw]);
        for (ox, &gv) in grow.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(rows) {
                for (a, &x) in acc.iter_mut().zip(&row[ox * s..ox * s + K]) {
                    *a += gv * x;
                }
            }
        }
    }
    for (sum, &a) in sums.iter_mut().zip(acc.iter().flatten()) {
        *sum = a;
    }
}

/// The output positions `o < out_len` whose tap at offset `off` lands
/// inside an input of extent `len`: `0 ≤ o·s + off − p < len`.
fn tap_range(off: usize, p: usize, s: usize, len: usize, out_len: usize) -> Range<usize> {
    let lo = p.saturating_sub(off).div_ceil(s);
    let hi = (len + p).saturating_sub(off).div_ceil(s).min(out_len);
    lo..hi.max(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: ScalarBackend = ScalarBackend;

    #[test]
    fn tap_ranges_keep_taps_inside_the_input() {
        // len 5, k 3, p 1, s 2 → out 3: tap 0 skips o = 0 (reads −1).
        assert_eq!(tap_range(0, 1, 2, 5, 3), 1..3);
        assert_eq!(tap_range(1, 1, 2, 5, 3), 0..3);
        assert_eq!(tap_range(2, 1, 2, 5, 3), 0..2);
        // len 4, k 3, p 1, s 1 → out 4: the last tap skips o = 3 (reads 4).
        assert_eq!(tap_range(2, 1, 1, 4, 4), 0..3);
        // An empty input has no in-bounds taps.
        assert!(tap_range(1, 1, 1, 0, 2).is_empty());
    }

    #[test]
    fn depthwise_forward_known_values() {
        // One 2×2 channel, 3×3 all-ones filter, padding 1: each output is
        // the bias plus the sum of the in-bounds neighbourhood.
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let mut padded = vec![0.0f32; g.padded_volume()];
        g.pad_image(&[1.0, 2.0, 3.0, 4.0], &mut padded);
        let mut out = [0.0f32; 4];
        B.depthwise_forward(&padded, &[1.0; 9], &[0.5], &g, &mut out);
        assert_eq!(out, [10.5; 4]);
        let mut grad_in = [0.0f32; 4];
        let (mut gw, mut gb) = ([0.0f32; 9], [0.0f32]);
        B.depthwise_backward(&padded, &[1.0; 9], &[1.0; 4], &g, &mut grad_in, &mut gw, &mut gb);
        // Every input feeds all four outputs; the centre tap sees every
        // pixel, a corner tap only the pixel in the opposite corner.
        assert_eq!(grad_in, [4.0; 4]);
        assert_eq!((gw[0], gw[4], gw[8]), (1.0, 10.0, 4.0));
        assert_eq!(gb, [4.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        B.matmul(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transb_and_transa_agree_with_plain() {
        // a: 2x3, b: 4x3 → transb(a, b) == a · bᵀ.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.5, -1.0, 2.0, 0.0, 3.0, 1.0, 1.0, 2.0, -2.0, 0.5, 0.5];
        let mut bt = [0.0f32; 12];
        for i in 0..4 {
            for j in 0..3 {
                bt[j * 4 + i] = b[i * 3 + j];
            }
        }
        let mut fast = [0.0f32; 8];
        let mut slow = [0.0f32; 8];
        B.matmul_transb(&a, &b, &mut fast, 2, 3, 4);
        B.matmul(&a, &bt, &mut slow, 2, 3, 4);
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
        // a: 3x2 → transa(a, b3) == aᵀ · b3 with b3: 3x2.
        let b3 = [1.0, 0.5, -1.0, 2.0, 0.0, 3.0];
        let mut at = [0.0f32; 6];
        for i in 0..3 {
            for j in 0..2 {
                at[j * 3 + i] = a[i * 2 + j];
            }
        }
        let mut fast_a = [0.0f32; 4];
        let mut slow_a = [0.0f32; 4];
        B.matmul_transa(&a, &b3, &mut fast_a, 2, 3, 2);
        B.matmul(&at, &b3, &mut slow_a, 2, 3, 2);
        for (f, s) in fast_a.iter().zip(slow_a.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
    }

    #[test]
    fn elementwise_and_reductions() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        B.axpy(0.5, &x, &mut y);
        assert_eq!(y, [1.5, 2.0, 2.5]);
        B.scale(2.0, &mut y);
        assert_eq!(y, [3.0, 4.0, 5.0]);
        assert_eq!(B.dot(&x, &x), 14.0);
        assert_eq!(B.sum(&x), 6.0);
    }

    #[test]
    fn sgd_update_without_momentum() {
        let mut p = [1.0f32, -2.0];
        let g = [0.5f32, 0.5];
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.0, None);
        assert_eq!(p, [0.95, -2.05]);
    }

    #[test]
    fn sgd_update_with_momentum_accumulates() {
        let mut p = [0.0f32];
        let mut v = [0.0f32];
        let g = [1.0f32];
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.9, Some(&mut v));
        assert!((p[0] + 0.1).abs() < 1e-7);
        B.sgd_update(&mut p, &g, 0.1, 1.0, 0.0, 0.9, Some(&mut v));
        // Second step: v = 0.9·1 + 1 = 1.9 → p moves by 0.19 more.
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut data = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        B.softmax_rows(&mut data, 2, 3);
        for r in 0..2 {
            let s: f32 = data[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }
}
