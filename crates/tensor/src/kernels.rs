//! The dense kernels behind every tensor and NN hot path: the three matmul
//! variants, the im2col/col2im convolution lowering and the direct
//! depthwise convolution pair.
//!
//! Every function works on caller-validated, exactly-sized slices; the
//! shape-checked entry points live on [`crate::Tensor`] and in
//! [`crate::im2col`]/[`crate::col2im`]. Kernels that *accumulate* require a
//! zero-initialized output; the others say that they overwrite it.
//!
//! Every kernel preserves the exact floating-point expression order of the
//! code it was lifted from (`ops.rs`, `conv.rs` and the NN crate's
//! depthwise inner loops), so it is bit-identical to the pre-refactor
//! engine — the property the checked-in run digests in
//! `tests/backend_parity.rs` pin (DESIGN.md §14). The depthwise pair
//! replaces a per-channel im2col lowering with direct loops, nested
//! differently but giving every output element the same start value and
//! term order; `matmul`/`matmul_transa` keep blocks of one output row in
//! registers across the whole reduction under the same rule,
//! `matmul_transb` does so for tiles of four rows over a packed copy of
//! Bᵀ, and the depthwise pair computes blocks of one row's outputs (or
//! input gradients) side by side.

use crate::conv::Conv2dGeometry;

/// `out += a · b` for row-major `a: (m×k)`, `b: (k×n)`, `out: (m×n)`.
///
/// `out` must be zero-initialized (the kernel accumulates).
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        gemm_row(&mut out[i * n..(i + 1) * n], |kk| arow[kk], &b[..k * n]);
    }
}

/// `out = a · bᵀ` for row-major `a: (m×k)`, `b: (n×k)`, `out: (m×n)`.
///
/// Overwrites `out` completely.
pub fn matmul_transb(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    // Bᵀ packed once, `k×n`: row `kk` holds every `b[j][kk]`, so a tile
    // reads its columns' terms of step `kk` side by side.
    let mut bt = vec![0.0f32; k * n];
    for (kk, row) in bt.chunks_exact_mut(n).enumerate() {
        for (d, brow) in row.iter_mut().zip(b.chunks_exact(k)) {
            *d = brow[kk];
        }
    }
    let mut i = 0;
    while i + 4 <= m {
        transb_rows::<4>(&a[i * k..], &bt, &mut out[i * n..], k, n);
        i += 4;
    }
    for i in i..m {
        transb_rows::<1>(&a[i * k..], &bt, &mut out[i * n..], k, n);
    }
}

/// `out += aᵀ · b` for row-major `a: (k×m)`, `b: (k×n)`, `out: (m×n)`.
///
/// `out` must be zero-initialized (the kernel accumulates).
pub fn matmul_transa(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        gemm_row(&mut out[i * n..(i + 1) * n], |kk| a[kk * m + i], &b[..k * n]);
    }
}

/// One output row of [`matmul`]/[`matmul_transa`]:
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

/// `R` output rows of [`matmul_transb`]: `out[r][j] = Σ_kk
/// a[r][kk] · bt[kk][j]` for the rows of `a` (each `k` long) that start it
/// and the packed `bt` (`k` rows of `n`).
///
/// Every element starts at `+0.0` and adds all `k` products in `kk` order,
/// none skipped: one dot product's operation sequence, which the exactness
/// contract fixes. Tiles of 16, 8, 4 and then 1 columns keep their `R·W`
/// sums in registers across the whole `kk` loop.
fn transb_rows<const R: usize>(a: &[f32], bt: &[f32], out: &mut [f32], k: usize, n: usize) {
    let mut j = 0;
    while j + 16 <= n {
        transb_tile::<R, 16>(a, bt, out, k, n, j);
        j += 16;
    }
    if j + 8 <= n {
        transb_tile::<R, 8>(a, bt, out, k, n, j);
        j += 8;
    }
    if j + 4 <= n {
        transb_tile::<R, 4>(a, bt, out, k, n, j);
        j += 4;
    }
    for j in j..n {
        transb_tile::<R, 1>(a, bt, out, k, n, j);
    }
}

/// The `W` columns of [`transb_rows`] starting at `j0`.
#[inline(always)]
fn transb_tile<const R: usize, const W: usize>(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; W]; R];
    for (kk, brow) in bt.chunks_exact(n).enumerate() {
        let brow = &brow[j0..j0 + W];
        for (acc, arow) in acc.iter_mut().zip(&arows) {
            let x = arow[kk];
            for (s, &y) in acc.iter_mut().zip(brow) {
                *s += x * y;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * n + j0..][..W].copy_from_slice(acc);
    }
}

/// Lowers one `(C, H, W)` image (`image.len() == geom.input_volume()`)
/// into its `(C·k·k, out_h·out_w)` column matrix.
///
/// Overwrites `out` completely, padded positions with `0.0`. Pure data
/// movement, no floating-point arithmetic: it reads a zero-padded copy of
/// the image, so each output row of a tap is one run of `out_w` reads
/// (strided at stride > 1), and the padded taps are copied as the `0.0` of
/// the border without a bounds test.
pub fn im2col(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, ow) = (geom.kernel, geom.stride, geom.out_w);
    let pw = geom.padded_w();
    let mut padded = vec![0.0f32; geom.padded_volume()];
    geom.pad_image(image, &mut padded);
    for (c, chan) in padded.chunks_exact(geom.padded_h() * pw).enumerate() {
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let col = &mut out[row_idx * geom.col_cols()..(row_idx + 1) * geom.col_cols()];
                for (oy, orow) in col.chunks_exact_mut(ow).enumerate() {
                    let taps = &chan[(oy * s + ky) * pw + kx..];
                    // A unit-stride run gets its own loop, which vectorizes.
                    if s == 1 {
                        for (d, &x) in orow.iter_mut().zip(taps) {
                            *d = x;
                        }
                    } else {
                        for (d, &x) in orow.iter_mut().zip(taps.iter().step_by(s)) {
                            *d = x;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a `(C·k·k, out_h·out_w)` column matrix back onto a
/// `(C, H, W)` image, accumulating overlaps — the adjoint of [`im2col`].
///
/// `out` must be zero-initialized (the kernel accumulates).
pub fn col2im(cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let ncols = geom.col_cols();
    for c in 0..geom.in_channels {
        let chan = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (c * k + ky) * k + kx;
                let row = &cols[row_idx * ncols..(row_idx + 1) * ncols];
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

/// Depthwise convolution forward: one `k×k` filter per channel.
///
/// `padded` holds `n` zero-padded `(C, H+2p, W+2p)` images (see
/// [`Conv2dGeometry::pad_image`]), `weight` is `(C, k·k)`, `bias` is
/// `(C)` and `out` receives the `n` `(C, out_h, out_w)` outputs, where
/// `n = out.len() / (C·out_h·out_w)`. Overwrites `out` completely. Each
/// output starts at its channel's bias and adds its tap products in
/// `(ky, kx)` order, padded taps included as `w·0.0` — the sequence the
/// per-channel im2col lowering produced.
pub fn depthwise_forward(
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
        // Every MobileNetV2 depthwise filter is 3×3 with stride 1 or 2; a
        // compile-time size and stride unroll the taps and let a row's
        // outputs share each tap step.
        match (k, s) {
            (3, 1) => {
                plane_forward::<3, 1>(src, w, bias[ch], pw, ow, dst);
                continue;
            }
            (3, 2) => {
                plane_forward::<3, 2>(src, w, bias[ch], pw, ow, dst);
                continue;
            }
            _ => {}
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

/// One plane of [`depthwise_forward`] for a `K×K` filter and stride
/// `S` known at compile time, so the tap loops unroll.
///
/// Each output row runs in blocks of 8, then 4, then 1 lanes: a block's
/// outputs are independent, so they share every tap step, each lane still
/// starting at the bias and adding its `w·x` in `(ky, kx)` order.
fn plane_forward<const K: usize, const S: usize>(
    src: &[f32],
    w: &[f32],
    b: f32,
    pw: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let w: [[f32; K]; K] = std::array::from_fn(|ky| std::array::from_fn(|kx| w[ky * K + kx]));
    for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
        let rows: [&[f32]; K] = std::array::from_fn(|ky| &src[(oy * S + ky) * pw..][..pw]);
        let mut ox = 0;
        while ox + 8 <= ow {
            forward_lanes::<K, S, 8>(&w, &rows, b, ox, &mut orow[ox..ox + 8]);
            ox += 8;
        }
        if ox + 4 <= ow {
            forward_lanes::<K, S, 4>(&w, &rows, b, ox, &mut orow[ox..ox + 4]);
            ox += 4;
        }
        while ox < ow {
            forward_lanes::<K, S, 1>(&w, &rows, b, ox, &mut orow[ox..ox + 1]);
            ox += 1;
        }
    }
}

/// The `L` outputs of one row of [`plane_forward`] from column `ox0` on.
#[inline(always)]
fn forward_lanes<const K: usize, const S: usize, const L: usize>(
    w: &[[f32; K]; K],
    rows: &[&[f32]; K],
    b: f32,
    ox0: usize,
    dst: &mut [f32],
) {
    let mut acc = [b; L];
    for (wrow, row) in w.iter().zip(rows) {
        for (kx, &wv) in wrow.iter().enumerate() {
            let x = &row[ox0 * S + kx..][..(L - 1) * S + 1];
            for (l, a) in acc.iter_mut().enumerate() {
                *a += wv * x[l * S];
            }
        }
    }
    dst.copy_from_slice(&acc);
}

/// Depthwise convolution backward over the `n` padded images a
/// [`depthwise_forward`] read, given `grad_out` of the outputs' shape.
///
/// Writes the input gradient into `grad_in` (`n` unpadded images,
/// zero-initialized: the kernel accumulates) and adds each sample's
/// weight and bias gradients into `grad_weight` `(C, k·k)` and
/// `grad_bias` `(C)`, one per-sample partial sum at a time in sample
/// order. The operation order is that of the per-channel im2col lowering:
///
/// * `dW[c, t]` gains one partial sum per sample, accumulated from `0.0`
///   over the output positions in order (padded taps as `dy·0.0`);
/// * `db[c]` gains each sample's output-gradient sum;
/// * every input position adds `w·dy` over its in-bounds taps in `(ky, kx)`
///   order, as col2im scattered them.
///
/// The input gradient is gathered one input row at a time (see
/// `GradInRows`) rather than scattered tap by tap; each element gets the
/// same terms in the same order.
// Three gradient outputs on top of the forward's inputs; a struct would
// only be unpacked again here.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_backward(
    padded: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    geom: &Conv2dGeometry,
    grad_in: &mut [f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    let (k, s, c) = (geom.kernel, geom.stride, geom.in_channels);
    let kk = k * k;
    let pw = geom.padded_w();
    let pplane = geom.padded_h() * pw;
    let plane = geom.in_h * geom.in_w;
    let ow = geom.out_w;
    let mut gather = GradInRows::new(geom);
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
        gather.plane(go, w, &mut grad_in[i * plane..(i + 1) * plane]);
    }
}

/// The input-gradient gather of [`depthwise_backward`] for one
/// geometry.
///
/// Input position `(iy, ix)` receives `w[ky, kx]·dy[oy, ox]` from every tap
/// with `oy·s + ky − p = iy` and `ox·s + kx − p = ix` inside the output, in
/// `(ky, kx)` order. A row is computed in blocks of 8, 4 and 1 lanes, each
/// lane accumulating from `0.0` in a register: every tap row `ky` that
/// lands on the input row contributes its `kx` taps to all lanes at once,
/// reading a copy of the output-gradient row that is zero-padded and, at
/// stride > 1, zero-dilated, so that lane `ix` of tap `kx` reads its
/// `dy[oy, ox]` at `ix + p − kx` plus a fixed offset. A lane whose tap
/// falls outside the output adds `+0.0` instead of `w·0.0` (which would
/// be NaN for an infinite `w`): the accumulator starts at `+0.0` and a sum
/// can only be `−0.0` when both terms are, so that add never changes it.
/// The finished row is added onto `grad_in`'s zeros.
struct GradInRows {
    geom: Conv2dGeometry,
    /// Row length of `dilated`: `out_w·s + 2(k − 1)`.
    len: usize,
    /// The current plane's output-gradient rows, `dy[oy, ox]` at
    /// `oy·len + ox·s + k − 1`, zeros elsewhere.
    dilated: Vec<f32>,
    /// `masks[kx·in_w + ix]`: all ones when tap `kx` of column `ix` lands
    /// inside the output, else zero.
    masks: Vec<u32>,
    /// `rows[iy·k + ky]`: the output row that tap row `ky` of input row
    /// `iy` reads, if it lands inside the output.
    rows: Vec<Option<usize>>,
}

impl GradInRows {
    fn new(geom: &Conv2dGeometry) -> Self {
        let (k, s, p, w, ow) = (geom.kernel, geom.stride, geom.padding, geom.in_w, geom.out_w);
        // The output position that offset `off` of input position `i`
        // reads, if any: `o` with `o·s + off − p = i`, `o < out_len`.
        let source = |i: usize, off: usize, out_len: usize| {
            let d = (i + p).checked_sub(off)?;
            (d % s == 0 && d / s < out_len).then_some(d / s)
        };
        let masks = (0..k)
            .flat_map(|kx| (0..w).map(move |ix| (ix, kx)))
            .map(|(ix, kx)| if source(ix, kx, ow).is_some() { u32::MAX } else { 0 })
            .collect();
        let rows = (0..geom.in_h)
            .flat_map(|iy| (0..k).map(move |ky| (iy, ky)))
            .map(|(iy, ky)| source(iy, ky, geom.out_h))
            .collect();
        let len = ow * s + 2 * (k - 1);
        GradInRows { geom: *geom, len, dilated: vec![0.0; geom.out_h * len], masks, rows }
    }

    /// Adds one plane's input gradient onto `gi`, given its output
    /// gradient `go` and its `k×k` filter `w`.
    fn plane(&mut self, go: &[f32], w: &[f32], gi: &mut [f32]) {
        if gi.is_empty() {
            return;
        }
        let g = self.geom;
        let (k, s) = (g.kernel, g.stride);
        for (grow, drow) in go.chunks_exact(g.out_w).zip(self.dilated.chunks_exact_mut(self.len)) {
            let dst = &mut drow[k - 1..];
            if s == 1 {
                dst[..grow.len()].copy_from_slice(grow);
            } else {
                for (d, &v) in dst.iter_mut().step_by(s).zip(grow) {
                    *d = v;
                }
            }
        }
        // Every MobileNetV2 depthwise filter is 3×3: a literal size lets
        // the inlined copy unroll the taps.
        if k == 3 {
            self.gather(w, 3, gi);
        } else {
            self.gather(w, k, gi);
        }
    }

    /// Adds the input gradient of the plane in `dilated` onto `gi`, for a
    /// `k×k` filter `w`.
    #[inline(always)]
    fn gather(&self, w: &[f32], k: usize, gi: &mut [f32]) {
        let iw = self.geom.in_w;
        for (girow, rows) in gi.chunks_exact_mut(iw).zip(self.rows.chunks_exact(k)) {
            // Each filter row whose taps land on this input row, with the
            // output-gradient row it reads.
            let taps = w.chunks_exact(k).zip(rows).filter_map(|(wrow, oy)| {
                Some((wrow, &self.dilated[(*oy)? * self.len..][..self.len]))
            });
            let mut ix = 0;
            while ix + 8 <= iw {
                self.lanes::<8>(taps.clone(), k, ix, &mut girow[ix..ix + 8]);
                ix += 8;
            }
            if ix + 4 <= iw {
                self.lanes::<4>(taps.clone(), k, ix, &mut girow[ix..ix + 4]);
                ix += 4;
            }
            while ix < iw {
                self.lanes::<1>(taps.clone(), k, ix, &mut girow[ix..ix + 1]);
                ix += 1;
            }
        }
    }

    /// The `L` input positions of one row from column `ix0` on, over the
    /// row's `(filter row, dilated output-gradient row)` taps.
    #[inline(always)]
    fn lanes<'a, const L: usize>(
        &self,
        taps: impl Iterator<Item = (&'a [f32], &'a [f32])>,
        k: usize,
        ix0: usize,
        dst: &mut [f32],
    ) {
        let (p, iw) = (self.geom.padding, self.geom.in_w);
        let mut acc = [0.0f32; L];
        for (wrow, drow) in taps {
            for (kx, &wv) in wrow.iter().enumerate() {
                let x = &drow[ix0 + p + k - 1 - kx..][..L];
                let m = &self.masks[kx * iw + ix0..][..L];
                for ((a, &x), &m) in acc.iter_mut().zip(x).zip(m) {
                    *a += f32::from_bits((wv * x).to_bits() & m);
                }
            }
        }
        for (d, a) in dst.iter_mut().zip(acc) {
            *d += a;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depthwise_forward_known_values() {
        // One 2×2 channel, 3×3 all-ones filter, padding 1: each output is
        // the bias plus the sum of the in-bounds neighbourhood.
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let mut padded = vec![0.0f32; g.padded_volume()];
        g.pad_image(&[1.0, 2.0, 3.0, 4.0], &mut padded);
        let mut out = [0.0f32; 4];
        depthwise_forward(&padded, &[1.0; 9], &[0.5], &g, &mut out);
        assert_eq!(out, [10.5; 4]);
        let mut grad_in = [0.0f32; 4];
        let (mut gw, mut gb) = ([0.0f32; 9], [0.0f32]);
        depthwise_backward(&padded, &[1.0; 9], &[1.0; 4], &g, &mut grad_in, &mut gw, &mut gb);
        // Every input feeds all four outputs; the centre tap sees every
        // pixel, a corner tap only the pixel in the opposite corner.
        assert_eq!(grad_in, [4.0; 4]);
        assert_eq!((gw[0], gw[4], gw[8]), (1.0, 10.0, 4.0));
        assert_eq!(gb, [4.0]);
    }

    #[test]
    fn depthwise_pair_handles_kernels_wider_than_the_input() {
        // A 5×5 filter with padding 2 over a 1×1 plane: only the centre tap
        // lands on the input; every other tap reads the zero border
        // (forward) or lies outside the input (input gradient).
        let g = Conv2dGeometry::new(1, 1, 1, 5, 1, 2).unwrap();
        let mut padded = vec![0.0f32; g.padded_volume()];
        g.pad_image(&[3.0], &mut padded);
        let w: Vec<f32> = (0..25).map(|t| t as f32).collect();
        let mut out = [0.0f32];
        depthwise_forward(&padded, &w, &[0.5], &g, &mut out);
        assert_eq!(out, [0.5 + 12.0 * 3.0]);
        let mut grad_in = [0.0f32];
        let (mut gw, mut gb) = ([0.0f32; 25], [0.0f32]);
        depthwise_backward(&padded, &w, &[2.0], &g, &mut grad_in, &mut gw, &mut gb);
        assert_eq!(grad_in, [12.0 * 2.0]);
        assert_eq!(gw.iter().filter(|&&v| v != 0.0).count(), 1);
        assert_eq!((gw[12], gb[0]), (6.0, 2.0));
        // An empty plane has no input gradient to write.
        let g = Conv2dGeometry::new(1, 0, 0, 3, 1, 2).unwrap();
        let padded = vec![0.0f32; g.padded_volume()];
        let go = vec![1.0f32; g.col_cols()];
        depthwise_backward(&padded, &[1.0; 9], &go, &g, &mut [], &mut [0.0; 9], &mut [0.0]);
    }

    #[test]
    fn im2col_overwrites_every_column() {
        // Stride 2 over a 4×3 image with padding 1: padded taps must come
        // out as +0.0 whatever the buffer held.
        let g = Conv2dGeometry::new(1, 4, 3, 3, 2, 1).unwrap();
        let image: Vec<f32> = (1..=12).map(|v| v as f32).collect();
        let mut cols = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&image, &g, &mut cols);
        // Tap (0, 0) reads (2·oy − 1, 2·ox − 1): only (oy, ox) = (1, 1) is
        // inside, at image position (1, 1).
        assert_eq!(&cols[..g.col_cols()], &[0.0, 0.0, 0.0, 5.0]);
        // The centre tap reads (2·oy, 2·ox), always inside.
        assert_eq!(&cols[4 * g.col_cols()..5 * g.col_cols()], &[1.0, 3.0, 7.0, 9.0]);
        assert!(cols.iter().all(|v| v.to_bits() != (-0.0f32).to_bits() && !v.is_nan()));
    }

    #[test]
    fn matmul_known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        matmul(&a, &b, &mut out, 2, 3, 2);
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
        matmul_transb(&a, &b, &mut fast, 2, 3, 4);
        matmul(&a, &bt, &mut slow, 2, 3, 4);
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
        matmul_transa(&a, &b3, &mut fast_a, 2, 3, 2);
        matmul(&at, &b3, &mut slow_a, 2, 3, 2);
        for (f, s) in fast_a.iter().zip(slow_a.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
    }
}
