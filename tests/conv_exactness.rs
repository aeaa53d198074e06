//! Bit-exactness of the convolution layers against the im2col reference.
//!
//! `Conv2d` lowers a batch into one column buffer and skips the lowering at
//! 1×1; `DepthwiseConv2d` runs a direct kernel over a zero-padded input.
//! Both must reproduce, bit for bit, the per-sample im2col path they
//! replaced, which is kept here as the reference: forward output,
//! `grad_in`, `grad_weight` and `grad_bias`. The reference lowers with its
//! own copies of the row-at-a-time `im2col`/`col2im` loops, so it does not
//! share the kernels' lowering under test. The cases are random
//! geometries (kernel 1/3, stride 1/2, padding 0/1, planes 2×2 to 9×9,
//! batch 1–5), with gradients holding the exact zeros (both signs) that
//! ReLU6 gating produces, and MobileNetNano's own conv shapes at batch 32.
//! Two steps run back to back, so the gradients are also compared after
//! accumulating over a second batch.
//!
//! A second set of cases puts `±inf` and NaN into the inputs, weights and
//! output gradients. With finite data, a kernel that skipped a padded tap's
//! `w·0.0` shows only through signed zeros (the skipped `+0.0` can leave a
//! `−0.0` bias in place), and one that added `w·0.0` to `grad_in` for a tap
//! outside the input does not show at all; with an infinite weight those
//! terms are NaN, so the results tell both apart. NaN payloads are not
//! specified (the compiler may swap the operands of a commutative
//! operation), so these cases count any two NaNs as equal and compare every
//! other value bit for bit.

use fedms::nn::{Conv2d, DepthwiseConv2d, Layer};
use fedms::tensor::rng::rng_for;
use fedms::tensor::{kernels, Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Cases per layer kind.
const CASES: u64 = 150;

/// MobileNetNano's batch size, at which its conv shapes are checked.
const NANO_BATCH: usize = 32;

/// The reference lowering: one image into its column matrix, row at a
/// time, bounds-testing every tap and leaving padded taps at the zeros
/// `cols` was created with.
fn reference_im2col(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
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

/// The reference adjoint of [`reference_im2col`]: scatters a column matrix
/// onto a zeroed image tap by tap, adding each in-bounds tap's value.
fn reference_col2im(src: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
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

/// The output and input gradient of one reference step.
type Outputs = (Vec<f32>, Vec<f32>);

/// A reference layer's parameters and the gradients it accumulates.
struct Reference {
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

/// The per-sample im2col `Conv2d` for one step: per sample, im2col into a
/// fresh column matrix, `y = W·cols`, `out = y + b`; backward adds one
/// `gradOut·colsᵀ` per sample into `grad_w`, the row sums into `grad_b`,
/// and scatters `Wᵀ·gradOut` through col2im.
fn reference_conv_step(
    r: &mut Reference,
    x: &[f32],
    go: &[f32],
    g: &Conv2dGeometry,
    oc: usize,
) -> Outputs {
    let Reference { w, b, grad_w, grad_b } = r;
    let (rows, plane, vol) = (g.col_rows(), g.col_cols(), g.input_volume());
    let batch = x.len() / vol;
    let mut out = vec![0.0f32; batch * oc * plane];
    let mut grad_in = vec![0.0f32; batch * vol];
    for s in 0..batch {
        let mut cols = vec![0.0f32; rows * plane];
        reference_im2col(&x[s * vol..(s + 1) * vol], g, &mut cols);
        let mut y = vec![0.0f32; oc * plane];
        kernels::matmul(w, &cols, &mut y, oc, rows, plane);
        for o in 0..oc {
            for j in 0..plane {
                out[(s * oc + o) * plane + j] = y[o * plane + j] + b[o];
            }
        }
        let gos = &go[s * oc * plane..(s + 1) * oc * plane];
        let mut dw = vec![0.0f32; oc * rows];
        kernels::matmul_transb(gos, &cols, &mut dw, oc, plane, rows);
        for (gw, &v) in grad_w.iter_mut().zip(&dw) {
            *gw += v;
        }
        for o in 0..oc {
            grad_b[o] += gos[o * plane..(o + 1) * plane].iter().sum::<f32>();
        }
        let mut dcols = vec![0.0f32; rows * plane];
        kernels::matmul_transa(w, gos, &mut dcols, rows, oc, plane);
        reference_col2im(&dcols, g, &mut grad_in[s * vol..(s + 1) * vol]);
    }
    (out, grad_in)
}

/// The per-channel im2col `DepthwiseConv2d` for one step: per (sample,
/// channel), im2col of the single plane, `out = b + Σ_t w_t·cols_t` in tap
/// order; backward adds one per-tap partial sum per plane into `grad_w`,
/// the plane sum into `grad_b`, and scatters `w_t·gradOut` through col2im.
fn reference_depthwise_step(
    r: &mut Reference,
    x: &[f32],
    go: &[f32],
    g: &Conv2dGeometry,
) -> Outputs {
    let Reference { w, b, grad_w, grad_b } = r;
    let chan = Conv2dGeometry::new(1, g.in_h, g.in_w, g.kernel, g.stride, g.padding).unwrap();
    let (c, kk) = (g.in_channels, g.kernel * g.kernel);
    let (plane, out_plane) = (g.in_h * g.in_w, g.col_cols());
    let batch = x.len() / (c * plane);
    let mut out = vec![0.0f32; batch * c * out_plane];
    let mut grad_in = vec![0.0f32; batch * c * plane];
    for s in 0..batch {
        for ch in 0..c {
            let p = s * c + ch;
            let mut cols = vec![0.0f32; kk * out_plane];
            reference_im2col(&x[p * plane..(p + 1) * plane], &chan, &mut cols);
            let wc = &w[ch * kk..(ch + 1) * kk];
            for j in 0..out_plane {
                let mut acc = b[ch];
                for (t, &wv) in wc.iter().enumerate() {
                    acc += wv * cols[t * out_plane + j];
                }
                out[p * out_plane + j] = acc;
            }
            let gop = &go[p * out_plane..(p + 1) * out_plane];
            for t in 0..kk {
                let mut acc = 0.0f32;
                for (&gv, &cv) in gop.iter().zip(&cols[t * out_plane..(t + 1) * out_plane]) {
                    acc += gv * cv;
                }
                grad_w[ch * kk + t] += acc;
            }
            grad_b[ch] += gop.iter().sum::<f32>();
            let mut dcols = vec![0.0f32; kk * out_plane];
            for (t, &wv) in wc.iter().enumerate() {
                for (j, &gv) in gop.iter().enumerate() {
                    dcols[t * out_plane + j] = wv * gv;
                }
            }
            reference_col2im(&dcols, &chan, &mut grad_in[p * plane..(p + 1) * plane]);
        }
    }
    (out, grad_in)
}

/// A random feasible geometry: kernel 1/3, stride 1/2, padding 0/1,
/// planes 2×2 to 9×9.
fn random_geometry(rng: &mut StdRng, max_channels: usize) -> Conv2dGeometry {
    let c = rng.gen_range(1..=max_channels);
    let (h, w): (usize, usize) = (rng.gen_range(2..=9), rng.gen_range(2..=9));
    let kernel = if rng.gen_bool(0.5) { 1 } else { 3 };
    let stride = rng.gen_range(1..=2);
    let mut padding = rng.gen_range(0..=1);
    if h.min(w) + 2 * padding < kernel {
        padding = 1;
    }
    Conv2dGeometry::new(c, h, w, kernel, stride, padding).unwrap()
}

/// Gaussian values with about a third replaced by exact zeros of either
/// sign, as ReLU6 outputs and gated gradients carry.
fn gated(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let values = Tensor::randn(rng, &[len], 0.0, 1.0).into_vec();
    values
        .into_iter()
        .map(|v| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => v * 0.0,
            _ => v,
        })
        .collect()
}

/// What a case draws: its batch (1–5 at random when `None`) and whether
/// `±inf` and NaN appear among its values.
#[derive(Debug, Clone, Copy)]
struct Draw {
    batch: Option<usize>,
    non_finite: bool,
}

impl Draw {
    const RANDOM: Draw = Draw { batch: None, non_finite: false };
    const NANO: Draw = Draw { batch: Some(NANO_BATCH), non_finite: false };
    const NANO_NON_FINITE: Draw = Draw { batch: Some(NANO_BATCH), non_finite: true };

    /// [`gated`] values, one in `every` then replaced by `+inf`, `-inf` or
    /// NaN when the draw is non-finite.
    fn values(self, rng: &mut StdRng, len: usize, every: u32) -> Vec<f32> {
        let mut values = gated(rng, len);
        if self.non_finite {
            for v in &mut values {
                if rng.gen_range(0..every) == 0 {
                    *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)];
                }
            }
        }
        values
    }
}

/// Overwrites the layer's weight and bias with random values, some of them
/// exact zeros (the GEMMs skip zero weights) and a bias of `-0.0`; a
/// non-finite draw makes about one weight in 16 non-finite.
fn randomize_params(layer: &mut dyn Layer, rng: &mut StdRng, draw: Draw) {
    for p in layer.params_mut() {
        let fresh = draw.values(rng, p.len(), 16);
        p.as_mut_slice().copy_from_slice(&fresh);
    }
    let bias = layer.params_mut().pop().unwrap();
    bias.as_mut_slice()[0] = -0.0;
}

/// Compares `got` with `want` bit for bit; a non-finite draw counts any
/// two NaNs as equal.
fn assert_bits(what: &str, case: u64, draw: Draw, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "case {case}: {what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if draw.non_finite && g.is_nan() && w.is_nan() {
            continue;
        }
        assert_eq!(g.to_bits(), w.to_bits(), "case {case}: {what}[{i}] is {g}, reference {w}");
    }
}

/// Runs two training steps and an inference forward through `layer` and
/// the reference `step`, comparing every output and gradient bit. Returns
/// how many of the forward outputs and input gradients were finite and
/// how many were not.
fn check_case<F>(
    case: u64,
    layer: &mut dyn Layer,
    g: &Conv2dGeometry,
    out_c: usize,
    rng: &mut StdRng,
    draw: Draw,
    step: F,
) -> (usize, usize)
where
    F: Fn(&mut Reference, &[f32], &[f32]) -> Outputs,
{
    randomize_params(layer, rng, draw);
    let (w, b) = (layer.params()[0].as_slice().to_vec(), layer.params()[1].as_slice().to_vec());
    let (grad_w, grad_b) = (vec![0.0f32; w.len()], vec![0.0f32; b.len()]);
    let mut reference = Reference { w, b, grad_w, grad_b };
    let batch = draw.batch.unwrap_or_else(|| rng.gen_range(1..=5));
    let in_dims = [batch, g.in_channels, g.in_h, g.in_w];
    let out_dims = [batch, out_c, g.out_h, g.out_w];
    let mut finite = (0, 0);
    layer.zero_grads();
    for _ in 0..2 {
        let x = draw.values(rng, in_dims.iter().product(), 64);
        let x = Tensor::from_vec(x, &in_dims).unwrap();
        let go = draw.values(rng, out_dims.iter().product(), 64);
        let go = Tensor::from_vec(go, &out_dims).unwrap();
        let (want_out, want_in) = step(&mut reference, x.as_slice(), go.as_slice());
        layer.set_training(true);
        let out = layer.forward(&x).unwrap();
        let grad_in = layer.backward(&go).unwrap();
        assert_bits("forward", case, draw, out.as_slice(), &want_out);
        assert_bits("grad_in", case, draw, grad_in.as_slice(), &want_in);
        assert_bits("grad_weight", case, draw, layer.grads()[0].as_slice(), &reference.grad_w);
        assert_bits("grad_bias", case, draw, layer.grads()[1].as_slice(), &reference.grad_b);
        layer.set_training(false);
        let inferred = layer.forward(&x).unwrap();
        assert_bits("inference forward", case, draw, inferred.as_slice(), &want_out);
        for &v in want_out.iter().chain(&want_in) {
            if v.is_finite() {
                finite.0 += 1;
            } else {
                finite.1 += 1;
            }
        }
    }
    finite
}

/// Checks a `Conv2d` of geometry `g` with `oc` output channels.
fn check_conv(
    case: u64,
    g: Conv2dGeometry,
    oc: usize,
    rng: &mut StdRng,
    draw: Draw,
) -> (usize, usize) {
    let mut layer = Conv2d::new(g, oc, rng).unwrap();
    let step = |r: &mut Reference, x: &[f32], go: &[f32]| reference_conv_step(r, x, go, &g, oc);
    check_case(case, &mut layer, &g, oc, rng, draw, step)
}

/// Checks a `DepthwiseConv2d` of geometry `g`.
fn check_depthwise(case: u64, g: Conv2dGeometry, rng: &mut StdRng, draw: Draw) -> (usize, usize) {
    let mut layer = DepthwiseConv2d::new(g, rng).unwrap();
    let step = |r: &mut Reference, x: &[f32], go: &[f32]| reference_depthwise_step(r, x, go, &g);
    check_case(case, &mut layer, &g, g.in_channels, rng, draw, step)
}

/// MobileNetNano's stem: 3×8×8 images, 3×3 kernel, padding 1, 8 filters.
fn nano_stem() -> (Conv2dGeometry, usize) {
    (Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap(), 8)
}

/// MobileNetNano's depthwise layers: 16×8×8 at stride 1 and 2 (the first
/// two blocks), then 32×4×4 at stride 1.
fn nano_depthwise() -> [Conv2dGeometry; 3] {
    [(16, 8, 1), (16, 8, 2), (32, 4, 1)]
        .map(|(c, hw, s)| Conv2dGeometry::new(c, hw, hw, 3, s, 1).unwrap())
}

#[test]
fn conv2d_matches_the_per_sample_im2col_reference_bit_for_bit() {
    let mut rng = rng_for(0xC0DE, &[1]);
    let mut pointwise = 0;
    for case in 0..CASES {
        let g = random_geometry(&mut rng, 4);
        let oc = rng.gen_range(1..=4);
        pointwise += usize::from(g.is_pointwise());
        check_conv(case, g, oc, &mut rng, Draw::RANDOM);
    }
    assert!(pointwise >= 10, "the lowering-free 1×1 path ran {pointwise} times");
}

#[test]
fn depthwise_matches_the_per_channel_im2col_reference_bit_for_bit() {
    let mut rng = rng_for(0xC0DE, &[2]);
    let mut strided_tiny = 0;
    for case in 0..CASES {
        let g = random_geometry(&mut rng, 4);
        strided_tiny += usize::from(g.stride == 2 && g.in_h.min(g.in_w) <= 3);
        check_depthwise(case, g, &mut rng, Draw::RANDOM);
    }
    assert!(strided_tiny >= 5, "stride 2 on tiny planes ran {strided_tiny} times");
}

#[test]
fn nano_conv_shapes_match_the_reference_at_batch_32() {
    let mut rng = rng_for(0xC0DE, &[3]);
    let (stem, oc) = nano_stem();
    check_conv(0, stem, oc, &mut rng, Draw::NANO);
    for (case, g) in (1..).zip(nano_depthwise()) {
        check_depthwise(case, g, &mut rng, Draw::NANO);
    }
}

#[test]
fn non_finite_values_take_the_references_path() {
    let mut rng = rng_for(0xC0DE, &[4]);
    let (stem, oc) = nano_stem();
    let mut counts = vec![check_conv(0, stem, oc, &mut rng, Draw::NANO_NON_FINITE)];
    for (case, g) in (1..).zip(nano_depthwise()) {
        counts.push(check_depthwise(case, g, &mut rng, Draw::NANO_NON_FINITE));
    }
    // Random geometries add kernel 1 with padding, stride 2 on tiny planes
    // and planes a lane block does not divide.
    for case in 4..40 {
        let g = random_geometry(&mut rng, 4);
        let draw = Draw { batch: None, non_finite: true };
        counts.push(if case % 2 == 0 {
            let oc = rng.gen_range(1..=4);
            check_conv(case, g, oc, &mut rng, draw)
        } else {
            check_depthwise(case, g, &mut rng, draw)
        });
    }
    // The nano cases must hold both kinds of value, or they test nothing.
    for (case, &(finite, non_finite)) in counts[..4].iter().enumerate() {
        assert!(finite > 0 && non_finite > 0, "case {case}: {finite} finite, {non_finite} not");
    }
}
