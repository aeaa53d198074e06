//! Bit-exactness of the convolution layers against the im2col reference.
//!
//! `Conv2d` lowers a batch into one column buffer and skips the lowering at
//! 1×1; `DepthwiseConv2d` runs a direct kernel over a zero-padded input.
//! Both must reproduce, bit for bit, the per-sample im2col path they
//! replaced, which is kept here as the reference: forward output,
//! `grad_in`, `grad_weight` and `grad_bias`, over random geometries
//! (kernel 1/3, stride 1/2, padding 0/1, planes 2×2 to 9×9, batch 1–5),
//! with gradients holding the exact zeros (both signs) that ReLU6 gating
//! produces. Two steps run back to back, so the gradients are also compared
//! after accumulating over a second batch.

use fedms::nn::{Conv2d, DepthwiseConv2d, Layer};
use fedms::tensor::rng::rng_for;
use fedms::tensor::{BackendHandle, Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Cases per layer kind.
const CASES: u64 = 150;

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
    let sc = BackendHandle::scalar();
    let (rows, plane, vol) = (g.col_rows(), g.col_cols(), g.input_volume());
    let batch = x.len() / vol;
    let mut out = vec![0.0f32; batch * oc * plane];
    let mut grad_in = vec![0.0f32; batch * vol];
    for s in 0..batch {
        let mut cols = vec![0.0f32; rows * plane];
        sc.im2col(&x[s * vol..(s + 1) * vol], g, &mut cols);
        let mut y = vec![0.0f32; oc * plane];
        sc.matmul(w, &cols, &mut y, oc, rows, plane);
        for o in 0..oc {
            for j in 0..plane {
                out[(s * oc + o) * plane + j] = y[o * plane + j] + b[o];
            }
        }
        let gos = &go[s * oc * plane..(s + 1) * oc * plane];
        let mut dw = vec![0.0f32; oc * rows];
        sc.matmul_transb(gos, &cols, &mut dw, oc, plane, rows);
        for (gw, &v) in grad_w.iter_mut().zip(&dw) {
            *gw += v;
        }
        for o in 0..oc {
            grad_b[o] += gos[o * plane..(o + 1) * plane].iter().sum::<f32>();
        }
        let mut dcols = vec![0.0f32; rows * plane];
        sc.matmul_transa(w, gos, &mut dcols, rows, oc, plane);
        sc.col2im(&dcols, g, &mut grad_in[s * vol..(s + 1) * vol]);
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
    let sc = BackendHandle::scalar();
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
            sc.im2col(&x[p * plane..(p + 1) * plane], &chan, &mut cols);
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
            sc.col2im(&dcols, &chan, &mut grad_in[p * plane..(p + 1) * plane]);
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

/// Overwrites the layer's weight and bias with random values, some of them
/// exact zeros (the GEMMs skip zero weights) and a bias of `-0.0`.
fn randomize_params(layer: &mut dyn Layer, rng: &mut StdRng) {
    for p in layer.params_mut() {
        let fresh = gated(rng, p.len());
        p.as_mut_slice().copy_from_slice(&fresh);
    }
    let bias = layer.params_mut().pop().unwrap();
    bias.as_mut_slice()[0] = -0.0;
}

fn assert_bits(what: &str, case: u64, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "case {case}: {what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "case {case}: {what}[{i}] is {g}, reference {w}");
    }
}

/// Runs two training steps and an inference forward through `layer` and
/// the reference `step`, comparing every output and gradient bit.
fn check_case<F>(
    case: u64,
    layer: &mut dyn Layer,
    g: &Conv2dGeometry,
    out_c: usize,
    rng: &mut StdRng,
    step: F,
) where
    F: Fn(&mut Reference, &[f32], &[f32]) -> Outputs,
{
    randomize_params(layer, rng);
    let (w, b) = (layer.params()[0].as_slice().to_vec(), layer.params()[1].as_slice().to_vec());
    let (grad_w, grad_b) = (vec![0.0f32; w.len()], vec![0.0f32; b.len()]);
    let mut reference = Reference { w, b, grad_w, grad_b };
    let batch = rng.gen_range(1..=5);
    let in_dims = [batch, g.in_channels, g.in_h, g.in_w];
    let out_dims = [batch, out_c, g.out_h, g.out_w];
    layer.zero_grads();
    for _ in 0..2 {
        let x = Tensor::from_vec(gated(rng, in_dims.iter().product()), &in_dims).unwrap();
        let go = Tensor::from_vec(gated(rng, out_dims.iter().product()), &out_dims).unwrap();
        let (want_out, want_in) = step(&mut reference, x.as_slice(), go.as_slice());
        layer.set_training(true);
        let out = layer.forward(&x).unwrap();
        let grad_in = layer.backward(&go).unwrap();
        assert_bits("forward", case, out.as_slice(), &want_out);
        assert_bits("grad_in", case, grad_in.as_slice(), &want_in);
        assert_bits("grad_weight", case, layer.grads()[0].as_slice(), &reference.grad_w);
        assert_bits("grad_bias", case, layer.grads()[1].as_slice(), &reference.grad_b);
        layer.set_training(false);
        let inferred = layer.forward(&x).unwrap();
        assert_bits("inference forward", case, inferred.as_slice(), &want_out);
    }
}

#[test]
fn conv2d_matches_the_per_sample_im2col_reference_bit_for_bit() {
    let mut rng = rng_for(0xC0DE, &[1]);
    let mut pointwise = 0;
    for case in 0..CASES {
        let g = random_geometry(&mut rng, 4);
        let oc = rng.gen_range(1..=4);
        pointwise += usize::from(g.is_pointwise());
        let mut layer = Conv2d::new(g, oc, &mut rng).unwrap();
        let step = |r: &mut Reference, x: &[f32], go: &[f32]| reference_conv_step(r, x, go, &g, oc);
        check_case(case, &mut layer, &g, oc, &mut rng, step);
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
        let mut layer = DepthwiseConv2d::new(g, &mut rng).unwrap();
        let step =
            |r: &mut Reference, x: &[f32], go: &[f32]| reference_depthwise_step(r, x, go, &g);
        check_case(case, &mut layer, &g, g.in_channels, &mut rng, step);
    }
    assert!(strided_tiny >= 5, "stride 2 on tiny planes ran {strided_tiny} times");
}
