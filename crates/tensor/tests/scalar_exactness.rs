//! Bit-exactness of the three GEMM kernels against the loops they replaced.
//!
//! The kernels are the deterministic oracle, so a change to one of them
//! may alter the loop nest but not any output element's f32
//! operation sequence: the same start value, the same terms in the same `k`
//! order, and the same skip (for `matmul` and `matmul_transa`) or the same
//! lack of skip (for `matmul_transb`) of terms whose `a` coefficient
//! compares equal to zero. The row-at-a-time loops below are the reference.
//!
//! `matmul` and `matmul_transa` are compared bit for bit with the kernels
//! over every `n` from 0 to 100 (so every register-block width and
//! remainder occurs), `k` of 0, 1 and larger, output buffers that start at
//! arbitrary values (both zeros included), exact `±0.0` coefficients, and
//! `±inf`/NaN in the `b` rows whose coefficients are all zero: a kernel
//! that multiplied instead of skipping would turn those into NaN.
//!
//! `matmul_transb` overwrites its output with sums that start at `+0.0` and
//! skip nothing, so `0·inf` stays NaN. Its packed tiles of four rows are
//! compared over every `n` from 0 to 100 at `m` from 0 to 9 (every row
//! remainder) and 32, every fifth `n` at `m = 200`, and `k` of 0, 1, 2–11,
//! 12–47, 64 and 192 (the MLP's depths), with exact `±0.0`, subnormals, and,
//! in half the cases, `±inf`, NaN and random bit patterns. NaN payloads are
//! not specified (the compiler may swap the operands of a commutative
//! operation), so those cases count any two NaNs as equal.

use fedms_tensor::kernels;
use fedms_tensor::rng::rng_for;
use rand::rngs::StdRng;
use rand::Rng;

/// `out += a · b` for `a: (m×k)`, `b: (k×n)`, as [`kernels::matmul`]
/// computed it before its rows were register-blocked.
fn reference_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                *o += aik * bkj;
            }
        }
    }
}

/// `out += aᵀ · b` for `a: (k×m)`, `b: (k×n)`, as
/// [`kernels::matmul_transa`] computed it before its rows were
/// register-blocked.
fn reference_matmul_transa(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for kk in 0..k {
        let arow = &a[kk * m..(kk + 1) * m];
        let brow = &b[kk * n..(kk + 1) * n];
        for (i, &aki) in arow.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                *o += aki * bkj;
            }
        }
    }
}

/// `out = a · bᵀ` for `a: (m×k)`, `b: (n×k)`, as
/// [`kernels::matmul_transb`] computed it before it packed Bᵀ: one dot
/// product per output.
fn reference_matmul_transb(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A value in [-2, 2), an exact `±0.0` one time in `zeros`.
fn value(rng: &mut StdRng, zeros: u32) -> f32 {
    match rng.gen_range(0..zeros) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

/// One case's operands.
struct Case {
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

/// Draws operands of shape `(m, k, n)` with a few exact zeros in `a`, a few
/// `k` terms whose coefficients are all `±0.0` over non-finite `b` rows,
/// and an `out` that starts at arbitrary values. `coeff(i, kk)` indexes the
/// `a` coefficient of output row `i` and term `kk` in the layout of the
/// kernel under test.
fn draw(
    rng: &mut StdRng,
    m: usize,
    k: usize,
    n: usize,
    coeff: impl Fn(usize, usize) -> usize,
) -> Case {
    let mut a: Vec<f32> = (0..m * k).map(|_| value(rng, 6)).collect();
    let mut b: Vec<f32> = (0..k * n).map(|_| value(rng, 20)).collect();
    let out: Vec<f32> = (0..m * n).map(|_| value(rng, 8)).collect();
    for kk in 0..k {
        if rng.gen_range(0..4) != 0 {
            continue;
        }
        for i in 0..m {
            a[coeff(i, kk)] = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
        }
        for v in &mut b[kk * n..(kk + 1) * n] {
            *v = match rng.gen_range(0..4) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                _ => *v,
            };
        }
    }
    Case { a, b, out }
}

/// The `k` values each `n` is tried at.
fn depths(rng: &mut StdRng) -> [usize; 4] {
    [0, 1, rng.gen_range(2..12), rng.gen_range(12..48)]
}

#[test]
fn matmul_matches_the_row_at_a_time_loops_bit_for_bit() {
    let mut rng = rng_for(0x5CA1, &[0]);
    for n in 0..=100 {
        for k in depths(&mut rng) {
            let m = rng.gen_range(1..5);
            let case = draw(&mut rng, m, k, n, |i, kk| i * k + kk);
            let mut want = case.out.clone();
            reference_matmul(&case.a, &case.b, &mut want, m, k, n);
            let mut got = case.out.clone();
            kernels::matmul(&case.a, &case.b, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul m={m} k={k} n={n}");
        }
    }
}

#[test]
fn matmul_transa_matches_the_row_at_a_time_loops_bit_for_bit() {
    let mut rng = rng_for(0x5CA1, &[1]);
    for n in 0..=100 {
        for k in depths(&mut rng) {
            let m = rng.gen_range(1..5);
            let case = draw(&mut rng, m, k, n, |i, kk| kk * m + i);
            let mut want = case.out.clone();
            reference_matmul_transa(&case.a, &case.b, &mut want, m, k, n);
            let mut got = case.out.clone();
            kernels::matmul_transa(&case.a, &case.b, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul_transa m={m} k={k} n={n}");
        }
    }
}

#[test]
fn skipped_terms_keep_non_finite_rows_out_of_the_sum() {
    // A term with a ±0.0 coefficient is skipped, not multiplied: the
    // result stays finite although its `b` row holds inf and NaN, and an
    // output whose every term is skipped keeps its start value's sign.
    let (m, k, n) = (2, 3, 40);
    let mut b = vec![1.0f32; k * n];
    for (j, v) in b[n..2 * n].iter_mut().enumerate() {
        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    let a = [1.0, -0.0, 2.0, 0.0, 0.0, -0.0];
    let mut out = vec![-0.0f32; m * n];
    kernels::matmul(&a, &b, &mut out, m, k, n);
    assert!(out[..n].iter().all(|&v| v == 3.0), "row 0: {:?}", &out[..n]);
    assert_eq!(bits(&out[n..]), bits(&vec![-0.0f32; n]), "row 1 keeps -0.0");

    let at = [1.0, 0.0, -0.0, 0.0, 2.0, -0.0];
    let mut out = vec![-0.0f32; m * n];
    kernels::matmul_transa(&at, &b, &mut out, m, k, n);
    assert!(out[..n].iter().all(|&v| v == 3.0), "row 0: {:?}", &out[..n]);
    assert_eq!(bits(&out[n..]), bits(&vec![-0.0f32; n]), "row 1 keeps -0.0");
}

/// A `matmul_transb` operand: mostly in [-2, 2), with exact `±0.0` and
/// subnormals of either sign, and, one time in 32 when `non_finite`, `±inf`,
/// NaN or a random bit pattern.
fn transb_value(rng: &mut StdRng, non_finite: bool) -> f32 {
    if non_finite && rng.gen_range(0..32) == 0 {
        return [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::from_bits(rng.gen())]
            [rng.gen_range(0..4usize)];
    }
    match rng.gen_range(0..16) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
        3 => -f32::from_bits(rng.gen_range(1..0x0080_0000)),
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

/// Draws `matmul_transb` operands of shape `(m, k, n)` and an output that
/// starts at arbitrary values. When `non_finite`, one term `kk` also gets
/// an all-`±0.0` coefficient column over `±inf`/NaN in half of `b`'s rows,
/// so that every output of those rows is NaN unless the term is skipped.
fn draw_transb(rng: &mut StdRng, m: usize, k: usize, n: usize, non_finite: bool) -> Case {
    let mut a: Vec<f32> = (0..m * k).map(|_| transb_value(rng, non_finite)).collect();
    let mut b: Vec<f32> = (0..n * k).map(|_| transb_value(rng, non_finite)).collect();
    let out: Vec<f32> = (0..m * n).map(|_| value(rng, 8)).collect();
    if non_finite && k > 0 {
        let kk = rng.gen_range(0..k);
        for row in a.chunks_exact_mut(k) {
            row[kk] = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
        }
        for row in b.chunks_exact_mut(k) {
            if rng.gen_bool(0.5) {
                row[kk] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)];
            }
        }
    }
    Case { a, b, out }
}

/// `k` of `matmul_transb` depth class `class`: 0, 1, 2–11, 12–47, 64 (the
/// MLP head's fan-in) or 192 (its first layer's).
fn transb_depth(rng: &mut StdRng, class: usize) -> usize {
    match class % 6 {
        0 => 0,
        1 => 1,
        2 => rng.gen_range(2..12),
        3 => rng.gen_range(12..48),
        4 => 64,
        _ => 192,
    }
}

#[test]
fn matmul_transb_matches_the_dot_product_loop_bit_for_bit() {
    let mut rng = rng_for(0x5CA1, &[2]);
    let (mut finite, mut nan) = (0usize, 0usize);
    // Every `n` at each `m` up to 32; the 50 row tiles of `m = 200` (an
    // evaluation chunk's size) at every fifth `n`, which keeps the debug
    // build's run short.
    let shapes = (0..=9)
        .chain([32])
        .flat_map(|m| (0..=100).map(move |n| (m, n)))
        .chain((0..=100).step_by(5).map(|n| (200, n)));
    // Consecutive cases step through the six depth classes, finite and
    // then non-finite, so every `m` meets every class of both kinds and
    // every `n` meets every class.
    for (case, (m, n)) in shapes.enumerate() {
        let k = transb_depth(&mut rng, case);
        let non_finite = case % 12 >= 6;
        let draw = draw_transb(&mut rng, m, k, n, non_finite);
        let mut want = draw.out.clone();
        reference_matmul_transb(&draw.a, &draw.b, &mut want, m, k, n);
        let mut got = draw.out.clone();
        kernels::matmul_transb(&draw.a, &draw.b, &mut got, m, k, n);
        for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
            if non_finite && g.is_nan() && w.is_nan() {
                nan += 1;
                continue;
            }
            finite += 1;
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "matmul_transb m={m} k={k} n={n} non_finite={non_finite}: \
                 out[{idx}] is {g}, reference {w}"
            );
        }
    }
    // Both kinds of output must occur, or the cases test nothing.
    assert!(finite > 0 && nan > 0, "{finite} compared bit for bit, {nan} NaN");
}

#[test]
fn transb_keeps_zero_terms_and_overwrites_the_output() {
    // Nothing is skipped: a ±0.0 coefficient over inf or NaN makes the
    // output NaN, and k = 0 writes +0.0 over whatever the buffer held.
    let (m, k, n) = (5, 3, 21);
    let a = [1.0, -0.0, 2.0].repeat(m);
    let mut b = vec![1.0f32; n * k];
    for (j, row) in b.chunks_exact_mut(k).enumerate() {
        row[1] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0][j % 4];
    }
    let mut out = vec![-0.0f32; m * n];
    kernels::matmul_transb(&a, &b, &mut out, m, k, n);
    for (idx, &v) in out.iter().enumerate() {
        if (idx % n) % 4 == 3 {
            assert_eq!(v, 3.0, "out[{idx}]");
        } else {
            assert!(v.is_nan(), "out[{idx}] is {v}");
        }
    }
    let mut out = vec![-1.5f32; m * n];
    kernels::matmul_transb(&[], &[], &mut out, m, 0, n);
    assert_eq!(bits(&out), bits(&vec![0.0f32; m * n]));
}
