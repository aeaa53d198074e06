//! Bit-exactness of the scalar backend's `matmul` and `matmul_transa`
//! against the loops they replaced.
//!
//! The scalar backend is the deterministic oracle, so a change to one of
//! its kernels may alter the loop nest but not any output element's f32
//! operation sequence: the same start value, the same terms in the same `k`
//! order, and the same skip of terms whose `a` coefficient compares equal
//! to zero. The row-at-a-time loops below are the reference. They are
//! compared bit for bit with the backend over every `n` from 0 to 100 (so
//! every register-block width and remainder occurs), `k` of 0, 1 and
//! larger, output buffers that start at arbitrary values (both zeros
//! included), exact `±0.0` coefficients, and `±inf`/NaN in the `b` rows
//! whose coefficients are all zero: a kernel that multiplied instead of
//! skipping would turn those into NaN.

use fedms_tensor::rng::rng_for;
use fedms_tensor::BackendHandle;
use rand::rngs::StdRng;
use rand::Rng;

/// `out += a · b` for `a: (m×k)`, `b: (k×n)`, as the scalar backend
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

/// `out += aᵀ · b` for `a: (k×m)`, `b: (k×n)`, as the scalar backend
/// computed it before its rows were register-blocked.
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
    let backend = BackendHandle::scalar();
    let mut rng = rng_for(0x5CA1, &[0]);
    for n in 0..=100 {
        for k in depths(&mut rng) {
            let m = rng.gen_range(1..5);
            let case = draw(&mut rng, m, k, n, |i, kk| i * k + kk);
            let mut want = case.out.clone();
            reference_matmul(&case.a, &case.b, &mut want, m, k, n);
            let mut got = case.out.clone();
            backend.matmul(&case.a, &case.b, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul m={m} k={k} n={n}");
        }
    }
}

#[test]
fn matmul_transa_matches_the_row_at_a_time_loops_bit_for_bit() {
    let backend = BackendHandle::scalar();
    let mut rng = rng_for(0x5CA1, &[1]);
    for n in 0..=100 {
        for k in depths(&mut rng) {
            let m = rng.gen_range(1..5);
            let case = draw(&mut rng, m, k, n, |i, kk| kk * m + i);
            let mut want = case.out.clone();
            reference_matmul_transa(&case.a, &case.b, &mut want, m, k, n);
            let mut got = case.out.clone();
            backend.matmul_transa(&case.a, &case.b, &mut got, m, k, n);
            assert_eq!(bits(&got), bits(&want), "matmul_transa m={m} k={k} n={n}");
        }
    }
}

#[test]
fn skipped_terms_keep_non_finite_rows_out_of_the_sum() {
    // A term with a ±0.0 coefficient is skipped, not multiplied: the
    // result stays finite although its `b` row holds inf and NaN, and an
    // output whose every term is skipped keeps its start value's sign.
    let backend = BackendHandle::scalar();
    let (m, k, n) = (2, 3, 40);
    let mut b = vec![1.0f32; k * n];
    for (j, v) in b[n..2 * n].iter_mut().enumerate() {
        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    let a = [1.0, -0.0, 2.0, 0.0, 0.0, -0.0];
    let mut out = vec![-0.0f32; m * n];
    backend.matmul(&a, &b, &mut out, m, k, n);
    assert!(out[..n].iter().all(|&v| v == 3.0), "row 0: {:?}", &out[..n]);
    assert_eq!(bits(&out[n..]), bits(&vec![-0.0f32; n]), "row 1 keeps -0.0");

    let at = [1.0, 0.0, -0.0, 0.0, 2.0, -0.0];
    let mut out = vec![-0.0f32; m * n];
    backend.matmul_transa(&at, &b, &mut out, m, k, n);
    assert!(out[..n].iter().all(|&v| v == 3.0), "row 0: {:?}", &out[..n]);
    assert_eq!(bits(&out[n..]), bits(&vec![-0.0f32; n]), "row 1 keeps -0.0");
}
