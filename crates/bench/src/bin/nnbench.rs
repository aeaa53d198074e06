//! The GEMM microbench and its CI regression gate.
//!
//! Measures the packed `kernels::matmul_transb` — `out = x · Wᵀ`, the
//! product behind every `Linear` forward and every conv weight gradient —
//! against the one-dot-product-per-output loop it replaced, kept here as
//! the reference, at the paper MLP's hot shape: batch 32 through the
//! `192 → 64` layer. The kernel keeps every output's f32 operation
//! sequence, so the two must agree bit for bit.
//!
//! Usage: `nnbench [--quick] [--out PATH] [--check BASELINE]`, with the
//! report written to `BENCH_nn.json` by default and the gate described in
//! [`fedms_bench::perf`] ([`NNBENCH`]).

use fedms_bench::perf::{self, pseudo_values, Pair, Workload, NNBENCH};
use fedms_tensor::kernels;
use std::process::ExitCode;

/// The hot GEMM of the paper MLP: `x (32×192) · W₁ᵀ (64×192)`.
const GEMM_M: usize = 32;
const GEMM_K: usize = 192;
const GEMM_N: usize = 64;

/// GEMMs per measured iteration.
const GEMM_REPS: usize = 400;

/// A `matmul_transb` implementation: `out = a · bᵀ` for `a: (m×k)`,
/// `b: (n×k)`, `out: (m×n)`.
type TransB = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// `out = a · bᵀ` as [`kernels::matmul_transb`] computed it before it
/// packed Bᵀ: one dot product per output, from `+0.0` in `k` order.
fn dot_products(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
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

/// One iteration = `GEMM_REPS` applications of `out = a · bᵀ` at the
/// paper linear-layer shape.
struct MatmulWorkload {
    name: &'static str,
    kernel: TransB,
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl MatmulWorkload {
    fn new(name: &'static str, kernel: TransB) -> Self {
        MatmulWorkload {
            name,
            kernel,
            a: pseudo_values(0xA, GEMM_M * GEMM_K),
            b: pseudo_values(0xB, GEMM_N * GEMM_K),
            out: vec![0.0; GEMM_M * GEMM_N],
        }
    }
}

impl Workload for MatmulWorkload {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        (GEMM_REPS * GEMM_M * GEMM_N) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        (GEMM_REPS * (GEMM_M * GEMM_K + GEMM_N * GEMM_K + GEMM_M * GEMM_N) * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let mut checksum = 0.0f64;
        for _ in 0..GEMM_REPS {
            (self.kernel)(&self.a, &self.b, &mut self.out, GEMM_M, GEMM_K, GEMM_N);
            checksum += f64::from(self.out[0]) + f64::from(self.out[GEMM_M * GEMM_N - 1]);
        }
        checksum
    }
}

fn main() -> ExitCode {
    let workload = format!("matmul_transb {GEMM_M}x{GEMM_K} times ({GEMM_N}x{GEMM_K})^T");
    perf::run(&NNBENCH, &workload, |harness| {
        let pair = Pair::measure(
            harness,
            &mut MatmulWorkload::new("gemm/packed", kernels::matmul_transb),
            &mut MatmulWorkload::new("gemm/dot_products", dot_products),
        )?;
        Ok(vec![("gemm", pair)])
    })
}
