//! The compute-backend microbench and its CI regression gate.
//!
//! Measures the three hot paths of client training — the linear-layer GEMM,
//! a conv forward/backward step, and a full mini-batch SGD step — under the
//! blocked backend against the scalar reference backend at the paper model
//! shape (the `192 → 64 → 10` MLP trained with batch 32, and the
//! MobileNet-nano stem convolution).
//!
//! The blocked backend reassociates f32 reductions, so cross-backend
//! checksums are compared within a per-workload tolerance rather than
//! bit-exactly; a mismatch beyond tolerance fails the run.
//!
//! Usage: `nnbench [--quick] [--out PATH] [--check BASELINE]`, with the
//! report written to `BENCH_nn.json` by default and the gate described in
//! [`fedms_bench::perf`] ([`NNBENCH`]). The bin is built only with the
//! `backend-blocked` feature.

use fedms_bench::perf::{self, pseudo_values, Agreement, Pair, Workload, NNBENCH};
use fedms_nn::{Conv2d, Layer, LrSchedule, Mlp, NeuralNet, Sgd};
use fedms_tensor::rng::rng_for;
use fedms_tensor::{BackendHandle, BackendKind, Conv2dGeometry, Tensor};
use std::process::ExitCode;

/// Paper training shape: batch 32 through the `192 → 64 → 10` MLP.
const BATCH: usize = 32;
const MLP_WIDTHS: [usize; 3] = [192, 64, 10];
/// The hot GEMM of that model: `x (32×192) · W₁ᵀ (64×192)`.
const GEMM_M: usize = BATCH;
const GEMM_K: usize = 192;
const GEMM_N: usize = 64;
/// MobileNet-nano stem convolution (3×8×8 input, 8 filters, 3×3, pad 1).
const CONV_IN_C: usize = 3;
const CONV_HW: usize = 8;
const CONV_OUT_C: usize = 8;

/// GEMMs per measured iteration.
const GEMM_REPS: usize = 400;
/// Conv forward/backward pairs per measured iteration.
const CONV_REPS: usize = 100;
/// SGD steps per measured iteration.
const SGD_REPS: usize = 50;

/// One iteration = `GEMM_REPS` applications of `out = a · bᵀ` at the
/// paper linear-layer shape.
struct MatmulWorkload {
    name: &'static str,
    backend: BackendHandle,
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl MatmulWorkload {
    fn new(name: &'static str, backend: BackendHandle) -> Self {
        MatmulWorkload {
            name,
            backend,
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
            self.backend.matmul_transb(&self.a, &self.b, &mut self.out, GEMM_M, GEMM_K, GEMM_N);
            checksum += f64::from(self.out[0]) + f64::from(self.out[GEMM_M * GEMM_N - 1]);
        }
        checksum
    }
}

/// One iteration = `CONV_REPS` forward/backward pairs through the nano
/// stem convolution at batch 32.
struct ConvWorkload {
    name: &'static str,
    layer: Conv2d,
    input: Tensor,
    grad_out: Tensor,
}

impl ConvWorkload {
    fn new(name: &'static str, backend: BackendHandle) -> Self {
        let geom =
            Conv2dGeometry::new(CONV_IN_C, CONV_HW, CONV_HW, 3, 1, 1).expect("stem geometry");
        let mut rng = rng_for(0xC0, &[]);
        let mut layer = Conv2d::new(geom, CONV_OUT_C, &mut rng).expect("stem conv");
        layer.set_backend(backend);
        let in_dims = [BATCH, CONV_IN_C, CONV_HW, CONV_HW];
        let out_dims = [BATCH, CONV_OUT_C, CONV_HW, CONV_HW];
        let input = Tensor::from_vec(pseudo_values(0xC1, in_dims.iter().product()), &in_dims)
            .expect("conv input");
        let grad_out = Tensor::from_vec(pseudo_values(0xC2, out_dims.iter().product()), &out_dims)
            .expect("conv grad");
        ConvWorkload { name, layer, input, grad_out }
    }
}

impl Workload for ConvWorkload {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        // Output coordinates produced per iteration (forward only).
        (CONV_REPS * BATCH * CONV_OUT_C * CONV_HW * CONV_HW) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        let fwd = self.input.len() + BATCH * CONV_OUT_C * CONV_HW * CONV_HW;
        (CONV_REPS * 2 * fwd * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let mut checksum = 0.0f64;
        for _ in 0..CONV_REPS {
            self.layer.zero_grads();
            let out = self.layer.forward(&self.input).expect("conv forward");
            let grad_in = self.layer.backward(&self.grad_out).expect("conv backward");
            checksum +=
                f64::from(out.as_slice()[0]) + f64::from(grad_in.as_slice()[grad_in.len() - 1]);
        }
        checksum
    }
}

/// One iteration = reset to the initial parameters, then `SGD_REPS`
/// full `train_batch` steps (zero grads → forward → softmax-CE →
/// backward → SGD update) on the paper MLP.
///
/// Resetting per iteration keeps every iteration's trajectory
/// identical, so the checksum (summed batch losses) is comparable
/// across backends and across runs.
struct SgdStepWorkload {
    name: &'static str,
    model: Mlp,
    optimizer: Sgd,
    init: Tensor,
    input: Tensor,
    labels: Vec<usize>,
}

impl SgdStepWorkload {
    fn new(name: &'static str, backend: BackendHandle) -> Self {
        let mut model = Mlp::new(&MLP_WIDTHS, 0x5D).expect("paper mlp");
        model.set_backend(backend);
        let optimizer = Sgd::new(LrSchedule::Constant(0.05)).expect("sgd");
        let init = model.param_vector();
        let input =
            Tensor::from_vec(pseudo_values(0x5E, BATCH * MLP_WIDTHS[0]), &[BATCH, MLP_WIDTHS[0]])
                .expect("mlp input");
        let classes = MLP_WIDTHS[MLP_WIDTHS.len() - 1];
        let labels: Vec<usize> = (0..BATCH).map(|i| i % classes).collect();
        SgdStepWorkload { name, model, optimizer, init, input, labels }
    }
}

impl Workload for SgdStepWorkload {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        // Parameters updated per iteration.
        (SGD_REPS * self.model.num_params()) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        // Params + grads read and written once per step.
        (SGD_REPS * 4 * self.model.num_params() * 4) as u64
    }
    fn run(&mut self) -> f64 {
        self.model.set_param_vector(&self.init).expect("param reset");
        let mut checksum = 0.0f64;
        for _ in 0..SGD_REPS {
            let loss = self
                .model
                .train_batch(&self.input, &self.labels, &mut self.optimizer)
                .expect("train step");
            checksum += f64::from(loss);
        }
        checksum
    }
}

fn main() -> ExitCode {
    let scalar = BackendHandle::scalar();
    // One intra-op thread: the engine's client-parallel phases own the
    // cores, so the single-thread kernel speed is the honest signal.
    let blocked =
        BackendKind::Blocked.resolve(1).expect("nnbench is built only with backend-blocked");
    let widths = MLP_WIDTHS.map(|w| w.to_string()).join("-");
    let workload = format!(
        "batch {BATCH}: gemm {GEMM_M}x{GEMM_K}x{GEMM_N}, stem conv {CONV_IN_C}x{CONV_HW}x{CONV_HW} \
         -> {CONV_OUT_C} (3x3, pad 1) forward+backward, sgd step on the {widths} MLP"
    );
    perf::run(&NNBENCH, &workload, |harness| {
        Ok(vec![
            (
                "gemm",
                Pair::measure(
                    harness,
                    &mut MatmulWorkload::new("gemm/blocked", blocked),
                    &mut MatmulWorkload::new("gemm/scalar", scalar),
                    Agreement::Relative(1e-4),
                )?,
            ),
            (
                "conv",
                Pair::measure(
                    harness,
                    &mut ConvWorkload::new("conv/blocked", blocked),
                    &mut ConvWorkload::new("conv/scalar", scalar),
                    Agreement::Relative(1e-3),
                )?,
            ),
            (
                "sgd",
                Pair::measure(
                    harness,
                    &mut SgdStepWorkload::new("sgd/blocked", blocked),
                    &mut SgdStepWorkload::new("sgd/scalar", scalar),
                    Agreement::Relative(1e-2),
                )?,
            ),
        ])
    })
}
