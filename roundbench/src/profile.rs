//! Direct timed calls into `fedms-nn`: forward and backward of single
//! layers at the shapes a workload's model runs them, plus the SGD step,
//! one training batch and one client's evaluation of the whole model.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fedms_core::FedMsConfig;
use fedms_nn::{
    Conv2d, DepthwiseConv2d, GlobalAvgPool, Layer, Linear, MobileNetNanoConfig, NeuralNet, ReLU6,
    Sgd,
};
use fedms_sim::ModelSpec;
use fedms_tensor::rng::rng_for;
use fedms_tensor::{Conv2dGeometry, Tensor};

use crate::stats::median;

/// Time spent on each measured call kind.
const BUDGET: Duration = Duration::from_millis(120);
/// Calls per kind at least, whatever the budget.
const MIN_REPS: usize = 15;

/// Repeats `f` until [`BUDGET`] is spent (at least [`MIN_REPS`] times,
/// after two warm-up calls) and returns the median call time in µs.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    f();
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < MIN_REPS || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&xs)
}

/// Median forward and backward µs of `layer` on `input`, each backward
/// timed right after its own forward.
fn fwd_bwd(layer: &mut dyn Layer, input: &Tensor) -> Result<(f64, f64), String> {
    layer.set_training(true);
    let grad = Tensor::ones(layer.forward(input).map_err(|e| e.to_string())?.dims());
    layer.backward(&grad).map_err(|e| e.to_string())?;
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while fwd.len() < MIN_REPS || start.elapsed() < BUDGET {
        let t = Instant::now();
        black_box(layer.forward(black_box(input)).expect("forward succeeded once"));
        fwd.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(layer.backward(black_box(&grad)).expect("backward of a cached forward"));
        bwd.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((median(&fwd), median(&bwd)))
}

/// The microprofile of `cfg`'s model: `nn.*` metric name → µs.
///
/// The convolution kinds are timed at the MobileNetNano shape the model
/// runs them at (the default nano shape for an MLP workload, which has
/// none); `nn.linear` is the model's first linear layer.
///
/// # Errors
///
/// Propagates layer, model and dataset errors.
pub fn microprofile(cfg: &FedMsConfig) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut rng = rng_for(cfg.seed, &[0x5052_4F46]); // "PROF"
    let batch = cfg.batch_size;
    let nano = match &cfg.model {
        ModelSpec::MobileNetNano(c) => c.clone(),
        ModelSpec::Mlp { .. } => MobileNetNanoConfig::default(),
    };
    let mut m = BTreeMap::new();
    let mut record = |name: (&'static str, &'static str), (fwd, bwd): (f64, f64)| {
        m.insert(name.0, fwd);
        m.insert(name.1, bwd);
    };

    // Stem: 3×3 conv over the input image.
    let (c, h, w) = (nano.in_channels, nano.in_h, nano.in_w);
    let geom = Conv2dGeometry::new(c, h, w, 3, 1, 1).map_err(|e| err(&e))?;
    let mut stem = Conv2d::new(geom, nano.stem_channels, &mut rng).map_err(|e| err(&e))?;
    let x = Tensor::randn(&mut rng, &[batch, c, h, w], 0.0, 1.0);
    record(("nn.stem_conv.fwd_us", "nn.stem_conv.bwd_us"), fwd_bwd(&mut stem, &x)?);

    // First block: 1×1 expansion, then the 3×3 depthwise over its output.
    let (expansion, _, stride) = nano.blocks[0];
    let (c, hidden) = (nano.stem_channels, nano.stem_channels * expansion);
    let geom = Conv2dGeometry::new(c, h, w, 1, 1, 0).map_err(|e| err(&e))?;
    let mut pointwise = Conv2d::new(geom, hidden, &mut rng).map_err(|e| err(&e))?;
    let x = Tensor::randn(&mut rng, &[batch, c, h, w], 0.0, 1.0);
    record(("nn.pointwise.fwd_us", "nn.pointwise.bwd_us"), fwd_bwd(&mut pointwise, &x)?);
    let geom = Conv2dGeometry::new(hidden, h, w, 3, stride, 1).map_err(|e| err(&e))?;
    let mut depthwise = DepthwiseConv2d::new(geom, &mut rng).map_err(|e| err(&e))?;
    let x = Tensor::randn(&mut rng, &[batch, hidden, h, w], 0.0, 1.0);
    record(("nn.depthwise.fwd_us", "nn.depthwise.bwd_us"), fwd_bwd(&mut depthwise, &x)?);
    record(("nn.relu6.fwd_us", "nn.relu6.bwd_us"), fwd_bwd(&mut ReLU6::new(), &x)?);
    record(("nn.gap.fwd_us", "nn.gap.bwd_us"), fwd_bwd(&mut GlobalAvgPool::new(), &x)?);

    // The model's first linear layer: the MLP's input layer, or the nano
    // classifier head over the last block's channels.
    let (fan_in, fan_out) = match &cfg.model {
        ModelSpec::Mlp { widths } => (widths[0], widths[1]),
        ModelSpec::MobileNetNano(c) => {
            (c.blocks.last().map_or(c.stem_channels, |b| b.1), c.num_classes)
        }
    };
    let mut linear = Linear::new(fan_in, fan_out, &mut rng).map_err(|e| err(&e))?;
    let x = Tensor::randn(&mut rng, &[batch, fan_in], 0.0, 1.0);
    record(("nn.linear.fwd_us", "nn.linear.bwd_us"), fwd_bwd(&mut linear, &x)?);

    // The whole model on real data: one SGD step, one training batch, one
    // client's evaluation of the test split.
    let (train, test) = cfg.dataset.generate(cfg.seed).map_err(|e| err(&e))?;
    let (train, test) = if cfg.model.wants_flat_input() {
        (train.flattened(), test.flattened())
    } else {
        (train, test)
    };
    let idx: Vec<usize> = (0..batch.min(train.len())).collect();
    let (bx, by) = train.batch(&idx).map_err(|e| err(&e))?;
    let mut model = cfg.model.build(cfg.seed).map_err(|e| err(&e))?;
    let mut opt = Sgd::new(cfg.schedule).map_err(|e| err(&e))?;
    model.train_batch(&bx, &by, &mut opt).map_err(|e| err(&e))?;
    m.insert(
        "nn.sgd_step_us",
        time_us(|| opt.step(model.as_mut()).expect("sgd step over a built model")),
    );
    m.insert(
        "nn.train_batch_us",
        time_us(|| {
            black_box(model.train_batch(&bx, &by, &mut opt).expect("train batch succeeded once"));
        }),
    );
    let (tx, ty) = (test.samples(), test.labels());
    m.insert(
        "nn.eval_client_us",
        time_us(|| {
            black_box(model.evaluate(tx, ty).expect("evaluation of the test split"));
        }),
    );
    Ok(m)
}
