//! The inference-mode contract of the layers on the MLP and MobileNetNano
//! paths: after `set_training(false)` a forward computes the training
//! forward's exact bits but keeps no backward cache, so a `backward` right
//! after it fails with `NoForwardCache` instead of reusing a stale cache;
//! a fresh layer starts in training mode; and evaluating a model between
//! training steps leaves its parameters bit-identical.

use fedms_nn::{
    Conv2d, DepthwiseConv2d, GlobalAvgPool, Layer, LeakyReLU, Linear, LrSchedule, Mlp,
    MobileNetNano, MobileNetNanoConfig, NeuralNet, NnError, ReLU, ReLU6, Sequential, Sgd,
};
use fedms_tensor::rng::rng_for;
use fedms_tensor::{Conv2dGeometry, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Checks the contract on `layer` with inputs of shape `dims`.
fn check_modes(name: &str, mut layer: Box<dyn Layer>, dims: &[usize]) {
    let mut rng = rng_for(0x1F, &[dims.iter().product::<usize>() as u64]);
    let x = Tensor::randn(&mut rng, dims, 0.0, 2.0);
    let other = Tensor::randn(&mut rng, dims, 0.0, 2.0);

    // A fresh layer is in training mode: forward then backward works.
    let trained = layer.forward(&x).unwrap();
    let grad_in = layer.backward(&trained).unwrap();
    assert_eq!(grad_in.dims(), dims, "{name}: fresh layer must train");

    // Inference computes the same bits and drops the cache, even the one a
    // training forward on other data left behind.
    layer.forward(&other).unwrap();
    layer.set_training(false);
    let inferred = layer.forward(&x).unwrap();
    assert_eq!(bits(&inferred), bits(&trained), "{name}: inference forward changed bits");
    assert!(
        matches!(layer.backward(&trained), Err(NnError::NoForwardCache(_))),
        "{name}: backward after an inference forward must find no cache"
    );

    // Back in training mode the layer caches again, with the same result.
    layer.set_training(true);
    assert_eq!(bits(&layer.forward(&x).unwrap()), bits(&trained), "{name}: retrained forward");
    assert_eq!(bits(&layer.backward(&trained).unwrap()), bits(&grad_in), "{name}: backward");
}

#[test]
fn every_nano_and_mlp_layer_keeps_no_cache_in_inference() {
    let mut rng = rng_for(0x1E, &[]);
    let stem = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
    let pointwise = Conv2dGeometry::new(8, 8, 8, 1, 1, 0).unwrap();
    let strided = Conv2dGeometry::new(16, 8, 8, 3, 2, 1).unwrap();
    let cases: Vec<(&str, Box<dyn Layer>, Vec<usize>)> = vec![
        ("linear", Box::new(Linear::new(12, 5, &mut rng).unwrap()), vec![4, 12]),
        ("relu", Box::new(ReLU::new()), vec![4, 12]),
        ("relu6", Box::new(ReLU6::new()), vec![2, 3, 4, 4]),
        ("leaky_relu", Box::new(LeakyReLU::new()), vec![4, 12]),
        ("stem conv", Box::new(Conv2d::new(stem, 8, &mut rng).unwrap()), vec![3, 3, 8, 8]),
        ("pointwise", Box::new(Conv2d::new(pointwise, 16, &mut rng).unwrap()), vec![3, 8, 8, 8]),
        (
            "depthwise",
            Box::new(DepthwiseConv2d::new(strided, &mut rng).unwrap()),
            vec![3, 16, 8, 8],
        ),
        ("global_avg_pool", Box::new(GlobalAvgPool::new()), vec![3, 16, 4, 4]),
        (
            "sequential",
            Box::new(
                Sequential::new()
                    .with(Linear::new(12, 6, &mut rng).unwrap())
                    .with(ReLU::new())
                    .with(Linear::new(6, 3, &mut rng).unwrap()),
            ),
            vec![4, 12],
        ),
        ("mlp", Box::new(Mlp::new(&[12, 8, 3], 5).unwrap()), vec![4, 12]),
        (
            "mobilenet_nano",
            Box::new(MobileNetNano::new(MobileNetNanoConfig::default(), 6).unwrap()),
            vec![3, 3, 8, 8],
        ),
    ];
    for (name, layer, dims) in cases {
        check_modes(name, layer, &dims);
    }
}

/// Trains `model` for three steps, evaluating between steps when `eval`
/// is set, and returns the final parameter bits.
fn train_with_evals(model: &mut dyn Layer, x: &Tensor, labels: &[usize], eval: bool) -> Vec<u32> {
    let mut opt = Sgd::new(LrSchedule::Constant(0.05)).unwrap();
    for _ in 0..3 {
        if eval {
            model.evaluate(x, labels).unwrap();
            model.evaluate_loss(x, labels).unwrap();
        }
        model.train_batch(x, labels, &mut opt).unwrap();
    }
    bits(&model.param_vector())
}

#[test]
fn evaluating_between_steps_leaves_the_trained_parameters_bit_identical() {
    let mut rng = rng_for(0x1D, &[]);
    let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let x = Tensor::randn(&mut rng, &[6, 12], 0.0, 1.0);
    let plain = train_with_evals(&mut Mlp::new(&[12, 8, 3], 5).unwrap(), &x, &labels, false);
    let evals = train_with_evals(&mut Mlp::new(&[12, 8, 3], 5).unwrap(), &x, &labels, true);
    assert_eq!(plain, evals, "mlp");

    let cfg = MobileNetNanoConfig { num_classes: 3, ..Default::default() };
    let x = Tensor::randn(&mut rng, &[6, 3, 8, 8], 0.0, 1.0);
    let mut a = MobileNetNano::new(cfg.clone(), 7).unwrap();
    let mut b = MobileNetNano::new(cfg, 7).unwrap();
    let plain = train_with_evals(&mut a, &x, &labels, false);
    let evals = train_with_evals(&mut b, &x, &labels, true);
    assert_eq!(plain, evals, "mobilenet_nano");
}
