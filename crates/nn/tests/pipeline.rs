//! Cross-module nn pipeline tests: a composite CNN's gradients, its SGD
//! training, parameter-vector transfer between identical networks, and
//! momentum on a convex quadratic.

use fedms_nn::*;
use fedms_tensor::rng::rng_for;
use fedms_tensor::{Conv2dGeometry, Tensor};

fn tiny_cnn(seed: u64) -> Sequential {
    let mut rng = rng_for(seed, &[0xC0]);
    Sequential::new()
        .with(Conv2d::new(Conv2dGeometry::new(1, 8, 8, 3, 1, 1).unwrap(), 4, &mut rng).unwrap())
        .with(ReLU::new())
        .with(Flatten::new())
        .with(Linear::new(4 * 8 * 8, 3, &mut rng).unwrap())
}

#[test]
fn cnn_gradchecks() {
    gradcheck::check_layer(Box::new(tiny_cnn(1)), &[2, 1, 8, 8], 51, 4e-2).unwrap();
}

#[test]
fn cnn_trains_on_bright_vs_dark() {
    let mut rng = rng_for(2, &[]);
    let n = 24usize;
    let mut x = Tensor::randn(&mut rng, &[n, 1, 8, 8], 0.0, 0.2);
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    for (i, &l) in labels.iter().enumerate() {
        if l == 1 {
            for v in &mut x.as_mut_slice()[i * 64..(i + 1) * 64] {
                *v += 1.5;
            }
        }
    }
    let mut net = tiny_cnn(3);
    let mut opt = Sgd::new(LrSchedule::Constant(0.05)).unwrap();
    let first = net.train_batch(&x, &labels, &mut opt).unwrap();
    let mut last = first;
    for _ in 0..60 {
        last = net.train_batch(&x, &labels, &mut opt).unwrap();
    }
    assert!(last < 0.3 * first, "SGD training should converge: {first} → {last}");
    assert!(net.evaluate(&x, &labels).unwrap() > 0.9);
}

#[test]
fn param_vector_transfers_between_identical_cnns() {
    let a = tiny_cnn(4);
    let mut b = tiny_cnn(5);
    assert_ne!(a.param_vector(), b.param_vector());
    b.set_param_vector(&a.param_vector()).unwrap();
    assert_eq!(a.param_vector(), b.param_vector());
    // Same parameters → same predictions.
    let x = Tensor::randn(&mut rng_for(6, &[]), &[3, 1, 8, 8], 0.0, 1.0);
    let mut a = a;
    assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
}

#[test]
fn momentum_on_quadratic_beats_plain_sgd() {
    // Ill-conditioned quadratic via the convex module: momentum converges
    // faster at the same step size.
    use fedms_nn::convex::QuadraticObjective;
    let o =
        QuadraticObjective::new(Tensor::from_slice(&[10.0, 0.1]), Tensor::from_slice(&[1.0, -1.0]))
            .unwrap();
    let run = |momentum: f32| -> f32 {
        let mut w = Tensor::zeros(&[2]);
        let mut velocity = Tensor::zeros(&[2]);
        for _ in 0..200 {
            let g = o.grad(&w).unwrap();
            velocity.scale(momentum);
            velocity.add_inplace(&g).unwrap();
            w.axpy(-0.05, &velocity).unwrap();
        }
        o.value(&w).unwrap()
    };
    let plain = run(0.0);
    let heavy = run(0.9);
    assert!(heavy < plain, "momentum should reach a lower value: {heavy} vs plain {plain}");
}
