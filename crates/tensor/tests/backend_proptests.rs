//! Property tests pinning the blocked backend to the scalar reference.
//!
//! For random shapes and random data, every kernel of the blocked backend
//! must agree elementwise with the scalar backend within a relative
//! tolerance that accounts for f32 reassociation, and the data-movement
//! kernels (im2col/col2im) must agree bit-for-bit.
#![cfg(feature = "backend-blocked")]

use fedms_tensor::{BackendHandle, BackendKind, Conv2dGeometry};
use proptest::prelude::*;

fn blocked(threads: usize) -> BackendHandle {
    BackendKind::Blocked.resolve(threads).expect("feature is enabled")
}

fn scalar() -> BackendHandle {
    BackendHandle::scalar()
}

fn close(a: f32, b: f32, k: usize) -> bool {
    // Reassociation error grows with reduction depth k.
    let tol = 1e-4 * (k as f32).sqrt().max(1.0) * (1.0 + a.abs().max(b.abs()));
    (a - b).abs() <= tol
}

proptest! {
    #[test]
    fn matmul_matches_scalar(
        m in 1usize..9, k in 1usize..40, n in 1usize..9,
        threads in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = fedms_tensor::rng::rng_for(seed, &[0xAB]);
        let a = fedms_tensor::Tensor::randn(&mut rng, &[m, k], 0.0, 1.0);
        let b = fedms_tensor::Tensor::randn(&mut rng, &[k, n], 0.0, 1.0);
        let mut out_s = vec![0.0f32; m * n];
        let mut out_b = vec![0.0f32; m * n];
        scalar().matmul(a.as_slice(), b.as_slice(), &mut out_s, m, k, n);
        blocked(threads).matmul(a.as_slice(), b.as_slice(), &mut out_b, m, k, n);
        for (x, y) in out_s.iter().zip(out_b.iter()) {
            prop_assert!(close(*x, *y, k), "matmul {m}x{k}x{n}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_transb_matches_scalar(
        m in 1usize..9, k in 1usize..40, n in 1usize..9,
        threads in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = fedms_tensor::rng::rng_for(seed, &[0xAC]);
        let a = fedms_tensor::Tensor::randn(&mut rng, &[m, k], 0.0, 1.0);
        let b = fedms_tensor::Tensor::randn(&mut rng, &[n, k], 0.0, 1.0);
        let mut out_s = vec![0.0f32; m * n];
        let mut out_b = vec![0.0f32; m * n];
        scalar().matmul_transb(a.as_slice(), b.as_slice(), &mut out_s, m, k, n);
        blocked(threads).matmul_transb(a.as_slice(), b.as_slice(), &mut out_b, m, k, n);
        for (x, y) in out_s.iter().zip(out_b.iter()) {
            prop_assert!(close(*x, *y, k), "transb {m}x{k}x{n}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_transa_matches_scalar(
        m in 1usize..9, k in 1usize..40, n in 1usize..9,
        threads in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = fedms_tensor::rng::rng_for(seed, &[0xAD]);
        let a = fedms_tensor::Tensor::randn(&mut rng, &[k, m], 0.0, 1.0);
        let b = fedms_tensor::Tensor::randn(&mut rng, &[k, n], 0.0, 1.0);
        let mut out_s = vec![0.0f32; m * n];
        let mut out_b = vec![0.0f32; m * n];
        scalar().matmul_transa(a.as_slice(), b.as_slice(), &mut out_s, m, k, n);
        blocked(threads).matmul_transa(a.as_slice(), b.as_slice(), &mut out_b, m, k, n);
        for (x, y) in out_s.iter().zip(out_b.iter()) {
            prop_assert!(close(*x, *y, k), "transa {m}x{k}x{n}: {x} vs {y}");
        }
    }

    #[test]
    fn im2col_col2im_bit_identical(
        c in 1usize..4, h in 1usize..7, w in 1usize..7,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let kernel = kernel.min(h + 2 * padding).min(w + 2 * padding);
        let geom = Conv2dGeometry::new(c, h, w, kernel, stride, padding).unwrap();
        let mut rng = fedms_tensor::rng::rng_for(seed, &[0xAE]);
        let img = fedms_tensor::Tensor::randn(&mut rng, &[c, h, w], 0.0, 1.0);
        let len = geom.col_rows() * geom.col_cols();
        let mut cols_s = vec![0.0f32; len];
        let mut cols_b = vec![0.0f32; len];
        scalar().im2col(img.as_slice(), &geom, &mut cols_s);
        blocked(2).im2col(img.as_slice(), &geom, &mut cols_b);
        prop_assert_eq!(&cols_s, &cols_b, "im2col must be bit-identical");
        let vol = geom.input_volume();
        let mut back_s = vec![0.0f32; vol];
        let mut back_b = vec![0.0f32; vol];
        scalar().col2im(&cols_s, &geom, &mut back_s);
        blocked(2).col2im(&cols_b, &geom, &mut back_b);
        prop_assert_eq!(&back_s, &back_b, "col2im must be bit-identical");
    }
}
