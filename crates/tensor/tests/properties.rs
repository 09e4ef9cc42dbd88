//! Property-based tests for the tensor substrate.

use axsnn_tensor::batched::matmul_bt_bias;
use axsnn_tensor::conv::{avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, Conv2dSpec};
use axsnn_tensor::{linalg, ops, Tensor};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// `A·B` through the dense batched GEMM: `matmul_bt_bias(A, Bᵀ, 0)`.
fn gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let bt = linalg::transpose(b).unwrap();
    matmul_bt_bias(a, &bt, &Tensor::zeros(&[bt.shape().dims()[0]])).unwrap()
}

proptest! {
    /// Transposition is an involution on arbitrary matrices.
    #[test]
    fn transpose_involution(data in tensor_strategy(12)) {
        let a = Tensor::from_vec(data, &[3, 4]).unwrap();
        let tt = linalg::transpose(&linalg::transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(a, tt);
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in tensor_strategy(6), b in tensor_strategy(6)) {
        let a = Tensor::from_vec(a, &[2, 3]).unwrap();
        let b = Tensor::from_vec(b, &[3, 2]).unwrap();
        let left = linalg::transpose(&gemm(&a, &b)).unwrap();
        let right = gemm(&linalg::transpose(&b).unwrap(), &linalg::transpose(&a).unwrap());
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() <= 1e-3 * (1.0 + l.abs()), "{l} vs {r}");
        }
    }

    /// Matmul distributes over addition: A·(B+C) = A·B + A·C.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(4),
        b in tensor_strategy(4),
        c in tensor_strategy(4),
    ) {
        let a = Tensor::from_vec(a, &[2, 2]).unwrap();
        let b = Tensor::from_vec(b, &[2, 2]).unwrap();
        let c = Tensor::from_vec(c, &[2, 2]).unwrap();
        let lhs = gemm(&a, &b.add(&c).unwrap());
        let rhs = gemm(&a, &b).add(&gemm(&a, &c)).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() <= 1e-3 * (1.0 + l.abs()));
        }
    }

    /// Convolution is linear in the input: conv(x+y) = conv(x) + conv(y)
    /// when the bias is zero.
    #[test]
    fn conv_is_linear(x in tensor_strategy(2 * 16), y in tensor_strategy(2 * 16), w in tensor_strategy(3 * 2 * 9)) {
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let x = Tensor::from_vec(x, &[2, 4, 4]).unwrap();
        let y = Tensor::from_vec(y, &[2, 4, 4]).unwrap();
        let w = Tensor::from_vec(w, &[3, 2, 3, 3]).unwrap();
        let b = Tensor::zeros(&[3]);
        let sum = conv2d(&x.add(&y).unwrap(), &w, &b, &spec).unwrap();
        let parts = conv2d(&x, &w, &b, &spec).unwrap()
            .add(&conv2d(&y, &w, &b, &spec).unwrap()).unwrap();
        for (l, r) in sum.as_slice().iter().zip(parts.as_slice()) {
            prop_assert!((l - r).abs() <= 1e-2 * (1.0 + l.abs()));
        }
    }

    /// Average pooling preserves the total sum (window divides input).
    #[test]
    fn avg_pool_preserves_mean(x in tensor_strategy(16)) {
        let x = Tensor::from_vec(x, &[1, 4, 4]).unwrap();
        let p = avg_pool2d(&x, 2).unwrap();
        prop_assert!((p.sum() * 4.0 - x.sum()).abs() < 1e-3);
    }

    /// Pool backward is the adjoint of pool forward:
    /// ⟨pool(x), g⟩ = ⟨x, pool_backward(g)⟩.
    #[test]
    fn avg_pool_adjoint(x in tensor_strategy(16), g in tensor_strategy(4)) {
        let x = Tensor::from_vec(x, &[1, 4, 4]).unwrap();
        let g = Tensor::from_vec(g, &[1, 2, 2]).unwrap();
        let fwd = avg_pool2d(&x, 2).unwrap();
        let bwd = avg_pool2d_backward(&g, &[1, 4, 4], 2).unwrap();
        let lhs: f32 = fwd.as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(bwd.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()));
    }

    /// Conv backward input-grad is the adjoint of conv forward (zero
    /// bias): ⟨conv(x), g⟩ = ⟨x, conv_backwardᵢₙ(g)⟩.
    #[test]
    fn conv_adjoint(x in tensor_strategy(16), w in tensor_strategy(9), g in tensor_strategy(16)) {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let x = Tensor::from_vec(x, &[1, 4, 4]).unwrap();
        let w = Tensor::from_vec(w, &[1, 1, 3, 3]).unwrap();
        let g = Tensor::from_vec(g, &[1, 4, 4]).unwrap();
        let b = Tensor::zeros(&[1]);
        let fwd = conv2d(&x, &w, &b, &spec).unwrap();
        let grads = conv2d_backward(&x, &w, &g, &spec).unwrap();
        let lhs: f32 = fwd.as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(grads.input.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 2e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// Softmax output is a probability distribution and order-preserving.
    #[test]
    fn softmax_is_distribution(data in tensor_strategy(8)) {
        let t = Tensor::from_vec(data.clone(), &[8]).unwrap();
        let p = ops::softmax(&t).unwrap();
        prop_assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert_eq!(t.argmax(), p.argmax());
    }

    /// sign(x)·|x| reconstructs x.
    #[test]
    fn sign_magnitude_decomposition(data in tensor_strategy(10)) {
        let t = Tensor::from_vec(data, &[10]).unwrap();
        let s = ops::sign(&t);
        let m = t.map(f32::abs);
        let back = s.mul(&m).unwrap();
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Clamp output stays inside the bounds and is idempotent.
    #[test]
    fn clamp_idempotent(data in tensor_strategy(10)) {
        let t = Tensor::from_vec(data, &[10]).unwrap();
        let c = t.clamp(0.0, 1.0);
        prop_assert!(c.min() >= 0.0 && c.max() <= 1.0);
        prop_assert_eq!(c.clamp(0.0, 1.0), c);
    }

    /// Reshape round-trips preserve data exactly.
    #[test]
    fn reshape_roundtrip(data in tensor_strategy(24)) {
        let t = Tensor::from_vec(data, &[2, 3, 4]).unwrap();
        let r = t.reshape(&[6, 4]).unwrap().reshape(&[2, 3, 4]).unwrap();
        prop_assert_eq!(t, r);
    }

    /// Cross-entropy loss is non-negative and zero only for a perfectly
    /// confident correct prediction.
    #[test]
    fn cross_entropy_non_negative(data in tensor_strategy(5), label in 0usize..5) {
        let t = Tensor::from_vec(data, &[5]).unwrap();
        let (loss, grad) = ops::cross_entropy_with_grad(&t, label).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.sum().abs() < 1e-4, "softmax-CE grad sums to zero");
    }
}
