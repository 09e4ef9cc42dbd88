//! Free-function tensor operations: softmax, one-hot, losses and
//! axis reductions used by the training and attack code.

use crate::{Result, Tensor, TensorError};

/// Numerically stable softmax over the last (or only) axis of a rank-1
/// tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-vector inputs and
/// [`TensorError::InvalidArgument`] for empty ones.
///
/// # Example
///
/// ```
/// use axsnn_tensor::{ops::softmax, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])?;
/// let p = softmax(&logits)?;
/// assert!((p.sum() - 1.0).abs() < 1e-6);
/// assert_eq!(p.argmax(), Some(2));
/// # Ok(())
/// # }
/// ```
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    if logits.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: logits.shape().rank(),
            op: "softmax",
        });
    }
    if logits.is_empty() {
        return Err(TensorError::InvalidArgument {
            message: "softmax of empty tensor".into(),
        });
    }
    let max = logits.max();
    let exps: Vec<f32> = logits.as_slice().iter().map(|&v| (v - max).exp()).collect();
    let total: f32 = exps.iter().sum();
    Tensor::from_vec(
        exps.into_iter().map(|e| e / total).collect(),
        &[logits.len()],
    )
}

/// One-hot encodes `label` into a vector of length `classes`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when `label >= classes`.
pub(crate) fn one_hot(label: usize, classes: usize) -> Result<Tensor> {
    if label >= classes {
        return Err(TensorError::InvalidArgument {
            message: format!("label {label} out of range for {classes} classes"),
        });
    }
    let mut v = vec![0.0f32; classes];
    v[label] = 1.0;
    Tensor::from_vec(v, &[classes])
}

/// Cross-entropy loss of a softmax distribution against an integer label,
/// together with the gradient with respect to the *logits*
/// (`softmax(logits) − one_hot(label)`).
///
/// # Errors
///
/// Propagates errors from [`softmax`] and the one-hot encoding of
/// `label` (out of range for the logit count).
///
/// # Example
///
/// ```
/// use axsnn_tensor::{ops::cross_entropy_with_grad, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let logits = Tensor::from_vec(vec![4.0, 0.0, 0.0], &[3])?;
/// let (loss, grad) = cross_entropy_with_grad(&logits, 0)?;
/// assert!(loss < 0.1);           // confident and correct → small loss
/// assert!(grad.as_slice()[0] < 0.0); // pushing logit 0 higher lowers loss
/// # Ok(())
/// # }
/// ```
pub fn cross_entropy_with_grad(logits: &Tensor, label: usize) -> Result<(f32, Tensor)> {
    let probs = softmax(logits)?;
    let target = one_hot(label, logits.len())?;
    let p = probs.as_slice()[label].max(1e-12);
    let loss = -p.ln();
    let grad = probs.sub(&target)?;
    Ok((loss, grad))
}

/// Elementwise sign, mapping 0.0 to 0.0. Used by the l∞ attacks.
///
/// # Example
///
/// ```
/// let t = axsnn_tensor::Tensor::from_vec(vec![-3.0, 0.0, 0.5], &[3]).unwrap();
/// assert_eq!(axsnn_tensor::ops::sign(&t).as_slice(), &[-1.0, 0.0, 1.0]);
/// ```
pub fn sign(t: &Tensor) -> Tensor {
    t.map(|v| {
        if v > 0.0 {
            1.0
        } else if v < 0.0 {
            -1.0
        } else {
            0.0
        }
    })
}

/// Accuracy of a batch of predicted labels against ground truth, in
/// percent (0–100).
///
/// Returns 0.0 for empty inputs.
///
/// # Example
///
/// ```
/// let acc = axsnn_tensor::ops::accuracy_percent(&[1, 2, 3], &[1, 2, 0]);
/// assert!((acc - 66.666_67).abs() < 1e-3);
/// ```
pub fn accuracy_percent(pred: &[usize], truth: &[usize]) -> f32 {
    if pred.is_empty() || pred.len() != truth.len() {
        return 0.0;
    }
    let correct = pred.iter().zip(truth).filter(|(a, b)| a == b).count();
    100.0 * correct as f32 / pred.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let big = Tensor::from_vec(vec![1000.0, 1000.0, 999.0], &[3]).unwrap();
        let p = softmax(&big).unwrap();
        assert!(p.is_finite());
        assert!((p.sum() - 1.0).abs() < 1e-5);
        assert!(p.as_slice()[0] > p.as_slice()[2]);
    }

    #[test]
    fn softmax_rejects_matrix_and_empty() {
        assert!(softmax(&Tensor::zeros(&[2, 2])).is_err());
        let empty: Tensor = Vec::<f32>::new().into_iter().collect();
        assert!(softmax(&empty).is_err());
    }

    #[test]
    fn one_hot_basics() {
        assert_eq!(one_hot(0, 3).unwrap().as_slice(), &[1.0, 0.0, 0.0]);
        assert!(one_hot(3, 3).is_err());
    }

    #[test]
    fn cross_entropy_uniform_is_log_n() {
        let logits = Tensor::zeros(&[10]);
        let (loss, _) = cross_entropy_with_grad(&logits, 4).unwrap();
        assert!((loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[4]).unwrap();
        let (_, grad) = cross_entropy_with_grad(&logits, 2).unwrap();
        assert!(grad.sum().abs() < 1e-6);
        // Gradient at the true class is negative (prob − 1).
        assert!(grad.as_slice()[2] < 0.0);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2], &[3]).unwrap();
        let (_, grad) = cross_entropy_with_grad(&logits, 1).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = cross_entropy_with_grad(&lp, 1).unwrap();
            let (fm, _) = cross_entropy_with_grad(&lm, 1).unwrap();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[i]).abs() < 1e-3,
                "logit grad mismatch at {i}"
            );
        }
    }

    #[test]
    fn sign_maps_zero_to_zero() {
        let t = Tensor::from_vec(vec![0.0, -0.0, 1e-9], &[3]).unwrap();
        let s = sign(&t);
        assert_eq!(s.as_slice()[0], 0.0);
        assert_eq!(s.as_slice()[1], 0.0);
        assert_eq!(s.as_slice()[2], 1.0);
    }

    #[test]
    fn accuracy_edge_cases() {
        assert_eq!(accuracy_percent(&[], &[]), 0.0);
        assert_eq!(accuracy_percent(&[1], &[1, 2]), 0.0);
        assert_eq!(accuracy_percent(&[1, 1], &[1, 1]), 100.0);
    }
}
