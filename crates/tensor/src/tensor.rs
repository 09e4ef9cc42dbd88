use crate::{Result, Shape, TensorError};
use std::fmt;

/// Owned, contiguous, row-major dense `f32` tensor.
///
/// `Tensor` is the workhorse value type of the workspace: images, spike
/// trains, membrane potentials, weights and gradients are all tensors.
/// All operations validate shapes and return [`TensorError`] on misuse.
///
/// # Example
///
/// ```
/// use axsnn_tensor::Tensor;
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from flat row-major data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the shape volume.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> axsnn_tensor::Result<()> {
    /// let t = axsnn_tensor::Tensor::from_vec(vec![0.0; 6], &[2, 3])?;
    /// assert_eq!(t.shape().dims(), &[2, 3]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Example
    ///
    /// ```
    /// let t = axsnn_tensor::Tensor::full(&[3], 2.5);
    /// assert_eq!(t.as_slice(), &[2.5, 2.5, 2.5]);
    /// ```
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the flat row-major data as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat row-major data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on invalid indices.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> axsnn_tensor::Result<()> {
    /// let t = axsnn_tensor::Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// assert_eq!(t.at(&[1, 0])?, 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a copy with a new shape sharing the same flat data order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> axsnn_tensor::Result<()> {
    /// let t = axsnn_tensor::Tensor::zeros(&[2, 6]);
    /// let r = t.reshape(&[3, 4])?;
    /// assert_eq!(r.shape().dims(), &[3, 4]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
                op: "zip",
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Adds a scalar to every element.
    pub fn shift(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Example
    ///
    /// ```
    /// let t = axsnn_tensor::Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
    /// assert_eq!(t.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    /// ```
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Sums all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence); `None` when empty.
    ///
    /// # Example
    ///
    /// ```
    /// let t = axsnn_tensor::Tensor::from_vec(vec![0.1, 0.9, 0.3], &[3]).unwrap();
    /// assert_eq!(t.argmax(), Some(1));
    /// ```
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// L∞ norm (largest absolute element); 0.0 for an empty tensor.
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Returns `true` when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Tensor {
            data,
            shape: Shape::new(&[n]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_volume() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2], -3.0).sum(), -6.0);
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 3], 7.0).unwrap();
        assert_eq!(t.at(&[2, 3]).unwrap(), 7.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn add_sub_mul() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.linf_norm(), 3.0);
        assert!((t.l2_norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_vec(vec![5.0, 5.0, 1.0], &[3]).unwrap();
        assert_eq!(t.argmax(), Some(0));
        let empty: Tensor = Vec::<f32>::new().into_iter().collect();
        assert_eq!(empty.argmax(), None);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_vec(vec![-5.0, 0.3, 9.0], &[3]).unwrap();
        let c = t.clamp(0.0, 1.0);
        assert_eq!(c.as_slice(), &[0.0, 0.3, 1.0]);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.starts_with("Tensor(100)"));
    }

    #[test]
    fn from_iterator_rank1() {
        let t: Tensor = (0..5).map(|i| i as f32).collect();
        assert_eq!(t.shape().dims(), &[5]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros(&[2]);
        assert!(t.is_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.is_finite());
    }
}
