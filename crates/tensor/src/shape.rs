use crate::{Result, TensorError};
use std::fmt;

/// Row-major shape descriptor for a [`crate::Tensor`].
///
/// A `Shape` owns its dimension list and provides volume and stride
/// computation plus flat-index conversion.
///
/// # Example
///
/// ```
/// use axsnn_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    ///
    /// # Example
    ///
    /// ```
    /// let s = axsnn_tensor::Shape::new(&[28, 28]);
    /// assert_eq!(s.rank(), 2);
    /// ```
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Returns the dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements (product of dimensions).
    ///
    /// The volume of a rank-0 shape is 1.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns the size of dimension `axis`, or `None` if out of range.
    pub fn dim(&self, axis: usize) -> Option<usize> {
        self.dims.get(axis).copied()
    }

    /// Computes row-major strides for this shape.
    ///
    /// # Example
    ///
    /// ```
    /// let s = axsnn_tensor::Shape::new(&[4, 5]);
    /// assert_eq!(s.strides(), vec![5, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate exceeds its dimension.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> axsnn_tensor::Result<()> {
    /// let s = axsnn_tensor::Shape::new(&[2, 3]);
    /// assert_eq!(s.flat_index(&[1, 2])?, 5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn flat_index(&self, index: &[usize]) -> Result<usize> {
        let out_of_bounds = || TensorError::IndexOutOfBounds {
            index: index.to_vec(),
            shape: self.dims.clone(),
        };
        if index.len() != self.dims.len() {
            return Err(out_of_bounds());
        }
        // Horner form of Σ index[axis]·stride[axis]: one pass, no
        // stride vector (this sits under every `Tensor::at`/`set`).
        let mut flat = 0usize;
        for (&i, &d) in index.iter().zip(&self.dims) {
            if i >= d {
                return Err(out_of_bounds());
            }
            flat = flat * d + i;
        }
        Ok(flat)
    }

    /// Returns `true` when both shapes have identical dimension lists.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_empty_shape_is_one() {
        assert_eq!(Shape::new(&[]).volume(), 1);
    }

    #[test]
    fn volume_with_zero_dim_is_zero() {
        assert_eq!(Shape::new(&[3, 0, 2]).volume(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn flat_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let f = s.flat_index(&[i, j, k]).unwrap();
                    assert_eq!(f, i * 12 + j * 4 + k, "row-major offset");
                    assert!(seen.insert(f), "flat index collision");
                }
            }
        }
    }

    #[test]
    fn flat_index_rejects_bad_rank() {
        let s = Shape::new(&[2, 3]);
        assert!(s.flat_index(&[1]).is_err());
        assert!(s.flat_index(&[1, 1, 1]).is_err());
    }

    #[test]
    fn flat_index_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0, 3]).is_err());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::new(&[]).to_string(), "()");
    }
}
