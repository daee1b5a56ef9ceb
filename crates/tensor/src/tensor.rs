//! Dense, row-major `f32` matrix.

use crate::error::TensorError;
use crate::rng::Pcg32;
use crate::Result;

/// A dense, row-major matrix of `f32` values.
///
/// This is intentionally a simple owned container: the LoRA computation
/// graph only needs 2-D operands (`X`, `W`, `A`, `B`, activations and their
/// gradients), and keeping the representation flat makes the fused/unfused
/// executors in `lorafusion-kernels` easy to audit for exact numerical
/// equivalence.
///
/// # Examples
///
/// ```
/// use lorafusion_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m.get(1, 0).unwrap(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from an owned buffer in row-major order.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(TensorError::LengthMismatch {
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform(rows: usize, cols: usize, scale: f32, rng: &mut Pcg32) -> Self {
        let data = (0..rows * cols)
            .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
            .collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. Gaussian entries of the given std-dev.
    ///
    /// LoRA initializes `A` with a Kaiming-style Gaussian and `B` with zeros
    /// so the adapter starts as the identity residual.
    pub fn random_gaussian(rows: usize, cols: usize, std_dev: f32, rng: &mut Pcg32) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.next_gaussian() as f32 * std_dev)
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows x cols` in place, reusing the existing allocation
    /// whenever capacity allows (steady-state workspace reuse performs no
    /// heap allocation and no initializing sweep).
    ///
    /// Contents after the call are unspecified — stale values from before
    /// the call, or zeros in a freshly grown region. Callers must overwrite
    /// every element they later read, exactly like the GEMM scratch arena's
    /// contract.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns element `(row, col)` with bounds checking.
    pub fn get(&self, row: usize, col: usize) -> Result<f32> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::OutOfBounds {
                index: (row, col),
                shape: self.shape(),
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Sets element `(row, col)` with bounds checking.
    pub fn set(&mut self, row: usize, col: usize, value: f32) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::OutOfBounds {
                index: (row, col),
                shape: self.shape(),
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Borrow of row `row` as a slice.
    pub fn row(&self, row: usize) -> Result<&[f32]> {
        if row >= self.rows {
            return Err(TensorError::OutOfBounds {
                index: (row, 0),
                shape: self.shape(),
            });
        }
        Ok(&self.data[row * self.cols..(row + 1) * self.cols])
    }

    /// Returns a new matrix containing rows `[start, end)`.
    ///
    /// Row slicing along the token dimension is how the multi-LoRA executor
    /// routes contiguous token segments to their adapters.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows {
            return Err(TensorError::OutOfBounds {
                index: (end, 0),
                shape: self.shape(),
            });
        }
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data,
        })
    }

    /// Copies `src` into rows `[start, start + src.rows())`.
    pub fn write_rows(&mut self, start: usize, src: &Matrix) -> Result<()> {
        if src.cols != self.cols || start + src.rows > self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "write_rows",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        let dst = &mut self.data[start * self.cols..(start + src.rows) * self.cols];
        dst.copy_from_slice(&src.data);
        Ok(())
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2).unwrap(), 3.0);
        assert_eq!(m.get(1, 0).unwrap(), 4.0);
        assert!(m.get(2, 0).is_err());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Pcg32::seeded(3);
        let m = Matrix::random_uniform(5, 7, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn slice_and_write_rows_roundtrip() {
        let m = Matrix::from_vec(4, 2, (0..8).map(|x| x as f32).collect()).unwrap();
        let mid = m.slice_rows(1, 3).unwrap();
        assert_eq!(mid.as_slice(), &[2.0, 3.0, 4.0, 5.0]);

        let mut out = Matrix::zeros(4, 2);
        out.write_rows(1, &mid).unwrap();
        assert_eq!(out.row(1).unwrap(), &[2.0, 3.0]);
        assert_eq!(out.row(2).unwrap(), &[4.0, 5.0]);
        assert_eq!(out.row(0).unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn slice_rows_rejects_out_of_range() {
        let m = Matrix::zeros(3, 3);
        assert!(m.slice_rows(2, 4).is_err());
        assert!(m.slice_rows(3, 2).is_err());
    }

    #[test]
    fn write_rows_rejects_mismatched_cols() {
        let mut m = Matrix::zeros(3, 3);
        let src = Matrix::zeros(1, 2);
        assert!(m.write_rows(0, &src).is_err());
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::full(2, 2, 2.0);
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.as_slice(), &[4.0; 4]);
    }
}
