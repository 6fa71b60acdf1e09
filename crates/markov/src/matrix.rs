//! Dense row-major matrices with the solves the chain analyses need.
//!
//! This is deliberately a *small* linear-algebra module: dense storage,
//! Gaussian elimination with partial pivoting, and the handful of operations
//! the absorbing-chain analysis requires. It is not a general BLAS.

use crate::float::exactly_zero;
use crate::{Error, Result};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use bt_markov::Matrix;
///
/// let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
/// let x = a.solve(&[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if the rows are empty or ragged.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::Shape {
                context: "Matrix::from_rows",
                detail: "no rows".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(Error::Shape {
                context: "Matrix::from_rows",
                detail: "empty first row".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(Error::Shape {
                    context: "Matrix::from_rows",
                    detail: format!("row {i} has {} columns, expected {cols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if the matrix is not square or `b` has the
    /// wrong length, and [`Error::Singular`] if elimination finds a pivot
    /// smaller than `1e-12` in magnitude.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let x = self.solve_many(&Matrix::from_rows(b.iter().map(|&v| vec![v]).collect())?)?;
        Ok((0..x.rows).map(|i| x[(i, 0)]).collect())
    }

    /// Solves `self * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::solve`].
    pub fn solve_many(&self, b: &Matrix) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(Error::Shape {
                context: "Matrix::solve",
                detail: format!("matrix is {}x{}, not square", self.rows, self.cols),
            });
        }
        if b.rows != self.rows {
            return Err(Error::Shape {
                context: "Matrix::solve",
                detail: format!("rhs has {} rows, expected {}", b.rows, self.rows),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut rhs = b.clone();
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&i, &j| {
                    a[(i, col)]
                        .abs()
                        .partial_cmp(&a[(j, col)].abs())
                        .expect("no NaN in pivot search")
                })
                .expect("non-empty pivot range");
            if a[(pivot_row, col)].abs() < 1e-12 {
                return Err(Error::Singular);
            }
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                rhs.swap_rows(pivot_row, col);
            }
            let pivot = a[(col, col)];
            for row in (col + 1)..n {
                let factor = a[(row, col)] / pivot;
                if exactly_zero(factor) {
                    continue;
                }
                for j in col..n {
                    let v = a[(col, j)];
                    a[(row, j)] -= factor * v;
                }
                for j in 0..rhs.cols {
                    let v = rhs[(col, j)];
                    rhs[(row, j)] -= factor * v;
                }
            }
        }
        // Back substitution.
        let mut x = Matrix::zeros(n, rhs.cols);
        for j in 0..rhs.cols {
            for i in (0..n).rev() {
                let mut acc = rhs[(i, j)];
                for l in (i + 1)..n {
                    acc -= a[(i, l)] * x[(l, j)];
                }
                x[(i, j)] = acc / a[(i, i)];
            }
        }
        Ok(x)
    }

    fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let i3 = Matrix::identity(3);
        let x = i3.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, Error::Shape { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(vec![]).is_err());
        assert!(Matrix::from_rows(vec![vec![]]).is_err());
    }

    #[test]
    fn solve_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.solve(&[0.0, 0.0]), Err(Error::Shape { .. })));
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), Error::Singular);
    }

    #[test]
    fn solve_with_pivoting() {
        // Requires a row swap: leading zero pivot.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_many_against_identity_inverts() {
        let a = Matrix::from_rows(vec![
            vec![4.0, 7.0, 2.0],
            vec![3.0, 6.0, 1.0],
            vec![2.0, 5.0, 3.0],
        ])
        .unwrap();
        let inv = a.solve_many(&Matrix::identity(3)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let prod: f64 = (0..3).map(|l| a[(i, l)] * inv[(l, j)]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod - expect).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::identity(2);
        let _ = a[(2, 0)];
    }
}
