//! Dense complex matrices and LU factorization with partial pivoting.
//!
//! Circuit matrices produced by MNA are small (tens of unknowns for the
//! paper's filters), so a dense solver is both simple and fast enough.

use crate::complex::Complex;
use crate::AnalogError;

/// A dense, row-major complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![Complex::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Complex::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Solves the linear system `self * x = b` by LU factorization with
    /// partial pivoting.  `self` is left unmodified.
    ///
    /// For repeated solves against the same matrix (multiple right-hand
    /// sides) or repeated solves of same-shaped matrices (frequency sweeps),
    /// use [`LuFactor`], which factors once and reuses its storage.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] when the matrix is (numerically)
    /// singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len()` does not match.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, AnalogError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let mut factor = LuFactor::new(self.rows);
        factor.refactor_slice(&self.data)?;
        let mut x = b.to_vec();
        factor.solve_in_place(&mut x);
        Ok(x)
    }
}

/// A reusable LU factorization (partial pivoting) of an `n × n` complex
/// matrix.
///
/// The factor owns its storage and can be refilled from a new matrix of the
/// same size with [`LuFactor::refactor`] without reallocating — the pattern
/// used by frequency sweeps, where the matrix values change per sweep point
/// but the size never does.  One factorization serves any number of
/// right-hand sides via [`LuFactor::solve_in_place`].
#[derive(Clone, Debug)]
pub struct LuFactor {
    n: usize,
    /// Packed `L\U` factors, row-major (unit diagonal of `L` implicit).
    lu: Vec<Complex>,
    /// `ipiv[col]` is the row swapped into `col` during pivoting.
    ipiv: Vec<usize>,
    /// `true` only after a successful factorization; cleared on entry to a
    /// refactor so a failed (singular) attempt cannot be solved against.
    factored: bool,
}

impl LuFactor {
    /// Creates an empty (unfactored) holder for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuFactor {
            n,
            lu: vec![Complex::ZERO; n * n],
            ipiv: vec![0; n],
            factored: false,
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns `true` if the holder currently contains a valid
    /// factorization (i.e. the last [`LuFactor::refactor`] succeeded).
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factors `matrix`, reusing this holder's storage.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] when the matrix is
    /// (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or its size does not match.
    pub fn refactor(&mut self, matrix: &Matrix) -> Result<(), AnalogError> {
        assert_eq!(
            matrix.rows, matrix.cols,
            "factorization requires a square matrix"
        );
        assert_eq!(matrix.rows, self.n, "matrix size mismatch");
        self.refactor_slice(&matrix.data)
    }

    /// Factors a row-major `n × n` slice, reusing this holder's storage.
    pub(crate) fn refactor_slice(&mut self, data: &[Complex]) -> Result<(), AnalogError> {
        assert_eq!(data.len(), self.n * self.n, "matrix size mismatch");
        self.refactor_with(|a| a.copy_from_slice(data))
    }

    /// Lets `fill` write the row-major `n × n` matrix straight into this
    /// holder's storage, then factors it in place (no intermediate copy).
    pub(crate) fn refactor_with(
        &mut self,
        fill: impl FnOnce(&mut [Complex]),
    ) -> Result<(), AnalogError> {
        let n = self.n;
        self.factored = false;
        fill(&mut self.lu);
        let a = &mut self.lu;
        for col in 0..n {
            // Pivot search.
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for row in (col + 1)..n {
                let mag = a[row * n + col].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if unusable_pivot(pivot_mag) {
                return Err(AnalogError::SingularMatrix { pivot: col });
            }
            self.ipiv[col] = pivot_row;
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                a[row * n + col] = factor; // store the L multiplier in place
                if factor == Complex::ZERO {
                    continue;
                }
                for j in (col + 1)..n {
                    let v = a[col * n + j];
                    a[row * n + j] -= factor * v;
                }
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A x = b` in place using the stored factors (`b` becomes `x`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension, or if the
    /// holder has no valid factorization (never factored, or the last
    /// [`LuFactor::refactor`] returned a singular-matrix error).
    pub fn solve_in_place(&self, b: &mut [Complex]) {
        let n = self.n;
        assert!(
            self.factored,
            "solve_in_place called without a successful factorization"
        );
        assert_eq!(b.len(), n, "rhs length mismatch");
        let a = &self.lu;
        // Apply the row permutation, then forward-substitute through L.
        for col in 0..n {
            b.swap(col, self.ipiv[col]);
        }
        for col in 0..n {
            let xv = b[col];
            if xv == Complex::ZERO {
                continue;
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col];
                b[row] -= factor * xv;
            }
        }
        // Back substitution through U.
        for col in (0..n).rev() {
            let mut acc = b[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * b[j];
            }
            b[col] = acc / a[col * n + col];
        }
    }
}

/// Whether a pivot of this magnitude fails the factorization.  Non-finite
/// pivots (from an infinite stamp such as a zero-valued resistor) are as
/// unusable as zero ones: the system is reported singular instead of
/// producing NaN solutions.
#[inline]
pub(crate) fn unusable_pivot(magnitude: f64) -> bool {
    magnitude < 1e-300 || !magnitude.is_finite()
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex {
        Complex::from_real(re)
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let m = Matrix::identity(3);
        let b = vec![c(1.0), c(2.0), c(3.0)];
        let x = m.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_small_real_system() {
        // [2 1; 1 3] x = [3; 5]  ->  x = [0.8, 1.4]
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = c(2.0);
        m[(0, 1)] = c(1.0);
        m[(1, 0)] = c(1.0);
        m[(1, 1)] = c(3.0);
        let x = m.solve(&[c(3.0), c(5.0)]).unwrap();
        assert!((x[0].re - 0.8).abs() < 1e-12);
        assert!((x[1].re - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero on the diagonal forces a row swap.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = c(0.0);
        m[(0, 1)] = c(1.0);
        m[(1, 0)] = c(1.0);
        m[(1, 1)] = c(0.0);
        let x = m.solve(&[c(7.0), c(9.0)]).unwrap();
        assert!((x[0].re - 9.0).abs() < 1e-12);
        assert!((x[1].re - 7.0).abs() < 1e-12);
    }

    #[test]
    fn solve_complex_system() {
        // (1+j) x = 2j  ->  x = 2j / (1+j) = (1 + j)
        let mut m = Matrix::zeros(1, 1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12);
        assert!((x[0].im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_an_error() {
        let m = Matrix::zeros(2, 2);
        let err = m.solve(&[c(1.0), c(1.0)]).unwrap_err();
        assert!(matches!(err, AnalogError::SingularMatrix { .. }));
    }

    #[test]
    fn lu_factor_is_reusable_across_matrices_and_rhs() {
        // Factor once, solve two right-hand sides; refactor with different
        // values in the same storage and solve again.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = c(2.0);
        m[(0, 1)] = c(1.0);
        m[(1, 0)] = c(1.0);
        m[(1, 1)] = c(3.0);
        let mut lu = LuFactor::new(2);
        lu.refactor(&m).unwrap();
        assert_eq!(lu.dim(), 2);
        let mut x1 = vec![c(3.0), c(5.0)];
        lu.solve_in_place(&mut x1);
        assert!((x1[0].re - 0.8).abs() < 1e-12);
        assert!((x1[1].re - 1.4).abs() < 1e-12);
        let mut x2 = vec![c(2.0), c(1.0)];
        lu.solve_in_place(&mut x2);
        let back = m.mul_vec(&x2);
        assert!((back[0].re - 2.0).abs() < 1e-12);
        assert!((back[1].re - 1.0).abs() < 1e-12);
        // Refactor with a permuted matrix that needs pivoting.
        let mut m2 = Matrix::zeros(2, 2);
        m2[(0, 1)] = c(1.0);
        m2[(1, 0)] = c(1.0);
        lu.refactor(&m2).unwrap();
        let mut x3 = vec![c(7.0), c(9.0)];
        lu.solve_in_place(&mut x3);
        assert!((x3[0].re - 9.0).abs() < 1e-12);
        assert!((x3[1].re - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lu_factor_reports_singularity() {
        let mut lu = LuFactor::new(2);
        assert!(!lu.is_factored());
        let err = lu.refactor(&Matrix::zeros(2, 2)).unwrap_err();
        assert!(matches!(err, AnalogError::SingularMatrix { .. }));
        assert!(!lu.is_factored());
        // A successful refactor validates the holder again; a later failed
        // one invalidates it.
        lu.refactor(&Matrix::identity(2)).unwrap();
        assert!(lu.is_factored());
        let _ = lu.refactor(&Matrix::zeros(2, 2));
        assert!(!lu.is_factored());
    }

    #[test]
    #[should_panic(expected = "without a successful factorization")]
    fn solving_an_unfactored_holder_panics() {
        let lu = LuFactor::new(2);
        let mut b = vec![c(1.0), c(2.0)];
        lu.solve_in_place(&mut b);
    }

    #[test]
    fn solution_satisfies_system() {
        let mut m = Matrix::zeros(3, 3);
        let vals = [[4.0, 1.0, 2.0], [1.0, 5.0, 1.0], [2.0, 1.0, 6.0]];
        for (i, row) in vals.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = c(v);
            }
        }
        let b = vec![c(1.0), c(-2.0), c(0.5)];
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi.re - bb.re).abs() < 1e-10);
            assert!((bi.im - bb.im).abs() < 1e-10);
        }
    }
}
