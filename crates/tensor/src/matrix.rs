//! Row-major dense `f32` matrix.

/// A dense, row-major matrix of `f32`.
///
/// The element at row `r`, column `c` lives at `data[r * cols + c]`.
/// Vectors are represented as `1 × n` or `n × 1` matrices; the autograd layer
/// treats everything as 2-D, which keeps the op set small.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of len {} cannot be {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(1, n, data)
    }

    /// An `n × 1` column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(n, 1, data)
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of {} rows", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of {} rows", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices. Yields exactly `rows()` items even when
    /// `cols == 0` (each item is then the empty slice) — `chunks_exact`
    /// over the empty buffer would yield nothing and silently drop the
    /// zero-width rows, which broke `sum_cols` on `m×0` inputs.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        let cols = self.cols;
        (0..self.rows).map(move |r| &self.data[r * cols..(r + 1) * cols])
    }

    /// Copies column `c` into a fresh `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {} out of {} cols", c, self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns a new matrix whose rows are `indices` of `self` (gather).
    ///
    /// Rows may repeat; this is the embedding-lookup primitive.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather_rows: row {} out of {} rows", src, self.rows);
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Adds `other`'s rows into `self`'s rows at `indices` (scatter-add).
    ///
    /// This is the backward pass of [`Matrix::gather_rows`].
    pub fn scatter_add_rows(&mut self, indices: &[usize], other: &Matrix) {
        assert_eq!(indices.len(), other.rows, "scatter_add_rows: {} indices vs {} rows", indices.len(), other.rows);
        assert_eq!(self.cols, other.cols, "scatter_add_rows: col mismatch {} vs {}", self.cols, other.cols);
        for (src, &dst) in indices.iter().enumerate() {
            assert!(dst < self.rows, "scatter_add_rows: row {} out of {} rows", dst, self.rows);
            let row = other.row(src);
            let out = &mut self.data[dst * self.cols..(dst + 1) * self.cols];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Vertically stacks matrices with identical column counts.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of zero matrices");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack: col mismatch {} vs {}", m.cols, cols);
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontally concatenates matrices with identical row counts.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "hconcat: row mismatch {} vs {}", m.rows, rows);
                out.row_mut(r)[offset..offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Splits horizontally into pieces of the given widths (inverse of `hconcat`).
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        let total: usize = widths.iter().sum();
        assert_eq!(total, self.cols, "hsplit: widths sum {} != cols {}", total, self.cols);
        let mut out: Vec<Matrix> = widths.iter().map(|&w| Matrix::zeros(self.rows, w)).collect();
        for r in 0..self.rows {
            let mut offset = 0;
            for (part, &w) in out.iter_mut().zip(widths) {
                part.row_mut(r).copy_from_slice(&self.row(r)[offset..offset + w]);
                offset += w;
            }
        }
        out
    }

    /// Reinterprets the buffer with a new shape of the same element count.
    pub fn reshape(&self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(rows * cols, self.len(), "reshape: {}x{} incompatible with {} elements", rows, cols, self.len());
        Matrix { rows, cols, data: self.data.clone() }
    }

    /// Owned [`Matrix::reshape`]: moves the buffer instead of cloning it.
    /// The zero-copy variant for hot paths that already hold the matrix by
    /// value (e.g. the `Reshape` adjoint reshaping an owned gradient).
    pub fn into_reshape(self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(rows * cols, self.len(), "reshape: {}x{} incompatible with {} elements", rows, cols, self.len());
        Matrix { rows, cols, data: self.data }
    }

    /// True iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch {:?} vs {:?}", self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.);
        assert_eq!(m.get(1, 0), 4.);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 5.]);
    }

    #[test]
    #[should_panic(expected = "cannot be")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn eye_is_identity_under_gather() {
        let m = Matrix::eye(3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[0., 0., 1.]);
        assert_eq!(g.row(1), &[1., 0., 0.]);
    }

    #[test]
    fn scatter_add_is_gather_adjoint() {
        // <gather(A, idx), B> == <A, scatter(B, idx)> for any A, B.
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let idx = [1usize, 1, 3];
        let b = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * 0.5);
        let gathered = a.gather_rows(&idx);
        let lhs: f32 = gathered.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum();
        let mut scat = Matrix::zeros(4, 3);
        scat.scatter_add_rows(&idx, &b);
        let rhs: f32 = a.as_slice().iter().zip(scat.as_slice()).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| (r * c) as f32);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 5));
        let parts = cat.hsplit(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn vstack_stacks() {
        let a = Matrix::ones(1, 2);
        let b = Matrix::zeros(2, 2);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[1., 1.]);
        assert_eq!(s.row(2), &[0., 0.]);
    }

    #[test]
    fn reshape_preserves_order() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let r = m.reshape(3, 2);
        assert_eq!(r.row(0), &[1., 2.]);
        assert_eq!(r.row(2), &[5., 6.]);
        let owned = m.clone().into_reshape(6, 1);
        assert_eq!(owned.shape(), (6, 1));
        assert_eq!(owned.as_slice(), m.as_slice());
    }

    #[test]
    fn rows_iter_yields_every_row_even_with_zero_cols() {
        // Regression: chunks_exact over the empty buffer yielded 0 rows.
        let z = Matrix::zeros(4, 0);
        let rows: Vec<&[f32]> = z.rows_iter().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.is_empty()));
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0f32, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn finite_and_norms() {
        let mut m = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!(m.all_finite());
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        m.set(0, 0, f32::NAN);
        assert!(!m.all_finite());
    }
}
