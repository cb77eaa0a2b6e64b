use super::for_each_nonzero;
use crate::dense::MacScalar;
use crate::{Matrix, Precision, Result, TensorError};

/// Storage orientation of a compressed-sparse matrix.
///
/// The paper groups CSR and CSC into one category because they share the
/// compression mechanism and differ only in whether the major axis is rows
/// or columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrLayout {
    /// CSR: pointers over rows, indices over columns.
    RowMajor,
    /// CSC: pointers over columns, indices over rows.
    ColMajor,
}

/// Compressed sparse row/column matrix, generic over the stored scalar.
///
/// `CsrMatrix<i32>` (the default) is the quantized-tensor encoding the
/// format studies measure; `CsrMatrix<f32>` carries the same compression
/// for floating-point operands — the software mirror of the accelerator
/// applying its sparsity-aware dataflow to post-ReLU activations
/// regardless of the datapath's numeric mode. Both share every encoder,
/// decoder and kernel below through [`MacScalar`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrMatrix<T = i32> {
    rows: usize,
    cols: usize,
    layout: CsrLayout,
    precision: Precision,
    /// `major_dim + 1` pointers into `values`.
    ptr: Vec<u32>,
    /// Minor-axis index of each stored value.
    minor_idx: Vec<u16>,
    values: Vec<T>,
}

impl<T: MacScalar> CsrMatrix<T> {
    /// Encodes a dense matrix in the chosen orientation.
    ///
    /// # Panics
    ///
    /// Panics if the minor dimension exceeds `u16::MAX + 1` (stored minor
    /// indices are `u16`; silently wrapping them would corrupt the
    /// encoding).
    pub fn from_dense(m: &Matrix<T>, layout: CsrLayout, precision: Precision) -> Self {
        let minor = match layout {
            CsrLayout::RowMajor => m.cols(),
            CsrLayout::ColMajor => m.rows(),
        };
        assert!(
            minor <= u16::MAX as usize + 1,
            "CSR minor dimension {minor} exceeds the u16 index range"
        );
        let (ptr, minor_idx, values) = match layout {
            CsrLayout::RowMajor => encode_rows(m),
            CsrLayout::ColMajor => encode_cols(m),
        };
        CsrMatrix { rows: m.rows(), cols: m.cols(), layout, precision, ptr, minor_idx, values }
    }

    /// Decodes back to a dense matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let major = self.major_dim();
        for i in 0..major {
            for k in self.ptr[i] as usize..self.ptr[i + 1] as usize {
                let j = self.minor_idx[k] as usize;
                let (r, c) = match self.layout {
                    CsrLayout::RowMajor => (i, j),
                    CsrLayout::ColMajor => (j, i),
                };
                m.set(r, c, self.values[k]);
            }
        }
        m
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix cols.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage orientation.
    pub fn layout(&self) -> CsrLayout {
        self.layout
    }

    /// Precision the values were encoded at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Length of the major (pointer) axis.
    pub fn major_dim(&self) -> usize {
        match self.layout {
            CsrLayout::RowMajor => self.rows,
            CsrLayout::ColMajor => self.cols,
        }
    }

    /// Non-zeros of major line `i` as `(minor_index, value)` pairs.
    ///
    /// For CSR this is a row; for CSC, a column. This is the access pattern
    /// the Gustavson-style dense mapping uses (paper Fig. 5: "A: a, b, c, d
    /// => row-wise broadcast").
    pub fn line(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.ptr[i] as usize;
        let hi = self.ptr[i + 1] as usize;
        (lo..hi).map(move |k| (self.minor_idx[k] as usize, self.values[k]))
    }

    /// Number of non-zeros in major line `i`.
    pub fn line_nnz(&self, i: usize) -> usize {
        (self.ptr[i + 1] - self.ptr[i]) as usize
    }

    /// Sparse × dense product `self × rhs` — the Gustavson row-wise kernel
    /// the paper's dense mapping implements in hardware (Fig. 5): each
    /// stored non-zero `A[i][k]` scales dense row `B[k,:]` into output row
    /// `i`. Works for both orientations; accumulation follows the scalar's
    /// [`MacScalar::mac`] rule (saturating through i64 for `i32`, IEEE
    /// addition for `f32`), and per output element the inner dimension is
    /// walked in ascending order, so the result is bit-identical to the
    /// dense kernels (which skip zero `A` operands the same way).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_dense(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.cols != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rhs with {} rows", self.cols),
                actual: format!("rhs with {} rows", rhs.rows()),
            });
        }
        let n = rhs.cols();
        let mut out = Matrix::zeros(self.rows, n);
        let out_data = out.as_mut_slice();
        let rhs_data = rhs.as_slice();
        let mut scale_into = |i: usize, k: usize, av: T| {
            let out_row = &mut out_data[i * n..(i + 1) * n];
            let b_row = &rhs_data[k * n..(k + 1) * n];
            T::mac_slice(out_row, av, b_row);
        };
        match self.layout {
            // CSR: line i holds row i's (k, A[i][k]) pairs, k ascending.
            CsrLayout::RowMajor => {
                for i in 0..self.rows {
                    for (k, av) in self.line(i) {
                        scale_into(i, k, av);
                    }
                }
            }
            // CSC: line k holds column k's (i, A[i][k]) pairs; the outer
            // loop ascending over k keeps per-output accumulation order.
            CsrLayout::ColMajor => {
                for k in 0..self.cols {
                    for (i, av) in self.line(k) {
                        scale_into(i, k, av);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Exact storage footprint in bits: value + minor index per non-zero,
    /// plus `(major_dim + 1)` pointers wide enough to address every element.
    pub fn footprint_bits(&self) -> u64 {
        let minor = match self.layout {
            CsrLayout::RowMajor => self.cols,
            CsrLayout::ColMajor => self.rows,
        };
        let per_nnz = self.precision.bits() as u64 + index_bits(minor);
        let ptr_bits = ceil_log2((self.rows * self.cols) as u64 + 1);
        self.values.len() as u64 * per_nnz + (self.major_dim() as u64 + 1) * ptr_bits
    }
}

/// Pointer, minor-index and value arrays of `m` compressed by rows: one
/// pass over the row slices into buffers sized by a first nnz count.
fn encode_rows<T: MacScalar>(m: &Matrix<T>) -> (Vec<u32>, Vec<u16>, Vec<T>) {
    let nnz = m.nnz();
    let mut ptr = vec![0u32; m.rows() + 1];
    let mut minor_idx = vec![0u16; nnz];
    let mut values = vec![T::default(); nnz];
    let mut k = 0;
    for r in 0..m.rows() {
        for_each_nonzero(m.row(r), |c, v| {
            minor_idx[k] = c as u16;
            values[k] = v;
            k += 1;
        });
        ptr[r + 1] = k as u32;
    }
    (ptr, minor_idx, values)
}

/// Pointer, minor-index and value arrays of `m` compressed by columns.
///
/// A counting sort over the row slices: one pass counts each column's
/// non-zeros into the pointer array, a second places every non-zero at its
/// column's next free slot. Rows are walked in ascending order, so each
/// column keeps its row indices ascending.
fn encode_cols<T: MacScalar>(m: &Matrix<T>) -> (Vec<u32>, Vec<u16>, Vec<T>) {
    let mut ptr = vec![0u32; m.cols() + 1];
    for r in 0..m.rows() {
        for (count, &v) in ptr[1..].iter_mut().zip(m.row(r)) {
            *count += !v.is_zero() as u32;
        }
    }
    for c in 0..m.cols() {
        ptr[c + 1] += ptr[c];
    }
    let nnz = ptr[m.cols()] as usize;
    let mut next = ptr[..m.cols()].to_vec();
    let mut minor_idx = vec![0u16; nnz];
    let mut values = vec![T::default(); nnz];
    for r in 0..m.rows() {
        for_each_nonzero(m.row(r), |c, v| {
            let slot = next[c] as usize;
            minor_idx[slot] = r as u16;
            values[slot] = v;
            next[c] += 1;
        });
    }
    (ptr, minor_idx, values)
}

/// Bits needed to index a dimension of size `dim` (shared with COO).
#[inline]
pub(crate) fn index_bits(dim: usize) -> u64 {
    ceil_log2(dim as u64)
}

#[inline]
fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<i32> {
        Matrix::from_rows(&[&[1, 0, 2], &[0, 0, 0], &[3, 4, 0]])
    }

    #[test]
    fn csr_roundtrip() {
        let m = sample();
        let csr = CsrMatrix::from_dense(&m, CsrLayout::RowMajor, Precision::Int8);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.to_dense(), m);
    }

    #[test]
    fn csc_roundtrip() {
        let m = sample();
        let csc = CsrMatrix::from_dense(&m, CsrLayout::ColMajor, Precision::Int8);
        assert_eq!(csc.nnz(), 4);
        assert_eq!(csc.to_dense(), m);
    }

    #[test]
    fn line_access() {
        let m = sample();
        let csr = CsrMatrix::from_dense(&m, CsrLayout::RowMajor, Precision::Int8);
        let row0: Vec<_> = csr.line(0).collect();
        assert_eq!(row0, vec![(0, 1), (2, 2)]);
        assert_eq!(csr.line_nnz(1), 0);
        assert_eq!(csr.line_nnz(2), 2);

        let csc = CsrMatrix::from_dense(&m, CsrLayout::ColMajor, Precision::Int8);
        let col0: Vec<_> = csc.line(0).collect();
        assert_eq!(col0, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn csr_and_csc_footprints_match_on_square_tiles() {
        let m = sample();
        let csr = CsrMatrix::from_dense(&m, CsrLayout::RowMajor, Precision::Int16);
        let csc = CsrMatrix::from_dense(&m, CsrLayout::ColMajor, Precision::Int16);
        assert_eq!(csr.footprint_bits(), csc.footprint_bits());
    }

    #[test]
    fn footprint_formula() {
        let mut m = Matrix::zeros(64, 64);
        m.set(0, 0, 1);
        let csr = CsrMatrix::from_dense(&m, CsrLayout::RowMajor, Precision::Int16);
        // 1 nnz * (16 + 6) + 65 * 13
        assert_eq!(csr.footprint_bits(), 22 + 65 * 13);
    }
}
