use super::for_each_nonzero;
use crate::{Matrix, Precision};

/// Coordinate-list sparse matrix: one `(row, col, value)` triplet per
/// non-zero, in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    precision: Precision,
    row_idx: Vec<u16>,
    col_idx: Vec<u16>,
    values: Vec<i32>,
}

impl CooMatrix {
    /// Encodes a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u16::MAX + 1` (tiles are always far
    /// smaller than that).
    pub fn from_dense(m: &Matrix<i32>, precision: Precision) -> Self {
        assert!(m.rows() <= 1 << 16 && m.cols() <= 1 << 16, "tile too large for COO indices");
        let nnz = m.nnz();
        let mut row_idx = vec![0u16; nnz];
        let mut col_idx = vec![0u16; nnz];
        let mut values = vec![0i32; nnz];
        let mut k = 0;
        for r in 0..m.rows() {
            for_each_nonzero(m.row(r), |c, v| {
                row_idx[k] = r as u16;
                col_idx[k] = c as u16;
                values[k] = v;
                k += 1;
            });
        }
        CooMatrix { rows: m.rows(), cols: m.cols(), precision, row_idx, col_idx, values }
    }

    /// Decodes back to a dense matrix.
    pub fn to_dense(&self) -> Matrix<i32> {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.values.len() {
            m.set(self.row_idx[i] as usize, self.col_idx[i] as usize, self.values[i]);
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

    /// Precision the values were encoded at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Iterator over `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, i32)> + '_ {
        (0..self.values.len())
            .map(move |i| (self.row_idx[i] as usize, self.col_idx[i] as usize, self.values[i]))
    }

    /// Exact storage footprint in bits: per non-zero, the value at encoding
    /// precision plus minimal-width row and column indices.
    pub fn footprint_bits(&self) -> u64 {
        let per_nnz = self.precision.bits() as u64
            + super::csr::index_bits(self.rows)
            + super::csr::index_bits(self.cols);
        self.values.len() as u64 * per_nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_values() {
        let m = Matrix::from_rows(&[&[0, 3, 0], &[-2, 0, 0], &[0, 0, 7]]);
        let coo = CooMatrix::from_dense(&m, Precision::Int8);
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.to_dense(), m);
    }

    #[test]
    fn iter_is_row_major() {
        let m = Matrix::from_rows(&[&[0, 1], &[2, 0]]);
        let coo = CooMatrix::from_dense(&m, Precision::Int4);
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 1), (1, 0, 2)]);
    }

    #[test]
    fn empty_matrix_has_zero_footprint() {
        let m = Matrix::zeros(8, 8);
        let coo = CooMatrix::from_dense(&m, Precision::Int16);
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.footprint_bits(), 0);
    }

    #[test]
    fn footprint_formula() {
        // 64x64 INT16 → (16 + 6 + 6) bits per nnz.
        let mut m = Matrix::zeros(64, 64);
        m.set(5, 6, 1);
        m.set(9, 9, 2);
        let coo = CooMatrix::from_dense(&m, Precision::Int16);
        assert_eq!(coo.footprint_bits(), 2 * 28);
    }
}
