use super::presence_word;
use crate::{Matrix, Precision};

/// Bitmap-compressed matrix: one presence bit per element (packed into
/// 64-bit words, row-major) plus the non-zero values in scan order.
///
/// This is the format the paper's Fig. 11 walkthrough stores in the look-up
/// table and intersects with an element-wise AND to find matching operand
/// pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapMatrix {
    rows: usize,
    cols: usize,
    precision: Precision,
    bits: Vec<u64>,
    values: Vec<i32>,
}

impl BitmapMatrix {
    /// Encodes a dense matrix.
    pub fn from_dense(m: &Matrix<i32>, precision: Precision) -> Self {
        // One pass over 64-element chunks of the row-major data: each chunk
        // yields its presence word and then the values at its set bits.
        let data = m.as_slice();
        let mut bits = vec![0u64; data.len().div_ceil(64)];
        let mut values = vec![0i32; m.nnz()];
        let mut k = 0;
        for (word, chunk) in bits.iter_mut().zip(data.chunks(64)) {
            *word = presence_word(chunk);
            let mut rest = *word;
            while rest != 0 {
                values[k] = chunk[rest.trailing_zeros() as usize];
                k += 1;
                rest &= rest - 1;
            }
        }
        BitmapMatrix { rows: m.rows(), cols: m.cols(), precision, bits, values }
    }

    /// Decodes back to a dense matrix.
    pub fn to_dense(&self) -> Matrix<i32> {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let mut vi = 0;
        for i in 0..self.rows * self.cols {
            if self.bit(i) {
                m.as_mut_slice()[i] = self.values[vi];
                vi += 1;
            }
        }
        m
    }

    /// Presence bit of flat element `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
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

    /// Raw presence words (row-major packing), as fetched by the sparsity
    /// ratio calculator for its popcount (Eq. 4).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Element-wise AND of two presence bitmaps (paper Fig. 11 operation 2):
    /// positions where *both* operands have data, i.e. the multiplications
    /// that actually need a MAC lane.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn and(&self, other: &BitmapMatrix) -> Vec<u64> {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "bitmap AND requires matching shapes"
        );
        self.bits.iter().zip(&other.bits).map(|(a, b)| a & b).collect()
    }

    /// Exact storage footprint in bits: one bit per element plus the packed
    /// non-zero values.
    pub fn footprint_bits(&self) -> u64 {
        (self.rows * self.cols) as u64 + self.values.len() as u64 * self.precision.bits() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Matrix::from_rows(&[&[0, -3, 0, 9], &[1, 0, 0, 0]]);
        let bm = BitmapMatrix::from_dense(&m, Precision::Int8);
        assert_eq!(bm.nnz(), 3);
        assert_eq!(bm.to_dense(), m);
    }

    #[test]
    fn bits_reflect_presence() {
        let m = Matrix::from_rows(&[&[0, 5], &[6, 0]]);
        let bm = BitmapMatrix::from_dense(&m, Precision::Int4);
        assert!(!bm.bit(0));
        assert!(bm.bit(1));
        assert!(bm.bit(2));
        assert!(!bm.bit(3));
    }

    #[test]
    fn and_intersects_presence() {
        let a = BitmapMatrix::from_dense(&Matrix::from_rows(&[&[1, 1, 0, 0]]), Precision::Int4);
        let b = BitmapMatrix::from_dense(&Matrix::from_rows(&[&[0, 1, 1, 0]]), Precision::Int4);
        let and = a.and(&b);
        assert_eq!(and[0] & 0b1111, 0b0010);
    }

    #[test]
    fn footprint_formula() {
        let mut m = Matrix::<i32>::zeros(64, 64);
        m.set(1, 1, 3);
        m.set(2, 2, 4);
        let bm = BitmapMatrix::from_dense(&m, Precision::Int16);
        assert_eq!(bm.footprint_bits(), 4096 + 2 * 16);
    }

    #[test]
    fn spans_multiple_words() {
        let mut m = Matrix::zeros(16, 16);
        m.set(0, 0, 1);
        m.set(15, 15, 2);
        let bm = BitmapMatrix::from_dense(&m, Precision::Int8);
        assert_eq!(bm.words().len(), 4);
        assert!(bm.bit(0));
        assert!(bm.bit(255));
        assert_eq!(bm.to_dense(), m);
    }
}
