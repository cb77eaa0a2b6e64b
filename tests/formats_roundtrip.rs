//! Property tests over the sparse formats and the adaptive format
//! selector: every encoding round-trips, measured footprints equal the
//! analytic model, and the online selector always picks a format that is
//! genuinely minimal.

use fnr_tensor::sparse::{BitmapMatrix, CooMatrix, CsrLayout, CsrMatrix, EncodedMatrix};
use fnr_tensor::{gen, Matrix, Precision, SparsityFormat, SrCalculator};
use proptest::prelude::*;

/// Non-zeros of `m` as `(row, col, value)`, by the naive row-major scan.
fn naive_triplets(m: &Matrix<i32>) -> Vec<(usize, usize, i32)> {
    let mut out = Vec::new();
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if m.get(r, c) != 0 {
                out.push((r, c, m.get(r, c)));
            }
        }
    }
    out
}

/// Checks every encoder of `m` against the naive scan: decoded matrix,
/// stored entries, non-zero count and footprint (the analytic model, which
/// the CSC flavour meets on the transposed shape).
fn check_encoders_against_naive(m: &Matrix<i32>, p: Precision) {
    let (rows, cols) = (m.rows(), m.cols());
    let triplets = naive_triplets(m);
    let nnz = triplets.len();
    let shape = format!("{rows}x{cols}");

    let coo = CooMatrix::from_dense(m, p);
    assert_eq!(coo.to_dense(), *m, "COO {shape}");
    assert_eq!(coo.iter().collect::<Vec<_>>(), triplets, "COO {shape}");
    assert_eq!(coo.nnz(), nnz, "COO {shape}");
    assert_eq!(coo.footprint_bits(), SparsityFormat::Coo.footprint_bits(rows, cols, nnz, p));

    let csr = CsrMatrix::from_dense(m, CsrLayout::RowMajor, p);
    let csc = CsrMatrix::from_dense(m, CsrLayout::ColMajor, p);
    assert_eq!(csr.to_dense(), *m, "CSR {shape}");
    assert_eq!(csc.to_dense(), *m, "CSC {shape}");
    for r in 0..rows {
        let naive: Vec<_> =
            triplets.iter().filter(|t| t.0 == r).map(|&(_, c, v)| (c, v)).collect();
        assert_eq!(csr.line(r).collect::<Vec<_>>(), naive, "CSR {shape} row {r}");
    }
    for c in 0..cols {
        let naive: Vec<_> =
            triplets.iter().filter(|t| t.1 == c).map(|&(r, _, v)| (r, v)).collect();
        assert_eq!(csc.line(c).collect::<Vec<_>>(), naive, "CSC {shape} col {c}");
    }
    assert_eq!((csr.nnz(), csc.nnz()), (nnz, nnz), "CSR/CSC {shape}");
    let csr_bits = SparsityFormat::CscCsr.footprint_bits(rows, cols, nnz, p);
    assert_eq!(csr.footprint_bits(), csr_bits, "CSR {shape}");
    let csc_bits = SparsityFormat::CscCsr.footprint_bits(cols, rows, nnz, p);
    assert_eq!(csc.footprint_bits(), csc_bits, "CSC {shape}");

    let bitmap = BitmapMatrix::from_dense(m, p);
    let mut words = vec![0u64; (rows * cols).div_ceil(64)];
    for &(r, c, _) in &triplets {
        let i = r * cols + c;
        words[i / 64] |= 1 << (i % 64);
    }
    assert_eq!(bitmap.to_dense(), *m, "Bitmap {shape}");
    assert_eq!(bitmap.words(), &words[..], "Bitmap {shape}");
    assert_eq!(bitmap.nnz(), nnz, "Bitmap {shape}");
    let bitmap_bits = SparsityFormat::Bitmap.footprint_bits(rows, cols, nnz, p);
    assert_eq!(bitmap.footprint_bits(), bitmap_bits, "Bitmap {shape}");
}

#[test]
fn encoders_match_naive_scan_on_edge_shapes() {
    // Empty in either dimension, single row/column, a multi-word 65x65
    // tile, and 5x13 = 65 elements: a bitmap one bit into its second word.
    let shapes = [(0, 7), (7, 0), (0, 0), (1, 70), (70, 1), (65, 65), (5, 13)];
    for (rows, cols) in shapes {
        for sparsity in [0.0, 0.5, 0.97, 1.0] {
            let m = gen::random_sparse_i32(rows, cols, sparsity, Precision::Int8, 77);
            check_encoders_against_naive(&m, Precision::Int8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_all_formats_roundtrip(
        rows in 1usize..48,
        cols in 1usize..48,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let m = gen::random_sparse_i32(rows, cols, sparsity, Precision::Int16, seed);
        for f in SparsityFormat::ALL {
            let enc = EncodedMatrix::encode(&m, f, Precision::Int16);
            prop_assert_eq!(enc.to_dense(), m.clone(), "format {}", f);
        }
    }

    #[test]
    fn prop_encoders_match_naive_scan(
        rows in 0usize..70,
        cols in 0usize..70,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let p = [Precision::Int4, Precision::Int8, Precision::Int16][seed as usize % 3];
        let m = gen::random_sparse_i32(rows, cols, sparsity, p, seed);
        check_encoders_against_naive(&m, p);
    }

    #[test]
    fn prop_f32_csr_skips_both_signed_zeros(
        rows in 0usize..40,
        cols in 0usize..40,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        // Zeros alternate between +0.0 and -0.0; both count as zero.
        let ints = gen::random_sparse_i32(rows, cols, sparsity, Precision::Int8, seed);
        let data: Vec<f32> = ints
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| if v == 0 && i % 2 == 1 { -0.0 } else { v as f32 })
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        for layout in [CsrLayout::RowMajor, CsrLayout::ColMajor] {
            let csr = CsrMatrix::from_dense(&m, layout, Precision::Int8);
            prop_assert_eq!(csr.nnz(), ints.nnz());
            let decoded: Vec<i32> = csr.to_dense().as_slice().iter().map(|&v| v as i32).collect();
            prop_assert_eq!(&decoded[..], ints.as_slice());
        }
    }

    #[test]
    fn prop_measured_footprint_matches_analytic(
        dim in 4usize..64,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let m = gen::random_sparse_i32(dim, dim, sparsity, Precision::Int8, seed);
        for f in SparsityFormat::ALL {
            let enc = EncodedMatrix::encode(&m, f, Precision::Int8);
            let analytic = f.footprint_bits(dim, dim, m.nnz(), Precision::Int8);
            prop_assert_eq!(enc.footprint_bits_at(Precision::Int8), analytic, "format {}", f);
        }
    }

    #[test]
    fn prop_selector_is_truly_minimal(
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        // On the paper tile, the chosen format's footprint must not exceed
        // any alternative's.
        let p = Precision::Int16;
        let dim = 64;
        let m = gen::random_sparse_i32(dim, dim, sparsity, p, seed);
        let chosen = EncodedMatrix::encode_optimal(&m, p);
        for f in SparsityFormat::ALL {
            let alt = EncodedMatrix::encode(&m, f, p);
            prop_assert!(
                chosen.footprint_bits_at(p) <= alt.footprint_bits_at(p),
                "chosen {} ({}) beaten by {} ({})",
                chosen.format(),
                chosen.footprint_bits_at(p),
                f,
                alt.footprint_bits_at(p)
            );
        }
    }

    #[test]
    fn prop_sr_calculator_is_exact(
        rows in 1usize..64,
        cols in 1usize..64,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let m = gen::random_sparse_i32(rows, cols, sparsity, Precision::Int4, seed);
        let mut sr = SrCalculator::new(64);
        sr.feed_matrix(&m);
        prop_assert!((sr.sparsity_ratio() - m.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn prop_csr_csc_agree(
        rows in 1usize..32,
        cols in 1usize..32,
        sparsity in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let m = gen::random_sparse_i32(rows, cols, sparsity, Precision::Int16, seed);
        let csr = CsrMatrix::from_dense(&m, CsrLayout::RowMajor, Precision::Int16);
        let csc = CsrMatrix::from_dense(&m, CsrLayout::ColMajor, Precision::Int16);
        prop_assert_eq!(csr.to_dense(), csc.to_dense());
        prop_assert_eq!(csr.nnz(), csc.nnz());
    }
}

#[test]
fn quantizer_outlier_fraction_edge_cases() {
    use fnr_tensor::{Matrix, Quantizer};
    let m = Matrix::from_rows(&[&[1.0f32, -2.0, 100.0, 0.5]]);
    // Zero outliers behaves like plain quantization.
    let plain = Quantizer::per_tensor(Precision::Int4).quantize(&m);
    let zero = Quantizer::per_tensor(Precision::Int4).quantize_outlier_aware(&m, 0.0);
    assert_eq!(zero.outliers.len(), 0);
    assert_eq!(zero.body.values(), plain.values());
    // Large fractions capture the heavy hitters first.
    let some = Quantizer::per_tensor(Precision::Int4).quantize_outlier_aware(&m, 0.25);
    assert_eq!(some.outliers.len(), 1);
    assert_eq!(some.outliers[0].1, 2, "the 100.0 at column 2 is the outlier");
}
