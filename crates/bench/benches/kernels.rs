//! Micro-benchmarks of the performance-critical kernels: the functional
//! datapath (fused multiply, array pass, reduction), the mapping, the
//! format codecs, the NoC routers and the NeRF encoding primitives.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flexnerfer::FlexibleFormatCodec;
use fnr_hw::TechParams;
use fnr_mac::{FusedMacUnit, MacArray, ReductionTreeKind};
use fnr_nerf::hashgrid::{HashGrid, HashGridConfig};
use fnr_nerf::render::{composite, ShadedSample};
use fnr_nerf::vec3::Vec3;
use fnr_noc::{Benes, Delivery, DistTree, NocKind};
use fnr_sim::{gustavson_map, partition_passes};
use fnr_tensor::sparse::{BitmapMatrix, CooMatrix, CsrLayout, CsrMatrix, EncodedMatrix};
use fnr_tensor::{gen, Precision, SparsityFormat, SrCalculator};

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);

    // Fused MAC unit: one INT16 multiply through the 16 sub-multipliers.
    let unit = FusedMacUnit::new(Precision::Int16, ReductionTreeKind::SharedShifter);
    g.bench_function("fused_mac_int16_multiply", |b| {
        b.iter(|| unit.multiply_one(black_box(-12345), black_box(31001)))
    });

    // Full functional sparse GEMM through mapping + array + reduction.
    let a = gen::random_sparse_i32(64, 64, 0.7, Precision::Int8, 5);
    let w = gen::random_sparse_i32(64, 64, 0.5, Precision::Int8, 6);
    g.bench_function("functional_sparse_gemm_64x64", |b| {
        b.iter(|| {
            let mapped = gustavson_map(black_box(&a), black_box(&w), 64);
            let arr = MacArray::new(16, 16, Precision::Int8, ReductionTreeKind::SharedShifter);
            let passes = partition_passes(&mapped, arr.lanes());
            arr.execute_passes(&passes, 64 * 64)
        })
    });

    // Benes permutation routing (SIGMA's fabric).
    let benes = Benes::new(64);
    let dest: Vec<usize> = (0..64).rev().collect();
    g.bench_function("benes_route_64", |b| b.iter(|| benes.route(black_box(&dest))));

    // HMF distribution tree over 64 leaves: a half-array multicast plus a
    // unicast, with the multicast value resident (feedback on).
    let wavefront = [Delivery::new(1, (0..32).collect()), Delivery::new(2, vec![40])];
    let mut tree = DistTree::new(64, NocKind::Hmf);
    tree.deliver(&wavefront[..1]);
    g.bench_function("dist_tree_route_64", |b| b.iter(|| tree.route(black_box(&wavefront))));
    g.bench_function("dist_tree_deliver_64", |b| {
        b.iter(|| tree.deliver(black_box(&wavefront)))
    });

    // Sparse encoders on a 256x256 INT4 tile (the paper's 4-bit tile) at
    // 50 % sparsity, where the zero test is least predictable.
    let big = gen::random_sparse_i32(256, 256, 0.5, Precision::Int4, 8);
    g.bench_function("encode_coo_256x256", |b| {
        b.iter(|| CooMatrix::from_dense(black_box(&big), Precision::Int4))
    });
    g.bench_function("encode_csr_256x256", |b| {
        b.iter(|| CsrMatrix::from_dense(black_box(&big), CsrLayout::RowMajor, Precision::Int4))
    });
    g.bench_function("encode_bitmap_256x256", |b| {
        b.iter(|| BitmapMatrix::from_dense(black_box(&big), Precision::Int4))
    });

    // Format codec: online sparsity detection + optimal encode (64x64 tile).
    let tile = gen::random_sparse_i32(64, 64, 0.8, Precision::Int16, 7);
    let mut codec = FlexibleFormatCodec::new(TechParams::CMOS_28NM);
    g.bench_function("codec_encode_online_64x64", |b| {
        b.iter(|| codec.encode_online(black_box(&tile), Precision::Int16))
    });
    let enc = EncodedMatrix::encode(&tile, SparsityFormat::CscCsr, Precision::Int16);
    g.bench_function("codec_decode_csr_64x64", |b| b.iter(|| black_box(&enc).to_dense()));

    // Eq. (4) sparsity-ratio calculator over a 64x64 tile.
    g.bench_function("sr_calculator_64x64", |b| {
        b.iter(|| {
            let mut sr = SrCalculator::new(64);
            sr.feed_matrix(black_box(&tile));
            sr.sparsity_pct()
        })
    });

    // Multi-resolution hash encoding of one point.
    let grid = HashGrid::new(HashGridConfig::small(), 0.1, 3);
    g.bench_function("hashgrid_encode_point", |b| {
        b.iter(|| grid.encode(black_box(Vec3::new(0.3, 0.6, 0.9))))
    });

    // Volume rendering compositing over 32 samples.
    let samples: Vec<ShadedSample> = (0..32)
        .map(|i| ShadedSample {
            sigma: (i % 5) as f32,
            color: [0.5, 0.4, 0.3],
            delta: 0.03,
        })
        .collect();
    g.bench_function("composite_32_samples", |b| b.iter(|| composite(black_box(&samples))));

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
