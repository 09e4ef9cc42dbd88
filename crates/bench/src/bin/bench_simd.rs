//! The runtime-dispatched AVX2 kernel layer vs the portable scalar
//! truth path, written to `BENCH_simd.json`.
//!
//! Every record A/B-times the *dispatched* kernel (what production
//! callers get) against its public scalar twin on identical inputs and
//! asserts the outputs bit-identical first — the SIMD layer's whole
//! contract is "same bits, fewer cycles":
//!
//! * `simd_matvec_*` — the gather-bound sparse matvec at ≤10% spike
//!   density. Two shapes: the paper-scale `96×128` layer (L1-resident,
//!   kernel-bound) and a large `512×1024` layer whose 2 MB weight
//!   matrix fills L2, where both sides run at the cache-line-traffic
//!   limit (~1 distinct line per gathered element) and the ratio is
//!   structurally ~1×;
//! * `simd_gemm_*` — the batch-32 spike-plane GEMM on the `512×1024`
//!   layer, where the 8-row tiles additionally transpose each weight
//!   tile into a contiguous panel once per batch — contiguous loads
//!   escape the gather-traffic bound;
//! * `simd_gemm_dense_*` — the dense analog-plane GEMM
//!   (`matmul_bt_bias`) on the `96×256` direct-current input layer of
//!   the `search_mlp` benchmark network at batch 32: packed 8-row panels
//!   against four batch rows at a time vs the scalar single-accumulator
//!   row dots (density 1.0);
//! * `simd_gemm_planed_*` — the blocked-dequantization GEMM paths for
//!   the int8/f16 planes vs the per-element lane decode (the
//!   plane-vs-f32 A/B lives in `bench_quant`);
//! * `simd_conv1_*` — the B=1 event-sorted conv vs the per-event
//!   scatter on the paper's 8→16 k=5 layer (the win is contiguous
//!   weight streaming, not vector width).
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_simd
//! [out.json]`.

use axsnn::core::plan::WeightPlane;
use axsnn::tensor::batched::{
    matmul_bt_bias, matmul_bt_bias_scalar, sparse_conv2d_sorted, sparse_matmul_bias,
    sparse_matmul_bias_planed, sparse_matmul_bias_planed_scalar, sparse_matmul_bias_scalar,
    SpikeMatrix,
};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::plane::QuantizedPlane;
use axsnn::tensor::sparse::{
    sparse_conv2d, sparse_matvec_bias, sparse_matvec_bias_scalar, SpikeVector,
};
use axsnn::tensor::{init, Tensor};
use axsnn_bench::harness::{hash_unit, record, spike_frame, Bench};
use axsnn_bench::json::BenchRow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH: usize = 32;

fn events(len: usize, density: f32, salt: u64) -> SpikeVector {
    SpikeVector::from_dense(&spike_frame(len, density, &[len], salt)).expect("binary frame")
}

fn simd_row(name: &str, density: f32, (scalar_ns, simd_ns): (f64, f64)) -> BenchRow {
    record(name).num("density", f64::from(density), 2).ab(
        "scalar_ns",
        scalar_ns,
        "simd_ns",
        simd_ns,
    )
}

/// Gather-bound sparse matvec: dispatched kernel vs scalar twin.
fn matvec_records(bench: &mut Bench, out: usize, input: usize, density: f32) {
    let mut rng = StdRng::seed_from_u64(10);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let x = events(input, density, 7);
    let fast = sparse_matvec_bias(&weight, &x, &bias).unwrap();
    let scalar = sparse_matvec_bias_scalar(&weight, &x, &bias).unwrap();
    assert_eq!(fast.as_slice(), scalar.as_slice(), "matvec diverged");
    let pair = bench.time_pair(
        || {
            black_box(sparse_matvec_bias_scalar(black_box(&weight), &x, &bias).unwrap());
        },
        || {
            black_box(sparse_matvec_bias(black_box(&weight), &x, &bias).unwrap());
        },
    );
    bench.push(simd_row(
        &format!("simd_matvec_{out}x{input}_d{:02}", (density * 100.0) as u32),
        density,
        pair,
    ));
}

/// Batch-32 spike-plane GEMM: dispatched panel kernel vs scalar tiles.
fn gemm_records(bench: &mut Bench, out: usize, input: usize, density: f32) {
    let mut rng = StdRng::seed_from_u64(11);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let rows: Vec<SpikeVector> = (0..BATCH)
        .map(|b| events(input, density, b as u64 * 977))
        .collect();
    let batch = SpikeMatrix::from_rows(&rows).unwrap();
    let fast = sparse_matmul_bias(&weight, &batch, &bias).unwrap();
    let scalar = sparse_matmul_bias_scalar(&weight, &batch, &bias).unwrap();
    assert_eq!(fast.as_slice(), scalar.as_slice(), "GEMM diverged");
    let pair = bench.time_pair(
        || {
            black_box(sparse_matmul_bias_scalar(black_box(&weight), &batch, &bias).unwrap());
        },
        || {
            black_box(sparse_matmul_bias(black_box(&weight), &batch, &bias).unwrap());
        },
    );
    bench.push(simd_row(
        &format!(
            "simd_gemm_{out}x{input}_B{BATCH}_d{:02}",
            (density * 100.0) as u32
        ),
        density,
        pair,
    ));
}

/// Batch-32 dense GEMM on an analog `[B, input]` block: dispatched
/// panel kernel vs the scalar row dots.
fn gemm_dense_records(bench: &mut Bench, out: usize, input: usize) {
    let mut rng = StdRng::seed_from_u64(14);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let x = Tensor::from_vec(
        (0..BATCH * input).map(|i| hash_unit(i, 149)).collect(),
        &[BATCH, input],
    )
    .unwrap();
    let fast = matmul_bt_bias(&x, &weight, &bias).unwrap();
    let scalar = matmul_bt_bias_scalar(&x, &weight, &bias).unwrap();
    for (a, b) in fast.as_slice().iter().zip(scalar.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "dense GEMM diverged");
    }
    let pair = bench.time_pair(
        || {
            black_box(matmul_bt_bias_scalar(black_box(&x), &weight, &bias).unwrap());
        },
        || {
            black_box(matmul_bt_bias(black_box(&x), &weight, &bias).unwrap());
        },
    );
    bench.push(simd_row(
        &format!("simd_gemm_dense_{out}x{input}_B{BATCH}"),
        1.0,
        pair,
    ));
}

/// Blocked-dequantization GEMM for the reduced-precision planes vs the
/// per-element lane decode (the plane-vs-f32 A/B lives in
/// `bench_quant`; this isolates the dequantization strategy).
fn gemm_planed_records(bench: &mut Bench, density: f32) {
    const OUT: usize = 512;
    const IN: usize = 1024;
    let mut rng = StdRng::seed_from_u64(12);
    let weight = init::uniform(&mut rng, &[OUT, IN], 0.1);
    let bias = init::uniform(&mut rng, &[OUT], 0.1);
    let rows: Vec<SpikeVector> = (0..BATCH)
        .map(|b| events(IN, density, b as u64 * 1493))
        .collect();
    let batch = SpikeMatrix::from_rows(&rows).unwrap();
    for plane in [WeightPlane::Int8, WeightPlane::F16] {
        let quant = QuantizedPlane::quantize(weight.as_slice(), plane)
            .expect("finite weights")
            .expect("non-f32 plane");
        let fast = sparse_matmul_bias_planed(quant.view(), (OUT, IN), &batch, &bias).unwrap();
        let scalar =
            sparse_matmul_bias_planed_scalar(quant.view(), (OUT, IN), &batch, &bias).unwrap();
        for (a, b) in fast.as_slice().iter().zip(scalar.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{plane} planed GEMM diverged");
        }
        let pair = bench.time_pair(
            || {
                black_box(
                    sparse_matmul_bias_planed_scalar(quant.view(), (OUT, IN), &batch, &bias)
                        .unwrap(),
                );
            },
            || {
                black_box(
                    sparse_matmul_bias_planed(quant.view(), (OUT, IN), &batch, &bias).unwrap(),
                );
            },
        );
        bench.push(simd_row(
            &format!("simd_gemm_planed_{}_{OUT}x{IN}_B{BATCH}", plane.name()),
            density,
            pair,
        ));
    }
}

/// B=1 event-sorted conv vs the per-event scatter on the paper's 8→16
/// k=5 layer.
fn conv1_records(bench: &mut Bench, density: f32) {
    let spec = Conv2dSpec {
        in_channels: 8,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let (h, w) = (14usize, 14usize);
    let mut rng = StdRng::seed_from_u64(13);
    let weight = init::uniform(
        &mut rng,
        &[
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
        ],
        0.1,
    );
    let bias = init::uniform(&mut rng, &[spec.out_channels], 0.1);
    let len = spec.in_channels * h * w;
    let x = events(len, density, 131);
    let sorted = sparse_conv2d_sorted(&x, (h, w), &weight, &bias, &spec).unwrap();
    let scatter = sparse_conv2d(&x, (h, w), &weight, &bias, &spec).unwrap();
    assert_eq!(sorted.as_slice(), scatter.as_slice(), "B=1 conv diverged");
    let pair = bench.time_pair(
        || {
            black_box(sparse_conv2d(black_box(&x), (h, w), &weight, &bias, &spec).unwrap());
        },
        || {
            black_box(sparse_conv2d_sorted(black_box(&x), (h, w), &weight, &bias, &spec).unwrap());
        },
    );
    bench.push(simd_row(
        &format!("simd_conv1_8to16_k5_14x14_d{:02}", (density * 100.0) as u32),
        density,
        pair,
    ));
}

fn main() {
    // Blocks of twenty calls, the block length BENCH_simd.json was
    // first measured with.
    let mut bench = Bench::from_args("BENCH_simd.json", 100);
    for density in [0.05f32, 0.10] {
        matvec_records(&mut bench, 96, 128, density);
        matvec_records(&mut bench, 512, 1024, density);
        gemm_records(&mut bench, 512, 1024, density);
    }
    gemm_dense_records(&mut bench, 96, 256);
    gemm_planed_records(&mut bench, 0.10);
    conv1_records(&mut bench, 0.10);
    bench.finish();
}
