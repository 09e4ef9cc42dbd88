//! Smoke benchmark: the runtime-dispatched AVX2 kernel layer (PR 10)
//! vs the portable scalar truth path, exported to `BENCH_simd.json`
//! for the CI perf trajectory.
//!
//! Every record A/B-times the *dispatched* kernel (what production
//! callers get) against its public scalar twin on identical inputs and
//! asserts the outputs bit-identical first — the SIMD layer's whole
//! contract is "same bits, fewer cycles":
//!
//! * `simd_matvec_*` — the gather-bound sparse matvec at ≤10% spike
//!   density. Two shapes: the paper-scale `96×128` layer (L1-resident,
//!   kernel-bound — gated ≥1.5× at 5% density, ≥1.3× at 10%, when the
//!   dispatch is `avx2`) and a large `512×1024` layer whose 2 MB weight
//!   matrix fills L2, where both sides run at the cache-line-traffic
//!   limit (~1 distinct line per gathered element) and the ratio is
//!   structurally ~1× (gated ≥0.9× no-regression only);
//! * `simd_gemm_*` — the batch-32 spike-plane GEMM on the `512×1024`
//!   layer, where the 8-row tiles additionally transpose each weight
//!   tile into a contiguous panel once per batch — contiguous loads
//!   escape the gather-traffic bound (gated ≥1.5× at 10% density,
//!   ≥1.1× at 5%);
//! * `simd_gemm_dense_*` — the dense analog-plane GEMM
//!   (`matmul_bt_bias`) on the `96×256` direct-current input layer of
//!   the `search_mlp` benchmark network at batch 32: packed 8-row panels
//!   against four batch rows at a time vs the scalar single-accumulator
//!   row dots (density 1.0, under the `simd_gemm_*` ≥1.5× floor);
//! * `simd_gemm_planed_*` — the blocked-dequantization GEMM paths for
//!   the int8/f16 planes vs the per-element lane decode (gated ≥1.0×
//!   — the fused decode-and-transpose pack must never lose to lane
//!   decode; the plane-vs-f32 floors live in `bench_quant`);
//! * `simd_conv1_*` — the B=1 event-sorted conv vs the per-event
//!   scatter on the paper's 8→16 k=5 layer (gated ≥1.5×: the win is
//!   contiguous weight streaming, not vector width).
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_simd
//! [out.json]` (default output `BENCH_simd.json`).
//! `AXSNN_BENCH_ITERS` scales the iteration counts (default 20).

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
use axsnn_bench::json::{bench_row, write_bench_json, BenchRow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;

struct Record {
    name: String,
    density: f32,
    scalar_ns: f64,
    simd_ns: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns.max(1.0)
    }
}

fn iters() -> u32 {
    std::env::var("AXSNN_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Times the scalar and dispatched sides **interleaved** (alternating
/// measurement blocks, best-of-5 per side) instead of sequentially.
/// Back-to-back `time_ns` calls on a single shared core let one side
/// absorb all the cache warm-up or a neighbour's noise burst and skew
/// the ratio by 2×; alternating blocks give both sides the same cache
/// and scheduler conditions, and the minimum discards interference —
/// the gated floors need the ratio, not the absolute times.
fn time_pair<FA: FnMut(), FB: FnMut()>(mut scalar: FA, mut simd: FB) -> (f64, f64) {
    const REPS: usize = 5;
    let n = iters();
    scalar(); // warmup
    simd();
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..n {
            scalar();
        }
        best.0 = best.0.min(start.elapsed().as_nanos() as f64 / n as f64);
        let start = Instant::now();
        for _ in 0..n {
            simd();
        }
        best.1 = best.1.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

fn hash_unit(i: usize, salt: u64) -> f32 {
    let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

fn spike_frame(len: usize, density: f32, salt: u64) -> SpikeVector {
    let data: Vec<f32> = (0..len)
        .map(|i| {
            if hash_unit(i, salt) < density {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    SpikeVector::from_dense(&Tensor::from_vec(data, &[len]).unwrap()).expect("binary frame")
}

/// Gather-bound sparse matvec: dispatched kernel vs scalar twin.
fn matvec_records(records: &mut Vec<Record>, out: usize, input: usize, density: f32) {
    let mut rng = StdRng::seed_from_u64(10);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let x = spike_frame(input, density, 7);
    let fast = sparse_matvec_bias(&weight, &x, &bias).unwrap();
    let scalar = sparse_matvec_bias_scalar(&weight, &x, &bias).unwrap();
    assert_eq!(fast.as_slice(), scalar.as_slice(), "matvec diverged");
    let (scalar_ns, simd_ns) = time_pair(
        || {
            black_box(sparse_matvec_bias_scalar(black_box(&weight), &x, &bias).unwrap());
        },
        || {
            black_box(sparse_matvec_bias(black_box(&weight), &x, &bias).unwrap());
        },
    );
    records.push(Record {
        name: format!("simd_matvec_{out}x{input}_d{:02}", (density * 100.0) as u32),
        density,
        scalar_ns,
        simd_ns,
    });
}

/// Batch-32 spike-plane GEMM: dispatched panel kernel vs scalar tiles.
fn gemm_records(records: &mut Vec<Record>, out: usize, input: usize, density: f32) {
    let mut rng = StdRng::seed_from_u64(11);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let rows: Vec<SpikeVector> = (0..BATCH)
        .map(|b| spike_frame(input, density, b as u64 * 977))
        .collect();
    let batch = SpikeMatrix::from_rows(&rows).unwrap();
    let fast = sparse_matmul_bias(&weight, &batch, &bias).unwrap();
    let scalar = sparse_matmul_bias_scalar(&weight, &batch, &bias).unwrap();
    assert_eq!(fast.as_slice(), scalar.as_slice(), "GEMM diverged");
    let (scalar_ns, simd_ns) = time_pair(
        || {
            black_box(sparse_matmul_bias_scalar(black_box(&weight), &batch, &bias).unwrap());
        },
        || {
            black_box(sparse_matmul_bias(black_box(&weight), &batch, &bias).unwrap());
        },
    );
    records.push(Record {
        name: format!(
            "simd_gemm_{out}x{input}_B{BATCH}_d{:02}",
            (density * 100.0) as u32
        ),
        density,
        scalar_ns,
        simd_ns,
    });
}

/// Batch-32 dense GEMM on an analog `[B, input]` block: dispatched
/// panel kernel vs the scalar row dots.
fn gemm_dense_records(records: &mut Vec<Record>, out: usize, input: usize) {
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
    let (scalar_ns, simd_ns) = time_pair(
        || {
            black_box(matmul_bt_bias_scalar(black_box(&x), &weight, &bias).unwrap());
        },
        || {
            black_box(matmul_bt_bias(black_box(&x), &weight, &bias).unwrap());
        },
    );
    records.push(Record {
        name: format!("simd_gemm_dense_{out}x{input}_B{BATCH}"),
        density: 1.0,
        scalar_ns,
        simd_ns,
    });
}

/// Blocked-dequantization GEMM for the reduced-precision planes vs the
/// per-element lane decode (informational — the plane-vs-f32 floors
/// live in `bench_quant`, this isolates the dequantization strategy).
fn gemm_planed_records(records: &mut Vec<Record>, density: f32) {
    const OUT: usize = 512;
    const IN: usize = 1024;
    let mut rng = StdRng::seed_from_u64(12);
    let weight = init::uniform(&mut rng, &[OUT, IN], 0.1);
    let bias = init::uniform(&mut rng, &[OUT], 0.1);
    let rows: Vec<SpikeVector> = (0..BATCH)
        .map(|b| spike_frame(IN, density, b as u64 * 1493))
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
        let (scalar_ns, simd_ns) = time_pair(
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
        records.push(Record {
            name: format!("simd_gemm_planed_{}_{OUT}x{IN}_B{BATCH}", plane.name()),
            density,
            scalar_ns,
            simd_ns,
        });
    }
}

/// B=1 event-sorted conv vs the per-event scatter on the paper's 8→16
/// k=5 layer (informational).
fn conv1_records(records: &mut Vec<Record>, density: f32) {
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
    let x = spike_frame(len, density, 131);
    let sorted = sparse_conv2d_sorted(&x, (h, w), &weight, &bias, &spec).unwrap();
    let scatter = sparse_conv2d(&x, (h, w), &weight, &bias, &spec).unwrap();
    assert_eq!(sorted.as_slice(), scatter.as_slice(), "B=1 conv diverged");
    let (scalar_ns, simd_ns) = time_pair(
        || {
            black_box(sparse_conv2d(black_box(&x), (h, w), &weight, &bias, &spec).unwrap());
        },
        || {
            black_box(sparse_conv2d_sorted(black_box(&x), (h, w), &weight, &bias, &spec).unwrap());
        },
    );
    records.push(Record {
        name: format!("simd_conv1_8to16_k5_14x14_d{:02}", (density * 100.0) as u32),
        density,
        scalar_ns,
        simd_ns,
    });
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_simd.json".to_string());
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut records = Vec::new();
    for &density in &[0.05f32, 0.10] {
        matvec_records(&mut records, 96, 128, density);
        matvec_records(&mut records, 512, 1024, density);
        gemm_records(&mut records, 512, 1024, density);
    }
    gemm_dense_records(&mut records, 96, 256);
    gemm_planed_records(&mut records, 0.10);
    conv1_records(&mut records, 0.10);

    println!(
        "dispatch: {} (detected: {})",
        axsnn::tensor::simd::isa_label(),
        axsnn::tensor::simd::detected_features()
    );
    println!(
        "{:<38} {:>8} {:>12} {:>12} {:>9}",
        "benchmark", "density", "scalar ns", "simd ns", "speedup"
    );
    let rows: Vec<BenchRow> = records
        .iter()
        .map(|r| {
            println!(
                "{:<38} {:>7.0}% {:>12.0} {:>12.0} {:>8.2}x",
                r.name,
                r.density * 100.0,
                r.scalar_ns,
                r.simd_ns,
                r.speedup()
            );
            bench_row(&r.name)
                .num("density", r.density as f64, 2)
                .num("hardware_threads", hardware_threads as f64, 0)
                .num("scalar_ns", r.scalar_ns, 0)
                .num("simd_ns", r.simd_ns, 0)
                .num("speedup", r.speedup(), 3)
        })
        .collect();
    write_bench_json(&out_path, &rows).expect("write benchmark JSON");
    // Floors (matvec/GEMM ≥1.5× when the dispatch is avx2) live in the
    // consolidated gate (`bench_gate`, documented in
    // `axsnn_bench::gates`).
    println!("\nwrote {out_path} (floors enforced by bench_gate)");
}
