//! The runtime-dispatched AVX2 kernel layer vs the portable scalar
//! truth path, written to `BENCH_simd.json`.
//!
//! Every record A/B-times the *dispatched* kernel (what production
//! callers get) against its public scalar twin on identical inputs and
//! asserts the outputs bit-identical first — the SIMD layer's whole
//! contract is "same bits, fewer cycles". The GEMM records time the
//! engine's steady state: the weights are packed into panels
//! ([`PackedWeights`]) once, outside the timed loop, as a layer packs
//! them once per weight change.
//!
//! * `simd_gemm_*` — the batch-32 spike-plane GEMM on a `512×1024`
//!   layer, streaming packed panels (contiguous, aligned loads escape
//!   the gather-traffic bound) against the scalar tiles;
//! * `simd_gemm_one_row_*` — the same kernel on one row at ~1% density
//!   on the `96×2048` DVS input layer: the shape of every B = 1 event
//!   query;
//! * `simd_gemm_dense_*` — the dense analog-plane GEMM
//!   (`matmul_bt_bias_packed`) on the `96×256` direct-current input
//!   layer of the `search_mlp` benchmark network at batch 32: panels
//!   against four batch rows at a time vs the scalar single-accumulator
//!   row dots (density 1.0);
//! * `simd_conv1_*` — the event-sorted conv on a one-row batch vs the
//!   per-event scatter on the paper's 8→16 k=5 layer (the win is
//!   contiguous weight streaming, not vector width);
//! * `simd_lif_fire_*` — the batched LIF step (`lif_fire`) on a
//!   `FastMlp`-sized 32×96 hidden layer firing ~14% of its neurons per
//!   step: eight neurons per multiply/add/compare and a movemask naming
//!   the fired ones, vs the scalar twin's neuron-at-a-time loop. Both
//!   write the spikes as one CSR row per batch row.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_simd
//! [out.json]`.

use axsnn::tensor::batched::{
    lif_fire, lif_fire_scalar, matmul_bt_bias_packed, matmul_bt_bias_scalar,
    sparse_conv2d_batch_sorted, sparse_matmul_bias_packed, sparse_matmul_bias_scalar,
    PackedWeights, SpikeMatrix,
};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::sparse::{sparse_conv2d, SpikeVector};
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

/// Spike-plane GEMM over `batch` rows at `density`: the packed panel
/// kernel (panels built before timing) vs the scalar tiles.
fn gemm_record(
    bench: &mut Bench,
    name: &str,
    (out, input): (usize, usize),
    batch: usize,
    density: f32,
) {
    let mut rng = StdRng::seed_from_u64(11);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let rows: Vec<SpikeVector> = (0..batch)
        .map(|b| events(input, density, b as u64 * 977))
        .collect();
    let batch = SpikeMatrix::from_rows(&rows).unwrap();
    let packed = PackedWeights::pack(&weight).unwrap();
    let fast = sparse_matmul_bias_packed(&packed, &batch, &bias).unwrap();
    let scalar = sparse_matmul_bias_scalar(&weight, &batch, &bias).unwrap();
    assert_eq!(fast.as_slice(), scalar.as_slice(), "GEMM diverged");
    let pair = bench.time_pair(
        || {
            black_box(sparse_matmul_bias_scalar(black_box(&weight), &batch, &bias).unwrap());
        },
        || {
            black_box(sparse_matmul_bias_packed(black_box(&packed), &batch, &bias).unwrap());
        },
    );
    bench.push(simd_row(name, density, pair));
}

/// Batch-32 spike-plane GEMM on a `512×1024` layer.
fn gemm_records(bench: &mut Bench, density: f32) {
    let (out, input) = (512, 1024);
    let name = format!(
        "simd_gemm_{out}x{input}_B{BATCH}_d{:02}",
        (density * 100.0) as u32
    );
    gemm_record(bench, &name, (out, input), BATCH, density);
}

/// Batch-32 dense GEMM on an analog `[B, input]` block: the packed
/// panel kernel (panels built before timing) vs the scalar row dots.
fn gemm_dense_records(bench: &mut Bench, out: usize, input: usize) {
    let mut rng = StdRng::seed_from_u64(14);
    let weight = init::uniform(&mut rng, &[out, input], 0.1);
    let bias = init::uniform(&mut rng, &[out], 0.1);
    let x = Tensor::from_vec(
        (0..BATCH * input).map(|i| hash_unit(i, 149)).collect(),
        &[BATCH, input],
    )
    .unwrap();
    let packed = PackedWeights::pack(&weight).unwrap();
    let fast = matmul_bt_bias_packed(&x, &packed, &bias).unwrap();
    let scalar = matmul_bt_bias_scalar(&x, &weight, &bias).unwrap();
    for (a, b) in fast.as_slice().iter().zip(scalar.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "dense GEMM diverged");
    }
    let pair = bench.time_pair(
        || {
            black_box(matmul_bt_bias_scalar(black_box(&x), &weight, &bias).unwrap());
        },
        || {
            black_box(matmul_bt_bias_packed(black_box(&x), &packed, &bias).unwrap());
        },
    );
    bench.push(simd_row(
        &format!("simd_gemm_dense_{out}x{input}_B{BATCH}"),
        1.0,
        pair,
    ));
}

/// The event-sorted conv on a one-row batch vs the per-event scatter on
/// the paper's 8→16 k=5 layer.
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
    let one = SpikeMatrix::from_rows(std::slice::from_ref(&x)).unwrap();
    let sorted = sparse_conv2d_batch_sorted(&one, (h, w), &weight, &bias, &spec).unwrap();
    let scatter = sparse_conv2d(&x, (h, w), &weight, &bias, &spec).unwrap();
    assert_eq!(sorted.as_slice(), scatter.as_slice(), "B=1 conv diverged");
    let pair = bench.time_pair(
        || {
            black_box(sparse_conv2d(black_box(&x), (h, w), &weight, &bias, &spec).unwrap());
        },
        || {
            black_box(
                sparse_conv2d_batch_sorted(black_box(&one), (h, w), &weight, &bias, &spec).unwrap(),
            );
        },
    );
    bench.push(simd_row(
        &format!("simd_conv1_8to16_k5_14x14_d{:02}", (density * 100.0) as u32),
        density,
        pair,
    ));
}

/// The batched LIF step on a `[B, n]` layer: dispatched kernel vs the
/// scalar twin. Each neuron integrates a constant current with leak 0.9
/// against `V_th = 1` from a spread of starting potentials, so every
/// call fires a steady share of the layer (a current of `0.2` fires
/// every seventh step); the record's `density` is the measured share.
fn lif_fire_records(bench: &mut Bench, n: usize) {
    const THRESHOLD: f32 = 1.0;
    const LEAK: f32 = 0.9;
    let len = BATCH * n;
    let current: Vec<f32> = (0..len).map(|i| 0.17 + 0.06 * hash_unit(i, 151)).collect();
    let start: Vec<f32> = (0..len).map(|i| hash_unit(i, 157)).collect();
    let (mut fast, mut scalar) = (start.clone(), start);
    let (mut pre_fast, mut pre_scalar) = (vec![0.0f32; len], vec![0.0f32; len]);
    let mut fired = 0usize;
    const CHECKED: usize = 70;
    for _ in 0..CHECKED {
        let a = lif_fire(
            &mut fast,
            &current,
            Some(&mut pre_fast),
            (BATCH, n),
            THRESHOLD,
            LEAK,
        );
        let b = lif_fire_scalar(
            &mut scalar,
            &current,
            Some(&mut pre_scalar),
            (BATCH, n),
            THRESHOLD,
            LEAK,
        );
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a, b, "LIF spike rows diverged");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&scalar), "LIF membranes diverged");
        assert_eq!(
            bits(&pre_fast),
            bits(&pre_scalar),
            "LIF pre-reset values diverged"
        );
        fired += a.nnz();
    }
    let density = fired as f32 / (CHECKED * len) as f32;
    let pair = bench.time_pair(
        || {
            black_box(
                lif_fire_scalar(
                    &mut scalar,
                    black_box(&current),
                    None,
                    (BATCH, n),
                    THRESHOLD,
                    LEAK,
                )
                .unwrap(),
            );
        },
        || {
            black_box(
                lif_fire(
                    &mut fast,
                    black_box(&current),
                    None,
                    (BATCH, n),
                    THRESHOLD,
                    LEAK,
                )
                .unwrap(),
            );
        },
    );
    bench.push(simd_row(
        &format!("simd_lif_fire_B{BATCH}x{n}"),
        density,
        pair,
    ));
}

fn main() {
    // Blocks of twenty calls, the block length BENCH_simd.json was
    // first measured with.
    let mut bench = Bench::from_args("BENCH_simd.json", 100);
    for density in [0.05f32, 0.10] {
        gemm_records(&mut bench, density);
    }
    gemm_record(
        &mut bench,
        "simd_gemm_one_row_96x2048_d01",
        (96, 2048),
        1,
        0.01,
    );
    gemm_dense_records(&mut bench, 96, 256);
    conv1_records(&mut bench, 0.10);
    lif_fire_records(&mut bench, 96);
    bench.finish();
}
