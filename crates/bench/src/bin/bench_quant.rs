//! Reduced-precision weight planes vs f32 weight storage, written to
//! `BENCH_quant.json`.
//!
//! The kernel A/B compares the *same values* in two storage formats:
//! the f32 baseline runs on the **dequantized image** of the plane (so
//! both sides do identical arithmetic and the outputs are asserted
//! bit-identical), isolating the effect of the storage format:
//!
//! * `quant_conv_*` — the event-sorted batched conv on the paper's
//!   8→16 k=5 layer, which streams the quantized buffer itself;
//! * `quant_accuracy_*` — prediction agreement between an int8/f16
//!   planed MLP and its f32 twin over 256 deterministic samples through
//!   the fused batch engine.
//!
//! Linear layers have no storage A/B: they decode a plane into f32
//! panels once per weight change and stream those, so their spike GEMM
//! runs the same kernel on the same bits on every plane.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_quant
//! [out.json]`.

use axsnn::core::fused::FrameTrain;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::WeightPlane;
use axsnn::tensor::batched::{
    sparse_conv2d_batch_sorted_into, sparse_conv2d_batch_sorted_planed_into, SpikeMatrix,
};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::plane::QuantizedPlane;
use axsnn::tensor::sparse::SpikeVector;
use axsnn::tensor::{init, Tensor};
use axsnn_bench::harness::{hash_unit, record, spike_frame, Bench};
use axsnn_bench::json::BenchRow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH: usize = 32;
const PLANES: [WeightPlane; 2] = [WeightPlane::Int8, WeightPlane::F16];

/// Quantizes `weight` into `plane` and returns the packed buffer plus
/// its dequantized f32 image — the two storage formats of one value
/// set the A/B compares.
fn planed_pair(weight: &Tensor, plane: WeightPlane) -> (QuantizedPlane, Tensor) {
    let quant = QuantizedPlane::quantize(weight.as_slice(), plane)
        .expect("finite weights")
        .expect("non-f32 plane");
    let deq = Tensor::from_vec(quant.dequantize(), weight.shape().dims()).unwrap();
    (quant, deq)
}

fn kernel_row(
    name: &str,
    density: f32,
    plane: WeightPlane,
    (f32_ns, planed_ns): (f64, f64),
) -> BenchRow {
    record(name)
        .num("density", f64::from(density), 2)
        .num("bits_per_weight", f64::from(plane.bits_per_weight()), 0)
        .ab("f32_ns", f32_ns, "planed_ns", planed_ns)
}

/// Event-sorted batched conv on the paper's 8→16 k=5 layer at 14×14,
/// f32 vs planed storage.
fn conv_records(bench: &mut Bench, density: f32) {
    let spec = Conv2dSpec {
        in_channels: 8,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let (h, w) = (14usize, 14usize);
    let mut rng = StdRng::seed_from_u64(4);
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
    let rows: Vec<SpikeVector> = (0..BATCH)
        .map(|b| {
            SpikeVector::from_dense(&spike_frame(len, density, &[len], b as u64 * 131))
                .expect("binary frame")
        })
        .collect();
    let batch = SpikeMatrix::from_rows(&rows).unwrap();
    let (oh, ow) = spec.output_hw(h, w);
    let n = spec.out_channels * oh * ow;
    let mut block_a = vec![0.0f32; BATCH * n];
    let mut block_b = vec![0.0f32; BATCH * n];
    for plane in PLANES {
        let (quant, deq) = planed_pair(&weight, plane);
        let (f32_ns, planed_ns) = bench.time_pair(
            || {
                sparse_conv2d_batch_sorted_into(
                    black_box(&batch),
                    (h, w),
                    &deq,
                    &bias,
                    &spec,
                    &mut block_a,
                )
                .unwrap();
                black_box(&block_a);
            },
            || {
                sparse_conv2d_batch_sorted_planed_into(
                    black_box(&batch),
                    (h, w),
                    quant.view(),
                    &bias,
                    &spec,
                    &mut block_b,
                )
                .unwrap();
                black_box(&block_b);
            },
        );
        assert_eq!(block_a, block_b, "{plane} batched conv diverged");
        bench.push(kernel_row(
            &format!("quant_conv_{}_8to16_k5_14x14_B{BATCH}", plane.name()),
            density,
            plane,
            (f32_ns, planed_ns),
        ));
    }
}

/// Prediction agreement: the planed MLP vs its f32 twin over 256
/// deterministic samples through the fused batch engine.
fn accuracy_records(bench: &mut Bench) {
    const INPUT: usize = 64;
    const CLASSES: usize = 10;
    const SAMPLES: usize = 256;
    const TIME_STEPS: usize = 8;
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    let mut rng = StdRng::seed_from_u64(6);
    let net = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, INPUT, 48, &cfg),
            Layer::output_linear(&mut rng, 48, CLASSES),
        ],
        cfg,
    )
    .expect("static topology");
    let trains: Vec<FrameTrain> = (0..SAMPLES)
        .map(|s| {
            let image = Tensor::from_vec(
                (0..INPUT).map(|i| hash_unit(i, s as u64 * 7919)).collect(),
                &[INPUT],
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(s as u64);
            FrameTrain::encode(
                &image,
                axsnn::core::encoding::Encoder::Deterministic,
                TIME_STEPS,
                &mut rng,
            )
            .unwrap()
        })
        .collect();
    let baseline = net.clone().classify_batch_fused(&trains).unwrap();
    for plane in PLANES {
        let mut planed = net.clone();
        planed.set_weight_plane(plane).expect("finite weights");
        let predictions = planed.classify_batch_fused(&trains).unwrap();
        let agree = baseline
            .iter()
            .zip(&predictions)
            .filter(|(a, b)| a == b)
            .count();
        let agreement_pct = agree as f64 / SAMPLES as f64 * 100.0;
        bench.push(
            record(&format!(
                "quant_accuracy_{}_mlp{INPUT}x48x{CLASSES}",
                plane.name()
            ))
            .num("samples", SAMPLES as f64, 0)
            .num("agreement_pct", agreement_pct, 2)
            .num("accuracy_delta_points", 100.0 - agreement_pct, 2),
        );
    }
}

fn main() {
    // Blocks of twenty calls, the block length BENCH_quant.json was
    // first measured with.
    let mut bench = Bench::from_args("BENCH_quant.json", 100);
    conv_records(&mut bench, 0.10);
    accuracy_records(&mut bench);
    bench.finish();
}
