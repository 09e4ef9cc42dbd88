//! Dense vs event-driven sparse forward kernels, written to
//! `BENCH_sparse.json`.
//!
//! Times the paper's MNIST-scale conv and linear layers at several
//! spike densities, plus one full-network `forward` (a one-row pass of
//! the fused engine) with the density gate on vs forced dense. The
//! linear layer runs the kernels the engine's one-row linear step
//! picks between, over the layer's panels packed once before timing as
//! the engine packs them once per weight change: the dense GEMM on a
//! one-row block against the spike GEMM on a one-row batch.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_sparse
//! [out.json]`.

use axsnn::core::network::SnnConfig;
use axsnn::tensor::batched::{
    matmul_bt_bias_packed, sparse_matmul_bias_packed, PackedWeights, SpikeMatrix,
};
use axsnn::tensor::conv::{conv2d, Conv2dSpec};
use axsnn::tensor::sparse::{sparse_conv2d, SpikeVector};
use axsnn::tensor::{init, Tensor};
use axsnn_bench::harness::{conv2_net, record, spike_frame, Bench};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SALT: u64 = 0x1234_5678;
const DENSITIES: [f32; 4] = [0.01, 0.05, 0.10, 0.20];

fn conv_records(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(0);
    let spec = Conv2dSpec {
        in_channels: 16,
        out_channels: 32,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let weight = init::uniform(&mut rng, &[32, 16, 3, 3], 0.2);
    let bias = Tensor::zeros(&[32]);
    for density in DENSITIES {
        let input = spike_frame(16 * 28 * 28, density, &[16, 28, 28], SALT);
        let events = SpikeVector::from_dense(&input).expect("binary frame");
        let (dense_ns, sparse_ns) = bench.time_pair(
            || {
                black_box(conv2d(black_box(&input), &weight, &bias, &spec).unwrap());
            },
            || {
                black_box(
                    sparse_conv2d(black_box(&events), (28, 28), &weight, &bias, &spec).unwrap(),
                );
            },
        );
        bench.push(
            record("conv2d_16x28x28_to_32")
                .num("density", f64::from(density), 2)
                .ab("dense_ns", dense_ns, "sparse_ns", sparse_ns),
        );
    }
}

fn linear_records(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let weight = init::uniform(&mut rng, &[256, 1568], 0.1);
    let bias = Tensor::zeros(&[256]);
    let packed = PackedWeights::pack(&weight).unwrap();
    for density in DENSITIES {
        let input = spike_frame(1568, density, &[1, 1568], SALT);
        let events = SpikeVector::from_dense(&input).expect("binary frame");
        let row = SpikeMatrix::from_rows(&[events]).unwrap();
        let (dense_ns, sparse_ns) = bench.time_pair(
            || {
                black_box(matmul_bt_bias_packed(black_box(&input), &packed, &bias).unwrap());
            },
            || {
                black_box(sparse_matmul_bias_packed(&packed, black_box(&row), &bias).unwrap());
            },
        );
        bench.push(
            record("linear_1568_to_256")
                .num("density", f64::from(density), 2)
                .ab("dense_ns", dense_ns, "sparse_ns", sparse_ns),
        );
    }
}

/// Full-network inference: the end-to-end path the attack sweeps pay
/// for, with the sparse gate on (default threshold) vs forced dense.
fn network_record(bench: &mut Bench) {
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: 16,
        leak: 0.9,
    };
    let mut sparse_net = conv2_net(cfg, 2);
    let mut dense_net = sparse_net.clone();
    dense_net.set_sparse_threshold(0.0);

    let density = 0.10f32;
    let frames: Vec<Tensor> = (0..16)
        .map(|t| spike_frame(28 * 28, density, &[1, 28, 28], t))
        .collect();
    let mut dense_rng = StdRng::seed_from_u64(3);
    let mut sparse_rng = StdRng::seed_from_u64(3);
    let (dense_ns, sparse_ns) = bench.time_pair(
        || {
            black_box(dense_net.forward(&frames, false, &mut dense_rng).unwrap());
        },
        || {
            black_box(sparse_net.forward(&frames, false, &mut sparse_rng).unwrap());
        },
    );
    bench.push(
        record("network_forward_T16_28x28")
            .num("density", f64::from(density), 2)
            .ab("dense_ns", dense_ns, "sparse_ns", sparse_ns),
    );
}

fn main() {
    let mut bench = Bench::from_args("BENCH_sparse.json", 30);
    conv_records(&mut bench);
    linear_records(&mut bench);
    network_record(&mut bench);
    bench.finish();
}
