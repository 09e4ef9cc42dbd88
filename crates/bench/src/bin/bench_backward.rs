//! Sequential vs parallel minibatch backward and the ANN attack
//! gradient, written to `BENCH_backward.json`.
//!
//! Times one thing on the paper's MNIST-scale MLP (and a conv stack for
//! reference), and one on the ANN twin:
//!
//! * **parallel backward** — one recorded fused forward produces the
//!   tape once; the timed region is `backward_batch_with` at 1 thread
//!   vs 4 threads. The row-shard design makes the gradients
//!   bit-identical either way (asserted here and pinned by
//!   `grad_equivalence`), so the ratio is pure scheduling win.
//! * **ANN attack input gradient** — on the `search_mlp` FastMlp shape
//!   (256 → 96 → 64 → 10), the per-sample reference
//!   `AnnNetwork::forward_backward`, which forms every weight gradient
//!   and transposes every weight matrix, against `input_gradient`, the
//!   one-row batched walk that forms only the input gradient. Both give
//!   the same bits (asserted first).
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_backward
//! [out.json]`.

use axsnn::core::ann::{AnnLayer, AnnNetwork};
use axsnn::core::fused::{BackwardOpts, FrameTrain};
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::tensor::Tensor;
use axsnn_bench::harness::{conv1_net, hash_unit, mlp_1568, record, spike_frame, Bench};
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH: usize = 16;
const TIME_STEPS: usize = 8;
const DENSITY: f32 = 0.10;
const PARALLEL_THREADS: usize = 4;

fn grads_of(net: &SpikingNetwork) -> Vec<Vec<f32>> {
    net.layers()
        .iter()
        .filter_map(Layer::params)
        .flat_map(|(w, b)| [w.grad.as_slice().to_vec(), b.grad.as_slice().to_vec()])
        .collect()
}

/// Times the recorded backward at 1 vs `PARALLEL_THREADS` threads on
/// one network, asserting the gradients are bit-identical first.
fn backward_record(bench: &mut Bench, name: &str, net: &SpikingNetwork, dims: &[usize]) {
    let len: usize = dims.iter().product();
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..TIME_STEPS)
                .map(|t| spike_frame(len, DENSITY, dims, (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let mut recorded = net.clone();
    let (out, tape) = recorded.forward_batch_recorded(&trains).unwrap();
    let classes = out.logits.shape().dims()[1];
    let grad_block: Vec<f32> = (0..BATCH)
        .flat_map(|_| (0..classes).map(|i| if i == 0 { 0.9 } else { -0.1 }))
        .collect();
    let grad_block = Tensor::from_vec(grad_block, &[BATCH, classes]).unwrap();
    let opts = |threads: usize| BackwardOpts { threads };

    // Sanity: thread count must not change a single bit.
    let mut a = net.clone();
    a.zero_grads();
    a.backward_batch_with(&tape, &grad_block, &opts(1)).unwrap();
    let mut b = net.clone();
    b.zero_grads();
    b.backward_batch_with(&tape, &grad_block, &opts(PARALLEL_THREADS))
        .unwrap();
    assert_eq!(
        grads_of(&a),
        grads_of(&b),
        "{name}: parallel gradients diverged from sequential"
    );

    let mut seq_net = net.clone();
    let mut par_net = net.clone();
    let (sequential_ns, parallel_ns) = bench.time_pair(
        || {
            seq_net.zero_grads();
            black_box(seq_net.backward_batch_with(&tape, &grad_block, &opts(1))).unwrap();
        },
        || {
            par_net.zero_grads();
            black_box(par_net.backward_batch_with(&tape, &grad_block, &opts(PARALLEL_THREADS)))
                .unwrap();
        },
    );
    bench.push(
        record(name)
            .num("batch", BATCH as f64, 0)
            .num("time_steps", TIME_STEPS as f64, 0)
            .num("density", f64::from(DENSITY), 2)
            .num("threads", PARALLEL_THREADS as f64, 0)
            .ab("sequential_ns", sequential_ns, "parallel_ns", parallel_ns),
    );
}

fn main() {
    let mut bench = Bench::from_args("BENCH_backward.json", 10);
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    backward_record(
        &mut bench,
        &format!("mlp_parallel_backward_B{BATCH}_T{TIME_STEPS}"),
        &mlp_1568(cfg, 2),
        &[1568],
    );
    backward_record(
        &mut bench,
        &format!("conv_parallel_backward_B{BATCH}_T{TIME_STEPS}"),
        &conv1_net(cfg, 3),
        &[1, 28, 28],
    );

    ann_input_grad_record(&mut bench);
    bench.finish();
}

/// Times one PGD step's input gradient on the FastMlp shape: the
/// per-sample reference against `input_gradient`, after asserting they
/// agree bit for bit.
fn ann_input_grad_record(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(7);
    let ann = AnnNetwork::new(vec![
        AnnLayer::Flatten,
        AnnLayer::linear_relu(&mut rng, 256, 96),
        AnnLayer::linear_relu(&mut rng, 96, 64),
        AnnLayer::linear_out(&mut rng, 64, 10),
    ])
    .unwrap();
    let x = Tensor::from_vec((0..256).map(|i| hash_unit(i, 11)).collect(), &[1, 16, 16]).unwrap();
    let label = 3;
    let reference = || {
        let (_, _, back) = ann
            .forward_backward(black_box(&x), label, false, &mut StepRng::new(0, 1))
            .unwrap();
        back.input_grad
    };
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&reference()),
        bits(&ann.input_gradient(&x, label).unwrap()),
        "input_gradient must equal the per-sample reference bitwise"
    );
    let (reference_ns, input_grad_ns) = bench.time_pair(
        || {
            black_box(reference());
        },
        || {
            black_box(ann.input_gradient(black_box(&x), label).unwrap());
        },
    );
    bench.push(record("ann_input_grad_mlp_256x96x64x10").ab(
        "reference_ns",
        reference_ns,
        "input_grad_ns",
        input_grad_ns,
    ));
}
