//! Event-form sparse BPTT tape vs the dense tape, and the minibatched
//! trainer vs a loop of one-row passes, written to `BENCH_train.json`.
//!
//! Times the training step three ways on the paper's MNIST-scale MLP
//! and a small conv stack — the one-row records time the tape work of
//! `forward` + `backward` (a recorded one-row fused pass over `T` spike
//! frames + the batched backward swept down to the frames), the
//! minibatch record times the full step including the SGD apply:
//!
//! * one-row **dense tape** (`set_sparse_threshold(0.0)`),
//! * one-row **sparse tape** (default density gate: event-form tape
//!   plus sparse outer-product gradient accumulation),
//! * **minibatched sparse tape** (`forward_batch_recorded` +
//!   `backward_batch` over B samples, amortizing weight traffic).
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_train
//! [out.json]`.

use axsnn::core::fused::FrameTrain;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::tensor::Tensor;
use axsnn_bench::harness::{conv1_net, mlp_1568, record, spike_frame, Bench};
use axsnn_bench::json::BenchRow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH: usize = 16;
const TIME_STEPS: usize = 8;

fn logit_grad(classes: usize) -> Tensor {
    Tensor::from_vec(
        (0..classes)
            .map(|i| if i == 0 { 0.9 } else { -0.1 })
            .collect(),
        &[classes],
    )
    .unwrap()
}

/// One one-row tape pass: recorded forward over the frame train plus
/// full BPTT down to the frames. The SGD apply is excluded here — it is a
/// density-independent weight-sized pass that real training amortizes
/// once per minibatch (the minibatch records include it).
fn per_sample_step(net: &mut SpikingNetwork, frames: &[Tensor], grad: &Tensor) {
    let mut rng = StdRng::seed_from_u64(7);
    net.zero_grads();
    black_box(net.forward(frames, true, &mut rng).unwrap());
    black_box(net.backward(grad, frames.len()).unwrap());
}

fn grads_close(a: &SpikingNetwork, b: &SpikingNetwork) -> bool {
    a.layers()
        .iter()
        .zip(b.layers())
        .filter_map(|(x, y)| x.params().zip(y.params()))
        .all(|((wa, ba), (wb, bb))| {
            wa.grad
                .as_slice()
                .iter()
                .zip(wb.grad.as_slice())
                .chain(ba.grad.as_slice().iter().zip(bb.grad.as_slice()))
                .all(|(p, q)| (p - q).abs() <= 1e-5 * (1.0 + q.abs()))
        })
}

/// One-row sparse tape vs one-row dense tape on one network.
fn tape_record(bench: &mut Bench, name: &str, net: &SpikingNetwork, dims: &[usize], density: f32) {
    let len: usize = dims.iter().product();
    let frames: Vec<Tensor> = (0..TIME_STEPS)
        .map(|t| spike_frame(len, density, dims, t as u64))
        .collect();
    let classes = {
        let mut probe = net.clone();
        let mut rng = StdRng::seed_from_u64(0);
        probe
            .forward(&frames, false, &mut rng)
            .unwrap()
            .logits
            .len()
    };
    let grad = logit_grad(classes);

    let mut dense_net = net.clone();
    dense_net.set_sparse_threshold(0.0);
    let mut sparse_net = net.clone();
    let (dense_ns, sparse_ns) = bench.time_pair(
        || per_sample_step(&mut dense_net, &frames, &grad),
        || per_sample_step(&mut sparse_net, &frames, &grad),
    );

    // Sanity: the two tapes must produce the same gradients.
    let mut rng = StdRng::seed_from_u64(1);
    let mut a = net.clone();
    a.set_sparse_threshold(0.0);
    a.zero_grads();
    a.forward(&frames, true, &mut rng).unwrap();
    a.backward(&grad, TIME_STEPS).unwrap();
    let mut b = net.clone();
    b.zero_grads();
    b.forward(&frames, true, &mut rng).unwrap();
    b.backward(&grad, TIME_STEPS).unwrap();
    assert!(
        grads_close(&a, &b),
        "{name}: sparse/dense tape grads diverged"
    );
    bench.push(tape_row(name, density, dense_ns, sparse_ns));
}

fn tape_row(name: &str, density: f32, dense_ns: f64, sparse_ns: f64) -> BenchRow {
    record(name)
        .num("density", f64::from(density), 2)
        .num("time_steps", TIME_STEPS as f64, 0)
        .ab("dense_tape_ns", dense_ns, "sparse_tape_ns", sparse_ns)
}

/// Minibatched sparse-tape trainer vs a loop of one-row dense-tape
/// passes over the same `BATCH` samples.
fn minibatch_record(
    bench: &mut Bench,
    name: &str,
    net: &SpikingNetwork,
    dims: &[usize],
    density: f32,
) {
    let len: usize = dims.iter().product();
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..TIME_STEPS)
                .map(|t| spike_frame(len, density, dims, (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let materialized: Vec<Vec<Tensor>> = trains.iter().map(|t| t.to_frames().unwrap()).collect();
    let classes = {
        let mut probe = net.clone();
        let mut rng = StdRng::seed_from_u64(0);
        probe
            .forward(&materialized[0], false, &mut rng)
            .unwrap()
            .logits
            .len()
    };
    let grad = logit_grad(classes);
    let scale = 1.0 / BATCH as f32;
    let grad_row = grad.scale(scale);
    let mut grad_block = Vec::with_capacity(BATCH * classes);
    for _ in 0..BATCH {
        grad_block.extend(grad_row.as_slice());
    }
    let grad_block = Tensor::from_vec(grad_block, &[BATCH, classes]).unwrap();

    let mut dense_net = net.clone();
    dense_net.set_sparse_threshold(0.0);
    let mut fused_net = net.clone();
    let (dense_ns, sparse_ns) = bench.time_pair(
        || {
            dense_net.zero_grads();
            for frames in &materialized {
                let mut rng = StdRng::seed_from_u64(7);
                black_box(dense_net.forward(frames, true, &mut rng).unwrap());
                black_box(dense_net.backward(&grad_row, TIME_STEPS).unwrap());
            }
            dense_net.apply_grads(0.01, 0.9).unwrap();
        },
        || {
            fused_net.zero_grads();
            let (out, tape) = fused_net
                .forward_batch_recorded(black_box(&trains))
                .unwrap();
            black_box(out);
            fused_net.backward_batch(&tape, &grad_block).unwrap();
            fused_net.apply_grads(0.01, 0.9).unwrap();
        },
    );
    bench.push(tape_row(name, density, dense_ns, sparse_ns));
}

fn main() {
    // Blocks of ten calls, the block length BENCH_train.json was
    // first measured with.
    let mut bench = Bench::from_args("BENCH_train.json", 50);
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    for density in [0.05f32, 0.10] {
        tape_record(
            &mut bench,
            &format!("mlp_tape_step_T{TIME_STEPS}_1568"),
            &mlp_1568(cfg, 2),
            &[1568],
            density,
        );
    }
    tape_record(
        &mut bench,
        &format!("conv_tape_step_T{TIME_STEPS}_28x28"),
        &conv1_net(cfg, 3),
        &[1, 28, 28],
        0.10,
    );
    minibatch_record(
        &mut bench,
        &format!("mlp_minibatch_step_T{TIME_STEPS}_B{BATCH}"),
        &mlp_1568(cfg, 2),
        &[1568],
        0.10,
    );
    bench.finish();
}
