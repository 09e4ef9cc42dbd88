//! Sequential vs parallel minibatch backward, and dense vs thresholded
//! input-gradient kernels, written to `BENCH_backward.json`.
//!
//! Times three things on the paper's MNIST-scale MLP (and a conv stack
//! for reference):
//!
//! * **parallel backward** — one recorded fused forward produces the
//!   tape once; the timed region is `backward_batch_with` at 1 thread
//!   vs 4 threads. The row-shard design makes the gradients
//!   bit-identical either way (asserted here and pinned by
//!   `grad_equivalence`), so the ratio is pure scheduling win.
//! * **thresholded `matvec_t`** — the `Wᵀ·g` input-gradient kernel with
//!   90% of the gradient coefficients below the threshold vs the dense
//!   kernel.
//! * **`eps = 0` no-regression** — the thresholded kernel in exact mode
//!   must not lose against the dense entry point it shadows.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_backward
//! [out.json]`.

use axsnn::core::fused::{BackwardOpts, FrameTrain};
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::tensor::{init, linalg, Tensor};
use axsnn_bench::harness::{conv1_net, mlp_1568, record, spike_frame, Bench};
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
    let opts = |threads: usize| BackwardOpts {
        threads,
        input_grad_eps: 0.0,
    };

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

    // Thresholded input-gradient kernel: exactly 51/512 ≈ 9.96% of the
    // coefficients survive a 1e-4 threshold, the rest sit three decades
    // below it. The emitted active_fraction is the real surviving
    // share, and it must stay in the regime the gate's floor covers.
    let mut rng = StdRng::seed_from_u64(5);
    let w = init::kaiming_uniform(&mut rng, &[512, 1568], 1568);
    let active_rows = 51usize;
    let active_fraction = active_rows as f64 / 512.0;
    assert!(active_fraction <= 0.10, "gated regime requires ≤10% active");
    let g = Tensor::from_vec(
        (0..512)
            .map(|i| {
                let v = ((i as f32) * 0.37).sin() + 1.1;
                if i % 10 == 0 && i / 10 < active_rows {
                    v
                } else {
                    v * 1e-7
                }
            })
            .collect(),
        &[512],
    )
    .unwrap();
    let exact = linalg::matvec_t(&w, &g).unwrap();
    let eps0 = linalg::matvec_t_thresholded(&w, &g, 0.0).unwrap();
    assert_eq!(
        exact.as_slice(),
        eps0.as_slice(),
        "eps = 0 must equal the dense kernel bitwise"
    );
    let dense = || {
        black_box(linalg::matvec_t(&w, black_box(&g)).unwrap());
    };
    let (dense_ns, thresholded_ns) = bench.time_pair(dense, || {
        black_box(linalg::matvec_t_thresholded(&w, black_box(&g), 1e-4).unwrap());
    });
    bench.push(
        record("matvec_t_thresholded_512x1568")
            .num("active_fraction", active_fraction, 4)
            .ab("dense_ns", dense_ns, "thresholded_ns", thresholded_ns),
    );
    let (dense_ns, eps0_ns) = bench.time_pair(dense, || {
        black_box(linalg::matvec_t_thresholded(&w, black_box(&g), 0.0).unwrap());
    });
    bench.push(record("matvec_t_eps0_512x1568").ab(
        "dense_ns",
        dense_ns,
        "thresholded_ns",
        eps0_ns,
    ));
    bench.finish();
}
