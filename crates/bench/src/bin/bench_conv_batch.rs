//! Event-sorted batched conv vs the row-by-row fused conv path, written
//! to `BENCH_conv_batch.json`.
//!
//! Times, at batch 32 on the paper's MNIST conv architecture:
//!
//! * each conv layer's `[B, Cout·OH·OW]` current block — the
//!   event-sorted tile scatter
//!   ([`axsnn::tensor::batched::sparse_conv2d_batch_sorted_into`])
//!   against the row-by-row stencil sweep
//!   ([`axsnn::tensor::sparse::sparse_conv2d_into`]) the fused engine
//!   used before the execution plan could select kernels, plus the
//!   whole-stack aggregate (the acceptance headline);
//! * full `T`-step fused network inference under an event-sorted plan
//!   vs a row-by-row plan (selected through the serialized-plan
//!   snapshot path), as the end-to-end no-regression record.
//!
//! Every comparison is a single-threaded A/B of bit-identical kernels.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_conv_batch
//! [out.json]`.

use axsnn::core::fused::FrameTrain;
use axsnn::core::io::{restore_network, snapshot_network};
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::ConvBatchKernel;
use axsnn::tensor::batched::{sparse_conv2d_batch_sorted_into, SpikeMatrix};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::sparse::{sparse_conv2d_into, SpikeVector};
use axsnn::tensor::{init, Tensor};
use axsnn_bench::harness::{record, spike_frame, Bench};
use axsnn_bench::json::BenchRow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH: usize = 32;

/// The paper's three MNIST conv layers at 28×28 (the shapes the fused
/// conv path spends its time in after conversion).
fn paper_conv_layers() -> Vec<(&'static str, Conv2dSpec, (usize, usize))> {
    vec![
        (
            "l1_1to8_k5_28x28",
            Conv2dSpec {
                in_channels: 1,
                out_channels: 8,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            (28, 28),
        ),
        (
            "l2_8to16_k5_14x14",
            Conv2dSpec {
                in_channels: 8,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            (14, 14),
        ),
        (
            "l3_16to16_k3_7x7",
            Conv2dSpec {
                in_channels: 16,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (7, 7),
        ),
    ]
}

/// Kernel-level A/B per paper conv layer, plus the stack aggregate.
fn kernel_records(bench: &mut Bench, density: f32) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut stack_row = 0.0f64;
    let mut stack_sorted = 0.0f64;
    for (name, spec, (h, w)) in paper_conv_layers() {
        let len = spec.in_channels * h * w;
        let rows: Vec<SpikeVector> = (0..BATCH)
            .map(|b| {
                SpikeVector::from_dense(&spike_frame(len, density, &[len], b as u64 * 977))
                    .expect("binary frame")
            })
            .collect();
        let batch = SpikeMatrix::from_rows(&rows).unwrap();
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
        let (oh, ow) = spec.output_hw(h, w);
        let n = spec.out_channels * oh * ow;
        let mut block_a = vec![0.0f32; BATCH * n];
        let mut block_b = vec![0.0f32; BATCH * n];

        let (row_by_row_ns, sorted_ns) = bench.time_pair(
            || {
                for (r, row) in rows.iter().enumerate() {
                    sparse_conv2d_into(
                        black_box(row),
                        (h, w),
                        &weight,
                        &bias,
                        &spec,
                        &mut block_a[r * n..(r + 1) * n],
                    )
                    .unwrap();
                }
                black_box(&block_a);
            },
            || {
                sparse_conv2d_batch_sorted_into(
                    black_box(&batch),
                    (h, w),
                    &weight,
                    &bias,
                    &spec,
                    &mut block_b,
                )
                .unwrap();
                black_box(&block_b);
            },
        );
        // Sanity: the two kernels are bit-identical.
        assert_eq!(block_a, block_b, "{name}: kernels diverged");
        stack_row += row_by_row_ns;
        stack_sorted += sorted_ns;
        bench.push(conv_row(
            &format!("conv_batch_sorted_{name}_B{BATCH}"),
            density,
            row_by_row_ns,
            sorted_ns,
        ));
    }
    bench.push(conv_row(
        &format!("conv_batch_sorted_stack_B{BATCH}"),
        density,
        stack_row,
        stack_sorted,
    ));
}

fn conv_row(name: &str, density: f32, row_by_row_ns: f64, sorted_ns: f64) -> BenchRow {
    record(name)
        .num("density", f64::from(density), 2)
        .num("batch", BATCH as f64, 0)
        .ab("row_by_row_ns", row_by_row_ns, "sorted_ns", sorted_ns)
}

/// The paper's MNIST conv architecture as a spiking network.
fn paper_conv_snn(cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(5);
    let layers: Vec<Layer> = vec![
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[0].1, &cfg),
        Layer::max_pool2d(2),
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[1].1, &cfg),
        Layer::max_pool2d(2),
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[2].1, &cfg),
        Layer::flatten(),
        Layer::spiking_linear(&mut rng, 16 * 7 * 7, 64, &cfg),
        Layer::output_linear(&mut rng, 64, 10),
    ];
    SpikingNetwork::new(layers, cfg).expect("static topology")
}

/// Re-installs a forced batched-conv kernel through the serialized-plan
/// snapshot path (the same mechanism deployments use).
fn with_conv_kernel(net: &SpikingNetwork, kernel: ConvBatchKernel) -> SpikingNetwork {
    let mut snapshot = snapshot_network(net).expect("snapshot");
    for entry in &mut snapshot.plan {
        if entry.conv_batch.is_some() {
            entry.conv_batch = Some(kernel);
        }
    }
    restore_network(&snapshot).expect("restore")
}

/// End-to-end fused forward under the two plans.
fn network_record(bench: &mut Bench, density: f32, time_steps: usize) {
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps,
        leak: 0.9,
    };
    let net = paper_conv_snn(cfg);
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..time_steps)
                .map(|t| spike_frame(28 * 28, density, &[1, 28, 28], (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let mut sorted_net = with_conv_kernel(&net, ConvBatchKernel::EventSorted);
    let mut row_net = with_conv_kernel(&net, ConvBatchKernel::RowByRow);
    let (row_by_row_ns, sorted_ns) = bench.time_pair(
        || {
            black_box(row_net.forward_batch(black_box(&trains)).unwrap());
        },
        || {
            black_box(sorted_net.forward_batch(black_box(&trains)).unwrap());
        },
    );
    let a = sorted_net.forward_batch(&trains).unwrap();
    let b = row_net.forward_batch(&trains).unwrap();
    assert_eq!(a.logits, b.logits, "plan choice changed results");
    bench.push(conv_row(
        &format!("convnet_plan_forward_T{time_steps}_28x28_B{BATCH}"),
        density,
        row_by_row_ns,
        sorted_ns,
    ));
}

fn main() {
    let mut bench = Bench::from_args("BENCH_conv_batch.json", 20);
    for density in [0.05f32, 0.10] {
        kernel_records(&mut bench, density);
    }
    network_record(&mut bench, 0.10, 16);
    bench.finish();
}
