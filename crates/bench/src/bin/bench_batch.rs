//! Fused batched forward vs one sample at a time, written to
//! `BENCH_batch.json`.
//!
//! Times (a) the raw spike-plane GEMM against a loop of one-row calls
//! of the same kernel on the paper's MNIST-scale linear layer, both over
//! panels packed once before timing (the engine's steady state), (b) full
//! `T`-step network inference for a batch of 32 pre-encoded samples:
//! `forward_batch` (one fused pass, single thread) against a loop of
//! `classify_frames` calls, each a one-row pass of the same engine
//! (same thread, same pre-encoded inputs — the measured win is
//! batching, not threading), and (c) one event-stream query at B = 1:
//! spike rows binned straight from the events + `forward_batch`
//! against `accumulate_frames` + `forward`, a one-row pass over dense
//! frames.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_batch
//! [out.json]`.

use axsnn::core::fused::FrameTrain;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::neuromorphic::event::{DvsEvent, EventStream, Polarity};
use axsnn::neuromorphic::frames::{accumulate_frames, binary_frame_train, Accumulation};
use axsnn::tensor::batched::{sparse_matmul_bias_packed, PackedWeights, SpikeMatrix};
use axsnn::tensor::sparse::SpikeVector;
use axsnn::tensor::{init, Tensor};
use axsnn_bench::harness::{conv2_net, mlp_1568, record, spike_frame, Bench};
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCH: usize = 32;

/// Raw kernel: one B = 32 spike-plane GEMM vs 32 one-row calls of it on
/// the paper's flattened MNIST linear layer.
fn kernel_records(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let weight = init::uniform(&mut rng, &[256, 1568], 0.1);
    let bias = Tensor::zeros(&[256]);
    let packed = PackedWeights::pack(&weight).unwrap();
    for density in [0.05f32, 0.10] {
        let rows: Vec<SpikeVector> = (0..BATCH)
            .map(|b| {
                SpikeVector::from_dense(&spike_frame(1568, density, &[1568], b as u64))
                    .expect("binary frame")
            })
            .collect();
        let batch = SpikeMatrix::from_rows(&rows).unwrap();
        let singles: Vec<SpikeMatrix> = rows
            .iter()
            .map(|events| SpikeMatrix::from_rows(std::slice::from_ref(events)).unwrap())
            .collect();
        let (sequential_ns, fused_ns) = bench.time_pair(
            || {
                for one in &singles {
                    black_box(sparse_matmul_bias_packed(&packed, black_box(one), &bias).unwrap());
                }
            },
            || {
                black_box(sparse_matmul_bias_packed(&packed, black_box(&batch), &bias).unwrap());
            },
        );
        bench.push(
            record(&format!("linear_1568_to_256_B{BATCH}"))
                .num("density", f64::from(density), 2)
                .num("batch", BATCH as f64, 0)
                .ab("sequential_ns", sequential_ns, "fused_ns", fused_ns),
        );
    }
}

/// Full T-step inference for a 32-sample batch: fused `forward_batch`
/// vs a sequential loop of one-row `classify_frames` passes.
fn network_record(bench: &mut Bench, name: &str, net: &SpikingNetwork, dims: &[usize]) {
    const DENSITY: f32 = 0.10;
    let len: usize = dims.iter().product();
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..16)
                .map(|t| spike_frame(len, DENSITY, dims, (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let materialized: Vec<Vec<Tensor>> = trains.iter().map(|t| t.to_frames().unwrap()).collect();

    let mut sequential_net = net.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fused_net = net.clone();
    let (sequential_ns, fused_ns) = bench.time_pair(
        || {
            for frames in &materialized {
                black_box(sequential_net.classify_frames(frames, &mut rng).unwrap());
            }
        },
        || {
            black_box(fused_net.forward_batch(black_box(&trains)).unwrap());
        },
    );

    // Sanity: the fused pass must agree with the sequential loop.
    let fused_preds = fused_net.classify_batch_fused(&trains).unwrap();
    for (i, frames) in materialized.iter().enumerate() {
        let expected = sequential_net.classify_frames(frames, &mut rng).unwrap();
        assert_eq!(fused_preds[i], expected, "fused/sequential diverged at {i}");
    }
    bench.push(
        record(name)
            .num("density", f64::from(DENSITY), 2)
            .num("batch", BATCH as f64, 0)
            .ab("sequential_ns", sequential_ns, "fused_ns", fused_ns),
    );
}

/// One `SnnEventModel` query in the shape of the `dvs_attack`
/// surrogate: a 1000-event 32×32 stream through a 2048→96→11 net at
/// T = 24, batch size 1. The sequential side is the dense-frame
/// pipeline (`accumulate_frames` + `forward`); the fused side bins
/// spike rows straight from the events (`binary_frame_train`) and runs
/// `forward_batch` on that one row. Times are per query.
fn event_query_record(bench: &mut Bench) {
    const SIDE: usize = 32;
    const EVENTS: usize = 1000;
    const QUERIES: u32 = 25;
    let cfg = SnnConfig {
        threshold: 0.75,
        time_steps: 24,
        leak: 0.9,
    };
    let t = cfg.time_steps;
    let mut rng = StdRng::seed_from_u64(4);
    let net = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 2 * SIDE * SIDE, 96, &cfg),
            Layer::output_linear(&mut rng, 96, 11),
        ],
        cfg,
    )
    .expect("static topology");
    let events = (0..EVENTS)
        .map(|i| {
            let polarity = if rng.gen_bool(0.5) {
                Polarity::On
            } else {
                Polarity::Off
            };
            DvsEvent::new(
                rng.gen_range(0..SIDE as u16),
                rng.gen_range(0..SIDE as u16),
                polarity,
                i as f32 / EVENTS as f32,
            )
        })
        .collect();
    let stream = EventStream::from_events(SIDE, SIDE, events).expect("in-range events");

    let frames = || accumulate_frames(&stream, t, Accumulation::Binary).unwrap();
    let sequential = |net: &mut SpikingNetwork| {
        net.forward(&frames(), false, &mut StepRng::new(0, 1))
            .unwrap()
            .logits
    };
    let fused = |net: &mut SpikingNetwork| {
        let train = binary_frame_train(&stream, t).unwrap();
        net.forward_batch(std::slice::from_ref(&train))
            .unwrap()
            .logits
    };
    let (mut sequential_net, mut fused_net) = (net.clone(), net);
    let bits = |v: &Tensor| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&sequential(&mut sequential_net)),
        bits(&fused(&mut fused_net)),
        "event-query logits diverged"
    );

    let active: f32 = frames().iter().map(Tensor::sum).sum();
    let (sequential_ns, fused_ns) = bench.time_pair(
        || {
            for _ in 0..QUERIES {
                black_box(sequential(&mut sequential_net));
            }
        },
        || {
            for _ in 0..QUERIES {
                black_box(fused(&mut fused_net));
            }
        },
    );
    let per_query = |ns: f64| ns / f64::from(QUERIES);
    bench.push(
        record(&format!("event_query_dvs_mlp_T{t}_B1"))
            .num(
                "density",
                f64::from(active / (t * 2 * SIDE * SIDE) as f32),
                2,
            )
            .num("batch", 1.0, 0)
            .ab(
                "sequential_ns",
                per_query(sequential_ns),
                "fused_ns",
                per_query(fused_ns),
            ),
    );
}

fn main() {
    let mut bench = Bench::from_args("BENCH_batch.json", 20);
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: 16,
        leak: 0.9,
    };
    kernel_records(&mut bench);
    network_record(
        &mut bench,
        "mlp_forward_T16_1568_B32",
        &mlp_1568(cfg, 2),
        &[1568],
    );
    network_record(
        &mut bench,
        "convnet_forward_T16_28x28_B32",
        &conv2_net(cfg, 3),
        &[1, 28, 28],
    );
    event_query_record(&mut bench);
    bench.finish();
}
