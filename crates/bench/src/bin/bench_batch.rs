//! Smoke benchmark: fused batched forward vs the sequential per-sample
//! path, exported to `BENCH_batch.json` for the CI perf trajectory
//! (the batched companion of `bench_sparse`).
//!
//! Times (a) the raw spike-plane GEMM against a loop of per-sample
//! sparse matvecs on the paper's MNIST-scale linear layer, (b) full
//! `T`-step network inference for a batch of 32 pre-encoded samples:
//! `forward_batch` (one fused pass, single thread) against the
//! per-sample `classify_frames` loop it replaces (same thread, same
//! pre-encoded inputs — the measured win is batching, not threading),
//! and (c) one event-stream query at B = 1 (`event_query_*`,
//! informational, not gated): spike rows binned straight from the
//! events + `forward_batch` against `accumulate_frames` + `forward`.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_batch [out.json]`
//! (default output `BENCH_batch.json`). `AXSNN_BENCH_ITERS` scales the
//! iteration counts (default 20).

use axsnn::core::fused::FrameTrain;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::neuromorphic::event::{DvsEvent, EventStream, Polarity};
use axsnn::neuromorphic::frames::{accumulate_frames, binary_frame_train, Accumulation};
use axsnn::tensor::batched::{sparse_matmul_bias, SpikeMatrix};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::sparse::{sparse_matvec_bias, SpikeVector};
use axsnn::tensor::{init, Tensor};
use axsnn_bench::json::{bench_row, write_bench_json, BenchRow};
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;

struct Record {
    name: String,
    batch: usize,
    density: f32,
    sequential_ns: f64,
    fused_ns: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.sequential_ns / self.fused_ns.max(1.0)
    }
}

fn iters() -> u32 {
    std::env::var("AXSNN_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let n = iters();
    f(); // warmup
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn spike_frame(len: usize, density: f32, dims: &[usize], salt: u64) -> Tensor {
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
            if unit < density {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Raw kernel: one spike-plane GEMM vs 32 per-sample gathers on the
/// paper's flattened MNIST linear layer.
fn kernel_records(records: &mut Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(1);
    let weight = init::uniform(&mut rng, &[256, 1568], 0.1);
    let bias = Tensor::zeros(&[256]);
    for &density in &[0.05f32, 0.10] {
        let rows: Vec<SpikeVector> = (0..BATCH)
            .map(|b| {
                SpikeVector::from_dense(&spike_frame(1568, density, &[1568], b as u64))
                    .expect("binary frame")
            })
            .collect();
        let batch = SpikeMatrix::from_rows(&rows).unwrap();
        let sequential_ns = time_ns(|| {
            for events in &rows {
                black_box(sparse_matvec_bias(&weight, black_box(events), &bias).unwrap());
            }
        });
        let fused_ns = time_ns(|| {
            black_box(sparse_matmul_bias(&weight, black_box(&batch), &bias).unwrap());
        });
        records.push(Record {
            name: format!("linear_1568_to_256_B{BATCH}"),
            batch: BATCH,
            density,
            sequential_ns,
            fused_ns,
        });
    }
}

/// MLP at the paper's flattened MNIST conv width (16 maps × 14×14):
/// the weight set (≈3.9 MB) exceeds L2, so the per-sample path streams
/// it from L3 for every sample while the fused GEMM's row tiles stay
/// L1-hot across the whole batch.
fn mlp_net(cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(2);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 1568, 512, &cfg),
            Layer::spiking_linear(&mut rng, 512, 256, &cfg),
            Layer::output_linear(&mut rng, 256, 10),
        ],
        cfg,
    )
    .expect("static topology")
}

fn conv_net(cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(3);
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 16,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 16,
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 32 * 7 * 7, 128, &cfg),
            Layer::output_linear(&mut rng, 128, 10),
        ],
        cfg,
    )
    .expect("static topology")
}

/// Full T-step inference for a 32-sample batch: fused `forward_batch`
/// vs the sequential per-sample `classify_frames` loop it replaces.
fn network_record(
    records: &mut Vec<Record>,
    name: &str,
    net: &SpikingNetwork,
    dims: &[usize],
    density: f32,
    time_steps: usize,
) {
    let len: usize = dims.iter().product();
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..time_steps)
                .map(|t| spike_frame(len, density, dims, (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let materialized: Vec<Vec<Tensor>> = trains.iter().map(|t| t.to_frames().unwrap()).collect();

    let mut sequential_net = net.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let sequential_ns = time_ns(|| {
        for frames in &materialized {
            black_box(sequential_net.classify_frames(frames, &mut rng).unwrap());
        }
    });
    let mut fused_net = net.clone();
    let fused_ns = time_ns(|| {
        black_box(fused_net.forward_batch(black_box(&trains)).unwrap());
    });

    // Sanity: the fused pass must agree with the sequential loop.
    let fused_preds = fused_net.classify_batch_fused(&trains).unwrap();
    for (i, frames) in materialized.iter().enumerate() {
        let expected = sequential_net.classify_frames(frames, &mut rng).unwrap();
        assert_eq!(fused_preds[i], expected, "fused/sequential diverged at {i}");
    }

    records.push(Record {
        name: name.into(),
        batch: BATCH,
        density,
        sequential_ns,
        fused_ns,
    });
}

/// One `SnnEventModel` query in the shape of the `dvs_attack`
/// surrogate: a 1000-event 32×32 stream through a 2048→96→11 net at
/// T = 24, batch size 1. The sequential side is the per-sample
/// pipeline (`accumulate_frames` + `forward`); the fused side bins
/// spike rows straight from the events (`binary_frame_train`) and runs
/// `forward_batch` on that one row. Times are per query.
fn event_query_record(records: &mut Vec<Record>) {
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
    let mut net = SpikingNetwork::new(
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
    let bits = |v: &Tensor| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&sequential(&mut net)),
        bits(&fused(&mut net)),
        "event-query logits diverged"
    );

    let active: f32 = frames().iter().map(Tensor::sum).sum();
    let per_query = |ns: f64| ns / f64::from(QUERIES);
    let sequential_ns = per_query(time_ns(|| {
        for _ in 0..QUERIES {
            black_box(sequential(&mut net));
        }
    }));
    let fused_ns = per_query(time_ns(|| {
        for _ in 0..QUERIES {
            black_box(fused(&mut net));
        }
    }));
    records.push(Record {
        name: format!("event_query_dvs_mlp_T{t}_B1"),
        batch: 1,
        density: active / (t * 2 * SIDE * SIDE) as f32,
        sequential_ns,
        fused_ns,
    });
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_batch.json".to_string());
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps: 16,
        leak: 0.9,
    };
    let mut records = Vec::new();
    kernel_records(&mut records);
    network_record(
        &mut records,
        "mlp_forward_T16_1568_B32",
        &mlp_net(cfg),
        &[1568],
        0.10,
        16,
    );
    network_record(
        &mut records,
        "convnet_forward_T16_28x28_B32",
        &conv_net(cfg),
        &[1, 28, 28],
        0.10,
        16,
    );
    event_query_record(&mut records);

    println!(
        "{:<30} {:>8} {:>16} {:>14} {:>9}",
        "benchmark", "density", "sequential ns", "fused ns", "speedup"
    );
    let rows: Vec<BenchRow> = records
        .iter()
        .map(|r| {
            println!(
                "{:<30} {:>7.0}% {:>16.0} {:>14.0} {:>8.2}x",
                r.name,
                r.density * 100.0,
                r.sequential_ns,
                r.fused_ns,
                r.speedup()
            );
            bench_row(&r.name)
                .num("density", r.density as f64, 2)
                .num("batch", r.batch as f64, 0)
                .num("sequential_ns", r.sequential_ns, 0)
                .num("fused_ns", r.fused_ns, 0)
                .num("speedup", r.speedup(), 3)
        })
        .collect();
    write_bench_json(&out_path, &rows).expect("write benchmark JSON");
    // The GEMM ≥2× / MLP-forward ≥3× / conv ≥0.9× floors live in the
    // consolidated gate (`bench_gate`, documented in
    // `axsnn_bench::gates`).
    println!("\nwrote {out_path} (floors enforced by bench_gate)");
}
