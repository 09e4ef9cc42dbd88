//! Reduced-precision weight planes against f32 weights, written to
//! `BENCH_quant.json`.
//!
//! * `quant_accuracy_*` — prediction agreement between an int8/f16
//!   planed MLP and its f32 twin over 256 deterministic samples through
//!   the fused batch engine.
//!
//! A plane has no speed A/B: every kernel reads a planed layer's
//! dequantized f32 weights, so a planed layer runs the same kernels on
//! the same number of bytes as an f32 one.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_quant
//! [out.json]`.

use axsnn::core::fused::FrameTrain;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::WeightPlane;
use axsnn::tensor::Tensor;
use axsnn_bench::harness::{hash_unit, record, Bench};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PLANES: [WeightPlane; 2] = [WeightPlane::Int8, WeightPlane::F16];

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
    // The agreement records time nothing, so the iteration count is
    // unused.
    let mut bench = Bench::from_args("BENCH_quant.json", 100);
    accuracy_records(&mut bench);
    bench.finish();
}
