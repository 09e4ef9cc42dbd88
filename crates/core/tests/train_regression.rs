//! Training-regression smoke tests for the minibatched sparse-tape
//! trainer: seeded runs must keep learning (loss falls, the toy set is
//! fit) and must not drift from the dense-tape baseline — in fact the
//! sparse and dense tapes accumulate in the same per-element order, so
//! whole seeded training *trajectories* are asserted equal.

use axsnn_core::encoding::Encoder;
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::PlanOverride;
use axsnn_core::train::{evaluate_snn, train_snn, TrainConfig};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-blob toy dataset in [0,1]^d.
fn toy_data(rng: &mut StdRng, n: usize, d: usize) -> Vec<(Tensor, usize)> {
    (0..n)
        .map(|i| {
            let c = i % 2;
            let base = if c == 0 { 0.15 } else { 0.85 };
            let x = Tensor::from_vec(
                (0..d)
                    .map(|_| (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0))
                    .collect(),
                &[d],
            )
            .unwrap();
            (x, c)
        })
        .collect()
}

fn mlp(rng: &mut StdRng, cfg: &SnnConfig) -> SpikingNetwork {
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(rng, 6, 20, cfg),
            Layer::spiking_linear(rng, 20, 12, cfg),
            Layer::output_linear(rng, 12, 2),
        ],
        *cfg,
    )
    .unwrap()
}

fn train_cfg(encoder: Encoder) -> TrainConfig {
    TrainConfig {
        epochs: 10,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 8,
        encoder,
        ..TrainConfig::default()
    }
}

/// Seeded sparse-tape training must follow the dense-tape baseline
/// *exactly*: same per-epoch losses and accuracies, same final weights,
/// with a rate encoder so binary frames actually engage the event tape
/// from the first layer on.
#[test]
fn sparse_tape_training_trajectory_equals_dense_tape_baseline() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 10,
        leak: 0.9,
    };
    let mut data_rng = StdRng::seed_from_u64(17);
    let data = toy_data(&mut data_rng, 40, 6);
    let tcfg = train_cfg(Encoder::Deterministic);

    let mut seed_rng = StdRng::seed_from_u64(5);
    let net0 = mlp(&mut seed_rng, &cfg);

    let mut sparse_net = net0.clone();
    sparse_net.apply_plan(PlanOverride::ForceThreshold(1.0)); // admit every binary frame
    let mut rng = StdRng::seed_from_u64(9);
    let sparse_report = train_snn(&mut sparse_net, &data, &tcfg, &mut rng).unwrap();

    let mut dense_net = net0;
    dense_net.apply_plan(PlanOverride::ForceDense); // force the dense tape
    let mut rng = StdRng::seed_from_u64(9);
    let dense_report = train_snn(&mut dense_net, &data, &tcfg, &mut rng).unwrap();

    assert_eq!(
        sparse_report, dense_report,
        "sparse-tape training must not drift from the dense tape"
    );
    for (ls, ld) in sparse_net.layers().iter().zip(dense_net.layers()) {
        if let (Some((ws, bs)), Some((wd, bd))) = (ls.params(), ld.params()) {
            assert_eq!(ws.value, wd.value, "trained weights must be identical");
            assert_eq!(bs.value, bd.value, "trained biases must be identical");
        }
    }

    // And the run must actually have learned something.
    let first = sparse_report.epochs.first().unwrap().mean_loss;
    let last = sparse_report.epochs.last().unwrap().mean_loss;
    assert!(last < first, "loss should fall: {first} → {last}");
    let mut rng = StdRng::seed_from_u64(3);
    let acc = evaluate_snn(&mut sparse_net, &data, Encoder::Deterministic, &mut rng).unwrap();
    assert!(
        acc >= 85.0,
        "sparse-tape trainer should fit the toy set: {acc}%"
    );
}

/// The minibatched trainer handles a conv architecture end to end:
/// seeded loss decreases over epochs.
#[test]
fn minibatched_conv_training_loss_decreases() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 8,
        leak: 0.9,
    };
    let mut rng = StdRng::seed_from_u64(23);
    // 4×4 "images" with class-dependent intensity.
    let data: Vec<(Tensor, usize)> = (0..24)
        .map(|i| {
            let c = i % 2;
            let base = if c == 0 { 0.2 } else { 0.8 };
            let x = Tensor::from_vec(
                (0..16)
                    .map(|_| (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0))
                    .collect(),
                &[1, 4, 4],
            )
            .unwrap();
            (x, c)
        })
        .collect();
    let mut net = SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 4 * 2 * 2, 12, &cfg),
            Layer::output_linear(&mut rng, 12, 2),
        ],
        cfg,
    )
    .unwrap();
    let tcfg = TrainConfig {
        epochs: 8,
        ..train_cfg(Encoder::Deterministic)
    };
    let report = train_snn(&mut net, &data, &tcfg, &mut rng).unwrap();
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(last < first, "conv loss should fall: {first} → {last}");
}

/// Networks with active train-mode dropout train through the same
/// fused minibatch path, with per-row masks; they must still train.
#[test]
fn dropout_network_falls_back_to_per_sample_training() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 8,
        leak: 0.9,
    };
    let mut rng = StdRng::seed_from_u64(29);
    let data = toy_data(&mut rng, 30, 6);
    let mut net = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 6, 20, &cfg),
            Layer::dropout(0.2),
            Layer::spiking_linear(&mut rng, 20, 12, &cfg),
            Layer::output_linear(&mut rng, 12, 2),
        ],
        cfg,
    )
    .unwrap();
    let tcfg = TrainConfig {
        epochs: 12,
        ..train_cfg(Encoder::DirectCurrent)
    };
    let report = train_snn(&mut net, &data, &tcfg, &mut rng).unwrap();
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(
        last < first,
        "dropout training loss should fall: {first} → {last}"
    );
}
