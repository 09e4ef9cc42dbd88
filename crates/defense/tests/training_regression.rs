//! Defense-side training regression: the minibatched trainers must not
//! cost any robustness relative to the dense-tape / per-sample
//! baselines they replaced.

use axsnn_attacks::gradient::{AnnGradientSource, AttackBudget, Pgd};
use axsnn_core::ann::{AnnLayer, AnnNetwork};
use axsnn_core::encoding::Encoder;
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::train::{train_ann, train_snn, TrainConfig};
use axsnn_defense::adv_train::{adversarial_train_ann, AdvTrainConfig};
use axsnn_defense::metrics::evaluate_image_attack;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn blobs(rng: &mut StdRng, n: usize) -> Vec<(Tensor, usize)> {
    (0..n)
        .map(|i| {
            let c = i % 2;
            let base = if c == 0 { 0.2 } else { 0.8 };
            let x = Tensor::from_vec(
                (0..6)
                    .map(|_| (base + rng.gen_range(-0.08..0.08f32)).clamp(0.0, 1.0))
                    .collect(),
                &[6],
            )
            .unwrap();
            (x, c)
        })
        .collect()
}

/// Hardened (sparse-tape-trained) SNN accuracy under a PGD attack must
/// be no worse than the dense-tape baseline's. The two tapes accumulate
/// identically, so the trained networks — and their robustness — are
/// asserted exactly equal.
#[test]
fn sparse_tape_hardened_accuracy_no_worse_than_dense_tape_baseline() {
    let mut rng = StdRng::seed_from_u64(31);
    let data = blobs(&mut rng, 40);

    // Adversary surrogate: a quickly-trained ANN twin.
    let mut adversary = AnnNetwork::new(vec![
        AnnLayer::linear_relu(&mut rng, 6, 16),
        AnnLayer::linear_out(&mut rng, 16, 2),
    ])
    .unwrap();
    train_ann(
        &mut adversary,
        &data,
        &TrainConfig {
            epochs: 20,
            learning_rate: 0.25,
            momentum: 0.0,
            batch_size: 8,
            encoder: Encoder::DirectCurrent,
            ..TrainConfig::default()
        },
        &mut rng,
    )
    .unwrap();

    let snn_cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 10,
        leak: 0.9,
    };
    let mut seed_rng = StdRng::seed_from_u64(7);
    let net0 = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut seed_rng, 6, 20, &snn_cfg),
            Layer::spiking_linear(&mut seed_rng, 20, 12, &snn_cfg),
            Layer::output_linear(&mut seed_rng, 12, 2),
        ],
        snn_cfg,
    )
    .unwrap();
    let tcfg = TrainConfig {
        epochs: 12,
        learning_rate: 0.05,
        momentum: 0.9,
        batch_size: 8,
        encoder: Encoder::Deterministic,
        ..TrainConfig::default()
    };

    let mut sparse_net = net0.clone();
    sparse_net.set_sparse_threshold(1.0);
    let mut train_rng = StdRng::seed_from_u64(13);
    train_snn(&mut sparse_net, &data, &tcfg, &mut train_rng).unwrap();

    let mut dense_net = net0;
    dense_net.set_sparse_threshold(0.0);
    let mut train_rng = StdRng::seed_from_u64(13);
    train_snn(&mut dense_net, &data, &tcfg, &mut train_rng).unwrap();

    let pgd = Pgd::new(AttackBudget {
        epsilon: 0.08,
        step_size: 0.02,
        steps: 8,
    });
    let attack_of = |net: &mut SpikingNetwork| {
        let mut source = AnnGradientSource::new(&adversary);
        let mut rng = StdRng::seed_from_u64(99);
        evaluate_image_attack(
            net,
            &mut source,
            &pgd,
            &data,
            Encoder::Deterministic,
            &mut rng,
        )
        .unwrap()
    };
    let sparse_out = attack_of(&mut sparse_net);
    let dense_out = attack_of(&mut dense_net);
    assert!(
        sparse_out.adversarial_accuracy >= dense_out.adversarial_accuracy,
        "sparse-tape training must not lose robustness: {} vs {}",
        sparse_out.adversarial_accuracy,
        dense_out.adversarial_accuracy
    );
    assert_eq!(
        sparse_out, dense_out,
        "identical tapes must produce identical robustness outcomes"
    );
}

/// The batched `adversarial_train_ann` update is bit-identical to the
/// per-sample gradient-accumulation loop it replaced (dropout-free
/// network, same seeds): loss trace and final parameters match exactly.
#[test]
fn batched_adversarial_training_matches_per_sample_reference() {
    let mut rng = StdRng::seed_from_u64(41);
    let data = blobs(&mut rng, 30);
    let mut init_rng = StdRng::seed_from_u64(3);
    let net0 = AnnNetwork::new(vec![
        AnnLayer::linear_relu(&mut init_rng, 6, 16),
        AnnLayer::linear_out(&mut init_rng, 16, 2),
    ])
    .unwrap();
    let cfg = AdvTrainConfig {
        train: TrainConfig {
            epochs: 5,
            learning_rate: 0.2,
            momentum: 0.0,
            batch_size: 8,
            encoder: Encoder::DirectCurrent,
            ..TrainConfig::default()
        },
        epsilon: 0.1,
        adversarial_fraction: 0.5,
    };

    // Batched trainer under test.
    let mut batched = net0.clone();
    let mut rng_a = StdRng::seed_from_u64(55);
    let batched_report = adversarial_train_ann(&mut batched, &data, &cfg, &mut rng_a).unwrap();

    // Per-sample reference: the pre-minibatching implementation.
    let mut reference = net0;
    let mut rng_b = StdRng::seed_from_u64(55);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut ref_losses = Vec::new();
    for _ in 0..cfg.train.epochs {
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng_b);
        let mut loss_sum = 0.0f32;
        for chunk in order.chunks(cfg.train.batch_size) {
            let scale = 1.0 / chunk.len() as f32;
            let mut acc: Option<Vec<axsnn_core::ann::AnnLayerGrads>> = None;
            for &i in chunk {
                let (clean, label) = &data[i];
                let input = if rng_b.gen::<f32>() < cfg.adversarial_fraction {
                    // The per-sample walk's own input gradient, not the
                    // batched `input_gradient` the trainer runs.
                    let mut inference = rand::rngs::mock::StepRng::new(0, 1);
                    let (_, _, back) = reference
                        .forward_backward(clean, *label, false, &mut inference)
                        .unwrap();
                    clean
                        .add(&axsnn_tensor::ops::sign(&back.input_grad).scale(cfg.epsilon))
                        .unwrap()
                        .clamp(0.0, 1.0)
                } else {
                    clean.clone()
                };
                let (_, loss, back) = reference
                    .forward_backward(&input, *label, true, &mut rng_b)
                    .unwrap();
                loss_sum += loss;
                acc = Some(match acc {
                    None => back.layer_grads,
                    Some(mut grads) => {
                        for (a, b) in grads.iter_mut().zip(&back.layer_grads) {
                            if let (Some(aw), Some(bw)) = (&mut a.weight, &b.weight) {
                                *aw = aw.add(bw).unwrap();
                            }
                            if let (Some(ab), Some(bb)) = (&mut a.bias, &b.bias) {
                                *ab = ab.add(bb).unwrap();
                            }
                        }
                        grads
                    }
                });
            }
            reference
                .apply_grads(&acc.unwrap(), cfg.train.learning_rate * scale)
                .unwrap();
        }
        ref_losses.push(loss_sum / data.len() as f32);
    }

    for (epoch, report) in batched_report.epochs.iter().enumerate() {
        assert_eq!(
            report.mean_loss, ref_losses[epoch],
            "epoch {epoch} loss must match the per-sample reference"
        );
    }
    let mut compared = 0usize;
    for (lb, lr) in batched.layers().iter().zip(reference.layers()) {
        if let (
            AnnLayer::LinearRelu {
                weight: wb,
                bias: bb,
            }
            | AnnLayer::LinearOut {
                weight: wb,
                bias: bb,
            },
            AnnLayer::LinearRelu {
                weight: wr,
                bias: br,
            }
            | AnnLayer::LinearOut {
                weight: wr,
                bias: br,
            },
        ) = (lb, lr)
        {
            assert_eq!(wb, wr, "batched weights must equal the reference");
            assert_eq!(bb, br, "batched biases must equal the reference");
            compared += 1;
        }
    }
    assert_eq!(compared, 2, "both parameterized layers compared");
}
