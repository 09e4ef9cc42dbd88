//! Adversarial training — the natural hardening extension the paper
//! leaves as future work.
//!
//! The accurate ANN twin is trained on a mixture of clean and
//! FGSM-perturbed samples (Goodfellow et al.); the hardened ANN then
//! converts into a hardened AccSNN exactly like the standard pipeline.
//! Combining adversarial training with precision scaling stacks both
//! defenses.

use crate::Result;
use axsnn_core::ann::AnnNetwork;
use axsnn_core::train::{EpochReport, TrainConfig, TrainReport};
use axsnn_tensor::{ops, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;

/// Adversarial-training hyper-parameters.
///
/// # Example
///
/// ```
/// let cfg = axsnn_defense::adv_train::AdvTrainConfig::default();
/// assert!(cfg.adversarial_fraction > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvTrainConfig {
    /// Base training hyper-parameters.
    pub train: TrainConfig,
    /// FGSM ε used to craft training-time adversarial examples.
    pub epsilon: f32,
    /// Fraction of each batch replaced by adversarial examples.
    pub adversarial_fraction: f32,
}

impl Default for AdvTrainConfig {
    fn default() -> Self {
        AdvTrainConfig {
            train: TrainConfig::default(),
            epsilon: 0.05,
            adversarial_fraction: 0.5,
        }
    }
}

/// Trains an ANN with on-the-fly FGSM adversarial examples.
///
/// Each selected sample is perturbed with one signed-gradient step of
/// size ε against the *current* model before its gradient contributes to
/// the update — the standard single-step adversarial-training recipe.
/// Crafting stays per-sample (the FGSM step needs the current model's
/// input gradient per image, in sample order so the RNG stream is
/// unchanged); the *update* consumes the whole crafted minibatch
/// through the batched GEMM trainer
/// ([`AnnNetwork::forward_backward_batch`]), which for dropout-free
/// networks is bit-identical to the per-sample accumulation loop it
/// replaces.
///
/// # Errors
///
/// Returns a configuration error for empty data or invalid
/// hyper-parameters and propagates model failures.
pub fn adversarial_train_ann<R: Rng>(
    net: &mut AnnNetwork,
    data: &[(Tensor, usize)],
    cfg: &AdvTrainConfig,
    rng: &mut R,
) -> Result<TrainReport> {
    if data.is_empty() {
        return Err(crate::DefenseError::InvalidData {
            message: "training data must be non-empty".into(),
        });
    }
    if !(0.0..=1.0).contains(&cfg.adversarial_fraction) || cfg.epsilon < 0.0 {
        return Err(crate::DefenseError::InvalidSearchSpace {
            message: "adversarial_fraction must be in [0,1] and ε ≥ 0".into(),
        });
    }
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut report = TrainReport::default();
    for epoch in 0..cfg.train.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        for chunk in order.chunks(cfg.train.batch_size) {
            let scale = 1.0 / chunk.len() as f32;
            // Craft the training inputs: FGSM on the current model for
            // the adversarial share of the batch.
            let mut inputs = Vec::with_capacity(chunk.len());
            let mut labels = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let (clean, label) = &data[i];
                let input = if rng.gen::<f32>() < cfg.adversarial_fraction && cfg.epsilon > 0.0 {
                    let grad = net.input_gradient(clean, *label)?;
                    clean
                        .add(&ops::sign(&grad).scale(cfg.epsilon))
                        .map_err(axsnn_core::CoreError::from)?
                        .clamp(0.0, 1.0)
                } else {
                    clean.clone()
                };
                inputs.push(input);
                labels.push(*label);
            }
            let out =
                net.forward_backward_batch_with(&inputs, &labels, true, rng, &cfg.train.backward)?;
            // Per-sample accumulation keeps the reported mean loss
            // bit-identical to the per-sample loop this replaced.
            for &loss in &out.losses {
                loss_sum += loss;
            }
            correct += out
                .predictions
                .iter()
                .zip(&labels)
                .filter(|(p, l)| p == l)
                .count();
            net.apply_grads(&out.layer_grads, cfg.train.learning_rate * scale)?;
        }
        report.epochs.push(EpochReport {
            epoch,
            mean_loss: loss_sum / data.len() as f32,
            accuracy: 100.0 * correct as f32 / data.len() as f32,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_attacks::gradient::{AnnGradientSource, AttackBudget, ImageAttack, Pgd};
    use axsnn_core::ann::AnnLayer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(rng: &mut StdRng, n: usize) -> Vec<(Tensor, usize)> {
        (0..n)
            .map(|i| {
                let c = i % 2;
                let base = if c == 0 { 0.25 } else { 0.75 };
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

    fn mlp(rng: &mut StdRng) -> AnnNetwork {
        AnnNetwork::new(vec![
            AnnLayer::linear_relu(rng, 6, 16),
            AnnLayer::linear_out(rng, 16, 2),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&mut rng);
        let data = blobs(&mut rng, 8);
        let cfg = AdvTrainConfig {
            adversarial_fraction: 1.5,
            ..AdvTrainConfig::default()
        };
        assert!(adversarial_train_ann(&mut net, &data, &cfg, &mut rng).is_err());
        assert!(
            adversarial_train_ann(&mut net, &[], &AdvTrainConfig::default(), &mut rng).is_err()
        );
    }

    #[test]
    fn hardened_model_is_more_robust() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = blobs(&mut rng, 60);
        let train_cfg = TrainConfig {
            epochs: 25,
            learning_rate: 0.25,
            momentum: 0.0,
            batch_size: 10,
            ..TrainConfig::default()
        };

        // Plain model.
        let mut plain = mlp(&mut rng);
        axsnn_core::train::train_ann(&mut plain, &data, &train_cfg, &mut rng).unwrap();

        // Hardened model (same init seed family, FGSM mixing).
        let mut hardened = mlp(&mut rng);
        adversarial_train_ann(
            &mut hardened,
            &data,
            &AdvTrainConfig {
                train: train_cfg,
                epsilon: 0.12,
                adversarial_fraction: 0.5,
            },
            &mut rng,
        )
        .unwrap();

        // Attack both (white-box PGD on each model itself).
        let pgd = Pgd::new(AttackBudget {
            epsilon: 0.12,
            step_size: 0.04,
            steps: 10,
        });
        let robust_acc = |net: &AnnNetwork, rng: &mut StdRng| {
            let mut correct = 0usize;
            for (x, y) in &data {
                let adv = {
                    let mut src = AnnGradientSource::new(net);
                    pgd.perturb(&mut src, x, *y, rng).unwrap()
                };
                if net.classify(&adv).unwrap() == *y {
                    correct += 1;
                }
            }
            100.0 * correct as f32 / data.len() as f32
        };
        let plain_robust = robust_acc(&plain, &mut rng);
        let hardened_robust = robust_acc(&hardened, &mut rng);
        assert!(
            hardened_robust >= plain_robust,
            "adversarial training must not hurt robustness: plain {plain_robust}% vs hardened {hardened_robust}%"
        );
    }

    #[test]
    fn zero_fraction_equals_clean_training_behaviour() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = blobs(&mut rng, 30);
        let mut net = mlp(&mut rng);
        let cfg = AdvTrainConfig {
            train: TrainConfig {
                epochs: 10,
                learning_rate: 0.2,
                momentum: 0.0,
                batch_size: 10,
                ..TrainConfig::default()
            },
            epsilon: 0.1,
            adversarial_fraction: 0.0,
        };
        let report = adversarial_train_ann(&mut net, &data, &cfg, &mut rng).unwrap();
        assert!(
            report.final_accuracy() > 90.0,
            "clean training must converge"
        );
    }
}
