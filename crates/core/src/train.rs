//! Training loops: surrogate-gradient BPTT for SNNs and plain backprop
//! for the reference ANN (Algorithm 1's `trainAccurateSNN`).
//!
//! Both trainers consume minibatches through the batched engines:
//! [`train_snn`] encodes each chunk into
//! [`crate::fused::FrameTrain`]s and runs one recorded fused forward +
//! one reverse-time [`SpikingNetwork::backward_batch`] per minibatch
//! (event-form BPTT tape, sparse gradient kernels where the density
//! gate admits), and [`train_ann`] runs the batched GEMM
//! forward/backward of [`AnnNetwork::forward_backward_batch`]. Networks
//! with active train-mode dropout fall back to the per-sample SNN path,
//! whose per-sample mask streams the fused engine cannot reproduce.

use crate::ann::AnnNetwork;
use crate::encoding::Encoder;
use crate::fused::FrameTrain;
use crate::network::SpikingNetwork;
use crate::plan::BackwardOpts;
use crate::{CoreError, Result};
use axsnn_tensor::{ops, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters shared by the SNN and ANN trainers.
///
/// # Example
///
/// ```
/// let cfg = axsnn_core::train::TrainConfig::default();
/// assert!(cfg.learning_rate > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum (SNN trainer only; the ANN trainer is plain SGD).
    pub momentum: f32,
    /// Samples per gradient update.
    pub batch_size: usize,
    /// Spike encoder for the SNN trainer.
    pub encoder: Encoder,
    /// Backward-pass execution options (worker threads and
    /// input-gradient sparsification), consumed by the minibatched SNN
    /// backward and the batched ANN trainer. The defaults (all cores,
    /// exact gradients) never change results — gradients are
    /// thread-count invariant by construction.
    pub backward: BackwardOpts,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 8,
            encoder: Encoder::DirectCurrent,
            backward: BackwardOpts::default(),
        }
    }
}

impl TrainConfig {
    fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(CoreError::Config {
                message: "epochs and batch_size must be > 0".into(),
            });
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err(CoreError::Config {
                message: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        self.backward.validate()
    }
}

/// Per-epoch training metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean cross-entropy loss.
    pub mean_loss: f32,
    /// Training accuracy in percent.
    pub accuracy: f32,
}

/// Full training trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochReport>,
}

impl TrainReport {
    /// Final training accuracy, 0.0 when no epoch ran.
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.accuracy).unwrap_or(0.0)
    }
}

/// Trains a spiking network in place with surrogate-gradient BPTT.
///
/// `data` is a slice of `(image, label)` pairs with intensities in
/// `[0, 1]`.
///
/// Each minibatch runs as **one** recorded fused batch forward
/// ([`SpikingNetwork::forward_batch_recorded`]) and one reverse-time
/// [`SpikingNetwork::backward_batch`], so the spike-plane GEMM engine
/// and the event-form BPTT tape carry the activity-proportional cost
/// model into training. Networks with active train-mode dropout take
/// the per-sample recorded path instead (the fused engine cannot
/// reproduce per-sample mask streams); encoder randomness is drawn in
/// sample order either way, so the two paths see identical frames and
/// differ only in the f32 summation order of the minibatch gradient.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for invalid hyper-parameters or empty
/// data, and propagates simulation errors.
pub fn train_snn<R: Rng>(
    net: &mut SpikingNetwork,
    data: &[(Tensor, usize)],
    cfg: &TrainConfig,
    rng: &mut R,
) -> Result<TrainReport> {
    cfg.validate()?;
    if data.is_empty() {
        return Err(CoreError::Config {
            message: "training data must be non-empty".into(),
        });
    }
    let time_steps = net.config().time_steps;
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut report = TrainReport::default();
    net.set_train_mode(true);
    let fused = !net.train_dropout_active();
    for epoch in 0..cfg.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            net.zero_grads();
            let scale = 1.0 / chunk.len() as f32;
            if fused {
                let mut trains = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    trains.push(FrameTrain::encode(
                        &data[i].0,
                        cfg.encoder,
                        time_steps,
                        rng,
                    )?);
                }
                let (out, tape) = net.forward_batch_recorded(&trains)?;
                let classes = out.logits.shape().dims()[1];
                let logits = out.logits.as_slice();
                let mut grad_block = vec![0.0f32; chunk.len() * classes];
                for (r, &i) in chunk.iter().enumerate() {
                    let label = data[i].1;
                    let row = Tensor::from_vec(
                        logits[r * classes..(r + 1) * classes].to_vec(),
                        &[classes],
                    )?;
                    let (loss, grad) = ops::cross_entropy_with_grad(&row, label)?;
                    loss_sum += loss;
                    if row.argmax() == Some(label) {
                        correct += 1;
                    }
                    for (slot, &g) in grad_block[r * classes..(r + 1) * classes]
                        .iter_mut()
                        .zip(grad.scale(scale).as_slice())
                    {
                        *slot = g;
                    }
                }
                let grad_block = Tensor::from_vec(grad_block, &[chunk.len(), classes])?;
                net.backward_batch_with(&tape, &grad_block, &cfg.backward)?;
            } else {
                for &i in chunk {
                    let (image, label) = &data[i];
                    let frames = cfg.encoder.encode(image, time_steps, rng)?;
                    let out = net.forward(&frames, true, rng)?;
                    let (loss, grad) = ops::cross_entropy_with_grad(&out.logits, *label)?;
                    loss_sum += loss;
                    if out.logits.argmax() == Some(*label) {
                        correct += 1;
                    }
                    net.backward(&grad.scale(scale), time_steps)?;
                }
            }
            net.apply_grads(cfg.learning_rate, cfg.momentum)?;
        }
        report.epochs.push(EpochReport {
            epoch,
            mean_loss: loss_sum / data.len() as f32,
            accuracy: 100.0 * correct as f32 / data.len() as f32,
        });
    }
    net.set_train_mode(false);
    Ok(report)
}

/// Evaluates SNN classification accuracy (percent) on a dataset.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn evaluate_snn<R: Rng>(
    net: &mut SpikingNetwork,
    data: &[(Tensor, usize)],
    encoder: Encoder,
    rng: &mut R,
) -> Result<f32> {
    net.set_train_mode(false);
    let mut pred = Vec::with_capacity(data.len());
    let mut truth = Vec::with_capacity(data.len());
    for (image, label) in data {
        pred.push(net.classify(image, encoder, rng)?);
        truth.push(*label);
    }
    Ok(ops::accuracy_percent(&pred, &truth))
}

/// Trains the reference ANN in place with minibatch SGD.
///
/// Each minibatch runs as one batched GEMM forward/backward
/// ([`AnnNetwork::forward_backward_batch`]); for dropout-free networks
/// the updates are bit-identical to the per-sample accumulation loop
/// this replaces.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for invalid hyper-parameters or empty
/// data, and propagates errors from the network.
pub fn train_ann<R: Rng>(
    net: &mut AnnNetwork,
    data: &[(Tensor, usize)],
    cfg: &TrainConfig,
    rng: &mut R,
) -> Result<TrainReport> {
    cfg.validate()?;
    if data.is_empty() {
        return Err(CoreError::Config {
            message: "training data must be non-empty".into(),
        });
    }
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut report = TrainReport::default();
    for epoch in 0..cfg.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let scale = 1.0 / chunk.len() as f32;
            let inputs: Vec<Tensor> = chunk.iter().map(|&i| data[i].0.clone()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| data[i].1).collect();
            let out =
                net.forward_backward_batch_with(&inputs, &labels, true, rng, &cfg.backward)?;
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
            net.apply_grads(&out.layer_grads, cfg.learning_rate * scale)?;
        }
        report.epochs.push(EpochReport {
            epoch,
            mean_loss: loss_sum / data.len() as f32,
            accuracy: 100.0 * correct as f32 / data.len() as f32,
        });
    }
    Ok(report)
}

/// Evaluates ANN classification accuracy (percent) on a dataset.
///
/// # Errors
///
/// Propagates forward errors.
pub fn evaluate_ann(net: &AnnNetwork, data: &[(Tensor, usize)]) -> Result<f32> {
    let mut pred = Vec::with_capacity(data.len());
    let mut truth = Vec::with_capacity(data.len());
    for (image, label) in data {
        pred.push(net.classify(image)?);
        truth.push(*label);
    }
    Ok(ops::accuracy_percent(&pred, &truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::AnnLayer;
    use crate::layer::Layer;
    use crate::network::SnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two-blob toy dataset in [0,1]^4.
    fn toy_data(rng: &mut StdRng, n: usize) -> Vec<(Tensor, usize)> {
        (0..n)
            .map(|i| {
                let c = i % 2;
                let base = if c == 0 { 0.15 } else { 0.85 };
                let x = Tensor::from_vec(
                    (0..4)
                        .map(|_| (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0))
                        .collect(),
                    &[4],
                )
                .unwrap();
                (x, c)
            })
            .collect()
    }

    #[test]
    fn train_config_validation() {
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = TrainConfig {
            learning_rate: -1.0,
            ..TrainConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn snn_learns_toy_problem() {
        let mut rng = StdRng::seed_from_u64(77);
        let data = toy_data(&mut rng, 40);
        let cfg = SnnConfig {
            threshold: 0.75,
            time_steps: 12,
            leak: 0.9,
        };
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 24, &cfg),
                Layer::output_linear(&mut rng, 24, 2),
            ],
            cfg,
        )
        .unwrap();
        let tcfg = TrainConfig {
            epochs: 15,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 8,
            encoder: Encoder::DirectCurrent,
            ..TrainConfig::default()
        };
        let report = train_snn(&mut net, &data, &tcfg, &mut rng).unwrap();
        let acc = evaluate_snn(&mut net, &data, Encoder::DirectCurrent, &mut rng).unwrap();
        assert!(
            acc >= 85.0,
            "surrogate BPTT should fit a separable toy set; got {acc}% (report {report:?})"
        );
    }

    #[test]
    fn ann_learns_toy_problem() {
        let mut rng = StdRng::seed_from_u64(42);
        let data = toy_data(&mut rng, 40);
        let mut net = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 4, 16),
            AnnLayer::linear_out(&mut rng, 16, 2),
        ])
        .unwrap();
        let tcfg = TrainConfig {
            epochs: 25,
            learning_rate: 0.2,
            momentum: 0.0,
            batch_size: 8,
            encoder: Encoder::DirectCurrent,
            ..TrainConfig::default()
        };
        train_ann(&mut net, &data, &tcfg, &mut rng).unwrap();
        let acc = evaluate_ann(&net, &data).unwrap();
        assert!(acc >= 95.0, "ANN should fit the toy set; got {acc}%");
    }

    #[test]
    fn empty_data_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig::default();
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 4, &cfg),
                Layer::output_linear(&mut rng, 4, 2),
            ],
            cfg,
        )
        .unwrap();
        assert!(train_snn(&mut net, &[], &TrainConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = toy_data(&mut rng, 30);
        let cfg = SnnConfig {
            threshold: 0.75,
            time_steps: 10,
            leak: 0.9,
        };
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 16, &cfg),
                Layer::output_linear(&mut rng, 16, 2),
            ],
            cfg,
        )
        .unwrap();
        let tcfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let report = train_snn(&mut net, &data, &tcfg, &mut rng).unwrap();
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first, "loss should fall: {first} → {last}");
    }
}
