//! ANN→SNN conversion with data-based threshold balancing.
//!
//! Retraining an SNN for every `(V_th, T)` grid point of Figs. 4–7 is what
//! the paper itself calls prohibitively slow ("training AxSNNs takes a
//! very long time", Sec. V). This module implements the standard
//! substitution: train the accurate ANN twin once, then convert it to a
//! spiking network whose firing rates approximate the ANN activations.
//!
//! Conversion = weight transplant + *data-based weight normalization*:
//! each parameterized layer's weights are rescaled by `λ_{l-1} / λ_l`,
//! where `λ_l` is the maximum post-activation observed on a calibration
//! set, so normalized activations live in `[0, 1]` and map onto spike
//! rates. The user-chosen threshold voltage and time-step count then
//! control the fidelity of the rate code — reproducing the paper's
//! accuracy structure across the `(V_th, T)` grid, including the collapse
//! at very high thresholds.

use crate::ann::{AnnLayer, AnnNetwork};
use crate::layer::Layer;
use crate::network::{SnnConfig, SpikingNetwork};
use crate::{CoreError, Result};
use axsnn_tensor::Tensor;

/// Converts a trained ANN into a spiking network.
///
/// `calibration` is a set of representative inputs used to record
/// per-layer activation maxima; a handful of training samples suffices.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for an invalid `cfg` or empty
/// calibration set, and propagates structural errors.
///
/// # Example
///
/// ```
/// use axsnn_core::ann::{AnnLayer, AnnNetwork};
/// use axsnn_core::convert::ann_to_snn;
/// use axsnn_core::network::SnnConfig;
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let ann = AnnNetwork::new(vec![
///     AnnLayer::linear_relu(&mut rng, 4, 8),
///     AnnLayer::linear_out(&mut rng, 8, 2),
/// ])?;
/// let calib = vec![Tensor::ones(&[4])];
/// let snn = ann_to_snn(&ann, SnnConfig::default(), &calib)?;
/// assert_eq!(snn.depth(), 2);
/// # Ok(())
/// # }
/// ```
pub fn ann_to_snn(
    ann: &AnnNetwork,
    cfg: SnnConfig,
    calibration: &[Tensor],
) -> Result<SpikingNetwork> {
    cfg.validate()?;
    if calibration.is_empty() {
        return Err(CoreError::Config {
            message: "conversion needs a non-empty calibration set".into(),
        });
    }
    let maxima = ann.activation_maxima(calibration)?;

    let mut layers = Vec::with_capacity(ann.layers().len());
    let mut prev_lambda = 1.0f32; // inputs are in [0, 1]
    let mut pi = 0usize;
    for layer in ann.layers() {
        match layer {
            AnnLayer::ConvRelu { spec, weight, bias } => {
                let lambda = maxima[pi].max(1e-6);
                pi += 1;
                let w = weight.scale(prev_lambda / lambda);
                let b = bias.scale(1.0 / lambda);
                layers.push(Layer::spiking_conv2d_from(*spec, w, b, &cfg)?);
                prev_lambda = lambda;
            }
            AnnLayer::LinearRelu { weight, bias } => {
                let lambda = maxima[pi].max(1e-6);
                pi += 1;
                let w = weight.scale(prev_lambda / lambda);
                let b = bias.scale(1.0 / lambda);
                layers.push(Layer::spiking_linear_from(w, b, &cfg)?);
                prev_lambda = lambda;
            }
            AnnLayer::LinearOut { weight, bias } => {
                pi += 1;
                // Readout integrates spikes; only the input scale matters
                // for the argmax, the bias is spread over the T steps.
                let w = weight.scale(prev_lambda);
                let b = bias.scale(1.0 / cfg.time_steps as f32);
                layers.push(Layer::output_linear_from(w, b)?);
            }
            AnnLayer::AvgPool { window } => layers.push(Layer::avg_pool2d(*window)),
            AnnLayer::MaxPool { window } => layers.push(Layer::max_pool2d(*window)),
            AnnLayer::Flatten => layers.push(Layer::flatten()),
            AnnLayer::Dropout { probability } => layers.push(Layer::dropout(*probability)),
        }
    }
    SpikingNetwork::new(layers, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use axsnn_tensor::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Train a tiny ANN on a linearly separable 2-class problem and check
    /// the converted SNN agrees with it on most points.
    #[test]
    fn converted_snn_matches_ann_predictions() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ann = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 2, 16),
            AnnLayer::linear_out(&mut rng, 16, 2),
        ])
        .unwrap();

        // Class 0: points near (0.2, 0.2); class 1: near (0.8, 0.8).
        let mut data = Vec::new();
        for i in 0..60 {
            let c = i % 2;
            let base = if c == 0 { 0.2 } else { 0.8 };
            let x = Tensor::from_vec(
                vec![
                    (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0),
                    (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0),
                ],
                &[2],
            )
            .unwrap();
            data.push((x, c));
        }
        for _ in 0..30 {
            for (x, y) in &data {
                let (_, _, back) = ann.forward_backward(x, *y, true, &mut rng).unwrap();
                ann.apply_grads(&back.layer_grads, 0.1).unwrap();
            }
        }
        let ann_acc = data
            .iter()
            .filter(|(x, y)| ann.classify(x).unwrap() == *y)
            .count();
        assert!(
            ann_acc >= 55,
            "ANN should fit the toy set, got {ann_acc}/60"
        );

        let calib: Vec<Tensor> = data.iter().take(16).map(|(x, _)| x.clone()).collect();
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 64,
            leak: 1.0,
        };
        let mut snn = ann_to_snn(&ann, cfg, &calib).unwrap();

        let mut agree = 0usize;
        for (x, _) in &data {
            let ann_label = ann.classify(x).unwrap();
            let snn_label = snn.classify(x, Encoder::DirectCurrent, &mut rng).unwrap();
            if ann_label == snn_label {
                agree += 1;
            }
        }
        assert!(
            agree >= 50,
            "converted SNN should agree with the ANN on ≥50/60 points, got {agree}"
        );
    }

    #[test]
    fn conversion_supports_max_pool() {
        let mut rng = StdRng::seed_from_u64(1);
        let ann = AnnNetwork::new(vec![
            AnnLayer::conv_relu(
                &mut rng,
                axsnn_tensor::conv::Conv2dSpec {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            ),
            AnnLayer::MaxPool { window: 2 },
            AnnLayer::Flatten,
            AnnLayer::linear_out(&mut rng, 2 * 2 * 2, 3),
        ])
        .unwrap();
        let calib = vec![init::uniform(&mut rng, &[1, 4, 4], 1.0).clamp(0.0, 1.0)];
        let mut snn = ann_to_snn(&ann, SnnConfig::default(), &calib).unwrap();
        assert_eq!(snn.layers()[1].kind(), "max_pool2d");
        let mut rng2 = StdRng::seed_from_u64(0);
        let label = snn
            .classify(
                &Tensor::full(&[1, 4, 4], 0.5),
                Encoder::DirectCurrent,
                &mut rng2,
            )
            .unwrap();
        assert!(label < 3);
    }

    #[test]
    fn conversion_requires_calibration() {
        let mut rng = StdRng::seed_from_u64(0);
        let ann = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 2, 4),
            AnnLayer::linear_out(&mut rng, 4, 2),
        ])
        .unwrap();
        assert!(ann_to_snn(&ann, SnnConfig::default(), &[]).is_err());
    }

    /// Conversion records its λs through the batched pass, which names
    /// the first calibration sample holding a NaN or infinite pixel.
    #[test]
    fn conversion_rejects_non_finite_calibration_pixels() {
        let mut rng = StdRng::seed_from_u64(0);
        let ann = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 2, 4),
            AnnLayer::linear_out(&mut rng, 4, 2),
        ])
        .unwrap();
        let calibration = [
            Tensor::full(&[2], 0.5),
            Tensor::from_vec(vec![0.5, f32::NAN], &[2]).unwrap(),
        ];
        match ann_to_snn(&ann, SnnConfig::default(), &calibration) {
            Err(CoreError::Config { message }) => {
                assert_eq!(message, "image 1 pixel 1 is NaN, not a finite value")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn conversion_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let ann = AnnNetwork::new(vec![
            AnnLayer::conv_relu(
                &mut rng,
                axsnn_tensor::conv::Conv2dSpec {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            ),
            AnnLayer::AvgPool { window: 2 },
            AnnLayer::Flatten,
            AnnLayer::Dropout { probability: 0.25 },
            AnnLayer::linear_out(&mut rng, 2 * 2 * 2, 3),
        ])
        .unwrap();
        let calib = vec![init::uniform(&mut rng, &[1, 4, 4], 1.0).clamp(0.0, 1.0)];
        let snn = ann_to_snn(&ann, SnnConfig::default(), &calib).unwrap();
        let kinds: Vec<&str> = snn.layers().iter().map(|l| l.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "spiking_conv2d",
                "avg_pool2d",
                "flatten",
                "dropout",
                "output_linear"
            ]
        );
    }
}
