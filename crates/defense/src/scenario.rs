//! Reusable end-to-end experiment scenarios.
//!
//! The benchmark harness, examples and integration tests all need the
//! same pipeline: generate a dataset, train the accurate ANN twin,
//! convert to an (Acc/Ax)SNN at a given `(V_th, T)`, then attack and
//! defend. This module packages those steps so every figure/table bench
//! is a short script.
//!
//! Two architectures are provided per dataset:
//!
//! * [`Architecture::PaperConv`] — the paper's topology (MNIST: 3 conv +
//!   2 pool + 2 FC = 7 layers; DVS: 2 conv + 3 pool + 1 dropout + 2 FC =
//!   8 layers),
//! * [`Architecture::FastMlp`] — a small MLP used for the wide
//!   `(V_th, T)` sweeps so the full grid reproduces in CI time (the
//!   paper itself notes per-grid-point SNN training is prohibitively
//!   slow).

use crate::Result;
use axsnn_core::ann::{AnnLayer, AnnNetwork};
use axsnn_core::approx::{apply_quantile_approximation, ApproximationLevel};
use axsnn_core::convert::ann_to_snn;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::ExecPlan;
use axsnn_core::train::{evaluate_ann, train_ann, TrainConfig, TrainReport};
use axsnn_datasets::dvs::{DvsGestureConfig, SyntheticDvsGestures, CLASSES as DVS_CLASSES};
use axsnn_datasets::mnist::{MnistConfig, SyntheticMnist, CLASSES as MNIST_CLASSES};
use axsnn_datasets::Dataset;
use axsnn_neuromorphic::event::EventStream;
use axsnn_neuromorphic::frames::{accumulate_frames, Accumulation};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model topology choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// The paper's convolutional stack.
    PaperConv,
    /// A compact MLP for fast grid sweeps.
    FastMlp,
}

/// Builds the paper's 7-layer MNIST ANN (3 conv, 2 pool, 2 FC) for an
/// `S × S` input.
///
/// The pools are **max** pools: the paper's topology only fixes the
/// 2× down-sampling, and average pooling de-binarizes the inter-layer
/// spike frames after conversion, silently forcing every downstream
/// layer onto the dense kernels (PR 1 measured 1.1× → 6.9× end-to-end
/// from this one switch; `SpikingNetwork::sparse_eligible` and the
/// dense-fallback counters now make the degradation observable).
///
/// # Panics
///
/// Panics when `size` is not divisible by 4 (two 2× pools).
pub fn mnist_conv_ann<R: Rng>(rng: &mut R, size: usize) -> AnnNetwork {
    assert!(
        size.is_multiple_of(4),
        "image size {size} must be divisible by 4"
    );
    let s4 = size / 4;
    AnnNetwork::new(vec![
        AnnLayer::conv_relu(
            rng,
            Conv2dSpec {
                in_channels: 1,
                out_channels: 8,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
        ),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::conv_relu(
            rng,
            Conv2dSpec {
                in_channels: 8,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
        ),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::conv_relu(
            rng,
            Conv2dSpec {
                in_channels: 16,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        AnnLayer::Flatten,
        AnnLayer::linear_relu(rng, 16 * s4 * s4, 64),
        AnnLayer::linear_out(rng, 64, MNIST_CLASSES),
    ])
    .expect("static topology is valid")
}

/// Builds a compact MLP MNIST ANN for fast sweeps.
pub fn mnist_mlp_ann<R: Rng>(rng: &mut R, size: usize) -> AnnNetwork {
    AnnNetwork::new(vec![
        AnnLayer::Flatten,
        AnnLayer::linear_relu(rng, size * size, 96),
        AnnLayer::linear_relu(rng, 96, 64),
        AnnLayer::linear_out(rng, 64, MNIST_CLASSES),
    ])
    .expect("static topology is valid")
}

/// Builds the paper's 8-layer DVS ANN (2 conv, 3 pool, 1 dropout, 2 FC)
/// for a `2 × S × S` event-frame input.
///
/// Max pooling throughout, for the same sparse-path-eligibility reason
/// as [`mnist_conv_ann`] — on the DVS pipeline every inter-layer frame
/// is a binary event plane, which max pooling preserves and average
/// pooling destroys.
///
/// # Panics
///
/// Panics when `size` is not divisible by 8 (three 2× pools).
pub fn dvs_conv_ann<R: Rng>(rng: &mut R, size: usize) -> AnnNetwork {
    assert!(
        size.is_multiple_of(8),
        "sensor size {size} must be divisible by 8"
    );
    let s8 = size / 8;
    AnnNetwork::new(vec![
        AnnLayer::conv_relu(
            rng,
            Conv2dSpec {
                in_channels: 2,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::conv_relu(
            rng,
            Conv2dSpec {
                in_channels: 8,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::Dropout { probability: 0.1 },
        AnnLayer::Flatten,
        AnnLayer::linear_out(rng, 16 * s8 * s8, DVS_CLASSES),
    ])
    .expect("static topology is valid")
}

/// Builds a compact MLP DVS ANN for fast sweeps.
pub fn dvs_mlp_ann<R: Rng>(rng: &mut R, size: usize) -> AnnNetwork {
    AnnNetwork::new(vec![
        AnnLayer::Flatten,
        AnnLayer::linear_relu(rng, 2 * size * size, 96),
        AnnLayer::linear_out(rng, 96, DVS_CLASSES),
    ])
    .expect("static topology is valid")
}

/// Configuration of the MNIST scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnistScenarioConfig {
    /// Dataset generation parameters.
    pub mnist: MnistConfig,
    /// Model topology.
    pub architecture: Architecture,
    /// ANN training hyper-parameters.
    pub train: TrainConfig,
    /// Seed for model initialization and training order.
    pub seed: u64,
}

impl Default for MnistScenarioConfig {
    fn default() -> Self {
        MnistScenarioConfig {
            mnist: MnistConfig {
                size: 16,
                train_per_class: 40,
                test_per_class: 8,
                ..MnistConfig::default()
            },
            architecture: Architecture::FastMlp,
            train: TrainConfig {
                epochs: 12,
                learning_rate: 0.1,
                momentum: 0.0,
                batch_size: 16,
                ..TrainConfig::default()
            },
            seed: 1,
        }
    }
}

/// A prepared MNIST experiment: dataset + trained accurate ANN.
///
/// # Example
///
/// ```no_run
/// use axsnn_defense::scenario::{MnistScenario, MnistScenarioConfig};
/// use axsnn_core::network::SnnConfig;
///
/// # fn main() -> Result<(), axsnn_defense::DefenseError> {
/// let scenario = MnistScenario::prepare(MnistScenarioConfig::default())?;
/// let snn = scenario.acc_snn(SnnConfig { threshold: 1.0, time_steps: 32, leak: 0.9 })?;
/// assert!(snn.depth() > 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MnistScenario {
    config: MnistScenarioConfig,
    dataset: Dataset<Tensor>,
    ann: AnnNetwork,
    adversary: AnnNetwork,
    train_report: TrainReport,
    calibration: Vec<Tensor>,
}

impl MnistScenario {
    /// Generates the dataset and trains two accurate ANNs: the victim's
    /// (used for conversion) and the *adversary's own* surrogate — per the
    /// threat model (Sec. III) the attacker knows the architecture and
    /// training data but not the victim's exact parameters, so attacks
    /// are crafted on an independently trained twin and transferred.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn prepare(config: MnistScenarioConfig) -> Result<Self> {
        let dataset = SyntheticMnist::new(config.mnist).generate();
        let build = |seed: u64| -> Result<(AnnNetwork, TrainReport)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ann = match config.architecture {
                Architecture::PaperConv => mnist_conv_ann(&mut rng, config.mnist.size),
                Architecture::FastMlp => mnist_mlp_ann(&mut rng, config.mnist.size),
            };
            let report = train_ann(&mut ann, &dataset.train, &config.train, &mut rng)?;
            Ok((ann, report))
        };
        let (ann, train_report) = build(config.seed)?;
        let (adversary, _) = build(config.seed ^ 0xadbe_ef01)?;
        let calibration: Vec<Tensor> = dataset
            .train
            .iter()
            .take(32)
            .map(|(x, _)| x.clone())
            .collect();
        Ok(MnistScenario {
            config,
            dataset,
            ann,
            adversary,
            train_report,
            calibration,
        })
    }

    /// The adversary's independently trained accurate classifier (the
    /// model PGD/BIM gradients are taken on in the paper's threat model).
    pub fn adversary(&self) -> &AnnNetwork {
        &self.adversary
    }

    /// The scenario configuration.
    pub fn config(&self) -> &MnistScenarioConfig {
        &self.config
    }

    /// The generated dataset.
    pub fn dataset(&self) -> &Dataset<Tensor> {
        &self.dataset
    }

    /// The trained accurate ANN (the adversary's surrogate).
    pub fn ann(&self) -> &AnnNetwork {
        &self.ann
    }

    /// Training trace of the ANN.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Test accuracy of the accurate ANN.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn ann_test_accuracy(&self) -> Result<f32> {
        Ok(evaluate_ann(&self.ann, &self.dataset.test)?)
    }

    /// Converts the accurate ANN into an AccSNN at `(V_th, T)`.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn acc_snn(&self, cfg: SnnConfig) -> Result<SpikingNetwork> {
        Ok(ann_to_snn(&self.ann, cfg, &self.calibration)?)
    }

    /// Converts and approximates: an AxSNN at `(V_th, T)` with the given
    /// relative approximation level (Figs. 1–3 sweep this).
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn ax_snn(&self, cfg: SnnConfig, level: ApproximationLevel) -> Result<SpikingNetwork> {
        let mut net = self.acc_snn(cfg)?;
        apply_quantile_approximation(&mut net, level);
        Ok(net)
    }

    /// The execution plan the kernel-dispatch layer derives for this
    /// scenario's converted SNN at `cfg` — per-layer kernel choices
    /// (for the paper conv architecture: event-sorted batched conv on
    /// every conv layer) plus the sparse-path eligibility audit. Sweeps
    /// construct it once and print
    /// [`axsnn_core::plan::ExecPlan::summary`] to see where the
    /// activity-proportional kernels will engage before running
    /// anything.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn exec_plan(&self, cfg: SnnConfig) -> Result<ExecPlan> {
        Ok(self.acc_snn(cfg)?.exec_plan().clone())
    }
}

/// Configuration of the DVS gesture scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsScenarioConfig {
    /// Dataset generation parameters.
    pub dvs: DvsGestureConfig,
    /// Model topology.
    pub architecture: Architecture,
    /// ANN training hyper-parameters.
    pub train: TrainConfig,
    /// Time steps used to derive the ANN's mean-frame training images
    /// (kept fixed; the SNN's own `T` may differ).
    pub rate_time_steps: usize,
    /// Seed for model initialization and training order.
    pub seed: u64,
}

impl Default for DvsScenarioConfig {
    fn default() -> Self {
        DvsScenarioConfig {
            dvs: DvsGestureConfig::default(),
            architecture: Architecture::FastMlp,
            train: TrainConfig {
                epochs: 15,
                learning_rate: 0.1,
                momentum: 0.0,
                batch_size: 16,
                ..TrainConfig::default()
            },
            rate_time_steps: 32,
            seed: 2,
        }
    }
}

/// Mean binary-frame image of an event stream — the static surrogate the
/// accurate ANN trains on (its intensity statistics match what the SNN
/// sees per time step under direct-current drive).
///
/// # Errors
///
/// Propagates frame-accumulation failures.
pub fn mean_frame_image(stream: &EventStream, time_steps: usize) -> Result<Tensor> {
    let frames = accumulate_frames(stream, time_steps, Accumulation::Binary)?;
    let mut acc = Tensor::zeros(frames[0].shape().dims());
    for f in &frames {
        acc = acc.add(f).map_err(axsnn_core::CoreError::from)?;
    }
    Ok(acc.scale(1.0 / time_steps as f32))
}

/// A prepared DVS gesture experiment: event dataset + trained ANN.
#[derive(Debug, Clone)]
pub struct DvsScenario {
    config: DvsScenarioConfig,
    dataset: Dataset<EventStream>,
    ann: AnnNetwork,
    adversary: AnnNetwork,
    train_report: TrainReport,
    calibration: Vec<Tensor>,
}

impl DvsScenario {
    /// Generates the event dataset, derives mean-frame images and trains
    /// the accurate ANN on them (plus the adversary's independently
    /// trained twin, as in [`MnistScenario::prepare`]).
    ///
    /// # Errors
    ///
    /// Propagates accumulation/training failures.
    pub fn prepare(config: DvsScenarioConfig) -> Result<Self> {
        let dataset = SyntheticDvsGestures::new(config.dvs).generate();
        let train_images: Vec<(Tensor, usize)> = dataset
            .train
            .iter()
            .map(|(s, l)| Ok((mean_frame_image(s, config.rate_time_steps)?, *l)))
            .collect::<Result<_>>()?;
        let build = |seed: u64| -> Result<(AnnNetwork, TrainReport)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ann = match config.architecture {
                Architecture::PaperConv => dvs_conv_ann(&mut rng, config.dvs.width),
                Architecture::FastMlp => dvs_mlp_ann(&mut rng, config.dvs.width),
            };
            let report = train_ann(&mut ann, &train_images, &config.train, &mut rng)?;
            Ok((ann, report))
        };
        let (ann, train_report) = build(config.seed)?;
        let (adversary, _) = build(config.seed ^ 0xadbe_ef01)?;
        let calibration: Vec<Tensor> = train_images
            .iter()
            .take(32)
            .map(|(x, _)| x.clone())
            .collect();
        Ok(DvsScenario {
            config,
            dataset,
            ann,
            adversary,
            train_report,
            calibration,
        })
    }

    /// The adversary's independently trained accurate model; its SNN
    /// conversion is the surrogate the Sparse attack queries.
    pub fn adversary(&self) -> &AnnNetwork {
        &self.adversary
    }

    /// The adversary's surrogate spiking network at `(V_th, T)` —
    /// converted from [`DvsScenario::adversary`].
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn adversary_snn(&self, cfg: SnnConfig) -> Result<SpikingNetwork> {
        Ok(ann_to_snn(&self.adversary, cfg, &self.calibration)?)
    }

    /// The scenario configuration.
    pub fn config(&self) -> &DvsScenarioConfig {
        &self.config
    }

    /// The generated event dataset.
    pub fn dataset(&self) -> &Dataset<EventStream> {
        &self.dataset
    }

    /// The trained accurate ANN.
    pub fn ann(&self) -> &AnnNetwork {
        &self.ann
    }

    /// Training trace of the ANN.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Converts the accurate ANN into an AccSNN at `(V_th, T)`.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn acc_snn(&self, cfg: SnnConfig) -> Result<SpikingNetwork> {
        Ok(ann_to_snn(&self.ann, cfg, &self.calibration)?)
    }

    /// Converts and approximates into an AxSNN.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn ax_snn(&self, cfg: SnnConfig, level: ApproximationLevel) -> Result<SpikingNetwork> {
        let mut net = self.acc_snn(cfg)?;
        apply_quantile_approximation(&mut net, level);
        Ok(net)
    }

    /// The execution plan of this scenario's converted SNN at `cfg`
    /// (see [`MnistScenario::exec_plan`]).
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    pub fn exec_plan(&self, cfg: SnnConfig) -> Result<ExecPlan> {
        Ok(self.acc_snn(cfg)?.exec_plan().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mnist() -> MnistScenarioConfig {
        MnistScenarioConfig {
            mnist: MnistConfig {
                size: 16,
                train_per_class: 12,
                test_per_class: 4,
                noise: 0.03,
                seed: 5,
            },
            architecture: Architecture::FastMlp,
            train: TrainConfig {
                epochs: 10,
                learning_rate: 0.1,
                momentum: 0.0,
                batch_size: 10,
                ..TrainConfig::default()
            },
            seed: 5,
        }
    }

    #[test]
    fn mnist_scenario_trains_above_chance() {
        let s = MnistScenario::prepare(small_mnist()).unwrap();
        let acc = s.ann_test_accuracy().unwrap();
        assert!(acc > 40.0, "ANN should beat 10% chance clearly, got {acc}%");
    }

    #[test]
    fn mnist_snn_conversion_works() {
        let s = MnistScenario::prepare(small_mnist()).unwrap();
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 24,
            leak: 1.0,
        };
        let mut snn = s.acc_snn(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let acc = crate::metrics::clean_image_accuracy(
            &mut snn,
            &s.dataset().test,
            axsnn_core::encoding::Encoder::DirectCurrent,
            &mut rng,
        )
        .unwrap();
        assert!(acc > 30.0, "converted SNN accuracy {acc}% too low");
    }

    #[test]
    fn ax_snn_level_one_is_chance() {
        let s = MnistScenario::prepare(small_mnist()).unwrap();
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 16,
            leak: 1.0,
        };
        let mut ax = s
            .ax_snn(cfg, ApproximationLevel::new(1.0).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let acc = crate::metrics::clean_image_accuracy(
            &mut ax,
            &s.dataset().test,
            axsnn_core::encoding::Encoder::DirectCurrent,
            &mut rng,
        )
        .unwrap();
        assert!(
            acc <= 25.0,
            "fully approximated SNN must be ~chance, got {acc}%"
        );
    }

    #[test]
    fn conv_architectures_build() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mnist_conv_ann(&mut rng, 16);
        assert_eq!(m.layers().len(), 8);
        let d = dvs_conv_ann(&mut rng, 32);
        assert_eq!(d.layers().len(), 8);
    }

    /// The plan audit: both paper architectures convert into SNNs whose
    /// execution plan is fully sparse-eligible (no silent dense-path
    /// degradation anywhere) and selects the event-sorted batched conv
    /// kernel for every conv layer.
    #[test]
    fn paper_architectures_build_fully_sparse_event_sorted_plans() {
        use axsnn_core::convert::ann_to_snn;
        use axsnn_core::plan::{ConvBatchKernel, ExecPlan};
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 8,
            leak: 0.9,
        };
        let check_plan = |plan: &ExecPlan, what: &str| {
            let report = plan.eligibility();
            assert!(
                report.fully_eligible,
                "{what} must be sparse-eligible end to end: {report:?}"
            );
            assert_eq!(report.first_debinarizing, None, "{what}");
            let conv_kernels: Vec<_> = plan
                .layers()
                .iter()
                .filter(|l| l.kind == "spiking_conv2d")
                .map(|l| l.conv_batch)
                .collect();
            assert!(!conv_kernels.is_empty(), "{what} has conv layers");
            assert!(
                conv_kernels
                    .iter()
                    .all(|k| *k == Some(ConvBatchKernel::EventSorted)),
                "{what} conv layers must select the event-sorted kernel: {conv_kernels:?}"
            );
        };
        let calib = vec![Tensor::full(&[1, 16, 16], 0.5)];
        let mnist = ann_to_snn(&mnist_conv_ann(&mut rng, 16), cfg, &calib).unwrap();
        check_plan(mnist.exec_plan(), "MNIST paper net");

        let dvs_calib = vec![Tensor::full(&[2, 32, 32], 0.5)];
        let dvs = ann_to_snn(&dvs_conv_ann(&mut rng, 32), cfg, &dvs_calib).unwrap();
        check_plan(dvs.exec_plan(), "DVS paper net");
    }

    /// Scenario-level plan construction: the prepared scenario hands
    /// sweeps the converted network's execution plan directly.
    #[test]
    fn scenario_exec_plan_is_constructible() {
        let s = MnistScenario::prepare(small_mnist()).unwrap();
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 16,
            leak: 0.9,
        };
        let plan = s.exec_plan(cfg).unwrap();
        assert_eq!(plan.layers().len(), s.acc_snn(cfg).unwrap().depth());
        assert!(!plan.summary().is_empty());
    }

    /// A scenario-converted SNN executes end to end on the reduced-
    /// precision weight planes: the plan records the plane per param
    /// layer, and the quantized model's clean accuracy stays in the same
    /// ballpark as full precision (int8 on a trained MLP is a mild
    /// perturbation, not a lobotomy).
    #[test]
    fn scenario_snn_runs_on_reduced_precision_planes() {
        use axsnn_core::plan::WeightPlane;
        let s = MnistScenario::prepare(small_mnist()).unwrap();
        let cfg = SnnConfig {
            threshold: 1.0,
            time_steps: 16,
            leak: 1.0,
        };
        let mut f32_snn = s.acc_snn(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let f32_acc = crate::metrics::clean_image_accuracy(
            &mut f32_snn,
            &s.dataset().test,
            axsnn_core::encoding::Encoder::DirectCurrent,
            &mut rng,
        )
        .unwrap();
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let mut snn = s.acc_snn(cfg).unwrap();
            snn.set_weight_plane(plane).unwrap();
            for entry in snn.exec_plan().layers() {
                if entry.kind == "spiking_linear" || entry.kind == "output_linear" {
                    assert_eq!(entry.plane, Some(plane), "{}", entry.kind);
                }
            }
            let mut rng = StdRng::seed_from_u64(0);
            let acc = crate::metrics::clean_image_accuracy(
                &mut snn,
                &s.dataset().test,
                axsnn_core::encoding::Encoder::DirectCurrent,
                &mut rng,
            )
            .unwrap();
            assert!(
                (acc - f32_acc).abs() <= 20.0,
                "{plane} accuracy {acc}% too far from f32 {f32_acc}%"
            );
        }
    }

    #[test]
    fn mean_frame_image_statistics() {
        let gen = SyntheticDvsGestures::new(DvsGestureConfig {
            train_per_class: 1,
            test_per_class: 0,
            ..DvsGestureConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let stream = gen.generate_sample(0, &mut rng);
        let img = mean_frame_image(&stream, 16).unwrap();
        assert_eq!(img.shape().dims(), &[2, 32, 32]);
        assert!(img.max() <= 1.0 && img.min() >= 0.0);
        assert!(img.sum() > 0.0);
    }

    #[test]
    fn dvs_scenario_trains_above_chance() {
        let cfg = DvsScenarioConfig {
            dvs: DvsGestureConfig {
                train_per_class: 6,
                test_per_class: 2,
                micro_steps: 60,
                events_per_step: 4,
                noise_events: 10,
                ..DvsGestureConfig::default()
            },
            train: TrainConfig {
                epochs: 12,
                learning_rate: 0.1,
                momentum: 0.0,
                batch_size: 11,
                ..TrainConfig::default()
            },
            ..DvsScenarioConfig::default()
        };
        let s = DvsScenario::prepare(cfg).unwrap();
        // Chance is ~9% on 11 classes.
        let test_images: Vec<(Tensor, usize)> = s
            .dataset()
            .test
            .iter()
            .map(|(st, l)| (mean_frame_image(st, 32).unwrap(), *l))
            .collect();
        let acc = evaluate_ann(s.ann(), &test_images).unwrap();
        assert!(acc > 30.0, "DVS ANN should beat chance clearly, got {acc}%");
    }
}
