//! Robustness evaluation metrics.
//!
//! Implements the paper's robustness accounting: an attack *succeeds* on a
//! sample when the victim's prediction under the adversarial input differs
//! from the true label; `R(ε) = (1 − adv/|Dts|)·100` (Algorithm 1,
//! line 21). Accuracy loss is always reported against a caller-supplied
//! baseline (the AccSNN's clean accuracy in most of the paper's tables).

use crate::{DefenseError, Result};
use axsnn_attacks::gradient::{GradientSource, ImageAttack};
use axsnn_attacks::neuromorphic::{
    EventModel, FrameAttack, SnnEventModel, SparseAttack, StreamingSnnEventModel,
};
use axsnn_core::encoding::Encoder;
use axsnn_core::network::SpikingNetwork;
use axsnn_neuromorphic::aqf::{approximate_quantized_filter, AqfConfig};
use axsnn_neuromorphic::event::EventStream;
use axsnn_tensor::Tensor;
use rand::Rng;

/// Outcome of a robustness evaluation.
///
/// # Example
///
/// ```
/// use axsnn_defense::metrics::RobustnessOutcome;
///
/// let o = RobustnessOutcome { clean_accuracy: 92.0, adversarial_accuracy: 15.0, robustness: 15.0, samples: 44 };
/// assert_eq!(o.accuracy_loss(), 77.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessOutcome {
    /// Accuracy on clean inputs, percent.
    pub clean_accuracy: f32,
    /// Accuracy under attack, percent.
    pub adversarial_accuracy: f32,
    /// The paper's `R(ε)` — rate of failed attacks, percent.
    pub robustness: f32,
    /// Number of evaluated samples.
    pub samples: usize,
}

impl RobustnessOutcome {
    /// Accuracy loss of the attacked model against its own clean
    /// accuracy.
    pub fn accuracy_loss(&self) -> f32 {
        self.clean_accuracy - self.adversarial_accuracy
    }

    /// Accuracy loss against an external baseline (e.g. the AccSNN's
    /// clean accuracy, the comparison the paper's headline numbers use).
    pub fn accuracy_loss_vs(&self, baseline_accuracy: f32) -> f32 {
        baseline_accuracy - self.adversarial_accuracy
    }
}

/// Evaluates a spiking network under a gradient-based image attack.
///
/// For every `(image, label)` pair the attack crafts an adversarial image
/// through `source` (the adversary's surrogate, usually the accurate ANN)
/// and the victim SNN classifies both the clean and adversarial image.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data and propagates
/// attack/model failures.
pub fn evaluate_image_attack<A: ImageAttack, R: Rng>(
    victim: &mut SpikingNetwork,
    source: &mut dyn GradientSource,
    attack: &A,
    data: &[(Tensor, usize)],
    encoder: Encoder,
    rng: &mut R,
) -> Result<RobustnessOutcome> {
    if data.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "evaluation data must be non-empty".into(),
        });
    }
    let mut clean_correct = 0usize;
    let mut adv_correct = 0usize;
    for (image, label) in data {
        if victim.classify(image, encoder, rng)? == *label {
            clean_correct += 1;
        }
        let adversarial = attack.perturb(source, image, *label, rng)?;
        if victim.classify(&adversarial, encoder, rng)? == *label {
            adv_correct += 1;
        }
    }
    let n = data.len() as f32;
    let adv_acc = 100.0 * adv_correct as f32 / n;
    Ok(RobustnessOutcome {
        clean_accuracy: 100.0 * clean_correct as f32 / n,
        adversarial_accuracy: adv_acc,
        robustness: adv_acc,
        samples: data.len(),
    })
}

/// Evaluates clean accuracy of a spiking network on image data.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data.
pub fn clean_image_accuracy<R: Rng>(
    victim: &mut SpikingNetwork,
    data: &[(Tensor, usize)],
    encoder: Encoder,
    rng: &mut R,
) -> Result<f32> {
    if data.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "evaluation data must be non-empty".into(),
        });
    }
    let mut correct = 0usize;
    for (image, label) in data {
        if victim.classify(image, encoder, rng)? == *label {
            correct += 1;
        }
    }
    Ok(100.0 * correct as f32 / data.len() as f32)
}

/// Parallel clean accuracy: fans the batch out across threads via
/// [`SpikingNetwork::evaluate_batch`] (`threads == 0` uses all cores;
/// results are identical for every thread count).
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data.
pub fn clean_image_accuracy_parallel(
    victim: &SpikingNetwork,
    data: &[(Tensor, usize)],
    encoder: Encoder,
    seed: u64,
    threads: usize,
) -> Result<f32> {
    if data.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "evaluation data must be non-empty".into(),
        });
    }
    Ok(victim
        .evaluate_batch(data, encoder, seed, threads)?
        .accuracy)
}

/// Evaluates a spiking network under a gradient-based image attack with
/// the work fanned out across threads.
///
/// The parallel counterpart of [`evaluate_image_attack`] for the
/// paper's robustness tables: every worker owns a clone of the victim
/// and a fresh gradient source from `make_source`, and each sample
/// draws its encoder randomness from `seed` mixed with the sample's
/// global index (via [`axsnn_core::batch::sample_seed`]).
///
/// Results are identical for every thread count (`threads == 0` uses
/// all available cores) **provided the gradient source is per-call
/// deterministic** — i.e. `loss_gradient(image, label)` depends only
/// on its arguments, as [`axsnn_attacks::gradient::AnnGradientSource`]
/// and [`axsnn_attacks::gradient::SnnGradientSource`] do. A source
/// carrying mutable cross-call state (its own RNG, iteration counters)
/// sees a different call sequence per worker and loses that guarantee.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data and propagates
/// the first attack/model failure.
pub fn evaluate_image_attack_parallel<A, S, F>(
    victim: &SpikingNetwork,
    make_source: F,
    attack: &A,
    data: &[(Tensor, usize)],
    encoder: Encoder,
    seed: u64,
    threads: usize,
) -> Result<RobustnessOutcome>
where
    A: ImageAttack + Sync,
    S: GradientSource,
    F: Fn() -> S + Sync,
{
    use axsnn_core::batch::{fan_out_with, sample_seed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    if data.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "evaluation data must be non-empty".into(),
        });
    }
    // Per-sample outcome flags: bit 0 = clean correct, bit 1 = adversarial
    // correct.
    let flags: Vec<u8> = fan_out_with(
        data.len(),
        threads,
        || (victim.clone(), make_source()),
        |(net, source), i, slot: &mut u8| -> Result<()> {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            let (image, label) = &data[i];
            if net.classify(image, encoder, &mut rng)? == *label {
                *slot |= 1;
            }
            let adversarial = attack.perturb(source, image, *label, &mut rng)?;
            if net.classify(&adversarial, encoder, &mut rng)? == *label {
                *slot |= 2;
            }
            Ok(())
        },
    )?;
    let clean_correct = flags.iter().filter(|f| **f & 1 != 0).count();
    let adv_correct = flags.iter().filter(|f| **f & 2 != 0).count();
    let n = data.len() as f32;
    let adv_acc = 100.0 * adv_correct as f32 / n;
    Ok(RobustnessOutcome {
        clean_accuracy: 100.0 * clean_correct as f32 / n,
        adversarial_accuracy: adv_acc,
        robustness: adv_acc,
        samples: data.len(),
    })
}

/// A neuromorphic attack choice for event-domain evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventAttackKind {
    /// No attack (clean evaluation).
    None,
    /// The loss-guided sparse attack.
    Sparse(SparseAttack),
    /// The boundary frame attack.
    Frame(FrameAttack),
}

impl EventAttackKind {
    /// Attack name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EventAttackKind::None => "None",
            EventAttackKind::Sparse(a) => a.name(),
            EventAttackKind::Frame(a) => a.name(),
        }
    }
}

/// How the *victim* consumes event streams during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPipeline {
    /// Materialize whole-sample spike frames, then simulate (the
    /// original pipeline; AQF runs as the offline two-pass filter).
    OfflineFrames,
    /// Never materialize frames: replay events through the streaming
    /// path ([`axsnn_neuromorphic::stream::StreamSession`]) with AQF —
    /// when enabled — applied in-stream by the causal filter.
    Streaming,
}

/// Evaluates a spiking network on event streams under a neuromorphic
/// attack, optionally protected by AQF (Algorithm 2).
///
/// The sparse attack queries `surrogate` (the adversary's accurate model
/// per the threat model); the frame attack is model-free. When `aqf` is
/// set, the *victim* filters every incoming stream before classification
/// — the defended pipeline of Table II. The victim consumes streams
/// through the offline frame pipeline; use
/// [`evaluate_event_attack_via`] to evaluate the streaming deployment
/// shape instead.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data and propagates
/// attack/filter/model failures.
pub fn evaluate_event_attack<R: Rng>(
    victim: &mut SpikingNetwork,
    surrogate: &mut SpikingNetwork,
    attack: EventAttackKind,
    data: &[(EventStream, usize)],
    aqf: Option<&AqfConfig>,
    rng: &mut R,
) -> Result<RobustnessOutcome> {
    evaluate_event_attack_via(
        victim,
        surrogate,
        attack,
        data,
        aqf,
        EventPipeline::OfflineFrames,
        rng,
    )
}

/// [`evaluate_event_attack`] with an explicit victim [`EventPipeline`].
///
/// Attack crafting is pipeline-independent (the surrogate is queried
/// offline either way, per the threat model); the pipeline selects how
/// the *victim* classifies. Without AQF the two pipelines are
/// bit-identical (pinned by the `stream_equivalence` suite); with AQF
/// the streaming victim runs the causal in-stream filter, which removes
/// at most what the offline filter removes.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidData`] for empty data and propagates
/// attack/filter/model failures.
pub fn evaluate_event_attack_via<R: Rng>(
    victim: &mut SpikingNetwork,
    surrogate: &mut SpikingNetwork,
    attack: EventAttackKind,
    data: &[(EventStream, usize)],
    aqf: Option<&AqfConfig>,
    pipeline: EventPipeline,
    rng: &mut R,
) -> Result<RobustnessOutcome> {
    if data.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "evaluation data must be non-empty".into(),
        });
    }
    let mut clean_correct = 0usize;
    let mut adv_correct = 0usize;
    for (stream, label) in data {
        // Craft the adversarial stream against the surrogate.
        let adversarial = match attack {
            EventAttackKind::None => stream.clone(),
            EventAttackKind::Sparse(a) => {
                let mut model = SnnEventModel::new(surrogate);
                a.perturb(&mut model, stream, *label, rng)?
            }
            EventAttackKind::Frame(a) => a.perturb(stream)?,
        };
        // Victim pipeline: optional AQF, then classify.
        let classify = |victim: &mut SpikingNetwork, s: &EventStream| -> Result<usize> {
            match pipeline {
                EventPipeline::OfflineFrames => {
                    let filtered;
                    let input = match aqf {
                        Some(cfg) => {
                            let (f, _) = approximate_quantized_filter(s, cfg)?;
                            filtered = f;
                            &filtered
                        }
                        None => s,
                    };
                    let mut model = SnnEventModel::new(victim);
                    Ok(model.predict(input)?)
                }
                EventPipeline::Streaming => {
                    let mut model = StreamingSnnEventModel::new(victim, aqf.copied());
                    Ok(model.predict(s)?)
                }
            }
        };
        if classify(victim, stream)? == *label {
            clean_correct += 1;
        }
        if classify(victim, &adversarial)? == *label {
            adv_correct += 1;
        }
    }
    let n = data.len() as f32;
    let adv_acc = 100.0 * adv_correct as f32 / n;
    Ok(RobustnessOutcome {
        clean_accuracy: 100.0 * clean_correct as f32 / n,
        adversarial_accuracy: adv_acc,
        robustness: adv_acc,
        samples: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_attacks::gradient::{AttackBudget, Fgsm};
    use axsnn_core::layer::Layer;
    use axsnn_core::network::SnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic synthetic gradient source so the parallel path can
    /// be exercised without training a model.
    struct PatternSource;

    impl GradientSource for PatternSource {
        fn loss_gradient(&mut self, image: &Tensor, label: usize) -> axsnn_attacks::Result<Tensor> {
            let data: Vec<f32> = image
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| ((i + label) as f32 * 0.61).cos() * (1.0 + v))
                .collect();
            Ok(Tensor::from_vec(data, image.shape().dims())?)
        }
    }

    fn victim(seed: u64) -> SpikingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 9, 14, &cfg),
                Layer::output_linear(&mut rng, 14, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    fn labelled_data(n: usize) -> Vec<(Tensor, usize)> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        (0..n)
            .map(|i| {
                let img: Tensor = (0..9).map(|_| rng.gen::<f32>()).collect();
                (img, i % 3)
            })
            .collect()
    }

    #[test]
    fn parallel_attack_eval_is_thread_count_invariant() {
        let net = victim(5);
        let attack = Fgsm::new(AttackBudget {
            epsilon: 0.2,
            step_size: 0.05,
            steps: 1,
        });
        let data = labelled_data(11);
        let one = evaluate_image_attack_parallel(
            &net,
            || PatternSource,
            &attack,
            &data,
            Encoder::DirectCurrent,
            9,
            1,
        )
        .unwrap();
        let many = evaluate_image_attack_parallel(
            &net,
            || PatternSource,
            &attack,
            &data,
            Encoder::DirectCurrent,
            9,
            6,
        )
        .unwrap();
        assert_eq!(one, many);
        assert_eq!(one.samples, 11);
        assert!((0.0..=100.0).contains(&one.adversarial_accuracy));
        assert!((0.0..=100.0).contains(&one.clean_accuracy));
    }

    #[test]
    fn parallel_attack_eval_rejects_empty_data() {
        let net = victim(1);
        let attack = Fgsm::new(AttackBudget::for_epsilon(0.1));
        let r = evaluate_image_attack_parallel(
            &net,
            || PatternSource,
            &attack,
            &[],
            Encoder::DirectCurrent,
            0,
            2,
        );
        assert!(r.is_err());
    }

    #[test]
    fn parallel_clean_accuracy_matches_batch_api() {
        let net = victim(2);
        let data = labelled_data(9);
        let acc = clean_image_accuracy_parallel(&net, &data, Encoder::DirectCurrent, 4, 3).unwrap();
        let batch = net
            .evaluate_batch(&data, Encoder::DirectCurrent, 4, 1)
            .unwrap();
        assert!((acc - batch.accuracy).abs() < 1e-6);
    }

    #[test]
    fn outcome_arithmetic() {
        let o = RobustnessOutcome {
            clean_accuracy: 90.0,
            adversarial_accuracy: 40.0,
            robustness: 40.0,
            samples: 10,
        };
        assert_eq!(o.accuracy_loss(), 50.0);
        assert_eq!(o.accuracy_loss_vs(97.0), 57.0);
    }

    #[test]
    fn attack_kind_names() {
        assert_eq!(EventAttackKind::None.name(), "None");
        let s = EventAttackKind::Sparse(SparseAttack::new(Default::default()));
        assert_eq!(s.name(), "Sparse");
        let f = EventAttackKind::Frame(FrameAttack::new(Default::default()));
        assert_eq!(f.name(), "Frame");
    }

    fn event_victim(seed: u64) -> SpikingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 2 * 12 * 12, 10, &cfg),
                Layer::output_linear(&mut rng, 10, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    fn event_data(n: usize) -> Vec<(EventStream, usize)> {
        use axsnn_neuromorphic::event::{DvsEvent, Polarity};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(23);
        (0..n)
            .map(|i| {
                let events = (0..40)
                    .map(|k| {
                        DvsEvent::new(
                            rng.gen_range(0..12) as u16,
                            rng.gen_range(0..12) as u16,
                            if rng.gen_bool(0.5) {
                                Polarity::On
                            } else {
                                Polarity::Off
                            },
                            (k as f32 / 40.0).min(0.999),
                        )
                    })
                    .collect();
                (EventStream::from_events(12, 12, events).unwrap(), i % 3)
            })
            .collect()
    }

    /// Without AQF the streaming pipeline is bit-identical to the
    /// offline one, so every evaluation outcome must match exactly —
    /// clean, Frame-attacked, and Sparse-attacked.
    #[test]
    fn streaming_pipeline_outcome_matches_offline_without_aqf() {
        let data = event_data(5);
        let attacks = [
            EventAttackKind::None,
            EventAttackKind::Frame(FrameAttack::new(Default::default())),
        ];
        for attack in attacks {
            let mut rng = StdRng::seed_from_u64(3);
            let offline = evaluate_event_attack_via(
                &mut event_victim(9),
                &mut event_victim(10),
                attack,
                &data,
                None,
                EventPipeline::OfflineFrames,
                &mut rng,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let streaming = evaluate_event_attack_via(
                &mut event_victim(9),
                &mut event_victim(10),
                attack,
                &data,
                None,
                EventPipeline::Streaming,
                &mut rng,
            )
            .unwrap();
            assert_eq!(offline, streaming, "{} diverged", attack.name());
        }
    }

    /// The streaming AQF pipeline runs end to end and produces a valid
    /// outcome against the frame attack (the causal filter removes at
    /// most what the offline filter removes, so accuracy is a valid —
    /// possibly equal — outcome rather than bit-pinned here; exactness
    /// is pinned by the neuromorphic `stream_equivalence` suite).
    #[test]
    fn streaming_pipeline_with_aqf_runs_end_to_end() {
        let data = event_data(3);
        let aqf = AqfConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = evaluate_event_attack_via(
            &mut event_victim(9),
            &mut event_victim(10),
            EventAttackKind::Frame(FrameAttack::new(Default::default())),
            &data,
            Some(&aqf),
            EventPipeline::Streaming,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.samples, 3);
        assert!((0.0..=100.0).contains(&outcome.adversarial_accuracy));
    }
}
