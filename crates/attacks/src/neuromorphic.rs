//! Neuromorphic attacks on event streams: Sparse and Frame (Sec. II).
//!
//! Gradient attacks do not transfer to event data (events are discrete
//! and the encoding is non-differentiable), so the paper uses the
//! DVS-Attacks family \[6\]:
//!
//! * [`SparseAttack`] — stealthy and loss-guided: it iteratively proposes
//!   small perturbations (transient hot-pixel injections and displacements
//!   of existing events) and keeps a proposal only when the victim's
//!   true-class logit margin drops. The total budget is a fraction of the
//!   stream, which is what makes it sparse.
//! * [`FrameAttack`] — simple but effective: it fires *every pixel of the
//!   sensor boundary* across the whole sample window, overwhelming the
//!   classifier with a bright frame.

use crate::{AttackError, Result};
use axsnn_core::network::SpikingNetwork;
use axsnn_neuromorphic::aqf::AqfConfig;
use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
use axsnn_neuromorphic::frames::{binary_frame_train, Accumulation};
use axsnn_neuromorphic::stream::{classify_event_stream, StreamConfig, WindowSchedule};
use axsnn_tensor::Tensor;
use rand::Rng;

/// The adversary's query interface to an event-stream classifier.
pub trait EventModel {
    /// Classifier logits for a stream.
    ///
    /// # Errors
    ///
    /// Implementations propagate model failures.
    fn logits(&mut self, stream: &EventStream) -> Result<Tensor>;

    /// Predicted label (argmax of [`EventModel::logits`]).
    ///
    /// # Errors
    ///
    /// Propagates logits failures.
    fn predict(&mut self, stream: &EventStream) -> Result<usize> {
        Ok(self.logits(stream)?.argmax().unwrap_or(0))
    }
}

/// [`EventModel`] adapter around a [`SpikingNetwork`]: one query is
/// one fused-engine pass at batch size 1.
///
/// The stream is binned straight into per-step binary spike rows
/// ([`binary_frame_train`], the offline bin formula) and run through
/// [`SpikingNetwork::forward_batch`]; no dense frame is built or
/// re-scanned. The logits equal the per-sample
/// `accumulate_frames` + [`SpikingNetwork::forward`] pipeline bit for
/// bit (the fused engine's `batched_equivalence` suite covers B = 1,
/// the `stream_equivalence` suite event-binned rows), and every layer's
/// dense-fallback counter advances exactly as that pass would advance
/// it. This is the query path of every Sparse-attack surrogate and of
/// the offline victim in `axsnn-defense`'s event-attack evaluation.
///
/// Queries are inference-only: a network with active train-mode
/// dropout is rejected with the fused engine's
/// [`axsnn_core::CoreError::Config`] (wrapped in
/// [`AttackError::Model`]); switch it to inference mode first.
#[derive(Debug)]
pub struct SnnEventModel<'a> {
    net: &'a mut SpikingNetwork,
}

impl<'a> SnnEventModel<'a> {
    /// Wraps a spiking network.
    pub fn new(net: &'a mut SpikingNetwork) -> Self {
        SnnEventModel { net }
    }
}

impl EventModel for SnnEventModel<'_> {
    fn logits(&mut self, stream: &EventStream) -> Result<Tensor> {
        let train = binary_frame_train(stream, self.net.config().time_steps)?;
        let logits = self.net.forward_batch(std::slice::from_ref(&train))?.logits;
        let classes = logits.len();
        Ok(Tensor::from_vec(logits.into_vec(), &[classes])?)
    }
}

/// [`EventModel`] adapter that never collects the whole sample: events
/// are replayed through the per-sample streaming path
/// ([`axsnn_neuromorphic::stream::StreamSession`]) with a uniform
/// window schedule over the network's configured time steps.
///
/// Because the streamed path is bit-identical to the offline one for
/// the same schedule (the `stream_equivalence` suite), Sparse/Frame
/// attack efficacy is *unchanged* against a streaming victim — pinned
/// by this crate's unit tests against [`SnnEventModel`]. The adapter
/// exists so defenses can be evaluated end-to-end against the
/// latency-bound deployment shape, including in-stream AQF filtering.
#[derive(Debug)]
pub struct StreamingSnnEventModel<'a> {
    net: &'a mut SpikingNetwork,
    aqf: Option<AqfConfig>,
}

impl<'a> StreamingSnnEventModel<'a> {
    /// Wraps a spiking network; `aqf` enables in-stream causal AQF
    /// filtering in front of the accumulator.
    pub fn new(net: &'a mut SpikingNetwork, aqf: Option<AqfConfig>) -> Self {
        StreamingSnnEventModel { net, aqf }
    }
}

impl EventModel for StreamingSnnEventModel<'_> {
    fn logits(&mut self, stream: &EventStream) -> Result<Tensor> {
        let cfg = StreamConfig {
            schedule: WindowSchedule::Uniform {
                time_steps: self.net.config().time_steps,
            },
            mode: Accumulation::Binary,
            aqf: self.aqf,
        };
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let outcome = classify_event_stream(self.net, stream, cfg, &mut rng)?;
        Ok(outcome.logits)
    }
}

/// Configuration of the sparse attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseAttackConfig {
    /// Maximum injected events as a fraction of the clean stream size.
    pub budget_fraction: f32,
    /// Events proposed per iteration.
    pub events_per_iteration: usize,
    /// Maximum loss-guided iterations.
    pub max_iterations: usize,
    /// Spatial radius of each proposed event cluster. Proposals are
    /// *patches*, not uniform scatter: spatially clustered events survive
    /// the victim's spatial integration, which is what makes the attack
    /// effective while staying sparse.
    pub cluster_radius: u16,
    /// Temporal extent of each proposed cluster (normalized time).
    pub cluster_duration: f32,
}

impl Default for SparseAttackConfig {
    fn default() -> Self {
        SparseAttackConfig {
            budget_fraction: 0.6,
            events_per_iteration: 64,
            max_iterations: 200,
            cluster_radius: 2,
            cluster_duration: 0.25,
        }
    }
}

/// Stealthy loss-guided event-injection attack.
///
/// # Example
///
/// ```
/// use axsnn_attacks::neuromorphic::{SparseAttack, SparseAttackConfig};
///
/// let attack = SparseAttack::new(SparseAttackConfig::default());
/// assert_eq!(attack.name(), "Sparse");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseAttack {
    config: SparseAttackConfig,
}

impl SparseAttack {
    /// Creates the attack.
    pub fn new(config: SparseAttackConfig) -> Self {
        SparseAttack { config }
    }

    /// Attack name for reports.
    pub fn name(&self) -> &'static str {
        "Sparse"
    }

    /// The attack configuration.
    pub fn config(&self) -> &SparseAttackConfig {
        &self.config
    }

    /// Crafts an adversarial event stream against `model`.
    ///
    /// Iteratively proposes hot-pixel injections and displacements of
    /// existing events; a proposal is kept when it reduces the true-class
    /// logit margin (equivalently, increases the loss on `label`). Stops
    /// early once the prediction flips and the budget is half spent.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidBudget`] for non-positive budgets and
    /// propagates model failures.
    pub fn perturb<M: EventModel, R: Rng>(
        &self,
        model: &mut M,
        stream: &EventStream,
        label: usize,
        rng: &mut R,
    ) -> Result<EventStream> {
        if self.config.budget_fraction <= 0.0
            || self.config.budget_fraction.is_nan()
            || self.config.events_per_iteration == 0
        {
            return Err(AttackError::InvalidBudget {
                message: "sparse attack needs positive budget and batch size".into(),
            });
        }
        let budget = ((stream.len() as f32 * self.config.budget_fraction) as usize).max(8);
        let (w, h) = (stream.width(), stream.height());

        // Guidance signal: the raw logit margin of the true class over the
        // best other class. Unlike the softmax probability (which
        // saturates when the readout integrates many time steps), the
        // margin stays informative, so small perturbations provide a
        // usable acceptance gradient.
        let margin = |logits: &Tensor| -> f32 {
            let v = logits.as_slice();
            let own = v.get(label).copied().unwrap_or(0.0);
            let best_other = v
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != label)
                .map(|(_, &x)| x)
                .fold(f32::NEG_INFINITY, f32::max);
            own - best_other
        };

        let mut current = stream.clone();
        let mut current_margin = margin(&model.logits(&current)?);
        let mut injected = 0usize;

        let mut perturbed = 0usize;
        for _ in 0..self.config.max_iterations {
            if injected >= budget && perturbed >= budget {
                break;
            }
            let r = self.config.cluster_radius as i32;
            let mut candidate = current.clone();
            // Two stealthy proposal kinds, both loss-guided (the paper's
            // "iteratively perturbs the neuromorphic images … to generate
            // perturbed events"): *hammer* a single pixel across the whole
            // sample window (a transient hot pixel — spatially minimal but
            // temporally persistent, so it survives the victim's temporal
            // integration), or displace a batch of existing events in
            // space/time.
            let inject = (injected < budget) && (perturbed >= budget || rng.gen::<bool>());
            let batch;
            if inject {
                batch = self.config.events_per_iteration.min(budget - injected);
                let (px, py) = (rng.gen_range(0..w) as u16, rng.gen_range(0..h) as u16);
                let polarity = if rng.gen::<bool>() {
                    Polarity::On
                } else {
                    Polarity::Off
                };
                for i in 0..batch {
                    let t = ((i as f32 + 0.5) / batch as f32).min(0.999_999);
                    candidate.push(DvsEvent::new(px, py, polarity, t))?;
                }
            } else {
                batch = self.config.events_per_iteration.min(budget - perturbed);
                let n = candidate.len();
                if n == 0 {
                    continue;
                }
                let events = candidate.events_mut();
                for _ in 0..batch {
                    let i = rng.gen_range(0..n);
                    let e = &mut events[i];
                    e.x = (e.x as i32 + rng.gen_range(-r..=r)).clamp(0, w as i32 - 1) as u16;
                    e.y = (e.y as i32 + rng.gen_range(-r..=r)).clamp(0, h as i32 - 1) as u16;
                    e.t = (e.t + rng.gen_range(-0.05..0.05f32)).clamp(0.0, 0.999_999);
                    if rng.gen_bool(0.25) {
                        e.polarity = e.polarity.flipped();
                    }
                }
            }
            candidate.sort_by_time();
            let m = margin(&model.logits(&candidate)?);
            if m < current_margin {
                current = candidate;
                current_margin = m;
                if inject {
                    injected += batch;
                } else {
                    perturbed += batch;
                }
                if current_margin < 0.0 && injected + perturbed >= budget / 2 {
                    break;
                }
            }
        }
        Ok(current)
    }
}

/// Configuration of the frame attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameAttackConfig {
    /// Number of time slices at which the boundary fires.
    pub time_slices: usize,
    /// Whether both polarities fire (true) or only ON events (false).
    pub both_polarities: bool,
    /// Width of the fired border band in pixels (the paper attacks "every
    /// pixel of the boundary"; a thickness of 1 is the literal border).
    pub thickness: usize,
}

impl Default for FrameAttackConfig {
    fn default() -> Self {
        FrameAttackConfig {
            time_slices: 32,
            both_polarities: true,
            thickness: 1,
        }
    }
}

/// Boundary-frame attack: every pixel of the sensor border emits events
/// across the sample window.
///
/// # Example
///
/// ```
/// use axsnn_attacks::neuromorphic::{FrameAttack, FrameAttackConfig};
/// use axsnn_neuromorphic::event::EventStream;
///
/// # fn main() -> Result<(), axsnn_attacks::AttackError> {
/// let clean = EventStream::new(8, 8)?;
/// let attack = FrameAttack::new(FrameAttackConfig { time_slices: 2, both_polarities: false, thickness: 1 });
/// let adv = attack.perturb(&clean)?;
/// // 8x8 sensor has 28 boundary pixels; 2 slices → 56 events.
/// assert_eq!(adv.len(), 56);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameAttack {
    config: FrameAttackConfig,
}

impl FrameAttack {
    /// Creates the attack.
    pub fn new(config: FrameAttackConfig) -> Self {
        FrameAttack { config }
    }

    /// Attack name for reports.
    pub fn name(&self) -> &'static str {
        "Frame"
    }

    /// The attack configuration.
    pub fn config(&self) -> &FrameAttackConfig {
        &self.config
    }

    /// Adds boundary events to a copy of `stream`.
    ///
    /// The frame attack is model-free (no queries needed), which is what
    /// makes it "simple yet effective" (Sec. II).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidBudget`] when `time_slices` is zero.
    pub fn perturb(&self, stream: &EventStream) -> Result<EventStream> {
        if self.config.time_slices == 0 || self.config.thickness == 0 {
            return Err(AttackError::InvalidBudget {
                message: "frame attack needs ≥1 time slice and ≥1 px thickness".into(),
            });
        }
        let (w, h) = (stream.width(), stream.height());
        let band = self.config.thickness;
        let mut adv = stream.clone();
        for slice in 0..self.config.time_slices {
            let t = ((slice as f32 + 0.5) / self.config.time_slices as f32).min(0.999_999);
            for y in 0..h {
                for x in 0..w {
                    let on_band = x < band
                        || y < band
                        || x >= w.saturating_sub(band)
                        || y >= h.saturating_sub(band);
                    if !on_band {
                        continue;
                    }
                    adv.push(DvsEvent::new(x as u16, y as u16, Polarity::On, t))?;
                    if self.config.both_polarities {
                        adv.push(DvsEvent::new(x as u16, y as u16, Polarity::Off, t))?;
                    }
                }
            }
        }
        adv.sort_by_time();
        Ok(adv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_neuromorphic::event::Polarity;

    /// Toy model: predicts class 1 when total event count exceeds a
    /// threshold, class 0 otherwise, with a margin proportional to count.
    struct CountModel {
        threshold: f32,
    }

    impl EventModel for CountModel {
        fn logits(&mut self, stream: &EventStream) -> Result<Tensor> {
            let n = stream.len() as f32;
            Ok(Tensor::from_vec(
                vec![self.threshold - n, n - self.threshold],
                &[2],
            )?)
        }
    }

    fn clean_stream() -> EventStream {
        let events = (0..50)
            .map(|i| DvsEvent::new(8 + (i % 4) as u16, 8, Polarity::On, i as f32 / 64.0))
            .collect();
        EventStream::from_events(16, 16, events).unwrap()
    }

    #[test]
    fn sparse_attack_respects_budget() {
        let stream = clean_stream();
        let mut model = CountModel { threshold: 1e9 }; // never flips
        let cfg = SparseAttackConfig {
            budget_fraction: 0.2,
            events_per_iteration: 5,
            max_iterations: 100,
            ..SparseAttackConfig::default()
        };
        let mut rng = rand::rngs::mock::StepRng::new(42, 0x9e3779b97f4a7c15);
        let adv = SparseAttack::new(cfg)
            .perturb(&mut model, &stream, 0, &mut rng)
            .unwrap();
        let budget = ((stream.len() as f32 * 0.2) as usize).max(8);
        assert!(adv.len() <= stream.len() + budget);
    }

    #[test]
    fn sparse_attack_flips_count_model() {
        let stream = clean_stream();
        // Model flips to class 1 once events exceed 55: reachable with a
        // small injection budget, so the loss-guided search must find it.
        let mut model = CountModel { threshold: 55.0 };
        assert_eq!(model.predict(&stream).unwrap(), 0);
        let cfg = SparseAttackConfig {
            budget_fraction: 0.5,
            events_per_iteration: 8,
            max_iterations: 50,
            ..SparseAttackConfig::default()
        };
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9e3779b97f4a7c15);
        let adv = SparseAttack::new(cfg)
            .perturb(&mut model, &stream, 0, &mut rng)
            .unwrap();
        assert_eq!(
            model.predict(&adv).unwrap(),
            1,
            "attack should flip the label"
        );
    }

    #[test]
    fn sparse_attack_keeps_clean_events() {
        let stream = clean_stream();
        let mut model = CountModel { threshold: 55.0 };
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9e3779b97f4a7c15);
        let adv = SparseAttack::new(SparseAttackConfig::default())
            .perturb(&mut model, &stream, 0, &mut rng)
            .unwrap();
        assert!(adv.len() >= stream.len(), "sparse attack only adds events");
    }

    #[test]
    fn sparse_attack_rejects_zero_budget() {
        let stream = clean_stream();
        let mut model = CountModel { threshold: 10.0 };
        let cfg = SparseAttackConfig {
            budget_fraction: 0.0,
            ..SparseAttackConfig::default()
        };
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(SparseAttack::new(cfg)
            .perturb(&mut model, &stream, 0, &mut rng)
            .is_err());
    }

    #[test]
    fn frame_attack_covers_boundary() {
        let stream = clean_stream();
        let adv = FrameAttack::new(FrameAttackConfig {
            time_slices: 4,
            both_polarities: true,
            thickness: 1,
        })
        .perturb(&stream)
        .unwrap();
        // 16x16 boundary = 60 pixels; 4 slices × 2 polarities.
        assert_eq!(adv.len(), stream.len() + 60 * 4 * 2);
        assert!(adv.boundary_event_count() >= 60 * 4 * 2);
    }

    #[test]
    fn frame_attack_zero_slices_rejected() {
        let stream = clean_stream();
        assert!(FrameAttack::new(FrameAttackConfig {
            time_slices: 0,
            both_polarities: true,
            thickness: 1,
        })
        .perturb(&stream)
        .is_err());
    }

    #[test]
    fn frame_attack_is_model_free_and_deterministic() {
        let stream = clean_stream();
        let attack = FrameAttack::new(FrameAttackConfig::default());
        assert_eq!(
            attack.perturb(&stream).unwrap(),
            attack.perturb(&stream).unwrap()
        );
    }

    fn small_net() -> SpikingNetwork {
        use axsnn_core::layer::Layer;
        use axsnn_core::network::SnnConfig;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 2 * 16 * 16, 12, &cfg),
                Layer::output_linear(&mut rng, 12, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn streaming_model_matches_offline_model() {
        let stream = clean_stream();
        let mut net = small_net();
        let offline = SnnEventModel::new(&mut net).logits(&stream).unwrap();
        let mut net2 = small_net();
        let streamed = StreamingSnnEventModel::new(&mut net2, None)
            .logits(&stream)
            .unwrap();
        assert_eq!(offline.as_slice(), streamed.as_slice());
    }

    #[test]
    fn snn_event_model_returns_class_logits() {
        let stream = clean_stream();
        let mut net = small_net();
        let logits = SnnEventModel::new(&mut net).logits(&stream).unwrap();
        assert_eq!(logits.shape().dims(), &[3]);
    }

    #[test]
    fn snn_event_model_rejects_train_mode_dropout() {
        use axsnn_core::layer::Layer;
        use axsnn_core::network::SnnConfig;
        use axsnn_core::CoreError;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 2 * 16 * 16, 12, &cfg),
                Layer::dropout(0.5),
                Layer::output_linear(&mut rng, 12, 3),
            ],
            cfg,
        )
        .unwrap();
        let stream = clean_stream();
        assert!(SnnEventModel::new(&mut net).logits(&stream).is_ok());
        net.set_train_mode(true);
        let err = SnnEventModel::new(&mut net).logits(&stream).unwrap_err();
        assert!(
            matches!(err, AttackError::Model(CoreError::Config { .. })),
            "expected the fused engine's config error, got {err:?}"
        );
    }

    #[test]
    fn sparse_attack_efficacy_unchanged_on_streaming_victim() {
        // The same seeded attack crafted against the offline and the
        // streaming victim must accept the identical proposal sequence
        // (bit-identical queries ⇒ bit-identical margins ⇒ identical
        // adversarial stream): frame materialization is not load-bearing
        // for attack efficacy.
        let stream = clean_stream();
        let cfg = SparseAttackConfig {
            budget_fraction: 0.4,
            events_per_iteration: 8,
            max_iterations: 30,
            ..SparseAttackConfig::default()
        };
        let mut net = small_net();
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x9e3779b97f4a7c15);
        let adv_offline = SparseAttack::new(cfg)
            .perturb(&mut SnnEventModel::new(&mut net), &stream, 0, &mut rng)
            .unwrap();
        let mut net2 = small_net();
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x9e3779b97f4a7c15);
        let adv_streaming = SparseAttack::new(cfg)
            .perturb(
                &mut StreamingSnnEventModel::new(&mut net2, None),
                &stream,
                0,
                &mut rng,
            )
            .unwrap();
        assert_eq!(adv_offline, adv_streaming);
    }

    #[test]
    fn frame_attack_prediction_agrees_across_pipelines() {
        let stream = clean_stream();
        let adv = FrameAttack::new(FrameAttackConfig::default())
            .perturb(&stream)
            .unwrap();
        let mut net = small_net();
        let p_offline = SnnEventModel::new(&mut net).predict(&adv).unwrap();
        let mut net2 = small_net();
        let p_streaming = StreamingSnnEventModel::new(&mut net2, None)
            .predict(&adv)
            .unwrap();
        assert_eq!(p_offline, p_streaming);
    }

    #[test]
    fn frame_attack_on_tiny_sensor() {
        let s = EventStream::new(1, 1).unwrap();
        let adv = FrameAttack::new(FrameAttackConfig {
            time_slices: 1,
            both_polarities: false,
            thickness: 1,
        })
        .perturb(&s)
        .unwrap();
        // A 1x1 sensor has a single boundary pixel, fired once per row pass
        // (x loop fires (0,0); h==1 so no second row; y loop is empty).
        assert_eq!(adv.len(), 1);
    }
}
