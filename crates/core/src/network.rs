//! The time-stepped spiking network.
//!
//! [`SpikingNetwork`] runs a [`crate::layer::Layer`] stack over `T`
//! time steps, sums the integrator readout into logits, and supports full
//! BPTT ([`SpikingNetwork::backward`]) including gradients with respect to
//! the *input frames* — which is what the white-box adversarial attacks
//! need. Every entry point runs the fused engine of [`crate::fused`]:
//! `forward`, `classify` and the incremental [`FrameStepper`] are its
//! one-row pass, and `backward` is its batched backward on that pass's
//! tape.
//!
//! It also collects [`SpikeStats`] (per-layer spike counts and synaptic
//! operations) used both for the Eq. (1) approximation statistics and for
//! the paper's energy-efficiency argument (AxSNNs save energy by skipping
//! neurons, i.e. reducing synaptic operations).

use crate::encoding::Encoder;
use crate::fused::{BatchTape, FrameTrain, FusedPass};
use crate::layer::Layer;
use crate::lif::LifParams;
use crate::plan::{ExecPlan, PlanOverride, WeightPlane};
use crate::{CoreError, Result};
use axsnn_tensor::Tensor;
use rand::Rng;

pub use crate::plan::{LayerEligibility, SparseEligibility};

/// Global structural parameters of an SNN (the paper's robustness knobs).
///
/// # Example
///
/// ```
/// use axsnn_core::network::SnnConfig;
///
/// let cfg = SnnConfig { threshold: 0.25, time_steps: 32, leak: 0.9 };
/// assert_eq!(cfg.lif_params().threshold, 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnnConfig {
    /// Threshold voltage `V_th` shared by all spiking layers.
    pub threshold: f32,
    /// Number of simulation time steps `T`.
    pub time_steps: usize,
    /// Membrane leak factor per step.
    pub leak: f32,
}

impl Default for SnnConfig {
    fn default() -> Self {
        SnnConfig {
            threshold: 1.0,
            time_steps: 16,
            leak: 0.9,
        }
    }
}

impl SnnConfig {
    /// LIF parameters derived from this configuration.
    pub fn lif_params(&self) -> LifParams {
        LifParams {
            threshold: self.threshold,
            leak: self.leak,
            surrogate_alpha: 2.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for zero time steps, non-positive
    /// threshold, or a leak outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.time_steps == 0 {
            return Err(CoreError::Config {
                message: "time_steps must be > 0".into(),
            });
        }
        if self.threshold <= 0.0 {
            return Err(CoreError::Config {
                message: format!("threshold must be positive, got {}", self.threshold),
            });
        }
        if !(0.0..=1.0).contains(&self.leak) {
            return Err(CoreError::Config {
                message: format!("leak must be in [0,1], got {}", self.leak),
            });
        }
        Ok(())
    }
}

/// Spiking activity statistics collected during a forward pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeStats {
    /// Total spikes emitted per spiking layer over all time steps.
    pub spikes_per_layer: Vec<f32>,
    /// Total synaptic operations (spike × fan-out) — the energy proxy.
    pub synaptic_ops: f64,
    /// Time steps simulated.
    pub time_steps: usize,
}

impl SpikeStats {
    /// Total spikes across all layers.
    pub fn total_spikes(&self) -> f32 {
        self.spikes_per_layer.iter().sum()
    }

    /// Mean spikes per time step per layer (`Ns/T` in Eq. (1) terms).
    pub fn mean_rate_per_layer(&self) -> Vec<f32> {
        if self.time_steps == 0 {
            return vec![0.0; self.spikes_per_layer.len()];
        }
        self.spikes_per_layer
            .iter()
            .map(|&s| s / self.time_steps as f32)
            .collect()
    }
}

/// Output of a forward simulation.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Accumulated readout logits (sum over time steps).
    pub logits: Tensor,
    /// Spiking statistics of the run.
    pub stats: SpikeStats,
}

/// A feed-forward spiking neural network simulated over discrete time.
///
/// # Example
///
/// ```
/// use axsnn_core::network::{SnnConfig, SpikingNetwork};
/// use axsnn_core::layer::Layer;
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig { threshold: 0.5, time_steps: 8, leak: 0.9 };
/// let mut net = SpikingNetwork::new(
///     vec![
///         Layer::spiking_linear(&mut rng, 4, 8, &cfg),
///         Layer::output_linear(&mut rng, 8, 3),
///     ],
///     cfg,
/// )?;
/// let frames = vec![Tensor::full(&[4], 1.0); 8];
/// let out = net.forward(&frames, false, &mut rng)?;
/// assert_eq!(out.logits.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    layers: Vec<Layer>,
    config: SnnConfig,
    plan: ExecPlan,
    /// The one-row tape of the last recorded `forward`, which `backward`
    /// consumes; cleared by the next `forward` or frame stepper.
    recorded: Option<BatchTape>,
}

impl SpikingNetwork {
    /// Builds a network from a layer stack and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an invalid configuration or an
    /// empty / readout-less layer stack.
    pub fn new(layers: Vec<Layer>, config: SnnConfig) -> Result<Self> {
        config.validate()?;
        if layers.is_empty() {
            return Err(CoreError::Config {
                message: "network needs at least one layer".into(),
            });
        }
        if !matches!(layers.last(), Some(Layer::OutputLinear(_))) {
            return Err(CoreError::Config {
                message: "last layer must be an output_linear readout".into(),
            });
        }
        let plan = ExecPlan::capture(&layers);
        Ok(SpikingNetwork {
            layers,
            config,
            plan,
            recorded: None,
        })
    }

    /// The network's execution plan: the per-layer kernel choices and
    /// sparse-path eligibility the dispatch layer derived (see
    /// [`crate::plan`]). Re-captured automatically on the mutation
    /// points that can change it ([`SpikingNetwork::apply_plan`],
    /// [`SpikingNetwork::set_sparse_threshold`],
    /// [`SpikingNetwork::set_train_mode`]).
    pub fn exec_plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Applies a plan override to every layer ([`PlanOverride::Auto`]
    /// restores the shape-derived defaults) and re-captures the plan.
    pub fn apply_plan(&mut self, plan: PlanOverride) {
        self.plan = ExecPlan::apply(&mut self.layers, plan);
    }

    /// Re-captures the execution plan after direct layer mutations
    /// through [`SpikingNetwork::layers_mut`] or
    /// [`Layer::set_sparse_threshold`] (the structured entry points
    /// re-capture automatically).
    pub fn refresh_plan(&mut self) {
        self.plan = ExecPlan::capture(&self.layers);
    }

    /// The network configuration.
    pub fn config(&self) -> &SnnConfig {
        &self.config
    }

    /// Shared access to the layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (for approximation / precision
    /// scaling passes).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Switches every dropout layer between train and inference mode
    /// (and re-captures the execution plan — active train-mode dropout
    /// de-binarizes the frames behind it).
    pub fn set_train_mode(&mut self, train: bool) {
        for l in &mut self.layers {
            l.set_train_mode(train);
        }
        self.plan = ExecPlan::capture(&self.layers);
    }

    /// Re-applies `threshold`/`leak` from a new configuration to every
    /// spiking layer. Keeps weights untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the new configuration is invalid.
    pub fn reconfigure(&mut self, config: SnnConfig) -> Result<()> {
        config.validate()?;
        self.config = config;
        let params = config.lif_params();
        for l in &mut self.layers {
            l.set_lif_params(params);
        }
        Ok(())
    }

    /// Sets every layer's spike-density threshold for the event-driven
    /// sparse forward path (`0.0` forces the dense kernels everywhere —
    /// useful for A/B comparisons and equivalence tests). Equivalent to
    /// [`SpikingNetwork::apply_plan`] with
    /// [`PlanOverride::ForceThreshold`].
    pub fn set_sparse_threshold(&mut self, threshold: f32) {
        self.apply_plan(PlanOverride::ForceThreshold(threshold));
    }

    /// Installs a reduced-precision weight storage plane on every
    /// parameterized layer (see [`Layer::set_weight_plane`]) and
    /// re-captures the execution plan. [`WeightPlane::F32`] uninstalls
    /// all planes. The knob is atomic: int8 finiteness is validated up
    /// front across the whole stack, so a failing layer leaves the
    /// network unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when [`WeightPlane::Int8`] is
    /// requested while any layer holds non-finite weights or biases.
    pub fn set_weight_plane(&mut self, plane: WeightPlane) -> Result<()> {
        if plane == WeightPlane::Int8 {
            for (i, l) in self.layers.iter().enumerate() {
                if let Some((w, b)) = l.params() {
                    if !w.value.is_finite() || !b.value.is_finite() {
                        return Err(CoreError::Config {
                            message: format!(
                                "int8 weight plane requires finite parameters; \
                                 layer {i} ({}) has non-finite values",
                                l.kind()
                            ),
                        });
                    }
                }
            }
        }
        for l in &mut self.layers {
            l.set_weight_plane(plane)?;
        }
        self.refresh_plan();
        Ok(())
    }

    /// Builds every layer's derived weight state now, from the current
    /// effective weights: the linear layers' packed panels (under AVX2
    /// dispatch) and the non-zero weight counts. A pass builds whatever
    /// is missing itself, so this changes only *when* the work happens:
    /// clones made afterwards share the panels instead of each packing
    /// its own. The crate's own parallel entry points do this before
    /// they clone; code that clones a network per worker itself calls
    /// it first.
    pub fn pack_weights(&self) {
        for l in &self.layers {
            l.prepare_derived();
        }
    }

    /// The weight storage plane of the first parameterized layer
    /// ([`WeightPlane::F32`] when none is installed; layers can in
    /// principle differ when set individually through
    /// [`SpikingNetwork::layers_mut`] — the execution plan reports the
    /// per-layer truth).
    pub fn weight_plane(&self) -> WeightPlane {
        self.layers
            .iter()
            .find_map(|l| l.weight_plane())
            .unwrap_or(WeightPlane::F32)
    }

    /// Runs the network over a sequence of input frames (one per time
    /// step), returning accumulated logits and spike statistics.
    ///
    /// This is the fused engine's one-row pass over
    /// [`FrameTrain::from_frames`]`(frames)`: binary frames enter as
    /// events, and a direct-current input's repeated frames reuse the
    /// first linear layer's currents. Row `b` of
    /// [`SpikingNetwork::forward_batch`] gives the same bits, and so
    /// does a [`FrameStepper`] fed the same frames.
    ///
    /// Set `record` to enable a subsequent [`SpikingNetwork::backward`]:
    /// the network then keeps the pass's tape until the next forward.
    /// `rng` draws the masks of active train-mode dropout layers, one per
    /// layer when the pass first reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `frames` is empty or mixes
    /// shapes, plus any shape errors from the layers.
    pub fn forward<R: Rng>(
        &mut self,
        frames: &[Tensor],
        record: bool,
        rng: &mut R,
    ) -> Result<ForwardOutput> {
        self.recorded = None;
        if frames.is_empty() {
            return Err(CoreError::Config {
                message: "forward needs at least one input frame".into(),
            });
        }
        let train = FrameTrain::from_frames(frames)?;
        let (out, tape) = self
            .run_trains(std::slice::from_ref(&train), record, true, Some(rng))?
            .finish_row()?;
        self.recorded = tape;
        Ok(out)
    }

    /// Begins an incremental frame-at-a-time forward pass (the streaming
    /// seam): a one-row pass of the fused engine that applies one
    /// membrane update per submitted frame.
    ///
    /// A stepper fed the frames of [`SpikingNetwork::forward`] in the
    /// same order produces bit-identical logits and statistics —
    /// including every [`crate::plan::ExecPlan`] dispatch decision
    /// (density gates, weight planes, dense fallbacks), which are made
    /// per frame. It records no tape, so it ends any recorded pass.
    pub fn frame_stepper(&mut self) -> FrameStepper<'_> {
        self.recorded = None;
        let pass = FusedPass::new(&self.layers, 1, false, true);
        FrameStepper {
            net: self,
            pass,
            logits: None,
        }
    }

    /// BPTT backward pass after a recorded forward.
    ///
    /// `grad_logits` is `∂L/∂logits`; because the logits are a sum over
    /// time steps, the same gradient is injected at every step. Returns
    /// the gradient with respect to each input frame (time order, in the
    /// frames' shape), which the attacks crate aggregates into an image
    /// gradient. It is the one-row case of the batched backward
    /// ([`SpikingNetwork::backward_batch_with`]) on the tape the recorded
    /// [`SpikingNetwork::forward`] kept, swept down to the input.
    ///
    /// Parameter gradients *accumulate* across calls so minibatches can
    /// sum per-sample gradients; call [`SpikingNetwork::zero_grads`]
    /// between batches. Training code that does not need the frame
    /// gradients should prefer the minibatched
    /// [`SpikingNetwork::forward_batch_recorded`] /
    /// [`SpikingNetwork::backward_batch`] pair, and code that needs only
    /// the frame gradients [`SpikingNetwork::frame_gradients`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoRecordedForward`] when the last forward
    /// was not called with `record = true`, and [`CoreError::Config`]
    /// when `time_steps` is not the recorded pass's step count or
    /// `grad_logits` is not `[classes]`.
    pub fn backward(&mut self, grad_logits: &Tensor, time_steps: usize) -> Result<Vec<Tensor>> {
        self.backward_recorded(grad_logits, time_steps, true)
    }

    /// The frame gradients of [`SpikingNetwork::backward`], bit for bit,
    /// and nothing else: no parameter gradient is formed and the
    /// network's gradient accumulators are left untouched. This is what
    /// a white-box attack step reads.
    ///
    /// # Errors
    ///
    /// As [`SpikingNetwork::backward`].
    pub fn frame_gradients(
        &mut self,
        grad_logits: &Tensor,
        time_steps: usize,
    ) -> Result<Vec<Tensor>> {
        self.backward_recorded(grad_logits, time_steps, false)
    }

    fn backward_recorded(
        &mut self,
        grad_logits: &Tensor,
        time_steps: usize,
        params: bool,
    ) -> Result<Vec<Tensor>> {
        let tape = self.recorded.take().ok_or(CoreError::NoRecordedForward)?;
        let frame_grads = self.backward_frames(&tape, grad_logits, time_steps, params);
        self.recorded = Some(tape);
        frame_grads
    }

    /// Applies accumulated gradients with SGD + momentum.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur for well-formed layers).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32) -> Result<()> {
        for l in &mut self.layers {
            l.apply_grads(lr, momentum)?;
        }
        Ok(())
    }

    /// Zeroes all accumulated parameter gradients (start of a minibatch).
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Per-layer dense-fallback counters (see
    /// [`Layer::dense_fallback_count`]); `0` for layers without a
    /// sparse path. A view over the execution plan's shared per-layer
    /// counters, so worker clones' fallbacks are included.
    pub fn dense_fallback_counts(&self) -> Vec<u64> {
        self.plan.dense_fallback_counts()
    }

    /// Total dense-fallback conversions across all layers — the
    /// observable form of the "avg pooling silently forces the dense
    /// path" degradation.
    pub fn total_dense_fallbacks(&self) -> u64 {
        self.dense_fallback_counts().iter().sum()
    }

    /// Static sparse-path eligibility audit — a view over the
    /// execution plan (see [`ExecPlan::eligibility`] for the audit
    /// semantics): which layers can ever take the event-driven sparse
    /// path, and where average pooling or train-mode dropout silently
    /// forces the dense kernels downstream.
    pub fn sparse_eligible(&self) -> SparseEligibility {
        self.plan.eligibility()
    }

    /// Encodes an image and returns the predicted class label.
    ///
    /// # Errors
    ///
    /// Propagates encoding and forward errors.
    pub fn classify<R: Rng>(
        &mut self,
        image: &Tensor,
        encoder: Encoder,
        rng: &mut R,
    ) -> Result<usize> {
        let frames = encoder.encode(image, self.config.time_steps, rng)?;
        let out = self.forward(&frames, false, rng)?;
        Ok(out.logits.argmax().unwrap_or(0))
    }

    /// Convenience: classify an already encoded frame sequence.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn classify_frames<R: Rng>(&mut self, frames: &[Tensor], rng: &mut R) -> Result<usize> {
        let out = self.forward(frames, false, rng)?;
        Ok(out.logits.argmax().unwrap_or(0))
    }

    /// Total number of learnable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .filter_map(|l| l.params())
            .map(|(w, b)| w.value.len() + b.value.len())
            .sum()
    }
}

/// Incremental frame-at-a-time forward pass over a [`SpikingNetwork`]
/// (obtained from [`SpikingNetwork::frame_stepper`]).
///
/// Each [`FrameStepper::step`] runs one time step of the fused engine's
/// one-row pass — the step body [`SpikingNetwork::forward`] runs — so
/// streaming consumers (the `axsnn-neuromorphic` `StreamSession`) and
/// the offline path produce bit-identical logits and [`SpikeStats`] for
/// the same frame sequence.
///
/// The stepper borrows the network mutably for its whole lifetime;
/// call [`FrameStepper::finish`] to release it and obtain the
/// accumulated [`ForwardOutput`].
#[derive(Debug)]
pub struct FrameStepper<'a> {
    net: &'a mut SpikingNetwork,
    pass: FusedPass,
    logits: Option<Tensor>,
}

impl FrameStepper<'_> {
    /// Applies one membrane update for `frame`, accumulating readout
    /// logits and spike statistics. A binary frame enters as events, any
    /// other as a dense row, exactly as [`FrameTrain::from_frames`]
    /// stores it; every [`crate::plan::ExecPlan`] dispatch decision
    /// (density gate, weight plane, dense fallback) is made here, per
    /// frame, exactly as in the offline path. `rng` draws the masks of
    /// active train-mode dropout layers at the first step.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn step<R: Rng>(&mut self, frame: &Tensor, rng: &mut R) -> Result<()> {
        self.pass.step_frame(&mut self.net.layers, frame, rng)?;
        if let Some(logits) = &self.pass.logits {
            self.logits = Some(Tensor::from_vec(logits.clone(), &[logits.len()])?);
        }
        Ok(())
    }

    /// Number of frames stepped so far.
    pub fn steps(&self) -> usize {
        self.pass.stats.time_steps
    }

    /// The logits accumulated so far (readout sum over the frames
    /// stepped to date), or `None` before the first step. Lets
    /// streaming consumers read out an *anytime* prediction without
    /// ending the pass.
    pub fn logits_so_far(&self) -> Option<&Tensor> {
        self.logits.as_ref()
    }

    /// Spike statistics accumulated so far.
    pub fn stats_so_far(&self) -> &SpikeStats {
        &self.pass.stats
    }

    /// Ends the pass, returning accumulated logits and statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when no frame was ever stepped.
    pub fn finish(self) -> Result<ForwardOutput> {
        Ok(self.pass.finish_row()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(rng: &mut StdRng, cfg: SnnConfig) -> SpikingNetwork {
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(rng, 6, 10, &cfg),
                Layer::spiking_linear(rng, 10, 10, &cfg),
                Layer::output_linear(rng, 10, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SnnConfig {
            threshold: 0.0,
            time_steps: 4,
            leak: 0.9
        }
        .validate()
        .is_err());
        assert!(SnnConfig {
            threshold: 1.0,
            time_steps: 0,
            leak: 0.9
        }
        .validate()
        .is_err());
        assert!(SnnConfig {
            threshold: 1.0,
            time_steps: 4,
            leak: 1.5
        }
        .validate()
        .is_err());
        assert!(SnnConfig::default().validate().is_ok());
    }

    #[test]
    fn network_requires_readout_last() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig::default();
        let layers = vec![Layer::spiking_linear(&mut rng, 4, 4, &cfg)];
        assert!(SpikingNetwork::new(layers, cfg).is_err());
        assert!(SpikingNetwork::new(vec![], cfg).is_err());
    }

    #[test]
    fn forward_is_deterministic_after_reset() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 6];
        let a = net.forward(&frames, false, &mut rng).unwrap();
        let b = net.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn stats_count_spikes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SnnConfig {
            threshold: 0.1,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        let out = net.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(out.stats.spikes_per_layer.len(), 2);
        assert!(out.stats.total_spikes() > 0.0, "low threshold must spike");
        assert!(out.stats.synaptic_ops > 0.0);
    }

    #[test]
    fn higher_threshold_reduces_spiking() {
        let spikes_at = |vth: f32| {
            let mut rng = StdRng::seed_from_u64(1);
            let cfg = SnnConfig {
                threshold: vth,
                time_steps: 8,
                leak: 0.9,
            };
            let mut net = small_net(&mut rng, cfg);
            let frames = vec![Tensor::full(&[6], 1.0); 8];
            net.forward(&frames, false, &mut rng)
                .unwrap()
                .stats
                .total_spikes()
        };
        assert!(spikes_at(0.2) >= spikes_at(1.0));
        assert!(spikes_at(1.0) >= spikes_at(5.0));
    }

    #[test]
    fn backward_produces_frame_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        net.forward(&frames, true, &mut rng).unwrap();
        let g = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let fg = net.backward(&g, 4).unwrap();
        assert_eq!(fg.len(), 4);
        assert_eq!(fg[0].shape().dims(), &[6]);
        assert!(fg.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn backward_without_record_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SnnConfig::default();
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 16];
        net.forward(&frames, false, &mut rng).unwrap();
        let g = Tensor::zeros(&[3]);
        assert!(net.backward(&g, 16).is_err());
    }

    /// A recorded 4-step pass of [`small_net`] and a `[3]` logit
    /// gradient.
    fn recorded_net() -> (SpikingNetwork, Tensor) {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        net.forward(&frames, true, &mut rng).unwrap();
        (net, Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap())
    }

    fn config_message<T: std::fmt::Debug>(r: Result<T>) -> String {
        match r {
            Err(CoreError::Config { message }) => message,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    /// Any `time_steps` other than the recorded pass's is an error that
    /// names both counts, a smaller one included.
    #[test]
    fn backward_rejects_other_time_steps() {
        let (mut net, g) = recorded_net();
        for wrong in [0, 3, 5] {
            let message = config_message(net.backward(&g, wrong));
            assert!(
                message.contains(&format!("over {wrong} time steps")),
                "{message}"
            );
            assert!(message.contains("ran 4"), "{message}");
        }
        assert_eq!(net.backward(&g, 4).unwrap().len(), 4);
    }

    /// A `grad_logits` that is not `[classes]` is an error naming its
    /// shape.
    #[test]
    fn backward_rejects_misshaped_grad_logits() {
        let (mut net, _) = recorded_net();
        for dims in [vec![4], vec![1, 3], vec![2]] {
            let message = config_message(net.backward(&Tensor::zeros(&dims), 4));
            assert!(message.contains(&format!("{dims:?}")), "{message}");
        }
    }

    /// Without a recorded forward — none yet, an unrecorded one, or a
    /// frame stepper since — `backward` is `NoRecordedForward`; a
    /// recorded one can be swept twice with the same frame gradients.
    #[test]
    fn backward_needs_the_last_forward_recorded() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut net, g) = recorded_net();
        let no_tape = |r: Result<Vec<Tensor>>| matches!(r, Err(CoreError::NoRecordedForward));
        let first = net.backward(&g, 4).unwrap();
        assert_eq!(net.backward(&g, 4).unwrap(), first);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        net.forward(&frames, false, &mut rng).unwrap();
        assert!(no_tape(net.backward(&g, 4)));
        net.forward(&frames, true, &mut rng).unwrap();
        net.frame_stepper().finish().unwrap_err();
        assert!(no_tape(net.backward(&g, 4)));
        let mut fresh = small_net(&mut rng, SnnConfig::default());
        assert!(no_tape(fresh.backward(&g, 16)));
    }

    /// `classify` rejects a non-finite pixel through its encoder instead
    /// of answering from a clamped image.
    #[test]
    fn classify_rejects_non_finite_pixels() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = small_net(&mut rng, SnnConfig::default());
        let mut image = Tensor::full(&[6], 0.5);
        image.as_mut_slice()[4] = f32::NAN;
        for encoder in [Encoder::Poisson, Encoder::DirectCurrent] {
            let message = config_message(net.classify(&image, encoder, &mut rng));
            assert!(message.contains("pixel 4 is NaN"), "{message}");
        }
    }

    #[test]
    fn reconfigure_changes_behavior() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SnnConfig {
            threshold: 0.2,
            time_steps: 8,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 8];
        let low = net
            .forward(&frames, false, &mut rng)
            .unwrap()
            .stats
            .total_spikes();
        net.reconfigure(SnnConfig {
            threshold: 5.0,
            time_steps: 8,
            leak: 0.9,
        })
        .unwrap();
        let high = net
            .forward(&frames, false, &mut rng)
            .unwrap()
            .stats
            .total_spikes();
        assert!(high < low);
    }

    #[test]
    fn weight_plane_is_atomic_and_observable() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = small_net(&mut rng, SnnConfig::default());
        assert_eq!(net.weight_plane(), WeightPlane::F32);
        net.set_weight_plane(WeightPlane::Int8).unwrap();
        assert_eq!(net.weight_plane(), WeightPlane::Int8);
        assert_eq!(
            net.exec_plan().layers()[0].plane,
            Some(WeightPlane::Int8),
            "plan re-capture must see the installed plane"
        );
        net.set_weight_plane(WeightPlane::F32).unwrap();

        // Poison one weight: the int8 install must fail up front and
        // leave every layer plane-free.
        if let Some((w, _)) = net.layers_mut()[1].params_mut() {
            w.value.as_mut_slice()[0] = f32::NAN;
        }
        assert!(net.set_weight_plane(WeightPlane::Int8).is_err());
        assert!(net
            .layers()
            .iter()
            .all(|l| l.weight_plane().is_none_or(|p| p == WeightPlane::F32)));
    }

    #[test]
    fn parameter_count_positive() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = small_net(&mut rng, SnnConfig::default());
        // 6*10+10 + 10*10+10 + 10*3+3 = 70 + 110 + 33
        assert_eq!(net.parameter_count(), 213);
    }
}
