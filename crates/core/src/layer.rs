//! Spiking network layers with BPTT support.
//!
//! Each [`Layer`] processes one spike frame per time step
//! ([`Layer::forward_step`]) and can optionally record a tape for
//! backpropagation-through-time ([`Layer::backward_step`], driven in
//! strict reverse time order by [`crate::network::SpikingNetwork`]).
//!
//! The spiking layers (conv / linear) own a LIF population; pooling,
//! flatten and dropout are stateless per step; [`OutputLinear`] is a
//! non-spiking integrator readout whose per-step outputs the network sums
//! into logits — the standard readout for surrogate-gradient SNNs.
//!
//! The backward recurrence uses the *detached-reset* convention: the
//! hard reset's dependence on the spike is treated as a constant, and the
//! membrane carry is `∂v[t+1]/∂v[t] = leak · (1 − s[t])`.
//!
//! # Event-form BPTT tape
//!
//! Recorded steps run the same density gate and the same kernels as
//! inference: a binary input frame at or below the layer's sparse
//! threshold is stored on the tape as a [`SpikeVector`] instead of a
//! dense tensor, the forward current comes from the inference gather or
//! scatter (streaming a reduced-precision plane where one is
//! installed), and the backward pass accumulates weight gradients
//! event-drively ([`sparse::sparse_outer_acc`],
//! [`sparse::sparse_conv2d_backward`]). Every sparse kernel sums in its
//! dense twin's order, so the taped currents and every gradient are the
//! same `f32` values the dense tape produces — at any density,
//! including 100% (the dense kernels' contributions from inactive
//! inputs are exact zeros). Frames that fail the gate (analog
//! currents, dense or non-binary activity) fall back to the dense
//! kernels and a dense tape entry, exactly like the forward path, and
//! count on [`Layer::dense_fallback_count`]. Only the pools differ:
//! recorded steps pool densely, because the max-pool tape needs its
//! argmax.
//!
//! The tape stores no spike vectors for the outputs: the emitted spike
//! pattern is recomputed in the backward pass as
//! `pre_membrane ≥ V_th`, which is exactly the forward firing rule.
//!
//! # Reduced-precision weight planes
//!
//! Parameterized layers (conv / linear / readout) can install a
//! reduced-precision *storage plane* ([`Layer::set_weight_plane`]): the
//! master `f32` weights stay in place (the knob is reversible and
//! optimizer steps keep updating them), while a packed int8/f16 buffer
//! plus its dequantized `f32` image are materialized once per mutation.
//! Forward and backward consume the *effective* (dequantized) values —
//! bit-identical to quantizing the weights in place with
//! [`crate::precision::apply_precision`] — and the gather-bound
//! inference kernels stream the packed buffer directly, dequantizing
//! in-register while accumulating in `f32`.

use crate::lif::{LifParams, LifState};
use crate::network::SnnConfig;
use crate::plan::{ConvBatchKernel, KernelPolicy};
use crate::{CoreError, Result};
use axsnn_tensor::batched::sparse_conv2d_sorted;
use axsnn_tensor::conv::{self, Conv2dSpec};
use axsnn_tensor::plane::{QuantizedPlane, WeightPlane};
use axsnn_tensor::sparse::{self, SpikeVector};
use axsnn_tensor::{init, linalg, Tensor};
use rand::Rng;
use std::sync::Arc;

/// Learnable parameter pair (value + gradient accumulator + momentum).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient since the last [`Param::apply`].
    pub grad: Tensor,
    velocity: Tensor,
}

impl Param {
    /// Wraps a tensor as a learnable parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let dims = value.shape().dims().to_vec();
        Param {
            value,
            grad: Tensor::zeros(&dims),
            velocity: Tensor::zeros(&dims),
        }
    }

    /// Zeroes the gradient accumulator (in place, allocation-free).
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// SGD-with-momentum update: `v ← μ·v − lr·g; w ← w + v`.
    ///
    /// Runs fully in place — no temporary tensors are allocated, which
    /// matters because this executes once per parameter per optimizer
    /// step.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the (public) `grad` tensor no longer
    /// matches the value shape; cannot fail for parameters whose grad
    /// was only written through the layer machinery.
    pub fn apply(&mut self, lr: f32, momentum: f32) -> Result<()> {
        if self.grad.len() != self.value.len() {
            return Err(CoreError::from(axsnn_tensor::TensorError::LengthMismatch {
                expected: self.value.len(),
                actual: self.grad.len(),
            }));
        }
        for (v, &g) in self
            .velocity
            .as_mut_slice()
            .iter_mut()
            .zip(self.grad.as_slice())
        {
            *v = momentum * *v - lr * g;
        }
        for (w, &v) in self
            .value
            .as_mut_slice()
            .iter_mut()
            .zip(self.velocity.as_slice())
        {
            *w += v;
        }
        Ok(())
    }
}

/// An input frame recorded on the BPTT tape: event form when the
/// density gate admitted it, dense otherwise.
#[derive(Debug, Clone)]
pub(crate) enum TapeInput {
    /// Binary frame at or below the sparse threshold, as its events.
    Events(SpikeVector),
    /// Analog or gate-rejected frame (flattened for linear layers).
    Dense(Tensor),
}

/// Per-step tape entry for a spiking synaptic layer.
///
/// Spikes are not stored: the backward pass recomputes them from the
/// pre-reset membrane as `pre ≥ V_th`, the forward firing rule.
#[derive(Debug, Clone)]
struct SpikeTape {
    input: TapeInput,
    pre_membrane: Vec<f32>,
}

/// Reduced-precision weight storage for one parameterized layer: the
/// packed plane buffer the planed kernels stream, its dequantized `f32`
/// image (for the kernels without a plane-consuming variant, and for
/// training), and the plane-quantized bias. The master `f32` weights
/// stay on the layer's [`Param`]s; this is derived state, rebuilt on
/// every weight mutation. Clones share it through an `Arc` — the
/// buffers are immutable, a refresh replaces the whole handle.
#[derive(Debug, Clone)]
pub(crate) struct PlanedParams {
    /// Packed reduced-precision weight buffer.
    pub(crate) quant: QuantizedPlane,
    /// Dequantized weights, same shape as the master weights.
    pub(crate) weight: Tensor,
    /// Plane-quantized bias (biases ride along at the layer's
    /// precision, matching [`crate::precision::apply_precision`]).
    pub(crate) bias: Tensor,
}

/// Materializes the plane buffers for one `(weight, bias)` pair.
/// Returns `None` for [`WeightPlane::F32`] (no plane installed).
fn planed_params(
    weight: &Tensor,
    bias: &Tensor,
    plane: WeightPlane,
) -> Result<Option<Arc<PlanedParams>>> {
    let quant = match QuantizedPlane::quantize(weight.as_slice(), plane).map_err(CoreError::from)? {
        Some(quant) => quant,
        None => return Ok(None),
    };
    let deq = Tensor::from_vec(quant.dequantize(), weight.shape().dims())?;
    let qbias = QuantizedPlane::quantize(bias.as_slice(), plane)
        .map_err(CoreError::from)?
        .expect("non-f32 planes always materialize a buffer");
    let bias = Tensor::from_vec(qbias.dequantize(), bias.shape().dims())?;
    Ok(Some(Arc::new(PlanedParams {
        quant,
        weight: deq,
        bias,
    })))
}

macro_rules! impl_planed_accessors {
    ($ty:ty) => {
        impl $ty {
            /// Effective weights: the dequantized plane image when a
            /// reduced-precision plane is installed, the master
            /// weights otherwise.
            pub(crate) fn eff_weight(&self) -> &Tensor {
                match self.planed.as_deref() {
                    Some(p) => &p.weight,
                    None => &self.weight.value,
                }
            }

            /// Effective bias (plane-quantized under a plane).
            pub(crate) fn eff_bias(&self) -> &Tensor {
                match self.planed.as_deref() {
                    Some(p) => &p.bias,
                    None => &self.bias.value,
                }
            }

            /// The installed plane buffers, if any.
            pub(crate) fn planed(&self) -> Option<&PlanedParams> {
                self.planed.as_deref()
            }
        }
    };
}

impl_planed_accessors!(SpikingConv2d);
impl_planed_accessors!(SpikingLinear);
impl_planed_accessors!(OutputLinear);

/// A linear layer's spike gather `W·s + b` over its effective
/// `weight`/`bias`, on inference and recorded steps alike. An installed
/// plane streams its packed buffer, which is bit-identical to gathering
/// the dequantized image.
fn linear_gather(
    weight: &Tensor,
    bias: &Tensor,
    planed: Option<&PlanedParams>,
    events: &SpikeVector,
) -> Result<Tensor> {
    let dims = weight.shape().dims();
    match planed {
        Some(p) => {
            sparse::sparse_matvec_bias_planed(p.quant.view(), (dims[0], dims[1]), events, bias)
        }
        None => sparse::sparse_matvec_bias(weight, events, bias),
    }
    .map_err(CoreError::from)
}

/// `input` as a rank-1 tensor: itself when it already is one, a
/// flattening reshape otherwise.
fn flatten_input(input: &Tensor) -> Result<Tensor> {
    if input.shape().rank() == 1 {
        Ok(input.clone())
    } else {
        input.reshape(&[input.len()]).map_err(CoreError::from)
    }
}

/// Spiking 2-D convolution layer (`[Cin,H,W] → [Cout,OH,OW]` spikes).
#[derive(Debug, Clone)]
pub struct SpikingConv2d {
    /// Convolution geometry.
    pub spec: Conv2dSpec,
    /// Filter weights `[Cout,Cin,K,K]`.
    pub weight: Param,
    /// Per-filter bias `[Cout]`.
    pub bias: Param,
    pub(crate) lif_params: LifParams,
    state: Option<LifState>,
    tape: Vec<SpikeTape>,
    carry: Vec<f32>,
    input_hw: Option<(usize, usize)>,
    last_spikes: Option<f32>,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
}

/// Spiking fully-connected layer (`[In] → [Out]` spikes).
#[derive(Debug, Clone)]
pub struct SpikingLinear {
    /// Weights `[Out, In]`.
    pub weight: Param,
    /// Bias `[Out]`.
    pub bias: Param,
    pub(crate) lif_params: LifParams,
    state: LifState,
    tape: Vec<SpikeTape>,
    carry: Vec<f32>,
    last_spikes: Option<f32>,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
}

/// Non-spiking integrator readout; the network sums its per-step outputs.
#[derive(Debug, Clone)]
pub struct OutputLinear {
    /// Weights `[Out, In]`.
    pub weight: Param,
    /// Bias `[Out]`.
    pub bias: Param,
    inputs: Vec<TapeInput>,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
}

/// Average-pooling layer over spikes (linear, stateless).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    /// Square window / stride.
    pub window: usize,
    input_dims: Vec<usize>,
    pub(crate) policy: KernelPolicy,
}

/// Max-pooling layer over spikes (winner-take-all, stateless per step).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Square window / stride.
    pub window: usize,
    input_dims: Vec<usize>,
    argmax_per_step: Vec<Vec<usize>>,
    pub(crate) policy: KernelPolicy,
}

/// Flatten `[C,H,W] → [C·H·W]`.
#[derive(Debug, Clone)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

/// Spike dropout with a per-sample mask held fixed across time steps.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub probability: f32,
    /// Whether dropout is active (training) or identity (inference).
    pub train_mode: bool,
    mask: Option<Vec<f32>>,
}

/// The shared LIF backward recurrence: combines the incoming spike
/// gradient with the membrane carry into the current gradient
/// `g[i] = gs[i]·σ'(v[i]) + carry[i]·leak·(1 − s[i])`, recomputing the
/// spike `s[i]` from the taped pre-reset membrane (`v ≥ V_th`), and
/// updates the carry in place.
///
/// Where the neuron spiked the detached-reset carry term is
/// `carry·leak·0`, an exact zero, so dropping it leaves the same `f32`
/// value the fully-expanded dense formula produced.
pub(crate) fn surrogate_carry_grad(
    grad_spikes: &[f32],
    pre_membrane: &[f32],
    carry: &mut [f32],
    params: &LifParams,
) -> Vec<f32> {
    let leak = params.leak;
    let mut gv = vec![0.0f32; pre_membrane.len()];
    for (i, g) in gv.iter_mut().enumerate() {
        let surrogate = grad_spikes[i] * params.surrogate_grad(pre_membrane[i]);
        *g = if pre_membrane[i] >= params.threshold {
            surrogate
        } else {
            surrogate + carry[i] * leak
        };
    }
    carry.copy_from_slice(&gv);
    gv
}

/// In-place gradient accumulation `acc += delta` — the per-step
/// parameter-gradient update without a temporary tensor per call.
pub(crate) fn acc_grad(acc: &mut Tensor, delta: &Tensor) {
    debug_assert_eq!(acc.len(), delta.len());
    for (a, &d) in acc.as_mut_slice().iter_mut().zip(delta.as_slice()) {
        *a += d;
    }
}

/// A layer of a [`crate::network::SpikingNetwork`].
///
/// # Example
///
/// ```
/// use axsnn_core::layer::Layer;
/// use axsnn_core::network::SnnConfig;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig::default();
/// let layer = Layer::spiking_linear(&mut rng, 16, 8, &cfg);
/// assert_eq!(layer.kind(), "spiking_linear");
/// ```
#[derive(Debug, Clone)]
pub enum Layer {
    /// Spiking convolution.
    SpikingConv2d(SpikingConv2d),
    /// Spiking fully-connected layer.
    SpikingLinear(SpikingLinear),
    /// Integrator readout (final layer).
    OutputLinear(OutputLinear),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Flattening.
    Flatten(Flatten),
    /// Dropout.
    Dropout(Dropout),
}

impl Layer {
    /// Creates a spiking convolution layer with Kaiming-uniform weights.
    pub fn spiking_conv2d<R: Rng>(rng: &mut R, spec: Conv2dSpec, cfg: &SnnConfig) -> Layer {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let weight = init::kaiming_uniform(
            rng,
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ],
            fan_in,
        );
        Layer::SpikingConv2d(SpikingConv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[spec.out_channels])),
            lif_params: cfg.lif_params(),
            state: None,
            tape: Vec::new(),
            carry: Vec::new(),
            input_hw: None,
            last_spikes: None,
            policy: KernelPolicy::for_conv(&spec),
            planed: None,
        })
    }

    /// Creates a spiking fully-connected layer.
    pub fn spiking_linear<R: Rng>(
        rng: &mut R,
        inputs: usize,
        outputs: usize,
        cfg: &SnnConfig,
    ) -> Layer {
        let weight = init::kaiming_uniform(rng, &[outputs, inputs], inputs);
        Layer::SpikingLinear(SpikingLinear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[outputs])),
            lif_params: cfg.lif_params(),
            state: LifState::new(outputs, cfg.lif_params()),
            tape: Vec::new(),
            carry: vec![0.0; outputs],
            last_spikes: None,
            policy: KernelPolicy::for_linear(),
            planed: None,
        })
    }

    /// Creates the integrator readout layer.
    pub fn output_linear<R: Rng>(rng: &mut R, inputs: usize, outputs: usize) -> Layer {
        let weight = init::kaiming_uniform(rng, &[outputs, inputs], inputs);
        Layer::OutputLinear(OutputLinear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[outputs])),
            inputs: Vec::new(),
            policy: KernelPolicy::for_linear(),
            planed: None,
        })
    }

    /// Creates a spiking convolution layer from existing weights
    /// (ANN→SNN conversion / weight transplant).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] when the weight/bias shapes do
    /// not match `spec`.
    pub fn spiking_conv2d_from(
        spec: Conv2dSpec,
        weight: Tensor,
        bias: Tensor,
        cfg: &SnnConfig,
    ) -> Result<Layer> {
        let expected = [
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
        ];
        if weight.shape().dims() != expected || bias.len() != spec.out_channels {
            return Err(CoreError::Incompatible {
                message: format!(
                    "conv weight {:?}/bias {:?} incompatible with spec {:?}",
                    weight.shape().dims(),
                    bias.shape().dims(),
                    spec
                ),
            });
        }
        Ok(Layer::SpikingConv2d(SpikingConv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(bias),
            lif_params: cfg.lif_params(),
            state: None,
            tape: Vec::new(),
            carry: Vec::new(),
            input_hw: None,
            last_spikes: None,
            policy: KernelPolicy::for_conv(&spec),
            planed: None,
        }))
    }

    /// Creates a spiking fully-connected layer from existing weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] for a non-matrix weight or a
    /// bias that does not match the output count.
    pub fn spiking_linear_from(weight: Tensor, bias: Tensor, cfg: &SnnConfig) -> Result<Layer> {
        if weight.shape().rank() != 2 || bias.len() != weight.shape().dims()[0] {
            return Err(CoreError::Incompatible {
                message: "linear weight must be [out,in] with matching bias".into(),
            });
        }
        let outputs = weight.shape().dims()[0];
        Ok(Layer::SpikingLinear(SpikingLinear {
            weight: Param::new(weight),
            bias: Param::new(bias),
            lif_params: cfg.lif_params(),
            state: LifState::new(outputs, cfg.lif_params()),
            tape: Vec::new(),
            carry: vec![0.0; outputs],
            last_spikes: None,
            policy: KernelPolicy::for_linear(),
            planed: None,
        }))
    }

    /// Creates the integrator readout from existing weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] for mismatched shapes.
    pub fn output_linear_from(weight: Tensor, bias: Tensor) -> Result<Layer> {
        if weight.shape().rank() != 2 || bias.len() != weight.shape().dims()[0] {
            return Err(CoreError::Incompatible {
                message: "output weight must be [out,in] with matching bias".into(),
            });
        }
        Ok(Layer::OutputLinear(OutputLinear {
            weight: Param::new(weight),
            bias: Param::new(bias),
            inputs: Vec::new(),
            policy: KernelPolicy::for_linear(),
            planed: None,
        }))
    }

    /// Creates an average-pooling layer with square window `window`.
    pub fn avg_pool2d(window: usize) -> Layer {
        Layer::AvgPool2d(AvgPool2d {
            window,
            input_dims: Vec::new(),
            policy: KernelPolicy::for_pool(),
        })
    }

    /// Creates a max-pooling layer with square window `window`.
    pub fn max_pool2d(window: usize) -> Layer {
        Layer::MaxPool2d(MaxPool2d {
            window,
            input_dims: Vec::new(),
            argmax_per_step: Vec::new(),
            policy: KernelPolicy::for_pool(),
        })
    }

    /// Creates a flatten layer.
    pub fn flatten() -> Layer {
        Layer::Flatten(Flatten {
            input_dims: Vec::new(),
        })
    }

    /// Creates a dropout layer (active only in train mode).
    pub fn dropout(probability: f32) -> Layer {
        Layer::Dropout(Dropout {
            probability,
            train_mode: false,
            mask: None,
        })
    }

    /// A short static name for the layer variant (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::SpikingConv2d(_) => "spiking_conv2d",
            Layer::SpikingLinear(_) => "spiking_linear",
            Layer::OutputLinear(_) => "output_linear",
            Layer::AvgPool2d(_) => "avg_pool2d",
            Layer::MaxPool2d(_) => "max_pool2d",
            Layer::Flatten(_) => "flatten",
            Layer::Dropout(_) => "dropout",
        }
    }

    /// Returns `true` for layers that own LIF neurons.
    pub fn is_spiking(&self) -> bool {
        matches!(self, Layer::SpikingConv2d(_) | Layer::SpikingLinear(_))
    }

    /// Mutable access to the layer's weight/bias parameters, if any.
    pub fn params_mut(&mut self) -> Option<(&mut Param, &mut Param)> {
        match self {
            Layer::SpikingConv2d(l) => Some((&mut l.weight, &mut l.bias)),
            Layer::SpikingLinear(l) => Some((&mut l.weight, &mut l.bias)),
            Layer::OutputLinear(l) => Some((&mut l.weight, &mut l.bias)),
            _ => None,
        }
    }

    /// The layer's *effective* weight/bias tensors — the dequantized
    /// plane image when a reduced-precision plane is installed, the
    /// master parameters otherwise. This is what forward/backward
    /// actually consume.
    pub(crate) fn eff_params(&self) -> Option<(&Tensor, &Tensor)> {
        match self {
            Layer::SpikingConv2d(l) => Some((l.eff_weight(), l.eff_bias())),
            Layer::SpikingLinear(l) => Some((l.eff_weight(), l.eff_bias())),
            Layer::OutputLinear(l) => Some((l.eff_weight(), l.eff_bias())),
            _ => None,
        }
    }

    /// Shared access to the layer's weight/bias parameters, if any.
    pub fn params(&self) -> Option<(&Param, &Param)> {
        match self {
            Layer::SpikingConv2d(l) => Some((&l.weight, &l.bias)),
            Layer::SpikingLinear(l) => Some((&l.weight, &l.bias)),
            Layer::OutputLinear(l) => Some((&l.weight, &l.bias)),
            _ => None,
        }
    }

    /// Overrides the LIF parameters of a spiking layer (no-op otherwise).
    pub fn set_lif_params(&mut self, params: LifParams) {
        match self {
            Layer::SpikingConv2d(l) => {
                l.lif_params = params;
                l.state = None;
            }
            Layer::SpikingLinear(l) => {
                l.lif_params = params;
                l.state = LifState::new(l.state.len(), params);
            }
            _ => {}
        }
    }

    /// The LIF parameters of a spiking layer, if any.
    pub fn lif_params(&self) -> Option<LifParams> {
        match self {
            Layer::SpikingConv2d(l) => Some(l.lif_params),
            Layer::SpikingLinear(l) => Some(l.lif_params),
            _ => None,
        }
    }

    /// Sets dropout train/inference mode (no-op for other layers).
    pub fn set_train_mode(&mut self, train: bool) {
        if let Layer::Dropout(d) = self {
            d.train_mode = train;
        }
    }

    /// Clears membrane state and BPTT tape; draws a fresh dropout mask
    /// lazily on the next forward step.
    pub fn reset(&mut self) {
        match self {
            Layer::SpikingConv2d(l) => {
                if let Some(s) = &mut l.state {
                    s.reset();
                }
                l.tape.clear();
                l.carry.clear();
                l.last_spikes = None;
            }
            Layer::SpikingLinear(l) => {
                l.state.reset();
                l.tape.clear();
                l.carry.fill(0.0);
                l.last_spikes = None;
            }
            Layer::OutputLinear(l) => l.inputs.clear(),
            Layer::MaxPool2d(l) => l.argmax_per_step.clear(),
            Layer::Dropout(d) => d.mask = None,
            _ => {}
        }
    }

    /// Processes one time step.
    ///
    /// When `record` is set the layer stores the tape needed by
    /// [`Layer::backward_step`].
    ///
    /// # Errors
    ///
    /// Returns shape errors when the input does not match the layer
    /// geometry.
    pub fn forward_step<R: Rng>(
        &mut self,
        input: &Tensor,
        record: bool,
        rng: &mut R,
    ) -> Result<Tensor> {
        match self {
            Layer::SpikingConv2d(l) => {
                let idims = input.shape().dims();
                // Event-driven fast path: binary sparse frames skip the
                // dense window sweep. The scatter conv accumulates each
                // output cell in the dense kernel's order, so recorded
                // (training) steps take it too and store the event-form
                // tape — same `f32` currents as the dense tape.
                let sparse_input = if idims.len() != 3 || idims[0] != l.spec.in_channels {
                    None
                } else {
                    l.policy.admit(input)
                };
                let current = match &sparse_input {
                    // The plan's conv-batch choice applies at B=1 too:
                    // the event-sorted sweep streams the weight stencil
                    // with contiguous segment-adds (bit-identical to the
                    // per-event scatter), which pays off for the paper's
                    // k=5 stencils even on a single frame.
                    Some(events) if l.policy.conv_batch() == ConvBatchKernel::EventSorted => {
                        sparse_conv2d_sorted(
                            events,
                            (idims[1], idims[2]),
                            l.eff_weight(),
                            l.eff_bias(),
                            &l.spec,
                        )?
                    }
                    Some(events) => sparse::sparse_conv2d(
                        events,
                        (idims[1], idims[2]),
                        l.eff_weight(),
                        l.eff_bias(),
                        &l.spec,
                    )?,
                    None => conv::conv2d(input, l.eff_weight(), l.eff_bias(), &l.spec)?,
                };
                let dims = current.shape().dims().to_vec();
                l.input_hw = Some((idims[1], idims[2]));
                let state = l
                    .state
                    .get_or_insert_with(|| LifState::new(current.len(), l.lif_params));
                if state.len() != current.len() {
                    *state = LifState::new(current.len(), l.lif_params);
                }
                let out = state.step(current.as_slice());
                l.last_spikes = Some(out.spikes.iter().sum());
                if record {
                    if l.carry.len() != current.len() {
                        l.carry = vec![0.0; current.len()];
                    }
                    l.tape.push(SpikeTape {
                        input: match sparse_input {
                            Some(events) => TapeInput::Events(events),
                            None => TapeInput::Dense(input.clone()),
                        },
                        pre_membrane: out.pre_reset_membrane,
                    });
                }
                Tensor::from_vec(out.spikes, &dims).map_err(CoreError::from)
            }
            Layer::SpikingLinear(l) => {
                let sparse_input = l.policy.admit(input);
                let (current, flat) = match &sparse_input {
                    Some(events) => (
                        linear_gather(l.eff_weight(), l.eff_bias(), l.planed(), events)?,
                        None,
                    ),
                    None => {
                        let flat = flatten_input(input)?;
                        let current = linalg::matvec(l.eff_weight(), &flat)?.add(l.eff_bias())?;
                        (current, Some(flat))
                    }
                };
                let out = l.state.step(current.as_slice());
                l.last_spikes = Some(out.spikes.iter().sum());
                if record {
                    l.tape.push(SpikeTape {
                        input: match sparse_input {
                            Some(events) => TapeInput::Events(events),
                            None => TapeInput::Dense(
                                flat.expect("gate-rejected steps materialize the flat input"),
                            ),
                        },
                        pre_membrane: out.pre_reset_membrane,
                    });
                }
                let n = out.spikes.len();
                Tensor::from_vec(out.spikes, &[n]).map_err(CoreError::from)
            }
            Layer::OutputLinear(l) => match l.policy.admit(input) {
                Some(events) => {
                    let out = linear_gather(l.eff_weight(), l.eff_bias(), l.planed(), &events)?;
                    if record {
                        l.inputs.push(TapeInput::Events(events));
                    }
                    Ok(out)
                }
                None => {
                    let flat = flatten_input(input)?;
                    let out = linalg::matvec(l.eff_weight(), &flat)?.add(l.eff_bias())?;
                    if record {
                        l.inputs.push(TapeInput::Dense(flat));
                    }
                    Ok(out)
                }
            },
            Layer::AvgPool2d(l) => {
                l.input_dims = input.shape().dims().to_vec();
                if !record && l.input_dims.len() == 3 {
                    if let Some(events) = l.policy.admit(input) {
                        return sparse::sparse_avg_pool2d(&events, &l.input_dims, l.window)
                            .map_err(CoreError::from);
                    }
                }
                conv::avg_pool2d(input, l.window).map_err(CoreError::from)
            }
            Layer::MaxPool2d(l) => {
                l.input_dims = input.shape().dims().to_vec();
                if !record && l.input_dims.len() == 3 {
                    if let Some(events) = l.policy.admit(input) {
                        return sparse::sparse_max_pool2d(&events, &l.input_dims, l.window)
                            .map_err(CoreError::from);
                    }
                }
                let out = conv::max_pool2d(input, l.window)?;
                if record {
                    l.argmax_per_step.push(out.argmax);
                }
                Ok(out.output)
            }
            Layer::Flatten(l) => {
                l.input_dims = input.shape().dims().to_vec();
                input.reshape(&[input.len()]).map_err(CoreError::from)
            }
            Layer::Dropout(d) => {
                if !d.train_mode || d.probability <= 0.0 {
                    return Ok(input.clone());
                }
                let keep = 1.0 - d.probability;
                if d.mask.as_ref().map(|m| m.len()) != Some(input.len()) {
                    d.mask = Some(
                        (0..input.len())
                            .map(|_| {
                                if rng.gen::<f32>() < keep {
                                    1.0 / keep
                                } else {
                                    0.0
                                }
                            })
                            .collect(),
                    );
                }
                let mask = d.mask.as_ref().expect("mask was just ensured");
                let data: Vec<f32> = input
                    .as_slice()
                    .iter()
                    .zip(mask)
                    .map(|(&v, &m)| v * m)
                    .collect();
                Tensor::from_vec(data, input.shape().dims()).map_err(CoreError::from)
            }
        }
    }

    /// Backward pass for time step `t` (must be called in strictly
    /// decreasing `t` after a recorded forward pass).
    ///
    /// Returns the gradient with respect to the layer input at step `t`
    /// and accumulates parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoRecordedForward`] when no tape exists for
    /// step `t`.
    pub fn backward_step(&mut self, grad_out: &Tensor, t: usize) -> Result<Tensor> {
        match self {
            Layer::SpikingConv2d(l) => {
                let tape = l.tape.get(t).ok_or(CoreError::NoRecordedForward)?;
                if l.carry.len() != tape.pre_membrane.len() {
                    l.carry = vec![0.0; tape.pre_membrane.len()];
                }
                let gv = surrogate_carry_grad(
                    grad_out.as_slice(),
                    &tape.pre_membrane,
                    &mut l.carry,
                    &l.lif_params,
                );
                let (h, w) = l.input_hw.ok_or(CoreError::NoRecordedForward)?;
                let (oh, ow) = l.spec.output_hw(h, w);
                let gcur = Tensor::from_vec(gv, &[l.spec.out_channels, oh, ow])?;
                let grads = match &tape.input {
                    TapeInput::Events(events) => sparse::sparse_conv2d_backward(
                        events,
                        (h, w),
                        l.eff_weight(),
                        &gcur,
                        &l.spec,
                    )?,
                    TapeInput::Dense(input) => {
                        conv::conv2d_backward(input, l.eff_weight(), &gcur, &l.spec)?
                    }
                };
                acc_grad(&mut l.weight.grad, &grads.weight);
                acc_grad(&mut l.bias.grad, &grads.bias);
                Ok(grads.input)
            }
            Layer::SpikingLinear(l) => {
                let tape = l.tape.get(t).ok_or(CoreError::NoRecordedForward)?;
                let gv = surrogate_carry_grad(
                    grad_out.as_slice(),
                    &tape.pre_membrane,
                    &mut l.carry,
                    &l.lif_params,
                );
                let n = gv.len();
                let gvt = Tensor::from_vec(gv, &[n])?;
                match &tape.input {
                    TapeInput::Events(events) => {
                        sparse::sparse_outer_acc(&mut l.weight.grad, gvt.as_slice(), events)?
                    }
                    TapeInput::Dense(input) => linalg::outer_acc(&mut l.weight.grad, &gvt, input)?,
                }
                acc_grad(&mut l.bias.grad, &gvt);
                linalg::matvec_t(l.eff_weight(), &gvt).map_err(CoreError::from)
            }
            Layer::OutputLinear(l) => {
                let input = l.inputs.get(t).ok_or(CoreError::NoRecordedForward)?;
                match input {
                    TapeInput::Events(events) => {
                        sparse::sparse_outer_acc(&mut l.weight.grad, grad_out.as_slice(), events)?
                    }
                    TapeInput::Dense(input) => {
                        linalg::outer_acc(&mut l.weight.grad, grad_out, input)?
                    }
                }
                acc_grad(&mut l.bias.grad, grad_out);
                linalg::matvec_t(l.eff_weight(), grad_out).map_err(CoreError::from)
            }
            Layer::AvgPool2d(l) => {
                if l.input_dims.is_empty() {
                    return Err(CoreError::NoRecordedForward);
                }
                conv::avg_pool2d_backward(grad_out, &l.input_dims, l.window)
                    .map_err(CoreError::from)
            }
            Layer::MaxPool2d(l) => {
                let argmax = l
                    .argmax_per_step
                    .get(t)
                    .ok_or(CoreError::NoRecordedForward)?;
                conv::max_pool2d_backward(grad_out, argmax, &l.input_dims).map_err(CoreError::from)
            }
            Layer::Flatten(l) => {
                if l.input_dims.is_empty() {
                    return Err(CoreError::NoRecordedForward);
                }
                grad_out.reshape(&l.input_dims).map_err(CoreError::from)
            }
            Layer::Dropout(d) => {
                if !d.train_mode || d.probability <= 0.0 {
                    return Ok(grad_out.clone());
                }
                let mask = d.mask.as_ref().ok_or(CoreError::NoRecordedForward)?;
                let data: Vec<f32> = grad_out
                    .as_slice()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, grad_out.shape().dims()).map_err(CoreError::from)
            }
        }
    }

    /// Zeroes parameter gradients and the BPTT membrane-carry state.
    pub fn zero_grads(&mut self) {
        if let Some((w, b)) = self.params_mut() {
            w.zero_grad();
            b.zero_grad();
        }
        match self {
            Layer::SpikingConv2d(l) => l.carry.fill(0.0),
            Layer::SpikingLinear(l) => l.carry.fill(0.0),
            _ => {}
        }
    }

    /// Applies an SGD-with-momentum update to the layer parameters and
    /// re-materializes any installed reduced-precision weight plane
    /// from the updated master weights.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur for well-formed layers
    /// with finite weights).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32) -> Result<()> {
        if let Some((w, b)) = self.params_mut() {
            w.apply(lr, momentum)?;
            b.apply(lr, momentum)?;
        }
        self.refresh_weight_plane()
    }

    /// Installs a reduced-precision weight *storage plane* on a
    /// parameterized layer (conv / linear / readout). The master `f32`
    /// weights stay in place — the knob is reversible and training
    /// keeps updating them — while forward and backward consume the
    /// plane's dequantized values, bit-identical to quantizing the
    /// weights in place with [`crate::precision::apply_precision`];
    /// the gather-bound inference kernels stream the packed buffer
    /// directly. [`WeightPlane::F32`] uninstalls any plane. No-op for
    /// layers without weights.
    ///
    /// # Errors
    ///
    /// Propagates the tensor error when [`WeightPlane::Int8`] is
    /// requested over non-finite weights or biases; the layer is left
    /// unchanged in that case.
    pub fn set_weight_plane(&mut self, plane: WeightPlane) -> Result<()> {
        match self {
            Layer::SpikingConv2d(l) => {
                l.planed = planed_params(&l.weight.value, &l.bias.value, plane)?;
                l.policy.set_plane(plane);
            }
            Layer::SpikingLinear(l) => {
                l.planed = planed_params(&l.weight.value, &l.bias.value, plane)?;
                l.policy.set_plane(plane);
            }
            Layer::OutputLinear(l) => {
                l.planed = planed_params(&l.weight.value, &l.bias.value, plane)?;
                l.policy.set_plane(plane);
            }
            _ => {}
        }
        Ok(())
    }

    /// The installed weight storage plane of a parameterized layer
    /// ([`WeightPlane::F32`] when none is installed); `None` for
    /// layers without weights.
    pub fn weight_plane(&self) -> Option<WeightPlane> {
        let planed = match self {
            Layer::SpikingConv2d(l) => &l.planed,
            Layer::SpikingLinear(l) => &l.planed,
            Layer::OutputLinear(l) => &l.planed,
            _ => return None,
        };
        Some(
            planed
                .as_deref()
                .map(|p| p.quant.plane())
                .unwrap_or(WeightPlane::F32),
        )
    }

    /// Re-materializes the plane buffers from the current master
    /// weights when a reduced-precision plane is installed (no-op
    /// otherwise). Every mutation point that rewrites weights —
    /// optimizer steps, [`crate::precision::apply_precision`] — calls
    /// this so the derived buffers never go stale.
    ///
    /// # Errors
    ///
    /// Propagates the tensor error when the mutated weights are no
    /// longer int8-quantizable (non-finite values).
    pub fn refresh_weight_plane(&mut self) -> Result<()> {
        match self.weight_plane() {
            Some(plane) if plane != WeightPlane::F32 => self.set_weight_plane(plane),
            _ => Ok(()),
        }
    }

    /// The int8 quantization scale of the installed weight plane
    /// (`None` for f32/f16 planes and non-parameterized layers).
    /// Snapshot serialization stores it for integrity validation.
    pub(crate) fn weight_plane_scale(&self) -> Option<f32> {
        let planed = match self {
            Layer::SpikingConv2d(l) => &l.planed,
            Layer::SpikingLinear(l) => &l.planed,
            Layer::OutputLinear(l) => &l.planed,
            _ => return None,
        };
        planed.as_deref().and_then(|p| p.quant.int8_scale())
    }

    /// Number of spikes emitted at the most recent forward step, if the
    /// layer spikes. Used for the Eq. (1) spike statistics.
    ///
    /// Tracked as a running counter so statistics no longer require
    /// recording the full BPTT tape during inference.
    pub fn last_step_spike_count(&self) -> Option<f32> {
        match self {
            Layer::SpikingConv2d(l) => l.last_spikes,
            Layer::SpikingLinear(l) => l.last_spikes,
            _ => None,
        }
    }

    /// Sets the spike-density threshold below which this layer's
    /// forward pass takes the event-driven sparse kernels — and, for
    /// recorded steps of conv/linear/readout layers, records the
    /// event-form BPTT tape (`0.0` forces the dense path and a dense
    /// tape everywhere; no-op for flatten/dropout layers).
    pub fn set_sparse_threshold(&mut self, threshold: f32) {
        if let Some(policy) = self.policy_mut() {
            policy.set_threshold(threshold);
        }
    }

    /// Shared access to the layer's kernel policy, if it has kernels to
    /// choose (`None` for flatten/dropout).
    pub(crate) fn policy(&self) -> Option<&KernelPolicy> {
        match self {
            Layer::SpikingConv2d(l) => Some(&l.policy),
            Layer::SpikingLinear(l) => Some(&l.policy),
            Layer::OutputLinear(l) => Some(&l.policy),
            Layer::AvgPool2d(l) => Some(&l.policy),
            Layer::MaxPool2d(l) => Some(&l.policy),
            _ => None,
        }
    }

    /// Mutable access to the layer's kernel policy.
    pub(crate) fn policy_mut(&mut self) -> Option<&mut KernelPolicy> {
        match self {
            Layer::SpikingConv2d(l) => Some(&mut l.policy),
            Layer::SpikingLinear(l) => Some(&mut l.policy),
            Layer::OutputLinear(l) => Some(&mut l.policy),
            Layer::AvgPool2d(l) => Some(&mut l.policy),
            Layer::MaxPool2d(l) => Some(&mut l.policy),
            _ => None,
        }
    }

    /// Cumulative count of *dense-fallback conversions*: forward steps
    /// (inference **and** recorded training steps, which gate onto the
    /// event-form tape the same way) where this layer wanted the
    /// event-driven sparse path (threshold above zero) but the gate
    /// declined — because the frame was non-binary (e.g. an analog
    /// direct-current encoding, or de-binarized by an upstream average
    /// pool) or denser than the threshold. Makes the silent
    /// sparse→dense degradation observable; in the fused batched path
    /// each declined batch *row* counts once, matching the per-sample
    /// unit.
    ///
    /// Returns `None` for layers without a sparse path. The counter is
    /// shared across clones of the layer (the sharded batch evaluators
    /// clone the network per worker, and those workers' fallbacks
    /// aggregate into the caller's instance) and is never reset by
    /// [`Layer::reset`].
    pub fn dense_fallback_count(&self) -> Option<u64> {
        self.policy().map(KernelPolicy::fallback_count)
    }

    /// The layer's sparse-density threshold, if it has a sparse path.
    pub fn sparse_threshold(&self) -> Option<f32> {
        self.policy().map(KernelPolicy::threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> SnnConfig {
        SnnConfig {
            threshold: 1.0,
            time_steps: 4,
            leak: 0.9,
        }
    }

    #[test]
    fn linear_layer_emits_binary_spikes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::spiking_linear(&mut rng, 4, 3, &cfg());
        let x = Tensor::ones(&[4]);
        let y = l.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(y.len(), 3);
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn conv_layer_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut l = Layer::spiking_conv2d(&mut rng, spec, &cfg());
        let x = Tensor::ones(&[1, 8, 8]);
        let y = l.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(y.shape().dims(), &[4, 8, 8]);
    }

    #[test]
    fn reset_clears_membrane() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::spiking_linear(&mut rng, 2, 2, &cfg());
        let x = Tensor::full(&[2], 0.4);
        let a = l.forward_step(&x, false, &mut rng).unwrap();
        l.reset();
        let b = l.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(a, b, "after reset the first step must be reproducible");
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Layer::dropout(0.5);
        let x = Tensor::ones(&[10]);
        let y = d.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_mask_fixed_across_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Layer::dropout(0.5);
        d.set_train_mode(true);
        let x = Tensor::ones(&[64]);
        let a = d.forward_step(&x, false, &mut rng).unwrap();
        let b = d.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(a, b, "mask must persist within a sample");
        d.reset();
        let c = d.forward_step(&x, false, &mut rng).unwrap();
        assert_ne!(a, c, "mask must be redrawn after reset");
    }

    #[test]
    fn flatten_roundtrip_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut f = Layer::flatten();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = f.forward_step(&x, true, &mut rng).unwrap();
        assert_eq!(y.shape().dims(), &[24]);
        let g = f.backward_step(&Tensor::ones(&[24]), 0).unwrap();
        assert_eq!(g.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::spiking_linear(&mut rng, 2, 2, &cfg());
        let e = l.backward_step(&Tensor::ones(&[2]), 0);
        assert!(matches!(e, Err(CoreError::NoRecordedForward)));
    }

    #[test]
    fn output_linear_accumulates_param_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Layer::output_linear(&mut rng, 3, 2);
        let x = Tensor::ones(&[3]);
        l.forward_step(&x, true, &mut rng).unwrap();
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        l.backward_step(&g, 0).unwrap();
        let (w, b) = l.params().unwrap();
        assert_eq!(b.grad.as_slice(), &[1.0, -1.0]);
        assert_eq!(w.grad.as_slice(), &[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn max_pool_layer_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::max_pool2d(2);
        assert_eq!(l.kind(), "max_pool2d");
        let x = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 2.0, //
                0.0, 0.0, 0.0, 0.0, //
                0.0, 3.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 4.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let y = l.forward_step(&x, true, &mut rng).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let g = l.backward_step(&Tensor::ones(&[1, 2, 2]), 0).unwrap();
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.at(&[0, 0, 0]).unwrap(), 1.0); // routed to the winner
    }

    #[test]
    fn max_pool_backward_without_record_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::max_pool2d(2);
        let x = Tensor::ones(&[1, 4, 4]);
        l.forward_step(&x, false, &mut rng).unwrap();
        assert!(l.backward_step(&Tensor::ones(&[1, 2, 2]), 0).is_err());
    }

    #[test]
    fn weight_plane_install_and_uninstall() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Layer::spiking_linear(&mut rng, 6, 4, &cfg());
        assert_eq!(l.weight_plane(), Some(WeightPlane::F32));
        assert!(l.weight_plane_scale().is_none());
        l.set_weight_plane(WeightPlane::Int8).unwrap();
        assert_eq!(l.weight_plane(), Some(WeightPlane::Int8));
        assert!(l.weight_plane_scale().is_some());
        l.set_weight_plane(WeightPlane::F16).unwrap();
        assert_eq!(l.weight_plane(), Some(WeightPlane::F16));
        assert!(l.weight_plane_scale().is_none(), "f16 has no scale");
        l.set_weight_plane(WeightPlane::F32).unwrap();
        assert_eq!(l.weight_plane(), Some(WeightPlane::F32));

        let mut pool = Layer::max_pool2d(2);
        pool.set_weight_plane(WeightPlane::Int8).unwrap();
        assert_eq!(pool.weight_plane(), None, "no weights, no plane");
    }

    #[test]
    fn planed_forward_matches_quantized_weights() {
        use crate::precision::PrecisionScale;
        let mut rng = StdRng::seed_from_u64(9);
        let base = Layer::spiking_linear(&mut rng, 8, 5, &cfg());
        // Two events over eight inputs: density 0.25, at the gate, so
        // the planed sparse kernel is what actually runs.
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], &[8]).unwrap();
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let mut planed = base.clone();
            planed.set_weight_plane(plane).unwrap();
            let mut emulated = base.clone();
            {
                let scale = PrecisionScale::from_plane(plane);
                let (w, b) = emulated.params_mut().unwrap();
                w.value = scale.quantize_tensor(&w.value).unwrap();
                b.value = scale.quantize_tensor(&b.value).unwrap();
            }
            let a = planed.forward_step(&x, false, &mut rng.clone()).unwrap();
            let b = emulated.forward_step(&x, false, &mut rng.clone()).unwrap();
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{plane} plane must match emulation"
            );
        }
    }

    #[test]
    fn apply_grads_refreshes_installed_plane() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut l = Layer::output_linear(&mut rng, 3, 2);
        l.set_weight_plane(WeightPlane::Int8).unwrap();
        let x = Tensor::ones(&[3]);
        l.forward_step(&x, true, &mut rng).unwrap();
        l.backward_step(&Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(), 0)
            .unwrap();
        let before = match &l {
            Layer::OutputLinear(o) => o.eff_weight().clone(),
            _ => unreachable!(),
        };
        l.apply_grads(0.1, 0.0).unwrap();
        let after = match &l {
            Layer::OutputLinear(o) => o.eff_weight().clone(),
            _ => unreachable!(),
        };
        assert_ne!(
            before.as_slice(),
            after.as_slice(),
            "plane buffers must be rebuilt from the updated master weights"
        );
        assert_eq!(l.weight_plane(), Some(WeightPlane::Int8));
    }

    #[test]
    fn set_lif_params_changes_firing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Layer::spiking_linear(&mut rng, 4, 4, &cfg());
        l.set_lif_params(LifParams {
            threshold: 1000.0,
            leak: 0.9,
            surrogate_alpha: 2.0,
        });
        let x = Tensor::ones(&[4]);
        let y = l.forward_step(&x, false, &mut rng).unwrap();
        assert_eq!(y.sum(), 0.0, "huge threshold must silence the layer");
    }
}
