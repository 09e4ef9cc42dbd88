//! Spiking network layers: parameters, LIF settings and kernel policies.
//!
//! A [`Layer`] holds what a layer *is* — weights, LIF parameters, pool
//! window, dropout probability, its [`KernelPolicy`] — and no runtime
//! state. Membranes, dropout masks and the BPTT tape belong to one pass
//! of the fused engine ([`crate::fused`]), which every forward and
//! backward entry point of [`crate::network::SpikingNetwork`] runs.
//!
//! The spiking layers (conv / linear) own a LIF population; pooling,
//! flatten and dropout are stateless per step; [`OutputLinear`] is a
//! non-spiking integrator readout whose per-step outputs the network sums
//! into logits — the standard readout for surrogate-gradient SNNs.
//!
//! The backward recurrence (`surrogate_carry_grad`) uses the
//! *detached-reset* convention: the hard reset's dependence on the spike
//! is treated as a constant, and the membrane carry is
//! `∂v[t+1]/∂v[t] = leak · (1 − s[t])`.
//!
//! # Reduced-precision weight planes
//!
//! Parameterized layers (conv / linear / readout) can install a
//! reduced-precision weight plane ([`Layer::set_weight_plane`]): the
//! master `f32` weights stay in place (the knob is reversible and
//! optimizer steps keep updating them), while the plane's dequantized
//! `f32` weights and bias are materialized once per mutation. Forward
//! and backward consume these *effective* values through the same
//! kernels as f32 weights — bit-identical to quantizing the weights in
//! place with [`crate::precision::apply_precision`], and at the same
//! speed: a plane changes the weight values, not what a kernel streams.
//!
//! # Derived weight state
//!
//! Beside the plane, each parameterized layer keeps what its passes
//! derive from the effective weights: a linear or readout layer's
//! AVX2 panels ([`axsnn_tensor::batched::PackedWeights`]; none under
//! scalar dispatch) and every layer's count of non-zero effective
//! weights, which synaptic operations scale by. Both are built at the
//! first pass that needs them and kept until the effective weights
//! change, so no pass packs or counts per call or per step; clones
//! share the panels. Every mutation point drops them:
//! [`Layer::params_mut`] (which carries every in-place edit),
//! [`Layer::set_weight_plane`] and [`Layer::refresh_weight_plane`];
//! [`Layer::apply_grads`] repacks the panels in place when no clone
//! shares them. Gradient-only access ([`Layer::zero_grads`], the
//! backward's reduction into [`Param::grad`]) keeps them.

use crate::lif::LifParams;
use crate::network::SnnConfig;
use crate::plan::KernelPolicy;
use crate::{CoreError, Result};
use axsnn_tensor::batched::PackedWeights;
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::plane::{QuantizedPlane, WeightPlane};
use axsnn_tensor::{init, simd, Tensor};
use rand::Rng;
use std::sync::{Arc, OnceLock};

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

/// An installed reduced-precision weight plane of one parameterized
/// layer: the plane, its int8 scale, and the plane's dequantized weights
/// and bias, which every pass reads as the layer's effective values. The
/// master `f32` weights stay on the layer's [`Param`]s; this is derived
/// state, rebuilt on every weight mutation. Clones share it through an
/// `Arc` — the tensors are immutable, a refresh replaces the whole
/// handle.
#[derive(Debug, Clone)]
pub(crate) struct PlanedParams {
    /// The installed plane (never [`WeightPlane::F32`]).
    plane: WeightPlane,
    /// The int8 quantization scale (`None` for f16).
    scale: Option<f32>,
    /// Dequantized weights, same shape as the master weights.
    pub(crate) weight: Tensor,
    /// Plane-quantized bias (biases ride along at the layer's
    /// precision, matching [`crate::precision::apply_precision`]).
    pub(crate) bias: Tensor,
}

/// Quantizes one `(weight, bias)` pair onto `plane`. Returns `None` for
/// [`WeightPlane::F32`] (no plane installed).
fn planed_params(
    weight: &Tensor,
    bias: &Tensor,
    plane: WeightPlane,
) -> Result<Option<Arc<PlanedParams>>> {
    let quant = match QuantizedPlane::quantize(weight.as_slice(), plane).map_err(CoreError::from)? {
        Some(quant) => quant,
        None => return Ok(None),
    };
    let qbias = QuantizedPlane::quantize(bias.as_slice(), plane)
        .map_err(CoreError::from)?
        .expect("non-f32 planes always quantize");
    Ok(Some(Arc::new(PlanedParams {
        plane,
        scale: quant.int8_scale(),
        weight: Tensor::from_vec(quant.dequantize(), weight.shape().dims())?,
        bias: Tensor::from_vec(qbias.dequantize(), bias.shape().dims())?,
    })))
}

/// Execution state derived from a parameterized layer's *effective*
/// weights (see the module docs): built lazily by the first pass that
/// needs it and dropped whenever the effective weights change. Clones
/// share the panels through their `Arc`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DerivedWeights {
    /// A linear layer's panels (never built for conv layers, nor under
    /// scalar dispatch).
    panels: OnceLock<Arc<PackedWeights>>,
    /// Count of non-zero effective weights.
    nonzero: OnceLock<usize>,
}

impl DerivedWeights {
    /// Forgets everything, handing back the panels for an in-place
    /// repack.
    fn reset(&mut self) -> Option<Arc<PackedWeights>> {
        self.nonzero.take();
        self.panels.take()
    }
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

            /// Count of non-zero effective weights, counted once per
            /// weight change.
            pub(crate) fn nonzero_weights(&self) -> usize {
                *self.derived.nonzero.get_or_init(|| {
                    self.eff_weight()
                        .as_slice()
                        .iter()
                        .filter(|v| **v != 0.0)
                        .count()
                })
            }
        }
    };
}

macro_rules! impl_packed_panels {
    ($ty:ty) => {
        impl $ty {
            /// The effective weights as AVX2 panels, packed at the
            /// first call after a weight change and shared with clones.
            /// `None` under scalar dispatch, which streams the weights
            /// row-major, and for a weight that is not a matrix (the
            /// pass reports that shape error).
            pub(crate) fn packed(&self) -> Option<&PackedWeights> {
                let weight = self.eff_weight();
                if !simd::active() || weight.shape().rank() != 2 {
                    return None;
                }
                let panels = self.derived.panels.get_or_init(|| {
                    Arc::new(
                        PackedWeights::pack(weight).expect("the effective weights are a matrix"),
                    )
                });
                Some(panels)
            }
        }
    };
}

impl_packed_panels!(SpikingLinear);
impl_packed_panels!(OutputLinear);

impl_planed_accessors!(SpikingConv2d);
impl_planed_accessors!(SpikingLinear);
impl_planed_accessors!(OutputLinear);

/// Spiking 2-D convolution layer (`[Cin,H,W] → [Cout,OH,OW]` spikes).
///
/// Its parameters are read through [`Layer::params`] and edited through
/// [`Layer::params_mut`], which keeps the derived weight state coherent.
#[derive(Debug, Clone)]
pub struct SpikingConv2d {
    /// Convolution geometry.
    pub spec: Conv2dSpec,
    /// Filter weights `[Cout,Cin,K,K]`.
    pub(crate) weight: Param,
    /// Per-filter bias `[Cout]`.
    pub(crate) bias: Param,
    pub(crate) lif_params: LifParams,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
    derived: DerivedWeights,
}

/// Spiking fully-connected layer (`[In] → [Out]` spikes).
///
/// Its parameters are read through [`Layer::params`] and edited through
/// [`Layer::params_mut`], which keeps the derived weight state coherent.
#[derive(Debug, Clone)]
pub struct SpikingLinear {
    /// Weights `[Out, In]`.
    pub(crate) weight: Param,
    /// Bias `[Out]`.
    pub(crate) bias: Param,
    pub(crate) lif_params: LifParams,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
    derived: DerivedWeights,
}

/// Non-spiking integrator readout; the network sums its per-step outputs.
///
/// Its parameters are read through [`Layer::params`] and edited through
/// [`Layer::params_mut`], which keeps the derived weight state coherent.
#[derive(Debug, Clone)]
pub struct OutputLinear {
    /// Weights `[Out, In]`.
    pub(crate) weight: Param,
    /// Bias `[Out]`.
    pub(crate) bias: Param,
    pub(crate) policy: KernelPolicy,
    planed: Option<Arc<PlanedParams>>,
    derived: DerivedWeights,
}

/// Average-pooling layer over spikes (linear, stateless).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    /// Square window / stride.
    pub window: usize,
    pub(crate) policy: KernelPolicy,
}

/// Max-pooling layer over spikes (winner-take-all, stateless per step).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Square window / stride.
    pub window: usize,
    pub(crate) policy: KernelPolicy,
}

/// Flatten `[C,H,W] → [C·H·W]`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Flatten;

/// Spike dropout with a per-sample mask held fixed across time steps.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub probability: f32,
    /// Whether dropout is active (training) or identity (inference).
    pub train_mode: bool,
}

impl Dropout {
    /// `true` when the layer actually drops spikes: train mode with a
    /// positive probability. Inactive dropout is the identity.
    pub(crate) fn active(&self) -> bool {
        self.train_mode && self.probability > 0.0
    }
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
            policy: KernelPolicy::for_conv(&spec),
            planed: None,
            derived: DerivedWeights::default(),
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
            policy: KernelPolicy::for_linear(),
            planed: None,
            derived: DerivedWeights::default(),
        })
    }

    /// Creates the integrator readout layer.
    pub fn output_linear<R: Rng>(rng: &mut R, inputs: usize, outputs: usize) -> Layer {
        let weight = init::kaiming_uniform(rng, &[outputs, inputs], inputs);
        Layer::OutputLinear(OutputLinear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[outputs])),
            policy: KernelPolicy::for_linear(),
            planed: None,
            derived: DerivedWeights::default(),
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
            policy: KernelPolicy::for_conv(&spec),
            planed: None,
            derived: DerivedWeights::default(),
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
        Ok(Layer::SpikingLinear(SpikingLinear {
            weight: Param::new(weight),
            bias: Param::new(bias),
            lif_params: cfg.lif_params(),
            policy: KernelPolicy::for_linear(),
            planed: None,
            derived: DerivedWeights::default(),
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
            policy: KernelPolicy::for_linear(),
            planed: None,
            derived: DerivedWeights::default(),
        }))
    }

    /// Creates an average-pooling layer with square window `window`.
    pub fn avg_pool2d(window: usize) -> Layer {
        Layer::AvgPool2d(AvgPool2d {
            window,
            policy: KernelPolicy::for_pool(),
        })
    }

    /// Creates a max-pooling layer with square window `window`.
    pub fn max_pool2d(window: usize) -> Layer {
        Layer::MaxPool2d(MaxPool2d {
            window,
            policy: KernelPolicy::for_pool(),
        })
    }

    /// Creates a flatten layer.
    pub fn flatten() -> Layer {
        Layer::Flatten(Flatten)
    }

    /// Creates a dropout layer (active only in train mode).
    pub fn dropout(probability: f32) -> Layer {
        Layer::Dropout(Dropout {
            probability,
            train_mode: false,
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
    ///
    /// Every in-place edit goes through here, so the call drops the
    /// state derived from the effective weights (the linear panels and
    /// the non-zero count); the next pass rebuilds it. An installed
    /// reduced-precision plane is derived from the master weights too:
    /// rebuild it after an edit with [`Layer::refresh_weight_plane`], as
    /// the crate's own edits ([`crate::precision`], [`crate::approx`],
    /// [`Layer::apply_grads`]) do.
    pub fn params_mut(&mut self) -> Option<(&mut Param, &mut Param)> {
        let (w, b, derived) = self.parts_mut()?;
        derived.reset();
        Some((w, b))
    }

    /// The parameters and derived state of a parameterized layer, with
    /// nothing invalidated.
    fn parts_mut(&mut self) -> Option<(&mut Param, &mut Param, &mut DerivedWeights)> {
        match self {
            Layer::SpikingConv2d(l) => Some((&mut l.weight, &mut l.bias, &mut l.derived)),
            Layer::SpikingLinear(l) => Some((&mut l.weight, &mut l.bias, &mut l.derived)),
            Layer::OutputLinear(l) => Some((&mut l.weight, &mut l.bias, &mut l.derived)),
            _ => None,
        }
    }

    /// The weight and bias gradient accumulators, if any. Gradient-only
    /// access: the derived weight state stays valid.
    pub(crate) fn grads_mut(&mut self) -> Option<(&mut Tensor, &mut Tensor)> {
        let (w, b, _) = self.parts_mut()?;
        Some((&mut w.grad, &mut b.grad))
    }

    /// Builds the derived weight state now — the panels (a linear layer
    /// under AVX2 dispatch) and the non-zero count — so clones made
    /// afterwards share it instead of each building its own.
    pub(crate) fn prepare_derived(&self) {
        match self {
            Layer::SpikingConv2d(l) => {
                l.nonzero_weights();
            }
            Layer::SpikingLinear(l) => {
                l.nonzero_weights();
                l.packed();
            }
            Layer::OutputLinear(l) => {
                l.nonzero_weights();
                l.packed();
            }
            _ => {}
        }
    }

    /// Count of non-zero effective weights (`0` for layers without
    /// weights), counted once per weight change.
    pub(crate) fn nonzero_weights(&self) -> usize {
        match self {
            Layer::SpikingConv2d(l) => l.nonzero_weights(),
            Layer::SpikingLinear(l) => l.nonzero_weights(),
            Layer::OutputLinear(l) => l.nonzero_weights(),
            _ => 0,
        }
    }

    /// The layer's *effective* weight/bias tensors — the dequantized
    /// plane image when a reduced-precision plane is installed, the
    /// master parameters otherwise. This is what forward/backward
    /// actually consume.
    #[cfg(test)]
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
            Layer::SpikingConv2d(l) => l.lif_params = params,
            Layer::SpikingLinear(l) => l.lif_params = params,
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

    /// Zeroes the parameter gradients.
    pub fn zero_grads(&mut self) {
        if let Some((w, b, _)) = self.parts_mut() {
            w.zero_grad();
            b.zero_grad();
        }
    }

    /// Applies an SGD-with-momentum update to the layer parameters,
    /// re-materializes any installed reduced-precision weight plane
    /// from the updated master weights, and repacks the layer's panels
    /// in place when no clone shares them (they rebuild at the next
    /// pass otherwise).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur for well-formed layers
    /// with finite weights).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32) -> Result<()> {
        let Some((w, b, derived)) = self.parts_mut() else {
            return Ok(());
        };
        let panels = derived.reset();
        w.apply(lr, momentum)?;
        b.apply(lr, momentum)?;
        self.refresh_weight_plane()?;
        let Some(mut panels) = panels else {
            return Ok(());
        };
        let (weight, planed, derived) = match self {
            Layer::SpikingLinear(l) => (&l.weight.value, l.planed.as_deref(), &mut l.derived),
            Layer::OutputLinear(l) => (&l.weight.value, l.planed.as_deref(), &mut l.derived),
            _ => return Ok(()),
        };
        let weight = planed.map_or(weight, |p| &p.weight);
        // Repacking into the panels the layer already owns, instead of
        // dropping them for the next pass to pack afresh, read BPTT
        // training 2.3% faster (the `train_bptt` benchmark, 10 of 10
        // alternated pairs; 2.7% with glibc's malloc thresholds fixed).
        if let Some(inner) = Arc::get_mut(&mut panels) {
            if inner.repack(weight).is_ok() {
                let _ = derived.panels.set(panels);
            }
        }
        Ok(())
    }

    /// Installs a reduced-precision weight plane on a parameterized
    /// layer (conv / linear / readout). The master `f32` weights stay in
    /// place — the knob is reversible and training keeps updating them —
    /// while forward and backward consume the plane's dequantized
    /// values, bit-identical to quantizing the weights in place with
    /// [`crate::precision::apply_precision`]. [`WeightPlane::F32`]
    /// uninstalls any plane. No-op for layers without weights.
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
                l.derived.reset();
            }
            Layer::SpikingLinear(l) => {
                l.planed = planed_params(&l.weight.value, &l.bias.value, plane)?;
                l.derived.reset();
            }
            Layer::OutputLinear(l) => {
                l.planed = planed_params(&l.weight.value, &l.bias.value, plane)?;
                l.derived.reset();
            }
            _ => {}
        }
        Ok(())
    }

    /// The installed weight plane of a parameterized layer
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
                .map(|p| p.plane)
                .unwrap_or(WeightPlane::F32),
        )
    }

    /// Re-materializes the plane's values from the current master
    /// weights when a reduced-precision plane is installed, dropping
    /// the state derived from the old ones (no-op otherwise). Every library
    /// function that rewrites weights — optimizer steps,
    /// [`crate::precision::apply_precision`] and
    /// [`crate::precision::apply_step_quantization`], the
    /// [`crate::approx`] pruning passes — calls this so the derived
    /// values never go stale; code that edits through
    /// [`Layer::params_mut`] calls it after its edit.
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
        planed.as_deref().and_then(|p| p.scale)
    }

    /// Sets the spike-density threshold below which this layer's
    /// forward pass takes the event-driven sparse kernels — and, for
    /// recorded steps of conv/linear/readout layers, records the
    /// event-form BPTT tape (`0.0` forces the dense path and a dense
    /// tape everywhere; no-op for flatten/dropout layers).
    pub(crate) fn set_sparse_threshold(&mut self, threshold: f32) {
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

    /// Cumulative count of *dense-fallback conversions*: rows at a
    /// forward step (inference **and** recorded training steps, which
    /// gate onto the event-form tape the same way) where this layer
    /// wanted the event-driven sparse path (threshold above zero) but
    /// the gate declined — because the row was non-binary (e.g. an
    /// analog direct-current encoding, or de-binarized by an upstream
    /// average pool) or denser than the threshold. Makes the silent
    /// sparse→dense degradation observable; each declined batch row
    /// counts once, so a batch counts what its rows would count one at
    /// a time.
    ///
    /// Returns `None` for layers without a sparse path. The counter is
    /// shared across clones of the layer (the sharded batch evaluators
    /// clone the network per worker, and those workers' fallbacks
    /// aggregate into the caller's instance) and is never reset.
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
    //! Each layer's behaviour, observed through a network's fused pass:
    //! a layer under test feeds an identity readout, so the logits are
    //! its output summed over the time steps.

    use super::*;
    use crate::encoding::Encoder;
    use crate::fused::FrameTrain;
    use crate::network::SpikingNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> SnnConfig {
        SnnConfig {
            threshold: 1.0,
            time_steps: 4,
            leak: 0.9,
        }
    }

    /// `layers` followed by an `[n, n]` identity readout.
    fn probe(mut layers: Vec<Layer>, n: usize) -> SpikingNetwork {
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let eye = Tensor::from_vec(eye, &[n, n]).unwrap();
        layers.push(Layer::output_linear_from(eye, Tensor::zeros(&[n])).unwrap());
        SpikingNetwork::new(layers, cfg()).unwrap()
    }

    #[test]
    fn linear_layer_emits_binary_spikes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::spiking_linear(&mut rng, 4, 3, &cfg())], 3);
        let y = net
            .forward(&[Tensor::ones(&[4])], false, &mut rng)
            .unwrap()
            .logits;
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
        let conv = Layer::spiking_conv2d(&mut rng, spec, &cfg());
        let x = [Tensor::ones(&[1, 8, 8])];
        let mut net = probe(vec![conv.clone(), Layer::flatten()], 4 * 8 * 8);
        let y = net.forward(&x, false, &mut rng).unwrap().logits;
        assert_eq!(y.len(), 4 * 8 * 8);
        let mut short = probe(vec![conv, Layer::flatten()], 4 * 8 * 8 - 1);
        assert!(short.forward(&x, false, &mut rng).is_err());
    }

    #[test]
    fn reset_clears_membrane() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::spiking_linear(&mut rng, 2, 2, &cfg())], 2);
        let x = vec![Tensor::full(&[2], 0.4); 3];
        let a = net.forward(&x, false, &mut rng).unwrap().logits;
        let b = net.forward(&x, false, &mut rng).unwrap().logits;
        assert_eq!(a, b, "every forward must start from resting membranes");
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::dropout(0.5)], 10);
        let x = Tensor::ones(&[10]);
        let y = net
            .forward(std::slice::from_ref(&x), false, &mut rng)
            .unwrap()
            .logits;
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_mask_fixed_across_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = probe(vec![Layer::dropout(0.5)], 64);
        net.set_train_mode(true);
        let x = vec![Tensor::ones(&[64]); 2];
        // Kept units pass 1/keep = 2 at each of the two steps.
        let a = net.forward(&x, false, &mut rng).unwrap().logits;
        assert!(
            a.as_slice().iter().all(|&v| v == 0.0 || v == 4.0),
            "mask must persist within a sample: {a:?}"
        );
        assert!(a.as_slice().contains(&0.0) && a.as_slice().contains(&4.0));
        let c = net.forward(&x, false, &mut rng).unwrap().logits;
        assert_ne!(a, c, "mask must be redrawn for the next sample");
    }

    #[test]
    fn flatten_roundtrip_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::flatten()], 24);
        let y = net
            .forward(&[Tensor::ones(&[2, 3, 4])], true, &mut rng)
            .unwrap()
            .logits;
        assert_eq!(y.shape().dims(), &[24]);
        let g = net.backward(&Tensor::ones(&[24]), 1).unwrap();
        assert_eq!(g[0].shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::spiking_linear(&mut rng, 2, 2, &cfg())], 2);
        let e = net.backward(&Tensor::ones(&[2]), 1);
        assert!(matches!(e, Err(CoreError::NoRecordedForward)));
    }

    #[test]
    fn output_linear_accumulates_param_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net =
            SpikingNetwork::new(vec![Layer::output_linear(&mut rng, 3, 2)], cfg()).unwrap();
        net.forward(&[Tensor::ones(&[3])], true, &mut rng).unwrap();
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        net.backward(&g, 1).unwrap();
        let (w, b) = net.layers()[0].params().unwrap();
        assert_eq!(b.grad.as_slice(), &[1.0, -1.0]);
        assert_eq!(w.grad.as_slice(), &[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn max_pool_layer_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let pool = Layer::max_pool2d(2);
        assert_eq!(pool.kind(), "max_pool2d");
        let mut net = probe(vec![pool, Layer::flatten()], 4);
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
        let y = net.forward(&[x], true, &mut rng).unwrap().logits;
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let g = &net.backward(&Tensor::ones(&[4]), 1).unwrap()[0];
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.at(&[0, 0, 0]).unwrap(), 1.0); // routed to the winner
    }

    #[test]
    fn max_pool_backward_without_record_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::max_pool2d(2), Layer::flatten()], 4);
        net.forward(&[Tensor::ones(&[1, 4, 4])], false, &mut rng)
            .unwrap();
        assert!(net.backward(&Tensor::ones(&[4]), 1).is_err());
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
        // the sparse kernel is what actually runs.
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
            let frames = vec![x.clone(); 3];
            let a = probe(vec![planed], 5)
                .forward(&frames, false, &mut rng.clone())
                .unwrap();
            let b = probe(vec![emulated], 5)
                .forward(&frames, false, &mut rng.clone())
                .unwrap();
            assert_eq!(
                a.logits.as_slice(),
                b.logits.as_slice(),
                "{plane} plane must match emulation"
            );
        }
    }

    #[test]
    fn apply_grads_refreshes_installed_plane() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net =
            SpikingNetwork::new(vec![Layer::output_linear(&mut rng, 3, 2)], cfg()).unwrap();
        net.set_weight_plane(WeightPlane::Int8).unwrap();
        net.forward(&[Tensor::ones(&[3])], true, &mut rng).unwrap();
        net.backward(&Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(), 1)
            .unwrap();
        let eff_weight = |net: &SpikingNetwork| match &net.layers()[0] {
            Layer::OutputLinear(o) => o.eff_weight().clone(),
            _ => unreachable!(),
        };
        let before = eff_weight(&net);
        net.apply_grads(0.1, 0.0).unwrap();
        let after = eff_weight(&net);
        assert_ne!(
            before.as_slice(),
            after.as_slice(),
            "plane values must be rebuilt from the updated master weights"
        );
        assert_eq!(net.layers()[0].weight_plane(), Some(WeightPlane::Int8));
    }

    /// Where layer `li`'s panels live, when built. An address, not a
    /// handle: holding the `Arc` would share the panels.
    fn panels(net: &SpikingNetwork, li: usize) -> Option<*const PackedWeights> {
        let derived = match &net.layers()[li] {
            Layer::SpikingLinear(l) => &l.derived,
            Layer::OutputLinear(l) => &l.derived,
            _ => return None,
        };
        derived.panels.get().map(Arc::as_ptr)
    }

    fn mlp(seed: u64) -> SpikingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = vec![
            Layer::spiking_linear(&mut rng, 20, 12, &cfg()),
            Layer::output_linear(&mut rng, 12, 3),
        ];
        SpikingNetwork::new(layers, cfg()).unwrap()
    }

    #[test]
    fn passes_pack_once_and_scalar_dispatch_holds_no_panels() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = mlp(1);
        assert!(panels(&net, 0).is_none(), "nothing packs before a pass");
        let x = vec![Tensor::full(&[20], 0.3); 4];
        net.forward(&x, false, &mut rng).unwrap();
        let built = panels(&net, 0);
        assert_eq!(built.is_some(), simd::active(), "panels exactly under AVX2");
        assert_eq!(panels(&net, 1).is_some(), simd::active());
        net.forward(&x, true, &mut rng).unwrap();
        net.backward(&Tensor::ones(&[3]), 4).unwrap();
        assert_eq!(built, panels(&net, 0), "passes reuse the panels");
        net.zero_grads();
        assert_eq!(built, panels(&net, 0), "gradient access keeps them");
        let clone = net.clone();
        assert_eq!(built, panels(&clone, 0), "clones share them");
        if let Layer::SpikingLinear(l) = &net.layers()[0] {
            assert!(l.derived.nonzero.get().is_some(), "forward counted once");
        }
    }

    #[test]
    fn weight_changes_drop_or_repack_panels() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = vec![Tensor::full(&[20], 0.3); 4];
        let mut net = mlp(2);
        net.forward(&x, true, &mut rng).unwrap();
        net.backward(&Tensor::ones(&[3]), 4).unwrap();
        let built = panels(&net, 0);
        // No clone shares them: repacked in place, same allocation.
        net.apply_grads(0.1, 0.0).unwrap();
        assert_eq!(built, panels(&net, 0));
        // A clone shares them: dropped, rebuilt at the next pass.
        let clone = net.clone();
        net.apply_grads(0.1, 0.0).unwrap();
        assert!(panels(&net, 0).is_none());
        assert_eq!(built, panels(&clone, 0), "the clone keeps its own");
        net.forward(&x, false, &mut rng).unwrap();
        assert_eq!(panels(&net, 0).is_some(), simd::active());
        net.layers_mut()[0].params_mut();
        assert!(panels(&net, 0).is_none(), "params_mut drops them");
        if let Layer::SpikingLinear(l) = &net.layers()[0] {
            assert!(l.derived.nonzero.get().is_none(), "and the count");
        }
        net.forward(&x, false, &mut rng).unwrap();
        net.set_weight_plane(WeightPlane::F16).unwrap();
        assert!(panels(&net, 0).is_none(), "a plane switch drops them");
    }

    #[test]
    fn sharded_classifiers_pack_the_caller_once() {
        let net = mlp(3);
        let mut rng = StdRng::seed_from_u64(3);
        let trains: Vec<FrameTrain> = (0..5)
            .map(|_| FrameTrain::encode(&Tensor::full(&[20], 0.6), Encoder::Poisson, 4, &mut rng))
            .collect::<Result<_>>()
            .unwrap();
        net.classify_trains_sharded(&trains, 2, 2).unwrap();
        let built = panels(&net, 0);
        assert_eq!(built.is_some(), simd::active());
        net.classify_trains_sharded(&trains, 2, 2).unwrap();
        let images = vec![Tensor::full(&[20], 0.6); 3];
        net.classify_images_fused(&images, Encoder::Poisson, 7, 2, 2)
            .unwrap();
        assert_eq!(built, panels(&net, 0), "packed once, on the caller");
    }

    #[test]
    fn set_lif_params_changes_firing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = probe(vec![Layer::spiking_linear(&mut rng, 4, 4, &cfg())], 4);
        net.layers_mut()[0].set_lif_params(LifParams {
            threshold: 1000.0,
            leak: 0.9,
            surrogate_alpha: 2.0,
        });
        let y = net
            .forward(&[Tensor::ones(&[4])], false, &mut rng)
            .unwrap()
            .logits;
        assert_eq!(y.sum(), 0.0, "huge threshold must silence the layer");
    }
}
