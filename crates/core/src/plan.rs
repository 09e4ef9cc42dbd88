//! The unified kernel-dispatch layer: one place that decides, per
//! layer, which kernel family executes and under what density
//! threshold.
//!
//! Before this module the repro's core win — event-driven sparse
//! execution gated by spike density — was re-derived at every call
//! site: each layer struct carried its own `sparse_threshold`, the
//! fused batch engine had a private admission gate, and the trainers
//! re-plumbed their own thresholding options. Adding a new kernel meant
//! threading a decision through five files. Now:
//!
//! * [`KernelPolicy`] is the per-layer *executable* policy — the
//!   density gate ([`KernelPolicy::admit_slice`] and friends), the
//!   dense-fallback accounting, and the batched-conv kernel choice all
//!   live here. The layer structs and the fused engine hold a policy
//!   and ask it; they no longer interpret thresholds themselves.
//! * [`ExecPlan`] is the per-network view: built once per network (and
//!   re-captured on the few mutation points that can change it), it
//!   records every layer's [`KernelChoice`], conv batch kernel and
//!   sparse-path eligibility. [`crate::network::SpikingNetwork::sparse_eligible`]
//!   and `dense_fallback_counts` are views over this plan.
//! * [`PlanOverride`] replaces ad-hoc threshold plumbing for the
//!   A/B paths the tests and benches need (`ForceDense`,
//!   `ForceThreshold`).
//! * Each policy also carries the layer's weight storage plane
//!   ([`WeightPlane`], installed through
//!   [`crate::layer::Layer::set_weight_plane`]) — an orthogonal knob:
//!   the density gate picks *which* kernel runs, the plane decides
//!   whether that kernel streams f32, f16 or int8 weights.
//! * [`BackwardOpts`] — the backward-pass execution policy (worker
//!   threads) consumed by the SNN minibatch backward, the batched ANN
//!   trainer and the defense adversarial trainer — lives here too, so
//!   *all* execution-policy types share one module.
//!
//! The auto plan (`PlanOverride::Auto`) gates every sparse-capable
//! layer at [`DEFAULT_DENSITY_THRESHOLD`], and conv layers whose
//! stencil is large enough to amortize a reordering pass select the
//! event-sorted batched scatter
//! ([`axsnn_tensor::batched::sparse_conv2d_batch_sorted`]) for fused
//! batches.
//!
//! # Plans choose how, never what
//!
//! Every sparse kernel sums in its dense twin's order: a spike gather
//! adds each output's active columns in ascending index order from
//! `+0.0` and the bias last, as the dense matvec and GEMM do over every
//! column; the scatter conv adds events in the dense conv's window
//! order after the bias; the event avg pool scales the dense pool's
//! count. On a binary frame the dense kernels' extra terms are exact
//! zeros, which change no partial sum. So for finite effective weights
//! no plan ([`PlanOverride::Auto`], [`PlanOverride::ForceDense`],
//! [`PlanOverride::ForceThreshold`]), no batched-conv kernel and no
//! batch size changes a bit of any forward output, on inference and
//! recorded steps alike — the plan decides only speed. `tests/plan_equivalence.rs` pins this.
//!
//! The one exception is a non-finite effective weight. The dense
//! kernels multiply every weight by its input, and `±inf · 0` is NaN,
//! so a dense step turns the inactive `inf` terms into NaN outputs
//! that the event kernels, which never read them, do not produce.

use crate::layer::Layer;
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::sparse::SpikeVector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use axsnn_tensor::plane::WeightPlane;
pub use axsnn_tensor::sparse::DEFAULT_DENSITY_THRESHOLD;

/// Dense-fallback counter shared across clones of a layer.
///
/// The sharded batch evaluators hand each worker a *clone* of the
/// network; an `Arc`-shared atomic lets those workers' fallback events
/// aggregate into the instance the caller holds, so the sparse→dense
/// degradation stays observable on exactly the sweep paths it matters
/// for. Relaxed ordering suffices — it is a statistics counter with no
/// ordering dependencies.
#[derive(Debug, Clone, Default)]
pub(crate) struct FallbackCounter(Arc<AtomicU64>);

impl FallbackCounter {
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which kernel family a layer executes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelChoice {
    /// Always the dense kernels; the density gate never engages.
    Dense,
    /// Density-gated event kernels: binary frames at or below
    /// `threshold` take the sparse path, everything else falls back to
    /// dense (and counts on the layer's fallback counter).
    Sparse {
        /// Maximum admitted spike density, in `(0, 1]`.
        threshold: f32,
    },
}

impl KernelChoice {
    /// The admission threshold this choice gates at (`0.0` for
    /// [`KernelChoice::Dense`]).
    pub fn threshold(&self) -> f32 {
        match self {
            KernelChoice::Dense => 0.0,
            KernelChoice::Sparse { threshold } => *threshold,
        }
    }

    /// Normalizes a raw threshold into a choice: non-positive (or NaN)
    /// thresholds mean the dense kernels.
    pub fn from_threshold(threshold: f32) -> KernelChoice {
        if threshold > 0.0 {
            KernelChoice::Sparse { threshold }
        } else {
            KernelChoice::Dense
        }
    }
}

/// How a conv layer's gate-admitted rows execute inside the fused batch
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvBatchKernel {
    /// Per-row scatter ([`axsnn_tensor::sparse::sparse_conv2d_into`]),
    /// one event sweep per row.
    RowByRow,
    /// Event-sorted batched scatter
    /// ([`axsnn_tensor::batched::sparse_conv2d_batch_sorted`]): all
    /// rows' events are sorted per weight-stencil tile and the conv
    /// weights are walked once per batch. Bit-identical per row to
    /// [`ConvBatchKernel::RowByRow`].
    EventSorted,
}

impl ConvBatchKernel {
    /// Shape-derived choice: the event-sorted scatter pays an `O(nnz)`
    /// reordering pass to walk the weights once per batch, which wins
    /// as soon as each event carries a non-trivial stencil
    /// (`Cout × K²` accumulates). Degenerate stencils keep the per-row
    /// sweep.
    pub fn for_spec(spec: &Conv2dSpec) -> ConvBatchKernel {
        if spec.out_channels * spec.kernel * spec.kernel >= 8 {
            ConvBatchKernel::EventSorted
        } else {
            ConvBatchKernel::RowByRow
        }
    }
}

/// The per-layer executable policy: kernel choice, density gate and
/// fallback accounting.
///
/// Every density-gate decision in the workspace routes through this
/// type — the layer structs ([`crate::layer`]) and the fused batch
/// engine ([`crate::fused`]) hold a policy and call
/// [`KernelPolicy::admit_slice`] / [`KernelPolicy::admit_count`]
/// instead of interpreting thresholds locally. Clones share the
/// fallback counter (worker clones aggregate into the caller's
/// instance) but own their threshold, so A/B clones can force different
/// plans without affecting each other.
#[derive(Debug, Clone)]
pub struct KernelPolicy {
    choice: KernelChoice,
    conv_batch: ConvBatchKernel,
    plane: WeightPlane,
    fallbacks: FallbackCounter,
}

impl KernelPolicy {
    fn new(choice: KernelChoice, conv_batch: ConvBatchKernel) -> KernelPolicy {
        KernelPolicy {
            choice,
            conv_batch,
            plane: WeightPlane::F32,
            fallbacks: FallbackCounter::default(),
        }
    }

    /// Auto policy for a spiking/readout linear layer.
    pub fn for_linear() -> KernelPolicy {
        Self::new(
            KernelChoice::Sparse {
                threshold: DEFAULT_DENSITY_THRESHOLD,
            },
            ConvBatchKernel::RowByRow,
        )
    }

    /// Auto policy for a spiking conv layer (batched-conv kernel chosen
    /// from the stencil shape).
    pub fn for_conv(spec: &Conv2dSpec) -> KernelPolicy {
        Self::new(
            KernelChoice::Sparse {
                threshold: DEFAULT_DENSITY_THRESHOLD,
            },
            ConvBatchKernel::for_spec(spec),
        )
    }

    /// Auto policy for a pooling layer.
    pub fn for_pool() -> KernelPolicy {
        Self::new(
            KernelChoice::Sparse {
                threshold: DEFAULT_DENSITY_THRESHOLD,
            },
            ConvBatchKernel::RowByRow,
        )
    }

    /// The active kernel choice.
    pub fn choice(&self) -> KernelChoice {
        self.choice
    }

    /// The density threshold the gate admits at (`0.0` = dense).
    pub fn threshold(&self) -> f32 {
        self.choice.threshold()
    }

    /// The batched-conv kernel this policy selects.
    pub fn conv_batch(&self) -> ConvBatchKernel {
        self.conv_batch
    }

    pub(crate) fn set_threshold(&mut self, threshold: f32) {
        self.choice = KernelChoice::from_threshold(threshold);
    }

    pub(crate) fn set_conv_batch(&mut self, kernel: ConvBatchKernel) {
        self.conv_batch = kernel;
    }

    /// The weight storage plane the layer executes with
    /// ([`WeightPlane::F32`] unless a reduced-precision plane is
    /// installed through
    /// [`crate::layer::Layer::set_weight_plane`]). Orthogonal to the
    /// kernel choice: the density gate decides *which* kernel runs,
    /// the plane decides what the kernel's weight stream is made of.
    pub fn plane(&self) -> WeightPlane {
        self.plane
    }

    pub(crate) fn set_plane(&mut self, plane: WeightPlane) {
        self.plane = plane;
    }

    /// Cumulative dense-fallback conversions recorded by this policy
    /// (shared across clones).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.get()
    }

    /// `true` when the density gate is engaged: a sparse choice with a
    /// positive threshold. Only an armed gate counts fallbacks.
    fn armed(&self) -> bool {
        let threshold = self.threshold();
        !threshold.is_nan() && threshold > 0.0
    }

    /// The density gate on a dense row: returns the row's events
    /// exactly when the choice is sparse, the row is binary, and its
    /// density is at most the threshold. A declined row under an armed
    /// gate counts one dense-fallback conversion. It takes a raw slice
    /// so the fused batch engine gates rows of a stacked `[B, n]` block
    /// without materializing per-row tensors.
    pub fn admit_slice(&self, data: &[f32]) -> Option<SpikeVector> {
        if !self.armed() {
            return None;
        }
        let events = SpikeVector::from_slice_if_sparse(data, self.threshold());
        if events.is_none() {
            self.fallbacks.add(1);
        }
        events
    }

    /// The density gate on a binary row already in event form (the
    /// fused engine's CSR planes: input spike frames, spiking-layer
    /// output, event max-pool output), given its event count `nnz` and
    /// logical length `len`: admits exactly when a dense
    /// materialization of the row would pass
    /// [`KernelPolicy::admit_slice`]. The row is binary by construction,
    /// so only the density cap `nnz ≤ ⌊threshold·len⌋` is checked, which
    /// requires the row's indices to be unique. Declines count a
    /// fallback under an armed gate.
    pub fn admit_count(&self, nnz: usize, len: usize) -> bool {
        if !self.armed() {
            return false;
        }
        let cap = (self.threshold() as f64 * len as f64).floor() as usize;
        if nnz <= cap {
            true
        } else {
            self.fallbacks.add(1);
            false
        }
    }

    /// Counts `rows` declines of rows the gate is known to decline
    /// without looking at them: non-binary frames, which no threshold
    /// admits. Counts only under an armed gate, like the gate itself.
    pub(crate) fn decline_analog(&self, rows: usize) {
        if self.armed() {
            self.fallbacks.add(rows as u64);
        }
    }
}

/// One layer's entry in the [`SparseEligibility`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEligibility {
    /// Layer kind (as [`Layer::kind`]).
    pub kind: String,
    /// Whether the layer has an event-driven kernel at all.
    pub has_sparse_kernel: bool,
    /// Whether the layer's input can still be binary at this depth
    /// (assuming a binary network input).
    pub binary_input: bool,
    /// Whether this layer destroys binarity for everything downstream
    /// (average pooling, active train-mode dropout).
    pub debinarizes: bool,
}

/// Result of the static sparse-path eligibility audit: which layers can
/// ever take the event-driven sparse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseEligibility {
    /// Per-layer audit entries, in stack order.
    pub per_layer: Vec<LayerEligibility>,
    /// `true` when every layer with a sparse kernel can receive binary
    /// input — no silent dense degradation anywhere.
    pub fully_eligible: bool,
    /// Index of the first de-binarizing layer, if any.
    pub first_debinarizing: Option<usize>,
}

/// A network-wide plan override for A/B comparisons and equivalence
/// tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanOverride {
    /// Per-layer auto choices: the shape-derived defaults every layer
    /// constructor installs.
    Auto,
    /// Force the dense kernels everywhere. Bit-identical to the other
    /// plans for finite weights (see the module docs), so this is an
    /// A/B switch for benches and tests, never a result knob.
    ForceDense,
    /// Force every sparse-capable layer's gate to the given threshold
    /// (`1.0` admits every binary frame; non-positive values degenerate
    /// to [`PlanOverride::ForceDense`]).
    ForceThreshold(f32),
}

/// One layer's entry of an [`ExecPlan`].
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Layer kind (as [`Layer::kind`]).
    pub kind: &'static str,
    /// The kernel choice installed when the plan was captured (`None`
    /// for layers without kernels to choose — flatten, dropout).
    pub choice: Option<KernelChoice>,
    /// The batched-conv kernel, for conv layers.
    pub conv_batch: Option<ConvBatchKernel>,
    /// The weight storage plane, for parameterized layers (`None` for
    /// layers without weights).
    pub plane: Option<WeightPlane>,
    /// The layer's eligibility audit entry.
    pub eligibility: LayerEligibility,
    /// Shared handle onto the layer's fallback counter.
    pub(crate) fallbacks: Option<FallbackCounter>,
}

/// The per-network execution plan: every layer's kernel choice plus the
/// static sparse-path eligibility audit, captured once per network.
///
/// The plan is (re-)captured on the mutation points that can change it
/// — construction, [`crate::network::SpikingNetwork::apply_plan`] /
/// `set_sparse_threshold`, and `set_train_mode` (train-mode dropout
/// de-binarizes) — and the network's `sparse_eligible()` /
/// `dense_fallback_counts()` are views over it.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    layers: Vec<LayerPlan>,
}

impl ExecPlan {
    /// Captures the plan of a layer stack: per-layer kernel choices (as
    /// installed in the layers' policies) plus the eligibility audit.
    ///
    /// The audit walks the stack assuming a binary (rate-coded) network
    /// input and reports, per layer, whether its input can still be
    /// binary when it arrives — i.e. whether the event-driven kernels
    /// can ever engage there. Average pooling de-binarizes inter-layer
    /// frames (window sums become fractions), silently forcing every
    /// downstream layer onto the dense path until the next spiking
    /// layer re-binarizes; the plan makes that visible before running
    /// anything. Ineligible layers keep their gate armed anyway so the
    /// fallback counters still witness the degradation at runtime.
    pub fn capture(layers: &[Layer]) -> ExecPlan {
        let mut entries = Vec::with_capacity(layers.len());
        let mut binary = true;
        for layer in layers {
            let policy = layer.policy();
            let debinarizes = match layer {
                Layer::AvgPool2d(p) => p.window > 1,
                Layer::Dropout(d) => d.active(),
                _ => false,
            };
            entries.push(LayerPlan {
                kind: layer.kind(),
                choice: policy.map(KernelPolicy::choice),
                conv_batch: match layer {
                    Layer::SpikingConv2d(_) => policy.map(KernelPolicy::conv_batch),
                    _ => None,
                },
                plane: layer.weight_plane(),
                eligibility: LayerEligibility {
                    kind: layer.kind().to_string(),
                    has_sparse_kernel: policy.is_some(),
                    binary_input: binary,
                    debinarizes,
                },
                fallbacks: policy.map(|p| p.fallbacks.clone()),
            });
            binary = if layer.is_spiking() {
                // LIF populations emit binary spikes regardless of input.
                true
            } else if matches!(layer, Layer::OutputLinear(_)) {
                false
            } else {
                binary && !debinarizes
            };
        }
        ExecPlan { layers: entries }
    }

    /// Applies a plan override onto a layer stack (mutating each
    /// layer's policy, preserving its fallback counter), then captures
    /// the resulting plan.
    pub fn apply(layers: &mut [Layer], plan: PlanOverride) -> ExecPlan {
        for layer in layers.iter_mut() {
            let auto = match layer {
                Layer::SpikingConv2d(l) => Some(KernelPolicy::for_conv(&l.spec)),
                Layer::SpikingLinear(_) | Layer::OutputLinear(_) => {
                    Some(KernelPolicy::for_linear())
                }
                Layer::AvgPool2d(_) | Layer::MaxPool2d(_) => Some(KernelPolicy::for_pool()),
                Layer::Flatten(_) | Layer::Dropout(_) => None,
            };
            if let (Some(policy), Some(auto)) = (layer.policy_mut(), auto) {
                match plan {
                    PlanOverride::Auto => {
                        policy.choice = auto.choice;
                        policy.conv_batch = auto.conv_batch;
                    }
                    PlanOverride::ForceDense => policy.set_threshold(0.0),
                    PlanOverride::ForceThreshold(t) => policy.set_threshold(t),
                }
            }
        }
        Self::capture(layers)
    }

    /// The per-layer plan entries, in stack order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// The static sparse-path eligibility report (the view
    /// [`crate::network::SpikingNetwork::sparse_eligible`] serves).
    pub fn eligibility(&self) -> SparseEligibility {
        let per_layer: Vec<LayerEligibility> =
            self.layers.iter().map(|l| l.eligibility.clone()).collect();
        let fully_eligible = per_layer
            .iter()
            .all(|l| !l.has_sparse_kernel || l.binary_input);
        let first_debinarizing = per_layer.iter().position(|l| l.debinarizes);
        SparseEligibility {
            per_layer,
            fully_eligible,
            first_debinarizing,
        }
    }

    /// Per-layer dense-fallback counters (`0` for layers without a
    /// sparse path) — live views through the shared counters, so worker
    /// clones' fallbacks are included.
    pub fn dense_fallback_counts(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| l.fallbacks.as_ref().map(FallbackCounter::get).unwrap_or(0))
            .collect()
    }

    /// The instruction-set backend the tensor kernels dispatch to in
    /// this process — the plan's ISA dimension. `"avx2"` when runtime
    /// detection found AVX2+FMA and `AXSNN_NO_SIMD` is unset, else
    /// `"scalar"`. Unlike the per-layer choices it is process-global
    /// and resolved live rather than stored, so a deserialized network
    /// snapshot re-resolves it on the machine it actually runs on (both
    /// backends are bit-identical, so the plan stays portable).
    pub fn isa(&self) -> &'static str {
        axsnn_tensor::simd::isa_label()
    }

    /// The detected CPU feature list (e.g. `"avx2,fma,f16c"`),
    /// independent of the `AXSNN_NO_SIMD` override — what the bench
    /// records store so perf floors stay hardware-aware.
    pub fn isa_features(&self) -> &'static str {
        axsnn_tensor::simd::detected_features()
    }

    /// A compact human-readable table of the plan (bench/scenario
    /// diagnostics), ending with the process-global ISA dimension.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("layer              choice          conv-batch     plane  eligible\n");
        for entry in &self.layers {
            let choice = match entry.choice {
                None => "-".to_string(),
                Some(KernelChoice::Dense) => "dense".to_string(),
                Some(KernelChoice::Sparse { threshold }) => format!("sparse@{threshold:.2}"),
            };
            let conv = match entry.conv_batch {
                None => "-",
                Some(ConvBatchKernel::RowByRow) => "row-by-row",
                Some(ConvBatchKernel::EventSorted) => "event-sorted",
            };
            let plane = match entry.plane {
                None => "-",
                Some(p) => p.name(),
            };
            let eligible = if !entry.eligibility.has_sparse_kernel {
                "-"
            } else if entry.eligibility.binary_input {
                "yes"
            } else {
                "no"
            };
            let _ = writeln!(
                out,
                "{:<18} {:<15} {:<14} {:<6} {}",
                entry.kind, choice, conv, plane, eligible
            );
        }
        let _ = writeln!(
            out,
            "isa: {} (detected: {}; AXSNN_NO_SIMD=1 forces scalar)",
            self.isa(),
            self.isa_features()
        );
        out
    }
}

/// Execution options for the batched backward passes
/// ([`crate::network::SpikingNetwork::backward_batch_with`],
/// [`crate::ann::AnnNetwork::forward_backward_batch_with`]) — the
/// backward half of the execution policy, consumed through
/// [`crate::train::TrainConfig::backward`] by both trainers and the
/// defense adversarial trainer. Every gradient is exact: the options
/// choose how the work is scheduled, never what it computes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackwardOpts {
    /// Worker threads for the row-sharded backward; `0` (the default)
    /// uses all available cores. Gradients are bit-identical for every
    /// value — the shard partition and reduction order never depend on
    /// it.
    pub threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SnnConfig;
    use axsnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_choice_thresholds() {
        assert_eq!(KernelChoice::Dense.threshold(), 0.0);
        assert_eq!(KernelChoice::Sparse { threshold: 0.4 }.threshold(), 0.4);
        assert_eq!(KernelChoice::from_threshold(0.0), KernelChoice::Dense);
        assert_eq!(KernelChoice::from_threshold(-1.0), KernelChoice::Dense);
        assert_eq!(KernelChoice::from_threshold(f32::NAN), KernelChoice::Dense);
        assert_eq!(
            KernelChoice::from_threshold(0.3),
            KernelChoice::Sparse { threshold: 0.3 }
        );
    }

    #[test]
    fn conv_batch_kernel_is_shape_derived() {
        let big = Conv2dSpec {
            in_channels: 1,
            out_channels: 8,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        assert_eq!(
            ConvBatchKernel::for_spec(&big),
            ConvBatchKernel::EventSorted
        );
        let tiny = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        assert_eq!(ConvBatchKernel::for_spec(&tiny), ConvBatchKernel::RowByRow);
    }

    #[test]
    fn policy_gate_admits_and_counts_fallbacks() {
        let policy = KernelPolicy::for_linear();
        let sparse = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0], &[5]).unwrap();
        assert!(policy.admit_slice(sparse.as_slice()).is_some());
        assert_eq!(policy.fallback_count(), 0);
        let analog = Tensor::from_vec(vec![0.5, 0.0, 0.0, 0.0, 0.0], &[5]).unwrap();
        assert!(policy.admit_slice(analog.as_slice()).is_none());
        assert_eq!(policy.fallback_count(), 1, "armed gate counts declines");
        let mut dense_policy = policy.clone();
        dense_policy.set_threshold(0.0);
        assert!(dense_policy.admit_slice(sparse.as_slice()).is_none());
        // Disarmed gates never count — but the counter is shared with
        // the clone's origin, so it still reads 1.
        assert_eq!(dense_policy.fallback_count(), 1);
    }

    #[test]
    fn policy_event_gate_matches_dense_gate() {
        let policy = KernelPolicy::for_linear();
        let frame = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0], &[5]).unwrap();
        let events = SpikeVector::from_dense(&frame).unwrap();
        let admit_count = |e: &SpikeVector| policy.admit_count(e.nnz(), e.len());
        assert_eq!(
            admit_count(&events),
            policy.admit_slice(frame.as_slice()).is_some()
        );
        let dense_frame = Tensor::ones(&[5]);
        let dense_events = SpikeVector::from_dense(&dense_frame).unwrap();
        assert!(!admit_count(&dense_events));
        assert!(policy.admit_slice(dense_frame.as_slice()).is_none());
        assert_eq!(policy.fallback_count(), 2, "both declines counted");
        // Repeated analog rows count as the gate would decline them:
        // under an armed gate only.
        policy.decline_analog(3);
        assert_eq!(policy.fallback_count(), 5);
        let mut dense_policy = policy.clone();
        dense_policy.set_threshold(0.0);
        assert!(!dense_policy.admit_count(0, 5));
        dense_policy.decline_analog(3);
        assert_eq!(policy.fallback_count(), 5);
    }

    #[test]
    fn plan_capture_and_override_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig::default();
        let mut layers = vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 8,
                    kernel: 5,
                    stride: 1,
                    padding: 2,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 8 * 4 * 4, 16, &cfg),
            Layer::output_linear(&mut rng, 16, 3),
        ];
        let plan = ExecPlan::capture(&layers);
        assert_eq!(plan.layers().len(), 5);
        assert_eq!(
            plan.layers()[0].conv_batch,
            Some(ConvBatchKernel::EventSorted)
        );
        assert_eq!(
            plan.layers()[0].choice,
            Some(KernelChoice::Sparse {
                threshold: DEFAULT_DENSITY_THRESHOLD
            })
        );
        assert!(plan.eligibility().fully_eligible);
        assert!(plan.summary().contains("event-sorted"));
        assert_eq!(plan.layers()[0].plane, Some(WeightPlane::F32));
        assert_eq!(plan.layers()[1].plane, None, "pool has no weights");

        layers[4].set_weight_plane(WeightPlane::Int8).unwrap();
        let planed = ExecPlan::capture(&layers);
        assert_eq!(planed.layers()[4].plane, Some(WeightPlane::Int8));
        assert!(planed.summary().contains("int8"));
        // Plan overrides steer the kernel choice, not the storage
        // plane — re-applying Auto must leave the plane installed.
        let auto = ExecPlan::apply(&mut layers, PlanOverride::Auto);
        assert_eq!(auto.layers()[4].plane, Some(WeightPlane::Int8));

        let dense = ExecPlan::apply(&mut layers, PlanOverride::ForceDense);
        assert!(dense
            .layers()
            .iter()
            .all(|l| l.choice.is_none() || l.choice == Some(KernelChoice::Dense)));
        let back = ExecPlan::apply(&mut layers, PlanOverride::Auto);
        assert_eq!(
            back.layers()[3].choice,
            Some(KernelChoice::Sparse {
                threshold: DEFAULT_DENSITY_THRESHOLD
            })
        );
        let forced = ExecPlan::apply(&mut layers, PlanOverride::ForceThreshold(1.0));
        assert_eq!(
            forced.layers()[0].choice,
            Some(KernelChoice::Sparse { threshold: 1.0 })
        );
    }

    #[test]
    fn avg_pool_debinarizes_in_plan_audit() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SnnConfig::default();
        let layers = vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::avg_pool2d(2),
            Layer::flatten(),
            Layer::output_linear(&mut rng, 4 * 8 * 8, 3),
        ];
        let report = ExecPlan::capture(&layers).eligibility();
        assert!(!report.fully_eligible);
        assert_eq!(report.first_debinarizing, Some(1));
        assert!(report.per_layer[1].debinarizes);
        assert!(!report.per_layer[3].binary_input);
    }
}
