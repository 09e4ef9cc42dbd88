//! The reference (accurate) artificial twin network.
//!
//! The paper's threat model (Sec. III) assumes the adversary crafts
//! adversarial examples on an *accurate classifier model*; this module is
//! that model. It mirrors the spiking topology with ReLU activations and
//! provides standard backprop — including gradients with respect to the
//! *input*, which the PGD/BIM attacks consume — plus activation-range
//! recording for data-based ANN→SNN threshold balancing
//! ([`crate::convert`]).
//!
//! # One batched pass, two backward walks
//!
//! Inference, training and attacks run the same taped batched forward
//! (one GEMM per linear layer, convolutions and pools per row):
//!
//! * [`AnnNetwork::forward`] and [`AnnNetwork::classify`] are its
//!   one-row case; [`AnnNetwork::activation_maxima`] (threshold
//!   balancing) and [`crate::train::evaluate_ann`] run it over their
//!   samples in chunks of [`crate::fused::DEFAULT_FUSED_BATCH`] rows.
//!
//! One backward walk follows it and computes only the gradients its
//! caller reads:
//!
//! * [`AnnNetwork::forward_backward_batch_with`] (training) forms the
//!   parameter gradients and stops at the first parameterized layer, so
//!   a linear first layer computes no input gradient;
//! * [`AnnNetwork::input_gradient`] (FGSM/BIM/PGD) is the one-row case
//!   and forms only the input gradient — no weight or bias gradient and
//!   no transposed weight copy.
//!
//! Every entry point of the pass rejects a sample whose shape differs
//! from the first sample's, or which holds a NaN or infinite pixel,
//! before any dropout draw.
//!
//! [`AnnNetwork::forward_backward`] is the per-sample reference the
//! pass is pinned against (`tests/ann_equivalence.rs`); nothing else
//! calls it. They agree bit for bit because each batched kernel keeps
//! the reference's per-element order. A forward GEMM row sums ascending
//! from `+0.0` and adds the bias last, as `linalg::matvec` plus the bias
//! does. The input gradient `G·W` goes through
//! [`linalg::matvec_t_block_into`], which skips only exact-zero
//! coefficients: an accumulator that starts at `+0.0` is never `-0.0`,
//! so a `±0` term cannot change it, and the result equals the
//! reference's `matvec(transpose(W), g)`.
//!
//! The one exception is a non-finite weight. The reference multiplies
//! it by a zero coefficient (`∞·0 = NaN`), while the walk skips that
//! term, so only the reference turns NaN there.

use crate::batch::fan_out_with;
use crate::fused::DEFAULT_FUSED_BATCH;
use crate::plan::BackwardOpts;
use crate::{CoreError, Result};
use axsnn_tensor::batched::matmul_bt_bias;
use axsnn_tensor::conv::{self, Conv2dSpec};
use axsnn_tensor::{init, linalg, ops, Tensor};
use rand::rngs::mock::StepRng;
use rand::Rng;
use std::borrow::Borrow;

/// A layer of the reference ANN.
#[derive(Debug, Clone)]
pub enum AnnLayer {
    /// Convolution followed by ReLU.
    ConvRelu {
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Weights `[Cout,Cin,K,K]`.
        weight: Tensor,
        /// Bias `[Cout]`.
        bias: Tensor,
    },
    /// Fully-connected layer followed by ReLU.
    LinearRelu {
        /// Weights `[Out,In]`.
        weight: Tensor,
        /// Bias `[Out]`.
        bias: Tensor,
    },
    /// Final fully-connected layer (raw logits, no activation).
    LinearOut {
        /// Weights `[Out,In]`.
        weight: Tensor,
        /// Bias `[Out]`.
        bias: Tensor,
    },
    /// Average pooling with square window.
    AvgPool {
        /// Window / stride.
        window: usize,
    },
    /// Max pooling with square window.
    MaxPool {
        /// Window / stride.
        window: usize,
    },
    /// Flatten to rank-1.
    Flatten,
    /// Dropout (identity at inference; the ANN trains with inverted
    /// dropout).
    Dropout {
        /// Drop probability.
        probability: f32,
    },
}

impl AnnLayer {
    fn has_params(&self) -> bool {
        matches!(
            self,
            AnnLayer::ConvRelu { .. } | AnnLayer::LinearRelu { .. } | AnnLayer::LinearOut { .. }
        )
    }
}

/// Per-layer tape recorded during a forward pass for backprop.
#[derive(Debug, Clone)]
enum Tape {
    Conv {
        input: Tensor,
        preact: Tensor,
    },
    Linear {
        input: Tensor,
        preact: Tensor,
    },
    LinearOut {
        input: Tensor,
    },
    Pool {
        input_dims: Vec<usize>,
    },
    MaxPool {
        input_dims: Vec<usize>,
        argmax: Vec<usize>,
    },
    Flatten {
        input_dims: Vec<usize>,
    },
    Dropout {
        mask: Vec<f32>,
    },
}

/// Gradients of one ANN layer's parameters.
#[derive(Debug, Clone, Default)]
pub struct AnnLayerGrads {
    /// Gradient of the weights (empty tensor for parameterless layers).
    pub weight: Option<Tensor>,
    /// Gradient of the bias.
    pub bias: Option<Tensor>,
}

/// Result of a backward pass.
#[derive(Debug, Clone)]
pub struct AnnBackward {
    /// Gradient with respect to the network input.
    pub input_grad: Tensor,
    /// Per-layer parameter gradients (aligned with the layer stack).
    pub layer_grads: Vec<AnnLayerGrads>,
}

/// Result of a batched training forward/backward pass
/// ([`AnnNetwork::forward_backward_batch`]).
#[derive(Debug, Clone)]
pub struct AnnBatchBackward {
    /// Logits `[B, classes]`.
    pub logits: Tensor,
    /// Per-sample cross-entropy losses, in batch order.
    pub losses: Vec<f32>,
    /// Predicted class per sample (first strict maximum, matching
    /// [`Tensor::argmax`] per row).
    pub predictions: Vec<usize>,
    /// Per-layer parameter gradients summed over the batch (aligned
    /// with the layer stack).
    pub layer_grads: Vec<AnnLayerGrads>,
}

/// The reference feed-forward ANN.
///
/// # Example
///
/// ```
/// use axsnn_core::ann::{AnnNetwork, AnnLayer};
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = AnnNetwork::new(vec![
///     AnnLayer::linear_relu(&mut rng, 4, 8),
///     AnnLayer::linear_out(&mut rng, 8, 2),
/// ])?;
/// let logits = net.forward(&Tensor::ones(&[4]))?;
/// assert_eq!(logits.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnnNetwork {
    layers: Vec<AnnLayer>,
}

impl AnnLayer {
    /// Kaiming-initialized conv+ReLU layer.
    pub fn conv_relu<R: Rng>(rng: &mut R, spec: Conv2dSpec) -> AnnLayer {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        AnnLayer::ConvRelu {
            spec,
            weight: init::kaiming_uniform(
                rng,
                &[
                    spec.out_channels,
                    spec.in_channels,
                    spec.kernel,
                    spec.kernel,
                ],
                fan_in,
            ),
            bias: Tensor::zeros(&[spec.out_channels]),
        }
    }

    /// Kaiming-initialized linear+ReLU layer.
    pub fn linear_relu<R: Rng>(rng: &mut R, inputs: usize, outputs: usize) -> AnnLayer {
        AnnLayer::LinearRelu {
            weight: init::kaiming_uniform(rng, &[outputs, inputs], inputs),
            bias: Tensor::zeros(&[outputs]),
        }
    }

    /// Kaiming-initialized output (logit) layer.
    pub fn linear_out<R: Rng>(rng: &mut R, inputs: usize, outputs: usize) -> AnnLayer {
        AnnLayer::LinearOut {
            weight: init::kaiming_uniform(rng, &[outputs, inputs], inputs),
            bias: Tensor::zeros(&[outputs]),
        }
    }
}

impl AnnNetwork {
    /// Builds a network from a layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an empty stack or when the last
    /// layer is not [`AnnLayer::LinearOut`].
    pub fn new(layers: Vec<AnnLayer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(CoreError::Config {
                message: "ANN needs at least one layer".into(),
            });
        }
        if !matches!(layers.last(), Some(AnnLayer::LinearOut { .. })) {
            return Err(CoreError::Config {
                message: "last ANN layer must be linear_out".into(),
            });
        }
        Ok(AnnNetwork { layers })
    }

    /// Shared access to the layers.
    pub fn layers(&self) -> &[AnnLayer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [AnnLayer] {
        &mut self.layers
    }

    /// Inference forward pass (dropout = identity): the one-row case of
    /// the batched pass, returning the `[classes]` logits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] naming the flat index and value of
    /// the first NaN or infinite pixel, and propagates shape errors from
    /// the layers.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let logits = self.forward_row(input)?.logits;
        let classes = logits.len();
        Ok(Tensor::from_vec(logits, &[classes])?)
    }

    /// Predicted class label for an input: the first strict maximum of
    /// its logits.
    ///
    /// # Errors
    ///
    /// As [`AnnNetwork::forward`].
    pub fn classify(&self, input: &Tensor) -> Result<usize> {
        Ok(self.forward(input)?.argmax().unwrap_or(0))
    }

    /// Predicted class labels for samples of one shape, through the
    /// batched pass in chunks of [`DEFAULT_FUSED_BATCH`] rows: each row's
    /// label is [`AnnNetwork::classify`]'s.
    pub(crate) fn classify_rows<T: Borrow<Tensor>>(&self, inputs: &[T]) -> Result<Vec<usize>> {
        let mut predictions = Vec::with_capacity(inputs.len());
        self.infer_chunks(inputs, |pass, b| {
            let classes = pass.logits.len() / b;
            for r in 0..b {
                predictions.push(first_max(&pass.logits[r * classes..(r + 1) * classes]));
            }
        })?;
        Ok(predictions)
    }

    /// The inference pass (dropout = identity) on one checked sample.
    fn forward_row(&self, input: &Tensor) -> Result<TapedPass> {
        check_inputs(std::slice::from_ref(input), false)?;
        let dims = input.shape().dims().to_vec();
        // Dropout is inactive, so the pass never draws from the RNG.
        let mut rng = StepRng::new(0, 1);
        self.forward_taped(input.as_slice().to_vec(), dims, 1, false, &mut rng, 1)
    }

    /// Runs the inference pass (dropout = identity) over `inputs` in
    /// chunks of [`DEFAULT_FUSED_BATCH`] rows, in sample order, handing
    /// `visit` each chunk's taped pass and row count. The samples are
    /// checked once, up front, and an empty set runs nothing.
    fn infer_chunks<T: Borrow<Tensor>>(
        &self,
        inputs: &[T],
        mut visit: impl FnMut(&TapedPass, usize),
    ) -> Result<()> {
        check_inputs(inputs, true)?;
        for chunk in inputs.chunks(DEFAULT_FUSED_BATCH) {
            let (block, dims) = stack(chunk);
            let pass =
                self.forward_taped(block, dims, chunk.len(), false, &mut StepRng::new(0, 1), 1)?;
            visit(&pass, chunk.len());
        }
        Ok(())
    }

    /// The per-sample reference forward/backward: one sample, a tape,
    /// then backprop through every layer, forming every parameter
    /// gradient and the input gradient.
    ///
    /// No production path calls it. Training runs
    /// [`AnnNetwork::forward_backward_batch_with`] and attacks run
    /// [`AnnNetwork::input_gradient`]; both are pinned against this
    /// function bit for bit (`tests/ann_equivalence.rs`).
    ///
    /// When `train` is set, dropout is active (inverted dropout with the
    /// provided RNG); with `train = false` gradients flow through the
    /// inference behaviour.
    ///
    /// Returns `(logits, loss, backward)` for cross-entropy against
    /// `label`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_backward<R: Rng>(
        &self,
        input: &Tensor,
        label: usize,
        train: bool,
        rng: &mut R,
    ) -> Result<(Tensor, f32, AnnBackward)> {
        // Forward with tape.
        let mut tapes: Vec<Tape> = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for layer in &self.layers {
            x = match layer {
                AnnLayer::ConvRelu { spec, weight, bias } => {
                    let pre = conv::conv2d(&x, weight, bias, spec)?;
                    tapes.push(Tape::Conv {
                        input: x.clone(),
                        preact: pre.clone(),
                    });
                    pre.map(|v| v.max(0.0))
                }
                AnnLayer::LinearRelu { weight, bias } => {
                    let flat = flatten_if_needed(&x)?;
                    let pre = linalg::matvec(weight, &flat)?.add(bias)?;
                    tapes.push(Tape::Linear {
                        input: flat,
                        preact: pre.clone(),
                    });
                    pre.map(|v| v.max(0.0))
                }
                AnnLayer::LinearOut { weight, bias } => {
                    let flat = flatten_if_needed(&x)?;
                    tapes.push(Tape::LinearOut {
                        input: flat.clone(),
                    });
                    linalg::matvec(weight, &flat)?.add(bias)?
                }
                AnnLayer::AvgPool { window } => {
                    tapes.push(Tape::Pool {
                        input_dims: x.shape().dims().to_vec(),
                    });
                    conv::avg_pool2d(&x, *window)?
                }
                AnnLayer::MaxPool { window } => {
                    let out = conv::max_pool2d(&x, *window)?;
                    tapes.push(Tape::MaxPool {
                        input_dims: x.shape().dims().to_vec(),
                        argmax: out.argmax,
                    });
                    out.output
                }
                AnnLayer::Flatten => {
                    tapes.push(Tape::Flatten {
                        input_dims: x.shape().dims().to_vec(),
                    });
                    x.reshape(&[x.len()])?
                }
                AnnLayer::Dropout { probability } => {
                    let keep = 1.0 - probability;
                    let mask: Vec<f32> = if train && *probability > 0.0 {
                        (0..x.len())
                            .map(|_| {
                                if rng.gen::<f32>() < keep {
                                    1.0 / keep
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    } else {
                        vec![1.0; x.len()]
                    };
                    let masked: Vec<f32> = x
                        .as_slice()
                        .iter()
                        .zip(&mask)
                        .map(|(&v, &m)| v * m)
                        .collect();
                    let shaped = Tensor::from_vec(masked, x.shape().dims())?;
                    tapes.push(Tape::Dropout { mask });
                    shaped
                }
            };
        }
        let logits = x;
        let (loss, mut grad) = ops::cross_entropy_with_grad(&logits, label)?;

        // Backward.
        let mut layer_grads: Vec<AnnLayerGrads> = Vec::with_capacity(self.layers.len());
        for (layer, tape) in self.layers.iter().zip(&tapes).rev() {
            let mut lg = AnnLayerGrads::default();
            grad = match (layer, tape) {
                (AnnLayer::ConvRelu { spec, weight, .. }, Tape::Conv { input, preact }) => {
                    let gpre = grad.zip(preact, |g, p| if p > 0.0 { g } else { 0.0 })?;
                    let grads = conv::conv2d_backward(input, weight, &gpre, spec)?;
                    lg.weight = Some(grads.weight);
                    lg.bias = Some(grads.bias);
                    grads.input
                }
                (AnnLayer::LinearRelu { weight, .. }, Tape::Linear { input, preact }) => {
                    let gpre = grad.zip(preact, |g, p| if p > 0.0 { g } else { 0.0 })?;
                    lg.weight = Some(linalg::outer(&gpre, input)?);
                    lg.bias = Some(gpre.clone());
                    let wt = linalg::transpose(weight)?;
                    linalg::matvec(&wt, &gpre)?
                }
                (AnnLayer::LinearOut { weight, .. }, Tape::LinearOut { input }) => {
                    lg.weight = Some(linalg::outer(&grad, input)?);
                    lg.bias = Some(grad.clone());
                    let wt = linalg::transpose(weight)?;
                    linalg::matvec(&wt, &grad)?
                }
                (AnnLayer::AvgPool { window }, Tape::Pool { input_dims }) => {
                    conv::avg_pool2d_backward(&grad, input_dims, *window)?
                }
                (AnnLayer::MaxPool { .. }, Tape::MaxPool { input_dims, argmax }) => {
                    conv::max_pool2d_backward(&grad, argmax, input_dims)?
                }
                (AnnLayer::Flatten, Tape::Flatten { input_dims }) => grad.reshape(input_dims)?,
                (AnnLayer::Dropout { .. }, Tape::Dropout { mask }) => {
                    let data: Vec<f32> = grad
                        .as_slice()
                        .iter()
                        .zip(mask)
                        .map(|(&g, &m)| g * m)
                        .collect();
                    Tensor::from_vec(data, grad.shape().dims())?
                }
                _ => {
                    return Err(CoreError::Incompatible {
                        message: "tape/layer mismatch in ANN backward".into(),
                    })
                }
            };
            layer_grads.push(lg);
        }
        layer_grads.reverse();

        Ok((
            logits,
            loss,
            AnnBackward {
                input_grad: grad,
                layer_grads,
            },
        ))
    }

    /// Batched training forward/backward: runs a whole minibatch
    /// through the layer stack with one GEMM per linear layer
    /// (`X·Wᵀ + b` / `GᵀX`) instead of per-sample matvecs, and returns
    /// the per-layer gradients summed over the batch.
    ///
    /// Row-for-row this is the per-sample [`AnnNetwork::forward_backward`]
    /// re-scheduled: the batched GEMMs accumulate in the same
    /// per-element order as a sample-ascending loop of the per-sample
    /// kernels, so for dropout-free networks the summed gradients are
    /// bit-identical to accumulating `forward_backward` over the batch.
    /// With `train` set and dropout present, per-row masks are drawn in
    /// row order from `rng` (a different stream than interleaved
    /// per-sample calls, but the same distribution). Convolution layers
    /// run per row — their weights are cache-resident, so batching has
    /// nothing to amortize there.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an empty batch, mismatched
    /// `inputs`/`labels` lengths, a sample whose shape differs from the
    /// first one's or a NaN or infinite pixel (naming the sample and the
    /// pixel's flat index and value), and propagates layer shape errors.
    pub fn forward_backward_batch<R: Rng>(
        &self,
        inputs: &[Tensor],
        labels: &[usize],
        train: bool,
        rng: &mut R,
    ) -> Result<AnnBatchBackward> {
        self.forward_backward_batch_with(inputs, labels, train, rng, &BackwardOpts::default())
    }

    /// [`AnnNetwork::forward_backward_batch`] with explicit
    /// [`BackwardOpts`]: `opts.threads` fans the independent per-row
    /// convolution passes out across workers (results are bit-identical
    /// for every thread count — rows compute independently and their
    /// gradients reduce in ascending row order, the sequential loop's
    /// own order).
    ///
    /// The backward walk produces only what training reads, the
    /// parameter gradients, and stops at the first parameterized layer.
    /// A linear first layer therefore runs no `G·W` product (as many
    /// multiply-adds as its weight gradient, and nothing reads it); a
    /// conv first layer's per-row backward kernel still computes its
    /// input gradient, which is dropped. Layers below the first
    /// parameterized one get empty [`AnnLayerGrads`].
    ///
    /// # Errors
    ///
    /// As [`AnnNetwork::forward_backward_batch`].
    pub fn forward_backward_batch_with<R: Rng>(
        &self,
        inputs: &[Tensor],
        labels: &[usize],
        train: bool,
        rng: &mut R,
        opts: &BackwardOpts,
    ) -> Result<AnnBatchBackward> {
        if inputs.is_empty() || inputs.len() != labels.len() {
            return Err(CoreError::Config {
                message: format!(
                    "forward_backward_batch needs matching non-empty inputs/labels, got {}/{}",
                    inputs.len(),
                    labels.len()
                ),
            });
        }
        check_inputs(inputs, true)?;
        let b = inputs.len();
        let (block, dims) = stack(inputs);
        let pass = self.forward_taped(block, dims, b, train, rng, opts.threads)?;

        // Losses + logit gradients per row.
        let classes = pass.logits.len() / b;
        let mut losses = Vec::with_capacity(b);
        let mut predictions = Vec::with_capacity(b);
        let mut grad = vec![0.0f32; b * classes];
        for (r, &label) in labels.iter().enumerate() {
            let row = Tensor::from_vec(
                pass.logits[r * classes..(r + 1) * classes].to_vec(),
                &[classes],
            )?;
            let (loss, g) = ops::cross_entropy_with_grad(&row, label)?;
            losses.push(loss);
            predictions.push(first_max(row.as_slice()));
            grad[r * classes..(r + 1) * classes].copy_from_slice(g.as_slice());
        }

        let walk = self.backward_walk(&pass.tapes, grad, b, Wants::Params, opts)?;
        Ok(AnnBatchBackward {
            logits: Tensor::from_vec(pass.logits, &[b, classes])?,
            losses,
            predictions,
            layer_grads: walk.layer_grads,
        })
    }

    /// Gradient of the cross-entropy loss with respect to the input —
    /// the quantity FGSM/BIM/PGD ascend.
    ///
    /// This is the one-row case of the batched pass that
    /// [`AnnNetwork::forward_backward_batch_with`] runs, with dropout
    /// inactive, and its backward walk produces only the input
    /// gradient: no weight or bias gradient is formed and no weight
    /// matrix is transposed. The forward runs the batched GEMM
    /// ([`matmul_bt_bias`]), linear layers propagate through
    /// [`linalg::matvec_t_block_into`], and conv layers run their per-row
    /// backward kernel and discard its parameter gradients. For finite
    /// weights the result equals
    /// `forward_backward(input, label, false, ..).input_grad` bit for
    /// bit, shape included (see the [module docs](self) for the
    /// non-finite-weight exception).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] naming the flat index and value of
    /// the first NaN or infinite pixel, and propagates layer shape
    /// errors and an out-of-range `label`.
    pub fn input_gradient(&self, input: &Tensor, label: usize) -> Result<Tensor> {
        let pass = self.forward_row(input)?;
        let classes = pass.logits.len();
        let logits = Tensor::from_vec(pass.logits, &[classes])?;
        let (_, grad) = ops::cross_entropy_with_grad(&logits, label)?;
        let opts = BackwardOpts { threads: 1 };
        let walk = self.backward_walk(&pass.tapes, grad.into_vec(), 1, Wants::Input, &opts)?;
        Ok(Tensor::from_vec(walk.input_grad, &walk.input_dims)?)
    }

    /// The batched forward with a tape, the one layer loop of every
    /// entry point but the reference: `block` holds `b` rows of per-row
    /// shape `dims`. With `train` set, dropout draws per-row masks in
    /// row order from `rng`; otherwise it is the identity.
    fn forward_taped<R: Rng>(
        &self,
        mut block: Vec<f32>,
        mut dims: Vec<usize>,
        b: usize,
        train: bool,
        rng: &mut R,
        threads: usize,
    ) -> Result<TapedPass> {
        let mut tapes: Vec<BatchTape> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let n = block.len() / b;
            match layer {
                AnnLayer::ConvRelu { spec, weight, bias } => {
                    // Rows are independent: fan the per-row convolutions
                    // out, then stitch in ascending row order.
                    let block_ref = &block;
                    let dims_ref = &dims;
                    let pre_rows: Vec<(Option<Tensor>, Vec<f32>)> = fan_out_with(
                        b,
                        threads,
                        || (),
                        |_, r, slot: &mut (Option<Tensor>, Vec<f32>)| -> Result<()> {
                            let x =
                                Tensor::from_vec(block_ref[r * n..(r + 1) * n].to_vec(), dims_ref)?;
                            let pre = conv::conv2d(&x, weight, bias, spec)?.into_vec();
                            *slot = (Some(x), pre);
                            Ok(())
                        },
                    )?;
                    let out_dims = {
                        let (oh, ow) = spec.output_hw(dims[1], dims[2]);
                        vec![spec.out_channels, oh, ow]
                    };
                    let row_len = pre_rows[0].1.len();
                    let mut rows = Vec::with_capacity(b);
                    let mut preact = Vec::with_capacity(b * row_len);
                    let mut out = Vec::with_capacity(b * row_len);
                    for (x, pre) in pre_rows {
                        preact.extend_from_slice(&pre);
                        out.extend(pre.iter().map(|&v| v.max(0.0)));
                        rows.push(x.expect("every conv row computed"));
                    }
                    tapes.push(BatchTape::Conv {
                        inputs: rows,
                        preact,
                    });
                    block = out;
                    dims = out_dims;
                }
                AnnLayer::LinearRelu { weight, bias } => {
                    let x = Tensor::from_vec(std::mem::take(&mut block), &[b, n])?;
                    let preact = matmul_bt_bias(&x, weight, bias)?.into_vec();
                    block = preact.iter().map(|&v| v.max(0.0)).collect();
                    dims = vec![preact.len() / b];
                    tapes.push(BatchTape::Linear { input: x, preact });
                }
                AnnLayer::LinearOut { weight, bias } => {
                    let x = Tensor::from_vec(std::mem::take(&mut block), &[b, n])?;
                    block = matmul_bt_bias(&x, weight, bias)?.into_vec();
                    dims = vec![block.len() / b];
                    tapes.push(BatchTape::LinearOut { input: x });
                }
                AnnLayer::AvgPool { window } => {
                    let mut out = Vec::new();
                    let mut out_dims = Vec::new();
                    for r in 0..b {
                        let x = Tensor::from_vec(block[r * n..(r + 1) * n].to_vec(), &dims)?;
                        let pooled = conv::avg_pool2d(&x, *window)?;
                        if out_dims.is_empty() {
                            out_dims = pooled.shape().dims().to_vec();
                            out.reserve(b * pooled.len());
                        }
                        out.extend_from_slice(pooled.as_slice());
                    }
                    tapes.push(BatchTape::Pool {
                        input_dims: std::mem::replace(&mut dims, out_dims),
                    });
                    block = out;
                }
                AnnLayer::MaxPool { window } => {
                    let mut out = Vec::new();
                    let mut out_dims = Vec::new();
                    let mut argmax = Vec::with_capacity(b);
                    for r in 0..b {
                        let x = Tensor::from_vec(block[r * n..(r + 1) * n].to_vec(), &dims)?;
                        let pooled = conv::max_pool2d(&x, *window)?;
                        if out_dims.is_empty() {
                            out_dims = pooled.output.shape().dims().to_vec();
                            out.reserve(b * pooled.output.len());
                        }
                        out.extend_from_slice(pooled.output.as_slice());
                        argmax.push(pooled.argmax);
                    }
                    tapes.push(BatchTape::MaxPool {
                        input_dims: std::mem::replace(&mut dims, out_dims),
                        argmax,
                    });
                    block = out;
                }
                AnnLayer::Flatten => {
                    tapes.push(BatchTape::Flatten {
                        input_dims: std::mem::replace(&mut dims, vec![n]),
                    });
                }
                AnnLayer::Dropout { probability } => {
                    let keep = 1.0 - probability;
                    let masks: Vec<f32> = if train && *probability > 0.0 {
                        (0..block.len())
                            .map(|_| {
                                if rng.gen::<f32>() < keep {
                                    1.0 / keep
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    } else {
                        vec![1.0; block.len()]
                    };
                    for (v, &m) in block.iter_mut().zip(&masks) {
                        *v *= m;
                    }
                    tapes.push(BatchTape::Dropout { masks });
                }
            }
        }
        Ok(TapedPass {
            logits: block,
            tapes,
        })
    }

    /// The backward walk over a batch tape, from the `[b, classes]`
    /// logit-gradient block `grad` down. `wants` picks what it
    /// produces: [`Wants::Params`] forms the parameter gradients and
    /// stops at the first parameterized layer; [`Wants::Input`] runs to
    /// layer 0 and forms only the input gradient.
    fn backward_walk(
        &self,
        tapes: &[BatchTape],
        mut grad: Vec<f32>,
        b: usize,
        wants: Wants,
        opts: &BackwardOpts,
    ) -> Result<Walk> {
        let params = wants == Wants::Params;
        let stop = if params {
            self.layers
                .iter()
                .position(AnnLayer::has_params)
                .unwrap_or(0)
        } else {
            0
        };
        let mut layer_grads = vec![AnnLayerGrads::default(); self.layers.len()];
        // The per-row shape the per-sample walk gives the gradient.
        let mut dims = vec![grad.len() / b];
        for li in (stop..self.layers.len()).rev() {
            // The walk needs this layer's input gradient unless it ends
            // here.
            let propagate = !params || li > stop;
            let lg = &mut layer_grads[li];
            let n = grad.len() / b;
            grad = match (&self.layers[li], &tapes[li]) {
                (AnnLayer::ConvRelu { spec, weight, .. }, BatchTape::Conv { inputs, preact }) => {
                    // Per-row gradients are independent; compute them in
                    // parallel, then reduce in ascending row order — the
                    // sequential loop's own accumulation order, so the
                    // sums are bit-identical for every thread count. The
                    // kernel always computes all three; keep what the
                    // walk reads.
                    let grad_ref = &grad;
                    let keep = |t: Tensor, wanted: bool| {
                        if wanted {
                            t.into_vec()
                        } else {
                            Vec::new()
                        }
                    };
                    let row_grads: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = fan_out_with(
                        b,
                        opts.threads,
                        || (),
                        |_, r, slot: &mut (Vec<f32>, Vec<f32>, Vec<f32>)| -> Result<()> {
                            let input = &inputs[r];
                            let gpre: Vec<f32> = grad_ref[r * n..(r + 1) * n]
                                .iter()
                                .zip(&preact[r * n..(r + 1) * n])
                                .map(|(&g, &p)| if p > 0.0 { g } else { 0.0 })
                                .collect();
                            let odims = {
                                let (oh, ow) = spec
                                    .output_hw(input.shape().dims()[1], input.shape().dims()[2]);
                                [spec.out_channels, oh, ow]
                            };
                            let gpre = Tensor::from_vec(gpre, &odims)?;
                            let grads = conv::conv2d_backward(input, weight, &gpre, spec)?;
                            *slot = (
                                keep(grads.weight, params),
                                keep(grads.bias, params),
                                keep(grads.input, propagate),
                            );
                            Ok(())
                        },
                    )?;
                    let mut rows = row_grads.into_iter();
                    let (mut gw, mut gb, mut gi) = rows.next().unwrap_or_default();
                    gi.reserve(gi.len() * (b - 1));
                    for (rw, rb, ri) in rows {
                        for (a, d) in gw.iter_mut().zip(&rw) {
                            *a += d;
                        }
                        for (a, d) in gb.iter_mut().zip(&rb) {
                            *a += d;
                        }
                        gi.extend_from_slice(&ri);
                    }
                    if params {
                        lg.weight = Some(Tensor::from_vec(gw, weight.shape().dims())?);
                        lg.bias = Some(Tensor::from_vec(gb, &[spec.out_channels])?);
                    }
                    dims = inputs[0].shape().dims().to_vec();
                    gi
                }
                (AnnLayer::LinearRelu { weight, .. }, BatchTape::Linear { input, preact }) => {
                    let gpre: Vec<f32> = grad
                        .iter()
                        .zip(preact)
                        .map(|(&g, &p)| if p > 0.0 { g } else { 0.0 })
                        .collect();
                    dims = vec![weight.shape().dims()[1]];
                    linear_backward(weight, input, gpre, b, params.then_some(lg), propagate)?
                }
                (AnnLayer::LinearOut { weight, .. }, BatchTape::LinearOut { input }) => {
                    dims = vec![weight.shape().dims()[1]];
                    let g = std::mem::take(&mut grad);
                    linear_backward(weight, input, g, b, params.then_some(lg), propagate)?
                }
                (AnnLayer::AvgPool { window }, BatchTape::Pool { input_dims }) => {
                    let in_len: usize = input_dims.iter().product();
                    let odims = [
                        input_dims[0],
                        input_dims[1] / window,
                        input_dims[2] / window,
                    ];
                    let mut gi = vec![0.0f32; b * in_len];
                    for r in 0..b {
                        let g_row = Tensor::from_vec(grad[r * n..(r + 1) * n].to_vec(), &odims)?;
                        let back = conv::avg_pool2d_backward(&g_row, input_dims, *window)?;
                        gi[r * in_len..(r + 1) * in_len].copy_from_slice(back.as_slice());
                    }
                    dims.clone_from(input_dims);
                    gi
                }
                (AnnLayer::MaxPool { window }, BatchTape::MaxPool { input_dims, argmax }) => {
                    let in_len: usize = input_dims.iter().product();
                    let odims = [
                        input_dims[0],
                        input_dims[1] / window,
                        input_dims[2] / window,
                    ];
                    let mut gi = vec![0.0f32; b * in_len];
                    for r in 0..b {
                        let g_row = Tensor::from_vec(grad[r * n..(r + 1) * n].to_vec(), &odims)?;
                        let back = conv::max_pool2d_backward(&g_row, &argmax[r], input_dims)?;
                        gi[r * in_len..(r + 1) * in_len].copy_from_slice(back.as_slice());
                    }
                    dims.clone_from(input_dims);
                    gi
                }
                (AnnLayer::Flatten, BatchTape::Flatten { input_dims }) => {
                    dims.clone_from(input_dims);
                    grad
                }
                (AnnLayer::Dropout { .. }, BatchTape::Dropout { masks }) => {
                    grad.iter().zip(masks).map(|(&g, &m)| g * m).collect()
                }
                _ => {
                    return Err(CoreError::Incompatible {
                        message: "tape/layer mismatch in batched ANN backward".into(),
                    })
                }
            };
        }
        Ok(Walk {
            layer_grads,
            input_grad: grad,
            input_dims: dims,
        })
    }

    /// Applies SGD updates from accumulated gradients.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] when `grads` is not aligned
    /// with the layer stack.
    pub fn apply_grads(&mut self, grads: &[AnnLayerGrads], lr: f32) -> Result<()> {
        if grads.len() != self.layers.len() {
            return Err(CoreError::Incompatible {
                message: format!(
                    "gradient stack length {} != layer count {}",
                    grads.len(),
                    self.layers.len()
                ),
            });
        }
        for (layer, g) in self.layers.iter_mut().zip(grads) {
            if !layer.has_params() {
                continue;
            }
            let (w, b) = match layer {
                AnnLayer::ConvRelu { weight, bias, .. }
                | AnnLayer::LinearRelu { weight, bias }
                | AnnLayer::LinearOut { weight, bias } => (weight, bias),
                _ => unreachable!("has_params filtered"),
            };
            if let (Some(gw), Some(gb)) = (&g.weight, &g.bias) {
                *w = w.sub(&gw.scale(lr))?;
                *b = b.sub(&gb.scale(lr))?;
            }
        }
        Ok(())
    }

    /// Records the maximum post-activation value of every parameterized
    /// layer over a calibration set — the `λ_l` used by data-based
    /// threshold balancing in [`crate::convert`].
    ///
    /// The calibration set runs through the inference pass in chunks of
    /// [`DEFAULT_FUSED_BATCH`] rows. Each parameterized layer's `λ`
    /// starts at `f32::MIN_POSITIVE` and folds in, sample by sample in
    /// ascending order, the sample's largest `relu(preact)`; the logit
    /// layer folds in the magnitude of its largest logit, at least
    /// `1e-6`.
    ///
    /// # Errors
    ///
    /// As [`AnnNetwork::forward`], naming the offending sample.
    pub fn activation_maxima(&self, calibration: &[Tensor]) -> Result<Vec<f32>> {
        let mut maxima = vec![f32::MIN_POSITIVE; self.parameterized_layer_count()];
        self.infer_chunks(calibration, |pass, b| {
            let parameterized = pass.tapes.iter().filter_map(|tape| match tape {
                BatchTape::Conv { preact, .. } | BatchTape::Linear { preact, .. } => {
                    Some((preact, true))
                }
                BatchTape::LinearOut { .. } => Some((&pass.logits, false)),
                _ => None,
            });
            for (lambda, (values, relu)) in maxima.iter_mut().zip(parameterized) {
                let n = values.len() / b;
                for r in 0..b {
                    let row = values[r * n..(r + 1) * n].iter();
                    *lambda = lambda.max(if relu {
                        row.map(|&v| v.max(0.0)).fold(f32::NEG_INFINITY, f32::max)
                    } else {
                        row.copied()
                            .fold(f32::NEG_INFINITY, f32::max)
                            .abs()
                            .max(1e-6)
                    });
                }
            }
        })?;
        Ok(maxima)
    }

    /// Number of layers carrying weights.
    pub fn parameterized_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.has_params()).count()
    }

    /// Total number of learnable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                AnnLayer::ConvRelu { weight, bias, .. }
                | AnnLayer::LinearRelu { weight, bias }
                | AnnLayer::LinearOut { weight, bias } => weight.len() + bias.len(),
                _ => 0,
            })
            .sum()
    }
}

/// Which gradients a backward walk produces: each public entry point
/// asks for what its caller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wants {
    /// The parameter gradients (training): the walk stops at the first
    /// parameterized layer.
    Params,
    /// The input gradient (attacks): the walk runs to layer 0 and forms
    /// no parameter gradient.
    Input,
}

/// Per-layer tape of the batched forward, `B` rows per entry.
#[derive(Debug)]
enum BatchTape {
    Conv {
        inputs: Vec<Tensor>,
        preact: Vec<f32>,
    },
    Linear {
        input: Tensor,
        preact: Vec<f32>,
    },
    LinearOut {
        input: Tensor,
    },
    Pool {
        input_dims: Vec<usize>,
    },
    MaxPool {
        input_dims: Vec<usize>,
        argmax: Vec<Vec<usize>>,
    },
    Flatten {
        input_dims: Vec<usize>,
    },
    Dropout {
        masks: Vec<f32>,
    },
}

/// A taped batched forward: the `[B, classes]` logits block and the
/// per-layer tape.
#[derive(Debug)]
struct TapedPass {
    logits: Vec<f32>,
    tapes: Vec<BatchTape>,
}

/// What a backward walk produced.
#[derive(Debug)]
struct Walk {
    /// Per-layer parameter gradients; all empty under [`Wants::Input`].
    layer_grads: Vec<AnnLayerGrads>,
    /// The `[B, ..]` input-gradient block; empty under [`Wants::Params`].
    input_grad: Vec<f32>,
    /// The per-row shape of `input_grad`, as the per-sample walk shapes
    /// it.
    input_dims: Vec<usize>,
}

/// One linear layer of a backward walk. `g` is the `[b, out]`
/// pre-activation gradient block and `input` the taped `[b, in]` input.
/// With `grads`, stores the weight gradient `Gᵀ·X` and the bias
/// gradient (the rows of `G` summed in ascending order). `Gᵀ·X` is one
/// [`linalg::outer_acc_run`] over the rows in ascending order, each cell
/// summed from `+0.0`; it multiplies every coefficient, zeros included,
/// so a zero gradient against an infinite input gives a NaN cell. With
/// `input_grad`, returns the `[b, in]` input gradient `G·W`
/// ([`linalg::matvec_t_block_into`], exact-zero coefficients skipped);
/// without it, an empty block.
fn linear_backward(
    weight: &Tensor,
    input: &Tensor,
    g: Vec<f32>,
    b: usize,
    grads: Option<&mut AnnLayerGrads>,
    input_grad: bool,
) -> Result<Vec<f32>> {
    let (n_out, n_in) = (weight.shape().dims()[0], weight.shape().dims()[1]);
    let g_block = Tensor::from_vec(g, &[b, n_out])?;
    if let Some(lg) = grads {
        let terms: Vec<(&[f32], &[f32])> = g_block
            .as_slice()
            .chunks_exact(n_out.max(1))
            .zip(input.as_slice().chunks_exact(n_in.max(1)))
            .collect();
        let mut gw = Tensor::zeros(&[n_out, n_in]);
        linalg::outer_acc_run(&mut gw, &terms)?;
        lg.weight = Some(gw);
        lg.bias = Some(column_sums(&g_block)?);
    }
    if !input_grad {
        return Ok(Vec::new());
    }
    let mut gi = vec![0.0f32; b * weight.shape().dims()[1]];
    linalg::matvec_t_block_into(weight, g_block.as_slice(), b, &mut gi)?;
    Ok(gi)
}

/// Sums a `[B, n]` block over its rows — the batched bias gradient.
/// Rows accumulate in ascending batch order, matching a sequential
/// per-sample accumulation bit for bit.
fn column_sums(g: &Tensor) -> Result<Tensor> {
    let dims = g.shape().dims();
    let (b, n) = (dims[0], dims[1]);
    let gv = g.as_slice();
    let mut out = vec![0.0f32; n];
    for r in 0..b {
        for (o, &v) in out.iter_mut().zip(&gv[r * n..(r + 1) * n]) {
            *o += v;
        }
    }
    Tensor::from_vec(out, &[n]).map_err(CoreError::from)
}

/// Checks that every sample has the first one's shape and only finite
/// pixels, naming the first offender: by sample index (`rows` set) and
/// by the pixel's flat index and value, in
/// [`crate::encoding::Encoder::encode`]'s wording.
fn check_inputs<T: Borrow<Tensor>>(inputs: &[T], rows: bool) -> Result<()> {
    let Some(first) = inputs.first() else {
        return Ok(());
    };
    let dims = first.borrow().shape().dims();
    for (r, x) in inputs.iter().enumerate() {
        let x = x.borrow();
        if x.shape().dims() != dims {
            return Err(CoreError::Config {
                message: format!(
                    "input {r} has shape {:?}, but input 0 has {dims:?}",
                    x.shape().dims()
                ),
            });
        }
        if let Some((i, v)) = x
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
        {
            let pixel = if rows {
                format!("image {r} pixel {i}")
            } else {
                format!("image pixel {i}")
            };
            return Err(CoreError::Config {
                message: format!("{pixel} is {v}, not a finite value"),
            });
        }
    }
    Ok(())
}

/// Stacks samples of one shape into a row-major block, with their
/// per-row shape.
fn stack<T: Borrow<Tensor>>(inputs: &[T]) -> (Vec<f32>, Vec<usize>) {
    let dims = inputs
        .first()
        .map_or_else(Vec::new, |x| x.borrow().shape().dims().to_vec());
    let mut block = Vec::with_capacity(inputs.iter().map(|x| x.borrow().len()).sum());
    for x in inputs {
        block.extend_from_slice(x.borrow().as_slice());
    }
    (block, dims)
}

/// The index of a row's first strict maximum, as [`Tensor::argmax`]
/// picks it (`0` for an empty row).
fn first_max(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

fn flatten_if_needed(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() == 1 {
        Ok(x.clone())
    } else {
        x.reshape(&[x.len()]).map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(rng: &mut StdRng) -> AnnNetwork {
        AnnNetwork::new(vec![
            AnnLayer::linear_relu(rng, 4, 16),
            AnnLayer::linear_out(rng, 16, 3),
        ])
        .unwrap()
    }

    #[test]
    fn constructor_validates_stack() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(AnnNetwork::new(vec![]).is_err());
        assert!(AnnNetwork::new(vec![AnnLayer::linear_relu(&mut rng, 2, 2)]).is_err());
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&mut rng);
        let y = net.forward(&Tensor::ones(&[4])).unwrap();
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn conv_stack_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = AnnNetwork::new(vec![
            AnnLayer::conv_relu(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            ),
            AnnLayer::AvgPool { window: 2 },
            AnnLayer::Flatten,
            AnnLayer::linear_out(&mut rng, 4 * 4 * 4, 10),
        ])
        .unwrap();
        let y = net.forward(&Tensor::ones(&[1, 8, 8])).unwrap();
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = mlp(&mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1], &[4]).unwrap();
        let g = net.input_gradient(&x, 1).unwrap();
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let loss = |inp: &Tensor| {
                let logits = net.forward(inp).unwrap();
                ops::cross_entropy_with_grad(&logits, 1).unwrap().0
            };
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - g.as_slice()[i]).abs() < 5e-3,
                "input grad mismatch at {i}: {num} vs {}",
                g.as_slice()[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = mlp(&mut rng);
        let x = Tensor::from_vec(vec![0.5, 0.1, -0.4, 0.8], &[4]).unwrap();
        let label = 2;
        let (_, loss0, back) = net.forward_backward(&x, label, true, &mut rng).unwrap();
        net.apply_grads(&back.layer_grads, 0.5).unwrap();
        let (_, loss1, _) = net.forward_backward(&x, label, false, &mut rng).unwrap();
        assert!(
            loss1 < loss0,
            "one SGD step must reduce loss: {loss0} → {loss1}"
        );
    }

    #[test]
    fn activation_maxima_per_layer() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = mlp(&mut rng);
        let calib = vec![Tensor::ones(&[4]), Tensor::full(&[4], 0.5)];
        let maxima = net.activation_maxima(&calib).unwrap();
        assert_eq!(maxima.len(), 2);
        assert!(maxima.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn dropout_identity_at_inference() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 4, 8),
            AnnLayer::Dropout { probability: 0.5 },
            AnnLayer::linear_out(&mut rng, 8, 2),
        ])
        .unwrap();
        let x = Tensor::ones(&[4]);
        let a = net.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        assert_eq!(a, b);
    }

    /// The NaN, +∞ and −∞ pixels the entry points reject, as the error
    /// message prints them.
    const NON_FINITE: [(f32, &str); 3] = [
        (f32::NAN, "NaN"),
        (f32::INFINITY, "inf"),
        (f32::NEG_INFINITY, "-inf"),
    ];

    /// An `mlp` input with `value` at flat index 2.
    fn bad_input(value: f32) -> Tensor {
        Tensor::from_vec(vec![0.5, 0.25, value, 1.0], &[4]).unwrap()
    }

    fn config_message<T: std::fmt::Debug>(result: Result<T>) -> String {
        match result {
            Err(CoreError::Config { message }) => message,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn forward_and_classify_reject_non_finite_pixels() {
        let net = mlp(&mut StdRng::seed_from_u64(6));
        for (value, shown) in NON_FINITE {
            let expected = format!("image pixel 2 is {shown}, not a finite value");
            assert_eq!(config_message(net.forward(&bad_input(value))), expected);
            assert_eq!(config_message(net.classify(&bad_input(value))), expected);
        }
    }

    #[test]
    fn input_gradient_rejects_non_finite_pixels() {
        let net = mlp(&mut StdRng::seed_from_u64(7));
        for (value, shown) in NON_FINITE {
            let expected = format!("image pixel 2 is {shown}, not a finite value");
            assert_eq!(
                config_message(net.input_gradient(&bad_input(value), 1)),
                expected
            );
        }
    }

    /// The calibration set runs in 32-row chunks; the error names the
    /// sample by its index in the whole set.
    #[test]
    fn activation_maxima_rejects_non_finite_pixels_naming_the_sample() {
        let net = mlp(&mut StdRng::seed_from_u64(8));
        for at in [0usize, 2, 35] {
            for (value, shown) in NON_FINITE {
                let mut calibration = vec![Tensor::full(&[4], 0.5); 40];
                calibration[at] = bad_input(value);
                assert_eq!(
                    config_message(net.activation_maxima(&calibration)),
                    format!("image {at} pixel 2 is {shown}, not a finite value")
                );
            }
        }
    }

    /// A training batch is checked before dropout draws a mask: the
    /// rejected call leaves the RNG where it was.
    #[test]
    fn forward_backward_batch_rejects_non_finite_pixels_before_any_draw() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = AnnNetwork::new(vec![
            AnnLayer::Dropout { probability: 0.5 },
            AnnLayer::linear_relu(&mut rng, 4, 8),
            AnnLayer::linear_out(&mut rng, 8, 2),
        ])
        .unwrap();
        for (value, shown) in NON_FINITE {
            let inputs = [Tensor::full(&[4], 0.5), bad_input(value)];
            let mut train_rng = StdRng::seed_from_u64(10);
            let result = net.forward_backward_batch(&inputs, &[0, 1], true, &mut train_rng);
            assert_eq!(
                config_message(result),
                format!("image 1 pixel 2 is {shown}, not a finite value")
            );
            assert_eq!(
                train_rng.gen::<u64>(),
                StdRng::seed_from_u64(10).gen::<u64>()
            );
        }
    }

    /// Samples of one call must share the first sample's shape, also
    /// when their volumes agree.
    #[test]
    fn batched_entry_points_reject_mismatched_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = AnnNetwork::new(vec![
            AnnLayer::Flatten,
            AnnLayer::linear_out(&mut rng, 4, 2),
        ])
        .unwrap();
        let inputs = [
            Tensor::ones(&[4]),
            Tensor::ones(&[4]),
            Tensor::ones(&[2, 2]),
        ];
        let expected = "input 2 has shape [2, 2], but input 0 has [4]";
        assert_eq!(config_message(net.activation_maxima(&inputs)), expected);
        let result = net.forward_backward_batch(&inputs, &[0, 1, 0], false, &mut rng);
        assert_eq!(config_message(result), expected);
    }
}
