//! The fused engine: B samples through the layer stack in lockstep.
//!
//! Every forward and backward of a [`SpikingNetwork`] runs here. The
//! batch entry points ([`SpikingNetwork::forward_batch`],
//! [`SpikingNetwork::forward_batch_recorded`]) pack B encoded samples
//! ([`FrameTrain`]) and drive all of them through every time step
//! together; [`SpikingNetwork::forward`], `classify` and the
//! [`crate::network::FrameStepper`] are the one-row case of the same
//! pass, and one step body serves them all. Spike planes become a CSR
//! [`axsnn_tensor::batched::SpikeMatrix`] and the linear layers run as
//! one spike-plane GEMM per step
//! ([`axsnn_tensor::batched::sparse_matmul_bias_packed`]), which loads
//! each weight panel once per *batch* instead of once per sample.
//! Membrane state lives in `[B, n]` blocks
//! ([`crate::lif::BatchedLifState`]).
//!
//! A linear layer's weights stream as panels the layer packs once per
//! weight change and keeps ([`axsnn_tensor::batched::PackedWeights`];
//! see [`crate::layer`]): the spike GEMM and the dense fallback read
//! them at every batch size and density, so a B = 1 event query walks
//! one contiguous 8-float line per event and 8 output rows, and no pass
//! packs or decodes weights per call or per step. A planed linear layer
//! runs the same f32 panels, decoded once from its plane. The sharded
//! classifiers pack the caller's network before cloning it per worker,
//! so the workers share its panels.
//!
//! Spikes travel between layers as one CSR [`SpikeMatrix`] per layer
//! per step, never as a dense block: the batched LIF step writes the
//! matrix directly ([`axsnn_tensor::batched::lif_fire`]), the input
//! plane packs the trains' spike frames into one, and an admitted
//! max-pool row pools events to events
//! ([`axsnn_tensor::sparse::sparse_max_pool2d_events`]) into the next.
//! The next layer's density gate only reads each row's count
//! ([`KernelPolicy::admit_count`]); when it admits every row, the
//! matrix goes into the spike-plane GEMM or the sorted conv uncopied.
//! Only analog planes (direct-current input, avg-pool output, dropout
//! output, readout currents) and gate-declined rows are dense, and the
//! input plane borrows its analog rows from the trains instead of
//! copying them.
//!
//! A direct-current train repeats its frame on every step. Each
//! [`FrameTrain`] records at construction which analog frames repeat
//! their predecessor bit for bit; at a step where every train of the
//! batch repeats, the first linear layer reuses the previous step's
//! currents, which are the bits the dense GEMM would recompute.
//!
//! # Batch invariance
//!
//! A row's result does not depend on the batch it runs in: row `b` of
//! `forward_batch` equals the one-row `forward` of sample `b` bit for
//! bit. Every row makes its own dense/sparse gate decision (the density
//! gate, applied per row per layer per step), and every kernel forms a
//! row's outputs in the same order whatever the other rows hold. The
//! gate decides only speed: each sparse kernel sums in its dense twin's
//! order, so a row gives the same bits whichever side of the gate it
//! lands on (see [`crate::plan`]). An inter-layer CSR row is exactly
//! what [`SpikeVector::from_dense`] yields on the binary spike row
//! (ascending, unique indices), so the kernels see the same
//! accumulation order and the gate the same event count; a declined
//! row materializes from it with values of exactly `0.0` and `1.0`.
//! The per-layer spike statistics add each step's event count as an
//! `f32`, exact while a layer emits fewer than 2²⁴ spikes in one step.
//! The property suite in `tests/batched_equivalence.rs` pins logits,
//! spike statistics and dense-fallback counts across shapes, batch
//! sizes, densities and thread counts, and `tests/engine_digests.rs`
//! freezes the one-row outputs.
//!
//! # Minibatched training
//!
//! [`SpikingNetwork::forward_batch_recorded`] runs the same pass, with
//! the same kernels, and an event-form [`BatchTape`]: per layer and time
//! step it tapes each row's input (events where the density gate
//! admits, dense otherwise) plus the stacked pre-reset membranes. Since
//! every sparse kernel sums in its dense twin's order, each taped
//! current equals what the dense tape would hold. Pools are the
//! exception: recorded steps pool densely, because the max-pool tape
//! needs its argmax. [`SpikingNetwork::backward_batch`] then partitions
//! the minibatch into fixed row-shards, fans the reverse-time sweeps out
//! across worker threads ([`BackwardOpts::threads`]), and reduces the
//! per-shard gradient buffers in a fixed order — gradients are
//! bit-identical for every thread count. `train_snn` consumes
//! minibatches this way.
//!
//! The training backward computes only what training reads: each
//! shard's sweep stops at the first parameterized layer, which skips its
//! input gradient (a conv first layer still gets one from its fused
//! per-row kernels). A linear layer's weight gradient is not a rank-1
//! update per row and step: the sweep logs its gradient blocks, and one
//! pass per shard adds them in the same per-cell order through a
//! register-tiled kernel ([`axsnn_tensor::linalg::outer_acc_run`]), so
//! the accumulator streams once per run of dense rows.
//!
//! [`SpikingNetwork::backward`] is the one-row case of the same
//! backward over the tape its recorded `forward` kept: its sweep runs
//! down to layer 0 and returns layer 0's input gradient at every step.
//! [`SpikingNetwork::frame_gradients`] returns the same frame gradients
//! and forms no parameter gradient; the white-box attacks sum them into
//! an image gradient.
//!
//! Train-mode dropout draws one mask per dropout layer and row from the
//! caller's RNG when the pass first reaches the layer, rows in
//! ascending order, holds it across the time steps and tapes it for the
//! backward. `forward`, the frame stepper and `train_snn` pass their
//! RNG; the batch entry points take none, so they reject active
//! dropout.
//!
//! # Event-stream queries
//!
//! B = 1 is a first-class batch size. A DVS sample binned straight into
//! per-step spike rows ([`FrameTrain::from_spike_rows`]) runs one fused
//! pass with no dense frame built or re-scanned; the `axsnn-attacks`
//! `SnnEventModel` answers every event-attack query this way.

use crate::batch::{fan_out, fan_out_with, sample_seed};
use crate::encoding::Encoder;
use crate::layer::{acc_grad, surrogate_carry_grad, Layer};
use crate::lif::{BatchedLifState, LifParams};
use crate::network::{ForwardOutput, SpikeStats, SpikingNetwork};
use crate::plan::{ConvBatchKernel, KernelPolicy};
use crate::{CoreError, Result};
use axsnn_tensor::batched::{
    matmul_bt_bias_packed, matmul_bt_bias_scalar, sparse_conv2d_batch_sorted_into,
    sparse_conv2d_batch_sorted_planed_into, sparse_matmul_bias_packed, sparse_matmul_bias_scalar,
    PackedWeights, SpikeMatrix,
};
use axsnn_tensor::conv::{self, Conv2dSpec};
use axsnn_tensor::grads::{self, GradShard};
use axsnn_tensor::plane::QuantizedPlane;
use axsnn_tensor::sparse::{self, SpikeVector};
use axsnn_tensor::{linalg, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;

pub use crate::plan::BackwardOpts;

/// Default number of samples fused into one batched forward pass.
///
/// Large enough to amortize each weight row across many gathers, small
/// enough that a shard's `[B, n]` blocks stay cache-resident and a
/// dataset still splits into enough shards to feed all cores.
pub const DEFAULT_FUSED_BATCH: usize = 32;

/// One encoded time-step frame of a sample.
///
/// Binary frames (rate-coded spike trains, event-camera planes) are
/// stored directly in event form — the representation every sparse
/// kernel consumes and a fraction of the dense footprint. Analog frames
/// (direct-current encoding) keep their dense tensor.
#[derive(Debug, Clone)]
pub enum EncodedFrame {
    /// A binary frame as its active-spike events.
    Spikes(SpikeVector),
    /// A non-binary frame (analog current); always takes dense kernels.
    Analog(Tensor),
}

impl EncodedFrame {
    /// How every entry point stores a dense frame: a binary frame as
    /// its events, any other frame as an analog one.
    fn of(frame: &Tensor) -> EncodedFrame {
        match SpikeVector::from_dense(frame) {
            Some(events) => EncodedFrame::Spikes(events),
            None => EncodedFrame::Analog(frame.clone()),
        }
    }
}

/// A sample's full encoded frame train: `T` frames sharing one shape.
///
/// This is the unit the fused batch engine and the dataset-level
/// encoded cache exchange: encode once, classify under many network
/// configurations.
///
/// # Example
///
/// ```
/// use axsnn_core::encoding::Encoder;
/// use axsnn_core::fused::FrameTrain;
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let image = Tensor::full(&[4], 0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let train = FrameTrain::encode(&image, Encoder::Deterministic, 8, &mut rng)?;
/// assert_eq!(train.time_steps(), 8);
/// assert_eq!(train.dims(), &[4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrameTrain {
    dims: Vec<usize>,
    frames: Vec<EncodedFrame>,
    /// `repeats[t]`: frame `t` is analog and `to_bits`-equal to frame
    /// `t − 1` (never set at `t = 0` or on a spike frame).
    repeats: Vec<bool>,
}

impl FrameTrain {
    /// Encodes an image into a frame train, storing binary frames as
    /// spike vectors. Produces exactly the frames
    /// [`Encoder::encode`] would: materializing them back yields the
    /// identical tensors.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (`time_steps == 0`).
    pub fn encode<R: Rng>(
        image: &Tensor,
        encoder: Encoder,
        time_steps: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let frames = encoder.encode(image, time_steps, rng)?;
        Self::from_frames(&frames)
    }

    /// Packs already-materialized frames, storing binary ones as spike
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when frames disagree on shape.
    pub fn from_frames(frames: &[Tensor]) -> Result<Self> {
        let dims: Vec<usize> = frames
            .first()
            .map(|f| f.shape().dims().to_vec())
            .unwrap_or_default();
        let mut encoded = Vec::with_capacity(frames.len());
        let mut repeats = Vec::with_capacity(frames.len());
        for (t, f) in frames.iter().enumerate() {
            if f.shape().dims() != dims.as_slice() {
                return Err(CoreError::Config {
                    message: format!(
                        "frame train mixes shapes {:?} and {:?}",
                        dims,
                        f.shape().dims()
                    ),
                });
            }
            let frame = EncodedFrame::of(f);
            let same_bits = |prev: &Tensor| {
                let bits = |v: &f32| v.to_bits();
                prev.as_slice()
                    .iter()
                    .map(bits)
                    .eq(f.as_slice().iter().map(bits))
            };
            repeats.push(
                matches!(frame, EncodedFrame::Analog(_))
                    && t > 0
                    && matches!(&encoded[t - 1], EncodedFrame::Analog(prev) if same_bits(prev)),
            );
            encoded.push(frame);
        }
        Ok(FrameTrain {
            dims,
            frames: encoded,
            repeats,
        })
    }

    /// Packs per-step spike rows that were built directly in event form
    /// (e.g. binned from a DVS event stream), with no dense frame in
    /// between. Each row must be exactly what [`SpikeVector::from_dense`]
    /// yields on the binary frame it stands for: its length is the
    /// `dims` volume and its indices are row-major offsets in strictly
    /// ascending order. The sparse kernels' accumulation order and the
    /// density gate's event count both rely on that form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] naming the first step whose row
    /// length differs from the `dims` volume or whose indices are not
    /// strictly ascending (unsorted or duplicated).
    pub fn from_spike_rows(dims: &[usize], rows: Vec<SpikeVector>) -> Result<Self> {
        let volume: usize = dims.iter().product();
        for (t, row) in rows.iter().enumerate() {
            if row.len() != volume {
                return Err(CoreError::Config {
                    message: format!(
                        "spike row at step {t} has length {}, but dims {dims:?} hold {volume}",
                        row.len()
                    ),
                });
            }
            if row.indices().windows(2).any(|w| w[0] >= w[1]) {
                return Err(CoreError::Config {
                    message: format!("spike row at step {t} is not strictly ascending"),
                });
            }
        }
        Ok(FrameTrain {
            dims: dims.to_vec(),
            repeats: vec![false; rows.len()],
            frames: rows.into_iter().map(EncodedFrame::Spikes).collect(),
        })
    }

    /// Number of time steps.
    pub fn time_steps(&self) -> usize {
        self.frames.len()
    }

    /// Shape shared by every frame.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The encoded frames.
    pub fn frames(&self) -> &[EncodedFrame] {
        &self.frames
    }

    /// `true` when frame `t` is analog and bit for bit (`to_bits`, so
    /// `-0.0` differs from `0.0`) the frame before it, as a
    /// direct-current train's frames are. Recorded once at construction,
    /// so the fused engine can reuse the first linear layer's currents at
    /// such a step without comparing the inputs again.
    pub(crate) fn repeats(&self, t: usize) -> bool {
        self.repeats.get(t).copied().unwrap_or(false)
    }

    /// Materializes the dense frame sequence.
    ///
    /// # Errors
    ///
    /// Cannot fail for trains built through the constructors.
    pub fn to_frames(&self) -> Result<Vec<Tensor>> {
        self.frames
            .iter()
            .map(|f| match f {
                EncodedFrame::Spikes(s) => s.to_dense(&self.dims).map_err(CoreError::from),
                EncodedFrame::Analog(t) => Ok(t.clone()),
            })
            .collect()
    }
}

/// Output of a fused batched forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchForwardOutput {
    /// Accumulated readout logits, `[B, classes]`.
    pub logits: Tensor,
    /// Total spikes per spiking layer, summed over the batch and all
    /// time steps (the batch-level analogue of
    /// [`crate::network::SpikeStats::spikes_per_layer`]). Each step adds
    /// its event count, exact while a layer emits fewer than 2²⁴ spikes
    /// in one step.
    pub spikes_per_layer: Vec<f32>,
    /// Time steps simulated.
    pub time_steps: usize,
}

impl BatchForwardOutput {
    /// Number of batch rows.
    pub fn batch(&self) -> usize {
        self.logits.shape().dims()[0]
    }

    /// Predicted class per row — first strict maximum, matching
    /// [`Tensor::argmax`] on the row's logits.
    pub fn predictions(&self) -> Vec<usize> {
        let dims = self.logits.shape().dims();
        let (b, c) = (dims[0], dims[1]);
        let data = self.logits.as_slice();
        (0..b)
            .map(|r| {
                let row = &data[r * c..(r + 1) * c];
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

/// The batch's activity plane between two layers: B rows sharing one
/// logical shape.
struct BatchPlane<'a> {
    dims: Vec<usize>,
    batch: usize,
    data: PlaneData<'a>,
}

/// Storage of a [`BatchPlane`].
enum PlaneData<'a> {
    /// Binary rows as one CSR matrix with a row per sample: the input
    /// plane, every spiking layer's output (straight from the LIF step)
    /// and an inference max-pool's output. `dense` is empty while every
    /// row is binary; otherwise it has a slot per row, and a row with a
    /// slot is dense instead (its CSR row is empty): an analog input
    /// frame borrowed from its train, or a max-pool row the gate
    /// declined.
    Events {
        matrix: SpikeMatrix,
        dense: Vec<Option<Cow<'a, [f32]>>>,
    },
    /// One contiguous `[B, n]` block for the analog planes between
    /// layers (readout currents, avg-pool output) and recorded max-pool
    /// output.
    Stacked(Vec<f32>),
}

/// A borrowed view of one row of a [`BatchPlane`].
enum RowRef<'p> {
    /// A binary row: ascending, unique flat indices.
    Events(&'p [u32]),
    /// An analog (or gate-declined) row's values.
    Dense(&'p [f32]),
}

impl<'a> BatchPlane<'a> {
    /// A binary plane of one CSR row per sample.
    fn events(dims: Vec<usize>, matrix: SpikeMatrix) -> BatchPlane<'a> {
        BatchPlane {
            dims,
            batch: matrix.rows(),
            data: PlaneData::Events {
                matrix,
                dense: Vec::new(),
            },
        }
    }

    /// The input plane of one step, one row per frame of logical shape
    /// `dims`: the spike frames packed into one CSR matrix, the analog
    /// frames borrowed, never copied.
    fn input(
        dims: &[usize],
        frames: impl ExactSizeIterator<Item = &'a EncodedFrame>,
    ) -> Result<BatchPlane<'a>> {
        let batch = frames.len();
        let mut matrix = SpikeMatrix::new(dims.iter().product());
        let mut dense = Vec::new();
        for (r, frame) in frames.enumerate() {
            match frame {
                EncodedFrame::Spikes(events) => matrix.push_row(events.indices())?,
                EncodedFrame::Analog(values) => {
                    if dense.is_empty() {
                        dense.resize(batch, None);
                    }
                    dense[r] = Some(Cow::Borrowed(values.as_slice()));
                    matrix.push_row(&[])?;
                }
            }
        }
        Ok(BatchPlane {
            dims: dims.to_vec(),
            batch,
            data: PlaneData::Events { matrix, dense },
        })
    }

    fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    fn row(&self, r: usize) -> RowRef<'_> {
        match &self.data {
            PlaneData::Events { matrix, dense } => match dense.get(r).and_then(Option::as_deref) {
                Some(values) => RowRef::Dense(values),
                None => RowRef::Events(matrix.row(r)),
            },
            PlaneData::Stacked(block) => {
                let len = self.volume();
                RowRef::Dense(&block[r * len..(r + 1) * len])
            }
        }
    }

    /// The plane's CSR matrix when every row is in event form.
    fn all_events(&self) -> Option<&SpikeMatrix> {
        match &self.data {
            PlaneData::Events { matrix, dense } if dense.iter().all(Option::is_none) => {
                Some(matrix)
            }
            _ => None,
        }
    }

    /// Runs the plan's density gate on row `r`, returning the row's
    /// events exactly when [`KernelPolicy::admit_slice`] would admit the
    /// row as a dense frame: it is binary and its density is at most the
    /// policy's threshold. An event row is gated on its count
    /// ([`KernelPolicy::admit_count`]), a dense row on its values
    /// ([`KernelPolicy::admit_slice`]).
    /// Declines count on the policy's fallback counter, one per batch
    /// row.
    fn admit(&self, r: usize, policy: &KernelPolicy) -> Option<Cow<'_, [u32]>> {
        match self.row(r) {
            RowRef::Events(indices) => policy
                .admit_count(indices.len(), self.volume())
                .then_some(Cow::Borrowed(indices)),
            RowRef::Dense(values) => policy
                .admit_slice(values)
                .map(|events| Cow::Owned(events.indices().to_vec())),
        }
    }

    /// Appends row `r`'s dense values to `out` (for packing the dense
    /// GEMM fallback block).
    fn extend_dense(&self, r: usize, out: &mut Vec<f32>) {
        match self.row(r) {
            RowRef::Events(indices) => {
                let base = out.len();
                out.resize(base + self.volume(), 0.0);
                for &j in indices {
                    out[base + j as usize] = 1.0;
                }
            }
            RowRef::Dense(values) => out.extend_from_slice(values),
        }
    }

    /// Materializes row `r` as a dense tensor of the plane's shape (for
    /// the dense conv/pool kernels).
    fn dense_row(&self, r: usize) -> Result<Tensor> {
        let mut values = Vec::with_capacity(self.volume());
        self.extend_dense(r, &mut values);
        Tensor::from_vec(values, &self.dims).map_err(CoreError::from)
    }

    /// Every row times its dropout mask (`masks` is `[B, n]`), as one
    /// dense block of `v·m` values.
    fn masked(&self, masks: &[f32]) -> BatchPlane<'static> {
        let mut block = Vec::with_capacity(masks.len());
        for r in 0..self.batch {
            self.extend_dense(r, &mut block);
        }
        for (v, &m) in block.iter_mut().zip(masks) {
            *v *= m;
        }
        BatchPlane {
            dims: self.dims.clone(),
            batch: self.batch,
            data: PlaneData::Stacked(block),
        }
    }

    /// The gate-admitted rows as one CSR matrix, in row order: the
    /// plane's own matrix, uncopied, when the gate admitted every row;
    /// otherwise a copy of the admitted rows, with an empty row standing
    /// in for each declined one when `keep_declined`.
    fn admitted_matrix(
        &self,
        admitted: &[Option<Cow<'_, [u32]>>],
        keep_declined: bool,
    ) -> Result<Cow<'_, SpikeMatrix>> {
        if let Some(matrix) = self.all_events() {
            if admitted.iter().all(Option::is_some) {
                return Ok(Cow::Borrowed(matrix));
            }
        }
        let mut matrix = SpikeMatrix::new(self.volume());
        for row in admitted {
            match row {
                Some(indices) => matrix.push_row(indices)?,
                None if keep_declined => matrix.push_row(&[])?,
                None => {}
            }
        }
        Ok(Cow::Owned(matrix))
    }
}

/// A gate-admitted row's events as the per-row kernels and the tape take
/// them.
fn owned_events(indices: Cow<'_, [u32]>, len: usize) -> Result<SpikeVector> {
    SpikeVector::new(indices.into_owned(), len).map_err(CoreError::from)
}

/// One sample-row of a recorded batch plane, as taped for BPTT: event
/// form when the density gate admitted it, dense values otherwise.
#[derive(Debug, Clone)]
enum BatchTapeRow {
    /// Binary row at or below the sparse threshold, as its events.
    Events(SpikeVector),
    /// Analog or gate-rejected row, flattened.
    Dense(Vec<f32>),
}

/// One layer's record at one time step of a [`BatchTape`].
#[derive(Debug, Clone)]
enum BatchTapeStep {
    /// Spiking conv layer: per-row taped inputs (logical shape
    /// `in_dims`) plus the stacked `[B, n]` pre-reset membranes.
    SpikingConv {
        rows: Vec<BatchTapeRow>,
        in_dims: Vec<usize>,
        pre: Vec<f32>,
    },
    /// Spiking linear layer: per-row taped inputs plus pre-reset
    /// membranes.
    SpikingLinear {
        rows: Vec<BatchTapeRow>,
        pre: Vec<f32>,
    },
    /// Integrator readout: per-row taped inputs.
    Output { rows: Vec<BatchTapeRow> },
    /// Average pooling: the pre-pool logical shape.
    AvgPool { in_dims: Vec<usize> },
    /// Max pooling: pre-pool shape plus per-row argmax winners.
    MaxPool {
        in_dims: Vec<usize>,
        argmax: Vec<Vec<usize>>,
    },
    /// Layers whose backward is the identity on the flat `[B, n]`
    /// block: flatten (a purely logical reshape) and inactive dropout.
    Identity,
    /// Train-mode dropout: the pass's `[B, n]` masks, shared by every
    /// step.
    Dropout { masks: Arc<[f32]> },
}

impl BatchTapeStep {
    /// `true` when this entry is the kind `layer` records.
    fn matches(&self, layer: &Layer) -> bool {
        matches!(
            (layer, self),
            (Layer::SpikingConv2d(_), BatchTapeStep::SpikingConv { .. })
                | (Layer::SpikingLinear(_), BatchTapeStep::SpikingLinear { .. })
                | (Layer::OutputLinear(_), BatchTapeStep::Output { .. })
                | (Layer::AvgPool2d(_), BatchTapeStep::AvgPool { .. })
                | (Layer::MaxPool2d(_), BatchTapeStep::MaxPool { .. })
                | (
                    Layer::Flatten(_) | Layer::Dropout(_),
                    BatchTapeStep::Identity
                )
                | (Layer::Dropout(_), BatchTapeStep::Dropout { .. })
        )
    }
}

/// The BPTT tape of one recorded fused pass
/// ([`SpikingNetwork::forward_batch_recorded`], or a recorded
/// [`SpikingNetwork::forward`], which keeps its one-row tape): per time
/// step and layer, the per-row inputs (event form where the density
/// gate admitted them), the stacked pre-reset membranes of the spiking
/// layers and the dropout masks. Consumed by
/// [`SpikingNetwork::backward_batch`] and [`SpikingNetwork::backward`].
#[derive(Debug, Clone)]
pub struct BatchTape {
    batch: usize,
    time_steps: usize,
    classes: usize,
    /// Logical shape of the input frames.
    input_dims: Vec<usize>,
    steps: Vec<Vec<BatchTapeStep>>,
}

impl BatchTape {
    /// Number of batch rows recorded.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Time steps recorded.
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Fraction of parameterized-layer tape rows stored in event form
    /// (the sparse-tape engagement rate; `0.0` when nothing admitted).
    pub fn event_row_fraction(&self) -> f32 {
        let (mut events, mut total) = (0usize, 0usize);
        for step in &self.steps {
            for layer in step {
                let rows = match layer {
                    BatchTapeStep::SpikingConv { rows, .. }
                    | BatchTapeStep::SpikingLinear { rows, .. }
                    | BatchTapeStep::Output { rows } => rows,
                    _ => continue,
                };
                total += rows.len();
                events += rows
                    .iter()
                    .filter(|r| matches!(r, BatchTapeRow::Events(_)))
                    .count();
            }
        }
        if total == 0 {
            0.0
        } else {
            events as f32 / total as f32
        }
    }
}

/// Computes the `[B, out]` current block of a (spiking or readout)
/// linear layer: gate-admitted rows fuse into one spike-plane GEMM, the
/// rest batch through the dense `X·Wᵀ + b` fallback. Each row is
/// bit-identical to the same row run alone.
///
/// When the gate admits every row of a binary plane (a spiking layer's
/// output at the usual firing rates), the plane's CSR matrix goes into
/// the GEMM as it is; otherwise the admitted rows are copied into one
/// sub-matrix and the declined rows materialize densely.
///
/// The spike-plane GEMM sums each output in the dense GEMM's order, so
/// the gate's split between the two never changes a current. Recorded
/// steps run the same kernels; `record` only asks for the per-row
/// inputs back for the tape (empty otherwise).
///
/// `weight`/`bias` are the layer's *effective* tensors and `packed` the
/// layer's panels of the same weights (decoded from the plane on a
/// planed layer), built once per weight change: the spike-plane GEMM
/// and the dense fallback stream them at every batch size, one row
/// included. Without panels (scalar dispatch) both run their scalar
/// twins over `weight`; either way the bits are the same.
///
/// `repeated` is the layer's previous block at a step where every train
/// repeats its analog input frame bit for bit ([`FrameTrain`] flags
/// this at construction). It is returned as the step's currents: the
/// dense GEMM would recompute exactly those bits from the same rows.
/// The gate declines every non-binary row, so the declines are counted
/// as it would count them (one per row, under an armed gate), and a
/// recorded step tapes the borrowed input rows.
fn linear_current_block(
    weight: &Tensor,
    bias: &Tensor,
    packed: Option<&PackedWeights>,
    policy: &KernelPolicy,
    plane: &BatchPlane<'_>,
    record: bool,
    repeated: Option<Vec<f32>>,
) -> Result<(Vec<f32>, Vec<BatchTapeRow>)> {
    if let Some(block) = repeated {
        policy.decline_analog(plane.batch);
        let mut rows = Vec::new();
        if record {
            for r in 0..plane.batch {
                let mut values = Vec::with_capacity(plane.volume());
                plane.extend_dense(r, &mut values);
                rows.push(BatchTapeRow::Dense(values));
            }
        }
        return Ok((block, rows));
    }
    let wdims = weight.shape().dims();
    if wdims.len() != 2 {
        return Err(CoreError::from(TensorError::RankMismatch {
            expected: 2,
            actual: wdims.len(),
            op: "forward_batch linear",
        }));
    }
    let (out_n, in_n) = (wdims[0], wdims[1]);
    let admitted: Vec<Option<Cow<'_, [u32]>>> =
        (0..plane.batch).map(|r| plane.admit(r, policy)).collect();
    let sparse_n = admitted.iter().filter(|row| row.is_some()).count();
    let sparse_y = if sparse_n > 0 {
        let x = plane.admitted_matrix(&admitted, false)?;
        let y = match packed {
            Some(p) => sparse_matmul_bias_packed(p, &x, bias),
            None => sparse_matmul_bias_scalar(weight, &x, bias),
        }?;
        y.into_vec()
    } else {
        Vec::new()
    };
    let mut dense_x = Vec::new();
    let dense_n = plane.batch - sparse_n;
    let dense_y = if dense_n > 0 {
        dense_x.reserve(dense_n * in_n);
        for (r, row) in admitted.iter().enumerate() {
            if row.is_none() {
                plane.extend_dense(r, &mut dense_x);
            }
        }
        let x = Tensor::from_vec(dense_x, &[dense_n, in_n])?;
        let y = match packed {
            Some(p) => matmul_bt_bias_packed(&x, p, bias),
            None => matmul_bt_bias_scalar(&x, weight, bias),
        }?;
        dense_x = x.into_vec();
        y.into_vec()
    } else {
        Vec::new()
    };
    let block = if dense_n == 0 {
        sparse_y
    } else if sparse_n == 0 {
        dense_y
    } else {
        // Row `k` of each side's output is that side's `k`-th row.
        let mut block = Vec::with_capacity(plane.batch * out_n);
        let (mut s, mut d) = (0, 0);
        for row in &admitted {
            let (y, k) = match row {
                Some(_) => (&sparse_y, &mut s),
                None => (&dense_y, &mut d),
            };
            block.extend_from_slice(&y[*k * out_n..(*k + 1) * out_n]);
            *k += 1;
        }
        block
    };
    let mut rows = Vec::new();
    if record {
        let mut d = 0;
        for row in admitted {
            rows.push(match row {
                Some(indices) => BatchTapeRow::Events(owned_events(indices, in_n)?),
                None => {
                    d += 1;
                    BatchTapeRow::Dense(dense_x[(d - 1) * in_n..d * in_n].to_vec())
                }
            });
        }
    }
    Ok((block, rows))
}

/// Computes the `[B, Cout·OH·OW]` current block of a spiking conv
/// layer. Gate-admitted rows execute under the plan's batched-conv
/// kernel choice: [`ConvBatchKernel::EventSorted`] runs the tile-sorted
/// scatter ([`sparse_conv2d_batch_sorted_into`]) over one CSR batch
/// straight into the block — one pass over the conv weights per batch,
/// and the plane's own matrix when the gate admitted every row — while
/// [`ConvBatchKernel::RowByRow`] keeps the per-row stencil sweep. Both
/// are bit-identical per row; declined rows run the dense conv.
///
/// The scatter convs accumulate each output cell in the dense kernel's
/// order, so the same kernels serve recorded steps; `record` only asks
/// for the per-row tape inputs back (empty otherwise).
///
/// As in [`linear_current_block`], `weight`/`bias` are the effective
/// tensors and `quant` lets the event-sorted scatter stream the packed
/// reduced-precision buffer.
fn conv_current_block(
    spec: &Conv2dSpec,
    weight: &Tensor,
    bias: &Tensor,
    quant: Option<&QuantizedPlane>,
    policy: &KernelPolicy,
    plane: &BatchPlane<'_>,
    record: bool,
) -> Result<(Vec<f32>, Vec<usize>, Vec<BatchTapeRow>)> {
    if plane.dims.len() != 3 {
        return Err(CoreError::from(TensorError::RankMismatch {
            expected: 3,
            actual: plane.dims.len(),
            op: "forward_batch conv",
        }));
    }
    let (c, h, w) = (plane.dims[0], plane.dims[1], plane.dims[2]);
    if c != spec.in_channels {
        return Err(CoreError::from(TensorError::ShapeMismatch {
            lhs: plane.dims.clone(),
            rhs: vec![spec.in_channels],
            op: "forward_batch conv input channels",
        }));
    }
    if spec.kernel == 0
        || spec.stride == 0
        || h + 2 * spec.padding < spec.kernel
        || w + 2 * spec.padding < spec.kernel
    {
        return Err(CoreError::from(TensorError::InvalidArgument {
            message: format!(
                "conv2d kernel {} incompatible with padded input {}x{}",
                spec.kernel,
                h + 2 * spec.padding,
                w + 2 * spec.padding
            ),
        }));
    }
    let (oh, ow) = spec.output_hw(h, w);
    let n = spec.out_channels * oh * ow;
    let b = plane.batch;
    let in_len = plane.volume();
    let mut block = vec![0.0f32; b * n];
    let mut rows = Vec::with_capacity(if record { b } else { 0 });
    // One gate decision per row, through the plan's policy.
    let admitted: Vec<Option<Cow<'_, [u32]>>> = (0..b).map(|r| plane.admit(r, policy)).collect();
    let sorted = policy.conv_batch() == ConvBatchKernel::EventSorted
        && b > 1
        && admitted.iter().any(Option::is_some);
    if sorted {
        // Every row keeps its slot (a declined row as an empty event
        // list, overwritten by the dense conv below).
        let matrix = plane.admitted_matrix(&admitted, true)?;
        match quant {
            Some(q) => sparse_conv2d_batch_sorted_planed_into(
                &matrix,
                (h, w),
                q.view(),
                bias,
                spec,
                &mut block,
            )?,
            None => {
                sparse_conv2d_batch_sorted_into(&matrix, (h, w), weight, bias, spec, &mut block)?
            }
        }
    }
    for (r, admitted_row) in admitted.into_iter().enumerate() {
        let slot = &mut block[r * n..(r + 1) * n];
        match admitted_row {
            Some(indices) => {
                if sorted && !record {
                    continue;
                }
                let events = owned_events(indices, in_len)?;
                if !sorted {
                    sparse::sparse_conv2d_into(&events, (h, w), weight, bias, spec, slot)?;
                }
                if record {
                    rows.push(BatchTapeRow::Events(events));
                }
            }
            None => {
                let t = plane.dense_row(r)?;
                let out = conv::conv2d(&t, weight, bias, spec)?;
                slot.copy_from_slice(out.as_slice());
                if record {
                    rows.push(BatchTapeRow::Dense(t.into_vec()));
                }
            }
        }
    }
    Ok((block, vec![spec.out_channels, oh, ow], rows))
}

/// Pools every row of the plane (max or avg), one gate decision per
/// row: rows admitted by the density gate pool on events, the rest on
/// the dense kernels.
///
/// On inference steps an admitted max-pool row pools from events to
/// events ([`sparse::sparse_max_pool2d_events`]) into one CSR output
/// matrix, so the next layer's gate is a count check; a declined row
/// pools densely and stays dense.
///
/// Recorded steps always pool on the dense kernels (max pooling needs
/// its argmax tape, which the event kernel does not produce), with no
/// gate and no fallback accounting. Max-pool
/// argmax rows are returned when `record` is set.
fn pool_plane<'a>(
    plane: BatchPlane<'a>,
    window: usize,
    policy: &KernelPolicy,
    max: bool,
    record: bool,
) -> Result<(BatchPlane<'a>, Vec<Vec<usize>>)> {
    let gate_ok = !record && plane.dims.len() == 3;
    let b = plane.batch;
    let in_len = plane.volume();
    if max && gate_ok {
        let (c, h, w) = (plane.dims[0], plane.dims[1], plane.dims[2]);
        let out_dims = match (h.checked_div(window), w.checked_div(window)) {
            (Some(oh), Some(ow)) => vec![c, oh, ow],
            _ => {
                return Err(CoreError::from(TensorError::InvalidArgument {
                    message: "pool window must be non-zero".into(),
                }))
            }
        };
        let mut matrix = SpikeMatrix::new(out_dims.iter().product());
        let mut dense = Vec::new();
        for r in 0..b {
            match plane.admit(r, policy) {
                Some(indices) => {
                    let events = owned_events(indices, in_len)?;
                    let pooled = sparse::sparse_max_pool2d_events(&events, &plane.dims, window)?;
                    matrix.push_row(pooled.indices())?;
                }
                None => {
                    let pooled = conv::max_pool2d(&plane.dense_row(r)?, window)?.output;
                    if dense.is_empty() {
                        dense.resize(b, None);
                    }
                    dense[r] = Some(Cow::Owned(pooled.into_vec()));
                    matrix.push_row(&[])?;
                }
            }
        }
        return Ok((
            BatchPlane {
                dims: out_dims,
                batch: b,
                data: PlaneData::Events { matrix, dense },
            },
            Vec::new(),
        ));
    }
    let mut out = Vec::new();
    let mut out_dims = Vec::new();
    let mut argmax_rows = Vec::with_capacity(if record && max { b } else { 0 });
    for r in 0..b {
        let pooled = match gate_ok.then(|| plane.admit(r, policy)).flatten() {
            // Gated max pools returned above: an admitted row here is an
            // avg-pool row.
            Some(indices) => {
                sparse::sparse_avg_pool2d(&owned_events(indices, in_len)?, &plane.dims, window)?
            }
            None => {
                let t = plane.dense_row(r)?;
                if max {
                    let pooled = conv::max_pool2d(&t, window)?;
                    if record {
                        argmax_rows.push(pooled.argmax);
                    }
                    pooled.output
                } else {
                    conv::avg_pool2d(&t, window)?
                }
            }
        };
        if out_dims.is_empty() {
            out_dims = pooled.shape().dims().to_vec();
            out.reserve(b * pooled.len());
        }
        out.extend_from_slice(pooled.as_slice());
    }
    Ok((
        BatchPlane {
            dims: out_dims,
            batch: b,
            data: PlaneData::Stacked(out),
        },
        argmax_rows,
    ))
}

/// Maximum number of fixed row-shards the parallel backward partitions
/// a minibatch into.
///
/// The shard boundaries are a function of the batch size **only** —
/// never the thread count — so the per-shard accumulation and the
/// fixed-order reduction produce bit-identical gradients for every
/// thread count. More shards expose more parallelism; fewer shards mean
/// fewer zeroed gradient buffers to fill and reduce, and longer runs of
/// dense rows per weight-gradient pass, each of which streams a linear
/// layer's accumulator once. Eight balances both for the minibatch
/// sizes the trainers use (8–32).
pub const MAX_BACKWARD_SHARDS: usize = 8;

/// The row range one shard worker operates on.
struct ShardCtx {
    /// Full minibatch size (tape rows are indexed globally).
    batch: usize,
    /// First row of this shard (inclusive).
    lo: usize,
    /// Last row of this shard (exclusive).
    hi: usize,
}

impl ShardCtx {
    fn rows(&self) -> usize {
        self.hi - self.lo
    }
}

/// What a backward sweep forms: each entry point asks for what its
/// caller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wants {
    /// Training: the parameter gradients only. The sweep stops at the
    /// first parameterized layer, and only a conv layer there forms an
    /// input gradient.
    Params,
    /// [`SpikingNetwork::backward`]: the parameter gradients, and the
    /// sweep runs down to layer 0 and keeps layer 0's input-gradient
    /// block at every step.
    Frames,
    /// [`SpikingNetwork::frame_gradients`]: the frame gradients of
    /// [`Wants::Frames`] and nothing else — no gradient buffer, no bias
    /// or weight-gradient pass and no reduction into the accumulators.
    FramesOnly,
}

/// Runs the reverse-time sweep for one row-shard, accumulating the
/// shard's parameter gradients into a fresh [`GradShard`] (none for
/// [`Wants::FramesOnly`]). Rows are mutually independent in the
/// backward recurrence (per-row membrane carries, per-row tape
/// entries), so a shard's gradients do not depend on which other shards
/// exist or when they run.
///
/// For [`Wants::Params`] the sweep visits only the layers from the
/// first parameterized one up: nothing below it has a gradient the
/// caller reads, and the first layer itself skips its input gradient
/// unless it is a conv layer, whose fused per-row backward kernels
/// produce it anyway. For [`Wants::Frames`] and [`Wants::FramesOnly`]
/// it visits every layer and also returns layer 0's `[rows, n_in]`
/// input-gradient block per step, in time order. With parameter
/// gradients wanted, each linear layer logs its per-step
/// `[rows, n_out]` gradient blocks during the sweep and adds its weight
/// gradient in one pass at the end ([`linear_weight_grad`]).
fn backward_rows(
    layers: &[Layer],
    shapes: &[Option<(Vec<usize>, Vec<usize>)>],
    tape: &BatchTape,
    grad_logits: &Tensor,
    ctx: &ShardCtx,
    wants: Wants,
) -> Result<(Option<GradShard>, Vec<Vec<f32>>)> {
    let mut shard = (wants != Wants::FramesOnly).then(|| GradShard::zeros(shapes));
    let classes = tape.classes;
    let first = match wants {
        Wants::Params => layers
            .iter()
            .position(|l| l.params().is_some())
            .unwrap_or(layers.len()),
        Wants::Frames | Wants::FramesOnly => 0,
    };
    let mut sweeps: Vec<LayerSweep> = layers.iter().map(|_| LayerSweep::default()).collect();
    let mut frames = Vec::new();
    let gl = grad_logits.as_slice();
    for t in (0..tape.time_steps).rev() {
        // The logits sum over time, so each row's logit gradient is
        // injected at every step.
        let mut g_block: Vec<f32> = gl[ctx.lo * classes..ctx.hi * classes].to_vec();
        for li in (first..layers.len()).rev() {
            g_block = backward_rows_layer(
                &layers[li],
                &tape.steps[t][li],
                g_block,
                ctx,
                &mut sweeps[li],
                shard.as_mut().and_then(|s| s.slot_mut(li)),
                li > first || wants != Wants::Params,
            )?;
        }
        if wants != Wants::Params {
            frames.push(g_block);
        }
    }
    frames.reverse();
    let Some(mut shard) = shard else {
        return Ok((None, frames));
    };
    for (li, sweep) in sweeps.iter().enumerate() {
        if sweep.blocks.is_empty() {
            continue;
        }
        let taped = (0..tape.time_steps)
            .rev()
            .map(|t| match &tape.steps[t][li] {
                BatchTapeStep::SpikingLinear { rows, .. } | BatchTapeStep::Output { rows } => {
                    &rows[ctx.lo..ctx.hi]
                }
                _ => &[],
            });
        let (gw, _) = shard.slot_mut(li).ok_or_else(tape_mismatch)?;
        linear_weight_grad(gw, &sweep.blocks, taped)?;
    }
    Ok((Some(shard), frames))
}

/// One layer's state across a shard's reverse-time sweep.
#[derive(Default)]
struct LayerSweep {
    /// The spiking layers' `[rows, n]` membrane-gradient carry into the
    /// previous step.
    carry: Vec<f32>,
    /// The linear layers' `[rows, n_out]` gradient blocks, one per step
    /// in sweep order (time descending), for [`linear_weight_grad`].
    blocks: Vec<Vec<f32>>,
}

fn tape_mismatch() -> CoreError {
    CoreError::Config {
        message: "batch tape does not match the network's layer stack".into(),
    }
}

/// Adds one linear layer's shard weight gradient after the sweep:
/// `blocks[k]` is the `[rows, n_out]` gradient block of the `k`-th step
/// swept (time descending) and `taped[k]` the shard's taped input rows
/// at that step.
///
/// Every accumulator cell sees the `(step, row)` entries in sweep order
/// (time descending, row ascending) with `acc + g·x` from the shard's
/// `+0.0` — the per-cell order of one rank-1 update per row and step.
/// Consecutive dense rows go through one [`linalg::outer_acc_run`] call,
/// which streams the accumulator once per run instead of once per row;
/// an event row goes through the event scatter
/// ([`sparse::sparse_outer_acc`]), which touches only its active
/// columns and skips `g == 0` rows.
fn linear_weight_grad<'a>(
    gw: &mut Tensor,
    blocks: &'a [Vec<f32>],
    taped: impl Iterator<Item = &'a [BatchTapeRow]>,
) -> Result<()> {
    let n_out = gw.shape().dims()[0];
    let mut run: Vec<(&[f32], &[f32])> = Vec::new();
    for (block, rows) in blocks.iter().zip(taped) {
        if block.len() != rows.len() * n_out {
            return Err(tape_mismatch());
        }
        for (g, row) in block.chunks_exact(n_out.max(1)).zip(rows) {
            match row {
                BatchTapeRow::Dense(x) => run.push((g, x)),
                BatchTapeRow::Events(events) => {
                    linalg::outer_acc_run(gw, &run)?;
                    run.clear();
                    sparse::sparse_outer_acc(gw, g, events)?;
                }
            }
        }
    }
    linalg::outer_acc_run(gw, &run)?;
    Ok(())
}

/// Adds a `[rows, n]` gradient block into a bias gradient row by row
/// (ascending row index), the per-cell order of one add per row.
fn acc_bias_rows(gb: &mut Tensor, g_block: &[f32], rows: usize) -> Result<()> {
    let n = gb.len();
    if g_block.len() != rows * n {
        return Err(tape_mismatch());
    }
    let acc = gb.as_mut_slice();
    for row in g_block.chunks_exact(n.max(1)) {
        for (a, &g) in acc.iter_mut().zip(row) {
            *a += g;
        }
    }
    Ok(())
}

/// One layer's reverse step over a shard's row range: consumes the
/// `[rows, n_out]` gradient block and returns the `[rows, n_in]` input
/// gradient block — empty for a linear layer when `input_grad` is
/// unset (the first parameterized layer, whose input gradient no caller
/// reads).
///
/// With `grads`, conv layers accumulate their parameter gradients row
/// by row (ascending global row index, so sparse- and dense-tape
/// accumulation orders coincide) through the fused per-row conv
/// backward kernels, and linear layers add their bias gradient here
/// and push the step's gradient block onto `sweep.blocks` for
/// [`linear_weight_grad`]. Without it (a frames-only sweep) no
/// parameter gradient is accumulated; a conv layer's per-row kernel
/// still forms them and they are dropped. Linear input gradients run
/// through the shard-level `Wᵀ·g` kernel
/// ([`axsnn_tensor::linalg::matvec_t_block_into`]), which skips exact
/// zero coefficients and equals the dense transposed product.
fn backward_rows_layer(
    layer: &Layer,
    step: &BatchTapeStep,
    g_block: Vec<f32>,
    ctx: &ShardCtx,
    sweep: &mut LayerSweep,
    mut grads: Option<&mut (Tensor, Tensor)>,
    input_grad: bool,
) -> Result<Vec<f32>> {
    let carry = &mut sweep.carry;
    let rows_n = ctx.rows();
    let linear_input_grad = |weight: &Tensor, g: &[f32]| -> Result<Vec<f32>> {
        if !input_grad {
            return Ok(Vec::new());
        }
        let mut gi_block = vec![0.0f32; rows_n * weight.shape().dims()[1]];
        linalg::matvec_t_block_into(weight, g, rows_n, &mut gi_block)?;
        Ok(gi_block)
    };
    match (layer, step) {
        (Layer::SpikingConv2d(l), BatchTapeStep::SpikingConv { rows, in_dims, pre }) => {
            let n = pre.len() / ctx.batch;
            let pre_rows = &pre[ctx.lo * n..ctx.hi * n];
            if carry.len() != pre_rows.len() {
                *carry = vec![0.0; pre_rows.len()];
            }
            let gv = surrogate_carry_grad(&g_block, pre_rows, carry, &l.lif_params);
            let (h, w) = (in_dims[1], in_dims[2]);
            let (oh, ow) = l.spec.output_hw(h, w);
            let in_len: usize = in_dims.iter().product();
            let mut gi_block = vec![0.0f32; rows_n * in_len];
            for r in 0..rows_n {
                let gcur = Tensor::from_vec(
                    gv[r * n..(r + 1) * n].to_vec(),
                    &[l.spec.out_channels, oh, ow],
                )?;
                let out = match &rows[ctx.lo + r] {
                    BatchTapeRow::Events(events) => sparse::sparse_conv2d_backward(
                        events,
                        (h, w),
                        l.eff_weight(),
                        &gcur,
                        &l.spec,
                    )?,
                    BatchTapeRow::Dense(data) => {
                        let input = Tensor::from_vec(data.clone(), in_dims)?;
                        conv::conv2d_backward(&input, l.eff_weight(), &gcur, &l.spec)?
                    }
                };
                if let Some((gw, gb)) = grads.as_deref_mut() {
                    acc_grad(gw, &out.weight);
                    acc_grad(gb, &out.bias);
                }
                gi_block[r * in_len..(r + 1) * in_len].copy_from_slice(out.input.as_slice());
            }
            Ok(gi_block)
        }
        (Layer::SpikingLinear(l), BatchTapeStep::SpikingLinear { pre, .. }) => {
            let n = pre.len() / ctx.batch;
            let pre_rows = &pre[ctx.lo * n..ctx.hi * n];
            if carry.len() != pre_rows.len() {
                *carry = vec![0.0; pre_rows.len()];
            }
            let gv = surrogate_carry_grad(&g_block, pre_rows, carry, &l.lif_params);
            let gi_block = linear_input_grad(l.eff_weight(), &gv)?;
            if let Some((_, gb)) = grads {
                acc_bias_rows(gb, &gv, rows_n)?;
                sweep.blocks.push(gv);
            }
            Ok(gi_block)
        }
        (Layer::OutputLinear(l), BatchTapeStep::Output { .. }) => {
            let gi_block = linear_input_grad(l.eff_weight(), &g_block)?;
            if let Some((_, gb)) = grads {
                acc_bias_rows(gb, &g_block, rows_n)?;
                sweep.blocks.push(g_block);
            }
            Ok(gi_block)
        }
        (Layer::AvgPool2d(l), BatchTapeStep::AvgPool { in_dims }) => {
            let n = g_block.len() / rows_n;
            let (c, oh, ow) = (in_dims[0], in_dims[1] / l.window, in_dims[2] / l.window);
            let in_len: usize = in_dims.iter().product();
            let mut gi_block = vec![0.0f32; rows_n * in_len];
            for r in 0..rows_n {
                let g_row = Tensor::from_vec(g_block[r * n..(r + 1) * n].to_vec(), &[c, oh, ow])?;
                let gi = conv::avg_pool2d_backward(&g_row, in_dims, l.window)?;
                gi_block[r * in_len..(r + 1) * in_len].copy_from_slice(gi.as_slice());
            }
            Ok(gi_block)
        }
        (Layer::MaxPool2d(l), BatchTapeStep::MaxPool { in_dims, argmax }) => {
            let n = g_block.len() / rows_n;
            let (c, oh, ow) = (in_dims[0], in_dims[1] / l.window, in_dims[2] / l.window);
            let in_len: usize = in_dims.iter().product();
            let mut gi_block = vec![0.0f32; rows_n * in_len];
            for r in 0..rows_n {
                let g_row = Tensor::from_vec(g_block[r * n..(r + 1) * n].to_vec(), &[c, oh, ow])?;
                let gi = conv::max_pool2d_backward(&g_row, &argmax[ctx.lo + r], in_dims)?;
                gi_block[r * in_len..(r + 1) * in_len].copy_from_slice(gi.as_slice());
            }
            Ok(gi_block)
        }
        (Layer::Flatten(_) | Layer::Dropout(_), BatchTapeStep::Identity) => Ok(g_block),
        (Layer::Dropout(_), BatchTapeStep::Dropout { masks }) => {
            let mut g_block = g_block;
            let n = g_block.len() / rows_n;
            if masks.len() != ctx.batch * n {
                return Err(tape_mismatch());
            }
            for (g, &m) in g_block.iter_mut().zip(&masks[ctx.lo * n..ctx.hi * n]) {
                *g *= m;
            }
            Ok(g_block)
        }
        _ => Err(tape_mismatch()),
    }
}

/// Draws `len` dropout mask values from `rng` in order: `1/keep` with
/// probability `keep = 1 − probability`, `0.0` otherwise.
fn dropout_masks<R: Rng>(rng: &mut R, len: usize, probability: f32) -> Vec<f32> {
    let keep = 1.0 - probability;
    (0..len)
        .map(|_| {
            if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        })
        .collect()
}

/// One fused pass in flight: the state its time steps share. The batch
/// entry points, `forward` and the frame stepper all advance it through
/// [`FusedPass::step`], the engine's one step body.
#[derive(Debug)]
pub(crate) struct FusedPass {
    batch: usize,
    record: bool,
    /// Logical shape of the input frames (set at the first step).
    input_dims: Vec<usize>,
    /// Per layer: a spiking layer's `[B, n]` membranes.
    states: Vec<Option<BatchedLifState>>,
    /// Per layer: an active dropout layer's `[B, n]` masks, drawn when
    /// the pass first reaches the layer and held to its end.
    masks: Vec<Option<Arc<[f32]>>>,
    /// The first linear layer the input plane reaches unchanged (through
    /// flatten and inactive dropout only). At a step where every train
    /// repeats its analog frame, its currents repeat too.
    reuse_at: Option<usize>,
    /// That layer's previous current block, held for such a step.
    held: Option<Vec<f32>>,
    /// Per layer: the count of non-zero effective weights, when the pass
    /// counts synaptic operations.
    nonzero_weights: Option<Vec<usize>>,
    /// The `[B, classes]` readout summed over the steps so far.
    pub(crate) logits: Option<Vec<f32>>,
    pub(crate) stats: SpikeStats,
    /// A recorded pass's tape: per step, one entry per layer.
    tape: Vec<Vec<BatchTapeStep>>,
}

impl FusedPass {
    /// A pass of `batch` rows over `layers`. `record` tapes every step
    /// for the backward; `count_ops` adds synaptic operations to the
    /// statistics (only the one-row callers report them).
    pub(crate) fn new(layers: &[Layer], batch: usize, record: bool, count_ops: bool) -> FusedPass {
        let reuse_at = layers
            .iter()
            .position(|l| match l {
                Layer::Flatten(_) => false,
                Layer::Dropout(d) => d.active(),
                _ => true,
            })
            .filter(|&li| matches!(layers[li], Layer::SpikingLinear(_) | Layer::OutputLinear(_)));
        // Energy proxy: only *non-zero* weights cost a synaptic
        // operation — this is exactly the saving approximation buys
        // (skipped connections perform no work). Counted over the
        // *effective* weights so int8 quantization's snapped-to-zero
        // connections register as savings; each layer counts once per
        // weight change, not once per pass.
        let nonzero_weights =
            count_ops.then(|| layers.iter().map(Layer::nonzero_weights).collect());
        FusedPass {
            batch,
            record,
            input_dims: Vec::new(),
            states: vec![None; layers.len()],
            masks: vec![None; layers.len()],
            reuse_at,
            held: None,
            nonzero_weights,
            logits: None,
            stats: SpikeStats {
                spikes_per_layer: vec![0.0; layers.iter().filter(|l| l.is_spiking()).count()],
                synaptic_ops: 0.0,
                time_steps: 0,
            },
            tape: Vec::new(),
        }
    }

    /// Advances every row one time step on `plane`, the step's input.
    /// `(reuse, keep)` say whether every row's analog input frame repeats
    /// its predecessor bit for bit at this step and at the next. `rng` draws
    /// the active dropout layers' masks; callers without one reject such
    /// networks before the first step.
    fn step<R: Rng>(
        &mut self,
        layers: &mut [Layer],
        mut plane: BatchPlane<'_>,
        (reuse, keep): (bool, bool),
        mut rng: Option<&mut R>,
    ) -> Result<()> {
        let (b, record) = (self.batch, self.record);
        if self.stats.time_steps == 0 {
            self.input_dims = plane.dims.clone();
        }
        let mut spiking_idx = 0usize;
        let mut step_tape: Vec<BatchTapeStep> =
            Vec::with_capacity(if record { layers.len() } else { 0 });
        for (li, layer) in layers.iter_mut().enumerate() {
            // Only the reusable layer (a linear one) takes or holds a block.
            let reusable = self.reuse_at == Some(li);
            let reused = if reusable && reuse {
                self.held.take()
            } else {
                None
            };
            if layer.is_spiking() {
                self.count_synaptic_ops(li, &plane);
            }
            match layer {
                Layer::SpikingConv2d(l) => {
                    let in_dims = plane.dims.clone();
                    let (current, out_dims, rows) = conv_current_block(
                        &l.spec,
                        l.eff_weight(),
                        l.eff_bias(),
                        l.planed().map(|p| &p.quant),
                        &l.policy,
                        &plane,
                        record,
                    )?;
                    let (spikes, pre) = self.fire(li, spiking_idx, &current, l.lif_params);
                    spiking_idx += 1;
                    if let Some(pre) = pre {
                        step_tape.push(BatchTapeStep::SpikingConv { rows, in_dims, pre });
                    }
                    plane = BatchPlane::events(out_dims, spikes);
                }
                Layer::SpikingLinear(l) => {
                    let (current, rows) = linear_current_block(
                        l.eff_weight(),
                        l.eff_bias(),
                        l.packed(),
                        &l.policy,
                        &plane,
                        record,
                        reused,
                    )?;
                    let (spikes, pre) = self.fire(li, spiking_idx, &current, l.lif_params);
                    spiking_idx += 1;
                    if let Some(pre) = pre {
                        step_tape.push(BatchTapeStep::SpikingLinear { rows, pre });
                    }
                    let n = current.len() / b;
                    if reusable && keep {
                        self.held = Some(current);
                    }
                    plane = BatchPlane::events(vec![n], spikes);
                }
                Layer::OutputLinear(l) => {
                    let (block, rows) = linear_current_block(
                        l.eff_weight(),
                        l.eff_bias(),
                        l.packed(),
                        &l.policy,
                        &plane,
                        record,
                        reused,
                    )?;
                    if record {
                        step_tape.push(BatchTapeStep::Output { rows });
                    }
                    if reusable && keep {
                        self.held = Some(block.clone());
                    }
                    let n = block.len() / b;
                    plane = BatchPlane {
                        dims: vec![n],
                        batch: b,
                        data: PlaneData::Stacked(block),
                    };
                }
                Layer::AvgPool2d(l) => {
                    let in_dims = plane.dims.clone();
                    let (pooled, _) = pool_plane(plane, l.window, &l.policy, false, record)?;
                    if record {
                        step_tape.push(BatchTapeStep::AvgPool { in_dims });
                    }
                    plane = pooled;
                }
                Layer::MaxPool2d(l) => {
                    let in_dims = plane.dims.clone();
                    let (pooled, argmax) = pool_plane(plane, l.window, &l.policy, true, record)?;
                    if record {
                        step_tape.push(BatchTapeStep::MaxPool { in_dims, argmax });
                    }
                    plane = pooled;
                }
                Layer::Flatten(_) => {
                    if record {
                        step_tape.push(BatchTapeStep::Identity);
                    }
                    plane.dims = vec![plane.volume()];
                }
                Layer::Dropout(d) if d.active() => {
                    let len = b * plane.volume();
                    let masks = Arc::clone(self.masks[li].get_or_insert_with(|| {
                        let rng = rng
                            .as_deref_mut()
                            .expect("callers without an RNG reject active dropout");
                        dropout_masks(rng, len, d.probability).into()
                    }));
                    plane = plane.masked(&masks);
                    if record {
                        step_tape.push(BatchTapeStep::Dropout { masks });
                    }
                }
                Layer::Dropout(_) => {
                    if record {
                        step_tape.push(BatchTapeStep::Identity);
                    }
                }
            }
        }
        if record {
            self.tape.push(step_tape);
        }
        // Accumulate the readout plane into the logits, one add per step
        // in ascending-t elementwise order.
        let classes = plane.volume();
        let acc = self.logits.get_or_insert_with(|| vec![0.0f32; b * classes]);
        match &plane.data {
            PlaneData::Stacked(block) => {
                for (slot, &v) in acc.iter_mut().zip(block) {
                    *slot += v;
                }
            }
            PlaneData::Events { .. } => {
                let mut row = Vec::with_capacity(classes);
                for r in 0..b {
                    row.clear();
                    plane.extend_dense(r, &mut row);
                    for (slot, &v) in acc[r * classes..(r + 1) * classes].iter_mut().zip(&row) {
                        *slot += v;
                    }
                }
            }
        }
        self.stats.time_steps += 1;
        Ok(())
    }

    /// Steps spiking layer `li` (the `spiking_idx`-th) on the `[B, n]`
    /// current block and counts its spikes; a recorded pass also gets
    /// the pre-reset membranes for the tape.
    fn fire(
        &mut self,
        li: usize,
        spiking_idx: usize,
        current: &[f32],
        params: LifParams,
    ) -> (SpikeMatrix, Option<Vec<f32>>) {
        let (b, n) = (self.batch, current.len() / self.batch);
        let state = match &mut self.states[li] {
            Some(s) if s.batch() == b && s.neurons() == n => s,
            slot => slot.insert(BatchedLifState::new(b, n, params)),
        };
        let (spikes, pre) = if self.record {
            let (spikes, pre) = state.step_recorded(current);
            (spikes, Some(pre))
        } else {
            (state.step(current), None)
        };
        self.stats.spikes_per_layer[spiking_idx] += spikes.nnz() as f32;
        (spikes, pre)
    }

    /// Adds spiking layer `li`'s synaptic operations at this step, when
    /// the pass counts them: each row's input sum times the layer's
    /// fan-out, its non-zero effective weights over its input length
    /// (integer division). An event row sums to its count; an analog row
    /// sums ascending, as [`Tensor::sum`] does.
    fn count_synaptic_ops(&mut self, li: usize, plane: &BatchPlane<'_>) {
        let Some(nonzero) = &self.nonzero_weights else {
            return;
        };
        let fan_out = nonzero[li] / plane.volume().max(1);
        for r in 0..plane.batch {
            let sum: f32 = match plane.row(r) {
                RowRef::Events(indices) => indices.len() as f32,
                RowRef::Dense(values) => values.iter().sum(),
            };
            self.stats.synaptic_ops += sum as f64 * fan_out as f64;
        }
    }

    /// Steps a one-row pass on `frame`, which enters the plane the way
    /// [`FrameTrain::from_frames`] stores it. Stepped frames are never
    /// checked for repeats, so no currents are reused.
    pub(crate) fn step_frame<R: Rng>(
        &mut self,
        layers: &mut [Layer],
        frame: &Tensor,
        rng: &mut R,
    ) -> Result<()> {
        let encoded = EncodedFrame::of(frame);
        let plane = BatchPlane::input(frame.shape().dims(), std::iter::once(&encoded))?;
        self.step(layers, plane, (false, false), Some(rng))
    }

    /// Ends the pass: the `[B, classes]` logits, the statistics and, for
    /// a recorded pass, the tape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when no step ran.
    fn finish(self) -> Result<(Tensor, SpikeStats, Option<BatchTape>)> {
        let logits = self.logits.ok_or_else(|| CoreError::Config {
            message: "forward needs at least one input frame".into(),
        })?;
        let (batch, classes) = (self.batch, logits.len() / self.batch);
        let tape = if self.record {
            Some(BatchTape {
                batch,
                time_steps: self.stats.time_steps,
                classes,
                input_dims: self.input_dims,
                steps: self.tape,
            })
        } else {
            None
        };
        let logits = Tensor::from_vec(logits, &[batch, classes])?;
        Ok((logits, self.stats, tape))
    }

    /// [`FusedPass::finish`] for a one-row pass: its output as
    /// [`SpikingNetwork::forward`] returns it, logits `[classes]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when no step ran.
    pub(crate) fn finish_row(self) -> Result<(ForwardOutput, Option<BatchTape>)> {
        let (logits, stats, tape) = self.finish()?;
        let classes = logits.len();
        let logits = Tensor::from_vec(logits.into_vec(), &[classes])?;
        Ok((ForwardOutput { logits, stats }, tape))
    }
}

impl SpikingNetwork {
    /// Returns `true` when any dropout layer would actively drop spikes
    /// — the one stochastic piece of the forward pass, whose masks the
    /// RNG-less batch entry points cannot draw.
    pub fn train_dropout_active(&self) -> bool {
        self.layers()
            .iter()
            .any(|l| matches!(l, Layer::Dropout(d) if d.active()))
    }

    /// Runs the fused batched forward pass: every sample of `trains`
    /// advances through all layers together at each time step, with
    /// spike-plane GEMMs for the linear layers and `[B, n]` membrane
    /// blocks for the LIF populations.
    ///
    /// Row `b` of the returned logits equals
    /// `self.forward(&trains[b].to_frames()?, false, rng)` bit for bit
    /// (see the module docs for why).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an empty batch, empty or
    /// mismatched frame trains, or a network with active train-mode
    /// dropout; propagates layer shape errors.
    pub fn forward_batch(&mut self, trains: &[FrameTrain]) -> Result<BatchForwardOutput> {
        Ok(self
            .forward_batch_inner(trains, false, None::<&mut StdRng>)?
            .0)
    }

    /// [`SpikingNetwork::forward_batch`] with BPTT recording: returns
    /// the batch output plus the [`BatchTape`] that
    /// [`SpikingNetwork::backward_batch`] consumes.
    ///
    /// Recorded steps make the same per-row density-gate decision as
    /// inference steps and run the same kernels (pools excepted: they
    /// pool densely for the max-pool argmax tape), so the logits equal
    /// [`SpikingNetwork::forward_batch`]'s bit for bit, and each row's
    /// logits and gradients equal the one-row recorded pass on its
    /// train (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`SpikingNetwork::forward_batch`].
    pub fn forward_batch_recorded(
        &mut self,
        trains: &[FrameTrain],
    ) -> Result<(BatchForwardOutput, BatchTape)> {
        self.forward_batch_recorded_with(trains, None::<&mut StdRng>)
    }

    /// [`SpikingNetwork::forward_batch_recorded`] that draws active
    /// dropout layers' masks from `rng` (one mask per layer and row, rows
    /// in ascending order) instead of rejecting them: the pass
    /// `train_snn` trains through.
    pub(crate) fn forward_batch_recorded_with<R: Rng>(
        &mut self,
        trains: &[FrameTrain],
        rng: Option<&mut R>,
    ) -> Result<(BatchForwardOutput, BatchTape)> {
        let (out, tape) = self.forward_batch_inner(trains, true, rng)?;
        Ok((out, tape.expect("recorded pass always produces a tape")))
    }

    fn forward_batch_inner<R: Rng>(
        &mut self,
        trains: &[FrameTrain],
        record: bool,
        rng: Option<&mut R>,
    ) -> Result<(BatchForwardOutput, Option<BatchTape>)> {
        let (logits, stats, tape) = self.run_trains(trains, record, false, rng)?.finish()?;
        Ok((
            BatchForwardOutput {
                logits,
                spikes_per_layer: stats.spikes_per_layer,
                time_steps: stats.time_steps,
            },
            tape,
        ))
    }

    /// Runs `trains` through one fused pass, one [`FusedPass::step`] per
    /// time step; `count_ops` and `rng` as in [`FusedPass::new`] and
    /// [`FusedPass::step`]. Without an `rng`, a network with active
    /// train-mode dropout is rejected before anything runs.
    pub(crate) fn run_trains<R: Rng>(
        &mut self,
        trains: &[FrameTrain],
        record: bool,
        count_ops: bool,
        mut rng: Option<&mut R>,
    ) -> Result<FusedPass> {
        let first = trains.first().ok_or_else(|| CoreError::Config {
            message: "forward_batch needs at least one sample".into(),
        })?;
        let time_steps = first.time_steps();
        if time_steps == 0 {
            return Err(CoreError::Config {
                message: "forward_batch needs at least one input frame".into(),
            });
        }
        for tr in trains {
            if tr.time_steps() != time_steps || tr.dims() != first.dims() {
                return Err(CoreError::Config {
                    message: format!(
                        "forward_batch needs homogeneous trains: got T={} dims {:?} vs T={} dims {:?}",
                        tr.time_steps(),
                        tr.dims(),
                        time_steps,
                        first.dims()
                    ),
                });
            }
        }
        if rng.is_none() && self.train_dropout_active() {
            return Err(CoreError::Config {
                message: "forward_batch is inference-only: disable train-mode dropout".into(),
            });
        }
        let mut pass = FusedPass::new(self.layers(), trains.len(), record, count_ops);
        let repeats = |t: usize| trains.iter().all(|tr| tr.repeats(t));
        for t in 0..time_steps {
            let plane = BatchPlane::input(first.dims(), trains.iter().map(|tr| &tr.frames()[t]))?;
            pass.step(
                self.layers_mut(),
                plane,
                (repeats(t), repeats(t + 1)),
                rng.as_deref_mut(),
            )?;
        }
        Ok(pass)
    }

    /// BPTT backward pass over a recorded batch tape with the default
    /// [`BackwardOpts`] (all cores, exact input gradients) — see
    /// [`SpikingNetwork::backward_batch_with`].
    ///
    /// # Errors
    ///
    /// As [`SpikingNetwork::backward_batch_with`].
    pub fn backward_batch(&mut self, tape: &BatchTape, grad_logits: &Tensor) -> Result<()> {
        self.backward_batch_with(tape, grad_logits, &BackwardOpts::default())
    }

    /// BPTT backward pass over a recorded batch tape: injects
    /// `grad_logits` (`[B, classes]`, one row per sample — the logits
    /// are a sum over time, so each row is injected at every step) and
    /// accumulates parameter gradients for the whole minibatch.
    ///
    /// The minibatch partitions into at most [`MAX_BACKWARD_SHARDS`]
    /// fixed row-shards (boundaries depend only on `B`); each shard
    /// runs the reverse-time sweep over its rows on one worker (fanned
    /// out via [`crate::batch::fan_out_with`] under `opts.threads`),
    /// accumulating into its own [`axsnn_tensor::grads::GradShard`].
    /// Shards then reduce in fixed ascending order into the network's
    /// gradient accumulators, so the resulting gradients are
    /// **bit-identical for every thread count** (pinned by
    /// `tests/grad_equivalence.rs`).
    ///
    /// Each shard's sweep visits the layers from the first
    /// parameterized layer up and stops there. A linear first layer
    /// computes no input gradient; a conv first layer still does,
    /// inside its fused per-row backward, and it is dropped. The layers
    /// below are never run backward, but every layer is still checked
    /// against its tape entries, so a tape recorded on another stack is
    /// an error. Frame gradients are therefore never computed here;
    /// [`SpikingNetwork::backward`] is the entry point that sweeps a
    /// one-row tape down to the input frames.
    ///
    /// A linear layer's weight gradient is added once per shard, after
    /// the sweep: runs of dense tape rows through
    /// [`axsnn_tensor::linalg::outer_acc_run`], event rows through the
    /// event scatter [`axsnn_tensor::sparse::sparse_outer_acc`], each
    /// cell in the order of one rank-1 update per row and step (time
    /// descending, row ascending). Conv layers accumulate through the
    /// per-row kernels ([`axsnn_tensor::sparse::sparse_conv2d_backward`]
    /// for event rows, the dense conv backward otherwise). Input
    /// gradients through the linear layers are exact: the `Wᵀ·g` kernel
    /// skips only zero coefficients. Parameter gradients *accumulate*
    /// across calls exactly like [`SpikingNetwork::backward`] — call
    /// [`SpikingNetwork::zero_grads`] between minibatches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `grad_logits` does not match
    /// the tape's `[B, classes]` or the tape does not match the
    /// network's layer stack.
    pub fn backward_batch_with(
        &mut self,
        tape: &BatchTape,
        grad_logits: &Tensor,
        opts: &BackwardOpts,
    ) -> Result<()> {
        self.backward_sweep(tape, grad_logits, opts, Wants::Params)
            .map(drop)
    }

    /// [`SpikingNetwork::backward`] (`params` set) and
    /// [`SpikingNetwork::frame_gradients`] over the one-row tape the
    /// recorded `forward` kept: the sweep runs to layer 0, and each
    /// step's input gradient comes back in the input frames' shape.
    /// Parameter gradients are formed and accumulated only with
    /// `params`.
    pub(crate) fn backward_frames(
        &mut self,
        tape: &BatchTape,
        grad_logits: &Tensor,
        time_steps: usize,
        params: bool,
    ) -> Result<Vec<Tensor>> {
        if time_steps != tape.time_steps {
            return Err(CoreError::Config {
                message: format!(
                    "backward over {time_steps} time steps, but the recorded forward ran {}",
                    tape.time_steps
                ),
            });
        }
        if grad_logits.shape().dims() != [tape.classes] {
            return Err(CoreError::Config {
                message: format!(
                    "backward grad_logits shape {:?} != [{}]",
                    grad_logits.shape().dims(),
                    tape.classes
                ),
            });
        }
        let grad = Tensor::from_vec(grad_logits.as_slice().to_vec(), &[1, tape.classes])?;
        let wants = if params {
            Wants::Frames
        } else {
            Wants::FramesOnly
        };
        self.backward_sweep(tape, &grad, &BackwardOpts::default(), wants)?
            .into_iter()
            .map(|block| Tensor::from_vec(block, &tape.input_dims).map_err(CoreError::from))
            .collect()
    }

    /// The sharded backward behind every entry point: adds the
    /// parameter gradients (unless [`Wants::FramesOnly`]) and returns,
    /// for the frame sweeps, every step's `[B, n_in]` input-gradient
    /// block in time order (empty for [`Wants::Params`]).
    fn backward_sweep(
        &mut self,
        tape: &BatchTape,
        grad_logits: &Tensor,
        opts: &BackwardOpts,
        wants: Wants,
    ) -> Result<Vec<Vec<f32>>> {
        let b = tape.batch;
        if grad_logits.shape().dims() != [b, tape.classes] {
            return Err(CoreError::Config {
                message: format!(
                    "backward_batch grad shape {:?} != [{}, {}]",
                    grad_logits.shape().dims(),
                    b,
                    tape.classes
                ),
            });
        }
        // Every layer is checked against its tape entries, including the
        // ones below the first parameterized layer the sweep never visits.
        let depth = self.depth();
        let foreign = tape.steps.iter().any(|step| {
            step.len() != depth
                || step
                    .iter()
                    .zip(self.layers())
                    .any(|(entry, layer)| !entry.matches(layer))
        });
        if tape.steps.len() != tape.time_steps || foreign {
            return Err(tape_mismatch());
        }
        if b == 0 {
            return Ok(Vec::new());
        }
        // Fixed partition: shard boundaries are a function of B only.
        let shard_rows = b.div_ceil(MAX_BACKWARD_SHARDS).max(1);
        let shard_count = b.div_ceil(shard_rows);
        let shapes: Vec<Option<(Vec<usize>, Vec<usize>)>> = self
            .layers()
            .iter()
            .map(|l| {
                l.params().map(|(w, bias)| {
                    (
                        w.value.shape().dims().to_vec(),
                        bias.value.shape().dims().to_vec(),
                    )
                })
            })
            .collect();
        let layers = self.layers();
        let shards: Vec<(Option<GradShard>, Vec<Vec<f32>>)> = fan_out_with(
            shard_count,
            opts.threads,
            || (),
            |_, s, slot: &mut (Option<GradShard>, Vec<Vec<f32>>)| -> Result<()> {
                let lo = s * shard_rows;
                let ctx = ShardCtx {
                    batch: b,
                    lo,
                    hi: (lo + shard_rows).min(b),
                };
                *slot = backward_rows(layers, &shapes, tape, grad_logits, &ctx, wants)?;
                Ok(())
            },
        )?;
        let (grad_shards, frame_shards): (Vec<Option<GradShard>>, Vec<Vec<Vec<f32>>>) =
            shards.into_iter().unzip();
        // Fixed-order reduction (ascending shard index), then one add
        // into the network's accumulators — the same final values no
        // matter which worker computed which shard.
        let grad_shards: Option<Vec<GradShard>> = grad_shards.into_iter().collect();
        if let Some(grad_shards) = grad_shards {
            let reduced = grads::reduce_in_order(grad_shards)
                .map_err(CoreError::from)?
                .expect("at least one shard for a non-empty batch");
            for (layer, slot) in self.layers_mut().iter_mut().zip(reduced.slots()) {
                if let (Some((w, bias)), Some((gw, gb))) = (layer.grads_mut(), slot.as_ref()) {
                    acc_grad(w, gw);
                    acc_grad(bias, gb);
                }
            }
        }
        // Each step's block is the shards' row blocks in shard order.
        let steps = frame_shards.first().map_or(0, Vec::len);
        Ok((0..steps)
            .map(|t| {
                frame_shards
                    .iter()
                    .flat_map(|f| f[t].iter().copied())
                    .collect()
            })
            .collect())
    }

    /// Classifies a batch of encoded frame trains through one fused
    /// forward pass, returning the predicted class per sample.
    ///
    /// Predictions are bit-for-bit identical to one-row
    /// [`SpikingNetwork::classify_frames`] on the materialized trains.
    ///
    /// # Errors
    ///
    /// As [`SpikingNetwork::forward_batch`].
    pub fn classify_batch_fused(&mut self, trains: &[FrameTrain]) -> Result<Vec<usize>> {
        if trains.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.forward_batch(trains)?.predictions())
    }

    /// Classifies encoded frame trains sharded across threads: the
    /// train list splits into fused batches of at most `batch` samples
    /// and the shards fan out over clones of the network, packed once
    /// first (`threads == 0` uses all cores). Results are identical for
    /// every thread count and batch size.
    ///
    /// # Errors
    ///
    /// Propagates the first fused forward error.
    pub fn classify_trains_sharded(
        &self,
        trains: &[FrameTrain],
        threads: usize,
        batch: usize,
    ) -> Result<Vec<usize>> {
        let n = trains.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let batch = batch.max(1);
        let shards = n.div_ceil(batch);
        let per_shard: Vec<Vec<usize>> =
            fan_out(self, shards, threads, |net, s, slot: &mut Vec<usize>| {
                let lo = s * batch;
                let hi = (lo + batch).min(n);
                *slot = net.classify_batch_fused(&trains[lo..hi])?;
                Ok(())
            })?;
        Ok(per_shard.concat())
    }

    /// Encodes and classifies labelled or unlabelled images through the
    /// fused sharded path with the workspace's per-sample seeding
    /// convention: sample `i` encodes under
    /// `StdRng::seed_from_u64(sample_seed(seed, i))`, exactly like
    /// [`SpikingNetwork::classify`] under that generator, so predictions
    /// match it bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates encoding and fused forward errors.
    pub fn classify_images_fused(
        &self,
        images: &[Tensor],
        encoder: Encoder,
        seed: u64,
        threads: usize,
        batch: usize,
    ) -> Result<Vec<usize>> {
        self.classify_images_fused_with(images.len(), |i| &images[i], encoder, seed, threads, batch)
    }

    /// [`SpikingNetwork::classify_images_fused`] over an arbitrary
    /// image accessor, so callers holding `(Tensor, label)` pairs can
    /// classify without first copying every image into a new vector.
    pub(crate) fn classify_images_fused_with<'a, F>(
        &self,
        n: usize,
        image_at: F,
        encoder: Encoder,
        seed: u64,
        threads: usize,
        batch: usize,
    ) -> Result<Vec<usize>>
    where
        F: Fn(usize) -> &'a Tensor + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let time_steps = self.config().time_steps;
        let batch = batch.max(1);
        let shards = n.div_ceil(batch);
        let image_at = &image_at;
        let per_shard: Vec<Vec<usize>> =
            fan_out(self, shards, threads, |net, s, slot: &mut Vec<usize>| {
                let lo = s * batch;
                let hi = (lo + batch).min(n);
                let mut trains = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
                    trains.push(FrameTrain::encode(
                        image_at(i),
                        encoder,
                        time_steps,
                        &mut rng,
                    )?);
                }
                *slot = net.classify_batch_fused(&trains)?;
                Ok(())
            })?;
        Ok(per_shard.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frame_train_roundtrips_and_compresses() {
        let image = Tensor::full(&[6], 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let train = FrameTrain::encode(&image, Encoder::Deterministic, 8, &mut rng).unwrap();
        assert_eq!(train.time_steps(), 8);
        assert!(train
            .frames()
            .iter()
            .all(|f| matches!(f, EncodedFrame::Spikes(_))));
        let mut rng2 = StdRng::seed_from_u64(1);
        let reference = Encoder::Deterministic.encode(&image, 8, &mut rng2).unwrap();
        assert_eq!(train.to_frames().unwrap(), reference);
    }

    #[test]
    fn encode_rejects_non_finite_pixels() {
        let image = Tensor::from_vec(vec![0.5, f32::INFINITY, 0.25], &[3]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        match FrameTrain::encode(&image, Encoder::Deterministic, 4, &mut rng) {
            Err(CoreError::Config { message }) => {
                assert!(message.contains("pixel 1 is inf"), "{message}")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn analog_trains_keep_dense_frames() {
        let image = Tensor::full(&[4], 0.3);
        let mut rng = StdRng::seed_from_u64(0);
        let train = FrameTrain::encode(&image, Encoder::DirectCurrent, 4, &mut rng).unwrap();
        assert!(train
            .frames()
            .iter()
            .all(|f| matches!(f, EncodedFrame::Analog(_))));
    }

    #[test]
    fn from_frames_rejects_mixed_shapes() {
        let frames = vec![Tensor::zeros(&[4]), Tensor::zeros(&[5])];
        assert!(FrameTrain::from_frames(&frames).is_err());
    }

    #[test]
    fn from_spike_rows_matches_from_frames() {
        let frames = vec![
            Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[2, 3]).unwrap(),
            Tensor::zeros(&[2, 3]),
        ];
        let rows = vec![
            SpikeVector::new(vec![1, 3, 4], 6).unwrap(),
            SpikeVector::new(vec![], 6).unwrap(),
        ];
        let train = FrameTrain::from_spike_rows(&[2, 3], rows).unwrap();
        assert_eq!(train.dims(), &[2, 3]);
        assert!(train
            .frames()
            .iter()
            .all(|f| matches!(f, EncodedFrame::Spikes(_))));
        assert_eq!(train.to_frames().unwrap(), frames);
    }

    /// A frame repeats only when it is analog and bit for bit its
    /// predecessor: never at `t = 0`, never a spike frame, not across a
    /// one-ulp change or a zero's sign, and again after a change
    /// settles.
    #[test]
    fn frame_train_flags_repeating_analog_frames() {
        let analog = |v: [f32; 3]| Tensor::from_vec(v.to_vec(), &[3]).unwrap();
        let a = analog([0.5, 0.25, 0.0]);
        let b = analog([0.5, 0.75, 0.0]);
        let ulp = analog([0.5, f32::from_bits(0.25f32.to_bits() + 1), 0.0]);
        let neg_zero = analog([0.5, 0.25, -0.0]);
        let spikes = analog([1.0, 0.0, 1.0]);
        let frames = vec![
            a.clone(),
            a.clone(),
            b.clone(),
            b,
            a.clone(),
            ulp,
            a.clone(),
            neg_zero,
            spikes.clone(),
            spikes,
            a.clone(),
            a,
        ];
        let train = FrameTrain::from_frames(&frames).unwrap();
        let flags: Vec<bool> = (0..frames.len()).map(|t| train.repeats(t)).collect();
        assert_eq!(
            flags,
            [false, true, false, true, false, false, false, false, false, false, false, true]
        );
        assert!(!train.repeats(frames.len()), "past the end");

        let image = Tensor::from_vec(vec![0.3, 0.9, 0.0, 0.6], &[4]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let direct = FrameTrain::encode(&image, Encoder::DirectCurrent, 4, &mut rng).unwrap();
        assert_eq!(
            (0..4).map(|t| direct.repeats(t)).collect::<Vec<_>>(),
            [false, true, true, true]
        );
        let events =
            FrameTrain::from_spike_rows(&[4], vec![SpikeVector::new(vec![1], 4).unwrap(); 3])
                .unwrap();
        assert!((0..3).all(|t| !events.repeats(t)));
    }

    /// Rows off `SpikeVector::from_dense`'s form are rejected with a
    /// config error that names the offending step.
    #[test]
    fn from_spike_rows_rejects_malformed_rows() {
        let ok = || SpikeVector::new(vec![0, 2], 6).unwrap();
        let cases = [
            ("unsorted", SpikeVector::new(vec![3, 1], 6).unwrap()),
            ("duplicated", SpikeVector::new(vec![1, 1, 4], 6).unwrap()),
            ("short", SpikeVector::new(vec![1], 5).unwrap()),
            ("long", SpikeVector::new(vec![1], 7).unwrap()),
        ];
        for (what, bad) in cases {
            let err = FrameTrain::from_spike_rows(&[2, 3], vec![ok(), bad]).unwrap_err();
            match err {
                CoreError::Config { message } => {
                    assert!(message.contains("step 1"), "{what}: {message}")
                }
                other => panic!("{what}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn forward_batch_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 6, &cfg),
                Layer::output_linear(&mut rng, 6, 2),
            ],
            cfg,
        )
        .unwrap();
        assert!(net.forward_batch(&[]).is_err(), "empty batch rejected");
        let empty = FrameTrain::from_frames(&[]).unwrap();
        assert!(net.forward_batch(&[empty]).is_err(), "empty train rejected");
        let a = FrameTrain::from_frames(&vec![Tensor::zeros(&[4]); 4]).unwrap();
        let b = FrameTrain::from_frames(&vec![Tensor::zeros(&[4]); 3]).unwrap();
        assert!(
            net.forward_batch(&[a.clone(), b]).is_err(),
            "ragged T rejected"
        );
        assert!(net.forward_batch(&[a]).is_ok());
    }

    #[test]
    fn forward_batch_rejects_train_mode_dropout() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 2,
            leak: 0.9,
        };
        let mut net = SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 3, 4, &cfg),
                Layer::dropout(0.5),
                Layer::output_linear(&mut rng, 4, 2),
            ],
            cfg,
        )
        .unwrap();
        let train = FrameTrain::from_frames(&vec![Tensor::ones(&[3]); 2]).unwrap();
        assert!(!net.train_dropout_active());
        assert!(net.forward_batch(std::slice::from_ref(&train)).is_ok());
        net.set_train_mode(true);
        assert!(net.train_dropout_active());
        assert!(net.forward_batch(&[train]).is_err());
    }
}
