//! Event-driven sparse spike kernels.
//!
//! Spiking networks propagate *binary* activity between layers, and at
//! realistic firing rates the overwhelming majority of each spike frame
//! is zero. The dense kernels in [`crate::linalg`] / [`crate::conv`]
//! nevertheless pay for every weight: a dense matvec reads all
//! `out × in` weights, a dense conv visits every output window. This
//! module exploits the sparsity *event-drively* — compute is proportional
//! to the number of active spikes, not the layer size:
//!
//! * [`SpikeVector`] — the event representation: flat indices of active
//!   spikes plus the logical dense length,
//! * [`sparse_conv2d`] / [`sparse_conv2d_into`] — scatter-based
//!   convolution that pushes each input event through the kernel
//!   stencil,
//! * [`sparse_avg_pool2d`] / [`sparse_max_pool2d`] — pooling directly on
//!   events, and [`sparse_max_pool2d_events`] — max pooling from events
//!   to events, so a binary plane stays in event form across the pool,
//! * [`sparse_outer_acc`] / [`sparse_conv2d_backward`] — the weight
//!   gradients of an event row,
//! * [`SpikeVector::from_slice_if_sparse`] — the dense↔sparse gate: a
//!   frame converts only when it is binary and its density is at most a
//!   threshold, so the caller always takes the cheaper path.
//!
//! A linear layer's event gather has one form, the batch spike GEMM
//! over packed weights ([`crate::batched::sparse_matmul_bias_packed`],
//! pinned to [`crate::batched::sparse_matmul_bias_scalar`]); one sample
//! is its one-row case. Its per-output sum is this module's gather
//! order.
//!
//! Every kernel sums in its dense counterpart's order, so on a binary
//! frame with finite weights the two give the same bits. A gather sums
//! each output's active columns in ascending index order from `+0.0`
//! with one accumulator and adds the bias last, as the dense
//! `matvec` + bias and [`crate::batched::matmul_bt_bias`] do over every
//! column; the dense kernels' inactive terms are exact zeros, which
//! change no partial sum. The scatter conv starts each cell at its bias
//! and adds events in ascending `(channel, y, x)` order, the dense
//! conv's window order. The avg pool counts spikes per window and
//! scales once, as [`crate::conv::avg_pool2d`] does. The property tests
//! in `tests/sparse_equivalence.rs` pin this bit for bit across shapes,
//! strides, paddings, windows and densities.
//!
//! The one exception is a non-finite weight: the dense kernels multiply
//! it by an inactive input's `0.0`, and `±inf · 0` is NaN, while the
//! gather never reads it.
//!
//! # Example
//!
//! ```
//! use axsnn_tensor::conv::{conv2d, Conv2dSpec};
//! use axsnn_tensor::sparse::{sparse_conv2d, SpikeVector};
//! use axsnn_tensor::Tensor;
//!
//! # fn main() -> axsnn_tensor::Result<()> {
//! let spec = Conv2dSpec { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
//! let weight = Tensor::from_vec((0..18).map(|i| i as f32 * 0.25).collect(), &[2, 1, 3, 3])?;
//! let bias = Tensor::from_vec(vec![0.5, -1.0], &[2])?;
//! let mut frame = Tensor::zeros(&[1, 4, 4]);
//! frame.as_mut_slice()[5] = 1.0;
//! let spikes = SpikeVector::from_dense(&frame).expect("binary frame");
//! assert_eq!(spikes.density(), 1.0 / 16.0);
//! let sparse = sparse_conv2d(&spikes, (4, 4), &weight, &bias, &spec)?;
//! let dense = conv2d(&frame, &weight, &bias, &spec)?;
//! assert_eq!(sparse.as_slice(), dense.as_slice());
//! # Ok(())
//! # }
//! ```

use crate::conv::Conv2dSpec;
use crate::plane::WeightLane;
use crate::{Result, Tensor, TensorError};

/// Default maximum density at which the sparse path is considered
/// cheaper than the dense one.
///
/// The sparse matvec gathers `out × nnz` weights against the dense
/// kernel's `out × in` stream, and the scatter conv performs
/// `nnz × Cout × K²` multiply-accumulates against the dense kernel's
/// `Cout·OH·OW·Cin·K²`; both win roughly in proportion to `1/density`,
/// with the gather/scatter's worse cache locality eating part of the
/// margin. A quarter density keeps a comfortable cushion — measured
/// crossover on the workspace's MNIST-scale layers is well above 40%.
pub const DEFAULT_DENSITY_THRESHOLD: f32 = 0.25;

/// A binary spike frame in event form: the flat indices of active spikes
/// plus the logical length of the dense frame they came from.
///
/// Indices are stored in increasing order when built through
/// [`SpikeVector::from_dense`], which scans the dense frame front to
/// back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeVector {
    indices: Vec<u32>,
    len: usize,
}

impl SpikeVector {
    /// Builds a spike vector from raw event indices and the dense length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when any index is out of
    /// bounds for `len`.
    pub fn new(indices: Vec<u32>, len: usize) -> Result<Self> {
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= len) {
            return Err(TensorError::InvalidArgument {
                message: format!("spike index {bad} out of bounds for length {len}"),
            });
        }
        Ok(SpikeVector { indices, len })
    }

    /// Extracts the active indices of a *binary* dense frame.
    ///
    /// Returns `None` when any element is neither `0.0` nor `1.0` —
    /// non-binary frames (analog currents, direct-current encodings)
    /// must take the dense path because the event form carries no
    /// magnitudes.
    pub fn from_dense(t: &Tensor) -> Option<Self> {
        Self::gather(t.as_slice(), usize::MAX)
    }

    /// Extracts a binary frame's events only when its density is at most
    /// `max_density` — the dense↔sparse gate, on a raw slice so the
    /// fused batch engine gates rows of a stacked `[B, n]` block without
    /// materializing per-row tensors.
    ///
    /// Returns `None` when the frame is non-binary **or** denser than
    /// the threshold, in which case the caller should use the dense
    /// kernels. The scan aborts as soon as too many events are seen, so
    /// rejecting a dense frame costs at most `max_density·len + 1`
    /// index pushes.
    pub fn from_slice_if_sparse(data: &[f32], max_density: f32) -> Option<Self> {
        if max_density <= 0.0 || max_density.is_nan() {
            return None;
        }
        let cap = (max_density as f64 * data.len() as f64).floor() as usize;
        Self::gather(data, cap)
    }

    fn gather(t: &[f32], max_events: usize) -> Option<Self> {
        let mut indices = Vec::new();
        for (i, &v) in t.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            if v != 1.0 || indices.len() >= max_events {
                return None;
            }
            indices.push(i as u32);
        }
        Some(SpikeVector {
            indices,
            len: t.len(),
        })
    }

    /// Number of active spikes (events).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Logical dense length of the frame.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the logical frame has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fraction of active elements, in `[0, 1]`; `0.0` for an empty
    /// frame.
    pub fn density(&self) -> f32 {
        if self.len == 0 {
            0.0
        } else {
            self.indices.len() as f32 / self.len as f32
        }
    }

    /// The flat indices of active spikes.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Materializes the dense binary frame with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the shape volume
    /// differs from the spike vector's logical length.
    pub fn to_dense(&self, dims: &[usize]) -> Result<Tensor> {
        let mut out = Tensor::zeros(dims);
        if out.len() != self.len {
            return Err(TensorError::LengthMismatch {
                expected: self.len,
                actual: out.len(),
            });
        }
        let data = out.as_mut_slice();
        for &i in &self.indices {
            data[i as usize] = 1.0;
        }
        Ok(out)
    }
}

/// Sums `row[j]` over the active indices, then adds `bias`: one
/// accumulator from `+0.0`, ascending index order, bias last.
///
/// This is the summation order of every spike gather in the workspace
/// (the scalar tiles, the AVX2 tiles and the reduced-precision lanes)
/// and of the dense kernels, which add `w·x` over every column the same
/// way. Starting from `+0.0` keeps the partial sum off `-0.0`, so
/// skipping an inactive column's `±0.0` term changes no bit.
///
/// `row.load` is a plain slice read for the f32 lane and an in-register
/// dequantization for the f16/int8 lanes. The summation order is the
/// same for every lane, which is what makes a planed gather
/// bit-identical to the f32 gather over the dequantized weights.
#[inline]
pub(crate) fn gather_row_lane<L: WeightLane>(row: L, indices: &[u32], bias: f32) -> f32 {
    let mut acc = 0.0f32;
    for &j in indices {
        acc += row.load(j as usize);
    }
    acc + bias
}

/// [`gather_row_lane`] over a tile of 4 weight rows at once, writing 4
/// outputs: the scalar spike-plane GEMM microkernel.
///
/// The gather's cost is dominated by the dependent index-load →
/// data-load chain; sharing each index load across 4 weight rows
/// quarters the index traffic and gives the out-of-order core 4
/// independent accumulator chains, one per output. Each output's sum
/// is [`gather_row_lane`]'s, so every output stays bit-identical to the
/// one-row gather.
#[inline]
pub(crate) fn gather_row_x4<L: WeightLane>(
    rows: [L; 4],
    indices: &[u32],
    bias: [f32; 4],
    out: &mut [f32],
) {
    let mut acc = [0.0f32; 4];
    for &j in indices {
        let j = j as usize;
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row.load(j);
        }
    }
    for ((o, a), b) in out.iter_mut().zip(acc).zip(bias) {
        *o = a + b;
    }
}

/// Scatters one event's weight stencil column onto the output planes:
/// `out[oc·ohw + obase] += w[oc·wstride + wbase]` for every output
/// channel, unrolled 4-wide.
///
/// Both sides of the accumulate are strided, which defeats
/// autovectorization; four independent read-modify-write pairs per
/// iteration pipeline the loads and stores. Each output cell still
/// receives exactly one add per event, so results are bit-identical to
/// the naive loop. Shared by the per-sample and batched scatter convs.
#[inline]
pub(crate) fn scatter_stencil(
    out: &mut [f32],
    wv: &[f32],
    out_channels: usize,
    ohw: usize,
    wstride: usize,
    obase: usize,
    wbase: usize,
) {
    let mut oc = 0usize;
    while oc + 4 <= out_channels {
        out[oc * ohw + obase] += wv[oc * wstride + wbase];
        out[(oc + 1) * ohw + obase] += wv[(oc + 1) * wstride + wbase];
        out[(oc + 2) * ohw + obase] += wv[(oc + 2) * wstride + wbase];
        out[(oc + 3) * ohw + obase] += wv[(oc + 3) * wstride + wbase];
        oc += 4;
    }
    while oc < out_channels {
        out[oc * ohw + obase] += wv[oc * wstride + wbase];
        oc += 1;
    }
}

/// Event-masked rank-1 gradient accumulation
/// `acc[i][j] += g[i]` for every active column `j` — the sparse form of
/// the linear-layer weight-gradient update `acc += g ⊗ x` for a binary
/// `x`, touching `rows × nnz` cells instead of `rows × cols`. Rows with
/// `g[i] == 0` are skipped.
///
/// The dense update adds `g[i]·x[j]`, which is `g[i]` exactly at active
/// columns and an exact zero elsewhere, so each accumulator cell ends
/// at the same `f32` value as the dense path.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-matrix `acc` and
/// [`TensorError::ShapeMismatch`] when `acc` is not `[g.len, x.len]`.
pub fn sparse_outer_acc(acc: &mut Tensor, g: &[f32], x: &SpikeVector) -> Result<()> {
    if acc.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: acc.shape().rank(),
            op: "sparse_outer_acc",
        });
    }
    let (m, k) = (acc.shape().dims()[0], acc.shape().dims()[1]);
    if g.len() != m || x.len() != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![g.len(), x.len()],
            op: "sparse_outer_acc",
        });
    }
    let accv = acc.as_mut_slice();
    for (i, &gi) in g.iter().enumerate() {
        if gi == 0.0 {
            continue;
        }
        let row = &mut accv[i * k..(i + 1) * k];
        for &j in x.indices() {
            row[j as usize] += gi;
        }
    }
    Ok(())
}

fn check_conv_input(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<()> {
    check_conv_geometry(input.len(), in_hw, weight, spec)
}

pub(crate) fn check_conv_geometry(
    input_len: usize,
    in_hw: (usize, usize),
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<()> {
    let wdims = weight.shape().dims();
    let expected = [
        spec.out_channels,
        spec.in_channels,
        spec.kernel,
        spec.kernel,
    ];
    if wdims != expected {
        return Err(TensorError::ShapeMismatch {
            lhs: wdims.to_vec(),
            rhs: expected.to_vec(),
            op: "sparse_conv2d weight",
        });
    }
    check_conv_geometry_len(input_len, in_hw, weight.len(), spec)
}

/// [`check_conv_geometry`] for a flat weight buffer (a quantized plane
/// carries no shape metadata, only its length).
pub(crate) fn check_conv_geometry_len(
    input_len: usize,
    in_hw: (usize, usize),
    weight_len: usize,
    spec: &Conv2dSpec,
) -> Result<()> {
    if spec.kernel == 0 || spec.stride == 0 {
        return Err(TensorError::InvalidArgument {
            message: "conv2d kernel and stride must be non-zero".into(),
        });
    }
    let (h, w) = in_hw;
    if input_len != spec.in_channels * h * w {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![input_len],
            rhs: vec![spec.in_channels, h, w],
            op: "sparse_conv2d input",
        });
    }
    let expected_w = spec.out_channels * spec.in_channels * spec.kernel * spec.kernel;
    if weight_len != expected_w {
        return Err(TensorError::LengthMismatch {
            expected: expected_w,
            actual: weight_len,
        });
    }
    if h + 2 * spec.padding < spec.kernel || w + 2 * spec.padding < spec.kernel {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "conv2d kernel {} larger than padded input {}x{}",
                spec.kernel,
                h + 2 * spec.padding,
                w + 2 * spec.padding
            ),
        });
    }
    Ok(())
}

/// Scatter-based sparse 2-D convolution: `events [Cin·H·W] → output
/// [Cout,OH,OW]`.
///
/// Instead of sliding every output window over the input, each active
/// spike *pushes* its weight stencil onto the affected output positions,
/// so the multiply-accumulate count is `nnz × Cout × K²` regardless of
/// the layer's spatial size.
///
/// # Errors
///
/// Returns an error when the spike length, weight shape `[Cout,Cin,K,K]`
/// or bias length disagree with `spec` and `in_hw`, or the kernel does
/// not fit in the padded input.
pub fn sparse_conv2d(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    check_conv_input(input, in_hw, weight, spec)?;
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = vec![0.0f32; spec.out_channels * oh * ow];
    sparse_conv2d_into(input, in_hw, weight, bias, spec, &mut out)?;
    Tensor::from_vec(out, &[spec.out_channels, oh, ow])
}

/// [`sparse_conv2d`] writing into a caller-provided `[Cout·OH·OW]`
/// buffer — the building block the batched engine uses to scatter each
/// sample's events directly into its row of a `[B, Cout·OH·OW]` block
/// without an intermediate allocation.
///
/// The buffer is fully overwritten (bias fill, then event scatter).
///
/// # Errors
///
/// As [`sparse_conv2d`], plus [`TensorError::LengthMismatch`] when the
/// buffer length differs from the output volume.
pub fn sparse_conv2d_into(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    check_conv_input(input, in_hw, weight, spec)?;
    if bias.len() != spec.out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.shape().dims().to_vec(),
            rhs: vec![spec.out_channels],
            op: "sparse_conv2d bias",
        });
    }
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let ohw = oh * ow;
    let wstride = spec.in_channels * k * k;
    let wv = weight.as_slice();

    if out.len() != spec.out_channels * ohw {
        return Err(TensorError::LengthMismatch {
            expected: spec.out_channels * ohw,
            actual: out.len(),
        });
    }
    for (oc, &b) in bias.as_slice().iter().enumerate() {
        out[oc * ohw..(oc + 1) * ohw].fill(b);
    }

    for &flat in input.indices() {
        let flat = flat as usize;
        let ic = flat / (h * w);
        let rem = flat % (h * w);
        let iy = rem / w;
        let ix = rem % w;
        // The padded input row iy + padding is seen by output row oy at
        // kernel row ky exactly when oy·stride + ky == iy + padding.
        for ky in 0..k {
            let oy_num = iy + spec.padding;
            if oy_num < ky {
                break; // ky only grows; no further kernel row can match
            }
            let oy_off = oy_num - ky;
            if !oy_off.is_multiple_of(spec.stride) {
                continue;
            }
            let oy = oy_off / spec.stride;
            if oy >= oh {
                continue;
            }
            for kx in 0..k {
                let ox_num = ix + spec.padding;
                if ox_num < kx {
                    break;
                }
                let ox_off = ox_num - kx;
                if !ox_off.is_multiple_of(spec.stride) {
                    continue;
                }
                let ox = ox_off / spec.stride;
                if ox >= ow {
                    continue;
                }
                let obase = oy * ow + ox;
                let wbase = ic * k * k + ky * k + kx;
                scatter_stencil(out, wv, spec.out_channels, ohw, wstride, obase, wbase);
            }
        }
    }
    Ok(())
}

fn check_pool(input: &SpikeVector, dims: &[usize], k: usize) -> Result<(usize, usize, usize)> {
    if dims.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: dims.len(),
            op: "sparse_pool2d",
        });
    }
    if k == 0 {
        return Err(TensorError::InvalidArgument {
            message: "pool window must be non-zero".into(),
        });
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    if input.len() != c * h * w {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w,
            actual: input.len(),
        });
    }
    if h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidArgument {
            message: format!("pool window {k} does not divide input {h}x{w}"),
        });
    }
    Ok((c, h, w))
}

/// Average pooling on events: counts each window's spikes, touching
/// only `nnz` cells, then scales every count by `1/k²` once.
///
/// [`crate::conv::avg_pool2d`] sums a binary window to the same exact
/// count and scales it by the same factor, so the two agree bit for
/// bit. Adding `1/k²` per spike instead rounds differently from the
/// scaled count for k = 5, 6 and 7.
///
/// # Errors
///
/// Returns an error for a non-`[C,H,W]` `dims`, `k == 0`, a length
/// mismatch, or spatial dimensions not divisible by `k`.
pub fn sparse_avg_pool2d(input: &SpikeVector, dims: &[usize], k: usize) -> Result<Tensor> {
    let (c, h, w) = check_pool(input, dims, k)?;
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; c * oh * ow];
    for &flat in input.indices() {
        let flat = flat as usize;
        let ch = flat / (h * w);
        let rem = flat % (h * w);
        let (iy, ix) = (rem / w, rem % w);
        out[ch * oh * ow + (iy / k) * ow + ix / k] += 1.0;
    }
    for v in &mut out {
        *v *= inv;
    }
    Tensor::from_vec(out, &[c, oh, ow])
}

/// Max pooling on events: a window of a binary frame maxes to `1.0`
/// exactly when it contains at least one spike.
///
/// This is the *forward value* only — it carries no argmax tape, so the
/// layer stack uses it exclusively on non-recorded (inference) steps.
///
/// # Errors
///
/// Same conditions as [`sparse_avg_pool2d`].
pub fn sparse_max_pool2d(input: &SpikeVector, dims: &[usize], k: usize) -> Result<Tensor> {
    let (c, h, w) = check_pool(input, dims, k)?;
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; c * oh * ow];
    for &flat in input.indices() {
        let flat = flat as usize;
        let ch = flat / (h * w);
        let rem = flat % (h * w);
        let (iy, ix) = (rem / w, rem % w);
        out[ch * oh * ow + (iy / k) * ow + ix / k] = 1.0;
    }
    Tensor::from_vec(out, &[c, oh, ow])
}

/// Max pooling from events to events: the pooled frame's active cells,
/// ascending and each once — exactly what [`SpikeVector::from_dense`]
/// yields on [`sparse_max_pool2d`]'s output, without building it.
///
/// Ascending events visit the bands of `k` input rows (one output row
/// `(channel, oy)` each) in ascending order. Each band collects its cells
/// in a bitmask of `OW` bits, emitted in ascending `ox` order when the
/// events leave the band; several spikes in one window merge in the
/// mask. The cost is `O(nnz·k + W)`, with one division per band entered.
/// Input that is not in ascending order falls back to pooling densely.
/// Forward value only, like [`sparse_max_pool2d`].
///
/// # Errors
///
/// Same conditions as [`sparse_avg_pool2d`].
pub fn sparse_max_pool2d_events(
    input: &SpikeVector,
    dims: &[usize],
    k: usize,
) -> Result<SpikeVector> {
    let (c, h, w) = check_pool(input, dims, k)?;
    let (oh, ow) = (h / k, w / k);
    // Output column of each input column.
    let mut out_col = Vec::with_capacity(w);
    for ox in 0..ow {
        for _ in 0..k {
            out_col.push(ox);
        }
    }
    let mut mask = vec![0u64; ow.div_ceil(64)];
    let mut indices = Vec::with_capacity(input.nnz());
    let mut flush = |band: usize, mask: &mut [u64]| {
        for (word, bits) in mask.iter_mut().enumerate() {
            let mut m = std::mem::take(bits);
            while m != 0 {
                let ox = word * 64 + m.trailing_zeros() as usize;
                indices.push((band * ow + ox) as u32);
                m &= m - 1;
            }
        }
    };
    // Band `band` (output row `(channel, oy)`) covers the `k` input rows
    // at flat indices `band_start..band_start + k·W`.
    let band_len = k * w;
    let (mut band, mut band_start) = (0usize, 0usize);
    let mut prev = 0usize;
    for &flat in input.indices() {
        let flat = flat as usize;
        if flat < prev {
            let pooled = sparse_max_pool2d(input, dims, k)?;
            return Ok(SpikeVector::from_dense(&pooled).expect("max pooling keeps frames binary"));
        }
        prev = flat;
        if flat >= band_start + band_len {
            flush(band, &mut mask);
            band = flat / band_len;
            band_start = band * band_len;
        }
        let mut ix = flat - band_start;
        while ix >= w {
            ix -= w;
        }
        let ox = out_col[ix];
        mask[ox / 64] |= 1 << (ox % 64);
    }
    flush(band, &mut mask);
    SpikeVector::new(indices, c * oh * ow)
}

/// Gathers one event's gradient stencil from the output planes into the
/// weight gradient: `gw[oc·wstride + wbase] += g[oc·ohw + obase]` for
/// every output channel, unrolled 4-wide — the transpose of
/// [`scatter_stencil`]. Each weight cell receives exactly one add per
/// (event, kernel-offset) pair, so the unroll reorders nothing.
#[inline]
fn gather_stencil(
    gw: &mut [f32],
    gv: &[f32],
    out_channels: usize,
    ohw: usize,
    wstride: usize,
    obase: usize,
    wbase: usize,
) {
    let mut oc = 0usize;
    while oc + 4 <= out_channels {
        gw[oc * wstride + wbase] += gv[oc * ohw + obase];
        gw[(oc + 1) * wstride + wbase] += gv[(oc + 1) * ohw + obase];
        gw[(oc + 2) * wstride + wbase] += gv[(oc + 2) * ohw + obase];
        gw[(oc + 3) * wstride + wbase] += gv[(oc + 3) * ohw + obase];
        oc += 4;
    }
    while oc < out_channels {
        gw[oc * wstride + wbase] += gv[oc * ohw + obase];
        oc += 1;
    }
}

/// Event-masked backward pass of a 2-D convolution over a *binary*
/// input recorded in event form: computes the same three gradients as
/// [`crate::conv::conv2d_backward`] with the weight gradient driven by
/// the input events instead of the full dense input.
///
/// * **Weight gradient** — each active input spike gathers the output
///   gradients its stencil touched (`nnz × Cout × K²` accumulates
///   instead of `Cout·OH·OW·Cin·K²`). Per weight cell the contributions
///   arrive in the same ascending `(oy, ox)` order as the dense
///   backward, and the dense path's inactive-input contributions are
///   exact zeros, so each cell ends at the same `f32` value.
/// * **Input and bias gradients** — computed with the dense backward's
///   own loop structure (they are dense quantities: every input
///   position needs its gradient for the upstream layer), bit-identical
///   to [`crate::conv::conv2d_backward`].
///
/// # Errors
///
/// As [`sparse_conv2d`], plus [`TensorError::ShapeMismatch`] when
/// `grad_out` does not have the forward output shape.
pub fn sparse_conv2d_backward(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<crate::conv::Conv2dGrads> {
    check_conv_input(input, in_hw, weight, spec)?;
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    if grad_out.shape().dims() != [spec.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![spec.out_channels, oh, ow],
            op: "sparse_conv2d_backward grad_out",
        });
    }
    let k = spec.kernel;
    let ohw = oh * ow;
    let wstride = spec.in_channels * k * k;
    let wv = weight.as_slice();
    let gv = grad_out.as_slice();
    let mut gi = vec![0.0f32; spec.in_channels * h * w];
    let mut gw = vec![0.0f32; spec.out_channels * wstride];
    let mut gb = vec![0.0f32; spec.out_channels];

    // Input + bias gradients: the dense backward's exact loop (minus
    // the weight-gradient update), so both stay bit-identical to
    // `conv2d_backward`.
    for oc in 0..spec.out_channels {
        let wbase_oc = oc * wstride;
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gv[oc * ohw + oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                for ic in 0..spec.in_channels {
                    let ibase = ic * h * w;
                    let wbase = wbase_oc + ic * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = ibase + iy as usize * w;
                        let wrow = wbase + ky * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            gi[irow + ix as usize] += g * wv[wrow + kx];
                        }
                    }
                }
            }
        }
    }

    // Weight gradient: event-driven, mirroring the scatter conv's
    // coordinate arithmetic in gather direction.
    for &flat in input.indices() {
        let flat = flat as usize;
        let ic = flat / (h * w);
        let rem = flat % (h * w);
        let iy = rem / w;
        let ix = rem % w;
        for ky in 0..k {
            let oy_num = iy + spec.padding;
            if oy_num < ky {
                break;
            }
            let oy_off = oy_num - ky;
            if !oy_off.is_multiple_of(spec.stride) {
                continue;
            }
            let oy = oy_off / spec.stride;
            if oy >= oh {
                continue;
            }
            for kx in 0..k {
                let ox_num = ix + spec.padding;
                if ox_num < kx {
                    break;
                }
                let ox_off = ox_num - kx;
                if !ox_off.is_multiple_of(spec.stride) {
                    continue;
                }
                let ox = ox_off / spec.stride;
                if ox >= ow {
                    continue;
                }
                let obase = oy * ow + ox;
                let wbase = ic * k * k + ky * k + kx;
                gather_stencil(&mut gw, gv, spec.out_channels, ohw, wstride, obase, wbase);
            }
        }
    }

    Ok(crate::conv::Conv2dGrads {
        input: Tensor::from_vec(gi, &[spec.in_channels, h, w])?,
        weight: Tensor::from_vec(gw, &[spec.out_channels, spec.in_channels, k, k])?,
        bias: Tensor::from_vec(gb, &[spec.out_channels])?,
    })
}

/// Reference scatter conv with the pre-unroll single-step `oc` loop,
/// kept for equivalence checks of the unrolled [`scatter_stencil`]
/// path. Bit-identical to [`sparse_conv2d`]: each output cell receives
/// the same adds in the same order.
#[cfg(test)]
pub(crate) fn sparse_conv2d_naive(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    check_conv_input(input, in_hw, weight, spec)?;
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let ohw = oh * ow;
    let wstride = spec.in_channels * k * k;
    let wv = weight.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * ohw];
    for (oc, &b) in bias.as_slice().iter().enumerate() {
        out[oc * ohw..(oc + 1) * ohw].fill(b);
    }
    for &flat in input.indices() {
        let flat = flat as usize;
        let ic = flat / (h * w);
        let rem = flat % (h * w);
        let (iy, ix) = (rem / w, rem % w);
        for ky in 0..k {
            let oy_num = iy + spec.padding;
            if oy_num < ky {
                break;
            }
            let oy_off = oy_num - ky;
            if !oy_off.is_multiple_of(spec.stride) {
                continue;
            }
            let oy = oy_off / spec.stride;
            if oy >= oh {
                continue;
            }
            for kx in 0..k {
                let ox_num = ix + spec.padding;
                if ox_num < kx {
                    break;
                }
                let ox_off = ox_num - kx;
                if !ox_off.is_multiple_of(spec.stride) {
                    continue;
                }
                let ox = ox_off / spec.stride;
                if ox >= ow {
                    continue;
                }
                let obase = oy * ow + ox;
                let wbase = ic * k * k + ky * k + kx;
                for oc in 0..spec.out_channels {
                    out[oc * ohw + obase] += wv[oc * wstride + wbase];
                }
            }
        }
    }
    Tensor::from_vec(out, &[spec.out_channels, oh, ow])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{
        sparse_matmul_bias_packed, sparse_matmul_bias_planed_scalar, sparse_matmul_bias_scalar,
        PackedWeights, SpikeMatrix,
    };
    use crate::conv::{avg_pool2d, conv2d, max_pool2d};
    use crate::linalg;
    use crate::plane::PlaneView;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The one-row case of the batch gather, as one `[out]` row: the
    /// packed kernel, checked bit for bit against the scalar reference.
    fn gather_one(w: &Tensor, s: &SpikeVector, b: &Tensor) -> Result<Tensor> {
        let row = SpikeMatrix::from_rows(std::slice::from_ref(s))?;
        let scalar = sparse_matmul_bias_scalar(w, &row, b)?;
        let packed = sparse_matmul_bias_packed(&PackedWeights::pack(w)?, &row, b)?;
        assert_eq!(bits(&packed), bits(&scalar));
        packed.reshape(&[b.len()])
    }

    /// [`gather_one`] over a reduced-precision weight plane: panels
    /// decoded from the plane against its lane-decoding reference.
    fn gather_one_planed(
        w: PlaneView<'_>,
        shape: (usize, usize),
        s: &SpikeVector,
        b: &Tensor,
    ) -> Result<Tensor> {
        let row = SpikeMatrix::from_rows(std::slice::from_ref(s))?;
        let scalar = sparse_matmul_bias_planed_scalar(w, shape, &row, b)?;
        let packed = sparse_matmul_bias_packed(&PackedWeights::pack_plane(w, shape)?, &row, b)?;
        assert_eq!(bits(&packed), bits(&scalar));
        packed.reshape(&[b.len()])
    }

    fn binary_frame(len: usize, every: usize) -> Tensor {
        let data: Vec<f32> = (0..len)
            .map(|i| if i % every == 0 { 1.0 } else { 0.0 })
            .collect();
        Tensor::from_vec(data, &[len]).unwrap()
    }

    #[test]
    fn from_dense_extracts_indices() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[4]).unwrap();
        let s = SpikeVector::from_dense(&t).unwrap();
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.len(), 4);
        assert_eq!(s.density(), 0.5);
    }

    #[test]
    fn from_dense_rejects_non_binary() {
        let t = Tensor::from_vec(vec![0.0, 0.5], &[2]).unwrap();
        assert!(SpikeVector::from_dense(&t).is_none());
        let neg = Tensor::from_vec(vec![-1.0, 0.0], &[2]).unwrap();
        assert!(SpikeVector::from_dense(&neg).is_none());
    }

    #[test]
    fn density_gate_rejects_dense_frames() {
        let t = binary_frame(100, 2); // 50% dense
        assert!(SpikeVector::from_slice_if_sparse(t.as_slice(), 0.25).is_none());
        assert!(SpikeVector::from_slice_if_sparse(t.as_slice(), 0.5).is_some());
        assert!(SpikeVector::from_slice_if_sparse(t.as_slice(), 0.0).is_none());
        let sparse = binary_frame(100, 10); // 10% dense
        let s = SpikeVector::from_slice_if_sparse(sparse.as_slice(), 0.25).unwrap();
        assert_eq!(s.nnz(), 10);
    }

    #[test]
    fn to_dense_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[2, 3]).unwrap();
        let s = SpikeVector::from_dense(&t).unwrap();
        let back = s.to_dense(&[2, 3]).unwrap();
        assert_eq!(back, t);
        assert!(s.to_dense(&[7]).is_err());
    }

    #[test]
    fn new_validates_bounds() {
        assert!(SpikeVector::new(vec![0, 3], 4).is_ok());
        assert!(SpikeVector::new(vec![4], 4).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let w = Tensor::from_vec((0..20).map(|i| i as f32 * 0.3 - 2.0).collect(), &[4, 5]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0], &[5]).unwrap();
        let s = SpikeVector::from_dense(&x).unwrap();
        let sparse = gather_one(&w, &s, &Tensor::zeros(&[4])).unwrap();
        let dense = linalg::matvec(&w, &x).unwrap();
        assert_eq!(bits(&sparse), bits(&dense));
    }

    #[test]
    fn matvec_bias_matches_dense() {
        let w = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[3, 4]).unwrap();
        let b = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]).unwrap();
        let x = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4]).unwrap();
        let s = SpikeVector::from_dense(&x).unwrap();
        let sparse = gather_one(&w, &s, &b).unwrap();
        let dense = linalg::matvec(&w, &x).unwrap().add(&b).unwrap();
        assert_eq!(bits(&sparse), bits(&dense));
    }

    #[test]
    fn matvec_shape_errors() {
        let w = Tensor::zeros(&[3, 4]);
        let s = SpikeVector::new(vec![0], 5).unwrap();
        assert!(gather_one(&w, &s, &Tensor::zeros(&[3])).is_err());
        let v = Tensor::zeros(&[4]);
        let s4 = SpikeVector::new(vec![0], 4).unwrap();
        assert!(gather_one(&v, &s4, &Tensor::zeros(&[4])).is_err());
        let bias = Tensor::zeros(&[2]);
        let w34 = Tensor::zeros(&[3, 4]);
        assert!(gather_one(&w34, &s4, &bias).is_err());
    }

    #[test]
    fn matvec_bias_shape_errors() {
        let w = Tensor::zeros(&[3, 4]);
        let s5 = SpikeVector::new(vec![0], 5).unwrap();
        assert!(gather_one(&w, &s5, &Tensor::zeros(&[3])).is_err());
        let s4 = SpikeVector::new(vec![0], 4).unwrap();
        assert!(gather_one(&w, &s4, &Tensor::zeros(&[2])).is_err());
        assert!(gather_one(&w, &s4, &Tensor::zeros(&[3])).is_ok());
    }

    #[test]
    fn conv_matches_dense_all_geometries() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 0), (2, 1), (1, 2)] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels: 3,
                kernel: 3,
                stride,
                padding,
            };
            let (h, w) = (6, 7);
            let input_data: Vec<f32> = (0..2 * h * w)
                .map(|i| if i % 7 == 0 { 1.0 } else { 0.0 })
                .collect();
            let input = Tensor::from_vec(input_data, &[2, h, w]).unwrap();
            let weight = Tensor::from_vec(
                (0..3 * 2 * 9).map(|i| (i as f32 * 0.77).cos()).collect(),
                &[3, 2, 3, 3],
            )
            .unwrap();
            let bias = Tensor::from_vec(vec![0.5, -1.0, 0.25], &[3]).unwrap();
            let dense = conv2d(&input, &weight, &bias, &spec).unwrap();
            let events = SpikeVector::from_dense(&input).unwrap();
            let sparse = sparse_conv2d(&events, (h, w), &weight, &bias, &spec).unwrap();
            assert_eq!(sparse.shape().dims(), dense.shape().dims());
            assert_eq!(bits(&sparse), bits(&dense), "stride {stride} pad {padding}");
        }
    }

    #[test]
    fn conv_empty_frame_is_pure_bias() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let events = SpikeVector::new(vec![], 16).unwrap();
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![0.25, -0.5], &[2]).unwrap();
        let out = sparse_conv2d(&events, (4, 4), &weight, &bias, &spec).unwrap();
        for (i, &v) in out.as_slice().iter().enumerate() {
            let expected = if i < 16 { 0.25 } else { -0.5 };
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn conv_validation() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let events = SpikeVector::new(vec![], 16).unwrap();
        let bias = Tensor::zeros(&[1]);
        // Wrong weight shape.
        assert!(
            sparse_conv2d(&events, (4, 4), &Tensor::ones(&[1, 1, 2, 2]), &bias, &spec).is_err()
        );
        // Wrong input length.
        let short = SpikeVector::new(vec![], 9).unwrap();
        assert!(sparse_conv2d(&short, (4, 4), &Tensor::ones(&[1, 1, 3, 3]), &bias, &spec).is_err());
        // Kernel larger than input.
        let tiny = SpikeVector::new(vec![], 4).unwrap();
        assert!(sparse_conv2d(&tiny, (2, 2), &Tensor::ones(&[1, 1, 3, 3]), &bias, &spec).is_err());
    }

    #[test]
    fn unrolled_scatter_conv_bitwise_matches_naive() {
        // The oc unroll reorders nothing per output cell, so the
        // results must be *exactly* equal, across channel counts that
        // exercise the 4-wide body and every remainder length.
        for out_channels in [1usize, 2, 3, 4, 5, 6, 7, 8, 11] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels,
                kernel: 3,
                stride: 1,
                padding: 1,
            };
            let (h, w) = (6, 5);
            let input_data: Vec<f32> = (0..2 * h * w)
                .map(|i| if i % 4 == 0 { 1.0 } else { 0.0 })
                .collect();
            let input = Tensor::from_vec(input_data, &[2, h, w]).unwrap();
            let events = SpikeVector::from_dense(&input).unwrap();
            let weight = Tensor::from_vec(
                (0..out_channels * 2 * 9)
                    .map(|i| (i as f32 * 0.53).cos())
                    .collect(),
                &[out_channels, 2, 3, 3],
            )
            .unwrap();
            let bias = Tensor::from_vec(
                (0..out_channels).map(|i| i as f32 * 0.1).collect(),
                &[out_channels],
            )
            .unwrap();
            let fast = sparse_conv2d(&events, (h, w), &weight, &bias, &spec).unwrap();
            let naive = sparse_conv2d_naive(&events, (h, w), &weight, &bias, &spec).unwrap();
            assert_eq!(
                fast.as_slice(),
                naive.as_slice(),
                "out_channels {out_channels}"
            );
        }
    }

    #[test]
    fn planed_matvec_bitwise_matches_f32_over_dequantized_weights() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let (m, k) = (6, 9);
        let w = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.29).sin() * 1.7).collect(),
            &[m, k],
        )
        .unwrap();
        let b = Tensor::from_vec((0..m).map(|i| i as f32 * 0.05 - 0.1).collect(), &[m]).unwrap();
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let q = QuantizedPlane::quantize(w.as_slice(), plane)
                .unwrap()
                .unwrap();
            let dq = Tensor::from_vec(q.dequantize(), &[m, k]).unwrap();
            for every in [1usize, 2, 3, 9] {
                let x = binary_frame(k, every);
                let s = SpikeVector::from_dense(&x).unwrap();
                let planed = gather_one_planed(q.view(), (m, k), &s, &b).unwrap();
                let reference = gather_one(&dq, &s, &b).unwrap();
                for (a, r) in planed.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(a.to_bits(), r.to_bits(), "{plane} every {every}");
                }
            }
        }
    }

    #[test]
    fn planed_matvec_shape_errors() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let q = QuantizedPlane::quantize(&[1.0; 12], WeightPlane::Int8)
            .unwrap()
            .unwrap();
        let b = Tensor::zeros(&[3]);
        let s4 = SpikeVector::new(vec![0], 4).unwrap();
        assert!(gather_one_planed(q.view(), (3, 4), &s4, &b).is_ok());
        // Plane length disagrees with the claimed shape.
        assert!(gather_one_planed(q.view(), (3, 5), &s4, &b).is_err());
        // Spike length disagrees with the column count.
        let s5 = SpikeVector::new(vec![0], 5).unwrap();
        assert!(gather_one_planed(q.view(), (3, 4), &s5, &b).is_err());
        // Bias length disagrees with the row count.
        assert!(gather_one_planed(q.view(), (3, 4), &s4, &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn matvec_bias_bitwise_matches_dense_at_every_density() {
        // The gather must reproduce the dense matvec-then-add-bias
        // value per element, including at 100% density where every
        // column is active.
        let w =
            Tensor::from_vec((0..28).map(|i| (i as f32 * 0.31).sin()).collect(), &[4, 7]).unwrap();
        let b = Tensor::from_vec(vec![0.3, -0.7, 0.11, 1.9], &[4]).unwrap();
        for every in [1usize, 2, 3, 7] {
            let x = binary_frame(7, every);
            let s = SpikeVector::from_dense(&x).unwrap();
            let sparse = gather_one(&w, &s, &b).unwrap();
            let dense = linalg::matvec(&w, &x).unwrap().add(&b).unwrap();
            assert_eq!(bits(&sparse), bits(&dense), "every {every}");
        }
    }

    #[test]
    fn sparse_outer_acc_matches_dense_outer() {
        let g = Tensor::from_vec(vec![1.5, 0.0, -2.25], &[3]).unwrap();
        for every in [1usize, 2, 5] {
            let x = binary_frame(5, every);
            let s = SpikeVector::from_dense(&x).unwrap();
            let mut acc =
                Tensor::from_vec((0..15).map(|i| i as f32 * 0.1).collect(), &[3, 5]).unwrap();
            let reference = acc.add(&linalg::outer(&g, &x).unwrap()).unwrap();
            sparse_outer_acc(&mut acc, g.as_slice(), &s).unwrap();
            assert_eq!(acc.as_slice(), reference.as_slice(), "every {every}");
        }
    }

    #[test]
    fn sparse_outer_acc_shape_errors() {
        let g = [0.0f32; 3];
        let s = SpikeVector::new(vec![0], 5).unwrap();
        let mut wrong_rows = Tensor::zeros(&[2, 5]);
        assert!(sparse_outer_acc(&mut wrong_rows, &g, &s).is_err());
        let mut wrong_cols = Tensor::zeros(&[3, 4]);
        assert!(sparse_outer_acc(&mut wrong_cols, &g, &s).is_err());
        let mut vec_acc = Tensor::zeros(&[15]);
        assert!(sparse_outer_acc(&mut vec_acc, &g, &s).is_err());
        let mut ok = Tensor::zeros(&[3, 5]);
        // Four gradient values for a three-row accumulator.
        assert!(sparse_outer_acc(&mut ok, &[0.0; 4], &s).is_err());
        assert!(sparse_outer_acc(&mut ok, &g, &s).is_ok());
    }

    #[test]
    fn conv_backward_matches_dense_all_geometries() {
        use crate::conv::conv2d_backward;
        for &(stride, padding, every) in &[
            (1usize, 0usize, 3usize),
            (1, 1, 2),
            (2, 0, 4),
            (2, 1, 3),
            (1, 2, 1), // 100% density: every input position active
        ] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels: 5,
                kernel: 3,
                stride,
                padding,
            };
            let (h, w) = (6, 5);
            let input_data: Vec<f32> = (0..2 * h * w)
                .map(|i| if i % every == 0 { 1.0 } else { 0.0 })
                .collect();
            let input = Tensor::from_vec(input_data, &[2, h, w]).unwrap();
            let events = SpikeVector::from_dense(&input).unwrap();
            let weight = Tensor::from_vec(
                (0..5 * 2 * 9).map(|i| (i as f32 * 0.77).cos()).collect(),
                &[5, 2, 3, 3],
            )
            .unwrap();
            let (oh, ow) = spec.output_hw(h, w);
            let grad_out = Tensor::from_vec(
                (0..5 * oh * ow).map(|i| (i as f32 * 0.41).sin()).collect(),
                &[5, oh, ow],
            )
            .unwrap();
            let dense = conv2d_backward(&input, &weight, &grad_out, &spec).unwrap();
            let sparse =
                sparse_conv2d_backward(&events, (h, w), &weight, &grad_out, &spec).unwrap();
            assert_eq!(
                sparse.input.as_slice(),
                dense.input.as_slice(),
                "stride {stride} pad {padding} every {every}: input grad"
            );
            assert_eq!(
                sparse.bias.as_slice(),
                dense.bias.as_slice(),
                "stride {stride} pad {padding} every {every}: bias grad"
            );
            assert_eq!(
                sparse.weight.as_slice(),
                dense.weight.as_slice(),
                "stride {stride} pad {padding} every {every}: weight grad"
            );
        }
    }

    #[test]
    fn conv_backward_validation() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let events = SpikeVector::new(vec![], 16).unwrap();
        let w = Tensor::ones(&[1, 1, 3, 3]);
        // Wrong grad_out shape.
        assert!(
            sparse_conv2d_backward(&events, (4, 4), &w, &Tensor::zeros(&[1, 3, 3]), &spec).is_err()
        );
        assert!(
            sparse_conv2d_backward(&events, (4, 4), &w, &Tensor::zeros(&[1, 2, 2]), &spec).is_ok()
        );
        // Wrong weight shape.
        assert!(sparse_conv2d_backward(
            &events,
            (4, 4),
            &Tensor::ones(&[1, 1, 2, 2]),
            &Tensor::zeros(&[1, 2, 2]),
            &spec
        )
        .is_err());
    }

    #[test]
    fn avg_pool_matches_dense() {
        let data: Vec<f32> = (0..2 * 4 * 4)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let input = Tensor::from_vec(data, &[2, 4, 4]).unwrap();
        let events = SpikeVector::from_dense(&input).unwrap();
        let sparse = sparse_avg_pool2d(&events, &[2, 4, 4], 2).unwrap();
        let dense = avg_pool2d(&input, 2).unwrap();
        assert_eq!(bits(&sparse), bits(&dense));
        // A full 5×5 window: 25 additions of 1/25 round away from
        // 25·(1/25), which both kernels compute.
        let full = Tensor::ones(&[1, 5, 5]);
        let events = SpikeVector::from_dense(&full).unwrap();
        let sparse = sparse_avg_pool2d(&events, &[1, 5, 5], 5).unwrap();
        assert_eq!(bits(&sparse), bits(&avg_pool2d(&full, 5).unwrap()));
    }

    #[test]
    fn max_pool_matches_dense() {
        let data: Vec<f32> = (0..4 * 4)
            .map(|i| if i == 5 || i == 10 { 1.0 } else { 0.0 })
            .collect();
        let input = Tensor::from_vec(data, &[1, 4, 4]).unwrap();
        let events = SpikeVector::from_dense(&input).unwrap();
        let sparse = sparse_max_pool2d(&events, &[1, 4, 4], 2).unwrap();
        let dense = max_pool2d(&input, 2).unwrap();
        assert_eq!(sparse.as_slice(), dense.output.as_slice());
    }

    #[test]
    fn pool_validation() {
        let events = SpikeVector::new(vec![], 16).unwrap();
        assert!(sparse_avg_pool2d(&events, &[1, 4, 4], 0).is_err());
        assert!(sparse_avg_pool2d(&events, &[1, 5, 4], 2).is_err());
        assert!(sparse_avg_pool2d(&events, &[4, 4], 2).is_err());
        assert!(sparse_max_pool2d(&events, &[1, 4, 5], 2).is_err());
        let wrong_len = SpikeVector::new(vec![], 8).unwrap();
        assert!(sparse_avg_pool2d(&wrong_len, &[1, 4, 4], 2).is_err());
    }

    /// The event-output max pool is `from_dense` of the dense-output
    /// pool, bit for bit: across windows, channel counts, densities
    /// 0–100%, output rows wider than one 64-bit mask word, and input
    /// given out of order or with repeats.
    #[test]
    fn event_max_pool_matches_sparse_max_pool() {
        let check = |input: &SpikeVector, dims: &[usize], k: usize, what: &str| {
            let events = sparse_max_pool2d_events(input, dims, k).unwrap();
            let dense = sparse_max_pool2d(input, dims, k).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&events.to_dense(dense.shape().dims()).unwrap()),
                bits(&dense),
                "{what}"
            );
            assert!(
                events.indices().windows(2).all(|p| p[0] < p[1]),
                "{what}: indices must be ascending and unique"
            );
            assert_eq!(Some(events), SpikeVector::from_dense(&dense), "{what}");
        };
        for (c, h, w, k) in [
            (1usize, 4usize, 4usize, 2usize),
            (3, 6, 9, 3),
            (2, 5, 7, 1),
            (2, 4, 140, 2), // 70 output columns: two mask words
            (1, 2, 128, 1), // exactly two full mask words
        ] {
            let len = c * h * w;
            for every in [1usize, 2, 3, 5, 11, len + 1] {
                let what = format!("{c}x{h}x{w} k {k} every {every}");
                let frame = binary_frame(len, every);
                let input = SpikeVector::from_dense(&frame).unwrap();
                check(&input, &[c, h, w], k, &what);
                // Reversed (descending) and repeated events take the
                // dense fallback and still pool to the same frame.
                let mut reversed: Vec<u32> = input.indices().to_vec();
                reversed.reverse();
                check(
                    &SpikeVector::new(reversed, len).unwrap(),
                    &[c, h, w],
                    k,
                    &what,
                );
                let repeated: Vec<u32> = input.indices().iter().flat_map(|&i| [i, i]).collect();
                check(
                    &SpikeVector::new(repeated, len).unwrap(),
                    &[c, h, w],
                    k,
                    &what,
                );
            }
        }
    }

    #[test]
    fn event_max_pool_validation_matches_sparse_max_pool() {
        let events = SpikeVector::new(vec![3], 16).unwrap();
        let wrong_len = SpikeVector::new(vec![], 8).unwrap();
        for (input, dims, k) in [
            (&events, &[1usize, 4, 4][..], 0usize),
            (&events, &[1, 5, 4][..], 2),
            (&events, &[1, 4, 5][..], 2),
            (&events, &[4, 4][..], 2),
            (&wrong_len, &[1, 4, 4][..], 2),
        ] {
            let expected = sparse_max_pool2d(input, dims, k).unwrap_err();
            assert_eq!(
                sparse_max_pool2d_events(input, dims, k).unwrap_err(),
                expected,
                "dims {dims:?} k {k}"
            );
        }
    }
}
