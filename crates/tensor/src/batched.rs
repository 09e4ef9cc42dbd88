//! Batched spike-plane kernels: B samples through one GEMM-shaped pass.
//!
//! The event-driven kernels in [`crate::sparse`] are matvec-shaped: one
//! sample's frame against the full weight matrix. When a batch of B
//! samples runs in lockstep (attack sweeps, dataset evaluation), that
//! shape re-streams every weight row B times — for MNIST-scale linear
//! layers the weights are megabytes while each frame's events are a few
//! hundred indices, so weight traffic dominates. This module packs B
//! spike frames into a CSR [`SpikeMatrix`] and provides kernels that
//! walk the weights *once per batch*:
//!
//! * [`PackedWeights`] — a weight matrix transposed once into
//!   32-byte-aligned 8-row panels (`panel[j·8 + l] = row_l[j]`), from
//!   f32 weights or straight from a reduced-precision plane. A layer
//!   packs once per weight change; the packed kernels below stream the
//!   panels at every batch size and density, one row included,
//! * [`sparse_matmul_bias_packed`] — `[out, in] × B events + bias
//!   → [B, out]`, panel-outer so each panel is walked by all B index
//!   lists while it is hot in cache, every event one aligned load per
//!   8 output rows,
//! * [`matmul_bt_bias_packed`] — the dense batched fallback
//!   (`X · Wᵀ + b`) for analog planes: sequential row dots, each panel
//!   streamed against four batch rows at a time under AVX2 dispatch,
//! * [`sparse_conv2d_batch_sorted`] — the event-sorted scatter conv
//!   over B stacked spike planes into a `[B, Cout·OH·OW]` block.
//!
//! The `_scalar` kernels ([`sparse_matmul_bias_scalar`],
//! [`sparse_matmul_bias_planed_scalar`], [`matmul_bt_bias_scalar`]) run
//! over the unpacked weights: they are the portable references every
//! packed kernel is pinned to and the engine's kernels under scalar
//! dispatch. [`matmul_bt_bias`] is the one per-call form, for the ANN
//! twin's dense layers, which hold no packed weights. One sample is a
//! one-row batch. Every row's result is
//! **bit-identical** to a per-sample reference — a gather row to
//! [`crate::linalg::matvec`] plus the bias on a binary row with finite
//! weights, a conv row to [`crate::sparse::sparse_conv2d`] on that row's
//! events — because each row runs the reference's per-output order and
//! never reads another row. That is what lets the fused batch forward
//! in `axsnn-core` give the same bits at every batch size.
//!
//! The fused engine calls the packed linear-layer kernels and the
//! event-sorted conv on its hot path. Pools and the row-by-row conv
//! have no batch form: inside the fused engine, batches mix
//! gate-admitted and dense rows per step, so it drives the shared
//! per-row primitives ([`crate::sparse::sparse_conv2d_into`], the event
//! pools) directly against its own row partition.
//!
//! # Example
//!
//! ```
//! use axsnn_tensor::batched::{sparse_matmul_bias_packed, PackedWeights, SpikeMatrix};
//! use axsnn_tensor::sparse::SpikeVector;
//! use axsnn_tensor::Tensor;
//!
//! # fn main() -> axsnn_tensor::Result<()> {
//! let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
//! let packed = PackedWeights::pack(&w)?; // once per weight change
//! let rows = vec![
//!     SpikeVector::new(vec![0], 3)?,
//!     SpikeVector::new(vec![1, 2], 3)?,
//! ];
//! let batch = SpikeMatrix::from_rows(&rows)?;
//! let bias = Tensor::from_vec(vec![0.5, -1.0], &[2])?;
//! let y = sparse_matmul_bias_packed(&packed, &batch, &bias)?;
//! assert_eq!(y.shape().dims(), &[2, 2]);
//! assert_eq!(y.as_slice(), &[1.5, 3.0, 5.5, 10.0]);
//! # Ok(())
//! # }
//! ```

use crate::conv::Conv2dSpec;
use crate::plane::{F16Lane, F32Lane, Int8Lane, PlaneView, WeightLane};
use crate::simd::{PanelLine, ROW_LANES};
use crate::sparse::{gather_row_lane, gather_row_x4, SpikeVector};
use crate::{Result, Tensor, TensorError};

/// A batch of binary spike frames in CSR form: one concatenated index
/// array plus row offsets, all rows sharing the same logical dense
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeMatrix {
    indices: Vec<u32>,
    row_ptr: Vec<usize>,
    cols: usize,
}

impl SpikeMatrix {
    /// Packs per-sample spike vectors into CSR form.
    ///
    /// An empty slice yields a 0-row matrix with zero columns.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the rows disagree on
    /// their logical dense length.
    pub fn from_rows(rows: &[SpikeVector]) -> Result<Self> {
        let cols = rows.first().map(SpikeVector::len).unwrap_or(0);
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(SpikeVector::nnz).sum();
        let mut indices = Vec::with_capacity(nnz);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![cols],
                    rhs: vec![r.len()],
                    op: "SpikeMatrix::from_rows",
                });
            }
            indices.extend_from_slice(r.indices());
            row_ptr.push(indices.len());
        }
        Ok(SpikeMatrix {
            indices,
            row_ptr,
            cols,
        })
    }

    /// An empty matrix (no rows yet) whose rows will be `cols` long,
    /// for [`SpikeMatrix::push_row`] to fill.
    pub fn new(cols: usize) -> SpikeMatrix {
        SpikeMatrix {
            indices: Vec::new(),
            row_ptr: vec![0],
            cols,
        }
    }

    /// Appends one row of active indices, copied as given.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when an index is out of
    /// bounds for [`SpikeMatrix::cols`]; the matrix is left unchanged.
    pub fn push_row(&mut self, indices: &[u32]) -> Result<()> {
        if let Some(&bad) = indices.iter().find(|&&j| j as usize >= self.cols) {
            return Err(TensorError::InvalidArgument {
                message: format!("spike index {bad} out of bounds for length {}", self.cols),
            });
        }
        self.indices.extend_from_slice(indices);
        self.row_ptr.push(self.indices.len());
        Ok(())
    }

    /// Number of batch rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Logical dense length of each row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of active spikes across the batch.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The active indices of batch row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.indices[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Mean fraction of active elements across the batch.
    pub fn density(&self) -> f32 {
        let total = self.rows() * self.cols;
        if total == 0 {
            0.0
        } else {
            self.indices.len() as f32 / total as f32
        }
    }

    /// Materializes the dense binary `[B, n]` tensor.
    pub fn to_dense(&self) -> Tensor {
        let b = self.rows();
        let mut out = vec![0.0f32; b * self.cols];
        for r in 0..b {
            let base = r * self.cols;
            for &j in self.row(r) {
                out[base + j as usize] = 1.0;
            }
        }
        Tensor::from_vec(out, &[b, self.cols]).expect("volume matches by construction")
    }
}

/// One leaky-integrate-and-fire step over a row-major `[B, n]` membrane
/// block (`shape = (B, n)`), returning the neurons that fired as one CSR
/// row per batch row.
///
/// Per element: `u = leak·v + I`, computed as a multiply then an add
/// (never a fused multiply-add); the neuron fires where `u ≥ threshold`
/// (a NaN never fires), its membrane resets to `+0.0` and otherwise
/// keeps `u`. When `pre` is given (`B·n` long) it receives every `u`,
/// the pre-reset membrane the surrogate gradient is evaluated at. Each
/// row lists its fired neurons in ascending order, each once — what
/// [`SpikeVector::from_dense`] yields on the binary spike row.
///
/// Under AVX2 dispatch eight neurons update per instruction and a
/// compare mask names the ones that fired; the result is bit-identical
/// to [`lif_fire_scalar`] (pinned by the `simd_equivalence` suite).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `membrane`, `current`
/// or a given `pre` is not `B·n` long, and
/// [`TensorError::InvalidArgument`] when `n` exceeds the spike index
/// range.
///
/// # Example
///
/// ```
/// use axsnn_tensor::batched::lif_fire;
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let mut v = vec![0.0f32; 4];
/// let spikes = lif_fire(&mut v, &[0.5, 1.0, 2.0, 0.0], None, (2, 2), 1.0, 0.9)?;
/// assert_eq!(spikes.row(0), &[1]); // 1.0 reaches the threshold
/// assert_eq!(spikes.row(1), &[0]);
/// assert_eq!(v, vec![0.5, 0.0, 0.0, 0.0]); // fired neurons reset
/// # Ok(())
/// # }
/// ```
pub fn lif_fire(
    membrane: &mut [f32],
    current: &[f32],
    pre: Option<&mut [f32]>,
    shape: (usize, usize),
    threshold: f32,
    leak: f32,
) -> Result<SpikeMatrix> {
    lif_fire_impl(
        membrane,
        current,
        pre,
        shape,
        (threshold, leak),
        crate::simd::active(),
    )
}

/// The portable scalar reference for [`lif_fire`]: one neuron at a
/// time, never the AVX2 backend. [`lif_fire`] is bit-identical to it
/// (membranes, pre-reset values and spike rows); `bench_simd` measures
/// the dispatched kernel against it.
///
/// # Errors
///
/// As [`lif_fire`].
pub fn lif_fire_scalar(
    membrane: &mut [f32],
    current: &[f32],
    pre: Option<&mut [f32]>,
    shape: (usize, usize),
    threshold: f32,
    leak: f32,
) -> Result<SpikeMatrix> {
    lif_fire_impl(membrane, current, pre, shape, (threshold, leak), false)
}

fn lif_fire_impl(
    membrane: &mut [f32],
    current: &[f32],
    pre: Option<&mut [f32]>,
    (b, n): (usize, usize),
    params: (f32, f32),
    simd: bool,
) -> Result<SpikeMatrix> {
    let len = b
        .checked_mul(n)
        .ok_or_else(|| TensorError::InvalidArgument {
            message: format!("a {b}x{n} membrane block overflows"),
        })?;
    for actual in [membrane.len(), current.len()]
        .into_iter()
        .chain(pre.as_ref().map(|p| p.len()))
    {
        if actual != len {
            return Err(TensorError::LengthMismatch {
                expected: len,
                actual,
            });
        }
    }
    if u32::try_from(n).is_err() {
        return Err(TensorError::InvalidArgument {
            message: format!("{n} neurons exceed the spike index range"),
        });
    }
    let mut out = SpikeMatrix::new(n);
    if n == 0 {
        out.row_ptr.resize(b + 1, 0);
        return Ok(out);
    }
    // Room for every neuron firing, so no row grows the index array.
    out.indices.reserve(len);
    out.row_ptr.reserve(b);
    match pre {
        Some(pre) => lif_rows::<true>(membrane, current, pre, n, params, simd, &mut out),
        None => lif_rows::<false>(membrane, current, &mut [], n, params, simd, &mut out),
    }
    Ok(out)
}

/// Steps every `n`-neuron row (`n > 0`) and appends its fired neurons
/// to `out`. Under `simd` the AVX2 backend takes each row's whole
/// 8-neuron blocks and the scalar loop the rest; without it the scalar
/// loop takes the row.
fn lif_rows<const RECORD: bool>(
    membrane: &mut [f32],
    current: &[f32],
    pre: &mut [f32],
    n: usize,
    (threshold, leak): (f32, f32),
    simd: bool,
    out: &mut SpikeMatrix,
) {
    let rows = membrane.chunks_exact_mut(n).zip(current.chunks_exact(n));
    for (r, (v, i)) in rows.enumerate() {
        let p: &mut [f32] = if RECORD {
            &mut pre[r * n..(r + 1) * n]
        } else {
            &mut []
        };
        let start = if simd {
            crate::simd::lif_fire_row::<RECORD>(v, i, p, threshold, leak, &mut out.indices)
        } else {
            0
        };
        for j in start..n {
            let u = leak * v[j] + i[j];
            if RECORD {
                p[j] = u;
            }
            if u >= threshold {
                out.indices.push(j as u32);
                v[j] = 0.0;
            } else {
                v[j] = u;
            }
        }
        out.row_ptr.push(out.indices.len());
    }
}

fn check_weight(w: &Tensor, cols: usize, op: &'static str) -> Result<(usize, usize)> {
    let (m, k) = matrix_dims(w, op)?;
    if cols != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![cols],
            op,
        });
    }
    Ok((m, k))
}

/// A `[rows, cols]` weight matrix packed once into the panel layout
/// the spike-plane and dense GEMMs stream: every whole 8-row tile as an
/// index-major panel of 32-byte-aligned lines (`panel[j·8 + l] =
/// row_l[j]`), and the rows past the last whole tile kept row-major for
/// the scalar lane tiles.
///
/// Packing is a one-off transpose of the whole matrix, so it belongs
/// with the weights, not with a call: a layer packs once per weight
/// change and every later GEMM — any batch size, any density, one row
/// included — streams the same panels
/// ([`sparse_matmul_bias_packed`], [`matmul_bt_bias_packed`]). The
/// panels hold the exact f32 values of the weights (for a
/// reduced-precision plane, the values its lanes decode), so a packed
/// GEMM is bit-identical to its scalar twin over the unpacked weights.
///
/// # Example
///
/// ```
/// use axsnn_tensor::batched::{
///     sparse_matmul_bias_packed, sparse_matmul_bias_scalar, PackedWeights, SpikeMatrix,
/// };
/// use axsnn_tensor::sparse::SpikeVector;
/// use axsnn_tensor::Tensor;
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let w = Tensor::from_vec((0..27).map(|i| i as f32 * 0.5).collect(), &[9, 3])?;
/// let bias = Tensor::zeros(&[9]);
/// let packed = PackedWeights::pack(&w)?;
/// let x = SpikeMatrix::from_rows(&[SpikeVector::new(vec![0, 2], 3)?])?;
/// let y = sparse_matmul_bias_packed(&packed, &x, &bias)?;
/// assert_eq!(y, sparse_matmul_bias_scalar(&w, &x, &bias)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// Tile `t` is lines `t·cols .. (t + 1)·cols`; line `j` holds column
    /// `j` of rows `8t .. 8t + 8`.
    panels: Vec<PanelLine>,
    /// Rows `rows − rows % 8 .. rows`, row-major.
    tail: Vec<f32>,
}

impl std::fmt::Debug for PackedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedWeights")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl PackedWeights {
    /// Packs an f32 weight matrix `[rows, cols]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a non-matrix `w`.
    pub fn pack(w: &Tensor) -> Result<PackedWeights> {
        let (m, k) = matrix_dims(w, "PackedWeights::pack")?;
        let mut packed = PackedWeights::zeroed(m, k);
        packed.fill(F32Lane(w.as_slice()));
        Ok(packed)
    }

    /// Packs a reduced-precision plane of `shape = (rows, cols)`
    /// weights, decoding each whole tile straight into its panel (the
    /// fused decode-and-transpose). Every panel value is bit-identical to
    /// the plane's [`crate::plane::QuantizedPlane::dequantize`] image, so
    /// the packed GEMMs give the bits of packing that image.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the plane does not
    /// hold `rows × cols` weights.
    pub fn pack_plane(weights: PlaneView<'_>, shape: (usize, usize)) -> Result<PackedWeights> {
        let mut packed = PackedWeights::zeroed(shape.0, shape.1);
        packed.repack_plane(weights)?;
        Ok(packed)
    }

    /// Re-packs new f32 weights of the same shape in place, allocating
    /// nothing — the once-per-update refresh of a trained layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a non-matrix `w` and
    /// [`TensorError::ShapeMismatch`] when its shape differs from the
    /// packed one; the panels are left unchanged.
    pub fn repack(&mut self, w: &Tensor) -> Result<()> {
        let dims = matrix_dims(w, "PackedWeights::repack")?;
        if dims != (self.rows, self.cols) {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.rows, self.cols],
                rhs: vec![dims.0, dims.1],
                op: "PackedWeights::repack",
            });
        }
        self.fill(F32Lane(w.as_slice()));
        Ok(())
    }

    /// [`PackedWeights::repack`] from a reduced-precision plane of the
    /// packed shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the plane does not
    /// hold `rows × cols` weights; the panels are left unchanged.
    pub fn repack_plane(&mut self, weights: PlaneView<'_>) -> Result<()> {
        let len = self.rows * self.cols;
        if weights.len() != len {
            return Err(TensorError::LengthMismatch {
                expected: len,
                actual: weights.len(),
            });
        }
        match weights {
            PlaneView::F16(bits) => self.fill(F16Lane(bits)),
            PlaneView::Int8 { codes, levels } => self.fill(Int8Lane { codes, levels }),
        }
        Ok(())
    }

    fn zeroed(rows: usize, cols: usize) -> PackedWeights {
        let whole = rows - rows % ROW_LANES;
        PackedWeights {
            rows,
            cols,
            panels: vec![PanelLine::default(); whole / ROW_LANES * cols],
            tail: vec![0.0; (rows - whole) * cols],
        }
    }

    /// Writes every panel and the tail rows from `wv`, which holds
    /// `rows × cols` weights row-major.
    fn fill<L: WeightLane>(&mut self, wv: L) {
        let k = self.cols;
        let whole = self.rows - self.rows % ROW_LANES;
        if k > 0 {
            for (t, panel) in self.panels.chunks_exact_mut(k).enumerate() {
                let lo = t * ROW_LANES * k;
                wv.slice(lo, lo + ROW_LANES * k).pack_panel8(k, panel);
            }
        }
        for (i, slot) in self.tail.iter_mut().enumerate() {
            *slot = wv.load(whole * k + i);
        }
    }

    /// The `n` panels from tile `t` on.
    fn tiles(&self, t: usize, n: usize) -> &[PanelLine] {
        &self.panels[t * self.cols..(t + n) * self.cols]
    }
}

/// `(rows, cols)` of a weight matrix.
fn matrix_dims(w: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    match *w.shape().dims() {
        [m, k] => Ok((m, k)),
        ref dims => Err(TensorError::RankMismatch {
            expected: 2,
            actual: dims.len(),
            op,
        }),
    }
}

/// Batched sparse product `Y = S · Wᵀ + b` over packed weights: the
/// spike-plane GEMM the fused engine runs at every batch size and
/// density, one row included. Each output sums its row's active columns
/// in ascending order from `+0.0` and adds the bias last — the
/// scalar lane tiles' order — so the result equals
/// [`sparse_matmul_bias_scalar`] on the unpacked weights bit for bit.
///
/// Under AVX2 dispatch four panels then one share each batch row's walk
/// of its index list ([`crate::simd`]'s `matmul_panels`), every event one
/// aligned 8-float load per panel; otherwise a scalar loop walks the
/// same panels. Rows past the last whole tile run the scalar lane
/// tiles. Row `b` does not depend on the other rows.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the spike length differs
/// from the packed column count or the bias length from the row count.
pub fn sparse_matmul_bias_packed(
    w: &PackedWeights,
    x: &SpikeMatrix,
    bias: &Tensor,
) -> Result<Tensor> {
    const OP: &str = "sparse_matmul_bias_packed";
    let (m, k) = (w.rows, w.cols);
    if x.cols() != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![x.cols()],
            op: OP,
        });
    }
    check_bias(bias, (m, k), OP)?;
    let bv = bias.as_slice();
    let mut out = vec![0.0f32; x.rows() * m];
    let tiles = m / ROW_LANES;
    let mut t = 0;
    if crate::simd::active() {
        t = panel_walk::<4>(w, x, bv, &mut out, t);
        t = panel_walk::<1>(w, x, bv, &mut out, t);
    }
    for t in t..tiles {
        let (panel, o) = (w.tiles(t, 1), t * ROW_LANES);
        for r in 0..x.rows() {
            let mut acc = [0.0f32; ROW_LANES];
            for &j in x.row(r) {
                for (a, &v) in acc.iter_mut().zip(&panel[j as usize].0) {
                    *a += v;
                }
            }
            let dst = &mut out[r * m + o..r * m + o + ROW_LANES];
            for ((d, a), b) in dst.iter_mut().zip(acc).zip(&bv[o..]) {
                *d = a + b;
            }
        }
    }
    lane_tiles(F32Lane(&w.tail), k, x, bv, tiles * ROW_LANES, &mut out);
    Tensor::from_vec(out, &[x.rows(), m])
}

/// The AVX2 panel walk over tiles `t..` in groups of `N` while whole
/// groups fit; returns the first tile left over.
fn panel_walk<const N: usize>(
    w: &PackedWeights,
    x: &SpikeMatrix,
    bias: &[f32],
    out: &mut [f32],
    mut t: usize,
) -> usize {
    let (m, k, width) = (w.rows, w.cols, N * ROW_LANES);
    while t + N <= m / ROW_LANES {
        let (panels, o) = (w.tiles(t, N), t * ROW_LANES);
        for r in 0..x.rows() {
            let dst = &mut out[r * m + o..r * m + o + width];
            crate::simd::matmul_panels::<N>(panels, k, x.row(r), &bias[o..o + width], dst);
        }
        t += N;
    }
    t
}

/// The portable scalar tile sweep over output rows `o0..bias.len()` —
/// the single source of truth for spike GEMM semantics. `wv` holds
/// those rows row-major, `k` weights each: the whole matrix from row 0
/// on the scalar paths, the rows past the last whole panel tile after
/// the packed walk.
fn lane_tiles<L: WeightLane>(
    wv: L,
    k: usize,
    x: &SpikeMatrix,
    bias: &[f32],
    o0: usize,
    out: &mut [f32],
) {
    let (b, m) = (x.rows(), bias.len());
    let row = |o: usize| wv.slice((o - o0) * k, (o - o0 + 1) * k);
    // Weight-row tiles of 4 stay L1-resident while all B index lists
    // gather against them — weight traffic is per *batch*, not per
    // sample, and each index load feeds 4 rows.
    let mut o = o0;
    while o + 4 <= m {
        let rows = [row(o), row(o + 1), row(o + 2), row(o + 3)];
        let bias4 = [bias[o], bias[o + 1], bias[o + 2], bias[o + 3]];
        for r in 0..b {
            gather_row_x4(rows, x.row(r), bias4, &mut out[r * m + o..r * m + o + 4]);
        }
        o += 4;
    }
    while o < m {
        let wrow = row(o);
        for r in 0..b {
            out[r * m + o] = gather_row_lane(wrow, x.row(r), bias[o]);
        }
        o += 1;
    }
}

fn check_bias(bias: &Tensor, (m, k): (usize, usize), op: &'static str) -> Result<()> {
    if bias.len() != m {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: bias.shape().dims().to_vec(),
            op,
        });
    }
    Ok(())
}

/// Batched sparse product `Y = S · Wᵀ + b` for a CSR spike batch `S`
/// of shape `[B, in]`, weights `[out, in]` and a per-output bias,
/// producing `[B, out]`, over the unpacked weights: the portable scalar
/// reference of the spike GEMM and the fused engine's kernel under
/// scalar dispatch. Each output sums its row's active columns in
/// ascending order from `+0.0` and adds the bias last, so on a binary
/// batch with finite weights it equals the dense
/// [`matmul_bt_bias_scalar`] and, row by row, `linalg::matvec` plus the
/// bias. Weight-row tiles of 4 stay cache-hot while every sample's index
/// list gathers against them, never panels. Row `b` does not depend on
/// the other rows, so it equals the one-row call on `rows[b]` bit for
/// bit.
///
/// [`sparse_matmul_bias_packed`] is bit-identical to this by
/// construction (pinned by the `simd_equivalence` suite); `bench_simd`
/// measures it against this.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-matrix `w` and
/// [`TensorError::ShapeMismatch`] when the spike length differs from
/// the weight column count or the bias length from the weight row
/// count.
pub fn sparse_matmul_bias_scalar(w: &Tensor, x: &SpikeMatrix, bias: &Tensor) -> Result<Tensor> {
    let (m, k) = check_weight(w, x.cols(), "sparse_matmul_bias_scalar")?;
    check_bias(bias, (m, k), "sparse_matmul_bias_scalar")?;
    let mut out = vec![0.0f32; x.rows() * m];
    lane_tiles(F32Lane(w.as_slice()), k, x, bias.as_slice(), 0, &mut out);
    Tensor::from_vec(out, &[x.rows(), m])
}

/// [`sparse_matmul_bias_scalar`] over a reduced-precision weight plane
/// of `shape = (rows, cols)` weights: the per-element in-register lane
/// decode through the same 4-row tiles, every accumulate in f32, so the
/// result is bit-identical to [`sparse_matmul_bias_scalar`] over the
/// plane's [`crate::plane::QuantizedPlane::dequantize`] tensor. The
/// engine's kernel for a planed linear layer under scalar dispatch; the
/// panels [`PackedWeights::pack_plane`] decodes give these bits too
/// (pinned by `simd_equivalence`), and `bench_simd` measures them
/// against this.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when the plane does not hold
/// `rows × cols` weights and [`TensorError::ShapeMismatch`] when the
/// spike or bias length disagrees with `shape`.
pub fn sparse_matmul_bias_planed_scalar(
    weights: PlaneView<'_>,
    shape: (usize, usize),
    x: &SpikeMatrix,
    bias: &Tensor,
) -> Result<Tensor> {
    let (m, k) = shape;
    check_planed(weights, shape, x, bias)?;
    let mut out = vec![0.0f32; x.rows() * m];
    let bv = bias.as_slice();
    match weights {
        PlaneView::F16(bits) => lane_tiles(F16Lane(bits), k, x, bv, 0, &mut out),
        PlaneView::Int8 { codes, levels } => {
            lane_tiles(Int8Lane { codes, levels }, k, x, bv, 0, &mut out)
        }
    }
    Tensor::from_vec(out, &[x.rows(), m])
}

fn check_planed(
    weights: PlaneView<'_>,
    shape: (usize, usize),
    x: &SpikeMatrix,
    bias: &Tensor,
) -> Result<()> {
    let (m, k) = shape;
    if weights.len() != m * k {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: weights.len(),
        });
    }
    if x.cols() != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![x.cols()],
            op: "sparse_matmul_bias_planed_scalar",
        });
    }
    check_bias(bias, shape, "sparse_matmul_bias_planed_scalar")
}

/// Checks a dense `X · Wᵀ + b` operand pair and bias against the weight
/// shape `(out, in)`, returning `B`.
fn check_dense_x(
    x: &Tensor,
    (m, k): (usize, usize),
    bias: &Tensor,
    op: &'static str,
) -> Result<usize> {
    let xdims = x.shape().dims();
    if xdims.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: xdims.len(),
            op,
        });
    }
    if xdims[1] != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: vec![xdims[1]],
            op,
        });
    }
    check_bias(bias, (m, k), op)?;
    Ok(xdims[0])
}

/// The scalar dense row dots for output columns `o0..m` of the `[B, m]`
/// block `out` — the single source of truth for dense GEMM semantics:
/// per element one accumulator from `+0.0`, `acc += w·x` over ascending
/// columns, the bias added after the sum. `w` holds rows `o0..m`,
/// row-major.
fn dense_rows_scalar(x: &[f32], w: &[f32], bias: &[f32], k: usize, o0: usize, out: &mut [f32]) {
    let m = bias.len();
    if m == 0 {
        return;
    }
    for (r, orow) in out.chunks_exact_mut(m).enumerate() {
        let xrow = &x[r * k..(r + 1) * k];
        for (o, slot) in orow.iter_mut().enumerate().skip(o0) {
            let wrow = &w[(o - o0) * k..(o - o0 + 1) * k];
            let mut acc = 0.0f32;
            for (&xi, &wi) in xrow.iter().zip(wrow) {
                acc += wi * xi;
            }
            *slot = acc + bias[o];
        }
    }
}

/// One 8-row panel against every row of the `[B, k]` block `x` into
/// output columns `o..o + 8` of the `[B, m]` block `out` (`m =
/// bias.len()`), in the scalar row dot's order per lane: the AVX2
/// four-row microkernel under dispatch, a scalar loop over the panel
/// lines otherwise.
fn dense_panel(panel: &[PanelLine], k: usize, x: &[f32], bias: &[f32], o: usize, out: &mut [f32]) {
    let m = bias.len();
    let mut init = [0.0f32; ROW_LANES];
    init.copy_from_slice(&bias[o..o + ROW_LANES]);
    if crate::simd::active() && k > 0 && !x.is_empty() {
        crate::simd::matmul_dense_panel8(panel, k, x, &init, &mut out[o..], m);
        return;
    }
    for (r, orow) in out.chunks_exact_mut(m).enumerate() {
        let mut acc = [0.0f32; ROW_LANES];
        for (line, &xj) in panel.iter().zip(&x[r * k..(r + 1) * k]) {
            for (a, &w) in acc.iter_mut().zip(&line.0) {
                *a += w * xj;
            }
        }
        for ((slot, a), b) in orow[o..o + ROW_LANES].iter_mut().zip(acc).zip(init) {
            *slot = a + b;
        }
    }
}

/// Dense batched product `Y = X · Wᵀ + b` over packed weights, for
/// analog (non-binary) planes: `x` is `[B, in]`, output `[B, out]` —
/// the fused engine's dense fallback on a packed layer.
///
/// Each output element is a sequential row dot with the bias added
/// *after* the sum, the order of [`matmul_bt_bias_scalar`], so the
/// result equals it bit for bit (pinned by the `simd_equivalence`
/// suite). Under AVX2 dispatch each panel streams against four batch
/// rows at a time; rows past the last whole tile run the scalar dots.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// when `x` is not a `[B, cols]` matrix or the bias length differs from
/// the packed row count.
pub fn matmul_bt_bias_packed(x: &Tensor, w: &PackedWeights, bias: &Tensor) -> Result<Tensor> {
    let (m, k) = (w.rows, w.cols);
    let b = check_dense_x(x, (m, k), bias, "matmul_bt_bias_packed")?;
    let (xv, bv) = (x.as_slice(), bias.as_slice());
    let mut out = vec![0.0f32; b * m];
    let tiles = m / ROW_LANES;
    for t in 0..tiles {
        dense_panel(w.tiles(t, 1), k, xv, bv, t * ROW_LANES, &mut out);
    }
    dense_rows_scalar(xv, &w.tail, bv, k, tiles * ROW_LANES, &mut out);
    Tensor::from_vec(out, &[b, m])
}

thread_local! {
    /// The panel [`matmul_bt_bias`] packs each tile into, kept per
    /// thread across calls. A fresh 32-byte-aligned buffer per call
    /// measured ~6% slower on the DVS benchmark's set-up, whose ANN
    /// training calls this on a 2048-wide layer.
    static DENSE_PANEL: std::cell::RefCell<Vec<PanelLine>> = const {
        std::cell::RefCell::new(Vec::new())
    };
}

/// Dense batched fallback `Y = X · Wᵀ + b` for analog (non-binary)
/// planes: `x` is `[B, in]`, `w` is `[out, in]`, output `[B, out]`.
///
/// Each output element is a sequential row dot with the bias added
/// *after* the sum — the same order as the per-sample
/// `matvec(w, x).add(bias)` path, so row `b` is bit-identical to the
/// per-sample dense result.
///
/// The per-call form for callers without a packed layer (the ANN twin's
/// layers, tests, benches): under AVX2 dispatch each 8-row weight tile
/// is packed into one panel, reused across tiles and calls on a thread,
/// just before it streams, so a one-shot call never materializes the
/// whole packed matrix; the result equals [`matmul_bt_bias_packed`] and
/// [`matmul_bt_bias_scalar`] bit for bit.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// when the operands are not conforming matrices or the bias length
/// differs from the weight row count.
pub fn matmul_bt_bias(x: &Tensor, w: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let (m, k) = matrix_dims(w, "matmul_bt_bias")?;
    let b = check_dense_x(x, (m, k), bias, "matmul_bt_bias")?;
    let (xv, wv, bv) = (x.as_slice(), w.as_slice(), bias.as_slice());
    let mut out = vec![0.0f32; b * m];
    let mut o = 0usize;
    if crate::simd::active() && b > 0 && k > 0 {
        DENSE_PANEL.with_borrow_mut(|panel| {
            panel.resize(k, PanelLine::default());
            let panel = &mut panel[..k];
            while o + ROW_LANES <= m {
                crate::simd::pack_rows8(&wv[o * k..(o + ROW_LANES) * k], k, panel);
                dense_panel(panel, k, xv, bv, o, &mut out);
                o += ROW_LANES;
            }
        });
    }
    dense_rows_scalar(xv, &wv[o * k..], bv, k, o, &mut out);
    Tensor::from_vec(out, &[b, m])
}

/// The portable scalar reference for [`matmul_bt_bias`]: always the
/// single-accumulator row-dot loop, never the panels.
///
/// [`matmul_bt_bias`] and [`matmul_bt_bias_packed`] are bit-identical
/// to this by construction (pinned by the `simd_equivalence` suite);
/// `bench_simd` measures the packed kernel against it.
///
/// # Errors
///
/// As [`matmul_bt_bias`].
pub fn matmul_bt_bias_scalar(x: &Tensor, w: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let (m, k) = matrix_dims(w, "matmul_bt_bias")?;
    let b = check_dense_x(x, (m, k), bias, "matmul_bt_bias")?;
    let mut out = vec![0.0f32; b * m];
    dense_rows_scalar(x.as_slice(), w.as_slice(), bias.as_slice(), k, 0, &mut out);
    Tensor::from_vec(out, &[b, m])
}

/// One event of the tile-sorted conv batch: the owning row's output
/// base offset plus the event's spatial coordinates. The input channel
/// is implicit — events are bucketed by channel before the sweep.
#[derive(Clone, Copy)]
struct SortedEvent {
    row_base: u32,
    iy: u32,
    ix: u32,
}

/// The shared loop geometry of one stride-1 patch sweep.
struct SweepGeometry {
    cout: usize,
    k: usize,
    oh: usize,
    ow: usize,
    ohw: usize,
    padding: usize,
}

/// Stride-1 patch sweep over one input-channel bucket: every event adds
/// the (kx-reversed) `[Cout, K, K]` weight patch `wrev` of the current
/// input channel onto its clipped output window with contiguous
/// row-adds.
///
/// `K` is the compile-time kernel side for the common sizes, so the
/// interior-event case (full `K`-wide rows) runs as fixed-length array
/// adds the compiler unrolls and vectorizes; border events take the
/// dynamic-length tail. Per output cell each event contributes exactly
/// once, so the patch traversal order is free — cells see their
/// contributing events in bucket order, which is the per-row ascending
/// `(ic, iy, ix)` order of the per-sample scatter.
fn stride1_patch_sweep<const K: usize>(
    out: &mut [f32],
    wrev: &[f32],
    bucket: &[SortedEvent],
    geo: &SweepGeometry,
) {
    let kk = K * K;
    let (cout, oh, ow, ohw, padding) = (geo.cout, geo.oh, geo.ow, geo.ohw, geo.padding);
    for ev in bucket {
        let iynum = ev.iy as usize + padding;
        let ixnum = ev.ix as usize + padding;
        // oy = iynum − ky ∈ [0, oh) and ox = ixnum − kx ∈ [0, ow)
        // bound the clipped output window.
        let oy_lo = iynum.saturating_sub(K - 1);
        let oy_hi = oh.min(iynum + 1);
        let ox_lo = ixnum.saturating_sub(K - 1);
        let ox_hi = ow.min(ixnum + 1);
        if oy_lo >= oy_hi || ox_lo >= ox_hi {
            continue;
        }
        let len = ox_hi - ox_lo;
        // Column j of the reversed row is kx = K−1−j, i.e. ox asc ⟺
        // j asc starting at j_lo (0 for interior events).
        let j_lo = (K - 1) - (ixnum - ox_lo);
        let row_base = ev.row_base as usize;
        if len == K {
            for oc in 0..cout {
                let obase = row_base + oc * ohw + ox_lo;
                let wbase = oc * kk;
                for oy in oy_lo..oy_hi {
                    let ky = iynum - oy;
                    let o = obase + oy * ow;
                    let s: &mut [f32; K] = (&mut out[o..o + K])
                        .try_into()
                        .expect("slice is exactly K long");
                    let w: &[f32; K] = (&wrev[wbase + ky * K..wbase + ky * K + K])
                        .try_into()
                        .expect("slice is exactly K long");
                    for j in 0..K {
                        s[j] += w[j];
                    }
                }
            }
        } else {
            for oc in 0..cout {
                let obase = row_base + oc * ohw + ox_lo;
                let wbase = oc * kk + j_lo;
                for oy in oy_lo..oy_hi {
                    let ky = iynum - oy;
                    let o = obase + oy * ow;
                    let wrow = &wrev[wbase + ky * K..wbase + ky * K + len];
                    for (slot, &wgt) in out[o..o + len].iter_mut().zip(wrow) {
                        *slot += wgt;
                    }
                }
            }
        }
    }
}

/// Dynamic-kernel-size fallback of [`stride1_patch_sweep`], identical
/// logic with runtime `k`.
fn stride1_patch_sweep_dyn(
    out: &mut [f32],
    wrev: &[f32],
    bucket: &[SortedEvent],
    geo: &SweepGeometry,
) {
    let (cout, k, oh, ow, ohw, padding) = (geo.cout, geo.k, geo.oh, geo.ow, geo.ohw, geo.padding);
    let kk = k * k;
    for ev in bucket {
        let iynum = ev.iy as usize + padding;
        let ixnum = ev.ix as usize + padding;
        let oy_lo = iynum.saturating_sub(k - 1);
        let oy_hi = oh.min(iynum + 1);
        let ox_lo = ixnum.saturating_sub(k - 1);
        let ox_hi = ow.min(ixnum + 1);
        if oy_lo >= oy_hi || ox_lo >= ox_hi {
            continue;
        }
        let len = ox_hi - ox_lo;
        let j_lo = (k - 1) - (ixnum - ox_lo);
        let row_base = ev.row_base as usize;
        for oc in 0..cout {
            let obase = row_base + oc * ohw + ox_lo;
            let wbase = oc * kk + j_lo;
            for oy in oy_lo..oy_hi {
                let ky = iynum - oy;
                let o = obase + oy * ow;
                let wrow = &wrev[wbase + ky * k..wbase + ky * k + len];
                for (slot, &wgt) in out[o..o + len].iter_mut().zip(wrow) {
                    *slot += wgt;
                }
            }
        }
    }
}

/// Event-**sorted** batched scatter convolution: B stacked `[Cin·H·W]`
/// spike planes into a `[B, Cout·OH·OW]` block, processing **all rows'
/// events per weight-stencil tile** instead of row by row.
///
/// The row-by-row scatter ([`crate::sparse::sparse_conv2d_into`] per
/// row) re-walks the weight stencil in event order for every row: each event touches
/// `Cout × K²` *strided* weight cells, so consecutive accumulates load
/// from `Cout` different cache lines even though the weights are cache
/// resident — which is why fused conv batches historically gained only
/// ~1.1×. This kernel reorders the work around the weights:
///
/// 1. **Sort pass** — a counting sort buckets every row's events by
///    input channel (the `[Cout, K, K]` stencil tile they drive),
///    preserving each row's ascending `(iy, ix)` order.
/// 2. **Tile sweep** — for each `(ic, ky)` kernel row, the valid
///    outputs of *all* B rows' bucketed events are collected once. For
///    stride-1 convs an event's whole kernel row collapses into one
///    **contiguous segment-add** (`ox = ix + padding − kx` is a
///    contiguous run), so each output channel reverses its k-float
///    weight row into a scratch buffer **once per batch** and streams
///    it across every segment with contiguous loads and stores on both
///    sides. Strided convs take a per-`(ic, ky, kx)` register-streamed
///    target list instead.
///
/// Weight traffic drops from `nnz × Cout × K²` strided loads to one
/// walk of the weight tensor per batch — the conv analogue of the
/// spike-plane GEMM's once-per-batch weight streaming — and the
/// per-event coordinate arithmetic shrinks from `K²` validity checks to
/// `K` window intersections, at the cost of one `O(nnz)` reordering
/// pass.
///
/// # Bit-for-bit equivalence
///
/// Row `b` equals [`crate::sparse::sparse_conv2d`] on that row's events
/// exactly. Per output cell `(r, oc, oy, ox)` the contributing
/// `(ic, ky, kx)` offsets biject onto the contributing input events
/// `(ic, iy, ix)` via `iy = oy·stride − padding + ky` (monotone in
/// `ky`, likewise `ix` in `kx`), so both kernels deliver each cell's
/// accumulates in ascending `(ic, iy, ix)` order — and within one
/// `(ic, ky, kx)` group every target cell receives exactly one add,
/// making the targets × `oc` loop order per cell irrelevant. The bias
/// fill precedes all accumulates in both kernels. Pinned by
/// `event_sorted_conv_batch_bitwise_matches_per_sample`.
///
/// # Errors
///
/// As [`crate::sparse::sparse_conv2d`] per row.
pub fn sparse_conv2d_batch_sorted(
    x: &SpikeMatrix,
    in_hw: (usize, usize),
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let n = spec.out_channels * oh * ow;
    let mut out = vec![0.0f32; x.rows() * n];
    sparse_conv2d_batch_sorted_into(x, in_hw, weight, bias, spec, &mut out)?;
    Tensor::from_vec(out, &[x.rows(), n])
}

/// [`sparse_conv2d_batch_sorted`] writing into a caller-provided
/// `[B · Cout·OH·OW]` buffer (fully overwritten: bias fill, then the
/// tile-sorted event sweep) — the form the fused batch engine drives so
/// admitted rows land directly in their slots of the current block.
///
/// # Errors
///
/// As [`sparse_conv2d_batch_sorted`], plus
/// [`TensorError::LengthMismatch`] when the buffer length differs from
/// `B × Cout·OH·OW`.
pub fn sparse_conv2d_batch_sorted_into(
    x: &SpikeMatrix,
    in_hw: (usize, usize),
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    crate::sparse::check_conv_geometry(x.cols(), in_hw, weight, spec)?;
    conv_batch_sorted_lane(x, in_hw, F32Lane(weight.as_slice()), bias, spec, out)
}

/// [`sparse_conv2d_batch_sorted_into`] streaming a reduced-precision
/// weight plane. The only places the sorted sweep reads weights are the
/// once-per-batch reversed-patch build (stride 1) and the per-stencil
/// register load (generic stride); both dequantize in-register there,
/// so every inner sweep loop — and with it the accumulation order — is
/// exactly the f32 kernel's, making the result bit-identical to
/// [`sparse_conv2d_batch_sorted_into`] over the plane's
/// [`crate::plane::QuantizedPlane::dequantize`] tensor.
///
/// # Errors
///
/// As [`sparse_conv2d_batch_sorted_into`], with
/// [`TensorError::LengthMismatch`] when the plane does not hold
/// `Cout·Cin·K·K` weights.
pub fn sparse_conv2d_batch_sorted_planed_into(
    x: &SpikeMatrix,
    in_hw: (usize, usize),
    weights: PlaneView<'_>,
    bias: &Tensor,
    spec: &Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    crate::sparse::check_conv_geometry_len(x.cols(), in_hw, weights.len(), spec)?;
    match weights {
        PlaneView::F16(bits) => conv_batch_sorted_lane(x, in_hw, F16Lane(bits), bias, spec, out),
        PlaneView::Int8 { codes, levels } => {
            conv_batch_sorted_lane(x, in_hw, Int8Lane { codes, levels }, bias, spec, out)
        }
    }
}

fn conv_batch_sorted_lane<L: WeightLane>(
    x: &SpikeMatrix,
    in_hw: (usize, usize),
    wv: L,
    bias: &Tensor,
    spec: &Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    if bias.len() != spec.out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.shape().dims().to_vec(),
            rhs: vec![spec.out_channels],
            op: "sparse_conv2d_batch_sorted bias",
        });
    }
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let hw = h * w;
    let ohw = oh * ow;
    let n = spec.out_channels * ohw;
    let b = x.rows();
    if out.len() != b * n {
        return Err(TensorError::LengthMismatch {
            expected: b * n,
            actual: out.len(),
        });
    }
    let bv = bias.as_slice();
    for r in 0..b {
        let row = &mut out[r * n..(r + 1) * n];
        for (oc, &bias_oc) in bv.iter().enumerate() {
            row[oc * ohw..(oc + 1) * ohw].fill(bias_oc);
        }
    }
    if x.nnz() == 0 {
        return Ok(());
    }

    // Sort pass: counting sort by input channel. Rows are visited in
    // ascending order and each row's events arrive in ascending flat
    // (iy, ix) order, so every bucket preserves the per-row ascending
    // spatial order the bit-identity argument needs.
    let cin = spec.in_channels;
    let mut bucket_start = vec![0usize; cin + 1];
    for r in 0..b {
        for &flat in x.row(r) {
            bucket_start[flat as usize / hw + 1] += 1;
        }
    }
    for ic in 0..cin {
        bucket_start[ic + 1] += bucket_start[ic];
    }
    let mut events = vec![
        SortedEvent {
            row_base: 0,
            iy: 0,
            ix: 0
        };
        x.nnz()
    ];
    let mut cursor: Vec<usize> = bucket_start[..cin].to_vec();
    for r in 0..b {
        let row_base = (r * n) as u32;
        for &flat in x.row(r) {
            let flat = flat as usize;
            let ic = flat / hw;
            let rem = flat % hw;
            events[cursor[ic]] = SortedEvent {
                row_base,
                iy: (rem / w) as u32,
                ix: (rem % w) as u32,
            };
            cursor[ic] += 1;
        }
    }

    let wstride = cin * k * k;
    if spec.stride == 1 {
        // Stride-1 fast path (every paper conv): for one event and one
        // kernel row ky, the valid kx offsets map onto a *contiguous*
        // run of output columns (ox = ix + padding − kx), so the whole
        // kernel row collapses into one contiguous segment-add against
        // the reversed weight row. Per (ic, ky) the segments of all B
        // rows' bucketed events are collected once; per output channel
        // the k-float weight row is reversed into a scratch buffer
        // once per batch and streamed across every segment — contiguous
        // loads and stores on both sides, no per-kx coordinate work.
        let cout = spec.out_channels;
        let kk = k * k;
        let geo = SweepGeometry {
            cout,
            k,
            oh,
            ow,
            ohw,
            padding: spec.padding,
        };
        // The kx-reversed [Cout, K, K] weight patch of the current
        // input-channel tile, built once per tile per *batch* — the one
        // pass over the conv weights the sort pays for.
        let mut wrev = vec![0.0f32; cout * kk];
        for ic in 0..cin {
            let bucket = &events[bucket_start[ic]..bucket_start[ic + 1]];
            if bucket.is_empty() {
                continue;
            }
            for oc in 0..cout {
                let src = oc * wstride + ic * kk;
                let dst = oc * kk;
                for ky in 0..k {
                    for j in 0..k {
                        wrev[dst + ky * k + j] = wv.load(src + ky * k + (k - 1 - j));
                    }
                }
            }
            match k {
                1 => stride1_patch_sweep::<1>(out, &wrev, bucket, &geo),
                3 => stride1_patch_sweep::<3>(out, &wrev, bucket, &geo),
                5 => stride1_patch_sweep::<5>(out, &wrev, bucket, &geo),
                7 => stride1_patch_sweep::<7>(out, &wrev, bucket, &geo),
                _ => stride1_patch_sweep_dyn(out, &wrev, bucket, &geo),
            }
        }
        return Ok(());
    }

    // Generic-stride path: per (ic, ky, kx) stencil offset, collect the
    // valid output targets of all bucketed events once, then stream
    // each output channel's single weight cell across them from a
    // register.
    let mut targets: Vec<u32> = Vec::with_capacity(events.len());
    for ic in 0..cin {
        let bucket = &events[bucket_start[ic]..bucket_start[ic + 1]];
        if bucket.is_empty() {
            continue;
        }
        for ky in 0..k {
            for kx in 0..k {
                targets.clear();
                for ev in bucket {
                    let oy_num = ev.iy as usize + spec.padding;
                    if oy_num < ky {
                        continue;
                    }
                    let oy_off = oy_num - ky;
                    if !oy_off.is_multiple_of(spec.stride) {
                        continue;
                    }
                    let oy = oy_off / spec.stride;
                    if oy >= oh {
                        continue;
                    }
                    let ox_num = ev.ix as usize + spec.padding;
                    if ox_num < kx {
                        continue;
                    }
                    let ox_off = ox_num - kx;
                    if !ox_off.is_multiple_of(spec.stride) {
                        continue;
                    }
                    let ox = ox_off / spec.stride;
                    if ox >= ow {
                        continue;
                    }
                    targets.push(ev.row_base + (oy * ow + ox) as u32);
                }
                if targets.is_empty() {
                    continue;
                }
                let wbase = ic * k * k + ky * k + kx;
                for oc in 0..spec.out_channels {
                    let wgt = wv.load(oc * wstride + wbase);
                    let off = oc * ohw;
                    // Distinct targets within one (ic, ky, kx) group
                    // (two events reaching the same cell through the
                    // same offset would be the same event), so the
                    // 4-wide unroll reorders nothing per cell.
                    let mut chunks = targets.chunks_exact(4);
                    for c in &mut chunks {
                        out[c[0] as usize + off] += wgt;
                        out[c[1] as usize + off] += wgt;
                        out[c[2] as usize + off] += wgt;
                        out[c[3] as usize + off] += wgt;
                    }
                    for &t in chunks.remainder() {
                        out[t as usize + off] += wgt;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use crate::sparse::sparse_conv2d;

    /// The spike GEMM the engine runs, over panels packed from `w`,
    /// checked bit for bit against its scalar reference.
    fn spike_gemm(w: &Tensor, x: &SpikeMatrix, bias: &Tensor) -> Result<Tensor> {
        let scalar = sparse_matmul_bias_scalar(w, x, bias)?;
        let packed = sparse_matmul_bias_packed(&PackedWeights::pack(w)?, x, bias)?;
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&packed), bits(&scalar));
        Ok(packed)
    }

    fn binary_rows(b: usize, n: usize, every: usize) -> Vec<SpikeVector> {
        (0..b)
            .map(|r| {
                let data: Vec<f32> = (0..n)
                    .map(|i| if (i + r) % every == 0 { 1.0 } else { 0.0 })
                    .collect();
                SpikeVector::from_dense(&Tensor::from_vec(data, &[n]).unwrap()).unwrap()
            })
            .collect()
    }

    #[test]
    fn sparse_matmul_bias_bitwise_matches_dense_rows() {
        let w =
            Tensor::from_vec((0..35).map(|i| (i as f32 * 0.29).sin()).collect(), &[5, 7]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0, -0.125], &[5]).unwrap();
        // `every == 1` gives 100%-dense rows: the gather must still be
        // bit-identical to both dense kernels there.
        for every in [1usize, 2, 3, 7] {
            let rows = binary_rows(3, 7, every);
            let batch = SpikeMatrix::from_rows(&rows).unwrap();
            let y = spike_gemm(&w, &batch, &bias).unwrap();
            assert_eq!(y.shape().dims(), &[3, 5]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let dense = matmul_bt_bias(&batch.to_dense(), &w, &bias).unwrap();
            assert_eq!(bits(y.as_slice()), bits(dense.as_slice()), "every {every}");
            for (r, row) in rows.iter().enumerate() {
                let dense_row = row.to_dense(&[7]).unwrap();
                let reference = linalg::matvec(&w, &dense_row).unwrap().add(&bias).unwrap();
                assert_eq!(
                    bits(&y.as_slice()[r * 5..(r + 1) * 5]),
                    bits(reference.as_slice()),
                    "every {every} row {r}"
                );
            }
        }
    }

    #[test]
    fn csr_structure_roundtrips() {
        let rows = binary_rows(3, 10, 3);
        let m = SpikeMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 10);
        assert!(!m.is_empty());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(m.row(r), row.indices());
        }
        assert_eq!(m.nnz(), rows.iter().map(SpikeVector::nnz).sum::<usize>());
        let dense = m.to_dense();
        assert_eq!(dense.shape().dims(), &[3, 10]);
        for (r, row) in rows.iter().enumerate() {
            let dense_row =
                Tensor::from_vec(dense.as_slice()[r * 10..(r + 1) * 10].to_vec(), &[10]);
            assert_eq!(
                SpikeVector::from_dense(&dense_row.unwrap()).as_ref(),
                Some(row)
            );
        }
    }

    #[test]
    fn push_row_appends_and_rejects_out_of_bounds_rows() {
        let rows = binary_rows(3, 10, 3);
        let mut m = SpikeMatrix::new(10);
        assert!(m.is_empty());
        for row in &rows {
            m.push_row(row.indices()).unwrap();
        }
        m.push_row(&[]).unwrap();
        let mut expected = rows.clone();
        expected.push(SpikeVector::new(vec![], 10).unwrap());
        assert_eq!(m, SpikeMatrix::from_rows(&expected).unwrap());
        assert!(m.push_row(&[2, 10]).is_err());
        assert_eq!(m.rows(), 4, "a rejected row leaves the matrix unchanged");
        assert_eq!(
            m.nnz(),
            expected.iter().map(SpikeVector::nnz).sum::<usize>()
        );
    }

    #[test]
    fn lif_fire_validates_block_lengths() {
        let (mut v, i) = (vec![0.0f32; 6], vec![0.5f32; 6]);
        assert!(lif_fire(&mut v, &i[..5], None, (2, 3), 1.0, 0.9).is_err());
        assert!(lif_fire(&mut v, &i, None, (2, 2), 1.0, 0.9).is_err());
        let mut short = vec![0.0f32; 5];
        assert!(lif_fire(&mut v, &i, Some(&mut short), (2, 3), 1.0, 0.9).is_err());
        assert_eq!(
            v,
            vec![0.0; 6],
            "a rejected step leaves the membranes unchanged"
        );
        let spikes = lif_fire_scalar(&mut [], &[], None, (4, 0), 1.0, 0.9).unwrap();
        assert_eq!((spikes.rows(), spikes.cols(), spikes.nnz()), (4, 0, 0));
    }

    #[test]
    fn from_rows_rejects_ragged_lengths() {
        let a = SpikeVector::new(vec![0], 4).unwrap();
        let b = SpikeVector::new(vec![1], 5).unwrap();
        assert!(SpikeMatrix::from_rows(&[a, b]).is_err());
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let m = SpikeMatrix::from_rows(&[]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.density(), 0.0);
        let w = Tensor::zeros(&[3, 0]);
        let y = spike_gemm(&w, &m, &Tensor::zeros(&[3])).unwrap();
        assert_eq!(y.shape().dims(), &[0, 3]);
    }

    #[test]
    fn matmul_rows_bitwise_match_per_sample_matvec() {
        let w = Tensor::from_vec(
            (0..7 * 13).map(|i| (i as f32 * 0.31).sin()).collect(),
            &[7, 13],
        )
        .unwrap();
        let bias = Tensor::from_vec((0..7).map(|i| i as f32 * 0.2 - 0.5).collect(), &[7]).unwrap();
        let rows = binary_rows(5, 13, 2);
        let batch = SpikeMatrix::from_rows(&rows).unwrap();
        let y = spike_gemm(&w, &batch, &Tensor::zeros(&[7])).unwrap();
        let yb = spike_gemm(&w, &batch, &bias).unwrap();
        assert_eq!(y.shape().dims(), &[5, 7]);
        for (r, row) in rows.iter().enumerate() {
            let dense = row.to_dense(&[13]).unwrap();
            let per_sample = linalg::matvec(&w, &dense).unwrap();
            assert_eq!(&y.as_slice()[r * 7..(r + 1) * 7], per_sample.as_slice());
            let per_sample_bias = per_sample.add(&bias).unwrap();
            assert_eq!(
                &yb.as_slice()[r * 7..(r + 1) * 7],
                per_sample_bias.as_slice()
            );
        }
    }

    #[test]
    fn matmul_shape_errors() {
        let batch = SpikeMatrix::from_rows(&binary_rows(2, 6, 2)).unwrap();
        let b3 = Tensor::zeros(&[3]);
        assert!(spike_gemm(&Tensor::zeros(&[3, 5]), &batch, &b3).is_err());
        assert!(spike_gemm(&Tensor::zeros(&[6]), &batch, &b3).is_err());
        let w = Tensor::zeros(&[3, 6]);
        assert!(spike_gemm(&w, &batch, &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn sparse_matmul_bias_shape_errors() {
        let w = Tensor::zeros(&[3, 4]);
        let batch = SpikeMatrix::from_rows(&binary_rows(2, 4, 2)).unwrap();
        assert!(spike_gemm(&w, &batch, &Tensor::zeros(&[2])).is_err());
        let short = SpikeMatrix::from_rows(&binary_rows(2, 3, 2)).unwrap();
        assert!(spike_gemm(&w, &short, &Tensor::zeros(&[3])).is_err());
        assert!(spike_gemm(&w, &batch, &Tensor::zeros(&[3])).is_ok());
    }

    #[test]
    fn dense_fallback_rows_bitwise_match_matvec_add() {
        let w = Tensor::from_vec(
            (0..4 * 9).map(|i| (i as f32 * 0.77).cos()).collect(),
            &[4, 9],
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0], &[4]).unwrap();
        let xdata: Vec<f32> = (0..3 * 9).map(|i| (i as f32 * 0.41).sin() * 0.5).collect();
        let x = Tensor::from_vec(xdata, &[3, 9]).unwrap();
        let y = matmul_bt_bias(&x, &w, &bias).unwrap();
        assert_eq!(y.shape().dims(), &[3, 4]);
        for r in 0..3 {
            let xrow = Tensor::from_vec(x.as_slice()[r * 9..(r + 1) * 9].to_vec(), &[9]).unwrap();
            let per_sample = linalg::matvec(&w, &xrow).unwrap().add(&bias).unwrap();
            assert_eq!(&y.as_slice()[r * 4..(r + 1) * 4], per_sample.as_slice());
        }
        assert!(matmul_bt_bias(&x, &Tensor::zeros(&[4, 8]), &bias).is_err());
        assert!(matmul_bt_bias(&x, &w, &Tensor::zeros(&[5])).is_err());
        assert!(matmul_bt_bias(&Tensor::zeros(&[9]), &w, &bias).is_err());
    }

    #[test]
    fn event_sorted_conv_batch_bitwise_matches_per_sample() {
        // The tile-sorted sweep must reproduce the per-row scatter's
        // exact f32 values across strides, paddings, densities
        // (including empty and 100%-dense rows) and channel counts that
        // exercise the 4-wide target unroll and its remainder.
        for &(stride, padding, every) in &[
            (1usize, 0usize, 3usize),
            (1, 1, 2),
            (2, 0, 5),
            (2, 1, 1), // 100% dense rows
            (1, 2, 4),
        ] {
            for (out_channels, kernel) in [(1usize, 3usize), (3, 3), (4, 5), (6, 3), (2, 1), (3, 2)]
            {
                let spec = Conv2dSpec {
                    in_channels: 2,
                    out_channels,
                    kernel,
                    stride,
                    padding,
                };
                let (h, w) = (6, 5);
                let mut rows = binary_rows(5, 2 * h * w, every);
                rows.push(SpikeVector::new(vec![], 2 * h * w).unwrap()); // empty row
                let batch = SpikeMatrix::from_rows(&rows).unwrap();
                let weight = Tensor::from_vec(
                    (0..out_channels * 2 * kernel * kernel)
                        .map(|i| (i as f32 * 0.13).sin())
                        .collect(),
                    &[out_channels, 2, kernel, kernel],
                )
                .unwrap();
                let bias = Tensor::from_vec(
                    (0..out_channels).map(|i| i as f32 * 0.3 - 0.5).collect(),
                    &[out_channels],
                )
                .unwrap();
                let sorted =
                    sparse_conv2d_batch_sorted(&batch, (h, w), &weight, &bias, &spec).unwrap();
                let (oh, ow) = spec.output_hw(h, w);
                let n = out_channels * oh * ow;
                assert_eq!(sorted.shape().dims(), &[rows.len(), n]);
                for (r, row) in rows.iter().enumerate() {
                    let per_sample = sparse_conv2d(row, (h, w), &weight, &bias, &spec).unwrap();
                    assert_eq!(
                        &sorted.as_slice()[r * n..(r + 1) * n],
                        per_sample.as_slice(),
                        "stride {stride} pad {padding} every {every} \
                         oc {out_channels} k {kernel} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_row_sorted_conv_bitwise_matches_per_sample() {
        for &(stride, padding, every, kernel) in &[
            (1usize, 2usize, 3usize, 5usize), // the paper's k=5 shape
            (1, 1, 2, 3),
            (2, 0, 4, 3),
            (1, 0, 1, 1), // 100% dense
        ] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels: 3,
                kernel,
                stride,
                padding,
            };
            let (h, w) = (7, 6);
            let weight = Tensor::from_vec(
                (0..3 * 2 * kernel * kernel)
                    .map(|i| (i as f32 * 0.17).sin())
                    .collect(),
                &[3, 2, kernel, kernel],
            )
            .unwrap();
            let bias = Tensor::from_vec(vec![0.5, -1.0, 0.25], &[3]).unwrap();
            for row in binary_rows(3, 2 * h * w, every) {
                let one = SpikeMatrix::from_rows(std::slice::from_ref(&row)).unwrap();
                let sorted =
                    sparse_conv2d_batch_sorted(&one, (h, w), &weight, &bias, &spec).unwrap();
                let scatter = sparse_conv2d(&row, (h, w), &weight, &bias, &spec).unwrap();
                assert_eq!(sorted.shape().dims(), &[1, scatter.len()]);
                assert_eq!(
                    sorted.as_slice(),
                    scatter.as_slice(),
                    "stride {stride} pad {padding} every {every} k {kernel}"
                );
            }
        }
        // Empty frame: bias-only output.
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let empty = SpikeVector::new(vec![], 16).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.25], &[2]).unwrap();
        let one = SpikeMatrix::from_rows(std::slice::from_ref(&empty)).unwrap();
        let y =
            sparse_conv2d_batch_sorted(&one, (4, 4), &Tensor::ones(&[2, 1, 3, 3]), &bias, &spec)
                .unwrap();
        let reference =
            sparse_conv2d(&empty, (4, 4), &Tensor::ones(&[2, 1, 3, 3]), &bias, &spec).unwrap();
        assert_eq!(y.as_slice(), reference.as_slice());
    }

    #[test]
    fn matmul_scalar_twins_bitwise_match_dispatched() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let (m, k) = (13, 9); // m % 8 ≠ 0, m % 4 ≠ 0: exercises remainders
        let w = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.23).sin()).collect(),
            &[m, k],
        )
        .unwrap();
        let bias = Tensor::from_vec((0..m).map(|i| i as f32 * 0.1 - 0.3).collect(), &[m]).unwrap();
        for (b, every) in [(1usize, 3usize), (4, 1), (9, 2)] {
            let batch = SpikeMatrix::from_rows(&binary_rows(b, k, every)).unwrap();
            let packed = PackedWeights::pack(&w).unwrap();
            let fast = sparse_matmul_bias_packed(&packed, &batch, &bias).unwrap();
            let scalar = sparse_matmul_bias_scalar(&w, &batch, &bias).unwrap();
            assert_eq!(fast.as_slice(), scalar.as_slice(), "b {b} every {every}");
            for plane in [WeightPlane::F16, WeightPlane::Int8] {
                let q = QuantizedPlane::quantize(w.as_slice(), plane)
                    .unwrap()
                    .unwrap();
                let packed = PackedWeights::pack_plane(q.view(), (m, k)).unwrap();
                let fast = sparse_matmul_bias_packed(&packed, &batch, &bias).unwrap();
                let scalar =
                    sparse_matmul_bias_planed_scalar(q.view(), (m, k), &batch, &bias).unwrap();
                for (a, r) in fast.as_slice().iter().zip(scalar.as_slice()) {
                    assert_eq!(a.to_bits(), r.to_bits(), "{plane} b {b} every {every}");
                }
            }
        }
    }

    #[test]
    fn event_sorted_conv_batch_validation() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let batch = SpikeMatrix::from_rows(&binary_rows(2, 16, 3)).unwrap();
        let bias = Tensor::zeros(&[2]);
        // Wrong weight shape.
        assert!(sparse_conv2d_batch_sorted(
            &batch,
            (4, 4),
            &Tensor::ones(&[2, 1, 2, 2]),
            &bias,
            &spec
        )
        .is_err());
        // Wrong bias length.
        assert!(sparse_conv2d_batch_sorted(
            &batch,
            (4, 4),
            &Tensor::ones(&[2, 1, 3, 3]),
            &Tensor::zeros(&[3]),
            &spec
        )
        .is_err());
        // Wrong output buffer length.
        let mut short = vec![0.0f32; 3];
        assert!(sparse_conv2d_batch_sorted_into(
            &batch,
            (4, 4),
            &Tensor::ones(&[2, 1, 3, 3]),
            &bias,
            &spec,
            &mut short
        )
        .is_err());
        // Empty batch is well-formed.
        let empty = SpikeMatrix::from_rows(&[]).unwrap();
        let y =
            sparse_conv2d_batch_sorted(&empty, (4, 4), &Tensor::ones(&[2, 1, 3, 3]), &bias, &spec);
        // 0-row SpikeMatrix has 0 cols, which cannot match 1x4x4.
        assert!(y.is_err());
    }

    #[test]
    fn planed_matmul_bitwise_matches_f32_over_dequantized_weights() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let (m, k) = (7, 13);
        let w = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.31).sin() * 2.0).collect(),
            &[m, k],
        )
        .unwrap();
        let bias = Tensor::from_vec((0..m).map(|i| i as f32 * 0.2 - 0.5).collect(), &[m]).unwrap();
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let q = QuantizedPlane::quantize(w.as_slice(), plane)
                .unwrap()
                .unwrap();
            let dq = Tensor::from_vec(q.dequantize(), &[m, k]).unwrap();
            // Batch sizes around the 4-row tile boundary and densities
            // including 100%.
            for (b, every) in [(1usize, 2usize), (3, 1), (4, 3), (5, 13), (8, 2)] {
                let rows = binary_rows(b, k, every);
                let batch = SpikeMatrix::from_rows(&rows).unwrap();
                let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let want = bits(spike_gemm(&dq, &batch, &bias).unwrap());
                let planed =
                    sparse_matmul_bias_planed_scalar(q.view(), (m, k), &batch, &bias).unwrap();
                assert_eq!(bits(planed), want, "{plane} b {b} every {every}");
                let packed = PackedWeights::pack_plane(q.view(), (m, k)).unwrap();
                let packed = sparse_matmul_bias_packed(&packed, &batch, &bias).unwrap();
                assert_eq!(bits(packed), want, "packed {plane} b {b} every {every}");
            }
        }
    }

    #[test]
    fn planed_matmul_shape_errors() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let q = QuantizedPlane::quantize(&[0.5; 12], WeightPlane::F16)
            .unwrap()
            .unwrap();
        let batch = SpikeMatrix::from_rows(&binary_rows(2, 4, 2)).unwrap();
        let planed = |shape, x: &SpikeMatrix, bias: usize| {
            sparse_matmul_bias_planed_scalar(q.view(), shape, x, &Tensor::zeros(&[bias]))
        };
        assert!(planed((3, 4), &batch, 3).is_ok());
        assert!(planed((4, 4), &batch, 4).is_err());
        assert!(PackedWeights::pack_plane(q.view(), (4, 4)).is_err());
        assert!(planed((3, 4), &batch, 2).is_err());
        let wide = SpikeMatrix::from_rows(&binary_rows(2, 5, 2)).unwrap();
        assert!(planed((3, 4), &wide, 3).is_err());
    }

    #[test]
    fn planed_sorted_conv_bitwise_matches_f32_over_dequantized_weights() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        for &(stride, padding, every) in
            &[(1usize, 1usize, 3usize), (1, 0, 2), (2, 1, 4), (1, 2, 1)]
        {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels: 3,
                kernel: 3,
                stride,
                padding,
            };
            let (h, w) = (6, 5);
            let weight = Tensor::from_vec(
                (0..3 * 2 * 9).map(|i| (i as f32 * 0.13).sin()).collect(),
                &[3, 2, 3, 3],
            )
            .unwrap();
            let bias = Tensor::from_vec(vec![0.5, -1.0, 0.25], &[3]).unwrap();
            let rows = binary_rows(4, 2 * h * w, every);
            let batch = SpikeMatrix::from_rows(&rows).unwrap();
            let (oh, ow) = spec.output_hw(h, w);
            let n = 3 * oh * ow;
            for plane in [WeightPlane::F16, WeightPlane::Int8] {
                let q = QuantizedPlane::quantize(weight.as_slice(), plane)
                    .unwrap()
                    .unwrap();
                let dq = Tensor::from_vec(q.dequantize(), &[3, 2, 3, 3]).unwrap();
                let mut planed = vec![0.0f32; 4 * n];
                sparse_conv2d_batch_sorted_planed_into(
                    &batch,
                    (h, w),
                    q.view(),
                    &bias,
                    &spec,
                    &mut planed,
                )
                .unwrap();
                let reference =
                    sparse_conv2d_batch_sorted(&batch, (h, w), &dq, &bias, &spec).unwrap();
                for (a, r) in planed.iter().zip(reference.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        r.to_bits(),
                        "{plane} stride {stride} pad {padding} every {every}"
                    );
                }
            }
        }
    }

    #[test]
    fn planed_sorted_conv_validation() {
        use crate::plane::{QuantizedPlane, WeightPlane};
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let batch = SpikeMatrix::from_rows(&binary_rows(2, 16, 3)).unwrap();
        let bias = Tensor::zeros(&[2]);
        // Plane length disagrees with Cout·Cin·K·K.
        let short = QuantizedPlane::quantize(&[1.0; 17], WeightPlane::Int8)
            .unwrap()
            .unwrap();
        let mut out = vec![0.0f32; 2 * 2 * 16];
        assert!(sparse_conv2d_batch_sorted_planed_into(
            &batch,
            (4, 4),
            short.view(),
            &bias,
            &spec,
            &mut out
        )
        .is_err());
        let ok = QuantizedPlane::quantize(&[1.0; 18], WeightPlane::Int8)
            .unwrap()
            .unwrap();
        assert!(sparse_conv2d_batch_sorted_planed_into(
            &batch,
            (4, 4),
            ok.view(),
            &bias,
            &spec,
            &mut out
        )
        .is_ok());
        // Wrong bias length.
        assert!(sparse_conv2d_batch_sorted_planed_into(
            &batch,
            (4, 4),
            ok.view(),
            &Tensor::zeros(&[3]),
            &spec,
            &mut out
        )
        .is_err());
    }
}
