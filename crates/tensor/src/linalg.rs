//! Dense linear-algebra kernels: matrix–vector products, transposes,
//! outer products and the backward's register-tiled row updates.
//!
//! The backward passes run [`matvec_t_block_into`] (`G·A`, the input
//! gradient of a block of rows) and [`outer_acc_run`] (a run of rank-1
//! weight-gradient updates). [`matvec`], [`transpose`], [`outer`] and
//! [`outer_acc`] are the per-sample references the tests pin those
//! kernels to, and the per-sample ANN reference walk runs them. The
//! batched dense forward `X · Wᵀ + b` lives in
//! [`crate::batched::matmul_bt_bias`].

use crate::{Result, Tensor, TensorError};

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    let dims = t.shape().dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: dims.len(),
            op,
        });
    }
    Ok((dims[0], dims[1]))
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
///
/// # Example
///
/// ```
/// use axsnn_tensor::{linalg, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let t = linalg::transpose(&a)?;
/// assert_eq!(t.shape().dims(), &[3, 2]);
/// assert_eq!(t.at(&[2, 1])?, 6.0);
/// # Ok(())
/// # }
/// ```
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = check_rank2(a, "transpose")?;
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Outer product of two rank-1 tensors: `C[i][j] = a[i]·b[j]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-vector inputs.
pub fn outer(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: a.shape().rank(),
            op: "outer",
        });
    }
    if b.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: b.shape().rank(),
            op: "outer",
        });
    }
    let m = a.len();
    let n = b.len();
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = av[i] * bv[j];
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Shard-level transposed product `GI = G·A` for a `[rows, m]` gradient
/// block against a `[m, n]` matrix — the input-gradient kernel of the
/// parallel minibatch backward and of the ANN twin's backward walk
/// (training and attack gradients alike).
///
/// Each output row is computed on its own: its nonzero coefficients
/// (exact zeros are skipped, NaN is kept) scale their rows of `A` into
/// the output row in ascending `p` order from `+0.0`, one accumulator
/// per cell. A skipped `±0` coefficient adds only `±0.0` terms, which
/// cannot change an accumulator that starts at `+0.0`, so each row
/// equals `matvec(&transpose(a), g_row)` bit for bit when `A` is finite.
/// Under AVX2 dispatch a 32-column tile of the output row stays in
/// registers across up to 32 coefficients at a time; the result is
/// bit-identical to the portable loop, [`matvec_t_block_into_scalar`].
///
/// `out` must be `rows × n` and is overwritten.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-matrix `a` and
/// [`TensorError::InvalidArgument`] naming the operand — `g` when it is
/// not `rows × m` long, `out` when it is not `rows × n` long — with its
/// expected and actual length.
///
/// # Example
///
/// ```
/// use axsnn_tensor::{linalg, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let mut out = [0.0f32; 2];
/// linalg::matvec_t_block_into(&a, &[1.0, 1.0], 1, &mut out)?;
/// assert_eq!(out, [4.0, 6.0]);
/// # Ok(())
/// # }
/// ```
pub fn matvec_t_block_into(a: &Tensor, g: &[f32], rows: usize, out: &mut [f32]) -> Result<()> {
    matvec_t_block_impl(a, g, rows, out, crate::simd::active())
}

/// The portable scalar reference for [`matvec_t_block_into`]: the same
/// skip set and per-cell add order, never the runtime-dispatched AVX2
/// tiles. Production callers want [`matvec_t_block_into`], which is
/// bit-identical to this by construction (pinned by the
/// `simd_equivalence` suite).
///
/// # Errors
///
/// As [`matvec_t_block_into`].
pub fn matvec_t_block_into_scalar(
    a: &Tensor,
    g: &[f32],
    rows: usize,
    out: &mut [f32],
) -> Result<()> {
    matvec_t_block_impl(a, g, rows, out, false)
}

fn matvec_t_block_impl(
    a: &Tensor,
    g: &[f32],
    rows: usize,
    out: &mut [f32],
    simd: bool,
) -> Result<()> {
    const OP: &str = "matvec_t_block";
    let (m, n) = check_rank2(a, OP)?;
    check_block_len(OP, "g", g.len(), rows, m)?;
    check_block_len(OP, "out", out.len(), rows, n)?;
    let av = a.as_slice();
    let mut terms: Vec<(f32, &[f32])> = Vec::with_capacity(m);
    for r in 0..rows {
        terms.clear();
        for (p, &gv) in g[r * m..(r + 1) * m].iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            terms.push((gv, &av[p * n..(p + 1) * n]));
        }
        let orow = &mut out[r * n..(r + 1) * n];
        orow.fill(0.0);
        scaled_row_sum(orow, &terms, simd);
    }
    Ok(())
}

/// Checks that the flat operand `operand` of `op` holds a
/// `[rows, cols]` block, naming it with its expected and actual length
/// otherwise.
fn check_block_len(op: &str, operand: &str, actual: usize, rows: usize, cols: usize) -> Result<()> {
    match rows.checked_mul(cols) {
        Some(expected) if expected == actual => Ok(()),
        expected => Err(TensorError::InvalidArgument {
            message: format!(
                "{op}: {operand} must hold [{rows}, {cols}] = {} values, got {actual}",
                expected.map_or_else(|| "more than usize::MAX".to_string(), |e| e.to_string())
            ),
        }),
    }
}

/// The portable loop both register-tiled kernels of this module
/// reproduce: `out[j] = out[j] + c·row[j]` for every `(c, row)` of
/// `terms` in order, the product rounded before the add. The AVX2
/// backend ([`crate::simd`]) keeps each column's add order and is
/// bit-identical to it.
fn scaled_row_sum_scalar(out: &mut [f32], terms: &[(f32, &[f32])]) {
    for &(c, row) in terms {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += c * x;
        }
    }
}

fn scaled_row_sum(out: &mut [f32], terms: &[(f32, &[f32])], simd: bool) {
    if simd {
        crate::simd::scaled_row_sum(out, terms);
    } else {
        scaled_row_sum_scalar(out, terms);
    }
}

/// In-place rank-1 accumulation `acc[i][j] += a[i]·b[j]` — the weight
/// gradient update of a linear layer, without the two tensor
/// allocations of `acc.add(&outer(a, b))`: [`outer_acc_run`] with a
/// one-term run.
///
/// Each accumulator cell receives exactly one add of the identical
/// product, so results are bit-identical to the allocate-then-add form.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-vector `a`/`b` or a
/// non-matrix `acc` and [`TensorError::ShapeMismatch`] when `acc` is
/// not `[a.len, b.len]`.
pub fn outer_acc(acc: &mut Tensor, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape().rank() != 1 || b.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: a.shape().rank().max(b.shape().rank()),
            op: "outer_acc",
        });
    }
    outer_acc_run(acc, &[(a.as_slice(), b.as_slice())])
}

/// A run of rank-1 updates `acc += g_e ⊗ x_e`, applied in run order:
/// every cell ends at `(((acc + g_0[i]·x_0[j]) + g_1[i]·x_1[j]) + …)`,
/// each product rounded before its add — exactly the bits of one
/// [`outer_acc`] call per term in order.
///
/// This is the weight-gradient pass of the batched backward: a shard
/// logs its per-step gradient rows and taped inputs, then adds them in
/// one call, so the `[m, n]` accumulator streams once per run instead
/// of once per term. Under AVX2 dispatch a 32-column tile of one
/// accumulator row stays in registers across up to 32 terms of the run
/// at a time; the result is bit-identical to the portable loop,
/// [`outer_acc_run_scalar`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-matrix `acc` and
/// [`TensorError::ShapeMismatch`] when a term is not
/// `(g: [m], x: [n])` for an `[m, n]` accumulator.
pub fn outer_acc_run(acc: &mut Tensor, terms: &[(&[f32], &[f32])]) -> Result<()> {
    outer_acc_run_impl(acc, terms, crate::simd::active())
}

/// The portable scalar reference for [`outer_acc_run`]: the same
/// per-cell add order, never the runtime-dispatched AVX2 tiles.
/// Production callers want [`outer_acc_run`], which is bit-identical
/// to this by construction (pinned by the `simd_equivalence` suite).
///
/// # Errors
///
/// As [`outer_acc_run`].
pub fn outer_acc_run_scalar(acc: &mut Tensor, terms: &[(&[f32], &[f32])]) -> Result<()> {
    outer_acc_run_impl(acc, terms, false)
}

fn outer_acc_run_impl(acc: &mut Tensor, terms: &[(&[f32], &[f32])], simd: bool) -> Result<()> {
    let (m, n) = check_rank2(acc, "outer_acc_run")?;
    if let Some((g, x)) = terms.iter().find(|(g, x)| g.len() != m || x.len() != n) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, n],
            rhs: vec![g.len(), x.len()],
            op: "outer_acc_run",
        });
    }
    if terms.is_empty() {
        return Ok(());
    }
    let accv = acc.as_mut_slice();
    let mut row_terms: Vec<(f32, &[f32])> = Vec::with_capacity(terms.len());
    for i in 0..m {
        row_terms.clear();
        row_terms.extend(terms.iter().map(|&(g, x)| (g[i], x)));
        scaled_row_sum(&mut accv[i * n..(i + 1) * n], &row_terms, simd);
    }
    Ok(())
}

/// Matrix–vector product `y = A·x` for a rank-2 `a` and rank-1 `x`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// when inputs are not a compatible matrix/vector pair.
///
/// # Example
///
/// ```
/// use axsnn_tensor::{linalg, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2])?;
/// let x = Tensor::from_vec(vec![3.0, 4.0], &[2])?;
/// assert_eq!(linalg::matvec(&a, &x)?.as_slice(), &[3.0, 8.0]);
/// # Ok(())
/// # }
/// ```
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a, "matvec")?;
    if x.shape().rank() != 1 || x.len() != k {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().dims().to_vec(),
            rhs: x.shape().dims().to_vec(),
            op: "matvec",
        });
    }
    let av = a.as_slice();
    let xv = x.as_slice();
    let mut out = vec![0.0f32; m];
    for i in 0..m {
        let row = &av[i * k..(i + 1) * k];
        // An explicit `+0.0` start: `Iterator::sum` starts f32 sums at
        // `-0.0`, which would keep an all-`-0.0` row at `-0.0` where the
        // batched kernels and the spike gathers give `+0.0`.
        out[i] = row.iter().zip(xv).fold(0.0f32, |acc, (&w, &v)| acc + w * v);
    }
    Tensor::from_vec(out, &[m])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, dims: &[usize]) -> Tensor {
        Tensor::from_vec(data, dims).unwrap()
    }

    /// `A·B` through the dense batched GEMM: `matmul_bt_bias(A, Bᵀ, 0)`.
    fn gemm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let bt = transpose(b)?;
        let bias = Tensor::zeros(&[bt.shape().dims()[0]]);
        crate::batched::matmul_bt_bias(a, &bt, &bias)
    }

    #[test]
    fn matmul_small() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = t(vec![0.0; 6], &[2, 3]);
        assert!(gemm(&a, &b).is_err());
        let v = t(vec![0.0; 3], &[3]);
        assert!(gemm(&v, &b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = t((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn outer_product() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![3.0, 4.0, 5.0], &[3]);
        let o = outer(&a, &b).unwrap();
        assert_eq!(o.shape().dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    /// `Aᵀ·x` for one coefficient row, through the block kernel.
    fn matvec_t_row(a: &Tensor, x: &Tensor) -> Result<Tensor> {
        let n = a.shape().dims().get(1).copied().unwrap_or(0);
        let mut out = vec![0.0f32; n];
        matvec_t_block_into(a, x.as_slice(), 1, &mut out)?;
        Tensor::from_vec(out, &[n])
    }

    #[test]
    fn matvec_t_bitwise_matches_transpose_matvec() {
        let a = t(
            (0..15).map(|i| (i as f32 * 0.73).sin() * 2.0).collect(),
            &[3, 5],
        );
        let x = t(vec![0.5, -1.25, 2.0], &[3]);
        let fast = matvec_t_row(&a, &x).unwrap();
        let reference = matvec(&transpose(&a).unwrap(), &x).unwrap();
        assert_eq!(fast.as_slice(), reference.as_slice());
        assert_eq!(fast.shape().dims(), &[5]);
    }

    #[test]
    fn matvec_t_blocked_matches_naive_reference() {
        // 11 coefficients, every third an exact zero the kernel skips.
        let a = t(
            (0..11 * 7).map(|i| ((i as f32) * 0.37).cos()).collect(),
            &[11, 7],
        );
        let x = t(
            (0..11)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i as f32) - 5.0 })
                .collect(),
            &[11],
        );
        let fast = matvec_t_row(&a, &x).unwrap();
        let mut naive = vec![0.0f32; 7];
        for (i, &xi) in x.as_slice().iter().enumerate() {
            for (j, o) in naive.iter_mut().enumerate() {
                *o += a.as_slice()[i * 7 + j] * xi;
            }
        }
        assert_eq!(fast.as_slice(), naive.as_slice());
    }

    #[test]
    fn matvec_t_block_matches_per_row_thresholded() {
        let a = t(
            (0..9 * 6)
                .map(|i| ((i as f32) * 0.53).sin() * 1.5)
                .collect(),
            &[9, 6],
        );
        let rows = 4;
        let g: Vec<f32> = (0..rows * 9)
            .map(|i| {
                let v = ((i as f32) * 0.71).cos();
                if i % 5 == 0 {
                    v * 1e-7
                } else {
                    v
                }
            })
            .collect();
        let mut block = vec![0.0f32; rows * 6];
        matvec_t_block_into(&a, &g, rows, &mut block).unwrap();
        let at = transpose(&a).unwrap();
        for r in 0..rows {
            let x = t(g[r * 9..(r + 1) * 9].to_vec(), &[9]);
            let per_row = matvec(&at, &x).unwrap();
            assert_eq!(&block[r * 6..(r + 1) * 6], per_row.as_slice(), "row {r}");
        }
    }

    #[test]
    fn matvec_t_block_rejects_bad_shapes() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let mut out = vec![0.0f32; 3];
        assert!(matvec_t_block_into(&a, &[0.0; 3], 1, &mut out).is_err());
        assert!(matvec_t_block_into(&a, &[0.0; 2], 1, &mut [0.0; 2]).is_err());
        assert!(matvec_t_block_into(&a, &[0.0; 2], 1, &mut out).is_ok());
    }

    #[test]
    fn matvec_t_block_names_a_wrong_g() {
        // Three values are not a whole number of two-wide rows.
        let a = t(vec![0.0; 6], &[2, 3]);
        let mut out = vec![0.0f32; 6];
        let err = matvec_t_block_into(&a, &[0.0; 3], 2, &mut out)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("g must hold [2, 2] = 4 values, got 3"),
            "{err}"
        );
    }

    #[test]
    fn matvec_t_block_names_a_wrong_out() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let mut out = vec![0.0f32; 5];
        let err = matvec_t_block_into(&a, &[0.0; 4], 2, &mut out)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("out must hold [2, 3] = 6 values, got 5"),
            "{err}"
        );
    }

    #[test]
    fn outer_acc_run_equals_one_outer_acc_per_term() {
        let g = [[1.5f32, -0.5, 0.0], [0.25, 3.0, -0.0], [-2.0, 0.75, 1.0]];
        let x = [[0.5f32, -1.0], [2.0, 0.125], [-0.0, 4.0]];
        let start: Vec<f32> = vec![0.1, -0.2, 0.3, 0.0, -0.0, 0.6];
        let mut sequential = t(start.clone(), &[3, 2]);
        for (ge, xe) in g.iter().zip(&x) {
            outer_acc(
                &mut sequential,
                &t(ge.to_vec(), &[3]),
                &t(xe.to_vec(), &[2]),
            )
            .unwrap();
        }
        let terms: Vec<(&[f32], &[f32])> =
            g.iter().zip(&x).map(|(a, b)| (&a[..], &b[..])).collect();
        let mut run = t(start, &[3, 2]);
        outer_acc_run(&mut run, &terms).unwrap();
        let bits = |v: &Tensor| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run), bits(&sequential));
    }

    #[test]
    fn outer_acc_run_rejects_bad_shapes() {
        let mut acc = Tensor::zeros(&[2, 3]);
        assert!(outer_acc_run(&mut acc, &[(&[0.0; 2], &[0.0; 3])]).is_ok());
        assert!(outer_acc_run(&mut acc, &[(&[0.0; 3], &[0.0; 3])]).is_err());
        assert!(outer_acc_run(&mut acc, &[(&[0.0; 2], &[0.0; 2])]).is_err());
        assert!(outer_acc_run(&mut Tensor::zeros(&[6]), &[]).is_err());
    }

    #[test]
    fn matvec_t_rejects_bad_shapes() {
        let a = t(vec![0.0; 6], &[2, 3]);
        assert!(matvec_t_row(&a, &t(vec![0.0; 3], &[3])).is_err());
        assert!(matvec_t_row(&t(vec![0.0; 2], &[2]), &t(vec![0.0; 2], &[2])).is_err());
    }

    #[test]
    fn outer_acc_bitwise_matches_add_outer() {
        let a = t(vec![1.5, -0.5], &[2]);
        let b = t(vec![0.25, 2.0, -3.0], &[3]);
        let mut acc = t(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[2, 3]);
        let reference = acc.add(&outer(&a, &b).unwrap()).unwrap();
        outer_acc(&mut acc, &a, &b).unwrap();
        assert_eq!(acc.as_slice(), reference.as_slice());
    }

    #[test]
    fn outer_acc_rejects_bad_shapes() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0], &[1]);
        let mut wrong = Tensor::zeros(&[2, 2]);
        assert!(outer_acc(&mut wrong, &a, &b).is_err());
        let mut mat = Tensor::zeros(&[2, 1]);
        assert!(outer_acc(&mut mat, &t(vec![0.0; 4], &[2, 2]), &b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let x = t(vec![1.0, 0.5, -1.0], &[3]);
        let y = matvec(&a, &x).unwrap();
        let xm = x.reshape(&[3, 1]).unwrap();
        let ym = gemm(&a, &xm).unwrap();
        assert_eq!(y.as_slice(), ym.as_slice());
    }

    /// An all-negative weight row on an all-zero input with a `-0.0`
    /// bias: every term is `-0.0`, so a sum started at `-0.0` would end
    /// there. The per-sample dense path, the batched dense kernel and
    /// the spike gather all start at `+0.0` and give `+0.0`.
    #[test]
    fn signed_zero_row_is_positive_zero_in_every_kernel() {
        use crate::batched::{
            matmul_bt_bias, sparse_matmul_bias_packed, sparse_matmul_bias_scalar, PackedWeights,
            SpikeMatrix,
        };
        use crate::sparse::SpikeVector;
        let w = t(vec![-1.0, -2.0, -0.5], &[1, 3]);
        let x = Tensor::zeros(&[3]);
        let bias = t(vec![-0.0], &[1]);
        let events = SpikeVector::from_dense(&x).unwrap();
        let batch = SpikeMatrix::from_rows(std::slice::from_ref(&events)).unwrap();
        let outputs = [
            ("matvec", matvec(&w, &x).unwrap().add(&bias).unwrap()),
            (
                "matmul_bt_bias",
                matmul_bt_bias(&x.reshape(&[1, 3]).unwrap(), &w, &bias).unwrap(),
            ),
            (
                "sparse_matmul_bias_scalar",
                sparse_matmul_bias_scalar(&w, &batch, &bias).unwrap(),
            ),
            (
                "sparse_matmul_bias_packed",
                sparse_matmul_bias_packed(&PackedWeights::pack(&w).unwrap(), &batch, &bias)
                    .unwrap(),
            ),
        ];
        for (name, y) in outputs {
            assert_eq!(y.as_slice()[0].to_bits(), 0.0f32.to_bits(), "{name}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(vec![2.0, -1.0, 0.5, 3.0], &[2, 2]);
        let i = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(gemm(&a, &i).unwrap(), a);
        assert_eq!(gemm(&i, &a).unwrap(), a);
    }
}
