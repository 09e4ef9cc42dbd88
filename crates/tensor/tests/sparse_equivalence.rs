//! Property tests pinning the event-driven sparse kernels to their dense
//! counterparts: for every random shape, stride, padding, pool window
//! and spike density — including the 0% and 100% extremes — the sparse
//! forward path must equal the dense path bit for bit. Each sparse
//! kernel sums in its dense twin's order, and the dense kernels'
//! inactive terms are exact zeros, so no tolerance is needed.

use axsnn_tensor::batched::{
    matmul_bt_bias, sparse_matmul_bias_packed, sparse_matmul_bias_scalar, PackedWeights,
    SpikeMatrix,
};
use axsnn_tensor::conv::{avg_pool2d, conv2d, max_pool2d, Conv2dSpec};
use axsnn_tensor::sparse::{sparse_avg_pool2d, sparse_conv2d, sparse_max_pool2d, SpikeVector};
use axsnn_tensor::{linalg, Tensor};
use proptest::prelude::*;

/// A binary frame of `len` elements: cell `i` spikes iff
/// `hash(i, salt)` lands under `density`. Covers 0% and 100% exactly.
fn binary_frame(len: usize, density: f32, salt: u64) -> Tensor {
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
            if unit < density {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, &[len]).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The spike GEMM both ways: over panels packed from `w` (the engine's
/// kernel) and its scalar twin over `w`.
fn spike_gemms(w: &Tensor, x: &SpikeMatrix, b: &Tensor) -> [Tensor; 2] {
    let packed = PackedWeights::pack(w).unwrap();
    [
        sparse_matmul_bias_packed(&packed, x, b).unwrap(),
        sparse_matmul_bias_scalar(w, x, b).unwrap(),
    ]
}

fn weights(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32 + salt as f32) * 0.7311).sin() * 2.0)
        .collect()
}

/// Densities to exercise: the paper-realistic regime (≤10–20%), the
/// threshold boundary, and both degenerate extremes.
fn density_strategy() -> impl Strategy<Value = f32> {
    (0u8..6).prop_map(|k| match k {
        0 => 0.0,
        1 => 0.01,
        2 => 0.1,
        3 => 0.2,
        4 => 0.5,
        _ => 1.0,
    })
}

proptest! {
    /// The one-row spike gather (the packed spike GEMM and its scalar
    /// twin on a one-row batch) equals dense matvec+bias bit for bit on
    /// random layer shapes and densities.
    #[test]
    fn matvec_equivalence(
        rows in 1usize..40,
        cols in 1usize..60,
        density in density_strategy(),
        salt in 0u64..1000,
    ) {
        let w = Tensor::from_vec(weights(rows * cols, salt), &[rows, cols]).unwrap();
        let b = Tensor::from_vec(weights(rows, salt ^ 0xabcd), &[rows]).unwrap();
        let x = binary_frame(cols, density, salt);
        let events = SpikeVector::from_dense(&x).expect("frame is binary");
        let row = SpikeMatrix::from_rows(std::slice::from_ref(&events)).unwrap();
        let dense = linalg::matvec(&w, &x).unwrap().add(&b).unwrap();
        for sparse in spike_gemms(&w, &row, &b) {
            prop_assert_eq!(bits(&sparse), bits(&dense));
        }
    }

    /// Scatter conv equals direct dense conv bit for bit across
    /// strides, paddings, kernel sizes, channel counts and densities.
    #[test]
    fn conv_equivalence(
        cin in 1usize..4,
        cout in 1usize..5,
        kernel in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..3,
        h in 4usize..12,
        w in 4usize..12,
        density in density_strategy(),
        salt in 0u64..1000,
    ) {
        // Clamp the geometry so the kernel always fits the padded input
        // (the reject case is validated separately below).
        let kernel = kernel.min(h + 2 * padding).min(w + 2 * padding);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel, stride, padding };
        let input = binary_frame(cin * h * w, density, salt)
            .reshape(&[cin, h, w])
            .unwrap();
        let weight = Tensor::from_vec(
            weights(cout * cin * kernel * kernel, salt),
            &[cout, cin, kernel, kernel],
        )
        .unwrap();
        let bias = Tensor::from_vec(weights(cout, salt ^ 0x77), &[cout]).unwrap();
        let dense = conv2d(&input, &weight, &bias, &spec).unwrap();
        let events = SpikeVector::from_dense(&input).expect("frame is binary");
        let sparse = sparse_conv2d(&events, (h, w), &weight, &bias, &spec).unwrap();
        prop_assert_eq!(sparse.shape().dims(), dense.shape().dims());
        prop_assert_eq!(bits(&sparse), bits(&dense), "stride {} pad {}", stride, padding);
    }

    /// Both paths reject a kernel that does not fit the padded input.
    #[test]
    fn conv_rejects_oversized_kernel_consistently(
        h in 1usize..3,
        w in 1usize..3,
        kernel in 4usize..6,
    ) {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel, stride: 1, padding: 0 };
        let input = Tensor::zeros(&[1, h, w]);
        let weight = Tensor::zeros(&[1, 1, kernel, kernel]);
        let bias = Tensor::zeros(&[1]);
        let events = SpikeVector::from_dense(&input).unwrap();
        prop_assert!(conv2d(&input, &weight, &bias, &spec).is_err());
        prop_assert!(sparse_conv2d(&events, (h, w), &weight, &bias, &spec).is_err());
    }

    /// Sparse pooling equals dense pooling bit for bit on binary
    /// frames, for windows up to 7 (from k = 5 on, adding `1/k²` per
    /// spike would round away from the dense kernel's scaled count).
    #[test]
    fn pooling_equivalence(
        c in 1usize..4,
        oh in 1usize..6,
        ow in 1usize..6,
        k in 1usize..8,
        density in density_strategy(),
        salt in 0u64..1000,
    ) {
        let (h, w) = (oh * k, ow * k);
        let input = binary_frame(c * h * w, density, salt)
            .reshape(&[c, h, w])
            .unwrap();
        let events = SpikeVector::from_dense(&input).expect("frame is binary");
        let dense_avg = avg_pool2d(&input, k).unwrap();
        let sparse_avg = sparse_avg_pool2d(&events, &[c, h, w], k).unwrap();
        prop_assert_eq!(bits(&sparse_avg), bits(&dense_avg), "k {}", k);
        let dense_max = max_pool2d(&input, k).unwrap();
        let sparse_max = sparse_max_pool2d(&events, &[c, h, w], k).unwrap();
        prop_assert_eq!(bits(&sparse_max), bits(&dense_max.output));
    }

    /// Every row of the batched spike-plane GEMM equals the per-sample
    /// dense matvec plus bias on that row, and the whole block the
    /// dense batched kernel on the same frames — the invariants the
    /// batched engine's and the plans' bit-for-bit guarantees rest on.
    #[test]
    fn batched_matmul_rows_bitwise_equal_matvec(
        batch in 1usize..16,
        rows in 1usize..24,
        cols in 1usize..48,
        density in density_strategy(),
        salt in 0u64..1000,
    ) {
        let w = Tensor::from_vec(weights(rows * cols, salt), &[rows, cols]).unwrap();
        let b = Tensor::from_vec(weights(rows, salt ^ 0xabcd), &[rows]).unwrap();
        let frames: Vec<SpikeVector> = (0..batch)
            .map(|r| {
                let x = binary_frame(cols, density, salt.wrapping_add(r as u64));
                SpikeVector::from_dense(&x).expect("frame is binary")
            })
            .collect();
        let matrix = SpikeMatrix::from_rows(&frames).unwrap();
        let [fused, scalar] = spike_gemms(&w, &matrix, &b);
        prop_assert_eq!(bits(&fused), bits(&scalar));
        prop_assert_eq!(fused.shape().dims(), &[batch, rows]);
        let dense = matmul_bt_bias(&matrix.to_dense(), &w, &b).unwrap();
        prop_assert_eq!(bits(&fused), bits(&dense));
        for (r, events) in frames.iter().enumerate() {
            let x = events.to_dense(&[cols]).unwrap();
            let per_sample = linalg::matvec(&w, &x).unwrap().add(&b).unwrap();
            prop_assert_eq!(
                &fused.as_slice()[r * rows..(r + 1) * rows],
                per_sample.as_slice()
            );
        }
    }

    /// Round trip dense → events → dense is the identity on binary
    /// frames, and the density gate agrees with the measured density.
    #[test]
    fn conversion_roundtrip_and_gate(
        len in 1usize..400,
        density in density_strategy(),
        salt in 0u64..1000,
        threshold in 0.0f32..1.0,
    ) {
        let frame = binary_frame(len, density, salt);
        let events = SpikeVector::from_dense(&frame).expect("binary");
        prop_assert_eq!(events.to_dense(&[len]).unwrap(), frame.clone());
        let gated = SpikeVector::from_slice_if_sparse(frame.as_slice(), threshold);
        let admitted = events.nnz() as f32 <= (threshold as f64 * len as f64).floor() as f32
            && threshold > 0.0;
        prop_assert_eq!(gated.is_some(), admitted);
    }
}
