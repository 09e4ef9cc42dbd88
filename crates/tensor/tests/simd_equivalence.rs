//! Property tests pinning the runtime-dispatched kernel layer to the
//! portable scalar truth path **bit-for-bit** — not within a tolerance.
//! The SIMD lanes map to distinct output rows and each runs the scalar
//! gather's one-accumulator sum (ascending indices from `+0.0`, bias
//! last), so for every density (0–100%), batch size (1–32), weight
//! plane and remainder lane count (`m % 8 ≠ 0`, `m % 16 ≠ 0`) the
//! dispatched result must equal the scalar twin's output to the bit.
//! An all-negative weight row on an empty frame pins the signed-zero
//! edge: every gather and the dense kernel give `+0.0`.
//!
//! The dense analog-plane GEMM (`matmul_bt_bias`, packed 8-row panels
//! against four batch rows at a time) is held to the same standard
//! against `matmul_bt_bias_scalar`'s single-accumulator row dots, over
//! operands that include ±0.0, subnormals, exact 1.0 and magnitudes
//! wide enough to overflow; NaN outputs compare by NaN-ness only.
//!
//! The backward kernels that hold a 32-column tile of one output row
//! in registers (`outer_acc_run`, `matvec_t_block_into`)
//! are pinned the same way against their scalar loops, over tile
//! remainders, run lengths and coefficients with zeros, `-0.0`,
//! subnormals and a NaN.
//!
//! The batched LIF step (`lif_fire`: multiply, add, compare mask,
//! reset) is pinned against `lif_fire_scalar` on membranes, pre-reset
//! values and spike rows, with currents on the threshold, NaN, ±inf,
//! `-0.0` and subnormals.
//!
//! The packed kernels (`sparse_matmul_bias_packed`,
//! `matmul_bt_bias_packed`) stream panels a layer builds once per weight
//! change, from f32 weights or straight from an f16 / int8 plane; they
//! are pinned to the scalar twins on the unpacked (dequantized) weights
//! for one row and batches up to 40, with `±0.0`, subnormal and
//! overflowing weights.
//!
//! Run with `AXSNN_NO_SIMD=1` both sides take the scalar path and the
//! suite degenerates to reflexivity — CI runs it both ways.

use axsnn_tensor::batched::{
    lif_fire, lif_fire_scalar, matmul_bt_bias, matmul_bt_bias_packed, matmul_bt_bias_scalar,
    sparse_conv2d_batch_sorted, sparse_matmul_bias_packed, sparse_matmul_bias_planed_scalar,
    sparse_matmul_bias_scalar, PackedWeights, SpikeMatrix,
};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::linalg::{
    matvec_t_block_into, matvec_t_block_into_scalar, outer_acc_run, outer_acc_run_scalar,
};
use axsnn_tensor::plane::PlaneView;
use axsnn_tensor::plane::{QuantizedPlane, WeightPlane};
use axsnn_tensor::sparse::{sparse_conv2d, SpikeVector};
use axsnn_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A binary frame of `len` elements: cell `i` spikes iff
/// `hash(i, salt)` lands under `density`. Covers 0% and 100% exactly.
fn binary_frame(len: usize, density: f32, salt: u64) -> SpikeVector {
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
    SpikeVector::from_dense(&Tensor::from_vec(data, &[len]).unwrap()).unwrap()
}

/// Densities to exercise: the paper-realistic regime (≤10–20%), the
/// dispatch threshold neighbourhood, and both degenerate extremes.
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

/// Output-row counts straddling every tile boundary: below one 8-lane
/// tile, 8/16 exactly, and remainders with `m % 8 ≠ 0` and
/// `m % 16 ≠ 0` so the 16-row, 8-row, 4-row and single-row paths all
/// run.
fn rows_strategy() -> impl Strategy<Value = usize> {
    (0u8..7).prop_map(|k| [1, 3, 8, 13, 16, 21, 37][k as usize])
}

/// Analog operands for the dense GEMM: ordinary uniform values in
/// `[-1, 1)` mixed with the cases a reordered or fused reduction would
/// betray — `+0.0`, `-0.0`, subnormals, exact `±1.0` and powers of two
/// from 2⁻¹⁰⁰ to 2¹⁰⁰, whose products can overflow to ±∞ and sum to NaN.
fn analog_values(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(salt.wrapping_mul(0x2545_f491_4f6c_dd1d))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 31;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 29;
            let sign = if h & (1 << 12) == 0 { 1.0f32 } else { -1.0 };
            match (h >> 16) % 32 {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => sign * f32::from_bits(((h >> 24) as u32 & 0x007f_ffff).max(1)),
                4 | 5 => sign,
                6 => sign * 2f32.powi(((h >> 24) % 201) as i32 - 100),
                _ => (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            }
        })
        .collect()
}

/// The spike GEMM the engine runs on an f32 layer: panels packed from
/// `weight`, then the packed walk.
fn packed_gemm(weight: &Tensor, x: &SpikeMatrix, bias: &Tensor) -> Tensor {
    sparse_matmul_bias_packed(&PackedWeights::pack(weight).unwrap(), x, bias).unwrap()
}

/// [`packed_gemm`] on a planed layer: panels decoded from the plane.
fn packed_planed_gemm(
    plane: PlaneView<'_>,
    shape: (usize, usize),
    x: &SpikeMatrix,
    bias: &Tensor,
) -> Tensor {
    sparse_matmul_bias_packed(&PackedWeights::pack_plane(plane, shape).unwrap(), x, bias).unwrap()
}

/// Bit equality, except that two NaNs match whatever their payloads.
fn assert_bits_eq_nan(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape diverged");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.is_nan() || y.is_nan() {
            assert!(
                x.is_nan() && y.is_nan(),
                "{what}: element {i} NaN-ness diverged ({x} vs {y})"
            );
        } else {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {i} diverged ({x} vs {y})"
            );
        }
    }
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape diverged");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

proptest! {
    /// The one-row spike GEMM over packed panels is bit-identical to
    /// the scalar twin across densities and remainder lane counts.
    #[test]
    fn matvec_bit_identity(
        m in rows_strategy(),
        k in 1usize..48,
        density in density_strategy(),
        salt in 0u64..1024,
    ) {
        let mut rng = StdRng::seed_from_u64(salt);
        let weight = init::uniform(&mut rng, &[m, k], 0.5);
        let bias = init::uniform(&mut rng, &[m], 0.5);
        let x = SpikeMatrix::from_rows(&[binary_frame(k, density, salt)]).unwrap();
        let fast = packed_gemm(&weight, &x, &bias);
        let scalar = sparse_matmul_bias_scalar(&weight, &x, &bias).unwrap();
        assert_bits_eq(&fast, &scalar, "matvec");
    }

    /// The batched spike GEMM over packed panels is bit-identical to
    /// the scalar tile path for batches 1–32.
    #[test]
    fn matmul_bit_identity(
        m in rows_strategy(),
        k in 1usize..48,
        batch in 1usize..33,
        density in density_strategy(),
        salt in 0u64..1024,
    ) {
        let mut rng = StdRng::seed_from_u64(salt ^ 0xa5);
        let weight = init::uniform(&mut rng, &[m, k], 0.5);
        let bias = init::uniform(&mut rng, &[m], 0.5);
        let rows: Vec<SpikeVector> = (0..batch)
            .map(|b| binary_frame(k, density, salt.wrapping_add(b as u64 * 977)))
            .collect();
        let x = SpikeMatrix::from_rows(&rows).unwrap();
        let fast = packed_gemm(&weight, &x, &bias);
        let scalar = sparse_matmul_bias_scalar(&weight, &x, &bias).unwrap();
        assert_bits_eq(&fast, &scalar, "matmul");
    }

    /// The spike GEMM over panels decoded from a plane is
    /// bit-identical to the per-element lane decode for every weight
    /// plane. The f32 plane quantizes to a no-op, so it is covered
    /// through panels packed from the f32 weights against the scalar
    /// twin — all three [`WeightPlane`]s run through one test.
    #[test]
    fn planed_matmul_bit_identity(
        m in rows_strategy(),
        k in 1usize..48,
        batch in 1usize..33,
        density in density_strategy(),
        plane_pick in 0u8..3,
        salt in 0u64..1024,
    ) {
        let plane = match plane_pick {
            0 => WeightPlane::F32,
            1 => WeightPlane::F16,
            _ => WeightPlane::Int8,
        };
        let mut rng = StdRng::seed_from_u64(salt ^ 0x5a);
        let weight = init::uniform(&mut rng, &[m, k], 0.5);
        let bias = init::uniform(&mut rng, &[m], 0.5);
        let rows: Vec<SpikeVector> = (0..batch)
            .map(|b| binary_frame(k, density, salt.wrapping_add(b as u64 * 1493)))
            .collect();
        let x = SpikeMatrix::from_rows(&rows).unwrap();
        match QuantizedPlane::quantize(weight.as_slice(), plane).unwrap() {
            Some(quant) => {
                let fast = packed_planed_gemm(quant.view(), (m, k), &x, &bias);
                let scalar =
                    sparse_matmul_bias_planed_scalar(quant.view(), (m, k), &x, &bias)
                        .unwrap();
                assert_bits_eq(&fast, &scalar, "planed matmul");
            }
            None => {
                // F32 plane: the planed entry points don't apply; pin
                // the f32 pair on the same inputs instead.
                let fast = packed_gemm(&weight, &x, &bias);
                let scalar = sparse_matmul_bias_scalar(&weight, &x, &bias).unwrap();
                assert_bits_eq(&fast, &scalar, "f32-plane matmul");
            }
        }
    }

    /// The packed kernels — the panels a layer builds once per weight
    /// change and streams at every batch size — are bit-identical to the
    /// scalar twins on the unpacked weights: the spike GEMM for one row
    /// and batches up to 40 at every density, the dense GEMM on analog
    /// rows, over f32 panels and panels decoded from f16 and int8
    /// planes. Weights and biases mix in `±0.0`, subnormals and powers
    /// of two wide enough to overflow, and `m` and `k` straddle the
    /// 8-row panels and 8-column blocks.
    #[test]
    fn packed_matmul_bit_identity(
        m in rows_strategy(),
        k in 1usize..48,
        batch in 1usize..41,
        density in density_strategy(),
        plane_pick in 0u8..3,
        salt in 0u64..1024,
    ) {
        let plane = WeightPlane::ALL[plane_pick as usize];
        let weight = Tensor::from_vec(analog_values(m * k, salt ^ 0x77), &[m, k]).unwrap();
        let bias = Tensor::from_vec(analog_values(m, salt ^ 0x33), &[m]).unwrap();
        let rows: Vec<SpikeVector> = (0..batch)
            .map(|b| binary_frame(k, density, salt.wrapping_add(b as u64 * 977)))
            .collect();
        let x = SpikeMatrix::from_rows(&rows).unwrap();
        let one = SpikeMatrix::from_rows(&rows[..1]).unwrap();
        let analog =
            Tensor::from_vec(analog_values(batch * k, salt ^ 0x99), &[batch, k]).unwrap();
        let (packed, image) = match QuantizedPlane::quantize(weight.as_slice(), plane).unwrap() {
            Some(quant) => {
                let packed = PackedWeights::pack_plane(quant.view(), (m, k)).unwrap();
                let lanes =
                    sparse_matmul_bias_planed_scalar(quant.view(), (m, k), &x, &bias).unwrap();
                let fast = sparse_matmul_bias_packed(&packed, &x, &bias).unwrap();
                assert_bits_eq_nan(&fast, &lanes, "packed plane vs lane decode");
                let image = Tensor::from_vec(quant.dequantize(), &[m, k]).unwrap();
                (packed, image)
            }
            None => (PackedWeights::pack(&weight).unwrap(), weight),
        };
        let fast = sparse_matmul_bias_packed(&packed, &x, &bias).unwrap();
        let scalar = sparse_matmul_bias_scalar(&image, &x, &bias).unwrap();
        assert_bits_eq_nan(&fast, &scalar, "packed spike GEMM");
        let fast_one = sparse_matmul_bias_packed(&packed, &one, &bias).unwrap();
        let scalar_one = sparse_matmul_bias_scalar(&image, &one, &bias).unwrap();
        assert_bits_eq_nan(&fast_one, &scalar_one, "packed one-row spike GEMM");
        let fast = matmul_bt_bias_packed(&analog, &packed, &bias).unwrap();
        let scalar = matmul_bt_bias_scalar(&analog, &image, &bias).unwrap();
        assert_bits_eq_nan(&fast, &scalar, "packed dense GEMM");
    }

    /// Dispatched dense GEMM (packed panels, 4-row groups, single-row
    /// tail, scalar columns for `m % 8`) is bit-identical to the scalar
    /// row dots for batches 1–39 and input widths 1–299.
    #[test]
    fn dense_matmul_bit_identity(
        m in (0u8..9).prop_map(|k| [1usize, 3, 7, 8, 9, 13, 16, 21, 37][k as usize]),
        k in 1usize..300,
        batch in 1usize..40,
        salt in 0u64..1024,
    ) {
        let x = Tensor::from_vec(analog_values(batch * k, salt), &[batch, k]).unwrap();
        let weight = Tensor::from_vec(analog_values(m * k, salt ^ 0xd1), &[m, k]).unwrap();
        let bias = Tensor::from_vec(analog_values(m, salt ^ 0xb1), &[m]).unwrap();
        let fast = matmul_bt_bias(&x, &weight, &bias).unwrap();
        let scalar = matmul_bt_bias_scalar(&x, &weight, &bias).unwrap();
        assert_bits_eq_nan(&fast, &scalar, "dense matmul");
    }

    /// The event-sorted conv on a one-row batch is bit-identical to the
    /// per-event scatter across geometries and densities (same
    /// per-output accumulation order by construction).
    #[test]
    fn sorted_conv_bit_identity(
        out_channels in 1usize..10,
        in_channels in 1usize..5,
        kernel in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..3,
        hw in 4usize..12,
        density in density_strategy(),
        salt in 0u64..1024,
    ) {
        // Clamp so the padded frame always admits at least one window.
        let kernel = kernel.min(hw + 2 * padding);
        let spec = Conv2dSpec { in_channels, out_channels, kernel, stride, padding };
        let mut rng = StdRng::seed_from_u64(salt ^ 0xc3);
        let weight = init::uniform(
            &mut rng,
            &[out_channels, in_channels, kernel, kernel],
            0.5,
        );
        let bias = init::uniform(&mut rng, &[out_channels], 0.5);
        let x = binary_frame(in_channels * hw * hw, density, salt);
        let one = SpikeMatrix::from_rows(std::slice::from_ref(&x)).unwrap();
        let (oh, ow) = spec.output_hw(hw, hw);
        let sorted = sparse_conv2d_batch_sorted(&one, (hw, hw), &weight, &bias, &spec)
            .unwrap()
            .reshape(&[out_channels, oh, ow])
            .unwrap();
        let scatter = sparse_conv2d(&x, (hw, hw), &weight, &bias, &spec).unwrap();
        assert_bits_eq(&sorted, &scatter, "sorted conv");
    }
}

/// An all-negative weight row on an empty frame, with a `-0.0` bias:
/// each gather sums nothing from `+0.0`, so every packed kernel, its
/// scalar twin and the dense kernel give `+0.0`. Covers the packed
/// panels, the 4- and 1-row scalar tiles, an empty row alone and beside
/// a full one, and both reduced-precision planes.
#[test]
fn negative_row_on_empty_frame_is_positive_zero() {
    let k = 9;
    let empty = SpikeVector::new(Vec::new(), k).unwrap();
    let full = SpikeVector::new((0..k as u32).collect(), k).unwrap();
    for m in [1usize, 3, 8, 13, 16, 21, 37] {
        let weight = Tensor::from_vec(
            (0..m * k).map(|i| -0.25 - (i % 7) as f32 * 0.5).collect(),
            &[m, k],
        )
        .unwrap();
        let bias = Tensor::full(&[m], -0.0);
        let is_pos_zero = |t: &Tensor, rows: std::ops::Range<usize>, what: &str| {
            for (i, v) in t.as_slice()[rows.start * m..rows.end * m]
                .iter()
                .enumerate()
            {
                assert_eq!(v.to_bits(), 0, "{what} m={m}: element {i} is {v}");
            }
        };
        for (rows, empty_at) in [
            (vec![empty.clone()], 0),
            (vec![full.clone(), empty.clone()], 1),
        ] {
            let x = SpikeMatrix::from_rows(&rows).unwrap();
            let fast = packed_gemm(&weight, &x, &bias);
            let scalar = sparse_matmul_bias_scalar(&weight, &x, &bias).unwrap();
            let dense = matmul_bt_bias(&x.to_dense(), &weight, &bias).unwrap();
            assert_bits_eq(&fast, &scalar, "empty-row matmul");
            assert_bits_eq(&fast, &dense, "empty-row matmul vs dense");
            is_pos_zero(&fast, empty_at..empty_at + 1, "empty-row matmul");
            for plane in [WeightPlane::F16, WeightPlane::Int8] {
                let quant = QuantizedPlane::quantize(weight.as_slice(), plane)
                    .unwrap()
                    .unwrap();
                let fast = packed_planed_gemm(quant.view(), (m, k), &x, &bias);
                let scalar =
                    sparse_matmul_bias_planed_scalar(quant.view(), (m, k), &x, &bias).unwrap();
                assert_bits_eq(&fast, &scalar, "empty-row planed matmul");
                is_pos_zero(&fast, empty_at..empty_at + 1, "empty-row planed matmul");
            }
        }
    }
}

/// The engine's B = 1 event query on the DVS input layer (96 rows of
/// 2048 columns, ~1% of the inputs active): the packed one-row walk
/// gives the scalar tiles' bits, and re-packing new weights in place
/// gives the bits of packing them afresh.
#[test]
fn packed_one_row_on_the_dvs_input_layer() {
    let (m, k) = (96usize, 2048usize);
    let mut rng = StdRng::seed_from_u64(29);
    let weight = init::uniform(&mut rng, &[m, k], 0.05);
    let bias = init::uniform(&mut rng, &[m], 0.05);
    let mut packed = PackedWeights::pack(&weight).unwrap();
    for salt in 0..8 {
        let x = SpikeMatrix::from_rows(&[binary_frame(k, 0.01, salt)]).unwrap();
        let fast = sparse_matmul_bias_packed(&packed, &x, &bias).unwrap();
        assert_bits_eq(
            &fast,
            &sparse_matmul_bias_scalar(&weight, &x, &bias).unwrap(),
            "one row",
        );
    }
    let moved = weight.scale(-0.5);
    packed.repack(&moved).unwrap();
    let x = SpikeMatrix::from_rows(&[binary_frame(k, 0.01, 99)]).unwrap();
    assert_bits_eq(
        &sparse_matmul_bias_packed(&packed, &x, &bias).unwrap(),
        &sparse_matmul_bias_packed(&PackedWeights::pack(&moved).unwrap(), &x, &bias).unwrap(),
        "repack",
    );
    assert!(packed.repack(&Tensor::zeros(&[m, k + 1])).is_err());
}

/// Row lengths for the register-tiled backward kernels: below one
/// 8-lane tile, one 8-lane tile, around one 32-column tile, and the
/// widths of real layers (`FastMlp`'s 96 and 256 inputs, a 2×28×28
/// event frame's 1568).
const TILE_ROW_LENGTHS: [usize; 9] = [1, 7, 8, 31, 32, 33, 96, 256, 1568];

/// Run lengths (terms per output row) for the same kernels: one term,
/// two, and both sides of the 32-term register pass.
const RUN_LENGTHS: [usize; 4] = [1, 2, 32, 33];

/// Backward-pass coefficients: analog values with exact zeros, `-0.0`,
/// subnormals of both signs and sub-`1e-3` magnitudes mixed in, plus a
/// single NaN at `nan_at` (so one output row turns NaN and the others
/// stay finite).
fn coefficients(len: usize, salt: u64, nan_at: Option<usize>) -> Vec<f32> {
    let mut c = analog_values(len, salt);
    for (i, v) in c.iter_mut().enumerate() {
        match (i as u64 + salt) % 7 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 => *v = f32::from_bits(0x0000_0301),
            3 => *v = -f32::from_bits(0x0040_0000),
            4 => *v *= 1e-4,
            _ => {}
        }
    }
    if let Some(i) = nan_at.filter(|&i| i < len) {
        c[i] = f32::NAN;
    }
    c
}

/// The dispatched weight-gradient run (`outer_acc_run`) is
/// bit-identical to its scalar loop — `acc + g·x` per term in run
/// order, product rounded first — for every tile remainder and run
/// length, starting from a non-zero accumulator.
#[test]
fn outer_acc_run_bit_identity() {
    const M: usize = 5;
    for n in TILE_ROW_LENGTHS {
        for run in RUN_LENGTHS {
            let salt = (n * 131 + run) as u64;
            let coefs: Vec<Vec<f32>> = (0..run)
                .map(|e| coefficients(M, salt + e as u64, (e == 0).then_some(M - 1)))
                .collect();
            let xs: Vec<Vec<f32>> = (0..run)
                .map(|e| analog_values(n, salt ^ (0x77 + e as u64)))
                .collect();
            let terms: Vec<(&[f32], &[f32])> = coefs
                .iter()
                .zip(&xs)
                .map(|(g, x)| (g.as_slice(), x.as_slice()))
                .collect();
            let start = Tensor::from_vec(analog_values(M * n, salt ^ 0x3c), &[M, n]).unwrap();
            let mut fast = start.clone();
            let mut scalar = start;
            outer_acc_run(&mut fast, &terms).unwrap();
            outer_acc_run_scalar(&mut scalar, &terms).unwrap();
            assert_bits_eq_nan(&fast, &scalar, &format!("outer_acc_run n={n} run={run}"));
            assert!(fast.as_slice()[(M - 1) * n..].iter().all(|v| v.is_nan()));
        }
    }
}

/// The dispatched `Wᵀ·g` block kernel is bit-identical to its scalar
/// loop — same skip set (exact zeros, NaN kept), same ascending add
/// order from `+0.0` — for every output-row length and coefficient
/// count.
#[test]
fn matvec_t_block_bit_identity() {
    const ROWS: usize = 3;
    for n in TILE_ROW_LENGTHS {
        for m in RUN_LENGTHS {
            let salt = (n * 17 + m) as u64;
            let a = Tensor::from_vec(analog_values(m * n, salt ^ 0x5e), &[m, n]).unwrap();
            let g = coefficients(ROWS * m, salt, Some(ROWS * m - 1));
            let mut fast = vec![1.0f32; ROWS * n];
            let mut scalar = vec![2.0f32; ROWS * n];
            matvec_t_block_into(&a, &g, ROWS, &mut fast).unwrap();
            matvec_t_block_into_scalar(&a, &g, ROWS, &mut scalar).unwrap();
            let what = format!("matvec_t_block n={n} m={m}");
            assert_bits_eq_nan(
                &Tensor::from_vec(fast, &[ROWS, n]).unwrap(),
                &Tensor::from_vec(scalar, &[ROWS, n]).unwrap(),
                &what,
            );
        }
    }
}

/// The dispatched LIF step (`lif_fire`, eight neurons per compare mask
/// under AVX2) is bit-identical to its scalar twin over several steps:
/// membranes, pre-reset values, spike indices and row offsets. Row
/// widths cover the empty row, the scalar tail alone, one 8-lane block
/// with and without a tail, `FastMlp`'s 96-neuron layer and a long odd
/// row; currents land exactly on the threshold, on NaN, ±inf, `-0.0`
/// and subnormals of both signs, so non-finite membranes carry into
/// later steps. Leak 0 makes `0·inf = NaN` reach the add.
#[test]
fn lif_fire_bit_identity() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (threshold, leak) in [(1.0f32, 0.0f32), (1.0, 1.0), (0.25, 0.9), (0.0, 1.0)] {
        for n in [0usize, 1, 7, 8, 9, 96, 2051] {
            for b in [1usize, 8, 32] {
                let len = b * n;
                let salt = (n * 37 + b) as u64;
                let mut fast = vec![0.0f32; len];
                let mut scalar = vec![0.0f32; len];
                for step in 0..6u64 {
                    let current: Vec<f32> = analog_values(len, salt ^ step)
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| match (i as u64 * 7 + step * 3 + salt) % 13 {
                            0 => threshold,
                            1 => f32::NAN,
                            2 => f32::INFINITY,
                            3 => f32::NEG_INFINITY,
                            4 => -0.0,
                            5 => f32::from_bits(0x0000_0301),
                            6 => -f32::from_bits(0x0040_0000),
                            _ => v,
                        })
                        .collect();
                    let what = format!("vth {threshold} leak {leak} {b}x{n} step {step}");
                    let mut pre_fast = vec![1.0f32; len];
                    let mut pre_scalar = vec![2.0f32; len];
                    let (a, c) = if step % 2 == 0 {
                        (
                            lif_fire(&mut fast, &current, None, (b, n), threshold, leak),
                            lif_fire_scalar(&mut scalar, &current, None, (b, n), threshold, leak),
                        )
                    } else {
                        (
                            lif_fire(
                                &mut fast,
                                &current,
                                Some(&mut pre_fast),
                                (b, n),
                                threshold,
                                leak,
                            ),
                            lif_fire_scalar(
                                &mut scalar,
                                &current,
                                Some(&mut pre_scalar),
                                (b, n),
                                threshold,
                                leak,
                            ),
                        )
                    };
                    let (a, c) = (a.unwrap(), c.unwrap());
                    assert_eq!(a, c, "{what}: spike rows");
                    assert_eq!(a.rows(), b, "{what}");
                    assert_eq!(a.cols(), n, "{what}");
                    assert_eq!(bits(&fast), bits(&scalar), "{what}: membranes");
                    if step % 2 == 1 {
                        assert_eq!(bits(&pre_fast), bits(&pre_scalar), "{what}: pre-reset");
                    }
                }
            }
        }
    }
}
