//! Precision scaling: FP32 / FP16 / INT8 weight quantization and the
//! scalar quantization step `q_t` used by AQF and Table II.
//!
//! Precision scaling is the paper's first defense knob (Algorithm 1,
//! line 8): quantizing the weights of an AxSNN changes which connections
//! survive the `a_th` cut and — per QuSecNets \[12\] — acts as a gradient
//! obfuscation / denoising defense. FP16 is emulated in software with a
//! correct round-to-nearest-even `f32 → f16 → f32` round trip; INT8 is
//! symmetric per-tensor affine quantization.
//!
//! [`apply_precision`] quantizes the weights in place: the quantized
//! values become the f32 master weights. Its reversible counterpart is
//! [`SpikingNetwork::set_weight_plane`], which keeps the master weights
//! and has every pass read the same quantized values (the plane's
//! dequantized image) instead. The two are bit-identical by
//! construction — both route through [`axsnn_tensor::plane`]'s shared
//! quantizer ([`PrecisionScale::weight_plane`] maps between the knobs).
//! Either way the kernels read f32 weights: precision scaling changes
//! the weight values, not the kernels or their speed.
//!
//! # Tie rounding
//!
//! The two quantizers intentionally round ties differently: INT8 uses
//! `f32::round` (ties away from zero), the convention of symmetric
//! integer quantization in deployed fixed-point pipelines, while the
//! f16 round trip follows IEEE 754 round-to-nearest-even, the
//! convention of every hardware half unit. Unifying them would make one
//! of the two emulations unfaithful to the hardware it models; the
//! difference is pinned by this module's tests.

use crate::network::SpikingNetwork;
use crate::{CoreError, Result};
use axsnn_tensor::plane::{QuantizedPlane, WeightPlane};
use axsnn_tensor::Tensor;
use std::fmt;

pub use axsnn_tensor::plane::{f16_round_trip, f16_to_f32, f32_to_f16};

/// Precision scale applied to network weights.
///
/// # Example
///
/// ```
/// use axsnn_core::precision::PrecisionScale;
///
/// assert_eq!(PrecisionScale::Int8.to_string(), "INT8");
/// assert_eq!(PrecisionScale::Fp32.bits(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionScale {
    /// Native single precision (identity quantization).
    Fp32,
    /// IEEE-754 binary16, software emulated.
    Fp16,
    /// Symmetric per-tensor 8-bit integers.
    Int8,
}

impl PrecisionScale {
    /// All scales in the order the paper sweeps them.
    pub const ALL: [PrecisionScale; 3] = [
        PrecisionScale::Fp32,
        PrecisionScale::Fp16,
        PrecisionScale::Int8,
    ];

    /// Bit width of the representation.
    pub fn bits(&self) -> u32 {
        match self {
            PrecisionScale::Fp32 => 32,
            PrecisionScale::Fp16 => 16,
            PrecisionScale::Int8 => 8,
        }
    }

    /// Quantizes a tensor to this precision and dequantizes back to f32.
    ///
    /// INT8 routes through [`axsnn_tensor::plane::QuantizedPlane`]'s
    /// quantizer, so the emulated values are bit-identical to an int8
    /// weight plane's dequantized values — including the `±max`
    /// endpoint snapping that makes the quantizer exactly idempotent. See the
    /// module docs for the intentional tie-rounding difference between
    /// the INT8 and FP16 paths.
    ///
    /// # Errors
    ///
    /// Returns an error for [`PrecisionScale::Int8`] when any element
    /// is non-finite: an infinity would drive the scale to `∞` and
    /// collapse every weight to zero, and a NaN would poison the whole
    /// tensor through the shared max. FP32/FP16 never fail (the f16
    /// round trip keeps IEEE semantics for non-finite values).
    ///
    /// # Example
    ///
    /// ```
    /// use axsnn_core::precision::PrecisionScale;
    /// use axsnn_tensor::Tensor;
    ///
    /// let w = Tensor::from_vec(vec![0.1234567, -1.0], &[2]).unwrap();
    /// let q = PrecisionScale::Int8.quantize_tensor(&w).unwrap();
    /// // 8-bit grid: 127 levels of max|w| = 1.0.
    /// assert!((q.as_slice()[0] - 0.1234567).abs() < 1.0 / 127.0);
    /// assert_eq!(q.as_slice()[1], -1.0);
    /// ```
    pub fn quantize_tensor(&self, t: &Tensor) -> Result<Tensor> {
        match self {
            PrecisionScale::Fp32 => Ok(t.clone()),
            PrecisionScale::Fp16 => Ok(t.map(f16_round_trip)),
            PrecisionScale::Int8 => {
                let plane = QuantizedPlane::quantize(t.as_slice(), WeightPlane::Int8)
                    .map_err(CoreError::from)?
                    .expect("int8 always materializes a plane");
                Ok(Tensor::from_vec(plane.dequantize(), t.shape().dims())?)
            }
        }
    }

    /// The weight storage plane realizing this precision for real: the
    /// knob [`SpikingNetwork::set_weight_plane`] takes so the paper's
    /// `(precision, a_th)` grid sweeps actual int8/f16 weight buffers.
    pub fn weight_plane(self) -> WeightPlane {
        match self {
            PrecisionScale::Fp32 => WeightPlane::F32,
            PrecisionScale::Fp16 => WeightPlane::F16,
            PrecisionScale::Int8 => WeightPlane::Int8,
        }
    }

    /// Inverse of [`PrecisionScale::weight_plane`].
    pub fn from_plane(plane: WeightPlane) -> PrecisionScale {
        match plane {
            WeightPlane::F32 => PrecisionScale::Fp32,
            WeightPlane::F16 => PrecisionScale::Fp16,
            WeightPlane::Int8 => PrecisionScale::Int8,
        }
    }
}

impl fmt::Display for PrecisionScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecisionScale::Fp32 => write!(f, "FP32"),
            PrecisionScale::Fp16 => write!(f, "FP16"),
            PrecisionScale::Int8 => write!(f, "INT8"),
        }
    }
}

/// Quantizes all weights and biases of a spiking network in place.
///
/// Returns the number of parameter tensors touched. The quantized
/// values are stored back as the f32 master weights; installing the
/// matching plane afterwards with [`SpikingNetwork::set_weight_plane`]
/// changes no value (requantizing quantized weights is the identity),
/// so the two compose bit-exactly.
///
/// # Errors
///
/// As [`PrecisionScale::quantize_tensor`]: fails for
/// [`PrecisionScale::Int8`] when a parameter tensor contains a
/// non-finite value, with no layer modified after the offending one.
///
/// # Example
///
/// ```
/// use axsnn_core::layer::Layer;
/// use axsnn_core::network::{SnnConfig, SpikingNetwork};
/// use axsnn_core::precision::{apply_precision, PrecisionScale};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig::default();
/// let mut net = SpikingNetwork::new(
///     vec![
///         Layer::spiking_linear(&mut rng, 4, 4, &cfg),
///         Layer::output_linear(&mut rng, 4, 2),
///     ],
///     cfg,
/// )?;
/// assert_eq!(apply_precision(&mut net, PrecisionScale::Int8)?, 2);
/// # Ok(())
/// # }
/// ```
pub fn apply_precision(net: &mut SpikingNetwork, scale: PrecisionScale) -> Result<usize> {
    let mut touched = 0usize;
    for layer in net.layers_mut() {
        if let Some((w, b)) = layer.params_mut() {
            w.value = scale.quantize_tensor(&w.value)?;
            b.value = scale.quantize_tensor(&b.value)?;
            touched += 1;
        }
        // Master weights changed; keep any installed storage plane
        // coherent with them.
        layer.refresh_weight_plane()?;
    }
    Ok(touched)
}

/// Quantizes every layer's weights with a *scalar step* `q_t`
/// (`w ← round(w/q_t)·q_t`) — the quantization used by Table II's
/// `(q_t, a_th)` combinations and Algorithm 2's event preprocessing.
///
/// A step of `0.0` is the identity (matching Table II's `(0.0, 0.001)`
/// row); so is any non-finite or NaN step — `step <= 0.0` alone would
/// be *false* for NaN and let `(v/NaN).round()·NaN` poison every
/// weight, and an infinite step would do the same through `v/∞ · ∞`.
///
/// Returns the number of parameter tensors touched. Each layer's
/// installed reduced-precision weight plane is rebuilt from its
/// quantized weights.
///
/// # Errors
///
/// Returns the plane refresh's error when a layer with an int8 plane
/// holds non-finite weights; the layers before it are already
/// quantized.
pub fn apply_step_quantization(net: &mut SpikingNetwork, step: f32) -> Result<usize> {
    if !step_is_usable(step) {
        return Ok(0);
    }
    let mut touched = 0usize;
    for layer in net.layers_mut() {
        if let Some((w, b)) = layer.params_mut() {
            w.value = quantize_step_tensor(&w.value, step);
            b.value = quantize_step_tensor(&b.value, step);
            touched += 1;
        }
        layer.refresh_weight_plane()?;
    }
    Ok(touched)
}

/// A step quantizes only when it is a finite positive number; `!(> 0.0)`
/// (not `<= 0.0`, which is false for NaN) catches NaN alongside zero
/// and negatives, and the finiteness check catches `+∞`.
#[inline]
fn step_is_usable(step: f32) -> bool {
    step > 0.0 && step.is_finite()
}

/// Scalar step quantization of a tensor: `round(v/step)·step`.
///
/// # Example
///
/// ```
/// use axsnn_core::precision::quantize_step_tensor;
/// use axsnn_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![0.26, -0.24], &[2]).unwrap();
/// let q = quantize_step_tensor(&t, 0.1);
/// assert!((q.as_slice()[0] - 0.3).abs() < 1e-6);
/// assert!((q.as_slice()[1] + 0.2).abs() < 1e-6);
/// ```
pub fn quantize_step_tensor(t: &Tensor, step: f32) -> Tensor {
    if !step_is_usable(step) {
        return t.clone();
    }
    t.map(|v| (v / step).round() * step)
}

/// Scalar step quantization of a single value. A non-positive,
/// non-finite or NaN step is the identity.
pub fn quantize_step(v: f32, step: f32) -> f32 {
    if step_is_usable(step) {
        (v / step).round() * step
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::network::SnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn f16_exact_values_survive() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_round_trip(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_signed_zero_and_specials() {
        assert_eq!(f16_round_trip(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_round_trip(f32::INFINITY), f32::INFINITY);
        assert_eq!(f16_round_trip(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(f16_round_trip(f32::NAN).is_nan());
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert_eq!(f16_round_trip(1e6), f32::INFINITY);
        assert_eq!(f16_round_trip(-1e6), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_subnormals() {
        // Smallest positive half subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_round_trip(tiny), tiny);
        // Below half of that underflows to zero.
        assert_eq!(f16_round_trip(2.0f32.powi(-26)), 0.0);
    }

    #[test]
    fn f16_error_bounded_by_relative_epsilon() {
        let mut x = 0.001f32;
        while x < 100.0 {
            let r = f16_round_trip(x);
            let rel = ((r - x) / x).abs();
            assert!(
                rel < 1.0 / 1024.0,
                "fp16 relative error too big at {x}: {rel}"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn int8_grid_has_255_levels() {
        let t =
            Tensor::from_vec((0..1000).map(|i| i as f32 / 500.0 - 1.0).collect(), &[1000]).unwrap();
        let q = PrecisionScale::Int8.quantize_tensor(&t).unwrap();
        // Bucket against the *original* tensor's max: the quantization
        // grid is max|t|/127, and recomputing the scale from the
        // quantized tensor would mis-bucket levels whenever the
        // max-magnitude element itself moved under quantization.
        let scale = t.linf_norm() / 127.0;
        let mut levels: Vec<i64> = q
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round() as i64)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 255);
        assert!(levels.len() > 200, "should use most of the grid");
        assert!(levels.iter().all(|&l| (-127..=127).contains(&l)));
    }

    #[test]
    fn int8_max_magnitude_is_exact_fixed_point() {
        // The endpoint snap keeps the L∞ norm invariant, which is what
        // makes requantization the identity bit for bit.
        let t = Tensor::from_vec(vec![0.3, -2.7, 1.1, 0.0], &[4]).unwrap();
        let q = PrecisionScale::Int8.quantize_tensor(&t).unwrap();
        assert_eq!(q.linf_norm(), t.linf_norm());
        assert_eq!(q.as_slice()[1], -2.7);
        let again = PrecisionScale::Int8.quantize_tensor(&q).unwrap();
        for (a, b) in q.as_slice().iter().zip(again.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn int8_rejects_non_finite_tensors() {
        // Regression: ±Inf used to drive scale = ∞ and collapse every
        // weight to 0; NaN used to poison the whole tensor through the
        // shared max. Both must now be rejected with a diagnostic.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = Tensor::from_vec(vec![1.0, bad, -0.5], &[3]).unwrap();
            let err = PrecisionScale::Int8.quantize_tensor(&t).unwrap_err();
            assert!(
                err.to_string().contains("element 1"),
                "diagnostic names the offending element: {err}"
            );
            // FP16 keeps IEEE semantics for non-finite values.
            assert!(PrecisionScale::Fp16.quantize_tensor(&t).is_ok());
        }
    }

    #[test]
    fn int8_zero_tensor_is_identity() {
        let t = Tensor::zeros(&[4]);
        assert_eq!(PrecisionScale::Int8.quantize_tensor(&t).unwrap(), t);
    }

    #[test]
    fn fp32_is_identity() {
        let t = Tensor::from_vec(vec![0.123_456_79, -9.87], &[2]).unwrap();
        assert_eq!(PrecisionScale::Fp32.quantize_tensor(&t).unwrap(), t);
    }

    #[test]
    fn quantization_error_ordering() {
        // INT8 error ≥ FP16 error ≥ FP32 error on a generic tensor.
        let t =
            Tensor::from_vec((0..256).map(|i| (i as f32 * 0.731).sin()).collect(), &[256]).unwrap();
        let err = |s: PrecisionScale| s.quantize_tensor(&t).unwrap().sub(&t).unwrap().l2_norm();
        assert_eq!(err(PrecisionScale::Fp32), 0.0);
        assert!(err(PrecisionScale::Fp16) <= err(PrecisionScale::Int8));
    }

    #[test]
    fn tie_rounding_conventions_differ_intentionally() {
        // INT8: ties away from zero (fixed-point convention). On
        // [1.5, 127] the value 1.5·scale with scale = 127/127 = 1 sits
        // exactly between levels 1 and 2 and must go *up*.
        let t = Tensor::from_vec(vec![1.5, 127.0], &[2]).unwrap();
        let q = PrecisionScale::Int8.quantize_tensor(&t).unwrap();
        assert_eq!(q.as_slice()[0], 2.0);
        // FP16: IEEE round-to-nearest-even. 2049 sits exactly between
        // the representable 2048 and 2050 and must go to the *even*
        // neighbour 2048.
        assert_eq!(f16_round_trip(2049.0), 2048.0);
    }

    #[test]
    fn step_quantization_rounds() {
        assert_eq!(quantize_step(0.26, 0.1), 0.3_f32.min(0.3));
        assert_eq!(quantize_step(1.0, 0.0), 1.0);
        let t = Tensor::from_vec(vec![0.04, 0.06], &[2]).unwrap();
        let q = quantize_step_tensor(&t, 0.1);
        assert_eq!(q.as_slice()[0], 0.0);
        assert!((q.as_slice()[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn non_finite_step_is_identity_not_poison() {
        // Regression: the old `step <= 0.0` guard is *false* for NaN,
        // so a NaN step flowed into `(v/NaN).round()·NaN` and silently
        // poisoned every weight; +∞ did the same via `v/∞ · ∞`.
        let t = Tensor::from_vec(vec![0.26, -1.5], &[2]).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.5] {
            let q = quantize_step_tensor(&t, bad);
            assert_eq!(q.as_slice(), t.as_slice(), "step {bad} must be identity");
            assert_eq!(quantize_step(0.26, bad), 0.26);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SnnConfig::default();
        let mut net = crate::network::SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 4, &cfg),
                Layer::output_linear(&mut rng, 4, 2),
            ],
            cfg,
        )
        .unwrap();
        let before: Vec<f32> = net
            .layers()
            .iter()
            .filter_map(|l| l.params())
            .flat_map(|(w, _)| w.value.as_slice().to_vec())
            .collect();
        assert_eq!(apply_step_quantization(&mut net, f32::NAN).unwrap(), 0);
        let after: Vec<f32> = net
            .layers()
            .iter()
            .filter_map(|l| l.params())
            .flat_map(|(w, _)| w.value.as_slice().to_vec())
            .collect();
        assert_eq!(before, after, "NaN step must leave every weight intact");
    }

    #[test]
    fn apply_precision_touches_all_param_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig::default();
        let mut net = crate::network::SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 4, 4, &cfg),
                Layer::flatten(),
                Layer::output_linear(&mut rng, 4, 2),
            ],
            cfg,
        )
        .unwrap();
        assert_eq!(apply_precision(&mut net, PrecisionScale::Fp16).unwrap(), 2);
    }

    #[test]
    fn exhaustive_f16_f32_f16_roundtrip() {
        // Every finite half value must round-trip exactly through f32.
        for h in 0..=0xffffu16 {
            let exp = (h >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // inf/nan handled elsewhere
            }
            let f = f16_to_f32(h);
            let back = f32_to_f16(f);
            assert_eq!(back, h, "half bits {h:#06x} → {f} → {back:#06x}");
        }
    }
}
