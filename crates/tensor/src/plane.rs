//! Reduced-precision weight planes: the int8 / f16 quantizer that the
//! precision-scaling axis and the layers' installed planes share.
//!
//! A plane changes the weight *values*, not the kernels. A layer with
//! an installed plane keeps the plane's dequantized `f32` image
//! ([`QuantizedPlane::dequantize`]), and every kernel reads that image
//! exactly as it reads f32 weights: a planed layer runs the same kernels
//! at the same speed as an f32 layer holding the same values.
//!
//! The contract that makes a plane safe to install is **dequantization
//! exactness**: element for element, the dequantized image is
//! bit-identical to round-tripping the weight through the precision
//! emulation (`axsnn-core`'s `PrecisionScale::quantize_tensor`), which
//! calls the same quantizer. A planed forward is therefore bit-identical
//! to quantize-then-run-f32.
//!
//! * [`WeightPlane`] — the precision choice (`F32` means "no plane").
//! * [`QuantizedPlane`] — the quantizer ([`QuantizedPlane::quantize`],
//!   [`QuantizedPlane::dequantize`], [`QuantizedPlane::int8_scale`]).
//! * [`f32_to_f16`] / [`f16_to_f32`] / [`f16_round_trip`] — the IEEE
//!   half conversions (round-to-nearest-even), shared with the
//!   precision emulation so both sides agree bit for bit.
//!
//! Int8 dequantization is a 255-entry `f32` table lookup
//! (`levels[code]`), exact by construction: the table holds the very
//! values the emulation produces, including the snapped `±max`
//! endpoints that make quantization idempotent.

use crate::{Result, TensorError};

/// Per-layer weight storage precision.
///
/// `F32` is the identity plane (the master weights as they are); `F16`
/// and `Int8` round the weights onto a reduced-precision grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightPlane {
    /// Full-precision f32 storage — no quantized buffer.
    F32,
    /// IEEE 754 binary16 storage (`u16` bits), f32 accumulation.
    F16,
    /// Symmetric 8-bit storage (255 levels, per-tensor scale), f32
    /// accumulation.
    Int8,
}

impl WeightPlane {
    /// All planes, full precision first.
    pub const ALL: [WeightPlane; 3] = [WeightPlane::F32, WeightPlane::F16, WeightPlane::Int8];

    /// Stable lowercase name (serialization token).
    pub fn name(self) -> &'static str {
        match self {
            WeightPlane::F32 => "f32",
            WeightPlane::F16 => "f16",
            WeightPlane::Int8 => "int8",
        }
    }

    /// Parses a [`WeightPlane::name`] token.
    pub fn from_name(name: &str) -> Option<WeightPlane> {
        WeightPlane::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Bits per stored weight.
    pub fn bits_per_weight(self) -> u32 {
        match self {
            WeightPlane::F32 => 32,
            WeightPlane::F16 => 16,
            WeightPlane::Int8 => 8,
        }
    }
}

impl std::fmt::Display for WeightPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even,
/// handling subnormals and overflow to infinity.
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 255 {
        // Inf / NaN: preserve the class (quiet any NaN payload).
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }

    // Unbiased exponent, re-biased for f16 (bias 15).
    let unbiased = exp - 127;
    let half_exp = unbiased + 15;

    if half_exp >= 31 {
        // Overflow → infinity.
        return sign | 0x7c00;
    }

    if half_exp <= 0 {
        // Subnormal (or underflow to zero) in f16.
        if half_exp < -10 {
            return sign; // Rounds to ±0.
        }
        // Implicit leading 1 becomes explicit; shift right with
        // round-to-nearest-even.
        let mant = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let halfway = 1u32 << (shift - 1);
        let rest = mant & ((1 << shift) - 1);
        let mut out = (mant >> shift) as u16;
        if rest > halfway || (rest == halfway && (out & 1) == 1) {
            out += 1; // May carry into the exponent — that is correct.
        }
        return sign | out;
    }

    // Normal range: keep 10 mantissa bits, round-to-nearest-even on the
    // 13 dropped bits.
    let halfway = 0x0000_1000u32;
    let rest = mant & 0x0000_1fff;
    let mut out = ((half_exp as u32) << 10 | (mant >> 13)) as u16;
    if rest > halfway || (rest == halfway && (out & 1) == 1) {
        out += 1; // Carry propagates into the exponent correctly.
    }
    sign | out
}

/// Converts IEEE 754 binary16 bits back to `f32` exactly (every f16
/// value is representable in f32).
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value = mant × 2⁻²⁴; exact in f32.
        let value = mant as f32 * 2.0f32.powi(-24);
        return if sign != 0 { -value } else { value };
    }
    if exp == 31 {
        return if mant == 0 {
            f32::from_bits(sign | 0x7f80_0000)
        } else {
            f32::from_bits(sign | 0x7fc0_0000 | (mant << 13))
        };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13))
}

/// Round-trips an `f32` through IEEE binary16: the value the f16 plane
/// holds for this element.
pub fn f16_round_trip(value: f32) -> f32 {
    f16_to_f32(f32_to_f16(value))
}

/// A tensor quantized onto a reduced-precision plane: the stored codes
/// that [`QuantizedPlane::dequantize`] turns into exact `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizedPlane {
    /// IEEE binary16 bits, one `u16` per weight.
    F16 {
        /// The half-precision bit patterns.
        bits: Vec<u16>,
    },
    /// Symmetric int8: biased codes (`k + 127`, so `0..=254`) plus the
    /// 255-entry dequantization table.
    Int8 {
        /// Biased level codes, one byte per weight.
        codes: Vec<u8>,
        /// `levels[c]` is the exact f32 value of code `c` — `(c − 127)
        /// · scale` with the `±127` endpoints snapped to `±max`, the
        /// same values the precision emulation produces.
        levels: Vec<f32>,
        /// The per-tensor scale `max / 127` (`0.0` for an all-zero
        /// tensor).
        scale: f32,
    },
}

impl QuantizedPlane {
    /// Quantizes `values` under `plane`. Returns `None` for
    /// [`WeightPlane::F32`] (no buffer to materialize).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `plane` is
    /// [`WeightPlane::Int8`] and any element is non-finite — a NaN
    /// would poison the whole tensor and an infinity would collapse
    /// every weight to zero, so the symmetric quantizer refuses them
    /// with the offending index in the diagnostic.
    pub fn quantize(values: &[f32], plane: WeightPlane) -> Result<Option<QuantizedPlane>> {
        match plane {
            WeightPlane::F32 => Ok(None),
            WeightPlane::F16 => Ok(Some(QuantizedPlane::F16 {
                bits: values.iter().map(|&v| f32_to_f16(v)).collect(),
            })),
            WeightPlane::Int8 => {
                let mut max = 0.0f32;
                for (i, &v) in values.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(TensorError::InvalidArgument {
                            message: format!(
                                "int8 quantization requires finite values: found {v} at element {i}"
                            ),
                        });
                    }
                    let a = v.abs();
                    if a > max {
                        max = a;
                    }
                }
                if max == 0.0 {
                    // All-zero tensor: every element is code 127 (k = 0)
                    // and every level is exactly zero.
                    return Ok(Some(QuantizedPlane::Int8 {
                        codes: vec![127u8; values.len()],
                        levels: vec![0.0f32; 255],
                        scale: 0.0,
                    }));
                }
                let scale = max / 127.0;
                // Snapping the endpoint levels to ±max keeps the L∞
                // norm an exact fixed point of quantization: the grid
                // of a requantization is identical, which is what makes
                // the quantizer exactly idempotent.
                let levels: Vec<f32> = (0..255)
                    .map(|c| {
                        let k = c - 127;
                        if k == 127 {
                            max
                        } else if k == -127 {
                            -max
                        } else {
                            k as f32 * scale
                        }
                    })
                    .collect();
                let codes = values
                    .iter()
                    .map(|&v| {
                        let k = (v / scale).round().clamp(-127.0, 127.0) as i32;
                        (k + 127) as u8
                    })
                    .collect();
                Ok(Some(QuantizedPlane::Int8 {
                    codes,
                    levels,
                    scale,
                }))
            }
        }
    }

    /// The per-tensor int8 scale (`None` for an f16 plane).
    pub fn int8_scale(&self) -> Option<f32> {
        match self {
            QuantizedPlane::F16 { .. } => None,
            QuantizedPlane::Int8 { scale, .. } => Some(*scale),
        }
    }

    /// Materializes the exact f32 values the plane holds — element for
    /// element the bits the precision emulation's quantize-round-trip
    /// produces.
    pub fn dequantize(&self) -> Vec<f32> {
        match self {
            QuantizedPlane::F16 { bits } => bits.iter().map(|&b| f16_to_f32(b)).collect(),
            QuantizedPlane::Int8 { codes, levels, .. } => {
                codes.iter().map(|&c| levels[c as usize]).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_names_roundtrip() {
        for plane in WeightPlane::ALL {
            assert_eq!(WeightPlane::from_name(plane.name()), Some(plane));
            assert_eq!(plane.to_string(), plane.name());
        }
        assert_eq!(WeightPlane::from_name("fp64"), None);
        assert!(WeightPlane::F32.bits_per_weight() > WeightPlane::Int8.bits_per_weight());
    }

    #[test]
    fn f32_plane_has_no_buffer() {
        assert_eq!(
            QuantizedPlane::quantize(&[1.0, 2.0], WeightPlane::F32).unwrap(),
            None
        );
    }

    #[test]
    fn f16_plane_dequantizes_to_round_trip() {
        let values = [0.1f32, -1.0, 3.1472, 0.0, -0.0, 65519.0, 1e-8];
        let plane = QuantizedPlane::quantize(&values, WeightPlane::F16)
            .unwrap()
            .unwrap();
        assert_eq!(plane.int8_scale(), None);
        let dq = plane.dequantize();
        assert_eq!(dq.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(dq[i].to_bits(), f16_round_trip(v).to_bits(), "element {i}");
        }
    }

    #[test]
    fn int8_plane_snaps_endpoints_and_is_idempotent() {
        let values: Vec<f32> = (0..64).map(|i| ((i as f32 * 0.37).sin()) * 2.5).collect();
        let plane = QuantizedPlane::quantize(&values, WeightPlane::Int8)
            .unwrap()
            .unwrap();
        let dq = plane.dequantize();
        let max = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        // The max-magnitude element survives exactly.
        assert!(dq.iter().any(|&v| v.abs() == max));
        assert!(dq.iter().all(|&v| v.abs() <= max));
        // Requantizing the dequantized values is the identity, bit for
        // bit — the snapped endpoints keep the L∞ norm (and with it
        // the whole grid) an exact fixed point.
        let again = QuantizedPlane::quantize(&dq, WeightPlane::Int8)
            .unwrap()
            .unwrap();
        let dq2 = again.dequantize();
        for (a, b) in dq.iter().zip(&dq2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plane.int8_scale(), Some(max / 127.0));
    }

    #[test]
    fn int8_rejects_non_finite() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = QuantizedPlane::quantize(&[0.5, bad, 1.0], WeightPlane::Int8).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("element 1"),
                "diagnostic names the index: {msg}"
            );
        }
        // f16 keeps IEEE semantics for non-finite values instead.
        assert!(QuantizedPlane::quantize(&[f32::NAN], WeightPlane::F16).is_ok());
    }

    #[test]
    fn int8_all_zero_tensor() {
        let plane = QuantizedPlane::quantize(&[0.0, -0.0, 0.0], WeightPlane::Int8)
            .unwrap()
            .unwrap();
        assert_eq!(plane.int8_scale(), Some(0.0));
        let dq = plane.dequantize();
        assert_eq!(dq.len(), 3);
        assert!(dq.iter().all(|&v| v == 0.0));
    }
}
