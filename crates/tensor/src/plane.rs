//! Reduced-precision weight storage planes: int8 / f16 weight buffers
//! with f32 accumulation.
//!
//! The event-sorted batched conv streams weights, not arithmetic: at
//! low spike densities nearly every touched cache line is a weight
//! line. Storing the weights at reduced precision — 16-bit IEEE half
//! bits or 8-bit symmetric-quantized codes — halves to quarters that
//! traffic while every accumulate stays in f32. Linear layers take the
//! other trade: a plane is decoded once per weight change into the f32
//! panels of a [`crate::batched::PackedWeights`]
//! ([`crate::batched::PackedWeights::pack_plane`], one fused
//! decode-and-transpose pass), and every spike GEMM streams those, so a
//! linear layer's GEMM costs the same on every plane.
//!
//! The contract that makes the planes safe to enable is **dequantization
//! exactness**: for every element, the value a plane-aware kernel loads
//! in-register is bit-identical to the f32 tensor produced by
//! round-tripping the weight through the same precision emulation
//! (`axsnn-core`'s `PrecisionScale::quantize_tensor`). Combined with the
//! unchanged accumulation order of the lane-generic kernels, a planed
//! forward is bit-identical to quantize-then-run-f32.
//!
//! * [`WeightPlane`] — the storage choice (`F32` means "no plane").
//! * [`QuantizedPlane`] — an owned quantized buffer
//!   ([`QuantizedPlane::quantize`] / [`QuantizedPlane::dequantize`]).
//! * [`PlaneView`] — the borrowed view the planed kernels take.
//! * [`f32_to_f16`] / [`f16_to_f32`] / [`f16_round_trip`] — the IEEE
//!   half conversions (round-to-nearest-even), shared with the
//!   precision emulation so both sides agree bit for bit.
//!
//! Int8 dequantization is a 255-entry `f32` table lookup
//! (`levels[code]`): branch-free, L1-resident, and exact by
//! construction — the table holds the very values the emulation
//! produces, including the snapped `±max` endpoints that make
//! quantization idempotent.

use crate::simd::PanelLine;
use crate::{Result, TensorError};

/// Per-layer weight storage precision.
///
/// `F32` is the identity plane (master weights stream as-is); `F16` and
/// `Int8` select quantized weight buffers for the plane-aware kernels.
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
/// stores and streams for this element.
pub fn f16_round_trip(value: f32) -> f32 {
    f16_to_f32(f32_to_f16(value))
}

/// An owned reduced-precision weight buffer, materialized once per
/// tensor and streamed by the plane-aware kernels.
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

    /// The plane this buffer stores.
    pub fn plane(&self) -> WeightPlane {
        match self {
            QuantizedPlane::F16 { .. } => WeightPlane::F16,
            QuantizedPlane::Int8 { .. } => WeightPlane::Int8,
        }
    }

    /// Number of stored weights.
    pub fn len(&self) -> usize {
        match self {
            QuantizedPlane::F16 { bits } => bits.len(),
            QuantizedPlane::Int8 { codes, .. } => codes.len(),
        }
    }

    /// Returns `true` when the buffer holds no weights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-tensor int8 scale (`None` for an f16 plane).
    pub fn int8_scale(&self) -> Option<f32> {
        match self {
            QuantizedPlane::F16 { .. } => None,
            QuantizedPlane::Int8 { scale, .. } => Some(*scale),
        }
    }

    /// Materializes the exact f32 values the plane streams — element
    /// for element the same bits a plane-aware kernel loads, and the
    /// same bits the precision emulation's quantize-round-trip
    /// produces.
    pub fn dequantize(&self) -> Vec<f32> {
        match self {
            QuantizedPlane::F16 { bits } => bits.iter().map(|&b| f16_to_f32(b)).collect(),
            QuantizedPlane::Int8 { codes, levels, .. } => {
                codes.iter().map(|&c| levels[c as usize]).collect()
            }
        }
    }

    /// The borrowed view the planed kernels take.
    pub fn view(&self) -> PlaneView<'_> {
        match self {
            QuantizedPlane::F16 { bits } => PlaneView::F16(bits),
            QuantizedPlane::Int8 { codes, levels, .. } => PlaneView::Int8 { codes, levels },
        }
    }
}

/// A borrowed reduced-precision weight buffer — the argument type of the
/// plane-aware kernels ([`crate::batched::PackedWeights::pack_plane`],
/// [`crate::batched::sparse_matmul_bias_planed_scalar`] and the planed
/// conv). Dispatched once at kernel entry; the inner loops are
/// monomorphized per storage format.
#[derive(Debug, Clone, Copy)]
pub enum PlaneView<'a> {
    /// IEEE binary16 bits.
    F16(&'a [u16]),
    /// Symmetric int8 codes plus the 255-entry dequantization table.
    Int8 {
        /// Biased level codes (`k + 127`).
        codes: &'a [u8],
        /// The 255-entry code → f32 table.
        levels: &'a [f32],
    },
}

impl PlaneView<'_> {
    /// Number of stored weights.
    pub fn len(&self) -> usize {
        match self {
            PlaneView::F16(bits) => bits.len(),
            PlaneView::Int8 { codes, .. } => codes.len(),
        }
    }

    /// Returns `true` when the view holds no weights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One weight row's storage format, abstracted for the lane-generic
/// gather kernels: `load(i)` yields the exact f32 value of element `i`.
/// The `f32` lane is a transparent slice load, so the monomorphized f32
/// kernels compile to the same code as before the abstraction.
pub(crate) trait WeightLane: Copy {
    /// The f32 value of element `i`.
    fn load(&self, i: usize) -> f32;
    /// The sub-lane covering `lo..hi`.
    fn slice(&self, lo: usize, hi: usize) -> Self;
    /// Fused panel pack for an 8-row tile (`self.len() == 8·k`): writes
    /// `panel[j].0[l]` = element `l·k + j`, each bit-identical to
    /// `self.load(l·k + j)`. One pass from the stored encoding straight
    /// to the index-major panel — decoding to an f32 block and then
    /// transposing would cost an extra write+read round trip over the
    /// tile. Every impl runs on any dispatch: the vector packs where the
    /// ISA allows, scalar loops elsewhere.
    fn pack_panel8(&self, k: usize, panel: &mut [PanelLine]);
}

/// Full-precision lane: a plain `&[f32]`.
#[derive(Clone, Copy)]
pub(crate) struct F32Lane<'a>(pub(crate) &'a [f32]);

impl WeightLane for F32Lane<'_> {
    #[inline(always)]
    fn load(&self, i: usize) -> f32 {
        self.0[i]
    }

    #[inline(always)]
    fn slice(&self, lo: usize, hi: usize) -> Self {
        F32Lane(&self.0[lo..hi])
    }

    #[inline]
    fn pack_panel8(&self, k: usize, panel: &mut [PanelLine]) {
        crate::simd::pack_rows8(self.0, k, panel);
    }
}

/// Half-precision lane: converts each 16-bit pattern in-register.
#[derive(Clone, Copy)]
pub(crate) struct F16Lane<'a>(pub(crate) &'a [u16]);

impl WeightLane for F16Lane<'_> {
    #[inline(always)]
    fn load(&self, i: usize) -> f32 {
        f16_to_f32(self.0[i])
    }

    #[inline(always)]
    fn slice(&self, lo: usize, hi: usize) -> Self {
        F16Lane(&self.0[lo..hi])
    }

    #[inline]
    fn pack_panel8(&self, k: usize, panel: &mut [PanelLine]) {
        crate::simd::pack_panel8_f16(self.0, k, panel);
    }
}

/// Int8 lane: a byte load plus one L1-resident table lookup.
#[derive(Clone, Copy)]
pub(crate) struct Int8Lane<'a> {
    pub(crate) codes: &'a [u8],
    pub(crate) levels: &'a [f32],
}

impl WeightLane for Int8Lane<'_> {
    #[inline(always)]
    fn load(&self, i: usize) -> f32 {
        self.levels[self.codes[i] as usize]
    }

    #[inline(always)]
    fn slice(&self, lo: usize, hi: usize) -> Self {
        Int8Lane {
            codes: &self.codes[lo..hi],
            levels: self.levels,
        }
    }

    #[inline]
    fn pack_panel8(&self, k: usize, panel: &mut [PanelLine]) {
        crate::simd::pack_panel8_int8(self.codes, self.levels, k, panel);
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
        assert_eq!(plane.plane(), WeightPlane::F16);
        assert_eq!(plane.len(), values.len());
        assert_eq!(plane.int8_scale(), None);
        let dq = plane.dequantize();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(dq[i].to_bits(), f16_round_trip(v).to_bits(), "element {i}");
        }
        // The lane loads the same bits the dequantized tensor holds.
        if let PlaneView::F16(bits) = plane.view() {
            for (i, dv) in dq.iter().enumerate() {
                assert_eq!(F16Lane(bits).load(i).to_bits(), dv.to_bits());
            }
        } else {
            panic!("expected an f16 view");
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
    fn int8_lane_loads_match_dequantized_values() {
        let values: Vec<f32> = (0..33).map(|i| (i as f32 - 16.0) * 0.3).collect();
        let plane = QuantizedPlane::quantize(&values, WeightPlane::Int8)
            .unwrap()
            .unwrap();
        let dq = plane.dequantize();
        if let PlaneView::Int8 { codes, levels } = plane.view() {
            let lane = Int8Lane { codes, levels };
            for (i, dv) in dq.iter().enumerate() {
                assert_eq!(lane.load(i).to_bits(), dv.to_bits());
            }
            assert_eq!(lane.slice(4, 8).load(0).to_bits(), dq[4].to_bits());
        } else {
            panic!("expected an int8 view");
        }
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
        assert!(plane.dequantize().iter().all(|&v| v == 0.0));
        assert!(!plane.is_empty());
    }
}
