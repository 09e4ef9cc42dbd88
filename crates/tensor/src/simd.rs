//! Runtime-dispatched x86-64 SIMD backends for the gather-bound kernels,
//! the dense analog-plane GEMM and the backward's row updates.
//!
//! Every kernel in this crate has a **portable scalar implementation
//! that is the single source of truth for semantics**
//! (`crate::sparse::gather_row_lane`'s one-accumulator sum and its batched
//! relatives; the single-accumulator row dot of
//! [`crate::batched::matmul_bt_bias_scalar`]; the scaled-row loop of
//! [`crate::linalg::outer_acc_run_scalar`]). This module adds AVX2
//! backends that execute the *same arithmetic* with 8 outputs per
//! instruction: lanes map to distinct outputs (output rows for the
//! forward kernels, output columns for the backward row update), so
//! each output's accumulation order is unchanged, and SIMD results are
//! **bit-identical** to the scalar kernels (pinned by the
//! `simd_equivalence` suite in `tests/`).
//!
//! Dispatch is decided once per process with
//! [`is_x86_feature_detected!`]: AVX2 + FMA select the vector backends,
//! anything else (including non-x86 targets) keeps the scalar kernels.
//! Setting the environment variable **`AXSNN_NO_SIMD`** (to any value)
//! forces the scalar path — the escape hatch CI uses to keep the
//! fallback exercised, and the first knob to reach for when triaging a
//! suspected kernel miscompile.
//!
//! Five primitive shapes cover the hot paths:
//!
//! * `PanelLine` panels / `matmul_panels` — the spike-plane GEMM
//!   behind [`crate::batched::sparse_matmul_bias_packed`]: each 8-row
//!   weight tile lives as an index-major panel (`panel[j·8 + l] =
//!   row_l[j]`), packed once per weight change into a
//!   [`crate::batched::PackedWeights`], so every gathered column is one
//!   contiguous, 32-byte-aligned load shared by 8 output rows; `N`
//!   panels share each batch row's walk of its index list, one batch
//!   row included. Per lane the sum is `gather_row_lane`'s: one
//!   accumulator from `+0.0` over the ascending indices, bias last. Each
//!   panel is one 8-lane chain; the instruction-level parallelism comes
//!   from the `N` independent panels sharing one walk of the index
//!   list, never from splitting one output's sum.
//! * the same panels / `matmul_dense_panel8` — the dense analog-plane
//!   GEMM behind [`crate::batched::matmul_bt_bias_packed`]: a panel
//!   streamed against four batch rows at a time (one broadcast input
//!   per row and column). Per lane the sum is the scalar row dot's: one
//!   accumulator from `+0.0`, `acc + w·x` over ascending columns with a
//!   separate multiply and add, bias last. Above this kernel, the fused
//!   engine in `axsnn-core` reuses the first linear layer's currents at
//!   a step where every input train repeats its analog frame bit for
//!   bit (flagged once when the train is built), so a direct-current
//!   input layer runs it once per pass. That saving depends on the
//!   repeating input; changing analog frames run the kernel on every
//!   step.
//! * `scaled_row_sum` — the backward's register-tiled row update behind
//!   [`crate::linalg::outer_acc_run`] (a linear layer's weight gradient
//!   over a run of taped rows) and
//!   [`crate::linalg::matvec_t_block_into`] (`Wᵀ·g` over a row's
//!   nonzero coefficients): `out[j] = out[j] + c·row[j]` over a
//!   list of scaled rows. Here **lanes map to output columns of one
//!   row**, not to output rows: a 32-column tile of the output row
//!   stays in four registers across up to 32 scaled rows at a time.
//!   Each lane still adds the terms in list order, product rounded
//!   first, so every column keeps the scalar loop's add order.
//! * `lif_fire_row` — the batched LIF step behind
//!   [`crate::batched::lif_fire`]: eight membranes per `u = leak·v + I`
//!   (multiply then add, never FMA), an ordered `u ≥ V_th` compare
//!   (NaN never fires), a masked reset to `+0.0`, and the compare's
//!   movemask compacting the fired lanes' indices through a 256-entry
//!   permutation table into the CSR index array — one unconditional
//!   vector store per 8 neurons, no branch per spike. Lanes map to
//!   neurons, each computed as in the scalar loop of
//!   [`crate::batched::lif_fire_scalar`].
//! * `pack_rows8` / `pack_panel8_f16` / `pack_panel8_int8` — the packs
//!   that build the panels from f32 rows, f16 bits (F16C `vcvtph2ps`)
//!   or int8 codes (LUT `vgatherdps`) through an in-register 8×8
//!   transpose. A layer's panels are packed once per weight change;
//!   only the per-call dense [`crate::batched::matmul_bt_bias`] (the
//!   ANN twin's layers) packs each tile just before streaming it.
//!
//! # Provenance
//!
//! Introduced in PR 10 (the ROADMAP's "explicit SIMD" single-core
//! headroom item); bit-identity is pinned by `simd_equivalence` and the
//! floors live in `BENCH_simd.json`.

// The crate denies `unsafe_code`; the `std::arch` backends below are
// the one sanctioned exception. Every `unsafe fn` documents the
// contract its safe wrapper enforces, and no unsafe leaves this module.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// One-time feature probe: (simd usable, f16c usable, detected list).
struct Detection {
    simd: bool,
    f16c: bool,
    features: String,
}

fn detection() -> &'static Detection {
    static DETECTION: OnceLock<Detection> = OnceLock::new();
    DETECTION.get_or_init(|| {
        let disabled = std::env::var_os("AXSNN_NO_SIMD").is_some();
        #[cfg(target_arch = "x86_64")]
        {
            let probes = [
                ("avx2", std::arch::is_x86_feature_detected!("avx2")),
                ("fma", std::arch::is_x86_feature_detected!("fma")),
                ("f16c", std::arch::is_x86_feature_detected!("f16c")),
                ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ];
            let features = probes
                .iter()
                .filter(|(_, on)| *on)
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(",");
            let avx2 = probes[0].1 && probes[1].1;
            Detection {
                simd: avx2 && !disabled,
                f16c: avx2 && probes[2].1 && !disabled,
                features,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = disabled;
            Detection {
                simd: false,
                f16c: false,
                features: String::new(),
            }
        }
    })
}

/// Returns `true` when the AVX2 backends are selected: x86-64 with AVX2
/// and FMA detected at runtime, and `AXSNN_NO_SIMD` not set. Decided
/// once per process.
pub fn active() -> bool {
    detection().simd
}

/// The dispatch choice the kernels run under: `"avx2"` when [`active`],
/// `"scalar"` otherwise. Recorded in every bench artifact so perf
/// floors stay hardware-aware.
pub fn isa_label() -> &'static str {
    if active() {
        "avx2"
    } else {
        "scalar"
    }
}

/// Comma-separated ISA features detected on this machine (for example
/// `"avx2,fma,f16c"`), independent of the `AXSNN_NO_SIMD` override;
/// empty on hardware without any probed feature and on non-x86 targets.
pub fn detected_features() -> &'static str {
    &detection().features
}

/// Returns `true` when every index addresses a column below `k` — the
/// bounds contract the unsafe gather kernels rely on. The event types
/// ([`crate::sparse::SpikeVector`], [`crate::batched::SpikeMatrix`])
/// validate this at construction; the dispatchers re-check in O(nnz) so
/// the vector backends stay sound even against a hand-rolled index
/// list.
pub(crate) fn indices_in_bounds(indices: &[u32], k: usize) -> bool {
    indices.iter().all(|&j| (j as usize) < k)
}

/// Number of output rows one vector tile covers.
pub(crate) const ROW_LANES: usize = 8;

/// One line of a packed weight panel: weight column `j` of eight
/// consecutive output rows, `line.0[l] = row_l[j]`. The 32-byte
/// alignment keeps every 8-float load of a panel inside one cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
pub(crate) struct PanelLine(pub(crate) [f32; ROW_LANES]);

/// Transposes an 8-row weight tile into an index-major panel:
/// `panel[j].0[l] = rows[l·k + j]` — one aligned 8-float line per
/// weight column, so the GEMM inner loops replace gathers with plain
/// vector loads. Contiguous row loads and an in-register transpose
/// under [`active`], a scalar loop otherwise.
///
/// # Panics
///
/// Panics when `rows` is not `8·k` long or `panel` not `k` lines long.
#[inline]
pub(crate) fn pack_rows8(rows: &[f32], k: usize, panel: &mut [PanelLine]) {
    assert!(rows.len() == ROW_LANES * k && panel.len() == k);
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: AVX2 detected; gathers read `rows[l·k + j]` for `j < k`,
        // stores write the `k` lines of `panel` — both within the
        // asserted lengths.
        unsafe {
            pack_rows8_avx2(rows.as_ptr(), k, panel.as_mut_ptr().cast());
        }
        return;
    }
    for (j, line) in panel.iter_mut().enumerate() {
        for (l, slot) in line.0.iter_mut().enumerate() {
            *slot = rows[l * k + j];
        }
    }
}

/// The spike-plane GEMM microkernel over `N` packed panels: every
/// gathered column is one contiguous load `panel_t[j]`. Writes
/// `out[8·t + l] = (Σ_j panel_t[j].0[l]) + bias[8·t + l]` with exactly
/// [`crate::sparse::gather_row_lane`]'s summation order per lane: one
/// accumulator from `+0.0`, ascending indices, bias last. The `N` panels
/// lie back to back in `panels`, and each is one accumulator chain over
/// a shared walk of the index list — more panels per walk put more
/// independent loads in flight, which the latency-bound one-row shape
/// needs.
///
/// # Panics
///
/// Panics when `panels` is not `N·k` lines long, `bias` is not `8·N`
/// long, `out` is shorter than `8·N`, an index is out of bounds for
/// `k`, or when called without [`active`].
#[inline]
pub(crate) fn matmul_panels<const N: usize>(
    panels: &[PanelLine],
    k: usize,
    indices: &[u32],
    bias: &[f32],
    out: &mut [f32],
) {
    let lanes = N * ROW_LANES;
    assert!(panels.len() == N * k && bias.len() == lanes && out.len() >= lanes && active());
    assert!(indices_in_bounds(indices, k), "spike index out of bounds");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 detected; every load reads line `t·k + j` of `panels`
    // with `t < N` and `j < k`, in bounds of the asserted `N·k` lines;
    // the loads read `bias[0..8·N]` and the stores write `out[0..8·N]`.
    unsafe {
        matmul_panels_avx2::<N>(
            panels.as_ptr().cast(),
            k,
            indices,
            bias.as_ptr(),
            out.as_mut_ptr(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD dispatch is never active off x86-64");
}

/// The dense GEMM microkernel over a packed panel: for every row `r` of
/// the row-major `[B, k]` block `x`, writes
/// `out[r·stride + l] = (Σ_j panel[j].0[l] · x[r·k + j]) + bias[l]`.
///
/// Per lane this is exactly the scalar
/// [`crate::batched::matmul_bt_bias_scalar`] loop: one accumulator
/// starting at `+0.0`, `acc = acc + w·x` over ascending `j` with a
/// separate multiply and add (never FMA), the bias added after the sum.
/// Four batch rows stream through each panel line at once (four
/// independent accumulator chains), with a single-row tail for `B % 4`.
///
/// # Panics
///
/// Panics when `k == 0`, `panel` is not `k` lines long, `x` is not a
/// whole number of `k`-element rows, `out` cannot hold the last row's 8
/// outputs at `stride`, or when called without [`active`].
#[inline]
pub(crate) fn matmul_dense_panel8(
    panel: &[PanelLine],
    k: usize,
    x: &[f32],
    bias: &[f32; 8],
    out: &mut [f32],
    stride: usize,
) {
    assert!(k > 0 && panel.len() == k && x.len().is_multiple_of(k) && active());
    let rows = x.len() / k;
    if let Some(last) = rows.checked_sub(1) {
        let need = last
            .checked_mul(stride)
            .and_then(|v| v.checked_add(ROW_LANES));
        assert!(
            need.is_some_and(|n| out.len() >= n),
            "dense panel output too short"
        );
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 detected; loads read the `k` lines of `panel` and
    // `x[r·k + j]` for `j < k`, `r < rows`, within the asserted slices;
    // stores write `out[r·stride .. r·stride + 8]`, in bounds by the
    // length assertion above.
    unsafe {
        matmul_dense_panel8_avx2(
            panel.as_ptr().cast(),
            k,
            x.as_ptr(),
            rows,
            bias,
            out.as_mut_ptr(),
            stride,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD dispatch is never active off x86-64");
}

/// The leaky-integrate-and-fire step over one membrane row's whole
/// 8-neuron blocks: per neuron `u = leak·v + I` (a multiply then an
/// add, never FMA), `pre[j] = u` when `RECORD`, and where `u ≥
/// threshold` (ordered compare, so a NaN never fires) the membrane
/// resets to `+0.0` and `j` is appended to `fired` in ascending order;
/// elsewhere the membrane keeps `u`. Returns the number of neurons
/// processed (`v.len()` rounded down to a multiple of 8); the caller's
/// scalar loop ([`crate::batched::lif_fire_scalar`]'s) takes the rest,
/// so the whole row is bit-identical to that loop.
///
/// # Panics
///
/// Panics when `i` (or `pre`, when `RECORD`) is shorter than `v`, when
/// `v.len()` exceeds the spike index range, or when called without
/// [`active`].
#[inline]
pub(crate) fn lif_fire_row<const RECORD: bool>(
    v: &mut [f32],
    i: &[f32],
    pre: &mut [f32],
    threshold: f32,
    leak: f32,
    fired: &mut Vec<u32>,
) -> usize {
    assert!(active() && i.len() >= v.len() && (!RECORD || pre.len() >= v.len()));
    assert!(
        u32::try_from(v.len()).is_ok(),
        "row exceeds the spike index range"
    );
    let full = v.len() - v.len() % ROW_LANES;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 is detected (`active()` asserted above); every load
    // and store touches element `j < full ≤ v.len()` of `v`, of `i` and
    // (when `RECORD`) of `pre`, each at least `v.len()` long (asserted
    // above).
    unsafe {
        lif_fire_row_avx2::<RECORD>(
            v.as_mut_ptr(),
            i.as_ptr(),
            pre.as_mut_ptr(),
            full,
            threshold,
            leak,
            fired,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD dispatch is never active off x86-64");
    full
}

/// Output columns one register tile of [`scaled_row_sum`] holds: four
/// 8-lane accumulators.
pub(crate) const COL_TILE: usize = 32;

/// Terms one register pass of [`scaled_row_sum`] adds before storing
/// the tile: at most this many input rows stream at once. Holding a
/// tile across every row of a large `Wᵀ·g` (512 rows of 1568 columns)
/// measured up to 1.9× slower than the row-streaming loop it replaced;
/// passes of 32 rows were back at parity.
const TERM_CHUNK: usize = 32;

/// Accumulates a run of scaled rows into one output row:
/// `out[j] = out[j] + c·row[j]` for every `(c, row)` of `terms` in
/// order, each row read over `out.len()` columns.
///
/// **Lanes map to output columns of the one row**: a 32-column tile of
/// `out` stays in four registers across up to [`TERM_CHUNK`] terms —
/// a whole run of a shard's weight-gradient pass at the batch sizes
/// the trainers use — then 8-column tiles and a scalar tail take the
/// rest. Every column sees the terms in the same order as the scalar
/// loop behind [`crate::linalg::outer_acc_run_scalar`], with the
/// product rounded before the add (`vmulps` then `vaddps`, never FMA),
/// so the result is bit-identical to it.
///
/// # Panics
///
/// Panics when a row is shorter than `out`, or when called without
/// [`active`] (the dispatchers guarantee it).
#[inline]
pub(crate) fn scaled_row_sum(out: &mut [f32], terms: &[(f32, &[f32])]) {
    assert!(active());
    assert!(
        terms.iter().all(|(_, row)| row.len() >= out.len()),
        "scaled row shorter than the output row"
    );
    #[cfg(target_arch = "x86_64")]
    for chunk in terms.chunks(TERM_CHUNK) {
        // SAFETY: AVX2 is detected (`active()` asserted above); every
        // vector and scalar access reads or writes a column below
        // `out.len()` of `out` or of a row, and every row covers
        // `out.len()` floats (asserted above).
        unsafe {
            scaled_row_sum_avx2(out.as_mut_ptr(), out.len(), chunk);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD dispatch is never active off x86-64");
}

/// Fused decode-and-pack for an 8-row f16 tile: writes
/// `panel[j].0[l] = f16→f32(bits[l·k + j])` — each element
/// bit-identical to [`crate::plane::f16_to_f32`] — without an f32 block
/// intermediate (F16C converts 8 columns per row, an in-register 8×8
/// transpose orders them index-major). Scalar loop without F16C.
///
/// # Panics
///
/// Panics when `bits` is not `8·k` long or `panel` not `k` lines long.
pub(crate) fn pack_panel8_f16(bits: &[u16], k: usize, panel: &mut [PanelLine]) {
    assert!(bits.len() == ROW_LANES * k && panel.len() == k);
    #[cfg(target_arch = "x86_64")]
    if detection().f16c {
        // SAFETY: F16C is detected; loads read `bits[l·k + j]` windows
        // and stores write the `k` lines of `panel`, both within the
        // asserted lengths.
        unsafe {
            avx2::pack_panel8_f16_f16c(bits.as_ptr(), k, panel.as_mut_ptr().cast());
        }
        return;
    }
    for (j, line) in panel.iter_mut().enumerate() {
        for (l, slot) in line.0.iter_mut().enumerate() {
            *slot = crate::plane::f16_to_f32(bits[l * k + j]);
        }
    }
}

/// Fused decode-and-pack for an 8-row int8 tile through the 255-entry
/// `levels` table: `panel[j].0[l] = levels[codes[l·k + j]]`,
/// bit-identical to the scalar LUT walk per element (the AVX2 path
/// clamps a corrupt code to 254, keeping the gather inside the table,
/// where the scalar walk would panic).
///
/// # Panics
///
/// Panics when `codes` is not `8·k` long, `panel` not `k` lines long or
/// `levels` does not hold exactly 255 entries.
pub(crate) fn pack_panel8_int8(codes: &[u8], levels: &[f32], k: usize, panel: &mut [PanelLine]) {
    assert!(codes.len() == ROW_LANES * k && panel.len() == k);
    assert_eq!(levels.len(), 255);
    #[cfg(target_arch = "x86_64")]
    if detection().simd {
        // An arithmetic decode of the quantizer's affine table
        // (subtract, convert, multiply, endpoint blends) was measured
        // *slower* here: its shuffle-port µops contend with the 8×8
        // transpose, while the LUT gather hits a 1 KB L1-resident table
        // and pipelines cleanly. The gather is the keeper.
        //
        // SAFETY: AVX2 is detected; code loads stay within the asserted
        // `8·k` slice, level gathers are clamped to index ≤ 254 < 255,
        // and stores cover the `k` lines of `panel`.
        unsafe {
            avx2::pack_panel8_int8_avx2(
                codes.as_ptr(),
                levels.as_ptr(),
                k,
                panel.as_mut_ptr().cast(),
            );
        }
        return;
    }
    for (j, line) in panel.iter_mut().enumerate() {
        for (l, slot) in line.0.iter_mut().enumerate() {
            *slot = levels[codes[l * k + j] as usize];
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// The per-lane row offsets `{0, k, 2k, …, 7k}` of an 8-row tile.
    ///
    /// # Safety
    ///
    /// Requires AVX (caller holds the AVX2 target feature).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_offsets(k: usize) -> __m256i {
        debug_assert!(7usize
            .checked_mul(k)
            .is_some_and(|v| v <= i32::MAX as usize));
        let k = k as i32;
        _mm256_setr_epi32(0, k, 2 * k, 3 * k, 4 * k, 5 * k, 6 * k, 7 * k)
    }

    /// In-register 8×8 f32 transpose: output vector `c` holds element
    /// `c` of each input vector. The standard unpack/shuffle/permute
    /// ladder — 24 shuffle µops replace 8 gathers when a tile is
    /// transposed from contiguous row loads.
    ///
    /// # Safety
    ///
    /// Requires AVX (caller holds the AVX2 target feature).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8x8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// # Safety
    ///
    /// AVX2 required; `rows` and `panel` must both cover `8·k` floats,
    /// and `panel` must be 32-byte aligned.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_rows8_avx2(rows: *const f32, k: usize, panel: *mut f32) {
        let mut j = 0usize;
        // 8-column blocks: contiguous loads per row + one in-register
        // transpose beat a gather per column.
        while j + 8 <= k {
            let mut v = [_mm256_setzero_ps(); 8];
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = _mm256_loadu_ps(rows.add(l * k + j));
            }
            let t = transpose8x8(v);
            for (c, col) in t.iter().enumerate() {
                _mm256_storeu_ps(panel.add((j + c) * 8), *col);
            }
            j += 8;
        }
        let off = row_offsets(k);
        while j < k {
            _mm256_storeu_ps(panel.add(j * 8), _mm256_i32gather_ps::<4>(rows.add(j), off));
            j += 1;
        }
    }

    /// Fused f16 decode-and-pack: `panel[j·8 + l] = f16→f32(bits[l·k + j])`
    /// with no f32 block intermediate.
    ///
    /// # Safety
    ///
    /// AVX2+F16C required; `bits` and `panel` must cover `8·k` elements.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn pack_panel8_f16_f16c(bits: *const u16, k: usize, panel: *mut f32) {
        let mut j = 0usize;
        while j + 8 <= k {
            let mut v = [_mm256_setzero_ps(); 8];
            for (l, slot) in v.iter_mut().enumerate() {
                *slot = _mm256_cvtph_ps(_mm_loadu_si128(bits.add(l * k + j).cast()));
            }
            let t = transpose8x8(v);
            for (c, col) in t.iter().enumerate() {
                _mm256_storeu_ps(panel.add((j + c) * 8), *col);
            }
            j += 8;
        }
        while j < k {
            for l in 0..8 {
                *panel.add(j * 8 + l) = crate::plane::f16_to_f32(*bits.add(l * k + j));
            }
            j += 1;
        }
    }

    /// Fused int8 decode-and-pack through the 255-entry `levels` table:
    /// `panel[j·8 + l] = levels[codes[l·k + j]]`. Valid planes only emit
    /// codes `0..=254`; clamping keeps the gather inside the table even
    /// for a corrupt buffer.
    ///
    /// # Safety
    ///
    /// AVX2 required; `codes` and `panel` must cover `8·k` elements and
    /// `levels` 255 entries.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_panel8_int8_avx2(
        codes: *const u8,
        levels: *const f32,
        k: usize,
        panel: *mut f32,
    ) {
        let cap = _mm256_set1_epi32(254);
        let mut j = 0usize;
        while j + 8 <= k {
            let mut v = [_mm256_setzero_ps(); 8];
            for (l, slot) in v.iter_mut().enumerate() {
                let bytes = _mm_loadl_epi64(codes.add(l * k + j).cast());
                let idx = _mm256_min_epu32(_mm256_cvtepu8_epi32(bytes), cap);
                *slot = _mm256_i32gather_ps::<4>(levels, idx);
            }
            let t = transpose8x8(v);
            for (c, col) in t.iter().enumerate() {
                _mm256_storeu_ps(panel.add((j + c) * 8), *col);
            }
            j += 8;
        }
        while j < k {
            for l in 0..8 {
                *panel.add(j * 8 + l) = *levels.add((*codes.add(l * k + j)).min(254) as usize);
            }
            j += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 required; `panels` must cover `8·N·k` floats, 32-byte
    /// aligned, with every index `< k`, and `bias` and `out` must cover
    /// `8·N` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_panels_avx2<const N: usize>(
        panels: *const f32,
        k: usize,
        indices: &[u32],
        bias: *const f32,
        out: *mut f32,
    ) {
        let tiles: [*const f32; N] = std::array::from_fn(|t| panels.add(t * 8 * k));
        let mut acc = [_mm256_setzero_ps(); N];
        for &j in indices {
            let j = j as usize * 8;
            for (a, tile) in acc.iter_mut().zip(tiles) {
                *a = _mm256_add_ps(*a, _mm256_load_ps(tile.add(j)));
            }
        }
        for (t, a) in acc.into_iter().enumerate() {
            let b = _mm256_loadu_ps(bias.add(8 * t));
            _mm256_storeu_ps(out.add(8 * t), _mm256_add_ps(a, b));
        }
    }

    /// # Safety
    ///
    /// AVX2 required; `panel` must cover `8·k` floats, 32-byte aligned,
    /// `x` must cover `rows·k` floats, and `out` must cover
    /// `(rows − 1)·stride + 8` floats when `rows > 0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_dense_panel8_avx2(
        panel: *const f32,
        k: usize,
        x: *const f32,
        rows: usize,
        bias: &[f32; 8],
        out: *mut f32,
        stride: usize,
    ) {
        // `_mm256_mul_ps` then `_mm256_add_ps`, never a fused
        // multiply-add: the scalar truth loop rounds the product before
        // the sum, and only the unfused pair reproduces it bit for bit.
        let bv = _mm256_loadu_ps(bias.as_ptr());
        let mut r = 0usize;
        while r + 4 <= rows {
            let (x0, x1, x2, x3) = (
                x.add(r * k),
                x.add((r + 1) * k),
                x.add((r + 2) * k),
                x.add((r + 3) * k),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for j in 0..k {
                let p = _mm256_load_ps(panel.add(j * 8));
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(p, _mm256_set1_ps(*x0.add(j))));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(p, _mm256_set1_ps(*x1.add(j))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(p, _mm256_set1_ps(*x2.add(j))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(p, _mm256_set1_ps(*x3.add(j))));
            }
            _mm256_storeu_ps(out.add(r * stride), _mm256_add_ps(a0, bv));
            _mm256_storeu_ps(out.add((r + 1) * stride), _mm256_add_ps(a1, bv));
            _mm256_storeu_ps(out.add((r + 2) * stride), _mm256_add_ps(a2, bv));
            _mm256_storeu_ps(out.add((r + 3) * stride), _mm256_add_ps(a3, bv));
            r += 4;
        }
        while r < rows {
            let xr = x.add(r * k);
            let mut a = _mm256_setzero_ps();
            for j in 0..k {
                let p = _mm256_load_ps(panel.add(j * 8));
                a = _mm256_add_ps(a, _mm256_mul_ps(p, _mm256_set1_ps(*xr.add(j))));
            }
            _mm256_storeu_ps(out.add(r * stride), _mm256_add_ps(a, bv));
            r += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 required; `len` is a multiple of 8, `v` and `i` must cover
    /// `len` floats, and so must `pre` when `RECORD`; `len` fits the
    /// spike index range. Appends the fired indices to `fired` (its
    /// spare capacity takes whole-vector stores past the new length).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lif_fire_row_avx2<const RECORD: bool>(
        v: *mut f32,
        i: *const f32,
        pre: *mut f32,
        len: usize,
        threshold: f32,
        leak: f32,
        fired: &mut Vec<u32>,
    ) {
        // `_mm256_mul_ps` then `_mm256_add_ps`, never a fused
        // multiply-add: the scalar loop rounds the product first.
        let leak = _mm256_set1_ps(leak);
        let threshold = _mm256_set1_ps(threshold);
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        // Each block stores all eight candidate indices at the write
        // position and advances it by the fired count, so the write
        // position stays below `start + j + 8 ≤ start + len`: reserving
        // `len` keeps every store in the allocation.
        fired.reserve(len);
        let start = fired.len();
        let out = fired.as_mut_ptr();
        let mut at = start;
        let mut j = 0usize;
        while j < len {
            let u = _mm256_add_ps(
                _mm256_mul_ps(leak, _mm256_loadu_ps(v.add(j))),
                _mm256_loadu_ps(i.add(j)),
            );
            if RECORD {
                _mm256_storeu_ps(pre.add(j), u);
            }
            let fire = _mm256_cmp_ps::<_CMP_GE_OQ>(u, threshold);
            // All-ones lanes clear `u` to `+0.0`: the hard reset.
            _mm256_storeu_ps(v.add(j), _mm256_andnot_ps(fire, u));
            let mask = _mm256_movemask_ps(fire) as usize;
            let order = _mm256_cvtepu8_epi32(_mm_loadl_epi64(COMPRESS[mask].as_ptr().cast()));
            let indices = _mm256_add_epi32(_mm256_set1_epi32(j as i32), lanes);
            _mm256_storeu_si256(
                out.add(at).cast(),
                _mm256_permutevar8x32_epi32(indices, order),
            );
            at += mask.count_ones() as usize;
            j += 8;
        }
        // Every element below `at` was written by a store above.
        fired.set_len(at);
    }

    /// Row `mask` lists the lanes of `mask`'s set bits in ascending
    /// order, padded with lane 0: permuting eight indices through it
    /// packs the fired ones to the front, in order.
    static COMPRESS: [[u8; 8]; 256] = compress_table();

    const fn compress_table() -> [[u8; 8]; 256] {
        let mut table = [[0u8; 8]; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut lane, mut k) = (0, 0);
            while lane < 8 {
                if mask & (1 << lane) != 0 {
                    table[mask][k] = lane as u8;
                    k += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    }

    /// # Safety
    ///
    /// AVX2 required; `out` must cover `n` floats and every row of
    /// `terms` at least `n` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scaled_row_sum_avx2(out: *mut f32, n: usize, terms: &[(f32, &[f32])]) {
        // `_mm256_mul_ps` then `_mm256_add_ps`, never a fused
        // multiply-add: the scalar truth loop rounds the product first.
        let mut j = 0usize;
        while j + super::COL_TILE <= n {
            let o = out.add(j);
            let mut a0 = _mm256_loadu_ps(o);
            let mut a1 = _mm256_loadu_ps(o.add(8));
            let mut a2 = _mm256_loadu_ps(o.add(16));
            let mut a3 = _mm256_loadu_ps(o.add(24));
            for &(c, row) in terms {
                let cv = _mm256_set1_ps(c);
                let r = row.as_ptr().add(j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(cv, _mm256_loadu_ps(r)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(cv, _mm256_loadu_ps(r.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(cv, _mm256_loadu_ps(r.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(cv, _mm256_loadu_ps(r.add(24))));
            }
            _mm256_storeu_ps(o, a0);
            _mm256_storeu_ps(o.add(8), a1);
            _mm256_storeu_ps(o.add(16), a2);
            _mm256_storeu_ps(o.add(24), a3);
            j += super::COL_TILE;
        }
        while j + 8 <= n {
            let o = out.add(j);
            let mut a = _mm256_loadu_ps(o);
            for &(c, row) in terms {
                let r = _mm256_loadu_ps(row.as_ptr().add(j));
                a = _mm256_add_ps(a, _mm256_mul_ps(_mm256_set1_ps(c), r));
            }
            _mm256_storeu_ps(o, a);
            j += 8;
        }
        while j < n {
            let mut a = *out.add(j);
            for &(c, row) in terms {
                a += c * *row.as_ptr().add(j);
            }
            *out.add(j) = a;
            j += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{
    lif_fire_row_avx2, matmul_dense_panel8_avx2, matmul_panels_avx2, pack_rows8_avx2,
    scaled_row_sum_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_consistent() {
        // Whatever the hardware, the label must agree with the probe
        // and the feature list must be well-formed.
        assert_eq!(isa_label(), if active() { "avx2" } else { "scalar" });
        let feats = detected_features();
        assert!(feats
            .split(',')
            .all(|f| f.chars().all(|c| c.is_ascii_alphanumeric())));
        if active() {
            assert!(feats.contains("avx2") && feats.contains("fma"));
        }
    }

    #[test]
    fn bounds_probe() {
        assert!(indices_in_bounds(&[0, 3, 7], 8));
        assert!(!indices_in_bounds(&[0, 8], 8));
        assert!(indices_in_bounds(&[], 0));
    }

    #[test]
    fn decoders_match_scalar() {
        // The fused decode-and-pack of both planes against the scalar
        // per-element decode, on this machine's dispatch (whole 8-column
        // blocks and the column tail; the full cross-product lives in
        // tests/simd_equivalence.rs).
        let k = 19;
        let values: Vec<f32> = (0..8 * k)
            .map(|i| ((i as f32) * 0.713).sin() * 3.0)
            .collect();
        let bits: Vec<u16> = values
            .iter()
            .map(|&v| crate::plane::f32_to_f16(v))
            .collect();
        let mut panel = vec![PanelLine::default(); k];
        pack_panel8_f16(&bits, k, &mut panel);
        for (j, line) in panel.iter().enumerate() {
            for (l, v) in line.0.iter().enumerate() {
                let want = crate::plane::f16_to_f32(bits[l * k + j]);
                assert_eq!(v.to_bits(), want.to_bits());
            }
        }

        let plane =
            crate::plane::QuantizedPlane::quantize(&values, crate::plane::WeightPlane::Int8)
                .unwrap()
                .unwrap();
        let dq = plane.dequantize();
        if let crate::plane::PlaneView::Int8 { codes, levels } = plane.view() {
            pack_panel8_int8(codes, levels, k, &mut panel);
            for (j, line) in panel.iter().enumerate() {
                for (l, v) in line.0.iter().enumerate() {
                    assert_eq!(v.to_bits(), dq[l * k + j].to_bits());
                }
            }
        } else {
            panic!("expected int8 view");
        }
    }

    #[test]
    fn scaled_row_sum_matches_scalar_loop() {
        // Every tile path: 32-column tiles, 8-column tiles and the
        // scalar tail (the full cross-product lives in
        // tests/simd_equivalence.rs).
        if !active() {
            return;
        }
        let n = 2 * COL_TILE + 8 + 3;
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|e| (0..n).map(|j| ((j * 7 + e) as f32 * 0.37).sin()).collect())
            .collect();
        let coefs = [0.5f32, -0.0, 1e-3, -2.25, 0.0];
        let terms: Vec<(f32, &[f32])> = coefs
            .iter()
            .copied()
            .zip(rows.iter().map(|r| &r[..]))
            .collect();
        let start: Vec<f32> = (0..n).map(|j| (j as f32 * 0.11).cos()).collect();
        let mut fast = start.clone();
        scaled_row_sum(&mut fast, &terms);
        for (j, (&f, &s0)) in fast.iter().zip(&start).enumerate() {
            let mut acc = s0;
            for &(c, row) in &terms {
                acc += c * row[j];
            }
            assert_eq!(f.to_bits(), acc.to_bits(), "column {j}");
        }
    }

    #[test]
    fn row_kernels_match_gather_row() {
        // The panel pack on every dispatch, and the panel walk over one
        // and four panels against the scalar gather per lane.
        let (m, k) = (32usize, 19usize);
        let rows: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.37).cos()).collect();
        let bias: Vec<f32> = (0..m).map(|l| l as f32 * 0.75 - 3.0).collect();
        let mut panels = vec![PanelLine::default(); m / ROW_LANES * k];
        for (t, panel) in panels.chunks_exact_mut(k).enumerate() {
            pack_rows8(&rows[t * 8 * k..(t + 1) * 8 * k], k, panel);
            for (j, line) in panel.iter().enumerate() {
                for (l, &v) in line.0.iter().enumerate() {
                    assert_eq!(v.to_bits(), rows[(t * 8 + l) * k + j].to_bits());
                }
            }
        }
        if !active() {
            return;
        }
        let lists: [&[u32]; 3] = [&[0, 2, 3, 5, 7, 11, 13, 17, 18], &[1, 4, 18], &[]];
        for (r, list) in lists.iter().enumerate() {
            let mut p8 = [0.0f32; 8];
            matmul_panels::<1>(&panels[..k], k, list, &bias[..8], &mut p8);
            let mut p32 = [0.0f32; 32];
            matmul_panels::<4>(&panels, k, list, &bias, &mut p32);
            for l in 0..32 {
                let row = &rows[l * k..(l + 1) * k];
                let scalar =
                    crate::sparse::gather_row_lane(crate::plane::F32Lane(row), list, bias[l])
                        .to_bits();
                assert_eq!(p32[l].to_bits(), scalar, "panels x4 list {r} lane {l}");
                if l < 8 {
                    assert_eq!(p8[l].to_bits(), scalar, "panel list {r} lane {l}");
                }
            }
        }
    }
}
