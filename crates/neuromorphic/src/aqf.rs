//! Approximate quantization-aware filtering (AQF) — Algorithm 2.
//!
//! Genuine DVS events are spatio-temporally correlated: a moving edge
//! produces clusters of events that are close in both space and time.
//! Adversarial perturbations (Sparse/Frame attacks) inject events with
//! *low* correlation. AQF removes them in three steps, following the
//! paper's Algorithm 2:
//!
//! 1. **Quantize** each timestamp with step `q_t`
//!    (`t ← round(t/q_t)·q_t`) — the "approximate quantization" that
//!    both denoises and matches the precision-scaled inference pipeline,
//! 2. **Correlate**: a memory map `M[y][x]` stores the most recent
//!    *neighbour* timestamp within a `(2s+1)²` window (the event's own
//!    pixel is excluded) and an activity counter per pixel,
//! 3. **Filter**: an event is removed when no neighbour fired within the
//!    temporal window `T2` (temporally isolated) or its pixel's activity
//!    counter exceeded `T1` and was flagged (hot / saturated pixel, the
//!    Frame-attack signature).

use crate::event::EventStream;
use crate::{NeuroError, Result};

/// AQF parameters (Algorithm 2's `qt, s, T1, T2`).
///
/// Timestamps are normalized to `[0, 1)`, so `temporal_threshold` is a
/// fraction of the sample window; the paper's `T2 = 50` (ms of a ~1.5 s
/// gesture window) corresponds to ≈ 0.05 here.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::aqf::AqfConfig;
///
/// let cfg = AqfConfig::default();
/// assert_eq!(cfg.spatial_window, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AqfConfig {
    /// Quantization step `q_t` for timestamps (0.0 disables quantization;
    /// Table II uses 0.015 and 0.01).
    pub quantization_step: f32,
    /// Spatial neighbourhood radius `s` (the paper fixes `s = 2`).
    pub spatial_window: usize,
    /// Activity threshold `T1`: a pixel whose neighbourhood counter
    /// exceeds this within one quantization window is *saturated* for
    /// that window.
    pub activity_threshold: u32,
    /// Temporal correlation threshold `T2` (normalized time units).
    pub temporal_threshold: f32,
    /// Number of saturated windows after which a pixel is flagged hot for
    /// the rest of the sample (the sticky `M[i][j] = 1` of Algorithm 2).
    /// Persistence separates an attack that hammers the same pixels all
    /// sample long from a gesture that merely passes through.
    pub saturation_persistence: u32,
}

impl Default for AqfConfig {
    fn default() -> Self {
        AqfConfig {
            quantization_step: 0.015,
            spatial_window: 2,
            activity_threshold: 5,
            temporal_threshold: 0.05,
            saturation_persistence: 8,
        }
    }
}

impl AqfConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] for a negative
    /// quantization step, zero spatial window, or non-positive temporal
    /// threshold.
    pub fn validate(&self) -> Result<()> {
        if self.quantization_step < 0.0 {
            return Err(NeuroError::InvalidParameter {
                message: format!(
                    "quantization_step must be ≥ 0, got {}",
                    self.quantization_step
                ),
            });
        }
        if self.spatial_window == 0 {
            return Err(NeuroError::InvalidParameter {
                message: "spatial_window must be ≥ 1".into(),
            });
        }
        if self.temporal_threshold <= 0.0 {
            return Err(NeuroError::InvalidParameter {
                message: format!(
                    "temporal_threshold must be > 0, got {}",
                    self.temporal_threshold
                ),
            });
        }
        Ok(())
    }
}

/// Statistics of one AQF pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AqfReport {
    /// Events in the input stream.
    pub input_events: usize,
    /// Events surviving the filter.
    pub kept_events: usize,
    /// Events removed as temporally uncorrelated.
    pub removed_uncorrelated: usize,
    /// Events removed at saturated (hot) pixels.
    pub removed_saturated: usize,
}

impl AqfReport {
    /// Fraction of events removed.
    pub fn removal_fraction(&self) -> f32 {
        if self.input_events == 0 {
            0.0
        } else {
            (self.input_events - self.kept_events) as f32 / self.input_events as f32
        }
    }
}

/// Applies AQF (Algorithm 2) and returns the filtered stream plus a
/// removal report.
///
/// # Errors
///
/// Returns [`NeuroError::InvalidParameter`] for invalid configuration.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::aqf::{approximate_quantized_filter, AqfConfig};
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
///
/// # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
/// // A tight burst of neighbouring events (signal) plus one isolated
/// // far-away event (noise).
/// let mut events = Vec::new();
/// for i in 0..6u16 {
///     events.push(DvsEvent::new(10 + (i % 3), 10 + (i / 3), Polarity::On, 0.10 + i as f32 * 0.001));
/// }
/// events.push(DvsEvent::new(30, 30, Polarity::On, 0.8)); // lone noise event
/// let stream = EventStream::from_events(64, 64, events)?;
/// let (filtered, report) = approximate_quantized_filter(&stream, &AqfConfig::default())?;
/// assert!(report.kept_events >= 5);
/// assert!(filtered.events().iter().all(|e| e.x < 20), "noise removed");
/// # Ok(())
/// # }
/// ```
pub fn approximate_quantized_filter(
    stream: &EventStream,
    cfg: &AqfConfig,
) -> Result<(EventStream, AqfReport)> {
    cfg.validate()?;
    let (w, h) = (stream.width(), stream.height());
    let s = cfg.spatial_window as isize;

    // Pass 1 — hot-pixel statistics (the sticky `M[i][j] = 1` flag of
    // Algorithm 2, lines 15-17). A pixel is saturated when its own event
    // count over the sample exceeds `max(T1·persistence, factor·median)`
    // of the non-empty pixels: a genuine gesture sweeps *through* pixels,
    // an attack hammers the same ones all sample long. The median is
    // robust against the attack inflating the mean.
    let mut own_count = vec![0u32; w * h];
    for e in stream {
        own_count[e.y as usize * w + e.x as usize] += 1;
    }
    // The cut is deliberately absolute (`T1 · persistence`), like the
    // paper's fixed `T1 = 5`, `T2 = 50`: any data-adaptive statistic over
    // the event stream can be poisoned by the very attack it is supposed
    // to catch (a Frame attack floods enough pixels to shift medians and
    // quantiles).
    let hot_cut = cfg.activity_threshold as f32 * cfg.saturation_persistence as f32;
    let saturated: Vec<bool> = own_count.iter().map(|&c| (c as f32) > hot_cut).collect();

    // Pass 2 — temporal correlation in time order (lines 5-14, 18-20).
    // M[y][x]: most recent neighbour timestamp; NEG means "never".
    const NEVER: f32 = -1.0e9;
    let mut memory = vec![NEVER; w * h];
    let mut ordered: Vec<_> = stream.events().to_vec();
    ordered.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));

    let mut kept = EventStream::new(w, h)?;
    let mut removed_uncorrelated = 0usize;
    let mut removed_saturated = 0usize;

    for e in &ordered {
        // Line 4: quantize the timestamp.
        let tq = if cfg.quantization_step > 0.0 {
            ((e.t / cfg.quantization_step).round() * cfg.quantization_step).clamp(0.0, 0.999_999)
        } else {
            e.t
        };
        let (ex, ey) = (e.x as isize, e.y as isize);

        // Decide on this event *before* it contributes to its own
        // neighbourhood (lines 18-20 test the pre-update memory).
        let own = ey as usize * w + ex as usize;
        let uncorrelated = tq - memory[own] > cfg.temporal_threshold;
        let hot = saturated[own];

        // Lines 5-9: stamp the neighbourhood memory. Hot pixels do not
        // get to validate their neighbours (an attack would otherwise
        // whitelist itself).
        if !hot {
            for dy in -s..=s {
                for dx in -s..=s {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (nx, ny) = (ex + dx, ey + dy);
                    if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                        continue;
                    }
                    memory[ny as usize * w + nx as usize] = tq;
                }
            }
        }

        if hot {
            removed_saturated += 1;
            continue;
        }
        if uncorrelated {
            removed_uncorrelated += 1;
            continue;
        }
        let mut filtered_event = *e;
        filtered_event.t = tq;
        kept.push(filtered_event)?;
    }

    let report = AqfReport {
        input_events: stream.len(),
        kept_events: kept.len(),
        removed_uncorrelated,
        removed_saturated,
    };
    Ok((kept, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DvsEvent, Polarity};

    /// A dense moving cluster whose events mutually validate.
    fn signal_burst(x0: u16, y0: u16, t0: f32, n: usize) -> Vec<DvsEvent> {
        (0..n)
            .map(|i| {
                DvsEvent::new(
                    x0 + (i % 2) as u16,
                    y0 + ((i / 2) % 2) as u16,
                    Polarity::On,
                    t0 + i as f32 * 0.002,
                )
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(AqfConfig::default().validate().is_ok());
        assert!(AqfConfig {
            quantization_step: -0.1,
            ..AqfConfig::default()
        }
        .validate()
        .is_err());
        assert!(AqfConfig {
            spatial_window: 0,
            ..AqfConfig::default()
        }
        .validate()
        .is_err());
        assert!(AqfConfig {
            temporal_threshold: 0.0,
            ..AqfConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn keeps_correlated_burst() {
        let stream = EventStream::from_events(32, 32, signal_burst(10, 10, 0.2, 10)).unwrap();
        let (kept, report) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        // The first event has no history and is dropped; the rest are
        // validated by their predecessors.
        assert!(kept.len() >= 8, "kept only {} of 10", kept.len());
        assert_eq!(report.input_events, 10);
    }

    #[test]
    fn removes_isolated_noise() {
        let mut events = signal_burst(10, 10, 0.2, 10);
        events.push(DvsEvent::new(30, 5, Polarity::Off, 0.7)); // isolated
        let stream = EventStream::from_events(32, 32, events).unwrap();
        let (kept, report) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        assert!(kept.events().iter().all(|e| e.x <= 12));
        assert!(report.removed_uncorrelated >= 1);
    }

    #[test]
    fn removes_hot_pixels() {
        // One pixel fires far beyond the T1·persistence cut (40 with the
        // defaults) across the whole sample — the hot-pixel signature of
        // a frame-style attack. Every one of its events must be dropped.
        let mut events = signal_burst(10, 10, 0.2, 8);
        for i in 0..60 {
            events.push(DvsEvent::new(
                5,
                5,
                Polarity::On,
                (i as f32 / 64.0).min(0.999),
            ));
        }
        let stream = EventStream::from_events(16, 16, events).unwrap();
        let (kept, report) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        assert!(
            report.removed_saturated >= 60,
            "saturation must trigger: {report:?}"
        );
        assert!(kept.events().iter().all(|e| !(e.x == 5 && e.y == 5)));
    }

    #[test]
    fn hot_pixel_does_not_validate_neighbours() {
        // Isolated events adjacent to a hot pixel must still be removed
        // as uncorrelated: the attacker cannot whitelist a region by
        // flooding it.
        let mut events = Vec::new();
        for i in 0..60 {
            events.push(DvsEvent::new(
                5,
                5,
                Polarity::On,
                (i as f32 / 64.0).min(0.999),
            ));
        }
        events.push(DvsEvent::new(6, 5, Polarity::Off, 0.5));
        let stream = EventStream::from_events(16, 16, events).unwrap();
        let (kept, _) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        assert!(kept.is_empty(), "kept {:?}", kept.events());
    }

    #[test]
    fn quantization_snaps_timestamps() {
        let stream = EventStream::from_events(
            16,
            16,
            vec![
                DvsEvent::new(5, 5, Polarity::On, 0.101),
                DvsEvent::new(5, 6, Polarity::On, 0.104),
            ],
        )
        .unwrap();
        let cfg = AqfConfig {
            quantization_step: 0.01,
            temporal_threshold: 0.5,
            ..AqfConfig::default()
        };
        let (kept, _) = approximate_quantized_filter(&stream, &cfg).unwrap();
        for e in kept.events() {
            let snapped = (e.t / 0.01).round() * 0.01;
            assert!(
                (e.t - snapped).abs() < 1e-6,
                "timestamp {} not on grid",
                e.t
            );
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let stream = EventStream::new(8, 8).unwrap();
        let (kept, report) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        assert!(kept.is_empty());
        assert_eq!(report.removal_fraction(), 0.0);
    }

    #[test]
    fn zero_step_disables_quantization() {
        let stream = EventStream::from_events(32, 32, signal_burst(8, 8, 0.123456, 6)).unwrap();
        let cfg = AqfConfig {
            quantization_step: 0.0,
            ..AqfConfig::default()
        };
        let (kept, _) = approximate_quantized_filter(&stream, &cfg).unwrap();
        assert!(kept
            .events()
            .iter()
            .any(|e| (e.t - 0.123456).abs() > 1e-6 || e.t == 0.123456 + 0.002));
    }

    #[test]
    fn report_accounting_consistent() {
        let mut events = signal_burst(10, 10, 0.2, 8);
        events.push(DvsEvent::new(30, 30, Polarity::On, 0.9));
        let stream = EventStream::from_events(32, 32, events).unwrap();
        let (_, r) = approximate_quantized_filter(&stream, &AqfConfig::default()).unwrap();
        assert_eq!(
            r.kept_events + r.removed_uncorrelated + r.removed_saturated,
            r.input_events
        );
    }
}
