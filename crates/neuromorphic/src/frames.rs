//! Event-to-frame accumulation.
//!
//! SNN simulators consume spike frames, so an [`EventStream`] is binned
//! into `T` time windows; each window becomes a `[2, H, W]` tensor (one
//! channel per polarity). Binary accumulation (any event → 1.0) is the
//! default, matching spike semantics; count accumulation is available for
//! rate analysis. [`binary_frame_train`] bins the same way straight into
//! event-form spike rows for the fused engine, with no dense frame.

use crate::event::EventStream;
use crate::{NeuroError, Result};
use axsnn_core::fused::FrameTrain;
use axsnn_tensor::sparse::SpikeVector;
use axsnn_tensor::{Shape, Tensor};

/// How multiple events in the same (bin, pixel, polarity) cell combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accumulation {
    /// Any event produces a unit spike (the SNN input convention).
    Binary,
    /// Events are counted.
    Count,
}

/// Bins an event stream into `time_steps` spike frames of shape
/// `[2, height, width]`.
///
/// # Errors
///
/// Returns [`NeuroError::InvalidParameter`] when `time_steps` is zero.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
/// use axsnn_neuromorphic::frames::{accumulate_frames, Accumulation};
///
/// # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
/// let s = EventStream::from_events(4, 4, vec![
///     DvsEvent::new(1, 2, Polarity::On, 0.1),
///     DvsEvent::new(3, 0, Polarity::Off, 0.9),
/// ])?;
/// let frames = accumulate_frames(&s, 2, Accumulation::Binary)?;
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames[0].shape().dims(), &[2, 4, 4]);
/// assert_eq!(frames[0].at(&[0, 2, 1]).unwrap(), 1.0); // On event, first bin
/// assert_eq!(frames[1].at(&[1, 0, 3]).unwrap(), 1.0); // Off event, second bin
/// # Ok(())
/// # }
/// ```
pub fn accumulate_frames(
    stream: &EventStream,
    time_steps: usize,
    mode: Accumulation,
) -> Result<Vec<Tensor>> {
    if time_steps == 0 {
        return Err(NeuroError::InvalidParameter {
            message: "time_steps must be > 0".into(),
        });
    }
    let (w, h) = (stream.width(), stream.height());
    let mut frames = vec![Tensor::zeros(&[2, h, w]); time_steps];
    for e in stream {
        let bin = uniform_bin(e.t, time_steps);
        let c = e.polarity.channel();
        let idx = [c, e.y as usize, e.x as usize];
        let frame = &mut frames[bin];
        let current = frame.at(&idx).unwrap_or(0.0);
        let next = match mode {
            Accumulation::Binary => 1.0,
            Accumulation::Count => current + 1.0,
        };
        frame
            .set(&idx, next)
            .map_err(|te| NeuroError::EventOutOfRange {
                message: te.to_string(),
            })?;
    }
    Ok(frames)
}

/// The uniform bin of timestamp `t` among `time_steps > 0` windows —
/// the one formula shared by [`accumulate_frames`],
/// [`binary_frame_train`] and the streaming `Uniform` schedule. It is a
/// float product, never an interval comparison, so all three agree on
/// every boundary.
pub(crate) fn uniform_bin(t: f32, time_steps: usize) -> usize {
    // t ∈ [0,1) ⇒ bin ∈ [0, time_steps).
    ((t * time_steps as f32) as usize).min(time_steps - 1)
}

/// Bins an event stream into `time_steps` binary spike rows, one
/// per step, packed as a fused-engine [`FrameTrain`] over
/// `[2, height, width]`.
///
/// The rows are exactly what [`accumulate_frames`] with
/// [`Accumulation::Binary`] yields once packed
/// ([`FrameTrain::from_frames`]): events bin with the same formula, and
/// each row holds the row-major offsets `channel·H·W + y·W + x` of its
/// active cells, ascending and without duplicates. No dense frame is
/// built, so a query costs time in the number of events rather than in
/// `time_steps × 2·H·W`.
///
/// # Errors
///
/// Returns [`NeuroError::InvalidParameter`] when `time_steps` is zero or
/// a frame has more cells than a spike index can address, and the same
/// [`NeuroError::EventOutOfRange`] as [`accumulate_frames`] for an event
/// outside the sensor.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
/// use axsnn_neuromorphic::frames::{accumulate_frames, binary_frame_train, Accumulation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = EventStream::from_events(4, 4, vec![
///     DvsEvent::new(1, 2, Polarity::On, 0.1),
///     DvsEvent::new(3, 0, Polarity::Off, 0.9),
/// ])?;
/// let train = binary_frame_train(&s, 2)?;
/// assert_eq!(train.dims(), &[2, 4, 4]);
/// assert_eq!(train.to_frames()?, accumulate_frames(&s, 2, Accumulation::Binary)?);
/// # Ok(())
/// # }
/// ```
pub fn binary_frame_train(stream: &EventStream, time_steps: usize) -> Result<FrameTrain> {
    if time_steps == 0 {
        return Err(NeuroError::InvalidParameter {
            message: "time_steps must be > 0".into(),
        });
    }
    let shape = Shape::new(&[2, stream.height(), stream.width()]);
    let volume = shape.volume();
    if u32::try_from(volume).is_err() {
        return Err(NeuroError::InvalidParameter {
            message: format!("a {shape} frame exceeds the spike index range"),
        });
    }
    let mut rows = vec![Vec::new(); time_steps];
    for e in stream {
        let idx = [e.polarity.channel(), e.y as usize, e.x as usize];
        let flat = shape
            .flat_index(&idx)
            .map_err(|te| NeuroError::EventOutOfRange {
                message: te.to_string(),
            })?;
        rows[uniform_bin(e.t, time_steps)].push(flat as u32);
    }
    let rows = rows
        .into_iter()
        .map(|mut row| {
            row.sort_unstable();
            row.dedup();
            SpikeVector::new(row, volume).map_err(axsnn_core::CoreError::from)
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok(FrameTrain::from_spike_rows(shape.dims(), rows)?)
}

/// Collapses an event stream into a single rate image `[2, H, W]` with
/// values normalized by the maximum cell count (all-zero streams stay
/// zero). Useful for visualization and for static-style attacks on
/// event data.
///
/// # Errors
///
/// Propagates accumulation errors.
pub fn rate_image(stream: &EventStream) -> Result<Tensor> {
    let frames = accumulate_frames(stream, 1, Accumulation::Count)?;
    let img = frames.into_iter().next().expect("one frame requested");
    let max = img.max();
    if max <= 0.0 {
        Ok(img)
    } else {
        Ok(img.scale(1.0 / max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DvsEvent, Polarity};

    fn stream() -> EventStream {
        EventStream::from_events(
            4,
            4,
            vec![
                DvsEvent::new(0, 0, Polarity::On, 0.05),
                DvsEvent::new(0, 0, Polarity::On, 0.10),
                DvsEvent::new(2, 1, Polarity::Off, 0.60),
                DvsEvent::new(3, 3, Polarity::On, 0.99),
            ],
        )
        .unwrap()
    }

    #[test]
    fn zero_time_steps_rejected() {
        let err = accumulate_frames(&stream(), 0, Accumulation::Binary).unwrap_err();
        assert!(matches!(err, NeuroError::InvalidParameter { .. }));
        assert_eq!(binary_frame_train(&stream(), 0).unwrap_err(), err);
    }

    #[test]
    fn binary_frame_train_rejects_sensor_beyond_spike_index_range() {
        // 2·70000·70000 cells do not fit a u32 spike index; wrapping
        // them would alias distinct pixels.
        let s = EventStream::new(70_000, 70_000).unwrap();
        assert!(matches!(
            binary_frame_train(&s, 4),
            Err(NeuroError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn binary_accumulation_saturates() {
        let frames = accumulate_frames(&stream(), 4, Accumulation::Binary).unwrap();
        // Two events at (0,0,On) in bin 0 produce a single unit spike.
        assert_eq!(frames[0].at(&[0, 0, 0]).unwrap(), 1.0);
        assert_eq!(frames[0].sum(), 1.0);
    }

    #[test]
    fn count_accumulation_adds() {
        let frames = accumulate_frames(&stream(), 4, Accumulation::Count).unwrap();
        assert_eq!(frames[0].at(&[0, 0, 0]).unwrap(), 2.0);
    }

    #[test]
    fn events_land_in_correct_bins() {
        let frames = accumulate_frames(&stream(), 4, Accumulation::Binary).unwrap();
        assert_eq!(frames[2].at(&[1, 1, 2]).unwrap(), 1.0); // t=0.60 → bin 2
        assert_eq!(frames[3].at(&[0, 3, 3]).unwrap(), 1.0); // t=0.99 → bin 3
        assert_eq!(frames[1].sum(), 0.0);
    }

    #[test]
    fn polarities_use_separate_channels() {
        let frames = accumulate_frames(&stream(), 1, Accumulation::Count).unwrap();
        assert_eq!(frames[0].at(&[0, 1, 2]).unwrap(), 0.0); // On channel empty there
        assert_eq!(frames[0].at(&[1, 1, 2]).unwrap(), 1.0); // Off channel has it
    }

    #[test]
    fn rate_image_normalized() {
        let img = rate_image(&stream()).unwrap();
        assert_eq!(img.max(), 1.0);
        assert_eq!(img.at(&[0, 0, 0]).unwrap(), 1.0); // densest cell
        assert_eq!(img.at(&[1, 1, 2]).unwrap(), 0.5);
    }

    #[test]
    fn rate_image_of_empty_stream_is_zero() {
        let s = EventStream::new(4, 4).unwrap();
        let img = rate_image(&s).unwrap();
        assert_eq!(img.sum(), 0.0);
    }

    #[test]
    fn total_events_preserved_by_count_mode() {
        let frames = accumulate_frames(&stream(), 8, Accumulation::Count).unwrap();
        let total: f32 = frames.iter().map(|f| f.sum()).sum();
        assert_eq!(total, 4.0);
    }
}
