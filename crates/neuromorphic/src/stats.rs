//! Event-stream statistics and transformations.
//!
//! Diagnostics a practitioner needs when working with event data:
//! rate profiles, polarity balance, per-pixel histograms, plus windowing
//! and cropping transforms used to build training samples from longer
//! recordings.

use crate::event::{DvsEvent, EventStream, Polarity};
use crate::Result;

/// Summary statistics of an event stream.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
/// use axsnn_neuromorphic::stats::stream_stats;
///
/// # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
/// let s = EventStream::from_events(8, 8, vec![
///     DvsEvent::new(1, 1, Polarity::On, 0.1),
///     DvsEvent::new(2, 2, Polarity::Off, 0.6),
/// ])?;
/// let st = stream_stats(&s);
/// assert_eq!(st.total_events, 2);
/// assert_eq!(st.on_events, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Total number of events.
    pub total_events: usize,
    /// ON (brightness-increase) events.
    pub on_events: usize,
    /// OFF events.
    pub off_events: usize,
    /// Number of distinct active pixels.
    pub active_pixels: usize,
    /// Maximum events at a single pixel.
    pub max_events_per_pixel: u32,
    /// Mean event timestamp (temporal centre of mass).
    pub mean_timestamp: f32,
    /// Events on the sensor boundary.
    pub boundary_events: usize,
}

/// Computes [`StreamStats`] in one pass.
pub fn stream_stats(stream: &EventStream) -> StreamStats {
    let (w, h) = (stream.width(), stream.height());
    let mut per_pixel = vec![0u32; w * h];
    let mut on = 0usize;
    let mut t_sum = 0.0f64;
    for e in stream {
        per_pixel[e.y as usize * w + e.x as usize] += 1;
        if e.polarity == Polarity::On {
            on += 1;
        }
        t_sum += e.t as f64;
    }
    let total = stream.len();
    StreamStats {
        total_events: total,
        on_events: on,
        off_events: total - on,
        active_pixels: per_pixel.iter().filter(|&&c| c > 0).count(),
        max_events_per_pixel: per_pixel.iter().copied().max().unwrap_or(0),
        mean_timestamp: if total == 0 {
            0.0
        } else {
            (t_sum / total as f64) as f32
        },
        boundary_events: stream.boundary_event_count(),
    }
}

/// Event rate over `bins` uniform time windows (events per window).
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
/// use axsnn_neuromorphic::stats::rate_profile;
///
/// # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
/// let s = EventStream::from_events(4, 4, vec![
///     DvsEvent::new(0, 0, Polarity::On, 0.1),
///     DvsEvent::new(0, 0, Polarity::On, 0.15),
///     DvsEvent::new(0, 0, Polarity::On, 0.9),
/// ])?;
/// assert_eq!(rate_profile(&s, 2), vec![2, 1]);
/// # Ok(())
/// # }
/// ```
pub fn rate_profile(stream: &EventStream, bins: usize) -> Vec<usize> {
    let mut profile = vec![0usize; bins.max(1)];
    let n = profile.len();
    for e in stream {
        let b = ((e.t * n as f32) as usize).min(n - 1);
        profile[b] += 1;
    }
    profile
}

/// Extracts the sub-stream inside the time window `[from, to)`, with
/// timestamps renormalized to `[0, 1)` over the window.
///
/// # Errors
///
/// Returns [`crate::NeuroError::InvalidParameter`] when the window is
/// empty or out of range.
pub fn time_window(stream: &EventStream, from: f32, to: f32) -> Result<EventStream> {
    if !(0.0..=1.0).contains(&from) || !(0.0..=1.0).contains(&to) || from >= to {
        return Err(crate::NeuroError::InvalidParameter {
            message: format!("invalid time window [{from}, {to})"),
        });
    }
    let span = to - from;
    let mut out = EventStream::new(stream.width(), stream.height())?;
    for e in stream {
        if e.t >= from && e.t < to {
            let mut copy = *e;
            copy.t = ((copy.t - from) / span).min(0.999_999);
            out.push(copy)?;
        }
    }
    Ok(out)
}

/// Crops to a spatial region `[x0, x0+w) × [y0, y0+h)` with coordinates
/// re-based to the crop origin.
///
/// # Errors
///
/// Returns [`crate::NeuroError::InvalidParameter`] when the crop leaves
/// the sensor.
pub fn crop(
    stream: &EventStream,
    x0: usize,
    y0: usize,
    width: usize,
    height: usize,
) -> Result<EventStream> {
    if width == 0 || height == 0 || x0 + width > stream.width() || y0 + height > stream.height() {
        return Err(crate::NeuroError::InvalidParameter {
            message: format!(
                "crop {width}x{height}@({x0},{y0}) exceeds sensor {}x{}",
                stream.width(),
                stream.height()
            ),
        });
    }
    let mut out = EventStream::new(width, height)?;
    for e in stream {
        let (x, y) = (e.x as usize, e.y as usize);
        if x >= x0 && x < x0 + width && y >= y0 && y < y0 + height {
            out.push(DvsEvent::new(
                (x - x0) as u16,
                (y - y0) as u16,
                e.polarity,
                e.t,
            ))?;
        }
    }
    Ok(out)
}

/// Merges two streams of the same sensor into one time-sorted stream.
///
/// # Errors
///
/// Returns [`crate::NeuroError::InvalidParameter`] for mismatched
/// sensor geometry.
pub fn merge(a: &EventStream, b: &EventStream) -> Result<EventStream> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(crate::NeuroError::InvalidParameter {
            message: format!(
                "cannot merge {}x{} with {}x{}",
                a.width(),
                a.height(),
                b.width(),
                b.height()
            ),
        });
    }
    let mut events: Vec<DvsEvent> = a.events().to_vec();
    events.extend_from_slice(b.events());
    EventStream::from_events(a.width(), a.height(), events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> EventStream {
        EventStream::from_events(
            8,
            8,
            vec![
                DvsEvent::new(0, 0, Polarity::On, 0.05),
                DvsEvent::new(3, 4, Polarity::On, 0.25),
                DvsEvent::new(3, 4, Polarity::Off, 0.55),
                DvsEvent::new(7, 7, Polarity::Off, 0.95),
            ],
        )
        .unwrap()
    }

    #[test]
    fn stats_one_pass() {
        let st = stream_stats(&stream());
        assert_eq!(st.total_events, 4);
        assert_eq!(st.on_events, 2);
        assert_eq!(st.off_events, 2);
        assert_eq!(st.active_pixels, 3);
        assert_eq!(st.max_events_per_pixel, 2);
        assert_eq!(st.boundary_events, 2);
        assert!((st.mean_timestamp - 0.45).abs() < 1e-5);
    }

    #[test]
    fn stats_empty_stream() {
        let s = EventStream::new(4, 4).unwrap();
        let st = stream_stats(&s);
        assert_eq!(st.total_events, 0);
        assert_eq!(st.mean_timestamp, 0.0);
        assert_eq!(st.max_events_per_pixel, 0);
    }

    #[test]
    fn rate_profile_bins() {
        assert_eq!(rate_profile(&stream(), 4), vec![1, 1, 1, 1]);
        assert_eq!(rate_profile(&stream(), 2), vec![2, 2]);
        assert_eq!(rate_profile(&stream(), 1), vec![4]);
    }

    #[test]
    fn time_window_renormalizes() {
        let w = time_window(&stream(), 0.2, 0.6).unwrap();
        assert_eq!(w.len(), 2);
        // t = 0.25 → (0.25−0.2)/0.4 = 0.125; t = 0.55 → 0.875.
        assert!((w.events()[0].t - 0.125).abs() < 1e-5);
        assert!((w.events()[1].t - 0.875).abs() < 1e-5);
        assert!(time_window(&stream(), 0.5, 0.5).is_err());
        assert!(time_window(&stream(), -0.1, 0.5).is_err());
    }

    #[test]
    fn crop_rebases_coordinates() {
        let c = crop(&stream(), 2, 3, 4, 4).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.events()[0].x, 1); // 3 − 2
        assert_eq!(c.events()[0].y, 1); // 4 − 3
        assert!(crop(&stream(), 6, 6, 4, 4).is_err());
    }

    #[test]
    fn merge_sorts_and_validates() {
        let a = stream();
        let b =
            EventStream::from_events(8, 8, vec![DvsEvent::new(1, 1, Polarity::On, 0.15)]).unwrap();
        let m = merge(&a, &b).unwrap();
        assert_eq!(m.len(), 5);
        for pair in m.events().windows(2) {
            assert!(pair[0].t <= pair[1].t);
        }
        let other = EventStream::new(4, 4).unwrap();
        assert!(merge(&a, &other).is_err());
    }
}
