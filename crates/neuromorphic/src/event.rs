//! DVS event data model.
//!
//! An event is the tuple `(x, y, p, t)` from Sec. IV-B of the paper.
//! Timestamps are normalized to `[0, 1)` over the sample window, which is
//! what the Table II quantization steps (`q_t` ∈ {0.015, 0.01}) are
//! expressed in.

use crate::{NeuroError, Result};
use std::fmt;

/// Polarity of a brightness change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Brightness increase.
    On,
    /// Brightness decrease.
    Off,
}

impl Polarity {
    /// Channel index used by frame accumulation (`On` = 0, `Off` = 1).
    pub fn channel(&self) -> usize {
        match self {
            Polarity::On => 0,
            Polarity::Off => 1,
        }
    }

    /// The opposite polarity.
    pub fn flipped(&self) -> Polarity {
        match self {
            Polarity::On => Polarity::Off,
            Polarity::Off => Polarity::On,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::On => write!(f, "+"),
            Polarity::Off => write!(f, "-"),
        }
    }
}

/// A single DVS event `(x, y, p, t)` with `t` normalized to `[0, 1)`.
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, Polarity};
///
/// let e = DvsEvent::new(10, 20, Polarity::On, 0.5);
/// assert_eq!(e.x, 10);
/// assert_eq!(e.polarity.channel(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsEvent {
    /// Horizontal pixel coordinate.
    pub x: u16,
    /// Vertical pixel coordinate.
    pub y: u16,
    /// Brightness-change polarity.
    pub polarity: Polarity,
    /// Normalized timestamp in `[0, 1)`.
    pub t: f32,
}

impl DvsEvent {
    /// Creates an event.
    pub fn new(x: u16, y: u16, polarity: Polarity, t: f32) -> Self {
        DvsEvent { x, y, polarity, t }
    }
}

/// An ordered collection of events from one sample window of a sensor.
///
/// Events are kept sorted by timestamp (push enforces monotonicity
/// lazily: [`EventStream::sort_by_time`] restores order after bulk edits,
/// and the filters call it defensively).
///
/// # Example
///
/// ```
/// use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
///
/// # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
/// let mut s = EventStream::new(128, 128)?;
/// s.push(DvsEvent::new(64, 64, Polarity::On, 0.1))?;
/// s.push(DvsEvent::new(65, 64, Polarity::Off, 0.2))?;
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.width(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    width: usize,
    height: usize,
    events: Vec<DvsEvent>,
}

impl EventStream {
    /// Creates an empty stream for a `width × height` sensor.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidSensor`] for zero dimensions.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(NeuroError::InvalidSensor { width, height });
        }
        Ok(EventStream {
            width,
            height,
            events: Vec::new(),
        })
    }

    /// Builds a stream from a pre-collected event list.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidSensor`] for zero dimensions or
    /// [`NeuroError::EventOutOfRange`] when any event lies outside the
    /// sensor or has a timestamp outside `[0, 1)`.
    pub fn from_events(width: usize, height: usize, events: Vec<DvsEvent>) -> Result<Self> {
        let mut stream = EventStream::new(width, height)?;
        for e in events {
            stream.push(e)?;
        }
        stream.sort_by_time();
        Ok(stream)
    }

    /// Sensor width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sensor height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events are present.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in timestamp order (if not manually perturbed).
    pub fn events(&self) -> &[DvsEvent] {
        &self.events
    }

    /// Mutable access for attack/filter passes; call
    /// [`EventStream::sort_by_time`] afterwards if timestamps changed.
    pub fn events_mut(&mut self) -> &mut Vec<DvsEvent> {
        &mut self.events
    }

    /// Appends an event after validating coordinates and timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::EventOutOfRange`] for invalid events.
    pub fn push(&mut self, e: DvsEvent) -> Result<()> {
        if (e.x as usize) >= self.width || (e.y as usize) >= self.height {
            return Err(NeuroError::EventOutOfRange {
                message: format!(
                    "({}, {}) outside {}x{} sensor",
                    e.x, e.y, self.width, self.height
                ),
            });
        }
        if !(0.0..1.0).contains(&e.t) {
            return Err(NeuroError::EventOutOfRange {
                message: format!("timestamp {} outside [0, 1)", e.t),
            });
        }
        self.events.push(e);
        Ok(())
    }

    /// Restores timestamp order after bulk mutation.
    pub fn sort_by_time(&mut self) {
        self.events
            .sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Retains only events matching the predicate (filter passes).
    pub fn retain<F: FnMut(&DvsEvent) -> bool>(&mut self, f: F) {
        self.events.retain(f);
    }

    /// Mean event rate per pixel (events / pixel) — a sparsity measure.
    pub fn density(&self) -> f32 {
        self.events.len() as f32 / (self.width * self.height) as f32
    }

    /// Counts events whose pixel lies on the sensor boundary (used to
    /// detect Frame attacks).
    pub fn boundary_event_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                e.x == 0
                    || e.y == 0
                    || e.x as usize == self.width - 1
                    || e.y as usize == self.height - 1
            })
            .count()
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a DvsEvent;
    type IntoIter = std::slice::Iter<'a, DvsEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sensor_rejected() {
        assert!(EventStream::new(0, 10).is_err());
        assert!(EventStream::new(10, 0).is_err());
    }

    #[test]
    fn push_validates_coordinates() {
        let mut s = EventStream::new(4, 4).unwrap();
        assert!(s.push(DvsEvent::new(3, 3, Polarity::On, 0.0)).is_ok());
        assert!(s.push(DvsEvent::new(4, 0, Polarity::On, 0.0)).is_err());
        assert!(s.push(DvsEvent::new(0, 4, Polarity::On, 0.0)).is_err());
    }

    #[test]
    fn push_validates_timestamp() {
        let mut s = EventStream::new(4, 4).unwrap();
        assert!(s.push(DvsEvent::new(0, 0, Polarity::On, 1.0)).is_err());
        assert!(s.push(DvsEvent::new(0, 0, Polarity::On, -0.1)).is_err());
        assert!(s.push(DvsEvent::new(0, 0, Polarity::On, 0.999)).is_ok());
    }

    #[test]
    fn from_events_sorts() {
        let s = EventStream::from_events(
            8,
            8,
            vec![
                DvsEvent::new(1, 1, Polarity::On, 0.9),
                DvsEvent::new(2, 2, Polarity::Off, 0.1),
            ],
        )
        .unwrap();
        assert!(s.events()[0].t < s.events()[1].t);
    }

    #[test]
    fn boundary_count() {
        let s = EventStream::from_events(
            4,
            4,
            vec![
                DvsEvent::new(0, 2, Polarity::On, 0.1),  // boundary
                DvsEvent::new(3, 1, Polarity::On, 0.2),  // boundary
                DvsEvent::new(1, 1, Polarity::On, 0.3),  // interior
                DvsEvent::new(2, 3, Polarity::Off, 0.4), // boundary
            ],
        )
        .unwrap();
        assert_eq!(s.boundary_event_count(), 3);
    }

    #[test]
    fn density_and_iter() {
        let s = EventStream::from_events(
            2,
            2,
            vec![
                DvsEvent::new(0, 0, Polarity::On, 0.1),
                DvsEvent::new(1, 1, Polarity::Off, 0.2),
            ],
        )
        .unwrap();
        assert_eq!(s.density(), 0.5);
        assert_eq!((&s).into_iter().count(), 2);
    }

    #[test]
    fn polarity_helpers() {
        assert_eq!(Polarity::On.channel(), 0);
        assert_eq!(Polarity::Off.channel(), 1);
        assert_eq!(Polarity::On.flipped(), Polarity::Off);
        assert_eq!(Polarity::On.to_string(), "+");
    }
}
