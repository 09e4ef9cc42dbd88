//! Streaming DVS event-stream inference.
//!
//! The offline pipeline materializes a whole sample before the first
//! membrane update: events → [`crate::frames::accumulate_frames`] →
//! `SpikingNetwork::forward`. This module removes that barrier. Events
//! are consumed *as they arrive*: a [`StreamAccumulator`] folds each
//! event into the open time window(s) of a [`WindowSchedule`], a window
//! that closes is immediately stepped through the network's incremental
//! [`FrameStepper`], and AQF
//! filtering (when enabled) runs in-stream through [`StreamingAqf`]
//! instead of over a materialized stream.
//!
//! The `FrameStepper` is a one-row pass of the core's fused engine, the
//! same pass `SpikingNetwork::forward` runs, so the streamed path
//! executes the exact same per-frame operations as the offline path —
//! every [`ExecPlan`](axsnn_core::plan::ExecPlan) dispatch decision
//! (density gates, weight planes, dense fallbacks) applies per window,
//! and streamed classification over a full sample is **bit-identical**
//! to the frame-accumulated path for the same window schedule. The
//! `stream_equivalence` suite pins this at every density and with
//! int8/f16 weight planes installed, and freezes the outcomes of
//! `classify_event_stream` under every schedule.
//!
//! # Example
//!
//! ```
//! use axsnn_core::layer::Layer;
//! use axsnn_core::network::{SnnConfig, SpikingNetwork};
//! use axsnn_neuromorphic::event::{DvsEvent, Polarity};
//! use axsnn_neuromorphic::frames::Accumulation;
//! use axsnn_neuromorphic::stream::{StreamConfig, StreamSession, WindowSchedule};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = SnnConfig { threshold: 0.5, time_steps: 4, leak: 0.9 };
//! let mut net = SpikingNetwork::new(
//!     vec![
//!         Layer::spiking_linear(&mut rng, 2 * 4 * 4, 8, &cfg),
//!         Layer::output_linear(&mut rng, 8, 3),
//!     ],
//!     cfg,
//! )?;
//! let stream_cfg = StreamConfig {
//!     schedule: WindowSchedule::Uniform { time_steps: 4 },
//!     mode: Accumulation::Binary,
//!     aqf: None,
//! };
//! let mut session = StreamSession::begin(&mut net, 4, 4, stream_cfg)?;
//! session.push(DvsEvent::new(1, 2, Polarity::On, 0.1), &mut rng)?;
//! session.push(DvsEvent::new(2, 2, Polarity::Off, 0.6), &mut rng)?;
//! let outcome = session.finish(&mut rng)?;
//! assert_eq!(outcome.windows, 4);
//! assert!(outcome.prediction < 3);
//! # Ok(())
//! # }
//! ```

use crate::aqf::{AqfConfig, AqfReport};
use crate::event::{check_event, DvsEvent, EventStream};
use crate::frames::{uniform_bin, Accumulation};
use crate::{NeuroError, Result};
use axsnn_core::network::{FrameStepper, SpikeStats, SpikingNetwork};
use axsnn_tensor::Tensor;
use rand::Rng;
use std::collections::VecDeque;

/// How a streaming session slices the `[0, 1)` sample time axis into
/// spike frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSchedule {
    /// `time_steps` contiguous equal-width bins — the schedule of the
    /// offline [`crate::frames::accumulate_frames`], using the *exact*
    /// same bin formula (`⌊t·T⌋` clamped to `T-1`) so streamed frames
    /// are bit-identical to offline frames.
    Uniform {
        /// Number of bins (the SNN's simulation time steps).
        time_steps: usize,
    },
    /// `windows` rolling windows where window `i` covers
    /// `[i·hop, i·hop + len)`; overlapping when `hop < len`, gapped
    /// when `hop > len` (events in a gap are dropped and counted).
    Rolling {
        /// Number of windows (frames produced).
        windows: usize,
        /// Window length in normalized time units.
        len: f32,
        /// Start-to-start stride in normalized time units.
        hop: f32,
    },
}

impl WindowSchedule {
    /// Total number of frames the schedule produces.
    pub fn window_count(&self) -> usize {
        match *self {
            WindowSchedule::Uniform { time_steps } => time_steps,
            WindowSchedule::Rolling { windows, .. } => windows,
        }
    }

    /// Validates the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] for zero windows or
    /// non-positive rolling `len`/`hop`.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WindowSchedule::Uniform { time_steps } => {
                if time_steps == 0 {
                    return Err(NeuroError::InvalidParameter {
                        message: "uniform schedule needs time_steps > 0".into(),
                    });
                }
            }
            WindowSchedule::Rolling { windows, len, hop } => {
                if windows == 0 {
                    return Err(NeuroError::InvalidParameter {
                        message: "rolling schedule needs windows > 0".into(),
                    });
                }
                // NaN fails `is_finite` too, so it cannot sneak past
                // the positivity check.
                if !(len.is_finite() && len > 0.0 && hop.is_finite() && hop > 0.0) {
                    return Err(NeuroError::InvalidParameter {
                        message: format!(
                            "rolling schedule needs finite len > 0 and hop > 0, \
                             got len={len} hop={hop}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Configuration of a [`StreamSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Time-axis slicing into frames.
    pub schedule: WindowSchedule,
    /// Per-cell accumulation semantics (Binary for spike frames).
    pub mode: Accumulation,
    /// In-stream AQF filtering (see [`StreamingAqf`]); `None` disables.
    pub aqf: Option<AqfConfig>,
}

/// Incrementally folds time-ordered DVS events into the spike frames of
/// a [`WindowSchedule`], emitting each frame the moment its window
/// closes (an event arrives past the window's end).
///
/// Timestamps must be non-decreasing — an out-of-order event returns
/// [`NeuroError::OutOfOrderEvent`] — which is what lets windows close
/// eagerly and memory stay bounded by the number of simultaneously open
/// windows instead of the whole sample.
///
/// For [`WindowSchedule::Uniform`] the produced frames are bit-identical
/// to [`crate::frames::accumulate_frames`] over the same events: binary
/// accumulation is idempotent and count accumulation adds exact `1.0`s,
/// so within-bin ordering cannot change a cell.
#[derive(Debug, Clone)]
pub struct StreamAccumulator {
    width: usize,
    height: usize,
    schedule: WindowSchedule,
    mode: Accumulation,
    /// Frames for windows `next_window .. next_window + open.len()`.
    open: VecDeque<Tensor>,
    /// Lowest window index not yet emitted.
    next_window: usize,
    last_t: Option<f32>,
    events_in: usize,
    events_dropped: usize,
}

impl StreamAccumulator {
    /// Creates an accumulator for a `width × height` sensor.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidSensor`] for zero dimensions and
    /// [`NeuroError::InvalidParameter`] for an invalid schedule.
    pub fn new(
        width: usize,
        height: usize,
        schedule: WindowSchedule,
        mode: Accumulation,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(NeuroError::InvalidSensor { width, height });
        }
        schedule.validate()?;
        Ok(StreamAccumulator {
            width,
            height,
            schedule,
            mode,
            open: VecDeque::new(),
            next_window: 0,
            last_t: None,
            events_in: 0,
            events_dropped: 0,
        })
    }

    fn zero_frame(&self) -> Tensor {
        Tensor::zeros(&[2, self.height, self.width])
    }

    /// Emits the frame of window `next_window` (a zero frame when the
    /// window was never touched by an event).
    fn pop_front_window(&mut self) -> Tensor {
        self.next_window += 1;
        self.open.pop_front().unwrap_or_else(|| self.zero_frame())
    }

    fn stamp(frame: &mut Tensor, e: &DvsEvent, mode: Accumulation) {
        let idx = [e.polarity.channel(), e.y as usize, e.x as usize];
        let current = frame.at(&idx).unwrap_or(0.0);
        let next = match mode {
            Accumulation::Binary => 1.0,
            Accumulation::Count => current + 1.0,
        };
        // Coordinates were validated against the sensor, so set cannot
        // fail; ignore the impossible branch rather than plumb it.
        let _ = frame.set(&idx, next);
    }

    /// Folds one event in, returning every frame whose window closed
    /// before it (usually empty; more than one when the event jumps
    /// past empty windows).
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::EventOutOfRange`] for events outside the
    /// sensor or `[0, 1)`, naming the event's position among the events
    /// accepted so far and its `(x, y, polarity, t)`, and
    /// [`NeuroError::OutOfOrderEvent`] when the timestamp decreases.
    pub fn push(&mut self, e: DvsEvent) -> Result<Vec<Tensor>> {
        check_event(self.width, self.height, self.events_in, &e)?;
        if let Some(prev) = self.last_t {
            if e.t < prev {
                return Err(NeuroError::OutOfOrderEvent {
                    previous: prev,
                    current: e.t,
                });
            }
        }
        self.last_t = Some(e.t);
        self.events_in += 1;

        let mut emitted = Vec::new();
        let mut stamped = false;
        match self.schedule {
            WindowSchedule::Uniform { time_steps } => {
                // The offline bin formula itself — never an interval
                // comparison, so float boundary behaviour matches
                // accumulate_frames exactly.
                let bin = uniform_bin(e.t, time_steps);
                while self.next_window < bin {
                    emitted.push(self.pop_front_window());
                }
                if self.open.is_empty() {
                    let frame = self.zero_frame();
                    self.open.push_back(frame);
                }
                Self::stamp(&mut self.open[0], &e, self.mode);
                stamped = true;
            }
            WindowSchedule::Rolling { windows, len, hop } => {
                while self.next_window < windows && (self.next_window as f32) * hop + len <= e.t {
                    emitted.push(self.pop_front_window());
                }
                while self.next_window + self.open.len() < windows
                    && ((self.next_window + self.open.len()) as f32) * hop <= e.t
                {
                    let frame = self.zero_frame();
                    self.open.push_back(frame);
                }
                for k in 0..self.open.len() {
                    let start = (self.next_window + k) as f32 * hop;
                    if start <= e.t && e.t < start + len {
                        Self::stamp(&mut self.open[k], &e, self.mode);
                        stamped = true;
                    }
                }
            }
        }
        if !stamped {
            self.events_dropped += 1;
        }
        Ok(emitted)
    }

    /// Ends the stream, emitting every remaining frame (open windows
    /// plus trailing never-opened windows as zero frames) so the total
    /// across all [`StreamAccumulator::push`] calls and this is exactly
    /// [`WindowSchedule::window_count`].
    pub fn finish(mut self) -> Vec<Tensor> {
        let total = self.schedule.window_count();
        let mut rest = Vec::with_capacity(total - self.next_window);
        while self.next_window < total {
            rest.push(self.pop_front_window());
        }
        rest
    }

    /// Events accepted so far.
    pub fn events_in(&self) -> usize {
        self.events_in
    }

    /// Events accepted but covered by no window (rolling schedules with
    /// gaps, or events past the last window's end).
    pub fn events_dropped(&self) -> usize {
        self.events_dropped
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> usize {
        self.next_window
    }
}

/// Causal (single-pass) variant of the AQF filter
/// ([`crate::aqf::approximate_quantized_filter`]) for streaming use:
/// events are judged the moment they arrive, with hot-pixel state built
/// from the running per-pixel count instead of the full-sample count.
///
/// Relationship to the offline filter, pinned by `stream_equivalence`:
///
/// * **Superset**: every event the streaming filter removes, the
///   offline filter removes too (`kept_streaming ⊇ kept_offline`) — a
///   pixel hot for the running count is hot for the final count, and
///   streaming neighbourhood memory is stamped at least as recently as
///   offline memory.
/// * **Exact**: when no pixel ever crosses the hot cut, both filters
///   keep the identical event sequence with identical quantized
///   timestamps.
#[derive(Debug, Clone)]
pub struct StreamingAqf {
    cfg: AqfConfig,
    width: usize,
    height: usize,
    hot_cut: f32,
    memory: Vec<f32>,
    own_count: Vec<u32>,
    input_events: usize,
    removed_uncorrelated: usize,
    removed_saturated: usize,
}

impl StreamingAqf {
    const NEVER: f32 = -1.0e9;

    /// Creates a streaming filter for a `width × height` sensor.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidSensor`] for zero dimensions and
    /// [`NeuroError::InvalidParameter`] for an invalid configuration.
    pub fn new(width: usize, height: usize, cfg: AqfConfig) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(NeuroError::InvalidSensor { width, height });
        }
        cfg.validate()?;
        Ok(StreamingAqf {
            hot_cut: cfg.activity_threshold as f32 * cfg.saturation_persistence as f32,
            cfg,
            width,
            height,
            memory: vec![Self::NEVER; width * height],
            own_count: vec![0; width * height],
            input_events: 0,
            removed_uncorrelated: 0,
            removed_saturated: 0,
        })
    }

    /// Judges one event: `Some(event)` (timestamp quantized) when kept,
    /// `None` when removed as hot or temporally uncorrelated. The caller
    /// must supply events in time order; coordinates are assumed
    /// in-sensor (the accumulator re-validates downstream).
    pub fn push(&mut self, e: DvsEvent) -> Option<DvsEvent> {
        self.input_events += 1;
        let tq = if self.cfg.quantization_step > 0.0 {
            ((e.t / self.cfg.quantization_step).round() * self.cfg.quantization_step)
                .clamp(0.0, 0.999_999)
        } else {
            e.t
        };
        let (ex, ey) = (e.x as isize, e.y as isize);
        let own = e.y as usize * self.width + e.x as usize;
        self.own_count[own] += 1;
        // Causal hot test: the running count including this event. Once
        // a pixel crosses the cut it stays hot (counts never decrease),
        // mirroring the offline filter's sticky full-sample flag.
        let hot = self.own_count[own] as f32 > self.hot_cut;
        let uncorrelated = tq - self.memory[own] > self.cfg.temporal_threshold;

        // Hot pixels do not get to validate their neighbours — same
        // rule as the offline pass 2.
        if !hot {
            let s = self.cfg.spatial_window as isize;
            for dy in -s..=s {
                for dx in -s..=s {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (nx, ny) = (ex + dx, ey + dy);
                    if nx < 0 || ny < 0 || nx >= self.width as isize || ny >= self.height as isize {
                        continue;
                    }
                    self.memory[ny as usize * self.width + nx as usize] = tq;
                }
            }
        }

        if hot {
            self.removed_saturated += 1;
            return None;
        }
        if uncorrelated {
            self.removed_uncorrelated += 1;
            return None;
        }
        let mut kept = e;
        kept.t = tq;
        Some(kept)
    }

    /// Removal statistics so far, in the offline report format.
    pub fn report(&self) -> AqfReport {
        AqfReport {
            input_events: self.input_events,
            kept_events: self.input_events - self.removed_uncorrelated - self.removed_saturated,
            removed_uncorrelated: self.removed_uncorrelated,
            removed_saturated: self.removed_saturated,
        }
    }
}

/// Result of a completed [`StreamSession`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Accumulated readout logits (sum over all windows).
    pub logits: Tensor,
    /// `argmax` of the logits.
    pub prediction: usize,
    /// Spiking statistics of the run.
    pub stats: SpikeStats,
    /// Windows stepped through the network
    /// (= [`WindowSchedule::window_count`]).
    pub windows: usize,
    /// Events pushed into the session.
    pub events_in: usize,
    /// Events surviving the in-stream AQF filter (equals `events_in`
    /// when filtering is disabled).
    pub events_kept: usize,
    /// Kept events covered by no window (rolling gaps / past the end).
    pub events_dropped: usize,
    /// In-stream filter report when AQF was enabled.
    pub aqf: Option<AqfReport>,
}

/// A live event-stream inference session: events in, spike frames
/// stepped through the [`SpikingNetwork`] the moment their window
/// closes, logits out.
///
/// The session drives the network through
/// [`SpikingNetwork::frame_stepper`] — a one-row pass of the fused
/// engine the offline `forward` runs — so the full
/// [`ExecPlan`](axsnn_core::plan::ExecPlan) dispatch seam (density
/// gates, weight planes, dense fallbacks) applies to every window and
/// the final logits are bit-identical to the offline path for the same
/// window schedule. A binary window enters the engine as events, a
/// count window with any pixel above one as a dense row.
#[derive(Debug)]
pub struct StreamSession<'a> {
    stepper: FrameStepper<'a>,
    acc: StreamAccumulator,
    aqf: Option<StreamingAqf>,
    events_in: usize,
    events_kept: usize,
}

impl<'a> StreamSession<'a> {
    /// Opens a session over `net` for a `width × height` sensor,
    /// resetting all membrane state.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidSensor`] /
    /// [`NeuroError::InvalidParameter`] for bad geometry, schedule or
    /// AQF configuration.
    pub fn begin(
        net: &'a mut SpikingNetwork,
        width: usize,
        height: usize,
        cfg: StreamConfig,
    ) -> Result<Self> {
        let acc = StreamAccumulator::new(width, height, cfg.schedule, cfg.mode)?;
        let aqf = match cfg.aqf {
            Some(filter_cfg) => Some(StreamingAqf::new(width, height, filter_cfg)?),
            None => None,
        };
        Ok(StreamSession {
            stepper: net.frame_stepper(),
            acc,
            aqf,
            events_in: 0,
            events_kept: 0,
        })
    }

    /// Feeds one event, stepping the network over every window the
    /// event closes. Returns the number of windows stepped (usually 0).
    ///
    /// # Errors
    ///
    /// Propagates accumulator validation errors
    /// ([`NeuroError::EventOutOfRange`],
    /// [`NeuroError::OutOfOrderEvent`]) and wraps simulation failures
    /// as [`NeuroError::Inference`].
    pub fn push<R: Rng>(&mut self, e: DvsEvent, rng: &mut R) -> Result<usize> {
        self.events_in += 1;
        let kept = match &mut self.aqf {
            Some(filter) => match filter.push(e) {
                Some(kept) => kept,
                None => return Ok(0),
            },
            None => e,
        };
        self.events_kept += 1;
        let frames = self.acc.push(kept)?;
        let stepped = frames.len();
        for frame in &frames {
            self.stepper.step(frame, rng)?;
        }
        Ok(stepped)
    }

    /// Windows stepped through the network so far.
    pub fn windows_stepped(&self) -> usize {
        self.stepper.steps()
    }

    /// The logits accumulated over the windows stepped so far — an
    /// *anytime* readout available before the sample ends (`None`
    /// before the first window closes).
    pub fn logits_so_far(&self) -> Option<&Tensor> {
        self.stepper.logits_so_far()
    }

    /// Closes the session: flushes all remaining windows through the
    /// network and returns the accumulated outcome.
    ///
    /// # Errors
    ///
    /// Wraps simulation failures as [`NeuroError::Inference`].
    pub fn finish<R: Rng>(self, rng: &mut R) -> Result<StreamOutcome> {
        let StreamSession {
            mut stepper,
            acc,
            aqf,
            events_in,
            events_kept,
        } = self;
        let events_dropped = {
            let windows = acc.schedule.window_count();
            let dropped = acc.events_dropped();
            for frame in acc.finish() {
                stepper.step(&frame, rng)?;
            }
            debug_assert_eq!(stepper.steps(), windows);
            dropped
        };
        let out = stepper.finish()?;
        Ok(StreamOutcome {
            prediction: out.logits.argmax().unwrap_or(0),
            windows: out.stats.time_steps,
            logits: out.logits,
            stats: out.stats,
            events_in,
            events_kept,
            events_dropped,
            aqf: aqf.map(|f| f.report()),
        })
    }
}

/// Convenience: replays an already-collected [`EventStream`] through a
/// [`StreamSession`] in time order and returns the outcome.
///
/// # Errors
///
/// Propagates session errors; the stream is sorted defensively first,
/// so [`NeuroError::OutOfOrderEvent`] cannot occur.
pub fn classify_event_stream<R: Rng>(
    net: &mut SpikingNetwork,
    stream: &EventStream,
    cfg: StreamConfig,
    rng: &mut R,
) -> Result<StreamOutcome> {
    let mut ordered = stream.clone();
    ordered.sort_by_time();
    let mut session = StreamSession::begin(net, stream.width(), stream.height(), cfg)?;
    for e in &ordered {
        session.push(*e, rng)?;
    }
    session.finish(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Polarity;
    use crate::frames::accumulate_frames;

    fn ev(x: u16, y: u16, p: Polarity, t: f32) -> DvsEvent {
        DvsEvent::new(x, y, p, t)
    }

    #[test]
    fn uniform_matches_offline_accumulator() {
        let events = vec![
            ev(0, 0, Polarity::On, 0.05),
            ev(1, 2, Polarity::Off, 0.05),
            ev(0, 0, Polarity::On, 0.30),
            ev(3, 3, Polarity::On, 0.99),
        ];
        for mode in [Accumulation::Binary, Accumulation::Count] {
            let offline = accumulate_frames(
                &EventStream::from_events(4, 4, events.clone()).unwrap(),
                4,
                mode,
            )
            .unwrap();
            let mut acc =
                StreamAccumulator::new(4, 4, WindowSchedule::Uniform { time_steps: 4 }, mode)
                    .unwrap();
            let mut streamed = Vec::new();
            for e in &events {
                streamed.extend(acc.push(*e).unwrap());
            }
            streamed.extend(acc.finish());
            assert_eq!(streamed.len(), offline.len());
            for (a, b) in streamed.iter().zip(&offline) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn out_of_order_is_explicit_error() {
        let mut acc = StreamAccumulator::new(
            4,
            4,
            WindowSchedule::Uniform { time_steps: 4 },
            Accumulation::Binary,
        )
        .unwrap();
        acc.push(ev(0, 0, Polarity::On, 0.5)).unwrap();
        let err = acc.push(ev(0, 0, Polarity::On, 0.4)).unwrap_err();
        assert!(matches!(err, NeuroError::OutOfOrderEvent { .. }));
    }

    #[test]
    fn rolling_overlap_stamps_every_covering_window() {
        // Windows: [0,0.5), [0.25,0.75), [0.5,1.0) — t=0.3 covers 0,1.
        let mut acc = StreamAccumulator::new(
            4,
            4,
            WindowSchedule::Rolling {
                windows: 3,
                len: 0.5,
                hop: 0.25,
            },
            Accumulation::Binary,
        )
        .unwrap();
        let emitted = acc.push(ev(1, 1, Polarity::On, 0.3)).unwrap();
        assert!(emitted.is_empty());
        let frames = acc.finish();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].at(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(frames[1].at(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(frames[2].at(&[0, 1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn rolling_gap_drops_and_counts() {
        // Windows: [0,0.2), [0.5,0.7) — t=0.3 lies in the gap.
        let mut acc = StreamAccumulator::new(
            4,
            4,
            WindowSchedule::Rolling {
                windows: 2,
                len: 0.2,
                hop: 0.5,
            },
            Accumulation::Binary,
        )
        .unwrap();
        acc.push(ev(1, 1, Polarity::On, 0.3)).unwrap();
        assert_eq!(acc.events_dropped(), 1);
        let frames = acc.finish();
        assert_eq!(frames.iter().map(|f| f.sum()).sum::<f32>(), 0.0);
    }

    #[test]
    fn empty_stream_still_emits_all_windows() {
        let acc = StreamAccumulator::new(
            8,
            8,
            WindowSchedule::Uniform { time_steps: 5 },
            Accumulation::Binary,
        )
        .unwrap();
        let frames = acc.finish();
        assert_eq!(frames.len(), 5);
        assert!(frames.iter().all(|f| f.sum() == 0.0));
    }

    #[test]
    fn schedule_validation() {
        assert!(WindowSchedule::Uniform { time_steps: 0 }
            .validate()
            .is_err());
        assert!(WindowSchedule::Rolling {
            windows: 0,
            len: 0.1,
            hop: 0.1
        }
        .validate()
        .is_err());
        assert!(WindowSchedule::Rolling {
            windows: 2,
            len: 0.0,
            hop: 0.1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn streaming_aqf_report_is_consistent() {
        let mut f = StreamingAqf::new(16, 16, AqfConfig::default()).unwrap();
        for i in 0..10u16 {
            f.push(ev(
                5 + i % 2,
                5 + i / 5,
                Polarity::On,
                0.1 + i as f32 * 0.002,
            ));
        }
        let r = f.report();
        assert_eq!(
            r.kept_events + r.removed_uncorrelated + r.removed_saturated,
            r.input_events
        );
        assert_eq!(r.input_events, 10);
    }
}
