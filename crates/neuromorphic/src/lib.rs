//! Neuromorphic (DVS) event substrate and the AQF defense.
//!
//! Dynamic vision sensors emit sparse `(x, y, polarity, t)` events instead
//! of frames. This crate provides:
//!
//! * [`event`] — [`event::DvsEvent`] and [`event::EventStream`], the
//!   event-camera data model,
//! * [`frames`] — accumulation of event streams into per-time-step spike
//!   frames (`[2, H, W]`, one channel per polarity) that feed the SNN,
//!   or straight into the fused engine's spike rows
//!   ([`frames::binary_frame_train`]),
//! * [`aqf`] — the paper's Algorithm 2, the *approximate
//!   quantization-aware filter*: timestamps are quantized with step `q_t`
//!   and spatio-temporally uncorrelated events (adversarial noise) are
//!   removed,
//! * [`stream`] — streaming event-stream inference: incremental
//!   membrane updates as events arrive ([`stream::StreamSession`] over
//!   the core `FrameStepper`), uniform/rolling window accumulation
//!   ([`stream::StreamAccumulator`]) and the causal in-stream AQF
//!   ([`stream::StreamingAqf`]).
//!
//! # Provenance
//!
//! The event model, offline frame accumulation and the two-pass AQF
//! are seed modules; the streaming subsystem landed in PR 9. Streamed
//! classification is pinned **bit-identical** to the offline
//! accumulate-then-forward path (same window schedule, every density,
//! every plan override, int8/f16 planes installed) by the
//! `stream_equivalence` suite in `tests/`; the causal AQF's superset /
//! exactness relationship to the offline filter is pinned there too.
//!
//! # Example
//!
//! ```
//! use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
//!
//! # fn main() -> Result<(), axsnn_neuromorphic::NeuroError> {
//! let mut stream = EventStream::new(32, 32)?;
//! stream.push(DvsEvent::new(3, 4, Polarity::On, 0.25))?;
//! assert_eq!(stream.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod aqf;
pub mod event;
pub mod frames;
pub mod stream;

pub use error::NeuroError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NeuroError>;
