//! Fault-tolerant micro-batching inference service for AxSNN models.
//!
//! Production serving for the paper's approximate spiking networks:
//! concurrent classification requests are coalesced into fused shards
//! (executed through the batch engine's ExecPlan-selected kernels) by a
//! pool of worker threads behind a bounded admission queue. The service
//! stays correct and responsive under overload and faults:
//!
//! * [`server`] — the service itself: bounded admission with
//!   backpressure, deadline-aware load shedding, per-batch panic
//!   isolation with worker respawn, a queue-depth-driven degradation
//!   ladder ([`ServiceLevel`]) with hysteresis, and validated hot swap
//!   of model snapshots.
//! * [`config`] — tuning knobs: [`ServeConfig`], the ladder's
//!   [`DegradeConfig`], request [`Priority`].
//! * [`metrics`] — lock-free counters plus latency percentiles.
//! * [`traffic`] — open-loop Poisson traffic with burst and fault
//!   phases for tests and the `bench_serve` robustness benchmark.
//!
//! Served predictions are bit-identical to the direct
//! [`classify_batch_fused`](axsnn_core::network::SpikingNetwork::classify_batch_fused)
//! / [`classify`](axsnn_core::network::SpikingNetwork::classify) paths
//! for the same per-request seed, for *any* interleaving of concurrent
//! requests, batch composition or window size — micro-batching is a
//! scheduling optimization, never a semantic one. The
//! `serve_equivalence` suite in `tests/` pins this, the zero-hang
//! invariant and the degradation ladder's semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod error;
pub mod metrics;
pub mod server;
pub mod traffic;

pub use config::{DegradeConfig, Priority, ServeConfig, ServiceLevel};
pub use error::{Result, ServeError};
pub use metrics::MetricsSnapshot;
pub use server::{InferenceService, Request, Response, Ticket};
pub use traffic::{run_open_loop, TrafficConfig, TrafficPhase, TrafficReport};
