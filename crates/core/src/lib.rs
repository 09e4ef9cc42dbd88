//! Spiking neural network core for the AxSNN reproduction.
//!
//! This crate implements the paper's model substrate end to end:
//!
//! * [`lif`] — leaky-integrate-and-fire neuron dynamics with a fast-sigmoid
//!   surrogate gradient,
//! * [`encoding`] — rate (Poisson / deterministic / direct-current) spike
//!   encoders for static images,
//! * [`layer`] — spiking convolution, linear, pooling, dropout and
//!   integrator readout layers (parameters and kernel policies),
//! * [`network`] — [`network::SpikingNetwork`], a time-stepped simulator
//!   over a layer stack, run by the fused engine ([`fused`]),
//! * [`train`] — surrogate-gradient backpropagation-through-time training,
//! * [`ann`] — the reference (accurate) artificial twin network used both
//!   by the paper's threat model for attack crafting and for fast
//!   ANN→SNN conversion,
//! * [`convert`] — data-based threshold balancing conversion,
//! * [`approx`] — approximation levels and Eq. (1) `a_th` computation that
//!   turn an AccSNN into an AxSNN,
//! * [`plan`] — the unified kernel-dispatch layer: per-layer
//!   [`plan::KernelPolicy`] (density gate, kernel choice, fallback
//!   accounting) and the per-network [`plan::ExecPlan`],
//! * [`io`] — model snapshots with real JSON save/load (save a trained
//!   model once, restore per grid point), including the serialized
//!   execution plan,
//! * [`json`] — the in-tree JSON value/parser/writer those snapshots
//!   (and the bench artifacts) serialize through,
//! * [`precision`] — FP32/FP16/INT8 precision scaling and scalar
//!   quantization.
//!
//! # Provenance
//!
//! The simulator, training and conversion stack is the seed; the
//! density-gated sparse inference path landed in PR 1, the fused batch
//! engine ([`fused`]) in PR 2, the event-form BPTT tape in PR 3, the
//! sharded parallel backward in PR 4, the [`plan`] dispatch seam and
//! [`io`]/[`json`] serialization in PR 5, weight-plane selection in
//! PR 8, and [`network::FrameStepper`] — the incremental
//! frame-at-a-time seam feeding the
//! streaming DVS pipeline — in PR 9. Each layer of that trajectory is
//! pinned by an equivalence suite in `tests/`: `grad_equivalence`
//! (gradients bit-identical across tape form, density and thread
//! count), `batched_equivalence` / `plan_equivalence` (fused batches
//! and kernel choices are pure scheduling), `quant_equivalence`
//! (planed execution ≡ precision emulation), `ann_equivalence` (the
//! ANN twin's batched training and attack-gradient walks ≡ its
//! per-sample reference), and the neuromorphic crate's
//! `stream_equivalence` (streamed ≡ offline forward).
//!
//! The fused engine ([`fused`]) is the only SNN engine: `forward`,
//! `backward`, the frame stepper and training all run its one step
//! body, and `engine_digests` freezes what they return.
//!
//! # Example
//!
//! ```
//! use axsnn_core::network::{SnnConfig, SpikingNetwork};
//! use axsnn_core::layer::Layer;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), axsnn_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let cfg = SnnConfig { threshold: 1.0, time_steps: 8, leak: 0.9 };
//! let net = SpikingNetwork::new(
//!     vec![
//!         Layer::spiking_linear(&mut rng, 4, 6, &cfg),
//!         Layer::output_linear(&mut rng, 6, 2),
//!     ],
//!     cfg,
//! )?;
//! assert_eq!(net.config().time_steps, 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod ann;
pub mod approx;
pub mod batch;
pub mod convert;
pub mod encoding;
pub mod fused;
pub mod io;
pub mod json;
pub mod layer;
pub mod lif;
pub mod network;
pub mod plan;
pub mod precision;
pub mod train;

pub use error::{CoreError, FromWorkerPanic};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
