//! Adversarial attacks on (approximate) spiking neural networks.
//!
//! Two attack families from the paper (Sec. II–III):
//!
//! * [`gradient`] — iterative l∞ gradient attacks on static images:
//!   [`gradient::Fgsm`], [`gradient::Bim`] and [`gradient::Pgd`]. Per the
//!   threat model, gradients are taken on the *accurate* classifier (the
//!   ANN twin via [`gradient::AnnGradientSource`], or the SNN itself via
//!   the surrogate-gradient [`gradient::SnnGradientSource`] for white-box
//!   ablations).
//! * [`baseline`] — a uniform-noise baseline at matched ε and a targeted
//!   PGD variant (extensions beyond the paper's four attacks).
//! * [`neuromorphic`] — event-domain attacks:
//!   [`neuromorphic::SparseAttack`], a stealthy loss-guided perturbation
//!   that injects a small number of events where they hurt most, and
//!   [`neuromorphic::FrameAttack`], which fires every boundary pixel.
//!
//! Victims are abstracted behind [`neuromorphic::EventModel`]:
//! [`neuromorphic::SnnEventModel`] bins the whole sample into per-step
//! spike rows and runs one fused-engine pass at batch size 1 (no dense
//! frame is built), while [`neuromorphic::StreamingSnnEventModel`]
//! replays the same events through the one-row streaming path. Both
//! equal the offline frame-accumulation pipeline bit for bit, so attack
//! efficacy does not depend on which victim answers the queries (pinned
//! by this crate's unit tests and the `stream_equivalence` suite).
//!
//! # Provenance
//!
//! The attack families are seed modules built on the threat model of
//! the paper; the streaming victim model landed in PR 9.
//!
//! # Example
//!
//! ```
//! use axsnn_attacks::gradient::{AttackBudget, ImageAttack, Pgd};
//!
//! let pgd = Pgd::new(AttackBudget { epsilon: 0.3, step_size: 0.05, steps: 10 });
//! assert_eq!(pgd.budget().epsilon, 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod baseline;
pub mod gradient;
pub mod neuromorphic;

pub use error::AttackError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, AttackError>;
