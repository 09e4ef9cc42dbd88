//! Dense `f32` tensor substrate for the AxSNN reproduction.
//!
//! This crate provides the numerical foundation that the rest of the
//! workspace builds on: an owned, contiguous, row-major [`Tensor`] with
//! shape metadata, elementwise and reduction operations, dense
//! matrix–vector kernels ([`linalg`]), 2-D convolution and pooling kernels
//! (forward *and* backward passes, [`conv`]), event-driven sparse spike
//! kernels whose cost scales with activity instead of layer size
//! ([`sparse`]), batched spike-plane GEMM kernels that amortize weight
//! traffic across B samples ([`batched`]), deterministic per-shard
//! gradient buffers for thread-count-invariant parallel backward passes
//! ([`grads`]), weight initializers ([`init`]), reduced-precision
//! weight storage planes that let the gather-bound kernels stream
//! int8/f16 weights while accumulating in f32 ([`plane`]), and a
//! runtime-dispatched AVX2 backend for the gather-bound kernels whose
//! results stay bit-identical to the portable scalar truth path
//! ([`simd`], `AXSNN_NO_SIMD` forces scalar).
//!
//! The paper's authors used a Python deep-learning stack as their substrate;
//! no equivalent mature crate exists offline, so this crate implements the
//! required kernels from scratch. Everything is deterministic given a seeded
//! RNG, which the experiment harness relies on for reproducibility.
//!
//! # Provenance
//!
//! The dense substrate is a seed module; [`sparse`] landed in PR 1,
//! [`batched`] in PR 2 (event-sorted batched conv in PR 5), the
//! backward kernels and [`grads`] in PRs 3–4, and [`plane`] in PR 8.
//! Every fast kernel is pinned value- or bit-identical to its naive
//! reference by an equivalence suite: the in-crate sparse/dense
//! property tests (PR 1), plus `batched_equivalence`,
//! `grad_equivalence`, `plan_equivalence` and `quant_equivalence` in
//! `axsnn-core`'s `tests/`.
//!
//! # Example
//!
//! ```
//! use axsnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), axsnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.add(&b)?;
//! assert_eq!(c.as_slice(), &[1.5, 2.5, 3.5, 4.5]);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the [`simd`] module is the one sanctioned
// `unsafe` island (std::arch intrinsics behind runtime detection); every
// other module stays safe Rust and cannot opt out silently — an
// `allow(unsafe_code)` outside `simd.rs` is a review flag.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod batched;
pub mod conv;
pub mod grads;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod plane;
pub mod simd;
pub mod sparse;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used throughout this crate.
///
/// # Example
///
/// ```
/// fn make() -> axsnn_tensor::Result<axsnn_tensor::Tensor> {
///     axsnn_tensor::Tensor::from_vec(vec![0.0; 4], &[2, 2])
/// }
/// assert!(make().is_ok());
/// ```
pub type Result<T> = std::result::Result<T, TensorError>;
