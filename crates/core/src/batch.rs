//! Parallel batch evaluation of spiking networks.
//!
//! Robustness tables and attack sweeps classify hundreds of independent
//! samples against the same frozen network — an embarrassingly parallel
//! workload that previously ran on one core. This module fans it out
//! with `std::thread::scope` (the environment has no `rayon`): each
//! worker clones the network once, then drains a contiguous chunk of
//! the batch.
//!
//! Determinism is preserved regardless of thread count: every sample
//! draws its encoder randomness from its own generator, seeded from the
//! caller's seed and the sample's *global* index.
//!
//! # Example
//!
//! ```
//! use axsnn_core::batch::BatchEvaluation;
//! use axsnn_core::encoding::Encoder;
//! use axsnn_core::layer::Layer;
//! use axsnn_core::network::{SnnConfig, SpikingNetwork};
//! use axsnn_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), axsnn_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let cfg = SnnConfig { threshold: 0.5, time_steps: 4, leak: 0.9 };
//! let net = SpikingNetwork::new(
//!     vec![
//!         Layer::spiking_linear(&mut rng, 4, 8, &cfg),
//!         Layer::output_linear(&mut rng, 8, 2),
//!     ],
//!     cfg,
//! )?;
//! let data: Vec<(Tensor, usize)> =
//!     (0..16).map(|i| (Tensor::full(&[4], 0.1 * (i % 10) as f32), i % 2)).collect();
//! let out: BatchEvaluation = net.evaluate_batch(&data, Encoder::DirectCurrent, 7, 0)?;
//! assert_eq!(out.predictions.len(), 16);
//! # Ok(())
//! # }
//! ```

use crate::encoding::Encoder;
use crate::error::FromWorkerPanic;
use crate::network::SpikingNetwork;
use crate::Result;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::thread;

/// Renders a panic payload as a string (best effort — most panics carry
/// `&str` or `String`).
pub fn panic_payload(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

/// Result of a parallel batch evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvaluation {
    /// Predicted class per sample, in input order.
    pub predictions: Vec<usize>,
    /// Number of correct predictions.
    pub correct: usize,
    /// Accuracy in percent.
    pub accuracy: f32,
}

/// Resolves a requested worker count: `0` means all available cores,
/// and the result never exceeds the number of jobs.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hardware = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chosen = if requested == 0 { hardware } else { requested };
    chosen.clamp(1, jobs.max(1))
}

/// Mixes a batch seed with a sample's global index into an independent
/// per-sample generator seed — the convention every parallel evaluator
/// in the workspace uses so results are thread-count invariant.
pub fn sample_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Generic chunked fan-out: fills `jobs` output slots by running `work`
/// on `threads` workers, each of which builds its own state once via
/// `init` (on the worker thread) and drains a contiguous chunk.
///
/// The building block behind [`SpikingNetwork::evaluate_batch`], the
/// parallel attack evaluation in `axsnn-defense`, and the grid sweep in
/// `axsnn-bench` — one copy of the scope/chunk/join plumbing.
///
/// # Errors
///
/// Returns the first error any worker produced. A panicking worker no
/// longer aborts the whole batch: its panic payload is caught and
/// surfaced as [`FromWorkerPanic::from_worker_panic`] (for
/// [`crate::CoreError`] callers, [`crate::CoreError::WorkerPanicked`]),
/// so sweeps and the inference service can retry or degrade instead of
/// dying. Every worker is joined before returning — a fast-failing
/// chunk never leaves stragglers unobserved.
pub fn fan_out_with<W, T, E, I, F>(
    jobs: usize,
    threads: usize,
    init: I,
    work: F,
) -> std::result::Result<Vec<T>, E>
where
    T: Send + Default + Clone,
    E: Send + FromWorkerPanic,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &mut T) -> std::result::Result<(), E> + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let threads = effective_threads(threads, jobs);
    let mut out = vec![T::default(); jobs];
    if threads == 1 {
        // Same recoverability contract as the threaded path: a panic in
        // the (inlined) worker becomes an error, not an abort.
        let run = catch_unwind(AssertUnwindSafe(|| -> std::result::Result<(), E> {
            let mut worker = init();
            for (i, slot) in out.iter_mut().enumerate() {
                work(&mut worker, i, slot)?;
            }
            Ok(())
        }));
        return match run {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(e),
            Err(panic) => Err(E::from_worker_panic(panic_payload(panic.as_ref()))),
        };
    }
    let chunk = jobs.div_ceil(threads);
    let (work, init) = (&work, &init);
    let mut first_err: Option<E> = None;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            handles.push(scope.spawn(move || -> std::result::Result<(), E> {
                let mut worker = init();
                for (off, slot) in slots.iter_mut().enumerate() {
                    work(&mut worker, ci * chunk + off, slot)?;
                }
                Ok(())
            }));
        }
        // Join *all* handles before surfacing anything: an early return
        // with an unjoined panicking thread would re-raise its panic at
        // scope exit, defeating the recoverable-error contract.
        for handle in handles {
            let result = match handle.join() {
                Ok(r) => r,
                Err(panic) => Err(E::from_worker_panic(panic_payload(panic.as_ref()))),
            };
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Runs `work` over `jobs` slots on `threads` workers, each worker
/// owning a clone of `net` and a contiguous output chunk. `net` builds
/// its derived weight state first
/// ([`SpikingNetwork::pack_weights`]), so the clones share its panels
/// instead of each packing its own: every fan-out over network clones
/// in this crate goes through here.
pub(crate) fn fan_out<T, F>(
    net: &SpikingNetwork,
    jobs: usize,
    threads: usize,
    work: F,
) -> Result<Vec<T>>
where
    T: Send + Default + Clone,
    F: Fn(&mut SpikingNetwork, usize, &mut T) -> Result<()> + Sync,
{
    net.pack_weights();
    fan_out_with(jobs, threads, || net.clone(), work)
}

impl SpikingNetwork {
    /// Classifies a batch of images in parallel through the fused
    /// batched forward engine: samples encode with their per-index
    /// seeded generators, shard into fused batches of
    /// [`crate::fused::DEFAULT_FUSED_BATCH`], and each shard runs one
    /// spike-plane GEMM forward for all its samples in lockstep.
    ///
    /// `seed` drives the per-sample encoder randomness (see the module
    /// docs); `threads == 0` uses all available cores. Results are
    /// identical for every thread count **and** bit-for-bit identical
    /// to per-sample [`SpikingNetwork::classify`] under the same seeds
    /// — the fused engine makes the same per-row gate decisions and
    /// runs the same kernels (see [`crate::fused`]). Networks with
    /// active train-mode dropout classify one fused row per sample
    /// instead, each drawing its masks from the sample's own seeded
    /// RNG.
    ///
    /// # Errors
    ///
    /// Propagates the first encoding/forward error encountered.
    pub fn classify_batch(
        &self,
        images: &[Tensor],
        encoder: Encoder,
        seed: u64,
        threads: usize,
    ) -> Result<Vec<usize>> {
        if self.train_dropout_active() {
            return fan_out(self, images.len(), threads, |net, i, slot: &mut usize| {
                let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
                *slot = net.classify(&images[i], encoder, &mut rng)?;
                Ok(())
            });
        }
        self.classify_images_fused(
            images,
            encoder,
            seed,
            threads,
            crate::fused::DEFAULT_FUSED_BATCH,
        )
    }

    /// Evaluates labelled image data in parallel through the fused
    /// batched engine, returning per-sample predictions and aggregate
    /// accuracy.
    ///
    /// # Errors
    ///
    /// Propagates the first encoding/forward error encountered.
    pub fn evaluate_batch(
        &self,
        data: &[(Tensor, usize)],
        encoder: Encoder,
        seed: u64,
        threads: usize,
    ) -> Result<BatchEvaluation> {
        let predictions = if self.train_dropout_active() {
            fan_out(self, data.len(), threads, |net, i, slot: &mut usize| {
                let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
                *slot = net.classify(&data[i].0, encoder, &mut rng)?;
                Ok(())
            })?
        } else {
            self.classify_images_fused_with(
                data.len(),
                |i| &data[i].0,
                encoder,
                seed,
                threads,
                crate::fused::DEFAULT_FUSED_BATCH,
            )?
        };
        let correct = predictions
            .iter()
            .zip(data)
            .filter(|(p, (_, label))| *p == label)
            .count();
        let accuracy = if data.is_empty() {
            0.0
        } else {
            100.0 * correct as f32 / data.len() as f32
        };
        Ok(BatchEvaluation {
            predictions,
            correct,
            accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::network::SnnConfig;
    use rand::Rng;

    fn net(seed: u64) -> SpikingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(&mut rng, 8, 16, &cfg),
                Layer::spiking_linear(&mut rng, 16, 12, &cfg),
                Layer::output_linear(&mut rng, 12, 4),
            ],
            cfg,
        )
        .unwrap()
    }

    fn data(n: usize) -> Vec<(Tensor, usize)> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n)
            .map(|i| {
                let img: Tensor = (0..8).map(|_| rng.gen::<f32>()).collect();
                (img, i % 4)
            })
            .collect()
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn batch_matches_sequential_classify() {
        let net = net(1);
        let samples = data(13);
        let batch = net
            .evaluate_batch(&samples, Encoder::Poisson, 5, 4)
            .unwrap();
        let mut reference = net.clone();
        for (i, (img, _)) in samples.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sample_seed(5, i));
            let expected = reference.classify(img, Encoder::Poisson, &mut rng).unwrap();
            assert_eq!(batch.predictions[i], expected, "sample {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let net = net(2);
        let samples = data(17);
        let one = net
            .evaluate_batch(&samples, Encoder::Poisson, 3, 1)
            .unwrap();
        let many = net
            .evaluate_batch(&samples, Encoder::Poisson, 3, 8)
            .unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn accuracy_accounting() {
        let net = net(3);
        let samples = data(10);
        let out = net
            .evaluate_batch(&samples, Encoder::DirectCurrent, 0, 0)
            .unwrap();
        assert_eq!(out.predictions.len(), 10);
        assert!(out.correct <= 10);
        assert!((out.accuracy - 100.0 * out.correct as f32 / 10.0).abs() < 1e-6);
    }

    #[test]
    fn empty_batch_is_ok() {
        let net = net(4);
        let out = net
            .evaluate_batch(&[], Encoder::DirectCurrent, 0, 4)
            .unwrap();
        assert!(out.predictions.is_empty());
        assert_eq!(out.accuracy, 0.0);
    }

    #[test]
    fn worker_panic_is_recoverable_at_every_thread_count() {
        use crate::CoreError;
        for threads in [1, 2, 4, 8] {
            let err = fan_out_with(
                16,
                threads,
                || (),
                |(), i, _slot: &mut usize| -> Result<()> {
                    if i == 11 {
                        panic!("poisoned job {i}");
                    }
                    Ok(())
                },
            )
            .unwrap_err();
            match err {
                CoreError::WorkerPanicked { payload } => {
                    assert!(payload.contains("poisoned job 11"), "{payload}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_error_still_wins_over_later_panics() {
        use crate::CoreError;
        // A genuine error in an early chunk is reported even when a
        // later chunk panics — all workers are joined either way.
        let err = fan_out_with(
            8,
            4,
            || (),
            |(), i, _slot: &mut usize| -> Result<()> {
                if i == 0 {
                    return Err(CoreError::Config {
                        message: "job 0 failed".into(),
                    });
                }
                if i == 7 {
                    panic!("job 7 panicked");
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::Config { .. } | CoreError::WorkerPanicked { .. }
            ),
            "{err:?}"
        );
    }
}
