//! Spike encoders: convert static images into spike trains.
//!
//! The paper uses *rate encoding* (Sec. II): pixel intensity maps to a
//! mean firing rate over `T` time steps. Three encoders are provided:
//!
//! * [`Encoder::Poisson`] — stochastic Bernoulli sampling per step (the
//!   classic rate code),
//! * [`Encoder::Deterministic`] — error-diffusion rate code that emits
//!   `round(p·T)` evenly spaced spikes (noise-free, reproducible),
//! * [`Encoder::DirectCurrent`] — feeds the analog intensity as constant
//!   input current each step (standard for ANN→SNN-converted networks).

use crate::{CoreError, Result};
use axsnn_tensor::Tensor;
use rand::Rng;

/// Spike encoding scheme for static inputs.
///
/// # Example
///
/// ```
/// use axsnn_core::encoding::Encoder;
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let image = Tensor::full(&[1, 2, 2], 0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let frames = Encoder::Deterministic.encode(&image, 8, &mut rng)?;
/// assert_eq!(frames.len(), 8);
/// // 0.5 intensity → 4 of 8 frames carry a spike at each pixel.
/// let total: f32 = frames.iter().map(|f| f.sum()).sum();
/// assert_eq!(total, 4.0 * 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoder {
    /// Bernoulli sampling: each pixel spikes with probability equal to its
    /// intensity at every step.
    Poisson,
    /// Error-diffusion rate code: deterministic, evenly spaced spikes whose
    /// count over `T` steps rounds the target rate.
    Deterministic,
    /// Constant analog current equal to the intensity at every step
    /// (no binarization). Used with converted networks.
    DirectCurrent,
}

impl Encoder {
    /// Encodes an image with intensities in `[0, 1]` into `time_steps`
    /// frames of the same shape.
    ///
    /// Intensities are clamped into `[0, 1]` before encoding, so
    /// adversarially perturbed images remain valid inputs. A NaN or
    /// infinite pixel is rejected instead: the clamp would pass NaN
    /// through (it never spikes) and fold ±∞ to 1 or 0, answering a
    /// broken image as if it were a real one. The check runs before any
    /// random draw, so a valid image's encoding does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `time_steps == 0`, or naming
    /// the flat index and value of the first non-finite pixel.
    pub fn encode<R: Rng>(
        &self,
        image: &Tensor,
        time_steps: usize,
        rng: &mut R,
    ) -> Result<Vec<Tensor>> {
        if time_steps == 0 {
            return Err(CoreError::Config {
                message: "time_steps must be > 0".into(),
            });
        }
        if let Some((i, v)) = image
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
        {
            return Err(CoreError::Config {
                message: format!("image pixel {i} is {v}, not a finite value"),
            });
        }
        let clamped = image.clamp(0.0, 1.0);
        match self {
            Encoder::Poisson => {
                let dims = clamped.shape().dims().to_vec();
                let mut frames = Vec::with_capacity(time_steps);
                for _ in 0..time_steps {
                    let data: Vec<f32> = clamped
                        .as_slice()
                        .iter()
                        .map(|&p| if rng.gen::<f32>() < p { 1.0 } else { 0.0 })
                        .collect();
                    frames.push(Tensor::from_vec(data, &dims)?);
                }
                Ok(frames)
            }
            Encoder::Deterministic => {
                // Error diffusion: carry a per-pixel accumulator; emit a
                // spike whenever it crosses 1. Produces round(p*T) spikes
                // spread evenly across the window.
                let n = clamped.len();
                let dims = clamped.shape().dims().to_vec();
                let mut acc = vec![0.0f32; n];
                let mut frames = Vec::with_capacity(time_steps);
                for _ in 0..time_steps {
                    let mut frame = vec![0.0f32; n];
                    for (i, &p) in clamped.as_slice().iter().enumerate() {
                        acc[i] += p;
                        if acc[i] >= 1.0 - 1e-6 {
                            frame[i] = 1.0;
                            acc[i] -= 1.0;
                        }
                    }
                    frames.push(Tensor::from_vec(frame, &dims)?);
                }
                Ok(frames)
            }
            Encoder::DirectCurrent => Ok(vec![clamped; time_steps]),
        }
    }

    /// Decodes a spike train back into a mean-rate image (the empirical
    /// firing rate per pixel). Inverse of rate encoding in expectation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an empty frame list and
    /// [`CoreError::Tensor`] when frame shapes disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use axsnn_core::encoding::Encoder;
    /// use axsnn_tensor::Tensor;
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), axsnn_core::CoreError> {
    /// let image = Tensor::full(&[4], 0.75);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    /// let frames = Encoder::Deterministic.encode(&image, 16, &mut rng)?;
    /// let rate = Encoder::decode_rate(&frames)?;
    /// assert!((rate.mean() - 0.75).abs() < 0.1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn decode_rate(frames: &[Tensor]) -> Result<Tensor> {
        let first = frames.first().ok_or_else(|| CoreError::Config {
            message: "cannot decode an empty spike train".into(),
        })?;
        let mut acc = Tensor::zeros(first.shape().dims());
        for f in frames {
            acc = acc.add(f)?;
        }
        Ok(acc.scale(1.0 / frames.len() as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn img(v: Vec<f32>, dims: &[usize]) -> Tensor {
        Tensor::from_vec(v, dims).unwrap()
    }

    #[test]
    fn zero_time_steps_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Encoder::Poisson.encode(&Tensor::zeros(&[2]), 0, &mut rng);
        assert!(e.is_err());
    }

    #[test]
    fn poisson_rate_matches_intensity() {
        let mut rng = StdRng::seed_from_u64(7);
        let image = img(vec![0.0, 0.25, 0.75, 1.0], &[4]);
        let frames = Encoder::Poisson.encode(&image, 2000, &mut rng).unwrap();
        let rate = Encoder::decode_rate(&frames).unwrap();
        assert_eq!(rate.as_slice()[0], 0.0);
        assert!((rate.as_slice()[1] - 0.25).abs() < 0.05);
        assert!((rate.as_slice()[2] - 0.75).abs() < 0.05);
        assert_eq!(rate.as_slice()[3], 1.0);
    }

    #[test]
    fn poisson_frames_are_binary() {
        let mut rng = StdRng::seed_from_u64(7);
        let image = img(vec![0.3, 0.9], &[2]);
        for f in Encoder::Poisson.encode(&image, 50, &mut rng).unwrap() {
            assert!(f.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn deterministic_spike_count_rounds_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        let image = img(vec![0.5, 0.25, 1.0, 0.0], &[4]);
        let frames = Encoder::Deterministic.encode(&image, 8, &mut rng).unwrap();
        let counts: Vec<f32> = (0..4)
            .map(|i| frames.iter().map(|f| f.as_slice()[i]).sum())
            .collect();
        assert_eq!(counts, vec![4.0, 2.0, 8.0, 0.0]);
    }

    #[test]
    fn deterministic_is_reproducible() {
        let image = img(vec![0.37, 0.61], &[2]);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999); // RNG must not matter
        let a = Encoder::Deterministic.encode(&image, 16, &mut r1).unwrap();
        let b = Encoder::Deterministic.encode(&image, 16, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn direct_current_passes_intensity_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let image = img(vec![0.2, 0.8], &[2]);
        let frames = Encoder::DirectCurrent.encode(&image, 4, &mut rng).unwrap();
        for f in &frames {
            assert_eq!(f.as_slice(), image.as_slice());
        }
    }

    #[test]
    fn encode_clamps_out_of_range_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let image = img(vec![-0.5, 1.5], &[2]);
        let frames = Encoder::DirectCurrent.encode(&image, 1, &mut rng).unwrap();
        assert_eq!(frames[0].as_slice(), &[0.0, 1.0]);
    }

    /// Every encoder rejects a NaN or infinite pixel, naming its flat
    /// index and value, before drawing from the RNG.
    #[test]
    fn non_finite_pixels_rejected_by_every_encoder() {
        use Encoder::*;
        let bad = [
            (f32::NAN, "NaN"),
            (f32::INFINITY, "inf"),
            (-f32::INFINITY, "-inf"),
        ];
        for encoder in [Poisson, Deterministic, DirectCurrent] {
            for (value, shown) in bad {
                let image = img(vec![0.5, 0.25, value, 1.0], &[2, 2]);
                let mut rng = StdRng::seed_from_u64(4);
                let err = encoder.encode(&image, 3, &mut rng).unwrap_err();
                let expected = format!("image pixel 2 is {shown}, not a finite value");
                assert!(
                    matches!(&err, CoreError::Config { message } if *message == expected),
                    "{err:?}"
                );
                let untouched = StdRng::seed_from_u64(4).next_u64();
                assert_eq!(
                    rng.next_u64(),
                    untouched,
                    "{encoder:?} drew before rejecting"
                );
            }
        }
    }

    #[test]
    fn decode_empty_rejected() {
        assert!(Encoder::decode_rate(&[]).is_err());
    }
}
