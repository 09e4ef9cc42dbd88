//! Procedural synthetic MNIST: stroke-template digits with affine jitter.
//!
//! Each digit 0–9 is defined as a set of polyline strokes in the unit
//! square. A sample is rendered by applying a random affine perturbation
//! (rotation, scale, translation), rasterizing with a random stroke
//! thickness via distance-to-segment falloff, and adding pixel noise.
//! The result is a `[1, S, S]` tensor with intensities in `[0, 1]` —
//! drop-in compatible with the paper's MNIST pipeline.

use crate::Dataset;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic MNIST generator.
///
/// # Example
///
/// ```
/// let cfg = axsnn_datasets::mnist::MnistConfig::default();
/// assert_eq!(cfg.size, 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnistConfig {
    /// Image side length (the real dataset uses 28).
    pub size: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Standard deviation of additive pixel noise.
    pub noise: f32,
    /// RNG seed (full determinism).
    pub seed: u64,
}

impl Default for MnistConfig {
    fn default() -> Self {
        MnistConfig {
            size: 28,
            train_per_class: 50,
            test_per_class: 10,
            noise: 0.05,
            seed: 0x4d4e_4953,
        }
    }
}

/// Number of digit classes.
pub const CLASSES: usize = 10;

/// The synthetic MNIST generator.
///
/// # Example
///
/// ```
/// use axsnn_datasets::mnist::{MnistConfig, SyntheticMnist};
///
/// let gen = SyntheticMnist::new(MnistConfig { size: 16, train_per_class: 1, test_per_class: 1, ..MnistConfig::default() });
/// let d = gen.generate();
/// assert_eq!(d.classes, 10);
/// assert_eq!(d.train[0].0.shape().dims(), &[1, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    config: MnistConfig,
}

type Stroke = Vec<(f32, f32)>;

impl SyntheticMnist {
    /// Creates a generator with the given configuration.
    pub fn new(config: MnistConfig) -> Self {
        SyntheticMnist { config }
    }

    /// The generator configuration.
    pub fn config(&self) -> &MnistConfig {
        &self.config
    }

    /// Generates the full train/test dataset.
    pub fn generate(&self) -> Dataset<Tensor> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for digit in 0..CLASSES {
            for _ in 0..self.config.train_per_class {
                train.push((self.render(digit, &mut rng), digit));
            }
            for _ in 0..self.config.test_per_class {
                test.push((self.render(digit, &mut rng), digit));
            }
        }
        // Interleave classes so minibatches are balanced without shuffling.
        interleave_by_class(&mut train, CLASSES);
        interleave_by_class(&mut test, CLASSES);
        Dataset {
            train,
            test,
            classes: CLASSES,
        }
    }

    /// Renders one jittered sample of `digit`.
    ///
    /// # Panics
    ///
    /// Panics when `digit >= 10` — the digit set is fixed.
    pub fn render<R: Rng>(&self, digit: usize, rng: &mut R) -> Tensor {
        assert!(digit < CLASSES, "digit {digit} out of range");
        let strokes = digit_strokes(digit);

        // Random affine jitter around the glyph centre (0.5, 0.5).
        let angle = rng.gen_range(-0.18..0.18f32); // ±~10°
        let scale = rng.gen_range(0.85..1.1f32);
        let (dx, dy) = (rng.gen_range(-0.06..0.06f32), rng.gen_range(-0.06..0.06f32));
        let (sin, cos) = angle.sin_cos();
        let transform = |(x, y): (f32, f32)| -> (f32, f32) {
            let (cx, cy) = (x - 0.5, y - 0.5);
            (
                0.5 + scale * (cos * cx - sin * cy) + dx,
                0.5 + scale * (sin * cx + cos * cy) + dy,
            )
        };
        let strokes: Vec<Stroke> = strokes
            .into_iter()
            .map(|s| s.into_iter().map(transform).collect())
            .collect();

        let thickness = rng.gen_range(0.045..0.075f32);
        let s = self.config.size;
        let mut data = vec![0.0f32; s * s];
        for py in 0..s {
            for px in 0..s {
                // Pixel centre in unit coordinates (glyph box has a margin).
                let ux = (px as f32 + 0.5) / s as f32;
                let uy = (py as f32 + 0.5) / s as f32;
                let mut best = f32::INFINITY;
                for stroke in &strokes {
                    for seg in stroke.windows(2) {
                        best = best.min(dist_to_segment((ux, uy), seg[0], seg[1]));
                    }
                }
                let v = (1.0 - best / thickness).clamp(0.0, 1.0);
                // Soft pen: quadratic falloff looks closer to anti-aliased ink.
                data[py * s + px] = v * v.sqrt();
            }
        }
        if self.config.noise > 0.0 {
            for v in &mut data {
                let n: f32 = rng.gen_range(-1.0..1.0);
                *v = (*v + n * self.config.noise).clamp(0.0, 1.0);
            }
        }
        Tensor::from_vec(data, &[1, s, s]).expect("volume matches by construction")
    }
}

/// Reorders samples so classes alternate: 0,1,2,…,9,0,1,…
fn interleave_by_class(samples: &mut Vec<(Tensor, usize)>, classes: usize) {
    let mut buckets: Vec<Vec<(Tensor, usize)>> = (0..classes).map(|_| Vec::new()).collect();
    for s in samples.drain(..) {
        buckets[s.1].push(s);
    }
    let max = buckets.iter().map(|b| b.len()).max().unwrap_or(0);
    for i in 0..max {
        for b in &mut buckets {
            if i < b.len() {
                samples.push(b[i].clone());
            }
        }
    }
}

/// Distance from point `p` to segment `ab` in unit coordinates.
fn dist_to_segment(p: (f32, f32), a: (f32, f32), b: (f32, f32)) -> f32 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (abx, aby) = (bx - ax, by - ay);
    let len2 = abx * abx + aby * aby;
    let t = if len2 <= f32::EPSILON {
        0.0
    } else {
        (((px - ax) * abx + (py - ay) * aby) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (ax + t * abx, ay + t * aby);
    ((px - cx) * (px - cx) + (py - cy) * (py - cy)).sqrt()
}

/// Samples an ellipse arc as a polyline.
fn arc(cx: f32, cy: f32, rx: f32, ry: f32, from_deg: f32, to_deg: f32, n: usize) -> Stroke {
    (0..=n)
        .map(|i| {
            let t = from_deg + (to_deg - from_deg) * i as f32 / n as f32;
            let rad = t.to_radians();
            (cx + rx * rad.cos(), cy + ry * rad.sin())
        })
        .collect()
}

/// Stroke templates per digit in the unit square (x→right, y→down).
fn digit_strokes(digit: usize) -> Vec<Stroke> {
    match digit {
        0 => vec![arc(0.5, 0.5, 0.22, 0.3, 0.0, 360.0, 24)],
        1 => vec![
            vec![(0.42, 0.3), (0.52, 0.2), (0.52, 0.8)],
            vec![(0.4, 0.8), (0.64, 0.8)],
        ],
        2 => vec![
            arc(0.5, 0.35, 0.2, 0.15, 180.0, 360.0, 12),
            vec![(0.7, 0.35), (0.32, 0.78)],
            vec![(0.32, 0.78), (0.72, 0.78)],
        ],
        3 => vec![
            arc(0.48, 0.35, 0.18, 0.15, 150.0, 380.0, 12),
            arc(0.48, 0.65, 0.2, 0.16, 340.0, 570.0, 12),
        ],
        4 => vec![
            vec![(0.6, 0.2), (0.32, 0.6), (0.72, 0.6)],
            vec![(0.6, 0.2), (0.6, 0.82)],
        ],
        5 => vec![
            vec![(0.68, 0.22), (0.36, 0.22), (0.34, 0.5)],
            arc(0.5, 0.62, 0.19, 0.17, 250.0, 480.0, 14),
        ],
        6 => vec![
            vec![(0.62, 0.2), (0.4, 0.5)],
            arc(0.5, 0.64, 0.18, 0.16, 0.0, 360.0, 18),
        ],
        7 => vec![vec![(0.3, 0.22), (0.7, 0.22), (0.42, 0.8)]],
        8 => vec![
            arc(0.5, 0.34, 0.16, 0.13, 0.0, 360.0, 16),
            arc(0.5, 0.66, 0.2, 0.16, 0.0, 360.0, 16),
        ],
        9 => vec![
            arc(0.52, 0.36, 0.17, 0.15, 0.0, 360.0, 16),
            vec![(0.69, 0.36), (0.62, 0.8)],
        ],
        _ => unreachable!("digit validated by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: usize) -> MnistConfig {
        MnistConfig {
            size,
            train_per_class: 3,
            test_per_class: 2,
            noise: 0.03,
            seed: 7,
        }
    }

    #[test]
    fn dataset_counts_and_shapes() {
        let d = SyntheticMnist::new(cfg(20)).generate();
        assert_eq!(d.train.len(), 30);
        assert_eq!(d.test.len(), 20);
        assert_eq!(d.classes, 10);
        for (img, label) in &d.train {
            assert_eq!(img.shape().dims(), &[1, 20, 20]);
            assert!(*label < 10);
        }
    }

    #[test]
    fn intensities_in_unit_range() {
        let d = SyntheticMnist::new(cfg(16)).generate();
        for (img, _) in d.train.iter().chain(&d.test) {
            assert!(img.min() >= 0.0 && img.max() <= 1.0);
        }
    }

    #[test]
    fn digits_have_ink() {
        let gen = SyntheticMnist::new(MnistConfig {
            noise: 0.0,
            ..cfg(24)
        });
        let mut rng = StdRng::seed_from_u64(1);
        for digit in 0..10 {
            let img = gen.render(digit, &mut rng);
            let ink = img.sum();
            assert!(ink > 5.0, "digit {digit} nearly blank: ink {ink}");
            assert!(
                ink < (24 * 24) as f32 * 0.5,
                "digit {digit} floods the image"
            );
        }
    }

    #[test]
    fn different_digits_differ() {
        let gen = SyntheticMnist::new(MnistConfig {
            noise: 0.0,
            ..cfg(20)
        });
        let mut rng = StdRng::seed_from_u64(3);
        let one = gen.render(1, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let eight = gen.render(8, &mut rng);
        let diff = one.sub(&eight).unwrap().l2_norm();
        assert!(diff > 1.0, "digit glyphs must be distinct, diff {diff}");
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = SyntheticMnist::new(cfg(16)).generate();
        let b = SyntheticMnist::new(cfg(16)).generate();
        assert_eq!(a.train[0].0, b.train[0].0);
        assert_eq!(a.test.last().unwrap().0, b.test.last().unwrap().0);
    }

    #[test]
    fn samples_of_same_digit_are_jittered() {
        let gen = SyntheticMnist::new(cfg(20));
        let mut rng = StdRng::seed_from_u64(9);
        let a = gen.render(5, &mut rng);
        let b = gen.render(5, &mut rng);
        assert_ne!(a, b, "augmentation must vary samples");
    }

    #[test]
    fn classes_interleaved() {
        let d = SyntheticMnist::new(cfg(16)).generate();
        let labels: Vec<usize> = d.train.iter().take(10).map(|(_, l)| *l).collect();
        assert_eq!(labels, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn render_rejects_bad_digit() {
        let gen = SyntheticMnist::new(cfg(16));
        let mut rng = StdRng::seed_from_u64(0);
        let _ = gen.render(10, &mut rng);
    }
}
