//! Synthetic DVS128-Gesture-like event dataset.
//!
//! Eleven gesture classes are modelled as parametric emitter motions
//! (matching the DVS128 Gesture taxonomy: claps, waves, circles, rolls,
//! drums, guitar, other). An emitter is a small cluster of pixels; as it
//! moves, its leading edge produces ON events and its trailing edge OFF
//! events — giving the streams the genuine spatio-temporal correlation
//! that AQF exploits. Background shot noise is added uniformly.
//!
//! Default resolution is 32×32 ("DVS32") so the full experiment pipeline
//! runs in CI time; 128×128 works by configuration.

use crate::Dataset;
use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of gesture classes (matches DVS128 Gesture's 11).
pub const CLASSES: usize = 11;

/// Human-readable gesture names, index-aligned with labels.
pub const GESTURE_NAMES: [&str; CLASSES] = [
    "hand_clap",
    "rh_wave",
    "lh_wave",
    "rh_circle_cw",
    "rh_circle_ccw",
    "lh_circle_cw",
    "lh_circle_ccw",
    "arm_roll",
    "air_drums",
    "air_guitar",
    "other",
];

/// Configuration for the synthetic gesture generator.
///
/// # Example
///
/// ```
/// let cfg = axsnn_datasets::dvs::DvsGestureConfig::default();
/// assert_eq!(cfg.width, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsGestureConfig {
    /// Sensor width in pixels.
    pub width: usize,
    /// Sensor height in pixels.
    pub height: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Micro time steps used to integrate the motion over `[0, 1)`.
    pub micro_steps: usize,
    /// Emitter events per micro step (signal strength).
    pub events_per_step: usize,
    /// Background noise events per sample (shot noise).
    pub noise_events: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DvsGestureConfig {
    fn default() -> Self {
        DvsGestureConfig {
            width: 32,
            height: 32,
            train_per_class: 12,
            test_per_class: 4,
            micro_steps: 120,
            events_per_step: 6,
            noise_events: 40,
            seed: 0xd5_0128,
        }
    }
}

/// The synthetic gesture generator.
///
/// # Example
///
/// ```
/// use axsnn_datasets::dvs::{DvsGestureConfig, SyntheticDvsGestures};
///
/// let gen = SyntheticDvsGestures::new(DvsGestureConfig {
///     train_per_class: 1,
///     test_per_class: 1,
///     ..DvsGestureConfig::default()
/// });
/// let d = gen.generate();
/// assert_eq!(d.classes, 11);
/// assert!(!d.train[0].0.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticDvsGestures {
    config: DvsGestureConfig,
}

impl SyntheticDvsGestures {
    /// Creates a generator with the given configuration.
    pub fn new(config: DvsGestureConfig) -> Self {
        SyntheticDvsGestures { config }
    }

    /// The generator configuration.
    pub fn config(&self) -> &DvsGestureConfig {
        &self.config
    }

    /// Generates the full train/test dataset.
    pub fn generate(&self) -> Dataset<EventStream> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for class in 0..CLASSES {
            for _ in 0..self.config.train_per_class {
                train.push((self.generate_sample(class, &mut rng), class));
            }
            for _ in 0..self.config.test_per_class {
                test.push((self.generate_sample(class, &mut rng), class));
            }
        }
        Dataset {
            train,
            test,
            classes: CLASSES,
        }
    }

    /// Generates one event stream of gesture `class`.
    ///
    /// # Panics
    ///
    /// Panics when `class >= 11` — the gesture set is fixed.
    pub fn generate_sample<R: Rng>(&self, class: usize, rng: &mut R) -> EventStream {
        assert!(class < CLASSES, "gesture class {class} out of range");
        let c = &self.config;
        let mut stream = EventStream::new(c.width, c.height).expect("non-zero sensor");
        let (w, h) = (c.width as f32, c.height as f32);

        // Per-sample variation: phase offset, amplitude scale, speed.
        let phase = rng.gen_range(0.0..std::f32::consts::TAU);
        let amp = rng.gen_range(0.8..1.15f32);
        let speed = rng.gen_range(0.85..1.2f32);

        let mut prev = emitter_positions(class, 0.0, phase, amp, speed);
        for step in 1..c.micro_steps {
            let t = step as f32 / c.micro_steps as f32;
            let now = emitter_positions(class, t, phase, amp, speed);
            for (p, q) in prev.iter().zip(&now) {
                // Motion direction decides polarity: the leading edge
                // brightens (On), the trailing edge darkens (Off).
                let (vx, vy) = (q.0 - p.0, q.1 - p.1);
                let vnorm = (vx * vx + vy * vy).sqrt().max(1e-6);
                for _ in 0..c.events_per_step {
                    let jx = rng.gen_range(-0.035..0.035f32);
                    let jy = rng.gen_range(-0.035..0.035f32);
                    // Offset along the motion axis decides the edge side.
                    let along = (jx * vx + jy * vy) / vnorm;
                    let polarity = if along >= 0.0 {
                        Polarity::On
                    } else {
                        Polarity::Off
                    };
                    let x = ((q.0 + jx) * w).clamp(0.0, w - 1.0) as u16;
                    let y = ((q.1 + jy) * h).clamp(0.0, h - 1.0) as u16;
                    let jitter_t = rng.gen_range(0.0..0.8f32) / c.micro_steps as f32;
                    let time = (t + jitter_t).min(0.999_999);
                    let _ = stream.push(DvsEvent::new(x, y, polarity, time));
                }
            }
            prev = now;
        }
        // Background shot noise: spatio-temporally uncorrelated.
        for _ in 0..c.noise_events {
            let x = rng.gen_range(0..c.width) as u16;
            let y = rng.gen_range(0..c.height) as u16;
            let p = if rng.gen::<bool>() {
                Polarity::On
            } else {
                Polarity::Off
            };
            let t = rng.gen_range(0.0..1.0f32).min(0.999_999);
            let _ = stream.push(DvsEvent::new(x, y, p, t));
        }
        stream.sort_by_time();
        stream
    }
}

/// Streaming replay of one event sample: yields events one at a time
/// in guaranteed non-decreasing timestamp order — the shape a
/// `StreamSession` (`axsnn_neuromorphic::stream`) consumes, without
/// ever materializing frames.
///
/// # Example
///
/// ```
/// use axsnn_datasets::dvs::{DvsGestureConfig, EventReplay, SyntheticDvsGestures};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let gen = SyntheticDvsGestures::new(DvsGestureConfig::default());
/// let mut rng = StdRng::seed_from_u64(1);
/// let sample = gen.generate_sample(0, &mut rng);
/// let n = sample.len();
/// let replay = EventReplay::new(&sample);
/// assert_eq!(replay.count(), n);
/// ```
#[derive(Debug, Clone)]
pub struct EventReplay {
    events: std::vec::IntoIter<DvsEvent>,
    width: usize,
    height: usize,
}

impl EventReplay {
    /// Builds a replay over a snapshot of `stream`, sorting by
    /// timestamp so the yielded order is monotone even when the stream
    /// was perturbed (e.g. by an attack) after collection.
    pub fn new(stream: &EventStream) -> Self {
        let mut events = stream.events().to_vec();
        events.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
        EventReplay {
            events: events.into_iter(),
            width: stream.width(),
            height: stream.height(),
        }
    }

    /// Sensor width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sensor height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Events not yet yielded.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }
}

impl Iterator for EventReplay {
    type Item = DvsEvent;

    fn next(&mut self) -> Option<DvsEvent> {
        self.events.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.events.size_hint()
    }
}

impl ExactSizeIterator for EventReplay {}

/// Emitter centre positions (unit coordinates) of gesture `class` at
/// normalized time `t`.
fn emitter_positions(class: usize, t: f32, phase: f32, amp: f32, speed: f32) -> Vec<(f32, f32)> {
    use std::f32::consts::TAU;
    let w = TAU * speed;
    match class {
        // Two hands moving toward each other and apart.
        0 => {
            let off = 0.18 * amp * (w * 2.0 * t + phase).sin().abs();
            vec![(0.5 - 0.08 - off, 0.5), (0.5 + 0.08 + off, 0.5)]
        }
        // Right-hand wave: horizontal oscillation on the right.
        1 => vec![(0.72 + 0.12 * amp * (w * 3.0 * t + phase).sin(), 0.4)],
        // Left-hand wave.
        2 => vec![(0.28 + 0.12 * amp * (w * 3.0 * t + phase).sin(), 0.4)],
        // Right-arm clockwise circle.
        3 => {
            let a = w * 2.0 * t + phase;
            vec![(0.68 + 0.16 * amp * a.cos(), 0.5 + 0.16 * amp * a.sin())]
        }
        // Right-arm counter-clockwise.
        4 => {
            let a = -(w * 2.0 * t + phase);
            vec![(0.68 + 0.16 * amp * a.cos(), 0.5 + 0.16 * amp * a.sin())]
        }
        // Left-arm clockwise.
        5 => {
            let a = w * 2.0 * t + phase;
            vec![(0.32 + 0.16 * amp * a.cos(), 0.5 + 0.16 * amp * a.sin())]
        }
        // Left-arm counter-clockwise.
        6 => {
            let a = -(w * 2.0 * t + phase);
            vec![(0.32 + 0.16 * amp * a.cos(), 0.5 + 0.16 * amp * a.sin())]
        }
        // Arm roll: two clusters orbiting a common centre.
        7 => {
            let a = w * 2.5 * t + phase;
            vec![
                (0.5 + 0.12 * amp * a.cos(), 0.45 + 0.12 * amp * a.sin()),
                (0.5 - 0.12 * amp * a.cos(), 0.45 - 0.12 * amp * a.sin()),
            ]
        }
        // Air drums: two clusters oscillating vertically in anti-phase.
        8 => {
            let s = (w * 4.0 * t + phase).sin();
            vec![(0.4, 0.5 + 0.14 * amp * s), (0.6, 0.5 - 0.14 * amp * s)]
        }
        // Air guitar: diagonal strumming oscillation.
        9 => {
            let s = (w * 3.5 * t + phase).sin();
            vec![(0.5 + 0.1 * amp * s, 0.55 + 0.12 * amp * s)]
        }
        // Other: slow diagonal drift.
        10 => vec![(
            0.25 + 0.5 * (t * speed).fract(),
            0.3 + 0.35 * ((t * speed * 0.7) + phase / TAU).fract(),
        )],
        _ => unreachable!("class validated by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_neuromorphic::frames::{accumulate_frames, Accumulation};

    fn small() -> DvsGestureConfig {
        DvsGestureConfig {
            train_per_class: 2,
            test_per_class: 1,
            micro_steps: 60,
            events_per_step: 4,
            noise_events: 10,
            ..DvsGestureConfig::default()
        }
    }

    #[test]
    fn dataset_counts() {
        let d = SyntheticDvsGestures::new(small()).generate();
        assert_eq!(d.train.len(), 22);
        assert_eq!(d.test.len(), 11);
        assert_eq!(d.classes, 11);
    }

    #[test]
    fn streams_are_nonempty_and_valid() {
        let d = SyntheticDvsGestures::new(small()).generate();
        for (s, _) in d.train.iter().chain(&d.test) {
            assert!(s.len() > 100, "stream too sparse: {}", s.len());
            for e in s.events() {
                assert!((e.x as usize) < s.width());
                assert!((e.y as usize) < s.height());
                assert!((0.0..1.0).contains(&e.t));
            }
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = SyntheticDvsGestures::new(small()).generate();
        let b = SyntheticDvsGestures::new(small()).generate();
        assert_eq!(a.train[0].0, b.train[0].0);
    }

    #[test]
    fn events_are_time_sorted() {
        let gen = SyntheticDvsGestures::new(small());
        let mut rng = StdRng::seed_from_u64(5);
        let s = gen.generate_sample(3, &mut rng);
        for pair in s.events().windows(2) {
            assert!(pair[0].t <= pair[1].t);
        }
    }

    #[test]
    fn both_polarities_present() {
        let gen = SyntheticDvsGestures::new(small());
        let mut rng = StdRng::seed_from_u64(5);
        let s = gen.generate_sample(1, &mut rng);
        let on = s
            .events()
            .iter()
            .filter(|e| e.polarity == Polarity::On)
            .count();
        let off = s.len() - on;
        assert!(on > 10 && off > 10, "on {on}, off {off}");
    }

    #[test]
    fn gestures_occupy_expected_regions() {
        let gen = SyntheticDvsGestures::new(DvsGestureConfig {
            noise_events: 0,
            ..small()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let right = gen.generate_sample(1, &mut rng); // right-hand wave
        let left = gen.generate_sample(2, &mut rng); // left-hand wave
        let mean_x =
            |s: &EventStream| s.events().iter().map(|e| e.x as f32).sum::<f32>() / s.len() as f32;
        assert!(
            mean_x(&right) > mean_x(&left) + 5.0,
            "right {} vs left {}",
            mean_x(&right),
            mean_x(&left)
        );
    }

    #[test]
    fn different_classes_produce_different_rate_maps() {
        let gen = SyntheticDvsGestures::new(DvsGestureConfig {
            noise_events: 0,
            ..small()
        });
        let mut rng = StdRng::seed_from_u64(11);
        let a = gen.generate_sample(0, &mut rng);
        let mut rng = StdRng::seed_from_u64(11);
        let b = gen.generate_sample(8, &mut rng);
        let fa = accumulate_frames(&a, 1, Accumulation::Count).unwrap();
        let fb = accumulate_frames(&b, 1, Accumulation::Count).unwrap();
        let diff = fa[0].sub(&fb[0]).unwrap().l2_norm();
        assert!(diff > 1.0, "class rate maps too similar: {diff}");
    }

    #[test]
    fn frames_integration_shape() {
        let gen = SyntheticDvsGestures::new(small());
        let mut rng = StdRng::seed_from_u64(2);
        let s = gen.generate_sample(4, &mut rng);
        let frames = accumulate_frames(&s, 16, Accumulation::Binary).unwrap();
        assert_eq!(frames.len(), 16);
        assert_eq!(frames[0].shape().dims(), &[2, 32, 32]);
        let total: f32 = frames.iter().map(|f| f.sum()).sum();
        assert!(total > 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_panics() {
        let gen = SyntheticDvsGestures::new(small());
        let mut rng = StdRng::seed_from_u64(0);
        let _ = gen.generate_sample(11, &mut rng);
    }

    #[test]
    fn gesture_names_align() {
        assert_eq!(GESTURE_NAMES.len(), CLASSES);
        assert_eq!(GESTURE_NAMES[0], "hand_clap");
        assert_eq!(GESTURE_NAMES[10], "other");
    }

    #[test]
    fn replay_yields_every_event_in_time_order() {
        let gen = SyntheticDvsGestures::new(small());
        let mut rng = StdRng::seed_from_u64(9);
        let sample = gen.generate_sample(6, &mut rng);
        let replay = EventReplay::new(&sample);
        assert_eq!(replay.len(), sample.len());
        assert_eq!(replay.width(), sample.width());
        let mut last = f32::NEG_INFINITY;
        let mut n = 0usize;
        for e in replay {
            assert!(e.t >= last, "replay must be monotone");
            last = e.t;
            n += 1;
        }
        assert_eq!(n, sample.len());
    }

    #[test]
    fn replay_sorts_perturbed_streams() {
        let mut s = EventStream::new(8, 8).unwrap();
        s.push(DvsEvent::new(1, 1, Polarity::On, 0.9)).unwrap();
        s.push(DvsEvent::new(2, 2, Polarity::Off, 0.1)).unwrap();
        let times: Vec<f32> = EventReplay::new(&s).map(|e| e.t).collect();
        assert_eq!(times, vec![0.1, 0.9]);
    }
}
