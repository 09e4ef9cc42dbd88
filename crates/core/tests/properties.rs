//! Property-based tests for SNN core invariants.

use axsnn_core::approx::{
    apply_approximation, apply_quantile_approximation, quantile_fraction, ApproximationLevel,
};
use axsnn_core::encoding::Encoder;
use axsnn_core::layer::Layer;
use axsnn_core::lif::{LifParams, LifState};
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::precision::{f16_round_trip, quantize_step, PrecisionScale};
use axsnn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 5, 12, &cfg),
            Layer::output_linear(&mut rng, 12, 3),
        ],
        cfg,
    )
    .expect("static topology")
}

proptest! {
    /// LIF spikes are binary and the membrane never exceeds the threshold
    /// after a step (hard reset).
    #[test]
    fn lif_membrane_bounded(currents in proptest::collection::vec(0.0f32..2.0, 1..50)) {
        let params = LifParams { threshold: 1.0, leak: 0.9, surrogate_alpha: 2.0 };
        let mut state = LifState::new(1, params);
        for c in currents {
            let out = state.step(&[c]);
            prop_assert!(out.spikes[0] == 0.0 || out.spikes[0] == 1.0);
            prop_assert!(state.membrane()[0] < params.threshold);
        }
    }

    /// Total spike count is monotone in the input drive.
    #[test]
    fn lif_rate_monotone_in_drive(base in 0.05f32..0.5, extra in 0.01f32..0.5) {
        let params = LifParams { threshold: 1.0, leak: 0.9, surrogate_alpha: 2.0 };
        let run = |drive: f32| {
            let mut s = LifState::new(1, params);
            (0..100).map(|_| s.step(&[drive]).spikes[0]).sum::<f32>()
        };
        prop_assert!(run(base + extra) >= run(base));
    }

    /// The surrogate gradient is bounded in (0, 1] everywhere.
    #[test]
    fn surrogate_bounded(v in -100.0f32..100.0) {
        let p = LifParams::default();
        let g = p.surrogate_grad(v);
        prop_assert!(g > 0.0 && g <= 1.0);
    }

    /// Deterministic rate encoding emits exactly round(p·T) spikes.
    #[test]
    fn deterministic_encoding_counts(p in 0.0f32..1.0, t in 1usize..64) {
        let mut rng = StdRng::seed_from_u64(0);
        let image = Tensor::full(&[1], p);
        let frames = Encoder::Deterministic.encode(&image, t, &mut rng).unwrap();
        let count: f32 = frames.iter().map(|f| f.as_slice()[0]).sum();
        let expected = (p * t as f32).round();
        prop_assert!((count - expected).abs() <= 1.0, "{count} vs {expected}");
    }

    /// f16 round-trip is idempotent: applying it twice equals once.
    #[test]
    fn f16_idempotent(v in -65000.0f32..65000.0) {
        let once = f16_round_trip(v);
        let twice = f16_round_trip(once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// f16 relative error is within the format's epsilon for normal range.
    #[test]
    fn f16_relative_error(v in 0.001f32..1000.0) {
        let r = f16_round_trip(v);
        prop_assert!(((r - v) / v).abs() <= 1.0 / 1024.0);
    }

    /// Quantization is *exactly* idempotent for every precision scale —
    /// `q(q(t))` is bit-identical to `q(t)` — and int8 preserves the
    /// extreme value exactly (the ±max grid endpoints are fixed
    /// points).
    #[test]
    fn quantize_tensor_idempotent(data in proptest::collection::vec(-5.0f32..5.0, 4..32)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        for scale in [PrecisionScale::Fp32, PrecisionScale::Fp16, PrecisionScale::Int8] {
            let q1 = scale.quantize_tensor(&t).unwrap();
            let q2 = scale.quantize_tensor(&q1).unwrap();
            for (a, b) in q1.as_slice().iter().zip(q2.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} must be idempotent", scale);
            }
        }
        let q = PrecisionScale::Int8.quantize_tensor(&t).unwrap();
        prop_assert_eq!(q.linf_norm().to_bits(), t.linf_norm().to_bits());
    }

    /// Step quantization lands on the grid and moves values < step/2.
    #[test]
    fn step_quantization_on_grid(v in -100.0f32..100.0, step in 0.001f32..1.0) {
        let q = quantize_step(v, step);
        let k = (q / step).round();
        prop_assert!((q - k * step).abs() < step * 1e-3);
        prop_assert!((q - v).abs() <= step / 2.0 + step * 1e-3);
    }

    /// Quantile approximation prunes a monotone fraction of weights.
    #[test]
    fn quantile_fraction_monotone(a in 1e-4f32..1.0, b in 1e-4f32..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let fl = quantile_fraction(ApproximationLevel::new(lo).unwrap());
        let fh = quantile_fraction(ApproximationLevel::new(hi).unwrap());
        prop_assert!(fl <= fh);
        prop_assert!((0.0..=1.0).contains(&fl));
    }

    /// Approximation never increases the number of non-zero weights.
    #[test]
    fn approximation_only_removes(seed in 0u64..50, level in 0.0f32..1.0) {
        let cfg = SnnConfig::default();
        let count_nonzero = |net: &SpikingNetwork| -> usize {
            net.layers().iter().filter_map(|l| l.params())
                .map(|(w, _)| w.value.as_slice().iter().filter(|v| **v != 0.0).count())
                .sum()
        };
        let net = small_net(seed, cfg);
        let before = count_nonzero(&net);
        let mut a = net.clone();
        apply_approximation(&mut a, ApproximationLevel::new(level).unwrap()).unwrap();
        prop_assert!(count_nonzero(&a) <= before);
        let mut q = net.clone();
        apply_quantile_approximation(&mut q, ApproximationLevel::new(level).unwrap()).unwrap();
        prop_assert!(count_nonzero(&q) <= before);
    }

    /// Forward passes are reproducible: same frames, same logits.
    #[test]
    fn forward_reproducible(seed in 0u64..20, drive in 0.1f32..1.0) {
        let cfg = SnnConfig { threshold: 0.8, time_steps: 8, leak: 0.9 };
        let mut net = small_net(seed, cfg);
        let frames = vec![Tensor::full(&[5], drive); 8];
        let mut rng = StdRng::seed_from_u64(0);
        let a = net.forward(&frames, false, &mut rng).unwrap();
        let b = net.forward(&frames, false, &mut rng).unwrap();
        prop_assert_eq!(a.logits, b.logits);
    }

    /// Spike statistics are non-negative and bounded by neurons × steps.
    #[test]
    fn spike_stats_bounded(seed in 0u64..20, drive in 0.0f32..2.0) {
        let cfg = SnnConfig { threshold: 0.5, time_steps: 6, leak: 0.9 };
        let mut net = small_net(seed, cfg);
        let frames = vec![Tensor::full(&[5], drive); 6];
        let mut rng = StdRng::seed_from_u64(0);
        let out = net.forward(&frames, false, &mut rng).unwrap();
        for &s in &out.stats.spikes_per_layer {
            prop_assert!(s >= 0.0);
            prop_assert!(s <= (12 * 6) as f32);
        }
    }
}
