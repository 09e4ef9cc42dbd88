//! End-to-end checks that the event-driven sparse forward path is
//! behaviourally equivalent to the dense path through full networks,
//! and that training (recorded) steps are byte-identical to the
//! pre-sparse implementation.

use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::PlanOverride;
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn conv_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::avg_pool2d(2),
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 4,
                    out_channels: 6,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 6 * 4 * 4, 20, &cfg),
            Layer::output_linear(&mut rng, 20, 5),
        ],
        cfg,
    )
    .unwrap()
}

fn sparse_frames(seed: u64, steps: usize, density: f32) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let data: Vec<f32> = (0..16 * 16)
                .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                .collect();
            Tensor::from_vec(data, &[1, 16, 16]).unwrap()
        })
        .collect()
}

/// Sparse and dense inference agree through a conv/pool/linear stack at
/// realistic spike densities. (Fixed seeds: this is deterministic, so
/// near-threshold membrane ties cannot make it flaky run-to-run.)
#[test]
fn inference_logits_match_dense_path() {
    for density in [0.0, 0.05, 0.1, 0.2] {
        let cfg = SnnConfig {
            threshold: 0.6,
            time_steps: 8,
            leak: 0.9,
        };
        let mut sparse_net = conv_net(7, cfg);
        let mut dense_net = sparse_net.clone();
        dense_net.apply_plan(PlanOverride::ForceDense); // force dense kernels
        assert_eq!(
            sparse_net.layers()[0].sparse_threshold(),
            Some(axsnn_tensor::sparse::DEFAULT_DENSITY_THRESHOLD)
        );
        assert_eq!(dense_net.layers()[0].sparse_threshold(), Some(0.0));

        let frames = sparse_frames(11, 8, density);
        let mut rng = StdRng::seed_from_u64(0);
        let a = sparse_net.forward(&frames, false, &mut rng).unwrap();
        let b = dense_net.forward(&frames, false, &mut rng).unwrap();
        for (x, y) in a.logits.as_slice().iter().zip(b.logits.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "density {density}: {x} vs {y}"
            );
        }
        assert_eq!(a.logits.argmax(), b.logits.argmax());
        assert_eq!(a.stats.spikes_per_layer, b.stats.spikes_per_layer);
    }
}

/// Spike statistics survive the tape-free refactor: inference collects
/// the same per-layer counts as a recorded pass.
#[test]
fn spike_stats_identical_with_and_without_record() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    let mut net = conv_net(3, cfg);
    net.apply_plan(PlanOverride::ForceDense); // identical kernels both ways
    let frames = sparse_frames(5, 6, 0.3);
    let mut rng = StdRng::seed_from_u64(0);
    let recorded = net.forward(&frames, true, &mut rng).unwrap();
    let inference = net.forward(&frames, false, &mut rng).unwrap();
    assert_eq!(recorded.stats, inference.stats);
    assert_eq!(recorded.logits, inference.logits);
}

/// A recorded (training) forward still supports backward after the
/// sparse refactor, and gradients are finite.
#[test]
fn recorded_forward_backward_unchanged() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 4,
        leak: 0.9,
    };
    let mut net = conv_net(9, cfg);
    let frames = sparse_frames(2, 4, 0.15);
    let mut rng = StdRng::seed_from_u64(1);
    net.forward(&frames, true, &mut rng).unwrap();
    let g = Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.0, -0.75], &[5]).unwrap();
    let frame_grads = net.backward(&g, 4).unwrap();
    assert_eq!(frame_grads.len(), 4);
    assert!(frame_grads.iter().all(Tensor::is_finite));
}

/// The sparse gate never engages on analog (non-binary) inputs: a
/// direct-current frame takes the dense path and classifies identically
/// whatever the threshold.
#[test]
fn analog_inputs_always_dense() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    let mut auto_net = conv_net(13, cfg);
    let mut dense_net = auto_net.clone();
    dense_net.apply_plan(PlanOverride::ForceDense);
    let mut rng = StdRng::seed_from_u64(4);
    let analog: Vec<f32> = (0..16 * 16).map(|_| rng.gen::<f32>() * 0.05).collect();
    let frames = vec![Tensor::from_vec(analog, &[1, 16, 16]).unwrap(); 6];
    let mut r1 = StdRng::seed_from_u64(2);
    let mut r2 = StdRng::seed_from_u64(2);
    let a = auto_net.forward(&frames, false, &mut r1).unwrap();
    let b = dense_net.forward(&frames, false, &mut r2).unwrap();
    assert_eq!(
        a.logits, b.logits,
        "analog first layer must stay dense-exact"
    );
}
