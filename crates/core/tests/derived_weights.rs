//! Derived weight state never goes stale.
//!
//! Each parameterized layer derives state from its effective weights:
//! a reduced-precision plane's buffers, a linear layer's packed panels
//! and the non-zero count synaptic operations scale by. The engine
//! builds the panels and the count once per weight change and reuses
//! them across passes, so every path that changes the weights must
//! rebuild or drop all three.
//!
//! Every test first runs a pass, so the state to go stale exists, then
//! changes the weights and compares the next pass, bit for bit, with a
//! network that never held the old state:
//! * each library edit (the three approximations, step quantization and
//!   `apply_precision`) made on a planed network against the same edit
//!   made before the plane, for every plane;
//! * each mutation path (`params_mut` with its plane refresh,
//!   `apply_grads`, a plane switch, snapshot restore) against a network
//!   built fresh from the resulting master weights.
//!
//! Passes are compared on the one-row `forward` (logits, spike counts,
//! synaptic operations) and on a three-row `forward_batch`, over sparse
//! binary inputs (the spike GEMM) and dense binary and analog ones (the
//! dense fallback), on an MLP and a conv net.

use axsnn_core::approx::{
    apply_approximation, apply_eq1_approximation, apply_quantile_approximation, ApproximationLevel,
};
use axsnn_core::fused::FrameTrain;
use axsnn_core::io::{restore_network, snapshot_network};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikeStats, SpikingNetwork};
use axsnn_core::precision::{apply_precision, apply_step_quantization, PrecisionScale};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::plane::WeightPlane;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CFG: SnnConfig = SnnConfig {
    threshold: 0.5,
    time_steps: 6,
    leak: 0.9,
};

fn mlp(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 16, 12, &CFG),
            Layer::output_linear(&mut rng, 12, 4),
        ],
        CFG,
    )
    .unwrap()
}

fn conv(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = Conv2dSpec {
        in_channels: 1,
        out_channels: 4,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(&mut rng, spec, &CFG),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 4 * 4 * 4, 9, &CFG),
            Layer::output_linear(&mut rng, 9, 3),
        ],
        CFG,
    )
    .unwrap()
}

/// The two nets with their input shapes.
fn nets() -> Vec<(SpikingNetwork, Vec<usize>)> {
    vec![(mlp(3), vec![16]), (conv(5), vec![1, 8, 8])]
}

/// Binary frames at `density` (`analog` turns them into repeated
/// direct-current frames instead).
fn frames(seed: u64, dims: &[usize], density: f32, analog: bool) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = dims.iter().product();
    if analog {
        let frame: Vec<f32> = (0..len).map(|_| rng.gen::<f32>()).collect();
        return vec![Tensor::from_vec(frame, dims).unwrap(); CFG.time_steps];
    }
    (0..CFG.time_steps)
        .map(|_| {
            let data = (0..len)
                .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                .collect();
            Tensor::from_vec(data, dims).unwrap()
        })
        .collect()
}

/// Every observable of a pass, as bits: one-row logits, spike counts and
/// synaptic operations per input, then the batched logits.
fn observe(net: &mut SpikingNetwork, dims: &[usize]) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0);
    // Sparse binary rows (the spike GEMM), dense binary rows the gate
    // declines and analog rows (both the dense fallback).
    let inputs: Vec<Vec<Tensor>> = [(0.1, false), (0.4, false), (0.0, true)]
        .iter()
        .enumerate()
        .map(|(i, &(density, analog))| frames(11 + i as u64, dims, density, analog))
        .collect();
    let mut bits = Vec::new();
    for input in &inputs {
        let out = net.forward(input, false, &mut rng).unwrap();
        bits.extend(out.logits.as_slice().iter().map(|v| u64::from(v.to_bits())));
        bits.extend(
            out.stats
                .spikes_per_layer
                .iter()
                .map(|v| u64::from(v.to_bits())),
        );
        bits.push(out.stats.synaptic_ops.to_bits());
    }
    let trains: Vec<FrameTrain> = inputs
        .iter()
        .map(|f| FrameTrain::from_frames(f).unwrap())
        .collect();
    let batch = net.forward_batch(&trains).unwrap();
    bits.extend(
        batch
            .logits
            .as_slice()
            .iter()
            .map(|v| u64::from(v.to_bits())),
    );
    bits
}

/// A copy of `net` built from scratch out of its master weights: no
/// plane, no derived state.
fn rebuilt(net: &SpikingNetwork) -> SpikingNetwork {
    let layers = net
        .layers()
        .iter()
        .map(|layer| {
            let Some((w, b)) = layer.params() else {
                return layer.clone();
            };
            let (w, b) = (w.value.clone(), b.value.clone());
            match layer {
                Layer::SpikingConv2d(l) => Layer::spiking_conv2d_from(l.spec, w, b, &CFG),
                Layer::SpikingLinear(_) => Layer::spiking_linear_from(w, b, &CFG),
                _ => Layer::output_linear_from(w, b),
            }
            .unwrap()
        })
        .collect();
    SpikingNetwork::new(layers, CFG).unwrap()
}

type Edit = Box<dyn Fn(&mut SpikingNetwork, &SpikeStats)>;

/// Every library edit of the master weights.
fn edits() -> Vec<(&'static str, Edit)> {
    let level = |v| ApproximationLevel::new(v).unwrap();
    vec![
        (
            "approximation 0.5",
            Box::new(move |net, _| {
                apply_approximation(net, level(0.5)).unwrap();
            }),
        ),
        (
            "quantile 0.01",
            Box::new(move |net, _| {
                apply_quantile_approximation(net, level(0.01)).unwrap();
            }),
        ),
        (
            "quantile 1.0",
            Box::new(move |net, _| {
                apply_quantile_approximation(net, level(1.0)).unwrap();
            }),
        ),
        (
            "eq1 2.0",
            Box::new(|net, stats| {
                apply_eq1_approximation(net, stats, 2.0).unwrap();
            }),
        ),
        (
            "step 0.25",
            Box::new(|net, _| {
                apply_step_quantization(net, 0.25).unwrap();
            }),
        ),
        (
            "precision int8",
            Box::new(|net, _| {
                apply_precision(net, PrecisionScale::Int8).unwrap();
            }),
        ),
    ]
}

#[test]
fn edits_on_a_planed_network_match_edits_before_the_plane() {
    for (base, dims) in nets() {
        let stats = base
            .clone()
            .forward(
                &frames(1, &dims, 0.3, false),
                false,
                &mut StdRng::seed_from_u64(0),
            )
            .unwrap()
            .stats;
        for (name, edit) in edits() {
            for plane in WeightPlane::ALL {
                let mut late = base.clone();
                late.set_weight_plane(plane).unwrap();
                observe(&mut late, &dims);
                edit(&mut late, &stats);

                let mut early = base.clone();
                edit(&mut early, &stats);
                early.set_weight_plane(plane).unwrap();

                assert_eq!(
                    observe(&mut late, &dims),
                    observe(&mut early, &dims),
                    "{name} on a {plane} net"
                );
            }
        }
    }
}

#[test]
fn params_mut_edits_match_a_rebuilt_network() {
    for (base, dims) in nets() {
        for plane in WeightPlane::ALL {
            let mut net = base.clone();
            net.set_weight_plane(plane).unwrap();
            observe(&mut net, &dims);
            for layer in net.layers_mut() {
                if let Some((w, b)) = layer.params_mut() {
                    for (i, v) in w.value.as_mut_slice().iter_mut().enumerate() {
                        *v = if i % 3 == 0 { 0.0 } else { *v * 1.5 };
                    }
                    b.value.as_mut_slice()[0] += 0.125;
                }
                layer.refresh_weight_plane().unwrap();
            }
            let mut fresh = rebuilt(&net);
            fresh.set_weight_plane(plane).unwrap();
            assert_eq!(
                observe(&mut net, &dims),
                observe(&mut fresh, &dims),
                "{plane}"
            );
        }
    }
}

#[test]
fn apply_grads_matches_a_rebuilt_network() {
    for (base, dims) in nets() {
        for plane in WeightPlane::ALL {
            for shared in [false, true] {
                let mut net = base.clone();
                net.set_weight_plane(plane).unwrap();
                observe(&mut net, &dims);
                // A live clone shares the panels, so they cannot be
                // repacked in place.
                let clone = shared.then(|| net.clone());
                let mut rng = StdRng::seed_from_u64(9);
                let input = frames(4, &dims, 0.3, false);
                let classes = net.forward(&input, true, &mut rng).unwrap().logits.len();
                let grad =
                    Tensor::from_vec((0..classes).map(|c| c as f32 - 1.0).collect(), &[classes])
                        .unwrap();
                net.backward(&grad, CFG.time_steps).unwrap();
                net.apply_grads(0.05, 0.9).unwrap();
                drop(clone);
                let mut fresh = rebuilt(&net);
                fresh.set_weight_plane(plane).unwrap();
                assert_eq!(
                    observe(&mut net, &dims),
                    observe(&mut fresh, &dims),
                    "{plane}, panels shared: {shared}"
                );
            }
        }
    }
}

#[test]
fn plane_switches_and_restores_match_a_rebuilt_network() {
    for (base, dims) in nets() {
        for from in WeightPlane::ALL {
            for to in WeightPlane::ALL {
                let mut net = base.clone();
                net.set_weight_plane(from).unwrap();
                observe(&mut net, &dims);
                net.set_weight_plane(to).unwrap();
                let mut fresh = rebuilt(&net);
                fresh.set_weight_plane(to).unwrap();
                let switched = observe(&mut net, &dims);
                assert_eq!(switched, observe(&mut fresh, &dims), "{from} → {to}");
                let mut restored = restore_network(&snapshot_network(&net).unwrap()).unwrap();
                assert_eq!(switched, observe(&mut restored, &dims), "{to} restored");
            }
        }
    }
}
