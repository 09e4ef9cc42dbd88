//! Quantized weight-plane equivalence suite: reduced-precision *storage*
//! must be indistinguishable from reduced-precision *emulation*.
//!
//! [`apply_precision`] quantizes weights and stores them back as f32
//! (every kernel still streams full-width weights);
//! [`SpikingNetwork::set_weight_plane`] materializes the same values as
//! real int8/f16 buffers that the plane-aware kernels dequantize in
//! register. The two routes share one quantizer and one accumulation
//! order, so everything observable — one-row recorded forward, fused
//! batch forward, batched backward gradients, and the non-recorded
//! inference path — is pinned bit-identical here across spike densities
//! 0–100% and batch sizes 1–32, on both MLP and conv topologies. The
//! suite also pins that a precision-scaled, planed network survives
//! `save_network`/`load_network` value-exact, plane buffers included.

use axsnn_core::fused::FrameTrain;
use axsnn_core::io::{load_network, save_network};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::precision::{apply_precision, PrecisionScale};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::plane::WeightPlane;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DENSITIES: &[f32] = &[0.0, 0.05, 0.10, 0.5, 1.0];
const BATCHES: &[usize] = &[1, 4, 32];
const PLANES: &[WeightPlane] = &[WeightPlane::F16, WeightPlane::Int8];

fn mlp_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 24, 18, &cfg),
            Layer::spiking_linear(&mut rng, 18, 12, &cfg),
            Layer::output_linear(&mut rng, 12, 4),
        ],
        cfg,
    )
    .unwrap()
}

fn conv_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 6,
                    kernel: 5,
                    stride: 1,
                    padding: 2,
                },
                &cfg,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 6 * 6 * 6, 16, &cfg),
            Layer::output_linear(&mut rng, 16, 5),
        ],
        cfg,
    )
    .unwrap()
}

fn binary_frames(seed: u64, steps: usize, dims: &[usize], density: f32) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = dims.iter().product();
    (0..steps)
        .map(|_| {
            let data: Vec<f32> = (0..len)
                .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                .collect();
            Tensor::from_vec(data, dims).unwrap()
        })
        .collect()
}

/// The emulated twin (`apply_precision`, f32 storage) and the planed
/// twin (untouched master weights, quantized storage) of `net`.
fn twins(net: &SpikingNetwork, plane: WeightPlane) -> (SpikingNetwork, SpikingNetwork) {
    let mut emulated = net.clone();
    apply_precision(&mut emulated, PrecisionScale::from_plane(plane)).unwrap();
    let mut planed = net.clone();
    planed.set_weight_plane(plane).unwrap();
    (emulated, planed)
}

fn grads_of(net: &SpikingNetwork) -> Vec<(Vec<u32>, Vec<u32>)> {
    net.layers()
        .iter()
        .filter_map(|l| l.params())
        .map(|(w, b)| {
            (
                w.grad.as_slice().iter().map(|v| v.to_bits()).collect(),
                b.grad.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Per-sample recorded forward logits are bit-identical between real
/// quantized storage and the f32 emulation, at every density, on both
/// topologies. This is the tentpole's core contract: the plane changes
/// *where the bytes live*, never the arithmetic.
#[test]
fn planed_recorded_forward_matches_apply_precision() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    for &plane in PLANES {
        for &density in DENSITIES {
            for (name, net) in [("mlp", mlp_net(11, cfg)), ("conv", conv_net(12, cfg))] {
                let dims: &[usize] = if name == "mlp" { &[24] } else { &[1, 12, 12] };
                let frames = binary_frames(7, 6, dims, density);
                let (mut emulated, mut planed) = twins(&net, plane);
                let mut rng_a = StdRng::seed_from_u64(0);
                let mut rng_b = StdRng::seed_from_u64(0);
                let a = emulated.forward(&frames, true, &mut rng_a).unwrap();
                let b = planed.forward(&frames, true, &mut rng_b).unwrap();
                assert_eq!(
                    bits(&a.logits),
                    bits(&b.logits),
                    "{name} {plane} density {density}: planed recorded logits diverged"
                );
                assert_eq!(a.stats.spikes_per_layer, b.stats.spikes_per_layer);
            }
        }
    }
}

/// Non-recorded inference runs the fast kernels; the planed fast
/// kernels share their exact accumulation order, so inference logits
/// are bit-identical too — not merely tolerance-close.
#[test]
fn planed_inference_forward_matches_apply_precision() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 8,
        leak: 0.9,
    };
    for &plane in PLANES {
        for &density in DENSITIES {
            for (name, net) in [("mlp", mlp_net(21, cfg)), ("conv", conv_net(22, cfg))] {
                let dims: &[usize] = if name == "mlp" { &[24] } else { &[1, 12, 12] };
                let frames = binary_frames(9, 8, dims, density);
                let (mut emulated, mut planed) = twins(&net, plane);
                let mut rng_a = StdRng::seed_from_u64(0);
                let mut rng_b = StdRng::seed_from_u64(0);
                let a = emulated.forward(&frames, false, &mut rng_a).unwrap();
                let b = planed.forward(&frames, false, &mut rng_b).unwrap();
                assert_eq!(
                    bits(&a.logits),
                    bits(&b.logits),
                    "{name} {plane} density {density}: planed inference logits diverged"
                );
            }
        }
    }
}

/// Fused batch forward (inference and recorded) and the batched
/// backward are bit-identical between the two routes for batch sizes
/// 1–32: planed backward differentiates through the dequantized image,
/// exactly what the emulation's master weights hold.
#[test]
fn planed_batch_forward_and_backward_match() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 4,
        leak: 0.9,
    };
    for &plane in PLANES {
        for &density in DENSITIES {
            for &batch in BATCHES {
                let net = conv_net(31, cfg);
                let trains: Vec<FrameTrain> = (0..batch)
                    .map(|b| {
                        FrameTrain::from_frames(&binary_frames(
                            100 + b as u64,
                            4,
                            &[1, 12, 12],
                            density,
                        ))
                        .unwrap()
                    })
                    .collect();
                let classes = 5;
                let mut grng = StdRng::seed_from_u64(3);
                let grad_rows: Vec<f32> = (0..batch * classes)
                    .map(|_| grng.gen_range(-1.0..1.0f32))
                    .collect();
                let grad = Tensor::from_vec(grad_rows, &[batch, classes]).unwrap();

                let (mut emulated, mut planed) = twins(&net, plane);
                let fa = emulated.forward_batch(&trains).unwrap();
                let fb = planed.forward_batch(&trains).unwrap();
                assert_eq!(
                    bits(&fa.logits),
                    bits(&fb.logits),
                    "{plane} density {density} batch {batch}: fused logits diverged"
                );
                assert_eq!(fa.spikes_per_layer, fb.spikes_per_layer);

                let (ra, tape_a) = emulated.forward_batch_recorded(&trains).unwrap();
                let (rb, tape_b) = planed.forward_batch_recorded(&trains).unwrap();
                assert_eq!(
                    bits(&ra.logits),
                    bits(&rb.logits),
                    "{plane} density {density} batch {batch}: recorded fused logits diverged"
                );
                emulated.zero_grads();
                emulated.backward_batch(&tape_a, &grad).unwrap();
                planed.zero_grads();
                planed.backward_batch(&tape_b, &grad).unwrap();
                assert_eq!(
                    grads_of(&emulated),
                    grads_of(&planed),
                    "{plane} density {density} batch {batch}: backward grads diverged"
                );
            }
        }
    }
}

/// A precision-scaled network with a real weight plane installed
/// survives `save_network`/`load_network` value-exact: master weights
/// bit for bit, the plane re-materialized, and forward bit-identical —
/// the plane buffers themselves round-trip through requantization of
/// the exact weights.
#[test]
fn precision_scaled_planed_network_roundtrips_through_disk() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    for &plane in PLANES {
        let mut net = mlp_net(41, cfg);
        apply_precision(&mut net, PrecisionScale::from_plane(plane)).unwrap();
        net.set_weight_plane(plane).unwrap();
        let path = std::env::temp_dir().join(format!(
            "axsnn_quant_eq_{}_{}.json",
            plane,
            std::process::id()
        ));
        save_network(&net, &path).unwrap();
        let mut restored = load_network(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.weight_plane(), plane);
        for (a, b) in net.layers().iter().zip(restored.layers()) {
            match (a.params(), b.params()) {
                (Some((wa, ba)), Some((wb, bb))) => {
                    assert_eq!(bits(&wa.value), bits(&wb.value), "{plane}: weights moved");
                    assert_eq!(bits(&ba.value), bits(&bb.value), "{plane}: biases moved");
                }
                (None, None) => {}
                _ => panic!("{plane}: layer kinds diverged across the round trip"),
            }
        }
        for &density in &[0.05f32, 0.5] {
            let frames = binary_frames(17, 6, &[24], density);
            let mut rng_a = StdRng::seed_from_u64(0);
            let mut rng_b = StdRng::seed_from_u64(0);
            let a = net.forward(&frames, true, &mut rng_a).unwrap();
            let b = restored.forward(&frames, true, &mut rng_b).unwrap();
            assert_eq!(
                bits(&a.logits),
                bits(&b.logits),
                "{plane} density {density}: restored planed forward diverged"
            );
        }
    }
}

/// Installing a plane is reversible and emulation-composable: stepping
/// back to [`WeightPlane::F32`] restores the untouched master weights'
/// forward exactly, and `apply_precision` followed by the matching
/// plane is a fixed point (requantizing already-quantized weights is
/// the identity, so both twins agree with a doubly-quantized third).
#[test]
fn plane_is_reversible_and_composes_with_emulation() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    let net = mlp_net(51, cfg);
    let frames = binary_frames(19, 6, &[24], 0.3);
    let baseline = {
        let mut n = net.clone();
        let mut rng = StdRng::seed_from_u64(0);
        n.forward(&frames, true, &mut rng).unwrap().logits
    };
    for &plane in PLANES {
        let mut planed = net.clone();
        planed.set_weight_plane(plane).unwrap();
        planed.set_weight_plane(WeightPlane::F32).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let back = planed.forward(&frames, true, &mut rng).unwrap().logits;
        assert_eq!(
            bits(&baseline),
            bits(&back),
            "{plane}: uninstalling the plane must restore the f32 forward exactly"
        );

        // apply_precision then plane == plane alone (shared quantizer,
        // idempotent grid).
        let (_, mut planed_only) = twins(&net, plane);
        let mut both = net.clone();
        apply_precision(&mut both, PrecisionScale::from_plane(plane)).unwrap();
        both.set_weight_plane(plane).unwrap();
        let mut rng_a = StdRng::seed_from_u64(0);
        let mut rng_b = StdRng::seed_from_u64(0);
        let a = planed_only.forward(&frames, true, &mut rng_a).unwrap();
        let b = both.forward(&frames, true, &mut rng_b).unwrap();
        assert_eq!(
            bits(&a.logits),
            bits(&b.logits),
            "{plane}: emulation followed by the plane must be a fixed point"
        );
    }
}
