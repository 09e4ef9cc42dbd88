//! Plan-equivalence property suite: the execution plan chooses *how*
//! to compute, never *what*.
//!
//! Forced-dense, forced-sparse and auto plans must be bit-for-bit
//! identical on every forward path — inference and recorded, one row
//! and batched — and produce `grad_equivalence`-level identical gradients
//! on backward, across batch sizes 1–32 and spike densities 0–100%.
//! Every sparse kernel sums in its dense twin's order, so the density
//! gate decides only speed. The batched-conv kernel choice (row-by-row
//! vs event-sorted) is likewise pinned bit-identical through the public
//! snapshot path that selects it.

use axsnn_core::fused::FrameTrain;
use axsnn_core::io::{restore_network, snapshot_network};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::{ConvBatchKernel, KernelChoice, PlanOverride, DEFAULT_DENSITY_THRESHOLD};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DENSITIES: &[f32] = &[0.0, 0.05, 0.25, 0.6, 1.0];
const BATCHES: &[usize] = &[1, 2, 7, 32];

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
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 6,
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 8 * 6 * 6, 16, &cfg),
            Layer::output_linear(&mut rng, 16, 5),
        ],
        cfg,
    )
    .unwrap()
}

/// A stack whose avg pool has a 5×5 window, the smallest at which
/// adding `1/k²` per spike rounds away from the dense pool's scaled
/// count.
fn avg_pool_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 2,
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &cfg,
            ),
            Layer::avg_pool2d(5),
            Layer::flatten(),
            Layer::output_linear(&mut rng, 4 * 2 * 2, 3),
        ],
        cfg,
    )
    .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
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

fn plan_variants(net: &SpikingNetwork) -> Vec<(&'static str, SpikingNetwork)> {
    let mut auto = net.clone();
    auto.apply_plan(PlanOverride::Auto);
    let mut dense = net.clone();
    dense.apply_plan(PlanOverride::ForceDense);
    let mut sparse = net.clone();
    sparse.apply_plan(PlanOverride::ForceThreshold(1.0));
    vec![("auto", auto), ("dense", dense), ("sparse", sparse)]
}

fn grads_of(net: &SpikingNetwork) -> Vec<(Vec<f32>, Vec<f32>)> {
    net.layers()
        .iter()
        .filter_map(|l| l.params())
        .map(|(w, b)| (w.grad.as_slice().to_vec(), b.grad.as_slice().to_vec()))
        .collect()
}

/// Recorded one-row forward logits are bit-identical across plans at
/// every density (dense vs sparse is pure scheduling).
#[test]
fn recorded_forward_bit_identical_across_plans() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 6,
        leak: 0.9,
    };
    for &density in DENSITIES {
        for (name, net) in [("mlp", mlp_net(11, cfg)), ("conv", conv_net(12, cfg))] {
            let dims: &[usize] = if name == "mlp" { &[24] } else { &[1, 12, 12] };
            let frames = binary_frames(7, 6, dims, density);
            let mut reference: Option<Tensor> = None;
            for (plan, mut variant) in plan_variants(&net) {
                let mut rng = StdRng::seed_from_u64(0);
                let out = variant.forward(&frames, true, &mut rng).unwrap();
                match &reference {
                    None => reference = Some(out.logits),
                    Some(expected) => assert_eq!(
                        &out.logits, expected,
                        "{name} density {density} plan {plan}: recorded logits diverged"
                    ),
                }
            }
        }
    }
}

/// Fused recorded batch logits are bit-identical across plans for
/// batch sizes 1–32, and gradients from the batched backward are
/// value-identical layer by layer.
#[test]
fn batch_forward_and_backward_identical_across_plans() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 4,
        leak: 0.9,
    };
    for &density in DENSITIES {
        for &batch in BATCHES {
            let net = conv_net(21, cfg);
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

            let mut logits_ref: Option<Tensor> = None;
            let mut grads_ref: Option<Vec<(Vec<f32>, Vec<f32>)>> = None;
            for (plan, mut variant) in plan_variants(&net) {
                let (out, tape) = variant.forward_batch_recorded(&trains).unwrap();
                match &logits_ref {
                    None => logits_ref = Some(out.logits),
                    Some(expected) => assert_eq!(
                        &out.logits, expected,
                        "density {density} batch {batch} plan {plan}: batch logits diverged"
                    ),
                }
                variant.zero_grads();
                variant.backward_batch(&tape, &grad).unwrap();
                let grads = grads_of(&variant);
                match &grads_ref {
                    None => grads_ref = Some(grads),
                    Some(expected) => {
                        for (li, ((gw, gb), (ew, eb))) in grads.iter().zip(expected).enumerate() {
                            assert_eq!(
                                gw, ew,
                                "density {density} batch {batch} plan {plan}: \
                                 weight grads diverged at layer {li}"
                            );
                            assert_eq!(
                                gb, eb,
                                "density {density} batch {batch} plan {plan}: \
                                 bias grads diverged at layer {li}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The batched-conv kernel choice is pure scheduling: forcing
/// row-by-row vs event-sorted through the snapshot path produces
/// bit-identical fused logits (inference *and* recorded).
#[test]
fn conv_batch_kernel_choice_is_bit_identical() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 5,
        leak: 0.9,
    };
    let net = conv_net(31, cfg);
    assert_eq!(
        net.exec_plan().layers()[0].conv_batch,
        Some(ConvBatchKernel::EventSorted),
        "paper-scale conv stencils auto-select the event-sorted kernel"
    );
    let with_kernel = |kernel: ConvBatchKernel| -> SpikingNetwork {
        let mut snapshot = snapshot_network(&net).unwrap();
        for entry in &mut snapshot.plan {
            if entry.conv_batch.is_some() {
                entry.conv_batch = Some(kernel);
            }
        }
        restore_network(&snapshot).unwrap()
    };
    let mut sorted = with_kernel(ConvBatchKernel::EventSorted);
    let mut row_by_row = with_kernel(ConvBatchKernel::RowByRow);
    assert_eq!(
        row_by_row.exec_plan().layers()[0].conv_batch,
        Some(ConvBatchKernel::RowByRow)
    );
    for &density in DENSITIES {
        for &batch in BATCHES {
            let trains: Vec<FrameTrain> = (0..batch)
                .map(|b| {
                    FrameTrain::from_frames(&binary_frames(
                        500 + b as u64,
                        5,
                        &[1, 12, 12],
                        density,
                    ))
                    .unwrap()
                })
                .collect();
            let a = sorted.forward_batch(&trains).unwrap();
            let b = row_by_row.forward_batch(&trains).unwrap();
            assert_eq!(
                a.logits, b.logits,
                "density {density} batch {batch}: conv kernel choice changed results"
            );
            assert_eq!(a.spikes_per_layer, b.spikes_per_layer);
            let (ra, _) = sorted.forward_batch_recorded(&trains).unwrap();
            let (rb, _) = row_by_row.forward_batch_recorded(&trains).unwrap();
            assert_eq!(ra.logits, rb.logits);
        }
    }
}

/// The auto plan reproduces the legacy per-layer defaults: every
/// sparse-capable layer gates at [`DEFAULT_DENSITY_THRESHOLD`], and the
/// plan views agree with the per-layer accessors.
#[test]
fn auto_plan_matches_legacy_defaults() {
    let cfg = SnnConfig::default();
    let net = conv_net(41, cfg);
    for (layer, entry) in net.layers().iter().zip(net.exec_plan().layers()) {
        assert_eq!(layer.kind(), entry.kind);
        match entry.choice {
            Some(choice) => {
                assert_eq!(choice.threshold(), DEFAULT_DENSITY_THRESHOLD);
                assert_eq!(layer.sparse_threshold(), Some(choice.threshold()));
            }
            None => assert_eq!(layer.sparse_threshold(), None),
        }
    }
    let mut dense = net.clone();
    dense.apply_plan(PlanOverride::ForceDense);
    for entry in dense.exec_plan().layers() {
        assert!(matches!(entry.choice, None | Some(KernelChoice::Dense)));
    }
    assert_eq!(
        net.sparse_eligible(),
        net.exec_plan().eligibility(),
        "sparse_eligible is a view over the plan"
    );
}

/// Inference logits are bit-identical across plans: `Auto`,
/// `ForceDense` and `ForceThreshold(1.0)` at every density and batch
/// size, through the one-row forward and the fused batch forward, on
/// the MLP, the conv net and a stack with a 5×5 avg pool.
#[test]
fn inference_predictions_identical_across_plans() {
    let cfg = SnnConfig {
        threshold: 0.6,
        time_steps: 4,
        leak: 0.9,
    };
    let nets: [(&str, SpikingNetwork, &[usize]); 3] = [
        ("mlp", mlp_net(51, cfg), &[24]),
        ("conv", conv_net(52, cfg), &[1, 12, 12]),
        ("avg-pool", avg_pool_net(53, cfg), &[2, 10, 10]),
    ];
    for (name, net, dims) in &nets {
        let mut variants = plan_variants(net);
        for &density in DENSITIES {
            for &batch in BATCHES {
                let samples: Vec<Vec<Tensor>> = (0..batch)
                    .map(|b| binary_frames(900 + b as u64, cfg.time_steps, dims, density))
                    .collect();
                let trains: Vec<FrameTrain> = samples
                    .iter()
                    .map(|frames| FrameTrain::from_frames(frames).unwrap())
                    .collect();
                let mut reference: Option<(Vec<u32>, Vec<f32>)> = None;
                for (plan, variant) in &mut variants {
                    let what = format!("{name} density {density} batch {batch} plan {plan}");
                    let fused = variant.forward_batch(&trains).unwrap();
                    let mut per_sample = Vec::new();
                    for frames in &samples {
                        let mut rng = StdRng::seed_from_u64(0);
                        let out = variant.forward(frames, false, &mut rng).unwrap();
                        per_sample.extend(bits(&out.logits));
                    }
                    let logits = bits(&fused.logits);
                    assert_eq!(per_sample, logits, "{what}: per-sample vs fused logits");
                    match &reference {
                        None => reference = Some((logits, fused.spikes_per_layer)),
                        Some((expected, spikes)) => {
                            assert_eq!(&logits, expected, "{what}: inference logits diverged");
                            assert_eq!(&fused.spikes_per_layer, spikes, "{what}: spike counts");
                        }
                    }
                }
            }
        }
    }
}
