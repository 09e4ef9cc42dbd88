//! Gradient-equivalence property suite for the event-form BPTT tape.
//!
//! The sparse training path promises more than the 1e-5 envelope the
//! acceptance bar asks for: the exact-order sparse kernels accumulate
//! in the dense kernels' per-element order and the dense kernels'
//! contributions from inactive inputs are exact zeros, so sparse-tape
//! gradients must equal dense-tape gradients **value-for-value**
//! (`f32 ==`) at every density — including 100%, where the sparse path
//! is forced to engage by a threshold of 1.0. A minibatch backward
//! sums its rows' gradients in another order than a loop of one-row
//! passes, so batched-vs-one-row gradients are pinned at 1e-5 relative
//! while batched-sparse-vs-batched-dense stays exact.

use axsnn_core::fused::{BackwardOpts, FrameTrain};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DENSITIES: [f32; 6] = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0];

fn mlp_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 36, 24, &cfg),
            Layer::spiking_linear(&mut rng, 24, 16, &cfg),
            Layer::output_linear(&mut rng, 16, 5),
        ],
        cfg,
    )
    .unwrap()
}

/// Conv stack with a max pool (keeps frames binary for the layers
/// below) and an avg pool (de-binarizes, forcing the dense fallback on
/// everything downstream) — both tape forms exercised in one network.
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
            Layer::max_pool2d(2),
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
            Layer::avg_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 6 * 3 * 3, 12, &cfg),
            Layer::output_linear(&mut rng, 12, 5),
        ],
        cfg,
    )
    .unwrap()
}

fn cfg(time_steps: usize) -> SnnConfig {
    SnnConfig {
        threshold: 0.6,
        time_steps,
        leak: 0.9,
    }
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

/// Collects every parameter gradient (weight, bias) in stack order.
fn grads_of(net: &SpikingNetwork) -> Vec<(Vec<f32>, Vec<f32>)> {
    net.layers()
        .iter()
        .filter_map(Layer::params)
        .map(|(w, b)| (w.grad.as_slice().to_vec(), b.grad.as_slice().to_vec()))
        .collect()
}

fn logit_grad(classes: usize) -> Tensor {
    let data: Vec<f32> = (0..classes)
        .map(|i| ((i as f32) * 0.7 - 1.0) * if i % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    Tensor::from_vec(data, &[classes]).unwrap()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

/// One-row sparse tape vs one-row dense tape: **exact** logits,
/// parameter gradients and frame gradients at every density, on both
/// architectures. A threshold of 1.0 admits every binary frame, so at
/// density 1.0 the sparse kernels run with all events active — the
/// bit-for-bit-at-100%-density acceptance bar with the sparse path
/// genuinely engaged, not gated away.
#[test]
fn per_sample_sparse_tape_grads_equal_dense_tape_exactly() {
    for arch in ["mlp", "conv"] {
        for &density in &DENSITIES {
            let c = cfg(5);
            let (mut sparse_net, dims): (SpikingNetwork, Vec<usize>) = match arch {
                "mlp" => (mlp_net(11, c), vec![36]),
                _ => (conv_net(11, c), vec![1, 12, 12]),
            };
            let mut dense_net = sparse_net.clone();
            sparse_net.set_sparse_threshold(1.0);
            dense_net.set_sparse_threshold(0.0);

            let frames = binary_frames(7 + (density * 100.0) as u64, 5, &dims, density);
            let mut rng_a = StdRng::seed_from_u64(1);
            let mut rng_b = StdRng::seed_from_u64(1);
            let a = sparse_net.forward(&frames, true, &mut rng_a).unwrap();
            let b = dense_net.forward(&frames, true, &mut rng_b).unwrap();
            assert_eq!(
                a.logits.as_slice(),
                b.logits.as_slice(),
                "{arch} density {density}: recorded logits"
            );

            let g = logit_grad(5);
            sparse_net.zero_grads();
            dense_net.zero_grads();
            let fg_a = sparse_net.backward(&g, 5).unwrap();
            let fg_b = dense_net.backward(&g, 5).unwrap();
            for (t, (x, y)) in fg_a.iter().zip(&fg_b).enumerate() {
                assert_eq!(
                    x.as_slice(),
                    y.as_slice(),
                    "{arch} density {density}: frame grad at t={t}"
                );
            }
            for (li, ((ws, bs), (wd, bd))) in grads_of(&sparse_net)
                .iter()
                .zip(&grads_of(&dense_net))
                .enumerate()
            {
                assert_eq!(ws, wd, "{arch} density {density}: weight grad layer {li}");
                assert_eq!(bs, bd, "{arch} density {density}: bias grad layer {li}");
            }
        }
    }
}

/// The default 25% threshold: sparse frames ride the event tape, dense
/// frames explicitly fall back — observable through the fallback
/// counters — and gradients stay exactly equal either way.
#[test]
fn dense_fallback_path_exercised_explicitly() {
    let c = cfg(4);
    let mut auto_net = mlp_net(3, c); // default 25% threshold
    let mut dense_net = auto_net.clone();
    dense_net.set_sparse_threshold(0.0);

    // 50% density: denser than the gate allows → every recorded step of
    // the first layer must fall back and count it.
    let before = auto_net.total_dense_fallbacks();
    let frames = binary_frames(2, 4, &[36], 0.5);
    let mut rng = StdRng::seed_from_u64(0);
    auto_net.forward(&frames, true, &mut rng).unwrap();
    assert!(
        auto_net.total_dense_fallbacks() > before,
        "gate-rejected recorded steps must count as dense fallbacks"
    );

    let mut rng = StdRng::seed_from_u64(0);
    dense_net.forward(&frames, true, &mut rng).unwrap();
    let g = logit_grad(5);
    auto_net.zero_grads();
    dense_net.zero_grads();
    auto_net.backward(&g, 4).unwrap();
    dense_net.backward(&g, 4).unwrap();
    assert_eq!(grads_of(&auto_net), grads_of(&dense_net));

    // 5% density: admitted — no new first-layer fallbacks, same grads.
    let sparse_frames = binary_frames(9, 4, &[36], 0.05);
    let first_layer_before = auto_net.dense_fallback_counts()[0];
    let mut rng = StdRng::seed_from_u64(0);
    auto_net.forward(&sparse_frames, true, &mut rng).unwrap();
    assert_eq!(
        auto_net.dense_fallback_counts()[0],
        first_layer_before,
        "sparse frames must ride the event tape without falling back"
    );
    let mut rng = StdRng::seed_from_u64(0);
    dense_net.forward(&sparse_frames, true, &mut rng).unwrap();
    auto_net.zero_grads();
    dense_net.zero_grads();
    auto_net.backward(&g, 4).unwrap();
    dense_net.backward(&g, 4).unwrap();
    assert_eq!(grads_of(&auto_net), grads_of(&dense_net));
}

/// Batched recorded forward/backward vs a loop of one-row recorded passes:
/// logits bit-for-bit per row, minibatch gradients within 1e-5 relative
/// (the only difference is the f32 summation order across samples),
/// across batch sizes 1–32 and both architectures.
#[test]
fn batched_recorded_grads_match_per_sample_accumulation() {
    for arch in ["mlp", "conv"] {
        for &batch in &[1usize, 2, 5, 8, 32] {
            let c = cfg(4);
            let (net0, dims): (SpikingNetwork, Vec<usize>) = match arch {
                "mlp" => (mlp_net(21, c), vec![36]),
                _ => (conv_net(21, c), vec![1, 12, 12]),
            };
            let trains: Vec<FrameTrain> = (0..batch)
                .map(|s| {
                    FrameTrain::from_frames(&binary_frames(100 + s as u64, 4, &dims, 0.1)).unwrap()
                })
                .collect();
            let g = logit_grad(5);
            let scale = 1.0 / batch as f32;

            // Batched path.
            let mut batched = net0.clone();
            batched.zero_grads();
            let (out, tape) = batched.forward_batch_recorded(&trains).unwrap();
            let mut grad_block = Vec::with_capacity(batch * 5);
            for _ in 0..batch {
                grad_block.extend(g.scale(scale).as_slice());
            }
            let grad_block = Tensor::from_vec(grad_block, &[batch, 5]).unwrap();
            batched.backward_batch(&tape, &grad_block).unwrap();

            // Per-sample reference.
            let mut reference = net0.clone();
            reference.zero_grads();
            let mut rng = StdRng::seed_from_u64(0);
            for (r, train) in trains.iter().enumerate() {
                let frames = train.to_frames().unwrap();
                let per = reference.forward(&frames, true, &mut rng).unwrap();
                assert_eq!(
                    &out.logits.as_slice()[r * 5..(r + 1) * 5],
                    per.logits.as_slice(),
                    "{arch} B={batch}: recorded batch logits row {r}"
                );
                reference.backward(&g.scale(scale), 4).unwrap();
            }
            for (li, ((wb, bb), (wr, br))) in grads_of(&batched)
                .iter()
                .zip(&grads_of(&reference))
                .enumerate()
            {
                assert_close(
                    wb,
                    wr,
                    1e-5,
                    &format!("{arch} B={batch} weight grad layer {li}"),
                );
                assert_close(
                    bb,
                    br,
                    1e-5,
                    &format!("{arch} B={batch} bias grad layer {li}"),
                );
            }
        }
    }
}

/// Batched sparse tape vs batched dense tape run the identical
/// accumulation schedule, so their gradients must be exactly equal at
/// every density — including 100%, where a 1.0 threshold keeps the
/// event kernels engaged.
#[test]
fn batched_sparse_tape_equals_batched_dense_tape_exactly() {
    for arch in ["mlp", "conv"] {
        for &density in &DENSITIES {
            let c = cfg(3);
            let (net0, dims): (SpikingNetwork, Vec<usize>) = match arch {
                "mlp" => (mlp_net(31, c), vec![36]),
                _ => (conv_net(31, c), vec![1, 12, 12]),
            };
            let trains: Vec<FrameTrain> = (0..6u64)
                .map(|s| {
                    FrameTrain::from_frames(&binary_frames(
                        200 + s + (density * 1000.0) as u64,
                        3,
                        &dims,
                        density,
                    ))
                    .unwrap()
                })
                .collect();
            let g = logit_grad(5);
            let mut grad_block = Vec::new();
            for _ in 0..6 {
                grad_block.extend(g.as_slice());
            }
            let grad_block = Tensor::from_vec(grad_block, &[6, 5]).unwrap();

            let mut sparse_net = net0.clone();
            sparse_net.set_sparse_threshold(1.0);
            sparse_net.zero_grads();
            let (out_s, tape_s) = sparse_net.forward_batch_recorded(&trains).unwrap();
            sparse_net.backward_batch(&tape_s, &grad_block).unwrap();

            let mut dense_net = net0.clone();
            dense_net.set_sparse_threshold(0.0);
            dense_net.zero_grads();
            let (out_d, tape_d) = dense_net.forward_batch_recorded(&trains).unwrap();
            dense_net.backward_batch(&tape_d, &grad_block).unwrap();

            assert_eq!(
                out_s.logits, out_d.logits,
                "{arch} density {density}: batched recorded logits"
            );
            assert_eq!(
                grads_of(&sparse_net),
                grads_of(&dense_net),
                "{arch} density {density}: batched grads"
            );
            if density > 0.0 {
                assert!(
                    tape_s.event_row_fraction() > 0.0,
                    "{arch} density {density}: sparse tape must hold event rows"
                );
            }
            assert_eq!(
                tape_d.event_row_fraction(),
                0.0,
                "{arch} density {density}: dense tape must hold no event rows"
            );
        }
    }
}

/// The parallel backward's core contract: the minibatch partitions into
/// row-shards whose boundaries depend only on the batch size, each
/// shard's reverse-time sweep is row-independent, and shards reduce in
/// a fixed order — so gradients are **bit-identical** for every thread
/// count. Exercised across both architectures, batch sizes spanning
/// single-row and multi-row shards, and both tape forms.
#[test]
fn parallel_backward_bit_identical_across_thread_counts() {
    for arch in ["mlp", "conv"] {
        for &batch in &[3usize, 8, 19] {
            let c = cfg(3);
            let (mut net, dims): (SpikingNetwork, Vec<usize>) = match arch {
                "mlp" => (mlp_net(51, c), vec![36]),
                _ => (conv_net(51, c), vec![1, 12, 12]),
            };
            let trains: Vec<FrameTrain> = (0..batch as u64)
                .map(|s| FrameTrain::from_frames(&binary_frames(300 + s, 3, &dims, 0.15)).unwrap())
                .collect();
            let (_, tape) = net.forward_batch_recorded(&trains).unwrap();
            let g = logit_grad(5);
            let mut grad_block = Vec::with_capacity(batch * 5);
            for _ in 0..batch {
                grad_block.extend(g.as_slice());
            }
            let grad_block = Tensor::from_vec(grad_block, &[batch, 5]).unwrap();

            let grads_at = |threads: usize| {
                let mut run = net.clone();
                run.zero_grads();
                run.backward_batch_with(&tape, &grad_block, &BackwardOpts { threads })
                    .unwrap();
                grads_of(&run)
            };
            let reference = grads_at(1);
            for &threads in &[2usize, 4, 8] {
                assert_eq!(
                    grads_at(threads),
                    reference,
                    "{arch} B={batch}: {threads}-thread gradients must equal 1-thread bitwise"
                );
            }
        }
    }
}

/// Explicit options are the default path: the input-gradient kernel
/// skips only exact zeros at every thread count, so the gradients equal
/// the default [`SpikingNetwork::backward_batch`] value-for-value.
#[test]
fn backward_batch_with_equals_default_path_exactly() {
    for arch in ["mlp", "conv"] {
        let c = cfg(4);
        let (mut net, dims): (SpikingNetwork, Vec<usize>) = match arch {
            "mlp" => (mlp_net(61, c), vec![36]),
            _ => (conv_net(61, c), vec![1, 12, 12]),
        };
        let trains: Vec<FrameTrain> = (0..6u64)
            .map(|s| FrameTrain::from_frames(&binary_frames(400 + s, 4, &dims, 0.2)).unwrap())
            .collect();
        let (_, tape) = net.forward_batch_recorded(&trains).unwrap();
        let g = logit_grad(5);
        let mut grad_block = Vec::new();
        for _ in 0..6 {
            grad_block.extend(g.as_slice());
        }
        let grad_block = Tensor::from_vec(grad_block, &[6, 5]).unwrap();

        let mut default_net = net.clone();
        default_net.zero_grads();
        default_net.backward_batch(&tape, &grad_block).unwrap();

        let mut explicit_net = net.clone();
        explicit_net.zero_grads();
        explicit_net
            .backward_batch_with(&tape, &grad_block, &BackwardOpts { threads: 4 })
            .unwrap();
        assert_eq!(
            grads_of(&explicit_net),
            grads_of(&default_net),
            "{arch}: explicit options must be the default path"
        );
    }
}

/// Shape and stack validation of the batched backward entry point.
#[test]
fn backward_batch_validates_inputs() {
    let c = cfg(3);
    let mut net = mlp_net(41, c);
    let trains: Vec<FrameTrain> = (0..2u64)
        .map(|s| FrameTrain::from_frames(&binary_frames(s, 3, &[36], 0.1)).unwrap())
        .collect();
    let (_, tape) = net.forward_batch_recorded(&trains).unwrap();

    // Wrong gradient shape.
    assert!(net.backward_batch(&tape, &Tensor::zeros(&[2, 4])).is_err());
    assert!(net.backward_batch(&tape, &Tensor::zeros(&[3, 5])).is_err());
    assert!(net.backward_batch(&tape, &Tensor::zeros(&[2, 5])).is_ok());

    // Tape recorded on a different layer stack.
    let mut other = conv_net(41, c);
    assert!(other
        .backward_batch(&tape, &Tensor::zeros(&[2, 5]))
        .is_err());

    // Stacks of equal depth that differ only below the first
    // parameterized layer: the sweep never runs the pool's backward,
    // but each net must still reject the other's tape.
    let pooled = |pool: Layer| {
        let mut rng = StdRng::seed_from_u64(42);
        SpikingNetwork::new(
            vec![
                pool,
                Layer::flatten(),
                Layer::spiking_linear(&mut rng, 16, 8, &c),
                Layer::output_linear(&mut rng, 8, 5),
            ],
            c,
        )
        .unwrap()
    };
    let mut max_net = pooled(Layer::max_pool2d(2));
    let mut avg_net = pooled(Layer::avg_pool2d(2));
    let trains: Vec<FrameTrain> = (0..2u64)
        .map(|s| FrameTrain::from_frames(&binary_frames(s, 3, &[1, 8, 8], 0.2)).unwrap())
        .collect();
    let (_, max_tape) = max_net.forward_batch_recorded(&trains).unwrap();
    let (_, avg_tape) = avg_net.forward_batch_recorded(&trains).unwrap();
    let g = Tensor::zeros(&[2, 5]);
    assert!(max_net.backward_batch(&max_tape, &g).is_ok());
    assert!(avg_net.backward_batch(&avg_tape, &g).is_ok());
    assert!(
        avg_net.backward_batch(&max_tape, &g).is_err(),
        "a max-pool tape must not run on an avg-pool stack"
    );
    assert!(
        max_net.backward_batch(&avg_tape, &g).is_err(),
        "an avg-pool tape must not run on a max-pool stack"
    );
}

/// `Flatten → SpikingLinear → SpikingLinear → OutputLinear` — the
/// `train_bptt` shape, with layer widths that leave partial column
/// tiles (72 = 2·32 + 8, 40 = 32 + 8, 24 < 32) in every weight
/// gradient and `Wᵀ·g` block.
fn flat_mlp_net(seed: u64, cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 72, 40, &cfg),
            Layer::spiking_linear(&mut rng, 40, 24, &cfg),
            Layer::output_linear(&mut rng, 24, 5),
        ],
        cfg,
    )
    .unwrap()
}

/// Analog frames of shape `dims` that change every step: signed
/// values with exact zeros mixed in, so every first-layer tape row is
/// dense.
fn analog_frames(seed: u64, steps: usize, dims: &[usize]) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = dims.iter().product();
    (0..steps)
        .map(|_| {
            let data: Vec<f32> = (0..len)
                .map(|_| {
                    let u = rng.gen::<f32>();
                    if u < 0.1 {
                        0.0
                    } else {
                        u * 1.5 - 0.4
                    }
                })
                .collect();
            Tensor::from_vec(data, dims).unwrap()
        })
        .collect()
}

/// FNV-1a over the bits of every weight and bias gradient, in stack
/// order.
fn grad_digest(net: &SpikingNetwork) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (w, b) in grads_of(net) {
        for x in w.iter().chain(&b) {
            for byte in x.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    digest
}

/// The batched backward's gradients, frozen bit for bit: any change to
/// the sweep or its kernels that moves one bit of one weight or bias
/// gradient fails here, at every batch size and thread count. Three
/// tapes: (a) the `train_bptt` shape on analog frames (every
/// first-layer row dense), (b) the same net on binary frames whose
/// per-row density alternates around the 0.25 gate (one shard holds
/// event and dense rows across steps), (c) `conv_net`. The logit
/// gradient holds exact zeros so the event scatter's `g == 0` skip
/// runs.
#[test]
fn batched_backward_reproduces_frozen_gradients() {
    const T: usize = 4;
    let mut moved = Vec::new();
    for (case, expected) in FROZEN_GRAD_DIGESTS {
        let (arch, batch) = case;
        let c = cfg(T);
        let (net, trains): (SpikingNetwork, Vec<FrameTrain>) = match arch {
            "analog" => (
                flat_mlp_net(91, c),
                (0..batch as u64)
                    .map(|s| {
                        FrameTrain::from_frames(&analog_frames(600 + s, T, &[2, 6, 6])).unwrap()
                    })
                    .collect(),
            ),
            "mixed" => (
                flat_mlp_net(92, c),
                (0..batch as u64)
                    .map(|s| {
                        let frames: Vec<Tensor> = (0..T as u64)
                            .map(|t| {
                                let density = if (s + t) % 2 == 0 { 0.1 } else { 0.45 };
                                binary_frames(700 + 31 * s + t, 1, &[2, 6, 6], density)
                                    .pop()
                                    .unwrap()
                            })
                            .collect();
                        FrameTrain::from_frames(&frames).unwrap()
                    })
                    .collect(),
            ),
            _ => (
                conv_net(93, c),
                (0..batch as u64)
                    .map(|s| {
                        FrameTrain::from_frames(&binary_frames(800 + s, T, &[1, 12, 12], 0.15))
                            .unwrap()
                    })
                    .collect(),
            ),
        };
        let grad_block: Vec<f32> = (0..batch * 5)
            .map(|i| {
                let (r, k) = (i / 5, i % 5);
                if (r + k) % 4 == 0 {
                    0.0
                } else {
                    ((k as f32) * 0.7 - 1.0) * (1.0 + (r % 3) as f32 * 0.25)
                }
            })
            .collect();
        let grad_block = Tensor::from_vec(grad_block, &[batch, 5]).unwrap();
        let mut recorder = net.clone();
        let (_, tape) = recorder.forward_batch_recorded(&trains).unwrap();
        if arch == "mixed" {
            let frac = tape.event_row_fraction();
            assert!(
                frac > 0.0 && frac < 1.0,
                "mixed tape must hold event and dense rows, got {frac}"
            );
        }
        for threads in [1usize, 2] {
            let mut run = net.clone();
            run.zero_grads();
            run.backward_batch_with(&tape, &grad_block, &BackwardOpts { threads })
                .unwrap();
            let digest = grad_digest(&run);
            if digest != expected {
                moved.push(format!(
                    "{arch} B={batch} threads={threads}: {digest:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "gradients moved: {moved:#?}");
}

/// Digests of [`batched_backward_reproduces_frozen_gradients`], taken
/// from the row-by-row backward this suite pins.
const FROZEN_GRAD_DIGESTS: [((&str, usize), u64); 9] = [
    (("analog", 3), 0x40da_3245_3d48_c722),
    (("analog", 16), 0x8909_cfe7_6115_489c),
    (("analog", 19), 0x9e58_ef90_dbc8_bc50),
    (("mixed", 3), 0x1a89_2e22_c386_0d6e),
    (("mixed", 16), 0x5b80_637a_b8a1_2124),
    (("mixed", 19), 0xae84_e038_d167_89eb),
    (("conv", 3), 0xd5a2_9978_022a_7d10),
    (("conv", 16), 0x8d0a_8e07_3ac5_9c08),
    (("conv", 19), 0xfcc7_9eef_d51a_54ca),
];
