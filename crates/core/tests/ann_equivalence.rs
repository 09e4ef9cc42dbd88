//! The batched ANN pass against the per-sample reference.
//!
//! Attacks (`AnnNetwork::input_gradient`) and training
//! (`AnnNetwork::forward_backward_batch_with`) share one taped batched
//! forward and one backward walk that computes only the gradients its
//! caller reads: the input gradient for attacks, the parameter
//! gradients (stopping at the first weighted layer) for training. This
//! suite pins both walks to `AnnNetwork::forward_backward`, the
//! per-sample reference:
//!
//! * `input_gradient` equals the reference's `input_grad` bit for bit,
//!   shape included;
//! * the batched logits, losses and predictions equal the reference's
//!   bit for bit, and the summed parameter gradients equal the
//!   reference accumulated in row order (`==`);
//! * `train_ann` weights and per-epoch losses after two epochs match
//!   frozen digests.
//!
//! The cases cover Flatten-MLPs (one with saturated logits, whose
//! gradients span many decades), a linear layer fed a rank-1 input, a
//! conv → max-pool → conv → avg-pool → flatten → linear stack and an
//! inference-dropout net, at batch sizes 1–17 and 1/2 threads. Inputs
//! hold `+0.0` and `-0.0` pixels, and one MLP has a dead ReLU layer, so
//! the zero-coefficient skips of the walk run.

use axsnn_core::ann::{AnnLayer, AnnLayerGrads, AnnNetwork};
use axsnn_core::fused::BackwardOpts;
use axsnn_core::train::{train_ann, TrainConfig};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 5;

fn spec(in_channels: usize, out_channels: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// Flatten → 32 → 24 → 16 → 5 on `[2, 4, 4]` inputs.
fn flat_mlp(seed: u64) -> (AnnNetwork, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = AnnNetwork::new(vec![
        AnnLayer::Flatten,
        AnnLayer::linear_relu(&mut rng, 32, 24),
        AnnLayer::linear_relu(&mut rng, 24, 16),
        AnnLayer::linear_out(&mut rng, 16, CLASSES),
    ])
    .unwrap();
    (net, vec![2, 4, 4])
}

/// `flat_mlp` with its logits scaled 40×: the softmax saturates, so the
/// logit gradient spans many decades, down to coefficients far below
/// any threshold a skip could hide behind.
fn confident_mlp(seed: u64) -> (AnnNetwork, Vec<usize>) {
    let (mut net, dims) = flat_mlp(seed);
    if let Some(AnnLayer::LinearOut { weight, .. }) = net.layers_mut().last_mut() {
        *weight = weight.scale(40.0);
    }
    (net, dims)
}

/// A linear first layer on rank-1 `[20]` inputs, then a ReLU layer
/// whose bias keeps every unit dead: the gradient below it is all zero.
fn dead_relu_mlp(seed: u64) -> (AnnNetwork, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = AnnNetwork::new(vec![
        AnnLayer::linear_relu(&mut rng, 20, 12),
        AnnLayer::linear_relu(&mut rng, 12, 10),
        AnnLayer::linear_out(&mut rng, 10, CLASSES),
    ])
    .unwrap();
    if let AnnLayer::LinearRelu { bias, .. } = &mut net.layers_mut()[1] {
        *bias = Tensor::full(&[10], -100.0);
    }
    (net, vec![20])
}

/// conv → max-pool → conv → avg-pool → flatten → linear on `[1, 8, 8]`.
fn conv_stack(seed: u64) -> (AnnNetwork, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = AnnNetwork::new(vec![
        AnnLayer::conv_relu(&mut rng, spec(1, 3)),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::conv_relu(&mut rng, spec(3, 4)),
        AnnLayer::AvgPool { window: 2 },
        AnnLayer::Flatten,
        AnnLayer::linear_out(&mut rng, 4 * 2 * 2, CLASSES),
    ])
    .unwrap();
    (net, vec![1, 8, 8])
}

/// The DVS paper stack's shape in small: dropout between the pools and
/// the classifier, run in inference mode.
fn dropout_net(seed: u64) -> (AnnNetwork, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = AnnNetwork::new(vec![
        AnnLayer::conv_relu(&mut rng, spec(2, 3)),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::Dropout { probability: 0.3 },
        AnnLayer::Flatten,
        AnnLayer::linear_relu(&mut rng, 3 * 4 * 4, 12),
        AnnLayer::Dropout { probability: 0.2 },
        AnnLayer::linear_out(&mut rng, 12, CLASSES),
    ])
    .unwrap();
    (net, vec![2, 8, 8])
}

/// `(name, builder, has dropout)` for every case.
type Case = (&'static str, fn(u64) -> (AnnNetwork, Vec<usize>), bool);

const CASES: [Case; 5] = [
    ("flat_mlp", flat_mlp, false),
    ("confident_mlp", confident_mlp, false),
    ("dead_relu_mlp", dead_relu_mlp, false),
    ("conv_stack", conv_stack, false),
    ("dropout_net", dropout_net, true),
];

/// Pixels in `[0, 1)`, with about one in six an exact `+0.0` and one in
/// six an exact `-0.0`.
fn image(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    let data = (0..len)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen::<f32>(),
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The reference: per-sample `forward_backward`, parameter gradients
/// summed in row order.
fn reference(
    net: &AnnNetwork,
    inputs: &[Tensor],
    labels: &[usize],
) -> (Vec<Tensor>, Vec<f32>, Vec<AnnLayerGrads>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut logits = Vec::new();
    let mut losses = Vec::new();
    let mut acc: Option<Vec<AnnLayerGrads>> = None;
    for (x, &label) in inputs.iter().zip(labels) {
        let (l, loss, back) = net.forward_backward(x, label, false, &mut rng).unwrap();
        logits.push(l);
        losses.push(loss);
        acc = Some(match acc {
            None => back.layer_grads,
            Some(mut sum) => {
                for (a, g) in sum.iter_mut().zip(&back.layer_grads) {
                    if let (Some(aw), Some(gw)) = (&mut a.weight, &g.weight) {
                        *aw = aw.add(gw).unwrap();
                    }
                    if let (Some(ab), Some(gb)) = (&mut a.bias, &g.bias) {
                        *ab = ab.add(gb).unwrap();
                    }
                }
                sum
            }
        });
    }
    (logits, losses, acc.unwrap())
}

/// `input_gradient` is the reference's input gradient bit for bit, with
/// the same shape, for every case and every input.
#[test]
fn input_gradient_equals_per_sample_reference_bitwise() {
    for (name, build, _) in CASES {
        for seed in 0..3u64 {
            let (net, dims) = build(100 + seed);
            let mut rng = StdRng::seed_from_u64(200 + seed);
            for i in 0..12 {
                let x = image(&mut rng, &dims);
                let label = i % CLASSES;
                let got = net.input_gradient(&x, label).unwrap();
                let mut ref_rng = StdRng::seed_from_u64(0);
                let (_, _, back) = net
                    .forward_backward(&x, label, false, &mut ref_rng)
                    .unwrap();
                let want = back.input_grad;
                assert_eq!(
                    got.shape().dims(),
                    want.shape().dims(),
                    "{name} seed {seed} input {i}: shape"
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name} seed {seed} input {i}: input gradient bits"
                );
            }
        }
    }
}

/// The dead ReLU layer passes an all-zero gradient down, and the walk's
/// zero skips keep it `+0.0` exactly as the reference's dense products
/// do.
#[test]
fn dead_relu_layer_gives_zero_input_gradient() {
    let (net, dims) = dead_relu_mlp(7);
    let mut rng = StdRng::seed_from_u64(8);
    let x = image(&mut rng, &dims);
    let g = net.input_gradient(&x, 2).unwrap();
    assert!(g.as_slice().iter().all(|v| v.to_bits() == 0), "{g:?}");
}

/// The batched trainer's logits, losses and predictions equal the
/// reference's bit for bit, and its summed parameter gradients equal
/// the reference summed in row order, at every batch size 1–17 and 1/2
/// threads. Dropout nets run in inference mode (train-mode masks come
/// from a different stream by design).
#[test]
fn batched_trainer_equals_per_sample_reference() {
    for (name, build, has_dropout) in CASES {
        let (net, dims) = build(300);
        let mut rng = StdRng::seed_from_u64(301);
        let inputs: Vec<Tensor> = (0..17).map(|_| image(&mut rng, &dims)).collect();
        let labels: Vec<usize> = (0..17).map(|i| (i * 3) % CLASSES).collect();
        for b in 1..=17 {
            let (ref_logits, ref_losses, ref_grads) = reference(&net, &inputs[..b], &labels[..b]);
            let want_pred: Vec<usize> = ref_logits.iter().map(|l| l.argmax().unwrap()).collect();
            for threads in [1usize, 2] {
                let ctx = format!("{name} B={b} threads={threads}");
                let mut train_rng = StdRng::seed_from_u64(9);
                let out = net
                    .forward_backward_batch_with(
                        &inputs[..b],
                        &labels[..b],
                        !has_dropout,
                        &mut train_rng,
                        &BackwardOpts {
                            threads,
                            input_grad_eps: 0.0,
                        },
                    )
                    .unwrap();
                assert_eq!(out.logits.shape().dims(), &[b, CLASSES], "{ctx}");
                let want_logits: Vec<u32> = ref_logits.iter().flat_map(bits).collect();
                assert_eq!(bits(&out.logits), want_logits, "{ctx}: logits");
                let loss_bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    loss_bits(&out.losses),
                    loss_bits(&ref_losses),
                    "{ctx}: losses"
                );
                assert_eq!(out.predictions, want_pred, "{ctx}: predictions");
                assert_eq!(out.layer_grads.len(), net.layers().len(), "{ctx}");
                for (li, (got, want)) in out.layer_grads.iter().zip(&ref_grads).enumerate() {
                    assert_eq!(got.weight, want.weight, "{ctx}: layer {li} weight gradient");
                    assert_eq!(got.bias, want.bias, "{ctx}: layer {li} bias gradient");
                }
            }
        }
    }
}

/// FNV-1a over the bits of every weight and bias, then every epoch's
/// mean loss and accuracy.
fn train_digest(net: &AnnNetwork, report: &axsnn_core::train::TrainReport) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f32| {
        for byte in x.to_bits().to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for layer in net.layers() {
        if let AnnLayer::ConvRelu { weight, bias, .. }
        | AnnLayer::LinearRelu { weight, bias }
        | AnnLayer::LinearOut { weight, bias } = layer
        {
            weight
                .as_slice()
                .iter()
                .chain(bias.as_slice())
                .for_each(|&x| eat(x));
        }
    }
    for epoch in &report.epochs {
        eat(epoch.mean_loss);
        eat(epoch.accuracy);
    }
    digest
}

/// Two epochs of `train_ann` on a linear-first MLP and on the conv
/// stack, frozen bit for bit: the trained weights and per-epoch losses
/// of the early-stopping walk are those of the full walk.
#[test]
fn train_ann_reproduces_frozen_digests() {
    let mut moved = Vec::new();
    for (name, expected) in FROZEN_TRAIN_DIGESTS {
        let (mut net, dims) = match name {
            "flat_mlp" => flat_mlp(400),
            _ => conv_stack(401),
        };
        let mut rng = StdRng::seed_from_u64(402);
        let data: Vec<(Tensor, usize)> = (0..40)
            .map(|i| (image(&mut rng, &dims), i % CLASSES))
            .collect();
        let cfg = TrainConfig {
            epochs: 2,
            learning_rate: 0.1,
            momentum: 0.0,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let mut train_rng = StdRng::seed_from_u64(403);
        let report = train_ann(&mut net, &data, &cfg, &mut train_rng).unwrap();
        let digest = train_digest(&net, &report);
        if digest != expected {
            moved.push(format!("{name}: {digest:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "trained weights or losses moved: {moved:#?}"
    );
}

/// Digests of [`train_ann_reproduces_frozen_digests`], taken from the
/// full backward walk that ran every layer.
const FROZEN_TRAIN_DIGESTS: [(&str, u64); 2] = [
    ("flat_mlp", 0xace7_5096_8925_a44c),
    ("conv_stack", 0xfc0a_70c0_d108_ef06),
];
