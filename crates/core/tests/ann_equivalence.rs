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
//!   frozen digests;
//! * the inference entry points (`forward`, `classify`,
//!   `activation_maxima`, `ann_to_snn`, `evaluate_ann`) match frozen
//!   digests, and `forward` is the reference's logits bit for bit.
//!
//! The cases cover Flatten-MLPs (one with saturated logits, whose
//! gradients span many decades), a linear layer fed a rank-1 input, a
//! conv → max-pool → conv → avg-pool → flatten → linear stack and an
//! inference-dropout net, at batch sizes 1–17 and 1/2 threads. Inputs
//! hold `+0.0` and `-0.0` pixels, and one MLP has a dead ReLU layer, so
//! the zero-coefficient skips of the walk run.

use axsnn_core::ann::{AnnLayer, AnnLayerGrads, AnnNetwork};
use axsnn_core::convert::ann_to_snn;
use axsnn_core::fused::BackwardOpts;
use axsnn_core::network::SnnConfig;
use axsnn_core::train::{evaluate_ann, train_ann, TrainConfig};
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
                        &BackwardOpts { threads },
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

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.shape().dims() {
            self.word(d as u64);
        }
        self.f32s(t.as_slice());
    }
}

/// The inference entry points on calibration sets of 1, 7 and 33
/// samples (33 spans more than one 32-row chunk), pixels holding `±0.0`:
/// every `activation_maxima` λ, every converted weight and bias, then
/// per sample the `forward` logits and the `classify` label, then the
/// `evaluate_ann` accuracy, frozen bit for bit. `forward` also equals
/// the reference's logits bit for bit, shape included.
#[test]
fn inference_entry_points_reproduce_frozen_digests() {
    let cfg = SnnConfig {
        threshold: 0.75,
        time_steps: 8,
        leak: 0.9,
    };
    let mut moved = Vec::new();
    // The flat, saturated, conv-stack and dropout nets.
    for (name, build, _) in CASES
        .into_iter()
        .filter(|&(name, ..)| name != "dead_relu_mlp")
    {
        for n in [1usize, 7, 33] {
            let (net, dims) = build(500 + n as u64);
            let mut rng = StdRng::seed_from_u64(600 + n as u64);
            let calibration: Vec<Tensor> = (0..n).map(|_| image(&mut rng, &dims)).collect();
            let mut digest = Digest::new();
            digest.f32s(&net.activation_maxima(&calibration).unwrap());
            let snn = ann_to_snn(&net, cfg, &calibration).unwrap();
            for layer in snn.layers() {
                if let Some((w, b)) = layer.params() {
                    digest.tensor(&w.value);
                    digest.tensor(&b.value);
                }
            }
            for (i, x) in calibration.iter().enumerate() {
                let logits = net.forward(x).unwrap();
                let mut ref_rng = StdRng::seed_from_u64(0);
                let (want, _, _) = net
                    .forward_backward(x, i % CLASSES, false, &mut ref_rng)
                    .unwrap();
                assert_eq!(
                    logits.shape().dims(),
                    want.shape().dims(),
                    "{name} n={n} sample {i}: logit shape"
                );
                assert_eq!(
                    bits(&logits),
                    bits(&want),
                    "{name} n={n} sample {i}: forward against the reference"
                );
                digest.tensor(&logits);
                digest.word(net.classify(x).unwrap() as u64);
            }
            let data: Vec<(Tensor, usize)> = calibration
                .into_iter()
                .enumerate()
                .map(|(i, x)| (x, (i * 2) % CLASSES))
                .collect();
            digest.f32s(&[evaluate_ann(&net, &data).unwrap()]);
            let expected = FROZEN_INFERENCE_DIGESTS
                .iter()
                .find(|((case, size), _)| *case == name && *size == n)
                .map(|(_, d)| *d);
            if expected != Some(digest.0) {
                moved.push(format!("{name} n={n}: {:#018x}", digest.0));
            }
        }
    }
    assert!(moved.is_empty(), "inference outputs moved: {moved:#?}");
}

/// Digests of [`inference_entry_points_reproduce_frozen_digests`],
/// taken from the per-sample inference walks.
const FROZEN_INFERENCE_DIGESTS: [((&str, usize), u64); 12] = [
    (("flat_mlp", 1), 0x56a5_8eab_c639_6f46),
    (("flat_mlp", 7), 0x0373_0d86_f75d_f663),
    (("flat_mlp", 33), 0x6d32_5b60_81fc_5c42),
    (("confident_mlp", 1), 0xfb6b_c8ce_47da_d148),
    (("confident_mlp", 7), 0x047d_5e0c_623d_49bc),
    (("confident_mlp", 33), 0xe597_594c_ad38_2ffe),
    (("conv_stack", 1), 0x8fe3_6651_7129_312c),
    (("conv_stack", 7), 0x3f34_f2d6_e4f6_36d2),
    (("conv_stack", 33), 0x7569_df7b_bf2e_b0e0),
    (("dropout_net", 1), 0x0e00_3ea8_7ca8_eb4e),
    (("dropout_net", 7), 0x09bc_65a5_e8aa_d3d7),
    (("dropout_net", 33), 0x7994_567a_37b5_bd33),
];
