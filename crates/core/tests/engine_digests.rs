//! The SNN engine's outputs, frozen bit for bit.
//!
//! Every digest below is an FNV-1a hash over `to_bits` of what one
//! public entry point returns: `forward` (logits, every `SpikeStats`
//! field and the dense-fallback counters' advance, recorded and not),
//! `backward` (every frame gradient with its shape, then every
//! parameter gradient), the frame stepper's anytime logits after every
//! step, train-mode dropout's seeded forward and backward, and
//! `train_snn` on a dropout net at one sample per minibatch. The
//! networks cover a Flatten-MLP on direct-current and binary frames, a
//! linear-first MLP on flat frames, a conv → max-pool → conv → avg-pool
//! stack, a max-pool-first stack, an
//! inference-dropout net and the MLP under int8 and f16 planes, each
//! under the `Auto` and `ForceDense` plans.
//!
//! The digests were taken from the per-sample simulator the engine
//! once had beside the fused one, so any change in scheduling, gate
//! decisions, summation order or random draws shows up here.

use axsnn_core::encoding::Encoder;
use axsnn_core::layer::Layer;
use axsnn_core::network::{ForwardOutput, SnnConfig, SpikingNetwork};
use axsnn_core::plan::{PlanOverride, WeightPlane};
use axsnn_core::train::{train_snn, TrainConfig};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const T: usize = 6;
const CLASSES: usize = 5;
const IMAGE: [usize; 3] = [1, 8, 8];

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

    fn output(&mut self, out: &ForwardOutput) {
        self.tensor(&out.logits);
        self.f32s(&out.stats.spikes_per_layer);
        self.word(out.stats.synaptic_ops.to_bits());
        self.word(out.stats.time_steps as u64);
    }

    fn param_grads(&mut self, net: &SpikingNetwork) {
        for layer in net.layers() {
            if let Some((w, b)) = layer.params() {
                self.tensor(&w.grad);
                self.tensor(&b.grad);
            }
        }
    }
}

fn cfg() -> SnnConfig {
    SnnConfig {
        threshold: 0.45,
        time_steps: T,
        leak: 0.9,
    }
}

fn conv_spec(in_channels: usize, out_channels: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// Flatten → 64 → 24 → 16 → readout, with a dropout layer after each
/// hidden layer when `dropout` is set.
fn mlp(seed: u64, dropout: Option<(f32, f32)>) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = cfg();
    let mut layers = vec![
        Layer::flatten(),
        Layer::spiking_linear(&mut rng, 64, 24, &c),
    ];
    if let Some((p, _)) = dropout {
        layers.push(Layer::dropout(p));
    }
    layers.push(Layer::spiking_linear(&mut rng, 24, 16, &c));
    if let Some((_, p)) = dropout {
        layers.push(Layer::dropout(p));
    }
    layers.push(Layer::output_linear(&mut rng, 16, CLASSES));
    SpikingNetwork::new(layers, c).unwrap()
}

/// 64 → 24 → readout with no flatten: the first layer is linear, so
/// `backward` forms its input gradient with the transposed gather.
fn linear_first(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = cfg();
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 64, 24, &c),
            Layer::output_linear(&mut rng, 24, CLASSES),
        ],
        c,
    )
    .unwrap()
}

/// conv → max-pool → conv → avg-pool → flatten → linear → readout, at
/// a lower threshold so that the avg-pooled currents reach the readout.
fn conv_stack(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = SnnConfig {
        threshold: 0.2,
        ..cfg()
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(&mut rng, conv_spec(1, 4), &c),
            Layer::max_pool2d(2),
            Layer::spiking_conv2d(&mut rng, conv_spec(4, 4), &c),
            Layer::avg_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 16, 12, &c),
            Layer::output_linear(&mut rng, 12, CLASSES),
        ],
        c,
    )
    .unwrap()
}

/// max-pool → conv → flatten → readout: the pool reads the input plane.
fn max_pool_first(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = cfg();
    SpikingNetwork::new(
        vec![
            Layer::max_pool2d(2),
            Layer::spiking_conv2d(&mut rng, conv_spec(1, 3), &c),
            Layer::flatten(),
            Layer::output_linear(&mut rng, 3 * 4 * 4, CLASSES),
        ],
        c,
    )
    .unwrap()
}

/// `T` binary `[1, 8, 8]` frames at roughly `density`.
fn binary_frames(density: f32, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..T)
        .map(|_| {
            let data = (0..64)
                .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                .collect();
            Tensor::from_vec(data, &IMAGE).unwrap()
        })
        .collect()
}

/// A `[1, 8, 8]` image in `[0, 1)` with about one pixel in five exactly
/// zero, repeated on every step (direct-current encoding).
fn direct_frames(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..64)
        .map(|_| {
            if rng.gen_range(0..5u32) == 0 {
                0.0
            } else {
                rng.gen::<f32>()
            }
        })
        .collect();
    vec![Tensor::from_vec(data, &IMAGE).unwrap(); T]
}

/// The logit gradient injected by every `backward` here: mixed signs,
/// magnitudes across several decades and one exact zero.
fn grad_logits() -> Tensor {
    Tensor::from_vec(vec![0.75, -1.5, 0.0, 3.0e-3, -0.125], &[CLASSES]).unwrap()
}

fn fallback_advance(net: &SpikingNetwork, before: &[u64]) -> Vec<u64> {
    net.dense_fallback_counts()
        .iter()
        .zip(before)
        .map(|(now, then)| now - then)
        .collect()
}

/// Digest of `forward` (both `record` values), `backward` after the
/// recorded pass, and the frame stepper's anytime logits, on a fresh
/// clone of `net` per entry point. `seed` drives the forward RNG.
fn engine_digest(net: &SpikingNetwork, frames: &[Tensor], seed: u64) -> u64 {
    let mut digest = Digest::new();
    for record in [false, true] {
        let mut run = net.clone();
        let before = run.dense_fallback_counts();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run.forward(frames, record, &mut rng).unwrap();
        digest.output(&out);
        for n in fallback_advance(&run, &before) {
            digest.word(n);
        }
        if record {
            run.zero_grads();
            let frame_grads = run.backward(&grad_logits(), T).unwrap();
            digest.word(frame_grads.len() as u64);
            for g in &frame_grads {
                digest.tensor(g);
            }
            digest.param_grads(&run);
        }
        digest.word(rng.next_u64());
    }
    let mut run = net.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stepper = run.frame_stepper();
    for frame in frames {
        stepper.step(frame, &mut rng).unwrap();
        digest.tensor(stepper.logits_so_far().unwrap());
    }
    digest.output(&stepper.finish().unwrap());
    digest.word(rng.next_u64());
    digest.0
}

fn case(name: &str) -> (SpikingNetwork, Vec<Tensor>) {
    match name {
        "mlp_direct" => (mlp(1, None), direct_frames(101)),
        "mlp_binary_05" => (mlp(1, None), binary_frames(0.05, 102)),
        "mlp_binary_45" => (mlp(1, None), binary_frames(0.45, 103)),
        "linear_first_direct" | "linear_first_binary" => {
            let frames = if name == "linear_first_direct" {
                direct_frames(110)
            } else {
                binary_frames(0.45, 111)
            };
            let flat = frames.iter().map(|f| f.reshape(&[64]).unwrap()).collect();
            (linear_first(11), flat)
        }
        "conv_stack" => (conv_stack(2), binary_frames(0.3, 104)),
        "max_pool_first" => (max_pool_first(3), binary_frames(0.3, 105)),
        "dropout_inference" => (mlp(4, Some((0.3, 0.5))), binary_frames(0.2, 106)),
        "mlp_int8" | "mlp_f16" => {
            let mut net = mlp(5, None);
            let plane = if name == "mlp_int8" {
                WeightPlane::Int8
            } else {
                WeightPlane::F16
            };
            net.set_weight_plane(plane).unwrap();
            (net, binary_frames(0.2, 107))
        }
        other => panic!("unknown case {other}"),
    }
}

#[test]
fn engine_outputs_reproduce_frozen_digests() {
    let mut moved = Vec::new();
    for ((name, plan), expected) in FROZEN_ENGINE_DIGESTS {
        let (mut net, frames) = case(name);
        net.apply_plan(if plan == "auto" {
            PlanOverride::Auto
        } else {
            PlanOverride::ForceDense
        });
        let digest = engine_digest(&net, &frames, 7);
        if digest != expected {
            moved.push(format!("{name} {plan}: {digest:#018x}"));
        }
    }
    assert!(moved.is_empty(), "engine outputs moved: {moved:#?}");
}

/// Train-mode dropout: masks come from the caller's RNG, one per
/// dropout layer per sample, held across steps and applied again in
/// the backward.
#[test]
fn train_mode_dropout_reproduces_frozen_digests() {
    let mut moved = Vec::new();
    for ((name, plan), expected) in FROZEN_DROPOUT_DIGESTS {
        let mut net = mlp(6, Some((0.3, 0.5)));
        net.set_train_mode(true);
        net.apply_plan(if plan == "auto" {
            PlanOverride::Auto
        } else {
            PlanOverride::ForceDense
        });
        let frames = if name == "binary" {
            binary_frames(0.25, 108)
        } else {
            direct_frames(109)
        };
        let digest = engine_digest(&net, &frames, 8);
        if digest != expected {
            moved.push(format!("{name} {plan}: {digest:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "train-mode dropout outputs moved: {moved:#?}"
    );
}

/// `train_snn` on a dropout net at one sample per minibatch: weights,
/// per-epoch losses and accuracies, and the RNG's next word.
#[test]
fn dropout_training_reproduces_frozen_digest() {
    let mut rng = StdRng::seed_from_u64(9);
    let data: Vec<(Tensor, usize)> = (0..12)
        .map(|i| {
            let data = (0..64).map(|_| rng.gen::<f32>()).collect();
            (Tensor::from_vec(data, &IMAGE).unwrap(), i % CLASSES)
        })
        .collect();
    let mut net = mlp(10, Some((0.3, 0.5)));
    let tcfg = TrainConfig {
        epochs: 2,
        batch_size: 1,
        encoder: Encoder::Poisson,
        ..TrainConfig::default()
    };
    let report = train_snn(&mut net, &data, &tcfg, &mut rng).unwrap();
    let mut digest = Digest::new();
    for layer in net.layers() {
        if let Some((w, b)) = layer.params() {
            digest.tensor(&w.value);
            digest.tensor(&b.value);
        }
    }
    for epoch in &report.epochs {
        digest.f32s(&[epoch.mean_loss, epoch.accuracy]);
    }
    digest.word(rng.next_u64());
    assert_eq!(
        digest.0, FROZEN_DROPOUT_TRAIN_DIGEST,
        "dropout training moved: {:#018x}",
        digest.0
    );
}

/// Every parameter gradient's bits, layer by layer.
fn param_grad_bits(net: &SpikingNetwork) -> Vec<u32> {
    net.layers()
        .iter()
        .filter_map(Layer::params)
        .flat_map(|(w, b)| w.grad.as_slice().iter().chain(b.grad.as_slice()))
        .map(|v| v.to_bits())
        .collect()
}

/// `frame_gradients` returns `backward`'s frame gradients bit for bit,
/// shapes included, and its errors; it leaves every parameter gradient
/// as it found it.
#[test]
fn frame_gradients_equal_backward_frames_and_leave_parameter_gradients() {
    let error = |r: axsnn_core::Result<Vec<Tensor>>| r.unwrap_err().to_string();
    for name in [
        "mlp_binary_45",
        "linear_first_binary",
        "conv_stack",
        "mlp_int8",
    ] {
        let (net, frames) = case(name);
        let mut run = net.clone();
        run.forward(&frames, true, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let want = run.backward(&grad_logits(), T).unwrap();
        let before = param_grad_bits(&run);
        assert!(
            before.iter().any(|&b| b != 0),
            "{name}: backward formed gradients"
        );
        let got = run.frame_gradients(&grad_logits(), T).unwrap();
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.shape(), w.shape(), "{name}");
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{name}: frame gradient bits");
        }
        assert_eq!(
            param_grad_bits(&run),
            before,
            "{name}: parameter gradients moved"
        );
        let wide = Tensor::zeros(&[CLASSES + 1]);
        assert_eq!(
            error(run.frame_gradients(&wide, T)),
            error(run.backward(&wide, T)),
            "{name}"
        );
        assert_eq!(
            error(run.frame_gradients(&grad_logits(), T + 1)),
            error(run.backward(&grad_logits(), T + 1)),
            "{name}"
        );
        let mut fresh = net.clone();
        assert_eq!(
            error(fresh.frame_gradients(&grad_logits(), T)),
            error(fresh.backward(&grad_logits(), T)),
            "{name}"
        );
    }
}

/// Digests of [`engine_outputs_reproduce_frozen_digests`].
const FROZEN_ENGINE_DIGESTS: [((&str, &str), u64); 20] = [
    (("mlp_direct", "auto"), 0x3562_93bf_03f5_e66c),
    (("mlp_direct", "dense"), 0xb63f_64c7_bd4e_6134),
    (("mlp_binary_05", "auto"), 0x1c5f_c5ac_441e_582a),
    (("mlp_binary_05", "dense"), 0xf2bb_8dc8_cf10_8a02),
    (("mlp_binary_45", "auto"), 0xdeeb_7b1b_07d0_3be5),
    (("mlp_binary_45", "dense"), 0xb72d_be78_fed0_58d9),
    (("linear_first_direct", "auto"), 0x3cce_1f3b_3242_6a23),
    (("linear_first_direct", "dense"), 0xc615_7637_1978_4dbb),
    (("linear_first_binary", "auto"), 0x7151_2104_b30e_c3a3),
    (("linear_first_binary", "dense"), 0xcf4e_0880_e761_a493),
    (("conv_stack", "auto"), 0x9693_bdc6_6a62_e503),
    (("conv_stack", "dense"), 0xae78_b1cd_040a_8995),
    (("max_pool_first", "auto"), 0x8a4d_9e75_d99a_dc92),
    (("max_pool_first", "dense"), 0x011c_9edc_4437_99eb),
    (("dropout_inference", "auto"), 0xe352_361f_1a31_875c),
    (("dropout_inference", "dense"), 0x9047_b51e_e942_5fa0),
    (("mlp_int8", "auto"), 0xdb54_de3c_344c_9ac3),
    (("mlp_int8", "dense"), 0x166e_95a1_9e85_9337),
    (("mlp_f16", "auto"), 0xff9d_9935_69b8_90c1),
    (("mlp_f16", "dense"), 0x3940_d962_8f07_5f11),
];

/// Digests of [`train_mode_dropout_reproduces_frozen_digests`].
const FROZEN_DROPOUT_DIGESTS: [((&str, &str), u64); 4] = [
    (("binary", "auto"), 0xeb2d_0a2d_7b86_d3fa),
    (("binary", "dense"), 0x0475_57a4_0aff_6ace),
    (("direct", "auto"), 0x1a56_5764_80df_127f),
    (("direct", "dense"), 0x54d8_d1fa_cf96_1e5f),
];

/// Digest of [`dropout_training_reproduces_frozen_digest`].
const FROZEN_DROPOUT_TRAIN_DIGEST: u64 = 0x97aa_d124_ee55_d6ed;
