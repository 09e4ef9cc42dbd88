//! FGSM, BIM and PGD sets crafted through `SnnGradientSource`, frozen
//! bit for bit.
//!
//! The white-box SNN gradient is one recorded `forward` and one
//! `backward` down to the input frames, summed over the time steps.
//! Any change to that pass that moves one bit of one gradient sign
//! moves a crafted pixel, and any change to the number of random draws
//! moves PGD's trailing RNG word; both land in the digests below, which
//! were taken from the per-sample simulator.

use axsnn_attacks::gradient::{
    AttackBudget, Bim, Fgsm, GradientSource, ImageAttack, Pgd, SnnGradientSource,
};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DIMS: [usize; 3] = [1, 8, 8];

fn cfg() -> SnnConfig {
    SnnConfig {
        threshold: 0.4,
        time_steps: 5,
        leak: 0.9,
    }
}

fn mlp(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = cfg();
    SpikingNetwork::new(
        vec![
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 64, 24, &c),
            Layer::spiking_linear(&mut rng, 24, 16, &c),
            Layer::output_linear(&mut rng, 16, 10),
        ],
        c,
    )
    .unwrap()
}

fn conv(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = SnnConfig {
        threshold: 0.25,
        ..cfg()
    };
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
                &c,
            ),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 4 * 4 * 4, 12, &c),
            Layer::output_linear(&mut rng, 12, 10),
        ],
        c,
    )
    .unwrap()
}

/// Eight images with pixels in `[0, 1)`, about one in five exactly 0.
fn images(seed: u64) -> Vec<(Tensor, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..8)
        .map(|i| {
            let data = (0..64)
                .map(|_| {
                    if rng.gen_range(0..5u32) == 0 {
                        0.0
                    } else {
                        rng.gen::<f32>()
                    }
                })
                .collect();
            (Tensor::from_vec(data, &DIMS).unwrap(), i % 10)
        })
        .collect()
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over every crafted pixel's bits in set order, then the next
/// word of the attack RNG.
fn crafted_digest<A: ImageAttack>(attack: &A, net: &SpikingNetwork, seed: u64) -> u64 {
    let mut net = net.clone();
    let mut source = SnnGradientSource::new(&mut net);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (image, label) in images(seed) {
        let source: &mut dyn GradientSource = &mut source;
        let adv = attack.perturb(source, &image, label, &mut rng).unwrap();
        assert_eq!(adv.shape().dims(), &DIMS);
        for x in adv.as_slice() {
            fnv(&mut digest, &x.to_bits().to_le_bytes());
        }
    }
    fnv(&mut digest, &rng.next_u64().to_le_bytes());
    digest
}

#[test]
fn snn_crafted_sets_reproduce_frozen_digests() {
    let budget = AttackBudget {
        epsilon: 0.1,
        step_size: 0.02,
        steps: 6,
    };
    let mut moved = Vec::new();
    for ((arch, attack), expected) in FROZEN_CRAFT_DIGESTS {
        let net = if arch == "mlp" { mlp(11) } else { conv(12) };
        let digest = match attack {
            "fgsm" => crafted_digest(&Fgsm::new(budget), &net, 21),
            "bim" => crafted_digest(&Bim::new(budget), &net, 22),
            _ => crafted_digest(&Pgd::new(budget), &net, 23),
        };
        if digest != expected {
            moved.push(format!("{arch} {attack}: {digest:#018x}"));
        }
    }
    assert!(moved.is_empty(), "crafted sets moved: {moved:#?}");
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

/// Crafts the image set with `attack` through one shared source.
fn craft<A: ImageAttack>(attack: &A, source: &mut SnnGradientSource<'_>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (image, label) in images(seed) {
        attack.perturb(source, &image, label, &mut rng).unwrap();
    }
}

/// An SNN gradient step reads only frame gradients: crafting FGSM, BIM
/// and PGD sets leaves every parameter gradient's bits as they were.
#[test]
fn snn_crafting_leaves_parameter_gradients_untouched() {
    let budget = AttackBudget {
        epsilon: 0.1,
        step_size: 0.02,
        steps: 6,
    };
    for arch in ["mlp", "conv"] {
        let mut net = if arch == "mlp" { mlp(11) } else { conv(12) };
        // Start from nonzero accumulators, so "untouched" is not "zeroed".
        let frames = vec![images(5)[0].0.clone(); cfg().time_steps];
        net.forward(&frames, true, &mut StdRng::seed_from_u64(5))
            .unwrap();
        net.backward(&Tensor::full(&[10], 0.1), cfg().time_steps)
            .unwrap();
        let before = param_grad_bits(&net);
        assert!(before.iter().any(|&b| b != 0), "{arch}");
        let mut source = SnnGradientSource::new(&mut net);
        craft(&Fgsm::new(budget), &mut source, 21);
        craft(&Bim::new(budget), &mut source, 22);
        craft(&Pgd::new(budget), &mut source, 23);
        assert_eq!(param_grad_bits(&net), before, "{arch}");
    }
}

/// Digests of [`snn_crafted_sets_reproduce_frozen_digests`].
const FROZEN_CRAFT_DIGESTS: [((&str, &str), u64); 6] = [
    (("mlp", "fgsm"), 0x96e6_3fba_6dbc_305d),
    (("mlp", "bim"), 0x4cb1_417f_7aa8_c7b9),
    (("mlp", "pgd"), 0x0dc0_20c3_63ae_b72d),
    (("conv", "fgsm"), 0x73b8_22d3_5e43_cbd1),
    (("conv", "bim"), 0x2a23_034b_dbd2_4a16),
    (("conv", "pgd"), 0xe5c4_c368_88d6_e5df),
];
