//! FGSM, BIM and PGD sets crafted through `AnnGradientSource`, frozen
//! bit for bit.
//!
//! The ANN input gradient runs the batched one-row pass of
//! `AnnNetwork::input_gradient`. Any change to it that moves one bit of
//! one gradient sign moves a crafted pixel, and any change to the
//! number of random draws moves PGD's trailing RNG word; both land in
//! the digests below, which were taken from the per-sample backward.

use axsnn_attacks::gradient::{
    AnnGradientSource, AttackBudget, Bim, Fgsm, GradientSource, ImageAttack, Pgd,
};
use axsnn_core::ann::{AnnLayer, AnnNetwork};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DIMS: [usize; 3] = [1, 8, 8];

fn mlp(seed: u64) -> AnnNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    AnnNetwork::new(vec![
        AnnLayer::Flatten,
        AnnLayer::linear_relu(&mut rng, 64, 24),
        AnnLayer::linear_relu(&mut rng, 24, 16),
        AnnLayer::linear_out(&mut rng, 16, 10),
    ])
    .unwrap()
}

fn conv(seed: u64) -> AnnNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    AnnNetwork::new(vec![
        AnnLayer::conv_relu(
            &mut rng,
            Conv2dSpec {
                in_channels: 1,
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        AnnLayer::MaxPool { window: 2 },
        AnnLayer::Flatten,
        AnnLayer::linear_relu(&mut rng, 4 * 4 * 4, 12),
        AnnLayer::linear_out(&mut rng, 12, 10),
    ])
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
fn crafted_digest<A: ImageAttack>(attack: &A, net: &AnnNetwork, seed: u64) -> u64 {
    let mut source = AnnGradientSource::new(net);
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
fn ann_crafted_sets_reproduce_frozen_digests() {
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

/// Digests of [`ann_crafted_sets_reproduce_frozen_digests`].
const FROZEN_CRAFT_DIGESTS: [((&str, &str), u64); 6] = [
    (("mlp", "fgsm"), 0xb0be_d26b_57c7_4f53),
    (("mlp", "bim"), 0xb860_8d4c_840c_6233),
    (("mlp", "pgd"), 0xaa2f_e511_6ee4_f8ff),
    (("conv", "fgsm"), 0x847c_0146_5650_f24b),
    (("conv", "bim"), 0x3f51_5b2b_5c83_cbe1),
    (("conv", "pgd"), 0x58f9_ab62_590a_ef00),
];
