//! Property tests pinning the fused engine's batch invariance **bit for
//! bit**: for random layer shapes, batch sizes 1–64, spike densities
//! 0–100% (including analog inputs) and every thread count,
//! `forward_batch` logits must equal the one-row `forward` logits of
//! each sample exactly — not approximately. A row's result must not
//! depend on the batch it runs in, and these tests are the contract
//! that keeps it that way; `engine_digests` freezes the one-row side.
//!
//! Analog trains whose frames change between steps (by a single ulp,
//! in the sign of a zero, at different steps per row, or on every
//! step) pin the fused engine's reuse of the first linear layer's
//! currents: it may skip the GEMM only at a step where every train of
//! the batch repeats its analog frame bit for bit.
//!
//! Spiking layers hand the next layer event rows, and an admitted
//! max-pool row pools events to events. The conv stacks therefore cover
//! pooled events feeding a conv (the paper's conv → max-pool → conv
//! order) and a max-pool first on binary and analog input, and every
//! comparison also pins the dense-fallback counters: the fused pass
//! must decline exactly the rows the one-row passes decline.

use axsnn_core::encoding::Encoder;
use axsnn_core::fused::FrameTrain;
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(threshold: f32, time_steps: usize) -> SnnConfig {
    SnnConfig {
        threshold,
        time_steps,
        leak: 0.9,
    }
}

fn mlp(seed: u64, inputs: usize, hidden: usize, classes: usize, c: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, inputs, hidden, &c),
            Layer::spiking_linear(&mut rng, hidden, hidden, &c),
            Layer::output_linear(&mut rng, hidden, classes),
        ],
        c,
    )
    .unwrap()
}

/// The conv stacks on a `[1, 8, 8]` input.
#[derive(Debug, Clone, Copy)]
enum ConvStack {
    /// conv → max-pool → linear: the pool keeps frames binary.
    MaxPool,
    /// conv → avg-pool → linear: the pool de-binarizes frames.
    AvgPool,
    /// conv → max-pool → conv → linear, the paper's order: pooled
    /// events feed a conv.
    PoolThenConv,
    /// max-pool → conv → linear: the pool reads the input plane.
    MaxPoolFirst,
}

fn conv_net(seed: u64, c: SnnConfig, stack: ConvStack) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = |rng: &mut StdRng, in_channels, out_channels| {
        let spec = Conv2dSpec {
            in_channels,
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        Layer::spiking_conv2d(rng, spec, &c)
    };
    let mut layers = match stack {
        ConvStack::MaxPool => vec![conv(&mut rng, 1, 3), Layer::max_pool2d(2)],
        ConvStack::AvgPool => vec![conv(&mut rng, 1, 3), Layer::avg_pool2d(2)],
        ConvStack::PoolThenConv => vec![
            conv(&mut rng, 1, 3),
            Layer::max_pool2d(2),
            conv(&mut rng, 3, 3),
        ],
        ConvStack::MaxPoolFirst => vec![Layer::max_pool2d(2), conv(&mut rng, 1, 3)],
    };
    layers.push(Layer::flatten());
    layers.push(Layer::spiking_linear(&mut rng, 3 * 4 * 4, 12, &c));
    layers.push(Layer::output_linear(&mut rng, 12, 4));
    SpikingNetwork::new(layers, c).unwrap()
}

/// B binary frame trains of `len`-element frames at roughly `density`.
fn spike_trains(batch: usize, len: usize, t: usize, density: f32, seed: u64) -> Vec<FrameTrain> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            let frames: Vec<Tensor> = (0..t)
                .map(|_| {
                    let data: Vec<f32> = (0..len)
                        .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                        .collect();
                    Tensor::from_vec(data, &[len]).unwrap()
                })
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect()
}

/// How far each layer's dense-fallback counter advanced since `before`.
/// Clones of a network share its counters, so the deltas of one pass
/// are read off the original between passes.
fn fallbacks_since(net: &SpikingNetwork, before: &[u64]) -> Vec<u64> {
    net.dense_fallback_counts()
        .iter()
        .zip(before)
        .map(|(now, then)| now - then)
        .collect()
}

/// Asserts fused logits equal one-row logits bit for bit, that
/// batched spike stats equal the one-row sums, and that the fused
/// pass declines as many rows per layer as the one-row passes.
fn assert_bitwise_equivalent(net: &SpikingNetwork, trains: &[FrameTrain]) {
    let start = net.dense_fallback_counts();
    let mut fused_net = net.clone();
    let out = fused_net.forward_batch(trains).unwrap();
    let fused_fallbacks = fallbacks_since(net, &start);
    let classes = out.logits.shape().dims()[1];
    let mut reference = net.clone();
    let mut rng = StdRng::seed_from_u64(0);
    let mut stat_sums = vec![0.0f32; out.spikes_per_layer.len()];
    let mid = net.dense_fallback_counts();
    for (r, train) in trains.iter().enumerate() {
        let frames = train.to_frames().unwrap();
        let per_sample = reference.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(
            &out.logits.as_slice()[r * classes..(r + 1) * classes],
            per_sample.logits.as_slice(),
            "row {r} logits diverged from the one-row forward"
        );
        for (s, &v) in stat_sums.iter_mut().zip(&per_sample.stats.spikes_per_layer) {
            *s += v;
        }
    }
    assert_eq!(out.spikes_per_layer, stat_sums, "spike stats diverged");
    assert_eq!(
        fused_fallbacks,
        fallbacks_since(net, &mid),
        "dense-fallback counts diverged from the one-row passes"
    );
}

/// [`assert_bitwise_equivalent`] for both fused entry points: the
/// inference `forward_batch` against one-row `forward`, and the
/// recorded `forward_batch_recorded` against the one-row recorded
/// forward.
fn assert_bitwise_equivalent_recorded(net: &SpikingNetwork, trains: &[FrameTrain]) {
    assert_bitwise_equivalent(net, trains);
    let start = net.dense_fallback_counts();
    let mut fused_net = net.clone();
    let (out, tape) = fused_net.forward_batch_recorded(trains).unwrap();
    let fused_fallbacks = fallbacks_since(net, &start);
    assert_eq!(tape.batch(), trains.len());
    let classes = out.logits.shape().dims()[1];
    let mut reference = net.clone();
    let mut rng = StdRng::seed_from_u64(0);
    let mid = net.dense_fallback_counts();
    for (r, train) in trains.iter().enumerate() {
        let frames = train.to_frames().unwrap();
        let per_sample = reference.forward(&frames, true, &mut rng).unwrap();
        let fused = &out.logits.as_slice()[r * classes..(r + 1) * classes];
        for (i, (a, b)) in fused.iter().zip(per_sample.logits.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {r} class {i}: recorded logits diverged ({a} vs {b})"
            );
        }
    }
    assert_eq!(
        fused_fallbacks,
        fallbacks_since(net, &mid),
        "recorded dense-fallback counts diverged from the one-row passes"
    );
}

/// B binary `[1, 8, 8]` frame trains at roughly `density`.
fn image_trains(batch: usize, t: usize, density: f32, seed: u64) -> Vec<FrameTrain> {
    spike_trains(batch, 64, t, density, seed)
        .into_iter()
        .map(|train| {
            let frames: Vec<Tensor> = train
                .to_frames()
                .unwrap()
                .iter()
                .map(|f| f.reshape(&[1, 8, 8]).unwrap())
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect()
}

/// An analog image of `len` values in `[0, 1)`.
fn analog_image(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>()).collect()
}

/// The frame train holding `frames[t]` at step `t`.
fn analog_train(frames: Vec<Vec<f32>>) -> FrameTrain {
    let frames: Vec<Tensor> = frames
        .into_iter()
        .map(|f| {
            let len = f.len();
            Tensor::from_vec(f, &[len]).unwrap()
        })
        .collect();
    FrameTrain::from_frames(&frames).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused ≡ one-row through an MLP across random widths, batch
    /// sizes 1–64, time steps and densities 0–100%.
    #[test]
    fn mlp_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..65,
        inputs in 1usize..24,
        hidden in 1usize..20,
        t in 1usize..6,
        density_k in 0u8..6,
        vth in 1u8..4,
        seed in 0u64..500,
    ) {
        let density = [0.0, 0.05, 0.1, 0.25, 0.6, 1.0][density_k as usize];
        let c = cfg(vth as f32 * 0.3, t);
        let net = mlp(seed, inputs, hidden, 3, c);
        let trains = spike_trains(batch, inputs, t, density, seed ^ 0x5eed);
        assert_bitwise_equivalent(&net, &trains);
    }

    /// Fused ≡ one-row through conv/pool stacks: the sparse-eligible
    /// max-pool variant, the de-binarizing avg-pool variant (which
    /// exercises the dense-fallback path mid-network), pooled events
    /// feeding a conv, and a max-pool reading the input plane. Densities
    /// 0.4 and 1.0 make the pool and conv gates decline some rows.
    #[test]
    fn conv_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..13,
        t in 1usize..5,
        density_k in 0u8..5,
        stack_k in 0u8..4,
        seed in 0u64..500,
    ) {
        let density = [0.0, 0.05, 0.15, 0.4, 1.0][density_k as usize];
        let c = cfg(0.6, t);
        let stack = [
            ConvStack::MaxPool,
            ConvStack::AvgPool,
            ConvStack::PoolThenConv,
            ConvStack::MaxPoolFirst,
        ][stack_k as usize];
        let net = conv_net(seed, c, stack);
        let trains = image_trains(batch, t, density, seed ^ 0xabc);
        assert_bitwise_equivalent(&net, &trains);
    }

    /// A max-pool reading analog (direct-current) input declines every
    /// row and pools densely, under both fused entry points.
    #[test]
    fn analog_max_pool_first_bitwise_equals_per_sample(
        batch in 1usize..9,
        t in 1usize..4,
        seed in 0u64..500,
    ) {
        let net = conv_net(seed, cfg(0.6, t), ConvStack::MaxPoolFirst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa9a1);
        let trains: Vec<FrameTrain> = (0..batch)
            .map(|_| {
                let image = Tensor::from_vec(analog_image(&mut rng, 64), &[1, 8, 8]).unwrap();
                let mut erng = StdRng::seed_from_u64(0);
                FrameTrain::encode(&image, Encoder::DirectCurrent, t, &mut erng).unwrap()
            })
            .collect();
        let start = net.dense_fallback_counts();
        assert_bitwise_equivalent_recorded(&net, &trains);
        // Inference steps gate the pool (recorded steps do not): every
        // row-step declines once on the fused and once on the
        // one-row side.
        prop_assert_eq!(
            fallbacks_since(&net, &start)[0],
            2 * (batch * t) as u64,
            "the pool must decline every analog row on both sides"
        );
    }

    /// Analog (direct-current) inputs — every row takes the batched
    /// dense fallback — still match the one-row dense path bitwise.
    /// Input widths cross the 8-column pack block and hidden widths
    /// the 8-row panel tile of the dense GEMM.
    #[test]
    fn analog_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..17,
        inputs in 1usize..40,
        hidden in 1usize..20,
        t in 1usize..5,
        seed in 0u64..500,
    ) {
        let c = cfg(0.5, t);
        let net = mlp(seed, inputs, hidden, 3, c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let trains: Vec<FrameTrain> = (0..batch)
            .map(|_| {
                let image: Vec<f32> = (0..inputs).map(|_| rng.gen::<f32>()).collect();
                let image = Tensor::from_vec(image, &[inputs]).unwrap();
                let mut erng = StdRng::seed_from_u64(0);
                FrameTrain::encode(&image, Encoder::DirectCurrent, t, &mut erng).unwrap()
            })
            .collect();
        assert_bitwise_equivalent(&net, &trains);
    }

    /// Analog trains whose frames change between steps, under both
    /// fused entry points. Each batch mixes four kinds of row: a
    /// constant direct-current train; a train whose frame changes one
    /// element by one ulp at one step; a train switching to a new image
    /// at a row-dependent step; and a train with a fresh image every
    /// step. The dense-current reuse must recompute on every change,
    /// however small.
    #[test]
    fn changing_analog_trains_bitwise_equal_per_sample(
        batch in 1usize..20,
        inputs in 1usize..40,
        hidden in 1usize..20,
        t in 2usize..6,
        seed in 0u64..500,
    ) {
        let c = cfg(0.5, t);
        let net = mlp(seed, inputs, hidden, 3, c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a1);
        let trains: Vec<FrameTrain> = (0..batch)
            .map(|r| {
                let base = analog_image(&mut rng, inputs);
                let step = 1 + r % (t - 1);
                let frames: Vec<Vec<f32>> = match r % 4 {
                    0 => vec![base; t],
                    1 => {
                        let i = rng.gen_range(0..inputs);
                        let mut bumped = base.clone();
                        bumped[i] = f32::from_bits(bumped[i].to_bits() + 1);
                        (0..t)
                            .map(|s| if s == step { bumped.clone() } else { base.clone() })
                            .collect()
                    }
                    2 => {
                        let next = analog_image(&mut rng, inputs);
                        (0..t)
                            .map(|s| if s < step { base.clone() } else { next.clone() })
                            .collect()
                    }
                    _ => (0..t).map(|_| analog_image(&mut rng, inputs)).collect(),
                };
                analog_train(frames)
            })
            .collect();
        assert_bitwise_equivalent_recorded(&net, &trains);
    }

    /// Sharded classification is invariant to thread count and fused
    /// batch size, and equals single-shot fused classification.
    #[test]
    fn sharding_invariant_to_threads_and_batch_size(
        samples in 1usize..40,
        threads in 1usize..8,
        shard in 1usize..40,
        seed in 0u64..200,
    ) {
        let c = cfg(0.5, 4);
        let net = mlp(seed, 10, 14, 4, c);
        let trains = spike_trains(samples, 10, 4, 0.2, seed ^ 0x77);
        let mut whole_net = net.clone();
        let whole = whole_net.classify_batch_fused(&trains).unwrap();
        let sharded = net.classify_trains_sharded(&trains, threads, shard).unwrap();
        prop_assert_eq!(&whole, &sharded);
        let single_thread = net.classify_trains_sharded(&trains, 1, shard).unwrap();
        prop_assert_eq!(&whole, &single_thread);
    }
}

/// The fused image path (`classify_batch` / `evaluate_batch`) matches
/// sequential one-row `classify` under the shared seeding convention
/// for every encoder, including the stochastic Poisson code.
#[test]
fn classify_batch_matches_per_sample_for_all_encoders() {
    use axsnn_core::batch::sample_seed;
    let c = cfg(0.5, 6);
    let net = mlp(3, 9, 12, 3, c);
    let mut rng = StdRng::seed_from_u64(11);
    let images: Vec<Tensor> = (0..37)
        .map(|_| {
            let data: Vec<f32> = (0..9).map(|_| rng.gen::<f32>()).collect();
            Tensor::from_vec(data, &[9]).unwrap()
        })
        .collect();
    for encoder in [
        Encoder::Poisson,
        Encoder::Deterministic,
        Encoder::DirectCurrent,
    ] {
        let fused = net.classify_batch(&images, encoder, 5, 4).unwrap();
        let mut reference = net.clone();
        for (i, image) in images.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(sample_seed(5, i));
            let expected = reference.classify(image, encoder, &mut srng).unwrap();
            assert_eq!(fused[i], expected, "{encoder:?} sample {i}");
        }
    }
}

/// Dense-fallback counters make the avg-pool de-binarization
/// observable, and the eligibility audit predicts it statically.
#[test]
fn avg_pool_degradation_is_observable() {
    let c = cfg(0.6, 4);
    let mut avg_net = conv_net(1, c, ConvStack::AvgPool);
    let mut max_net = conv_net(1, c, ConvStack::MaxPool);

    let avg_report = avg_net.sparse_eligible();
    assert!(!avg_report.fully_eligible, "avg pool must flag the stack");
    assert_eq!(avg_report.first_debinarizing, Some(1));
    let max_report = max_net.sparse_eligible();
    assert!(max_report.fully_eligible, "max pool keeps frames binary");
    assert_eq!(max_report.first_debinarizing, None);

    // Low-density spike input: the avg-pool net must rack up dense
    // fallbacks downstream of the pool; the max-pool net must not.
    let trains = image_trains(8, 4, 0.05, 9);
    avg_net.forward_batch(&trains).unwrap();
    max_net.forward_batch(&trains).unwrap();
    let avg_counts = avg_net.dense_fallback_counts();
    let max_counts = max_net.dense_fallback_counts();
    // The layer right after the pool sees de-binarized fractions in the
    // avg net, so it must fall back; the max net's conv layer sees the
    // raw 5% binary frames and must never fall back. (The max net may
    // still fall back *by density* deeper in the stack — that is the
    // gate working, not a degradation — so compare totals rather than
    // demanding zero.)
    assert!(
        avg_counts[3] > 0,
        "post-avg-pool linear layer must be counted: {avg_counts:?}"
    );
    assert_eq!(max_counts[0], 0, "binary conv input never falls back");
    assert!(
        avg_net.total_dense_fallbacks() > max_net.total_dense_fallbacks(),
        "avg pool must degrade more than max pool: {avg_counts:?} vs {max_counts:?}"
    );

    // The counters must survive the sharded evaluators, which hand
    // each worker a *clone* of the network: a fresh avg-pool net
    // classified through classify_trains_sharded must still show its
    // fallbacks on the instance the caller holds.
    let sharded_net = conv_net(1, c, ConvStack::AvgPool);
    assert_eq!(sharded_net.total_dense_fallbacks(), 0);
    sharded_net.classify_trains_sharded(&trains, 4, 2).unwrap();
    assert!(
        sharded_net.total_dense_fallbacks() > 0,
        "worker-clone fallbacks must aggregate into the caller's instance"
    );
}

/// A single-ulp change in one input element, at one step, must reach
/// the logits exactly as the one-row path computes them. The
/// network is a lone readout layer, so each step's dense current lands
/// in the logits without a spiking threshold in between, and the bumped
/// element is large (one ulp of 2²⁰ is 0.125), so a stale reused
/// current would show as a bitwise difference.
#[test]
fn single_ulp_input_change_reaches_fused_logits() {
    let c = cfg(0.5, 3);
    let mut rng = StdRng::seed_from_u64(41);
    let net = SpikingNetwork::new(vec![Layer::output_linear(&mut rng, 12, 4)], c).unwrap();
    let mut base: Vec<f32> = (0..12).map(|i| 0.25 + i as f32 * 0.0625).collect();
    base[5] = 1_048_576.0;
    let mut bumped = base.clone();
    bumped[5] = f32::from_bits(bumped[5].to_bits() + 1);
    let constant = analog_train(vec![base.clone(); 3]);
    let changed = analog_train(vec![base.clone(), bumped, base]);
    let trains = vec![constant.clone(), changed.clone(), constant, changed];
    assert_bitwise_equivalent_recorded(&net, &trains);
    let out = net.clone().forward_batch(&trains).unwrap();
    let rows = out.logits.as_slice();
    assert_ne!(
        rows[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        rows[4..8].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the one-ulp change must be visible in the logits"
    );
}

/// Direct-current trains mixed with analog trains whose frames change:
/// one switching to another image and back (A, A, B, A, …), one whose
/// frame differs from its predecessor by one ulp, and one whose frame
/// differs only in the sign of a zero. The fused engine reuses the
/// first linear layer's currents only at a step where every train of
/// the batch repeats its previous frame bit for bit, so each batch mix
/// below puts repeating and changing steps side by side. Under `Auto`,
/// `ForceDense` and `ForceThreshold`, for a first linear layer, one
/// behind a flatten and a lone readout, logits, spike statistics and
/// dense-fallback counts must equal the one-row path.
#[test]
fn repeating_direct_current_batches_bitwise_equal_per_sample() {
    use axsnn_core::plan::PlanOverride;
    const INPUTS: usize = 12;
    const T: usize = 6;
    let c = cfg(0.5, T);
    let mut rng = StdRng::seed_from_u64(0xdc);
    let a = analog_image(&mut rng, INPUTS);
    let b = analog_image(&mut rng, INPUTS);
    let mut a_ulp = a.clone();
    a_ulp[3] = f32::from_bits(a_ulp[3].to_bits() + 1);
    let mut zero = a.clone();
    zero[7] = 0.0;
    let mut neg_zero = zero.clone();
    neg_zero[7] = -0.0;
    let constant = analog_train(vec![a.clone(); T]);
    let switching = analog_train(vec![
        a.clone(),
        a.clone(),
        b.clone(),
        a.clone(),
        a.clone(),
        a.clone(),
    ]);
    let ulp = analog_train(vec![
        a.clone(),
        a.clone(),
        a_ulp.clone(),
        a_ulp,
        a.clone(),
        a.clone(),
    ]);
    let signed_zero = analog_train(vec![
        zero.clone(),
        zero.clone(),
        neg_zero,
        zero.clone(),
        zero.clone(),
        zero,
    ]);
    let batches = [
        vec![constant.clone(), constant.clone(), constant.clone()],
        vec![constant.clone(), switching.clone()],
        vec![ulp.clone(), constant.clone()],
        vec![constant.clone(), signed_zero.clone()],
        vec![switching, constant, ulp, signed_zero],
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let flattened = SpikingNetwork::new(
        vec![
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, INPUTS, 9, &c),
            Layer::output_linear(&mut rng, 9, 3),
        ],
        c,
    )
    .unwrap();
    let readout = SpikingNetwork::new(vec![Layer::output_linear(&mut rng, INPUTS, 4)], c).unwrap();
    for (what, net) in [
        ("mlp", mlp(17, INPUTS, 10, 3, c)),
        ("flatten first", flattened),
        ("readout only", readout),
    ] {
        for plan in [
            PlanOverride::Auto,
            PlanOverride::ForceDense,
            PlanOverride::ForceThreshold(0.5),
        ] {
            let mut net = net.clone();
            net.apply_plan(plan);
            for (k, trains) in batches.iter().enumerate() {
                let start = net.dense_fallback_counts();
                assert_bitwise_equivalent_recorded(&net, trains);
                let counted = fallbacks_since(&net, &start);
                // Armed gates decline every analog input row once per
                // row-step on each of the four passes.
                let expected = match plan {
                    PlanOverride::ForceDense => 0,
                    _ => (4 * trains.len() * T) as u64,
                };
                let first = counted
                    .iter()
                    .zip(net.layers())
                    .find(|(_, l)| !matches!(l, Layer::Flatten(_)))
                    .map(|(n, _)| *n);
                assert_eq!(first, Some(expected), "{what} {plan:?} batch {k}");
            }
        }
    }
}
