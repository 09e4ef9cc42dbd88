//! `train_bptt`: one epoch of `core::train::train_snn` minibatch BPTT
//! (B = 16, T = 16) on the converted MNIST `FastMlp` SNN — the recorded
//! fused forward and the batched backward that read-only inference
//! never runs.

use crate::search::traced_mnist_setup;
use crate::trace;
use crate::{mix, per_second, stats, timed_setup, Args, Report, Res, FIXTURE_SEED};
use axsnn::core::fused::{BackwardOpts, FrameTrain};
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::train::{train_snn, TrainConfig, TrainReport};
use axsnn::datasets::mnist::MnistConfig;
use axsnn::defense::scenario::{MnistScenario, MnistScenarioConfig};
use axsnn::tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 16,
    leak: 0.9,
};

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: 16,
        // Fine-tuning rate: the converted network is already accurate.
        learning_rate: 0.002,
        momentum: 0.0,
        backward: BackwardOpts {
            threads: 1,
            ..BackwardOpts::default()
        },
        ..TrainConfig::default()
    }
}

struct Setup {
    data: Vec<(Tensor, usize)>,
    net: SpikingNetwork,
    setup_s: f64,
}

fn scenario_config() -> MnistScenarioConfig {
    let mut cfg = MnistScenarioConfig::default();
    cfg.mnist = MnistConfig {
        seed: mix(FIXTURE_SEED, 21),
        ..cfg.mnist
    };
    cfg.train.backward.threads = 1;
    cfg.seed = mix(FIXTURE_SEED, 22);
    cfg
}

fn setup() -> Res<Setup> {
    let ((data, net), setup_s) = timed_setup(|| {
        let scenario = MnistScenario::prepare(scenario_config())?;
        Ok((scenario.dataset().train.clone(), scenario.acc_snn(SNN)?))
    })?;
    Ok(Setup { data, net, setup_s })
}

/// One `train_snn` epoch from the converted network; returns the
/// report, the trained network and the wall time in ms.
fn train_once(s: &Setup, seed: u64) -> Res<(TrainReport, SpikingNetwork, f64)> {
    let mut net = s.net.clone();
    let mut rng = StdRng::seed_from_u64(mix(seed, 23));
    let t0 = Instant::now();
    let report = train_snn(&mut net, &s.data, &train_config(), &mut rng)?;
    Ok((report, net, t0.elapsed().as_secs_f64() * 1e3))
}

pub fn run(args: &Args) -> Res<Report> {
    let s = setup()?;
    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut first: Option<TrainReport> = None;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (train, _, ms) = train_once(&s, args.seed)?;
        report.attempted += 1;
        walls.push(ms);
        match &first {
            None => first = Some(train),
            Some(f) => report.check(*f == train, || {
                "repeated train_snn runs returned different reports".into()
            }),
        }
    }
    let first = first.expect("at least one epoch ran");
    report.set("setup_s", s.setup_s);
    report.set("throughput_per_s", per_second(s.data.len(), &walls));
    report.set("latency_p50_ms", stats::median(&walls));
    report.set("latency_p90_ms", stats::quantile(&walls, 0.9));
    // Training accuracy is 100% on every seed, so the quality figure is
    // the geometric-mean probability the network gives the true label
    // over the epoch: exp(-mean cross-entropy).
    let loss = first.epochs.last().map_or(f32::INFINITY, |e| e.mean_loss);
    report.set("quality_pct", 100.0 * (-f64::from(loss)).exp());
    Ok(report)
}

/// `train_snn`'s fused minibatch loop through the same public calls,
/// with a span around each layer; returns the report and the network.
fn replay(s: &Setup, seed: u64) -> Res<(TrainReport, SpikingNetwork)> {
    let cfg = train_config();
    let mut net = s.net.clone();
    let mut rng = StdRng::seed_from_u64(mix(seed, 23));
    let _root = trace::span("workload");
    let mut order: Vec<usize> = (0..s.data.len()).collect();
    let mut report = TrainReport::default();
    net.set_train_mode(true);
    if net.train_dropout_active() {
        return Err("the replay covers the fused (dropout-free) path only".into());
    }
    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let (mut loss_sum, mut correct) = (0.0f32, 0usize);
        for chunk in order.chunks(cfg.batch_size) {
            let scale = 1.0 / chunk.len() as f32;
            let trains = {
                let _s = trace::span("core.encoding");
                chunk
                    .iter()
                    .map(|&i| {
                        FrameTrain::encode(&s.data[i].0, cfg.encoder, SNN.time_steps, &mut rng)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            {
                let _s = trace::span("core.network.apply_grads");
                net.zero_grads();
            }
            let (out, tape) = {
                let _s = trace::span("core.fused.recorded");
                net.forward_batch_recorded(&trains)?
            };
            let grad_block = {
                let _s = trace::span("core.train");
                let classes = out.logits.shape().dims()[1];
                let logits = out.logits.as_slice();
                let mut block = Vec::with_capacity(chunk.len() * classes);
                for (r, &i) in chunk.iter().enumerate() {
                    let label = s.data[i].1;
                    let row = Tensor::from_vec(
                        logits[r * classes..(r + 1) * classes].to_vec(),
                        &[classes],
                    )?;
                    let (loss, grad) = ops::cross_entropy_with_grad(&row, label)?;
                    loss_sum += loss;
                    correct += usize::from(row.argmax() == Some(label));
                    block.extend_from_slice(grad.scale(scale).as_slice());
                }
                Tensor::from_vec(block, &[chunk.len(), classes])?
            };
            {
                let _s = trace::span("core.fused.backward");
                net.backward_batch_with(&tape, &grad_block, &cfg.backward)?;
            }
            let _s = trace::span("core.network.apply_grads");
            net.apply_grads(cfg.learning_rate, cfg.momentum)?;
        }
        report.epochs.push(axsnn::core::train::EpochReport {
            epoch,
            mean_loss: loss_sum / s.data.len() as f32,
            accuracy: 100.0 * correct as f32 / s.data.len() as f32,
        });
    }
    net.set_train_mode(false);
    Ok((report, net))
}

/// Logits of `net` on the first samples, bit for bit.
fn probe_logits(net: &mut SpikingNetwork, data: &[(Tensor, usize)]) -> Res<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(0);
    let trains = data
        .iter()
        .take(8)
        .map(|(x, _)| FrameTrain::encode(x, train_config().encoder, SNN.time_steps, &mut rng))
        .collect::<Result<Vec<_>, _>>()?;
    let out = net.forward_batch(&trains)?;
    Ok(out.logits.as_slice().iter().map(|v| v.to_bits()).collect())
}

pub fn run_traced(args: &Args) -> Res<Report> {
    let s = setup()?;
    let mut report = Report::default();
    report.set_setup_layers(&traced_mnist_setup(&scenario_config())?, 1.0, 2.0);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut recordings = Vec::new();
    let t0 = Instant::now();
    while untraced.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (reference, mut reference_net, ms) = train_once(&s, args.seed)?;
        untraced.push(ms);
        trace::start();
        let t = Instant::now();
        let (replayed, mut replayed_net) = replay(&s, args.seed)?;
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        recordings.push(trace::stop());
        report.attempted += 2;
        report.check(replayed == reference, || {
            format!("replayed epoch {replayed:?} != train_snn {reference:?}")
        });
        report.check(
            probe_logits(&mut replayed_net, &s.data)? == probe_logits(&mut reference_net, &s.data)?,
            || "replayed training left different weights than train_snn".into(),
        );
    }
    let per_op =
        |span: &str| stats::mean(&recordings.iter().map(|r| r.ms(span)).collect::<Vec<_>>());
    report.set("core.fused.recorded_busy_ms", per_op("core.fused.recorded"));
    report.set("core.fused.backward_busy_ms", per_op("core.fused.backward"));
    report.set(
        "core.network.apply_grads_busy_ms",
        per_op("core.network.apply_grads"),
    );
    report.set("core.encoding.busy_ms", per_op("core.encoding"));
    report.set("core.train.busy_ms", per_op("core.train"));
    let coverage = stats::mean(
        &recordings
            .iter()
            .map(|r| r.coverage_pct("workload"))
            .collect::<Vec<_>>(),
    );
    report.set_overhead(&untraced, &traced, coverage);
    Ok(report)
}
