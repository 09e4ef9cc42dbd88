//! `search_mlp`: Algorithm 1's `(V_th, T, precision, a_th)` robustness
//! search, as `examples/precision_scaling_search.rs` runs it — MNIST
//! `FastMlp` 16×16, PGD crafted on the adversary's twin, ANN→SNN
//! conversion as the trainer, all three precisions — with the quality
//! gate at 0 (as `table1` runs it) so every run evaluates all 36
//! configurations whatever the seed.

use crate::trace::{self, CountingGradientSource};
use crate::{mix, per_second, stats, timed_setup, Args, Report, Res, FIXTURE_SEED};
use axsnn::attacks::gradient::{AnnGradientSource, AttackBudget, ImageAttack, Pgd};
use axsnn::core::approx::apply_eq1_approximation;
use axsnn::core::batch::sample_seed;
use axsnn::core::convert::ann_to_snn;
use axsnn::core::encoding::Encoder;
use axsnn::core::fused::EncodedFrame;
use axsnn::core::network::SnnConfig;
use axsnn::core::precision::{apply_precision, PrecisionScale};
use axsnn::core::train::train_ann;
use axsnn::datasets::cache::{EncodedCache, EncodedSet};
use axsnn::datasets::mnist::{MnistConfig, SyntheticMnist};
use axsnn::defense::scenario::{mnist_mlp_ann, MnistScenario, MnistScenarioConfig};
use axsnn::defense::search::{
    precision_scaling_search, PrecisionSearchConfig, SearchOutcome, SearchSpace, StaticAttackKind,
};
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Worker threads for encoding and fused classification.
const THREADS: usize = 1;

fn scenario_config() -> MnistScenarioConfig {
    let mut cfg = MnistScenarioConfig::default();
    cfg.mnist = MnistConfig {
        size: 16,
        train_per_class: 30,
        test_per_class: 4,
        seed: mix(FIXTURE_SEED, 1),
        ..cfg.mnist
    };
    cfg.train.backward.threads = THREADS;
    cfg.seed = mix(FIXTURE_SEED, 2);
    cfg
}

fn search_config() -> PrecisionSearchConfig {
    PrecisionSearchConfig {
        space: SearchSpace {
            thresholds: vec![0.5, 1.0, 1.5],
            time_steps: vec![16, 32],
            precision_scales: PrecisionScale::ALL.to_vec(),
            approx_scales: vec![0.001, 0.005],
        },
        quality_constraint: 0.0,
        epsilon: 0.05,
        attack: StaticAttackKind::Pgd,
        stop_at_first: false,
        threads: THREADS,
    }
}

struct Setup {
    scenario: MnistScenario,
    calibration: Vec<Tensor>,
    setup_s: f64,
}

fn setup() -> Res<Setup> {
    let ((scenario, calibration), setup_s) = timed_setup(|| {
        let scenario = MnistScenario::prepare(scenario_config())?;
        let calibration: Vec<Tensor> = scenario
            .dataset()
            .train
            .iter()
            .take(16)
            .map(|(x, _)| x.clone())
            .collect();
        Ok((scenario, calibration))
    })?;
    Ok(Setup {
        scenario,
        calibration,
        setup_s,
    })
}

/// One search through the public entry point; returns it with its
/// wall time in milliseconds.
fn search_once(s: &Setup, seed: u64) -> Res<(SearchOutcome, f64)> {
    let cfg = search_config();
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let ann = s.scenario.ann();
    let mut trainer = |c: SnnConfig| ann_to_snn(ann, c, &s.calibration);
    let t0 = Instant::now();
    let outcome = precision_scaling_search(
        &cfg,
        &mut trainer,
        s.scenario.adversary(),
        &s.scenario.dataset().test,
        &mut rng,
    )?;
    Ok((outcome, t0.elapsed().as_secs_f64() * 1e3))
}

pub fn run(args: &Args) -> Res<Report> {
    let s = setup()?;
    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut first: Option<SearchOutcome> = None;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (outcome, ms) = search_once(&s, args.seed)?;
        report.attempted += 1;
        walls.push(ms);
        match &first {
            None => first = Some(outcome),
            Some(f) => report.check(*f == outcome, || {
                "repeated searches returned different outcomes".into()
            }),
        }
    }
    let first = first.expect("at least one search ran");
    let best = first.best.as_ref().ok_or("search found no configuration")?;
    report.check(first.trace.len() == 36, || {
        format!(
            "search evaluated {} of 36 configurations",
            first.trace.len()
        )
    });
    report.set("setup_s", s.setup_s);
    report.set("throughput_per_s", per_second(first.trace.len(), &walls));
    report.set("latency_p50_ms", stats::median(&walls));
    report.set("latency_p90_ms", stats::quantile(&walls, 0.9));
    report.set("quality_pct", f64::from(best.outcome.robustness));
    Ok(report)
}

/// Mean fraction of non-zero input values over an encoded set.
fn input_density(set: &EncodedSet) -> f64 {
    let (mut nonzero, mut total) = (0usize, 0usize);
    for train in &set.trains {
        for frame in train.frames() {
            match frame {
                EncodedFrame::Spikes(s) => {
                    nonzero += s.nnz();
                    total += s.len();
                }
                EncodedFrame::Analog(t) => {
                    nonzero += t.as_slice().iter().filter(|v| **v != 0.0).count();
                    total += t.len();
                }
            }
        }
    }
    nonzero as f64 / total.max(1) as f64
}

/// Replays `precision_scaling_search`'s steps through the same public
/// functions, with a span around each layer call, and checks every
/// candidate's accuracies against the search's own trace.
fn replay(s: &Setup, seed: u64, reference: &SearchOutcome, report: &mut Report) -> Res<f64> {
    let cfg = search_config();
    let test = &s.scenario.dataset().test;
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let mut reference_records = reference.trace.iter();
    let root = trace::span("workload");
    let adv_data: Vec<(Tensor, usize)> = {
        let _s = trace::span("attacks.gradient");
        let attack = Pgd::new(AttackBudget::for_epsilon(cfg.epsilon));
        let mut ann_source = AnnGradientSource::new(s.scenario.adversary());
        let mut source = CountingGradientSource::new(&mut ann_source);
        test.iter()
            .map(|(image, label)| {
                Ok((
                    attack.perturb(&mut source, image, *label, &mut rng)?,
                    *label,
                ))
            })
            .collect::<Res<_>>()?
    };
    let cache_seed = rng.gen::<u64>();
    let grid_seed = rng.gen::<u64>();
    let clean_cache = EncodedCache::new(test, cache_seed, cfg.threads);
    let adv_cache = EncodedCache::new(&adv_data, cache_seed ^ 0xadf0_0d5e, cfg.threads);
    let steps = &cfg.space.time_steps;
    for cell in 0..cfg.space.thresholds.len() * steps.len() {
        let time_steps = steps[cell % steps.len()];
        let snn_cfg = SnnConfig {
            threshold: cfg.space.thresholds[cell / steps.len()],
            time_steps,
            leak: 0.9,
        };
        let mut cell_rng = StdRng::seed_from_u64(sample_seed(grid_seed, cell));
        let accurate = {
            let _s = trace::span("core.convert");
            ann_to_snn(s.scenario.ann(), snn_cfg, &s.calibration)?
        };
        let (clean_set, adv_set) = {
            let _s = trace::span("datasets.cache");
            (
                clean_cache.get(Encoder::DirectCurrent, time_steps)?,
                adv_cache.get(Encoder::DirectCurrent, time_steps)?,
            )
        };
        let fused = |set: &EncodedSet,
                     net: &axsnn::core::network::SpikingNetwork,
                     span: &'static str|
         -> Res<f32> {
            let _s = trace::span(span);
            trace::add("core.fused.sample_steps", (set.len() * time_steps) as f64);
            Ok(set.accuracy(net, cfg.threads)?)
        };
        // The quality gate's clean pass (Q = 0 never skips a cell).
        fused(&clean_set, &accurate, "core.fused.busy_ms.f32")?;
        let frames = {
            let _s = trace::span("core.encoding");
            Encoder::DirectCurrent.encode(&test[0].0, time_steps, &mut cell_rng)?
        };
        let stats = {
            let _s = trace::span("core.network");
            let mut stat_net = accurate.clone();
            let out = stat_net.forward(&frames, false, &mut cell_rng)?;
            trace::add("core.network.forward_calls", 1.0);
            trace::add(
                "core.network.spikes_out",
                f64::from(out.stats.total_spikes()),
            );
            out.stats
        };
        for &precision in &cfg.space.precision_scales {
            for &approx_scale in &cfg.space.approx_scales {
                let (candidate, pruned) = {
                    let _s = trace::span("core.precision");
                    let mut candidate = accurate.clone();
                    apply_precision(&mut candidate, precision)?;
                    let approx = apply_eq1_approximation(&mut candidate, &stats, approx_scale)?;
                    candidate.set_weight_plane(precision.weight_plane())?;
                    (candidate, approx.pruned_fraction())
                };
                let span = match precision {
                    PrecisionScale::Fp32 => "core.fused.busy_ms.f32",
                    PrecisionScale::Fp16 => "core.fused.busy_ms.f16",
                    PrecisionScale::Int8 => "core.fused.busy_ms.int8",
                };
                let clean = fused(&clean_set, &candidate, span)?;
                let adv = fused(&adv_set, &candidate, span)?;
                let expected = reference_records.next().map(|r| {
                    (
                        r.outcome.clean_accuracy,
                        r.outcome.adversarial_accuracy,
                        r.pruned_fraction,
                    )
                });
                report.check(expected == Some((clean, adv, pruned)), || {
                    format!(
                        "replayed candidate (V_th {}, T {time_steps}, {precision}, {approx_scale}) \
                         gave {:?}, the search trace {expected:?}",
                        snn_cfg.threshold,
                        (clean, adv, pruned)
                    )
                });
            }
        }
    }
    drop(root);
    report.check(reference_records.next().is_none(), || {
        "search trace has more candidates than the replay".into()
    });
    trace::add(
        "datasets.cache.encode_passes",
        (clean_cache.encode_passes() + adv_cache.encode_passes()) as f64,
    );
    let density = steps
        .iter()
        .map(|&t| Ok(input_density(&*clean_cache.get(Encoder::DirectCurrent, t)?)))
        .collect::<Res<Vec<f64>>>()?;
    Ok(stats::mean(&density))
}

/// `MnistScenario::prepare`'s steps with a span around each layer call,
/// recorded for the setup layers' figures.
pub fn traced_mnist_setup(cfg: &MnistScenarioConfig) -> Res<trace::Recording> {
    trace::start();
    let dataset = {
        let _s = trace::span("datasets.generate");
        SyntheticMnist::new(cfg.mnist).generate()
    };
    for model_seed in [cfg.seed, cfg.seed ^ 0xadbe_ef01] {
        let _s = trace::span("core.ann.train");
        let mut rng = StdRng::seed_from_u64(model_seed);
        let mut ann = mnist_mlp_ann(&mut rng, cfg.mnist.size);
        train_ann(&mut ann, &dataset.train, &cfg.train, &mut rng)?;
    }
    Ok(trace::stop())
}

pub fn run_traced(args: &Args) -> Res<Report> {
    let s = setup()?;
    let mut report = Report::default();
    let setup_rec = traced_mnist_setup(&scenario_config())?;
    report.set_setup_layers(&setup_rec, 1.0, 2.0);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut recordings = Vec::new();
    let mut density = 0.0;
    let t0 = Instant::now();
    while untraced.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (reference, ms) = search_once(&s, args.seed)?;
        untraced.push(ms);
        trace::start();
        let t = Instant::now();
        density = replay(&s, args.seed, &reference, &mut report)?;
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        recordings.push(trace::stop());
        report.attempted += 2;
    }
    let per_op = |f: &dyn Fn(&trace::Recording) -> f64| {
        stats::mean(&recordings.iter().map(f).collect::<Vec<_>>())
    };
    for name in [
        "core.fused.busy_ms.f32",
        "core.fused.busy_ms.f16",
        "core.fused.busy_ms.int8",
    ] {
        report.set(name, per_op(&|r| r.ms(name)));
    }
    for (metric, span) in [
        ("attacks.gradient.busy_ms", "attacks.gradient"),
        ("datasets.cache.busy_ms", "datasets.cache"),
        ("core.convert.busy_ms", "core.convert"),
        ("core.precision.busy_ms", "core.precision"),
        ("core.encoding.busy_ms", "core.encoding"),
        ("core.network.busy_ms", "core.network"),
    ] {
        report.set(metric, per_op(&|r| r.ms(span)));
    }
    for name in [
        "core.fused.sample_steps",
        "attacks.gradient.grad_calls",
        "datasets.cache.encode_passes",
        "core.network.forward_calls",
        "core.network.spikes_out",
    ] {
        report.set(name, per_op(&|r| r.count(name)));
    }
    report.set("datasets.cache.input_density", density);
    report.set_overhead(&untraced, &traced, per_op(&|r| r.coverage_pct("workload")));
    Ok(report)
}
