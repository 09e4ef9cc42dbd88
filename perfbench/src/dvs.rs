//! `dvs_attack`: the Table II grid as `examples/dvs_gesture_defense.rs`
//! runs it — `evaluate_event_attack_via` over {None, Sparse, Frame} ×
//! {AccSNN, AxSNN} × {no AQF, AQF} on the offline frame pipeline, DVS
//! `FastMlp` 32×32 at T = 32 — followed by replays of every clean test
//! stream through a live `StreamSession`. Almost all of it is B = 1
//! work: the Sparse attack's surrogate queries and the victims'
//! per-sample forwards.

use crate::trace::{self, CountingEventModel, TracedSnnModel};
use crate::{mix, per_second, stats, timed_setup, Args, Report, Res, FIXTURE_SEED};
use axsnn::attacks::neuromorphic::{
    EventModel, FrameAttack, FrameAttackConfig, SnnEventModel, SparseAttack, SparseAttackConfig,
};
use axsnn::core::approx::ApproximationLevel;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::train::train_ann;
use axsnn::datasets::dvs::{DvsGestureConfig, SyntheticDvsGestures};
use axsnn::defense::metrics::{evaluate_event_attack_via, EventAttackKind, EventPipeline};
use axsnn::defense::scenario::{dvs_mlp_ann, mean_frame_image, DvsScenario, DvsScenarioConfig};
use axsnn::neuromorphic::aqf::{approximate_quantized_filter, AqfConfig};
use axsnn::neuromorphic::event::EventStream;
use axsnn::neuromorphic::frames::{accumulate_frames, Accumulation};
use axsnn::neuromorphic::stream::{StreamConfig, StreamSession, WindowSchedule};
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 32,
    leak: 0.9,
};
const SURROGATE: SnnConfig = SnnConfig {
    threshold: 0.75,
    time_steps: 24,
    leak: 0.9,
};
/// Victim columns in Table II order: (approximate, AQF).
const COLUMNS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];
/// Clean-stream replays through `StreamSession` per grid.
const STREAM_PASSES: usize = 8;

fn scenario_config() -> DvsScenarioConfig {
    let mut cfg = DvsScenarioConfig {
        dvs: DvsGestureConfig {
            train_per_class: 8,
            test_per_class: 3,
            seed: mix(FIXTURE_SEED, 11),
            ..DvsGestureConfig::default()
        },
        seed: mix(FIXTURE_SEED, 12),
        ..DvsScenarioConfig::default()
    };
    cfg.train.backward.threads = 1;
    cfg
}

fn attacks() -> [EventAttackKind; 3] {
    [
        EventAttackKind::None,
        EventAttackKind::Sparse(SparseAttack::new(SparseAttackConfig::default())),
        EventAttackKind::Frame(FrameAttack::new(FrameAttackConfig {
            thickness: 2,
            ..FrameAttackConfig::default()
        })),
    ]
}

fn aqf_config() -> AqfConfig {
    AqfConfig {
        quantization_step: 0.015,
        ..AqfConfig::default()
    }
}

struct Setup {
    test: Vec<(EventStream, usize)>,
    acc: SpikingNetwork,
    ax: SpikingNetwork,
    surrogate: SpikingNetwork,
    setup_s: f64,
}

fn setup() -> Res<Setup> {
    let ((test, acc, ax, surrogate), setup_s) = timed_setup(|| {
        let scenario = DvsScenario::prepare(scenario_config())?;
        let level = ApproximationLevel::new(0.1).ok_or("invalid approximation level")?;
        Ok((
            scenario.dataset().test.clone(),
            scenario.acc_snn(SNN)?,
            scenario.ax_snn(SNN, level)?,
            scenario.acc_snn(SURROGATE)?,
        ))
    })?;
    Ok(Setup {
        test,
        acc,
        ax,
        surrogate,
        setup_s,
    })
}

/// The 12 adversarial (and clean) accuracies of one grid, in
/// attack-major, Table II column order.
fn grid(s: &Setup, seed: u64) -> Res<Vec<(f32, f32)>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 13));
    let aqf = aqf_config();
    let mut out = Vec::with_capacity(12);
    for attack in attacks() {
        for (approx, use_aqf) in COLUMNS {
            let mut victim = if approx { s.ax.clone() } else { s.acc.clone() };
            let outcome = evaluate_event_attack_via(
                &mut victim,
                &mut s.surrogate.clone(),
                attack,
                &s.test,
                use_aqf.then_some(&aqf),
                EventPipeline::OfflineFrames,
                &mut rng,
            )?;
            out.push((outcome.clean_accuracy, outcome.adversarial_accuracy));
        }
    }
    Ok(out)
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        schedule: WindowSchedule::Uniform {
            time_steps: SNN.time_steps,
        },
        mode: Accumulation::Binary,
        aqf: None,
    }
}

/// Replays one stream through a live session; returns the prediction
/// and the time from the first event pushed to `finish`, in ms.
fn stream_decision(net: &mut SpikingNetwork, stream: &EventStream) -> Res<(usize, f64)> {
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let t0 = Instant::now();
    let mut session = StreamSession::begin(net, stream.width(), stream.height(), stream_config())?;
    for e in stream.events() {
        session.push(*e, &mut rng)?;
    }
    let outcome = session.finish(&mut rng)?;
    Ok((outcome.prediction, t0.elapsed().as_secs_f64() * 1e3))
}

/// Test streams in time order (what a sensor delivers) with the
/// offline `SnnEventModel` prediction of the AccSNN for each.
fn stream_inputs(s: &Setup) -> Res<Vec<(EventStream, usize)>> {
    let mut net = s.acc.clone();
    s.test
        .iter()
        .map(|(stream, _)| {
            let mut ordered = stream.clone();
            ordered.sort_by_time();
            let offline = SnnEventModel::new(&mut net).predict(stream)?;
            Ok((ordered, offline))
        })
        .collect()
}

pub fn run(args: &Args) -> Res<Report> {
    let s = setup()?;
    let streams = stream_inputs(&s)?;
    let mut report = Report::default();
    let mut net = s.acc.clone();
    let mut grid_ms = Vec::new();
    let mut decisions = Vec::new();
    let mut first: Option<Vec<(f32, f32)>> = None;
    let t0 = Instant::now();
    while first.is_none() || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let accuracies = grid(&s, args.seed)?;
        grid_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 12;
        match &first {
            None => first = Some(accuracies),
            Some(f) => report.check(*f == accuracies, || {
                "repeated grids returned different accuracies".into()
            }),
        }
        for _ in 0..STREAM_PASSES {
            for (stream, offline) in &streams {
                let (prediction, ms) = stream_decision(&mut net, stream)?;
                report.attempted += 1;
                decisions.push(ms);
                report.check(prediction == *offline, || {
                    format!("streamed prediction {prediction} != offline {offline}")
                });
            }
        }
    }
    let first = first.expect("at least one grid ran");
    report.set("setup_s", s.setup_s);
    report.set("throughput_per_s", per_second(12 * s.test.len(), &grid_ms));
    report.set("latency_p50_ms", stats::median(&decisions));
    report.set("latency_p90_ms", stats::quantile(&decisions, 0.9));
    // Row Sparse (attack 1), column AxSNN+AQF (3).
    report.set("quality_pct", f64::from(first[4 + 3].1));
    Ok(report)
}

/// Classifies as the offline victim pipeline does — optional AQF, then
/// `SnnEventModel` — with spans around each layer.
fn traced_classify(
    victim: &mut SpikingNetwork,
    stream: &EventStream,
    aqf: Option<&AqfConfig>,
) -> Res<usize> {
    let filtered;
    let input = match aqf {
        Some(cfg) => {
            let _s = trace::span("neuromorphic.aqf");
            let (f, r) = approximate_quantized_filter(stream, cfg)?;
            trace::add("aqf.removed", (r.input_events - r.kept_events) as f64);
            trace::add("aqf.input", r.input_events as f64);
            filtered = f;
            &filtered
        }
        None => stream,
    };
    Ok(TracedSnnModel::new(victim).predict(input)?)
}

/// Replays `evaluate_event_attack_via`'s loop over the grid with spans
/// and counting adapters, checking each cell's accuracies against the
/// untraced grid, then the stream replays.
fn replay(
    s: &Setup,
    seed: u64,
    reference: &[(f32, f32)],
    streams: &[(EventStream, usize)],
    report: &mut Report,
) -> Res<()> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 13));
    let aqf = aqf_config();
    let n = s.test.len() as f32;
    let _root = trace::span("workload");
    let mut cell = 0;
    for attack in attacks() {
        for (approx, use_aqf) in COLUMNS {
            let mut victim = if approx { s.ax.clone() } else { s.acc.clone() };
            let mut surrogate = s.surrogate.clone();
            let (mut clean_ok, mut adv_ok) = (0usize, 0usize);
            for (stream, label) in &s.test {
                let adversarial = match attack {
                    EventAttackKind::None => stream.clone(),
                    EventAttackKind::Sparse(a) => {
                        let _s = trace::span("attacks.neuromorphic.sparse");
                        let mut model =
                            CountingEventModel::new(TracedSnnModel::new(&mut surrogate));
                        a.perturb(&mut model, stream, *label, &mut rng)?
                    }
                    EventAttackKind::Frame(a) => {
                        let _s = trace::span("attacks.neuromorphic.frame");
                        a.perturb(stream)?
                    }
                };
                let filter = use_aqf.then_some(&aqf);
                clean_ok += usize::from(traced_classify(&mut victim, stream, filter)? == *label);
                let adv = traced_classify(&mut victim, &adversarial, filter)?;
                adv_ok += usize::from(adv == *label);
                if matches!(attack, EventAttackKind::Sparse(_)) {
                    trace::add("sparse.crafted", 1.0);
                    trace::add("sparse.flipped", f64::from(u8::from(adv != *label)));
                }
            }
            let got = (100.0 * clean_ok as f32 / n, 100.0 * adv_ok as f32 / n);
            report.check(got == reference[cell], || {
                format!(
                    "replayed grid cell {cell} gave {got:?}, the grid {:?}",
                    reference[cell]
                )
            });
            cell += 1;
        }
    }
    let mut net = s.acc.clone();
    for (stream, offline) in streams {
        let _s = trace::span("neuromorphic.stream");
        let (prediction, _) = stream_decision(&mut net, stream)?;
        trace::add("stream.events", stream.len() as f64);
        report.check(prediction == *offline, || {
            format!("streamed prediction {prediction} != offline {offline}")
        });
    }
    Ok(())
}

/// `DvsScenario::prepare`'s steps with a span around each layer call,
/// recorded for the setup layers' figures.
fn traced_setup() -> Res<trace::Recording> {
    let cfg = scenario_config();
    trace::start();
    let dataset = {
        let _s = trace::span("datasets.generate");
        SyntheticDvsGestures::new(cfg.dvs).generate()
    };
    let images: Vec<(Tensor, usize)> = dataset
        .train
        .iter()
        .map(|(s, l)| Ok((mean_frame_image(s, cfg.rate_time_steps)?, *l)))
        .collect::<Res<_>>()?;
    for model_seed in [cfg.seed, cfg.seed ^ 0xadbe_ef01] {
        let _s = trace::span("core.ann.train");
        let mut rng = StdRng::seed_from_u64(model_seed);
        let mut ann = dvs_mlp_ann(&mut rng, cfg.dvs.width);
        train_ann(&mut ann, &images, &cfg.train, &mut rng)?;
    }
    Ok(trace::stop())
}

pub fn run_traced(args: &Args) -> Res<Report> {
    let s = setup()?;
    let streams = stream_inputs(&s)?;
    let mut report = Report::default();
    report.set_setup_layers(&traced_setup()?, 1.0, 2.0);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut recordings = Vec::new();
    let mut fallbacks = Vec::new();
    let t0 = Instant::now();
    while untraced.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let reference = grid(&s, args.seed)?;
        let mut net = s.acc.clone();
        for (stream, _) in &streams {
            stream_decision(&mut net, stream)?;
        }
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        let before = [&s.acc, &s.ax, &s.surrogate].map(SpikingNetwork::total_dense_fallbacks);
        trace::start();
        let t = Instant::now();
        replay(&s, args.seed, &reference, &streams, &mut report)?;
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        recordings.push(trace::stop());
        let after = [&s.acc, &s.ax, &s.surrogate].map(SpikingNetwork::total_dense_fallbacks);
        fallbacks.push(
            after
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b) as f64)
                .sum::<f64>(),
        );
        report.attempted += 24 + 2 * streams.len() as u64;
    }
    let per_op = |f: &dyn Fn(&trace::Recording) -> f64| {
        stats::mean(&recordings.iter().map(f).collect::<Vec<_>>())
    };
    for (metric, span) in [
        (
            "attacks.neuromorphic.sparse.busy_ms",
            "attacks.neuromorphic.sparse",
        ),
        (
            "attacks.neuromorphic.frame.busy_ms",
            "attacks.neuromorphic.frame",
        ),
        ("neuromorphic.frames.busy_ms", "neuromorphic.frames"),
        ("core.network.busy_ms", "core.network"),
        ("neuromorphic.aqf.busy_ms", "neuromorphic.aqf"),
        ("neuromorphic.stream.busy_ms", "neuromorphic.stream"),
    ] {
        report.set(metric, per_op(&|r| r.ms(span)));
    }
    for name in [
        "attacks.neuromorphic.sparse.queries",
        "core.network.forward_calls",
        "core.network.spikes_out",
    ] {
        report.set(name, per_op(&|r| r.count(name)));
    }
    report.set("core.network.dense_fallbacks", stats::mean(&fallbacks));
    report.set(
        "attacks.neuromorphic.sparse.flip_frac",
        per_op(&|r| r.count("sparse.flipped") / r.count("sparse.crafted")),
    );
    report.set(
        "neuromorphic.aqf.removed_frac",
        per_op(&|r| r.count("aqf.removed") / r.count("aqf.input")),
    );
    report.set(
        "neuromorphic.stream.events_per_s",
        per_op(&|r| r.count("stream.events") / (r.ms("neuromorphic.stream") / 1e3)),
    );
    report.set_overhead(&untraced, &traced, per_op(&|r| r.coverage_pct("workload")));
    // The AccSNN victim on clean and on Frame-attacked streams: the
    // border flood is what pushes layers onto the dense fallback.
    let frame_attack = FrameAttack::new(FrameAttackConfig {
        thickness: 2,
        ..FrameAttackConfig::default()
    });
    let mut inputs = Vec::with_capacity(2 * s.test.len());
    for (stream, _) in &s.test {
        for input in [stream.clone(), frame_attack.perturb(stream)?] {
            inputs.push(accumulate_frames(
                &input,
                SNN.time_steps,
                Accumulation::Binary,
            )?);
        }
    }
    report.kernel_record(&mut s.acc.clone(), &inputs)?;
    Ok(report)
}
