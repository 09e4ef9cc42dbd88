//! `serve_conv`: open-loop Poisson traffic from one generator thread
//! into `serve::InferenceService` serving the MNIST `PaperConv` 28×28
//! SNN at T = 32 — the only workload on the conv and max-pool kernels,
//! the admission queue and the degradation ladder.
//!
//! End-to-end figures: latency at a fixed nominal rate, answers per
//! second while the offered rate exceeds capacity, and the accuracy of
//! the served predictions. Rates and the limit are constants, never
//! derived from speed measured at run time. Each request is timed from
//! when it was *due*, so a stalled generator or service shows as
//! latency; a refused, shed, expired or hung request misses the limit.

use crate::trace;
use crate::{mix, stats, timed_setup, Args, Report, Res, FIXTURE_SEED, SETUP_REPS};
use axsnn::core::convert::ann_to_snn;
use axsnn::core::encoding::Encoder;
use axsnn::core::fused::BackwardOpts;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::PlanOverride;
use axsnn::core::train::{train_ann, TrainConfig};
use axsnn::datasets::mnist::{MnistConfig, SyntheticMnist};
use axsnn::defense::scenario::mnist_conv_ann;
use axsnn::serve::{
    DegradeConfig, InferenceService, Request, Response, ServeConfig, ServeError, ServiceLevel,
    Ticket,
};
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 32,
    leak: 0.9,
};
/// Latency limit on a request, from its due time; also each request's
/// deadline, so the service drops work whose client has given up.
const LIMIT_MS: f64 = 80.0;
/// Rate at which latency is reported, well below capacity.
const NOMINAL_RPS: f64 = 60.0;
/// Rate well past capacity (about twice what one core serves), where
/// the service's answer rate is its capacity, and where the traced run
/// drives the shipped ladder.
const OVERLOAD_RPS: f64 = 600.0;
/// Shares of `--seconds` given to the nominal and overload phases.
const NOMINAL_SHARE: f64 = 0.6;
const OVERLOAD_SHARE: f64 = 0.3;
/// How long after its last due time a phase waits for answers before
/// counting the rest as hung.
const GRACE: Duration = Duration::from_secs(2);

struct Setup {
    service: InferenceService,
    /// Request images and their labels (the test split).
    pool: Vec<(Tensor, usize)>,
    /// Direct `classify` of each pool image under the model's own plan.
    expected: Vec<usize>,
    net: SpikingNetwork,
    setup_s: f64,
}

/// The shipped service defaults, with as many workers as leave one
/// core to the generator and the deterministic encoder (so a served
/// prediction is checkable against one direct classify per image).
fn shipped_config() -> ServeConfig {
    let workers =
        std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1));
    ServeConfig {
        workers,
        encoder: Encoder::Deterministic,
        ..ServeConfig::default()
    }
}

/// The configuration the end-to-end phases serve with: the shipped one
/// except that the degraded rung keeps the model's own plan. The
/// shipped `ForceDense` rung runs this model ~30× slower, so one host
/// stall that lets the queue reach the rung collapses the service and
/// every figure after it; the traced run drives the shipped ladder past
/// capacity instead, where that collapse is the thing measured.
fn served_config() -> ServeConfig {
    let shipped = shipped_config();
    ServeConfig {
        degrade: DegradeConfig {
            degraded_plan: PlanOverride::Auto,
            ..shipped.degrade
        },
        ..shipped
    }
}

fn setup() -> Res<Setup> {
    let ((service, pool, net), setup_s) = timed_setup(|| {
        let dataset = {
            let _s = trace::span("datasets.generate");
            SyntheticMnist::new(MnistConfig {
                size: 28,
                train_per_class: 10,
                test_per_class: 8,
                seed: mix(FIXTURE_SEED, 31),
                ..MnistConfig::default()
            })
            .generate()
        };
        let mut rng = StdRng::seed_from_u64(mix(FIXTURE_SEED, 32));
        let mut ann = mnist_conv_ann(&mut rng, 28);
        let train = TrainConfig {
            epochs: 2,
            learning_rate: 0.1,
            momentum: 0.0,
            batch_size: 16,
            backward: BackwardOpts {
                threads: 1,
                ..BackwardOpts::default()
            },
            ..TrainConfig::default()
        };
        {
            let _s = trace::span("core.ann.train");
            train_ann(&mut ann, &dataset.train, &train, &mut rng)?;
        }
        let calibration: Vec<Tensor> = dataset
            .train
            .iter()
            .take(16)
            .map(|(x, _)| x.clone())
            .collect();
        let net = ann_to_snn(&ann, SNN, &calibration)?;
        let pool = dataset.test;
        let service = InferenceService::start(net.clone(), pool[0].0.clone(), served_config())?;
        Ok((service, pool, net))
    })?;
    let expected = classify_all(&mut net.clone(), &pool)?;
    Ok(Setup {
        service,
        pool,
        expected,
        net,
        setup_s,
    })
}

/// Direct `classify` of each image. The encoder is deterministic, so a
/// prediction depends on the image alone and one direct classify per
/// pool image covers every request seed.
fn classify_all(net: &mut SpikingNetwork, pool: &[(Tensor, usize)]) -> Res<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(0);
    pool.iter()
        .map(|(x, _)| Ok(net.classify(x, Encoder::Deterministic, &mut rng)?))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    RejectedFull,
    Shed,
    Expired,
    Hung,
    Other,
}

enum Outcome {
    Pending(Ticket),
    Done { at: Instant, response: Response },
    Failed(Failure),
}

struct Sent {
    due: Instant,
    submitted: Instant,
    image: usize,
    outcome: Outcome,
}

fn failure(e: &ServeError) -> Failure {
    match e {
        ServeError::QueueFull { .. } => Failure::RejectedFull,
        ServeError::Shed { .. } => Failure::Shed,
        ServeError::DeadlineExpired { .. } => Failure::Expired,
        _ => Failure::Other,
    }
}

/// The outcome a ticket's answer resolves to, harvested at `at`.
fn resolved(answer: Result<Response, ServeError>, at: Instant) -> Outcome {
    match answer {
        Ok(response) => Outcome::Done { at, response },
        Err(e) => Outcome::Failed(failure(&e)),
    }
}

/// One open-loop phase: Poisson arrivals at `rate` for `seconds`,
/// scheduled up front from `rng` and submitted by this thread at their
/// due times. Between sends the thread waits on the oldest ticket, but
/// never past the next due time, so a slow answer cannot delay a send;
/// every other ticket is polled without blocking.
fn run_phase(
    service: &InferenceService,
    pool: &[(Tensor, usize)],
    rate: f64,
    seconds: f64,
    rng: &mut StdRng,
) -> Vec<Sent> {
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            break;
        }
        schedule.push((t, rng.gen_range(0..pool.len()), rng.gen::<u64>()));
    }
    let start = Instant::now() + Duration::from_millis(1);
    let give_up = start + Duration::from_secs_f64(seconds) + GRACE;
    let mut sent: Vec<Sent> = Vec::with_capacity(schedule.len());
    let mut in_flight: Vec<usize> = Vec::new();
    let mut next = schedule.iter().peekable();
    loop {
        in_flight.retain(|&i| {
            let Outcome::Pending(ticket) = &sent[i].outcome else {
                return false;
            };
            match ticket.wait_timeout(Duration::ZERO) {
                None => true,
                Some(answer) => {
                    sent[i].outcome = resolved(answer, Instant::now());
                    false
                }
            }
        });
        let now = Instant::now();
        let wake = match next.peek() {
            Some(&&(offset, image, seed)) => {
                let due = start + Duration::from_secs_f64(offset);
                if now >= due {
                    next.next();
                    let request = Request::new(pool[image].0.clone(), seed)
                        .with_deadline(Duration::from_secs_f64(LIMIT_MS / 1e3));
                    let submitted = Instant::now();
                    let outcome = match service.submit(request) {
                        Ok(ticket) => {
                            in_flight.push(sent.len());
                            Outcome::Pending(ticket)
                        }
                        Err(e) => Outcome::Failed(failure(&e)),
                    };
                    sent.push(Sent {
                        due,
                        submitted,
                        image,
                        outcome,
                    });
                    continue;
                }
                due
            }
            None if in_flight.is_empty() => break,
            None if now >= give_up => {
                for &i in &in_flight {
                    sent[i].outcome = Outcome::Failed(Failure::Hung);
                }
                break;
            }
            None => give_up,
        };
        let wait = wake - now;
        match in_flight.first() {
            Some(&oldest) => {
                if let Outcome::Pending(ticket) = &sent[oldest].outcome {
                    if let Some(answer) = ticket.wait_timeout(wait) {
                        sent[oldest].outcome = resolved(answer, Instant::now());
                    }
                }
            }
            None => std::thread::sleep(wait),
        }
    }
    sent
}

/// Latency from due time in ms; a failed request counts as the whole
/// phase plus grace, past any limit.
fn latencies(sent: &[Sent], seconds: f64) -> Vec<f64> {
    let miss = (seconds + GRACE.as_secs_f64()) * 1e3;
    sent.iter()
        .map(|r| match &r.outcome {
            Outcome::Done { at, .. } => (*at - r.due).as_secs_f64() * 1e3,
            _ => miss,
        })
        .collect()
}

/// Checks every served prediction against direct `classify` under the
/// plan of the level that served it; returns the failed requests.
fn check(s: &Setup, sent: &[Sent], config: &ServeConfig, report: &mut Report) -> Res<u64> {
    // Direct classification under a degraded plan can be slow
    // (`ForceDense`), so it runs only once an image is served there.
    let mut degraded: Option<Vec<usize>> = None;
    let mut failed = 0;
    for r in sent {
        match &r.outcome {
            Outcome::Done { response, .. } => {
                let expected = if response.level >= ServiceLevel::DegradedPlan {
                    if degraded.is_none() {
                        let mut net = s.net.clone();
                        net.apply_plan(config.degrade.degraded_plan);
                        degraded = Some(classify_all(&mut net, &s.pool)?);
                    }
                    degraded.as_ref().expect("filled above")[r.image]
                } else {
                    s.expected[r.image]
                };
                report.check(response.prediction == expected, || {
                    format!(
                        "served prediction {} at {:?} != direct classify {expected}",
                        response.prediction, response.level
                    )
                });
            }
            _ => failed += 1,
        }
    }
    report.attempted += sent.len() as u64;
    Ok(failed)
}

/// Share of `sent` answered within the limit.
fn within_limit(sent: &[Sent], seconds: f64) -> f64 {
    let lat = latencies(sent, seconds);
    lat.iter().filter(|&&ms| ms <= LIMIT_MS).count() as f64 / lat.len().max(1) as f64
}

/// Accuracy of the answered requests' predictions against the labels
/// of their images, in percent.
fn served_accuracy<'a>(s: &Setup, sent: impl Iterator<Item = &'a Sent>) -> f64 {
    let (mut answered, mut correct) = (0usize, 0usize);
    for r in sent {
        if let Outcome::Done { response, .. } = &r.outcome {
            answered += 1;
            correct += usize::from(response.prediction == s.pool[r.image].1);
        }
    }
    100.0 * correct as f64 / answered.max(1) as f64
}

pub fn run(args: &Args) -> Res<Report> {
    let s = setup()?;
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 33));
    let nominal_s = NOMINAL_SHARE * args.seconds;
    let nominal = run_phase(&s.service, &s.pool, NOMINAL_RPS, nominal_s, &mut rng);
    let overload_s = OVERLOAD_SHARE * args.seconds;
    let overload = run_phase(&s.service, &s.pool, OVERLOAD_RPS, overload_s, &mut rng);
    s.service.shutdown();
    // A failure at the nominal rate is a failed operation; past capacity
    // refusals and expiries are the expected outcome.
    let config = served_config();
    report.failed += check(&s, &nominal, &config, &mut report)?;
    check(&s, &overload, &config, &mut report)?;

    let answered = |sent: &[Sent]| {
        sent.iter()
            .filter(|r| matches!(r.outcome, Outcome::Done { .. }))
            .count()
    };
    let lat = latencies(&nominal, nominal_s);
    println!(
        "nominal {NOMINAL_RPS} req/s: {} requests, {:.2}% within {LIMIT_MS} ms",
        nominal.len(),
        100.0 * within_limit(&nominal, nominal_s)
    );
    println!(
        "overload {OVERLOAD_RPS} req/s: {} of {} requests answered",
        answered(&overload),
        overload.len()
    );
    report.set("setup_s", s.setup_s);
    report.set("throughput_per_s", answered(&overload) as f64 / overload_s);
    report.set("latency_p50_ms", stats::median(&lat));
    report.set("latency_p90_ms", stats::quantile(&lat, 0.9));
    report.set(
        "quality_pct",
        served_accuracy(&s, nominal.iter().chain(&overload)),
    );
    Ok(report)
}

pub fn run_traced(args: &Args) -> Res<Report> {
    trace::start();
    let s = setup()?;
    let mut report = Report::default();
    // One conv model trained per setup repetition.
    report.set_setup_layers(&trace::stop(), SETUP_REPS as f64, 1.0);
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 33));

    // Where a request's latency goes, at the nominal rate.
    let nominal_s = 0.5 * NOMINAL_SHARE * args.seconds;
    let nominal = run_phase(&s.service, &s.pool, NOMINAL_RPS, nominal_s, &mut rng);
    s.service.shutdown();
    report.failed += check(&s, &nominal, &served_config(), &mut report)?;
    let (mut wait, mut exec, mut batch, mut late) = (vec![], vec![], vec![], vec![]);
    let (mut covered, mut total) = (0.0, 0.0);
    for r in &nominal {
        late.push((r.submitted - r.due).as_secs_f64() * 1e3);
        if let Outcome::Done { at, response } = &r.outcome {
            let q = response.queue_wait.as_secs_f64() * 1e3;
            let e = (*at - r.submitted).as_secs_f64() * 1e3 - q;
            wait.push(q);
            exec.push(e);
            batch.push(response.batch_size as f64);
            covered += q + e;
            total += (*at - r.due).as_secs_f64() * 1e3;
        }
    }
    report.set("serve.queue_wait_ms.p50", stats::median(&wait));
    report.set("serve.queue_wait_ms.p99", stats::quantile(&wait, 0.99));
    report.set("serve.exec_ms.p50", stats::median(&exec));
    report.set("serve.exec_ms.p99", stats::quantile(&exec, 0.99));
    report.set("serve.batch_size.mean", stats::mean(&batch));
    report.set("gen.late_ms.p99", stats::quantile(&late, 0.99));

    // The shipped ladder past capacity.
    let shipped = shipped_config();
    let overload_s = OVERLOAD_SHARE * args.seconds;
    let service = InferenceService::start(s.net.clone(), s.pool[0].0.clone(), shipped.clone())?;
    let overload = run_phase(&service, &s.pool, OVERLOAD_RPS, overload_s, &mut rng);
    service.shutdown();
    check(&s, &overload, &shipped, &mut report)?;
    report.set(
        "serve.overload_goodput_pct",
        100.0 * within_limit(&overload, overload_s),
    );
    let mut levels = [0usize; 4];
    let mut failures = [0usize; 5];
    for r in &overload {
        match &r.outcome {
            Outcome::Done { response, .. } => levels[response.level.index()] += 1,
            Outcome::Failed(f) => failures[*f as usize] += 1,
            Outcome::Pending(_) => unreachable!("run_phase resolves every request"),
        }
    }
    let served = levels.iter().sum::<usize>().max(1) as f64;
    for (name, level) in [
        ("full", ServiceLevel::Full),
        ("shrunk_window", ServiceLevel::ShrunkWindow),
        ("degraded_plan", ServiceLevel::DegradedPlan),
        ("shedding", ServiceLevel::Shedding),
    ] {
        report.set(
            &format!("serve.level_share.{name}"),
            levels[level.index()] as f64 / served,
        );
    }
    for (name, f) in [
        ("rejected_full", Failure::RejectedFull),
        ("shed", Failure::Shed),
        ("expired", Failure::Expired),
        ("hung", Failure::Hung),
    ] {
        report.set(&format!("serve.failed.{name}"), failures[f as usize] as f64);
    }

    // Layer costs on the served model at fixed batch sizes.
    let mut rng0 = StdRng::seed_from_u64(0);
    let t = Instant::now();
    for (x, _) in &s.pool {
        Encoder::Deterministic.encode(x, SNN.time_steps, &mut rng0)?;
    }
    report.set(
        "core.encoding.busy_ms",
        t.elapsed().as_secs_f64() * 1e3 / s.pool.len() as f64,
    );
    for b in [1usize, 8, 32] {
        let images: Vec<Tensor> = s.pool[..b].iter().map(|(x, _)| x.clone()).collect();
        let mut times = Vec::new();
        // Worker clones share the layers' fallback counters, so the
        // fused path's kernel choices show on `s.net`.
        let before = s.net.dense_fallback_counts();
        for _ in 0..3 {
            let t = Instant::now();
            s.net
                .classify_images_fused(&images, Encoder::Deterministic, 0, 1, b)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        report.set(&format!("core.fused.busy_ms.b{b}"), stats::median(&times));
        let row_steps = (times.len() * b * SNN.time_steps) as f64;
        let fallbacks: Vec<String> = s
            .net
            .dense_fallback_counts()
            .iter()
            .zip(&before)
            .map(|(now, then)| format!("{:.3}", (now - then) as f64 / row_steps))
            .collect();
        println!(
            "fused B={b}: dense fallback share of row-steps per layer [{}]",
            fallbacks.join(", ")
        );
    }
    // Untraced and traced serving differ only in the response fields
    // kept, so the "wall" is the nominal phase's median latency.
    let lat = latencies(&nominal, nominal_s);
    report.set_overhead(
        &[stats::median(&lat)],
        &[stats::median(&lat)],
        100.0 * covered / total.max(f64::MIN_POSITIVE),
    );
    let inputs = s
        .pool
        .iter()
        .map(|(x, _)| Encoder::Deterministic.encode(x, SNN.time_steps, &mut rng0))
        .collect::<Result<Vec<_>, _>>()?;
    report.kernel_record(&mut s.net.clone(), &inputs)?;
    Ok(report)
}
