//! Service-level equivalence and robustness pins.
//!
//! The load-bearing guarantee: micro-batching is a *scheduling*
//! optimization, never a semantic one. For any interleaving of
//! concurrent requests, any batch composition, any window size and the
//! `ForceDense` degradation state, served predictions are bit-identical
//! to the direct `classify_batch_fused` / `classify` paths with the
//! same per-request seed. Plus regressions for every robustness
//! property: deadline expiry, panic isolation + respawn, hot-swap
//! rollback, backpressure, priority shedding and non-finite input.

use axsnn_core::encoding::Encoder;
use axsnn_core::fused::FrameTrain;
use axsnn_core::io::{save_network, snapshot_network};
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::PlanOverride;
use axsnn_serve::{
    run_open_loop, DegradeConfig, InferenceService, Priority, Request, ServeConfig, ServeError,
    ServiceLevel, TrafficConfig, TrafficPhase,
};
use axsnn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const INPUT: usize = 8;
const CLASSES: usize = 3;
const TIME_STEPS: usize = 5;

fn make_net(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SnnConfig {
        threshold: 1.0,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, INPUT, 10, &cfg),
            Layer::output_linear(&mut rng, 10, CLASSES),
        ],
        cfg,
    )
    .expect("valid net")
}

fn probe() -> Tensor {
    Tensor::full(&[INPUT], 0.5)
}

fn make_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
    let data: Vec<f32> = (0..INPUT).map(|_| rng.gen::<f32>()).collect();
    Tensor::from_vec(data, &[INPUT]).expect("image")
}

/// The reference path: per-sample `classify` with the same seed the
/// service uses for encoding.
fn direct_prediction(net: &SpikingNetwork, image: &Tensor, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    net.clone()
        .classify(image, Encoder::Deterministic, &mut rng)
        .expect("direct classify")
}

/// The reference fused path, one row per request.
fn direct_fused(net: &SpikingNetwork, requests: &[(Tensor, u64)]) -> Vec<usize> {
    let trains: Vec<FrameTrain> = requests
        .iter()
        .map(|(image, seed)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            FrameTrain::encode(image, Encoder::Deterministic, TIME_STEPS, &mut rng).expect("encode")
        })
        .collect();
    net.clone().classify_batch_fused(&trains).expect("fused")
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        batch_window: Duration::from_millis(1),
        max_batch: 8,
        encoder: Encoder::Deterministic,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of concurrent submitters, any window size, any
    /// batch cap, any worker count — and optionally the ForceDense
    /// degradation state — serves predictions bit-identical to the
    /// direct per-sample path.
    #[test]
    fn served_equals_direct_under_any_interleaving(
        n_requests in 1usize..20,
        window_us in 0u64..2_000,
        max_batch in 1usize..8,
        workers in 1usize..4,
        submitters in 1usize..4,
        force_dense in proptest::bool::ANY,
        net_seed in 0u64..50,
    ) {
        let net = make_net(net_seed);
        let mut config = base_config();
        config.workers = workers;
        config.batch_window = Duration::from_micros(window_us);
        config.max_batch = max_batch;
        if force_dense {
            // Ladder pinned at DegradedPlan: occupancy >= 0 always
            // crosses a zero threshold, and shed_at 1.01 is unreachable.
            config.degrade = DegradeConfig {
                shrink_at: 0.0,
                degrade_at: 0.0,
                shed_at: 1.0,
                degraded_plan: PlanOverride::ForceDense,
                ..DegradeConfig::default()
            };
        }
        let service = InferenceService::start(net.clone(), probe(), config).expect("start");
        let requests: Vec<(Tensor, u64)> = (0..n_requests)
            .map(|i| (make_image(i as u64), 1000 + i as u64))
            .collect();
        let expected: Vec<usize> = requests
            .iter()
            .map(|(image, seed)| direct_prediction(&net, image, *seed))
            .collect();
        prop_assert_eq!(&expected, &direct_fused(&net, &requests));

        let mut served = vec![usize::MAX; n_requests];
        std::thread::scope(|scope| {
            let chunk = n_requests.div_ceil(submitters);
            type Lane<'a> = (usize, &'a [(Tensor, u64)], &'a mut [usize]);
            let mut work: Vec<Lane> = Vec::new();
            let mut rest = served.as_mut_slice();
            for (lane, reqs) in requests.chunks(chunk).enumerate() {
                let (head, tail) = rest.split_at_mut(reqs.len());
                rest = tail;
                work.push((lane * chunk, reqs, head));
            }
            for (_, reqs, out) in work {
                let service = &service;
                scope.spawn(move || {
                    let tickets: Vec<_> = reqs
                        .iter()
                        .map(|(image, seed)| {
                            service
                                .submit(Request::new(image.clone(), *seed))
                                .expect("capacity 64 never fills here")
                        })
                        .collect();
                    for (slot, ticket) in out.iter_mut().zip(tickets) {
                        *slot = ticket.wait().expect("served").prediction;
                    }
                });
            }
        });
        prop_assert_eq!(&served, &expected);
        if force_dense {
            prop_assert!(service.level() >= ServiceLevel::DegradedPlan);
        }
        let m = service.metrics();
        prop_assert_eq!(m.completed, n_requests as u64);
        service.shutdown();
    }
}

#[test]
fn expired_deadline_is_dropped_before_execution() {
    let net = make_net(3);
    let service = InferenceService::start(net, probe(), base_config()).expect("start");
    // A zero deadline is already expired by dispatch time: the service
    // must answer DeadlineExpired without running the model.
    let ticket = service
        .submit(Request::new(make_image(0), 1).with_deadline(Duration::ZERO))
        .expect("admitted");
    match ticket.wait() {
        Err(ServeError::DeadlineExpired { .. }) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let m = service.metrics();
    assert_eq!(m.expired, 1);
    assert_eq!(m.completed, 0);
    // The service keeps serving healthy traffic afterwards.
    let r = service.classify_blocking(make_image(1), 2).expect("served");
    assert!(r.prediction < CLASSES);
    service.shutdown();
}

#[test]
fn poisoned_request_fails_alone_and_worker_respawns() {
    let net = make_net(4);
    let mut config = base_config();
    config.workers = 1;
    config.batch_window = Duration::from_millis(30);
    config.max_batch = 8;
    let service = InferenceService::start(net.clone(), probe(), config).expect("start");

    // Submit normals + one poison quickly so they coalesce into one
    // batch on the single worker.
    let normals: Vec<(Tensor, u64)> = (0..4).map(|i| (make_image(i), 40 + i)).collect();
    let mut tickets = Vec::new();
    for (image, seed) in &normals {
        tickets.push(service.submit(Request::new(image.clone(), *seed)).unwrap());
    }
    let poison_ticket = service
        .submit(Request::new(make_image(99), 999).poisoned())
        .unwrap();

    // Every healthy batch mate still gets its bit-exact answer.
    for (ticket, (image, seed)) in tickets.into_iter().zip(&normals) {
        let response = ticket.wait().expect("batch mates must be served");
        assert_eq!(response.prediction, direct_prediction(&net, image, *seed));
    }
    // The poisoned request fails alone, typed as a worker panic.
    match poison_ticket.wait() {
        Err(ServeError::WorkerPanicked { payload }) => {
            assert!(payload.contains("injected poison"), "{payload}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let m = service.metrics();
    assert!(m.batch_panics >= 1, "batch panic recorded: {m:?}");
    assert!(m.worker_respawns >= 1, "respawn recorded: {m:?}");
    assert!(m.poisoned_failed >= 1, "poison pinned: {m:?}");
    // And the respawned worker serves follow-up traffic correctly.
    let follow = make_image(7);
    let r = service
        .classify_blocking(follow.clone(), 77)
        .expect("alive");
    assert_eq!(r.prediction, direct_prediction(&net, &follow, 77));
    service.shutdown();
}

#[test]
fn hot_swap_validates_and_rolls_back() {
    let net_a = make_net(10);
    let net_b = make_net(11);
    let service = InferenceService::start(net_a.clone(), probe(), base_config()).expect("start");
    assert_eq!(service.generation(), 1);

    // A valid swap bumps the generation and serves the new weights.
    let generation = service.swap_model(net_b.clone()).expect("valid swap");
    assert_eq!(generation, 2);
    let image = make_image(5);
    let r = service
        .classify_blocking(image.clone(), 55)
        .expect("served");
    assert_eq!(r.prediction, direct_prediction(&net_b, &image, 55));
    assert_eq!(r.generation, 2);

    // A wrong-shape candidate is rejected by the probe smoke test and
    // rolled back: the old model keeps serving.
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = SnnConfig {
        threshold: 1.0,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    let wrong_shape = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, INPUT + 1, 4, &cfg),
            Layer::output_linear(&mut rng, 4, CLASSES),
        ],
        cfg,
    )
    .unwrap();
    match service.swap_model(wrong_shape) {
        Err(ServeError::SwapRejected { reason }) => {
            assert!(reason.contains("probe"), "{reason}");
        }
        other => panic!("expected SwapRejected, got {other:?}"),
    }
    assert_eq!(service.generation(), 2, "rollback keeps generation");

    // A corrupt snapshot file is rejected by the hardened loader.
    let dir = std::env::temp_dir();
    let good_path = dir.join(format!("axsnn_swap_good_{}.json", std::process::id()));
    let bad_path = dir.join(format!("axsnn_swap_bad_{}.json", std::process::id()));
    save_network(&net_a, &good_path).unwrap();
    let text = std::fs::read_to_string(&good_path).unwrap();
    std::fs::write(&bad_path, &text[..text.len() / 2]).unwrap();
    match service.swap_model_file(&bad_path) {
        Err(ServeError::SwapRejected { reason }) => {
            assert!(reason.contains("snapshot load failed"), "{reason}");
        }
        other => panic!("expected SwapRejected, got {other:?}"),
    }
    assert_eq!(service.generation(), 2);
    // A structure/plan-mismatched snapshot is also rejected pre-install.
    let mut snapshot = snapshot_network(&net_a).unwrap();
    snapshot.plan[0].kind = "flatten".into();
    std::fs::write(&bad_path, snapshot.to_json_string()).unwrap();
    assert!(service.swap_model_file(&bad_path).is_err());
    assert_eq!(service.generation(), 2);
    // The good file still swaps in fine (generation 3) and serves.
    assert_eq!(service.swap_model_file(&good_path).unwrap(), 3);
    let r = service
        .classify_blocking(image.clone(), 55)
        .expect("served");
    assert_eq!(r.prediction, direct_prediction(&net_a, &image, 55));
    let m = service.metrics();
    assert_eq!(m.swaps, 2);
    // Three rejected candidates: wrong shape, truncated file,
    // plan-mismatched file.
    assert_eq!(m.swap_rollbacks, 3);
    let _ = std::fs::remove_file(&good_path);
    let _ = std::fs::remove_file(&bad_path);
    service.shutdown();
}

#[test]
fn bounded_queue_applies_backpressure() {
    let net = make_net(6);
    let mut config = base_config();
    config.workers = 1;
    config.queue_capacity = 2;
    config.batch_window = Duration::from_millis(20);
    config.max_batch = 2;
    let service = InferenceService::start(net, probe(), config).expect("start");
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..40u64 {
        match service.submit(Request::new(make_image(i), i)) {
            Ok(t) => accepted.push(t),
            Err(ServeError::QueueFull { capacity, .. }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejected > 0, "40 instant submits into capacity 2 must trip");
    // Every accepted request still completes: backpressure never
    // strands admitted work.
    for ticket in accepted {
        ticket.wait().expect("admitted work is always served");
    }
    assert!(service.metrics().rejected_full >= rejected as u64);
    service.shutdown();
}

/// A NaN or infinite pixel is refused at submit with an error naming
/// its flat index and value, before any queue counter moves; a finite
/// image of the same shape is still served.
#[test]
fn non_finite_pixels_are_rejected_at_submit() {
    let net = make_net(9);
    let service = InferenceService::start(net.clone(), probe(), base_config()).expect("start");
    let before = service.metrics();
    for (i, bad) in [
        (0usize, f32::NAN),
        (3, f32::INFINITY),
        (7, f32::NEG_INFINITY),
    ] {
        let mut data = make_image(i as u64).as_slice().to_vec();
        data[i] = bad;
        let image = Tensor::from_vec(data, &[INPUT]).expect("image");
        match service.submit(Request::new(image, 1)) {
            Err(ServeError::InvalidRequest { message }) => {
                assert!(
                    message.contains(&format!("pixel {i} is {bad}")),
                    "message must name the index and value: {message}"
                );
            }
            other => panic!("pixel {bad} at {i}: expected InvalidRequest, got {other:?}"),
        }
    }
    assert_eq!(
        service.metrics(),
        before,
        "rejections must touch no counter"
    );
    let image = make_image(5);
    let served = service
        .submit(Request::new(image.clone(), 5))
        .expect("a finite image is accepted")
        .wait()
        .expect("served");
    assert_eq!(served.prediction, direct_prediction(&net, &image, 5));
    assert_eq!(service.metrics().submitted, before.submitted + 1);
    service.shutdown();
}

#[test]
fn shedding_level_rejects_low_priority_only() {
    let net = make_net(8);
    let mut config = base_config();
    // All thresholds at 0 pin the ladder at Shedding from the first
    // dispatch on.
    config.degrade = DegradeConfig {
        shrink_at: 0.0,
        degrade_at: 0.0,
        shed_at: 0.0,
        ..DegradeConfig::default()
    };
    let service = InferenceService::start(net, probe(), config).expect("start");
    // Drive one request through so a worker observes occupancy and
    // escalates the ladder.
    service.classify_blocking(make_image(0), 0).expect("served");
    assert_eq!(service.level(), ServiceLevel::Shedding);
    match service.submit(Request::new(make_image(1), 1).with_priority(Priority::Low)) {
        Err(ServeError::Shed { .. }) => {}
        other => panic!("expected Shed, got {other:?}"),
    }
    // Normal and High priority still pass admission.
    service.classify_blocking(make_image(2), 2).expect("served");
    let t = service
        .submit(Request::new(make_image(3), 3).with_priority(Priority::High))
        .expect("high admitted");
    t.wait().expect("high served");
    assert!(service.metrics().shed_priority >= 1);
    service.shutdown();
}

#[test]
fn ladder_recovers_with_hysteresis_dwell() {
    let net = make_net(12);
    let mut config = base_config();
    config.workers = 1;
    config.queue_capacity = 4;
    config.degrade = DegradeConfig {
        shrink_at: 0.5,
        degrade_at: 0.95,
        shed_at: 1.0,
        hysteresis_margin: 0.1,
        recovery_dwell: 2,
        ..DegradeConfig::default()
    };
    config.batch_window = Duration::from_millis(5);
    let service = InferenceService::start(net, probe(), config).expect("start");
    // Flood: 4 queued / capacity 4 crosses shrink_at.
    let tickets: Vec<_> = (0..8u64)
        .filter_map(|i| service.submit(Request::new(make_image(i), i)).ok())
        .collect();
    for t in tickets {
        let _ = t.wait();
    }
    assert!(
        service.level() > ServiceLevel::Full,
        "flood must have escalated, got {:?}",
        service.level()
    );
    // Calm traffic: single blocking requests keep occupancy near 0, so
    // after `recovery_dwell` observations per rung the ladder steps
    // back down — one rung at a time, each entry counted.
    for i in 0..16u64 {
        service
            .classify_blocking(make_image(i), 100 + i)
            .expect("served");
    }
    assert_eq!(service.level(), ServiceLevel::Full, "ladder must recover");
    let m = service.metrics();
    assert!(
        m.level_entries[ServiceLevel::ShrunkWindow.index()] >= 1,
        "stepwise recovery passes through ShrunkWindow: {m:?}"
    );
    assert!(m.total_transitions() >= 2);
    service.shutdown();
}

#[test]
fn open_loop_traffic_with_faults_has_zero_hangs() {
    let net = make_net(14);
    let mut config = base_config();
    config.workers = 2;
    config.queue_capacity = 16;
    let service = InferenceService::start(net, probe(), config).expect("start");
    let images: Vec<Tensor> = (0..6).map(make_image).collect();
    let traffic = TrafficConfig {
        phases: vec![
            TrafficPhase::steady("warm", 2_000.0, 30),
            TrafficPhase::burst("burst", 20_000.0, 60, 0.3)
                .with_deadline(Duration::from_micros(500))
                .with_poison_every(9),
            TrafficPhase::steady("cooldown", 2_000.0, 20),
        ],
        seed: 21,
        harvest_timeout: Duration::from_secs(10),
    };
    let report = run_open_loop(&service, &images, &traffic);
    assert_eq!(report.attempted, 110);
    assert!(
        report.accounted(),
        "every attempt in one bucket: {report:?}"
    );
    assert_eq!(report.hung, 0, "zero hung requests: {report:?}");
    assert!(report.completed > 0, "some goodput under chaos: {report:?}");
    service.shutdown();
}

#[test]
fn shutdown_drains_queue_and_answers_everyone() {
    let net = make_net(16);
    let mut config = base_config();
    config.workers = 1;
    config.batch_window = Duration::from_millis(10);
    let service = InferenceService::start(net, probe(), config).expect("start");
    let tickets: Vec<_> = (0..6u64)
        .map(|i| service.submit(Request::new(make_image(i), i)).unwrap())
        .collect();
    service.shutdown();
    for ticket in tickets {
        ticket.wait().expect("drained on shutdown");
    }
    assert!(matches!(
        service.submit(Request::new(make_image(0), 0)),
        Err(ServeError::ShuttingDown)
    ));
}
