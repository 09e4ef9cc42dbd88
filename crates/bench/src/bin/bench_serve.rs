//! The micro-batching inference service, written to
//! `BENCH_serve.json`.
//!
//! Three records:
//!
//! * `serve_throughput_c32` — 32 concurrent submitters drive one
//!   running service; wall clock vs the same requests classified
//!   sequentially one-by-one, each `classify` a one-row pass of the
//!   fused engine. Served predictions are asserted
//!   bit-identical to the sequential baseline — the bench doubles as an
//!   equivalence smoke test.
//! * `serve_latency_steady` — open-loop Poisson traffic at ~25%
//!   utilization; the service-side p50/p99 against one direct classify.
//! * `serve_robust_chaos` — warm/burst/cooldown phases where the burst
//!   injects worker panics (poison pills every 7th request) and
//!   near-impossible deadlines: goodput, hung requests, and whether the
//!   post-chaos predictions are still bit-identical to the direct path.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_serve
//! [out.json]`.

use axsnn::core::encoding::Encoder;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::serve::{
    run_open_loop, InferenceService, Request, ServeConfig, TrafficConfig, TrafficPhase,
};
use axsnn::tensor::Tensor;
use axsnn_bench::harness::{mlp_1568, record, Bench};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const INPUT: usize = 1568;
const CONCURRENCY: usize = 32;
const WORKERS: usize = 2;
/// Requests per throughput run.
const REQUESTS: usize = 4 * CONCURRENCY;
/// Requests per open-loop traffic phase.
const PHASE: usize = 80;

/// Sparse-regime inputs (~10% mean intensity), matching the paper's
/// operating point and the other fused-path benches.
fn make_images(count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            let data: Vec<f32> = (0..INPUT).map(|_| rng.gen::<f32>() * 0.2).collect();
            Tensor::from_vec(data, &[INPUT]).expect("image")
        })
        .collect()
}

fn service_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: 256,
        batch_window: Duration::from_millis(1),
        max_batch: CONCURRENCY,
        encoder: Encoder::Deterministic,
        ..ServeConfig::default()
    }
}

/// The reference path: one-at-a-time `classify` with the per-request
/// seed, exactly what the service must reproduce bit-for-bit.
fn sequential_predictions(net: &SpikingNetwork, requests: &[(Tensor, u64)]) -> Vec<usize> {
    let mut net = net.clone();
    requests
        .iter()
        .map(|(image, seed)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            net.classify(image, Encoder::Deterministic, &mut rng)
                .expect("classify")
        })
        .collect()
}

/// Serves `requests` through `CONCURRENCY` submitter threads; returns
/// predictions in request order.
fn serve_concurrent(service: &InferenceService, requests: &[(Tensor, u64)]) -> Vec<usize> {
    let mut served = vec![usize::MAX; requests.len()];
    std::thread::scope(|scope| {
        let chunk = requests.len().div_ceil(CONCURRENCY);
        let mut rest = served.as_mut_slice();
        for reqs in requests.chunks(chunk) {
            let (head, tail) = rest.split_at_mut(reqs.len());
            rest = tail;
            scope.spawn(move || {
                let tickets: Vec<_> = reqs
                    .iter()
                    .map(|(image, seed)| {
                        service
                            .submit(Request::new(image.clone(), *seed))
                            .expect("capacity covers the run")
                    })
                    .collect();
                for (slot, ticket) in head.iter_mut().zip(tickets) {
                    *slot = ticket.wait().expect("served").prediction;
                }
            });
        }
    });
    served
}

/// Keeps CI logs readable: the chaos phase intentionally panics
/// workers, and each pill would otherwise dump a backtrace to stderr.
fn silence_poison_backtraces() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected poison") {
            default_hook(info);
        }
    }));
}

fn main() {
    let mut bench = Bench::from_args("BENCH_serve.json", 5);
    silence_poison_backtraces();
    // The `bench_batch` MLP shape: the ≈3.9 MB weight set exceeds L2,
    // which is where fused coalescing earns its keep.
    let cfg = SnnConfig {
        threshold: 1.0,
        time_steps: 16,
        leak: 0.9,
    };
    let net = mlp_1568(cfg, 42);
    let images = make_images(CONCURRENCY);
    let requests: Vec<(Tensor, u64)> = (0..REQUESTS)
        .map(|i| (images[i % images.len()].clone(), 1_000 + i as u64))
        .collect();

    // --- Throughput: sequential baseline vs coalesced service. ---
    let expected = sequential_predictions(&net, &requests);
    let service =
        InferenceService::start(net.clone(), images[0].clone(), service_config()).expect("start");
    let mut bit_identical = true;
    let (sequential, served) = bench.time_pair(
        || {
            black_box(sequential_predictions(&net, &requests));
        },
        || bit_identical &= serve_concurrent(&service, &requests) == expected,
    );
    let tm = service.metrics();
    eprintln!(
        "  throughput runs: {} batches, mean size {:.1}",
        tm.batches,
        tm.mean_batch_size()
    );
    service.shutdown();
    let direct_ns = sequential / REQUESTS as f64;
    assert!(
        bit_identical,
        "served predictions must be bit-identical to sequential classify"
    );

    // --- Latency under steady open-loop Poisson load (~25% util). ---
    let rate_hz = (0.25e9 / direct_ns).clamp(200.0, 20_000.0);
    let service =
        InferenceService::start(net.clone(), images[0].clone(), service_config()).expect("start");
    let steady = TrafficConfig {
        phases: vec![TrafficPhase::steady("steady", rate_hz, PHASE)],
        seed: 11,
        harvest_timeout: Duration::from_secs(30),
    };
    let steady_report = run_open_loop(&service, &images, &steady);
    assert_eq!(steady_report.hung, 0, "steady traffic must never hang");
    let m = service.metrics();
    service.shutdown();
    let direct_us = direct_ns / 1e3;
    let p99_over_direct = m.p99_latency_us as f64 / (direct_us).max(1e-9);

    // --- Robustness: goodput under panics + deadline bursts. ---
    let chaos_service = InferenceService::start(net.clone(), images[0].clone(), {
        let mut c = service_config();
        c.queue_capacity = CONCURRENCY;
        c
    })
    .expect("start");
    let tight_deadline = Duration::from_nanos((2.0 * direct_ns) as u64);
    let chaos = TrafficConfig {
        phases: vec![
            TrafficPhase::steady("warm", rate_hz, PHASE),
            TrafficPhase::burst("chaos_burst", rate_hz * 8.0, PHASE, 0.3)
                .with_deadline(tight_deadline)
                .with_poison_every(7),
            TrafficPhase::steady("cooldown", rate_hz, PHASE),
        ],
        seed: 13,
        harvest_timeout: Duration::from_secs(30),
    };
    let chaos_report = run_open_loop(&chaos_service, &images, &chaos);
    assert!(
        chaos_report.accounted(),
        "every attempt lands in one bucket: {chaos_report:?}"
    );
    // Post-chaos equivalence: the service (possibly respawned workers,
    // degraded-and-recovered ladder) still serves bit-exact predictions.
    let probe_requests: Vec<(Tensor, u64)> = requests.iter().take(16).cloned().collect();
    let post_chaos = serve_concurrent(&chaos_service, &probe_requests);
    let post_identical = post_chaos == expected[..16];
    let chaos_metrics = chaos_service.metrics();
    chaos_service.shutdown();

    bench.push(
        record(&format!("serve_throughput_c{CONCURRENCY}"))
            .num("concurrency", CONCURRENCY as f64, 0)
            .num("requests", REQUESTS as f64, 0)
            .num("workers", WORKERS as f64, 0)
            .ab("sequential_ns", sequential, "served_ns", served),
    );
    bench.push(
        record("serve_latency_steady")
            .num("rate_hz", rate_hz, 0)
            .num("requests", steady_report.attempted as f64, 0)
            .num("direct_us", direct_us, 1)
            .num("p50_us", m.p50_latency_us as f64, 0)
            .num("p99_us", m.p99_latency_us as f64, 0)
            .num("p99_over_direct", p99_over_direct, 2),
    );
    bench.push(
        record("serve_robust_chaos")
            .num("attempted", chaos_report.attempted as f64, 0)
            .num("completed", chaos_report.completed as f64, 0)
            .num("expired", chaos_report.expired as f64, 0)
            .num("panicked", chaos_report.panicked as f64, 0)
            .num("shed", chaos_report.shed as f64, 0)
            .num("rejected_full", chaos_report.rejected_full as f64, 0)
            .num("hung", chaos_report.hung as f64, 0)
            .num("worker_respawns", chaos_metrics.worker_respawns as f64, 0)
            .num(
                "level_transitions",
                chaos_metrics.total_transitions() as f64,
                0,
            )
            .num("goodput_fraction", chaos_report.goodput_fraction(), 3)
            .num("bit_identical", f64::from(u8::from(post_identical)), 0),
    );
    bench.finish();
}
