//! Streaming DVS event inference vs the offline accumulate-then-forward
//! pipeline, written to `BENCH_stream.json`.
//!
//! Both sides run the *same* network through the fused engine's
//! one-row pass (the offline `forward`, the streamed `FrameStepper`),
//! so the streamed logits are bit-identical to the offline logits
//! (asserted here and pinned by the `stream_equivalence` suite); the
//! records isolate the cost and the latency benefit of event-at-a-time
//! delivery:
//!
//! * `stream_classify_*` — full-sample streamed classification
//!   (`classify_event_stream`) vs offline `accumulate_frames` +
//!   `forward`, per event count (streaming adds only per-event
//!   accumulator work);
//! * `stream_first_window_*` — time until the *anytime* readout
//!   (`StreamSession::logits_so_far`) first becomes available vs one
//!   full offline classify; the streamed path only pays one window of
//!   network compute plus the events inside it (expected
//!   ~`time_steps`×);
//! * `stream_aqf_*` — streamed classification with the causal
//!   in-stream AQF vs the offline two-pass filter + classify;
//! * `stream_event_throughput_*` — sustained events/second through a
//!   live session including window stepping (single-sided).
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_stream
//! [out.json]`.

use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::neuromorphic::aqf::{approximate_quantized_filter, AqfConfig};
use axsnn::neuromorphic::event::{DvsEvent, EventStream, Polarity};
use axsnn::neuromorphic::frames::{accumulate_frames, Accumulation};
use axsnn::neuromorphic::stream::{
    classify_event_stream, StreamConfig, StreamSession, WindowSchedule,
};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn_bench::harness::{record, Bench};
use axsnn_bench::json::BenchRow;
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const W: usize = 32;
const H: usize = 32;
const T: usize = 16;
const CLASSES: usize = 11;

/// DVS-gesture-scale stack: conv feature layer, flatten, spiking
/// hidden layer, linear readout — deep enough that every window pays
/// the full `ExecPlan` dispatch (density-gated conv, sparse matvec,
/// dense readout).
fn network() -> SpikingNetwork {
    let cfg = SnnConfig {
        threshold: 0.5,
        time_steps: T,
        leak: 0.9,
    };
    let mut rng = StdRng::seed_from_u64(41);
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 4,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(&mut rng, spec, &cfg),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 4 * H * W, 64, &cfg),
            Layer::output_linear(&mut rng, 64, CLASSES),
        ],
        cfg,
    )
    .expect("valid network")
}

/// Seeded gesture-ish stream: a drifting cluster plus background
/// noise, `n` events, time-sorted by construction.
fn synth_stream(seed: u64, n: usize) -> EventStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f32 / n as f32;
        let (x, y) = if rng.gen_bool(0.7) {
            let cx = (t * (W as f32 - 3.0)) as i64 + 1;
            let cy = (H / 2) as i64;
            (
                (cx + rng.gen_range(-2i64..=2)).clamp(0, W as i64 - 1) as u16,
                (cy + rng.gen_range(-2i64..=2)).clamp(0, H as i64 - 1) as u16,
            )
        } else {
            (rng.gen_range(0..W as u16), rng.gen_range(0..H as u16))
        };
        let polarity = if rng.gen_bool(0.5) {
            Polarity::On
        } else {
            Polarity::Off
        };
        events.push(DvsEvent::new(x, y, polarity, t));
    }
    EventStream::from_events(W, H, events).expect("in-range events")
}

fn stream_cfg(aqf: Option<AqfConfig>) -> StreamConfig {
    StreamConfig {
        schedule: WindowSchedule::Uniform { time_steps: T },
        mode: Accumulation::Binary,
        aqf,
    }
}

fn stream_row(
    name: &str,
    events: usize,
    windows: usize,
    (offline_ns, streamed_ns): (f64, f64),
) -> BenchRow {
    record(name)
        .num("events", events as f64, 0)
        .num("windows", windows as f64, 0)
        .ab("offline_ns", offline_ns, "streamed_ns", streamed_ns)
}

/// One full offline classify: accumulate the frames, run the network.
fn offline_classify(net: &mut SpikingNetwork, stream: &EventStream) {
    let frames = accumulate_frames(stream, T, Accumulation::Binary).unwrap();
    black_box(
        net.forward(&frames, false, &mut StepRng::new(0, 1))
            .unwrap(),
    );
}

/// Full-sample A/B: offline accumulate+forward vs streamed session.
/// Logits are asserted bit-identical before timing.
fn classify_record(bench: &mut Bench, net: &SpikingNetwork, events: usize) {
    let stream = synth_stream(events as u64, events);
    let frames = accumulate_frames(&stream, T, Accumulation::Binary).expect("valid stream");

    let (mut offline_net, mut streamed_net) = (net.clone(), net.clone());
    let offline = offline_net
        .forward(&frames, false, &mut StepRng::new(0, 1))
        .expect("offline forward");
    let streamed = classify_event_stream(
        &mut streamed_net,
        &stream,
        stream_cfg(None),
        &mut StepRng::new(0, 1),
    )
    .expect("streamed classify");
    assert_eq!(
        offline.logits.as_slice(),
        streamed.logits.as_slice(),
        "streamed logits diverged from offline at {events} events"
    );

    let pair = bench.time_pair(
        || offline_classify(&mut offline_net, &stream),
        || {
            black_box(
                classify_event_stream(
                    &mut streamed_net,
                    &stream,
                    stream_cfg(None),
                    &mut StepRng::new(0, 1),
                )
                .unwrap(),
            );
        },
    );
    bench.push(stream_row(
        &format!("stream_classify_uniform_T{T}_{events}ev"),
        events,
        T,
        pair,
    ));
}

/// Anytime-latency A/B: time until the first windowed readout exists
/// vs one full offline classify.
fn first_window_record(bench: &mut Bench, net: &SpikingNetwork, events: usize) {
    let stream = synth_stream(7 * events as u64, events);
    let ordered: Vec<DvsEvent> = {
        let mut s = stream.clone();
        s.sort_by_time();
        s.events().to_vec()
    };

    let (mut offline_net, mut streamed_net) = (net.clone(), net.clone());
    let pair = bench.time_pair(
        || offline_classify(&mut offline_net, &stream),
        || {
            let mut rng = StepRng::new(0, 1);
            let mut session =
                StreamSession::begin(&mut streamed_net, W, H, stream_cfg(None)).unwrap();
            for e in &ordered {
                if session.push(*e, &mut rng).unwrap() > 0 {
                    break;
                }
            }
            assert!(session.logits_so_far().is_some(), "no window closed");
            black_box(session.logits_so_far().unwrap().as_slice()[0]);
        },
    );
    bench.push(stream_row(
        &format!("stream_first_window_T{T}_{events}ev"),
        events,
        1,
        pair,
    ));
}

/// In-stream causal AQF vs the offline two-pass filter + classify (the
/// causal filter trades a small keep-rate difference for zero-lookahead
/// operation).
fn aqf_record(bench: &mut Bench, net: &SpikingNetwork, events: usize) {
    let stream = synth_stream(13 * events as u64, events);
    let cfg = AqfConfig::default();
    let (mut offline_net, mut streamed_net) = (net.clone(), net.clone());
    let pair = bench.time_pair(
        || {
            let (kept, _report) = approximate_quantized_filter(&stream, &cfg).unwrap();
            offline_classify(&mut offline_net, &kept);
        },
        || {
            black_box(
                classify_event_stream(
                    &mut streamed_net,
                    &stream,
                    stream_cfg(Some(cfg)),
                    &mut StepRng::new(0, 1),
                )
                .unwrap(),
            );
        },
    );
    bench.push(stream_row(
        &format!("stream_aqf_uniform_T{T}_{events}ev"),
        events,
        T,
        pair,
    ));
}

fn main() {
    let mut bench = Bench::from_args("BENCH_stream.json", 20);
    let mut net = network();
    for events in [2_000usize, 10_000, 50_000] {
        classify_record(&mut bench, &net, events);
    }
    first_window_record(&mut bench, &net, 10_000);
    aqf_record(&mut bench, &net, 10_000);

    // Sustained event throughput through a live session (single-sided).
    let events = 50_000usize;
    let stream = synth_stream(99, events);
    let streamed_ns = bench.time(|| {
        black_box(
            classify_event_stream(&mut net, &stream, stream_cfg(None), &mut StepRng::new(0, 1))
                .unwrap(),
        );
    });
    bench.push(
        record(&format!("stream_event_throughput_{events}ev"))
            .num("events", events as f64, 0)
            .num("windows", T as f64, 0)
            .num("streamed_ns", streamed_ns, 0)
            .num("events_per_sec", events as f64 / (streamed_ns / 1e9), 0),
    );
    bench.finish();
}
