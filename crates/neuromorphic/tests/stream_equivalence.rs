//! Streaming-vs-offline equivalence suite.
//!
//! Pins the tentpole guarantee of the streaming subsystem: streamed
//! classification over a full sample is **bit-identical** to the
//! offline frame-accumulated path for the same window schedule — at
//! every event density, under every plan override, and with int8/f16
//! weight planes installed — plus the causal AQF's relationship to the
//! offline two-pass filter (superset always; exact when no pixel
//! crosses the hot cut). The fused engine at B = 1 on spike rows binned
//! straight from the events (the attack-query path) is pinned to the
//! same offline logits and dense-fallback counts.

use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::plan::{PlanOverride, WeightPlane};
use axsnn_neuromorphic::aqf::{approximate_quantized_filter, AqfConfig};
use axsnn_neuromorphic::event::{DvsEvent, EventStream, Polarity};
use axsnn_neuromorphic::frames::{accumulate_frames, binary_frame_train, Accumulation};
use axsnn_neuromorphic::stream::{
    classify_event_stream, StreamAccumulator, StreamConfig, StreamSession, StreamingAqf,
    WindowSchedule,
};
use axsnn_neuromorphic::NeuroError;
use axsnn_tensor::conv::Conv2dSpec;
use proptest::prelude::*;
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const W: usize = 8;
const H: usize = 8;
const T: usize = 6;
const CLASSES: usize = 4;

/// A conv → flatten → linear stack small enough for the suite but deep
/// enough to exercise the full dispatch seam (density-gated sparse
/// conv, sparse matvec, dense readout).
fn network(cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(33);
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(&mut rng, spec, &cfg),
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 3 * H * W, 16, &cfg),
            Layer::output_linear(&mut rng, 16, CLASSES),
        ],
        cfg,
    )
    .expect("valid network")
}

fn snn_cfg() -> SnnConfig {
    SnnConfig {
        threshold: 0.5,
        time_steps: T,
        leak: 0.9,
    }
}

/// Seeded synthetic gesture-ish stream: a drifting cluster plus
/// background noise, `n` events, time-sorted.
fn synth_stream(seed: u64, n: usize) -> EventStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f32 / n as f32;
        let (x, y) = if rng.gen_bool(0.7) {
            // Cluster drifting across the sensor.
            let cx = (t * (W as f32 - 3.0)) as i64 + 1;
            let cy = (H / 2) as i64;
            (
                (cx + rng.gen_range(-1i64..=1)).clamp(0, W as i64 - 1) as u16,
                (cy + rng.gen_range(-1i64..=1)).clamp(0, H as i64 - 1) as u16,
            )
        } else {
            (rng.gen_range(0..W) as u16, rng.gen_range(0..H) as u16)
        };
        let p = if rng.gen_bool(0.5) {
            Polarity::On
        } else {
            Polarity::Off
        };
        events.push(DvsEvent::new(x, y, p, t.min(0.999_999)));
    }
    EventStream::from_events(W, H, events).expect("valid synthetic events")
}

/// Seeded uniform noise over the whole sensor, `n` events, time-sorted:
/// unlike the clustered stream, enough distinct cells fire per bin for
/// the input layer's density gate to decline.
fn noise_stream(seed: u64, n: usize) -> EventStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let events = (0..n)
        .map(|i| {
            let p = if rng.gen_bool(0.5) {
                Polarity::On
            } else {
                Polarity::Off
            };
            let (x, y) = (rng.gen_range(0..W) as u16, rng.gen_range(0..H) as u16);
            DvsEvent::new(x, y, p, i as f32 / n as f32)
        })
        .collect();
    EventStream::from_events(W, H, events).expect("valid noise events")
}

fn offline_logits(net: &mut SpikingNetwork, stream: &EventStream) -> (Vec<f32>, f32, f64) {
    let frames = accumulate_frames(stream, T, Accumulation::Binary).unwrap();
    let mut rng = StepRng::new(0, 1);
    let out = net.forward(&frames, false, &mut rng).unwrap();
    (
        out.logits.as_slice().to_vec(),
        out.stats.total_spikes(),
        out.stats.synaptic_ops,
    )
}

fn streamed_logits(net: &mut SpikingNetwork, stream: &EventStream) -> (Vec<f32>, f32, f64) {
    let cfg = StreamConfig {
        schedule: WindowSchedule::Uniform { time_steps: T },
        mode: Accumulation::Binary,
        aqf: None,
    };
    let mut rng = StepRng::new(0, 1);
    let outcome = classify_event_stream(net, stream, cfg, &mut rng).unwrap();
    assert_eq!(outcome.windows, T);
    (
        outcome.logits.as_slice().to_vec(),
        outcome.stats.total_spikes(),
        outcome.stats.synaptic_ops,
    )
}

/// The fused engine at B = 1 on the stream's event-binned spike rows —
/// the `SnnEventModel` query path.
fn fused_event_logits(net: &mut SpikingNetwork, stream: &EventStream) -> Vec<f32> {
    let train = binary_frame_train(stream, T).unwrap();
    let out = net.forward_batch(std::slice::from_ref(&train)).unwrap();
    out.logits.as_slice().to_vec()
}

/// Runs `pass` and returns its result with how far it advanced each
/// layer's dense-fallback counter.
fn with_fallbacks<O>(
    net: &mut SpikingNetwork,
    pass: impl FnOnce(&mut SpikingNetwork) -> O,
) -> (O, Vec<u64>) {
    let before = net.dense_fallback_counts();
    let out = pass(net);
    let after = net.dense_fallback_counts();
    (out, after.iter().zip(&before).map(|(a, b)| a - b).collect())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pins the fused B = 1 event-row pass against the dense-frame offline
/// pass on one network: bitwise logits and identical dense-fallback
/// advances. Adds the per-layer fallbacks the pass took to `taken`.
fn assert_fused_event_pass_matches(
    net: &mut SpikingNetwork,
    stream: &EventStream,
    taken: &mut [u64],
    what: &str,
) {
    let ((offline, _, _), offline_fallbacks) = with_fallbacks(net, |n| offline_logits(n, stream));
    let (fused, fused_fallbacks) = with_fallbacks(net, |n| fused_event_logits(n, stream));
    assert_eq!(
        bits(&fused),
        bits(&offline),
        "fused logits diverged ({what})"
    );
    assert_eq!(
        fused_fallbacks, offline_fallbacks,
        "dense-fallback counters advanced differently ({what})"
    );
    for (sum, n) in taken.iter_mut().zip(offline_fallbacks) {
        *sum += n;
    }
}

/// Tentpole pin: streamed == offline, bit for bit, across densities
/// and plan overrides — and so is the fused event-row query.
#[test]
fn streamed_bit_identical_across_densities_and_overrides() {
    // Densities from near-empty (sparse path) to saturating (dense
    // fallback): 5 events up to 4 events/pixel, plus uniform noise that
    // declines the input layer's gate.
    let sizes = [5usize, 40, 160, 256];
    let overrides = [
        PlanOverride::Auto,
        PlanOverride::ForceDense,
        PlanOverride::ForceThreshold(1.0),
    ];
    let mut streams: Vec<EventStream> = sizes
        .iter()
        .enumerate()
        .map(|(si, &n)| synth_stream(100 + si as u64, n))
        .collect();
    streams.push(noise_stream(104, 400));
    let mut taken = vec![0u64; network(snn_cfg()).depth()];
    for stream in &streams {
        let n = stream.len();
        for ov in overrides {
            let mut net = network(snn_cfg());
            net.apply_plan(ov);
            let offline = offline_logits(&mut net, stream);
            net.apply_plan(ov);
            let streamed = streamed_logits(&mut net, stream);
            assert_eq!(
                offline, streamed,
                "diverged at n={n} override={ov:?} (logits/spikes/synops must be bit-identical)"
            );
            net.apply_plan(ov);
            assert_fused_event_pass_matches(&mut net, stream, &mut taken, &format!("n={n} {ov:?}"));
        }
    }
    assert!(taken[0] > 0, "no case declined the input layer's gate");
    assert!(taken[2] > 0, "no case declined a hidden layer's gate");
}

/// Tentpole pin: bit-identity holds with reduced-precision weight
/// planes installed (the quantized storage path).
#[test]
fn streamed_bit_identical_with_weight_planes() {
    let mut taken = vec![0u64; network(snn_cfg()).depth()];
    for stream in [synth_stream(7, 120), noise_stream(8, 400)] {
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let mut net = network(snn_cfg());
            net.set_weight_plane(plane).unwrap();
            let offline = offline_logits(&mut net, &stream);
            let streamed = streamed_logits(&mut net, &stream);
            assert_eq!(offline, streamed, "diverged with {plane:?} plane");
            let what = format!("n={} {plane:?}", stream.len());
            assert_fused_event_pass_matches(&mut net, &stream, &mut taken, &what);
        }
    }
    assert!(taken[0] > 0, "no case declined the input layer's gate");
}

/// The streamed prediction matches `classify_frames` over the same
/// accumulated frames.
#[test]
fn streamed_prediction_matches_offline_classify() {
    let stream = synth_stream(12, 90);
    let mut net = network(snn_cfg());
    let frames = accumulate_frames(&stream, T, Accumulation::Binary).unwrap();
    let mut rng = StepRng::new(0, 1);
    let offline_pred = net.classify_frames(&frames, &mut rng).unwrap();
    let cfg = StreamConfig {
        schedule: WindowSchedule::Uniform { time_steps: T },
        mode: Accumulation::Binary,
        aqf: None,
    };
    let mut rng = StepRng::new(0, 1);
    let outcome = classify_event_stream(&mut net, &stream, cfg, &mut rng).unwrap();
    assert_eq!(outcome.prediction, offline_pred);
    assert_eq!(outcome.events_in, stream.len());
    assert_eq!(outcome.events_kept, stream.len());
}

/// Out-of-order events surface as an explicit session error, not a
/// silently wrong frame.
#[test]
fn out_of_order_events_error_at_session_level() {
    let mut net = network(snn_cfg());
    let cfg = StreamConfig {
        schedule: WindowSchedule::Uniform { time_steps: T },
        mode: Accumulation::Binary,
        aqf: None,
    };
    let mut rng = StepRng::new(0, 1);
    let mut session = StreamSession::begin(&mut net, W, H, cfg).unwrap();
    session
        .push(DvsEvent::new(1, 1, Polarity::On, 0.6), &mut rng)
        .unwrap();
    let err = session
        .push(DvsEvent::new(1, 1, Polarity::On, 0.2), &mut rng)
        .unwrap_err();
    assert!(matches!(err, NeuroError::OutOfOrderEvent { .. }));
}

/// In-stream AQF end-to-end equals offline filter + offline inference
/// when no pixel crosses the hot cut (exactness regime).
#[test]
fn streamed_aqf_bit_identical_without_hot_pixels() {
    // ≤ 8 events per pixel, far below the default cut of 40.
    let stream = synth_stream(21, 200);
    let aqf = AqfConfig::default();

    let mut net = network(snn_cfg());
    let (filtered, offline_report) = approximate_quantized_filter(&stream, &aqf).unwrap();
    let offline = offline_logits(&mut net, &filtered);

    let mut net2 = network(snn_cfg());
    let cfg = StreamConfig {
        schedule: WindowSchedule::Uniform { time_steps: T },
        mode: Accumulation::Binary,
        aqf: Some(aqf),
    };
    let mut rng = StepRng::new(0, 1);
    let outcome = classify_event_stream(&mut net2, &stream, cfg, &mut rng).unwrap();

    let report = outcome.aqf.expect("aqf report present");
    assert_eq!(
        report, offline_report,
        "reports must agree with no hot pixels"
    );
    assert_eq!(
        (
            outcome.logits.as_slice().to_vec(),
            outcome.stats.total_spikes(),
            outcome.stats.synaptic_ops,
        ),
        offline,
        "filtered inference must be bit-identical with no hot pixels"
    );
}

/// FNV-1a over a streamed outcome: logits and every `SpikeStats` field
/// by `to_bits`, then the window, kept-event and dropped-event counts.
fn outcome_digest(digest: &mut u64, outcome: &axsnn_neuromorphic::stream::StreamOutcome) {
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in outcome.logits.as_slice() {
        feed(&v.to_bits().to_le_bytes());
    }
    for v in &outcome.stats.spikes_per_layer {
        feed(&v.to_bits().to_le_bytes());
    }
    feed(&outcome.stats.synaptic_ops.to_bits().to_le_bytes());
    for n in [
        outcome.stats.time_steps,
        outcome.windows,
        outcome.events_kept,
        outcome.events_dropped,
    ] {
        feed(&(n as u64).to_le_bytes());
    }
}

/// `classify_event_stream` outcomes frozen bit for bit: a clustered and
/// a noise stream, under a uniform, an overlapping rolling and a gapped
/// rolling schedule, with and without the causal AQF, under binary and
/// count accumulation. The count frames are analog, so they run the
/// dense kernels and count fallbacks; the digests were taken from the
/// per-sample frame stepper.
#[test]
fn streamed_outcomes_reproduce_frozen_digests() {
    let schedules = [
        ("uniform", WindowSchedule::Uniform { time_steps: T }),
        (
            "rolling",
            WindowSchedule::Rolling {
                windows: 5,
                len: 0.3,
                hop: 0.15,
            },
        ),
        (
            "gapped",
            WindowSchedule::Rolling {
                windows: 4,
                len: 0.12,
                hop: 0.25,
            },
        ),
    ];
    let mut moved = Vec::new();
    for (mode_name, mode) in [
        ("binary", Accumulation::Binary),
        ("count", Accumulation::Count),
    ] {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for stream in [synth_stream(41, 300), noise_stream(42, 400)] {
            for (_, schedule) in schedules {
                for aqf in [None, Some(AqfConfig::default())] {
                    let mut net = network(snn_cfg());
                    let cfg = StreamConfig {
                        schedule,
                        mode,
                        aqf,
                    };
                    let mut rng = StepRng::new(0, 1);
                    let outcome = classify_event_stream(&mut net, &stream, cfg, &mut rng).unwrap();
                    outcome_digest(&mut digest, &outcome);
                    for n in net.dense_fallback_counts() {
                        digest = (digest ^ n).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        let expected = if mode_name == "binary" {
            FROZEN_STREAM_DIGESTS[0]
        } else {
            FROZEN_STREAM_DIGESTS[1]
        };
        if digest != expected {
            moved.push(format!("{mode_name}: {digest:#018x}"));
        }
    }
    assert!(moved.is_empty(), "streamed outcomes moved: {moved:#?}");
}

/// Digests of [`streamed_outcomes_reproduce_frozen_digests`]: binary,
/// then count accumulation.
const FROZEN_STREAM_DIGESTS: [u64; 2] = [0xeff9_ec60_1dd3_97f4, 0x31d4_a7c5_c262_c940];

fn offline_rolling_frames(
    stream: &EventStream,
    windows: usize,
    len: f32,
    hop: f32,
    mode: Accumulation,
) -> Vec<Vec<f32>> {
    (0..windows)
        .map(|i| {
            let start = i as f32 * hop;
            let sub: Vec<DvsEvent> = stream
                .events()
                .iter()
                .copied()
                .filter(|e| start <= e.t && e.t < start + len)
                .collect();
            let sub = EventStream::from_events(W, H, sub).unwrap();
            accumulate_frames(&sub, 1, mode).unwrap()[0]
                .as_slice()
                .to_vec()
        })
        .collect()
}

fn event_strategy() -> impl Strategy<Value = DvsEvent> {
    (
        0u16..W as u16,
        0u16..H as u16,
        proptest::bool::ANY,
        0.0f32..0.999,
    )
        .prop_map(|(x, y, p, t)| {
            DvsEvent::new(x, y, if p { Polarity::On } else { Polarity::Off }, t)
        })
}

fn sorted_events(max: usize) -> impl Strategy<Value = Vec<DvsEvent>> {
    proptest::collection::vec(event_strategy(), 0..max).prop_map(|mut v| {
        v.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
        v
    })
}

/// Events for the binning checks: `event_strategy` plus the timestamp
/// edges (`t = 0` and the largest `f32` below 1) and exact repeats of
/// earlier events (repeated pixel, polarity and bin cells), time-sorted.
fn binning_events(max: usize) -> impl Strategy<Value = Vec<DvsEvent>> {
    let edged = (event_strategy(), 0u8..8).prop_map(|(mut e, edge)| {
        match edge {
            0 => e.t = 0.0,
            1 => e.t = f32::from_bits(1.0f32.to_bits() - 1),
            _ => {}
        }
        e
    });
    (proptest::collection::vec(edged, 0..max), 0usize..16).prop_map(|(mut v, repeats)| {
        let copies: Vec<DvsEvent> = v.iter().copied().take(repeats).collect();
        v.extend(copies);
        v.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
        v
    })
}

/// `binary_frame_train`'s rows materialize to the binary
/// `accumulate_frames` frames bit for bit.
fn assert_binary_train_matches(stream: &EventStream, t: usize) {
    let offline = accumulate_frames(stream, t, Accumulation::Binary).unwrap();
    let frames = binary_frame_train(stream, t).unwrap().to_frames().unwrap();
    assert_eq!(frames.len(), offline.len());
    for (a, b) in frames.iter().zip(&offline) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
    }
}

proptest! {
    /// The streamed uniform accumulator is bit-identical to
    /// `accumulate_frames` for arbitrary streams, bin counts and modes
    /// (including empty bins), and so are the event-binned spike rows
    /// of `binary_frame_train` — on the time-sorted stream, on the same
    /// events unsorted, and at `T = 1`. An out-of-sensor event makes
    /// both offline binners fail with the same error.
    #[test]
    fn uniform_accumulator_matches_offline(
        events in binning_events(150),
        t in 1usize..24,
        count_mode in proptest::bool::ANY,
        plant in 0usize..200,
    ) {
        let mode = if count_mode { Accumulation::Count } else { Accumulation::Binary };
        let stream = EventStream::from_events(W, H, events.clone()).unwrap();
        let offline = accumulate_frames(&stream, t, mode).unwrap();
        let mut acc = StreamAccumulator::new(
            W, H, WindowSchedule::Uniform { time_steps: t }, mode,
        ).unwrap();
        let mut streamed = Vec::new();
        for e in &events {
            streamed.extend(acc.push(*e).unwrap());
        }
        streamed.extend(acc.finish());
        prop_assert_eq!(streamed.len(), offline.len());
        for (a, b) in streamed.iter().zip(&offline) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }

        let mut unsorted = stream.clone();
        unsorted.events_mut().reverse();
        let half = unsorted.len() / 2;
        unsorted.events_mut().rotate_left(half);
        for s in [&stream, &unsorted] {
            assert_binary_train_matches(s, t);
            assert_binary_train_matches(s, 1);
        }

        let mut planted = unsorted;
        let at = plant % (planted.len() + 1);
        let bad = if plant % 2 == 0 {
            DvsEvent::new(W as u16, 0, Polarity::On, 0.5)
        } else {
            DvsEvent::new(0, H as u16 + 3, Polarity::Off, 0.0)
        };
        planted.events_mut().insert(at, bad);
        let offline_err = accumulate_frames(&planted, t, Accumulation::Binary).unwrap_err();
        prop_assert!(matches!(offline_err, NeuroError::EventOutOfRange { .. }));
        prop_assert_eq!(binary_frame_train(&planted, t).unwrap_err(), offline_err);
    }

    /// The rolling accumulator matches per-window offline accumulation
    /// across window counts, lengths and hops (overlapping and gapped),
    /// and accounts for every event it drops.
    #[test]
    fn rolling_accumulator_matches_offline(
        events in sorted_events(120),
        windows in 1usize..10,
        len_milli in 20u32..400,
        hop_milli in 20u32..400,
        count_mode in proptest::bool::ANY,
    ) {
        let (len, hop) = (len_milli as f32 / 1000.0, hop_milli as f32 / 1000.0);
        let mode = if count_mode { Accumulation::Count } else { Accumulation::Binary };
        let stream = EventStream::from_events(W, H, events.clone()).unwrap();
        let offline = offline_rolling_frames(&stream, windows, len, hop, mode);
        let mut acc = StreamAccumulator::new(
            W, H, WindowSchedule::Rolling { windows, len, hop }, mode,
        ).unwrap();
        let mut streamed = Vec::new();
        for e in &events {
            streamed.extend(acc.push(*e).unwrap());
        }
        let dropped = acc.events_dropped();
        streamed.extend(acc.finish());
        prop_assert_eq!(streamed.len(), windows);
        for (a, b) in streamed.iter().zip(&offline) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        let covered = events.iter().filter(|e| {
            (0..windows).any(|i| {
                let s = i as f32 * hop;
                s <= e.t && e.t < s + len
            })
        }).count();
        prop_assert_eq!(dropped, events.len() - covered);
    }

    /// Any unsorted stream with a genuine inversion is rejected with
    /// the explicit out-of-order error at the first offending event.
    #[test]
    fn out_of_order_rejected(events in proptest::collection::vec(event_strategy(), 2..60)) {
        let mut acc = StreamAccumulator::new(
            W, H, WindowSchedule::Uniform { time_steps: 4 }, Accumulation::Binary,
        ).unwrap();
        let mut last = f32::NEG_INFINITY;
        for e in &events {
            let r = acc.push(*e);
            if e.t >= last {
                prop_assert!(r.is_ok());
                last = e.t;
            } else {
                prop_assert!(matches!(r.unwrap_err(), NeuroError::OutOfOrderEvent { .. }));
                break;
            }
        }
    }

    /// Causal-AQF superset property: every event the streaming filter
    /// keeps includes all events the offline filter keeps
    /// (`kept_streaming ⊇ kept_offline`), on arbitrary streams —
    /// including ones with hot pixels.
    #[test]
    fn streaming_aqf_keeps_superset_of_offline(events in sorted_events(200)) {
        let cfg = AqfConfig::default();
        let stream = EventStream::from_events(W, H, events.clone()).unwrap();
        let (offline_kept, _) = approximate_quantized_filter(&stream, &cfg).unwrap();
        let mut filter = StreamingAqf::new(W, H, cfg).unwrap();
        let streaming_kept: Vec<DvsEvent> =
            events.iter().filter_map(|e| filter.push(*e)).collect();
        // Multiset containment over (x, y, channel, quantized-t bits).
        let key = |e: &DvsEvent| (e.x, e.y, e.polarity.channel(), e.t.to_bits());
        let mut pool: Vec<_> = streaming_kept.iter().map(key).collect();
        for e in offline_kept.events() {
            let k = key(e);
            let pos = pool.iter().position(|p| *p == k);
            prop_assert!(pos.is_some(), "offline kept {e:?} but streaming dropped it");
            pool.swap_remove(pos.unwrap());
        }
    }

    /// Causal-AQF exactness: when no pixel crosses the hot cut, the
    /// streaming filter keeps the identical event sequence (same order,
    /// same quantized timestamps) and produces the identical report.
    #[test]
    fn streaming_aqf_exact_without_hot_pixels(events in sorted_events(150)) {
        let cfg = AqfConfig::default();
        let cut = (cfg.activity_threshold * cfg.saturation_persistence) as usize;
        // Thin the stream so no pixel exceeds the cut.
        let mut per_pixel = vec![0usize; W * H];
        let thinned: Vec<DvsEvent> = events
            .into_iter()
            .filter(|e| {
                let i = e.y as usize * W + e.x as usize;
                per_pixel[i] += 1;
                per_pixel[i] <= cut
            })
            .collect();
        let stream = EventStream::from_events(W, H, thinned.clone()).unwrap();
        let (offline_kept, offline_report) =
            approximate_quantized_filter(&stream, &cfg).unwrap();
        let mut filter = StreamingAqf::new(W, H, cfg).unwrap();
        let streaming_kept: Vec<DvsEvent> =
            thinned.iter().filter_map(|e| filter.push(*e)).collect();
        prop_assert_eq!(filter.report(), offline_report);
        prop_assert_eq!(streaming_kept.len(), offline_kept.len());
        for (a, b) in streaming_kept.iter().zip(offline_kept.events()) {
            prop_assert_eq!(a.t.to_bits(), b.t.to_bits());
            prop_assert!(a.x == b.x && a.y == b.y && a.polarity == b.polarity);
        }
    }
}
