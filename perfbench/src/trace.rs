//! Layer spans and counters recorded from the benchmark's side of each
//! call into the program, plus counting adapters for the attack-query
//! traits.
//!
//! A span covers one call into a layer's public functions. A layer's
//! *self* time is its span's duration minus the time of the spans it
//! encloses, so nested layers (a Sparse attack whose surrogate queries
//! run frame accumulation and the network) are never counted twice.
//! Spans live in a thread-local recorder that is off outside traced
//! replays; an off recorder makes `span` and `add` cost one branch.

use axsnn::attacks::gradient::GradientSource;
use axsnn::attacks::neuromorphic::EventModel;
use axsnn::core::network::SpikingNetwork;
use axsnn::neuromorphic::event::EventStream;
use axsnn::neuromorphic::frames::{accumulate_frames, Accumulation};
use axsnn::tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u128,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    stack: Vec<Open>,
    self_ns: BTreeMap<&'static str, u128>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Closes its span when dropped.
pub struct Span {
    active: bool,
}

/// Opens a span for layer `name`; it closes when the guard drops.
pub fn span(name: &'static str) -> Span {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Span { active: false };
        }
        r.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        Span { active: true }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(open) = r.stack.pop() else { return };
            let dur = open.start.elapsed().as_nanos();
            *r.self_ns.entry(open.name).or_default() += dur.saturating_sub(open.child_ns);
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

/// Adds `v` to counter `name` (no-op while the recorder is off).
pub fn add(name: &'static str, v: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.counts.entry(name).or_default() += v;
        }
    });
}

/// Turns recording on, clearing earlier spans and counts.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            ..Recorder::default()
        };
    });
}

/// What one traced replay recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Self time per layer span, in milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Counter totals.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Recording {
    /// Self time of `name` in milliseconds (0 when never entered).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` (0 when never incremented).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Share of `root`'s duration covered by layer spans, in percent:
    /// everything except `root`'s own self time.
    pub fn coverage_pct(&self, root: &str) -> f64 {
        let total: f64 = self.self_ms.values().sum();
        if total <= 0.0 {
            return 0.0;
        }
        100.0 * (total - self.ms(root)) / total
    }
}

/// Turns recording off and returns what was recorded since [`start`].
pub fn stop() -> Recording {
    RECORDER.with(|r| {
        let r = std::mem::take(&mut *r.borrow_mut());
        Recording {
            self_ms: r
                .self_ns
                .into_iter()
                .map(|(k, ns)| (k, ns as f64 / 1e6))
                .collect(),
            counts: r.counts,
        }
    })
}

/// Counts the gradient queries an image attack makes.
pub struct CountingGradientSource<'a> {
    inner: &'a mut dyn GradientSource,
}

impl<'a> CountingGradientSource<'a> {
    pub fn new(inner: &'a mut dyn GradientSource) -> Self {
        CountingGradientSource { inner }
    }
}

impl GradientSource for CountingGradientSource<'_> {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> axsnn::attacks::Result<Tensor> {
        add("attacks.gradient.grad_calls", 1.0);
        self.inner.loss_gradient(image, label)
    }
}

/// Counts the queries an event attack makes against its model.
pub struct CountingEventModel<M> {
    inner: M,
}

impl<M: EventModel> CountingEventModel<M> {
    pub fn new(inner: M) -> Self {
        CountingEventModel { inner }
    }
}

impl<M: EventModel> EventModel for CountingEventModel<M> {
    fn logits(&mut self, stream: &EventStream) -> axsnn::attacks::Result<Tensor> {
        add("attacks.neuromorphic.sparse.queries", 1.0);
        self.inner.logits(stream)
    }
}

/// What `SnnEventModel` does — binary frame accumulation, then the
/// per-sample network forward — with a span around each of the two
/// layers. The traced replays check that it predicts exactly what
/// `SnnEventModel` predicts.
pub struct TracedSnnModel<'a> {
    net: &'a mut SpikingNetwork,
}

impl<'a> TracedSnnModel<'a> {
    pub fn new(net: &'a mut SpikingNetwork) -> Self {
        TracedSnnModel { net }
    }
}

impl EventModel for TracedSnnModel<'_> {
    fn logits(&mut self, stream: &EventStream) -> axsnn::attacks::Result<Tensor> {
        let frames = {
            let _s = span("neuromorphic.frames");
            accumulate_frames(stream, self.net.config().time_steps, Accumulation::Binary)?
        };
        let _s = span("core.network");
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = self.net.forward(&frames, false, &mut rng)?;
        add("core.network.forward_calls", 1.0);
        add(
            "core.network.spikes_out",
            f64::from(out.stats.total_spikes()),
        );
        Ok(out.logits)
    }
}
