//! The micro-batching inference service.
//!
//! Concurrent [`Request`]s enter a bounded admission queue; worker
//! threads coalesce them into fused shards (up to a batching window /
//! batch cap) and execute them through the network's
//! [`classify_batch_fused`](SpikingNetwork::classify_batch_fused)
//! engine under its [`axsnn_core::plan::ExecPlan`]-selected kernels.
//!
//! Robustness properties, each pinned by the `serve_equivalence` suite:
//!
//! * **Backpressure** — submissions beyond the queue capacity observe
//!   [`ServeError::QueueFull`] instead of growing memory.
//! * **Deadlines** — a request whose deadline expires while queued is
//!   dropped *before* execution and answered with
//!   [`ServeError::DeadlineExpired`]; late work is never run.
//! * **Panic isolation** — a batch execution that panics is caught
//!   ([`std::panic::catch_unwind`]), the worker's model state is
//!   rebuilt from the shared snapshot (a respawn), and the batch's
//!   requests are retried once individually so a poisoned request
//!   fails alone with [`ServeError::WorkerPanicked`] while its batch
//!   mates still get answers.
//! * **Graceful degradation** — measured queue occupancy drives the
//!   [`ServiceLevel`] ladder (shrink window → cheaper plan → shed
//!   low-priority), escalating immediately and recovering one rung at
//!   a time behind a hysteresis dwell.
//! * **Validated hot swap** — [`InferenceService::swap_model`] smoke-
//!   classifies the candidate against the pinned probe before an
//!   atomic generation bump; a failing candidate is rolled back and the
//!   previous model keeps serving.
//!
//! Per-request encoding seeds make served predictions independent of
//! batch composition: every row of a fused batch is bit-identical to a
//! direct [`SpikingNetwork::classify`] with the same seed (the fused
//! engine's row-equivalence guarantee).

use crate::config::{Priority, ServeConfig, ServiceLevel};
use crate::error::{Result, ServeError};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use axsnn_core::batch::panic_payload;
use axsnn_core::fused::FrameTrain;
use axsnn_core::io::load_network;
use axsnn_core::network::SpikingNetwork;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One classification request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Input image; shape must match the served model's input.
    pub image: Tensor,
    /// Per-request encoding seed. Served predictions are a pure
    /// function of `(model, image, seed)` — batch composition never
    /// leaks in.
    pub seed: u64,
    /// Priority class for overload shedding.
    pub priority: Priority,
    /// Optional deadline relative to submission; expired work is
    /// dropped before execution.
    pub deadline: Option<Duration>,
    /// Fault-injection hook: a poisoned request panics the worker that
    /// executes it (the isolation tests' and robustness bench's
    /// chaos source). Never set in production traffic.
    pub poison: bool,
}

impl Request {
    /// A normal-priority request with no deadline.
    pub fn new(image: Tensor, seed: u64) -> Self {
        Request {
            image,
            seed,
            priority: Priority::Normal,
            deadline: None,
            poison: false,
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a deadline relative to submission.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Marks the request as a panic-injecting poison pill (tests only).
    #[must_use]
    pub fn poisoned(mut self) -> Self {
        self.poison = true;
        self
    }
}

/// A served prediction plus service-side context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Predicted class index.
    pub prediction: usize,
    /// Time the request waited in the queue before dispatch.
    pub queue_wait: Duration,
    /// Size of the fused batch that served it (1 for isolation
    /// retries).
    pub batch_size: usize,
    /// Service level at dispatch.
    pub level: ServiceLevel,
    /// Model generation that produced the prediction.
    pub generation: u64,
    /// `true` when this answer came from the post-panic individual
    /// retry pass.
    pub retried: bool,
}

/// Handle to one in-flight request. The service answers every accepted
/// ticket exactly once — success or a typed [`ServeError`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Propagates the service-side [`ServeError`];
    /// [`ServeError::ShuttingDown`] if the service dropped without
    /// answering (cannot happen through the public API).
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks up to `timeout`; `None` when the response has not
    /// arrived yet.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// An accepted request waiting in the admission queue.
struct Pending {
    image: Tensor,
    seed: u64,
    priority: Priority,
    poison: bool,
    submitted: Instant,
    expires: Option<Instant>,
    tx: mpsc::Sender<Result<Response>>,
}

/// The served model at one generation. Immutable once installed;
/// workers clone the network out of it.
struct ModelState {
    net: SpikingNetwork,
    generation: u64,
    input_dims: Vec<usize>,
    time_steps: usize,
}

struct QueueState {
    queue: VecDeque<Pending>,
    closed: bool,
}

struct LadderState {
    level: ServiceLevel,
    below_streak: u32,
}

struct Shared {
    config: ServeConfig,
    metrics: ServeMetrics,
    queue: Mutex<QueueState>,
    available: Condvar,
    model: Mutex<Arc<ModelState>>,
    model_gen: AtomicU64,
    ladder: Mutex<LadderState>,
    level_idx: AtomicU64,
    probe: Tensor,
}

impl Shared {
    fn current_level(&self) -> ServiceLevel {
        ServiceLevel::ALL[self.level_idx.load(Ordering::Relaxed) as usize]
    }

    /// Folds one queue-occupancy observation into the ladder:
    /// escalation is immediate, recovery steps one rung at a time after
    /// `recovery_dwell` consecutive observations with
    /// `hysteresis_margin` slack below the current rung's threshold.
    fn observe_occupancy(&self, depth: usize) -> ServiceLevel {
        let d = &self.config.degrade;
        let occ = depth as f64 / self.config.queue_capacity as f64;
        let target = if occ >= d.shed_at {
            ServiceLevel::Shedding
        } else if occ >= d.degrade_at {
            ServiceLevel::DegradedPlan
        } else if occ >= d.shrink_at {
            ServiceLevel::ShrunkWindow
        } else {
            ServiceLevel::Full
        };
        let mut ladder = self.ladder.lock().expect("ladder lock");
        if target > ladder.level {
            ladder.level = target;
            ladder.below_streak = 0;
            self.metrics.record_level_entry(target);
            self.level_idx
                .store(target.index() as u64, Ordering::Relaxed);
        } else if target < ladder.level {
            let entry_threshold = match ladder.level {
                ServiceLevel::Full => 0.0,
                ServiceLevel::ShrunkWindow => d.shrink_at,
                ServiceLevel::DegradedPlan => d.degrade_at,
                ServiceLevel::Shedding => d.shed_at,
            };
            if occ <= entry_threshold - d.hysteresis_margin {
                ladder.below_streak += 1;
            } else {
                ladder.below_streak = 0;
            }
            if ladder.below_streak >= d.recovery_dwell {
                let down = ServiceLevel::ALL[ladder.level.index() - 1];
                ladder.level = down;
                ladder.below_streak = 0;
                self.metrics.record_level_entry(down);
                self.level_idx.store(down.index() as u64, Ordering::Relaxed);
            }
        } else {
            ladder.below_streak = 0;
        }
        ladder.level
    }
}

/// Validates a candidate model against the pinned probe: inference
/// mode, finite smoke classification, non-empty stack. Returns the
/// ready-to-install state (generation assigned by the caller).
fn validate_model(
    mut net: SpikingNetwork,
    probe: &Tensor,
    encoder: axsnn_core::encoding::Encoder,
    probe_seed: u64,
) -> Result<(SpikingNetwork, Vec<usize>, usize)> {
    let reject = |reason: String| Err(ServeError::SwapRejected { reason });
    if net.depth() == 0 {
        return reject("empty layer stack".into());
    }
    net.set_train_mode(false);
    let time_steps = net.config().time_steps;
    if time_steps == 0 {
        return reject("zero time steps".into());
    }
    // Workers clone the installed model: pack it once, so the smoke
    // clone and every worker share its panels.
    net.pack_weights();
    // Smoke-classify a clone so the install candidate keeps pristine
    // state. A shape-incompatible or numerically broken model fails
    // here, before it can ever serve traffic.
    let mut smoke = net.clone();
    let mut rng = StdRng::seed_from_u64(probe_seed);
    match catch_unwind(AssertUnwindSafe(|| {
        smoke.classify(probe, encoder, &mut rng)
    })) {
        Ok(Ok(_prediction)) => {}
        Ok(Err(e)) => return reject(format!("probe classification failed: {e}")),
        Err(p) => {
            return reject(format!(
                "probe classification panicked: {}",
                panic_payload(p.as_ref())
            ))
        }
    }
    let dims = probe.shape().dims().to_vec();
    Ok((net, dims, time_steps))
}

/// The fault-tolerant micro-batching inference service. See the
/// [module docs](self) for the full property list.
///
/// # Example
///
/// ```
/// use axsnn_core::layer::Layer;
/// use axsnn_core::network::{SnnConfig, SpikingNetwork};
/// use axsnn_serve::{InferenceService, Request, ServeConfig};
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig { threshold: 1.0, time_steps: 6, leak: 0.9 };
/// let net = SpikingNetwork::new(
///     vec![
///         Layer::spiking_linear(&mut rng, 4, 8, &cfg),
///         Layer::output_linear(&mut rng, 8, 3),
///     ],
///     cfg,
/// )?;
/// let probe = Tensor::full(&[4], 0.5);
/// let service = InferenceService::start(net, probe, ServeConfig::default())?;
/// let ticket = service.submit(Request::new(Tensor::full(&[4], 0.8), 7))?;
/// let response = ticket.wait()?;
/// assert!(response.prediction < 3);
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct InferenceService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl InferenceService {
    /// Validates the model against `probe`, installs it as generation
    /// 1 and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid configuration and
    /// [`ServeError::SwapRejected`] when the initial model fails probe
    /// validation.
    pub fn start(net: SpikingNetwork, probe: Tensor, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let (net, input_dims, time_steps) =
            validate_model(net, &probe, config.encoder, config.probe_seed)?;
        let shared = Arc::new(Shared {
            config,
            metrics: ServeMetrics::default(),
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            model: Mutex::new(Arc::new(ModelState {
                net,
                generation: 1,
                input_dims,
                time_steps,
            })),
            model_gen: AtomicU64::new(1),
            ladder: Mutex::new(LadderState {
                level: ServiceLevel::Full,
                below_streak: 0,
            }),
            level_idx: AtomicU64::new(0),
            probe,
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // Respawn harness: a panic escaping the worker loop
                    // (the per-batch guard makes this unlikely) restarts
                    // the loop instead of silently losing the thread.
                    loop {
                        let done = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_ok();
                        if done || shared.queue.lock().expect("queue lock").closed {
                            break;
                        }
                        shared
                            .metrics
                            .worker_respawns
                            .fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Ok(InferenceService {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Submits a request, returning a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] — image shape does not match
    ///   the served model, or a pixel is NaN or infinite (the message
    ///   names the first such flat index and its value). Rejected
    ///   requests touch no queue counter.
    /// * [`ServeError::Shed`] — shedding level and priority below the
    ///   admission floor.
    /// * [`ServeError::QueueFull`] — bounded-queue backpressure.
    /// * [`ServeError::ShuttingDown`] — service closed.
    pub fn submit(&self, req: Request) -> Result<Ticket> {
        let model = Arc::clone(&self.shared.model.lock().expect("model lock"));
        if req.image.shape().dims() != model.input_dims.as_slice() {
            return Err(ServeError::InvalidRequest {
                message: format!(
                    "image shape {:?} does not match model input {:?}",
                    req.image.shape().dims(),
                    model.input_dims
                ),
            });
        }
        // The encoders clamp pixels into [0, 1], which passes NaN
        // through (it never spikes) and folds ±inf to 1 or 0, so a
        // non-finite image would be answered as if it were a real one.
        if let Some((i, v)) = req
            .image
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
        {
            return Err(ServeError::InvalidRequest {
                message: format!("image pixel {i} is {v}, not a finite value"),
            });
        }
        if self.shared.current_level() >= ServiceLevel::Shedding && req.priority < Priority::Normal
        {
            self.shared
                .metrics
                .shed_priority
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Shed {
                priority: format!("{:?}", req.priority),
            });
        }
        let submitted = Instant::now();
        let expires = req.deadline.map(|d| submitted + d);
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            if q.queue.len() >= self.shared.config.queue_capacity {
                self.shared
                    .metrics
                    .rejected_full
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    depth: q.queue.len(),
                    capacity: self.shared.config.queue_capacity,
                });
            }
            q.queue.push_back(Pending {
                image: req.image,
                seed: req.seed,
                priority: req.priority,
                poison: req.poison,
                submitted,
                expires,
                tx,
            });
        }
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits and waits — the one-call convenience path.
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceService::submit`] and service-side errors.
    pub fn classify_blocking(&self, image: Tensor, seed: u64) -> Result<Response> {
        self.submit(Request::new(image, seed))?.wait()
    }

    /// Validates `net` against the pinned probe and atomically installs
    /// it as the next generation. On validation failure the previous
    /// model keeps serving (rollback) and the error reports why.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SwapRejected`] with the rollback reason.
    pub fn swap_model(&self, net: SpikingNetwork) -> Result<u64> {
        let validated = validate_model(
            net,
            &self.shared.probe,
            self.shared.config.encoder,
            self.shared.config.probe_seed,
        );
        let (net, input_dims, time_steps) = match validated {
            Ok(v) => v,
            Err(e) => {
                self.shared
                    .metrics
                    .swap_rollbacks
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let mut slot = self.shared.model.lock().expect("model lock");
        let generation = slot.generation + 1;
        *slot = Arc::new(ModelState {
            net,
            generation,
            input_dims,
            time_steps,
        });
        self.shared.model_gen.store(generation, Ordering::Release);
        self.shared.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// Loads a [`NetworkSnapshot`](axsnn_core::io::NetworkSnapshot)
    /// file (hardened `load_network` validation: finite weights,
    /// aligned plan) and hot-swaps it via
    /// [`InferenceService::swap_model`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SwapRejected`] for a corrupt file or a
    /// model failing probe validation; either way the previous model
    /// keeps serving.
    pub fn swap_model_file(&self, path: impl AsRef<Path>) -> Result<u64> {
        match load_network(path.as_ref()) {
            Ok(net) => self.swap_model(net),
            Err(e) => {
                self.shared
                    .metrics
                    .swap_rollbacks
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::SwapRejected {
                    reason: format!("snapshot load failed: {e}"),
                })
            }
        }
    }

    /// The currently served model generation.
    pub fn generation(&self) -> u64 {
        self.shared.model_gen.load(Ordering::Acquire)
    }

    /// The degradation ladder's current level.
    pub fn level(&self) -> ServiceLevel {
        self.shared.current_level()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").queue.len()
    }

    /// Point-in-time metrics copy.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Closes admission, drains the queue (every queued request still
    /// gets an answer) and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.closed = true;
        }
        self.shared.available.notify_all();
        let mut workers = self.workers.lock().expect("workers lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sends a response, recording completion metrics. A dropped ticket
/// (disconnected receiver) is not an error.
fn respond_ok(shared: &Shared, pending: &Pending, response: Response) {
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_latency(pending.submitted.elapsed());
    let _ = pending.tx.send(Ok(response));
}

fn respond_err(pending: &Pending, err: ServeError) {
    let _ = pending.tx.send(Err(err));
}

/// Pops up to `room` dispatchable requests from the queue into
/// `batch`, answering expired and shed requests on the spot (dropped
/// strictly before execution).
fn drain_into_batch(
    shared: &Shared,
    queue: &mut VecDeque<Pending>,
    batch: &mut Vec<Pending>,
    level: ServiceLevel,
    room: usize,
) {
    while batch.len() < room {
        let Some(pending) = queue.pop_front() else {
            break;
        };
        if let Some(expires) = pending.expires {
            let now = Instant::now();
            if now >= expires {
                shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
                respond_err(
                    &pending,
                    ServeError::DeadlineExpired {
                        waited: now.duration_since(pending.submitted),
                    },
                );
                continue;
            }
        }
        if level >= ServiceLevel::Shedding && pending.priority < Priority::Normal {
            shared.metrics.shed_priority.fetch_add(1, Ordering::Relaxed);
            respond_err(
                &pending,
                ServeError::Shed {
                    priority: format!("{:?}", pending.priority),
                },
            );
            continue;
        }
        batch.push(pending);
    }
}

/// One worker's cached model clone, tracked by generation and the plan
/// currently applied to it.
struct WorkerModel {
    net: SpikingNetwork,
    generation: u64,
    time_steps: usize,
    degraded: bool,
}

impl WorkerModel {
    /// Fresh pristine clone of the shared model.
    fn refresh(shared: &Shared) -> WorkerModel {
        let model = Arc::clone(&shared.model.lock().expect("model lock"));
        WorkerModel {
            net: model.net.clone(),
            generation: model.generation,
            time_steps: model.time_steps,
            degraded: false,
        }
    }

    /// Ensures the clone matches the shared generation and the ladder's
    /// plan for `level`. Recovery re-clones the pristine model rather
    /// than guessing an inverse override, so custom snapshot plans
    /// survive a degrade/recover cycle intact.
    fn sync(&mut self, shared: &Shared, level: ServiceLevel) {
        if self.generation != shared.model_gen.load(Ordering::Acquire) {
            *self = WorkerModel::refresh(shared);
        }
        let want_degraded = level >= ServiceLevel::DegradedPlan;
        if want_degraded && !self.degraded {
            self.net.apply_plan(shared.config.degrade.degraded_plan);
            if let Some(plane) = shared.config.degrade.degraded_weight_plane {
                // Installed models are validated finite at swap time, so
                // the int8 finiteness pre-check cannot fail here; if it
                // ever does, serving on f32 weights beats crashing a
                // worker.
                let _ = self.net.set_weight_plane(plane);
            }
            self.degraded = true;
        } else if !want_degraded && self.degraded {
            *self = WorkerModel::refresh(shared);
        }
    }

    /// Encode length for the current degradation state.
    fn effective_time_steps(&self, shared: &Shared) -> usize {
        match (self.degraded, shared.config.degrade.degraded_time_steps) {
            (true, Some(t)) => t.min(self.time_steps),
            _ => self.time_steps,
        }
    }
}

/// Encodes and classifies `batch` as one fused shard. Runs inside the
/// worker's `catch_unwind`; a poisoned request panics here.
fn execute_batch(
    net: &mut SpikingNetwork,
    batch: &[Pending],
    encoder: axsnn_core::encoding::Encoder,
    time_steps: usize,
) -> axsnn_core::Result<Vec<usize>> {
    let mut trains = Vec::with_capacity(batch.len());
    for pending in batch {
        if pending.poison {
            panic!("injected poison (request seed {})", pending.seed);
        }
        let mut rng = StdRng::seed_from_u64(pending.seed);
        trains.push(FrameTrain::encode(
            &pending.image,
            encoder,
            time_steps,
            &mut rng,
        )?);
    }
    net.classify_batch_fused(&trains)
}

/// Post-panic isolation pass: every request of the failed batch is
/// retried once, alone, on a fresh model clone. The poisoned request
/// panics again and fails alone; its batch mates get served.
fn retry_individually(
    shared: &Shared,
    worker: &mut WorkerModel,
    batch: Vec<Pending>,
    level: ServiceLevel,
    dispatch: Instant,
) {
    let encoder = shared.config.encoder;
    for pending in batch {
        if let Some(expires) = pending.expires {
            let now = Instant::now();
            if now >= expires {
                shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
                respond_err(
                    &pending,
                    ServeError::DeadlineExpired {
                        waited: now.duration_since(pending.submitted),
                    },
                );
                continue;
            }
        }
        shared
            .metrics
            .isolation_retries
            .fetch_add(1, Ordering::Relaxed);
        let time_steps = worker.effective_time_steps(shared);
        let single = std::slice::from_ref(&pending);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_batch(&mut worker.net, single, encoder, time_steps)
        }));
        match outcome {
            Ok(Ok(predictions)) => {
                respond_ok(
                    shared,
                    &pending,
                    Response {
                        prediction: predictions[0],
                        queue_wait: dispatch.duration_since(pending.submitted),
                        batch_size: 1,
                        level,
                        generation: worker.generation,
                        retried: true,
                    },
                );
            }
            Ok(Err(e)) => respond_err(&pending, ServeError::Core(e)),
            Err(panic) => {
                shared
                    .metrics
                    .poisoned_failed
                    .fetch_add(1, Ordering::Relaxed);
                respond_err(
                    &pending,
                    ServeError::WorkerPanicked {
                        payload: panic_payload(panic.as_ref()),
                    },
                );
                // The panic may have torn mid-forward state; rebuild
                // before the next retry (counts as a respawn).
                shared
                    .metrics
                    .worker_respawns
                    .fetch_add(1, Ordering::Relaxed);
                let degraded = worker.degraded;
                *worker = WorkerModel::refresh(shared);
                if degraded {
                    worker.sync(shared, level);
                }
            }
        }
    }
}

/// A worker thread's life: assemble a batch (bounded coalescing wait),
/// execute it fused, answer every member. Returns on shutdown with the
/// queue drained.
fn worker_loop(shared: &Shared) {
    let mut worker = WorkerModel::refresh(shared);
    loop {
        let mut batch: Vec<Pending> = Vec::new();
        let level;
        {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if !q.queue.is_empty() {
                    break;
                }
                if q.closed {
                    return;
                }
                q = shared.available.wait(q).expect("queue lock");
            }
            let depth = q.queue.len();
            shared.metrics.observe_queue_depth(depth);
            level = shared.observe_occupancy(depth);
            let max_batch = shared.config.max_batch;
            drain_into_batch(shared, &mut q.queue, &mut batch, level, max_batch);
            // Coalescing window: hold the first request(s) open briefly
            // so concurrent submitters can join this fused shard.
            let window = shared.config.window_at(level);
            let coalesce_until = Instant::now() + window;
            while !batch.is_empty() && batch.len() < max_batch {
                if !q.queue.is_empty() {
                    drain_into_batch(shared, &mut q.queue, &mut batch, level, max_batch);
                    continue;
                }
                if q.closed {
                    break;
                }
                let remaining = match coalesce_until.checked_duration_since(Instant::now()) {
                    Some(r) if r > Duration::ZERO => r,
                    _ => break,
                };
                let (guard, timeout) = shared
                    .available
                    .wait_timeout(q, remaining)
                    .expect("queue lock");
                q = guard;
                if timeout.timed_out() && q.queue.is_empty() {
                    break;
                }
            }
            if !q.queue.is_empty() {
                // Leftover work: wake a sibling before we go compute.
                shared.available.notify_one();
            }
        }
        if batch.is_empty() {
            continue;
        }
        let dispatch = Instant::now();
        worker.sync(shared, level);
        let time_steps = worker.effective_time_steps(shared);
        let encoder = shared.config.encoder;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_batch(&mut worker.net, &batch, encoder, time_steps)
        }));
        match outcome {
            Ok(Ok(predictions)) => {
                let batch_size = batch.len();
                shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .batched_requests
                    .fetch_add(batch_size as u64, Ordering::Relaxed);
                for (pending, prediction) in batch.iter().zip(predictions) {
                    respond_ok(
                        shared,
                        pending,
                        Response {
                            prediction,
                            queue_wait: dispatch.duration_since(pending.submitted),
                            batch_size,
                            level,
                            generation: worker.generation,
                            retried: false,
                        },
                    );
                }
            }
            Ok(Err(_batch_error)) => {
                // A batch-level error (e.g. one bad train) poisons the
                // fused shard but not its members: fall back to the
                // individual pass so each request gets its own verdict.
                retry_individually(shared, &mut worker, batch, level, dispatch);
            }
            Err(panic) => {
                shared.metrics.batch_panics.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .worker_respawns
                    .fetch_add(1, Ordering::Relaxed);
                let _ = panic_payload(panic.as_ref());
                // The panic may have torn the clone's forward state:
                // respawn it from the shared snapshot, then isolate.
                let degraded = worker.degraded;
                worker = WorkerModel::refresh(shared);
                if degraded {
                    worker.sync(shared, level);
                }
                retry_individually(shared, &mut worker, batch, level, dispatch);
            }
        }
    }
}
