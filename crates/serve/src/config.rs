//! Service configuration: admission, batching window, degradation
//! ladder thresholds and hot-swap validation policy.

use crate::error::{Result, ServeError};
use axsnn_core::encoding::Encoder;
use axsnn_core::plan::PlanOverride;
use std::time::Duration;

/// Request priority class. Under overload the degradation ladder sheds
/// the lowest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort work, first to be shed.
    Low,
    /// Default class.
    Normal,
    /// Latency-sensitive work, never shed by the ladder (still subject
    /// to queue-full backpressure and its own deadline).
    High,
}

/// The degradation ladder's service levels, ordered from healthy to
/// most degraded. Transitions are driven by measured queue occupancy
/// with hysteresis (see [`DegradeConfig`]):
///
/// 1. [`ServiceLevel::Full`] — full batching window, the model's own
///    execution plan.
/// 2. [`ServiceLevel::ShrunkWindow`] — batching window shrunk so
///    requests stop accumulating coalescing latency.
/// 3. [`ServiceLevel::DegradedPlan`] — additionally execute under the
///    configured [`PlanOverride`] (bit-identical to every other plan,
///    so it changes speed only) and, when configured, a reduced
///    time-step count (the ladder's one accuracy-for-latency trade).
/// 4. [`ServiceLevel::Shedding`] — additionally reject
///    [`Priority::Low`] work at admission and drop it at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Healthy: full window, native plan.
    Full,
    /// Queue building: shrink the batching window.
    ShrunkWindow,
    /// Queue high: also switch to the degraded execution plan.
    DegradedPlan,
    /// Queue near capacity: also shed low-priority work.
    Shedding,
}

impl ServiceLevel {
    /// All levels, healthy to most degraded.
    pub const ALL: [ServiceLevel; 4] = [
        ServiceLevel::Full,
        ServiceLevel::ShrunkWindow,
        ServiceLevel::DegradedPlan,
        ServiceLevel::Shedding,
    ];

    /// Index into [`ServiceLevel::ALL`] (0 = healthy).
    pub fn index(self) -> usize {
        match self {
            ServiceLevel::Full => 0,
            ServiceLevel::ShrunkWindow => 1,
            ServiceLevel::DegradedPlan => 2,
            ServiceLevel::Shedding => 3,
        }
    }
}

/// Degradation-ladder tuning. Occupancy is `queue depth / capacity` in
/// `[0, 1]`; a level is entered the moment occupancy reaches its
/// threshold (escalation is immediate — overload must never wait), and
/// left only after `recovery_dwell` consecutive dispatch observations
/// below the threshold minus `hysteresis_margin` (recovery is damped so
/// the ladder does not flap at a threshold boundary).
#[derive(Debug, Clone)]
pub struct DegradeConfig {
    /// Occupancy at which the batching window shrinks.
    pub shrink_at: f64,
    /// Occupancy at which the degraded plan engages.
    pub degrade_at: f64,
    /// Occupancy at which low-priority shedding engages.
    pub shed_at: f64,
    /// Occupancy slack required below a threshold before recovery
    /// counts toward the dwell.
    pub hysteresis_margin: f64,
    /// Consecutive below-threshold observations required to step back
    /// toward [`ServiceLevel::Full`].
    pub recovery_dwell: u32,
    /// Window divisor applied from [`ServiceLevel::ShrunkWindow`] up.
    pub window_shrink_divisor: u32,
    /// The plan installed at [`ServiceLevel::DegradedPlan`]. Every plan
    /// gives bit-identical outputs for finite weights, so this knob
    /// changes only speed. The default, `PlanOverride::Auto`, installs
    /// the shape-derived per-layer choices; `ForceDense` is slower on
    /// spike traffic (2.6× on an MNIST-scale MLP, ~30× on `PaperConv`).
    pub degraded_plan: PlanOverride,
    /// Optional reduced time-step count at
    /// [`ServiceLevel::DegradedPlan`] — the paper's approximation axis
    /// as a latency valve: fewer steps cost less and may change
    /// predictions. `None` (default) keeps the encode length and with it
    /// bit-identical predictions.
    pub degraded_time_steps: Option<usize>,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            shrink_at: 0.45,
            degrade_at: 0.70,
            shed_at: 0.90,
            hysteresis_margin: 0.10,
            recovery_dwell: 3,
            window_shrink_divisor: 4,
            degraded_plan: PlanOverride::Auto,
            degraded_time_steps: None,
        }
    }
}

impl DegradeConfig {
    /// Validates threshold ordering and ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when thresholds are out of
    /// `[0, 1]`, unordered, or the divisor/dwell are zero.
    pub fn validate(&self) -> Result<()> {
        let bad = |message: String| Err(ServeError::Config { message });
        for (name, v) in [
            ("shrink_at", self.shrink_at),
            ("degrade_at", self.degrade_at),
            ("shed_at", self.shed_at),
            ("hysteresis_margin", self.hysteresis_margin),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return bad(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if !(self.shrink_at <= self.degrade_at && self.degrade_at <= self.shed_at) {
            return bad(format!(
                "ladder thresholds must be ordered: shrink {} <= degrade {} <= shed {}",
                self.shrink_at, self.degrade_at, self.shed_at
            ));
        }
        if self.window_shrink_divisor == 0 {
            return bad("window_shrink_divisor must be >= 1".into());
        }
        if self.recovery_dwell == 0 {
            return bad("recovery_dwell must be >= 1".into());
        }
        if self.degraded_time_steps == Some(0) {
            return bad("degraded_time_steps must be >= 1".into());
        }
        Ok(())
    }
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing fused batches.
    pub workers: usize,
    /// Bounded admission-queue capacity; submissions beyond it observe
    /// [`ServeError::QueueFull`] backpressure.
    pub queue_capacity: usize,
    /// How long a worker holds its first request open for coalescing
    /// before executing the batch.
    pub batch_window: Duration,
    /// Largest fused batch a worker will assemble.
    pub max_batch: usize,
    /// Spike encoder requests are encoded with.
    pub encoder: Encoder,
    /// Degradation-ladder tuning.
    pub degrade: DegradeConfig,
    /// Seed for the hot-swap smoke probe's encoder stream.
    pub probe_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            batch_window: Duration::from_millis(2),
            max_batch: 32,
            encoder: Encoder::Deterministic,
            degrade: DegradeConfig::default(),
            probe_seed: 0xA55_5EED,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for zero workers/capacity/batch
    /// or an invalid [`DegradeConfig`].
    pub fn validate(&self) -> Result<()> {
        let bad = |message: String| Err(ServeError::Config { message });
        if self.workers == 0 {
            return bad("workers must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return bad("queue_capacity must be >= 1".into());
        }
        if self.max_batch == 0 {
            return bad("max_batch must be >= 1".into());
        }
        self.degrade.validate()
    }

    /// The effective coalescing window at `level`.
    pub fn window_at(&self, level: ServiceLevel) -> Duration {
        if level >= ServiceLevel::ShrunkWindow {
            self.batch_window / self.degrade.window_shrink_divisor
        } else {
            self.batch_window
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let c = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = ServeConfig::default();
        c.degrade.shed_at = 0.2; // below degrade_at: unordered
        assert!(c.validate().is_err());
        let mut c = ServeConfig::default();
        c.degrade.shrink_at = 1.5;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::default();
        c.degrade.window_shrink_divisor = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::default();
        c.degrade.recovery_dwell = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::default();
        c.degrade.degraded_time_steps = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn levels_are_ordered_and_indexed() {
        for w in ServiceLevel::ALL.windows(2) {
            assert!(w[0] < w[1]);
            assert_eq!(w[0].index() + 1, w[1].index());
        }
    }

    #[test]
    fn window_shrinks_from_shrunk_level_up() {
        let c = ServeConfig::default();
        assert_eq!(c.window_at(ServiceLevel::Full), c.batch_window);
        for level in [
            ServiceLevel::ShrunkWindow,
            ServiceLevel::DegradedPlan,
            ServiceLevel::Shedding,
        ] {
            assert_eq!(c.window_at(level), c.batch_window / 4);
        }
    }

    #[test]
    fn priority_orders() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }
}
