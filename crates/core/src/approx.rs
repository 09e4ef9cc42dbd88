//! Approximation: turning an AccSNN into an AxSNN.
//!
//! AxSNNs (Sec. II) associate an approximation level `a_th` with the
//! spiking neurons: connections whose significance falls below `a_th` are
//! skipped, trading accuracy for energy. Two mechanisms are provided:
//!
//! 1. [`apply_approximation`] — the vulnerability-analysis knob of
//!    Figs. 2–3: a relative magnitude cut at `level · max|w|` per layer.
//!    Level 0 is the AccSNN; level 1 silences the network (chance
//!    accuracy, as in the paper).
//! 2. [`ath_eq1`] / [`apply_eq1_approximation`] — the paper's Eq. (1):
//!    `a_th = (c·N_s/T) · min(1, V_m/V_th) · Σᵢ wᵖᵢ`, which weights the
//!    cut by observed spike activity and spike probability. This is the
//!    security-aware level selection Algorithm 1 searches over.

use crate::network::{SpikeStats, SpikingNetwork};
use crate::Result;

/// Relative approximation level in `[0, 1]` (`0` = accurate network).
///
/// # Example
///
/// ```
/// use axsnn_core::approx::ApproximationLevel;
///
/// let level = ApproximationLevel::new(0.01).unwrap();
/// assert_eq!(level.value(), 0.01);
/// assert!(ApproximationLevel::new(-0.5).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ApproximationLevel(f32);

impl ApproximationLevel {
    /// The accurate (no approximation) level.
    pub const ACCURATE: ApproximationLevel = ApproximationLevel(0.0);

    /// Creates a level, rejecting negatives and NaN.
    pub fn new(value: f32) -> Option<Self> {
        if value.is_finite() && value >= 0.0 {
            Some(ApproximationLevel(value))
        } else {
            None
        }
    }

    /// The raw level value.
    pub fn value(&self) -> f32 {
        self.0
    }

    /// Whether this level leaves the network exact.
    pub fn is_accurate(&self) -> bool {
        self.0 == 0.0
    }
}

impl Default for ApproximationLevel {
    fn default() -> Self {
        ApproximationLevel::ACCURATE
    }
}

/// Report of an approximation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxReport {
    /// Fraction of weights zeroed per parameterized layer.
    pub pruned_fraction_per_layer: Vec<f32>,
    /// Total weights zeroed.
    pub pruned_total: usize,
    /// Total weights considered.
    pub weight_total: usize,
}

impl ApproxReport {
    /// Overall pruned fraction across all layers.
    pub fn pruned_fraction(&self) -> f32 {
        if self.weight_total == 0 {
            0.0
        } else {
            self.pruned_total as f32 / self.weight_total as f32
        }
    }
}

/// Applies relative-magnitude approximation: for every parameterized
/// layer, weights with `|w| < level · max|w|` are zeroed (the connection
/// is skipped). Biases are kept.
///
/// This mirrors the paper's "approximation level" sweep (0, 0.001, 0.01,
/// 0.1, 1): level 1 removes every connection whose magnitude is below the
/// maximum, i.e. effectively all of them.
///
/// Each layer's installed reduced-precision weight plane is rebuilt from
/// its pruned weights ([`crate::layer::Layer::refresh_weight_plane`]),
/// so a planed network runs the same weights as one pruned before its
/// plane was installed.
///
/// # Errors
///
/// Returns the plane refresh's error when a layer with an int8 plane
/// holds non-finite weights (an earlier failed refresh left them
/// there); the layers before it are already pruned.
///
/// # Example
///
/// ```
/// use axsnn_core::approx::{apply_approximation, ApproximationLevel};
/// use axsnn_core::layer::Layer;
/// use axsnn_core::network::{SnnConfig, SpikingNetwork};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig::default();
/// let mut net = SpikingNetwork::new(
///     vec![
///         Layer::spiking_linear(&mut rng, 8, 8, &cfg),
///         Layer::output_linear(&mut rng, 8, 2),
///     ],
///     cfg,
/// )?;
/// let report = apply_approximation(&mut net, ApproximationLevel::new(0.5).unwrap())?;
/// assert!(report.pruned_fraction() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn apply_approximation(
    net: &mut SpikingNetwork,
    level: ApproximationLevel,
) -> Result<ApproxReport> {
    let mut per_layer = Vec::new();
    let mut pruned_total = 0usize;
    let mut weight_total = 0usize;
    if level.is_accurate() {
        for layer in net.layers() {
            if let Some((w, _)) = layer.params() {
                per_layer.push(0.0);
                weight_total += w.value.len();
            }
        }
        return Ok(ApproxReport {
            pruned_fraction_per_layer: per_layer,
            pruned_total: 0,
            weight_total,
        });
    }
    for layer in net.layers_mut() {
        if let Some((w, _)) = layer.params_mut() {
            let cut = level.value() * w.value.linf_norm();
            let mut pruned = 0usize;
            let total = w.value.len();
            for v in w.value.as_mut_slice() {
                if v.abs() < cut {
                    *v = 0.0;
                    pruned += 1;
                }
            }
            per_layer.push(if total == 0 {
                0.0
            } else {
                pruned as f32 / total as f32
            });
            pruned_total += pruned;
            weight_total += total;
        }
        layer.refresh_weight_plane()?;
    }
    Ok(ApproxReport {
        pruned_fraction_per_layer: per_layer,
        pruned_total,
        weight_total,
    })
}

/// Fraction of weights a given approximation level removes under
/// [`apply_quantile_approximation`]: one pruning quartile per decade,
/// `f(level) = clamp(1 + 0.25·log₁₀(level), 0, 1)`.
///
/// The paper sweeps levels {0.001, 0.01, 0.1, 1} and observes clean
/// accuracies of ≈96 / 93 / 51 / 10 % — a ladder spanning "barely
/// touched" to "chance". The log-decade mapping reproduces exactly that
/// ladder on magnitude-ranked pruning (level 1 removes everything, each
/// decade down spares another quarter of the weights).
///
/// # Example
///
/// ```
/// use axsnn_core::approx::{quantile_fraction, ApproximationLevel};
///
/// assert_eq!(quantile_fraction(ApproximationLevel::ACCURATE), 0.0);
/// assert_eq!(quantile_fraction(ApproximationLevel::new(1.0).unwrap()), 1.0);
/// let half = quantile_fraction(ApproximationLevel::new(0.01).unwrap());
/// assert!((half - 0.5).abs() < 1e-6);
/// ```
pub fn quantile_fraction(level: ApproximationLevel) -> f32 {
    if level.is_accurate() {
        return 0.0;
    }
    (1.0 + 0.25 * level.value().log10()).clamp(0.0, 1.0)
}

/// Applies quantile (magnitude-ranked) approximation: in every
/// parameterized layer the smallest-magnitude fraction
/// [`quantile_fraction`]`(level)` of weights is zeroed.
///
/// This is the level semantics used by the experiment scenarios: unlike
/// the relative-magnitude cut of [`apply_approximation`], the pruned
/// fraction is independent of the layer's weight distribution, which
/// makes the level axis comparable across architectures (and matches the
/// paper's observed accuracy ladder — see [`quantile_fraction`]).
///
/// # Errors
///
/// As [`apply_approximation`].
pub fn apply_quantile_approximation(
    net: &mut SpikingNetwork,
    level: ApproximationLevel,
) -> Result<ApproxReport> {
    let fraction = quantile_fraction(level);
    let mut per_layer = Vec::new();
    let mut pruned_total = 0usize;
    let mut weight_total = 0usize;
    for layer in net.layers_mut() {
        if let Some((w, _)) = layer.params_mut() {
            let total = w.value.len();
            weight_total += total;
            if fraction <= 0.0 || total == 0 {
                per_layer.push(0.0);
                continue;
            }
            let mut pruned = 0usize;
            if fraction >= 1.0 {
                for v in w.value.as_mut_slice() {
                    *v = 0.0;
                }
                pruned = total;
            } else {
                let mut mags: Vec<f32> = w.value.as_slice().iter().map(|v| v.abs()).collect();
                mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let k = ((total as f32 * fraction) as usize).min(total - 1);
                let cut = mags[k];
                for v in w.value.as_mut_slice() {
                    if v.abs() < cut {
                        *v = 0.0;
                        pruned += 1;
                    }
                }
            }
            per_layer.push(pruned as f32 / total as f32);
            pruned_total += pruned;
        }
        layer.refresh_weight_plane()?;
    }
    Ok(ApproxReport {
        pruned_fraction_per_layer: per_layer,
        pruned_total,
        weight_total,
    })
}

/// Inputs to the Eq. (1) `a_th` computation for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq1Inputs {
    /// Number of connections to the output of the neuron group, `c`.
    pub connections: usize,
    /// Observed number of spikes `N_s` on calibration data.
    pub spikes: f32,
    /// Simulation time steps `T`.
    pub time_steps: usize,
    /// Representative membrane potential `V_m` (mean pre-spike).
    pub membrane: f32,
    /// Threshold voltage `V_th`.
    pub threshold: f32,
    /// Mean precision-scaled weight `Σᵢ wᵖᵢ / c` aggregated as the paper's
    /// connection mean `m_l^c`.
    pub mean_weight: f32,
}

/// Computes the paper's Eq. (1):
/// `a_th = (c·N_s/T) · min(1, V_m/V_th) · m_l^c`.
///
/// The result is clamped at zero (a negative mean weight cannot produce a
/// meaningful skip threshold).
///
/// # Example
///
/// ```
/// use axsnn_core::approx::{ath_eq1, Eq1Inputs};
///
/// let ath = ath_eq1(&Eq1Inputs {
///     connections: 10,
///     spikes: 32.0,
///     time_steps: 32,
///     membrane: 0.5,
///     threshold: 1.0,
///     mean_weight: 0.02,
/// });
/// assert!((ath - 10.0 * 1.0 * 0.5 * 0.02).abs() < 1e-6);
/// ```
pub fn ath_eq1(inputs: &Eq1Inputs) -> f32 {
    if inputs.time_steps == 0 || inputs.threshold <= 0.0 {
        return 0.0;
    }
    let rate = inputs.connections as f32 * inputs.spikes / inputs.time_steps as f32;
    let spike_prob = (inputs.membrane / inputs.threshold).clamp(0.0, 1.0);
    (rate * spike_prob * inputs.mean_weight).max(0.0)
}

/// Computes per-layer Eq. (1) thresholds from observed [`SpikeStats`] and
/// applies them as *absolute* magnitude cuts, scaled by `scale` (the
/// user-facing approximation level of Algorithm 1).
///
/// Layer weights with `|w| < scale · a_th(layer)` are zeroed.
///
/// # Errors
///
/// As [`apply_approximation`].
pub fn apply_eq1_approximation(
    net: &mut SpikingNetwork,
    stats: &SpikeStats,
    scale: f32,
) -> Result<ApproxReport> {
    let time_steps = net.config().time_steps;
    let threshold = net.config().threshold;
    let mut per_layer = Vec::new();
    let mut pruned_total = 0usize;
    let mut weight_total = 0usize;
    let mut spiking_idx = 0usize;
    for layer in net.layers_mut() {
        let is_spiking = layer.is_spiking();
        if let Some((w, _)) = layer.params_mut() {
            let total = w.value.len();
            let spikes = if is_spiking {
                stats
                    .spikes_per_layer
                    .get(spiking_idx)
                    .copied()
                    .unwrap_or(0.0)
            } else {
                0.0
            };
            if is_spiking {
                spiking_idx += 1;
            }
            let outputs = w.value.shape().dims()[0].max(1);
            let connections = total / outputs;
            let mean_weight =
                w.value.as_slice().iter().map(|v| v.abs()).sum::<f32>() / total.max(1) as f32;
            // V_m proxy: half the threshold (mid-charge), per Sec. IV-A's
            // min(1, V_m/V_th) spike-probability weighting.
            let ath = ath_eq1(&Eq1Inputs {
                connections,
                spikes: spikes / outputs as f32,
                time_steps,
                membrane: 0.5 * threshold,
                threshold,
                mean_weight,
            });
            let cut = scale * ath;
            let mut pruned = 0usize;
            for v in w.value.as_mut_slice() {
                if v.abs() < cut {
                    *v = 0.0;
                    pruned += 1;
                }
            }
            per_layer.push(if total == 0 {
                0.0
            } else {
                pruned as f32 / total as f32
            });
            pruned_total += pruned;
            weight_total += total;
        }
        layer.refresh_weight_plane()?;
    }
    Ok(ApproxReport {
        pruned_fraction_per_layer: per_layer,
        pruned_total,
        weight_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::network::SnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(rng: &mut StdRng) -> SpikingNetwork {
        let cfg = SnnConfig::default();
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(rng, 16, 16, &cfg),
                Layer::output_linear(rng, 16, 4),
            ],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn level_validation() {
        assert!(ApproximationLevel::new(0.0).unwrap().is_accurate());
        assert!(ApproximationLevel::new(f32::NAN).is_none());
        assert!(ApproximationLevel::new(-0.1).is_none());
        assert!(ApproximationLevel::new(2.0).is_some());
    }

    #[test]
    fn accurate_level_prunes_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut n = net(&mut rng);
        let before: Vec<f32> = n.layers()[0].params().unwrap().0.value.as_slice().to_vec();
        let report = apply_approximation(&mut n, ApproximationLevel::ACCURATE).unwrap();
        assert_eq!(report.pruned_total, 0);
        assert_eq!(
            n.layers()[0].params().unwrap().0.value.as_slice(),
            &before[..]
        );
    }

    #[test]
    fn level_one_prunes_almost_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut n = net(&mut rng);
        let report = apply_approximation(&mut n, ApproximationLevel::new(1.0).unwrap()).unwrap();
        // Only elements equal to max|w| survive.
        assert!(
            report.pruned_fraction() > 0.95,
            "{}",
            report.pruned_fraction()
        );
    }

    #[test]
    fn pruning_is_monotone_in_level() {
        let mut rng = StdRng::seed_from_u64(0);
        let fractions: Vec<f32> = [0.001f32, 0.01, 0.1, 0.5, 1.0]
            .iter()
            .map(|&l| {
                let mut rng2 = StdRng::seed_from_u64(0);
                let mut n = net(&mut rng2);
                let _ = &mut rng;
                apply_approximation(&mut n, ApproximationLevel::new(l).unwrap())
                    .unwrap()
                    .pruned_fraction()
            })
            .collect();
        for pair in fractions.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "pruning must grow with level: {fractions:?}"
            );
        }
    }

    #[test]
    fn eq1_formula_components() {
        // Saturated spike probability clamps at 1.
        let a = ath_eq1(&Eq1Inputs {
            connections: 4,
            spikes: 8.0,
            time_steps: 4,
            membrane: 10.0,
            threshold: 1.0,
            mean_weight: 0.1,
        });
        assert!((a - 4.0 * 2.0 * 1.0 * 0.1).abs() < 1e-6);
        // Zero time steps degenerate to zero.
        assert_eq!(
            ath_eq1(&Eq1Inputs {
                connections: 4,
                spikes: 8.0,
                time_steps: 0,
                membrane: 1.0,
                threshold: 1.0,
                mean_weight: 0.1,
            }),
            0.0
        );
        // Negative mean weight clamps at zero.
        assert_eq!(
            ath_eq1(&Eq1Inputs {
                connections: 4,
                spikes: 8.0,
                time_steps: 4,
                membrane: 1.0,
                threshold: 1.0,
                mean_weight: -0.1,
            }),
            0.0
        );
    }

    #[test]
    fn eq1_application_prunes_with_activity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut n = net(&mut rng);
        let stats = SpikeStats {
            spikes_per_layer: vec![2000.0],
            synaptic_ops: 0.0,
            time_steps: 16,
        };
        let report = apply_eq1_approximation(&mut n, &stats, 1.0).unwrap();
        assert_eq!(report.pruned_fraction_per_layer.len(), 2);
        assert!(report.pruned_fraction() > 0.0);
    }

    #[test]
    fn eq1_zero_scale_prunes_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut n = net(&mut rng);
        let stats = SpikeStats {
            spikes_per_layer: vec![100.0],
            synaptic_ops: 0.0,
            time_steps: 16,
        };
        let report = apply_eq1_approximation(&mut n, &stats, 0.0).unwrap();
        assert_eq!(report.pruned_total, 0);
    }
}
