//! Algorithm 1 — precision-scaling robustness search.
//!
//! The search explores the grid of threshold voltages, time steps and
//! precision scales; for each candidate it trains/obtains an accurate SNN
//! (line 3, via a caller-supplied trainer so both surrogate-gradient
//! training and ANN→SNN conversion plug in), verifies the quality
//! constraint `Q` (line 4), crafts adversarial examples on the accurate
//! model (line 5), precision-scales and approximates the network with the
//! Eq. (1) `a_th` (lines 8–11) — then installing the matching
//! reduced-precision weight plane ([`axsnn_core::plan::WeightPlane`]),
//! which re-quantizes the pruned weights so each candidate runs on
//! weights of its precision — and measures the robustness
//! `R(ε) = (1 − adv/|Dts|)·100` (line 21). The first configuration with
//! `R ≥ Q` is returned (lines 22–24), along with the full evaluation
//! trace for Table I-style reporting.
//!
//! # Sweep-scale amortization
//!
//! Two observations collapse the per-cell cost of the grid. First, the
//! adversarial examples depend only on `(attack, ε, adversary, Dts)` —
//! none of the swept knobs — so the search crafts them **once** and
//! every cell reuses them. Second, a cell's encoded inputs depend only
//! on `(encoding, T)`, so the clean and adversarial test sets live in
//! [`EncodedCache`]s keyed by `(encoding, T)`: all cells sharing a `T`
//! classify the same cached, sharded frame trains through the fused
//! batch engine ([`axsnn_core::fused`]). [`SearchOutcome::encode_passes`]
//! records how many full-dataset encode passes actually happened.

use crate::journal::{GridFingerprint, GridSweep, SweepOptions, SweepReport};
use crate::metrics::RobustnessOutcome;
use crate::{DefenseError, Result};
use axsnn_attacks::gradient::{
    AnnGradientSource, AttackBudget, Bim, GradientSource, ImageAttack, Pgd,
};
use axsnn_core::ann::AnnNetwork;
use axsnn_core::approx::apply_eq1_approximation;
use axsnn_core::batch::sample_seed;
use axsnn_core::encoding::Encoder;
use axsnn_core::json::Json;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_core::precision::{apply_precision, PrecisionScale};
use axsnn_datasets::cache::EncodedCache;
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gradient attack selection for the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticAttackKind {
    /// Projected gradient descent.
    Pgd,
    /// Basic iterative method.
    Bim,
}

impl StaticAttackKind {
    /// Attack name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StaticAttackKind::Pgd => "PGD",
            StaticAttackKind::Bim => "BIM",
        }
    }
}

/// The (V_th, T, precision, a_th-scale) grid Algorithm 1 sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Threshold voltages to test (paper: 0.25..=2.25 step 0.25).
    pub thresholds: Vec<f32>,
    /// Time steps to test (paper: 32..=80 step 8).
    pub time_steps: Vec<usize>,
    /// Precision scales (paper: FP32, FP16, INT8).
    pub precision_scales: Vec<PrecisionScale>,
    /// Multipliers applied to the Eq. (1) `a_th` (candidate approximation
    /// strengths).
    pub approx_scales: Vec<f32>,
}

impl SearchSpace {
    /// The paper's full grid.
    pub fn paper_grid() -> Self {
        SearchSpace {
            thresholds: (1..=9).map(|i| i as f32 * 0.25).collect(),
            time_steps: (0..=6).map(|i| 32 + i * 8).collect(),
            precision_scales: PrecisionScale::ALL.to_vec(),
            approx_scales: vec![0.5, 1.0, 1.5],
        }
    }

    fn validate(&self) -> Result<()> {
        if self.thresholds.is_empty()
            || self.time_steps.is_empty()
            || self.precision_scales.is_empty()
            || self.approx_scales.is_empty()
        {
            return Err(DefenseError::InvalidSearchSpace {
                message: "all search dimensions must be non-empty".into(),
            });
        }
        Ok(())
    }
}

/// Configuration of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionSearchConfig {
    /// The grid to sweep.
    pub space: SearchSpace,
    /// Quality constraint `Q` in percent: minimum clean accuracy for a
    /// trained model *and* minimum robustness for acceptance.
    pub quality_constraint: f32,
    /// Perturbation budget ε of the attack.
    pub epsilon: f32,
    /// Which gradient attack the adversary uses.
    pub attack: StaticAttackKind,
    /// Stop at the first satisfying configuration (the paper's behaviour)
    /// or sweep everything for a full trace.
    pub stop_at_first: bool,
    /// Worker threads for encoding and fused batch classification
    /// (`0` = all available cores).
    pub threads: usize,
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRecord {
    /// Threshold voltage.
    pub threshold: f32,
    /// Time steps.
    pub time_steps: usize,
    /// Precision scale.
    pub precision: PrecisionScale,
    /// `a_th` scale multiplier used.
    pub approx_scale: f32,
    /// Effective mean approximation level produced by Eq. (1)
    /// (fraction of weights pruned, a proxy for the paper's `a_th`).
    pub pruned_fraction: f32,
    /// Robustness / adversarial accuracy outcome.
    pub outcome: RobustnessOutcome,
}

/// Result of a full search run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchOutcome {
    /// First (or best, when not stopping early) satisfying record.
    pub best: Option<SearchRecord>,
    /// Every evaluated configuration in sweep order.
    pub trace: Vec<SearchRecord>,
    /// Configurations whose clean accuracy failed the quality constraint
    /// (line 4) and were skipped, as `(threshold, time_steps)` pairs.
    pub skipped: Vec<(f32, usize)>,
    /// Full-dataset encode passes performed (clean + adversarial): one
    /// per distinct `(encoding, T)` actually visited, however many grid
    /// cells shared it. A grid with a single `T` costs exactly 2 —
    /// clean once, adversarial once.
    pub encode_passes: usize,
}

/// Runs Algorithm 1.
///
/// * `trainer` produces an accurate SNN for a given configuration
///   (line 3) — pass a closure doing surrogate-gradient training or
///   ANN→SNN conversion.
/// * `adversary` is the accurate classifier the attacker crafts on
///   (threat model, Sec. III).
/// * `test` is `Dts`.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidSearchSpace`] / [`DefenseError::InvalidData`]
/// for malformed inputs and propagates training/attack failures.
pub fn precision_scaling_search<F, R>(
    config: &PrecisionSearchConfig,
    trainer: &mut F,
    adversary: &AnnNetwork,
    test: &[(Tensor, usize)],
    rng: &mut R,
) -> Result<SearchOutcome>
where
    F: FnMut(SnnConfig) -> axsnn_core::Result<SpikingNetwork>,
    R: Rng,
{
    let (outcome, report) = precision_scaling_search_resumable(
        config,
        trainer,
        adversary,
        test,
        rng,
        &SweepOptions::new(),
    )?;
    // Without a journal there is no later run to fill a hole, so a
    // permanently failed cell is fatal here.
    if let Some(failure) = report.failures.first() {
        return Err(DefenseError::SweepFailed {
            cell: failure.cell,
            message: failure.message.clone(),
        });
    }
    Ok(outcome)
}

/// [`precision_scaling_search`] on the crash-safe sweep engine
/// ([`crate::journal`]): with [`SweepOptions::journal`] set, every
/// completed `(V_th, T)` macro cell is checkpointed the moment it
/// finishes and a re-invocation replays committed cells instead of
/// re-running them. Per-cell determinism (the Eq. (1) statistics RNG is
/// seeded from [`sample_seed`] of the cell index) makes the assembled
/// [`SearchOutcome`] identical whether the grid ran uninterrupted or
/// was killed and resumed at any cell boundary — except
/// [`SearchOutcome::encode_passes`], which counts the encode work each
/// *process* actually performed.
///
/// The resume contract requires the *caller's* inputs to be
/// reproducible too: the same `rng` seed (it feeds the adversarial
/// crafting and the grid fingerprint) and a deterministic, stateless
/// `trainer` (ANN→SNN conversion qualifies; a stateful trainer would
/// diverge across cells that re-run).
///
/// Unlike the plain entry point, permanent cell failures are reported
/// in the returned [`SweepReport`] instead of failing the whole search
/// — their records are simply absent from the trace, and a later
/// resume retries them.
///
/// # Errors
///
/// Returns [`DefenseError::InvalidSearchSpace`] /
/// [`DefenseError::InvalidData`] for malformed inputs,
/// [`DefenseError::Journal`] for journal validation/write failures, and
/// [`DefenseError::Interrupted`] when a [`crate::journal::FaultPlan`]
/// kill switch fires.
pub fn precision_scaling_search_resumable<F, R>(
    config: &PrecisionSearchConfig,
    trainer: &mut F,
    adversary: &AnnNetwork,
    test: &[(Tensor, usize)],
    rng: &mut R,
    opts: &SweepOptions,
) -> Result<(SearchOutcome, SweepReport)>
where
    F: FnMut(SnnConfig) -> axsnn_core::Result<SpikingNetwork>,
    R: Rng,
{
    config.space.validate()?;
    if test.is_empty() {
        return Err(DefenseError::InvalidData {
            message: "test set must be non-empty".into(),
        });
    }
    let budget = AttackBudget::for_epsilon(config.epsilon);

    // Lines 5/15: craft the adversarial test set *once* — it depends
    // only on the attacker's surrogate and ε, never on the swept knobs.
    let adv_data: Vec<(Tensor, usize)> = {
        let mut source = AnnGradientSource::new(adversary);
        match config.attack {
            StaticAttackKind::Pgd => craft_all(&Pgd::new(budget), &mut source, test, rng)?,
            StaticAttackKind::Bim => craft_all(&Bim::new(budget), &mut source, test, rng)?,
        }
    };
    // Encoded-frame caches shared by every grid cell with the same T.
    let cache_seed = rng.gen::<u64>();
    // All remaining randomness is re-derived per cell from this seed so
    // a cell's payload depends only on its index — the determinism
    // contract the journal's bit-identical resume rests on.
    let grid_seed = rng.gen::<u64>();
    let clean_cache = EncodedCache::new(test, cache_seed, config.threads);
    let adv_cache = EncodedCache::new(&adv_data, cache_seed ^ 0xadf0_0d5e, config.threads);

    let thresholds = &config.space.thresholds;
    let steps = &config.space.time_steps;
    let n_t = steps.len();
    let sweep = GridSweep::new(
        thresholds.len() * n_t,
        search_fingerprint(config, cache_seed, grid_seed, test.len()),
    );

    // One macro cell per (V_th, T) pair, threshold-major — the unit of
    // checkpointing, holding every inner (precision, a_th) record.
    let eval = |cell: usize| -> Result<Json> {
        let threshold = thresholds[cell / n_t];
        let time_steps = steps[cell % n_t];
        let snn_cfg = SnnConfig {
            threshold,
            time_steps,
            leak: 0.9,
        };
        let mut cell_rng = StdRng::seed_from_u64(sample_seed(grid_seed, cell));
        // Line 3: obtain the accurate model.
        let accurate = trainer(snn_cfg).map_err(DefenseError::from)?;
        let clean_set = clean_cache
            .get(Encoder::DirectCurrent, time_steps)
            .map_err(DefenseError::from)?;
        let adv_set = adv_cache
            .get(Encoder::DirectCurrent, time_steps)
            .map_err(DefenseError::from)?;
        // Line 4: quality gate on clean accuracy.
        let clean = clean_set
            .accuracy(&accurate, config.threads)
            .map_err(DefenseError::from)?;
        if clean < config.quality_constraint {
            return Ok(Json::Obj(vec![("skipped".into(), Json::Bool(true))]));
        }
        // Collect spike statistics once per accurate model for Eq. (1).
        let stats = {
            let mut stat_net = accurate.clone();
            let frames = Encoder::DirectCurrent
                .encode(&test[0].0, time_steps, &mut cell_rng)
                .map_err(DefenseError::from)?;
            stat_net
                .forward(&frames, false, &mut cell_rng)
                .map_err(DefenseError::from)?
                .stats
        };
        let mut records = Vec::new();
        let mut stopped = false;
        'cell: for &precision in &config.space.precision_scales {
            for &approx_scale in &config.space.approx_scales {
                // Lines 8–11: precision-scale then approximate, then
                // install the matching weight plane: it re-quantizes the
                // pruned weights (Eq. (1) pruning can remove the
                // pre-pruning extreme weight, which moves the int8
                // grid), so the candidate runs on weights of its
                // precision.
                let mut candidate = accurate.clone();
                apply_precision(&mut candidate, precision).map_err(DefenseError::from)?;
                let report = apply_eq1_approximation(&mut candidate, &stats, approx_scale)
                    .map_err(DefenseError::from)?;
                candidate
                    .set_weight_plane(precision.weight_plane())
                    .map_err(DefenseError::from)?;
                // Lines 15–21: classify the cached clean and
                // adversarial sets through the fused batch engine.
                let clean_acc = clean_set
                    .accuracy(&candidate, config.threads)
                    .map_err(DefenseError::from)?;
                let adv_acc = adv_set
                    .accuracy(&candidate, config.threads)
                    .map_err(DefenseError::from)?;
                records.push(Json::Obj(vec![
                    ("precision".into(), Json::Str(precision.to_string())),
                    ("approx_scale".into(), Json::Num(f64::from(approx_scale))),
                    (
                        "pruned_fraction".into(),
                        Json::Num(f64::from(report.pruned_fraction())),
                    ),
                    ("clean".into(), Json::Num(f64::from(clean_acc))),
                    ("adv".into(), Json::Num(f64::from(adv_acc))),
                ]));
                // Lines 22–24: under stop_at_first the sweep halts at
                // the first satisfying record; no earlier cell had one
                // (it would have halted there), so "satisfying" is the
                // whole condition.
                if config.stop_at_first && adv_acc >= config.quality_constraint {
                    stopped = true;
                    break 'cell;
                }
            }
        }
        Ok(Json::Obj(vec![
            ("skipped".into(), Json::Bool(false)),
            ("stopped".into(), Json::Bool(stopped)),
            ("records".into(), Json::Arr(records)),
        ]))
    };
    let stop = |_cell: usize, payload: &Json| -> bool {
        matches!(payload.get("stopped"), Some(Json::Bool(true)))
    };
    let (payloads, report) = sweep.run_serial(opts, eval, stop)?;

    let mut outcome = assemble_outcome(config, test.len(), &payloads)?;
    outcome.encode_passes = clean_cache.encode_passes() + adv_cache.encode_passes();
    Ok((outcome, report))
}

/// The search grid's identity for journal validation: every input that
/// shapes a cell payload. Worker-thread counts are deliberately absent
/// — results are thread-count invariant.
fn search_fingerprint(
    config: &PrecisionSearchConfig,
    cache_seed: u64,
    grid_seed: u64,
    samples: usize,
) -> GridFingerprint {
    GridFingerprint::of(&format!(
        "axsnn.search.v2|th={:?}|T={:?}|prec={:?}|ax={:?}|Q={:?}|eps={:?}|attack={}|stop={}|\
         cache_seed={cache_seed}|grid_seed={grid_seed}|samples={samples}",
        config.space.thresholds,
        config.space.time_steps,
        config.space.precision_scales,
        config.space.approx_scales,
        config.quality_constraint,
        config.epsilon,
        config.attack.name(),
        config.stop_at_first,
    ))
}

fn payload_num(payload: &Json, key: &str) -> Result<f32> {
    payload
        .get(key)
        .and_then(Json::as_f64)
        .map(|v| v as f32)
        .ok_or_else(|| DefenseError::InvalidData {
            message: format!("sweep payload missing numeric field {key:?}"),
        })
}

fn precision_from_name(name: &str) -> Result<PrecisionScale> {
    PrecisionScale::ALL
        .iter()
        .copied()
        .find(|p| p.to_string() == name)
        .ok_or_else(|| DefenseError::InvalidData {
            message: format!("sweep payload has unknown precision {name:?}"),
        })
}

/// Rebuilds the [`SearchOutcome`] from the per-cell payloads, in fixed
/// cell order — the step that makes resumed and uninterrupted runs
/// indistinguishable. The best/trace logic here mirrors the original
/// in-loop accumulation exactly.
fn assemble_outcome(
    config: &PrecisionSearchConfig,
    samples: usize,
    payloads: &[Option<Json>],
) -> Result<SearchOutcome> {
    let n_t = config.space.time_steps.len();
    let mut outcome = SearchOutcome::default();
    for (cell, payload) in payloads.iter().enumerate() {
        let Some(payload) = payload else { continue };
        let threshold = config.space.thresholds[cell / n_t];
        let time_steps = config.space.time_steps[cell % n_t];
        if matches!(payload.get("skipped"), Some(Json::Bool(true))) {
            outcome.skipped.push((threshold, time_steps));
            continue;
        }
        let records = payload
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| DefenseError::InvalidData {
                message: "sweep payload missing records array".into(),
            })?;
        for rec in records {
            let precision = precision_from_name(
                rec.get("precision")
                    .and_then(Json::as_str)
                    .unwrap_or_default(),
            )?;
            let adv = payload_num(rec, "adv")?;
            let record = SearchRecord {
                threshold,
                time_steps,
                precision,
                approx_scale: payload_num(rec, "approx_scale")?,
                pruned_fraction: payload_num(rec, "pruned_fraction")?,
                outcome: RobustnessOutcome {
                    clean_accuracy: payload_num(rec, "clean")?,
                    adversarial_accuracy: adv,
                    robustness: adv,
                    samples,
                },
            };
            let satisfies = record.outcome.robustness >= config.quality_constraint;
            outcome.trace.push(record.clone());
            let better = match &outcome.best {
                None => satisfies,
                Some(b) => satisfies && record.outcome.robustness > b.outcome.robustness,
            };
            if better {
                outcome.best = Some(record);
            }
        }
    }
    Ok(outcome)
}

/// Crafts the adversarial counterpart of every test sample against the
/// adversary's surrogate.
fn craft_all<A: ImageAttack, R: Rng>(
    attack: &A,
    source: &mut dyn GradientSource,
    test: &[(Tensor, usize)],
    rng: &mut R,
) -> Result<Vec<(Tensor, usize)>> {
    test.iter()
        .map(|(image, label)| Ok((attack.perturb(source, image, *label, rng)?, *label)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_core::ann::AnnLayer;
    use axsnn_core::convert::ann_to_snn;
    use axsnn_core::train::{train_ann, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_setup(rng: &mut StdRng) -> (AnnNetwork, Vec<(Tensor, usize)>) {
        let mut ann = AnnNetwork::new(vec![
            AnnLayer::linear_relu(rng, 4, 16),
            AnnLayer::linear_out(rng, 16, 2),
        ])
        .unwrap();
        let data: Vec<(Tensor, usize)> = (0..32)
            .map(|i| {
                let c = i % 2;
                let base = if c == 0 { 0.15 } else { 0.85 };
                let x = Tensor::from_vec(
                    (0..4)
                        .map(|_| (base + rng.gen_range(-0.05..0.05f32)).clamp(0.0, 1.0))
                        .collect(),
                    &[4],
                )
                .unwrap();
                (x, c)
            })
            .collect();
        train_ann(
            &mut ann,
            &data,
            &TrainConfig {
                epochs: 25,
                learning_rate: 0.3,
                momentum: 0.0,
                batch_size: 8,
                encoder: Encoder::DirectCurrent,
                ..TrainConfig::default()
            },
            rng,
        )
        .unwrap();
        (ann, data)
    }

    #[test]
    fn search_space_validation() {
        let mut s = SearchSpace::paper_grid();
        assert!(s.validate().is_ok());
        s.thresholds.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn paper_grid_dimensions() {
        let s = SearchSpace::paper_grid();
        assert_eq!(s.thresholds.len(), 9);
        assert_eq!(s.time_steps, vec![32, 40, 48, 56, 64, 72, 80]);
        assert_eq!(s.precision_scales.len(), 3);
    }

    #[test]
    fn search_finds_configuration_on_toy_problem() {
        let mut rng = StdRng::seed_from_u64(21);
        let (ann, data) = toy_setup(&mut rng);
        let calib: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
        let test: Vec<(Tensor, usize)> = data.iter().take(12).cloned().collect();
        let config = PrecisionSearchConfig {
            space: SearchSpace {
                thresholds: vec![1.0],
                time_steps: vec![24],
                precision_scales: vec![PrecisionScale::Fp32, PrecisionScale::Int8],
                approx_scales: vec![0.5, 1.0],
            },
            quality_constraint: 60.0,
            epsilon: 0.05,
            attack: StaticAttackKind::Pgd,
            stop_at_first: false,
            threads: 2,
        };
        let ann_for_trainer = ann.clone();
        let mut trainer = move |cfg: SnnConfig| ann_to_snn(&ann_for_trainer, cfg, &calib);
        let out = precision_scaling_search(&config, &mut trainer, &ann, &test, &mut rng).unwrap();
        assert_eq!(out.trace.len(), 4, "2 precisions × 2 approx scales");
        assert!(
            out.best.is_some(),
            "an easy blob task with tiny ε must satisfy Q=60: {:?}",
            out.trace
        );
        // The sweep's four grid cells share (T, encoding): the clean and
        // adversarial datasets each encode exactly once.
        assert_eq!(
            out.encode_passes, 2,
            "4-cell grid must encode clean + adversarial exactly once each"
        );
    }

    #[test]
    fn quality_gate_skips_bad_models() {
        let mut rng = StdRng::seed_from_u64(22);
        let (ann, data) = toy_setup(&mut rng);
        let test: Vec<(Tensor, usize)> = data.iter().take(8).cloned().collect();
        let config = PrecisionSearchConfig {
            space: SearchSpace {
                thresholds: vec![50.0], // absurd threshold → silent network
                time_steps: vec![8],
                precision_scales: vec![PrecisionScale::Fp32],
                approx_scales: vec![1.0],
            },
            quality_constraint: 60.0,
            epsilon: 0.1,
            attack: StaticAttackKind::Bim,
            stop_at_first: true,
            threads: 1,
        };
        let calib: Vec<Tensor> = data.iter().take(4).map(|(x, _)| x.clone()).collect();
        let ann2 = ann.clone();
        let mut trainer = move |cfg: SnnConfig| ann_to_snn(&ann2, cfg, &calib);
        let out = precision_scaling_search(&config, &mut trainer, &ann, &test, &mut rng).unwrap();
        assert_eq!(out.skipped, vec![(50.0, 8)]);
        assert!(out.trace.is_empty());
        assert!(out.best.is_none());
    }

    #[test]
    fn empty_test_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let (ann, _) = toy_setup(&mut rng);
        let config = PrecisionSearchConfig {
            space: SearchSpace::paper_grid(),
            quality_constraint: 50.0,
            epsilon: 0.1,
            attack: StaticAttackKind::Pgd,
            stop_at_first: true,
            threads: 1,
        };
        let mut trainer =
            |_cfg: SnnConfig| -> axsnn_core::Result<SpikingNetwork> { unreachable!() };
        let r = precision_scaling_search(&config, &mut trainer, &ann, &[], &mut rng);
        assert!(r.is_err());
    }
}
