//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (the README's "Reproducing the paper" section lists them).
//! They share the scenario construction and sweep helpers defined here.
//!
//! The perf trajectory lives beside the figures: each `bench_*` binary
//! times its A/B pairs and emits one `BENCH_*.json` artifact through
//! [`harness`], and the `bench_gate` binary checks every artifact
//! against the one floor table in [`gates`].
//!
//! Scale knobs (environment variables):
//!
//! * `AXSNN_FULL=1` — paper-architecture conv networks and larger data
//!   (slow; minutes per figure),
//! * `AXSNN_SAMPLES=n` — evaluation samples per configuration (default
//!   40 static / all DVS test),
//! * `AXSNN_SEED=n` — experiment seed (default 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod harness;
pub mod json;

use axsnn::core::network::SnnConfig;
use axsnn::datasets::dvs::DvsGestureConfig;
use axsnn::datasets::mnist::MnistConfig;
use axsnn::defense::journal::{SweepOptions, SweepReport};
use axsnn::defense::scenario::{
    Architecture, DvsScenario, DvsScenarioConfig, MnistScenario, MnistScenarioConfig,
};
use axsnn::tensor::Tensor;

/// Reads the scale mode from `AXSNN_FULL`.
pub fn full_scale() -> bool {
    std::env::var("AXSNN_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Reads the experiment seed from `AXSNN_SEED` (default 1).
pub fn seed() -> u64 {
    std::env::var("AXSNN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Reads the per-configuration evaluation sample cap from
/// `AXSNN_SAMPLES` (default 40).
pub fn sample_cap() -> usize {
    std::env::var("AXSNN_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Reads the ε-axis calibration factor from `AXSNN_EPS_SCALE`
/// (default 0.1).
///
/// The paper's ε axis spans 0..1.5 on a 28×28 conv SNN whose rate-coded
/// pipeline heavily attenuates gradient attacks; our substrate (small
/// synthetic-digit models, clean direct-current gradients) is intrinsically
/// less robust, so the same qualitative regimes (no effect → gradual decay
/// → collapse) occur at ~10× smaller ε. The factor compresses the axis
/// while preserving the paper's ordering and crossover shape.
pub fn epsilon_scale() -> f32 {
    std::env::var("AXSNN_EPS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

/// The paper's threshold grid: 0.25..=2.25 step 0.25.
pub fn threshold_grid() -> Vec<f32> {
    (1..=9).map(|i| i as f32 * 0.25).collect()
}

/// The paper's time-step grid: 32..=80 step 8.
pub fn time_step_grid() -> Vec<usize> {
    (0..=6).map(|i| 32 + i * 8).collect()
}

/// Builds the MNIST scenario used by Figs. 1–6, 7a and Table I.
///
/// # Panics
///
/// Panics when scenario preparation fails — a bug, not an input error,
/// since all inputs are generated.
pub fn mnist_scenario() -> MnistScenario {
    let full = full_scale();
    let cfg = MnistScenarioConfig {
        mnist: MnistConfig {
            size: if full { 28 } else { 16 },
            train_per_class: if full { 80 } else { 40 },
            test_per_class: if full { 20 } else { 8 },
            noise: 0.04,
            seed: seed(),
        },
        architecture: if full {
            Architecture::PaperConv
        } else {
            Architecture::FastMlp
        },
        seed: seed(),
        ..MnistScenarioConfig::default()
    };
    MnistScenario::prepare(cfg).expect("MNIST scenario preparation")
}

/// Builds the DVS gesture scenario used by Fig. 7b and Table II.
///
/// # Panics
///
/// Panics when scenario preparation fails.
pub fn dvs_scenario() -> DvsScenario {
    let full = full_scale();
    let cfg = DvsScenarioConfig {
        dvs: DvsGestureConfig {
            train_per_class: if full { 16 } else { 8 },
            test_per_class: if full { 6 } else { 3 },
            ..DvsGestureConfig::default()
        },
        architecture: if full {
            Architecture::PaperConv
        } else {
            Architecture::FastMlp
        },
        seed: seed(),
        ..DvsScenarioConfig::default()
    };
    DvsScenario::prepare(cfg).expect("DVS scenario preparation")
}

/// Takes the first `sample_cap()` test samples of a static dataset.
pub fn capped_test(scenario: &MnistScenario) -> Vec<(Tensor, usize)> {
    scenario
        .dataset()
        .test
        .iter()
        .take(sample_cap())
        .cloned()
        .collect()
}

/// Standard SNN configuration at a grid point (leak fixed at 0.95 across
/// all experiments, as in the scenario defaults).
pub fn snn_config(threshold: f32, time_steps: usize) -> SnnConfig {
    SnnConfig {
        threshold,
        time_steps,
        leak: 0.9,
    }
}

/// The cache-aware schedule of a `(V_th, T)` grid sweep: shards of
/// `(t_index, vth_index)` cells that **never span two time steps**, so
/// a [`axsnn::core::batch::fan_out_with`] over the shards keeps each
/// `T`'s encoded frame set hot in the worker(s) that own it instead of
/// interleaving all `T`s through every worker (row-major scheduling).
///
/// With `workers` at most the number of time steps, each shard is one
/// whole `T` row — one owner per encoded set, no first-touch `Mutex`
/// contention on the [`axsnn::datasets::cache::EncodedCache`]. With
/// more workers each row subdivides into contiguous threshold chunks
/// (still single-`T`, preserving the cache affinity) so the extra
/// cores are not left idle.
///
/// # Example
///
/// ```
/// let shards = axsnn_bench::sweep_schedule(2, 3, 2);
/// assert_eq!(shards, vec![
///     vec![(0, 0), (0, 1), (0, 2)],
///     vec![(1, 0), (1, 1), (1, 2)],
/// ]);
/// // More workers than T rows: rows split, still one T per shard.
/// let shards = axsnn_bench::sweep_schedule(2, 3, 4);
/// assert_eq!(shards, vec![
///     vec![(0, 0), (0, 1)],
///     vec![(0, 2)],
///     vec![(1, 0), (1, 1)],
///     vec![(1, 2)],
/// ]);
/// ```
pub fn sweep_schedule(
    time_steps: usize,
    thresholds: usize,
    workers: usize,
) -> Vec<Vec<(usize, usize)>> {
    let splits_per_row = if time_steps == 0 {
        1
    } else {
        workers
            .div_ceil(time_steps.max(1))
            .clamp(1, thresholds.max(1))
    };
    let chunk = thresholds.div_ceil(splits_per_row).max(1);
    (0..time_steps)
        .flat_map(|ti| {
            (0..thresholds)
                .step_by(chunk)
                .map(move |lo| {
                    (lo..(lo + chunk).min(thresholds))
                        .map(|vi| (ti, vi))
                        .collect()
                })
                .collect::<Vec<Vec<(usize, usize)>>>()
        })
        .collect()
}

/// Sweeps the paper's `(V_th, T)` grid for one precision scale and one
/// attack, reproducing a Figs. 4–6 heatmap: each cell is the adversarial
/// accuracy of the precision-scaled AxSNN (approximation level 0.01 by
/// default) at ε = 1.
///
/// Thin wrapper over [`heatmap_sweep_resumable`] without a journal —
/// the run is not checkpointed and a permanently failed cell panics
/// (there is no later run to heal it).
///
/// Returns `cells[t_index][vth_index]` aligned with [`time_step_grid`] /
/// [`threshold_grid`].
///
/// # Panics
///
/// Panics on internal pipeline failures (all inputs are generated).
pub fn heatmap_sweep(
    scenario: &MnistScenario,
    precision: axsnn::core::precision::PrecisionScale,
    attack: axsnn::defense::search::StaticAttackKind,
    approx_level: f32,
    epsilon: f32,
) -> Vec<Vec<f32>> {
    let opts = axsnn::defense::journal::SweepOptions::new();
    let (rows, report) =
        heatmap_sweep_resumable(scenario, precision, attack, approx_level, epsilon, &opts)
            .expect("heatmap sweep");
    assert!(
        report.failures.is_empty(),
        "unjournaled sweep cells failed: {:?}",
        report.failures
    );
    rows
}

/// [`heatmap_sweep`] on the crash-safe sweep engine
/// ([`axsnn::defense::journal`]): cells are dispatched through the
/// work-stealing parallel runner, each completed cell is checkpointed
/// the moment it finishes (when [`SweepOptions::journal`] is set), and
/// a restarted process replays committed cells instead of re-running
/// them — at paper scale (`AXSNN_FULL=1`) a crash at cell 62/63 no
/// longer loses the first 61.
///
/// The adversarial test set is crafted **once** — it depends only on
/// the adversary's surrogate and ε, not on the swept `(V_th, T)` — and
/// its encoded frame trains are cached per `T`
/// ([`axsnn::datasets::cache::EncodedCache`]), so the 63 grid cells
/// share 7 encode passes. Every cell's payload is a pure function of
/// its cell index (crafting uses the per-sample
/// [`axsnn::core::batch::sample_seed`] convention, evaluation is
/// deterministic), so the merged grid is identical whether it ran
/// uninterrupted, was killed and resumed, or was sharded across
/// processes via [`SweepOptions::shard`] and merged with
/// [`axsnn::defense::journal::merge_journals`].
///
/// Cells that failed permanently (all retries exhausted) are reported
/// in the [`SweepReport`] and carry `NaN` in the grid; a later
/// journaled run retries them.
///
/// # Errors
///
/// Propagates journal validation/write failures and the fault plan's
/// kill switch ([`axsnn::defense::DefenseError::Interrupted`]).
///
/// # Panics
///
/// Panics on internal pipeline failures (all inputs are generated).
pub fn heatmap_sweep_resumable(
    scenario: &MnistScenario,
    precision: axsnn::core::precision::PrecisionScale,
    attack: axsnn::defense::search::StaticAttackKind,
    approx_level: f32,
    epsilon: f32,
    opts: &SweepOptions,
) -> Result<(Vec<Vec<f32>>, SweepReport), axsnn::defense::DefenseError> {
    use axsnn::attacks::gradient::{AnnGradientSource, AttackBudget, Bim, ImageAttack, Pgd};
    use axsnn::core::approx::ApproximationLevel;
    use axsnn::core::batch::{fan_out_with, sample_seed};
    use axsnn::core::encoding::Encoder;
    use axsnn::core::json::Json;
    use axsnn::core::precision::apply_precision;
    use axsnn::datasets::cache::EncodedCache;
    use axsnn::defense::journal::{GridFingerprint, GridSweep};
    use axsnn::defense::search::StaticAttackKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let test = capped_test(scenario);
    let thresholds = threshold_grid();
    let steps = time_step_grid();
    let budget = AttackBudget::for_epsilon(epsilon * epsilon_scale());
    let level = ApproximationLevel::new(approx_level).expect("valid level");

    // Craft the adversarial set once, fanned out with the per-sample
    // seeding convention so results are thread-count invariant.
    let adv: Vec<(axsnn::tensor::Tensor, usize)> = fan_out_with(
        test.len(),
        sweep_threads(),
        || AnnGradientSource::new(scenario.adversary()),
        |source, i, slot: &mut Option<(axsnn::tensor::Tensor, usize)>| {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed(), i));
            let (image, label) = &test[i];
            let adversarial = match attack {
                StaticAttackKind::Pgd => Pgd::new(budget).perturb(source, image, *label, &mut rng),
                StaticAttackKind::Bim => Bim::new(budget).perturb(source, image, *label, &mut rng),
            }
            .map_err(|e| axsnn::core::CoreError::Config {
                message: format!("attack crafting failed: {e}"),
            })?;
            *slot = Some((adversarial, *label));
            Ok::<(), axsnn::core::CoreError>(())
        },
    )
    .map_err(axsnn::defense::DefenseError::from)?
    .into_iter()
    .map(|s| s.expect("every slot crafted"))
    .collect();

    // Encoded-frame cache shared by all cells with the same T; the
    // cells themselves are the parallel axis, so each cell classifies
    // its cached shards single-threaded.
    let adv_cache = EncodedCache::new(&adv, seed(), 1);

    // Row-major cells: cell = ti * |V_th| + vi, matching the returned
    // row layout. The fingerprint covers everything that shapes a cell
    // value (grids, precision, attack, ε before and after calibration,
    // the experiment seed and the evaluated sample count) — a journal
    // from a differently-scaled run is refused, not replayed.
    let (n_t, n_v) = (steps.len(), thresholds.len());
    let sweep = GridSweep::new(
        n_t * n_v,
        GridFingerprint::of(&format!(
            "axsnn.heatmap.v1|T={steps:?}|th={thresholds:?}|prec={precision}|attack={}|\
             level={approx_level:?}|eps={epsilon:?}|eps_scale={:?}|seed={}|samples={}",
            attack.name(),
            epsilon_scale(),
            seed(),
            test.len(),
        )),
    );
    let eval = |cell: usize| -> Result<Json, axsnn::defense::DefenseError> {
        let (t, v) = (steps[cell / n_v], thresholds[cell % n_v]);
        let mut net = scenario.ax_snn(snn_config(v, t), level)?;
        apply_precision(&mut net, precision).map_err(axsnn::defense::DefenseError::from)?;
        let adv_set = adv_cache.get(Encoder::DirectCurrent, t)?;
        let acc = adv_set.accuracy(&net, 1)?;
        Ok(Json::Obj(vec![("acc".into(), Json::Num(f64::from(acc)))]))
    };
    let run_opts = SweepOptions {
        threads: if opts.threads == 0 {
            sweep_threads()
        } else {
            opts.threads
        },
        journal: opts.journal.clone(),
        shard: opts.shard,
        ..SweepOptions::new()
    };
    let (payloads, report) = sweep.run_parallel(&run_opts, eval)?;
    assert!(
        adv_cache.encode_passes() <= steps.len(),
        "cells sharing a T must share one encode pass"
    );
    // Reassemble rows in (T, V_th) grid order; failed cells carry NaN.
    let rows = (0..n_t)
        .map(|ti| {
            (0..n_v)
                .map(|vi| {
                    payloads[ti * n_v + vi]
                        .as_ref()
                        .and_then(|p| p.get("acc"))
                        .and_then(Json::as_f64)
                        .map_or(f32::NAN, |v| v as f32)
                })
                .collect()
        })
        .collect();
    Ok((rows, report))
}

/// Reads the sweep worker count from `AXSNN_THREADS` (default 0 = all
/// available cores).
pub fn sweep_threads() -> usize {
    std::env::var("AXSNN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Prints a heatmap in the paper's Figs. 4–6 orientation: rows =
/// time steps (descending), columns = threshold voltage (ascending).
pub fn print_heatmap(title: &str, thresholds: &[f32], time_steps: &[usize], cells: &[Vec<f32>]) {
    println!("\n{title}");
    print!("{:>6}", "T\\Vth");
    for v in thresholds {
        print!("{v:>7.2}");
    }
    println!();
    for (ri, &t) in time_steps.iter().enumerate().rev() {
        print!("{t:>6}");
        for cell in cells[ri].iter().take(thresholds.len()) {
            print!("{cell:>7.0}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper() {
        assert_eq!(threshold_grid().len(), 9);
        assert_eq!(threshold_grid()[0], 0.25);
        assert_eq!(*threshold_grid().last().unwrap(), 2.25);
        assert_eq!(time_step_grid(), vec![32, 40, 48, 56, 64, 72, 80]);
    }

    #[test]
    fn sweep_schedule_groups_cells_by_t() {
        // The pin for cache-aware sweep scheduling: no shard ever spans
        // two Ts, every grid cell is scheduled exactly once in grid
        // order, and with workers ≤ T rows each shard is one whole row.
        let (nt, nv) = (time_step_grid().len(), threshold_grid().len());
        for workers in [1usize, 4, nt, 16, 64] {
            let shards = sweep_schedule(nt, nv, workers);
            assert!(
                shards.len() >= workers.min(nt * nv) || shards.len() == nt * nv,
                "workers {workers}: enough shards to feed the cores"
            );
            let mut seen = std::collections::HashSet::new();
            let mut flat: Vec<(usize, usize)> = Vec::new();
            for shard in &shards {
                assert!(!shard.is_empty(), "workers {workers}: no empty shards");
                let t0 = shard[0].0;
                for &(cti, cvi) in shard {
                    assert_eq!(cti, t0, "workers {workers}: shards never span two Ts");
                    assert!(seen.insert((cti, cvi)), "no cell scheduled twice");
                    flat.push((cti, cvi));
                }
            }
            assert_eq!(
                seen.len(),
                nt * nv,
                "every grid cell scheduled exactly once"
            );
            let expected: Vec<(usize, usize)> = (0..nt)
                .flat_map(|ti| (0..nv).map(move |vi| (ti, vi)))
                .collect();
            assert_eq!(flat, expected, "workers {workers}: grid order preserved");
        }
        // Whole rows when workers fit the T count.
        for shard in sweep_schedule(nt, nv, nt) {
            assert_eq!(shard.len(), nv, "one whole T row per shard");
        }
    }

    #[test]
    fn env_defaults() {
        // Do not set the env vars here (tests run in parallel); just
        // check the parsing defaults are sane.
        assert!(sample_cap() >= 1);
        let _ = seed();
        let _ = full_scale();
    }
}
