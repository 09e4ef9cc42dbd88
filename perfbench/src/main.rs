//! End-to-end benchmark of the AxSNN pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_mlp|dvs_attack|serve_conv|train_bptt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: metric names and units come from
//! `BENCHMARK.json` there, and the run fails when the workload's
//! metrics and that file disagree. Every workload sets up its fixtures
//! several times (reporting the median as `setup_s`), draws its inputs
//! from `--seed`, then loops its pipeline for `--seconds` and checks
//! the outputs. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` replays the pipeline with layer spans from outside and
//! prints the per-layer metrics, each with the end-to-end metric it
//! should move. The last stdout line is the JSON result.
//!
//! Compute runs on one thread (the search, encoding, fused and backward
//! thread counts are 1) so the figures do not depend on what else the
//! host runs; the serving workload uses `available_parallelism − 1`
//! service workers beside its one generator thread.

mod dvs;
mod search;
mod serving;
mod stats;
mod trace;
mod training;

use axsnn::core::json::{self, Json};
use axsnn::core::network::SpikingNetwork;
use axsnn::tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Workload inputs from the command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, described.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The tracing overhead (median traced beside median untraced wall
    /// time of one operation) and the share of traced wall time the
    /// layer spans cover, which every traced run reports.
    pub fn set_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64], coverage_pct: f64) {
        let (u, t) = (stats::median(untraced_ms), stats::median(traced_ms));
        self.set("trace.wall_ms", t);
        self.set("trace.untraced_wall_ms", u);
        self.set("trace.overhead_pct", 100.0 * (t - u) / u);
        self.set("trace.coverage_pct", coverage_pct);
    }

    /// The setup layers' self times, per setup and per trained model,
    /// from a recording of `setups` setups that train `models` ANNs each.
    pub fn set_setup_layers(&mut self, rec: &trace::Recording, setups: f64, models: f64) {
        self.set(
            "datasets.generate.busy_ms",
            rec.ms("datasets.generate") / setups,
        );
        self.set(
            "core.ann.train_busy_ms",
            rec.ms("core.ann.train") / (setups * models),
        );
    }

    /// Runs each input through `net` per sample and reports, per network
    /// layer, the share of its time steps that took the dense fallback;
    /// prints the layer plan beside it. The first committed record of
    /// which kernel each layer took, read from outside the program.
    pub fn kernel_record(&mut self, net: &mut SpikingNetwork, inputs: &[Vec<Tensor>]) -> Res<()> {
        let before = net.dense_fallback_counts();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        for frames in inputs {
            net.forward(frames, false, &mut rng)?;
        }
        let steps = (inputs.len() * net.config().time_steps).max(1) as f64;
        let after = net.dense_fallback_counts();
        println!("layer plan ({} per-sample forwards):", inputs.len());
        print!("{}", net.exec_plan().summary());
        for (i, (a, b)) in after.iter().zip(&before).enumerate() {
            let frac = (a - b) as f64 / steps;
            println!(
                "  l{i} {:<16} dense fallback on {:.4} of steps",
                net.layers()[i].kind(),
                frac
            );
            if i < 8 {
                self.set(&format!("kernel.l{i}.dense_fallback_frac"), frac);
            }
        }
        Ok(())
    }
}

/// Seed of every workload's fixtures (generated datasets and trained
/// models). Fixtures are rebuilt each run (that is `setup_s`) but never
/// depend on `--seed`, so a run's cost does not depend on which model a
/// seed happened to train; `--seed` draws the inputs the pipelines
/// consume: attack randomness, traffic and training order.
pub const FIXTURE_SEED: u64 = 0x00a5_5eed;

/// Derives an independent sub-seed (SplitMix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result, and
/// returns it with the median duration in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok((kept.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Work per second of a pipeline that redoes identical work: work over
/// the interquartile mean repetition, so neither a stalled repetition
/// nor the share of fast ones (op times on this host fall in two modes)
/// moves the rate much.
pub fn per_second(work: usize, walls_ms: &[f64]) -> f64 {
    work as f64 / (stats::interquartile_mean(walls_ms) / 1e3)
}

/// Which end-to-end metric each per-layer metric should move, by name
/// prefix (first match wins).
const TARGETS: &[(&str, &str)] = &[
    ("core.fused.busy_ms.b", "serve_conv throughput_per_s"),
    ("core.fused.recorded", "train_bptt throughput_per_s"),
    ("core.fused.backward", "train_bptt throughput_per_s"),
    ("core.fused.", "search_mlp throughput_per_s"),
    ("core.network.apply_grads", "train_bptt throughput_per_s"),
    ("core.network.", "dvs_attack throughput_per_s"),
    ("core.encoding.", "serve_conv throughput_per_s"),
    ("core.convert.", "search_mlp throughput_per_s"),
    ("core.precision.", "search_mlp throughput_per_s"),
    ("core.ann.", "setup_s"),
    ("core.train.", "train_bptt throughput_per_s"),
    ("datasets.generate.", "setup_s"),
    ("datasets.cache.", "search_mlp throughput_per_s"),
    ("attacks.gradient.", "search_mlp throughput_per_s"),
    ("attacks.neuromorphic.", "dvs_attack throughput_per_s"),
    ("neuromorphic.frames.", "dvs_attack throughput_per_s"),
    (
        "neuromorphic.aqf.",
        "dvs_attack throughput_per_s, quality_pct",
    ),
    (
        "neuromorphic.stream.",
        "dvs_attack latency_p50_ms, latency_p90_ms",
    ),
    ("serve.queue_wait", "serve_conv latency_p90_ms"),
    ("serve.exec", "serve_conv throughput_per_s"),
    (
        "serve.batch_size",
        "serve_conv throughput_per_s, latency_p50_ms",
    ),
    ("serve.level_share", "serve_conv throughput_per_s"),
    ("serve.failed", "serve_conv throughput_per_s"),
    ("serve.overload", "serve_conv throughput_per_s"),
    ("gen.", "serve_conv latency_p50_ms, latency_p90_ms"),
    (
        "kernel.",
        "serve_conv throughput_per_s, dvs_attack throughput_per_s",
    ),
    (
        "trace.",
        "(measurement quality: tracing overhead and span coverage)",
    ),
];

fn target(name: &str) -> &'static str {
    TARGETS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("-", |(_, t)| t)
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn spec(section: &str) -> Res<Vec<(String, String)>> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json must be in the working directory: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let entries = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section:?} list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{section} entry without {k:?}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn parse_args() -> Res<(String, Args, bool)> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>").into())
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?.parse()?;
    let seconds: f64 = value("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}").into()),
    };
    Ok((workload, Args { seed, seconds }, trace))
}

fn run() -> Res<()> {
    let (workload, args, traced) = parse_args()?;
    let section = if traced { "per_layer" } else { "end_to_end" };
    let spec = spec(section)?;
    let mut report = match (workload.as_str(), traced) {
        ("search_mlp", false) => search::run(&args)?,
        ("search_mlp", true) => search::run_traced(&args)?,
        ("dvs_attack", false) => dvs::run(&args)?,
        ("dvs_attack", true) => dvs::run_traced(&args)?,
        ("serve_conv", false) => serving::run(&args)?,
        ("serve_conv", true) => serving::run_traced(&args)?,
        ("train_bptt", false) => training::run(&args)?,
        ("train_bptt", true) => training::run_traced(&args)?,
        (other, _) => return Err(format!("unknown workload {other:?}").into()),
    };
    if traced {
        // A layer the workload never entered reads 0.
        for (name, _) in &spec {
            report.metrics.entry(name.clone()).or_insert(0.0);
        }
    }
    let mut out = Vec::with_capacity(spec.len());
    for (name, unit) in &spec {
        let value = report
            .metrics
            .remove(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}").into());
        }
        if traced {
            println!("{name:<40} {value:>14.4} {unit:<6} -> {}", target(name));
        } else {
            println!("{name:<20} {value:>14.4} {unit}");
        }
        out.push((
            name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.clone())),
            ]),
        ));
    }
    if let Some(name) = report.metrics.keys().next() {
        return Err(format!("{name} is not listed in BENCHMARK.json {section}").into());
    }
    for m in &report.mismatches {
        eprintln!("output check failed: {m}");
    }
    // `attempted` and `failed` are written as JSON integers.
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.mismatches.is_empty(),
        report.attempted.max(1),
        report.failed + report.mismatches.len() as u64,
        Json::Obj(out).to_json_string()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
