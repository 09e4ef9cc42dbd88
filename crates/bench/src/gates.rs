//! Bench floors as data: [`FLOORS`] declares every floor on the
//! `BENCH_*.json` artifacts once, [`check_bench_file`] evaluates it,
//! `bench_gate` prints it and the README's floor table is its
//! [`render_markdown`] rendering.
//!
//! Each [`Floor`] row names an artifact kind, a record family (a prefix
//! of record names) and the numeric fields every record of the family
//! must carry. A row with a `bound` gates one metric of those records
//! while its `when` conditions hold; a row without one marks its family
//! informational. A family may carry several rows.
//!
//! Per record:
//! * it belongs to the longest family of its artifact that prefixes its
//!   name, so a specific family shadows a general one;
//! * a missing required field fails;
//! * when the family's [`Guard`] is false the record is skipped with a
//!   note instead of gated;
//! * every bounded row whose `when` holds checks its bound, and a value
//!   exactly at the bound passes. The record counts as gated when at
//!   least one row applied.
//!
//! Per artifact: the kind comes from the file name alone (the longest
//! kind it contains), every family the table lists for the kind must be
//! present, and an artifact that gates nothing fails.

use crate::json::{self, Json};
use std::fmt::{self, Write as _};
use Cmp::{Above, AtLeast, AtMost, Below};

/// A comparison with a constant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cmp {
    /// `≤ value`.
    AtMost(f64),
    /// `≥ value`.
    AtLeast(f64),
    /// `< value`.
    Below(f64),
    /// `> value`.
    Above(f64),
}

impl Cmp {
    fn holds(self, x: f64) -> bool {
        match self {
            AtMost(v) => x <= v,
            AtLeast(v) => x >= v,
            Below(v) => x < v,
            Above(v) => x > v,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtMost(v) => write!(f, "≤ {v}"),
            AtLeast(v) => write!(f, "≥ {v}"),
            Below(v) => write!(f, "< {v}"),
            Above(v) => write!(f, "> {v}"),
        }
    }
}

/// A numeric record field and a comparison: a `when` condition or a
/// bound.
pub type Cond = (&'static str, Cmp);

/// A precondition on the runner: when false, a family's records are
/// skipped with a note instead of gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// `hardware_threads` is at least the named field: the runner can
    /// show the parallelism the record measured.
    Covers(&'static str),
    /// The process dispatched its kernels to this ISA.
    Dispatch(&'static str),
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Covers(of) => write!(f, "hardware_threads ≥ {of}"),
            Guard::Dispatch(isa) => write!(f, "dispatch = {isa}"),
        }
    }
}

/// One row of the floor table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Floor {
    /// Artifact kind: the row gates `BENCH_<artifact>.json`.
    pub artifact: &'static str,
    /// Record-name prefix.
    pub family: &'static str,
    /// Numeric fields every record of the family must carry,
    /// space-separated.
    pub fields: &'static str,
    /// Conditions under which `bound` applies.
    pub when: &'static [Cond],
    /// Skips the family with a note when false.
    pub guard: Option<Guard>,
    /// The floor (`None`: the family is informational).
    pub bound: Option<Cond>,
}

const fn row(artifact: &'static str, family: &'static str, fields: &'static str) -> Floor {
    Floor {
        artifact,
        family,
        fields,
        when: &[],
        guard: None,
        bound: None,
    }
}

impl Floor {
    const fn when(self, when: &'static [Cond]) -> Floor {
        Floor { when, ..self }
    }

    const fn guard(self, guard: Guard) -> Floor {
        Floor {
            guard: Some(guard),
            ..self
        }
    }

    const fn min(self, metric: &'static str, value: f64) -> Floor {
        Floor {
            bound: Some((metric, AtLeast(value))),
            ..self
        }
    }

    const fn max(self, metric: &'static str, value: f64) -> Floor {
        Floor {
            bound: Some((metric, AtMost(value))),
            ..self
        }
    }

    fn applies(&self, rec: &Json) -> bool {
        let holds = |&(key, cmp): &Cond| field(rec, key).is_some_and(|x| cmp.holds(x));
        self.when.iter().all(holds)
    }
}

const SPARSE: &str = "density dense_ns sparse_ns speedup";
const BATCH: &str = "density sequential_ns fused_ns speedup";
const TAPE: &str = "density dense_tape_ns sparse_tape_ns speedup";
const PARALLEL: &str = "threads hardware_threads sequential_ns parallel_ns speedup";
const INPUT_GRAD: &str = "reference_ns input_grad_ns speedup";
const CONV: &str = "density batch hardware_threads row_by_row_ns sorted_ns speedup";
const JOURNALED: &str = "cells cold_ns journaled_ns speedup";
const RESUMED: &str = "cells cold_ns resume_ns speedup";
const SERVED: &str = "concurrency workers hardware_threads sequential_ns served_ns speedup";
const LATENCY: &str = "direct_us p50_us p99_us p99_over_direct";
const CHAOS: &str = "attempted completed hung goodput_fraction bit_identical";
const PLANED: &str = "density bits_per_weight hardware_threads f32_ns planed_ns speedup";
const AGREEMENT: &str = "samples agreement_pct accuracy_delta_points";
const STREAMED: &str = "events windows hardware_threads offline_ns streamed_ns speedup";
const THROUGHPUT: &str = "events streamed_ns events_per_sec";
const SIMD: &str = "density hardware_threads scalar_ns simd_ns speedup";

/// At most 10% of the inputs are spikes: the event-driven regime.
const SPARSE_REGIME: &[Cond] = &[("density", AtMost(0.10))];
/// The paper conv stack's headline regime.
const CONV_HEADLINE: &[Cond] = &[("density", AtMost(0.10)), ("batch", AtLeast(32.0))];
const AVX2: Guard = Guard::Dispatch("avx2");

/// Every floor on the bench artifacts, grouped by artifact.
#[rustfmt::skip]
pub const FLOORS: &[Floor] = &[
    // Event-driven kernels against dense.
    row("sparse", "linear_", SPARSE).when(SPARSE_REGIME).min("speedup", 2.0),
    row("sparse", "conv2d_", SPARSE).when(SPARSE_REGIME).min("speedup", 2.0),
    row("sparse", "network_", SPARSE),
    // Fused batch-32 against the sequential per-sample loop.
    row("batch", "linear_", BATCH).min("speedup", 2.0),
    row("batch", "mlp_forward", BATCH).min("speedup", 3.0),
    // Conv weights are cache-resident, so batching has nothing to
    // amortize: the conv net only must not regress.
    row("batch", "convnet", BATCH).min("speedup", 0.9),
    row("batch", "event_query_", BATCH),
    // Sparse BPTT tape against the dense tape. The floor was 2× until
    // the AVX2 layer, which sped up the forward pass both tapes share
    // more than the event tape's scatter-bound gradient accumulation:
    // the ratio compressed to a stable 1.8–2.1× while both absolute
    // times improved, so the floor tracks the new baseline.
    row("train", "mlp_tape", TAPE).when(SPARSE_REGIME).min("speedup", 1.7),
    row("train", "mlp_minibatch", TAPE).when(SPARSE_REGIME).min("speedup", 1.7),
    row("train", "conv_tape", TAPE).min("speedup", 0.9),
    // Parallel minibatch backward at 4 threads: a runner with fewer
    // hardware threads cannot show the speedup.
    row("backward", "mlp_parallel_backward", PARALLEL).guard(Guard::Covers("threads")).min("speedup", 2.0),
    row("backward", "conv_parallel_backward", PARALLEL),
    // One attack input gradient on the FastMlp shape: the one-row
    // batched walk (AVX2 GEMM forward, input gradient only) against the
    // per-sample reference (every weight gradient, a transposed copy of
    // every weight). It read 6.4–6.8× over seven runs on a 2-vCPU AVX2
    // host, and 2.7–3.1× at scalar dispatch, where it is skipped.
    row("backward", "ann_input_grad", INPUT_GRAD).guard(AVX2).min("speedup", 3.0),
    // Event-sorted batched conv against the row-by-row path; both are
    // bit-identical and single-threaded. The paper stack aggregate and
    // its k=5 layers carry the headline; the small k=3 layer and the
    // plan-selected forward only must not regress.
    row("conv_batch", "conv_batch_sorted_", CONV).min("speedup", 0.9),
    row("conv_batch", "conv_batch_sorted_", CONV).when(CONV_HEADLINE).min("speedup", 1.5),
    row("conv_batch", "conv_batch_sorted_stack", CONV).min("speedup", 0.9),
    row("conv_batch", "conv_batch_sorted_stack", CONV).when(CONV_HEADLINE).min("speedup", 1.5),
    row("conv_batch", "conv_batch_sorted_l3", CONV).min("speedup", 0.9),
    row("conv_batch", "convnet_plan", CONV).min("speedup", 0.9),
    // Journaling costs at most ~10% of a cold grid; resuming a complete
    // journal is pure replay.
    row("sweep", "sweep_journal_overhead", JOURNALED).min("speedup", 0.9),
    row("sweep", "sweep_resume_replay", RESUMED).min("speedup", 10.0),
    // Coalesced serving at concurrency 32 against sequential classify;
    // a runner that cannot host the service workers skips it.
    row("serve", "serve_throughput", SERVED).guard(Guard::Covers("workers")).min("speedup", 3.0),
    // p99 end-to-end latency, in multiples of one direct classify.
    row("serve", "serve_latency", LATENCY).max("p99_over_direct", 64.0),
    // Under injected worker panics and expired-deadline bursts: no hung
    // request, half the submissions served, predictions bit-identical
    // to the direct fused path.
    row("serve", "serve_robust", CHAOS).max("hung", 0.0),
    row("serve", "serve_robust", CHAOS).min("goodput_fraction", 0.5),
    row("serve", "serve_robust", CHAOS).min("bit_identical", 1.0),
    // Both sides of the conv plane A/B compute on the same dequantized
    // values, so the ratio isolates weight-storage bandwidth: the
    // planed conv must hold parity. (Linear layers decode a plane into
    // f32 panels once per weight change, so they have no storage A/B.)
    row("quant", "quant_conv_", PLANED).min("speedup", 0.9),
    // A planed MLP may disagree with its f32 twin on at most 5 points.
    row("quant", "quant_accuracy", AGREEMENT).max("accuracy_delta_points", 5.0),
    // Streamed classification adds only per-event accumulator work; the
    // first-window readout should be ~time_steps× cheaper than a full
    // offline classify (the floor is slack for noisy runners). The AQF
    // A/B compares two different filters.
    row("stream", "stream_classify", STREAMED).min("speedup", 0.8),
    row("stream", "stream_first_window", STREAMED).min("speedup", 2.0),
    row("stream", "stream_aqf", STREAMED),
    row("stream", "stream_event_throughput", THROUGHPUT),
    // AVX2 kernels against the scalar truth path, only at avx2 dispatch:
    // a committed artifact must come from an AVX2 run, or it gates
    // nothing.
    row("simd", "simd_gemm_", SIMD).guard(AVX2).when(&[("density", AtLeast(0.10))]).min("speedup", 1.5),
    row("simd", "simd_gemm_", SIMD).guard(AVX2).when(&[("density", Below(0.10))]).min("speedup", 1.1),
    // The fused decode-and-transpose pack must never lose to lane decode.
    row("simd", "simd_gemm_planed", SIMD).guard(AVX2).min("speedup", 1.0),
    row("simd", "simd_conv1", SIMD).guard(AVX2).min("speedup", 1.5),
    // The batched LIF step at ~14% firing: vector update, compare mask
    // and branch-free spike compaction against the neuron-at-a-time
    // loop. It read 5.9–8.7× over seven runs on a 2-vCPU AVX2 host.
    row("simd", "simd_lif_fire", SIMD).guard(AVX2).min("speedup", 3.0),
];

/// The artifact kinds the table gates, in table order.
pub fn artifacts() -> Vec<&'static str> {
    let mut kinds: Vec<&str> = FLOORS.iter().map(|f| f.artifact).collect();
    kinds.dedup();
    kinds
}

/// The floor table as a Markdown table, one line per row.
pub fn render_markdown() -> String {
    let mut out = String::from(
        "| Artifact | Record family | When | Skip unless | Floor |\n|---|---|---|---|---|\n",
    );
    let cell = |s: String| if s.is_empty() { "—".to_string() } else { s };
    for floor in FLOORS {
        let when: Vec<String> = floor.when.iter().map(|(f, c)| format!("{f} {c}")).collect();
        let guard = floor.guard.map(|g| g.to_string()).unwrap_or_default();
        let bound = floor.bound.map(|(f, c)| format!("{f} {c}"));
        let _ = writeln!(
            out,
            "| `BENCH_{}.json` | `{}*` | {} | {} | {} |",
            floor.artifact,
            floor.family,
            cell(when.join(", ")),
            cell(guard),
            bound.unwrap_or_else(|| "informational".to_string()),
        );
    }
    out
}

/// Outcome of gating one bench artifact.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Records that carried an enforced floor.
    pub gated: usize,
    /// Records present in the file.
    pub total: usize,
    /// Floor violations and schema errors (non-empty ⇒ the gate fails).
    pub failures: Vec<String>,
    /// Informational notes (guard-skipped floors).
    pub notes: Vec<String>,
    /// The artifact's ISA provenance, e.g. `"avx2 dispatch on
    /// avx2,fma,f16c"`, when its records carry `dispatch` and
    /// `isa_features`.
    pub isa: Option<String>,
}

fn field(rec: &Json, key: &str) -> Option<f64> {
    rec.get(key).and_then(Json::as_f64)
}

/// The rows of one family of one artifact.
fn rows_of(artifact: &str, family: &str) -> Vec<&'static Floor> {
    let same = |f: &&Floor| f.artifact == artifact && f.family == family;
    FLOORS.iter().filter(same).collect()
}

/// The artifact kind of a file name: the longest kind it contains, so
/// `BENCH_conv_batch.json` is `conv_batch`, not `batch`.
fn kind_of(file_name: &str) -> Option<&'static str> {
    artifacts()
        .into_iter()
        .filter(|k| file_name.contains(k))
        .max_by_key(|k| k.len())
}

/// Validates one `BENCH_*.json` artifact against [`FLOORS`]. The
/// artifact kind comes from the file name, never from its directory.
///
/// # Errors
///
/// Returns a message when the file cannot be read or parsed, or its
/// kind is unknown; floor violations are reported through
/// [`GateReport::failures`] instead.
pub fn check_bench_file(path: &str) -> Result<GateReport, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read ({e})"))?;
    let doc = json::parse(&src).map_err(|e| format!("{path}: invalid JSON ({e})"))?;
    let records = doc
        .as_array()
        .ok_or_else(|| format!("{path}: expected a top-level array"))?;
    let file_name = std::path::Path::new(path)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or(path);
    let kind = kind_of(file_name).ok_or_else(|| format!("{path}: unknown bench artifact kind"))?;
    Ok(check_records(path, kind, records))
}

fn check_records(path: &str, kind: &str, records: &[Json]) -> GateReport {
    let mut report = GateReport {
        total: records.len(),
        ..GateReport::default()
    };
    if records.is_empty() {
        report.failures.push(format!("{path}: no records"));
        return report;
    }
    report.isa = records.iter().find_map(|r| {
        let dispatch = r.get("dispatch").and_then(Json::as_str)?;
        let features = r.get("isa_features").and_then(Json::as_str)?;
        Some(format!("{dispatch} dispatch on {features}"))
    });
    let rows: Vec<&Floor> = FLOORS.iter().filter(|f| f.artifact == kind).collect();
    let mut seen: Vec<&str> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let Some(name) = rec.get("name").and_then(Json::as_str) else {
            let missing = format!("{path}[{i}]: missing string field \"name\"");
            report.failures.push(missing);
            continue;
        };
        let family = rows
            .iter()
            .map(|f| f.family)
            .filter(|f| name.starts_with(f))
            .max_by_key(|f| f.len());
        if let Some(family) = family {
            seen.push(family);
            check_record(
                &rows_of(kind, family),
                rec,
                &format!("{path}: {name}"),
                &mut report,
            );
        }
    }
    for floor in &rows {
        if !seen.contains(&floor.family) {
            seen.push(floor.family);
            let family = floor.family;
            let missing = format!("{path}: missing expected record family \"{family}*\"");
            report.failures.push(missing);
        }
    }
    if report.gated == 0 {
        report.failures.push(format!(
            "{path}: no record carried an enforced floor — the gate would be vacuous"
        ));
    }
    report
}

/// Checks one record against the rows of the family it belongs to.
fn check_record(rows: &[&Floor], rec: &Json, ctx: &str, report: &mut GateReport) {
    for key in rows[0].fields.split_whitespace() {
        if field(rec, key).is_none() {
            let missing = format!("{ctx}: missing numeric field \"{key}\"");
            report.failures.push(missing);
        }
    }
    let skipped = match rows[0].guard {
        Some(Guard::Covers(of)) => {
            let hardware = field(rec, "hardware_threads").unwrap_or(0.0);
            let wanted = field(rec, of).unwrap_or(f64::INFINITY);
            (hardware < wanted)
                .then(|| format!("{hardware} hardware threads cannot host {of} = {wanted}"))
        }
        Some(Guard::Dispatch(isa)) => {
            let dispatch = rec.get("dispatch").and_then(Json::as_str).unwrap_or("");
            (dispatch != isa).then(|| format!("dispatch was \"{dispatch}\", not {isa}"))
        }
        None => None,
    };
    if let Some(why) = skipped {
        report.notes.push(format!("{ctx}: floor skipped — {why}"));
        return;
    }
    let mut gated = false;
    for floor in rows {
        let Some((metric, cmp)) = floor.bound else {
            continue;
        };
        if floor.applies(rec) {
            gated = true;
            if let Some(value) = field(rec, metric).filter(|&x| !cmp.holds(x)) {
                let failure = format!("{ctx}: {value:.3} breaks the floor {metric} {cmp}");
                report.failures.push(failure);
            }
        }
    }
    report.gated += usize::from(gated);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value just past a comparison: inside a strict `when` condition,
    /// outside a bound.
    fn past(cmp: Cmp) -> f64 {
        match cmp {
            AtLeast(v) | Below(v) => v - 1e-9 * v.abs().max(1.0),
            AtMost(v) | Above(v) => v + 1e-9 * v.abs().max(1.0),
        }
    }

    fn edge(cmp: Cmp) -> f64 {
        match cmp {
            AtMost(v) | AtLeast(v) => v,
            Below(_) | Above(_) => past(cmp),
        }
    }

    fn with(rec: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(mut fields) = rec.clone() else {
            unreachable!("records are objects")
        };
        fields.retain(|(k, _)| k != key);
        fields.push((key.into(), value));
        Json::Obj(fields)
    }

    /// A record of `floor`'s family: every required field 1.0, every
    /// metric of the family at its bound, `floor`'s `when` met on its
    /// edge, its guard satisfied and its own metric at `metric`.
    fn record_for(floor: &Floor, metric: f64) -> Json {
        let name = Json::Str(format!("{}case", floor.family));
        let mut rec = Json::Obj(vec![("name".into(), name)]);
        rec = with(&rec, "dispatch", Json::Str("avx2".into()));
        let family = rows_of(floor.artifact, floor.family).into_iter();
        let bounds = family.filter_map(|f| f.bound).map(|(f, c)| (f, edge(c)));
        let fields = floor.fields.split_whitespace().map(|f| (f, 1.0));
        let when = floor.when.iter().map(|&(f, c)| (f, edge(c)));
        let own = floor.bound.map(|(f, _)| (f, metric));
        for (key, value) in fields.chain(bounds).chain(when).chain(own) {
            rec = with(&rec, key, Json::Num(value));
        }
        rec
    }

    fn check_one(floor: &Floor, rec: &Json) -> GateReport {
        let mut report = GateReport::default();
        check_record(
            &rows_of(floor.artifact, floor.family),
            rec,
            "case",
            &mut report,
        );
        report
    }

    #[test]
    fn every_floor_row_holds_at_its_bound_and_fails_past_it() {
        for floor in FLOORS {
            for (f, _) in floor.when.iter().chain(&floor.bound) {
                assert!(floor.fields.split_whitespace().any(|k| k == *f));
            }
            let Some((_, cmp)) = floor.bound else {
                continue;
            };
            let at = check_one(floor, &record_for(floor, edge(cmp)));
            assert!(at.failures.is_empty(), "{floor:?}: {:?}", at.failures);
            assert_eq!((at.gated, at.notes.len()), (1, 0), "{floor:?}");
            let rec = record_for(floor, past(cmp));
            let beyond = check_one(floor, &rec);
            assert_eq!(beyond.failures.len(), 1, "{floor:?}");
            assert!(beyond.failures[0].ends_with(&cmp.to_string()), "{floor:?}");
            let unguarded = match floor.guard {
                None => continue,
                Some(Guard::Covers(_)) => with(&rec, "hardware_threads", Json::Num(0.0)),
                Some(Guard::Dispatch(_)) => with(&rec, "dispatch", Json::Str("scalar".into())),
            };
            let skipped = check_one(floor, &unguarded);
            assert!(skipped.failures.is_empty(), "{floor:?}");
            assert_eq!((skipped.gated, skipped.notes.len()), (0, 1), "{floor:?}");
        }
    }

    /// The families of `kind`, each by its first row.
    fn families(kind: &str) -> Vec<&'static Floor> {
        let mut out: Vec<&Floor> = Vec::new();
        for floor in FLOORS.iter().filter(|f| f.artifact == kind) {
            if out.iter().all(|f| f.family != floor.family) {
                out.push(floor);
            }
        }
        out
    }

    /// One record per family of `kind`, at its first row's bound.
    fn records(kind: &str) -> Vec<Json> {
        let at = |f: &Floor| f.bound.map_or(1.0, |(_, c)| edge(c));
        families(kind)
            .into_iter()
            .map(|f| record_for(f, at(f)))
            .collect()
    }

    /// A whole artifact of `kind` passes at its bounds and gates every
    /// bounded family; moving one row of a family starting with one of
    /// `prefixes` past its bound fails that record alone.
    fn assert_artifact_enforced(kind: &str, prefixes: &[&str]) {
        let clean = check_records("a", kind, &records(kind));
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        let bounded = |f: &&Floor| rows_of(kind, f.family).iter().any(|r| r.bound.is_some());
        assert_eq!(
            clean.gated,
            families(kind).into_iter().filter(bounded).count()
        );
        for floor in FLOORS.iter().filter(|f| f.artifact == kind) {
            let Some((_, cmp)) = floor.bound else {
                continue;
            };
            if prefixes.iter().any(|p| floor.family.starts_with(p)) {
                let mut nudged = records(kind);
                let at = families(kind).iter().position(|f| f.family == floor.family);
                nudged[at.unwrap()] = record_for(floor, past(cmp));
                let report = check_records("a", kind, &nudged);
                assert_eq!(report.failures.len(), 1, "{floor:?}: {:?}", report.failures);
                assert!(report.failures[0].starts_with(&format!("a: {}case:", floor.family)));
            }
        }
    }

    macro_rules! artifact_tests {
        ($($test:ident: $kind:literal $prefixes:expr;)*) => {$(
            #[test]
            fn $test() {
                assert_artifact_enforced($kind, $prefixes);
            }
        )*};
    }

    artifact_tests! {
        sparse_floor_enforced: "sparse" &[""];
        batch_floors_enforced: "batch" &[""];
        train_floors_enforced: "train" &[""];
        backward_floors_enforced: "backward" &[""];
        conv_batch_floors_enforced: "conv_batch" &[""];
        sweep_floors_enforced: "sweep" &[""];
        serve_floors_enforced: "serve" &[""];
        quant_floors_enforced: "quant" &["quant_accuracy"];
        quant_promoted_gemm_conv_floors_enforced: "quant" &["quant_conv"];
        stream_floors_enforced: "stream" &[""];
        simd_floors_enforced: "simd" &[""];
    }

    #[test]
    fn floor_table_covers_every_expected_family() {
        // Every listed family is required: dropping any one fails.
        for kind in artifacts() {
            for (i, dropped) in families(kind).iter().enumerate() {
                let mut rest = records(kind);
                rest.remove(i);
                let missing = format!("missing expected record family \"{}*\"", dropped.family);
                let report = check_records("a", kind, &rest);
                assert!(report.failures.iter().any(|f| f.contains(&missing)));
            }
        }
    }

    #[test]
    fn readme_floor_table_is_the_rendered_table() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("<!-- floors:begin -->\n")
            .nth(1)
            .and_then(|rest| rest.split("<!-- floors:end -->").next())
            .expect("README carries the floor-table markers");
        assert_eq!(table, render_markdown());
    }

    fn check_file(path: &std::path::Path, records: Vec<Json>) -> GateReport {
        std::fs::write(path, Json::Arr(records).to_json_string()).unwrap();
        let report = check_bench_file(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
        report
    }

    #[test]
    fn backward_parallel_floor_is_hardware_aware() {
        let mut recs = records("backward");
        recs[0] = with(&recs[0], "threads", Json::Num(4.0));
        // Enough cores and a slow parallel path fail.
        recs[0] = with(&recs[0], "hardware_threads", Json::Num(8.0));
        let slow = with(&recs[0], "speedup", Json::Num(1.2));
        let path = std::env::temp_dir().join("axsnn_gate_backward_a.json");
        let report = check_file(&path, [vec![slow], recs[1..].to_vec()].concat());
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        // One core skips the floor with a note.
        recs[0] = with(&recs[0], "hardware_threads", Json::Num(1.0));
        let report = check_records("a", "backward", &recs);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!((report.notes.len(), report.gated), (1, 1));
    }

    #[test]
    fn serve_throughput_floor_is_hardware_aware() {
        // A 1-thread runner cannot drive 2 service workers: the
        // throughput floor is skipped with a note, the other serve
        // records still gate.
        let mut recs = records("serve");
        recs[0] = with(&recs[0], "workers", Json::Num(2.0));
        recs[0] = with(&recs[0], "speedup", Json::Num(1.0));
        let report = check_records("a", "serve", &recs);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!((report.notes.len(), report.gated), (1, 2));
    }

    #[test]
    fn simd_floors_skip_on_scalar_dispatch() {
        // A scalar-dispatch artifact skips every SIMD floor with a note,
        // so it gates nothing and fails as vacuous: a committed
        // BENCH_simd.json must come from an AVX2 run.
        let scalar = Json::Str("scalar".into());
        let recs: Vec<Json> = records("simd")
            .iter()
            .map(|r| with(r, "dispatch", scalar.clone()))
            .collect();
        let report = check_records("a", "simd", &recs);
        assert_eq!(report.gated, 0);
        assert_eq!(report.notes.len(), recs.len(), "{:?}", report.notes);
        assert!(report.notes[0].contains("dispatch"));
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("vacuous"));
    }

    #[test]
    fn kind_inferred_from_file_name_not_directory() {
        // A backward artifact inside a directory named after another
        // bench (the CI artifact-download layout) must classify as
        // backward, not batch.
        let dir = std::env::temp_dir().join("bench_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let report = check_file(&dir.join("BENCH_backward.json"), records("backward"));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 2);
        let _ = std::fs::remove_dir(dir);
    }

    #[test]
    fn conv_batch_kind_wins_over_batch_in_file_name() {
        assert_eq!(kind_of("BENCH_conv_batch.json"), Some("conv_batch"));
        assert_eq!(kind_of("BENCH_unknown.json"), None);
        let kinds = artifacts();
        for kind in &kinds {
            assert_eq!(kinds.iter().filter(|k| k == &kind).count(), 1);
            assert_eq!(kind_of(&format!("BENCH_{kind}.json")), Some(*kind));
        }
    }

    #[test]
    fn renamed_gated_record_fails_loudly() {
        let renamed = with(&records("backward")[0], "name", Json::Str("renamed".into()));
        let report = check_records("a", "backward", &[renamed]);
        let has = |what: &str| report.failures.iter().any(|f| f.contains(what));
        assert!(has("missing expected record family") && has("vacuous"));
    }

    #[test]
    fn schema_violations_fail() {
        let bare = Json::Obj(vec![
            ("name".into(), Json::Str("mlp_tape_step".into())),
            ("speedup".into(), Json::Num(5.0)),
        ]);
        let path = std::env::temp_dir().join("axsnn_gate_train.json");
        let report = check_file(&path, vec![bare, Json::Obj(vec![])]);
        let has = |what: &str| report.failures.iter().any(|f| f.contains(what));
        assert!(has("\"density\"") && has("\"name\""));
        assert!(check_bench_file("/nonexistent/BENCH_train.json").is_err());
        let garbage = std::env::temp_dir().join("BENCH_sparse_garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(check_bench_file(garbage.to_str().unwrap()).is_err());
        let _ = std::fs::remove_file(garbage);
    }
}
