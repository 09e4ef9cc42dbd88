//! The crash-safe sweep engine's checkpoint costs, written to
//! `BENCH_sweep.json`.
//!
//! Times three runs of the same deterministic grid through
//! [`axsnn::defense::journal::GridSweep`]:
//!
//! * **cold** — no journal at all (the pre-journal baseline),
//! * **journaled** — a fresh journal, every cell committed and flushed
//!   as it completes (the steady-state cost of crash safety),
//! * **resume** — the journal already holds every cell, so the run is
//!   pure replay (the cost of restarting after a crash at the finish
//!   line).
//!
//! `sweep_journal_overhead` records `speedup = cold / journaled` and
//! `sweep_resume_replay` records `speedup = cold / resume`. The resumed
//! payloads are also asserted bit-identical to the cold run's — the
//! bench doubles as an equivalence smoke test.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_sweep
//! [out.json]`.

use axsnn::core::json::Json;
use axsnn::defense::journal::{fnv1a, GridFingerprint, GridSweep, SweepOptions};
use axsnn_bench::harness::{record, Bench};
use std::hint::black_box;

const CELLS: usize = 32;
/// Hash rounds per cell: a few milliseconds of work.
const ROUNDS: u64 = 400_000;

/// Deterministic per-cell workload whose result depends only on the
/// cell index, so every run — cold, journaled, resumed, any thread
/// count — produces the same payloads.
fn eval_cell(cell: usize) -> Result<Json, axsnn::defense::DefenseError> {
    let mut acc = cell as u64;
    for i in 0..ROUNDS {
        acc = fnv1a(&(acc ^ i).to_le_bytes());
    }
    black_box(acc);
    Ok(Json::Obj(vec![(
        "value".into(),
        Json::Num(f64::from(acc as u32)),
    )]))
}

fn main() {
    let mut bench = Bench::from_args("BENCH_sweep.json", 5);
    let journal_path =
        std::env::temp_dir().join(format!("axsnn_bench_sweep_{}.jsonl", std::process::id()));
    let sweep = GridSweep::new(CELLS, GridFingerprint::of("axsnn.bench_sweep.v1"));
    // Single-threaded A/B: the engine's checkpoint overhead is what is
    // being measured, not the workload's parallel scaling.
    let opts_cold = SweepOptions {
        threads: 1,
        ..SweepOptions::new()
    };
    let opts_journaled = SweepOptions {
        threads: 1,
        ..SweepOptions::journaled(&journal_path)
    };
    let cold = || {
        sweep
            .run_parallel(&opts_cold, eval_cell)
            .expect("cold run")
            .0
    };

    let (cold_ns, journaled_ns) = bench.time_pair(
        || {
            black_box(cold());
        },
        || {
            // Fresh journal: full execution plus one committed record
            // per cell.
            let _ = std::fs::remove_file(&journal_path);
            let (_, report) = sweep
                .run_parallel(&opts_journaled, eval_cell)
                .expect("journaled run");
            assert_eq!(report.executed, CELLS, "journaled run executes everything");
        },
    );
    bench.push(
        record(&format!("sweep_journal_overhead_{CELLS}cells"))
            .num("cells", CELLS as f64, 0)
            .ab("cold_ns", cold_ns, "journaled_ns", journaled_ns),
    );

    // The journal is now complete: resuming is pure replay.
    let (mut cold_payloads, mut resumed) = (None, None);
    let (cold_ns, resume_ns) = bench.time_pair(
        || cold_payloads = Some(cold()),
        || {
            let (payloads, report) = sweep
                .run_parallel(&opts_journaled, eval_cell)
                .expect("resumed run");
            assert_eq!(report.replayed, CELLS, "resume replays everything");
            assert_eq!(report.executed, 0, "resume re-executes nothing");
            resumed = Some(payloads);
        },
    );
    let _ = std::fs::remove_file(&journal_path);
    assert_eq!(
        cold_payloads, resumed,
        "resumed payloads must be bit-identical to the cold run"
    );
    bench.push(
        record(&format!("sweep_resume_replay_{CELLS}cells"))
            .num("cells", CELLS as f64, 0)
            .ab("cold_ns", cold_ns, "resume_ns", resume_ns),
    );
    bench.finish();
}
