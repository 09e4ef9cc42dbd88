//! Bench-trajectory gate: checks `BENCH_*.json` artifacts against the
//! floor table in `axsnn_bench::gates`, prints the table and exits 1
//! when any floor fails.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_gate
//! [files...]` — with no arguments, every artifact the table names that
//! is present in the working directory is checked (and at least one must
//! exist).

use axsnn_bench::gates::{artifacts, check_bench_file, render_markdown};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<String> = if args.is_empty() {
        artifacts()
            .into_iter()
            .map(|kind| format!("BENCH_{kind}.json"))
            .filter(|f| std::path::Path::new(f).exists())
            .collect()
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("bench_gate: no BENCH_*.json artifacts found");
        std::process::exit(1);
    }

    let mut failed = false;
    let mut provenance: Vec<String> = Vec::new();
    for file in &files {
        match check_bench_file(file) {
            Ok(report) => {
                // ISA provenance: a floor number means nothing without
                // knowing what hardware and dispatch produced it.
                let isa = report.isa.as_deref().unwrap_or("isa not recorded");
                provenance.push(format!("{file}: {isa}"));
                for note in &report.notes {
                    println!("note: {note}");
                }
                for failure in &report.failures {
                    eprintln!("FAIL: {failure}");
                }
                if report.failures.is_empty() {
                    println!(
                        "{file}: ok — {} records, {} gated, all floors hold [{isa}]",
                        report.total, report.gated
                    );
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    println!(
        "\nfloor table (axsnn_bench::gates::FLOORS):\n{}",
        render_markdown()
    );
    if failed {
        eprintln!("artifact provenance:");
        for line in &provenance {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
}
