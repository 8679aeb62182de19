//! Experiment harness regenerating every figure- and table-like artifact
//! of *A Hierarchy of Temporal Properties* (see DESIGN.md §4 for the
//! experiment index), plus dependency-free microbenchmarks of the
//! decision procedures (see [`microbench`]).
//!
//! Each experiment is a binary under `src/bin/` that prints the paper's
//! artifact as reproduced by this library and asserts the expected shape;
//! EXPERIMENTS.md records paper-vs-measured for each. Run them all with
//! `for b in fig1_inclusion tab_examples …; do cargo run -p hierarchy-bench --bin $b; done`.

use hierarchy_core::automata::json::Json;
use std::time::Instant;

pub mod microbench;

/// Times a closure, returning (result, elapsed milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Prints an experiment header.
pub fn header(id: &str, title: &str) {
    println!("==== {id}: {title}");
}

/// Prints a pass/fail verdict line and panics on failure so experiment
/// binaries fail loudly in CI.
pub fn expect(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "ok" } else { "FAIL" });
    assert!(ok, "experiment expectation failed: {label}");
}

/// Median of a latency sample: the middle value, or the midpoint average
/// of the two middle values for an even count; `0` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `x` rounded to `decimals` places, as a JSON number (the tables keep
/// timings to a fixed precision).
pub fn fixed(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// Writes an experiment's machine-readable table to `path` (relative to
/// the current directory) as one line of compact JSON.
pub fn write_table(path: &str, table: &Json) {
    std::fs::write(path, format!("{table}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
