//! Printing the result and writing the report files.

use crate::metrics::{self, Metric};
use crate::{Report, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// Why each workload is in the benchmark, how it is driven, and which
/// bypass it pairs with.
pub fn describe(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::ClassifyCold => (
            "one-shot classifier: parse/compile, minimize, SCC and lattice walk, lint on fresh \
             contexts; bypass for daemon and audit changes",
            "closed loop, one automata::par worker per core",
        ),
        Workload::ServeWarm => (
            "daemon read path on warm memo tables: JSON, dispatch, store resolve, per-request \
             lint; bypass for the classifier core",
            "closed loop, 2 client threads",
        ),
        Workload::ServeIngest => (
            "ingests into a growing store beside a reader: the equivalence sweep under the \
             store lock, and the reader's wait on it",
            "closed loop, 1 ingesting client + 1 reading client",
        ),
        Workload::SuiteAudit => (
            "cold audit of the 23-member suite at the default cap: the prefix/suffix \
             conjunction fold; classify-cold is its bypass",
            "closed loop, 1 client, audit jobs = cores",
        ),
    }
}

/// Per-layer metric → end-to-end metric it should move → workload.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    (
        "logic.parse.*, logic.compile.*",
        "classify_cold_p50_ms",
        "classify-cold",
    ),
    ("automata.hoa.*", "classify_cold_p50_ms", "classify-cold"),
    ("automata.hoa.*", "ingest_p50_ms", "serve-ingest"),
    (
        "automata.minimize.*",
        "audit_s, audit_checks_skipped, peak_rss_mb",
        "suite-audit",
    ),
    (
        "automata.minimize.* (neutral)",
        "classify_cold_p99_ms",
        "classify-cold",
    ),
    ("automata.product.*", "audit_s, peak_rss_mb", "suite-audit"),
    (
        "automata.analysis.*",
        "classify_cold_p50_ms, classify_per_s",
        "classify-cold",
    ),
    (
        "automata.canonical.*, automata.inclusion.*, serve.store.ingest_busy_ms, \
         serve.store.sweep_oracle_calls_per_ingest, serve.store.dedup_hit_ratio",
        "ingest_p50_ms, ingest_p90_ms",
        "serve-ingest",
    ),
    ("serve.store.lock_wait_ms", "query_p99_us", "serve-ingest"),
    (
        "serve.store.lock_wait_ms (neutral)",
        "query_p99_us",
        "serve-warm",
    ),
    ("lint.rules.*", "lint_p50_us, query_qps", "serve-warm"),
    (
        "serve.json.*, serve.service.self_ms",
        "classify_p50_us",
        "serve-warm",
    ),
    ("lint.suite.*", "audit_s", "suite-audit"),
    ("automata.par.efficiency", "classify_per_s", "classify-cold"),
];

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_obj(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_obj(ms)
    )
}

/// The human-readable part of the output.
pub fn summary(r: &Report) -> String {
    let t = &r.tally;
    let (_, driven) = describe(r.workload);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed={} seconds={} trace={} host_nproc={} profile={} ({driven})",
        r.workload.name(),
        r.config.seed,
        r.config.seconds,
        u8::from(r.config.trace),
        metrics::nproc(),
        metrics::build_profile(),
    );
    let _ = writeln!(
        out,
        "# operations: attempted={} failed={} (panicked={} mismatched={}) error_rate={:.6}",
        t.attempted,
        t.failed,
        t.panicked,
        t.mismatched,
        t.error_rate()
    );
    let _ = writeln!(
        out,
        "# correctly rejected (outside the canonicalizable hierarchy fragment): {}",
        t.rejected
    );
    for n in &t.notes {
        let _ = writeln!(out, "# {n}");
    }
    for m in r.named.iter().chain(&r.metrics) {
        let _ = writeln!(out, "{} {} {}", m.name, num(m.value), m.unit);
    }
    for (name, calls, busy, own) in &r.layers {
        let _ = writeln!(
            out,
            "# layer {name:<34} calls={calls:<8} busy_ms={busy:<12.3} self_ms={own:.3}"
        );
    }
    out
}

/// Writes `<dir>/<workload>-seed<n>-trace<t>.json` (the full report) and,
/// for a traced run, `<…>.spans.jsonl` (the spans, capped).
pub fn write_files(r: &Report, dir: &Path) -> std::io::Result<()> {
    const MAX_SPANS: usize = 200_000;
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        r.workload.name(),
        r.config.seed,
        u8::from(r.config.trace)
    );
    let t = &r.tally;
    let (why, driven) = describe(r.workload);
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(n, c, b, s)| {
            format!(
                "{{\"layer\":{},\"calls\":{c},\"busy_ms\":{},\"self_ms\":{}}}",
                json_str(n),
                num(*b),
                num(*s)
            )
        })
        .collect();
    let map: Vec<String> = LAYER_MAP
        .iter()
        .map(|(l, e, w)| {
            format!(
                "{{\"layer\":{},\"moves\":{},\"on\":{}}}",
                json_str(l),
                json_str(e),
                json_str(w)
            )
        })
        .collect();
    let notes: Vec<String> = t.notes.iter().map(|n| json_str(n)).collect();
    let report = format!(
        "{{\"workload\":{},\"why\":{},\"loop\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host_nproc\":{},\"profile\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"panicked\":{},\"mismatched\":{},\"rejected\":{},\"error_rate\":{},\"notes\":[{}],\
         \"metrics\":{},\"named\":{},\"layers\":[{}],\"rows\":[{}],\"layer_map\":[{}],\
         \"spans\":{},\"spans_written\":{}}}\n",
        json_str(r.workload.name()),
        json_str(why),
        json_str(driven),
        r.config.seed,
        num(r.config.seconds),
        r.config.trace,
        metrics::nproc(),
        json_str(metrics::build_profile()),
        r.correct(),
        t.attempted,
        t.failed,
        t.panicked,
        t.mismatched,
        t.rejected,
        num(t.error_rate()),
        notes.join(","),
        metrics_obj(&r.metrics),
        metrics_obj(&r.named),
        layers.join(","),
        r.rows.join(","),
        map.join(","),
        r.spans.len(),
        r.spans.len().min(MAX_SPANS),
    );
    std::fs::write(dir.join(format!("{stem}.json")), report)?;
    if r.config.trace {
        let mut lines = String::new();
        for s in r.spans.iter().take(MAX_SPANS) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.thread, s.start_ns, s.end_ns
            );
        }
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), lines)?;
    }
    Ok(())
}
