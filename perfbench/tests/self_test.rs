//! The benchmark's self-test: a shrunken pass of every workload, untraced
//! and traced, must emit exactly the metrics `BENCHMARK.json` names and
//! satisfy every correctness reference.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hierarchy_serve::json::Json;
use perfbench::{report, run, Config, Workload};
use std::path::Path;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_meets_its_references() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json lists the workloads the binary runs"
    );
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                seed: 7,
                seconds: 0.4,
                trace,
                smoke: true,
            };
            let r = run(w, &cfg);
            let label = format!("{} trace={trace}", w.name());
            assert!(r.correct(), "{label}: {:?}", r.tally.notes);
            assert!(r.tally.attempted > 0, "{label}: no operation attempted");
            // The known parser defect is redrawn around: no operation fails.
            assert_eq!(r.tally.failed, 0, "{label}: {:?}", r.tally.notes);
            let want = names(&spec, if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, want, "{label}: metric names");
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{label}: {} reads 0", m.name);
                }
            }
            assert!(!r.named.is_empty(), "{label}: no named metrics");
            let line =
                report::result_line(r.correct(), r.tally.attempted, r.tally.failed, &r.metrics);
            let parsed = Json::parse(&line).expect("the result line is JSON");
            let keys: Vec<&str> = match &parsed {
                Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn the_audit_reports_the_three_injected_findings() {
    let r = run(
        Workload::SuiteAudit,
        &Config {
            seed: 1,
            seconds: 0.1,
            trace: true,
            smoke: true,
        },
    );
    assert!(r.correct(), "{:?}", r.tally.notes);
    let skipped = r
        .named
        .iter()
        .find(|m| m.name == "audit_checks_skipped")
        .expect("the skipped-check count is reported");
    assert!(skipped.value > 0.0, "the shrunken cap skips deep checks");
    assert!(
        !r.rows.is_empty(),
        "the traced run reports one row per fold step"
    );
}
