//! End-to-end and per-layer benchmark of the temporal-hierarchy
//! classifier, the `spec-serve` daemon and the `spec-lint audit` suite
//! auditor.
//!
//! Four closed-loop workloads (see `README.md` in this directory):
//! `classify-cold`, `serve-warm`, `serve-ingest` and `suite-audit`. An
//! untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) repeats the workload with spans around every call the benchmark
//! makes into a layer and reports the per-layer metrics, each layer's
//! self time, the share of wall time the spans cover, and the tracing
//! overhead against an untraced pass of the same length.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads 64-bit Linux clocks and /proc");

pub mod audit;
pub mod classify;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod trace;

use metrics::{Metric, Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use trace::{Span, Tracer};

/// The benchmark's workloads, in the order `all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClassifyCold,
    ServeWarm,
    ServeIngest,
    SuiteAudit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClassifyCold,
        Workload::ServeWarm,
        Workload::ServeIngest,
        Workload::SuiteAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifyCold => "classify-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeIngest => "serve-ingest",
            Workload::SuiteAudit => "suite-audit",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// A traced run: spans are recorded and the layers behind the
    /// daemon and the audit are reached through the benchmark's replays.
    pub trace: bool,
    /// Shrunken inputs for the self-test.
    pub smoke: bool,
}

/// What one measured pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub tally: Tally,
    /// Median set-up time over the repeated set-ups.
    pub setup_s: f64,
    /// `p50_ms`, `tail_ms` and `ops_per_s` of the primary operation.
    pub e2e: Vec<Metric>,
    /// The workload's metrics under their descriptive names.
    pub named: Vec<Metric>,
    /// Primary operations completed in the measured phase.
    pub ops: u64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Closed-loop clients in the measured phase.
    pub clients: usize,
    /// Name of the root span of one primary request.
    pub root: &'static str,
    /// Extra report rows (JSON objects), e.g. one per fold step.
    pub rows: Vec<String>,
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub config: Config,
    pub tally: Tally,
    /// The metrics of the final result line: every end-to-end metric
    /// (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    pub named: Vec<Metric>,
    /// Per span name: calls, busy ms, self ms (traced runs).
    pub layers: Vec<(String, u64, f64, f64)>,
    pub rows: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.mismatched == 0
    }
}

/// Runs one pass. The tracer records only the measured phase: set-up
/// and references use tracers of their own.
fn run_pass(w: Workload, cfg: &Config, tracer: &Tracer) -> Pass {
    let mut pass = match w {
        Workload::ClassifyCold => classify::run(cfg, tracer),
        Workload::ServeWarm => serve::run_warm(cfg, tracer),
        Workload::ServeIngest => serve::run_ingest(cfg, tracer),
        Workload::SuiteAudit => audit::run(cfg, tracer),
    };
    if pass.ops == 0 {
        pass.tally
            .mismatch("no operation completed with a right answer".to_string());
    }
    pass
}

/// Runs one workload. An untraced run measures for `cfg.seconds`; a
/// traced run spends half of it on a pass without spans and half on a
/// pass with them. Both halves take the same code path (the replays
/// included), so the difference between the two is the span overhead.
pub fn run(w: Workload, cfg: &Config) -> Report {
    let _quiet = metrics::QuietPanics::install();
    if !cfg.trace {
        let pass = run_pass(w, cfg, &Tracer::new(false));
        let mut metrics = vec![Metric::new("setup_s", pass.setup_s, "s")];
        metrics.extend(pass.e2e.iter().cloned());
        metrics.push(Metric::new("peak_rss_mb", metrics::peak_rss_mb(), "MB"));
        debug_assert!(metrics
            .iter()
            .map(|m| m.name.as_str())
            .eq(END_TO_END.iter().map(|(n, _)| *n)));
        let mut named = pass.named;
        named.push(Metric::new("error_rate", pass.tally.error_rate(), "ratio"));
        return Report {
            workload: w,
            config: *cfg,
            tally: pass.tally,
            metrics,
            named,
            layers: Vec::new(),
            rows: pass.rows,
            spans: Vec::new(),
        };
    }
    let half = Config {
        seconds: cfg.seconds / 2.0,
        ..*cfg
    };
    let plain = run_pass(w, &half, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = run_pass(w, &half, &tracer);
    tracer.set_enabled(false);
    let spans = tracer.take_spans();
    let per_op = |p: &Pass| p.wall_s / p.ops.max(1) as f64;
    let overhead_pct = (per_op(&traced) / per_op(&plain) - 1.0) * 100.0;
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == traced.root)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    let coverage = roots as f64 / 1e9 / (traced.wall_s * traced.clients.max(1) as f64);
    let layers = Tracer::layers(&spans);
    let mut counters = tracer.counters();
    for (k, v) in [
        ("trace.spans", spans.len() as f64),
        ("trace.coverage", coverage),
        ("trace.overhead_pct", overhead_pct),
    ] {
        counters.insert(k, v);
    }
    let metrics = per_layer_metrics(&layers, &counters);
    let mut tally = plain.tally;
    tally.merge(traced.tally);
    let mut named = traced.named;
    named.push(Metric::new("error_rate", tally.error_rate(), "ratio"));
    Report {
        workload: w,
        config: *cfg,
        tally,
        metrics,
        named,
        layers: layers
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    t.calls,
                    t.busy_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                )
            })
            .collect(),
        rows: traced.rows,
        spans,
    }
}

fn per_layer_metrics(
    layers: &BTreeMap<&'static str, trace::LayerTotals>,
    counters: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let get = |span: &str| layers.get(span).copied().unwrap_or_default();
    let busy = |span: &str| get(span).busy_ns as f64 / 1e6;
    let own = |spans: &[&str]| {
        spans
            .iter()
            .map(|s| get(s).self_ns as f64 / 1e6)
            .sum::<f64>()
    };
    let count = |key: &str| counters.get(key).copied().unwrap_or(0.0);
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "automata.analysis.new_busy_ms" => busy("automata.analysis.new"),
                "automata.analysis.classify_busy_ms" => busy("automata.analysis.classify"),
                "automata.analysis.self_ms" => {
                    own(&["automata.analysis.new", "automata.analysis.classify"])
                }
                "automata.analysis.scc_hit_ratio" => ratio(
                    count("automata.analysis.scc_hits"),
                    count("automata.analysis.scc_passes"),
                ),
                "automata.analysis.inclusion_hit_ratio" => ratio(
                    count("automata.analysis.inclusion_hits"),
                    count("automata.analysis.inclusion_checks"),
                ),
                "automata.canonical.hash_busy_ms" => busy("automata.canonical.hash"),
                "automata.canonical.language_eq_calls" => {
                    get("automata.canonical.language_eq").calls as f64
                }
                "automata.canonical.self_ms" => {
                    own(&["automata.canonical.hash", "automata.canonical.language_eq"])
                }
                "serve.store.ingest_busy_ms" => busy("serve.store.ingest"),
                "serve.store.sweep_oracle_calls_per_ingest" => {
                    let ingests = count("serve.store.ingests");
                    if ingests > 0.0 {
                        count("serve.store.sweep_oracle_calls") / ingests
                    } else {
                        0.0
                    }
                }
                "serve.store.lock_wait_ms" => busy("serve.store.lock_wait"),
                "serve.store.self_ms" => own(&[
                    "serve.store.resolve",
                    "serve.store.ingest",
                    "serve.store.evict",
                ]),
                "serve.json.parse_busy_ms" => busy("serve.json.parse"),
                "serve.json.serialize_busy_ms" => busy("serve.json.serialize"),
                "serve.service.self_ms" => own(&["serve.request"]),
                "lint.suite.busy_ms" => busy("lint.suite"),
                "lint.suite.self_ms" => own(&["lint.suite"]),
                _ => {
                    // `<span>.calls`, `<span>.busy_ms`, `<span>.self_ms`,
                    // or a counter under the metric's own name.
                    let (span, field) = name.rsplit_once('.').expect("metric names are dotted");
                    match field {
                        "calls" => get(span).calls as f64,
                        "busy_ms" => busy(span),
                        "self_ms" => own(&[span]),
                        _ => count(name),
                    }
                }
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Adds a context's counter delta to the traced run's totals.
pub fn add_analysis_stats(tracer: &Tracer, s: &hierarchy_core::automata::analysis::AnalysisStats) {
    if !tracer.enabled() {
        return;
    }
    tracer.add("automata.analysis.scc_passes", s.scc_passes as f64);
    tracer.add(
        "automata.analysis.scc_state_visits",
        s.scc_state_visits as f64,
    );
    tracer.add("automata.analysis.scc_hits", s.scc_hits as f64);
    tracer.add(
        "automata.analysis.inclusion_checks",
        s.inclusion_checks as f64,
    );
    tracer.add("automata.analysis.inclusion_hits", s.inclusion_hits as f64);
}

/// Runs `f`, turning a panic into `Err(message)`. The message comes from
/// the hook [`metrics::QuietPanics`] installs, with its location; when
/// another hook ran instead (the hook is process-wide), from the payload.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = metrics::take_panic_message();
        if !msg.is_empty() {
            return msg;
        }
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Runs `setup` `times` times, keeping the last result and the median
/// duration in seconds. A set-up is timed in process CPU time: nothing
/// else of the benchmark runs meanwhile, so this is the work set-up
/// does on all threads, without the host's steal that wall time counts.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Free the previous set-up first: two never coexist in peak RSS.
        drop(last.take());
        let t = metrics::process_cpu_ms();
        last = Some(setup());
        durations.push((metrics::process_cpu_ms() - t) / 1e3);
    }
    (
        last.expect("at least one set-up"),
        metrics::median(&durations),
    )
}
