//! `suite-audit`: the `spec-lint audit` user. Each operation parses the
//! 23-member suite (15 mutexes, 5 progress properties, 3 injected
//! findings) from formula text and audits it cold with
//! `AuditOptions::default()`.
//!
//! The audit's prefix/suffix conjunction fold runs inside
//! `lint::suite`, where no span can reach it; the traced run replays it
//! afterwards through the same public calls in the same order
//! (`OmegaAutomaton::intersection`, then `minimize`, capped), one report
//! row per fold step. The replay also recounts the skipped deep checks,
//! the reference for `SuiteAudit::deep_checks_skipped`.

use crate::metrics::{self, ms, Metric, Tally};
use crate::trace::Tracer;
use crate::{add_analysis_stats, guarded, repeated_setup, Config, Pass};
use hierarchy_core::automata::minimize::minimize;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::par;
use hierarchy_core::lint::{AuditOptions, SuiteAudit};
use hierarchy_core::logic::to_automaton::compile_over;
use hierarchy_core::logic::Formula;
use hierarchy_core::prelude::Alphabet;
use hierarchy_core::{audit_properties, Property};
use std::time::Instant;

/// The suite: 15 pairwise mutexes over `p0..p5`, five progress
/// properties spanning the hierarchy, then the three injections.
pub fn suite_sources() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for i in 0..6 {
        for j in i + 1..6 {
            sources.push((format!("mutex-{i}{j}"), format!("G !(p{i} & p{j})")));
        }
    }
    for (name, src) in [
        ("eventually-0", "F p0"),
        ("response-01", "G (p0 -> F p1)"),
        ("quiescence-5", "F G !p5"),
        ("obligation-34", "G !p3 | F p4"),
        ("fair-merge-12", "G F p1 -> G F p2"),
        ("either-mutex", "G !(p0 & p1) | G !(p2 & p3)"),
        ("mutex-01-again", "G !(p1 & p0)"),
        ("churn-5", "G F p5"),
    ] {
        sources.push((name.to_string(), src.to_string()));
    }
    sources
}

fn compile(
    sigma: &Alphabet,
    sources: &[(String, String)],
    tr: &Tracer,
) -> Result<Vec<(String, Property)>, String> {
    sources
        .iter()
        .map(|(name, src)| {
            let f = tr
                .span("logic.parse", || Formula::parse(sigma, src))
                .map_err(|e| format!("{name}: {e}"))?;
            let aut = tr
                .span("logic.compile", || compile_over(sigma, &f))
                .map_err(|e| format!("{name}: {e}"))?;
            tr.add("logic.compile.states_out", aut.num_states() as f64);
            Ok((name.clone(), Property::from_automaton(aut)))
        })
        .collect()
}

/// The hand-written expected findings: SUITE001 on `either-mutex`,
/// SUITE002 on `mutex-01-again` (a copy of `mutex-01`), SUITE003 naming
/// `quiescence-5` and `churn-5`, and the 20 originals silent.
pub fn check_findings(audit: &SuiteAudit) -> Result<(), String> {
    if audit.names.len() != 23 {
        return Err(format!(
            "{} members audited, expected 23",
            audit.names.len()
        ));
    }
    let codes =
        |i: usize| -> Vec<&str> { audit.member_diagnostics[i].iter().map(|d| d.code).collect() };
    if let Some(i) = (0..20).find(|&i| !audit.member_diagnostics[i].is_empty()) {
        return Err(format!(
            "original member {} reported {:?}",
            audit.names[i],
            codes(i)
        ));
    }
    let expected: [(usize, &[&str]); 3] = [(20, &["SUITE001"]), (21, &["SUITE002"]), (22, &[])];
    for (i, want) in expected {
        if codes(i) != want {
            return Err(format!(
                "{} reported {:?}, expected {want:?}",
                audit.names[i],
                codes(i)
            ));
        }
    }
    if audit.representative[21] != 0 {
        return Err("mutex-01-again not in mutex-01's language class".into());
    }
    let suite: Vec<&str> = audit.suite_diagnostics.iter().map(|d| d.code).collect();
    let names_pair = audit.suite_diagnostics.first().is_some_and(|d| {
        d.message.contains("\"quiescence-5\"") && d.message.contains("\"churn-5\"")
    });
    if suite != ["SUITE003"] || !names_pair {
        return Err(format!(
            "suite findings {suite:?}, expected one SUITE003 on quiescence-5/churn-5"
        ));
    }
    Ok(())
}

/// One capped fold step: the product, then its minimization.
fn fold_step(
    tr: &Tracer,
    rows: &mut Vec<String>,
    label: &str,
    k: usize,
    acc: &OmegaAutomaton,
    aut: &OmegaAutomaton,
    cap: usize,
) -> Option<OmegaAutomaton> {
    let (product, product_ms) = timed(|| tr.span("automata.product", || acc.intersection(aut)));
    let chars = product.acceptance().to_string().chars().count();
    tr.max("automata.product.max_states", product.num_states() as f64);
    tr.max("automata.product.max_acceptance_chars", chars as f64);
    let (m, min_ms) = timed(|| tr.span("automata.minimize", || minimize(&product).quotient));
    let atoms = m.acceptance().atom_sets().len();
    tr.add("automata.minimize.states_in", product.num_states() as f64);
    tr.add("automata.minimize.states_out", m.num_states() as f64);
    tr.add("automata.minimize.atoms_out", atoms as f64);
    let kept = m.num_states() <= cap;
    if kept {
        tr.max("lint.suite.fold_states_max", m.num_states() as f64);
    }
    rows.push(format!(
        "{{\"fold\":\"{label}\",\"step\":{k},\"product_states\":{},\"acceptance_chars\":{chars},\
         \"product_ms\":{product_ms},\"minimized_states\":{},\"atoms\":{atoms},\"minimize_ms\":{min_ms},\
         \"over_cap\":{}}}",
        product.num_states(),
        m.num_states(),
        !kept
    ));
    kept.then_some(m)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

/// Replays the audit's capped prefix and suffix folds and the per-member
/// rest-of-suite products; returns the number of deep checks the cap
/// skips.
fn replay_folds(
    tr: &Tracer,
    props: &[(String, Property)],
    audit: &SuiteAudit,
    cap: usize,
    rows: &mut Vec<String>,
) -> usize {
    let n = props.len();
    let any_empty = props.iter().any(|(_, p)| p.analysis().is_empty());
    if n < 2 || any_empty || cap == 0 {
        return 0;
    }
    let sigma = props[0].1.alphabet().clone();
    let auts: Vec<&OmegaAutomaton> = props.iter().map(|(_, p)| p.automaton()).collect();
    let mut prefix = vec![Some(OmegaAutomaton::universal(&sigma))];
    for (k, aut) in auts.iter().enumerate() {
        let next = prefix[k]
            .as_ref()
            .and_then(|acc| fold_step(tr, rows, "prefix", k, acc, aut, cap));
        prefix.push(next);
    }
    let mut suffix: Vec<Option<OmegaAutomaton>> = vec![None; n + 1];
    suffix[n] = Some(OmegaAutomaton::universal(&sigma));
    for k in (0..n).rev() {
        suffix[k] = suffix[k + 1]
            .as_ref()
            .and_then(|acc| fold_step(tr, rows, "suffix", k, acc, auts[k], cap));
    }
    let class_size = |i: usize| {
        audit
            .representative
            .iter()
            .filter(|&&r| r == audit.representative[i])
            .count()
    };
    let parent = tr.current();
    let rest: Vec<(bool, Vec<String>)> = par::map_indices_with(metrics::nproc(), n, |i| {
        tr.adopt(parent, || {
            let mut rows = Vec::new();
            if class_size(i) > 1 {
                return (false, rows);
            }
            let kept = match (&prefix[i], &suffix[i + 1]) {
                (Some(p), Some(s)) => fold_step(tr, &mut rows, "rest", i, p, s, cap).is_some(),
                _ => false,
            };
            (!kept, rows)
        })
    });
    let mut skipped = 0;
    for (s, r) in rest {
        skipped += usize::from(s);
        rows.extend(r);
    }
    skipped
}

pub fn run(cfg: &Config, tr: &Tracer) -> Pass {
    let sigma =
        Alphabet::of_propositions(["p0", "p1", "p2", "p3", "p4", "p5"]).expect("six propositions");
    let sources = suite_sources();
    let opts = AuditOptions {
        // The shrunken pass keeps the deep checks but caps them low.
        conjunction_cap: if cfg.smoke {
            64
        } else {
            AuditOptions::default().conjunction_cap
        },
        ..AuditOptions::default()
    };
    let off = Tracer::new(false);
    let (_, setup_s) = repeated_setup(101, || compile(&sigma, &sources, &off));

    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut wall = Vec::new();
    let mut skipped = Vec::new();
    let mut last: Option<(Vec<(String, Property)>, SuiteAudit)> = None;
    let start = Instant::now();
    let loop_clock = metrics::GivenClock::start();
    let mut iteration = 0u64;
    // An audit takes seconds: start another only while at least half of
    // one still fits, so the audit count per run does not flip on noise.
    let mut last_s = 0.0;
    while iteration == 0 || start.elapsed().as_secs_f64() + last_s / 2.0 <= cfg.seconds {
        iteration += 1;
        tally.attempted += 1;
        let (t, clock) = (Instant::now(), metrics::GivenClock::start());
        let outcome = guarded(|| {
            tr.request("suite.iteration", iteration, || {
                let props = compile(&sigma, &sources, tr)?;
                let items: Vec<(&str, &Property)> =
                    props.iter().map(|(n, p)| (n.as_str(), p)).collect();
                let audit = tr
                    .span("lint.suite", || {
                        audit_properties(items.iter().copied(), &opts)
                    })
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((props, audit))
            })
        });
        last_s = t.elapsed().as_secs_f64();
        wall.push(last_s * 1e3);
        // The audit fans out over every core, but not throughout, so this
        // removes only part of the host's steal.
        let elapsed = clock.elapsed_s() * 1e3;
        match outcome {
            Err(p) => tally.panic(p),
            // The reference is the hand-written findings: an error
            // result is a wrong answer.
            Ok(Err(e)) => tally.mismatch(format!("error: {e}")),
            Ok(Ok((props, audit))) => match check_findings(&audit) {
                Err(e) => tally.mismatch(e),
                Ok(()) => {
                    times.push(elapsed);
                    skipped.push(audit.deep_checks_skipped);
                    last = Some((props, audit));
                }
            },
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let given_s = loop_clock.elapsed_s();
    if skipped.windows(2).any(|w| w[0] != w[1]) {
        tally.mismatch(format!(
            "deep_checks_skipped varies between audits: {skipped:?}"
        ));
    }

    let mut rows = Vec::new();
    if let Some((props, audit)) = &last {
        if tr.enabled() {
            let p = &audit.prefilter;
            tr.add("lint.suite.oracle_calls", p.oracle_calls as f64);
            tr.add(
                "lint.suite.hash_decided_ratio",
                p.hash_decided as f64 / p.pairs.max(1) as f64,
            );
            add_analysis_stats(tr, &audit.stats);
            let replayed = tr.request("suite.replay", 0, || {
                replay_folds(tr, props, audit, opts.conjunction_cap, &mut rows)
            });
            if replayed != audit.deep_checks_skipped {
                tally.mismatch(format!(
                    "audit skipped {} deep checks, the fold replay skips {replayed}",
                    audit.deep_checks_skipped
                ));
            }
        }
    }
    let sorted = metrics::sorted(&times);
    let p50 = metrics::median(&times);
    let worst = sorted.last().copied().unwrap_or(0.0);
    let per_s = times.len() as f64 / given_s;
    let skipped_now = skipped.first().copied().unwrap_or(0);
    Pass {
        setup_s,
        e2e: vec![
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("tail_ms", worst, "ms"),
            Metric::new("ops_per_s", per_s, "1/s"),
        ],
        named: vec![
            Metric::new("audit_s", p50 / 1e3, "s"),
            Metric::new("audit_max_s", worst / 1e3, "s"),
            Metric::new("audit_wall_s", metrics::median(&wall) / 1e3, "s"),
            Metric::new("audit_samples", times.len() as f64, "count"),
            Metric::new("audit_checks_skipped", skipped_now as f64, "count"),
        ],
        ops: times.len() as u64,
        wall_s,
        clients: 1,
        root: "suite.iteration",
        rows,
        tally,
    }
}
