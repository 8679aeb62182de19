//! TAB-AUDIT — whole-suite static analysis (`spec-lint audit`): the
//! cost of auditing a property suite cold (fresh contexts, empty memo
//! tables) versus warm (the same contexts re-audited, riding the
//! memoized inclusion matrix), the canonical-hash prefilter's oracle
//! savings on duplicate-heavy suites, and how the audit scales with
//! suite size and worker count.
//!
//! The `expect()` lines are the acceptance gates: a warm re-audit beats
//! the cold audit and reports memo hits, the report is byte-identical
//! cold vs warm and across worker counts (stats aside), and on a
//! duplicate-heavy suite the prefilter decides the majority of pairs by
//! hash so the oracle-call count stays below even the *undirected* pair
//! count.
//!
//! `--smoke` runs a shrunken suite and skips the JSON artifact so the
//! tier-1 gate stays fast.

use hierarchy_bench::{expect, fixed, header, timed, write_table};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::json::Json;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::random;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::lint::{audit_suite_ctx, AuditOptions, SuiteAudit};

fn random_suite(rng: &mut StdRng, sigma: &Alphabet, n: usize) -> Vec<(String, OmegaAutomaton)> {
    (0..n)
        .map(|i| {
            (
                format!("m{i}"),
                random::random_streett(rng, sigma, 8, 1, 0.3).0,
            )
        })
        .collect()
}

fn audit_ctx(suite: &[(String, Analysis)], opts: &AuditOptions) -> SuiteAudit {
    let items: Vec<(&str, &Analysis)> = suite
        .iter()
        .map(|(name, ctx)| (name.as_str(), ctx))
        .collect();
    audit_suite_ctx(&items, opts).expect("one alphabet")
}

fn strip(mut audit: SuiteAudit) -> SuiteAudit {
    audit.stats = AnalysisStats::default();
    audit
}

fn main() {
    header(
        "TAB-AUDIT",
        "whole-suite audit: cold vs warm, hash prefilter, suite-size scaling",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let mut rng = StdRng::seed_from_u64(20260808);
    let opts = AuditOptions::default();

    // --- Cold vs warm: the same contexts audited twice. The second
    //     pass answers every inclusion query from the memo tables.
    let sizes: &[usize] = if smoke { &[6, 10] } else { &[8, 16, 24] };
    let mut rows = Vec::new();
    let mut warm_beats_cold = false;
    println!(
        "\n{:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "n", "cold ms", "warm ms", "oracle", "memo hits", "findings"
    );
    for &n in sizes {
        let members = random_suite(&mut rng, &sigma, n);
        let suite: Vec<(String, Analysis)> = members
            .iter()
            .map(|(name, aut)| (name.clone(), Analysis::new(aut.clone())))
            .collect();
        let (cold, t_cold) = timed(|| audit_ctx(&suite, &opts));
        let (warm, t_warm) = timed(|| audit_ctx(&suite, &opts));
        expect(
            "the warm re-audit reproduces the cold report verbatim",
            strip(cold.clone()) == strip(warm.clone()),
        );
        expect(
            "the warm re-audit answers inclusion queries from the memo",
            warm.stats.inclusion_hits > 0,
        );
        warm_beats_cold |= t_warm < t_cold;
        let findings = cold.all_diagnostics().len();
        println!(
            "{n:>6} {t_cold:>12.3} {t_warm:>12.3} {:>12} {:>10} {findings:>10}",
            cold.prefilter.oracle_calls, warm.stats.inclusion_hits
        );
        rows.push((
            n,
            t_cold,
            t_warm,
            cold.prefilter.oracle_calls,
            warm.stats.inclusion_hits,
            findings,
        ));
    }
    expect(
        "a warm re-audit beats the cold audit somewhere",
        warm_beats_cold,
    );

    // --- The canonical-hash prefilter on a duplicate-heavy suite: 16
    //     bisimilar copies of one machine among 4 distinct others. Every
    //     in-group pair is decided by hash alone; without the prefilter
    //     the subsumption matrix alone would spend 2·pairs directed
    //     oracle runs.
    let (base, _) = random::random_streett(&mut rng, &sigma, 8, 1, 0.3);
    let copies = if smoke { 8 } else { 16 };
    let distinct = if smoke { 2 } else { 4 };
    let mut members: Vec<(String, OmegaAutomaton)> = (0..copies)
        .map(|i| (format!("copy{i}"), base.clone()))
        .collect();
    members.extend(random_suite(&mut rng, &sigma, distinct));
    let suite: Vec<(String, Analysis)> = members
        .iter()
        .map(|(name, aut)| (name.clone(), Analysis::new(aut.clone())))
        .collect();
    let (dup_audit, t_dup) = timed(|| audit_ctx(&suite, &opts));
    let p = dup_audit.prefilter;
    println!(
        "\nduplicate-heavy suite (n={}): pairs {} hash-decided {} oracle calls {} ({t_dup:.3} ms)",
        members.len(),
        p.pairs,
        p.hash_decided,
        p.oracle_calls
    );
    expect(
        "the prefilter decides the majority of pairs by hash",
        p.hash_decided * 2 > p.pairs,
    );
    expect(
        "prefiltered oracle calls stay below the undirected pair count",
        p.oracle_calls < p.pairs,
    );
    expect(
        "every copy joins the first member's language class",
        (0..copies).all(|i| dup_audit.representative[i] == 0),
    );

    // --- Suite-size scaling, sequential vs the worker pool. The report
    //     must not depend on the worker count; only the wall time may.
    let scale_sizes: &[usize] = if smoke { &[6] } else { &[8, 16, 32] };
    let mut scaling = Vec::new();
    println!(
        "\n{:>6} {:>12} {:>12} {:>12}",
        "n", "jobs1 ms", "jobs2 ms", "oracle"
    );
    for &n in scale_sizes {
        let members = random_suite(&mut rng, &sigma, n);
        let suites: Vec<Vec<(String, Analysis)>> = (0..2)
            .map(|_| {
                members
                    .iter()
                    .map(|(name, aut)| (name.clone(), Analysis::new(aut.clone())))
                    .collect()
            })
            .collect();
        let opts1 = AuditOptions {
            jobs: 1,
            ..AuditOptions::default()
        };
        let opts2 = AuditOptions {
            jobs: 2,
            ..AuditOptions::default()
        };
        let (seq, t1) = timed(|| audit_ctx(&suites[0], &opts1));
        let (par, t2) = timed(|| audit_ctx(&suites[1], &opts2));
        expect(
            "the worker pool never changes the audit report",
            strip(seq.clone()) == strip(par),
        );
        println!(
            "{n:>6} {t1:>12.3} {t2:>12.3} {:>12}",
            seq.prefilter.oracle_calls
        );
        scaling.push((n, t1, t2, seq.prefilter.oracle_calls));
    }

    if smoke {
        println!("\nTAB-AUDIT smoke complete (JSON artifact skipped).");
        return;
    }

    let int = |n: usize| Json::Int(n as i64);
    let cold_vs_warm = rows
        .iter()
        .map(|&(n, t_cold, t_warm, oracle, hits, findings)| {
            Json::obj([
                ("suite", int(n)),
                ("cold_ms", fixed(t_cold, 3)),
                ("warm_ms", fixed(t_warm, 3)),
                ("oracle_calls", Json::Int(oracle as i64)),
                ("warm_memo_hits", Json::Int(hits as i64)),
                ("findings", int(findings)),
            ])
        });
    let scaling = scaling.iter().map(|&(n, t1, t2, oracle)| {
        Json::obj([
            ("suite", int(n)),
            ("jobs1_ms", fixed(t1, 3)),
            ("jobs2_ms", fixed(t2, 3)),
            ("oracle_calls", Json::Int(oracle as i64)),
        ])
    });
    write_table(
        "BENCH_audit.json",
        &Json::obj([
            ("experiment", Json::str("TAB-AUDIT")),
            ("cold_vs_warm", Json::Arr(cold_vs_warm.collect())),
            (
                "prefilter",
                Json::obj([
                    ("suite", int(members.len())),
                    ("pairs", Json::Int(p.pairs as i64)),
                    ("hash_decided", Json::Int(p.hash_decided as i64)),
                    ("oracle_calls", Json::Int(p.oracle_calls as i64)),
                    ("audit_ms", fixed(t_dup, 3)),
                ]),
            ),
            ("scaling", Json::Arr(scaling.collect())),
        ]),
    );
    println!("\nTAB-AUDIT complete (warm audits ride the memoized inclusion matrix).");
}
