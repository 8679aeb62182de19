//! TAB-LINT — lint-pass overhead on random deterministic Streett
//! automata: the cost of a cold `lint_automaton` call (which builds its
//! own analysis context) versus classification alone versus the marginal
//! cost of `lint_automaton_ctx` on a context that has already classified
//! the automaton — the intended usage inside the classification stack.

use hierarchy_bench::{expect, fixed, header, timed, write_table};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::json::Json;
use hierarchy_core::automata::random;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::lint::{lint_automaton, lint_automaton_ctx, lint_suite, registry, Lintable};

fn main() {
    header("TAB-LINT", "lint-pass overhead on random Streett automata");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let mut rng = StdRng::seed_from_u64(20260805);

    let mut rows = Vec::new();
    let mut catalogued = true;
    let mut ctx_cheaper_somewhere = false;
    println!(
        "\n{:>7} {:>6} {:>13} {:>13} {:>13} {:>9}",
        "states", "pairs", "cold lint ms", "classify ms", "ctx lint ms", "findings"
    );
    for &n in &[64usize, 128, 256] {
        for &k in &[1usize, 2] {
            let (aut, _) = random::random_streett(&mut rng, &sigma, n, k, 0.2);

            // (a) Cold: lint_automaton builds its own Analysis.
            let (cold_diags, t_cold) = timed(|| lint_automaton(&aut));

            // (b) Classification alone, on a fresh context.
            let ctx = Analysis::new(aut.clone());
            let (_, t_classify) = timed(|| ctx.classification());

            // (c) Marginal: lint the already-classified context.
            let (ctx_diags, t_ctx) = timed(|| lint_automaton_ctx(&ctx));

            assert_eq!(
                cold_diags, ctx_diags,
                "ctx variant must agree with cold lint"
            );
            catalogued &= cold_diags.iter().all(|d| registry::rule(d.code).is_some());
            ctx_cheaper_somewhere |= t_ctx < t_cold;
            println!(
                "{n:>7} {k:>6} {t_cold:>13.3} {t_classify:>13.3} {t_ctx:>13.3} {:>9}",
                cold_diags.len()
            );
            rows.push((n, k, t_cold, t_classify, t_ctx, cold_diags.len()));
        }
    }

    expect("every emitted code is in the rule catalogue", catalogued);
    expect(
        "linting an already-classified context beats a cold lint somewhere",
        ctx_cheaper_somewhere,
    );

    // --- Batch linting through the worker pool: a seeded suite of small
    //     automata linted at several job counts, asserted diagnostic-
    //     identical to the sequential per-item lints.
    let suite: Vec<_> = (0..24)
        .map(|i| {
            let k = 1 + i % 2;
            random::random_streett(&mut rng, &sigma, 16, k, 0.25).0
        })
        .collect();
    let sequential: Vec<_> = suite.iter().map(Lintable::lint).collect();
    let mut batch_rows = Vec::new();
    println!("\n{:>6} {:>13}", "jobs", "suite ms");
    for jobs in [1usize, 2, 4] {
        let (batched, t_batch) = timed(|| lint_suite(&suite, jobs));
        expect(
            "batched lint reports are identical to sequential lints",
            batched == sequential,
        );
        println!("{jobs:>6} {t_batch:>13.3}");
        batch_rows.push((jobs, t_batch));
    }

    let rows = rows
        .iter()
        .map(|&(n, k, t_cold, t_classify, t_ctx, findings)| {
            Json::obj([
                ("states", Json::Int(n as i64)),
                ("pairs", Json::Int(k as i64)),
                ("cold_lint_ms", fixed(t_cold, 3)),
                ("classify_ms", fixed(t_classify, 3)),
                ("ctx_lint_ms", fixed(t_ctx, 3)),
                ("findings", Json::Int(findings as i64)),
            ])
        });
    let batches = batch_rows.iter().map(|&(jobs, t_batch)| {
        Json::obj([
            ("jobs", Json::Int(jobs as i64)),
            ("suite_ms", fixed(t_batch, 3)),
        ])
    });
    write_table(
        "BENCH_lint.json",
        &Json::obj([
            ("experiment", Json::str("TAB-LINT")),
            ("rows", Json::Arr(rows.collect())),
            ("batch_suite", Json::Arr(batches.collect())),
        ]),
    );
    println!("\nTAB-LINT complete (lint overhead rides the shared analysis context).");
}
