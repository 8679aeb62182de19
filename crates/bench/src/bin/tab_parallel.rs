//! TAB-PAR — thread-scaling of the parallel classification engine: the
//! batch suite (`classify_suite_with`, one automaton per work item) and
//! the in-automaton color-lattice sweep (`HIERARCHY_THREADS` workers
//! sharing one `Analysis` context), both asserted verdict-identical to
//! the sequential classifier at every thread count.
//!
//! Emits `BENCH_parallel.json` with the scaling series. Speedups are
//! measured wall-clock, so they are only meaningful on multi-core hosts;
//! `host_cores` is recorded alongside so a single-core container's
//! degenerate series is not mistaken for a regression (the ≥2× @ 4
//! threads expectation is asserted only when the host has ≥ 4 cores).

use hierarchy_bench::{expect, fixed, header, timed, write_table};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::classify;
use hierarchy_core::automata::json::Json;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::random;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};

fn main() {
    header(
        "TAB-PAR",
        "thread-scaling of the parallel classification engine",
    );
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let mut rng = StdRng::seed_from_u64(271_828);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {host_cores}");

    // 1 / 2 / 4 / N workers, N = the host's parallelism (deduplicated).
    let mut series = vec![1usize, 2, 4, host_cores];
    series.sort_unstable();
    series.dedup();

    // --- Batch suites: (states, pairs) × batch size, classified through
    //     classify_suite_with at each worker count. The 256-state/4-pair
    //     row is the acceptance-criterion suite.
    let combos = [(64usize, 2usize, 32usize), (128, 4, 24), (256, 4, 24)];
    let mut batch_rows = Vec::new();
    let mut speedup_at_4_on_256 = None;
    println!(
        "\n{:>7} {:>6} {:>6} {:>8} {:>12} {:>9}",
        "states", "pairs", "batch", "threads", "suite ms", "speedup"
    );
    for &(n, k, batch) in &combos {
        let auts: Vec<OmegaAutomaton> = (0..batch)
            .map(|_| random::random_streett(&mut rng, &sigma, n, k, 0.2).0)
            .collect();
        let (baseline, t1) = timed(|| classify::classify_suite_with(1, &auts));
        for &threads in &series {
            let (verdicts, ms) = if threads == 1 {
                (baseline.clone(), t1)
            } else {
                timed(|| classify::classify_suite_with(threads, &auts))
            };
            expect(
                "batch verdicts are identical to the sequential classifier",
                verdicts == baseline,
            );
            let speedup = t1 / ms;
            println!("{n:>7} {k:>6} {batch:>6} {threads:>8} {ms:>12.3} {speedup:>8.2}x");
            if n == 256 && threads == 4 {
                speedup_at_4_on_256 = Some(speedup);
            }
            batch_rows.push((n, k, batch, threads, ms, speedup));
        }
    }

    // --- In-automaton sweep: one large automaton, the 2^m lattice points
    //     fanned out across HIERARCHY_THREADS workers sharing a single
    //     fresh Analysis context per run.
    let (big, _) = random::random_streett(&mut rng, &sigma, 256, 4, 0.2);
    let budget = 1u64 << big.acceptance().atom_sets().len();
    let mut sweep_rows = Vec::new();
    let mut sweep_baseline = None;
    println!(
        "\n{:>7} {:>6} {:>8} {:>12} {:>10} {:>10}",
        "states", "pairs", "threads", "classify ms", "scc pass", "budget"
    );
    for &threads in &series {
        std::env::set_var("HIERARCHY_THREADS", threads.to_string());
        let ctx = Analysis::new(big.clone());
        let (verdict, ms) = timed(|| ctx.classification().clone());
        // stats_total: with the quotient-first pipeline the lattice walk
        // runs inside the quotient context — count its passes too.
        let passes = ctx.stats_total().scc_passes;
        expect(
            "the parallel sweep stays within the 2^m lattice pass budget",
            passes <= budget,
        );
        let baseline = sweep_baseline.get_or_insert_with(|| verdict.clone());
        expect(
            "sweep verdicts are identical to the sequential sweep",
            verdict == *baseline,
        );
        println!(
            "{:>7} {:>6} {threads:>8} {ms:>12.3} {passes:>10} {budget:>10}",
            256, 4
        );
        sweep_rows.push((threads, ms, passes));
    }
    std::env::remove_var("HIERARCHY_THREADS");

    // --- Scaling expectation: wall-clock speedup needs physical cores.
    match speedup_at_4_on_256 {
        Some(speedup) if host_cores >= 4 => expect(
            "≥2x speedup at 4 threads on the 256-state/4-pair batch suite",
            speedup >= 2.0,
        ),
        Some(speedup) => println!(
            "  [--] host has {host_cores} core(s): 4-thread speedup {speedup:.2}x \
             recorded without the multi-core ≥2x assertion"
        ),
        None => unreachable!("the 256-state suite always runs at 4 threads"),
    }

    // --- Machine-readable artifact.
    let int = |n: usize| Json::Int(n as i64);
    let batches = batch_rows
        .iter()
        .map(|&(n, k, batch, threads, ms, speedup)| {
            Json::obj([
                ("states", int(n)),
                ("pairs", int(k)),
                ("batch", int(batch)),
                ("threads", int(threads)),
                ("suite_ms", fixed(ms, 3)),
                ("speedup_vs_1", fixed(speedup, 3)),
            ])
        });
    let sweep = sweep_rows.iter().map(|&(threads, ms, passes)| {
        Json::obj([
            ("states", int(256)),
            ("pairs", int(4)),
            ("threads", int(threads)),
            ("classify_ms", fixed(ms, 3)),
            ("scc_passes", Json::Int(passes as i64)),
            ("pass_budget", Json::Int(budget as i64)),
        ])
    });
    write_table(
        "BENCH_parallel.json",
        &Json::obj([
            ("experiment", Json::str("TAB-PAR")),
            ("host_cores", int(host_cores)),
            ("verdicts_identical", Json::Bool(true)),
            ("batch_suite", Json::Arr(batches.collect())),
            ("lattice_sweep", Json::Arr(sweep.collect())),
        ]),
    );
    println!("\nTAB-PAR complete (parallel engine verdict-identical at every thread count).");
}
