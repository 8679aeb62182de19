//! TAB-INCL — the direct inclusion/equivalence oracle
//! (`hierarchy_automata::inclusion`, Angluin & Fisman) against the
//! classical complement+product+emptiness construction, on seeded
//! random Streett suites.
//!
//! The old oracle decides `L(A) ⊆ L(B)` by materializing `A × ¬B` and
//! converting its combined acceptance to DNF — exponential in the
//! number of Streett pairs (`k` conjoined pairs distribute into `2^k`
//! generalized Rabin disjuncts). The direct oracle works on the same
//! product graph but keeps each Streett pair whole and answers with
//! iterated-SCC refinement (plus the parity fast path when both sides
//! admit a [`hierarchy_core::automata::inclusion::ParityView`]),
//! so its cost is polynomial in `k`. This table measures both oracles
//! on identical equivalence queries, asserts the verdicts are identical
//! on **every** seeded case (the release-mode counterpart of the
//! debug-mode differential tripwire), and asserts the headline claim:
//! at 256 states the direct oracle's median latency is at least 2×
//! better.
//!
//! `--smoke` runs a shrunken suite and skips the JSON artifact so the
//! committed `BENCH_inclusion.json` always describes the full run.

use hierarchy_bench::{expect, fixed, header, median, timed, write_table};
use hierarchy_core::automata::inclusion;
use hierarchy_core::automata::json::Json;
use hierarchy_core::automata::prelude::*;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};

struct Suite {
    states: usize,
    pairs: usize,
    density: f64,
    batch: usize,
    old_ms: Vec<f64>,
    new_ms: Vec<f64>,
    verdicts_equal: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "TAB-INCL",
        "direct inclusion/equivalence oracle vs complement+product",
    );
    let ab = Alphabet::new(["a", "b"]).expect("alphabet");

    // (states, pairs, set density, batch of equivalence queries)
    let combos: &[(usize, usize, f64, usize)] = if smoke {
        &[(64, 2, 0.1, 4)]
    } else {
        &[(64, 2, 0.1, 12), (128, 4, 0.08, 10), (256, 6, 0.05, 10)]
    };
    let mut rng = StdRng::seed_from_u64(20_020_319); // arXiv:2002.03191
    println!(
        "\n{:>7} {:>6} {:>8} {:>6} {:>12} {:>12} {:>9}",
        "states", "pairs", "density", "batch", "old med ms", "new med ms", "speedup"
    );
    let mut suites: Vec<Suite> = Vec::new();
    for &(n, k, p, batch) in combos {
        let mut suite = Suite {
            states: n,
            pairs: k,
            density: p,
            batch,
            old_ms: Vec::with_capacity(batch),
            new_ms: Vec::with_capacity(batch),
            verdicts_equal: true,
        };
        for _ in 0..batch {
            // Timed workload: equivalence against the language-preserving
            // quotient. The verdict is *true*, so neither oracle can bail
            // out on the first counterexample — the old one must prove
            // all `2^k · k` DNF disjuncts empty, the worst case the
            // direct oracle is built to avoid.
            let (a, _) = random_streett(&mut rng, &ab, n, k, p);
            let b = minimize(&a).quotient;
            let (old_eq, old_ms) = timed(|| a.equivalent_via_complement(&b));
            let (new_eq, new_ms) = timed(|| inclusion::equivalent(&a, &b));
            suite.verdicts_equal &= old_eq == new_eq;
            // Untimed tripwire on an independent (generally inequivalent)
            // pair: verdict identity on the counterexample-bearing shape
            // too, equivalence and both inclusion directions.
            let (c, _) = random_streett(&mut rng, &ab, n, k, p);
            suite.verdicts_equal &=
                inclusion::equivalent(&a, &c) == a.equivalent_via_complement(&c);
            suite.verdicts_equal &=
                inclusion::included(&a, &c) == a.is_subset_of_via_complement(&c);
            suite.verdicts_equal &=
                inclusion::included(&c, &a) == c.is_subset_of_via_complement(&a);
            suite.old_ms.push(old_ms);
            suite.new_ms.push(new_ms);
        }
        let (om, nm) = (median(&suite.old_ms), median(&suite.new_ms));
        println!(
            "{n:>7} {k:>6} {p:>8} {batch:>6} {om:>12.4} {nm:>12.4} {:>8.1}x",
            om / nm.max(1e-9)
        );
        expect(
            "old and new oracles agree on every seeded case",
            suite.verdicts_equal,
        );
        suites.push(suite);
    }

    if let Some(big) = suites.iter().find(|s| s.states == 256) {
        let (om, nm) = (median(&big.old_ms), median(&big.new_ms));
        expect(
            "direct oracle is at least 2x faster (median) at 256 states",
            om >= 2.0 * nm,
        );
    }

    if smoke {
        println!("\nTAB-INCL smoke complete (JSON artifact skipped).");
        return;
    }

    // --- Machine-readable artifact.
    let seeded = suites.iter().map(|s| {
        let (om, nm) = (median(&s.old_ms), median(&s.new_ms));
        Json::obj([
            ("states", Json::Int(s.states as i64)),
            ("pairs", Json::Int(s.pairs as i64)),
            ("density", Json::Num(s.density)),
            ("batch", Json::Int(s.batch as i64)),
            ("old_median_ms", fixed(om, 4)),
            ("new_median_ms", fixed(nm, 4)),
            ("old_total_ms", fixed(s.old_ms.iter().sum(), 3)),
            ("new_total_ms", fixed(s.new_ms.iter().sum(), 3)),
            ("median_speedup", fixed(om / nm.max(1e-9), 2)),
        ])
    });
    write_table(
        "BENCH_inclusion.json",
        &Json::obj([
            ("experiment", Json::str("TAB-INCL")),
            ("verdicts_identical", Json::Bool(true)),
            (
                "note",
                Json::str(
                    "equivalence queries on seeded random Streett pairs; old = \
                     complement+product+DNF emptiness, new = direct product-graph Streett \
                     refinement (inclusion module). Medians over the per-suite batch.",
                ),
            ),
            ("seeded_streett", Json::Arr(seeded.collect())),
        ]),
    );
    println!("\nTAB-INCL complete (direct oracle verdict-identical everywhere).");
}
