//! `serve-warm` and `serve-ingest`: the `spec-serve` daemon, driven
//! in-process through `Service::handle_line` (the function each TCP
//! connection thread runs per line) by closed-loop client threads.
//!
//! The daemon's layers sit behind one private store lock, so a traced
//! run swaps the `Service` for [`Replay`]: the same request path rebuilt
//! from public calls in the same order (`Json::parse`, the `Store`
//! behind this module's own mutex, `Analysis` / `lint_automaton_ctx` /
//! `is_subset_of`, `Json::to_string`), with a span around each. Both
//! halves of a traced run use the replay, so they differ only in whether
//! spans are recorded.

use crate::metrics::{self, ms, Metric, Tally};
use crate::trace::Tracer;
use crate::{add_analysis_stats, guarded, repeated_setup, Config, Pass};
use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::canonical::{self, ArtifactHash};
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
use hierarchy_core::automata::{hoa, inclusion};
use hierarchy_core::lint::{lint_automaton_ctx, report_to_json};
use hierarchy_core::prelude::Alphabet;
use hierarchy_core::{HierarchyClass, Servable};
use hierarchy_serve::json::Json;
use hierarchy_serve::store::{Entry, Store};
use hierarchy_serve::Service;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const CAPACITY: usize = 4096;
/// The `serve-ingest` reader's pause between queries. Without it the
/// reader retook the store lock back to back, and on a 2-core host the
/// writer's ingest latency flipped between two levels from run to run
/// (in some runs quantized to the 4 ms scheduler tick).
const READER_THINK: Duration = Duration::from_millis(1);
const CLASSIFY: usize = 0;
const LINT: usize = 1;
const INCLUDE: usize = 2;

/// The daemon under test: the real service, or the replay of a traced run.
enum Daemon {
    Service(Service),
    Replay(Replay),
}

impl Daemon {
    fn new(traced: bool) -> Daemon {
        if traced {
            Daemon::Replay(Replay {
                store: Mutex::new(Store::new(CAPACITY)),
            })
        } else {
            Daemon::Service(Service::new(CAPACITY, metrics::nproc()))
        }
    }

    fn call(&self, tr: &Tracer, line: &str) -> String {
        match self {
            Daemon::Service(s) => s.handle_line(line),
            Daemon::Replay(r) => r.call(tr, line),
        }
    }
}

/// An artifact the daemon holds, with the automaton it was built from.
struct Art {
    hash: String,
    aut: OmegaAutomaton,
}

struct Query {
    method: usize,
    line: String,
    /// The verdict-bearing prefix every response must start with; the
    /// per-request `warm` flag and counter delta that follow may vary.
    expect: String,
}

fn ingest_line(id: u64, aut: &OmegaAutomaton) -> String {
    Json::obj([
        ("id", Json::Int(id as i64)),
        ("method", Json::str("ingest")),
        (
            "params",
            Json::obj([
                ("kind", Json::str("automaton")),
                ("hoa", Json::str(hoa::omega_to_hoa(aut))),
            ]),
        ),
    ])
    .to_string()
}

fn request_line(id: u64, method: &str, params: Json) -> String {
    Json::obj([
        ("id", Json::Int(id as i64)),
        ("method", Json::str(method)),
        ("params", params),
    ])
    .to_string()
}

fn result_of(resp: &str) -> Result<Json, String> {
    let v = Json::parse(resp).map_err(|e| format!("unparsable response: {e}"))?;
    v.get("result")
        .cloned()
        .ok_or_else(|| format!("error response: {resp}"))
}

fn verdict_prefix(resp: &str) -> String {
    resp.find(",\"warm\"")
        .map_or(resp, |i| &resp[..i])
        .to_string()
}

/// Ingests `count` distinct artifacts per `(states, pairs, count)` over
/// the HOA path; an artifact the equivalence sweep folds onto an
/// earlier one is skipped so every warm entry is distinct.
fn ingest_warm_set(
    rng: &mut StdRng,
    sigma: &Alphabet,
    sizes: &[(usize, usize, usize)],
    daemon: &Daemon,
    tr: &Tracer,
) -> Vec<Art> {
    let mut arts: Vec<Art> = Vec::new();
    let mut id = 0;
    for &(states, pairs, count) in sizes {
        let target = arts.len() + count;
        while arts.len() < target {
            let (aut, _) = random_streett(rng, sigma, states, pairs, 0.15);
            id += 1;
            let result = result_of(&daemon.call(tr, &ingest_line(id, &aut)))
                .expect("set-up ingest succeeds");
            if result.get("known") == Some(&Json::Bool(true)) {
                continue;
            }
            let hash = result
                .get("artifact")
                .and_then(Json::as_str)
                .expect("ingest names its artifact")
                .to_string();
            arts.push(Art { hash, aut });
        }
    }
    arts
}

/// Per artifact, three classify queries, one lint and one include (with
/// a random other artifact): classify is the common read, so the p50
/// sits inside its cluster while lint and include set the tail and rate.
fn make_queries(rng: &mut StdRng, arts: &[Art]) -> Vec<Query> {
    let mut qs = Vec::new();
    for (i, art) in arts.iter().enumerate() {
        let j = (i + 1 + rng.gen_range(0..arts.len() - 1)) % arts.len();
        let one = |k: &'static str| Json::obj([(k, Json::str(art.hash.clone()))]);
        let include = Json::obj([
            ("lhs", Json::str(art.hash.clone())),
            ("rhs", Json::str(arts[j].hash.clone())),
        ]);
        for (method, name, params) in [
            (CLASSIFY, "classify", one("artifact")),
            (CLASSIFY, "classify", one("artifact")),
            (CLASSIFY, "classify", one("artifact")),
            (LINT, "lint", one("artifact")),
            (INCLUDE, "include", include),
        ] {
            qs.push(Query {
                method,
                line: request_line(qs.len() as u64, name, params),
                expect: String::new(),
            });
        }
    }
    qs
}

/// A seeded permutation of `0..n`: the order a client walks the queries.
fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Asks every query once more and checks the verdict against direct
/// library calls on fresh contexts (outside the timed path); the
/// verdict prefix of that answer is what the timed loop expects.
fn reference_pass(daemon: &Daemon, arts: &[Art], queries: &mut [Query], tally: &mut Tally) {
    let off = Tracer::new(false);
    let direct: Vec<Analysis> = arts.iter().map(|a| Analysis::new(a.aut.clone())).collect();
    let index = |hash: &str| arts.iter().position(|a| a.hash == hash);
    for q in queries.iter_mut() {
        let resp = daemon.call(&off, &q.line);
        let checked = result_of(&resp).and_then(|r| {
            let hash = |k: &str| r.get(k).and_then(Json::as_str).and_then(index);
            match q.method {
                CLASSIFY => {
                    let i = hash("artifact").ok_or("unknown artifact")?;
                    let want =
                        HierarchyClass::from_classification(direct[i].classification()).to_string();
                    let got = r.get("class").and_then(Json::as_str).unwrap_or("");
                    (got == want)
                        .then_some(())
                        .ok_or(format!("daemon class {got}, library class {want}"))
                }
                LINT => {
                    let i = hash("artifact").ok_or("unknown artifact")?;
                    let report = lint_automaton_ctx(&direct[i]);
                    let count = r.get("count").and_then(Json::as_int);
                    (count == Some(report.len() as i64) && resp.contains(&report_to_json(&report)))
                        .then_some(())
                        .ok_or(format!(
                            "daemon lint report differs from the library's: {resp}"
                        ))
                }
                _ => {
                    let (i, j) = (
                        hash("lhs").ok_or("unknown lhs")?,
                        hash("rhs").ok_or("unknown rhs")?,
                    );
                    let included = direct[i].is_subset_of(&arts[j].aut);
                    let equivalent = included && direct[j].is_subset_of(&arts[i].aut);
                    let got = (
                        r.get("included").and_then(Json::as_bool),
                        r.get("equivalent").and_then(Json::as_bool),
                    );
                    (got == (Some(included), Some(equivalent)))
                        .then_some(())
                        .ok_or(format!(
                            "daemon inclusion {got:?}, library ({included}, {equivalent})"
                        ))
                }
            }
        });
        if let Err(e) = checked {
            tally.mismatch(e);
        }
        q.expect = verdict_prefix(&resp);
    }
}

/// Per query method, the answers' latencies by completion window.
struct Reads {
    lat: [metrics::Windows; 3],
    tally: Tally,
}

/// Width of the windows the query latency and rate medians are taken over.
const WINDOW_S: f64 = 1.0;

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// One closed-loop reader: sends the next query `think` after the last
/// one is answered, until `stop` says so.
fn reader(
    warm: &Warm,
    tr: &Tracer,
    offset: usize,
    think: Duration,
    start: Instant,
    stop: &(dyn Fn() -> bool + Sync),
) -> Reads {
    let mut out = Reads {
        lat: std::array::from_fn(|_| metrics::Windows::new(WINDOW_S)),
        tally: Tally::default(),
    };
    let mut k = offset;
    while !stop() {
        let q = &warm.queries[warm.order[k % warm.order.len()]];
        k += 1;
        let req = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let resp = guarded(|| tr.request("serve.request", req, || warm.daemon.call(tr, &q.line)));
        let dt = ms(t.elapsed());
        out.tally.attempted += 1;
        match resp {
            Err(p) => out.tally.panic(p),
            Ok(r) if r.starts_with(&q.expect) => {
                out.lat[q.method].record(start.elapsed().as_secs_f64(), dt)
            }
            Ok(r) => out
                .tally
                .mismatch(format!("response {r} does not start with {}", q.expect)),
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    out
}

/// Query p50 and p99 latency (ms) as medians over windows, and the rate
/// over `rate_s` seconds.
fn query_metrics(
    reads: &[Reads],
    wall_s: f64,
    rate_s: f64,
    named: &mut Vec<Metric>,
) -> (f64, f64, f64) {
    let mut all = metrics::Windows::new(WINDOW_S);
    for (method, name) in [(CLASSIFY, "classify"), (LINT, "lint"), (INCLUDE, "include")] {
        let mut lat = metrics::Windows::new(WINDOW_S);
        for r in reads {
            lat.merge(&r.lat[method]);
        }
        let (p50, _, _) = metrics::windowed(&lat.finish(wall_s), 99.0);
        named.push(Metric::new(format!("{name}_p50_us"), p50 * 1e3, "us"));
        all.merge(&lat);
    }
    let (p50, p99, _) = metrics::windowed(&all.finish(wall_s), 99.0);
    let samples = all.total().len();
    let qps = samples as f64 / rate_s;
    named.push(Metric::new("query_p99_us", p99 * 1e3, "us"));
    named.push(Metric::new("query_qps", qps, "1/s"));
    named.push(Metric::new("query_samples", samples as f64, "count"));
    (p50, p99, qps)
}

/// A daemon filled with a warm set, every query asked once.
struct Warm {
    daemon: Daemon,
    arts: Vec<Art>,
    queries: Vec<Query>,
    order: Vec<usize>,
}

fn set_up_warm(cfg: &Config, sizes: &[(usize, usize, usize)]) -> Warm {
    let off = Tracer::new(false);
    let sigma = Alphabet::of_propositions(["p", "q"]).expect("two propositions");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E4E_3A53);
    let daemon = Daemon::new(cfg.trace);
    let arts = ingest_warm_set(&mut rng, &sigma, sizes, &daemon, &off);
    let queries = make_queries(&mut rng, &arts);
    for q in &queries {
        daemon.call(&off, &q.line);
    }
    let order = shuffled(&mut rng, queries.len());
    Warm {
        daemon,
        arts,
        queries,
        order,
    }
}

pub fn run_warm(cfg: &Config, tr: &Tracer) -> Pass {
    let sizes: &[(usize, usize, usize)] = if cfg.smoke {
        &[(8, 2, 2), (12, 2, 2), (16, 3, 2)]
    } else {
        &[(48, 2, 8), (96, 3, 8), (192, 3, 8)]
    };
    let (mut warm, setup_s) = repeated_setup(5, || set_up_warm(cfg, sizes));
    let mut tally = Tally::default();
    reference_pass(&warm.daemon, &warm.arts, &mut warm.queries, &mut tally);

    let clients = 2;
    let start = Instant::now();
    let clock = metrics::GivenClock::start();
    let stop = || start.elapsed().as_secs_f64() >= cfg.seconds;
    let reads: Vec<Reads> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (warm, stop) = (&warm, &stop);
                let offset = c * warm.order.len() / 2;
                s.spawn(move || reader(warm, tr, offset, Duration::ZERO, start, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // Two clients on two cores, never waiting: the rate leaves out steal.
    let given_s = clock.elapsed_s();
    let mut named = Vec::new();
    let (p50, p99, qps) = query_metrics(&reads, wall_s, given_s, &mut named);
    named.push(Metric::new("query_wall_qps", qps * given_s / wall_s, "1/s"));
    let ops = (qps * given_s).round() as u64;
    for r in reads {
        tally.merge(r.tally);
    }
    Pass {
        setup_s,
        e2e: vec![
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("tail_ms", p99, "ms"),
            Metric::new("ops_per_s", qps, "1/s"),
        ],
        named,
        ops,
        wall_s,
        clients,
        root: "serve.request",
        rows: Vec::new(),
        tally,
    }
}

/// One slot of the ingest stream: a fresh artifact, or an exact repeat
/// of an earlier slot.
struct Slot {
    line: String,
    hash: String,
    aut: OmegaAutomaton,
    repeat_of: Option<usize>,
}

/// Every sixth slot repeats an earlier fresh slot of the same round.
fn make_round(seed: u64, round: u64, fresh: usize, sigma: &Alphabet) -> Vec<Slot> {
    let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A6E);
    let mut slots: Vec<Slot> = Vec::new();
    let mut made = 0;
    while made < fresh {
        let id = slots.len() as u64;
        if slots.len() % 6 == 5 {
            let originals: Vec<usize> = (0..slots.len())
                .filter(|&i| slots[i].repeat_of.is_none())
                .collect();
            let of = originals[rng.gen_range(0..originals.len())];
            let line = ingest_line(id, &slots[of].aut);
            slots.push(Slot {
                line,
                hash: slots[of].hash.clone(),
                aut: slots[of].aut.clone(),
                repeat_of: Some(of),
            });
        } else {
            let (aut, _) = random_streett(&mut rng, sigma, 32, 2, 0.15);
            slots.push(Slot {
                line: ingest_line(id, &aut),
                hash: aut.content_hash().to_string(),
                aut,
                repeat_of: None,
            });
            made += 1;
        }
    }
    slots
}

/// What the ingesting client saw: one window per round.
#[derive(Default)]
struct Writes {
    rounds: Vec<metrics::Window>,
    tally: Tally,
}

/// Sends one round's ingests in order, checks each answer, verifies any
/// alias the equivalence sweep claimed, then evicts the round's fresh
/// entries so every round starts from the warm set.
fn ingest_round(daemon: &Daemon, tr: &Tracer, slots: &[Slot], warm: &[Art], w: &mut Writes) {
    let mut aliased = Vec::new();
    let mut stored = Vec::new();
    let mut lat = metrics::Histogram::default();
    let round_start = Instant::now();
    for (i, slot) in slots.iter().enumerate() {
        let req = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let resp = guarded(|| tr.request("serve.request", req, || daemon.call(tr, &slot.line)));
        let dt = ms(t.elapsed());
        w.tally.attempted += 1;
        let result = match resp.map(|r| result_of(&r)) {
            Err(p) => {
                w.tally.panic(p);
                continue;
            }
            // The reference answer to every ingest is a result.
            Ok(Err(e)) => {
                w.tally.mismatch(e);
                continue;
            }
            Ok(Ok(r)) => r,
        };
        let artifact = result.get("artifact").and_then(Json::as_str).unwrap_or("");
        let known = result.get("known").and_then(Json::as_bool);
        let ok = match (slot.repeat_of, known) {
            (Some(_), Some(true)) | (None, Some(false)) => artifact == slot.hash,
            (None, Some(true)) if artifact == slot.hash => {
                aliased.push(i);
                true
            }
            _ => false,
        };
        if !ok {
            w.tally
                .mismatch(format!("ingest of slot {i} answered {result:?}"));
            continue;
        }
        if slot.repeat_of.is_none() && known == Some(false) {
            stored.push(i);
        }
        lat.record(dt);
    }
    w.rounds.push(metrics::Window {
        seconds: round_start.elapsed().as_secs_f64(),
        latencies: lat,
    });
    // An alias is right only if some earlier artifact has the same
    // language.
    for &i in &aliased {
        let earlier = warm
            .iter()
            .map(|a| &a.aut)
            .chain(slots[..i].iter().map(|s| &s.aut))
            .filter(|a| a.alphabet() == slots[i].aut.alphabet());
        if !earlier
            .into_iter()
            .any(|a| inclusion::equivalent(a, &slots[i].aut))
        {
            w.tally.mismatch(format!(
                "slot {i} aliased, but no stored artifact has its language"
            ));
        }
    }
    for &i in &stored {
        let line = request_line(
            1_000_000 + i as u64,
            "evict",
            Json::obj([("artifact", Json::str(slots[i].hash.clone()))]),
        );
        w.tally.attempted += 1;
        let evicted = guarded(|| daemon.call(tr, &line)).map(|r| result_of(&r));
        if !matches!(&evicted, Ok(Ok(r)) if r.get("evicted") == Some(&Json::Bool(true))) {
            w.tally
                .mismatch(format!("evicting slot {i} answered {evicted:?}"));
        }
    }
    w.tally.attempted += 1;
    let entries = guarded(|| daemon.call(tr, &request_line(2_000_000, "stats", Json::Obj(vec![]))))
        .map(|r| result_of(&r).map(|r| r.get("entries").and_then(Json::as_int)));
    if !matches!(entries, Ok(Ok(Some(n))) if n == warm.len() as i64) {
        w.tally.mismatch(format!(
            "store holds {entries:?} entries after a round, expected {}",
            warm.len()
        ));
    }
}

pub fn run_ingest(cfg: &Config, tr: &Tracer) -> Pass {
    let (sizes, fresh): (&[(usize, usize, usize)], usize) = if cfg.smoke {
        (&[(8, 2, 1), (12, 2, 1), (16, 3, 1)], 5)
    } else {
        (&[(48, 2, 2), (96, 3, 2), (192, 3, 2)], 100)
    };
    // The writer is another tenant: its propositions differ from the
    // warm set's, so its sweep passes the reader's entries after an
    // alphabet check and its cost grows with its own stream alone.
    let sigma = Alphabet::of_propositions(["a", "b"]).expect("two propositions");
    let ((mut warm, first), setup_s) = repeated_setup(5, || {
        let warm = set_up_warm(cfg, sizes);
        (warm, make_round(cfg.seed, 0, fresh, &sigma))
    });
    let mut tally = Tally::default();
    reference_pass(&warm.daemon, &warm.arts, &mut warm.queries, &mut tally);
    let store_before = warm.daemon.store_counts();

    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (writes, reads) = std::thread::scope(|s| {
        let warm = &warm;
        let stop = || done.load(Ordering::Relaxed);
        let read = s.spawn(move || reader(warm, tr, 0, READER_THINK, start, &stop));
        let mut w = Writes::default();
        let mut slots = first;
        loop {
            ingest_round(&warm.daemon, tr, &slots, &warm.arts, &mut w);
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
            slots = make_round(cfg.seed, w.rounds.len() as u64, fresh, &sigma);
        }
        done.store(true, Ordering::Relaxed);
        (w, read.join().expect("reader thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    if tr.enabled() {
        let after = warm.daemon.store_counts();
        let ingests = (after.0 - store_before.0) as f64;
        tr.add(
            "serve.store.dedup_hit_ratio",
            (after.1 - store_before.1) as f64 / ingests.max(1.0),
        );
    }

    let mut named = Vec::new();
    // Every round is one full ramp of the growing store, so the latency
    // percentiles pool all rounds; the rate is the median round's.
    let (_, _, per_s) = metrics::windowed(&writes.rounds, 90.0);
    let mut pooled = metrics::Histogram::default();
    for r in &writes.rounds {
        pooled.merge(&r.latencies);
    }
    let (p50, p90) = (pooled.percentile(50.0), pooled.percentile(90.0));
    let samples = pooled.len();
    named.push(Metric::new("ingest_p50_ms", p50, "ms"));
    named.push(Metric::new("ingest_p90_ms", p90, "ms"));
    named.push(Metric::new("ingest_samples", samples as f64, "count"));
    named.push(Metric::new(
        "ingest_rounds",
        writes.rounds.len() as f64,
        "count",
    ));
    // The reader pauses between queries, so its rate is in wall time.
    query_metrics(std::slice::from_ref(&reads), wall_s, wall_s, &mut named);
    tally.merge(writes.tally);
    tally.merge(reads.tally);
    Pass {
        setup_s,
        e2e: vec![
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("tail_ms", p90, "ms"),
            Metric::new("ops_per_s", per_s, "1/s"),
        ],
        named,
        ops: samples,
        wall_s,
        clients: 2,
        root: "serve.request",
        rows: Vec::new(),
        tally,
    }
}

impl Daemon {
    /// `(ingests, dedup hits)` of the replay's store; zeros for the
    /// service, whose store is private.
    fn store_counts(&self) -> (u64, u64) {
        match self {
            Daemon::Service(_) => (0, 0),
            Daemon::Replay(r) => {
                let s = r.store.lock().expect("store lock").stats();
                (s.ingests, s.dedup_hits)
            }
        }
    }
}

/// The daemon's request path rebuilt from public calls, each in a span.
/// Responses match the service's byte for byte up to the per-request
/// `warm` flag and counter delta.
pub struct Replay {
    store: Mutex<Store>,
}

impl Replay {
    fn lock(&self, tr: &Tracer) -> MutexGuard<'_, Store> {
        tr.span("serve.store.lock_wait", || {
            self.store.lock().expect("store lock poisoned")
        })
    }

    fn resolve(&self, tr: &Tracer, params: &Json, key: &str) -> Result<Arc<Entry>, String> {
        let hex = params
            .get(key)
            .and_then(Json::as_str)
            .ok_or("missing artifact")?;
        let hash = ArtifactHash::parse(hex).ok_or("bad artifact hash")?;
        let mut store = self.lock(tr);
        tr.span("serve.store.resolve", || store.resolve(hash))
            .ok_or_else(|| format!("unknown artifact {hex}"))
    }

    fn call(&self, tr: &Tracer, line: &str) -> String {
        let (id, outcome) = match tr.span("serve.json.parse", || Json::parse(line)) {
            Ok(req) => (
                req.get("id").cloned().unwrap_or(Json::Null),
                self.dispatch(tr, &req),
            ),
            Err(e) => (Json::Null, Err(e)),
        };
        let body = match outcome {
            Ok(result) => ("result", result),
            Err(message) => (
                "error",
                Json::obj([("code", Json::Int(-32000)), ("message", Json::str(message))]),
            ),
        };
        let out = tr.span("serve.json.serialize", || {
            Json::obj([("id", id), body]).to_string()
        });
        tr.add("serve.json.bytes", (line.len() + out.len()) as f64);
        out
    }

    fn dispatch(&self, tr: &Tracer, req: &Json) -> Result<Json, String> {
        let empty = Json::Obj(Vec::new());
        let params = req.get("params").unwrap_or(&empty);
        match req.get("method").and_then(Json::as_str).unwrap_or("") {
            "classify" => {
                let entry = self.resolve(tr, params, "artifact")?;
                let warm = Store::record_query(&entry) > 0;
                let ctx = entry.analysis().ok_or("not an automaton")?;
                let before = ctx.stats_total();
                let c = tr.span("automata.analysis.classify", || {
                    ctx.classification().clone()
                });
                let delta = ctx.stats_total().delta_since(before);
                add_analysis_stats(tr, &delta);
                Ok(Json::obj([
                    ("artifact", Json::str(entry.hash.to_string())),
                    (
                        "class",
                        Json::str(HierarchyClass::from_classification(&c).to_string()),
                    ),
                    ("strictest", Json::str(c.strictest_class_name())),
                    ("borel", Json::str(c.borel_name())),
                    ("safety", Json::Bool(c.is_safety)),
                    ("guarantee", Json::Bool(c.is_guarantee)),
                    ("obligation", Json::Bool(c.is_obligation)),
                    ("recurrence", Json::Bool(c.is_recurrence)),
                    ("persistence", Json::Bool(c.is_persistence)),
                    ("simple_reactivity", Json::Bool(c.is_simple_reactivity)),
                    (
                        "obligation_index",
                        c.obligation_index
                            .map_or(Json::Null, |k| Json::Int(k as i64)),
                    ),
                    ("reactivity_index", Json::Int(c.reactivity_index as i64)),
                    ("warm", Json::Bool(warm)),
                    ("stats", stats_json(&delta)),
                ]))
            }
            "lint" => {
                let entry = self.resolve(tr, params, "artifact")?;
                let warm = Store::record_query(&entry) > 0;
                let ctx = entry.analysis().ok_or("not an automaton")?;
                let before = ctx.stats_total();
                let diagnostics = tr.span("lint.rules", || lint_automaton_ctx(ctx));
                add_analysis_stats(tr, &ctx.stats_total().delta_since(before));
                Ok(Json::obj([
                    ("artifact", Json::str(entry.hash.to_string())),
                    ("kind", Json::str(entry.kind())),
                    ("count", Json::Int(diagnostics.len() as i64)),
                    ("diagnostics", Json::Raw(report_to_json(&diagnostics))),
                    ("warm", Json::Bool(warm)),
                ]))
            }
            "include" => {
                let lhs = self.resolve(tr, params, "lhs")?;
                let rhs = self.resolve(tr, params, "rhs")?;
                Store::record_query(&lhs);
                Store::record_query(&rhs);
                let a = lhs.analysis().ok_or("lhs is not an automaton")?;
                let b = rhs.analysis().ok_or("rhs is not an automaton")?;
                let before = a.stats_total();
                let included = tr.span("automata.inclusion", || a.is_subset_of(b.automaton()));
                add_analysis_stats(tr, &a.stats_total().delta_since(before));
                let equivalent =
                    included && tr.span("automata.inclusion", || b.is_subset_of(a.automaton()));
                Ok(Json::obj([
                    ("lhs", Json::str(lhs.hash.to_string())),
                    ("rhs", Json::str(rhs.hash.to_string())),
                    ("included", Json::Bool(included)),
                    ("equivalent", Json::Bool(equivalent)),
                    ("counterexample", Json::Null),
                ]))
            }
            "ingest" => {
                let src = params
                    .get("hoa")
                    .and_then(Json::as_str)
                    .ok_or("missing hoa")?;
                let aut = tr
                    .span("automata.hoa", || hoa::hoa_to_omega(src))
                    .map_err(|e| e.to_string())?;
                let states = aut.num_states();
                let hash = tr.span("automata.canonical.hash", || {
                    canonical::structural_hash(&aut)
                });
                let mut store = self.lock(tr);
                let ingested = tr.span("serve.store.ingest", || {
                    sweep(tr, &store, hash, &aut);
                    store.ingest_automaton(aut, "hoa")
                });
                tr.add("serve.store.ingests", 1.0);
                Ok(Json::obj([
                    ("artifact", Json::str(ingested.hash.to_string())),
                    ("kind", Json::str(ingested.entry.kind())),
                    ("known", Json::Bool(ingested.known)),
                    ("states", Json::Int(states as i64)),
                    (
                        "evicted",
                        Json::Arr(
                            ingested
                                .evicted
                                .iter()
                                .map(|h| Json::str(h.to_string()))
                                .collect(),
                        ),
                    ),
                ]))
            }
            "evict" => {
                let hex = params
                    .get("artifact")
                    .and_then(Json::as_str)
                    .ok_or("missing artifact")?;
                let hash = ArtifactHash::parse(hex).ok_or("bad artifact hash")?;
                let mut store = self.lock(tr);
                let evicted = tr.span("serve.store.evict", || store.evict(hash));
                Ok(Json::obj([("evicted", Json::Bool(evicted))]))
            }
            "stats" => {
                let store = self.lock(tr);
                Ok(Json::obj([("entries", Json::Int(store.len() as i64))]))
            }
            other => Err(format!("unknown method {other:?}")),
        }
    }
}

/// The store's ingest-time equivalence sweep, replayed call for call
/// (`canonical::language_eq`: alphabet check, hash check, then the
/// equivalence oracle) so each oracle run gets a span. The store's own
/// sweep that follows answers the same questions from the inclusion memo.
fn sweep(tr: &Tracer, store: &Store, hash: ArtifactHash, aut: &OmegaAutomaton) {
    let entries = store.list();
    if entries.iter().any(|e| e.hash == hash) {
        return;
    }
    for entry in &entries {
        let Some(ctx) = entry.analysis() else {
            continue;
        };
        let equal = tr.span("automata.canonical.language_eq", || {
            if ctx.automaton().alphabet() != aut.alphabet() {
                return false;
            }
            tr.add("serve.store.sweep_oracle_calls", 1.0);
            tr.span("automata.inclusion", || ctx.equivalent(aut))
        });
        if equal {
            return;
        }
    }
}

fn stats_json(s: &AnalysisStats) -> Json {
    Json::obj([
        ("scc_passes", Json::Int(s.scc_passes as i64)),
        ("scc_state_visits", Json::Int(s.scc_state_visits as i64)),
        ("scc_hits", Json::Int(s.scc_hits as i64)),
        ("products_built", Json::Int(s.products_built as i64)),
        ("product_hits", Json::Int(s.product_hits as i64)),
        ("inclusion_checks", Json::Int(s.inclusion_checks as i64)),
        ("inclusion_hits", Json::Int(s.inclusion_hits as i64)),
    ])
}
