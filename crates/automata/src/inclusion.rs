//! Direct polynomial-time inclusion and equivalence for deterministic
//! ω-acceptors (Angluin & Fisman, arXiv:2002.03191).
//!
//! The classical oracle used everywhere in this workspace decides
//! `L(A) ⊆ L(B)` by building the complement of `B`, the product
//! `A × ¬B`, and running the generic emptiness check — which converts
//! the combined acceptance `acc_A ∧ ¬acc_B` to DNF, an operation
//! exponential in the number of conjuncts (a `k`-pair Streett condition
//! on the left multiplies out to `2^k` generalized Rabin disjuncts).
//! This module decides the same question *directly on the product
//! graph*, without ever materializing a complement automaton or a DNF:
//!
//! * **Parity fast path** — when both acceptance conditions admit a
//!   same-structure [`ParityView`] (Büchi, co-Büchi, one-pair Streett,
//!   one-pair Rabin, and any parity-shaped `Inf/Fin` chain), inclusion
//!   fails iff for some even priority `pa` of `A` and odd priority `pb`
//!   of `B` the product restricted to `{(q, r) : π_A(q) ≥ pa ∧ π_B(r) ≥
//!   pb}` has an SCC with a cycle containing both a `pa`-state and a
//!   `pb`-state. That is the literal Angluin–Fisman argument:
//!   `O(d_A · d_B)` plain SCC passes over the product.
//! * **Rabin-decomposition path** — any other boolean condition is
//!   decomposed into a *disjunction* of [`RabinDisjunct`]s (an avoid-set
//!   plus a list of Streett-style cycle constraints), crucially keeping
//!   each Streett pair `Inf(R) ∨ Fin(S)` as one pair instead of
//!   distributing it. For every pair of disjuncts of `acc_A` and
//!   `¬acc_B`, a counterexample cycle is sought by the classical
//!   iterated-SCC Streett refinement on the product graph — polynomial
//!   in the pair count. A `k_A`-pair Streett `A` against a `k_B`-pair
//!   Streett `B` costs `k_B` refinements instead of `2^{k_A} · k_B`
//!   Tarjan passes. Conditions whose decomposition genuinely needs
//!   distribution (nested `And` of non-pair `Or`s) degrade to the same
//!   disjunct count the DNF would have — never worse than the old path.
//!
//! On failure a counterexample [`Lasso`] is extracted by touring the
//! witness region of the product, so
//! [`OmegaAutomaton::distinguishing_lasso`] keeps producing concrete
//! separating words. `OmegaAutomaton::{is_subset_of, equivalent}` and
//! `Analysis::{is_subset_of, equivalent}` route through this module by
//! default, with the old complement+product construction preserved as
//! `*_via_complement` and cross-checked by a debug-mode differential
//! tripwire on every query (see DESIGN.md §11).

use crate::acceptance::Acceptance;
use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::emptiness::streett_refinement;
use crate::flat::FlatGraph;
use crate::lasso::Lasso;
use crate::omega::OmegaAutomaton;
use crate::scc::tarjan_scc;
use crate::StateId;
use std::collections::{HashMap, VecDeque};

/// A per-state min-even parity priority assignment equivalent to a
/// boolean acceptance condition on the *same* transition structure: a
/// run is accepting iff the minimal priority among the states it visits
/// infinitely often is even.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityView {
    priorities: Vec<u32>,
}

impl ParityView {
    /// Tries to express `acc` (over `num_states` states) as a
    /// same-structure min-even parity assignment. Succeeds for `True`,
    /// `False`, Büchi `Inf(R)`, co-Büchi `Fin(S)`, one-pair Streett
    /// `Inf(R) ∨ Fin(S)`, one-pair Rabin `Inf(F) ∧ Fin(E)`, and any
    /// `Inf/Fin` chain of that shape (an `Or` with an `Inf` atom child,
    /// an `And` with a `Fin` atom child, recursively). Returns `None`
    /// for conditions with no same-structure parity view (multi-pair
    /// Streett or Rabin, generalized Büchi, …), which fall back to the
    /// Rabin-decomposition path of [`included`].
    pub fn try_of(acc: &Acceptance, num_states: usize) -> Option<ParityView> {
        Some(ParityView {
            priorities: priorities_of(acc, num_states)?,
        })
    }

    /// The priority of state `q`.
    pub fn priority(&self, q: StateId) -> u32 {
        self.priorities[q as usize]
    }

    /// The largest priority in use.
    pub fn max_priority(&self) -> u32 {
        self.priorities.iter().copied().max().unwrap_or(0)
    }

    /// Evaluates the parity condition on an infinity set: accepting iff
    /// the minimal priority over the set is even. (The empty set never
    /// arises as the infinity set of a real run; it is rejected.)
    pub fn accepts_infinity_set(&self, inf: &BitSet) -> bool {
        inf.iter()
            .map(|q| self.priorities[q])
            .min()
            .is_some_and(|p| p % 2 == 0)
    }
}

/// The recursive priority construction behind [`ParityView::try_of`].
///
/// Soundness of the two composite rules, for any cycle `C`:
/// `Or[Inf(R), rest]` with `R ↦ 0` and `q ↦ sub(q) + 2` elsewhere — if
/// `C ∩ R ≠ ∅` the minimum is `0` (accept, as `Inf(R)` holds);
/// otherwise every priority is a shifted `rest` priority, so the
/// verdict is `rest`'s. Dually for `And[Fin(S), rest]` with `S ↦ 1`.
fn priorities_of(acc: &Acceptance, n: usize) -> Option<Vec<u32>> {
    match acc {
        Acceptance::True => Some(vec![0; n]),
        Acceptance::False => Some(vec![1; n]),
        Acceptance::Inf(r) => Some((0..n).map(|q| u32::from(!r.contains(q))).collect()),
        Acceptance::Fin(s) => Some((0..n).map(|q| if s.contains(q) { 1 } else { 2 }).collect()),
        Acceptance::Or(xs) => {
            if xs.is_empty() {
                return Some(vec![1; n]); // empty disjunction = False
            }
            if xs.len() == 1 {
                return priorities_of(&xs[0], n);
            }
            let i = xs.iter().position(|x| matches!(x, Acceptance::Inf(_)))?;
            let Acceptance::Inf(r) = &xs[i] else {
                unreachable!("position matched an Inf atom")
            };
            let rest: Vec<Acceptance> = xs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let sub = priorities_of(&Acceptance::Or(rest), n)?;
            Some(
                (0..n)
                    .map(|q| if r.contains(q) { 0 } else { sub[q] + 2 })
                    .collect(),
            )
        }
        Acceptance::And(xs) => {
            if xs.is_empty() {
                return Some(vec![0; n]); // empty conjunction = True
            }
            if xs.len() == 1 {
                return priorities_of(&xs[0], n);
            }
            let i = xs.iter().position(|x| matches!(x, Acceptance::Fin(_)))?;
            let Acceptance::Fin(s) = &xs[i] else {
                unreachable!("position matched a Fin atom")
            };
            let rest: Vec<Acceptance> = xs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let sub = priorities_of(&Acceptance::And(rest), n)?;
            Some(
                (0..n)
                    .map(|q| if s.contains(q) { 1 } else { sub[q] + 2 })
                    .collect(),
            )
        }
    }
}

/// One cycle constraint of a [`RabinDisjunct`]: a cycle `C` satisfies
/// the pair iff `C ∩ hit ≠ ∅` or `C ∩ bad = ∅`. This is a Streett pair
/// `(R, P)` with `hit = R` and `bad = Q ∖ P`, phrased so no set
/// complements are needed when lifting into a product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePair {
    /// The "recurrent" side: intersecting this set satisfies the pair.
    pub hit: BitSet,
    /// The "forbidden" side: a cycle missing `hit` must avoid this set.
    pub bad: BitSet,
}

/// One disjunct of the cycle-level decomposition of an acceptance
/// condition: a cycle `C` satisfies the disjunct iff `C ∩ avoid = ∅`
/// and every [`CyclePair`] holds. Unlike the generalized-Rabin DNF of
/// [`Acceptance::dnf`], Streett pairs are *not* distributed — a `k`-pair
/// Streett condition stays a single disjunct with `k` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RabinDisjunct {
    /// States the cycle must not touch at all.
    pub avoid: BitSet,
    /// Streett-style constraints the cycle must satisfy.
    pub pairs: Vec<CyclePair>,
}

impl RabinDisjunct {
    fn trivial() -> RabinDisjunct {
        RabinDisjunct {
            avoid: BitSet::new(),
            pairs: Vec::new(),
        }
    }

    /// Conjunction of two disjuncts.
    fn merge(&mut self, other: &RabinDisjunct) {
        self.avoid.union_with(&other.avoid);
        self.pairs.extend(other.pairs.iter().cloned());
    }

    /// Whether a (non-empty) cycle satisfies this disjunct.
    pub fn accepts_cycle(&self, cycle: &BitSet) -> bool {
        cycle.is_disjoint(&self.avoid)
            && self
                .pairs
                .iter()
                .all(|p| cycle.intersects(&p.hit) || cycle.is_disjoint(&p.bad))
    }
}

/// Recognizes an `Or` of `Inf`/`Fin` atoms with at most one `Fin` as a
/// single [`CyclePair`]: `Inf(R₁) ∨ … ∨ Inf(Rₘ) ∨ Fin(S)` becomes
/// `(hit = ⋃ Rᵢ, bad = S)`. With no `Fin` child the pair has no escape
/// — `bad` is the full state set `Q`, so a (non-empty) cycle satisfies
/// it only by hitting `⋃ Rᵢ`. This is what keeps Streett conditions
/// from being distributed.
fn or_as_cycle_pair(xs: &[Acceptance], n: usize) -> Option<CyclePair> {
    let mut hit = BitSet::new();
    let mut bad: Option<BitSet> = None;
    for x in xs {
        match x {
            Acceptance::Inf(r) => hit.union_with(r),
            Acceptance::Fin(s) => {
                if bad.is_some() {
                    return None; // Fin(S₁) ∨ Fin(S₂) is not one pair
                }
                bad = Some(s.clone());
            }
            _ => return None,
        }
    }
    Some(CyclePair {
        hit,
        bad: bad.unwrap_or_else(|| BitSet::all(n)),
    })
}

/// Decomposes an acceptance condition over `n` states into a
/// disjunction of [`RabinDisjunct`]s: a non-empty cycle satisfies `acc`
/// iff it satisfies some disjunct. Streett-pair-shaped `Or`s are kept
/// as single [`CyclePair`]s, so Streett conditions produce *one*
/// disjunct and Rabin conditions one per pair; only genuinely non-pair
/// `Or`s under an `And` distribute (matching the DNF disjunct count
/// there — the decomposition is never larger than the DNF).
pub fn decompose(acc: &Acceptance, n: usize) -> Vec<RabinDisjunct> {
    match acc {
        Acceptance::True => vec![RabinDisjunct::trivial()],
        Acceptance::False => vec![],
        Acceptance::Inf(r) => vec![RabinDisjunct {
            avoid: BitSet::new(),
            pairs: vec![CyclePair {
                hit: r.clone(),
                bad: BitSet::all(n),
            }],
        }],
        Acceptance::Fin(s) => vec![RabinDisjunct {
            avoid: s.clone(),
            pairs: Vec::new(),
        }],
        Acceptance::Or(xs) => {
            if xs.is_empty() {
                return vec![]; // empty disjunction = False
            }
            if let Some(pair) = or_as_cycle_pair(xs, n) {
                return vec![RabinDisjunct {
                    avoid: BitSet::new(),
                    pairs: vec![pair],
                }];
            }
            xs.iter().flat_map(|x| decompose(x, n)).collect()
        }
        Acceptance::And(xs) => {
            let mut out = vec![RabinDisjunct::trivial()];
            for x in xs {
                let d = decompose(x, n);
                match d.len() {
                    0 => return vec![], // a False conjunct sinks everything
                    1 => {
                        for a in &mut out {
                            a.merge(&d[0]);
                        }
                    }
                    _ => {
                        let mut next = Vec::with_capacity(out.len() * d.len());
                        for a in &out {
                            for b in &d {
                                let mut m = a.clone();
                                m.merge(b);
                                next.push(m);
                            }
                        }
                        out = next;
                    }
                }
            }
            out
        }
    }
}

/// The reachable product of two deterministic automata over one
/// alphabet: pair states, a flat `delta[id·k + s]` table, and the
/// deduplicated CSR successor graph every SCC pass below walks.
struct Product {
    k: usize,
    /// `pairs[id] = (a_state, b_state)`; id `0` is the initial pair.
    pairs: Vec<(StateId, StateId)>,
    delta: Vec<StateId>,
    graph: FlatGraph,
}

impl Product {
    fn build(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Product {
        assert_eq!(
            a.alphabet(),
            b.alphabet(),
            "inclusion requires identical alphabets"
        );
        let k = a.alphabet().len();
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut pairs: Vec<(StateId, StateId)> = Vec::new();
        let mut delta: Vec<StateId> = Vec::new();
        let start = (a.initial(), b.initial());
        index.insert(start, 0);
        pairs.push(start);
        let mut frontier = 0usize;
        while frontier < pairs.len() {
            let (p, q) = pairs[frontier];
            for s in 0..k {
                let sym = Symbol(s as u8);
                let succ = (a.step(p, sym), b.step(q, sym));
                let id = *index.entry(succ).or_insert_with(|| {
                    pairs.push(succ);
                    (pairs.len() - 1) as StateId
                });
                delta.push(id);
            }
            frontier += 1;
        }
        let graph = FlatGraph::from_delta(pairs.len(), k, &delta);
        Product {
            k,
            pairs,
            delta,
            graph,
        }
    }

    fn num_states(&self) -> usize {
        self.pairs.len()
    }

    fn step(&self, id: StateId, s: usize) -> StateId {
        self.delta[id as usize * self.k + s]
    }

    /// Lifts an `A`-side state set to the product states whose first
    /// component lies in it.
    fn lift_left(&self, set: &BitSet) -> BitSet {
        let mut out = BitSet::with_capacity(self.pairs.len());
        for (id, &(p, _)) in self.pairs.iter().enumerate() {
            if set.contains(p as usize) {
                out.insert(id);
            }
        }
        out
    }

    /// Lifts a `B`-side state set to the product states whose second
    /// component lies in it.
    fn lift_right(&self, set: &BitSet) -> BitSet {
        let mut out = BitSet::with_capacity(self.pairs.len());
        for (id, &(_, q)) in self.pairs.iter().enumerate() {
            if set.contains(q as usize) {
                out.insert(id);
            }
        }
        out
    }
}

/// Which side of the product must accept while the other rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// A word in `L(A) ∖ L(B)`.
    Left,
    /// A word in `L(B) ∖ L(A)`.
    Right,
}

/// A counterexample *region*: a strongly connected, cycle-supporting
/// set of product states whose full tour is accepted by the `side`
/// automaton and rejected by the other. `None` means inclusion holds.
fn counterexample_region(
    product: &Product,
    a: &OmegaAutomaton,
    b: &OmegaAutomaton,
    side: Side,
) -> Option<BitSet> {
    let (pos, neg) = match side {
        Side::Left => (a, b),
        Side::Right => (b, a),
    };
    // Parity fast path: both sides parity-expressible on their own
    // structure — the literal Angluin–Fisman priority enumeration.
    if let (Some(va), Some(vb)) = (
        ParityView::try_of(pos.acceptance(), pos.num_states()),
        ParityView::try_of(neg.acceptance(), neg.num_states()),
    ) {
        return parity_region(product, &va, &vb, side);
    }
    // General path: Rabin decomposition of "pos accepts" and "neg
    // rejects", each combination checked by Streett refinement.
    let lift_pos = |s: &BitSet| match side {
        Side::Left => product.lift_left(s),
        Side::Right => product.lift_right(s),
    };
    let lift_neg = |s: &BitSet| match side {
        Side::Left => product.lift_right(s),
        Side::Right => product.lift_left(s),
    };
    let all = BitSet::all(product.num_states());
    for da in decompose(pos.acceptance(), pos.num_states()) {
        for db in decompose(&neg.acceptance().negated(), neg.num_states()) {
            let mut allowed = all.clone();
            allowed.difference_with(&lift_pos(&da.avoid));
            allowed.difference_with(&lift_neg(&db.avoid));
            if allowed.is_empty() {
                continue;
            }
            let mut pairs: Vec<CyclePair> = da
                .pairs
                .iter()
                .map(|p| CyclePair {
                    hit: lift_pos(&p.hit),
                    bad: lift_pos(&p.bad),
                })
                .collect();
            pairs.extend(db.pairs.iter().map(|p| CyclePair {
                hit: lift_neg(&p.hit),
                bad: lift_neg(&p.bad),
            }));
            if let Some(region) = streett_refinement(&product.graph, &allowed, &pairs) {
                return Some(region);
            }
        }
    }
    None
}

/// The parity × parity product argument: enumerate an even priority of
/// the accepting side and an odd priority of the rejecting side,
/// restrict the product to states at least that high on both, and look
/// for an SCC whose cycle realizes both minima exactly.
fn parity_region(
    product: &Product,
    view_pos: &ParityView,
    view_neg: &ParityView,
    side: Side,
) -> Option<BitSet> {
    let n = product.num_states();
    // Per-product-state priorities of the accepting and rejecting side.
    let component = |id: usize| -> (StateId, StateId) {
        let (p, q) = product.pairs[id];
        match side {
            Side::Left => (p, q),
            Side::Right => (q, p),
        }
    };
    let prio_pos: Vec<u32> = (0..n)
        .map(|id| view_pos.priority(component(id).0))
        .collect();
    let prio_neg: Vec<u32> = (0..n)
        .map(|id| view_neg.priority(component(id).1))
        .collect();
    for pa in (0..=view_pos.max_priority()).filter(|p| p % 2 == 0) {
        for pb in (0..=view_neg.max_priority()).filter(|p| p % 2 == 1) {
            let allowed: BitSet = (0..n)
                .filter(|&id| prio_pos[id] >= pa && prio_neg[id] >= pb)
                .collect();
            if allowed.is_empty() {
                continue;
            }
            let sccs = tarjan_scc(&product.graph, Some(&allowed));
            for c in 0..sccs.len() {
                if !sccs.has_cycle[c] {
                    continue;
                }
                let hits_pa = sccs.members[c].iter().any(|&q| prio_pos[q as usize] == pa);
                let hits_pb = sccs.members[c].iter().any(|&q| prio_neg[q as usize] == pb);
                if hits_pa && hits_pb {
                    // Touring the whole SCC realizes min priority `pa`
                    // (even → accepted) on one side and `pb` (odd →
                    // rejected) on the other.
                    return Some(sccs.member_set(c));
                }
            }
        }
    }
    None
}

/// Shortest symbol path in the product from `from` into `targets`,
/// restricted to `within` when given (the start may be outside).
fn product_path(
    product: &Product,
    from: StateId,
    targets: &BitSet,
    within: Option<&BitSet>,
) -> Option<Vec<Symbol>> {
    if targets.contains(from as usize) {
        return Some(Vec::new());
    }
    let n = product.num_states();
    let mut prev: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut seen = BitSet::with_capacity(n);
    seen.insert(from as usize);
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(q) = queue.pop_front() {
        for s in 0..product.k {
            let t = product.step(q, s);
            if let Some(w) = within {
                if !w.contains(t as usize) {
                    continue;
                }
            }
            if seen.insert(t as usize) {
                prev[t as usize] = Some((q, Symbol(s as u8)));
                if targets.contains(t as usize) {
                    let mut path = Vec::new();
                    let mut cur = t;
                    while cur != from {
                        let (p, sym) = prev[cur as usize].expect("BFS predecessor exists");
                        path.push(sym);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(t);
            }
        }
    }
    None
}

/// Builds a lasso whose product run has infinity set exactly `region`:
/// BFS spoke from the initial product state to an anchor, then a cycle
/// touring *every* region state and returning to the anchor.
fn region_lasso(product: &Product, region: &BitSet) -> Lasso {
    let anchor = region.first().expect("witness region is non-empty") as StateId;
    let spoke = product_path(product, 0, &BitSet::from_iter([anchor as usize]), None)
        .expect("witness region is reachable");
    let mut cycle: Vec<Symbol> = Vec::new();
    let mut at = anchor;
    for target in region.iter() {
        let leg = product_path(product, at, &BitSet::from_iter([target]), Some(region))
            .expect("witness region is strongly connected");
        for &sym in &leg {
            at = product.step(at, sym.index());
        }
        cycle.extend(leg);
    }
    let back = product_path(
        product,
        at,
        &BitSet::from_iter([anchor as usize]),
        Some(region),
    )
    .expect("witness region is strongly connected");
    cycle.extend(back);
    if cycle.is_empty() {
        // Single-state region: use its self-loop symbol.
        let sym = (0..product.k)
            .map(|s| Symbol(s as u8))
            .find(|&s| product.step(anchor, s.index()) == anchor)
            .expect("single-state witness region has a self-loop");
        cycle.push(sym);
    }
    Lasso::new(spoke, cycle)
}

/// Whether `L(a) ⊆ L(b)`, decided directly on the product graph.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn included(a: &OmegaAutomaton, b: &OmegaAutomaton) -> bool {
    let product = Product::build(a, b);
    counterexample_region(&product, a, b, Side::Left).is_none()
}

/// A lasso in `L(a) ∖ L(b)`, or `None` when `L(a) ⊆ L(b)`.
pub fn inclusion_counterexample(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Option<Lasso> {
    let product = Product::build(a, b);
    let region = counterexample_region(&product, a, b, Side::Left)?;
    let lasso = region_lasso(&product, &region);
    debug_assert!(
        a.accepts(&lasso) && !b.accepts(&lasso),
        "inclusion counterexample must separate the languages"
    );
    Some(lasso)
}

/// Whether `L(a) = L(b)`. Both directions share one product graph —
/// the transition structure is direction-independent; only the lifted
/// acceptance constraints differ.
pub fn equivalent(a: &OmegaAutomaton, b: &OmegaAutomaton) -> bool {
    let product = Product::build(a, b);
    counterexample_region(&product, a, b, Side::Left).is_none()
        && counterexample_region(&product, a, b, Side::Right).is_none()
}

/// A lasso accepted by exactly one of the two automata, or `None` when
/// the languages are equal. Shares one product graph across both
/// directions.
pub fn distinguishing_lasso(a: &OmegaAutomaton, b: &OmegaAutomaton) -> Option<Lasso> {
    let product = Product::build(a, b);
    let region = counterexample_region(&product, a, b, Side::Left)
        .or_else(|| counterexample_region(&product, a, b, Side::Right))?;
    let lasso = region_lasso(&product, &region);
    debug_assert!(
        a.accepts(&lasso) != b.accepts(&lasso),
        "distinguishing lasso must separate the languages"
    );
    Some(lasso)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::random::rng::{Rng, SeedableRng, StdRng};
    use crate::random::{random_streett, random_structure};
    use crate::streett::{rabin, StreettPair};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn last_sym(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    /// Evaluates a decomposition on an infinity set.
    fn decomposition_accepts(d: &[RabinDisjunct], inf: &BitSet) -> bool {
        d.iter().any(|x| x.accepts_cycle(inf))
    }

    /// A random boolean acceptance condition over `n` states.
    fn random_acceptance(rng: &mut StdRng, n: usize, depth: usize) -> Acceptance {
        let set = |rng: &mut StdRng| -> BitSet { (0..n).filter(|_| rng.gen_bool(0.4)).collect() };
        if depth == 0 {
            return if rng.gen_bool(0.5) {
                Acceptance::Inf(set(rng))
            } else {
                Acceptance::Fin(set(rng))
            };
        }
        match rng.gen_range(0..4usize) {
            0 => Acceptance::Inf(set(rng)),
            1 => Acceptance::Fin(set(rng)),
            2 => random_acceptance(rng, n, depth - 1).and(random_acceptance(rng, n, depth - 1)),
            _ => random_acceptance(rng, n, depth - 1).or(random_acceptance(rng, n, depth - 1)),
        }
    }

    #[test]
    fn parity_view_of_named_shapes() {
        let n = 4;
        // Büchi, co-Büchi, one-pair Streett, one-pair Rabin.
        let cases = [
            Acceptance::inf([1, 2]),
            Acceptance::fin([0]),
            StreettPair::new([1], [0, 2]).acceptance(n),
            rabin(&[(BitSet::from_iter([0]), BitSet::from_iter([2, 3]))]),
            Acceptance::True,
            Acceptance::False,
        ];
        for acc in cases {
            let view = ParityView::try_of(&acc, n)
                .unwrap_or_else(|| panic!("{acc} should have a parity view"));
            for bits in 1u8..16 {
                let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    view.accepts_infinity_set(&inf),
                    acc.accepts_infinity_set(&inf),
                    "parity view of {acc} disagrees on {inf:?}"
                );
            }
        }
    }

    #[test]
    fn multi_pair_streett_has_no_parity_view() {
        let n = 4;
        let pairs = [
            StreettPair::new([1], [0]).acceptance(n),
            StreettPair::new([2], [3]).acceptance(n),
        ];
        let acc = pairs[0].clone().and(pairs[1].clone());
        assert!(ParityView::try_of(&acc, n).is_none());
        // Generalized Büchi likewise.
        let gb = Acceptance::inf([0]).and(Acceptance::inf([1]));
        assert!(ParityView::try_of(&gb, n).is_none());
    }

    #[test]
    fn parity_views_agree_wherever_they_exist() {
        let mut rng = StdRng::seed_from_u64(2002);
        let n = 5;
        let mut found = 0;
        for _ in 0..300 {
            let acc = random_acceptance(&mut rng, n, 2);
            if let Some(view) = ParityView::try_of(&acc, n) {
                found += 1;
                for bits in 1u8..32 {
                    let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                    assert_eq!(
                        view.accepts_infinity_set(&inf),
                        acc.accepts_infinity_set(&inf),
                        "parity view of {acc} disagrees on {inf:?}"
                    );
                }
            }
        }
        assert!(found > 20, "the sweep should exercise the parity rules");
    }

    #[test]
    fn decomposition_agrees_with_direct_eval() {
        let mut rng = StdRng::seed_from_u64(3191);
        let n = 5;
        for _ in 0..200 {
            let acc = random_acceptance(&mut rng, n, 2);
            let d = decompose(&acc, n);
            for bits in 1u8..32 {
                let inf: BitSet = (0..n).filter(|i| bits & (1 << i) != 0).collect();
                assert_eq!(
                    decomposition_accepts(&d, &inf),
                    acc.accepts_infinity_set(&inf),
                    "decomposition of {acc} disagrees on {inf:?}"
                );
            }
        }
    }

    #[test]
    fn streett_decomposition_stays_single_disjunct() {
        let mut rng = StdRng::seed_from_u64(7);
        let sigma = ab();
        let (aut, pairs) = random_streett(&mut rng, &sigma, 6, 4, 0.4);
        let d = decompose(aut.acceptance(), 6);
        assert_eq!(
            d.len(),
            1,
            "a Streett condition must not distribute (got {} disjuncts)",
            d.len()
        );
        assert_eq!(d[0].pairs.len(), pairs.len());
        // …while its negation (a Rabin condition) is one disjunct per pair.
        let neg = decompose(&aut.acceptance().negated(), 6);
        assert_eq!(neg.len(), pairs.len());
    }

    #[test]
    fn basic_inclusions() {
        let sigma = ab();
        let inf_b = last_sym(&sigma, Acceptance::inf([1]));
        let ev_alw_a = last_sym(&sigma, Acceptance::fin([1]));
        assert!(!included(&inf_b, &ev_alw_a));
        assert!(!included(&ev_alw_a, &inf_b));
        assert!(included(&inf_b, &inf_b));
        assert!(included(&OmegaAutomaton::empty(&sigma), &inf_b));
        assert!(included(&inf_b, &OmegaAutomaton::universal(&sigma)));
        assert!(!included(&OmegaAutomaton::universal(&sigma), &inf_b));
        assert!(equivalent(&inf_b, &inf_b));
        assert!(!equivalent(&inf_b, &ev_alw_a));
    }

    #[test]
    fn counterexamples_separate() {
        let sigma = ab();
        let inf_b = last_sym(&sigma, Acceptance::inf([1]));
        let ev_alw_a = last_sym(&sigma, Acceptance::fin([1]));
        let w = inclusion_counterexample(&inf_b, &ev_alw_a).unwrap();
        assert!(inf_b.accepts(&w) && !ev_alw_a.accepts(&w));
        assert!(inclusion_counterexample(&inf_b, &inf_b).is_none());
        let d = distinguishing_lasso(&inf_b, &ev_alw_a).unwrap();
        assert_ne!(inf_b.accepts(&d), ev_alw_a.accepts(&d));
        assert!(distinguishing_lasso(&ev_alw_a, &ev_alw_a.clone()).is_none());
    }

    #[test]
    fn agrees_with_the_complement_oracle_on_random_automata() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(314);
        let mut prev: Option<OmegaAutomaton> = None;
        for i in 0..60u64 {
            let k = [1usize, 2, 3][(i % 3) as usize];
            let (aut, _) = random_streett(&mut rng, &sigma, 6, k, 0.4);
            if let Some(other) = prev {
                assert_eq!(
                    included(&aut, &other),
                    aut.is_subset_of_via_complement(&other),
                    "case {i}: inclusion verdict diverged"
                );
                assert_eq!(
                    equivalent(&aut, &other),
                    aut.equivalent_via_complement(&other),
                    "case {i}: equivalence verdict diverged"
                );
                if let Some(w) = inclusion_counterexample(&aut, &other) {
                    assert!(aut.accepts(&w) && !other.accepts(&w), "case {i}");
                }
            }
            prev = Some(aut);
        }
    }

    #[test]
    fn random_acceptance_pairs_agree_with_the_complement_oracle() {
        // Beyond Streett: arbitrary boolean conditions on both sides,
        // exercising the decomposition path (and mixed parity shapes).
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(2718);
        for i in 0..40u64 {
            let left = random_structure(&mut rng, &sigma, 5)
                .with_acceptance(random_acceptance(&mut rng, 5, 2));
            let right = random_structure(&mut rng, &sigma, 5)
                .with_acceptance(random_acceptance(&mut rng, 5, 2));
            assert_eq!(
                included(&left, &right),
                left.is_subset_of_via_complement(&right),
                "case {i}: inclusion verdict diverged"
            );
            if let Some(w) = distinguishing_lasso(&left, &right) {
                assert_ne!(left.accepts(&w), right.accepts(&w), "case {i}");
            } else {
                assert!(left.equivalent_via_complement(&right), "case {i}");
            }
        }
    }
}
