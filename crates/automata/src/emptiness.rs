//! Emptiness checking and witness extraction for deterministic ω-automata.
//!
//! Two procedures are provided:
//!
//! * [`accepted_lasso`] / [`live_states`] — generic, for any boolean
//!   acceptance condition, through the DNF into generalized Rabin pairs
//!   (polynomial per disjunct; the number of disjuncts is exponential in the
//!   number of *atoms*, which is small in practice).
//! * [`streett_nonempty_cycle`] — the classical iterated-SCC-refinement
//!   algorithm for Streett conditions, polynomial even in the number of
//!   pairs. Its refinement loop, `streett_refinement`, is also the
//!   general path of the direct inclusion oracle in [`crate::inclusion`].
//!
//! The free functions flatten the automaton once per call and run every
//! SCC pass of that call on the flat graph; the memoized versions live on
//! [`crate::analysis::Analysis`].

use crate::acceptance::GeneralizedRabinPair;
use crate::alphabet::Symbol;
use crate::bitset::BitSet;
use crate::flat::{FlatAutomaton, FlatGraph};
use crate::inclusion::CyclePair;
use crate::lasso::Lasso;
use crate::omega::OmegaAutomaton;
use crate::scc::tarjan_scc;
use crate::streett::StreettPairs;
use crate::StateId;
use std::collections::VecDeque;

/// Returns a lasso accepted by the automaton, or `None` if its language is
/// empty.
pub fn accepted_lasso(aut: &OmegaAutomaton) -> Option<Lasso> {
    let reachable = aut.reachable_states();
    let flat = FlatAutomaton::of(aut);
    for pair in aut.acceptance().dnf() {
        // Work in the restriction avoiding the Fin states.
        let mut allowed = reachable.clone();
        allowed.difference_with(&pair.fin);
        let sccs = tarjan_scc(flat.graph(), Some(&allowed));
        for c in 0..sccs.len() {
            if !sccs.has_cycle[c] {
                continue;
            }
            let members = sccs.member_set(c);
            if pair.infs.iter().all(|s| members.intersects(s)) {
                return Some(build_witness(aut, &members, &pair));
            }
        }
    }
    None
}

/// States with a non-empty residual language: a run starting anywhere in
/// this set can still be extended to an accepting run. For a deterministic
/// complete automaton, the words leading from the initial state into this
/// set are exactly `Pref(Π)`.
pub fn live_states(aut: &OmegaAutomaton) -> BitSet {
    // Union of all "good" SCCs over all DNF disjuncts…
    let mut good = BitSet::with_capacity(aut.num_states());
    let flat = FlatAutomaton::of(aut);
    for pair in aut.acceptance().dnf() {
        let allowed = pair.fin.complement(aut.num_states());
        let sccs = tarjan_scc(flat.graph(), Some(&allowed));
        for c in 0..sccs.len() {
            if !sccs.has_cycle[c] {
                continue;
            }
            let members = sccs.member_set(c);
            if pair.infs.iter().all(|s| members.intersects(s)) {
                good.union_with(&members);
            }
        }
    }
    // …then everything that can reach a good SCC.
    backward_closure(aut, good)
}

/// The set of states from which `targets` is reachable (including the
/// targets themselves).
pub fn backward_closure(aut: &OmegaAutomaton, targets: BitSet) -> BitSet {
    let n = aut.num_states();
    let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for q in 0..n as StateId {
        for sym in aut.alphabet().symbols() {
            preds[aut.step(q, sym) as usize].push(q);
        }
    }
    let mut closed = targets;
    let mut queue: VecDeque<usize> = closed.iter().collect();
    while let Some(q) = queue.pop_front() {
        for &p in &preds[q] {
            if closed.insert(p as usize) {
                queue.push_back(p as usize);
            }
        }
    }
    closed
}

/// Builds an accepted lasso whose loop lives inside `scc` (which avoids
/// `pair.fin` and intersects every `pair.infs` set). Shared with the
/// cached path in [`crate::analysis::Analysis::accepted_lasso`].
pub(crate) fn build_witness(
    aut: &OmegaAutomaton,
    scc: &BitSet,
    pair: &GeneralizedRabinPair,
) -> Lasso {
    let anchor = scc.first().expect("SCC is non-empty") as StateId;
    let spoke = shortest_path(aut, aut.initial(), anchor, None)
        .expect("SCC was reachable from the initial state");
    // Tour: from the anchor, visit one state of every inf set, then return.
    let mut cycle: Vec<Symbol> = Vec::new();
    let mut at = anchor;
    for inf in &pair.infs {
        let target = inf
            .intersection(scc)
            .first()
            .expect("SCC intersects every inf set") as StateId;
        let leg = shortest_path_to_set(aut, at, &BitSet::from_iter([target as usize]), Some(scc))
            .expect("SCC is strongly connected");
        at = run_from(aut, at, &leg);
        cycle.extend(leg);
    }
    let back = shortest_path_to_set(aut, at, &BitSet::from_iter([anchor as usize]), Some(scc))
        .expect("SCC is strongly connected");
    cycle.extend(back);
    if cycle.is_empty() {
        // Tour never left the anchor: use any edge within the SCC.
        let sym = aut
            .alphabet()
            .symbols()
            .find(|&s| scc.contains(aut.step(anchor, s) as usize))
            .expect("SCC has an internal cycle");
        let next = aut.step(anchor, sym);
        cycle.push(sym);
        let back =
            shortest_path_to_set(aut, next, &BitSet::from_iter([anchor as usize]), Some(scc))
                .expect("SCC is strongly connected");
        cycle.extend(back);
    }
    Lasso::new(spoke, cycle)
}

fn run_from(aut: &OmegaAutomaton, from: StateId, word: &[Symbol]) -> StateId {
    word.iter().fold(from, |q, &sym| aut.step(q, sym))
}

/// Shortest symbol path from `from` to `to`, staying within `within` if
/// given (the start state may be outside).
pub fn shortest_path(
    aut: &OmegaAutomaton,
    from: StateId,
    to: StateId,
    within: Option<&BitSet>,
) -> Option<Vec<Symbol>> {
    shortest_path_to_set(aut, from, &BitSet::from_iter([to as usize]), within)
}

/// Shortest symbol path from `from` into `targets` (empty if already there),
/// with intermediate states restricted to `within` if given.
pub fn shortest_path_to_set(
    aut: &OmegaAutomaton,
    from: StateId,
    targets: &BitSet,
    within: Option<&BitSet>,
) -> Option<Vec<Symbol>> {
    if targets.contains(from as usize) {
        return Some(Vec::new());
    }
    let n = aut.num_states();
    let mut prev: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut seen = BitSet::with_capacity(n);
    seen.insert(from as usize);
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(q) = queue.pop_front() {
        for sym in aut.alphabet().symbols() {
            let t = aut.step(q, sym);
            if let Some(w) = within {
                if !w.contains(t as usize) {
                    continue;
                }
            }
            if seen.insert(t as usize) {
                prev[t as usize] = Some((q, sym));
                if targets.contains(t as usize) {
                    let mut path = Vec::new();
                    let mut cur = t;
                    while cur != from {
                        let (p, s) = prev[cur as usize].expect("BFS predecessor exists");
                        path.push(s);
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

/// Finds a reachable cycle (as a set of states) satisfying all Streett
/// pairs, using iterated SCC refinement — polynomial in both the automaton
/// size and the number of pairs. Returns `None` if the Streett language of
/// the transition structure is empty.
///
/// The acceptance carried by `aut` itself is ignored; only its transition
/// structure is used.
pub fn streett_nonempty_cycle(aut: &OmegaAutomaton, pairs: &StreettPairs) -> Option<BitSet> {
    let n = aut.num_states();
    // The pair (R, P) holds on a cycle iff it meets R or stays inside P.
    let pairs: Vec<CyclePair> = pairs
        .0
        .iter()
        .map(|p| CyclePair {
            hit: p.recurrent.clone(),
            bad: p.persistent.complement(n),
        })
        .collect();
    streett_refinement(
        FlatAutomaton::of(aut).graph(),
        &aut.reachable_states(),
        &pairs,
    )
}

/// The classical iterated-SCC Streett refinement on the subgraph of
/// `graph` induced by `allowed`: finds a cycle-supporting SCC subset that
/// satisfies every [`CyclePair`], or `None`. A region that violates a
/// pair (misses its `hit` set but touches its `bad` set) loses that
/// pair's `bad` states and is decomposed again.
pub(crate) fn streett_refinement(
    graph: &FlatGraph,
    allowed: &BitSet,
    pairs: &[CyclePair],
) -> Option<BitSet> {
    let sccs = tarjan_scc(graph, Some(allowed));
    let mut stack: Vec<BitSet> = (0..sccs.len())
        .filter(|&c| sccs.has_cycle[c])
        .map(|c| sccs.member_set(c))
        .collect();
    while let Some(region) = stack.pop() {
        let mut refined = region.clone();
        let mut violated = false;
        for p in pairs {
            if !region.intersects(&p.hit) && region.intersects(&p.bad) {
                refined.difference_with(&p.bad);
                violated = true;
            }
        }
        if !violated {
            return Some(region);
        }
        let inner = tarjan_scc(graph, Some(&refined));
        for c in 0..inner.len() {
            if inner.has_cycle[c] {
                stack.push(inner.member_set(c));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::Acceptance;
    use crate::alphabet::Alphabet;
    use crate::streett::StreettPair;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Automaton over {a,b} tracking the last symbol (state 0 = a, 1 = b).
    fn last_symbol(sigma: &Alphabet, acceptance: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acceptance)
    }

    #[test]
    fn witness_for_buchi() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::inf([1]));
        let w = accepted_lasso(&m).unwrap();
        assert!(m.accepts(&w));
    }

    #[test]
    fn witness_for_generalized_condition() {
        let sigma = ab();
        // Inf{0} ∧ Inf{1}: both symbols infinitely often.
        let m = last_symbol(&sigma, Acceptance::inf([0]).and(Acceptance::inf([1])));
        let w = accepted_lasso(&m).unwrap();
        assert!(m.accepts(&w));
        // The loop must contain both symbols.
        let names: Vec<&str> = w.cycle().iter().map(|&s| sigma.name(s)).collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn empty_when_contradictory() {
        let sigma = ab();
        // Inf{1} ∧ Fin{1} is unsatisfiable.
        let m = last_symbol(&sigma, Acceptance::inf([1]).and(Acceptance::fin([1])));
        assert!(accepted_lasso(&m).is_none());
    }

    #[test]
    fn fin_condition_witness_avoids_states() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::fin([1]));
        let w = accepted_lasso(&m).unwrap();
        assert!(m.accepts(&w));
        // Loop may only produce a's.
        assert!(w.cycle().iter().all(|&s| sigma.name(s) == "a"));
    }

    #[test]
    fn live_states_spread_backwards() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // 0 --b--> 1 --b--> 2(trap, accepting); a self-loops everywhere.
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1).min(2) } else { q },
            Acceptance::inf([2]),
        );
        assert_eq!(live_states(&m), BitSet::from_iter([0, 1, 2]));
        // Make the acceptance unsatisfiable instead: nothing is live.
        let m2 = m.with_acceptance(Acceptance::Inf(BitSet::new()));
        assert!(live_states(&m2).is_empty());
    }

    #[test]
    fn streett_refinement_finds_fair_cycle() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::True);
        // Pair: Inf{1} ∨ run ⊆ {0}: satisfied by cycle {0} or any cycle
        // containing 1.
        let pairs = StreettPairs(vec![StreettPair {
            recurrent: BitSet::from_iter([1]),
            persistent: BitSet::from_iter([0]),
        }]);
        let cyc = streett_nonempty_cycle(&m, &pairs).unwrap();
        assert!(
            cyc == BitSet::from_iter([0]) || cyc.contains(1),
            "cycle {cyc:?} must satisfy the pair"
        );
    }

    #[test]
    fn streett_refinement_detects_emptiness() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // Once you read b you are stuck in state 1 (self-loop).
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::True,
        );
        // Require Inf{nothing} ∨ stay within ∅ for cycles touching 0 or 1:
        // pair (R=∅, P=∅) is unsatisfiable.
        let pairs = StreettPairs(vec![StreettPair {
            recurrent: BitSet::new(),
            persistent: BitSet::new(),
        }]);
        assert!(streett_nonempty_cycle(&m, &pairs).is_none());
    }

    #[test]
    fn streett_refinement_multi_pair() {
        let sigma = ab();
        let m = last_symbol(&sigma, Acceptance::True);
        // Two pairs: Inf{0} and Inf{1} (as pure Büchi pairs with P=∅):
        // only the full cycle {0,1} works.
        let pairs = StreettPairs(vec![
            StreettPair {
                recurrent: BitSet::from_iter([0]),
                persistent: BitSet::new(),
            },
            StreettPair {
                recurrent: BitSet::from_iter([1]),
                persistent: BitSet::new(),
            },
        ]);
        let cyc = streett_nonempty_cycle(&m, &pairs).unwrap();
        assert_eq!(cyc, BitSet::from_iter([0, 1]));
    }

    #[test]
    fn shortest_paths() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1).min(2) } else { q },
            Acceptance::True,
        );
        let p = shortest_path(&m, 0, 2, None).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(run_from(&m, 0, &p), 2);
        assert_eq!(shortest_path(&m, 2, 0, None), None);
        assert_eq!(shortest_path(&m, 1, 1, None).unwrap(), vec![]);
    }
}
