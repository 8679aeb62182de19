//! Exact semantic classification of deterministic ω-automata into the
//! safety–progress hierarchy (the paper's Problem 5.1).
//!
//! Given a complete deterministic ω-automaton `M`, these procedures decide
//! in which classes the *language* `Π = L(M)` lies:
//!
//! * **safety** — `Π = A(Pref(Π))`, checked by comparing `M` with its
//!   [safety closure](safety_closure);
//! * **guarantee** — the complement is safety;
//! * **recurrence** — Wagner/Landweber: no accessible cycle pair `J ⊆ A`
//!   with `J` accepting and `A` rejecting;
//! * **persistence** — dually, no rejecting cycle inside an accepting one;
//! * **obligation** — both recurrence and persistence (equivalently: all
//!   cycles within each reachable SCC have the same acceptance status);
//! * **reactivity** — no chain `B ⊆ J ⊆ A` with `B, A` rejecting and `J`
//!   accepting characterizes *simple* reactivity. Every ω-regular language
//!   sits at some finite level of the reactivity hierarchy, and
//!   [`reactivity_index`] computes that exact level; [`obligation_index_of`]
//!   does the same for the obligation sub-hierarchy.
//!
//! # The color-lattice construction
//!
//! The checks quantify over *all* accessible cycles, of which there can be
//! exponentially many. We exploit the fact that whether a cycle `C` is
//! accepting depends only on which acceptance atoms (the state sets
//! appearing in the condition — its "colors") `C` intersects. For an anchor
//! state `q` and a set `D` of colors, let `S(q, D)` be the SCC containing
//! `q` in the graph restricted to states whose colors all lie in `D`. Then:
//!
//! * every cycle `C ∋ q` satisfies `C ⊆ S(q, colors(C))` and
//!   `colors(S(q, colors(C))) = colors(C)`, so the canonical SCC has the
//!   same acceptance status as `C`;
//! * for a fixed anchor, `D₁ ⊆ D₂` implies `S(q, D₁) ⊆ S(q, D₂)`, so every
//!   ⊆-chain of cycles through `q` maps to a ⊆-chain of canonical SCCs with
//!   identical statuses.
//!
//! Hence the existence of alternating cycle chains — which is what all the
//! checks above ask — is decidable by dynamic programming over the lattice
//! of color subsets, anchored at each state in turn: `O(2^m)` SCC passes for
//! `m` colors, i.e. polynomial in the automaton for any fixed acceptance
//! condition.

use crate::acceptance::Acceptance;
use crate::bitset::BitSet;
use crate::flat::FlatAutomaton;
use crate::omega::OmegaAutomaton;
use crate::scc::tarjan_scc;
use crate::StateId;

/// The verdict of [`classify`]: membership of the automaton's language in
/// each class of the hierarchy, plus the exact hierarchy indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// `Π = A(Φ)` for some finitary `Φ` (topologically closed, Π₁).
    pub is_safety: bool,
    /// `Π = E(Φ)` (open, Σ₁).
    pub is_guarantee: bool,
    /// Finite boolean combination of safety and guarantee properties
    /// (Δ₂ = Π₂ ∩ Σ₂).
    pub is_obligation: bool,
    /// `Π = R(Φ)` (G_δ, Π₂) — deterministic-Büchi realizable.
    pub is_recurrence: bool,
    /// `Π = P(Φ)` (F_σ, Σ₂) — deterministic-co-Büchi realizable.
    pub is_persistence: bool,
    /// Simple reactivity: `R(Φ) ∪ P(Ψ)` — a single Streett pair suffices.
    pub is_simple_reactivity: bool,
    /// Minimal `n` such that the language is an intersection of `n` simple
    /// obligation properties, if it is an obligation property at all.
    pub obligation_index: Option<usize>,
    /// Minimal `n` such that the language is an intersection of `n` simple
    /// reactivity properties (every ω-regular language has one).
    pub reactivity_index: usize,
}

impl Classification {
    /// The most specific class name, for display purposes.
    pub fn strictest_class_name(&self) -> &'static str {
        if self.is_safety && self.is_guarantee {
            "safety ∩ guarantee"
        } else if self.is_safety {
            "safety"
        } else if self.is_guarantee {
            "guarantee"
        } else if self.is_obligation {
            "obligation"
        } else if self.is_recurrence {
            "recurrence"
        } else if self.is_persistence {
            "persistence"
        } else if self.is_simple_reactivity {
            "simple reactivity"
        } else {
            "reactivity"
        }
    }

    /// The Borel-level name used in the paper's first-order
    /// characterization: Π₁/Σ₁/Δ₂/Π₂/Σ₂/Δ₃.
    pub fn borel_name(&self) -> &'static str {
        if self.is_safety && self.is_guarantee {
            "Π₁ ∩ Σ₁"
        } else if self.is_safety {
            "Π₁"
        } else if self.is_guarantee {
            "Σ₁"
        } else if self.is_obligation {
            "Δ₂"
        } else if self.is_recurrence {
            "Π₂"
        } else if self.is_persistence {
            "Σ₂"
        } else {
            "Δ₃"
        }
    }
}

/// Fully classifies the language of `aut` in the safety–progress hierarchy.
///
/// This is a thin wrapper over the single-walk full verdict of
/// [`crate::analysis::Analysis::classification`]; build an `Analysis`
/// directly to share the underlying caches across further queries.
pub fn classify(aut: &OmegaAutomaton) -> Classification {
    crate::analysis::Analysis::new(aut.clone())
        .classification()
        .clone()
}

/// Classifies a batch of automata, fanning the suite out across the
/// worker pool of [`crate::par`] (one automaton per work item; the
/// lattice walk inside each item runs sequentially, so the pool is never
/// oversubscribed).
///
/// Verdicts are returned in input order and are identical to calling
/// [`classify`] on each automaton — the batch only changes the schedule,
/// never the result. `spec-lint --jobs`, the seeded sweeps of
/// `tab_decision`/`tab_lint`, and the `tab_parallel` scaling series all
/// go through here.
pub fn classify_suite(auts: &[OmegaAutomaton]) -> Vec<Classification> {
    classify_suite_with(crate::par::thread_count(), auts)
}

/// [`classify_suite`] with an explicit worker count (the thread-scaling
/// experiment pins 1/2/4/N workers).
pub fn classify_suite_with(threads: usize, auts: &[OmegaAutomaton]) -> Vec<Classification> {
    crate::par::map_with(threads, auts, |aut| {
        crate::analysis::Analysis::new(aut.clone())
            .classification()
            .clone()
    })
}

/// The safety closure of the automaton's language: an automaton for
/// `A(Pref(Π))` — topologically, the closure of `Π` in `Σ^ω`.
///
/// Construction: a run is accepted iff it never leaves the *live* states
/// (states with non-empty residual language). Dead states are closed under
/// successors in a deterministic complete automaton, so the acceptance
/// condition `Fin(dead)` expresses exactly "every prefix is a prefix of some
/// word in Π".
pub fn safety_closure(aut: &OmegaAutomaton) -> OmegaAutomaton {
    let live = aut.live_states();
    let dead = live.complement(aut.num_states());
    aut.with_acceptance(Acceptance::Fin(dead))
}

/// Whether the language is a safety property: `Π` equals its safety
/// closure.
///
/// Since `Π ⊆ A(Pref(Π))` always holds, only the reverse inclusion is
/// checked.
pub fn is_safety(aut: &OmegaAutomaton) -> bool {
    safety_closure(aut).is_subset_of(aut)
}

/// Whether the language is a guarantee property (its complement is safety).
pub fn is_guarantee(aut: &OmegaAutomaton) -> bool {
    is_safety(&aut.complement())
}

/// Whether the language is a recurrence property (G_δ; deterministic-Büchi
/// realizable): no accessible accepting cycle sits inside a rejecting one.
pub fn is_recurrence(aut: &OmegaAutomaton) -> bool {
    !ChainAnalysis::new(aut).has_chain(&[true, false])
}

/// Whether the language is a persistence property (F_σ; deterministic
/// co-Büchi realizable): no accessible rejecting cycle sits inside an
/// accepting one.
pub fn is_persistence(aut: &OmegaAutomaton) -> bool {
    !ChainAnalysis::new(aut).has_chain(&[false, true])
}

/// Whether the language is an obligation property (a finite boolean
/// combination of safety and guarantee properties; equivalently, both a
/// recurrence and a persistence property — the paper's Δ₂ = Π₂ ∩ Σ₂).
pub fn is_obligation(aut: &OmegaAutomaton) -> bool {
    let chains = ChainAnalysis::new(aut);
    !chains.has_chain(&[true, false]) && !chains.has_chain(&[false, true])
}

/// Whether the language is a *simple* reactivity property (expressible as
/// `R(Φ) ∪ P(Ψ)`, i.e. with a single Streett pair): no accessible chain
/// `B ⊆ J ⊆ A` with `B, A` rejecting and `J` accepting (the paper's §5.1
/// reactivity check with the maximal chain length 1).
pub fn is_simple_reactivity(aut: &OmegaAutomaton) -> bool {
    !ChainAnalysis::new(aut).has_chain(&[false, true, false])
}

/// Whether the automaton is *weak*: every reachable SCC is homogeneous
/// (all its cycles share one acceptance status). Weak automata recognize
/// exactly the obligation (Staiger–Wagner) languages; this is the
/// structural counterpart of [`is_obligation`] on the given automaton.
pub fn is_weak(aut: &OmegaAutomaton) -> bool {
    let reachable = aut.reachable_states();
    let flat = FlatAutomaton::of(aut);
    let sccs = tarjan_scc(flat.graph(), Some(&reachable));
    let chains = ChainAnalysis::over(aut, &flat, &reachable);
    // Homogeneity of an SCC = no accepting and rejecting cycle anchored in
    // it; reuse the per-anchor canonical cycles.
    for c in 0..sccs.len() {
        if !sccs.has_cycle[c] {
            continue;
        }
        let mut saw_acc = false;
        let mut saw_rej = false;
        for &q in &sccs.members[c] {
            for &(accepting, _) in &chains.anchor_statuses[q as usize] {
                if accepting {
                    saw_acc = true;
                } else {
                    saw_rej = true;
                }
            }
        }
        if saw_acc && saw_rej {
            return false;
        }
    }
    true
}

/// The exact *Rabin index*: the minimal number of Rabin pairs any
/// deterministic Rabin automaton for the language needs — dual to
/// [`reactivity_index`], computed as the reactivity index of the
/// complement (Wagner's chains with the rejecting/accepting roles
/// swapped).
pub fn rabin_index(aut: &OmegaAutomaton) -> usize {
    ChainAnalysis::new(&aut.complement()).reactivity_index()
}

/// The exact reactivity index: the minimal `k` such that the language is an
/// intersection of `k` simple reactivity properties (equivalently, is
/// recognized by some deterministic Streett automaton with `k` pairs).
///
/// Per Wagner \[Wag79] (as quoted in the paper's §5.1), this is the maximal
/// `n` admitting a chain of accessible cycles
/// `B₁ ⊆ J₁ ⊆ B₂ ⊆ … ⊆ Bₙ ⊆ Jₙ` with `Bᵢ` rejecting and `Jᵢ` accepting.
/// Languages whose cycles never alternate that way (safety, guarantee,
/// obligation, recurrence, persistence) get index 1 by convention: they are
/// trivially simple reactivity.
pub fn reactivity_index(aut: &OmegaAutomaton) -> usize {
    ChainAnalysis::new(aut).reactivity_index()
}

/// The minimal `n` such that the language — **assumed** to be an obligation
/// property — is an intersection of `n` simple obligation properties
/// `A(Φᵢ) ∪ E(Ψᵢ)` (the paper's `Obl_n` sub-hierarchy).
///
/// For obligation languages every reachable SCC is *homogeneous* (all its
/// cycles share one acceptance status), so acceptance of a run depends only
/// on the SCC it settles in, and the index is governed by the status
/// alternations along paths of the SCC condensation. Writing a path's
/// settled-SCC statuses as an alternating word over {G, B}, the CNF size is
/// the number of G→B transitions **with a virtual leading G** (a path that
/// starts bad pays for the entry): `[G,B,G] ↦ 1` (e.g. `□a ∨ ◇c`),
/// `[B,G] ↦ 1` (`◇b`), `[B,G,B] ↦ 2` (`□¬c ∧ ◇b`, which provably has no
/// `A ∪ E` form), `[G,(B,G)^k] ↦ k` (the `Obl_k` witness family). This is
/// cross-validated against the constructive `Obl₁` decomposition in
/// `hierarchy-topology`.
///
/// Returns at least 1 (∅ and `Σ^ω` are trivially `Obl₁`).
pub fn obligation_index_of(aut: &OmegaAutomaton) -> usize {
    let reachable = aut.reachable_states();
    let flat = FlatAutomaton::of(aut);
    let sccs = tarjan_scc(flat.graph(), Some(&reachable));
    let n_comp = sccs.len();
    // Status of each component: Some(accepting) for components with a
    // cycle, None for transient components. The per-component evaluations
    // are independent, so they ride the worker pool.
    let status: Vec<Option<bool>> = crate::par::map_indices(n_comp, |c| {
        sccs.has_cycle[c].then(|| aut.acceptance().accepts_infinity_set(&sccs.member_set(c)))
    });
    // Condensation successor lists. Tarjan numbers components in reverse
    // topological order, so every inter-component edge goes from a higher
    // index to a lower one.
    let mut comp_succs: Vec<Vec<usize>> = vec![Vec::new(); n_comp];
    for q in reachable.iter() {
        let cq = sccs.component[q];
        for &t in flat.graph().successors(q as StateId) {
            let ct = sccs.component[t as usize];
            if ct != cq && !comp_succs[cq].contains(&ct) {
                comp_succs[cq].push(ct);
            }
        }
    }
    let init = sccs.component[aut.initial() as usize];
    obligation_index_from_condensation(&comp_succs, &status, init)
}

/// The obligation-index DP over a condensation DAG (shared between
/// [`obligation_index_of`] and the cached condensation of
/// [`crate::analysis::Analysis`]). `comp_succs`/`status` follow Tarjan's
/// reverse topological numbering (successors have smaller indices).
pub(crate) fn obligation_index_from_condensation(
    comp_succs: &[Vec<usize>],
    status: &[Option<bool>],
    init: usize,
) -> usize {
    let n_comp = status.len();
    // DP in topological order (increasing index = successors first):
    // down[c][phase] = max number of good→bad crossings on any path starting
    // at component c, where phase records the status of the previously seen
    // non-trivial SCC (0 = good — also the virtual initial status, 1 = bad).
    let mut down = vec![[0usize; 2]; n_comp];
    for c in 0..n_comp {
        for phase in 0..2 {
            // Entering component c in `phase`.
            let (gain, next_phase) = match status[c] {
                Some(false) if phase == 0 => (1, 1), // good → bad crossing
                Some(false) => (0, 1),
                Some(true) => (0, 0),
                None => (0, phase),
            };
            let best_below = comp_succs[c]
                .iter()
                .map(|&s| down[s][next_phase])
                .max()
                .unwrap_or(0);
            down[c][phase] = gain + best_below;
        }
    }
    down[init][0].max(1)
}

/// Per-anchor canonical-cycle analysis over the color lattice (see module
/// docs). Exposes the alternating-chain queries used by all classification
/// procedures.
#[derive(Debug, Clone)]
pub struct ChainAnalysis {
    /// For each state `q`: the canonical cycles anchored at `q`, as
    /// `(accepting, lattice_mask)` pairs in increasing `lattice_mask` order,
    /// where `lattice_mask` is the color set `D` of the restriction whose
    /// SCC around `q` the entry describes. Unreachable or acyclic anchors
    /// get an empty list.
    anchor_statuses: Vec<Vec<(bool, u32)>>,
}

impl ChainAnalysis {
    /// Runs the analysis on `aut`.
    ///
    /// Complexity: `O(2^m)` SCC decompositions for `m` distinct acceptance
    /// atoms — polynomial in the automaton for any fixed acceptance
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics if the acceptance condition has more than 16 distinct atom
    /// sets; the hierarchy constructions never produce that many.
    pub fn new(aut: &OmegaAutomaton) -> Self {
        Self::over(aut, &FlatAutomaton::of(aut), &aut.reachable_states())
    }

    /// [`ChainAnalysis::new`] on an automaton its caller has already
    /// flattened: every lattice point's restricted Tarjan pass walks the
    /// CSR core.
    fn over(aut: &OmegaAutomaton, flat: &FlatAutomaton, reachable: &BitSet) -> Self {
        Self::new_par(aut, reachable, |allowed| {
            std::sync::Arc::new(tarjan_scc(flat.graph(), Some(allowed)))
        })
    }

    /// The parallel lattice sweep: every color subset's restricted SCC
    /// pass is an independent Tarjan run, so the `2^m` points fan out
    /// across the worker pool of [`crate::par`] and the per-anchor
    /// statuses are merged in mask order afterwards (the merge order is
    /// what [`ChainAnalysis::has_chain`]'s DP relies on, so it stays
    /// sequential and deterministic).
    ///
    /// `scc_of` must be shareable across workers; both the free
    /// `tarjan_scc` closure of [`ChainAnalysis::new`] and the memo-table
    /// hook of [`crate::analysis::Analysis::chains`] are (`Analysis` is
    /// `Sync`, and its caches tolerate concurrent fills). The reachable
    /// set is supplied by the caller, which usually has it cached.
    pub fn new_par(
        aut: &OmegaAutomaton,
        reachable: &BitSet,
        scc_of: impl Fn(&BitSet) -> std::sync::Arc<crate::scc::SccDecomposition> + Sync,
    ) -> Self {
        let walk = LatticeWalk::new(aut, reachable);
        let points = crate::par::map_indices(walk.point_count(), |d| walk.point(d, &scc_of));
        walk.merge(points)
    }

    /// Whether there is an ascending chain of accessible cycles
    /// `C₁ ⊆ C₂ ⊆ … ⊆ C_r` whose acceptance statuses spell `pattern`
    /// (`pattern[i]` = is `Cᵢ` accepting).
    pub fn has_chain(&self, pattern: &[bool]) -> bool {
        self.max_matching_prefix(pattern) == pattern.len()
    }

    /// The reactivity index: maximal `n` with an alternating chain
    /// `B₁ ⊆ J₁ ⊆ … ⊆ Bₙ ⊆ Jₙ` (`B` rejecting, `J` accepting), but at
    /// least 1.
    pub fn reactivity_index(&self) -> usize {
        self.alternating_index(false)
    }

    /// The maximal `n` admitting an alternating chain of `n` status pairs
    /// starting with `first`: `first = false` is the reactivity index
    /// (`(B,J)^n` chains), `first = true` the Rabin index of the language
    /// (`(J,B)^n` chains — the complement's reactivity chains, since
    /// complementation keeps the canonical cycles and flips every
    /// status). At least 1 in both orientations.
    pub fn alternating_index(&self, first: bool) -> usize {
        let mut n = 0usize;
        loop {
            let mut pattern = Vec::new();
            for _ in 0..=n {
                pattern.push(first);
                pattern.push(!first);
            }
            if self.has_chain(&pattern) {
                n += 1;
            } else {
                return n.max(1);
            }
        }
    }

    /// The per-anchor canonical-cycle statuses: `statuses()[q]` lists the
    /// `(accepting, lattice_mask)` entries of state `q` in increasing
    /// mask order (empty for unreachable or acyclic anchors).
    pub fn anchor_statuses(&self) -> &[Vec<(bool, u32)>] {
        &self.anchor_statuses
    }

    /// Longest prefix of `pattern` realizable as an ascending cycle chain.
    fn max_matching_prefix(&self, pattern: &[bool]) -> usize {
        let mut best = 0;
        for statuses in &self.anchor_statuses {
            if statuses.is_empty() {
                continue;
            }
            best = best.max(longest_prefix_for_anchor(statuses, pattern));
            if best == pattern.len() {
                return best;
            }
        }
        best
    }
}

/// One lattice point's contribution to the chain analysis: the restricted
/// decomposition plus the indices and statuses of its canonical
/// (cycle-bearing) components. `None` for points whose restriction is
/// empty.
type LatticePoint = Option<(
    std::sync::Arc<crate::scc::SccDecomposition>,
    Vec<(usize, bool)>,
)>;

/// The skeleton of the lattice sweep: per-state color masks plus the
/// per-point computation and the order-sensitive merge. Points are
/// independent (this is what [`ChainAnalysis::new_par`] exploits); the
/// merge appends statuses in increasing mask order, the invariant the
/// chain DP needs.
struct LatticeWalk<'a> {
    aut: &'a OmegaAutomaton,
    reachable: &'a BitSet,
    atoms: Vec<BitSet>,
    color: Vec<u32>,
}

impl<'a> LatticeWalk<'a> {
    fn new(aut: &'a OmegaAutomaton, reachable: &'a BitSet) -> Self {
        let atoms = aut.acceptance().atom_sets();
        assert!(
            atoms.len() <= 16,
            "acceptance condition has too many distinct atoms ({})",
            atoms.len()
        );
        let color: Vec<u32> = (0..aut.num_states())
            .map(|q| {
                let mut mask = 0u32;
                for (i, s) in atoms.iter().enumerate() {
                    if s.contains(q) {
                        mask |= 1 << i;
                    }
                }
                mask
            })
            .collect();
        LatticeWalk {
            aut,
            reachable,
            atoms,
            color,
        }
    }

    fn point_count(&self) -> usize {
        1usize << self.atoms.len()
    }

    fn point(
        &self,
        d: usize,
        scc_of: &dyn Fn(&BitSet) -> std::sync::Arc<crate::scc::SccDecomposition>,
    ) -> LatticePoint {
        let d = d as u32;
        let allowed: BitSet = self
            .reachable
            .iter()
            .filter(|&q| self.color[q] & !d == 0)
            .collect();
        if allowed.is_empty() {
            return None;
        }
        let sccs = scc_of(&allowed);
        let mut comps = Vec::new();
        for c in 0..sccs.len() {
            if !sccs.has_cycle[c] {
                continue;
            }
            let mut colors_mask = 0u32;
            for &q in &sccs.members[c] {
                colors_mask |= self.color[q as usize];
            }
            comps.push((
                c,
                eval_on_colors(self.aut.acceptance(), colors_mask, &self.atoms),
            ));
        }
        Some((sccs, comps))
    }

    fn merge(&self, points: Vec<LatticePoint>) -> ChainAnalysis {
        let mut anchor_statuses: Vec<Vec<(bool, u32)>> = vec![Vec::new(); self.aut.num_states()];
        for (d, point) in points.into_iter().enumerate() {
            let Some((sccs, comps)) = point else { continue };
            for (c, accepting) in comps {
                for &q in &sccs.members[c] {
                    anchor_statuses[q as usize].push((accepting, d as u32));
                }
            }
        }
        ChainAnalysis { anchor_statuses }
    }
}

/// Evaluates an acceptance condition given only which atoms (by index) a
/// cycle intersects.
fn eval_on_colors(acc: &Acceptance, colors_mask: u32, atoms: &[BitSet]) -> bool {
    match acc {
        Acceptance::True => true,
        Acceptance::False => false,
        Acceptance::Inf(s) => {
            let i = atoms.iter().position(|a| a == s).expect("atom present");
            colors_mask & (1 << i) != 0
        }
        Acceptance::Fin(s) => {
            let i = atoms.iter().position(|a| a == s).expect("atom present");
            colors_mask & (1 << i) == 0
        }
        Acceptance::And(xs) => xs.iter().all(|x| eval_on_colors(x, colors_mask, atoms)),
        Acceptance::Or(xs) => xs.iter().any(|x| eval_on_colors(x, colors_mask, atoms)),
    }
}

/// DP over one anchor's canonical cycles: the longest prefix of `pattern`
/// realizable by an ascending sub-chain. Entries are ordered by increasing
/// lattice mask, and `D₁ ⊆ D₂` implies `S(q, D₁) ⊆ S(q, D₂)`, so subset
/// pairs always appear in order.
fn longest_prefix_for_anchor(statuses: &[(bool, u32)], pattern: &[bool]) -> usize {
    let k = pattern.len();
    let n = statuses.len();
    let mut dp = vec![0usize; n];
    let mut best = 0;
    for i in 0..n {
        let (acc_i, d_i) = statuses[i];
        let mut longest = usize::from(pattern[0] == acc_i);
        for j in 0..i {
            let (_, d_j) = statuses[j];
            if d_j & !d_i == 0 && dp[j] > 0 && dp[j] < k && pattern[dp[j]] == acc_i {
                longest = longest.max(dp[j] + 1);
            }
        }
        dp[i] = longest;
        best = best.max(longest);
        if best == k {
            return k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Last-symbol tracker over {a,b}: state 0 after a, state 1 after b.
    fn last_sym(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    /// □a ("never b"): safety.
    fn always_a(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        )
    }

    /// ◇b ("eventually b"): guarantee.
    fn eventually_b(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        )
    }

    #[test]
    fn safety_of_always_a() {
        let sigma = ab();
        let m = always_a(&sigma);
        let c = classify(&m);
        assert!(c.is_safety);
        assert!(!c.is_guarantee);
        assert!(c.is_obligation);
        assert!(c.is_recurrence && c.is_persistence && c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "safety");
        assert_eq!(c.borel_name(), "Π₁");
        assert_eq!(c.obligation_index, Some(1));
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn guarantee_of_eventually_b() {
        let sigma = ab();
        let m = eventually_b(&sigma);
        let c = classify(&m);
        assert!(!c.is_safety);
        assert!(c.is_guarantee);
        assert!(c.is_obligation);
        assert_eq!(c.strictest_class_name(), "guarantee");
        assert_eq!(c.borel_name(), "Σ₁");
        assert_eq!(c.obligation_index, Some(1));
    }

    #[test]
    fn recurrence_of_inf_b() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::inf([1])); // □◇b
        let c = classify(&m);
        assert!(!c.is_safety && !c.is_guarantee && !c.is_obligation);
        assert!(c.is_recurrence);
        assert!(!c.is_persistence);
        assert!(c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "recurrence");
        assert_eq!(c.borel_name(), "Π₂");
        assert_eq!(c.obligation_index, None);
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn persistence_of_ev_alw_a() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::fin([1])); // ◇□a
        let c = classify(&m);
        assert!(!c.is_recurrence);
        assert!(c.is_persistence);
        assert_eq!(c.strictest_class_name(), "persistence");
        assert_eq!(c.borel_name(), "Σ₂");
    }

    #[test]
    fn trivial_languages_are_in_every_class() {
        let sigma = ab();
        for m in [
            OmegaAutomaton::empty(&sigma),
            OmegaAutomaton::universal(&sigma),
        ] {
            let c = classify(&m);
            assert!(c.is_safety && c.is_guarantee && c.is_obligation);
            assert!(c.is_recurrence && c.is_persistence && c.is_simple_reactivity);
            assert_eq!(c.strictest_class_name(), "safety ∩ guarantee");
        }
    }

    #[test]
    fn simple_obligation_proper() {
        // □a ∨ ◇c over {a,b,c}: obligation but neither safety nor
        // guarantee; inside both recurrence and persistence.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        // states: 0 = only a so far; 1 = saw b before any c; 2 = saw c.
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::fin([1, 2]).or(Acceptance::inf([2])),
        );
        let c = classify(&m);
        assert!(!c.is_safety && !c.is_guarantee);
        assert!(c.is_obligation);
        assert!(c.is_recurrence && c.is_persistence);
        assert_eq!(c.strictest_class_name(), "obligation");
        assert_eq!(c.borel_name(), "Δ₂");
        assert_eq!(c.obligation_index, Some(1));
    }

    #[test]
    fn strong_fairness_is_strict_simple_reactivity() {
        // □◇b ∨ ◇□(¬a) over {a,b,c}, tracking the last symbol: a simple
        // reactivity property in neither recurrence nor persistence.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            move |_, s| {
                if s == a {
                    0
                } else if s == b {
                    1
                } else {
                    2
                }
            },
            Acceptance::inf([1]).or(Acceptance::fin([0])),
        );
        let c = classify(&m);
        assert!(!c.is_recurrence && !c.is_persistence && !c.is_obligation);
        assert!(c.is_simple_reactivity);
        assert_eq!(c.strictest_class_name(), "simple reactivity");
        assert_eq!(c.borel_name(), "Δ₃");
        assert_eq!(c.reactivity_index, 1);
    }

    #[test]
    fn safety_closure_is_closed_and_contains() {
        let sigma = ab();
        let m = eventually_b(&sigma); // ◇b, not safety
        let cl = safety_closure(&m);
        assert!(is_safety(&cl));
        assert!(m.is_subset_of(&cl));
        // cl(◇b) = Σ^ω since every finite word extends into ◇b.
        assert!(cl.is_universal());
        // Closure of a safety property is itself.
        let s = always_a(&sigma);
        assert!(safety_closure(&s).equivalent(&s));
    }

    #[test]
    fn lower_classes_are_inside_higher_ones() {
        let sigma = ab();
        for m in [always_a(&sigma), eventually_b(&sigma)] {
            assert!(is_recurrence(&m));
            assert!(is_persistence(&m));
            assert!(is_obligation(&m));
            assert!(is_simple_reactivity(&m));
        }
    }

    #[test]
    fn reactivity_index_two() {
        // Two independent Streett pairs over {a,b,c,d}, tracking the last
        // symbol: (Inf{a-state} ∨ Fin{b-state}) ∧ (Inf{c-state} ∨
        // Fin{d-state}).
        let sigma = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |_, s| s.index() as StateId,
            Acceptance::inf([0])
                .or(Acceptance::fin([1]))
                .and(Acceptance::inf([2]).or(Acceptance::fin([3]))),
        );
        let c = classify(&m);
        assert!(!c.is_simple_reactivity);
        assert_eq!(c.reactivity_index, 2);
        assert_eq!(c.strictest_class_name(), "reactivity");
    }

    #[test]
    fn obligation_index_two() {
        // Over {a, d}: "reach an a-block, then after a d, reach another a"…
        // Simplest Obl₂-style shape: states 0(B) -a-> 1(G) -d-> 2(B) -a-> 3(G),
        // self-loops keep status; acceptance = settle in 1 or 3.
        let sigma = Alphabet::new(["a", "d"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            move |q, s| match (q, s == a) {
                (0, true) => 1,
                (0, false) => 0,
                (1, true) => 1,
                (1, false) => 2,
                (2, true) => 3,
                (2, false) => 2,
                (3, _) => 3,
                _ => unreachable!(),
            },
            Acceptance::fin([0, 2]),
        );
        let c = classify(&m);
        assert!(c.is_obligation);
        assert_eq!(c.obligation_index, Some(2));
    }

    #[test]
    fn chain_analysis_direct() {
        let sigma = ab();
        let m = last_sym(&sigma, Acceptance::inf([1]));
        let ch = ChainAnalysis::new(&m);
        // Accepting cycles exist, rejecting cycles exist:
        assert!(ch.has_chain(&[true]));
        assert!(ch.has_chain(&[false]));
        // rejecting {0} ⊆ accepting {0,1} exists:
        assert!(ch.has_chain(&[false, true]));
        // accepting inside rejecting does not:
        assert!(!ch.has_chain(&[true, false]));
    }
}

#[cfg(test)]
mod rabin_index_tests {
    use super::*;
    use crate::alphabet::Alphabet;

    #[test]
    fn rabin_index_duality() {
        // □◇b has Rabin index 1 (it is Büchi = one Rabin pair), and so
        // does its complement ◇□a; the reactivity-2 style condition has
        // Rabin index 2.
        let sigma = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            4,
            0,
            |_, s| s.index() as StateId,
            Acceptance::inf([1]),
        );
        assert_eq!(rabin_index(&m), 1);
        assert_eq!(rabin_index(&m.complement()), 1);
        let two_pairs = m.with_acceptance(
            Acceptance::inf([0])
                .or(Acceptance::fin([1]))
                .and(Acceptance::inf([2]).or(Acceptance::fin([3]))),
        );
        // Streett-2 condition: its complement is Rabin-2, so the Rabin
        // index of the complement equals the reactivity index of the
        // original.
        assert_eq!(
            rabin_index(&two_pairs.complement()),
            reactivity_index(&two_pairs)
        );
    }
}

#[cfg(test)]
mod weak_tests {
    use super::*;
    use crate::alphabet::Alphabet;

    #[test]
    fn weakness_matches_obligation() {
        use crate::random::random_streett;
        use crate::random::rng::SeedableRng;
        use crate::random::rng::StdRng;
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..40 {
            let (aut, _) = random_streett(&mut rng, &sigma, 5, 2, 0.3);
            // A weak automaton's language is an obligation; the converse
            // need not hold structurally, but for these randomly generated
            // automata language-obligation coincides with structural
            // weakness exactly when every SCC is homogeneous:
            if is_weak(&aut) {
                assert!(is_obligation(&aut), "weak automata recognize obligations");
            }
            if !is_obligation(&aut) {
                assert!(!is_weak(&aut));
            }
        }
    }
}

#[cfg(test)]
mod obligation_index_orientation_tests {
    use super::*;
    use crate::alphabet::Alphabet;

    /// □¬c ∧ ◇b over {a,b,c} has no A(Φ) ∪ E(Ψ) form (chain [B,G,B]), so
    /// its obligation index is 2 — the case that distinguishes the G→B
    /// orientation of the condensation DP from the naive B→G count.
    #[test]
    fn chains_ending_bad_cost_an_extra_conjunct() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let cc = sigma.symbol("c").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if q == 2 || s == cc {
                    2
                } else if q == 1 || s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::inf([1]).and(Acceptance::fin([2])),
        );
        let c = classify(&m);
        assert!(c.is_obligation);
        assert_eq!(c.obligation_index, Some(2));
        // The union-form dual, □a ∨ ◇c, stays at index 1.
        let dual = m.with_acceptance(Acceptance::fin([1, 2]).or(Acceptance::inf([2])));
        assert_eq!(classify(&dual).obligation_index, Some(1));
        // And complementation maps index-1-union to index-?-intersection:
        // ¬(□a ∨ ◇c) = ◇¬a ∧ □¬c has a [B,G,B]-style chain too.
        let comp = classify(&dual.complement());
        assert!(comp.is_obligation);
        assert_eq!(comp.obligation_index, Some(2));
    }
}
