//! Strongly connected component analysis (Tarjan's algorithm, iterative),
//! with support for restricting the graph to a subset of states.
//!
//! SCCs over *restricted* state sets are the workhorse of the
//! classification procedures: restricting to the states whose acceptance
//! "colors" lie below a given color set and taking SCCs yields canonical
//! representatives for all cycles with those colors (see [`crate::classify`]).
//!
//! There is one Tarjan, [`tarjan_scc`], and it runs on the CSR
//! [`FlatGraph`]: every DFS frame keeps a cursor into its state's
//! successor slice, so a pass allocates nothing per visited state.

use crate::bitset::BitSet;
use crate::flat::FlatGraph;
use crate::StateId;

/// The result of an SCC decomposition.
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// `component[q]` is the SCC index of state `q`, or `usize::MAX` if the
    /// state was excluded from the analysis.
    pub component: Vec<usize>,
    /// The members of each SCC. Components are numbered in reverse
    /// topological order (successors first), as produced by Tarjan's
    /// algorithm.
    pub members: Vec<Vec<StateId>>,
    /// `has_cycle[c]` is `true` iff component `c` contains at least one edge
    /// (i.e. it is a *cycle* in the paper's sense: either more than one
    /// state, or a state with a self-loop within the restriction).
    pub has_cycle: Vec<bool>,
}

impl SccDecomposition {
    /// The members of component `c` as a [`BitSet`].
    pub fn member_set(&self, c: usize) -> BitSet {
        self.members[c].iter().map(|&q| q as usize).collect()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no components were found (empty restriction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Computes the SCCs of the subgraph induced by `allowed` (or of the whole
/// graph if `allowed` is `None`), using an iterative Tarjan's algorithm
/// that walks each state's successor slice in place.
pub fn tarjan_scc(graph: &FlatGraph, allowed: Option<&BitSet>) -> SccDecomposition {
    let n = graph.num_states();
    let is_allowed = |q: StateId| allowed.is_none_or(|s| s.contains(q as usize));

    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<StateId> = Vec::new();
    let mut component = vec![UNSEEN; n];
    let mut members: Vec<Vec<StateId>> = Vec::new();
    let mut next_index = 0usize;
    // Iterative DFS: frames of (state, cursor into its successor slice).
    let mut frames: Vec<(StateId, usize)> = Vec::new();

    for root in 0..n as StateId {
        if !is_allowed(root) || index[root as usize] != UNSEEN {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, 0));

        while let Some(&mut (q, ref mut cursor)) = frames.last_mut() {
            if let Some(&t) = graph.successors(q).get(*cursor) {
                *cursor += 1;
                if !is_allowed(t) {
                    continue;
                }
                if index[t as usize] == UNSEEN {
                    index[t as usize] = next_index;
                    low[t as usize] = next_index;
                    next_index += 1;
                    stack.push(t);
                    on_stack[t as usize] = true;
                    frames.push((t, 0));
                } else if on_stack[t as usize] {
                    low[q as usize] = low[q as usize].min(index[t as usize]);
                }
            } else {
                // Finished q.
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p as usize] = low[p as usize].min(low[q as usize]);
                }
                if low[q as usize] == index[q as usize] {
                    let c = members.len();
                    let mut comp = Vec::new();
                    loop {
                        let s = stack.pop().expect("Tarjan stack underflow");
                        on_stack[s as usize] = false;
                        component[s as usize] = c;
                        comp.push(s);
                        if s == q {
                            break;
                        }
                    }
                    members.push(comp);
                }
            }
        }
    }

    // A component has a cycle iff it has two members or a self-loop (its
    // lone member is allowed, so the loop survives the restriction).
    let has_cycle = members
        .iter()
        .map(|comp| comp.len() > 1 || graph.successors(comp[0]).contains(&comp[0]))
        .collect();

    SccDecomposition {
        component,
        members,
        has_cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)], n: usize) -> FlatGraph {
        FlatGraph::from_fn(n, |q| {
            edges.iter().filter(move |&&(a, _)| a == q).map(|&(_, b)| b)
        })
    }

    #[test]
    fn two_cycles_and_bridge() {
        // 0 <-> 1, 2 <-> 3, 1 -> 2
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], 4);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 2);
        assert_eq!(d.component[0], d.component[1]);
        assert_eq!(d.component[2], d.component[3]);
        assert_ne!(d.component[0], d.component[2]);
        assert!(d.has_cycle.iter().all(|&c| c));
        // Reverse topological order: {2,3} comes before {0,1}.
        assert!(d.members[0].contains(&2));
    }

    #[test]
    fn trivial_component_no_selfloop() {
        let g = graph(&[(0, 1), (1, 1)], 2);
        let d = tarjan_scc(&g, None);
        let c0 = d.component[0];
        let c1 = d.component[1];
        assert!(!d.has_cycle[c0]);
        assert!(d.has_cycle[c1]);
    }

    #[test]
    fn restriction_cuts_cycles() {
        // 0 -> 1 -> 2 -> 0 is a cycle; removing 1 makes everything trivial.
        let g = graph(&[(0, 1), (1, 2), (2, 0)], 3);
        let full = tarjan_scc(&g, None);
        assert_eq!(full.len(), 1);
        assert!(full.has_cycle[0]);
        let allowed: BitSet = [0usize, 2].into_iter().collect();
        let cut = tarjan_scc(&g, Some(&allowed));
        assert_eq!(cut.len(), 2);
        assert!(cut.has_cycle.iter().all(|&c| !c));
        assert_eq!(cut.component[1], usize::MAX);
    }

    #[test]
    fn big_cycle_single_component() {
        let n = 1000;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph(&edges, n as usize);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 1);
        assert_eq!(d.members[0].len(), n as usize);
        assert!(d.has_cycle[0]);
    }

    #[test]
    fn self_loop_only() {
        let g = graph(&[(0, 0)], 1);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 1);
        assert!(d.has_cycle[0]);
        assert_eq!(d.member_set(0), BitSet::from_iter([0]));
    }

    #[test]
    fn dag_reverse_topological() {
        // 0 -> 1 -> 2 (all trivial)
        let g = graph(&[(0, 1), (1, 2)], 3);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 3);
        // Tarjan emits sinks first.
        assert_eq!(d.members[0], vec![2]);
        assert_eq!(d.members[2], vec![0]);
    }
}
