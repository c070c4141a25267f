//! Exhaustive enumeration of non-isomorphic graphs, connected graphs and
//! free trees.
//!
//! The paper's empirical study (Section 5) computes *all* pairwise-stable
//! graphs of the bilateral connection game and all Nash graphs of the
//! unilateral game "by enumeration of all connected topologies" on a fixed
//! number of vertices. This crate provides that enumeration.
//!
//! # Method
//!
//! Vertex augmentation with canonical-form deduplication: every
//! (connected) graph on `n` vertices arises from some (connected) graph on
//! `n - 1` vertices by adding one vertex with a (non-empty) neighbour set —
//! for the connected case because every connected graph has at least two
//! non-cut vertices, for trees because every tree has a leaf. Candidates
//! are canonicalized with [`Graph::canonical_form_and_key`] (one
//! individualization–refinement search yields both the form and the
//! dedup key) and deduplicated in a hash set.
//!
//! Counts are cross-checked against OEIS A000088 (graphs), A001349
//! (connected graphs) and A000055 (free trees) in the test suite.
//!
//! # Scaling
//!
//! The list-returning functions here materialize every graph of the
//! final level — fine through `n = 9`; the result list itself is what
//! grows. The heavy lifting lives in the `bnf-stream` crate: its
//! producer runs the vertex augmentation level by level with
//! **canonical-construction pruning** (`bnf_stream::prune`) — one
//! neighbour mask per `Aut(parent)`-orbit, cheap degree/connectivity
//! rejection before any canonical search, and a McKay-style accept rule
//! that makes every emission unique without any dedup set at all —
//! and hands each final-level graph to the caller the moment it is
//! accepted. [`connected_graphs`] and [`for_each_connected_graph`]
//! delegate to that producer; classification workloads should go one
//! seam higher (the `bnf_engine` orchestrator).
//!
//! # Examples
//!
//! ```
//! use bnf_enumerate::connected_graphs;
//!
//! // There are 6 connected graphs on 4 vertices.
//! assert_eq!(connected_graphs(4).len(), 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashSet;

use bnf_graph::{CanonKey, Graph, VertexSet};

/// Known counts of simple graphs on `n` unlabelled vertices (OEIS A000088).
pub const GRAPH_COUNTS: [u64; 10] = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668];

/// Known counts of connected graphs on `n` unlabelled vertices (OEIS
/// A001349).
pub const CONNECTED_GRAPH_COUNTS: [u64; 10] = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080];

/// Known counts of free trees on `n` vertices (OEIS A000055).
pub const FREE_TREE_COUNTS: [u64; 11] = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106];

/// Extends each parent by one vertex over the given neighbour-mask range,
/// deduplicating canonically.
fn augment<F>(parents: &[Graph], k: usize, masks: F) -> Vec<Graph>
where
    F: Fn() -> std::ops::Range<u64>,
{
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for parent in parents {
        for mask in masks() {
            let nbrs = VertexSet::from_mask(k, mask);
            // One fused search per candidate; form-then-key would run
            // the canonical labelling twice.
            let (child, key) = parent.with_extra_vertex(&nbrs).canonical_form_and_key();
            // Duplicates (the majority) pay a lookup, never a clone.
            if !seen.contains(&key) {
                seen.insert(key.clone());
                out.push((child, key));
            }
        }
    }
    sort_deterministically(out)
}

/// Sorts by (edge count, canonical key) — the key each graph was
/// deduplicated under, kept alongside so the sort never re-runs the
/// canonical search — and strips the keys.
fn sort_deterministically(mut tagged: Vec<(Graph, CanonKey)>) -> Vec<Graph> {
    tagged.sort_by(|a, b| (a.0.edge_count(), &a.1).cmp(&(b.0.edge_count(), &b.1)));
    tagged.into_iter().map(|(g, _)| g).collect()
}

/// All non-isomorphic simple graphs on `n` vertices, in canonical form,
/// sorted by edge count then canonical key.
///
/// Runtime and memory grow super-exponentially; intended for `n <= 9`.
///
/// # Panics
///
/// Panics if `n > 10` (the dedup set would not fit in memory).
pub fn all_graphs(n: usize) -> Vec<Graph> {
    assert!(
        n <= 10,
        "exhaustive enumeration beyond n=10 is not supported"
    );
    if n == 0 {
        return vec![Graph::empty(0)];
    }
    let mut cur = vec![Graph::empty(1)];
    for k in 1..n {
        cur = augment(&cur, k, || 0..(1u64 << k));
    }
    cur
}

/// All non-isomorphic *connected* graphs on `n` vertices, in canonical
/// form, sorted by edge count then canonical key.
///
/// Since the canonical-construction pruning rewrite this collects from
/// `bnf_stream::for_each_connected` (McKay-style accept rule, no dedup
/// set, canonical search only on survivors); the output set and order
/// are identical to the pre-pruning generate-all-and-dedup path, which
/// survives as [`connected_graphs_unpruned`] for the equivalence tests.
///
/// # Panics
///
/// Panics if `n > 10`.
pub fn connected_graphs(n: usize) -> Vec<Graph> {
    let mut tagged: Vec<(Graph, CanonKey)> = Vec::new();
    bnf_stream::for_each_connected(n, |g, key| tagged.push((g, key)));
    let out = sort_deterministically(tagged);
    debug_assert!(n == 0 || out.iter().all(Graph::is_connected));
    out
}

/// The pre-pruning reference implementation of [`connected_graphs`]:
/// canonicalizes every augmentation candidate and deduplicates in a
/// hash set. Exists so tests can certify the pruned path produces the
/// identical catalogue; new code should call [`connected_graphs`].
///
/// # Panics
///
/// Panics if `n > 10`.
pub fn connected_graphs_unpruned(n: usize) -> Vec<Graph> {
    let mut tagged: Vec<(Graph, CanonKey)> = Vec::new();
    bnf_stream::for_each_connected_unpruned(n, |g, key| tagged.push((g, key)));
    sort_deterministically(tagged)
}

/// All non-isomorphic free trees on `n` vertices, in canonical form.
///
/// # Panics
///
/// Panics if `n > 16`.
pub fn free_trees(n: usize) -> Vec<Graph> {
    assert!(n <= 16, "tree enumeration beyond n=16 is not supported");
    if n == 0 {
        return vec![Graph::empty(0)];
    }
    let mut cur = vec![Graph::empty(1)];
    for k in 1..n {
        // Attach the new vertex as a leaf to each possible anchor.
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for parent in &cur {
            for anchor in 0..k {
                // Attach as a leaf of `anchor`: a one-bit neighbour set.
                let nbrs = VertexSet::from_mask(k, 1u64 << anchor);
                let (child, key) = parent.with_extra_vertex(&nbrs).canonical_form_and_key();
                if !seen.contains(&key) {
                    seen.insert(key.clone());
                    out.push((child, key));
                }
            }
        }
        cur = sort_deterministically(out);
    }
    debug_assert!(cur.iter().all(Graph::is_tree));
    cur
}

/// Streaming variant of [`connected_graphs`]: invokes `visit` once per
/// non-isomorphic connected graph on `n` vertices (in canonical form,
/// unspecified order), without ever materializing the list.
///
/// # Memory contract
///
/// `O(largest single enumeration level)`: at any moment this holds one
/// level's parent frontier, the *next* frontier being built (for
/// intermediate levels), and one level's canonical-key dedup set —
/// never the final graph list. It delegates to
/// `bnf_stream::for_each_connected`; parallel classification workloads
/// should use the `bnf_engine` orchestrator, which adds work-stolen
/// frontier ranges and a deterministic output order on the same
/// producer.
///
/// # Panics
///
/// Panics if `n > 10`.
pub fn for_each_connected_graph<F: FnMut(&Graph)>(n: usize, mut visit: F) {
    bnf_stream::for_each_connected(n, |g, _key| visit(&g));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_counts_match_oeis_small() {
        for (n, &want) in GRAPH_COUNTS.iter().enumerate().take(8) {
            assert_eq!(
                all_graphs(n).len() as u64,
                want,
                "graph count mismatch at n={n}"
            );
        }
    }

    #[test]
    fn connected_counts_match_oeis_small() {
        for (n, &want) in CONNECTED_GRAPH_COUNTS.iter().enumerate().take(8) {
            assert_eq!(
                connected_graphs(n).len() as u64,
                want,
                "connected count mismatch at n={n}"
            );
        }
    }

    #[test]
    fn tree_counts_match_oeis() {
        for (n, &want) in FREE_TREE_COUNTS.iter().enumerate() {
            assert_eq!(
                free_trees(n).len() as u64,
                want,
                "tree count mismatch at n={n}"
            );
        }
    }

    #[test]
    fn connected_graphs_are_connected_and_distinct() {
        let gs = connected_graphs(6);
        assert!(gs.iter().all(Graph::is_connected));
        let keys: std::collections::HashSet<_> = gs.iter().map(Graph::canonical_key).collect();
        assert_eq!(keys.len(), gs.len());
    }

    #[test]
    fn all_graphs_include_disconnected() {
        let gs = all_graphs(4);
        assert!(gs.iter().any(|g| !g.is_connected()));
        assert!(gs.iter().any(|g| g.edge_count() == 0));
        assert!(gs.iter().any(|g| g.edge_count() == 6));
    }

    #[test]
    fn trees_are_trees() {
        let ts = free_trees(7);
        assert!(ts.iter().all(Graph::is_tree));
        // The path and the star are among them.
        assert!(ts
            .iter()
            .any(|t| t.degree_sequence() == vec![6, 1, 1, 1, 1, 1, 1]));
        assert!(ts
            .iter()
            .any(|t| t.degree_sequence() == vec![2, 2, 2, 2, 2, 1, 1]));
    }

    #[test]
    fn pruned_equals_unpruned_catalogue() {
        // Same graphs, same order — the canonical-construction pruning
        // must be invisible to every consumer of the catalogue.
        for n in 0..8 {
            assert_eq!(connected_graphs(n), connected_graphs_unpruned(n), "n={n}");
        }
    }

    #[test]
    fn deterministic_ordering() {
        let a = connected_graphs(5);
        let b = connected_graphs(5);
        assert_eq!(a, b);
        // Sorted by edge count first.
        assert!(a.windows(2).all(|w| w[0].edge_count() <= w[1].edge_count()));
    }

    #[test]
    fn trivial_orders() {
        assert_eq!(all_graphs(0).len(), 1);
        assert_eq!(connected_graphs(1).len(), 1);
        assert_eq!(free_trees(1).len(), 1);
        assert_eq!(free_trees(2).len(), 1);
    }
}
