//! The core undirected simple-graph type.

use std::fmt;

use crate::bitset::{ones, popcount, set_bit, words_for, VertexSet};
use crate::error::GraphError;

/// An undirected simple graph on vertices `0..n`, stored as a bitset
/// adjacency matrix (row-major, `words` `u64` words per row).
///
/// This representation makes the operations that dominate equilibrium
/// analysis — BFS frontier expansion, edge toggling, neighbourhood
/// popcounts — word-parallel and allocation-free.
///
/// # Examples
///
/// ```
/// use bnf_graph::Graph;
///
/// let mut g = Graph::empty(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Graph {
    /// Creates the empty graph (no edges) on `n` vertices.
    pub fn empty(n: usize) -> Self {
        let words = words_for(n).max(1);
        Graph {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// Creates the complete graph on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Duplicate edges are ignored (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if an edge has equal endpoints.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Graph::empty(n);
        for (u, v) in edges {
            if u >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u,
                    order: n,
                });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    order: n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            g.add_edge(u, v);
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        popcount(&self.bits) / 2
    }

    /// Words per adjacency row (internal geometry, exposed to sibling modules).
    #[inline]
    pub(crate) fn row_words(&self) -> usize {
        self.words
    }

    /// Adjacency row of `v` as a word slice.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words..(v + 1) * self.words]
    }

    /// Mutable adjacency row of `v`; the caller keeps the matrix symmetric.
    #[inline]
    pub(crate) fn row_mut(&mut self, v: usize) -> &mut [u64] {
        &mut self.bits[v * self.words..(v + 1) * self.words]
    }

    #[inline]
    fn assert_vertex(&self, v: usize) {
        assert!(
            v < self.n,
            "vertex {v} out of range for graph of order {}",
            self.n
        );
    }

    #[inline]
    fn assert_pair(&self, u: usize, v: usize) {
        self.assert_vertex(u);
        self.assert_vertex(v);
        assert_ne!(u, v, "self-loop at vertex {u} is not allowed");
    }

    /// Whether the edge `(u, v)` is present.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.assert_pair(u, v);
        self.bits[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Adds the edge `(u, v)`; returns whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        self.assert_pair(u, v);
        let was = self.bits[u * self.words + v / 64] >> (v % 64) & 1;
        self.bits[u * self.words + v / 64] |= 1 << (v % 64);
        self.bits[v * self.words + u / 64] |= 1 << (u % 64);
        was == 0
    }

    /// Removes the edge `(u, v)`; returns whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        self.assert_pair(u, v);
        let was = self.bits[u * self.words + v / 64] >> (v % 64) & 1;
        self.bits[u * self.words + v / 64] &= !(1 << (v % 64));
        self.bits[v * self.words + u / 64] &= !(1 << (u % 64));
        was == 1
    }

    /// Returns a copy of this graph with edge `(u, v)` added.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn with_edge(&self, u: usize, v: usize) -> Graph {
        let mut g = self.clone();
        g.add_edge(u, v);
        g
    }

    /// Returns a copy of this graph with edge `(u, v)` removed.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn without_edge(&self, u: usize, v: usize) -> Graph {
        let mut g = self.clone();
        g.remove_edge(u, v);
        g
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.assert_vertex(v);
        popcount(self.row(v))
    }

    /// Iterates the neighbours of `v` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.assert_vertex(v);
        ones(self.row(v))
    }

    /// The neighbourhood of `v` as an owned [`VertexSet`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_set(&self, v: usize) -> VertexSet {
        self.assert_vertex(v);
        VertexSet::from_words(self.n, self.row(v).to_vec())
    }

    /// The neighbourhood of `v` as a single `u64` bit mask — the compact
    /// form used by the strategy-space solvers, which enumerate subsets of
    /// neighbourhoods as machine words.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the graph order exceeds 64.
    pub fn neighbor_bits(&self, v: usize) -> u64 {
        self.assert_vertex(v);
        assert!(self.n <= 64, "neighbor_bits requires order <= 64");
        self.row(v)[0]
    }

    /// Number of common neighbours of `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        self.assert_vertex(u);
        self.assert_vertex(v);
        self.row(u)
            .iter()
            .zip(self.row(v))
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates all edges as ordered pairs `(u, v)` with `u < v`,
    /// lexicographically.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            ones(self.row(u))
                .skip_while(move |&v| v < u)
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// Iterates all vertex pairs `(u, v)`, `u < v`, that are *not* edges.
    pub fn non_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n)
                .filter(move |&v| !self.has_edge(u, v))
                .map(move |v| (u, v))
        })
    }

    /// Degree sequence in non-increasing order.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = (0..self.n).map(|v| self.degree(v)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// The complement graph.
    pub fn complement(&self) -> Graph {
        let mut g = Graph::empty(self.n);
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Relabels vertices: vertex `v` of `self` becomes `perm[v]` in the
    /// result, so the result has edge `(perm[u], perm[v])` iff `self` has
    /// edge `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..order`.
    pub fn relabel(&self, perm: &[usize]) -> Graph {
        assert_eq!(perm.len(), self.n, "permutation length must equal order");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(
                p < self.n && !seen[p],
                "relabel requires a permutation of 0..order"
            );
            seen[p] = true;
        }
        let mut g = Graph::empty(self.n);
        for (u, &pu) in perm.iter().enumerate() {
            let row = g.row_mut(pu);
            for v in ones(self.row(u)) {
                set_bit(row, perm[v]);
            }
        }
        g
    }

    /// Induced subgraph on `verts` (result vertex `i` corresponds to
    /// `verts[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `verts` contains duplicates or out-of-range vertices.
    pub fn induced_subgraph(&self, verts: &[usize]) -> Graph {
        let mut seen = vec![false; self.n];
        for &v in verts {
            self.assert_vertex(v);
            assert!(!seen[v], "duplicate vertex {v} in induced subgraph");
            seen[v] = true;
        }
        let mut g = Graph::empty(verts.len());
        for i in 0..verts.len() {
            for j in (i + 1)..verts.len() {
                if self.has_edge(verts[i], verts[j]) {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Returns this graph extended with one extra vertex (index `order`)
    /// adjacent to exactly the members of `nbrs`.
    ///
    /// # Panics
    ///
    /// Panics if `nbrs` contains an index `>= order`.
    pub fn with_extra_vertex(&self, nbrs: &VertexSet) -> Graph {
        let mut g = Graph::empty(self.n + 1);
        for u in 0..self.n {
            g.row_mut(u)[..self.words].copy_from_slice(self.row(u));
        }
        for v in nbrs.iter() {
            assert!(v < self.n, "new-vertex neighbour {v} out of range");
            g.add_edge(self.n, v);
        }
        g
    }

    /// Deletes vertex `v`, shifting higher indices down by one.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn without_vertex(&self, v: usize) -> Graph {
        self.assert_vertex(v);
        let verts: Vec<usize> = (0..self.n).filter(|&u| u != v).collect();
        self.induced_subgraph(&verts)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={}, edges=[", self.n, self.edge_count())?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_complete() {
        let e = Graph::empty(5);
        assert_eq!(e.order(), 5);
        assert_eq!(e.edge_count(), 0);
        let k = Graph::complete(5);
        assert_eq!(k.edge_count(), 10);
        for u in 0..5 {
            assert_eq!(k.degree(u), 4);
        }
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(0, 3));
        assert!(!g.add_edge(3, 0), "re-adding an edge is a no-op");
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(3, 0));
        assert!(g.remove_edge(0, 3));
        assert!(!g.remove_edge(0, 3));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn from_edges_validates() {
        assert!(Graph::from_edges(3, [(0, 1), (1, 2)]).is_ok());
        assert_eq!(
            Graph::from_edges(3, [(0, 3)]),
            Err(GraphError::VertexOutOfRange {
                vertex: 3,
                order: 3
            })
        );
        assert_eq!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn edges_iteration_sorted() {
        let g = Graph::from_edges(4, [(2, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (2, 3)]);
        assert_eq!(
            g.non_edges().collect::<Vec<_>>(),
            vec![(0, 3), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn neighbors_and_common() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3)]).unwrap();
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(g.common_neighbors(0, 3), 1); // vertex 1
        assert_eq!(g.common_neighbors(0, 1), 1); // vertex 2
        assert_eq!(g.neighbor_set(0).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn complement_involution() {
        let g = Graph::from_edges(5, [(0, 1), (2, 4), (1, 3)]).unwrap();
        assert_eq!(g.complement().complement(), g);
        assert_eq!(g.edge_count() + g.complement().edge_count(), 10);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let perm = [3, 2, 1, 0];
        let h = g.relabel(&perm);
        assert!(h.has_edge(3, 2) && h.has_edge(2, 1) && h.has_edge(1, 0));
        assert_eq!(h.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        Graph::empty(3).relabel(&[0, 0, 1]);
    }

    #[test]
    fn induced_subgraph_maps_indices() {
        let g = Graph::from_edges(5, [(0, 2), (2, 4), (1, 3)]).unwrap();
        let h = g.induced_subgraph(&[0, 2, 4]);
        assert_eq!(h.order(), 3);
        assert_eq!(h.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn with_extra_vertex_appends() {
        let g = Graph::complete(3);
        let nbrs: VertexSet = [0usize, 2].into_iter().collect();
        let h = g.with_extra_vertex(&nbrs);
        assert_eq!(h.order(), 4);
        assert!(h.has_edge(3, 0) && h.has_edge(3, 2) && !h.has_edge(3, 1));
    }

    #[test]
    fn without_vertex_shifts() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = g.without_vertex(1);
        assert_eq!(h.order(), 3);
        // old vertices 0,2,3 -> new 0,1,2; surviving edge (2,3) -> (1,2)
        assert_eq!(h.edges().collect::<Vec<_>>(), vec![(1, 2)]);
    }

    #[test]
    fn large_order_spans_words() {
        let mut g = Graph::empty(130);
        g.add_edge(0, 129);
        g.add_edge(64, 65);
        assert!(g.has_edge(129, 0));
        assert_eq!(g.degree(64), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        Graph::empty(3).add_edge(1, 1);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Graph::empty(0)).is_empty());
        assert!(format!("{:?}", Graph::complete(3)).contains("0-1"));
    }
}
