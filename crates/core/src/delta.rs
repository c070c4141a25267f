//! Distance-sum deltas under single-link moves.
//!
//! Every stability and equilibrium condition in the paper compares the
//! link cost α to the change in a player's distance sum `Σ_j d(i,j)`
//! caused by adding or severing one link. These deltas are exact integers
//! (or infinite, when a move disconnects/connects components).
//!
//! Two forms answer the same question: [`DeltaCalc`] computes one
//! delta per query (point checks, dynamics), and [`DeltaTable`] measures
//! every single-link delta of a connected graph at once — the one pass
//! the BCG, transfer and UCG-necessary windows all fold over.

use bnf_graph::{BfsScratch, Graph};

/// Distance sums from `src` over the row-substituted graph: the base rows
/// of `g` with `rows[src]` replaced by `src_row`. Only expansion *out of*
/// `src` uses the substituted row, which is sound because `src` is the
/// BFS source (edges into `src` are never needed).
pub(crate) fn distsum_with_row(rows: &[u64], n: usize, src: usize, src_row: u64) -> Option<u64> {
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let mut seen = 1u64 << src;
    let mut frontier = seen;
    let mut d = 0u64;
    let mut sum = 0u64;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let v = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= if v == src { src_row } else { rows[v] };
        }
        next &= !seen;
        d += 1;
        sum += d * u64::from(next.count_ones());
        seen |= next;
        frontier = next;
    }
    (seen == full).then_some(sum)
}

/// The single-link deltas of one vertex pair `u < v`, as
/// [`DeltaTable::pairs`] yields them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkDeltas {
    /// An existing link: the increase in `u`'s and in `v`'s distance sum
    /// when that endpoint severs it (`None` for a bridge).
    Edge(Option<u64>, Option<u64>),
    /// A missing link: the decrease in `u`'s and in `v`'s distance sum
    /// when it is added.
    NonEdge(u64, u64),
}

/// Every single-link distance-sum delta of one **connected** graph,
/// measured once: the base sum `D_i` of every player and, for every
/// ordered pair `i ≠ j`, the change `|D_i(row_i ⊕ {j}) − D_i|` when `i`
/// toggles its link to `j`.
///
/// For orders up to 64 that is `n²` bitset BFS over the adjacency rows
/// ([`distsum_with_row`]: toggling a link only changes the source's own
/// row, which is the only row a BFS from the source expands through
/// it). Larger orders fill the same table through [`DeltaCalc`]. The
/// BCG, transfer and UCG-necessary windows are min/max folds over
/// [`DeltaTable::pairs`].
#[derive(Debug)]
pub(crate) struct DeltaTable<'g> {
    g: &'g Graph,
    /// `D_i` per vertex.
    base: Vec<u64>,
    /// `delta[i * n + j]`: drop delta for an edge, add delta for a
    /// non-edge; [`DeltaTable::BRIDGE`] when dropping disconnects `i`.
    delta: Vec<u64>,
}

impl<'g> DeltaTable<'g> {
    /// Sentinel delta of a bridge drop (infinite cost).
    const BRIDGE: u64 = u64::MAX;

    /// Measures every single-link delta of `g`, or `None` when `g` is
    /// disconnected. `scratch` serves the BFS of orders above 64.
    pub(crate) fn new(g: &'g Graph, scratch: &mut BfsScratch) -> Option<DeltaTable<'g>> {
        let n = g.order();
        let mut t = DeltaTable {
            g,
            base: Vec::with_capacity(n),
            delta: vec![0; n * n],
        };
        if n <= 64 {
            t.fill_bitset()?;
        } else {
            let mut calc = DeltaCalc::with_scratch(g, std::mem::take(scratch));
            let filled = t.fill_calc(&mut calc);
            *scratch = calc.into_scratch();
            filled?;
        }
        Some(t)
    }

    fn fill_bitset(&mut self) -> Option<()> {
        let n = self.g.order();
        let mut rows = [0u64; 64];
        for (v, row) in rows.iter_mut().enumerate().take(n) {
            *row = self.g.neighbor_bits(v);
        }
        let rows = &rows[..n];
        for i in 0..n {
            let base = distsum_with_row(rows, n, i, rows[i])?;
            self.base.push(base);
            for j in (0..n).filter(|&j| j != i) {
                let after = distsum_with_row(rows, n, i, rows[i] ^ (1u64 << j));
                self.delta[i * n + j] = if rows[i] >> j & 1 == 1 {
                    after.map_or(Self::BRIDGE, |a| a - base)
                } else {
                    base - after.expect("adding a link keeps a connected graph connected")
                };
            }
        }
        Some(())
    }

    fn fill_calc(&mut self, calc: &mut DeltaCalc<'_>) -> Option<()> {
        let n = self.g.order();
        for i in 0..n {
            self.base.push(calc.base_distance_sum(i)?);
        }
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let d = if self.g.has_edge(i, j) {
                    calc.drop_delta(i, j)
                } else {
                    calc.add_delta(i, j)
                };
                self.delta[i * n + j] = d.finite().unwrap_or(Self::BRIDGE);
            }
        }
        Some(())
    }

    /// The ordered-pair distance total `Σ_i D_i`.
    pub(crate) fn total_distance(&self) -> u64 {
        self.base.iter().sum()
    }

    /// Every vertex pair `u < v` with its two endpoint deltas.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = LinkDeltas> + '_ {
        let n = self.g.order();
        (0..n).flat_map(move |u| {
            (u + 1..n).map(move |v| {
                let (uv, vu) = (self.delta[u * n + v], self.delta[v * n + u]);
                if self.g.has_edge(u, v) {
                    let finite = |d: u64| (d != Self::BRIDGE).then_some(d);
                    LinkDeltas::Edge(finite(uv), finite(vu))
                } else {
                    LinkDeltas::NonEdge(uv, vu)
                }
            })
        })
    }
}

/// An exact nonnegative distance-sum change: finite or infinite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceDelta {
    /// A finite change in hops.
    Finite(u64),
    /// The move connects or disconnects the player's component.
    Infinite,
}

impl DistanceDelta {
    /// The finite value, if any.
    pub fn finite(&self) -> Option<u64> {
        match self {
            DistanceDelta::Finite(v) => Some(*v),
            DistanceDelta::Infinite => None,
        }
    }

    /// Whether the delta is infinite.
    pub fn is_infinite(&self) -> bool {
        matches!(self, DistanceDelta::Infinite)
    }
}

/// Reusable calculator for link-move deltas on one graph.
///
/// Keeps a scratch BFS buffer and the base distance sums so repeated
/// queries (one per edge endpoint and non-edge endpoint, as in the
/// stability window computation) do minimal work.
///
/// # Examples
///
/// ```
/// use bnf_core::{DeltaCalc, DistanceDelta};
/// use bnf_graph::Graph;
///
/// // On the 4-cycle, severing an edge costs its endpoint 2 extra hops...
/// let c4 = Graph::from_edges(4, (0..4).map(|i| (i, (i + 1) % 4)))?;
/// let mut calc = DeltaCalc::new(&c4);
/// assert_eq!(calc.drop_delta(0, 1), DistanceDelta::Finite(2));
/// // ...and adding a chord saves 1 hop.
/// assert_eq!(calc.add_delta(0, 2), DistanceDelta::Finite(1));
/// # Ok::<(), bnf_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct DeltaCalc<'g> {
    g: &'g Graph,
    scratch: BfsScratch,
    work: Graph,
    base: Vec<Option<u64>>, // distance sum per vertex; None = disconnected
}

impl<'g> DeltaCalc<'g> {
    /// Prepares a calculator for `g` (computes all base distance sums).
    pub fn new(g: &'g Graph) -> Self {
        Self::with_scratch(g, BfsScratch::new())
    }

    /// Prepares a calculator reusing an existing BFS scratch — the
    /// allocation-free form for workers that classify many graphs (take
    /// the scratch back with [`DeltaCalc::into_scratch`]).
    pub fn with_scratch(g: &'g Graph, mut scratch: BfsScratch) -> Self {
        let n = g.order();
        let base = (0..n)
            .map(|v| g.distance_sum_with(v, &mut scratch).finite_total(n))
            .collect();
        DeltaCalc {
            g,
            scratch,
            work: g.clone(),
            base,
        }
    }

    /// Recovers the scratch buffers for reuse on the next graph.
    pub fn into_scratch(self) -> BfsScratch {
        self.scratch
    }

    /// The base distance sum of `i` (`None` when `g` is disconnected).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn base_distance_sum(&self, i: usize) -> Option<u64> {
        self.base[i]
    }

    /// Increase in `i`'s distance sum when the existing edge `(i, j)` is
    /// severed. [`DistanceDelta::Infinite`] when the edge is a bridge (the
    /// deviator's cost becomes infinite).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is not an edge of the graph.
    pub fn drop_delta(&mut self, i: usize, j: usize) -> DistanceDelta {
        assert!(
            self.g.has_edge(i, j),
            "drop_delta requires an existing edge ({i},{j})"
        );
        let n = self.g.order();
        self.work.remove_edge(i, j);
        let after = self.work.distance_sum_with(i, &mut self.scratch);
        self.work.add_edge(i, j);
        match (after.finite_total(n), self.base[i]) {
            (Some(a), Some(b)) => {
                debug_assert!(a >= b, "removing an edge cannot shorten paths");
                DistanceDelta::Finite(a - b)
            }
            // Base disconnected: distances within i's component still
            // change finitely, but both costs are infinite; treat the move
            // as infinite (it cannot flip an infinite cost to finite).
            _ => DistanceDelta::Infinite,
        }
    }

    /// Decrease in `i`'s distance sum when the missing edge `(i, j)` is
    /// added. [`DistanceDelta::Infinite`] when `j` was unreachable from
    /// `i` (the link merges components, an infinite gain).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is an edge of the graph or `i == j`.
    pub fn add_delta(&mut self, i: usize, j: usize) -> DistanceDelta {
        assert!(
            !self.g.has_edge(i, j),
            "add_delta requires a missing edge ({i},{j})"
        );
        let n = self.g.order();
        self.work.add_edge(i, j);
        let after = self.work.distance_sum_with(i, &mut self.scratch);
        self.work.remove_edge(i, j);
        match (self.base[i], after.finite_total(n)) {
            (Some(b), Some(a)) => {
                debug_assert!(b >= a, "adding an edge cannot lengthen paths");
                DistanceDelta::Finite(b - a)
            }
            (None, Some(_)) => DistanceDelta::Infinite,
            (None, None) => {
                // Still disconnected afterwards: compare reachable sums —
                // an infinite-cost player strictly gains from any new
                // reachability; otherwise compare the finite parts.
                let before = self.g.distance_sum_with(i, &mut self.scratch);
                if after.reached > before.reached {
                    DistanceDelta::Infinite
                } else {
                    DistanceDelta::Finite(before.sum.saturating_sub(after.sum))
                }
            }
            (Some(_), None) => unreachable!("adding an edge cannot disconnect"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn cycle_drop_deltas_match_formula() {
        // Removing an incident edge of C_n turns i into a path endpoint:
        // delta = n(n-1)/2 - percycle where percycle = n^2/4 (even),
        // (n^2-1)/4 (odd).
        for n in [4usize, 5, 6, 7, 8, 9, 10] {
            let g = cycle(n);
            let mut calc = DeltaCalc::new(&g);
            let path_sum = (n * (n - 1) / 2) as u64;
            let cyc_sum = if n % 2 == 0 {
                (n * n / 4) as u64
            } else {
                ((n * n - 1) / 4) as u64
            };
            assert_eq!(
                calc.drop_delta(0, 1),
                DistanceDelta::Finite(path_sum - cyc_sum),
                "n={n}"
            );
        }
    }

    #[test]
    fn cycle_add_deltas_antipodal() {
        // C6 + chord (0,3): d(0,3) drops 3 -> 1, others unchanged: Δ = 2.
        // C6 + chord (0,2): d(0,2) 2 -> 1 and d(0,3) 3 -> 2: Δ = 2 too.
        let g = cycle(6);
        let mut calc = DeltaCalc::new(&g);
        assert_eq!(calc.add_delta(0, 3), DistanceDelta::Finite(2));
        assert_eq!(calc.add_delta(0, 2), DistanceDelta::Finite(2));
        // C7 + chord (0,2): d(0,2) saves 1, d(0,3) saves 1: Δ = 2;
        // antipodal-ish chord (0,3): d(0,3) 3->1, d(0,4) 3->2: Δ = 3.
        let g7 = cycle(7);
        let mut calc7 = DeltaCalc::new(&g7);
        assert_eq!(calc7.add_delta(0, 2), DistanceDelta::Finite(2));
        assert_eq!(calc7.add_delta(0, 3), DistanceDelta::Finite(3));
    }

    #[test]
    fn bridge_drop_is_infinite() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut calc = DeltaCalc::new(&g);
        assert_eq!(calc.drop_delta(1, 2), DistanceDelta::Infinite);
        assert_eq!(calc.drop_delta(0, 1), DistanceDelta::Infinite);
    }

    #[test]
    fn connecting_components_is_infinite_gain() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut calc = DeltaCalc::new(&g);
        assert_eq!(calc.add_delta(0, 2), DistanceDelta::Infinite);
        assert_eq!(calc.base_distance_sum(0), None);
    }

    #[test]
    fn add_within_component_of_disconnected_graph() {
        // Path 0-1-2-3 plus isolated 4: adding chord (0,2) saves 1 hop to
        // vertex 2 and 1 hop to vertex 3, while 4 stays unreachable.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut calc = DeltaCalc::new(&g);
        assert_eq!(calc.add_delta(0, 2), DistanceDelta::Finite(2));
    }

    #[test]
    fn non_bridge_drop_in_disconnected_graph_is_infinite_cost() {
        // Triangle 0-1-2 plus isolated 3: all costs infinite already; the
        // convention is Infinite (the move cannot rescue the player).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut calc = DeltaCalc::new(&g);
        assert_eq!(calc.drop_delta(0, 1), DistanceDelta::Infinite);
    }

    #[test]
    fn work_graph_restored_between_queries() {
        let g = cycle(5);
        let mut calc = DeltaCalc::new(&g);
        let first = calc.add_delta(0, 2);
        let second = calc.add_delta(0, 2);
        assert_eq!(first, second);
        let d1 = calc.drop_delta(0, 1);
        let d2 = calc.drop_delta(0, 1);
        assert_eq!(d1, d2);
    }

    #[test]
    fn complete_graph_deltas() {
        let g = Graph::complete(5);
        let mut calc = DeltaCalc::new(&g);
        // Dropping any edge raises the endpoint's sum by exactly 1.
        assert_eq!(calc.drop_delta(0, 1), DistanceDelta::Finite(1));
    }
}
