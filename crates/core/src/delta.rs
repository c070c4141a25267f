//! Distance-sum deltas under single-link moves.
//!
//! Every stability and equilibrium condition in the paper compares the
//! link cost α to the change in a player's distance sum `Σ_j d(i,j)`
//! caused by adding or severing one link. These deltas are exact integers
//! (or infinite, when a move disconnects/connects components).
//!
//! Two forms answer the same question: [`DeltaCalc`] computes one
//! delta per query (point checks, dynamics), and [`link_windows`] folds
//! every single-link delta of a connected graph in one pass over its
//! vertex pairs — the total distance, the BCG window, the transfer
//! window and the UCG necessary window at once. Up to order 64 the
//! deltas come from a [`DeltaTable`]: `n` bitset BFS give every byte
//! distance row, an addition delta is a sum over two of those rows, and
//! only an edge drop runs one more BFS.

use bnf_games::Ratio;
use bnf_graph::{BfsScratch, Graph};

use crate::interval::{ClosedInterval, LowerBound, StabilityWindow, Threshold};

/// Distance sums from `src` over the row-substituted graph: the base rows
/// of `g` with `rows[src]` replaced by `src_row` (which must not hold
/// `src`). Only expansion *out of* `src` uses the substituted row, which
/// is sound because `src` is the BFS source (edges into `src` are never
/// needed). Every reached vertex is expanded once, at its own distance,
/// so the sum adds up there and needs no popcount per level.
pub(crate) fn distsum_with_row(rows: &[u64], n: usize, src: usize, src_row: u64) -> Option<u64> {
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let mut seen = 1u64 << src | src_row;
    let mut frontier = src_row;
    let mut d = 1u64;
    let mut sum = 0u64;
    while frontier != 0 {
        let mut next = 0u64;
        while frontier != 0 {
            next |= rows[frontier.trailing_zeros() as usize];
            frontier &= frontier - 1;
            sum += d;
        }
        frontier = next & !seen;
        seen |= frontier;
        d += 1;
    }
    (seen == full).then_some(sum)
}

/// The single-link deltas of one **connected** graph of order at most
/// 64: its adjacency rows and every distance `d(i, v)` as a byte (a
/// connected graph on 64 vertices has no distance above 63), measured
/// by `n` bitset BFS. The base sums `D_i` fall out of the same BFS, and
/// every single-link delta is read from them on demand
/// ([`DeltaTable::delta`]):
///
/// - adding the missing link `i–j` saves `i` exactly
///   `Σ_v max(0, d(i,v) − 1 − d(j,v))` — a shortest path that uses the
///   new link leaves `i` through it, and the rest of it, from `j`, is
///   an old shortest path;
/// - dropping the link `i–j` runs one BFS from `i` over the rows with
///   `i`'s own row toggled ([`distsum_with_row`]: a BFS from the source
///   expands through no other copy of the link).
#[derive(Debug)]
pub(crate) struct DeltaTable {
    n: usize,
    rows: [u64; 64],
    /// `D_i` per vertex.
    base: [u64; 64],
    /// `dist[i][v] = d(i, v)`; every lane at or past `n` is 0.
    dist: [[u8; 64]; 64],
}

impl DeltaTable {
    /// Sentinel delta of a bridge drop (infinite cost).
    pub(crate) const BRIDGE: u64 = u64::MAX;

    /// Measures the distance rows of `g`, or `None` when `g` is
    /// disconnected.
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds 64.
    #[cfg(test)]
    pub(crate) fn new(g: &Graph) -> Option<DeltaTable> {
        let mut t = DeltaTable::EMPTY;
        t.measure(g).then_some(t)
    }

    const EMPTY: DeltaTable = DeltaTable {
        n: 0,
        rows: [0; 64],
        base: [0; 64],
        dist: [[0; 64]; 64],
    };

    /// Fills a [`DeltaTable::EMPTY`] table with the rows of `g`;
    /// `false` when `g` is disconnected.
    fn measure(&mut self, g: &Graph) -> bool {
        let n = g.order();
        assert!(n <= 64, "the distance-row table covers orders up to 64");
        self.n = n;
        for (v, row) in self.rows.iter_mut().enumerate().take(n) {
            *row = g.neighbor_bits(v);
        }
        let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
        for src in 0..n {
            let dist = &mut self.dist[src];
            let mut seen = 1u64 << src | self.rows[src];
            let mut frontier = self.rows[src];
            let mut d = 1u8;
            let mut sum = 0u64;
            while frontier != 0 {
                let mut next = 0u64;
                while frontier != 0 {
                    let v = frontier.trailing_zeros() as usize;
                    frontier &= frontier - 1;
                    next |= self.rows[v];
                    dist[v] = d;
                    sum += u64::from(d);
                }
                frontier = next & !seen;
                seen |= frontier;
                d += 1;
            }
            if seen != full {
                return false;
            }
            self.base[src] = sum;
        }
        true
    }

    /// The ordered-pair distance total `Σ_i D_i`.
    pub(crate) fn total_distance(&self) -> u64 {
        self.base[..self.n].iter().sum()
    }

    /// `D_i`.
    #[cfg(test)]
    pub(crate) fn base(&self, i: usize) -> u64 {
        self.base[i]
    }

    /// Whether `i–j` is a link.
    #[inline]
    fn linked(&self, i: usize, j: usize) -> bool {
        self.rows[i] >> j & 1 == 1
    }

    /// The change in `i`'s distance sum when `i` toggles its link to
    /// `j ≠ i`: the increase for a drop ([`DeltaTable::BRIDGE`] when the
    /// drop disconnects `i`), the decrease for an addition.
    #[inline]
    pub(crate) fn delta(&self, i: usize, j: usize) -> u64 {
        if self.linked(i, j) {
            let row = self.rows[i] & !(1u64 << j);
            distsum_with_row(&self.rows[..self.n], self.n, i, row)
                .map_or(Self::BRIDGE, |after| after - self.base[i])
        } else {
            add_saving(&self.dist[i], &self.dist[j], self.n.div_ceil(8))
        }
    }
}

/// `Σ_v max(0, from[v] − 1 − to[v])` over the first `words` eight-byte
/// words of two distance rows, in SWAR: every distance is at most 63,
/// so per byte `128 + from − to − 1` lies in `[64, 191]` — no borrow
/// crosses a byte, and the high bit is set exactly where the saving is
/// nonnegative. The savings (at most 62 each) add up in 16-bit lanes.
#[inline]
fn add_saving(from: &[u8; 64], to: &[u8; 64], words: usize) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES << 7;
    const LOW_BYTES: u64 = 0x00FF_00FF_00FF_00FF;
    let word = |row: &[u8; 64], w: usize| {
        u64::from_le_bytes(row[8 * w..8 * w + 8].try_into().expect("eight bytes"))
    };
    let mut lanes = 0u64;
    for w in 0..words {
        let r = (word(from, w) | HIGH) - (word(to, w) + ONES);
        let nonnegative = ((r & HIGH) >> 7) * 0xFF;
        let saved = r & !HIGH & nonnegative;
        lanes += (saved & LOW_BYTES) + (saved >> 8 & LOW_BYTES);
    }
    lanes.wrapping_mul(0x0001_0001_0001_0001) >> 48
}

/// Everything the single-link deltas of one connected graph decide,
/// from [`link_windows`]'s one pass over its vertex pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkWindows {
    /// The ordered-pair distance total `Σ_i D_i`.
    pub(crate) total_distance: u64,
    /// The Lemma 2 window: `α_max` is the smallest finite drop delta,
    /// `α_min` the largest per-missing-link `min(Δu, Δv)` (inclusive
    /// only when every binding pair benefits equally). A connected
    /// graph has no infinite addition benefit, so it always exists.
    pub(crate) stability: StabilityWindow,
    /// The transfer window: the largest joint addition benefit over 2
    /// below, the smallest finite joint severance penalty over 2 above.
    pub(crate) transfer: Option<ClosedInterval>,
    /// The UCG necessary window: the largest endpoint addition benefit
    /// below, the smallest per-edge `max(Δdrop_u, Δdrop_v)` above (a
    /// bridge caps nothing).
    pub(crate) necessary: Option<ClosedInterval>,
}

/// The running bounds of [`link_windows`]' pass. `u64::MAX` stands for
/// "no upper bound yet", as [`DeltaTable::BRIDGE`] stands for an
/// infinite drop delta.
struct PairFold {
    bcg_upper: u64,
    /// `(value, inclusive)`, folded as `LowerBound::max` does:
    /// exclusivity wins ties. Starts at the trivial `α > 0`.
    bcg_lower: (u64, bool),
    transfer_lo: u64,
    transfer_hi: u64,
    necessary_lo: u64,
    necessary_hi: u64,
}

impl PairFold {
    const fn new() -> PairFold {
        PairFold {
            bcg_upper: u64::MAX,
            bcg_lower: (0, false),
            transfer_lo: 0,
            transfer_hi: u64::MAX,
            necessary_lo: 0,
            necessary_hi: u64::MAX,
        }
    }

    /// An existing link with its two drop deltas.
    #[inline]
    fn edge(&mut self, du: u64, dv: u64) {
        self.bcg_upper = self.bcg_upper.min(du).min(dv);
        if du != DeltaTable::BRIDGE && dv != DeltaTable::BRIDGE {
            self.transfer_hi = self.transfer_hi.min(du + dv);
            self.necessary_hi = self.necessary_hi.min(du.max(dv));
        }
    }

    /// A missing link with its two addition deltas.
    #[inline]
    fn non_edge(&mut self, du: u64, dv: u64) {
        let (value, inclusive) = (du.min(dv), du == dv);
        if value > self.bcg_lower.0 {
            self.bcg_lower = (value, inclusive);
        } else if value == self.bcg_lower.0 {
            self.bcg_lower.1 &= inclusive;
        }
        self.transfer_lo = self.transfer_lo.max(du + dv);
        self.necessary_lo = self.necessary_lo.max(du).max(dv);
    }

    fn finish(self, total_distance: u64) -> LinkWindows {
        let upper = |v: u64, scale: fn(u64) -> Ratio| {
            if v == u64::MAX {
                Threshold::Infinite
            } else {
                Threshold::Finite(scale(v))
            }
        };
        let closed = |lo: u64, hi: u64, scale: fn(u64) -> Ratio| {
            (hi >= lo).then(|| ClosedInterval {
                lo: scale(lo),
                hi: upper(hi, scale),
            })
        };
        let whole = |v: u64| Ratio::from(v as i64);
        LinkWindows {
            total_distance,
            stability: StabilityWindow {
                lower: LowerBound {
                    value: whole(self.bcg_lower.0),
                    inclusive: self.bcg_lower.1,
                },
                upper: upper(self.bcg_upper, whole),
            },
            transfer: closed(self.transfer_lo, self.transfer_hi, |j| {
                Ratio::new(j as i64, 2)
            }),
            necessary: closed(self.necessary_lo, self.necessary_hi, whole),
        }
    }
}

/// Every window the single-link deltas of `g` decide, in one pass over
/// the vertex pairs `u < v` — or `None` when `g` is disconnected. Up to
/// order 64 the deltas come from a [`DeltaTable`]; above it, from one
/// [`DeltaCalc`] query each, on `scratch`'s BFS buffers.
pub(crate) fn link_windows(g: &Graph, scratch: &mut BfsScratch) -> Option<LinkWindows> {
    let n = g.order();
    let mut fold = PairFold::new();
    if n <= 64 {
        // Filled in place: returning the 5 KiB table by value copies it,
        // which cost ≈ 0.04 s over the n = 9 catalogue.
        let mut t = DeltaTable::EMPTY;
        if !t.measure(g) {
            return None;
        }
        for u in 0..n {
            for v in u + 1..n {
                let (du, dv) = (t.delta(u, v), t.delta(v, u));
                if t.linked(u, v) {
                    fold.edge(du, dv);
                } else {
                    fold.non_edge(du, dv);
                }
            }
        }
        return Some(fold.finish(t.total_distance()));
    }
    let mut calc = DeltaCalc::with_scratch(g, std::mem::take(scratch));
    let total = (0..n)
        .map(|i| calc.base_distance_sum(i))
        .sum::<Option<u64>>();
    if total.is_some() {
        let finite = |d: DistanceDelta| d.finite().unwrap_or(DeltaTable::BRIDGE);
        for u in 0..n {
            for v in u + 1..n {
                if g.has_edge(u, v) {
                    fold.edge(finite(calc.drop_delta(u, v)), finite(calc.drop_delta(v, u)));
                } else {
                    fold.non_edge(finite(calc.add_delta(u, v)), finite(calc.add_delta(v, u)));
                }
            }
        }
    }
    *scratch = calc.into_scratch();
    total.map(|total| fold.finish(total))
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
