//! The α-independent per-graph classification record.
//!
//! Every equilibrium question the empirical harness asks — "is `G`
//! pairwise stable / transfer-stable / UCG-Nash-supportable at α?" — is
//! a membership test of α in an exact rational window that depends only
//! on the topology. A [`WindowRecord`] captures those windows (plus the
//! cost ingredients: edge count and total distance) once, so any α grid
//! can be evaluated afterwards as a pure post-pass, and the whole record
//! can be persisted in a classification atlas keyed by the canonical
//! graph6 string (`bnf-atlas`'s store).

use bnf_graph::{BfsScratch, Graph};

use crate::delta::link_windows;
use crate::interval::{ClosedInterval, StabilityWindow};
use crate::ucg;

use bnf_games::Ratio;

/// The complete α-independent classification of one connected topology:
/// canonical identity, cost ingredients, and every equilibrium window
/// the harness tracks.
///
/// Equality is structural; two records for the same canonical key must
/// be identical (the classification is a pure function of the key), and
/// the atlas store enforces this on append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// graph6 encoding of the canonical form — the cache key.
    pub key: String,
    /// Number of vertices.
    pub order: u32,
    /// Number of edges `|A|`.
    pub edges: u64,
    /// Exact ordered-pair distance total `Σ_{i,j} d(i,j)`.
    pub total_distance: u64,
    /// The BCG pairwise-stability window (Lemma 2), or `None` when no
    /// positive α is stable.
    pub stability: Option<StabilityWindow>,
    /// The pairwise-stability-with-transfers window, or `None`.
    pub transfer: Option<ClosedInterval>,
    /// The exact UCG Nash-supportability set as disjoint closed
    /// intervals in increasing order (empty when never supportable; the
    /// last interval may be unbounded above).
    pub ucg_support: Vec<ClosedInterval>,
}

impl WindowRecord {
    /// Classifies a graph **already in canonical form** whose canonical
    /// graph6 key the caller supplies (the analysis-engine record path:
    /// enumeration emits canonical forms, so `g.to_graph6()` *is* the
    /// key there).
    ///
    /// One pass over the vertex pairs reads every single-link delta once
    /// — `n` bitset BFS give the distance rows and base sums, each
    /// addition delta is a sum over two rows, each drop delta one more
    /// BFS — and folds the total distance, the BCG window, the transfer
    /// window and the UCG necessary window together. An empty necessary
    /// window answers the UCG column at once; a single positive point
    /// `a` — nearly every sweep graph's — is settled by the distance
    /// certificate (`n` BFS, no table, no search) whenever every vertex
    /// passes it; only the rest, and every proper interval, build the
    /// exact [`crate::UcgAnalyzer`] and probe its tables.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected (every sweep enumerates connected
    /// topologies) or exceeds [`crate::MAX_UCG_ORDER`].
    pub fn classify_with_key(key: String, g: &Graph, scratch: &mut BfsScratch) -> WindowRecord {
        let windows = link_windows(g, scratch).expect("window records require a connected graph");
        // Orientation-free necessary bounds first (the Section 5
        // footnote): an empty necessary window proves the support set is
        // empty without touching the exponential solver, and a finite
        // one clips the solver's probe sequence.
        let ucg_support = match windows.necessary {
            None => Vec::new(),
            Some(nec) => ucg::support_within_necessary(g, nec, scratch),
        };
        WindowRecord {
            key,
            order: g.order() as u32,
            edges: g.edge_count() as u64,
            total_distance: windows.total_distance,
            stability: Some(windows.stability),
            transfer: windows.transfer,
            ucg_support,
        }
    }

    /// Classifies an arbitrary connected graph: canonicalizes first, so
    /// isomorphic inputs produce byte-identical records.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`WindowRecord::classify_with_key`].
    pub fn classify(g: &Graph, scratch: &mut BfsScratch) -> WindowRecord {
        let canon = g.canonical_form();
        let key = canon.to_graph6();
        Self::classify_with_key(key, &canon, scratch)
    }

    /// Whether the topology is pairwise stable in the BCG at `alpha`.
    pub fn bcg_stable(&self, alpha: Ratio) -> bool {
        self.stability.is_some_and(|w| w.contains(alpha))
    }

    /// Whether the topology is pairwise stable with transfers at
    /// `alpha`.
    pub fn transfer_stable(&self, alpha: Ratio) -> bool {
        self.transfer.is_some_and(|w| w.contains(alpha))
    }

    /// Whether the topology is Nash-supportable in the UCG at `alpha`
    /// (positive α only — the model has no free links).
    pub fn ucg_nash(&self, alpha: Ratio) -> bool {
        alpha > Ratio::ZERO && self.ucg_support.iter().any(|iv| iv.contains(alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Threshold;
    use crate::UcgAnalyzer;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn star(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (0, i))).unwrap()
    }

    #[test]
    fn record_matches_direct_window_queries() {
        let mut scratch = BfsScratch::new();
        for g in [star(6), cycle(6), cycle(5), Graph::complete(5)] {
            let rec = WindowRecord::classify(&g, &mut scratch);
            assert_eq!(rec.order as usize, g.order());
            assert_eq!(rec.edges as usize, g.edge_count());
            assert_eq!(Some(rec.total_distance), g.total_distance());
            for num in 1..40 {
                let a = Ratio::new(num, 3);
                assert_eq!(
                    rec.bcg_stable(a),
                    crate::stability_window(&g).is_some_and(|w| w.contains(a)),
                    "bcg at {a}"
                );
                assert_eq!(
                    rec.transfer_stable(a),
                    crate::transfer_stability_window(&g).is_some_and(|w| w.contains(a)),
                    "transfer at {a}"
                );
                assert_eq!(
                    rec.ucg_nash(a),
                    UcgAnalyzer::new(&g).unwrap().is_nash_supportable(a),
                    "ucg at {a}"
                );
            }
        }
    }

    #[test]
    fn record_key_is_canonical_graph6() {
        // Two labellings of the same path produce the same record.
        let mut scratch = BfsScratch::new();
        let p3a = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let p3b = Graph::from_edges(3, [(0, 2), (2, 1)]).unwrap();
        let ra = WindowRecord::classify(&p3a, &mut scratch);
        let rb = WindowRecord::classify(&p3b, &mut scratch);
        assert_eq!(ra, rb);
        assert_eq!(
            Graph::from_graph6(&ra.key).unwrap().canonical_key(),
            p3a.canonical_key()
        );
    }

    #[test]
    fn cycle6_support_empty_star_unbounded() {
        let mut scratch = BfsScratch::new();
        let rec = WindowRecord::classify(&cycle(6), &mut scratch);
        assert!(rec.ucg_support.is_empty());
        assert!(rec.stability.is_some(), "C6 is BCG-stable somewhere");
        let rec = WindowRecord::classify(&star(7), &mut scratch);
        assert_eq!(rec.ucg_support.len(), 1);
        assert_eq!(rec.ucg_support[0].lo, Ratio::ONE);
        assert_eq!(rec.ucg_support[0].hi, Threshold::Infinite);
    }

    #[test]
    fn ucg_membership_requires_positive_alpha() {
        let mut scratch = BfsScratch::new();
        let rec = WindowRecord::classify(&Graph::complete(3), &mut scratch);
        assert!(!rec.ucg_nash(Ratio::ZERO));
        assert!(rec.ucg_nash(Ratio::new(1, 2)));
    }
}
