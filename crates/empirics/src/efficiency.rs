//! Lemmas 4 and 5, verified exhaustively: at each link cost the
//! efficient graph over ALL connected topologies is the complete graph
//! (α < 1), the star (α > 1), and exactly those two tie at α = 1.
//!
//! Since PR 3 this scan folds the shared [`WindowRecord`] catalogue (a
//! [`WindowSweep`]) instead of running its own engine job: the social
//! cost needs only (order, edges, total distance), and the minimizer
//! shape certificate is derivable from the same fields — a connected
//! graph is complete iff it has all `n(n-1)/2` edges, and a tree
//! (`n-1` edges) is the star iff its ordered distance total hits the
//! tree minimum `2(n-1)²` (the star uniquely minimizes the Wiener
//! index over trees). Sharing the emitter means `efficiency_scan`
//! rides the same `--atlas` cache as the figure sweeps.

use bnf_core::WindowRecord;
use bnf_games::{optimal_social_cost, CostSummary, GameKind, Ratio};

use crate::sweep::WindowSweep;

/// How an efficiency minimizer is labelled in the Lemma 4/5 tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinimizerShape {
    /// The complete graph `K_n`.
    Complete,
    /// The star `K_{1,n-1}`.
    Star,
    /// Anything else (possible only if a lemma were violated), tagged
    /// with its edge count.
    Other(u64),
}

impl MinimizerShape {
    /// Labels one classified topology on `n` vertices.
    fn of(n: usize, rec: &WindowRecord) -> MinimizerShape {
        if rec.edges == (n * n.saturating_sub(1) / 2) as u64 {
            MinimizerShape::Complete
        } else if rec.edges == n.saturating_sub(1) as u64
            && rec.total_distance == star_total_distance(n)
        {
            MinimizerShape::Star
        } else {
            MinimizerShape::Other(rec.edges)
        }
    }
}

/// Ordered-pair distance total of the star `K_{1,n-1}` — the unique
/// minimum over trees on `n` vertices: `2(n-1)` hub pairs at distance 1
/// plus `(n-1)(n-2)` leaf pairs at distance 2.
fn star_total_distance(n: usize) -> u64 {
    let m = n.saturating_sub(1) as u64;
    2 * m * m
}

impl std::fmt::Display for MinimizerShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizerShape::Complete => write!(f, "complete"),
            MinimizerShape::Star => write!(f, "star"),
            MinimizerShape::Other(m) => write!(f, "other(m={m})"),
        }
    }
}

/// One row of the exhaustive Lemma 4/5 verification table.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// The link cost.
    pub alpha: Ratio,
    /// The exhaustive minimum social cost over all connected topologies.
    pub min_cost: Ratio,
    /// The closed-form optimum of Lemmas 4/5.
    pub formula: Ratio,
    /// Whether the exhaustive minimum matches the closed form.
    pub matches: bool,
    /// The shape of every minimizer at this α.
    pub minimizers: Vec<MinimizerShape>,
}

/// The complete Lemma 4/5 verification: the per-α table plus how many
/// topologies were scanned.
#[derive(Debug, Clone)]
pub struct EfficiencyScan {
    /// Number of players.
    pub n: usize,
    /// Number of connected topologies classified (the exhaustive base).
    pub topologies: usize,
    /// One verification row per α.
    pub rows: Vec<EfficiencyRow>,
}

/// Classifies every connected topology on `n` vertices through the
/// shared window emitter ([`WindowSweep::run`]) and folds the per-α
/// efficiency table.
///
/// # Panics
///
/// Panics if `n` exceeds [`crate::max_sweep_n`] (the `BNF_MAX_N`
/// opt-in shared by every exhaustive scan) or the α grid is empty.
pub fn efficiency_rows(n: usize, alphas: &[Ratio], threads: usize) -> EfficiencyScan {
    efficiency_scan_windows(&WindowSweep::run(n, threads, None), alphas)
}

/// The per-α minimization over an already-classified [`WindowSweep`] —
/// the shared fold behind [`efficiency_rows`] and the atlas-backed
/// `efficiency_scan` binary.
///
/// # Panics
///
/// Panics if the α grid is empty (the enumeration may be empty only
/// for `n = 0`, which no caller reaches).
pub fn efficiency_scan_windows(windows: &WindowSweep, alphas: &[Ratio]) -> EfficiencyScan {
    assert!(!alphas.is_empty(), "the α grid must be nonempty");
    let n = windows.n;
    let records = &windows.records;
    let rows = alphas
        .iter()
        .map(|&alpha| {
            let costs: Vec<Ratio> = records
                .iter()
                .map(|r| {
                    CostSummary {
                        order: n,
                        edges: r.edges,
                        total_distance: Some(r.total_distance),
                        kind: GameKind::Bilateral,
                    }
                    .social_cost_exact(alpha)
                    .expect("connected")
                })
                .collect();
            let min_cost = costs.iter().copied().min().expect("nonempty enumeration");
            let minimizers: Vec<MinimizerShape> = records
                .iter()
                .zip(&costs)
                .filter(|&(_, &c)| c == min_cost)
                .map(|(r, _)| MinimizerShape::of(n, r))
                .collect();
            let formula = optimal_social_cost(GameKind::Bilateral, n, alpha);
            EfficiencyRow {
                alpha,
                min_cost,
                formula,
                matches: min_cost == formula,
                minimizers,
            }
        })
        .collect();
    EfficiencyScan {
        n,
        topologies: records.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemmas_4_and_5_hold_exhaustively_at_n5() {
        let alphas = [Ratio::new(1, 2), Ratio::ONE, Ratio::from(2), Ratio::from(8)];
        let scan = efficiency_rows(5, &alphas, 2);
        assert_eq!(scan.n, 5);
        assert_eq!(scan.topologies, 21); // A001349(5)
        let rows = scan.rows;
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.matches,
                "alpha={}: {} != {}",
                row.alpha, row.min_cost, row.formula
            );
        }
        // α < 1: unique minimizer, the complete graph.
        assert_eq!(rows[0].minimizers, vec![MinimizerShape::Complete]);
        // α = 1 is the crossover: EVERY diameter-≤2 graph meets the
        // bound (see tests/efficiency_lemmas.rs), the complete graph and
        // the star among them.
        assert!(rows[1].minimizers.len() > 2);
        assert!(rows[1].minimizers.contains(&MinimizerShape::Complete));
        assert!(rows[1].minimizers.contains(&MinimizerShape::Star));
        assert!(rows[1]
            .minimizers
            .iter()
            .any(|s| matches!(s, MinimizerShape::Other(_))));
        // α > 1: unique minimizer, the star.
        for row in &rows[2..] {
            assert_eq!(
                row.minimizers,
                vec![MinimizerShape::Star],
                "alpha={}",
                row.alpha
            );
        }
    }

    #[test]
    fn streaming_scan_matches_materializing() {
        // The orchestrated scan against the same fold over the
        // materialized reference catalogue.
        let alphas = [Ratio::new(1, 2), Ratio::ONE, Ratio::from(3)];
        let reference = crate::per_alpha::reference_sweep(6);
        let mat = efficiency_scan_windows(&reference, &alphas);
        let stream = efficiency_rows(6, &alphas, 2);
        assert_eq!(stream.topologies, mat.topologies);
        for (s, m) in stream.rows.iter().zip(mat.rows.iter()) {
            assert_eq!(s.alpha, m.alpha);
            assert_eq!(s.min_cost, m.min_cost);
            assert_eq!(s.matches, m.matches);
            assert_eq!(s.minimizers, m.minimizers);
        }
    }

    #[test]
    fn star_certificate_matches_structural_check() {
        // The distance-sum star test must agree with the structural
        // "tree with a universal vertex" definition on every connected
        // topology (trees and non-trees alike) at small n.
        use bnf_enumerate::connected_graphs;
        for n in 2..=6 {
            for g in connected_graphs(n) {
                let structural = g.is_tree() && (0..n).any(|v| g.degree(v) == n - 1);
                let rec = WindowRecord {
                    key: String::new(),
                    order: n as u32,
                    edges: g.edge_count() as u64,
                    total_distance: g.total_distance().unwrap(),
                    stability: None,
                    transfer: None,
                    ucg_support: Vec::new(),
                };
                // `of` labels K2 "complete" first (as the old job's
                // table did); a Complete-labelled *tree* is still a
                // structural star.
                let labelled_star = match MinimizerShape::of(n, &rec) {
                    MinimizerShape::Star => true,
                    MinimizerShape::Complete => rec.edges == (n - 1) as u64,
                    MinimizerShape::Other(_) => false,
                };
                assert_eq!(labelled_star, structural, "n={n}, g={}", g.to_graph6());
            }
        }
    }

    #[test]
    fn shape_labels_render() {
        assert_eq!(MinimizerShape::Complete.to_string(), "complete");
        assert_eq!(MinimizerShape::Star.to_string(), "star");
        assert_eq!(MinimizerShape::Other(9).to_string(), "other(m=9)");
    }
}
