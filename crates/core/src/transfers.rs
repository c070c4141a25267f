//! Pairwise stability **with transfers** — the paper's concluding
//! future-work direction ("how bilateral … transfers between players may
//! help mediate the price of anarchy").
//!
//! With side payments the unit of account for a link is the *pair*: the
//! two endpoints can split the joint link cost `2α` however they like,
//! so a missing link is blocking iff the pair's *joint* distance saving
//! strictly exceeds `2α`, and an existing link survives iff the joint
//! penalty of severing it is at least `2α` (otherwise the pair
//! renegotiates it away). This is the transfer variant of
//! Jackson–Wolinsky pairwise stability specialised to the connection
//! game's equal-α-per-endpoint cost structure.
//!
//! Both conditions are weak inequalities, so the stable region is a
//! *closed* rational interval — contrast the half-open window of the
//! no-transfer game, whose lower end depends on whether the endpoint
//! benefits are equal.

use bnf_games::Ratio;
use bnf_graph::{BfsScratch, Graph};

use crate::delta::{link_windows, DeltaCalc, DistanceDelta};
use crate::interval::ClosedInterval;
#[cfg(test)]
use crate::interval::Threshold;

fn joint(a: DistanceDelta, b: DistanceDelta) -> Option<u64> {
    match (a, b) {
        (DistanceDelta::Finite(x), DistanceDelta::Finite(y)) => Some(x + y),
        _ => None,
    }
}

/// Whether `g` is pairwise stable with transfers at link cost `alpha`:
/// no pair can jointly profit from adding its missing link (splitting
/// the `2α` cost) and no pair jointly profits from severing an existing
/// one (recovering the `2α`).
///
/// # Panics
///
/// Panics if `alpha <= 0`.
pub fn is_transfer_stable(g: &Graph, alpha: Ratio) -> bool {
    assert!(alpha > Ratio::ZERO, "link cost must be positive");
    let two_alpha = alpha + alpha;
    let mut calc = DeltaCalc::new(g);
    for (u, v) in g.edges().collect::<Vec<_>>() {
        // Joint severance surplus: 2α - (Δu + Δv) must not be positive.
        if let Some(j) = joint(calc.drop_delta(u, v), calc.drop_delta(v, u)) {
            if two_alpha > Ratio::from(j as i64) {
                return false;
            }
        }
    }
    for (u, v) in g.non_edges().collect::<Vec<_>>() {
        match joint(calc.add_delta(u, v), calc.add_delta(v, u)) {
            Some(j) => {
                if Ratio::from(j as i64) > two_alpha {
                    return false;
                }
            }
            // Infinite joint benefit (reconnecting components): blocking
            // at every α.
            None => return false,
        }
    }
    true
}

/// The exact closed interval of link costs at which `g` is pairwise
/// stable with transfers, or `None` when no positive α qualifies
/// (always the case for disconnected graphs).
pub fn transfer_stability_window(g: &Graph) -> Option<ClosedInterval> {
    let mut scratch = BfsScratch::new();
    transfer_stability_window_with(g, &mut scratch)
}

/// [`transfer_stability_window`] with caller-provided BFS buffers (used
/// for orders above 64; smaller graphs run on adjacency bit rows): the
/// transfer part of the one pass over single-link deltas.
pub fn transfer_stability_window_with(
    g: &Graph,
    scratch: &mut BfsScratch,
) -> Option<ClosedInterval> {
    link_windows(g, scratch).and_then(|w| w.transfer)
}

/// The pre-table window body: one [`DeltaCalc`] query per endpoint,
/// kept as the independent oracle of [`transfer_stability_window_with`].
#[cfg(test)]
pub(crate) fn transfer_window_oracle(g: &Graph) -> Option<ClosedInterval> {
    let mut calc = DeltaCalc::new(g);
    let mut lo = Ratio::ZERO;
    for (u, v) in g.non_edges().collect::<Vec<_>>() {
        match joint(calc.add_delta(u, v), calc.add_delta(v, u)) {
            Some(j) => lo = Ratio::max(lo, Ratio::new(j as i64, 2)),
            None => return None,
        }
    }
    let mut hi = Threshold::Infinite;
    for (u, v) in g.edges().collect::<Vec<_>>() {
        if let Some(j) = joint(calc.drop_delta(u, v), calc.drop_delta(v, u)) {
            hi = Threshold::min(hi, Threshold::Finite(Ratio::new(j as i64, 2)));
        }
    }
    match hi {
        Threshold::Finite(h) if h < lo => None,
        _ => Some(ClosedInterval { lo, hi }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::stability_window;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn star(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (0, i))).unwrap()
    }

    #[test]
    fn star_and_complete_windows() {
        // Star: leaf pairs jointly save 2, so stable for α ≥ 1; bridges
        // give no upper end. Complete: joint severance penalty 2, so
        // stable for α ≤ 1 — same extremes as without transfers.
        let s = transfer_stability_window(&star(6)).unwrap();
        assert_eq!(s.lo, Ratio::ONE);
        assert_eq!(s.hi, Threshold::Infinite);
        let k = transfer_stability_window(&Graph::complete(6)).unwrap();
        assert_eq!(k.hi, Threshold::Finite(Ratio::ONE));
        assert!(is_transfer_stable(&star(6), Ratio::from(7)));
        assert!(is_transfer_stable(&Graph::complete(6), Ratio::ONE));
        assert!(!is_transfer_stable(&Graph::complete(6), Ratio::new(3, 2)));
    }

    #[test]
    fn symmetric_graphs_unchanged_by_transfers() {
        // On vertex- and edge-transitive graphs the endpoint deltas are
        // equal, so joint/2 coincides with each endpoint's delta and the
        // windows agree (up to the closed lower end).
        for n in [5usize, 6, 8] {
            let g = cycle(n);
            let plain = stability_window(&g).unwrap();
            let with = transfer_stability_window(&g).unwrap();
            assert_eq!(with.lo, plain.lower.value);
            assert_eq!(with.hi, plain.upper);
        }
    }

    #[test]
    fn asymmetric_benefits_shift_both_ends_right() {
        // Spider (star with one subdivided leg): the (0,4) pair has
        // benefits (1, 3): without transfers the binding lower end comes
        // from min-benefit pairs; with transfers the joint sum moves the
        // lower end up to 2 as well — and severance of an interior edge
        // is now priced jointly.
        let t = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        let plain = stability_window(&t).unwrap();
        let with = transfer_stability_window(&t).unwrap();
        assert!(with.lo >= plain.lower.value);
        assert_eq!(with.lo, Ratio::from(2));
    }

    #[test]
    fn transfers_keep_theta_graph_stable_longer() {
        // The conjecture counterexample: without transfers the hub
        // severs for α > 2; with transfers the pair weighs the joint
        // penalty 2 + 3 = 5, so the link survives up to α = 5/2.
        let (g, _) = crate::theorems::conjecture_counterexample();
        let plain = stability_window(&g).unwrap();
        assert_eq!(plain.upper, Threshold::Finite(Ratio::from(2)));
        let with = transfer_stability_window(&g).unwrap();
        assert_eq!(with.hi, Threshold::Finite(Ratio::new(5, 2)));
        assert!(is_transfer_stable(&g, Ratio::new(9, 4)));
        assert!(!crate::stability::is_pairwise_stable(&g, Ratio::new(9, 4)));
    }

    #[test]
    fn window_matches_direct_check() {
        let graphs = [
            cycle(6),
            star(6),
            Graph::complete(5),
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap(),
            Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap(),
        ];
        for g in &graphs {
            let w = transfer_stability_window(g);
            for num in 1..30i64 {
                for den in [2i64, 3] {
                    let alpha = Ratio::new(num, den);
                    assert_eq!(
                        is_transfer_stable(g, alpha),
                        w.is_some_and(|w| w.contains(alpha) && alpha > Ratio::ZERO),
                        "{g:?} at {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_never_transfer_stable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(transfer_stability_window(&g), None);
        assert!(!is_transfer_stable(&g, Ratio::from(3)));
    }
}
