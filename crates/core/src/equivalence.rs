//! Kernel equivalence suite, over every connected graph up to order 7
//! (order 8 behind `--ignored`, run in release): every entry of the
//! single-link Δ table against a per-query [`DeltaCalc`], and the
//! windows of the one pass over it, the ranked UCG tables and the
//! α-resolved orientation solver against the per-query [`DeltaCalc`]
//! window bodies, the per-wish-set best-response fold and the
//! edge-by-edge backtracker they replaced. The UCG distance
//! certificate is held sound against that fold, and at order 9 (also
//! `--ignored`) every one-point record against the analyzer.
//! Seeded random graphs of orders 10, 17, 40 and 64 hold the table's
//! entries to [`DeltaCalc`] past the first 16 byte lanes.
//! Solver against backtracker at order ≤ 7 runs once, in
//! `ucg::tests::propagating_solver_matches_oracle_exhaustively`, through
//! the same [`assert_solver_matches_oracle`] the order-8 run uses.
//!
//! [`DeltaCalc`]: crate::DeltaCalc

use bnf_games::Ratio;
use bnf_graph::{BfsScratch, Graph};

use crate::delta::DeltaTable;
use crate::interval::{ClosedInterval, Threshold};
use crate::stability::{is_pairwise_stable, stability_window_oracle, stability_window_with};
use crate::transfers::{
    is_transfer_stable, transfer_stability_window_with, transfer_window_oracle,
};
use crate::ucg::{
    best_response_tables_oracle, certified, necessary_window_oracle, ucg_necessary_window_with,
};
use crate::{DeltaCalc, DistanceDelta, UcgAnalyzer, WindowRecord};

/// Probes covering every cell a window can have: each positive
/// endpoint, the midpoints between neighbours, a point below the first
/// and one beyond the last.
fn probes(endpoints: impl IntoIterator<Item = Ratio>) -> Vec<Ratio> {
    let mut e: Vec<Ratio> = endpoints.into_iter().filter(|&x| x > Ratio::ZERO).collect();
    if e.is_empty() {
        e.push(Ratio::ONE);
    }
    e.sort();
    e.dedup();
    let mut out = vec![e[0] / Ratio::from(2)];
    for (k, &x) in e.iter().enumerate() {
        if k > 0 {
            out.push(Ratio::midpoint(e[k - 1], x));
        }
        out.push(x);
    }
    out.push(*e.last().expect("nonempty") + Ratio::ONE);
    out
}

/// Every entry of `g`'s [`DeltaTable`] — each base sum, each drop delta
/// ([`DeltaTable::BRIDGE`] for a bridge) and each addition delta —
/// equals the [`DeltaCalc`] answer to the same query.
fn assert_table_matches_calc(g: &Graph) {
    let table = DeltaTable::new(g).expect("connected graph");
    let mut calc = DeltaCalc::new(g);
    let n = g.order();
    for i in 0..n {
        assert_eq!(
            Some(table.base(i)),
            calc.base_distance_sum(i),
            "{g:?}: D_{i}"
        );
        for j in (0..n).filter(|&j| j != i) {
            let expected = if g.has_edge(i, j) {
                calc.drop_delta(i, j)
            } else {
                calc.add_delta(i, j)
            };
            let expected = match expected {
                DistanceDelta::Finite(d) => d,
                DistanceDelta::Infinite => DeltaTable::BRIDGE,
            };
            assert_eq!(table.delta(i, j), expected, "{g:?}: delta ({i}, {j})");
        }
    }
}

/// Every check of the suite on one connected graph; the certificate's
/// cells are tallied in `counts`.
fn assert_kernels_match(g: &Graph, scratch: &mut BfsScratch, counts: &mut Certified) {
    assert_table_matches_calc(g);
    let bcg = stability_window_with(g, scratch);
    let transfer = transfer_stability_window_with(g, scratch);
    let necessary = ucg_necessary_window_with(g, scratch);
    assert_eq!(bcg, stability_window_oracle(g), "{g:?}: BCG window");
    assert_eq!(
        transfer,
        transfer_window_oracle(g),
        "{g:?}: transfer window"
    );
    assert_eq!(
        necessary,
        necessary_window_oracle(g),
        "{g:?}: necessary window"
    );

    let record = WindowRecord::classify_with_key(g.to_graph6(), g, scratch);
    assert_eq!(Some(record.total_distance), g.total_distance(), "{g:?}");
    assert_eq!(
        (record.stability, record.transfer),
        (bcg, transfer),
        "{g:?}: record windows"
    );

    let w = bcg.expect("connected graphs have a BCG window");
    for p in probes([w.lower.value].into_iter().chain(w.upper.finite())) {
        assert_eq!(w.contains(p), is_pairwise_stable(g, p), "{g:?}: BCG at {p}");
    }
    let ends = transfer.map_or(Vec::new(), |t| {
        std::iter::once(t.lo).chain(t.hi.finite()).collect()
    });
    for p in probes(ends) {
        assert_eq!(
            transfer.is_some_and(|t| t.contains(p)),
            is_transfer_stable(g, p),
            "{g:?}: transfer at {p}"
        );
    }

    let oracle = best_response_tables_oracle(g);
    assert_tables_match(g, &oracle);
    assert_clip_keeps_support(g, necessary, &record.ucg_support);
    assert_certificate_sound(g, &oracle, counts);
}

/// Every (vertex, owned set) entry of the ranked tables equals the
/// per-wish-set fold of `oracle`, `None`s included.
fn assert_tables_match(g: &Graph, oracle: &[Vec<(u64, ClosedInterval)>]) {
    let ucg = UcgAnalyzer::new(g).expect("connected graph in the UCG domain");
    for (i, oracle) in oracle.iter().enumerate() {
        let row = g.neighbor_bits(i);
        let mut o = row;
        loop {
            let expected = oracle
                .binary_search_by_key(&o, |&(m, _)| m)
                .ok()
                .map(|k| oracle[k].1);
            assert_eq!(
                ucg.best_response_window(i, o),
                expected,
                "{g:?}: vertex {i}, owned {o:#b}"
            );
            if o == 0 {
                break;
            }
            o = (o - 1) & row;
        }
    }
}

/// Certified and uncertified (vertex, integer α) cells met by
/// [`assert_certificate_sound`].
#[derive(Debug, Default)]
struct Certified {
    cleared: usize,
    left: usize,
}

/// The distance certificate against the per-wish-set fold: at every
/// positive integer `a` up to one past the largest finite endpoint of
/// `oracle`, each vertex the certificate clears has every owned set
/// `O ⊆ N(i)` in its oracle table with an interval containing `a`. The
/// points come from the oracle tables alone, never from the analyzer.
/// Each cell is tallied in `counts`.
fn assert_certificate_sound(
    g: &Graph,
    oracle: &[Vec<(u64, ClosedInterval)>],
    counts: &mut Certified,
) {
    let n = g.order();
    let top = oracle
        .iter()
        .flatten()
        .flat_map(|(_, iv)| std::iter::once(iv.lo).chain(iv.hi.finite()))
        .max()
        .unwrap_or(Ratio::ZERO);
    let last = top.numer().div_euclid(top.denom()) + 1;
    let dists: Vec<u32> = (0..n).map(|i| g.distance_sum(i).sum as u32).collect();
    for a in 1..=last {
        let alpha = Ratio::from(a);
        let a = u32::try_from(a).expect("small endpoint");
        for (i, table) in oracle.iter().enumerate() {
            if !certified(n, dists[i], g.degree(i) as u32, a) {
                counts.left += 1;
                continue;
            }
            counts.cleared += 1;
            let admissible = table.iter().filter(|(_, iv)| iv.contains(alpha)).count();
            assert_eq!(
                admissible,
                1 << g.degree(i),
                "{g:?}: vertex {i} certified at alpha={a}, yet some owned set is no best response"
            );
        }
    }
}

/// The necessary window is a valid clip: probing only inside it (a
/// single point probed once, for most graphs) reports the full support
/// set — and so does the window record, whose certified point windows
/// never build the analyzer.
fn assert_clip_keeps_support(
    g: &Graph,
    necessary: Option<ClosedInterval>,
    record_support: &[ClosedInterval],
) {
    let ucg = UcgAnalyzer::new(g).expect("connected graph in the UCG domain");
    let full = ucg.support_intervals();
    match necessary {
        Some(nec) => assert_eq!(
            ucg.support_intervals_within(nec),
            full,
            "{g:?}: clip {nec} changed the support set"
        ),
        None => assert!(full.is_empty(), "{g:?}: supportable without a window"),
    }
    assert_eq!(record_support, full, "{g:?}: record support");
}

/// [`probes`] around every endpoint of every vertex's best-response
/// table, read entry by entry through
/// [`UcgAnalyzer::best_response_window`] — built apart from the probe
/// sequence `support_intervals` uses, so a probe that sequence drops
/// still gets checked.
pub(crate) fn table_probes(ucg: &UcgAnalyzer, g: &Graph) -> Vec<Ratio> {
    let mut ends = Vec::new();
    for v in 0..g.order() {
        let row = g.neighbor_bits(v);
        let mut o = row;
        loop {
            if let Some(iv) = ucg.best_response_window(v, o) {
                ends.push(iv.lo);
                ends.extend(iv.hi.finite());
            }
            if o == 0 {
                break;
            }
            o = (o - 1) & row;
        }
    }
    probes(ends)
}

/// The orientation solver against the backtracking oracle at every
/// [`table_probes`] point: both agree on supportability and every
/// witness either returns is valid.
pub(crate) fn assert_solver_matches_oracle(g: &Graph) {
    let ucg = UcgAnalyzer::new(g).expect("connected graph in the UCG domain");
    for p in table_probes(&ucg, g) {
        let witness = ucg.find_orientation(p);
        let oracle = ucg.find_orientation_oracle(p);
        assert_eq!(witness.is_some(), oracle.is_some(), "{g:?} at alpha={p}");
        for owners in [witness, oracle].into_iter().flatten() {
            assert_witness_supports(&ucg, g, &owners, p);
        }
    }
}

/// `owners` orients every edge of `g` exactly once, and every vertex's
/// owned set has a best-response interval containing `alpha`.
fn assert_witness_supports(ucg: &UcgAnalyzer, g: &Graph, owners: &[(usize, usize)], alpha: Ratio) {
    let mut owned = vec![0u64; g.order()];
    let mut covered = Graph::empty(g.order());
    for &(buyer, other) in owners {
        assert!(covered.add_edge(buyer, other), "{g:?}: edge bought twice");
        owned[buyer] |= 1 << other;
    }
    assert_eq!(
        &covered, g,
        "{g:?}: witness misses an edge at alpha={alpha}"
    );
    for (v, &o) in owned.iter().enumerate() {
        assert!(
            ucg.best_response_window(v, o)
                .is_some_and(|iv| iv.contains(alpha)),
            "{g:?}: vertex {v} owning {o:#b} is no best response at alpha={alpha}"
        );
    }
}

/// The whole suite over every connected order-`n` graph. From order 4
/// on, the certificate must both clear and leave some cell, so neither
/// side of [`assert_certificate_sound`] passes vacuously.
fn assert_order(n: usize) {
    let mut scratch = BfsScratch::new();
    let mut counts = Certified::default();
    for g in bnf_enumerate::connected_graphs(n) {
        assert_kernels_match(&g, &mut scratch, &mut counts);
    }
    if n >= 4 {
        assert!(
            counts.cleared > 0 && counts.left > 0,
            "order {n}: certificate cells {counts:?}"
        );
    }
}

#[test]
fn kernels_match_oracles_through_order_7() {
    for n in 0..=7 {
        assert_order(n);
    }
}

#[test]
#[ignore = "exhaustive over the 11 117 connected order-8 graphs; run in release"]
fn kernels_match_oracles_at_order_8() {
    assert_order(8);
    for g in bnf_enumerate::connected_graphs(8) {
        assert_solver_matches_oracle(&g);
    }
}

#[test]
#[ignore = "exhaustive over the 261 080 connected order-9 graphs; run in release"]
fn point_records_match_the_analyzer_at_order_9() {
    // Every order-9 graph whose necessary window is one point: the
    // record's support (the certificate, or the analyzer for a graph it
    // does not clear) equals the analyzer's through that window.
    let mut scratch = BfsScratch::new();
    let (mut points, mut cleared) = (0, 0);
    for g in bnf_enumerate::connected_graphs(9) {
        let Some(nec) = ucg_necessary_window_with(&g, &mut scratch) else {
            continue;
        };
        if !(nec.lo > Ratio::ZERO && nec.hi == Threshold::Finite(nec.lo)) {
            continue;
        }
        points += 1;
        let a = u32::try_from(nec.lo.numer()).expect("integer point");
        let every_vertex = (0..9).all(|i| {
            let dist = g.distance_sum(i).sum as u32;
            certified(9, dist, g.degree(i) as u32, a)
        });
        cleared += usize::from(every_vertex);
        let record = WindowRecord::classify_with_key(g.to_graph6(), &g, &mut scratch);
        let ucg = UcgAnalyzer::new(&g).expect("connected graph in the UCG domain");
        assert_eq!(
            record.ucg_support,
            ucg.support_intervals_within(nec),
            "{g:?}: record support at the point {nec}"
        );
    }
    assert_eq!((points, cleared), (91_829, 91_415));
}

/// A connected graph on `n` vertices from `seed` (splitmix64): a random
/// spanning tree — each vertex links to a uniform earlier one — plus
/// every other pair with probability `extra_per_mille / 1000`.
fn seeded_connected(n: usize, seed: u64, extra_per_mille: u64) -> Graph {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut g = Graph::empty(n);
    for v in 1..n {
        let u = (next() % v as u64) as usize;
        g.add_edge(u, v);
    }
    for u in 0..n {
        for v in u + 1..n {
            if next() % 1000 < extra_per_mille {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[test]
fn table_entries_match_delta_calc_past_sixteen_lanes() {
    // Orders 10, 17, 40 and 64, from trees (long distances, every edge a
    // bridge) to dense graphs; the 64-path has the largest distance a
    // byte row holds, 63, and the largest per-lane addition saving, 62.
    let path = Graph::from_edges(64, (0..63).map(|i| (i, i + 1))).unwrap();
    let cycle = Graph::from_edges(64, (0..64).map(|i| (i, (i + 1) % 64))).unwrap();
    assert_table_matches_calc(&path);
    assert_table_matches_calc(&cycle);
    for n in [10, 17, 40, 64] {
        for (seed, extra) in [(1, 0), (2, 5), (3, 30), (4, 150), (5, 600)] {
            assert_table_matches_calc(&seeded_connected(n, seed * 1000 + n as u64, extra));
        }
    }
}

#[test]
fn tables_match_oracle_up_to_the_order_bound() {
    // Byte lanes must stay exact at MAX_UCG_ORDER: the 16-path's end
    // vertex has the largest possible distance sum, 120.
    let path = Graph::from_edges(16, (0..15).map(|i| (i, i + 1))).unwrap();
    let cycle = Graph::from_edges(16, (0..16).map(|i| (i, (i + 1) % 16))).unwrap();
    let petersen = Graph::from_edges(
        10,
        (0..5).flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]),
    )
    .unwrap();
    let mut counts = Certified::default();
    for g in [path, cycle, petersen] {
        let oracle = best_response_tables_oracle(&g);
        assert_tables_match(&g, &oracle);
        assert_certificate_sound(&g, &oracle, &mut counts);
    }
    // Past order 8 the certificate meets the oracle only here.
    for n in [10, 12] {
        for (seed, extra) in [(6, 100), (7, 400), (8, 700), (9, 900)] {
            let g = seeded_connected(n, seed * 1000 + n as u64, extra);
            assert_certificate_sound(&g, &best_response_tables_oracle(&g), &mut counts);
        }
    }
    assert!(
        counts.cleared > 0 && counts.left > 0,
        "certificate cells {counts:?}"
    );
}

#[test]
fn wrappers_reject_every_disconnected_graph() {
    let mut scratch = BfsScratch::new();
    for n in 2..=5usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        for bits in 0u32..1 << pairs.len() {
            let edges = (0..pairs.len())
                .filter(|k| bits >> k & 1 == 1)
                .map(|k| pairs[k]);
            let g = Graph::from_edges(n, edges).unwrap();
            if g.is_connected() {
                continue;
            }
            assert_eq!(stability_window_with(&g, &mut scratch), None, "{g:?}");
            assert_eq!(
                transfer_stability_window_with(&g, &mut scratch),
                None,
                "{g:?}"
            );
            assert_eq!(ucg_necessary_window_with(&g, &mut scratch), None, "{g:?}");
            assert_eq!(stability_window_oracle(&g), None, "{g:?}");
            assert_eq!(transfer_window_oracle(&g), None, "{g:?}");
        }
    }
}

#[test]
fn orders_beyond_one_word_fill_the_table_by_delta_calc() {
    // Order 70 rows span two words: the table takes the DeltaCalc path
    // and must still agree with the oracle bodies.
    let mut scratch = BfsScratch::new();
    let cycle = Graph::from_edges(70, (0..70).map(|i| (i, (i + 1) % 70))).unwrap();
    let w = stability_window_with(&cycle, &mut scratch).unwrap();
    assert_eq!(w.upper, Threshold::Finite(Ratio::from(70 * 68 / 4)));
    let mut lollipop = Graph::from_edges(66, (0..65).map(|i| (i, i + 1))).unwrap();
    lollipop.add_edge(0, 2);
    for g in [cycle, lollipop] {
        assert_eq!(
            stability_window_with(&g, &mut scratch),
            stability_window_oracle(&g)
        );
        assert_eq!(
            transfer_stability_window_with(&g, &mut scratch),
            transfer_window_oracle(&g)
        );
        assert_eq!(
            ucg_necessary_window_with(&g, &mut scratch),
            necessary_window_oracle(&g)
        );
    }
    let split = Graph::from_edges(70, (0..68).map(|i| (i, i + 1))).unwrap();
    assert_eq!(stability_window_with(&split, &mut scratch), None);
    assert_eq!(transfer_stability_window_with(&split, &mut scratch), None);
    assert_eq!(ucg_necessary_window_with(&split, &mut scratch), None);
}
