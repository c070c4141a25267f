//! End-to-end equivalence of the streaming enumeration (`bnf-stream`)
//! with the materializing path it replaces — same canonical-key
//! multisets, same counts at n = 8, the same output order through the
//! engine seam — and of the canonical-construction pruned producer
//! with the generate-all-and-dedup oracle it replaced.

use std::collections::{BTreeMap, BTreeSet};

use bilateral_formation::engine::{Analysis, AnalysisEngine, WorkerScratch};
use bilateral_formation::enumerate::{
    connected_graphs, for_each_connected_graph, CONNECTED_GRAPH_COUNTS,
};
use bilateral_formation::graph::{CanonKey, Graph};
use bilateral_formation::stream::prune::{augment_connected_parent, PruneCounters};
use bilateral_formation::stream::{
    for_each_connected, for_each_connected_unpruned, ParentFrontier,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The streaming producer and the materialized list agree on the exact
/// multiset of canonical keys (the serial producer and a frontier built
/// on four threads both).
#[test]
fn key_multisets_match_to_n7() {
    for n in 0..=7 {
        let mut materialized: BTreeMap<CanonKey, u32> = BTreeMap::new();
        for g in connected_graphs(n) {
            *materialized.entry(g.canonical_key()).or_insert(0) += 1;
        }
        // The materialized list is duplicate-free by construction.
        assert!(materialized.values().all(|&c| c == 1), "n={n}");

        let mut serial: BTreeMap<CanonKey, u32> = BTreeMap::new();
        for_each_connected(n, |_, key| *serial.entry(key).or_insert(0) += 1);
        assert_eq!(serial, materialized, "serial streaming differs at n={n}");

        let mut parallel: BTreeMap<CanonKey, u32> = BTreeMap::new();
        let frontier = ParentFrontier::build(n, 4);
        frontier.stream_range(0, frontier.len(), |_, key| {
            *parallel.entry(key).or_insert(0) += 1
        });
        assert_eq!(
            parallel, materialized,
            "parallel streaming differs at n={n}"
        );
    }
}

/// OEIS A001349 cross-check for the streaming path at n = 8 — the order
/// the materializing tests already cover, now reached without holding
/// the 11 117-graph list.
#[test]
fn streaming_connected_count_n8() {
    let mut count = 0u64;
    for_each_connected_graph(8, |g| {
        assert_eq!(g.order(), 8);
        count += 1;
    });
    assert_eq!(count, CONNECTED_GRAPH_COUNTS[8]);
}

/// The canonical-construction pruned producer and the unpruned oracle
/// agree on the exact canonical-key multiset at n = 8 — four levels of
/// real candidate blowup, the order the nightly-scale sweeps start
/// from. (Smaller orders are covered per-crate; the pruning counters'
/// zero-duplicate invariant is asserted across every order by the
/// producer's own suite.)
#[test]
fn pruned_matches_unpruned_key_multiset_n8() {
    let mut pruned: Vec<CanonKey> = Vec::new();
    for_each_connected(8, |_, key| pruned.push(key));
    let mut oracle: Vec<CanonKey> = Vec::new();
    for_each_connected_unpruned(8, |_, key| oracle.push(key));
    assert_eq!(pruned.len() as u64, CONNECTED_GRAPH_COUNTS[8]);
    pruned.sort();
    oracle.sort();
    assert_eq!(pruned, oracle);
}

/// Seeded property: orbit-representative augmentation never drops a
/// survivor and never emits a class twice, whatever the parents'
/// labelling. Per level k ≤ 6, every parent is handed to
/// `augment_connected_parent` under a seeded random relabelling; the
/// union of accepted classes must be exactly the next level's
/// catalogue, with zero overlap between parents.
#[test]
fn orbit_representative_augmentation_never_drops_a_survivor() {
    let mut rng = StdRng::seed_from_u64(0x0B17_5EED);
    for k in 1..=6usize {
        let expected: BTreeSet<CanonKey> = connected_graphs(k + 1)
            .iter()
            .map(Graph::canonical_key)
            .collect();
        let mut counters = PruneCounters::default();
        let mut accepted: Vec<CanonKey> = Vec::new();
        for parent in connected_graphs(k) {
            let mut perm: Vec<usize> = (0..k).collect();
            perm.shuffle(&mut rng);
            let relabelled = parent.relabel(&perm);
            augment_connected_parent(&relabelled, &mut counters, |_, key| accepted.push(key));
        }
        let distinct: BTreeSet<CanonKey> = accepted.iter().cloned().collect();
        assert_eq!(distinct, expected, "level {k}: survivor set differs");
        assert_eq!(
            accepted.len(),
            distinct.len(),
            "level {k}: a class was accepted from two (parent, mask) pairs"
        );
        assert_eq!(counters.duplicates, 0, "level {k}");
        assert_eq!(counters.accepted() as usize, accepted.len(), "level {k}");
    }
}

/// The orchestrator returns classification outputs in the materialized
/// catalogue's exact deterministic order.
#[test]
fn engine_streaming_output_order_matches() {
    struct DistanceCensus;
    impl Analysis for DistanceCensus {
        type Output = (usize, u64);
        fn classify(&self, g: &Graph, s: &mut WorkerScratch) -> (usize, u64) {
            let d = g.total_distance_with(&mut s.bfs).expect("connected");
            (g.edge_count(), d)
        }
    }
    let engine = AnalysisEngine::new(2);
    let mut scratch = WorkerScratch::new();
    for n in [5, 6, 7] {
        let oracle: Vec<(usize, u64)> = connected_graphs(n)
            .iter()
            .map(|g| DistanceCensus.classify(g, &mut scratch))
            .collect();
        assert_eq!(
            engine
                .run_connected_streaming_keyed_orchestrated(n, None, &DistanceCensus, |_| {})
                .0,
            oracle,
            "n={n}"
        );
    }
}

/// The parallel frontier build's per-level stats match the known level
/// sizes whatever the thread count.
#[test]
fn stream_stats_thread_count_invariant() {
    for threads in [1, 2, 5] {
        let frontier = ParentFrontier::build(7, threads);
        let mut emitted = 0u64;
        let range = frontier.stream_range(0, frontier.len(), |_, _| emitted += 1);
        assert_eq!(emitted, 853, "threads={threads}");
        assert_eq!(range.emitted, 853, "threads={threads}");
        let mut levels = frontier.level_sizes().to_vec();
        levels.push(range.emitted);
        assert_eq!(levels, vec![1, 1, 2, 6, 21, 112, 853], "threads={threads}");
    }
}
