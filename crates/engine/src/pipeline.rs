//! The [`Analysis`] job trait and the [`AnalysisEngine`] runner.

use bnf_graph::Graph;

use crate::executor::{default_threads, parallel_map_with};
use crate::scratch::WorkerScratch;

/// Asserts the orchestrator's sort tag is *exact* at order `n`:
/// records are ordered by `(edge count, CanonKey::prefix_word)`, which reproduces
/// the full `(edge count, canonical key)` lexicographic order only
/// while the packed upper triangle — `n(n−1)/2` bits — fits the key's
/// single leading 64-bit word. Every enumerable order (`n ≤ 10`,
/// enforced by the producer) passes with room to spare; this assertion
/// exists so a future raise of the enumeration bound or the `BNF_MAX_N`
/// clamp cannot silently mis-order merged output — it must fail loudly
/// at the sort site instead.
pub(crate) fn assert_sort_tag_exact(n: usize) {
    assert!(
        n * n.saturating_sub(1) / 2 <= 64,
        "(edges, leading-word) sort tag is exact only while n(n-1)/2 <= 64 bits; n={n} needs \
         {} bits — switch the orchestrator's sort to full CanonKey comparison before raising the \
         enumeration bound",
        n * n.saturating_sub(1) / 2,
    );
}

/// One independent per-graph classification — the unit of work every
/// empirical module defines.
///
/// Implementations must be pure per item (no cross-item state): the
/// engine classifies items in an unspecified interleaving across
/// workers; only the *output* order is deterministic.
pub trait Analysis: Sync {
    /// The per-graph classification record.
    type Output: Send;

    /// Classifies one graph, using `scratch` for all reusable buffers.
    fn classify(&self, graph: &Graph, scratch: &mut WorkerScratch) -> Self::Output;

    /// The record-emitting path: classifies one graph given its
    /// canonical graph6 key. The orchestrated runners call this with
    /// `graph.to_graph6()` of the enumerated graph (enumeration emits
    /// canonical forms, so that string *is* the canonical key).
    ///
    /// The default ignores the key and delegates to
    /// [`Analysis::classify`]; jobs backed by a persistent store (the
    /// classification atlas) override it to consult the store before
    /// computing, and to stamp the key into the emitted record.
    fn classify_keyed(
        &self,
        key: &str,
        graph: &Graph,
        scratch: &mut WorkerScratch,
    ) -> Self::Output {
        let _ = key;
        self.classify(graph, scratch)
    }
}

/// Executes [`Analysis`] jobs over graph families with work-stealing
/// workers and per-worker scratch.
///
/// This is the architecture seam for scaling work: sharding an
/// enumeration across processes, batching α grids, or caching canonical
/// classifications all belong here, behind the same job interface.
#[derive(Debug, Clone)]
pub struct AnalysisEngine {
    pub(crate) threads: usize,
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        Self::with_default_threads()
    }
}

impl AnalysisEngine {
    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        AnalysisEngine {
            threads: threads.max(1),
        }
    }

    /// An engine sized to this machine's available parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// The worker count this engine schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs an arbitrary per-item function with per-worker scratch over
    /// an explicit item list (cycle lengths, gallery exhibits),
    /// preserving its order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut WorkerScratch) -> R + Sync,
    {
        parallel_map_with(items, self.threads, WorkerScratch::new, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnf_enumerate::connected_graphs;
    use bnf_stream::{for_each_connected_stats, RangeSelection, ShardSpec, DEFAULT_OVERSPLIT};

    struct EdgeCount;
    impl Analysis for EdgeCount {
        type Output = usize;
        fn classify(&self, g: &Graph, _scratch: &mut WorkerScratch) -> usize {
            g.edge_count()
        }
    }

    /// The all-ranges orchestrated run with no segment callback.
    fn orchestrated<A: Analysis>(engine: &AnalysisEngine, n: usize, job: &A) -> Vec<A::Output> {
        engine
            .run_connected_streaming_keyed_orchestrated(n, None, job, |_| {})
            .0
    }

    /// The independent oracle: `job.classify` over the materialized
    /// catalogue, in its order, on one scratch.
    fn oracle<A: Analysis>(n: usize, job: &A) -> Vec<A::Output> {
        let mut scratch = WorkerScratch::new();
        connected_graphs(n)
            .iter()
            .map(|g| job.classify(g, &mut scratch))
            .collect()
    }

    #[test]
    fn streaming_matches_materializing_exactly() {
        // The orchestrator reproduces the materialized catalogue's
        // outputs in the same order — the property the empirics
        // byte-match guarantee rests on — from the one-graph orders up.
        struct Census;
        impl Analysis for Census {
            type Output = (usize, Option<u64>);
            fn classify(&self, g: &Graph, s: &mut WorkerScratch) -> Self::Output {
                (g.edge_count(), g.total_distance_with(&mut s.bfs))
            }
        }
        for n in 0..8 {
            let engine = AnalysisEngine::new(3);
            assert_eq!(
                orchestrated(&engine, n, &Census),
                oracle(n, &Census),
                "n={n}"
            );
        }
    }

    #[test]
    fn keyed_paths_pass_canonical_graph6_keys() {
        // The orchestrator must hand every job the graph's own graph6 —
        // which for enumeration output is the canonical key — in the
        // reference enumeration order.
        struct KeyCheck;
        impl Analysis for KeyCheck {
            type Output = (String, usize);
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                ("unkeyed".into(), g.edge_count())
            }
            fn classify_keyed(&self, key: &str, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                let decoded = Graph::from_graph6(key).expect("key must be valid graph6");
                assert_eq!(&decoded, g, "keyed runners pass the graph's own encoding");
                assert_eq!(
                    decoded.canonical_key(),
                    g.canonical_key(),
                    "enumerated graphs are canonical, so the key is canonical"
                );
                (key.to_string(), g.edge_count())
            }
        }
        let engine = AnalysisEngine::new(3);
        let keyed = orchestrated(&engine, 6, &KeyCheck);
        let expect: Vec<(String, usize)> = connected_graphs(6)
            .iter()
            .map(|g| (g.to_graph6(), g.edge_count()))
            .collect();
        assert_eq!(keyed, expect);
        // Keys are unique — one per isomorphism class.
        let mut keys: Vec<&String> = keyed.iter().map(|(k, _)| k).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 112);
    }

    #[test]
    fn keyed_default_falls_back_to_classify() {
        // A job that does not override classify_keyed behaves exactly
        // like the unkeyed oracle.
        let engine = AnalysisEngine::new(2);
        assert_eq!(orchestrated(&engine, 5, &EdgeCount), oracle(5, &EdgeCount));
    }

    #[test]
    fn streaming_stats_surface_pruning_counters() {
        let engine = AnalysisEngine::new(2);
        let (_, orch) =
            engine.run_connected_streaming_keyed_orchestrated(6, None, &EdgeCount, |_| {});
        let serial = for_each_connected_stats(6, |_, _| {});
        assert_eq!(orch.stats.level_sizes, serial.level_sizes);
        assert_eq!(orch.stats.prune, serial.prune);
        assert_eq!(orch.stats.prune.duplicates, 0);
    }

    #[test]
    fn sharded_outputs_merge_into_unsharded_keyed_run() {
        // Every process block of a full fleet partition streams exactly
        // parent range i of m (across DEFAULT_OVERSPLIT stolen ranges),
        // and the blocks' outputs, concatenated and re-sorted, equal the
        // reference run.
        struct Tagged;
        impl Analysis for Tagged {
            type Output = (usize, String);
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                (g.edge_count(), g.to_graph6())
            }
        }
        let engine = AnalysisEngine::new(3);
        let mut expect = oracle(7, &Tagged);
        expect.sort();
        for count in [1usize, 3, 4] {
            let mut merged = Vec::new();
            for index in 0..count {
                let shard = ShardSpec::new(index, count);
                let block = RangeSelection::shard(shard).unwrap();
                let mut bounds = Vec::new();
                let (out, _) = engine
                    .run_connected_selected(7, &block, &Tagged, |seg| {
                        bounds.push((
                            seg.parent_lo as usize,
                            seg.parent_hi as usize,
                            seg.frontier_len,
                        ));
                    })
                    .unwrap();
                assert_eq!(bounds.len(), DEFAULT_OVERSPLIT);
                bounds.sort_unstable();
                assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
                let (lo, hi) = shard.range(bounds[0].2 as usize);
                assert_eq!((bounds[0].0, bounds[DEFAULT_OVERSPLIT - 1].1), (lo, hi));
                merged.extend(out);
            }
            merged.sort();
            assert_eq!(merged, expect, "count={count}");
        }
        assert!(RangeSelection::shard(ShardSpec::new(0, usize::MAX)).is_none());
    }

    #[test]
    fn sort_tag_exactness_is_asserted_not_assumed() {
        // Every enumerable order passes (45 bits at n = 10), n = 11
        // still fits the word (55 bits), and the first order whose
        // packed triangle overflows the leading word must panic at the
        // sort site — before any mis-ordered merge can happen.
        for n in 0..=11 {
            assert_sort_tag_exact(n);
        }
        let caught = std::panic::catch_unwind(|| assert_sort_tag_exact(12));
        assert!(caught.is_err(), "n=12 (66 bits) must trip the sort bound");
    }

    #[test]
    fn run_connected_matches_enumeration() {
        let engine = AnalysisEngine::new(4);
        let counts = orchestrated(&engine, 6, &EdgeCount);
        assert_eq!(counts.len(), 112); // A001349(6)
                                       // Deterministic enumeration order: sorted by edge count first.
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.first().unwrap(), 5); // a tree
        assert_eq!(*counts.last().unwrap(), 15); // K6
    }

    #[test]
    fn streaming_single_thread() {
        let engine = AnalysisEngine::new(1);
        let counts = orchestrated(&engine, 6, &EdgeCount);
        assert_eq!(counts.len(), 112);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn streaming_job_panic_propagates_without_deadlock() {
        // One worker, so the panicking range is the only producer and
        // the writer must still be released.
        struct Boom;
        impl Analysis for Boom {
            type Output = ();
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) {
                assert!(g.edge_count() < 9, "boom"); // K5 trips this
            }
        }
        let caught = std::panic::catch_unwind(|| {
            orchestrated(&AnalysisEngine::new(1), 5, &Boom);
        });
        assert!(caught.is_err(), "classifier panic must reach the caller");
    }

    #[test]
    fn map_over_non_graph_items() {
        let engine = AnalysisEngine::new(3);
        let items: Vec<usize> = (3..10).collect();
        let orders = engine.map(&items, |&n, s| {
            let g = Graph::complete(n);
            g.total_distance_with(&mut s.bfs).unwrap()
        });
        let expected: Vec<u64> = (3..10).map(|n| (n * (n - 1)) as u64).collect();
        assert_eq!(orders, expected);
    }

    #[test]
    fn engine_thread_floor() {
        assert_eq!(AnalysisEngine::new(0).threads(), 1);
        assert!(AnalysisEngine::with_default_threads().threads() >= 1);
    }
}
