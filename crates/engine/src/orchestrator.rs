//! The orchestrator — the one classify path of every cold sweep and
//! catalogue: one frontier build, work-stolen parent ranges
//! ([`bnf_stream::FrontierPartition`]), one streaming merge.
//!
//! Each worker fuses producer and classifier: it streams its stolen
//! range serially, classifies inline with its own [`WorkerScratch`] and
//! tag-sorts the segment. The calling thread is the single writer: it
//! hands every completed segment to the caller's `on_segment` (where
//! `bnf-empirics` appends records and per-range shard provenance into
//! one `ClassificationAtlas`), then merges all segments by the engine's
//! `(edge count, leading canonical word)` tag, so the output order —
//! and every downstream float summation — is the `(edge count,
//! canonical key)` order of `bnf_enumerate::connected_graphs`, whatever
//! the thread count or range split.
//!
//! A panic in a worker or in `on_segment` reaches the caller without
//! deadlock ([`bnf_stream::scheduler`]): segments already written stay
//! (the atlas is append-only and resumable), but control never reaches
//! coverage declaration, so a poisoned run is visibly incomplete rather
//! than silently short.

use bnf_stream::{
    FrontierMismatch, FrontierPartition, ParentFrontier, PruneCounters, RangeSelection, StreamStats,
};

use crate::pipeline::{assert_sort_tag_exact, Analysis, AnalysisEngine};
use crate::scratch::WorkerScratch;

/// One completed parent range, surfaced to the orchestrator's writer
/// callback in completion order (not index order — ranges finish when
/// they finish).
///
/// `records` is already tag-sorted into the engine's deterministic
/// `(edge count, canonical key)` order *within the range*, so appending
/// segments as they arrive reproduces `merge_segments` semantics
/// in-process.
#[derive(Debug)]
pub struct RangeSegment<'a, T> {
    /// Which range of the partition this is (`0..ranges`).
    pub index: usize,
    /// Total ranges in the partition.
    pub ranges: usize,
    /// Parents in the shared frontier (identical for every segment).
    pub frontier_len: u64,
    /// Pruning counters of the single frontier build — identical for
    /// every segment of the run; provenance writers stamp it per range
    /// so the `ShardMeta::partitions` fold can count it exactly once.
    pub frontier_prune: PruneCounters,
    /// First parent index owned by this range.
    pub parent_lo: u64,
    /// One past the last parent index owned by this range.
    pub parent_hi: u64,
    /// Final-level graphs emitted (= `records.len()`).
    pub emitted: u64,
    /// Wall-clock the worker spent producing + classifying this range.
    pub elapsed_ms: u64,
    /// Final-level pruning counters restricted to this range.
    pub final_prune: PruneCounters,
    /// The range's classified records, tag-sorted.
    pub records: &'a [T],
}

/// What an orchestrated run did: the unsharded-equivalent
/// [`StreamStats`] totals ([`bnf_stream::ParentFrontier::stream_stats`],
/// equal to the serial `bnf_stream::for_each_connected_stats` over a
/// whole partition) plus the orchestration shape.
#[derive(Debug, Clone)]
pub struct OrchestratorStats {
    /// Unsharded-equivalent per-level sizes and pruning counters.
    pub stats: StreamStats,
    /// Parents in the shared level-`n − 1` frontier.
    pub frontier_len: u64,
    /// Pruning counters of the frontier build (counted once).
    pub frontier_prune: PruneCounters,
    /// Summed final-level pruning counters across all ranges.
    pub final_prune: PruneCounters,
    /// How many ranges the frontier was split into.
    pub ranges: usize,
    /// Worker threads that stole those ranges.
    pub threads: usize,
}

impl OrchestratorStats {
    /// Final-level graphs emitted across the whole partition.
    pub fn emitted(&self) -> u64 {
        self.stats.emitted()
    }
}

impl AnalysisEngine {
    /// The orchestrator over every range: builds the level-`n − 1`
    /// parent frontier **once**, cuts it into `ranges` parent ranges
    /// (`None` → [`bnf_stream::auto_range_count`]; never more ranges
    /// than parents) that this engine's workers steal and classify with
    /// [`Analysis::classify_keyed`], and drains completed segments into
    /// `on_segment` on the calling thread, in completion order.
    ///
    /// Returns all outputs in the order of
    /// `bnf_enumerate::connected_graphs(n)` (every `n <= 10`), plus
    /// [`OrchestratorStats`] whose totals equal the serial
    /// `bnf_stream::for_each_connected_stats` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n > 10`; propagates panics from the job, the
    /// producer, and `on_segment`.
    pub fn run_connected_streaming_keyed_orchestrated<A, W>(
        &self,
        n: usize,
        ranges: Option<usize>,
        job: &A,
        on_segment: W,
    ) -> (Vec<A::Output>, OrchestratorStats)
    where
        A: Analysis,
        W: FnMut(RangeSegment<'_, A::Output>),
    {
        let ranges = ranges.unwrap_or_else(|| bnf_stream::auto_range_count(self.threads));
        self.run_connected_selected(n, &RangeSelection::all(ranges), job, on_segment)
            .expect("an unpinned selection fits any frontier")
    }

    /// [`AnalysisEngine::run_connected_streaming_keyed_orchestrated`]
    /// restricted to the ranges `selection` names — one process's block
    /// of a multi-process fleet, or the ranges a resumed run still owes.
    /// Unselected ranges are never streamed, and a pinned
    /// `selection.frontier_len` is checked against the rebuilt frontier
    /// before any range runs. Outputs and stats cover the executed
    /// ranges only.
    ///
    /// # Errors
    ///
    /// [`FrontierMismatch`] when the selection pins another frontier
    /// length; nothing has run.
    ///
    /// # Panics
    ///
    /// As the all-ranges runner, plus when the selection's span does not
    /// fit its partition.
    pub fn run_connected_selected<A, W>(
        &self,
        n: usize,
        selection: &RangeSelection,
        job: &A,
        mut on_segment: W,
    ) -> Result<(Vec<A::Output>, OrchestratorStats), FrontierMismatch>
    where
        A: Analysis,
        W: FnMut(RangeSegment<'_, A::Output>),
    {
        assert_sort_tag_exact(n);
        // The one frontier build of the whole run.
        let frontier = ParentFrontier::build(n, self.threads);
        let partition = FrontierPartition::new(&frontier, selection)?;
        let ranges = partition.ranges;
        let frontier_len = frontier.len() as u64;
        let frontier_prune = frontier.frontier_prune();

        let mut merged: Vec<((usize, u64), A::Output)> = Vec::new();
        let final_level = partition.run(
            self.threads,
            WorkerScratch::new,
            |scratch, lo, hi| {
                let mut tagged: Vec<((usize, u64), A::Output)> = Vec::new();
                let range = frontier.stream_range(lo, hi, |graph, key| {
                    let out = job.classify_keyed(&graph.to_graph6(), &graph, scratch);
                    tagged.push(((graph.edge_count(), key.prefix_word()), out));
                });
                tagged.sort_by_key(|t| t.0);
                // Tags travel alongside the records so the writer folds
                // every segment into the global tag-sorted output without
                // re-deriving keys.
                let (tags, records): (Vec<_>, Vec<_>) = tagged.into_iter().unzip();
                (range, (tags, records))
            },
            |run| {
                let (tags, records) = run.output;
                on_segment(RangeSegment {
                    index: run.index,
                    ranges,
                    frontier_len,
                    frontier_prune,
                    parent_lo: run.lo as u64,
                    parent_hi: run.hi as u64,
                    emitted: run.stats.emitted,
                    elapsed_ms: run.elapsed_ms,
                    final_prune: run.stats.prune,
                    records: &records,
                });
                merged.extend(tags.into_iter().zip(records));
            },
        );
        bnf_obs::Recorder::global().time("sort", || merged.sort_by_key(|t| t.0));
        Ok((
            merged.into_iter().map(|(_, out)| out).collect(),
            OrchestratorStats {
                stats: frontier.stream_stats(final_level),
                frontier_len,
                frontier_prune,
                final_prune: final_level.prune,
                ranges,
                threads: self.threads,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnf_graph::Graph;
    use bnf_stream::auto_range_count;

    struct Tagged;
    impl Analysis for Tagged {
        type Output = (usize, String);
        fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
            (g.edge_count(), "unkeyed".into())
        }
        fn classify_keyed(&self, key: &str, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
            (g.edge_count(), key.to_string())
        }
    }

    #[test]
    fn orchestrated_output_is_byte_identical_to_streaming_keyed() {
        // Any thread budget, any oversplit — including one range total
        // and far more ranges than parents, which cuts one range per
        // parent — must reproduce the materialized enumeration exactly,
        // keys and order included.
        let whole: Vec<(usize, String)> = bnf_enumerate::connected_graphs(7)
            .iter()
            .map(|g| (g.edge_count(), g.to_graph6()))
            .collect();
        for (threads, ranges) in [
            (1usize, None),
            (3, None),
            (2, Some(1)),
            (3, Some(7)),
            (2, Some(1000)),
        ] {
            let engine = AnalysisEngine::new(threads);
            let (out, stats) =
                engine.run_connected_streaming_keyed_orchestrated(7, ranges, &Tagged, |_| {});
            assert_eq!(out, whole, "threads={threads} ranges={ranges:?}");
            assert_eq!(stats.emitted(), 853, "threads={threads} ranges={ranges:?}");
            let expect_ranges = match ranges {
                Some(1000) => 112, // the 112 parents of the n = 7 frontier
                other => other.unwrap_or_else(|| auto_range_count(threads)),
            };
            assert_eq!(
                stats.ranges, expect_ranges,
                "threads={threads} ranges={ranges:?}"
            );
        }
    }

    #[test]
    fn orchestrated_counters_equal_unsharded_exactly() {
        // The satellite regression: frontier share counted once plus
        // summed range shares == the unsharded StreamStats, exactly.
        let engine = AnalysisEngine::new(3);
        let unsharded = bnf_stream::for_each_connected_stats(7, |_, _| {});
        let (_, orch) =
            engine.run_connected_streaming_keyed_orchestrated(7, Some(11), &Tagged, |_| {});
        assert_eq!(orch.stats.level_sizes, unsharded.level_sizes);
        assert_eq!(orch.stats.prune, unsharded.prune);
        assert_eq!(
            orch.frontier_len,
            *unsharded.level_sizes.iter().rev().nth(1).unwrap()
        );
        let mut recombined = orch.frontier_prune;
        recombined.merge(&orch.final_prune);
        assert_eq!(recombined, unsharded.prune);
    }

    #[test]
    fn segments_partition_the_frontier_and_carry_sorted_records() {
        let engine = AnalysisEngine::new(2);
        let mut segs: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut shares: Vec<PruneCounters> = Vec::new();
        let mut frontier_len = 0u64;
        let (out, stats) =
            engine.run_connected_streaming_keyed_orchestrated(6, Some(5), &Tagged, |seg| {
                assert_eq!(seg.ranges, 5);
                assert_eq!(seg.emitted as usize, seg.records.len());
                assert!(
                    seg.records.windows(2).all(|w| w[0].0 <= w[1].0),
                    "segment {} not tag-sorted",
                    seg.index
                );
                frontier_len = seg.frontier_len;
                shares.push(seg.frontier_prune);
                segs.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
            });
        assert_eq!(out.len(), 112); // A001349(6)
        assert_eq!(segs.len(), 5);
        // One frontier build: every segment carries the identical share.
        assert!(shares.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shares[0], stats.frontier_prune);
        // The ranges tile [0, frontier_len) exactly.
        segs.sort_unstable();
        assert_eq!(segs[0].1, 0);
        assert!(segs.windows(2).all(|w| w[0].2 == w[1].1));
        assert_eq!(segs.last().unwrap().2, frontier_len);
        assert_eq!(segs.iter().map(|s| s.3).sum::<u64>(), stats.emitted());
    }

    #[test]
    fn panic_in_one_range_propagates_without_deadlock() {
        struct Boom;
        impl Analysis for Boom {
            type Output = ();
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) {
                assert!(g.edge_count() < 9, "boom"); // K5 trips this
            }
        }
        let caught = std::panic::catch_unwind(|| {
            AnalysisEngine::new(2).run_connected_streaming_keyed_orchestrated(
                5,
                Some(8),
                &Boom,
                |_| {},
            );
        });
        assert!(caught.is_err(), "range panic must reach the caller");
    }

    #[test]
    fn panic_in_writer_callback_propagates_without_deadlock() {
        let caught = std::panic::catch_unwind(|| {
            AnalysisEngine::new(2).run_connected_streaming_keyed_orchestrated(
                6,
                Some(4),
                &Tagged,
                |seg| assert_ne!(seg.index, 0, "writer boom"),
            );
        });
        assert!(caught.is_err(), "writer panic must reach the caller");
    }

    #[test]
    fn resumed_run_skips_completed_ranges_and_covers_the_rest() {
        let engine = AnalysisEngine::new(2);
        // A cold partition to learn the ground truth from.
        let mut cold: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut frontier_len = 0u64;
        engine.run_connected_streaming_keyed_orchestrated(6, Some(6), &Tagged, |seg| {
            frontier_len = seg.frontier_len;
            cold.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
        });
        cold.sort_unstable();

        // Resume with ranges {0, 2, 5} already done: only {1, 3, 4} may
        // execute, with byte-identical per-range boundaries.
        let plan = RangeSelection::all(6)
            .resuming(6, &[5, 0, 2, 2], frontier_len)
            .unwrap();
        assert_eq!(plan.done, vec![0, 2, 5]);
        let mut warm: Vec<(usize, u64, u64, u64)> = Vec::new();
        let (out, stats) = engine
            .run_connected_selected(6, &plan, &Tagged, |seg| {
                assert_eq!(seg.ranges, 6);
                warm.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
            })
            .unwrap();
        warm.sort_unstable();
        assert_eq!(warm.iter().map(|s| s.0).collect::<Vec<_>>(), vec![1, 3, 4]);
        let expected: Vec<_> = cold
            .iter()
            .filter(|s| plan.done.binary_search(&s.0).is_err())
            .copied()
            .collect();
        assert_eq!(warm, expected, "resumed ranges must tile identically");
        assert_eq!(stats.ranges, 6);
        assert_eq!(
            stats.emitted(),
            expected.iter().map(|s| s.3).sum::<u64>(),
            "resumed stats cover executed ranges only"
        );
        assert_eq!(out.len() as u64, stats.emitted());

        // An all-complete plan executes nothing at all.
        let full = RangeSelection::all(6)
            .resuming(6, &[0, 1, 2, 3, 4, 5], frontier_len)
            .unwrap();
        let (out, stats) = engine
            .run_connected_selected(6, &full, &Tagged, |seg| {
                panic!("range {} re-executed despite full coverage", seg.index)
            })
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.emitted(), 0);
    }

    #[test]
    fn resume_plan_from_wrong_frontier_is_refused() {
        // level-5 frontier has 21 parents, not 999
        let plan = RangeSelection::all(4).resuming(4, &[1], 999).unwrap();
        let refused = AnalysisEngine::new(1).run_connected_selected(6, &plan, &Tagged, |_| {
            panic!("no range may run against a mismatched frontier")
        });
        let Err(mismatch) = refused else {
            panic!("mismatched frontier_len must refuse");
        };
        assert_eq!(
            (mismatch.order, mismatch.stored, mismatch.rebuilt),
            (6, 999, 21)
        );
    }

    #[test]
    fn trivial_orders_orchestrate_their_single_graph() {
        // n ∈ {0, 1}: the one-graph frontier runs through the same
        // steal loop, matches the materialized catalogue, and reports
        // the serial enumeration's StreamStats exactly.
        for n in [0usize, 1] {
            let whole: Vec<(usize, String)> = bnf_enumerate::connected_graphs(n)
                .iter()
                .map(|g| (g.edge_count(), g.to_graph6()))
                .collect();
            let serial = bnf_stream::for_each_connected_stats(n, |_, _| {});
            for (threads, ranges) in [(1usize, None), (3, Some(1)), (2, Some(5))] {
                let mut segments = 0;
                let (out, stats) = AnalysisEngine::new(threads)
                    .run_connected_streaming_keyed_orchestrated(n, ranges, &Tagged, |seg| {
                        assert_eq!(seg.frontier_len, 1);
                        segments += 1;
                    });
                let label = format!("n={n} threads={threads} ranges={ranges:?}");
                assert_eq!(out, whole, "{label}");
                assert_eq!(segments, stats.ranges, "{label}");
                assert_eq!(stats.frontier_len, 1, "{label}");
                assert_eq!(stats.stats.level_sizes, vec![1], "{label}");
                assert_eq!(stats.stats.level_sizes, serial.level_sizes, "{label}");
                assert_eq!(stats.stats.prune, serial.prune, "{label}");
            }
        }
    }
}
