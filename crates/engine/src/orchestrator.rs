//! The orchestrator — the one execution path of every cold sweep: one
//! frontier build, work-stolen parent ranges, one streaming merge.
//!
//! [`bnf_stream::ParentFrontier`] is built **once**, oversplit into many
//! more ranges than worker threads (default [`DEFAULT_OVERSPLIT`]× —
//! e.g. 256 ranges on 16 threads at `n = 10`), and workers steal ranges
//! off an atomic counter, so a heavy sparse-parent range simply occupies
//! one worker while the rest drain the tail — no skew cliff, no
//! operator-tuned split (at `n = 10`, parent range 0 of 16 holds 2.24 M
//! of the 11.7 M records).
//!
//! A [`RangeSelection`] says which ranges of the partition a run
//! executes: all of them (a whole sweep), one process's contiguous
//! block (`--shard i/m` of a multi-process fleet, writing a segment
//! file that `shard_merge` folds), or the complement of the ranges an
//! interrupted run already committed (`--resume`).
//!
//! Each worker fuses producer and classifier: it streams its stolen
//! range serially ([`bnf_stream::ParentFrontier::stream_range`]),
//! classifies inline with its own [`WorkerScratch`], tag-sorts the
//! segment, and hands it to a single writer — the calling thread —
//! through a bounded [`std::sync::mpsc::sync_channel`]. The writer
//! surfaces every completed segment to the caller's `on_segment`
//! callback (where `bnf-empirics` appends records and per-range shard
//! provenance into one `ClassificationAtlas`, the in-process analogue
//! of `merge_segments`), then merges all segments and re-sorts by the
//! engine's `(edge count, leading canonical word)` tag, so the final
//! output order — and therefore every downstream float summation — is
//! the deterministic `(edge count, canonical key)` order of
//! `bnf_enumerate::connected_graphs`, whatever the thread count or
//! range split. Orders 0 and 1 run the same way over their one-graph
//! frontier.
//!
//! Failure: a panicking worker raises a stop flag so its siblings steal
//! no further ranges, and a panicking writer callback drops the
//! receiver, which fails every blocked or later send; either way the
//! panic propagates to the caller once the scope joins — segments
//! already written stay (the atlas is append-only and resumable), but
//! control never reaches coverage declaration, so a poisoned run is
//! visibly incomplete rather than silently short.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

use bnf_stream::{ParentFrontier, PruneCounters, ShardSpec, StreamStats};

use crate::pipeline::{assert_sort_tag_exact, Analysis};
use crate::scratch::WorkerScratch;

/// Ranges cut per worker thread when the caller asks for the automatic
/// split (`--shards auto`): enough oversplit that one emission-heavy
/// range costs at most ≈ 1/16 of a thread's share of the sweep, while
/// keeping per-range overhead (segment hand-off, shard provenance)
/// negligible.
pub const DEFAULT_OVERSPLIT: usize = 16;

/// The automatic range count for a worker-thread budget:
/// `threads × `[`DEFAULT_OVERSPLIT`] (at least 1).
pub fn auto_range_count(threads: usize) -> usize {
    threads.max(1).saturating_mul(DEFAULT_OVERSPLIT)
}

/// Which ranges of a frontier partition one orchestrated run executes:
/// the contiguous block `span` of a `ranges`-way partition, minus the
/// indices in `done` that a prior run already completed durably.
///
/// Every cold-sweep mode is one selection: a whole sweep is
/// [`RangeSelection::all`], one process of a multi-process fleet is
/// [`RangeSelection::shard`], and a resumed run is either of those
/// [`RangeSelection::resuming`] after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSelection {
    /// Total ranges the frontier is cut into.
    pub ranges: usize,
    /// The contiguous block of range indices this run owns (`⊆ 0..ranges`).
    pub span: Range<usize>,
    /// Indices inside `span` that are skipped — never re-enumerated.
    pub done: Vec<usize>,
    /// For a partition reconstructed from a prior run's store: the
    /// parent-frontier length it was cut from, asserted against the
    /// rebuilt frontier before any range runs.
    pub frontier_len: Option<u64>,
}

impl RangeSelection {
    /// Every range of a `ranges`-way partition (at least one range).
    pub fn all(ranges: usize) -> RangeSelection {
        let ranges = ranges.max(1);
        Self::block(ranges, 0..ranges)
    }

    /// Process `shard.index`'s block of a `shard.count`-process fleet:
    /// ranges `[k·i, k·(i + 1))` of the `k·m`-range partition, with the
    /// fixed `k = `[`DEFAULT_OVERSPLIT`] (never a thread count, so every
    /// process cuts the same partition). Floor splits nest exactly —
    /// `⌊k·i·L / k·m⌋ = ⌊i·L / m⌋` — so the block is precisely parent
    /// range `i` of `m`, still stolen as `k` ranges across the process's
    /// own threads. `None` when `k·m` overflows.
    pub fn shard(shard: ShardSpec) -> Option<RangeSelection> {
        let k = DEFAULT_OVERSPLIT;
        let ranges = shard.count.checked_mul(k)?;
        Some(Self::block(ranges, k * shard.index..k * (shard.index + 1)))
    }

    fn block(ranges: usize, span: Range<usize>) -> RangeSelection {
        RangeSelection {
            ranges,
            span,
            done: Vec::new(),
            frontier_len: None,
        }
    }

    /// This selection minus the ranges `done` lists (indices outside
    /// `span` are ignored), pinned to the frontier length the stored
    /// partition was cut from.
    pub fn resuming(mut self, done: &[usize], frontier_len: u64) -> RangeSelection {
        self.done = done
            .iter()
            .copied()
            .filter(|i| self.span.contains(i))
            .collect();
        self.done.sort_unstable();
        self.done.dedup();
        self.frontier_len = Some(frontier_len);
        self
    }

    /// The range indices this run executes, in index order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.span.clone().filter(|i| !self.done.contains(i))
    }
}

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
    /// so `ShardMeta::merged_counters` can count it exactly once.
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
/// [`StreamStats`] totals plus the orchestration shape.
///
/// `stats` is constructed to equal the [`StreamStats`] of the serial
/// `bnf_stream::for_each_connected_stats` *exactly* — frontier level
/// sizes from the single build, final level summed over ranges, and
/// pruning counters as the one frontier share plus the summed
/// per-range final shares — which is what makes
/// `candidates_per_survivor` and the counter diagnostics comparable
/// across the serial, multi-process, and orchestrated paths.
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

/// One completed range in flight from a worker to the writer. Tags
/// (`(edge count, leading canonical word)`) travel alongside the
/// records so the writer can fold every segment into the global
/// tag-sorted output without re-deriving keys.
struct Segment<T> {
    index: usize,
    lo: usize,
    hi: usize,
    emitted: u64,
    elapsed_ms: u64,
    final_prune: PruneCounters,
    /// Sort tags aligned index-for-index with `records`.
    tags: Vec<(usize, u64)>,
    records: Vec<T>,
}

/// Raises the run's stop flag if its worker unwinds, so the siblings
/// steal no further ranges for a run that is already lost.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The orchestrated run body behind
/// [`crate::AnalysisEngine::run_connected_selected`]: ranges outside the
/// selection are skipped outright — their parents are never streamed —
/// and only the selected ones reach `on_segment`. The returned output
/// and [`OrchestratorStats`] cover the *executed* ranges only.
pub(crate) fn run_orchestrated<A, W>(
    threads: usize,
    n: usize,
    selection: &RangeSelection,
    job: &A,
    mut on_segment: W,
) -> (Vec<A::Output>, OrchestratorStats)
where
    A: Analysis,
    W: FnMut(RangeSegment<'_, A::Output>),
{
    assert_sort_tag_exact(n);
    let threads = threads.max(1);
    let ranges = selection.ranges;
    assert!(
        selection.span.end <= ranges,
        "range selection {:?} does not fit a {ranges}-range partition",
        selection.span
    );
    let span = &selection.span;
    // The one frontier build of the whole run.
    let frontier = ParentFrontier::build(n, threads);
    let frontier_len = frontier.len() as u64;
    if let Some(stored) = selection.frontier_len {
        // Refuse before any work runs: a stored partition cut from a
        // different frontier would skip the wrong parent ranges.
        assert_eq!(
            stored, frontier_len,
            "resume plan was cut from a different n={n} frontier \
             (stored {stored}, rebuilt {frontier_len}) — incompatible build?",
        );
    }
    let frontier_prune = frontier.frontier_prune();

    let (sender, receiver) = sync_channel::<Segment<A::Output>>(threads * 2);
    let next = AtomicUsize::new(span.start);
    let stop = AtomicBool::new(false);
    // Segments sent and not yet received (blocked sends included): the
    // writer backlog the telemetry reports.
    let in_flight = AtomicUsize::new(0);
    let backlog_high_water = AtomicUsize::new(0);

    let mut merged: Vec<((usize, u64), A::Output)> = Vec::new();
    let mut emitted_total = 0u64;
    let mut final_prune = PruneCounters::default();
    let mut segments = 0usize;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sender = sender.clone();
            let (frontier, next, stop) = (&frontier, &next, &stop);
            let (in_flight, backlog_high_water) = (&in_flight, &backlog_high_water);
            scope.spawn(move || {
                let _stop_on_panic = StopOnPanic(stop);
                let mut scratch = WorkerScratch::new();
                let mut stolen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= span.end {
                        break;
                    }
                    if selection.done.contains(&index) {
                        continue; // durably completed by a prior run
                    }
                    stolen += 1;
                    let (lo, hi) = ShardSpec::new(index, ranges).range(frontier.len());
                    let started = Instant::now();
                    let mut tagged: Vec<((usize, u64), A::Output)> = Vec::new();
                    let range = frontier.stream_range(lo, hi, |graph, key| {
                        let out = job.classify_keyed(&graph.to_graph6(), &graph, &mut scratch);
                        tagged.push(((graph.edge_count(), key.prefix_word()), out));
                    });
                    tagged.sort_by_key(|t| t.0);
                    let (tags, records): (Vec<_>, Vec<_>) = tagged.into_iter().unzip();
                    let segment = Segment {
                        index,
                        lo,
                        hi,
                        emitted: range.emitted,
                        elapsed_ms: started.elapsed().as_millis() as u64,
                        final_prune: range.prune,
                        tags,
                        records,
                    };
                    let depth = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    backlog_high_water.fetch_max(depth, Ordering::Relaxed);
                    // A failed send means the writer panicked and dropped
                    // the receiver — stop stealing instead of
                    // enumerating for nobody.
                    if sender.send(segment).is_err() {
                        break;
                    }
                }
                // The steal-balance histogram: a lopsided distribution
                // means the oversplit is too coarse for this frontier.
                bnf_obs::Recorder::global().record_hist("ranges_per_worker", stolen);
            });
        }
        // Only the workers' clones may keep the channel open, so the
        // writer's loop ends when the last worker leaves.
        drop(sender);
        // The calling thread is the single writer. This closure owns the
        // receiver: if `on_segment` panics, unwinding drops it before the
        // scope joins, so no worker stays blocked on a full channel.
        let write = || {
            for segment in receiver {
                in_flight.fetch_sub(1, Ordering::Relaxed);
                on_segment(RangeSegment {
                    index: segment.index,
                    ranges,
                    frontier_len,
                    frontier_prune,
                    parent_lo: segment.lo as u64,
                    parent_hi: segment.hi as u64,
                    emitted: segment.emitted,
                    elapsed_ms: segment.elapsed_ms,
                    final_prune: segment.final_prune,
                    records: &segment.records,
                });
                let recorder = bnf_obs::Recorder::global();
                recorder.record_hist("range_wall_ms", segment.elapsed_ms);
                recorder.record_hist("range_emitted", segment.emitted);
                emitted_total += segment.emitted;
                final_prune.merge(&segment.final_prune);
                segments += 1;
                merged.extend(segment.tags.into_iter().zip(segment.records));
            }
        };
        write();
    });

    debug_assert_eq!(
        segments,
        selection.indices().count(),
        "selection did not close"
    );
    let _ = segments;
    bnf_obs::Recorder::global().record_max(
        "writer_backlog_high_water",
        backlog_high_water.into_inner() as u64,
    );
    bnf_obs::Recorder::global().time("sort", || merged.sort_by_key(|t| t.0));
    let mut stats = StreamStats {
        level_sizes: frontier.level_sizes().to_vec(),
        prune: frontier_prune,
    };
    stats.level_sizes.push(emitted_total);
    stats.prune.merge(&final_prune);
    (
        merged.into_iter().map(|(_, out)| out).collect(),
        OrchestratorStats {
            stats,
            frontier_len,
            frontier_prune,
            final_prune,
            ranges,
            threads,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisEngine;
    use bnf_graph::Graph;

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
        // and far more ranges than parents — must reproduce the
        // materialized enumeration exactly, keys and order included.
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
            assert_eq!(
                stats.ranges,
                ranges.unwrap_or_else(|| auto_range_count(threads))
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
        let plan = RangeSelection::all(6).resuming(&[5, 0, 2, 2], frontier_len);
        assert_eq!(plan.done, vec![0, 2, 5]);
        assert_eq!(plan.indices().collect::<Vec<_>>(), vec![1, 3, 4]);
        let mut warm: Vec<(usize, u64, u64, u64)> = Vec::new();
        let (out, stats) = engine.run_connected_selected(6, &plan, &Tagged, |seg| {
            assert_eq!(seg.ranges, 6);
            warm.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
        });
        warm.sort_unstable();
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
        let full = RangeSelection::all(6).resuming(&[0, 1, 2, 3, 4, 5], frontier_len);
        let (out, stats) = engine.run_connected_selected(6, &full, &Tagged, |seg| {
            panic!("range {} re-executed despite full coverage", seg.index)
        });
        assert!(out.is_empty());
        assert_eq!(stats.emitted(), 0);
    }

    #[test]
    fn resume_plan_from_wrong_frontier_is_refused() {
        // level-5 frontier has 21 parents, not 999
        let plan = RangeSelection::all(4).resuming(&[1], 999);
        let caught = std::panic::catch_unwind(|| {
            AnalysisEngine::new(1).run_connected_selected(6, &plan, &Tagged, |_| {})
        });
        assert!(caught.is_err(), "mismatched frontier_len must refuse");
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
