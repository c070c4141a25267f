//! The frontier-partition layer both range runners share — the classify
//! orchestrator (`bnf-engine`) and the `stream_count` binary: which
//! parent ranges of one [`ParentFrontier`] a run executes, and the
//! work-stolen run over them.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::producer::{ParentFrontier, RangeStats, ShardSpec, StreamStats};
use crate::scheduler;

/// Ranges cut per worker thread when the caller asks for the automatic
/// split (`--shards auto`): enough oversplit that one emission-heavy
/// range costs at most ≈ 1/16 of a thread's share of the run, while
/// per-range overhead (hand-off, provenance, checkpoint line) stays
/// negligible.
pub const DEFAULT_OVERSPLIT: usize = 16;

/// The automatic range count for a worker-thread budget:
/// `threads × `[`DEFAULT_OVERSPLIT`] (at least 1).
pub fn auto_range_count(threads: usize) -> usize {
    threads.max(1).saturating_mul(DEFAULT_OVERSPLIT)
}

/// Which ranges of a frontier partition one run executes: the
/// contiguous block `span` of a `ranges`-way partition, minus the
/// indices in `done` that a prior run already completed durably.
///
/// A whole run is [`RangeSelection::all`], one process of a
/// multi-process fleet is [`RangeSelection::shard`], and a resumed run
/// is either of those [`RangeSelection::resuming`] after a crash. The
/// first two are unpinned: [`FrontierPartition::new`] cuts them into
/// at most one range per parent once the frontier is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSelection {
    /// Total ranges the frontier is cut into (for an unpinned
    /// selection, before the cut is clamped to the frontier's length).
    pub ranges: usize,
    /// The contiguous block of range indices this run owns (`⊆ 0..ranges`).
    pub span: Range<usize>,
    /// Indices inside `span` that are skipped — never re-enumerated.
    pub done: Vec<usize>,
    /// For a partition reconstructed from a prior run: the frontier
    /// length it was cut from, checked before any range runs.
    pub frontier_len: Option<u64>,
    /// An unpinned selection's block: parent range `index` of `count`,
    /// whatever range count the frontier's length clamps the cut to.
    block: Option<ShardSpec>,
}

impl RangeSelection {
    /// Every range of a `ranges`-way partition (at least one range, and
    /// no more than the frontier has parents: a range without parents
    /// would only cost a hand-off and a commit).
    pub fn all(ranges: usize) -> RangeSelection {
        let ranges = ranges.max(1);
        Self::block(ranges, ShardSpec::new(0, 1))
    }

    /// Process `shard.index`'s block of a `shard.count`-process fleet:
    /// ranges `[⌊i·R/m⌋, ⌊(i + 1)·R/m⌋)` of the `R`-range partition,
    /// `R = min(k·m, L)` for a frontier of `L` parents and the fixed
    /// `k = `[`DEFAULT_OVERSPLIT`] (never a thread count, so every
    /// process cuts the same partition). Both cuts nest in the plain
    /// split — `⌊⌊i·R/m⌋·L/R⌋ = ⌊i·L/m⌋` when `m` divides `R` or `R =
    /// L` — so the block is precisely parent range `i` of `m`, still
    /// stolen as up to `k` ranges across the process's own threads.
    /// `None` when `k·m` overflows.
    pub fn shard(shard: ShardSpec) -> Option<RangeSelection> {
        let ranges = shard.count.checked_mul(DEFAULT_OVERSPLIT)?;
        Some(Self::block(ranges, shard))
    }

    fn block(ranges: usize, block: ShardSpec) -> RangeSelection {
        let (lo, hi) = block.range(ranges);
        RangeSelection {
            ranges,
            span: lo..hi,
            done: Vec::new(),
            frontier_len: None,
            block: Some(block),
        }
    }

    /// This selection continued from a stored partition: `ranges`
    /// ranges cut from a `frontier_len`-parent frontier, of which `done`
    /// are complete (indices outside this run's block are ignored). The
    /// result is pinned to that cut. `None` when the stored cut does not
    /// nest this selection's block (see [`RangeSelection::shard`]), or
    /// differs from an already pinned selection's.
    pub fn resuming(
        mut self,
        ranges: usize,
        done: &[usize],
        frontier_len: u64,
    ) -> Option<RangeSelection> {
        match self.block.take() {
            Some(block) if ranges.is_multiple_of(block.count) || ranges as u64 == frontier_len => {
                let (lo, hi) = block.range(ranges);
                self.span = lo..hi;
            }
            None if ranges == self.ranges => {}
            _ => return None,
        }
        self.ranges = ranges;
        self.done = done
            .iter()
            .copied()
            .filter(|i| self.span.contains(i))
            .collect();
        self.done.sort_unstable();
        self.done.dedup();
        self.frontier_len = Some(frontier_len);
        Some(self)
    }

    /// The range count and the indices this selection executes over a
    /// frontier of `frontier_len` parents, in index order.
    fn cut(&self, frontier_len: usize) -> (usize, Vec<usize>) {
        match self.block {
            Some(block) => {
                let ranges = self.ranges.min(frontier_len).max(1);
                let (lo, hi) = block.range(ranges);
                (ranges, (lo..hi).collect())
            }
            None => {
                let indices = self.span.clone().filter(|i| !self.done.contains(i));
                (self.ranges, indices.collect())
            }
        }
    }
}

/// A pinned partition that does not fit the rebuilt frontier: its
/// stored ranges would cover the wrong parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierMismatch {
    /// The order whose frontier was rebuilt.
    pub order: usize,
    /// The frontier length the stored partition was cut from.
    pub stored: u64,
    /// The frontier length this build produced.
    pub rebuilt: u64,
}

impl fmt::Display for FrontierMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the stored partition was cut from a different n={} frontier (stored \
             frontier_len={}, rebuilt {}) — incompatible build?",
            self.order, self.stored, self.rebuilt
        )
    }
}

impl std::error::Error for FrontierMismatch {}

/// One executed range, as a runner's sink receives it.
#[derive(Debug)]
pub struct RangeRun<R> {
    /// Which range of the partition this is (`0..ranges`).
    pub index: usize,
    /// First parent index owned by this range.
    pub lo: usize,
    /// One past the last parent index owned by this range.
    pub hi: usize,
    /// Wall-clock the worker spent on this range.
    pub elapsed_ms: u64,
    /// Emissions and final-level pruning counters of this range.
    pub stats: RangeStats,
    /// What the runner's `work` made of the range.
    pub output: R,
}

/// A [`RangeSelection`] checked against the frontier it cuts.
#[derive(Debug)]
pub struct FrontierPartition<'a> {
    /// Total ranges the frontier is cut into.
    pub ranges: usize,
    frontier: &'a ParentFrontier,
    indices: Vec<usize>,
}

impl<'a> FrontierPartition<'a> {
    /// Checks `selection` against `frontier` before any range runs: a
    /// [`RangeSelection::all`] or [`RangeSelection::shard`] gets at most
    /// one range per parent, a resumed partition keeps its range count.
    ///
    /// # Errors
    ///
    /// [`FrontierMismatch`] when the selection pins another frontier
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the selection's span does not fit its partition.
    pub fn new(
        frontier: &'a ParentFrontier,
        selection: &RangeSelection,
    ) -> Result<FrontierPartition<'a>, FrontierMismatch> {
        assert!(
            selection.span.end <= selection.ranges,
            "range selection {:?} does not fit a {}-range partition",
            selection.span,
            selection.ranges
        );
        let rebuilt = frontier.len() as u64;
        if let Some(stored) = selection.frontier_len.filter(|&s| s != rebuilt) {
            let order = frontier.order;
            return Err(FrontierMismatch {
                order,
                stored,
                rebuilt,
            });
        }
        let (ranges, indices) = selection.cut(frontier.len());
        Ok(FrontierPartition {
            frontier,
            ranges,
            indices,
        })
    }

    /// Runs every selected range on the [`crate::scheduler`]: each of
    /// up to `threads` workers builds its `state` once with `init`, and
    /// `work(state, lo, hi)` streams parents `[lo, hi)` into the range's
    /// [`RangeStats`] and output, which reach `sink` on the calling
    /// thread. Returns the executed ranges' summed final level; records
    /// the `range_wall_ms`, `range_emitted`, `ranges_per_worker` and
    /// `writer_backlog_high_water` telemetry.
    ///
    /// # Panics
    ///
    /// Propagates panics from `init`, `work` and `sink`.
    pub fn run<S, R, I, W, K>(&self, threads: usize, init: I, work: W, mut sink: K) -> RangeStats
    where
        R: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> (RangeStats, R) + Sync,
        K: FnMut(RangeRun<R>),
    {
        let recorder = bnf_obs::Recorder::global();
        let mut total = RangeStats::default();
        // Ranges finished and not yet taken by the sink (blocked sends
        // included): the writer backlog.
        let (in_flight, backlog) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let per_worker = scheduler::run(
            threads,
            self.indices.len(),
            init,
            |state, unit| {
                let index = self.indices[unit];
                let (lo, hi) = ShardSpec::new(index, self.ranges).range(self.frontier.len());
                let started = Instant::now();
                let (stats, output) = work(state, lo, hi);
                let elapsed_ms = started.elapsed().as_millis() as u64;
                let depth = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                backlog.fetch_max(depth, Ordering::Relaxed);
                RangeRun {
                    index,
                    lo,
                    hi,
                    elapsed_ms,
                    stats,
                    output,
                }
            },
            |run| {
                in_flight.fetch_sub(1, Ordering::Relaxed);
                recorder.record_hist("range_wall_ms", run.elapsed_ms);
                recorder.record_hist("range_emitted", run.stats.emitted);
                total.merge(&run.stats);
                sink(run);
            },
        );
        // The steal-balance histogram: a lopsided distribution means the
        // oversplit is too coarse for this frontier.
        for stolen in per_worker {
            recorder.record_hist("ranges_per_worker", stolen);
        }
        recorder.record_max("writer_backlog_high_water", backlog.into_inner() as u64);
        total
    }
}

impl ParentFrontier {
    /// The unsharded-equivalent [`StreamStats`] of ranges that summed to
    /// `final_level`: the build's level sizes and counter share plus the
    /// final level — equal to [`crate::for_each_connected_stats`] when
    /// the ranges cover the whole frontier.
    pub fn stream_stats(&self, final_level: RangeStats) -> StreamStats {
        let mut stats = StreamStats {
            level_sizes: self.level_sizes().to_vec(),
            prune: self.frontier_prune(),
        };
        stats.level_sizes.push(final_level.emitted);
        stats.prune.merge(&final_level.prune);
        stats
    }
}
