//! The level-by-level connected-graph producer.
//!
//! Every connected graph on `k + 1` vertices is some connected graph on
//! `k` vertices plus one new vertex with a non-empty neighbour set, so
//! the enumeration walks levels `1, 2, …, n`. Since the
//! canonical-construction pruning rewrite ([`crate::prune`]) each level
//! holds only
//!
//! * the previous level's frontier (the parents), and
//! * — for intermediate levels only — the next frontier being built.
//!
//! There is **no dedup set at any level**: the McKay-style accept rule
//! emits every isomorphism class from exactly one `(parent, mask)`
//! pair, so the per-level canonical-key set the unpruned path had to
//! retain (11.7 M keys at `n = 10`) no longer exists, and the expensive
//! canonical search runs only on survivors and invariant ties instead
//! of on all `2^k - 1` masks per parent. Graphs of the final level are
//! handed to the caller's sink the moment they are accepted and are
//! never collected, which keeps peak memory at `O(largest level)`.
//!
//! The same accept rule is what makes the final level *shardable by
//! parent*: children of distinct parents are disjoint isomorphism
//! classes, so any partition of the (deterministically sorted)
//! level-`n − 1` frontier into contiguous ranges partitions the
//! emissions — [`ParentFrontier::stream_range`] runs one range and the
//! union over a full [`ShardSpec`] partition is exactly the unsharded
//! stream, with no coordination beyond the range arithmetic.
//!
//! The pre-pruning augmentation survives as
//! [`for_each_connected_unpruned`], the independent reference
//! implementation the equivalence tests (and A/B measurements) compare
//! against.

use std::time::Instant;

use bnf_graph::{CanonKey, Graph, VertexSet};

use crate::prune::{augment_connected_parent, PruneCounters};
use crate::scheduler;

/// Per-level sizes and pruning work counters observed by one streaming
/// enumeration run.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// `level_sizes[k]` is the number of distinct connected graphs on
    /// `k + 1` vertices produced at level `k` (the last entry is the
    /// number of graphs emitted to the sink).
    pub level_sizes: Vec<u64>,
    /// Aggregate canonical-construction pruning counters across all
    /// levels (candidates constructed, orbit-skipped masks, cheap and
    /// search rejections, local duplicates).
    pub prune: PruneCounters,
}

impl StreamStats {
    /// The number of graphs emitted to the sink (the final level size).
    pub fn emitted(&self) -> u64 {
        self.level_sizes.last().copied().unwrap_or(0)
    }

    /// The largest level (the peak frontier the run had to hold).
    pub fn peak_level(&self) -> u64 {
        self.level_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// One block of a partition of the sorted level-`n − 1` parent
/// frontier: block `index` of `count` equal contiguous ranges (see
/// [`ShardSpec::range`]) — the arithmetic behind every range the
/// orchestrator (`bnf-engine`) streams and the `--shard i/m` CLI form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards in the partition.
    pub count: usize,
}

impl ShardSpec {
    /// A validated spec.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// Parses the CLI form `i/m` (e.g. `0/4`, zero-based).
    ///
    /// # Errors
    ///
    /// A human-readable diagnosis for malformed specs or `index >=
    /// count`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/m (e.g. 0/4), got {s:?}"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {s:?}"))?;
        let count: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {s:?}"))?;
        if count == 0 {
            return Err(format!("shard count must be >= 1, got {s:?}"));
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// The contiguous frontier range `[lo, hi)` this shard owns out of
    /// `frontier_len` parents: the standard balanced split
    /// `⌊i·L/m⌋ .. ⌊(i+1)·L/m⌋`, which tiles `[0, L)` exactly over the
    /// full partition (deterministic — every invocation of every shard
    /// computes the same split from `frontier_len` alone).
    pub fn range(&self, frontier_len: usize) -> (usize, usize) {
        // u128 intermediates: the products overflow usize for absurd
        // but parseable shard counts, and a wrapped split would tile
        // wrongly instead of failing.
        let cut = |i: usize| (frontier_len as u128 * i as u128 / self.count as u128) as usize;
        (cut(self.index), cut(self.index + 1))
    }
}

/// The sort that fixes each level's frontier order (edge count, then
/// canonical key) — what makes parent indices, and therefore shard
/// ranges, deterministic across invocations.
fn sort_frontier(frontier: &mut [(Graph, CanonKey)]) {
    frontier.sort_by(|a, b| (a.0.edge_count(), &a.1).cmp(&(b.0.edge_count(), &b.1)));
}

/// The sorted level-`n − 1` parent frontier, built **once** and shared
/// by any number of final-level range runs — the seam the orchestrator
/// (`bnf-engine`) parallelizes over. Calling
/// [`ParentFrontier::stream_range`] per range pays the build exactly
/// once, and the frontier-build pruning counters
/// ([`ParentFrontier::frontier_prune`]) exist as a single share however
/// many ranges are cut.
#[derive(Debug)]
pub struct ParentFrontier {
    /// The order `n` whose final level the ranges stream.
    pub(crate) order: usize,
    parents: Vec<Graph>,
    /// Level sizes of the build: `[1, |level 1|, …, |level n − 2|]`
    /// (the last entry is the frontier itself; empty for `n <= 1`).
    level_sizes: Vec<u64>,
    /// Pruning counters of levels `1..n − 1` — the frontier-build share.
    prune: PruneCounters,
}

/// What one [`ParentFrontier::stream_range`] call did: emission count
/// and the range's final-level pruning counters. Per-range stats sum
/// across any partition of the frontier; adding the (single)
/// [`ParentFrontier::frontier_prune`] share reproduces the unsharded
/// [`StreamStats`] totals exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Final-level graphs emitted from this parent range.
    pub emitted: u64,
    /// Pruning counters of the final level restricted to this range.
    pub prune: PruneCounters,
}

impl RangeStats {
    /// Adds another range's emissions and counters into `self`.
    pub fn merge(&mut self, other: &RangeStats) {
        self.emitted += other.emitted;
        self.prune.merge(&other.prune);
    }
}

impl ParentFrontier {
    /// Builds the sorted level-`n − 1` frontier (levels `1..n − 1` of
    /// the augmentation, each sorted by edge count then canonical key)
    /// across up to `threads` workers.
    ///
    /// Orders 0 and 1 have a single graph and no augmentation level:
    /// their frontier is that graph itself (length 1, empty
    /// [`ParentFrontier::level_sizes`], zero pruning counters), which
    /// [`ParentFrontier::stream_range`] emits as-is.
    ///
    /// # Panics
    ///
    /// Panics if `n > 10` (the enumeration bound).
    pub fn build(n: usize, threads: usize) -> ParentFrontier {
        assert!(
            n <= 10,
            "exhaustive enumeration beyond n=10 is not supported"
        );
        if n <= 1 {
            return ParentFrontier {
                order: n,
                parents: vec![Graph::empty(n)],
                level_sizes: Vec::new(),
                prune: PruneCounters::default(),
            };
        }
        let build_started = Instant::now();
        let mut level_sizes = vec![1u64];
        let mut prune = PruneCounters::default();
        let mut parents = vec![Graph::empty(1)];
        for _ in 1..(n - 1) {
            // One level: workers steal parent chunks; the children arrive
            // in any order, and the sort fixes it.
            let (level_started, candidates_before) = (Instant::now(), prune.candidates);
            let chunk = scheduler::chunk_len(parents.len(), threads);
            let mut next: Vec<(Graph, CanonKey)> = Vec::new();
            scheduler::run(
                threads,
                parents.len().div_ceil(chunk),
                || (),
                |(), unit| {
                    let mut counters = PruneCounters::default();
                    let mut children = Vec::new();
                    for parent in parents[unit * chunk..].iter().take(chunk) {
                        // Accepted children are unique by construction:
                        // push without any dedup lookup.
                        augment_connected_parent(parent, &mut counters, |form, key| {
                            children.push((form, key));
                        });
                    }
                    (children, counters)
                },
                |(mut children, counters)| {
                    next.append(&mut children);
                    prune.merge(&counters);
                },
            );
            // Candidates per millisecond of level wall-clock: the
            // distribution the straggler-level analysis reads.
            let ms = (level_started.elapsed().as_millis() as u64).max(1);
            let rate = (prune.candidates - candidates_before) / ms;
            bnf_obs::Recorder::global().record_hist("level_candidates_per_ms", rate);
            level_sizes.push(next.len() as u64);
            sort_frontier(&mut next);
            parents = next.into_iter().map(|(g, _)| g).collect();
        }
        bnf_obs::Recorder::global()
            .add_span_ms("frontier_build", build_started.elapsed().as_millis() as u64);
        ParentFrontier {
            order: n,
            parents,
            level_sizes,
            prune,
        }
    }

    /// Number of parents in the frontier.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the frontier is empty (never true for `n <= 10`).
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Level sizes of the build, `[1, …, frontier size]` (empty for
    /// `n <= 1`, which has no augmentation level).
    pub fn level_sizes(&self) -> &[u64] {
        &self.level_sizes
    }

    /// Pruning counters of the frontier build (levels `1..n − 1`) —
    /// identical for every range cut from this frontier; count it once
    /// per partition, never per range.
    pub fn frontier_prune(&self) -> PruneCounters {
        self.prune
    }

    /// Streams the final-level children of parents `[lo, hi)` into
    /// `visit`, serially on the calling thread — the per-range unit of
    /// work the orchestrator's workers steal. Bounds are clamped to the
    /// frontier; children of disjoint ranges are disjoint isomorphism
    /// classes (the canonical-construction accept rule), so any
    /// partition of `[0, len)` partitions the emissions exactly. For
    /// `n <= 1` the single frontier graph is itself the final level and
    /// is emitted in canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`; propagates panics from `visit`.
    pub fn stream_range<V>(&self, lo: usize, hi: usize, mut visit: V) -> RangeStats
    where
        V: FnMut(Graph, CanonKey),
    {
        assert!(lo <= hi, "parent range is reversed: {lo} > {hi}");
        let lo = lo.min(self.parents.len());
        let hi = hi.min(self.parents.len());
        let mut stats = RangeStats::default();
        for parent in &self.parents[lo..hi] {
            let before = stats.emitted;
            if self.order <= 1 {
                let (form, key) = parent.canonical_form_and_key();
                stats.emitted += 1;
                visit(form, key);
            } else {
                augment_connected_parent(parent, &mut stats.prune, |form, key| {
                    stats.emitted += 1;
                    visit(form, key);
                });
            }
            bnf_obs::heartbeat::tick(stats.emitted - before);
        }
        stats
    }
}

/// Serial streaming enumeration: invokes `visit` once per non-isomorphic
/// connected graph on `n` vertices (canonical form plus key), holding
/// only the current frontier. Returns the per-level sizes and pruning
/// counters — the reference every orchestrated run's
/// [`StreamStats`] are certified against.
///
/// # Panics
///
/// Panics if `n > 10` and propagates panics from `visit`.
pub fn for_each_connected_stats<V>(n: usize, mut visit: V) -> StreamStats
where
    V: FnMut(Graph, CanonKey),
{
    assert!(
        n <= 10,
        "exhaustive enumeration beyond n=10 is not supported"
    );
    let mut stats = StreamStats::default();
    if n == 0 {
        let (g, key) = Graph::empty(0).canonical_form_and_key();
        visit(g, key);
        stats.level_sizes.push(1);
        return stats;
    }
    let mut parents = vec![Graph::empty(1)];
    stats.level_sizes.push(1);
    if n == 1 {
        let (g, key) = Graph::empty(1).canonical_form_and_key();
        visit(g, key);
        return stats;
    }
    for k in 1..n {
        let last = k + 1 == n;
        let mut next: Vec<(Graph, CanonKey)> = Vec::new();
        let mut fresh = 0u64;
        for parent in &parents {
            augment_connected_parent(parent, &mut stats.prune, |form, key| {
                fresh += 1;
                if last {
                    visit(form, key);
                } else {
                    next.push((form, key));
                }
            });
        }
        stats.level_sizes.push(fresh);
        if !last {
            sort_frontier(&mut next);
            parents = next.into_iter().map(|(g, _)| g).collect();
        }
    }
    stats
}

/// [`for_each_connected_stats`] for callers that do not need the stats.
///
/// # Panics
///
/// Panics if `n > 10` and propagates panics from `visit`.
pub fn for_each_connected<V>(n: usize, visit: V)
where
    V: FnMut(Graph, CanonKey),
{
    let _ = for_each_connected_stats(n, visit);
}

/// The pre-pruning reference enumeration: generates **every** non-empty
/// neighbour mask of every parent, canonicalizes each candidate, and
/// deduplicates the canonical keys in a per-level hash set.
///
/// Kept as the independent oracle the canonical-construction pruning is
/// certified against (exact counts and canonical-key multisets must
/// match for every order — `tests/enumeration_counts.rs` and the
/// streaming equivalence suite), and for A/B measurements of the
/// candidate blowup. New workloads should use [`for_each_connected`].
///
/// # Panics
///
/// Panics if `n > 10` and propagates panics from `visit`.
pub fn for_each_connected_unpruned<V>(n: usize, mut visit: V)
where
    V: FnMut(Graph, CanonKey),
{
    assert!(
        n <= 10,
        "exhaustive enumeration beyond n=10 is not supported"
    );
    if n == 0 {
        let (g, key) = Graph::empty(0).canonical_form_and_key();
        visit(g, key);
        return;
    }
    let mut parents = vec![Graph::empty(1)];
    if n == 1 {
        let (g, key) = Graph::empty(1).canonical_form_and_key();
        visit(g, key);
        return;
    }
    for k in 1..n {
        let last = k + 1 == n;
        let mut seen = std::collections::HashSet::new();
        let mut next: Vec<(Graph, CanonKey)> = Vec::new();
        for parent in &parents {
            for mask in 1..(1u64 << k) {
                let child = parent.with_extra_vertex(&VertexSet::from_mask(k, mask));
                let (form, key) = child.canonical_form_and_key();
                // Duplicates (the majority) pay a lookup, never a clone.
                if seen.contains(&key) {
                    continue;
                }
                seen.insert(key.clone());
                if last {
                    visit(form, key);
                } else {
                    next.push((form, key));
                }
            }
        }
        if !last {
            sort_frontier(&mut next);
            parents = next.into_iter().map(|(g, _)| g).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// OEIS A001349 — connected graphs on n unlabelled vertices.
    const CONNECTED: [u64; 8] = [1, 1, 1, 2, 6, 21, 112, 853];

    /// One frontier build on `threads` workers streamed as a single
    /// range: the parallel path's emissions, plus its
    /// unsharded-equivalent [`StreamStats`].
    fn frontier_stream<V>(n: usize, threads: usize, visit: V) -> StreamStats
    where
        V: FnMut(Graph, CanonKey),
    {
        let frontier = ParentFrontier::build(n, threads);
        frontier.stream_stats(frontier.stream_range(0, frontier.len(), visit))
    }

    #[test]
    fn parallel_counts_match_oeis() {
        for (n, &want) in CONNECTED.iter().enumerate() {
            let mut count = 0u64;
            let stats = frontier_stream(n, 2, |g, key| {
                assert_eq!(g.order(), n);
                assert_eq!(key.order(), n);
                assert!(n == 0 || g.is_connected());
                count += 1;
            });
            assert_eq!(count, want, "n={n}");
            assert_eq!(stats.emitted(), want, "n={n}");
        }
    }

    #[test]
    fn serial_matches_parallel_key_multiset() {
        for n in 0..7 {
            let mut serial = Vec::new();
            for_each_connected(n, |_, key| serial.push(key));
            let mut parallel = Vec::new();
            frontier_stream(n, 4, |_, key| parallel.push(key));
            // The serial path must already be duplicate-free…
            let distinct: HashSet<_> = serial.iter().cloned().collect();
            assert_eq!(distinct.len(), serial.len(), "n={n}");
            // …and the parallel build must emit exactly the same multiset.
            serial.sort();
            parallel.sort();
            assert_eq!(serial, parallel, "n={n}");
        }
    }

    #[test]
    fn pruned_matches_unpruned_key_multiset() {
        // The canonical-construction path must emit exactly the classes
        // the generate-all-and-dedup oracle finds, each exactly once.
        for n in 0..8 {
            let mut pruned = Vec::new();
            for_each_connected(n, |_, key| pruned.push(key));
            let mut oracle = Vec::new();
            for_each_connected_unpruned(n, |_, key| oracle.push(key));
            pruned.sort();
            oracle.sort();
            assert_eq!(pruned, oracle, "n={n}");
        }
    }

    #[test]
    fn emitted_graphs_are_canonical_forms() {
        for_each_connected(5, |g, key| {
            assert_eq!(g.canonical_key(), key);
            assert_eq!(g.canonical_form(), g);
        });
    }

    #[test]
    fn stats_record_every_level() {
        let stats = frontier_stream(6, 2, |_, _| {});
        assert_eq!(stats.level_sizes, vec![1, 1, 2, 6, 21, 112]);
        assert_eq!(stats.peak_level(), 112);
        assert_eq!(stats.emitted(), 112);
        // Pruning bookkeeping: accepted candidates are exactly the
        // graphs of levels 1..: 1 + 2 + 6 + 21 + 112.
        assert_eq!(stats.prune.accepted(), 142);
        assert_eq!(stats.prune.duplicates, 0, "orbit pruning missed a dupe");
        // The unpruned path would have constructed sum(parents * (2^k - 1))
        // candidates; pruning must test strictly fewer.
        let unpruned: u64 = [1u64, 3, 14, 90, 651].iter().sum(); // parents × (2^k − 1) per level
        assert!(
            stats.prune.candidates < unpruned,
            "{} candidates vs {unpruned} unpruned",
            stats.prune.candidates
        );
        assert_eq!(
            stats.prune.candidates + stats.prune.orbit_skipped,
            unpruned,
            "every mask is either tested or orbit-skipped"
        );
        // Serial twin agrees on all counters.
        let serial = for_each_connected_stats(6, |_, _| {});
        assert_eq!(serial.level_sizes, stats.level_sizes);
        assert_eq!(serial.prune, stats.prune);
    }

    #[test]
    fn sink_panic_propagates() {
        let frontier = ParentFrontier::build(5, 2);
        let caught = std::panic::catch_unwind(|| {
            frontier.stream_range(0, frontier.len(), |g, _| {
                assert!(g.order() < 5, "boom");
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn single_thread_build_matches() {
        // One worker runs the same scheduler path as many.
        let mut count = 0u64;
        let stats = frontier_stream(6, 1, |_, _| count += 1);
        assert_eq!(count, 112);
        assert_eq!(stats.prune, for_each_connected_stats(6, |_, _| {}).prune);
    }

    #[test]
    fn shard_spec_parse_and_range() {
        assert_eq!(ShardSpec::parse("0/4"), Ok(ShardSpec::new(0, 4)));
        assert_eq!(ShardSpec::parse(" 3 / 7 "), Ok(ShardSpec::new(3, 7)));
        for bad in ["", "3", "4/4", "5/4", "-1/4", "0/0", "a/b", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // The balanced split tiles [0, L) exactly, in order, for any
        // frontier length and shard count.
        for len in [0usize, 1, 5, 21, 112, 1000] {
            for count in [1usize, 2, 3, 7, 16] {
                let mut expect_lo = 0;
                for index in 0..count {
                    let (lo, hi) = ShardSpec::new(index, count).range(len);
                    assert_eq!(lo, expect_lo, "len={len} count={count} index={index}");
                    assert!(hi >= lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, len, "len={len} count={count}");
            }
        }
        // Absurd-but-parseable shard counts must not wrap the split
        // arithmetic: the last shard of a usize::MAX/2-way partition of
        // a small frontier is empty at the frontier's end, not garbage.
        let huge = ShardSpec::new(usize::MAX / 2 - 1, usize::MAX / 2);
        assert_eq!(huge.range(1000), (999, 1000));
    }

    #[test]
    fn shard_union_matches_unsharded_multiset() {
        // Any full ShardSpec partition of the frontier emits exactly the
        // unsharded stream, each class from exactly one block, whatever
        // the build's thread count — and every build agrees on the
        // frontier-build counter share.
        for n in [2usize, 5, 7] {
            let whole = for_each_connected_stats(n, |_, _| {});
            let mut expect = Vec::new();
            for_each_connected(n, |_, key| expect.push(key));
            expect.sort();
            for count in [1usize, 3, 4, 9] {
                let mut union = Vec::new();
                let mut prune = None;
                for index in 0..count {
                    let frontier = ParentFrontier::build(n, 1 + index % 3);
                    let share = *prune.get_or_insert(frontier.frontier_prune());
                    assert_eq!(frontier.frontier_prune(), share, "n={n} count={count}");
                    let (lo, hi) = ShardSpec::new(index, count).range(frontier.len());
                    frontier.stream_range(lo, hi, |_, key| union.push(key));
                }
                union.sort();
                assert_eq!(union, expect, "n={n} count={count}");
            }
            assert_eq!(whole.emitted(), expect.len() as u64);
        }
    }

    #[test]
    fn shard_counters_split_frontier_from_final_level() {
        // One frontier share plus the per-block final-level shares
        // reproduces the unsharded totals.
        let whole = for_each_connected_stats(6, |_, _| {});
        let frontier = ParentFrontier::build(6, 2);
        let mut total = frontier.frontier_prune();
        for index in 0..4 {
            let (lo, hi) = ShardSpec::new(index, 4).range(frontier.len());
            total.merge(&frontier.stream_range(lo, hi, |_, _| {}).prune);
        }
        assert_eq!(total, whole.prune);
    }

    #[test]
    fn explicit_ranges_clamp_and_cover() {
        // Round-number cuts tile the stream whatever the frontier
        // length: out-of-range bounds clamp, reversed ones are refused.
        let frontier = ParentFrontier::build(6, 2);
        assert_eq!(frontier.len(), 21); // the connected graphs on 5 vertices
        let emitted: u64 = [(0, 0), (0, 6), (6, 100), (100, 200)]
            .iter()
            .map(|&(lo, hi)| frontier.stream_range(lo, hi, |_, _| {}).emitted)
            .sum();
        assert_eq!(emitted, 112);
        let reversed = std::panic::catch_unwind(|| frontier.stream_range(5, 4, |_, _| {}));
        assert!(reversed.is_err(), "a reversed range must be refused");
    }

    #[test]
    fn trivial_orders_stream_their_single_graph() {
        // n ∈ {0, 1}: a one-graph frontier with no build level and no
        // pruning work; any partition emits the canonical Graph::empty(n)
        // exactly once, and the recombined stats equal the serial ones.
        for n in [0usize, 1] {
            let frontier = ParentFrontier::build(n, 2);
            assert_eq!(frontier.len(), 1, "n={n}");
            assert!(frontier.level_sizes().is_empty(), "n={n}");
            assert_eq!(frontier.frontier_prune(), PruneCounters::default());
            let mut serial = Vec::new();
            let serial_stats = for_each_connected_stats(n, |g, key| serial.push((g, key)));
            let mut emitted = Vec::new();
            let stats = frontier_stream(n, 2, |g, key| emitted.push((g, key)));
            assert_eq!(emitted, serial, "n={n}");
            assert_eq!(emitted[0].0, Graph::empty(n).canonical_form(), "n={n}");
            assert_eq!(stats.level_sizes, vec![1], "n={n}");
            assert_eq!(stats.level_sizes, serial_stats.level_sizes, "n={n}");
            assert_eq!(stats.prune, serial_stats.prune, "n={n}");
            for count in [1usize, 4, 16] {
                let mut total = 0;
                for index in 0..count {
                    let (lo, hi) = ShardSpec::new(index, count).range(frontier.len());
                    total += frontier.stream_range(lo, hi, |_, _| {}).emitted;
                }
                assert_eq!(total, 1, "n={n} count={count}");
            }
        }
    }

    /// One prebuilt frontier, any partition of its parents: the ranges
    /// union to the unsharded multiset, and the single frontier-build
    /// counter share plus the summed per-range shares reproduce the
    /// unsharded [`StreamStats`] exactly — the invariant the in-process
    /// orchestrator's "frontier built exactly once" claim rests on.
    #[test]
    fn parent_frontier_ranges_reproduce_the_unsharded_stream_exactly() {
        for n in [2usize, 5, 7] {
            let mut whole = Vec::new();
            let whole_stats = for_each_connected_stats(n, |_, key| whole.push(key));
            whole.sort();
            let frontier = ParentFrontier::build(n, 2);
            assert!(!frontier.is_empty());
            assert_eq!(frontier.level_sizes().len(), n - 1);
            assert_eq!(
                frontier.level_sizes().last().copied(),
                Some(frontier.len() as u64)
            );
            // Uneven cuts, an empty range, and a clamped overshoot.
            let len = frontier.len();
            let cuts = [0, len / 3, len / 3, len / 2, len + 7];
            let mut union = Vec::new();
            let mut emitted = 0u64;
            let mut final_prune = PruneCounters::default();
            for w in cuts.windows(2) {
                let run = frontier.stream_range(w[0], w[1], |_, key| union.push(key));
                emitted += run.emitted;
                final_prune.merge(&run.prune);
            }
            union.sort();
            assert_eq!(union, whole, "n={n}");
            assert_eq!(emitted, whole.len() as u64, "n={n}");
            let mut total = frontier.frontier_prune();
            total.merge(&final_prune);
            assert_eq!(total, whole_stats.prune, "n={n}");
            let mut levels = frontier.level_sizes().to_vec();
            levels.push(emitted);
            assert_eq!(levels, whole_stats.level_sizes, "n={n}");
        }
    }
}
