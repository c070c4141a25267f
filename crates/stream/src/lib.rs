//! Streaming sharded enumeration of connected topologies.
//!
//! The paper's exhaustive empirics (Figures 2–3) classify *every*
//! connected topology on `n` vertices — 261 080 at `n = 9`, 11.7 M at
//! `n = 10`. Materializing that list before classifying (as
//! `bnf_enumerate::connected_graphs` does) costs `O(all graphs)` memory
//! up front; this crate instead runs the vertex-augmentation frontier
//! **level by level** and hands each final-level graph to the consumer
//! the moment it is proven new, so peak memory is bounded by the
//! largest single level.
//!
//! The pieces:
//!
//! * [`ParentFrontier`] — the one production producer and its sharding
//!   seam. [`ParentFrontier::build`] constructs the deterministically
//!   sorted level-`n − 1` frontier **once**, level by level across
//!   worker threads, with the **canonical-construction pruned**
//!   augmentation ([`prune`]): one representative neighbour mask per
//!   `Aut(parent)`-orbit, a degree-sequence / deleted-vertex
//!   connectivity reject *before* any canonical search, and a
//!   McKay-style accept rule that emits every isomorphism class from
//!   exactly one `(parent, mask)` pair — so there is **no dedup set**
//!   and the canonical search runs only on survivors and invariant
//!   ties. The accept rule also makes children of distinct parents
//!   disjoint classes, so any partition of the frontier into contiguous
//!   ranges ([`ShardSpec`]) partitions the emissions exactly:
//!   [`ParentFrontier::stream_range`] streams any `[lo, hi)` parent
//!   slice serially and reports per-range [`RangeStats`].
//! * [`FrontierPartition`] — checks a [`RangeSelection`] against the
//!   built frontier and work-steals its ranges ([`scheduler`], the
//!   workspace's one work-stealing loop): the classify orchestrator
//!   (`bnf_engine`) runs a classifying worker on it, the `stream_count`
//!   binary a counting one.
//! * [`for_each_connected_stats`] / [`for_each_connected`] — the serial
//!   whole-order enumeration. Its [`StreamStats`] (per-level sizes plus
//!   the candidate / orbit-skipped / rejected / duplicate counters,
//!   [`PruneCounters`]) are the reference counters every orchestrated
//!   run's totals are certified against.
//! * [`prune::augment_connected_parent`] — the per-parent augmentation
//!   itself, exported so equivalence and property tests can drive
//!   single parents directly. The pre-pruning generate-all-and-dedup
//!   path survives as [`for_each_connected_unpruned`], the oracle the
//!   pruning is certified against.

//! # Quickstart
//!
//! Count the connected graphs on 6 vertices without ever holding their
//! list:
//!
//! ```
//! use bnf_stream::for_each_connected_stats;
//!
//! let mut edge_histogram = std::collections::BTreeMap::new();
//! let stats = for_each_connected_stats(6, |g, _key| {
//!     assert!(g.is_connected());
//!     *edge_histogram.entry(g.edge_count()).or_insert(0u32) += 1;
//! });
//! assert_eq!(edge_histogram.values().sum::<u32>(), 112); // OEIS A001349(6)
//! assert_eq!(stats.peak_level(), 112);
//! ```
//!
//! Partitioned runs build the frontier once and steal ranges of it:
//!
//! ```
//! use bnf_stream::{FrontierPartition, ParentFrontier, RangeSelection};
//!
//! let frontier = ParentFrontier::build(6, 2);
//! let partition = FrontierPartition::new(&frontier, &RangeSelection::all(4)).unwrap();
//! let count = |(): &mut (), lo, hi| (frontier.stream_range(lo, hi, |_, _| {}), ());
//! let final_level = partition.run(2, || (), count, |_range| {});
//! assert_eq!(frontier.stream_stats(final_level).emitted(), 112);
//! ```
//!
//! For classification workloads, prefer the engine seam
//! (`AnalysisEngine::run_connected_streaming_keyed_orchestrated` in
//! `bnf-engine`), which adds per-worker scratch reuse and a
//! deterministic output order on top of [`FrontierPartition`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod partition;
mod producer;
pub mod prune;
pub mod scheduler;

pub use partition::{
    auto_range_count, FrontierMismatch, FrontierPartition, RangeRun, RangeSelection,
    DEFAULT_OVERSPLIT,
};
pub use producer::{
    for_each_connected, for_each_connected_stats, for_each_connected_unpruned, ParentFrontier,
    RangeStats, ShardSpec, StreamStats,
};
pub use prune::PruneCounters;
