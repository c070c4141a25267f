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
//! * [`stream_connected`] — the parallel producer: workers pull parent
//!   chunks off an atomic counter and run the **canonical-construction
//!   pruned** augmentation ([`prune`]): one representative neighbour
//!   mask per `Aut(parent)`-orbit, a degree-sequence / deleted-vertex
//!   connectivity reject *before* any canonical search, and a
//!   McKay-style accept rule that emits every isomorphism class from
//!   exactly one `(parent, mask)` pair — so there is **no dedup set**
//!   and the canonical search runs only on survivors and invariant
//!   ties. [`StreamStats`] reports the per-level sizes plus the
//!   candidate / orbit-skipped / rejected / duplicate counters
//!   ([`PruneCounters`]) — the reference counters every orchestrated
//!   sweep's totals are certified against, and what `stream_count`
//!   prints.
//! * [`ParentFrontier`] — the sharding seam: the accept rule makes
//!   children of distinct parents disjoint classes, so any partition of
//!   the deterministically sorted level-`n − 1` frontier into
//!   contiguous ranges ([`ShardSpec`]) partitions the emissions
//!   exactly. [`ParentFrontier::build`] constructs that frontier
//!   **once**; [`ParentFrontier::stream_range`] then streams any
//!   `[lo, hi)` parent slice serially and reports per-range
//!   [`RangeStats`], which is what the orchestrator (`bnf_engine`)
//!   work-steals over — every cold sweep, including each process of a
//!   multi-process `--shard` fleet, runs through it.
//! * [`prune::augment_connected_parent`] — the per-parent augmentation
//!   itself, exported so equivalence and property tests can drive
//!   single parents directly. The pre-pruning generate-all-and-dedup
//!   path survives as [`for_each_connected_unpruned`], the oracle the
//!   pruning is certified against.
//! * [`BoundedQueue`] — a small bounded MPMC channel (the orchestrator
//!   hands completed ranges to its single writer through it), with
//!   [`BoundedQueue::close_guard`] so a panicking stage cancels the
//!   pipeline instead of deadlocking it.

//! # Quickstart
//!
//! Count the connected graphs on 6 vertices without ever holding their
//! list:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use bnf_stream::stream_connected;
//!
//! let count = AtomicU64::new(0);
//! let stats = stream_connected(6, 2, &|graph, _key| {
//!     assert!(graph.is_connected());
//!     count.fetch_add(1, Ordering::Relaxed);
//!     true // keep streaming; false cancels the enumeration
//! });
//! assert_eq!(count.load(Ordering::Relaxed), 112); // OEIS A001349(6)
//! assert_eq!(stats.peak_level(), 112);
//! ```
//!
//! Single-threaded callers with mutable state use the serial twin:
//!
//! ```
//! use bnf_stream::for_each_connected;
//!
//! let mut edge_histogram = std::collections::BTreeMap::new();
//! for_each_connected(5, |g, _| *edge_histogram.entry(g.edge_count()).or_insert(0u32) += 1);
//! assert_eq!(edge_histogram.values().sum::<u32>(), 21);
//! ```
//!
//! For classification workloads, prefer the engine seam
//! (`AnalysisEngine::run_connected_streaming_keyed_orchestrated` in
//! `bnf-engine`), which adds work-stolen ranges, per-worker scratch
//! reuse and a deterministic output order on top of [`ParentFrontier`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod producer;
pub mod prune;
pub mod sync;

pub use channel::{BoundedQueue, CloseGuard};
pub use producer::{
    for_each_connected, for_each_connected_stats, for_each_connected_unpruned, stream_connected,
    ParentFrontier, RangeStats, ShardSpec, StreamStats,
};
pub use prune::PruneCounters;
