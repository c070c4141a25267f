//! The shared classify-every-graph analysis pipeline.
//!
//! Every empirical product of the paper — the Figure 2/3 sweeps, the
//! Proposition 4 bound scan, the Lemma 6 cycle table, the Figure 1
//! gallery — is an instance of the same loop: *enumerate a family of
//! inputs, classify each one independently with exact equilibrium
//! machinery, aggregate*. Before this crate each `bnf-empirics` module
//! re-implemented that loop with its own threading and allocation
//! pattern; now they are thin [`Analysis`] job definitions executed by
//! one [`AnalysisEngine`].
//!
//! The engine fuses three concerns the jobs would otherwise duplicate:
//!
//! * **Enumeration** — the **orchestrator**
//!   ([`AnalysisEngine::run_connected_streaming_keyed_orchestrated`]) is
//!   the one enumeration path: it classifies during enumeration without
//!   ever materializing the graph list. It builds the level-`n − 1`
//!   parent frontier once with `bnf-stream`'s canonical-construction
//!   pruned augmentation (each isomorphism class emitted exactly once,
//!   no dedup set), oversplits it into ≈ [`bnf_stream::DEFAULT_OVERSPLIT`]×
//!   more ranges than threads, and lets workers steal whole ranges
//!   while a single writer streams completed [`RangeSegment`]s to the
//!   caller. Every cold sweep, catalogue and count runs on this
//!   frontier partition ([`bnf_stream::FrontierPartition`]; `stream_count`
//!   with a counting worker); [`AnalysisEngine::run_connected_selected`]
//!   runs a [`bnf_stream::RangeSelection`] of it (one process's block of
//!   a multi-process fleet, or the ranges a resumed run still owes).
//! * **Work-stealing execution** — [`bnf_stream::scheduler`], the
//!   workspace's one work-stealing loop (no external thread-pool
//!   dependency): the orchestrator steals frontier ranges, and
//!   [`AnalysisEngine::map`] / [`parallel_map`] steal item chunks and
//!   place each result at its item's index.
//! * **Per-worker scratch reuse** — each worker owns one
//!   [`WorkerScratch`] for its whole lifetime, so the BFS/distance hot
//!   path runs allocation-free instead of re-allocating frontier
//!   buffers per graph (see `bnf_graph::BfsScratch`).
//!
//! # Examples
//!
//! ```
//! use bnf_engine::{Analysis, AnalysisEngine, WorkerScratch};
//! use bnf_graph::Graph;
//!
//! /// Classify each connected topology by (edges, total distance).
//! struct Census;
//! impl Analysis for Census {
//!     type Output = (usize, u64);
//!     fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> Self::Output {
//!         let d = g
//!             .total_distance_with(&mut scratch.bfs)
//!             .expect("connected enumeration");
//!         (g.edge_count(), d)
//!     }
//! }
//!
//! let engine = AnalysisEngine::new(2);
//! let (records, stats) =
//!     engine.run_connected_streaming_keyed_orchestrated(5, None, &Census, |_segment| {});
//! assert_eq!(records.len(), 21); // connected graphs on 5 vertices
//! assert_eq!(stats.emitted(), 21);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod executor;
mod orchestrator;
mod pipeline;
mod scratch;

pub use executor::{default_threads, parallel_map};
pub use orchestrator::{OrchestratorStats, RangeSegment};
pub use pipeline::{Analysis, AnalysisEngine};
pub use scratch::WorkerScratch;
