//! Façade crate for the bilateral network-formation reproduction
//! (Corbo & Parkes, PODC 2005).
//!
//! Re-exports the workspace crates so examples and integration tests can
//! depend on one name. See the individual crates for the substance:
//!
//! * [`graph`] — graph substrate (BFS, canonical labelling, properties)
//! * [`atlas`] — named graphs and families (Figure 1 gallery, cages)
//!   plus the persistent classification atlas (`--atlas` store)
//! * [`enumerate`] — exhaustive non-isomorphic enumeration
//! * [`stream`] — streaming enumeration: canonical-construction pruned
//!   level-by-level augmentation feeding classification without
//!   materializing the list (or any dedup set), the frontier partition
//!   and the work-stealing scheduler
//! * [`games`] — the UCG/BCG model: strategies, costs, efficiency, PoA
//! * [`core`] — equilibrium analysis (stability windows, pairwise Nash,
//!   link convexity, the UCG Nash solver)
//! * [`dynamics`] — myopic pairwise and best-response dynamics
//! * [`engine`] — the shared classify-every-graph analysis pipeline
//!   (per-worker scratch, `Analysis` jobs, the classify orchestrator)
//! * [`empirics`] — the figure-regenerating sweeps, defined as thin
//!   engine jobs
//! * [`serve`] — the HTTP query layer over an indexed atlas
//!   (`/classify`, `/record`, `/grid`) plus the `serve_bench` harness
//! * [`obs`] — run telemetry: spans, counters, histograms, versioned
//!   `--report-json` run manifests, and the shared minimal JSON module
//!
//! # Quickstart
//!
//! Build everything and run the test suite:
//!
//! ```text
//! cargo build --release
//! cargo test -q
//! ```
//!
//! Regenerate Figure 2 (average price of anarchy of equilibrium
//! networks across the link-cost grid; `--n 8` for the bigger sweep,
//! `--csv` for machine-readable output, `--threads T` to size the
//! engine's worker pool):
//!
//! ```text
//! cargo run --release -p bnf-empirics --bin fig2_avg_poa -- --n 7
//! ```
//!
//! The other figure binaries follow the same shape: `fig3_avg_links`,
//! `fig1_gallery`, `poa_bounds`, `lemma6_cycles`, `efficiency_scan`.
//! The sweeps classify topologies as the enumeration generates them (no
//! materialized graph list — the enumeration side holds one frontier);
//! orders beyond the default `n = 8` ceiling opt in at runtime via the
//! `BNF_MAX_N` environment variable:
//!
//! ```text
//! BNF_MAX_N=9 cargo run --release -p bnf-empirics --bin fig2_avg_poa -- --n 9
//! ```
//!
//! Classification is windows-first: each topology is classified once
//! into α-independent windows, and the α axis is a free post-pass.
//! `--grid log2:1/4:64:32` evaluates a log-dense axis from the same
//! records; `--atlas sweeps.bnfatlas` persists them, so re-runs (any
//! grid, `efficiency_scan` and `poa_bounds` included) replay from the
//! store instead of re-classifying:
//!
//! ```text
//! cargo run --release -p bnf-empirics --bin fig2_avg_poa -- \
//!     --n 8 --atlas sweeps.bnfatlas --grid log2:1/4:64:32
//! ```
//!
//! Big sweeps shard across processes (or machines): `--shard i/m`
//! classifies process `i`'s contiguous block of the parent frontier
//! into its own atlas segment, and the `shard_merge` binary (bnf-atlas) folds the
//! segments into one coverage-complete store — see
//! `crates/atlas/README.md`, "Sharded sweeps", for the n = 10 recipe:
//!
//! ```text
//! BNF_MAX_N=10 cargo run --release -p bnf-empirics --bin fig2_avg_poa -- \
//!     --n 10 --shard 0/16 --atlas seg-0.bnfatlas
//! cargo run --release -p bnf-atlas --bin shard_merge -- \
//!     --out n10.bnfatlas seg-*.bnfatlas
//! ```
//!
//! Once a store has declared coverage, index it and serve point
//! queries over HTTP without buffering the store (see
//! `crates/serve/` for the endpoint reference):
//!
//! ```text
//! cargo run --release -p bnf-atlas --bin atlas_index -- --atlas n10.bnfatlas
//! cargo run --release -p bnf-serve --bin bnf_serve -- --atlas n10.bnfatlas
//! ```
//!
//! Benchmark the engine-backed pipeline (baseline numbers live in
//! CHANGES.md):
//!
//! ```text
//! cargo bench -p bnf-bench --bench fig2_fig3_sweep
//! ```
//!
//! # Library example
//!
//! ```
//! use bilateral_formation::prelude::*;
//!
//! let c6 = bilateral_formation::atlas::cycle(6);
//! let window = stability_window(&c6).expect("C6 is stable somewhere");
//! assert!(window.contains(Ratio::from(4)));
//! ```
//!
//! Defining a new exhaustive study is one [`engine::Analysis`] impl:
//!
//! ```
//! use bilateral_formation::engine::{Analysis, AnalysisEngine, WorkerScratch};
//! use bilateral_formation::graph::Graph;
//!
//! struct DiameterCensus;
//! impl Analysis for DiameterCensus {
//!     type Output = u32;
//!     fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> u32 {
//!         g.diameter().expect("connected")
//!     }
//! }
//! let (diameters, _stats) = AnalysisEngine::new(2)
//!     .run_connected_streaming_keyed_orchestrated(5, None, &DiameterCensus, |_| {});
//! assert_eq!(diameters.len(), 21);
//! ```

#![warn(missing_docs)]

pub use bnf_atlas as atlas;
pub use bnf_core as core;
pub use bnf_dynamics as dynamics;
pub use bnf_empirics as empirics;
pub use bnf_engine as engine;
pub use bnf_enumerate as enumerate;
pub use bnf_games as games;
pub use bnf_graph as graph;
pub use bnf_obs as obs;
pub use bnf_serve as serve;
pub use bnf_stream as stream;

/// The most commonly used items, for glob import in examples.
pub mod prelude {
    pub use bnf_core::{
        is_link_convex, is_pairwise_nash, is_pairwise_stable, stability_window, DeltaCalc,
        DistanceDelta, StabilityWindow, Threshold, UcgAnalyzer,
    };
    pub use bnf_engine::{Analysis, AnalysisEngine, WorkerScratch};
    pub use bnf_games::{
        efficient_graph, optimal_social_cost, price_of_anarchy, social_cost, GameKind, Ratio,
        StrategyProfile,
    };
    pub use bnf_graph::Graph;
}
