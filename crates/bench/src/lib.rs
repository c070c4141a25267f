//! Benchmark-only crate: see `benches/` for the Criterion harnesses that
//! regenerate each figure of the paper and profile the substrates.
//!
//! | Bench target | Regenerates |
//! |---|---|
//! | `fig1_gallery` | Figure 1 gallery verification |
//! | `fig2_fig3_sweep` | the Figures 2/3 enumeration sweep |
//! | `poa_bounds` | Propositions 3–4 bound tables |
//! | `lemma6_cycles` | Lemma 6 cycle windows |
//! | `substrate` | BFS / canonical labelling / enumeration / graph6 |
//! | `equilibria` | stability windows, pairwise Nash, UCG solver |
//! | `dynamics` | pairwise and best-response dynamics |
//! | `atlas_codec` | v4 block decode: whole block vs one validated record |

/// Standard seeds used by the dynamics benches (fixed for stability).
pub const BENCH_SEEDS: [u64; 3] = [7, 42, 1234];
