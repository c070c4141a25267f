//! Equilibrium analysis for bilateral network formation — the primary
//! contribution of Corbo & Parkes (PODC 2005), reproduced exactly.
//!
//! The crate answers, in exact rational arithmetic, the questions the
//! paper asks of a graph `G` and link cost α:
//!
//! * Is `G` **pairwise stable** in the bilateral connection game
//!   ([`is_pairwise_stable`], Definition 3)? For which α
//!   ([`stability_window`], Lemma 2)?
//! * Is `G` a **pairwise Nash** network ([`is_pairwise_nash`],
//!   Definition 2)? Proposition 1 says this coincides with pairwise
//!   stability; the implementations are independent so the theorem is a
//!   test, not an assumption.
//! * Is the cost function **convex** ([`cost_convex`], Lemma 1)? Is `G`
//!   **link convex** ([`is_link_convex`], Definition 6) — the paper's
//!   sufficient condition for a nonempty stability window (Lemma 2) and
//!   proper-equilibrium achievability (Proposition 2)?
//! * Is `G` **Nash-supportable in the unilateral game**
//!   ([`UcgAnalyzer`]) — the Fabrikant et al. baseline the paper
//!   compares against?
//!
//! # Examples
//!
//! ```
//! use bnf_core::{stability_window, UcgAnalyzer};
//! use bnf_games::Ratio;
//! use bnf_graph::Graph;
//!
//! // Footnote 5 of the paper: the 6-cycle is pairwise stable in the BCG
//! // for a window of link costs, yet never Nash-supportable in the UCG.
//! let c6 = Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)))?;
//! let window = stability_window(&c6).expect("stable somewhere");
//! assert!(window.contains(Ratio::from(4)));
//! assert!(UcgAnalyzer::new(&c6).expect("in domain").support_intervals().is_empty());
//! # Ok::<(), bnf_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod convexity;
mod delta;
#[cfg(test)]
mod equivalence;
mod interval;
mod pairwise_nash;
mod record;
mod stability;
mod theorems;
mod transfers;
mod ucg;

pub use convexity::{
    cost_convex, cost_convex_for, is_link_convex, lemma2_window, link_convexity_margin,
};
pub use delta::{DeltaCalc, DistanceDelta};
pub use interval::{ClosedInterval, LowerBound, StabilityWindow, Threshold};
pub use pairwise_nash::{is_nash_bcg, is_pairwise_nash, MAX_EXHAUSTIVE_DEGREE};
pub use record::WindowRecord;
pub use stability::{
    addition_thresholds, deletion_thresholds, is_pairwise_stable, stability_window,
    stability_window_with,
};
pub use theorems::{
    conjecture_counterexample, conjecture_ucg_subset_bcg, cycle_stability_window,
    lemma6_paper_window, prop4_envelope, prop5_holds_for_tree,
};
pub use transfers::{
    is_transfer_stable, transfer_stability_window, transfer_stability_window_with,
};
pub use ucg::{
    ucg_necessary_window, ucg_necessary_window_with, UcgAnalyzer, UcgError, MAX_UCG_ORDER,
};
