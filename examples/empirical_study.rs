//! The Section 5 empirical study in miniature: enumerate every connected
//! topology on n vertices, classify equilibria of both games across link
//! costs, and print the Figure 2 / Figure 3 series.
//!
//! Run with: cargo run --release --example empirical_study -- [n]
//! (default n = 6; the paper used n = 10 — see DESIGN.md §4)

use bilateral_formation::empirics::{fmt_stat, render_table, SweepConfig, SweepResult};
use bilateral_formation::prelude::GameKind;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map_or(6, |v| v.parse().expect("usage: empirical_study [n]"));
    println!("classifying all connected topologies on n = {n} vertices...");
    let sweep = SweepResult::run(&SweepConfig::standard(n));
    println!("{} topologies classified\n", sweep.topologies);

    let bcg = sweep.stats(GameKind::Bilateral);
    let ucg = sweep.stats(GameKind::Unilateral);
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(&ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                b.count.to_string(),
                fmt_stat(b.mean_poa),
                fmt_stat(b.mean_links),
                u.count.to_string(),
                fmt_stat(u.mean_poa),
                fmt_stat(u.mean_links),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "alpha",
                "BCG#",
                "BCG PoA",
                "BCG links",
                "UCG#",
                "UCG PoA",
                "UCG links"
            ],
            &rows
        )
    );

    println!("equilibrium multiplicity (the driver of the Figure 2 hump):");
    for (alpha, bcg_count, ucg_count) in sweep.equilibrium_counts() {
        println!("  alpha = {alpha:>4}: BCG {bcg_count:>4} stable, UCG {ucg_count:>4} Nash");
    }
    let total: usize = sweep.conjecture_violations().iter().map(|&(_, c)| c).sum();
    println!("\nUCG-Nash-but-not-BCG-stable topologies across the grid: {total}");
    println!("(zero would confirm the paper's Section 4.3 conjecture; the theta graph");
    println!(" family refutes it from n = 6 — see bnf-core's conjecture_counterexample)");
}
