//! Verifies Lemmas 4 and 5 exhaustively: at each link cost the efficient
//! graph over ALL connected topologies is the complete graph (alpha < 1),
//! the star (alpha > 1), and exactly those two tie at alpha = 1; reports
//! uniqueness of the minimizer. Thin fold over the shared window-record
//! sweep (`bnf_empirics::efficiency`), so it rides the same `--atlas`
//! cache as the figure binaries.
//!
//! Usage: efficiency_scan [--n 7] [--threads T]
//!        [--atlas PATH] [--shards auto|R | --shard i/m] [--resume]
//!        [--grid paper|linear:LO:HI:STEPS|log2:LO:HI:PER_OCT]
//!        [--report-json PATH]

use bnf_empirics::MinimizerShape;
use bnf_empirics::{
    default_threads, efficiency_scan_windows, grid_from_args, parse_sweep_flags, render_table,
    run_window_sweep_cli, sweep_order_flag,
};
use bnf_games::Ratio;

/// Lists small minimizer sets verbatim; summarizes by shape otherwise
/// (at α = 1 every diameter-≤ 2 graph ties, which at n = 9 is tens of
/// thousands of entries — unprintable as a table cell).
fn minimizer_cell(minimizers: &[MinimizerShape]) -> String {
    if minimizers.len() <= 8 {
        return minimizers
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("+");
    }
    let complete = minimizers
        .iter()
        .filter(|s| matches!(s, MinimizerShape::Complete))
        .count();
    let star = minimizers
        .iter()
        .filter(|s| matches!(s, MinimizerShape::Star))
        .count();
    let other = minimizers.len() - complete - star;
    let mut parts = Vec::new();
    for (count, label) in [(complete, "complete"), (star, "star"), (other, "other")] {
        if count > 0 {
            parts.push(format!("{label}x{count}"));
        }
    }
    parts.join("+")
}

fn main() {
    let flags = parse_sweep_flags("efficiency_scan", &[]);
    let n: usize = sweep_order_flag(&flags, 7);
    let threads: usize = flags.number("--threads", default_threads());
    let alphas = grid_from_args(&flags, || {
        vec![
            Ratio::new(1, 4),
            Ratio::new(1, 2),
            Ratio::new(3, 4),
            Ratio::ONE,
            Ratio::new(3, 2),
            Ratio::from(2),
            Ratio::from(4),
            Ratio::from(8),
        ]
    });
    let windows = run_window_sweep_cli(n, threads, &flags);
    let scan = efficiency_scan_windows(&windows, &alphas);
    let rows: Vec<Vec<String>> = scan
        .rows
        .iter()
        .map(|r| {
            vec![
                r.alpha.to_string(),
                r.min_cost.to_string(),
                r.formula.to_string(),
                r.matches.to_string(),
                r.minimizers.len().to_string(),
                minimizer_cell(&r.minimizers),
            ]
        })
        .collect();
    println!(
        "Lemmas 4/5 — exhaustive efficiency check over all {} connected topologies, n={n}\n",
        scan.topologies
    );
    println!(
        "{}",
        render_table(
            &[
                "alpha",
                "min C(G)",
                "formula",
                "match",
                "#minimizers",
                "minimizer(s)"
            ],
            &rows
        )
    );
}
