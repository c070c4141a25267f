//! Reproduces Figure 2: average price of anarchy of equilibrium networks
//! in the BCG (pairwise stable) and the UCG (Nash) as a function of link
//! cost, over all connected non-isomorphic topologies on n vertices.
//!
//! Usage: fig2_avg_poa [--n 7] [--threads T] [--csv]
//!        [--atlas PATH] [--shards auto|R | --shard i/m] [--resume]
//!        [--grid paper|linear:LO:HI:STEPS|log2:LO:HI:PER_OCT]
//!        [--report-json PATH]
//!
//! (The paper used n = 10; see DESIGN.md §4 for the n-substitution.
//! Graphs are classified as the enumeration generates them — the graph
//! list is never materialized (the per-topology records still scale
//! with the count). Combine with the BNF_MAX_N env var for n ≥ 9.
//! `--atlas` persists the α-independent window records so re-runs skip
//! classification; `--shards` commits them range by range (resumable
//! with `--resume`), `--shard i/m` runs one process of a multi-process
//! fleet; `--grid` evaluates any α axis as a free post-pass over the
//! same records.)

use bnf_empirics::{
    fmt_stat, parse_sweep_flags, render_csv, render_table, run_sweep_cli, sweep_order_flag,
    SweepConfig,
};
use bnf_games::GameKind;

fn main() {
    let flags = parse_sweep_flags("fig2_avg_poa", &["--csv"]);
    let n: usize = sweep_order_flag(&flags, 7);
    let mut config = SweepConfig::standard(n);
    config.threads = flags.number("--threads", config.threads);
    let sweep = run_sweep_cli(&config, &flags);
    let bcg = sweep.stats(GameKind::Bilateral);
    let ucg = sweep.stats(GameKind::Unilateral);
    let headers = [
        "alpha",
        "log2(a)",
        "log2(2a)",
        "BCG#",
        "BCG avgPoA",
        "UCG#",
        "UCG avgPoA",
    ];
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(&ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                fmt_stat(b.alpha.to_f64().log2()),
                fmt_stat((2.0 * b.alpha.to_f64()).log2()),
                b.count.to_string(),
                fmt_stat(b.mean_poa),
                u.count.to_string(),
                fmt_stat(u.mean_poa),
            ]
        })
        .collect();
    if flags.switch("--csv") {
        print!("{}", render_csv(&headers, &rows));
    } else {
        println!("Figure 2 — average PoA of equilibrium networks, n={n}");
        println!("(x-axis in the paper: log(alpha) for UCG, log(2*alpha) for BCG)\n");
        println!("{}", render_table(&headers, &rows));
        // The paper overlays the curves with the BCG shifted to log(2α):
        // at x-coordinate log(a), compare UCG at link cost a with BCG at
        // link cost a/2 (equal per-edge social spend).
        let aligned: Vec<Vec<String>> = bcg
            .iter()
            .filter_map(|b| {
                let target = b.alpha + b.alpha; // UCG at 2α
                let u = ucg.iter().find(|u| u.alpha == target)?;
                Some(vec![
                    fmt_stat((2.0 * b.alpha.to_f64()).log2()),
                    b.alpha.to_string(),
                    fmt_stat(b.mean_poa),
                    u.alpha.to_string(),
                    fmt_stat(u.mean_poa),
                    if b.mean_poa < u.mean_poa {
                        "BCG"
                    } else {
                        "UCG"
                    }
                    .to_string(),
                ])
            })
            .collect();
        println!("\nPaper-aligned overlay (same x = log(2a_BCG) = log(a_UCG)):\n");
        println!(
            "{}",
            render_table(
                &["x", "a_BCG", "BCG avgPoA", "a_UCG", "UCG avgPoA", "better"],
                &aligned
            )
        );
        let violations: usize = sweep.conjecture_violations().iter().map(|&(_, c)| c).sum();
        println!("Section 4.3 conjecture (UCG-Nash ⊆ BCG-stable): {violations} violations across the grid");
    }
}
