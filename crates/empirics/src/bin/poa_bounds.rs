//! Reproduces the Proposition 3 / Proposition 4 bound experiments:
//! the Moore-bound lower-bound series (PoA vs log2 alpha over the cage
//! and Moore graphs) and the empirical worst-case PoA against the
//! min(sqrt(a), n/sqrt(a)) envelope.
//!
//! Usage: poa_bounds [--n 7] [--threads T]
//!        [--atlas PATH] [--shards auto|R | --shard i/m] [--resume]
//!        [--grid paper|linear:LO:HI:STEPS|log2:LO:HI:PER_OCT]
//!
//! The Prop 4 table reads the same shared window records as the figure
//! sweeps (no inline window extraction of its own), so `--atlas` makes
//! its exhaustive half incremental too.

use bnf_empirics::{
    fmt_stat, numeric_flag, prop3_series, prop4_rows, render_table, run_sweep_cli, SweepConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = numeric_flag(&args, "--n", 7);
    let mut config = SweepConfig::standard(n);
    config.threads = numeric_flag(&args, "--threads", config.threads);
    println!("Proposition 3 — Moore-bound family: stable windows and PoA growth\n");
    let rows: Vec<Vec<String>> = prop3_series()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.n.to_string(),
                r.degree.to_string(),
                r.girth.to_string(),
                r.diameter.to_string(),
                r.alpha_top.to_string(),
                fmt_stat(r.log2_alpha),
                fmt_stat(r.poa),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "graph",
                "n",
                "k",
                "girth",
                "diam",
                "alpha_max",
                "log2(alpha)",
                "PoA(alpha_max)"
            ],
            &rows
        )
    );

    // run_sweep_cli prints the enumeration banner and peak RSS.
    let sweep = run_sweep_cli(&config, &args);
    let rows: Vec<Vec<String>> = prop4_rows(&sweep)
        .into_iter()
        .map(|r| {
            vec![
                r.alpha.to_string(),
                fmt_stat(r.max_poa),
                fmt_stat(r.envelope),
                fmt_stat(r.max_poa / r.envelope.max(1.0)),
            ]
        })
        .collect();
    println!("\nProposition 4 — worst-case stable PoA vs the O(min(sqrt(a), n/sqrt(a))) envelope, n={n}\n");
    println!(
        "{}",
        render_table(&["alpha", "max PoA", "envelope", "ratio"], &rows)
    );
}
