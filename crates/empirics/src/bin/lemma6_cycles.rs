//! Reproduces Lemma 6: exact pairwise-stability windows of cycles versus
//! the paper's printed piecewise formulas (paper-vs-measured; the odd
//! alpha_max printed in the sketch differs from the exact value).
//!
//! Usage: lemma6_cycles [--max 20]

use bnf_empirics::{lemma6_rows, render_table};
use bnf_obs::cli::Flags;

fn main() {
    let (flags, _) = Flags::parse(&["--max"], &[], false, "lemma6_cycles [--max 20]");
    let max: usize = flags.number("--max", 20);
    let rows: Vec<Vec<String>> = lemma6_rows(4..=max)
        .into_iter()
        .map(|r| {
            vec![
                format!("C{}", r.n),
                format!("{}{}", if r.exact_min.1 { "[" } else { "(" }, r.exact_min.0),
                r.exact_max.to_string(),
                r.paper_min.to_string(),
                r.paper_max.to_string(),
                if r.max_matches { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!("Lemma 6 — cycle stability windows: exact vs the paper's printed formulas\n");
    println!(
        "{}",
        render_table(
            &[
                "cycle",
                "exact a_min",
                "exact a_max",
                "paper a_min",
                "paper a_max",
                "max match"
            ],
            &rows
        )
    );
    println!("(exact windows are (a_min, a_max] with '[' marking an inclusive lower end)");
}
