//! Reproduces Figure 1: the paper's gallery of pairwise-stable graphs,
//! each re-verified (structure certificates, link convexity, exact
//! stability window, PoA at a representative stable link cost).
//!
//! Usage: fig1_gallery

use bnf_empirics::{extended_gallery, figure1_gallery, fmt_stat, render_table, GalleryEntry};
use bnf_obs::cli::Flags;

fn rows(entries: &[GalleryEntry]) -> Vec<Vec<String>> {
    entries
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                e.graph.order().to_string(),
                e.graph.edge_count().to_string(),
                e.degree.map_or("-".into(), |d| d.to_string()),
                e.girth.map_or("-".into(), |g| g.to_string()),
                e.diameter.map_or("-".into(), |d| d.to_string()),
                e.srg
                    .map_or("-".into(), |(n, k, l, m)| format!("({n},{k},{l},{m})")),
                if e.link_convex { "yes" } else { "no" }.to_string(),
                e.window.map_or("never".into(), |w| w.to_string()),
                e.sample_alpha.map_or("-".into(), |a| a.to_string()),
                e.poa_at_sample.map_or("-".into(), fmt_stat),
            ]
        })
        .collect()
}

fn main() {
    Flags::parse(&[], &[], false, "fig1_gallery");
    let headers = [
        "graph",
        "n",
        "m",
        "deg",
        "girth",
        "diam",
        "srg",
        "linkconvex",
        "stable window",
        "alpha*",
        "PoA(alpha*)",
    ];
    println!("Figure 1 — pairwise stable graphs of the BCG (exact windows)\n");
    println!("{}", render_table(&headers, &rows(&figure1_gallery())));
    println!("\nExtended gallery (Section 4.1 exhibits and Prop 3 families)\n");
    println!("{}", render_table(&headers, &rows(&extended_gallery())));
}
