//! The user-visible outputs the benchmark checks: the Figure 2 and 3
//! CSVs exactly as `fig2_avg_poa --csv` / `fig3_avg_links --csv` print
//! them, the `/grid` body exactly as `bnf-serve` renders it, and the
//! catalogue digest.

use bnf_core::WindowRecord;
use bnf_empirics::grid::{self, GridSpec};
use bnf_empirics::sweep::{EquilibriumStats, SweepResult, WindowSweep};
use bnf_empirics::{fmt_stat, render_csv};
use bnf_games::{GameKind, Ratio};

use crate::util::Digest;

/// The two α axes the figures are replayed on.
pub const GRIDS: [&str; 2] = ["paper", "log2:1/4:64:32"];

/// The α grid of a spec string.
pub fn alphas(spec: &str) -> Vec<Ratio> {
    GridSpec::parse(spec)
        .unwrap_or_else(|e| panic!("benchmark grid {spec:?}: {e}"))
        .alphas()
}

/// Figure 2 CSV (`fig2_avg_poa --csv`).
pub fn fig2_csv(bcg: &[EquilibriumStats], ucg: &[EquilibriumStats]) -> String {
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
        .zip(ucg)
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
    render_csv(&headers, &rows)
}

/// Figure 3 CSV (`fig3_avg_links --csv`).
pub fn fig3_csv(bcg: &[EquilibriumStats], ucg: &[EquilibriumStats]) -> String {
    let headers = [
        "alpha",
        "log2(a)",
        "BCG#",
        "BCG avg links",
        "UCG#",
        "UCG avg links",
    ];
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                fmt_stat(b.alpha.to_f64().log2()),
                b.count.to_string(),
                fmt_stat(b.mean_links),
                u.count.to_string(),
                fmt_stat(u.mean_links),
            ]
        })
        .collect();
    render_csv(&headers, &rows)
}

/// Per-game statistics of one evaluated grid.
pub fn stats(result: &SweepResult) -> (Vec<EquilibriumStats>, Vec<EquilibriumStats>) {
    (
        result.stats(GameKind::Bilateral),
        result.stats(GameKind::Unilateral),
    )
}

/// The `/grid?spec=…` response body for `spec` over `sweep`, rendered
/// the way `bnf-serve` renders it.
pub fn grid_body(sweep: &WindowSweep, spec: &str) -> String {
    let alphas = alphas(spec);
    let result = grid::evaluate(sweep, &alphas);
    let mut out = format!("{{\"n\":{},\"spec\":", sweep.n);
    bnf_obs::json::push_json_string(&mut out, spec);
    out.push_str(",\"alphas\":[");
    for (i, a) in alphas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        bnf_serve::render::push_ratio(&mut out, *a);
    }
    out.push_str("],");
    let (bcg, ucg) = stats(&result);
    bnf_serve::render::push_stats_series(&mut out, "bilateral", &bcg);
    out.push(',');
    bnf_serve::render::push_stats_series(&mut out, "unilateral", &ucg);
    out.push(',');
    bnf_serve::render::push_stats_series(&mut out, "transfer", &result.transfer_stats());
    out.push('}');
    out
}

/// Digest of a catalogue in engine order: each record's JSON rendering
/// (`bnf_serve::render::record_json`) followed by a newline.
pub fn catalogue_digest(records: &[WindowRecord]) -> String {
    let mut d = Digest::default();
    for rec in records {
        d.update(&bnf_serve::render::record_json(rec));
        d.update("\n");
    }
    d.hex()
}
