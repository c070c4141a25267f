//! The legacy per-α classification path, kept as a test oracle: every
//! topology is classified against a *fixed* α grid, re-deriving window
//! membership per grid point, and aggregated with the per-α loop (one
//! [`poa_of_summary`] per equilibrium pair). Quadratic in
//! (topologies × grid) the way the windows-first fold is not, and built
//! from the materialized catalogue (`bnf_enumerate::connected_graphs`)
//! rather than the orchestrator — so the equivalence tests below
//! certify both the `WindowRecord` predicates and the grid fold
//! against an independent path, bit for bit.

use bnf_core::{
    stability_window_with, transfer_stability_window_with, ucg_necessary_window_with, UcgAnalyzer,
};
use bnf_engine::{Analysis, WorkerScratch};
use bnf_enumerate::connected_graphs;
use bnf_games::{poa_of_summary, CostSummary, GameKind, Ratio};
use bnf_graph::Graph;

use crate::sweep::{SeriesTotals, SweepConfig, SweepResult, WindowJob, WindowSweep};

/// The reference catalogue of order `n`: [`WindowJob::classify`] over
/// the materialized enumeration, in its order — the oracle the
/// orchestrated sweep must reproduce record for record.
pub(crate) fn reference_sweep(n: usize) -> WindowSweep {
    let mut scratch = WorkerScratch::new();
    let records = connected_graphs(n)
        .iter()
        .map(|g| WindowJob.classify(g, &mut scratch))
        .collect();
    WindowSweep { n, records }
}

/// Per-topology classification across the α grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GraphRecord {
    /// Number of edges `|A|`.
    pub(crate) edges: u64,
    /// Exact ordered-pair distance total `Σ_{i,j} d(i,j)`.
    pub(crate) total_distance: u64,
    /// Pairwise stable in the BCG at `alphas[k]`?
    pub(crate) bcg_stable: Vec<bool>,
    /// Nash-supportable in the UCG at `alphas[k]`?
    pub(crate) ucg_nash: Vec<bool>,
    /// Pairwise stable **with transfers** at `alphas[k]`?
    pub(crate) transfer_stable: Vec<bool>,
}

/// The per-α classification job: equilibrium membership of one
/// topology across a fixed α grid.
#[derive(Debug, Clone)]
pub(crate) struct SweepJob {
    /// The link-cost grid each topology is classified against.
    pub(crate) alphas: Vec<Ratio>,
}

impl SweepJob {
    /// [`SweepJob::classify`] over the materialized catalogue of order
    /// `n`, in its order.
    pub(crate) fn oracle(&self, n: usize) -> Vec<GraphRecord> {
        let mut scratch = WorkerScratch::new();
        connected_graphs(n)
            .iter()
            .map(|g| self.classify(g, &mut scratch))
            .collect()
    }
}

impl Analysis for SweepJob {
    type Output = GraphRecord;

    fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> GraphRecord {
        let alphas = &self.alphas;
        let edges = g.edge_count() as u64;
        let total_distance = g
            .total_distance_with(&mut scratch.bfs)
            .expect("enumeration yields connected graphs");
        let window = stability_window_with(g, &mut scratch.bfs);
        let bcg_stable = alphas
            .iter()
            .map(|&a| window.is_some_and(|w| w.contains(a)))
            .collect();
        let twindow = transfer_stability_window_with(g, &mut scratch.bfs);
        let transfer_stable = alphas
            .iter()
            .map(|&a| twindow.is_some_and(|w| w.contains(a)))
            .collect();
        // Fast necessary check first (the paper's Section 5 footnote), full
        // orientation solve only where it passes.
        let necessary = ucg_necessary_window_with(g, &mut scratch.bfs);
        let ucg_nash = match necessary {
            None => vec![false; alphas.len()],
            Some(nec) => {
                if alphas.iter().any(|&a| nec.contains(a)) {
                    let solver = UcgAnalyzer::new(g)
                        .expect("enumerated sweep graphs are connected and small");
                    alphas
                        .iter()
                        .map(|&a| nec.contains(a) && solver.is_nash_supportable(a))
                        .collect()
                } else {
                    vec![false; alphas.len()]
                }
            }
        };
        GraphRecord {
            edges,
            total_distance,
            bcg_stable,
            ucg_nash,
            transfer_stable,
        }
    }
}

impl SweepResult {
    /// The per-α reference table: classifies every topology directly
    /// against the config's grid with [`SweepJob`], then aggregates with
    /// the per-α loop.
    pub(crate) fn run_per_alpha(config: &SweepConfig) -> SweepResult {
        let records = SweepJob {
            alphas: config.alphas.clone(),
        }
        .oracle(config.n);
        let alphas = &config.alphas;
        let series = |flag: fn(&GraphRecord, usize) -> bool, kind: GameKind| {
            alphas
                .iter()
                .enumerate()
                .map(|(k, &alpha)| {
                    let mut totals = SeriesTotals::default();
                    for r in records.iter().filter(|r| flag(r, k)) {
                        let summary = CostSummary {
                            order: config.n,
                            edges: r.edges,
                            total_distance: Some(r.total_distance),
                            kind,
                        };
                        totals.add(r.edges, poa_of_summary(&summary, alpha));
                    }
                    totals
                })
                .collect()
        };
        SweepResult {
            n: config.n,
            alphas: alphas.clone(),
            topologies: records.len(),
            bilateral: series(|r, k| r.bcg_stable[k], GameKind::Bilateral),
            unilateral: series(|r, k| r.ucg_nash[k], GameKind::Unilateral),
            // Transfers move money between the pair, not in or out: the
            // bilateral social cost.
            transfer: series(|r, k| r.transfer_stable[k], GameKind::Bilateral),
            violations: (0..alphas.len())
                .map(|k| {
                    records
                        .iter()
                        .filter(|r| r.ucg_nash[k] && !r.bcg_stable[k])
                        .count()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use bnf_atlas::ClassificationAtlas;
    use bnf_core::Threshold;
    use bnf_games::{GameKind, Ratio};

    use super::*;
    use crate::grid::{self, GridSpec};
    use crate::sweep::{EquilibriumStats, SweepConfig, SweepResult, WindowSweep};
    use crate::{fmt_stat, render_csv};

    /// SplitMix64 — deterministic, dependency-free randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn scratch_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bnf-per-alpha-{}-{tag}.bnfatlas",
            std::process::id()
        ))
    }

    /// The Figure 2 CSV exactly as `fig2_avg_poa --csv` renders it.
    fn fig2_csv(sweep: &SweepResult) -> String {
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
        render_csv(&headers, &rows)
    }

    /// The Figure 3 CSV columns (link counts), same shape as the binary.
    fn fig3_csv(sweep: &SweepResult) -> String {
        let bcg = sweep.stats(GameKind::Bilateral);
        let ucg = sweep.stats(GameKind::Unilateral);
        let headers = ["alpha", "BCG#", "BCG avg links", "UCG#", "UCG avg links"];
        let rows: Vec<Vec<String>> = bcg
            .iter()
            .zip(&ucg)
            .map(|(b, u)| {
                vec![
                    b.alpha.to_string(),
                    b.count.to_string(),
                    fmt_stat(b.mean_links),
                    u.count.to_string(),
                    fmt_stat(u.mean_links),
                ]
            })
            .collect();
        render_csv(&headers, &rows)
    }

    fn assert_stats_bit_identical(a: &[EquilibriumStats], b: &[EquilibriumStats], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: grid length");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.alpha, y.alpha, "{label}");
            assert_eq!(x.count, y.count, "{label} at alpha={}", x.alpha);
            assert_eq!(x.mean_poa.to_bits(), y.mean_poa.to_bits(), "{label}");
            assert_eq!(x.max_poa.to_bits(), y.max_poa.to_bits(), "{label}");
            assert_eq!(x.mean_links.to_bits(), y.mean_links.to_bits(), "{label}");
        }
    }

    /// All four aggregates, bit for bit: both games' `stats`,
    /// `transfer_stats`, `equilibrium_counts` and `conjecture_violations`.
    fn assert_bit_identical(a: &SweepResult, b: &SweepResult, label: &str) {
        assert_eq!(a.n, b.n, "{label}: order");
        assert_eq!(a.alphas, b.alphas, "{label}: grid");
        assert_eq!(a.topologies, b.topologies, "{label}: topologies");
        for kind in [GameKind::Bilateral, GameKind::Unilateral] {
            assert_stats_bit_identical(
                &a.stats(kind),
                &b.stats(kind),
                &format!("{label} {kind:?}"),
            );
        }
        assert_stats_bit_identical(
            &a.transfer_stats(),
            &b.transfer_stats(),
            &format!("{label} transfer"),
        );
        assert_eq!(a.equilibrium_counts(), b.equilibrium_counts(), "{label}");
        assert_eq!(
            a.conjecture_violations(),
            b.conjecture_violations(),
            "{label}"
        );
        // The table's own equality is bitwise too.
        assert_eq!(a, b, "{label}: aggregate tables");
    }

    /// Record-level equivalence: each `WindowRecord` predicate agrees with
    /// the flag `SweepJob` derives per grid point, record by record in
    /// engine order.
    fn assert_records_match_per_alpha(windows: &WindowSweep, alphas: &[Ratio], label: &str) {
        let reference = SweepJob {
            alphas: alphas.to_vec(),
        }
        .oracle(windows.n);
        assert_eq!(
            reference.len(),
            windows.records.len(),
            "{label}: topologies"
        );
        for (i, (w, r)) in windows.records.iter().zip(&reference).enumerate() {
            assert_eq!(w.edges, r.edges, "{label}: record {i} edges");
            assert_eq!(w.total_distance, r.total_distance, "{label}: record {i}");
            for (k, &alpha) in alphas.iter().enumerate() {
                let at = format!("{label}: record {i} ({}) alpha={alpha}", w.key);
                assert_eq!(w.bcg_stable(alpha), r.bcg_stable[k], "{at} bcg");
                assert_eq!(w.ucg_nash(alpha), r.ucg_nash[k], "{at} ucg");
                assert_eq!(
                    w.transfer_stable(alpha),
                    r.transfer_stable[k],
                    "{at} transfer"
                );
            }
        }
    }

    /// Acceptance gate: at the paper's α grid the legacy per-α path, the
    /// windows-first post-pass (orchestrated and over the materialized
    /// reference catalogue), and an atlas-warm re-run all render
    /// byte-identical Figure 2/3 CSVs.
    #[test]
    fn paper_grid_csvs_identical_across_all_paths() {
        let config = SweepConfig {
            threads: 2,
            ..SweepConfig::standard(6)
        };
        let legacy = SweepResult::run_per_alpha(&config);
        let windows_first = SweepResult::run(&config);
        let reference = reference_sweep(config.n);
        let streaming = grid::evaluate(&reference, &config.alphas);
        assert_bit_identical(&windows_first, &legacy, "windows-first vs legacy");
        assert_bit_identical(&streaming, &legacy, "reference windows vs legacy");
        let windows = WindowSweep::run(config.n, config.threads, None);
        assert_eq!(
            windows.records, reference.records,
            "orchestrated vs reference records"
        );
        assert_records_match_per_alpha(&windows, &config.alphas, "paper grid");

        let path = scratch_path("paper-grid");
        std::fs::remove_file(&path).ok();
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        // Cold: classifies everything, appends everything.
        let cold = WindowSweep::run(config.n, config.threads, Some(&atlas));
        let appended = atlas.append_records(&cold.records).unwrap();
        assert_eq!(appended, cold.records.len(), "cold run stores every record");
        // Warm store without a coverage marker: every record is
        // classified again and matches the stored one (0 fresh appends).
        let warm = WindowSweep::run(config.n, config.threads, Some(&atlas));
        assert_eq!(warm.records, cold.records);
        assert_eq!(atlas.append_records(&warm.records).unwrap(), 0);
        let warm_eval = grid::evaluate(&warm, &config.alphas);
        assert_bit_identical(&warm_eval, &legacy, "atlas-warm vs legacy");

        // Warm, coverage fast path: the full catalogue replays from the
        // store in engine order without enumerating at all.
        atlas.mark_complete(config.n, cold.records.len()).unwrap();
        let replayed = WindowSweep::run(config.n, config.threads, Some(&atlas));
        assert_eq!(replayed.records, cold.records, "replay preserves order");
        let replay_eval = grid::evaluate(&replayed, &config.alphas);
        assert_bit_identical(&replay_eval, &legacy, "atlas-replay vs legacy");

        let reference2 = fig2_csv(&legacy);
        let reference3 = fig3_csv(&legacy);
        for (label, sweep) in [
            ("windows-first", &windows_first),
            ("reference", &streaming),
            ("atlas-warm", &warm_eval),
        ] {
            assert_eq!(fig2_csv(sweep), reference2, "fig2 CSV differs: {label}");
            assert_eq!(fig3_csv(sweep), reference3, "fig3 CSV differs: {label}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Builds a random α grid biased toward trouble: random rationals plus
    /// exact window endpoints (knife edges where an inclusivity bug in the
    /// post-pass would flip membership).
    fn random_grid(state: &mut u64, boundary_pool: &[Ratio], len: usize) -> Vec<Ratio> {
        let mut grid: Vec<Ratio> = (0..len)
            .map(|_| {
                let num = (splitmix(state) % 128 + 1) as i64;
                let den = (splitmix(state) % 8 + 1) as i64;
                Ratio::new(num, den)
            })
            .collect();
        for _ in 0..len.min(boundary_pool.len()) {
            let pick = boundary_pool[(splitmix(state) as usize) % boundary_pool.len()];
            if pick > Ratio::ZERO {
                grid.push(pick);
            }
        }
        grid.sort();
        grid.dedup();
        grid
    }

    /// Every exact threshold appearing in any window of the sweep — the
    /// complete set of αs where membership can flip.
    fn boundary_pool(windows: &WindowSweep) -> Vec<Ratio> {
        let mut pool = Vec::new();
        for rec in &windows.records {
            if let Some(w) = rec.stability {
                pool.push(w.lower.value);
                if let Threshold::Finite(h) = w.upper {
                    pool.push(h);
                }
            }
            if let Some(iv) = rec.transfer {
                pool.push(iv.lo);
                if let Threshold::Finite(h) = iv.hi {
                    pool.push(h);
                }
            }
            for iv in &rec.ucg_support {
                pool.push(iv.lo);
                if let Threshold::Finite(h) = iv.hi {
                    pool.push(h);
                }
            }
        }
        pool.sort();
        pool.dedup();
        pool
    }

    /// Property gate: `grid::evaluate` over a random α grid matches per-α
    /// `SweepJob` recomputation bit for bit at n ≤ 7, record by record and
    /// in every aggregate.
    #[test]
    fn random_grids_match_per_alpha_reference_to_n7() {
        let mut state = 0x5EED_2026u64;
        for n in 4..=7usize {
            let windows = WindowSweep::run(n, 2, None);
            let pool = boundary_pool(&windows);
            assert!(!pool.is_empty(), "n={n}: no window endpoints?");
            // Fewer, larger grids at n = 7 (853 topologies per legacy pass).
            let (rounds, len) = if n == 7 { (1, 6) } else { (3, 8) };
            for round in 0..rounds {
                let alphas = random_grid(&mut state, &pool, len);
                let config = SweepConfig {
                    n,
                    alphas: alphas.clone(),
                    threads: 2,
                };
                let label = format!("n={n} round={round} grid={alphas:?}");
                let reference = SweepResult::run_per_alpha(&config);
                let evaluated = grid::evaluate(&windows, &alphas);
                assert_bit_identical(&evaluated, &reference, &label);
                assert_records_match_per_alpha(&windows, &alphas, &label);
            }
        }
    }

    /// The named dense grids the figures are replayed on, against the
    /// per-α reference at n ≤ 6 (n = 7 runs on the random grids above).
    #[test]
    fn dense_named_grids_match_per_alpha_reference() {
        for n in 4..=6usize {
            let windows = WindowSweep::run(n, 2, None);
            for spec in ["log2:1/4:64:32", "linear:1/8:16:300"] {
                let alphas = GridSpec::parse(spec).unwrap().alphas();
                let reference = SweepResult::run_per_alpha(&SweepConfig {
                    n,
                    alphas: alphas.clone(),
                    threads: 2,
                });
                assert_bit_identical(
                    &grid::evaluate(&windows, &alphas),
                    &reference,
                    &format!("n={n} {spec}"),
                );
            }
        }
    }

    /// Degenerate inputs keep the reference's shape: an empty grid gives
    /// empty series; an empty sweep gives zero counts, NaN means and a 0.0
    /// worst case at every α.
    #[test]
    fn empty_grid_and_empty_sweep_keep_nan_means() {
        let windows = WindowSweep::run(5, 2, None);
        let no_grid = grid::evaluate(&windows, &[]);
        let reference = SweepResult::run_per_alpha(&SweepConfig {
            n: 5,
            alphas: Vec::new(),
            threads: 2,
        });
        assert_bit_identical(&no_grid, &reference, "empty grid");
        assert_eq!(no_grid.topologies, windows.records.len());
        assert!(no_grid.stats(GameKind::Bilateral).is_empty());
        assert!(no_grid.transfer_stats().is_empty());
        assert!(no_grid.equilibrium_counts().is_empty());
        assert!(no_grid.conjecture_violations().is_empty());

        let alphas = GridSpec::Paper.alphas();
        let empty = grid::evaluate(
            &WindowSweep {
                n: 5,
                records: Vec::new(),
            },
            &alphas,
        );
        assert_eq!(empty.topologies, 0);
        let series = [
            empty.stats(GameKind::Bilateral),
            empty.stats(GameKind::Unilateral),
            empty.transfer_stats(),
        ];
        for s in series.iter().flatten() {
            assert_eq!(s.count, 0);
            assert!(s.mean_poa.is_nan() && s.mean_links.is_nan(), "{s:?}");
            assert_eq!(s.max_poa.to_bits(), 0.0f64.to_bits(), "{s:?}");
        }
        assert!(empty.conjecture_violations().iter().all(|&(_, c)| c == 0));
        assert!(empty
            .equilibrium_counts()
            .iter()
            .all(|&(_, b, u)| b == 0 && u == 0));
    }
}
