//! Equivalence gates for the windows-first sweep: α-independent
//! `WindowRecord`s plus the one-pass grid fold must reproduce the
//! legacy per-α classification bit for bit — record by record (each
//! `WindowRecord` predicate against the `SweepJob` flags) and aggregate
//! by aggregate — on the paper grid, on random grids (including
//! knife-edge window boundaries), and through a cold/warm persistent
//! atlas.

use std::path::PathBuf;

use bilateral_formation::atlas::{build_index, index_path, ClassificationAtlas, MappedAtlas};
use bilateral_formation::core::{Threshold, WindowRecord};
use bilateral_formation::empirics::{
    fmt_stat, grid, render_csv, EquilibriumStats, GridFold, GridSpec, SweepConfig, SweepJob,
    SweepResult, WindowJob, WindowSweep,
};
use bilateral_formation::engine::AnalysisEngine;
use bilateral_formation::games::{GameKind, Ratio};

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
        "bnf-grid-postpass-{}-{tag}.bnfatlas",
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
        assert_stats_bit_identical(&a.stats(kind), &b.stats(kind), &format!("{label} {kind:?}"));
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
    let job = SweepJob {
        alphas: alphas.to_vec(),
    };
    let reference = AnalysisEngine::new(2).run_connected(windows.n, &job);
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
    let reference = WindowSweep {
        n: config.n,
        records: AnalysisEngine::new(config.threads).run_connected(config.n, &WindowJob::default()),
    };
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
    // Warm, per-key path (no coverage marker yet): every record served
    // from the store (0 fresh appends).
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

/// The named grid families evaluate without re-classifying and keep the
/// paper grid as a strict subset of a refined log2 grid's answers.
#[test]
fn named_grids_are_free_post_passes() {
    let windows = WindowSweep::run(6, 2, None);
    let paper = grid::evaluate(&windows, &GridSpec::Paper.alphas());
    let dense = grid::evaluate(
        &windows,
        &GridSpec::parse("log2:1/4:64:8").unwrap().alphas(),
    );
    assert_eq!(paper.alphas.len(), 16);
    assert!(dense.alphas.len() > 60, "8 per octave over 8 octaves");
    // Every paper grid point appears in the dense grid with identical
    // per-α statistics (same records, same membership).
    let paper_stats = paper.stats(GameKind::Bilateral);
    let dense_stats = dense.stats(GameKind::Bilateral);
    for p in &paper_stats {
        let d = dense_stats
            .iter()
            .find(|d| d.alpha == p.alpha)
            .expect("paper grid ⊂ dense grid");
        assert_eq!(p.count, d.count);
        assert_eq!(p.mean_poa.to_bits(), d.mean_poa.to_bits());
        assert_eq!(p.mean_links.to_bits(), d.mean_links.to_bits());
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

/// Pushing records into a `GridFold` one at a time — here straight off
/// the indexed store's engine-order stream, as `/grid` does — equals
/// `evaluate` over the collected sweep.
#[test]
fn grid_fold_push_by_push_equals_evaluate() {
    let n = 6;
    let windows = WindowSweep::run(n, 2, None);
    let alphas = GridSpec::parse("log2:1/4:64:8").unwrap().alphas();
    let expected = grid::evaluate(&windows, &alphas);

    let mut fold = GridFold::new(n, &alphas);
    for rec in &windows.records {
        fold.push(rec);
    }
    assert_bit_identical(&fold.finish(), &expected, "push by push");

    let store = scratch_path("fold-stream");
    std::fs::remove_file(&store).ok();
    let mut atlas = ClassificationAtlas::open(&store).unwrap();
    atlas.append_records(&windows.records).unwrap();
    atlas.mark_complete(n, windows.records.len()).unwrap();
    drop(atlas);
    build_index(&store).unwrap();
    let mapped = MappedAtlas::open(&store).unwrap();
    let mut fold = GridFold::new(n, &alphas);
    let streamed = mapped
        .stream_sweep(n, |rec: WindowRecord| fold.push(&rec))
        .unwrap()
        .expect("engine-order table");
    assert_eq!(streamed, windows.records.len() as u64);
    assert_bit_identical(&fold.finish(), &expected, "streamed from the store");
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(index_path(&store)).ok();
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
