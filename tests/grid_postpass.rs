//! Post-pass gates for the windows-first sweep that need no per-α
//! oracle: the named α-grid families are free post-passes over one
//! catalogue, and a `GridFold` fed record by record — straight off the
//! indexed store's engine-order stream — equals `grid::evaluate`. (The
//! bit-for-bit equivalence against the legacy per-α classification
//! lives next to that oracle, in `bnf-empirics`' own test suite.)

use std::path::PathBuf;

use bilateral_formation::atlas::{build_index, index_path, ClassificationAtlas, MappedAtlas};
use bilateral_formation::core::WindowRecord;
use bilateral_formation::empirics::{
    grid, EquilibriumStats, GridFold, GridSpec, SweepResult, WindowSweep,
};
use bilateral_formation::games::GameKind;

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bnf-grid-postpass-{}-{tag}.bnfatlas",
        std::process::id()
    ))
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
