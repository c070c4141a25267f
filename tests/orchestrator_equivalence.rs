//! Equivalence properties of the orchestrator, the one cold-sweep
//! execution path: for seeded random thread budgets and oversplit
//! factors the orchestrated sweep reproduces the materialized reference
//! catalogue (`WindowJob::classify` over `connected_graphs`) — and a multi-process
//! segment-merge replay — byte for byte, its counters equal the serial
//! enumeration's counters exactly, and a panic in the writer callback
//! poisons the atlas write cleanly (no coverage declared).

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use bilateral_formation::atlas::{merge_segments, ClassificationAtlas, ShardCoverage, ShardMeta};
use bilateral_formation::empirics::sweep::WindowJob;
use bilateral_formation::empirics::{grid, SweepConfig, SweepResult, WindowSweep};
use bilateral_formation::engine::{Analysis, WorkerScratch};
use bilateral_formation::enumerate::connected_graphs;
use bilateral_formation::stream::{for_each_connected_stats, RangeSelection, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unique throwaway path under the system temp dir.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-orch-test-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// The paper-grid aggregate table of a sweep. `SweepResult` equality
/// is bitwise on every f64, so equal tables render byte-identical
/// Figure 2/3 CSVs — identical record order means identical
/// float-summation order.
fn table(sweep: &WindowSweep) -> SweepResult {
    grid::evaluate(sweep, &SweepConfig::standard(sweep.n).alphas)
}

/// The materialized reference catalogue of order `n`, classified in a
/// plain loop.
fn reference(n: usize) -> WindowSweep {
    let mut scratch = WorkerScratch::new();
    let records = connected_graphs(n)
        .iter()
        .map(|g| WindowJob.classify(g, &mut scratch))
        .collect();
    WindowSweep { n, records }
}

/// Seeded rounds over n ≤ 7: any thread count and any oversplit —
/// including one range total and far more ranges than the frontier has
/// parents — must reproduce the reference sweep record-for-record and
/// CSV-byte-for-byte.
#[test]
fn orchestrated_sweeps_match_unsharded_for_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0x0C8E_0001);
    for n in [3usize, 5, 7] {
        let whole = reference(n);
        let whole_table = table(&whole);
        for round in 0..3 {
            let threads = rng.gen_range(1..5usize);
            let ranges = match round {
                0 => None, // auto oversplit
                1 => Some(rng.gen_range(1..8usize)),
                _ => Some(rng.gen_range(200..1000usize)), // ranges ≫ parents
            };
            let mut segments = 0usize;
            let (orch, stats) =
                WindowSweep::run_orchestrated(n, threads, ranges, None, |_| segments += 1);
            assert_eq!(
                orch.records, whole.records,
                "n={n} threads={threads} ranges={ranges:?}"
            );
            assert_eq!(
                table(&orch),
                whole_table,
                "n={n} threads={threads} ranges={ranges:?}"
            );
            assert_eq!(segments, stats.ranges, "partition did not close");
            assert_eq!(stats.threads, threads.max(1));
        }
    }
}

/// The counter-share property at enumeration scale (n = 8, 11 117
/// topologies): frontier-build counters attached once plus summed
/// per-range shares equal the serial enumeration's counters exactly.
#[test]
fn orchestrated_counters_equal_unsharded_at_n8() {
    let n = 8;
    let unsharded = for_each_connected_stats(n, |_, _| {});
    let (orch, orch_stats) = WindowSweep::run_orchestrated(n, 3, None, None, |_| {});
    assert_eq!(orch.records.len() as u64, unsharded.emitted());
    assert_eq!(orch_stats.stats.level_sizes, unsharded.level_sizes);
    assert_eq!(orch_stats.stats.prune, unsharded.prune);
    // The split itself recombines to the same totals: one frontier
    // share + summed range shares, nothing double-counted.
    let mut recombined = orch_stats.frontier_prune;
    recombined.merge(&orch_stats.final_prune);
    assert_eq!(recombined, unsharded.prune);
}

/// The `ShardMeta` a range commit writes, stamped with `run`.
fn range_meta(
    n: usize,
    seg: &bilateral_formation::engine::RangeSegment<'_, bilateral_formation::core::WindowRecord>,
    run: u64,
) -> ShardMeta {
    ShardMeta {
        order: n as u16,
        shard_index: seg.index as u32,
        shard_count: seg.ranges as u32,
        frontier_len: seg.frontier_len,
        parent_lo: seg.parent_lo,
        parent_hi: seg.parent_hi,
        emitted: seg.emitted,
        elapsed_ms: seg.elapsed_ms,
        peak_rss_kb: Some(1024),
        orchestrator_run: Some(run),
        frontier_prune: seg.frontier_prune,
        final_prune: seg.final_prune,
    }
}

/// An orchestrated run appending into one store replays byte-identical
/// to a 4-segment multi-process `shard_merge` fold of the same order —
/// the in-process path really is `merge_segments` semantics without the
/// segment files.
#[test]
fn orchestrated_store_matches_four_segment_merge_replay() {
    let n = 7;
    let threads = 2;

    // Multi-process reference: 4 process blocks of the 64-range fleet
    // partition, each writing its ranges into a segment file as
    // `--shard i/4` does, folded by the merge.
    let mut seg_paths = Vec::new();
    for index in 0..4usize {
        let path = scratch_path(&format!("seg{index}"));
        let mut segment = ClassificationAtlas::open(&path).unwrap();
        let block = RangeSelection::shard(ShardSpec::new(index, 4)).unwrap();
        WindowSweep::run_selected(n, threads, &block, |seg| {
            segment.append_records(seg.records).unwrap();
            segment
                .append_shard_meta(&range_meta(n, &seg, 100 + index as u64))
                .unwrap();
        })
        .unwrap();
        seg_paths.push(path);
    }
    let merged_path = scratch_path("merged");
    let mut merged = ClassificationAtlas::open(&merged_path).unwrap();
    merge_segments(&mut merged, &seg_paths).unwrap();

    // Orchestrated run appending ranges into one store, coverage
    // declared when the partition closes.
    let orch_path = scratch_path("orch");
    let mut orch_atlas = ClassificationAtlas::open(&orch_path).unwrap();
    let (orch, _) = WindowSweep::run_orchestrated(n, threads, Some(6), None, |seg| {
        orch_atlas.append_records(seg.records).unwrap();
        orch_atlas
            .append_shard_meta(&range_meta(n, &seg, 7))
            .unwrap();
    });
    let coverage = orch_atlas.declare_sharded_coverage().unwrap();
    assert_eq!(
        coverage,
        vec![(n, ShardCoverage::Declared(orch.records.len() as u64))]
    );
    // One process across 6 in-process ranges.
    assert_eq!(ShardMeta::process_count(orch_atlas.shard_metas()), 1);

    // One process per fleet block in the merged provenance.
    assert_eq!(ShardMeta::process_count(merged.shard_metas()), 4);

    // Both stores replay the identical catalogue, CSV bytes included.
    let from_merged = WindowSweep::run(n, threads, Some(&merged));
    let from_orch = WindowSweep::run(n, threads, Some(&orch_atlas));
    assert_eq!(from_orch.records, from_merged.records);
    assert_eq!(from_orch.records, orch.records);
    assert_eq!(table(&from_orch), table(&from_merged));

    for p in seg_paths.iter().chain([&merged_path, &orch_path]) {
        std::fs::remove_file(p).ok();
    }
}

/// A panic in one range's writer callback propagates to the caller and
/// poisons the atlas write cleanly: records appended before the panic
/// stay (the store is append-only and resumable) but coverage is never
/// declared, so the store is visibly incomplete rather than silently
/// short.
#[test]
fn writer_panic_poisons_the_atlas_write() {
    let n = 6;
    let path = scratch_path("poisoned");
    let mut atlas = ClassificationAtlas::open(&path).unwrap();
    let mut seen = 0usize;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        WindowSweep::run_orchestrated(n, 2, Some(4), None, |seg| {
            atlas.append_records(seg.records).unwrap();
            seen += 1;
            assert!(seen < 2, "writer boom after the first segment");
        });
    }));
    assert!(caught.is_err(), "writer panic must reach the caller");
    drop(atlas);
    // The store reopens clean — partial records, no coverage.
    let reopened = ClassificationAtlas::open(&path).unwrap();
    assert!(
        reopened.coverage(n).is_none(),
        "poisoned run must not declare coverage"
    );
    assert!(reopened.len() < 112, "partition must not have completed");
    std::fs::remove_file(&path).ok();
}
