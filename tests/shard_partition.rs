//! Shard-partition properties of the multi-process enumeration driver:
//! for *random* partitions of the level-`n − 1` parent frontier the
//! union of per-range emissions equals the unsharded enumeration
//! multiset, a process block of the oversplit fleet partition is exactly
//! its range of the plain split, and a merged segment atlas replays CSVs
//! byte-identical to a single-process `--atlas` run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use bilateral_formation::atlas::{merge_segments, ClassificationAtlas, ShardCoverage, ShardMeta};
use bilateral_formation::empirics::{grid, WindowSweep};
use bilateral_formation::graph::CanonKey;
use bilateral_formation::stream::{
    for_each_connected, FrontierPartition, ParentFrontier, RangeSelection, RangeStats, ShardSpec,
    DEFAULT_OVERSPLIT,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unique throwaway path under the system temp dir.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-shard-test-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// Random contiguous cut points over `[0, len]`, always a partition.
fn random_cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let pieces = rng.gen_range(1..7usize);
    let mut cuts = vec![0usize, len];
    for _ in 1..pieces {
        cuts.push(rng.gen_range(0..len + 1));
    }
    cuts.sort_unstable();
    cuts
}

/// For random partitions of the parent frontier at n ≤ 8 the union of
/// per-shard emissions is exactly the unsharded enumeration multiset —
/// no class lost, none emitted twice, whatever the cut points (empty
/// and unbalanced ranges included).
#[test]
fn random_partitions_union_to_the_unsharded_multiset() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0001);
    for (n, rounds) in [(3usize, 3), (5, 3), (7, 3), (8, 1)] {
        let mut whole: BTreeMap<CanonKey, u32> = BTreeMap::new();
        for_each_connected(n, |_, key| *whole.entry(key).or_insert(0) += 1);
        assert!(whole.values().all(|&c| c == 1), "n={n}");
        let frontier = ParentFrontier::build(n, 2);
        let len = frontier.len();
        for _ in 0..rounds {
            let cuts = random_cuts(&mut rng, len);
            let mut union: BTreeMap<CanonKey, u32> = BTreeMap::new();
            let mut emitted_sum = 0u64;
            for w in cuts.windows(2) {
                let run = frontier.stream_range(w[0], w[1], |_, key| {
                    *union.entry(key).or_insert(0) += 1;
                });
                emitted_sum += run.emitted;
            }
            assert_eq!(
                union, whole,
                "n={n} cuts={cuts:?}: sharded union differs from the unsharded stream"
            );
            assert_eq!(emitted_sum, whole.len() as u64, "n={n} cuts={cuts:?}");
        }
    }
}

/// The fleet partition nests in the plain split: for random frontier
/// lengths L, process counts m and oversplit factors k, the union of
/// ranges `[⌊i·R/m⌋, ⌊(i + 1)·R/m⌋)` of the `R`-way split is exactly
/// range i of the m-way split, contiguous and in order — both for the
/// full `R = k·m` (⌊k·i·L / k·m⌋ = ⌊i·L / m⌋) and for the cut clamped
/// to a frontier shorter than `k·m` (`R = L`, one range per parent) —
/// so a `--shard i/m` process covers precisely its parents. Real
/// frontiers shorter than `16·m` check the same through
/// [`RangeSelection::shard`] and the partition that runs it.
#[test]
fn oversplit_blocks_equal_the_plain_split() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0003);
    for _ in 0..2000 {
        let len = match rng.gen_range(0..3u32) {
            0 => rng.gen_range(0..40usize),
            1 => rng.gen_range(0..300_000usize),
            _ => rng.gen_range(0..usize::MAX / 2),
        };
        let m = rng.gen_range(1..70usize);
        let k = rng.gen_range(1..40usize);
        let i = rng.gen_range(0..m);
        for ranges in [k * m, (k * m).min(len).max(1)] {
            let (first, end) = ShardSpec::new(i, m).range(ranges);
            let mut next = ShardSpec::new(i, m).range(len).0;
            for j in first..end {
                let (lo, hi) = ShardSpec::new(j, ranges).range(len);
                assert_eq!(lo, next, "L={len} m={m} R={ranges} i={i} j={j}");
                next = hi;
            }
            assert_eq!(
                next,
                ShardSpec::new(i, m).range(len).1,
                "L={len} m={m} R={ranges} i={i}"
            );
        }
    }
    for n in [1usize, 4, 5, 6, 7] {
        let frontier = ParentFrontier::build(n, 1);
        let len = frontier.len();
        for m in 1..40usize {
            for i in 0..m {
                let block = RangeSelection::shard(ShardSpec::new(i, m)).unwrap();
                let partition = FrontierPartition::new(&frontier, &block).unwrap();
                assert_eq!(
                    partition.ranges,
                    (DEFAULT_OVERSPLIT * m).min(len),
                    "n={n} m={m}"
                );
                let mut spans = Vec::new();
                let parents = |(): &mut (), lo, hi| (RangeStats::default(), (lo, hi));
                partition.run(1, || (), parents, |run| spans.push(run.output));
                assert!(spans.len() <= DEFAULT_OVERSPLIT, "n={n} m={m} i={i}");
                let (lo, hi) = ShardSpec::new(i, m).range(len);
                let mut next = lo;
                for (a, b) in spans {
                    assert_eq!(a, next, "n={n} m={m} i={i}");
                    next = b;
                }
                assert_eq!(next, hi, "n={n} m={m} i={i}");
            }
        }
    }
}

/// A random-size fleet, each process classifying its block of the
/// oversplit partition range by range into a segment file (as `--shard
/// i/m` does), folded by the merge, replays CSVs byte-identical to a
/// single-process `--atlas` sweep — the acceptance property the CI
/// shard smoke checks at the binary level.
#[test]
fn merged_segments_replay_csv_byte_identical_to_single_process_run() {
    let n = 7;
    let threads = 2;
    let mut rng = StdRng::seed_from_u64(0x5AAD_0002);
    let count = rng.gen_range(3..6usize);

    // Single-process reference: classify, persist, replay — exactly the
    // CLI's --atlas cold+warm sequence.
    let solo_path = scratch_path("solo");
    let mut solo_atlas = ClassificationAtlas::open(&solo_path).unwrap();
    let solo = WindowSweep::run(n, threads, Some(&solo_atlas));
    solo_atlas.append_records(&solo.records).unwrap();
    solo_atlas.mark_complete(n, solo.records.len()).unwrap();

    // Sharded run: one segment file per shard, as separate invocations
    // would write them.
    let mut seg_paths = Vec::new();
    for index in 0..count {
        let block = RangeSelection::shard(ShardSpec::new(index, count)).unwrap();
        let path = scratch_path(&format!("seg{index}"));
        let mut segment = ClassificationAtlas::open(&path).unwrap();
        let mut committed = 0;
        WindowSweep::run_selected(n, threads, &block, |seg| {
            segment.append_records(seg.records).unwrap();
            segment
                .append_shard_meta(&ShardMeta {
                    order: n as u16,
                    shard_index: seg.index as u32,
                    shard_count: seg.ranges as u32,
                    frontier_len: seg.frontier_len,
                    parent_lo: seg.parent_lo,
                    parent_hi: seg.parent_hi,
                    emitted: seg.emitted,
                    elapsed_ms: 0,
                    peak_rss_kb: None,
                    orchestrator_run: Some(index as u64),
                    frontier_prune: seg.frontier_prune,
                    final_prune: seg.final_prune,
                })
                .unwrap();
            committed += 1;
        })
        .unwrap();
        assert_eq!(committed, DEFAULT_OVERSPLIT, "process {index}");
        seg_paths.push(path);
    }
    let merged_path = scratch_path("merged");
    let mut merged = ClassificationAtlas::open(&merged_path).unwrap();
    let report = merge_segments(&mut merged, &seg_paths).unwrap();
    assert_eq!(report.appended, solo.records.len());
    assert_eq!(
        report.coverage,
        vec![(n, ShardCoverage::Declared(solo.records.len() as u64))]
    );

    // Warm replay from the merged store must be record-identical...
    let replay = WindowSweep::run(n, threads, Some(&merged));
    assert_eq!(replay.records, solo.records);
    // ...and CSV-byte-identical through the α-grid post-pass: the
    // aggregate tables compare bitwise on every f64.
    let alphas = bilateral_formation::empirics::SweepConfig::standard(n).alphas;
    assert_eq!(
        grid::evaluate(&replay, &alphas),
        grid::evaluate(&solo, &alphas),
        "merged-atlas CSV differs"
    );

    for p in seg_paths.iter().chain([&merged_path, &solo_path]) {
        std::fs::remove_file(p).ok();
    }
}
