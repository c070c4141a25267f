//! Layout equivalence of the atlas read path. The n = 7 catalogue is
//! written four ways:
//!
//! 1. one engine-order append (the sweep CLI's default path);
//! 2. orchestrated range segments appended in completion order
//!    (`--shards`), so blocks of different ranges interleave;
//! 3. four `--shard`-style segment files folded by `merge_segments`;
//! 4. layout 1 with every frame written a second time — identical
//!    re-appends on disk, which every reader collapses to the last copy.
//!
//! On every layout, `complete_sweep` must equal the reference catalogue
//! (`WindowJob::classify` over `connected_graphs`), `MappedAtlas::stream_sweep` must yield the same sequence,
//! every key must read back its own record, and compaction must write
//! the same record blocks byte for byte (the commit frames it carries
//! through differ by layout by design: shard metadata and coverage).
//!
//! Every reader sorts by a word read from the stored graph6 key
//! (`Graph::graph6_prefix_word`); it must equal the word of the decoded
//! graph's packed adjacency for every key of the catalogue.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use bilateral_formation::atlas::{
    build_index, compact_store, index_path, merge_segments, ClassificationAtlas, MappedAtlas,
    ShardMeta,
};
use bilateral_formation::core::WindowRecord;
use bilateral_formation::empirics::sweep::WindowJob;
use bilateral_formation::empirics::WindowSweep;
use bilateral_formation::engine::{Analysis, RangeSegment, WorkerScratch};
use bilateral_formation::enumerate::connected_graphs;
use bilateral_formation::graph::Graph;
use bilateral_formation::stream::{RangeSelection, ShardSpec};

const N: usize = 7;

fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-layouts-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

fn remove(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(index_path(path)).ok();
}

fn range_meta(seg: &RangeSegment<'_, WindowRecord>, run: u64) -> ShardMeta {
    ShardMeta {
        order: N as u16,
        shard_index: seg.index as u32,
        shard_count: seg.ranges as u32,
        frontier_len: seg.frontier_len,
        parent_lo: seg.parent_lo,
        parent_hi: seg.parent_hi,
        emitted: seg.emitted,
        elapsed_ms: seg.elapsed_ms,
        peak_rss_kb: None,
        orchestrator_run: Some(run),
        frontier_prune: seg.frontier_prune,
        final_prune: seg.final_prune,
    }
}

/// Layout 1: one append in engine order, then coverage.
fn engine_order_store(reference: &[WindowRecord]) -> PathBuf {
    let path = scratch_path("engine");
    let mut atlas = ClassificationAtlas::open(&path).unwrap();
    atlas.append_records(reference).unwrap();
    atlas.mark_complete(N, reference.len()).unwrap();
    path
}

/// Layout 2: 48 orchestrated ranges on two workers, each appended with
/// its metadata as it completes; coverage when the partition closes.
fn orchestrated_store() -> PathBuf {
    let path = scratch_path("orchestrated");
    let mut atlas = ClassificationAtlas::open(&path).unwrap();
    WindowSweep::run_orchestrated(N, 2, Some(48), None, |seg| {
        atlas.append_records(seg.records).unwrap();
        atlas.append_shard_meta(&range_meta(&seg, 1)).unwrap();
    });
    atlas.declare_sharded_coverage().unwrap();
    path
}

/// Layout 3: four `--shard i/4` segment files folded into one store.
fn merged_store() -> PathBuf {
    let segments: Vec<PathBuf> = (0..4)
        .map(|i| {
            let path = scratch_path(&format!("segment-{i}"));
            let mut segment = ClassificationAtlas::open(&path).unwrap();
            let block = RangeSelection::shard(ShardSpec::new(i, 4)).unwrap();
            WindowSweep::run_selected(N, 2, &block, None, |seg| {
                segment.append_records(seg.records).unwrap();
                segment
                    .append_shard_meta(&range_meta(&seg, 10 + i as u64))
                    .unwrap();
            })
            .unwrap();
            path
        })
        .collect();
    let path = scratch_path("merged");
    let mut merged = ClassificationAtlas::open(&path).unwrap();
    merge_segments(&mut merged, &segments).unwrap();
    segments.iter().for_each(remove);
    path
}

/// Layout 4: layout 1's frames, then all of them again.
fn reappended_store(reference: &[WindowRecord]) -> PathBuf {
    let once = engine_order_store(reference);
    let bytes = std::fs::read(&once).unwrap();
    remove(&once);
    let path = scratch_path("reappended");
    std::fs::write(&path, [&bytes[..], &bytes[12..]].concat()).unwrap();
    path
}

/// The header and record blocks of a store, without its commit frames.
fn record_blocks(path: &PathBuf) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    let mut at = 12;
    while at < bytes.len() && bytes[at + 4] == 4 {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    bytes[..at].to_vec()
}

fn reference_catalogue() -> Vec<WindowRecord> {
    let mut scratch = WorkerScratch::new();
    let reference: Vec<WindowRecord> = connected_graphs(N)
        .iter()
        .map(|g| WindowJob::default().classify(g, &mut scratch))
        .collect();
    assert_eq!(reference.len(), 853);
    reference
}

#[test]
fn sort_words_from_graph6_bytes_equal_the_graph_words() {
    for rec in reference_catalogue() {
        let graph = Graph::from_graph6(&rec.key).unwrap();
        assert_eq!(
            Graph::graph6_prefix_word(&rec.key),
            Ok(graph.packed_self_key().prefix_word()),
            "{}",
            rec.key
        );
    }
}

#[test]
fn every_layout_reads_back_the_reference_catalogue() {
    let reference = reference_catalogue();
    let layouts = [
        ("engine order", engine_order_store(&reference)),
        ("orchestrated", orchestrated_store()),
        ("four segments", merged_store()),
        ("re-appended", reappended_store(&reference)),
    ];
    let mut compacted_blocks = Vec::new();
    for (name, path) in &layouts {
        let atlas = ClassificationAtlas::open(path).unwrap();
        assert_eq!(atlas.len(), reference.len(), "{name}");
        assert_eq!(atlas.coverage(N), Some(853), "{name}");
        let replay = atlas.complete_sweep(N).expect("coverage declared");
        assert!(replay == reference, "{name}: complete_sweep diverged");
        for rec in &reference {
            assert_eq!(atlas.get(&rec.key).unwrap().as_ref(), Some(rec), "{name}");
        }

        build_index(path).unwrap();
        let mapped = MappedAtlas::open(path).unwrap();
        assert_eq!(mapped.len(), 853, "{name}");
        let mut streamed = Vec::new();
        mapped.stream_sweep(N, |r| streamed.push(r)).unwrap();
        assert!(streamed == reference, "{name}: stream_sweep diverged");

        let out = scratch_path("compacted");
        let summary = compact_store(path, &out).unwrap();
        assert_eq!(summary.records, 853, "{name}");
        compacted_blocks.push(record_blocks(&out));
        remove(&out);
        remove(path);
    }
    for (blocks, (name, _)) in compacted_blocks.iter().zip(&layouts) {
        assert!(
            blocks == &compacted_blocks[0],
            "{name}: compacted blocks differ"
        );
    }
}
