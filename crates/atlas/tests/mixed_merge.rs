//! Merges across the v3 → v4 migration: `merge_segments` refuses a v3
//! segment with a typed error that names `atlas_compact`, and once the
//! segment is compacted it folds with exactly the semantics of any v4
//! fold — identical duplicates dedup, divergence stays a typed
//! [`AtlasError::KeyConflict`], coverage promotes the same way.

use bnf_atlas::{compact_store, merge_segments, AtlasError, ClassificationAtlas};
use bnf_core::WindowRecord;
use std::path::PathBuf;

/// The n = 6 catalogue with its coverage frame, as the last build that
/// wrote v3 row stores wrote it.
const V3_FIXTURE: &[u8] = include_bytes!("fixtures/v3-n6.bnfatlas");

fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-mixed-merge-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// The fixture written to a fresh path, and its compacted v4 copy.
fn fixture_pair(tag: &str) -> (PathBuf, PathBuf) {
    let v3 = scratch_path(&format!("{tag}-v3"));
    let v4 = scratch_path(&format!("{tag}-v4"));
    std::fs::write(&v3, V3_FIXTURE).unwrap();
    compact_store(&v3, &v4).unwrap();
    (v3, v4)
}

/// Writes `records` to a fresh v4 segment store.
fn segment(tag: &str, records: &[WindowRecord]) -> PathBuf {
    let path = scratch_path(tag);
    let mut seg = ClassificationAtlas::open(&path).unwrap();
    seg.append_records(records).unwrap();
    path
}

#[test]
fn v3_segments_fold_only_after_compaction() {
    let (v3, v4) = fixture_pair("fold");
    let catalogue = ClassificationAtlas::open(&v4)
        .unwrap()
        .complete_sweep(6)
        .expect("the fixture declares n = 6 coverage");
    assert_eq!(catalogue.len(), 112);

    // The v3 segment is refused before anything is folded.
    let out_path = scratch_path("fold-out");
    let mut out = ClassificationAtlas::open(&out_path).unwrap();
    let err = merge_segments(&mut out, &[&v3]).unwrap_err();
    assert_eq!(err.path, v3);
    assert!(matches!(
        err.error,
        AtlasError::VersionMismatch { found: 3 }
    ));
    assert!(err.to_string().contains("atlas_compact"), "{err}");
    assert!(out.is_empty());

    // Compacted, it folds next to a native segment overlapping it by
    // 40 records: those dedup, the rest append, coverage carries over.
    let native = segment("fold-native", &catalogue[..40]);
    let report = merge_segments(&mut out, &[&native, &v4]).unwrap();
    assert_eq!(report.appended, 112);
    assert_eq!(report.duplicates, 40);
    assert_eq!(out.coverage(6), Some(112));
    assert_eq!(out.complete_sweep(6).unwrap(), catalogue);

    for p in [v3, v4, native, out_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn divergence_across_the_version_boundary_stays_a_typed_conflict() {
    let (v3, v4) = fixture_pair("conflict");
    let catalogue = ClassificationAtlas::open(&v4)
        .unwrap()
        .complete_sweep(6)
        .unwrap();
    // Same key as a migrated record, different classification — a real
    // conflict, not a dup.
    let mut divergent = catalogue[7].clone();
    divergent.total_distance += 1;
    let native = segment("conflict-native", &[catalogue[0].clone(), divergent]);
    let out_path = scratch_path("conflict-out");
    let mut out = ClassificationAtlas::open(&out_path).unwrap();

    let err = merge_segments(&mut out, &[&native, &v4]).unwrap_err();
    assert_eq!(err.path, v4, "conflict must name the offending segment");
    match err.error {
        AtlasError::KeyConflict { ref key } => assert_eq!(key, &catalogue[7].key),
        ref other => panic!("expected KeyConflict, got {other:?}"),
    }
    // Frames appended before the conflict survive in the output store.
    assert_eq!(
        out.get(&catalogue[0].key).unwrap().as_ref(),
        Some(&catalogue[0])
    );

    for p in [v3, v4, native, out_path] {
        std::fs::remove_file(p).ok();
    }
}
