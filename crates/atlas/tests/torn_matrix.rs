//! The torn-write matrix: a real store truncated at **every** byte
//! offset must either recover to a clean prefix replay or fail with a
//! typed error — never panic, never silently lose data that recovery
//! did not report dropping. Every strict reader ends its walk through
//! one rule, so the strict open, the index build, compaction and the
//! segment merge return the same outcome at every cut: success exactly
//! on a clean frame boundary, `BadMagic` inside the header, `Corrupt`
//! at the last clean boundary otherwise.

use bnf_atlas::{
    build_index, compact_store, index_path, merge_segments, AtlasError, ClassificationAtlas,
    ShardMeta, ATLAS_MAGIC, ATLAS_VERSION, MAX_BLOCK_FRAME_LEN,
};
use bnf_core::WindowRecord;
use bnf_stream::PruneCounters;
use std::path::PathBuf;

fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-torn-matrix-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

fn remove(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(index_path(path)).ok();
}

fn record(key: &str, edges: u64) -> WindowRecord {
    WindowRecord {
        key: key.into(),
        order: 5,
        edges,
        total_distance: 40 - edges,
        stability: None,
        transfer: None,
        ucg_support: Vec::new(),
    }
}

fn meta(index: u32, count: u32, emitted: u64) -> ShardMeta {
    ShardMeta {
        order: 5,
        shard_index: index,
        shard_count: count,
        frontier_len: 6,
        parent_lo: 6 * u64::from(index) / u64::from(count),
        parent_hi: 6 * u64::from(index + 1) / u64::from(count),
        emitted,
        elapsed_ms: 3,
        peak_rss_kb: Some(1024),
        orchestrator_run: Some(7),
        frontier_prune: PruneCounters {
            candidates: 10,
            ..PruneCounters::default()
        },
        final_prune: PruneCounters {
            candidates: 4,
            ..PruneCounters::default()
        },
    }
}

/// Builds the reference store the matrix truncates: records, shard
/// metadata, and a coverage frame — every frame kind written on disk
/// (a columnar block, plus tags 2 and 3).
fn build_reference(path: &PathBuf) -> Vec<WindowRecord> {
    // Real keys of order-5 graphs, so the index and compaction can
    // compute their engine keys.
    let records: Vec<WindowRecord> = ["D?{", "DQw", "Dhc", "D]w"]
        .iter()
        .enumerate()
        .map(|(i, k)| record(k, 4 + i as u64))
        .collect();
    let mut atlas = ClassificationAtlas::open(path).unwrap();
    atlas.append_records(&records).unwrap();
    atlas.append_shard_meta(&meta(0, 2, 2)).unwrap();
    atlas.append_shard_meta(&meta(1, 2, 2)).unwrap();
    atlas.mark_complete(5, records.len()).unwrap();
    records
}

/// A reader's outcome in one comparable line: `ok`, `Corrupt at
/// <offset>: <reason>`, or the error's debug form.
fn outcome<T>(result: Result<T, AtlasError>) -> String {
    match result {
        Ok(_) => "ok".into(),
        Err(AtlasError::Corrupt { offset, reason }) => format!("Corrupt at {offset}: {reason}"),
        Err(other) => format!("{other:?}"),
    }
}

/// The frame boundaries of a well-formed store: the end of the header,
/// then the end of each frame.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut at = 12;
    let mut out = vec![at];
    while at < bytes.len() {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        out.push(at);
    }
    out
}

#[test]
fn truncation_at_every_offset_recovers_or_fails_typed() {
    let reference = scratch_path("reference");
    let records = build_reference(&reference);
    let bytes = std::fs::read(&reference).unwrap();
    let clean = boundaries(&bytes);
    let work = scratch_path("work");
    let compacted = scratch_path("compacted");
    let merged = scratch_path("merged");

    for cut in 0..=bytes.len() {
        // The read-only strict readers first, on the torn file itself.
        std::fs::write(&work, &bytes[..cut]).unwrap();
        let on_boundary = clean.contains(&cut);
        let expected = if on_boundary {
            "ok".to_string()
        } else if cut < 12 {
            format!("{:?}", AtlasError::BadMagic)
        } else {
            let at = clean.iter().rev().find(|&&b| b < cut).unwrap();
            format!("Corrupt at {at}")
        };
        let index = outcome(build_index(&work));
        let compact = compact_store(&work, &compacted);
        if let Ok(summary) = &compact {
            let out = ClassificationAtlas::open(&compacted).unwrap();
            assert_eq!(out.len() as u64, summary.records, "cut={cut}");
        }
        let compact = outcome(compact);
        remove(&merged);
        let mut out = ClassificationAtlas::open(&merged).unwrap();
        let merge = outcome(merge_segments(&mut out, &[&work]).map_err(|e| e.error));
        assert_eq!(
            std::fs::read(&work).unwrap(),
            &bytes[..cut],
            "cut={cut}: reader wrote"
        );
        // The strict open agrees, except where the file is empty: it
        // creates a store there, the one reader meant to write one.
        let open = outcome(ClassificationAtlas::open(&work));
        let mut readers = vec![("compact_store", compact), ("merge_segments", merge)];
        if cut == 0 {
            assert_eq!(open, "ok", "cut=0");
            assert_eq!(std::fs::metadata(&work).unwrap().len(), 12, "cut=0");
        } else {
            readers.push(("open", open));
        }
        assert!(
            index.starts_with(&expected),
            "cut={cut}: build_index {index}"
        );
        for (reader, got) in readers {
            assert_eq!(got, index, "cut={cut}: {reader} and build_index disagree");
        }
        std::fs::write(&work, &bytes[..cut]).unwrap();

        // Recovery must succeed at every truncation offset: the file is
        // a clean prefix plus (possibly) a torn tail, never mid-store
        // corruption.
        let recovered = ClassificationAtlas::open_recovering(&work)
            .unwrap_or_else(|e| panic!("cut={cut}: recovery failed: {e}"));
        let report = &recovered.report;
        if cut < 12 {
            // Tear inside the header: everything dropped, fresh stamp.
            assert_eq!(report.dropped_bytes, cut as u64, "cut={cut}");
            assert_eq!(report.recovered_len, 12, "cut={cut}");
            assert!(recovered.atlas.is_empty(), "cut={cut}");
        } else {
            // Accounting closes exactly: kept + dropped == cut, and the
            // file on disk now ends at the clean boundary.
            assert_eq!(
                report.recovered_len + report.dropped_bytes,
                cut as u64,
                "cut={cut}"
            );
            assert_eq!(report.was_torn(), !on_boundary, "cut={cut}");
        }
        assert_eq!(
            std::fs::metadata(&work).unwrap().len(),
            report.recovered_len,
            "cut={cut}"
        );
        // No invented data: every recovered key reads back the
        // reference store's record for that key.
        let mut found = 0;
        for original in &records {
            if let Some(rec) = recovered.atlas.get(&original.key).unwrap() {
                assert_eq!(&rec, original, "cut={cut}: recovered alien record");
                found += 1;
            }
        }
        assert_eq!(found, recovered.atlas.len(), "cut={cut}");
        // The truncated file reopens strictly after recovery.
        let reopened = ClassificationAtlas::open(&work)
            .unwrap_or_else(|e| panic!("cut={cut}: post-recovery open failed: {e}"));
        assert_eq!(reopened.len(), recovered.atlas.len(), "cut={cut}");
    }

    for p in [&reference, &work, &compacted, &merged] {
        remove(p);
    }
}

#[test]
fn mid_store_corruption_stays_typed_for_both_opens() {
    let reference = scratch_path("corrupt-ref");
    build_reference(&reference);
    let bytes = std::fs::read(&reference).unwrap();
    let work = scratch_path("corrupt-work");

    // A length field over the frame cap in the first frame: every
    // reader must call it corruption at that offset, not a tear to
    // "recover" from — and name the offending length and the cap.
    for huge_len in [MAX_BLOCK_FRAME_LEN + 7, 0x7FFF_FFFF] {
        let mut huge = bytes.clone();
        huge[12..16].copy_from_slice(&huge_len.to_le_bytes());
        std::fs::write(&work, &huge).unwrap();
        let check = |reason: &str| {
            assert!(
                reason.contains(&huge_len.to_string()),
                "diagnosis must name the length: {reason}"
            );
            assert!(
                reason.contains(&MAX_BLOCK_FRAME_LEN.to_string()),
                "diagnosis must name the cap: {reason}"
            );
        };
        for result in [
            ClassificationAtlas::open(&work).map(|_| ()),
            ClassificationAtlas::open_recovering(&work).map(|_| ()),
            build_index(&work).map(|_| ()),
            compact_store(&work, &work).map(|_| ()),
        ] {
            match result {
                Err(AtlasError::Corrupt { offset: 12, reason }) => check(&reason),
                other => panic!("expected Corrupt at 12, got {other:?}"),
            }
        }
    }

    // A length under the cap that the file cannot hold is a torn tail:
    // refused by the strict readers, truncated by recovery.
    let mut claims_more = ATLAS_MAGIC.to_vec();
    claims_more.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
    claims_more.extend_from_slice(&(MAX_BLOCK_FRAME_LEN - 1).to_le_bytes());
    claims_more.extend_from_slice(&bytes[16..40]);
    std::fs::write(&work, &claims_more).unwrap();
    assert!(matches!(
        ClassificationAtlas::open(&work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));
    assert!(matches!(
        build_index(&work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));
    assert!(matches!(
        compact_store(&work, &work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));
    let recovered = ClassificationAtlas::open_recovering(&work).unwrap();
    assert_eq!(recovered.report.recovered_len, 12);

    // An unknown frame tag mid-store (first byte of the first frame's
    // payload): fully present frame, fails decode — typed Corrupt.
    let mut badtag = bytes.clone();
    badtag[16] = 99;
    std::fs::write(&work, &badtag).unwrap();
    assert!(matches!(
        ClassificationAtlas::open(&work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));
    assert!(matches!(
        ClassificationAtlas::open_recovering(&work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));
    assert!(matches!(
        build_index(&work),
        Err(AtlasError::Corrupt { offset: 12, .. })
    ));

    for p in [&reference, &work] {
        remove(p);
    }
}
