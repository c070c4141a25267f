//! Property tests for the index sidecar: the random-access
//! [`MappedAtlas`] read path must agree with the store's own read path
//! on every record the sweeps produce.
//!
//! `ClassificationAtlas` locates records through the location table it
//! builds by walking the store; the indexed path seeks through the
//! sidecar built by a separate walk. Any disagreement — a wrong offset
//! in the key table, a mis-sorted engine-order table, a bad frame
//! bound — shows up here as a record-level diff rather than as a
//! corrupted answer in `bnf-serve`.

use std::sync::atomic::{AtomicU32, Ordering};

use bilateral_formation::atlas::{
    build_index, index_path, AtlasError, ClassificationAtlas, MappedAtlas,
};
use bilateral_formation::empirics::WindowSweep;

fn scratch_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-mapped-{tag}-{}-{id}.bnfatlas",
        std::process::id()
    ))
}

fn remove(store: &std::path::Path) {
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(index_path(store));
}

#[test]
fn indexed_lookups_agree_with_full_replay_for_every_record() {
    for n in 4..=7usize {
        let store = scratch_path(&format!("agree-{n}"));
        let sweep = WindowSweep::run(n, 2, None);
        let mut atlas = ClassificationAtlas::open(&store).unwrap();
        atlas.append_records(&sweep.records).unwrap();
        atlas.mark_complete(n, sweep.records.len()).unwrap();
        let replay = atlas.complete_sweep(n).expect("declared coverage");

        build_index(&store).unwrap();
        let mapped = MappedAtlas::open(&store).unwrap();
        assert_eq!(mapped.len(), sweep.records.len() as u64);

        // Every stored record: the sidecar lookup returns exactly what
        // the store's own lookup reads.
        for rec in &sweep.records {
            let via_index = mapped
                .lookup(&rec.key)
                .unwrap()
                .unwrap_or_else(|| panic!("n={n}: key {:?} missing from index", rec.key));
            let via_store = atlas.get(&rec.key).unwrap().expect("the store has the key");
            assert_eq!(via_index, via_store, "n={n} key {:?}", rec.key);
        }

        // The engine-order stream matches the store's replay record
        // for record (same sort, same bytes).
        let mut streamed = Vec::new();
        let declared = mapped
            .stream_sweep(n, |rec| streamed.push(rec))
            .unwrap()
            .expect("engine-order table exists");
        assert_eq!(declared, replay.len() as u64);
        assert_eq!(streamed, replay, "n={n} engine order diverged");

        // Miss cases: absent keys (an order-(n+1) star is never in an
        // order-n store), the empty key, and keys wider than the key
        // table's slot width all answer `None`, not an error.
        let wide_star = {
            use bilateral_formation::graph::Graph;
            let g = Graph::from_edges(n + 1, (1..=n).map(|i| (0, i))).unwrap();
            g.canonical_form().to_graph6()
        };
        assert_eq!(mapped.lookup(&wide_star).unwrap(), None);
        assert_eq!(mapped.lookup("").unwrap(), None);
        let too_wide = "~".repeat(64);
        assert_eq!(mapped.lookup(&too_wide).unwrap(), None);
        remove(&store);
    }
}

#[test]
fn truncated_sidecars_fail_with_typed_corruption_errors() {
    let store = scratch_path("truncate");
    let sweep = WindowSweep::run(5, 2, None);
    let mut atlas = ClassificationAtlas::open(&store).unwrap();
    atlas.append_records(&sweep.records).unwrap();
    atlas.mark_complete(5, sweep.records.len()).unwrap();
    drop(atlas);
    build_index(&store).unwrap();

    let sidecar = index_path(&store);
    let full = std::fs::read(&sidecar).unwrap();
    // Cut inside the key table and inside the engine-order tables: both
    // must surface as AtlasError::BadIndex from open (bounds checks),
    // never as a wrong lookup answer later.
    for cut in [full.len() / 3, full.len() - 4] {
        std::fs::write(&sidecar, &full[..cut]).unwrap();
        match MappedAtlas::open(&store) {
            Err(AtlasError::BadIndex { .. }) => {}
            other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }
    // Restoring the bytes restores the reader.
    std::fs::write(&sidecar, &full).unwrap();
    let mapped = MappedAtlas::open(&store).unwrap();
    assert_eq!(mapped.len(), sweep.records.len() as u64);
    remove(&store);
}
