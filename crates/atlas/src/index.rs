//! The index sidecar: a sorted key table (and per-order engine-order
//! tables) over an atlas store, built once after coverage is declared.
//!
//! The store itself is append-only frames with no random-access
//! structure. [`build_index`] walks it *once* through the store's frame
//! walker, keeping only each record's key, location and engine key,
//! and writes a `<store>.idx` sidecar holding
//!
//! * a **sorted key table** mapping canonical graph6 key → record
//!   location, so [`crate::MappedAtlas::lookup`] is a binary search of
//!   O(log N) `pread`s instead of a walk, and
//! * one **engine-order table** per coverage-declared order — record
//!   locations sorted by `(edge count, canonical key)`, the engine's
//!   enumeration order — so warm sweeps stream the catalogue in the
//!   exact order [`crate::ClassificationAtlas::complete_sweep`]
//!   produces.
//!
//! A record **location** is a `(frame offset, intra-frame ordinal)`
//! pair: the offset names a columnar block frame (see [`crate::codec`])
//! and the ordinal selects the record within it.
//!
//! The sidecar is a pure cache: it never changes the store, and it
//! self-invalidates (header records the store length it indexed; see
//! [`AtlasError::StaleIndex`]) when the store grows after indexing. See
//! `docs/ATLAS_FORMAT.md` for the byte-level layout and the full
//! invalidation rules.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::store::{corrupt_at, engine_key, engine_order, walk, AtlasError, Frame, Loc};

/// Leading magic bytes of an index sidecar file.
pub const INDEX_MAGIC: [u8; 8] = *b"BNFATIDX";

/// Sidecar layout version. Bumped whenever the sidecar byte layout
/// changes; version-mismatched sidecars are rejected (rebuild with
/// [`build_index`]), never reinterpreted.
///
/// Version 2 widens every record reference from a bare frame offset to
/// a `(frame offset, intra-frame ordinal)` pair, addressing records
/// inside v4 columnar blocks.
pub const INDEX_VERSION: u32 = 2;

/// Byte length of the fixed sidecar header (see `docs/ATLAS_FORMAT.md`).
pub const INDEX_HEADER_LEN: u64 = 36;

/// The sidecar path for a store path: `<store>.idx` appended to the
/// full file name (`n9.bnfatlas` → `n9.bnfatlas.idx`).
pub fn index_path(store: &Path) -> PathBuf {
    let mut name = store.as_os_str().to_owned();
    name.push(".idx");
    PathBuf::from(name)
}

/// What [`build_index`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSummary {
    /// Sidecar path written.
    pub path: PathBuf,
    /// Record keys indexed.
    pub records: u64,
    /// Engine-order tables written: `(order, record count)` per
    /// coverage-declared order whose stored population matches the
    /// declared count.
    pub sweeps: Vec<(u16, u64)>,
    /// Total sidecar size in bytes.
    pub index_bytes: u64,
    /// Fixed key-column width (longest key, bytes).
    pub key_width: u16,
}

/// One record seen by the store walk: its location and engine key,
/// with the key held in a shared arena so the n = 10 build stays
/// hundreds of MB, not records × `String` overhead.
struct ScanEntry {
    key_pos: u32,
    key_len: u8,
    loc: Loc,
    engine: (u16, u64, u64),
}

/// Builds (or rebuilds) the `<store>.idx` sidecar for the atlas at
/// `store`, walking the store once and keeping one light entry per
/// record, and returns what was written. The sidecar is written to a temporary
/// file and atomically renamed into place, so a crashed build never
/// leaves a half-written index behind.
///
/// Engine-order tables are emitted only for orders whose declared
/// coverage count matches the stored record population (the same
/// defensive rule [`crate::ClassificationAtlas::complete_sweep`]
/// applies before replaying).
///
/// # Errors
///
/// As every strict reader of the store ([`crate::ClassificationAtlas::open`]):
/// [`AtlasError::BadMagic`] for a file that is not an atlas (or is
/// torn inside its header), [`AtlasError::VersionMismatch`] for any
/// store but v4, [`AtlasError::Corrupt`] for malformed stores — a torn
/// tail counts: recover the store first — and [`AtlasError::Io`] on
/// filesystem failure.
pub fn build_index(store: impl AsRef<Path>) -> Result<IndexSummary, AtlasError> {
    let store = store.as_ref();
    bnf_obs::Recorder::global().time("index_build", || build_index_inner(store))
}

fn build_index_inner(store: &Path) -> Result<IndexSummary, AtlasError> {
    let mut arena: Vec<u8> = Vec::new();
    let mut entries: Vec<ScanEntry> = Vec::new();
    let mut coverage: Vec<(u16, u64)> = Vec::new();
    let end = walk(File::open(store)?, false, |offset, _, frame| {
        match frame {
            Frame::Records(records) => {
                for (ordinal, rec) in records.iter().enumerate() {
                    let corrupt = corrupt_at(offset);
                    let key_len = u8::try_from(rec.key.len()).map_err(|_| {
                        corrupt(format!(
                            "key of {} bytes exceeds the index limit",
                            rec.key.len()
                        ))
                    })?;
                    entries.push(ScanEntry {
                        key_pos: arena.len() as u32,
                        key_len,
                        loc: Loc::new(offset, ordinal),
                        engine: engine_key(rec).map_err(corrupt)?,
                    });
                    arena.extend_from_slice(rec.key.as_bytes());
                }
            }
            Frame::Coverage { order, count } => coverage.push((order, count)),
            Frame::Shard(_) => {} // provenance only; nothing to index
        }
        Ok(())
    })?
    .strict()?;
    // The walk ended on a frame boundary at the end of the file: that
    // is the store length the sidecar vouches for.
    let store_len = end.clean_len;

    // The store enforces key uniqueness on append, so duplicates can
    // only come from identical re-appends; keep the last occurrence,
    // as every reader does.
    entries.sort_by(|a, b| {
        key_of(&arena, a)
            .cmp(key_of(&arena, b))
            .then(a.loc.cmp(&b.loc))
    });
    entries.dedup_by(|next, prev| {
        // dedup_by sees (next, prev) and drops `next` on true; the pair
        // is ordered by location, so copy the later location into the
        // surviving slot before dropping it.
        let same = key_of(&arena, next) == key_of(&arena, prev);
        if same {
            prev.loc = next.loc;
        }
        same
    });

    coverage.sort_unstable();
    coverage.dedup();
    let mut rows: Vec<_> = entries.iter().map(|e| (e.engine, e.loc)).collect();
    engine_order(&mut rows);
    let mut sweeps: Vec<(u16, u64, Vec<Loc>)> = Vec::new();
    for &(order, declared) in &coverage {
        let table: Vec<Loc> = rows
            .iter()
            .filter(|r| r.0 .0 == order)
            .map(|r| r.1)
            .collect();
        // A population mismatch gets no table: the same defensive skip
        // as complete_sweep.
        if table.len() as u64 == declared {
            sweeps.push((order, declared, table));
        }
    }

    let key_width = entries
        .iter()
        .map(|e| u16::from(e.key_len))
        .max()
        .unwrap_or(0);
    let entry_size = 11 + key_width as usize;

    let out_path = index_path(store);
    let tmp_path = {
        let mut name = out_path.as_os_str().to_owned();
        name.push(".tmp");
        PathBuf::from(name)
    };
    let mut w = BufWriter::new(File::create(&tmp_path)?);
    w.write_all(&INDEX_MAGIC)?;
    w.write_all(&INDEX_VERSION.to_le_bytes())?;
    w.write_all(&end.version.to_le_bytes())?;
    w.write_all(&store_len.to_le_bytes())?;
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    w.write_all(&key_width.to_le_bytes())?;
    w.write_all(&(sweeps.len() as u16).to_le_bytes())?;
    let mut padded = vec![0u8; key_width as usize];
    for e in &entries {
        w.write_all(&[e.key_len])?;
        let key = key_of(&arena, e);
        padded[..key.len()].copy_from_slice(key);
        padded[key.len()..].fill(0);
        w.write_all(&padded)?;
        w.write_all(&e.loc.offset().to_le_bytes())?;
        w.write_all(&e.loc.ordinal().to_le_bytes())?;
    }
    for (order, count, locations) in &sweeps {
        w.write_all(&order.to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
        for loc in locations {
            w.write_all(&loc.offset().to_le_bytes())?;
            w.write_all(&loc.ordinal().to_le_bytes())?;
        }
    }
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp_path, &out_path)?;

    let index_bytes = INDEX_HEADER_LEN
        + entries.len() as u64 * entry_size as u64
        + sweeps
            .iter()
            .map(|(_, count, _)| 10 + count * 10)
            .sum::<u64>();
    let recorder = bnf_obs::Recorder::global();
    recorder.add("index_entries", entries.len() as u64);
    recorder.add("index_bytes", index_bytes);
    Ok(IndexSummary {
        path: out_path,
        records: entries.len() as u64,
        sweeps: sweeps.into_iter().map(|(o, c, _)| (o, c)).collect(),
        index_bytes,
        key_width,
    })
}

fn key_of<'a>(arena: &'a [u8], e: &ScanEntry) -> &'a [u8] {
    &arena[e.key_pos as usize..e.key_pos as usize + e.key_len as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClassificationAtlas;
    use bnf_core::WindowRecord;
    use bnf_graph::Graph;

    fn scratch_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-index-{tag}-{}-{n}.bnfatlas",
            std::process::id()
        ))
    }

    fn classified(g6: &str) -> WindowRecord {
        let g = Graph::from_graph6(g6).unwrap();
        let mut scratch = bnf_graph::BfsScratch::new();
        WindowRecord::classify(&g, &mut scratch)
    }

    #[test]
    fn builds_over_an_empty_store() {
        let path = scratch_path("empty");
        let _ = ClassificationAtlas::open(&path).unwrap();
        let summary = build_index(&path).unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.key_width, 0);
        assert!(summary.sweeps.is_empty());
        assert!(summary.path.exists());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&summary.path).unwrap();
    }

    #[test]
    fn skips_sweep_table_on_population_mismatch() {
        let path = scratch_path("mismatch");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&classified("D?{")]).unwrap();
            // Declare 2 records for order 5 while storing only 1.
            atlas.mark_complete(5, 2).unwrap();
        }
        let summary = build_index(&path).unwrap();
        assert_eq!(summary.records, 1);
        assert!(summary.sweeps.is_empty());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&summary.path).unwrap();
    }

    #[test]
    fn rejects_non_atlas_files() {
        let path = scratch_path("garbage");
        std::fs::write(&path, b"not an atlas at all").unwrap();
        match build_index(&path) {
            Err(AtlasError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
