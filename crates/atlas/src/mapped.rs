//! The indexed read path: point lookups and streaming replays against
//! an atlas store through its `<store>.idx` sidecar, via positioned
//! reads (`pread`) — no replay, no resident record map.
//!
//! [`MappedAtlas::open`] validates both headers (store magic/version,
//! sidecar magic/version/staleness) and then holds just the two file
//! handles plus the parsed sweep-table directory: a few hundred bytes
//! resident regardless of store size. [`MappedAtlas::lookup`] binary
//! searches the sorted key table with O(log N) entry reads;
//! [`MappedAtlas::stream_sweep`] walks one engine-order table and
//! decodes one record at a time — the warm-sweep path that replaces
//! the 6.5 GB n = 10 replay.
//!
//! Positioned reads leave no shared cursor, so one `MappedAtlas` is
//! usable from many threads through a shared reference — `bnf-serve`
//! keeps a single instance behind an `Arc` for its whole worker pool.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bnf_core::WindowRecord;

use crate::codec::{decode_block, decode_block_record};
use crate::index::{index_path, IndexError, INDEX_HEADER_LEN, INDEX_MAGIC, INDEX_VERSION};
use crate::store::{
    decode_record, max_frame_len, ATLAS_MAGIC, ATLAS_VERSION, FRAME_RECORD, FRAME_RECORD_BLOCK,
    MIN_ATLAS_VERSION,
};

/// Locations a streaming replay reads from the sidecar at a time.
const LOCATION_WINDOW: u64 = 4096;

/// One engine-order table in the sidecar: where its locations start
/// and how many records it covers.
#[derive(Debug, Clone, Copy)]
struct SweepTable {
    order: u16,
    count: u64,
    /// Byte offset (in the sidecar) of the first 10-byte
    /// `(frame offset, ordinal)` location.
    locations_at: u64,
}

/// An atlas opened through its index sidecar: O(log N) point lookups
/// and O(1)-resident streaming replays over the on-disk store.
///
/// Works over both store formats through the same seam: in a v3 store
/// every indexed location is a row frame (decode one record); in a v4
/// store it is a columnar block frame plus an intra-block ordinal. A
/// point lookup reads that block and walks it once through
/// [`crate::codec::decode_block_record`]: the CRC and every column of
/// every record are checked, but only the requested record is
/// materialized — one pass over ≤ [`crate::codec::BLOCK_RECORDS`]
/// records with no per-record allocation (0.2–0.3 ms for a full 78 KB
/// n = 9 block on a 2 vCPU Xeon, under half the cost of decoding it
/// whole).
/// [`MappedAtlas::stream_sweep`] decodes whole blocks and reuses the
/// last one across consecutive records, so sequential replays decode
/// each block once.
#[derive(Debug)]
pub struct MappedAtlas {
    store_path: PathBuf,
    store: File,
    index: File,
    /// Store format version (3 or 4), from the store header.
    version: u32,
    entries: u64,
    key_width: u16,
    sweeps: Vec<SweepTable>,
}

impl MappedAtlas {
    /// Opens the store at `path` through its `<path>.idx` sidecar.
    ///
    /// # Errors
    ///
    /// [`IndexError::BadMagic`] / [`IndexError::VersionMismatch`] /
    /// [`IndexError::AtlasVersionMismatch`] for foreign or stale-layout
    /// files, [`IndexError::Stale`] when the store changed size since
    /// the sidecar was built (rebuild with [`crate::build_index`]),
    /// [`IndexError::Corrupt`] for truncated sidecars,
    /// [`IndexError::Io`] on filesystem failure (including a missing
    /// sidecar).
    pub fn open(path: impl AsRef<Path>) -> Result<MappedAtlas, IndexError> {
        let store_path = path.as_ref().to_path_buf();
        let store = File::open(&store_path)?;
        let mut header = [0u8; 12];
        store
            .read_exact_at(&mut header, 0)
            .map_err(|_| IndexError::Store {
                reason: "store too short for its header".into(),
            })?;
        if header[..8] != ATLAS_MAGIC {
            return Err(IndexError::Store {
                reason: "not an atlas file (bad magic)".into(),
            });
        }
        let store_version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if !(MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&store_version) {
            return Err(IndexError::AtlasVersionMismatch {
                found: store_version,
            });
        }

        let index = File::open(index_path(&store_path))?;
        let index_len = index.metadata()?.len();
        let mut head = [0u8; INDEX_HEADER_LEN as usize];
        index
            .read_exact_at(&mut head, 0)
            .map_err(|_| IndexError::Corrupt {
                offset: 0,
                reason: "sidecar too short for its header".into(),
            })?;
        if head[..8] != INDEX_MAGIC {
            return Err(IndexError::BadMagic);
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != INDEX_VERSION {
            return Err(IndexError::VersionMismatch { found: version });
        }
        let atlas_version = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
        if atlas_version != store_version {
            // The sidecar was built over a store of a different format
            // than the one now beside it (e.g. the store was compacted
            // in place): the locations are meaningless.
            return Err(IndexError::AtlasVersionMismatch {
                found: atlas_version,
            });
        }
        let indexed = u64::from_le_bytes(head[16..24].try_into().expect("8 bytes"));
        let actual = store.metadata()?.len();
        if indexed != actual {
            return Err(IndexError::Stale { indexed, actual });
        }
        let entries = u64::from_le_bytes(head[24..32].try_into().expect("8 bytes"));
        let key_width = u16::from_le_bytes(head[32..34].try_into().expect("2 bytes"));
        let sweep_count = u16::from_le_bytes(head[34..36].try_into().expect("2 bytes"));

        let entry_size = 11 + key_width as u64;
        let table_at = INDEX_HEADER_LEN
            .checked_add(entries.checked_mul(entry_size).ok_or(IndexError::Corrupt {
                offset: 24,
                reason: "entry count overflows the sidecar".into(),
            })?)
            .ok_or(IndexError::Corrupt {
                offset: 24,
                reason: "entry count overflows the sidecar".into(),
            })?;
        if table_at > index_len {
            return Err(IndexError::Corrupt {
                offset: index_len,
                reason: format!(
                    "sidecar truncated: key table needs {table_at} bytes, file has {index_len}"
                ),
            });
        }
        let mut sweeps = Vec::with_capacity(sweep_count as usize);
        let mut at = table_at;
        for _ in 0..sweep_count {
            let mut th = [0u8; 10];
            index
                .read_exact_at(&mut th, at)
                .map_err(|_| IndexError::Corrupt {
                    offset: at,
                    reason: "sidecar truncated inside a sweep-table header".into(),
                })?;
            let order = u16::from_le_bytes(th[..2].try_into().expect("2 bytes"));
            let count = u64::from_le_bytes(th[2..10].try_into().expect("8 bytes"));
            let locations_at = at + 10;
            let end = locations_at
                .checked_add(count.checked_mul(10).ok_or(IndexError::Corrupt {
                    offset: at,
                    reason: "sweep-table count overflows the sidecar".into(),
                })?)
                .ok_or(IndexError::Corrupt {
                    offset: at,
                    reason: "sweep-table count overflows the sidecar".into(),
                })?;
            if end > index_len {
                return Err(IndexError::Corrupt {
                    offset: at,
                    reason: format!(
                        "sidecar truncated: sweep table for order {order} needs {end} bytes, file has {index_len}"
                    ),
                });
            }
            sweeps.push(SweepTable {
                order,
                count,
                locations_at,
            });
            at = end;
        }

        Ok(MappedAtlas {
            store_path,
            store,
            index,
            version: store_version,
            entries,
            key_width,
            sweeps,
        })
    }

    /// The store's format version (3 or 4), from its header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of indexed record keys.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The backing store path.
    pub fn path(&self) -> &Path {
        &self.store_path
    }

    /// Orders with an engine-order table (coverage declared and
    /// population-consistent at index time), with their record counts,
    /// ascending.
    pub fn orders(&self) -> Vec<(u16, u64)> {
        let mut out: Vec<(u16, u64)> = self.sweeps.iter().map(|s| (s.order, s.count)).collect();
        out.sort_unstable();
        out
    }

    /// The record count of the engine-order table for `order`, if one
    /// was indexed — the mapped equivalent of
    /// [`crate::ClassificationAtlas::coverage`].
    pub fn coverage(&self, order: usize) -> Option<u64> {
        let order = u16::try_from(order).ok()?;
        self.sweeps
            .iter()
            .find(|s| s.order == order)
            .map(|s| s.count)
    }

    /// One sidecar entry: key bytes into `scratch`, returning the
    /// record's `(frame offset, intra-frame ordinal)` location.
    fn entry_at(&self, i: u64, scratch: &mut Vec<u8>) -> Result<(u64, u16), IndexError> {
        let entry_size = 11 + self.key_width as usize;
        scratch.resize(entry_size, 0);
        let at = INDEX_HEADER_LEN + i * entry_size as u64;
        self.index
            .read_exact_at(scratch, at)
            .map_err(|_| IndexError::Corrupt {
                offset: at,
                reason: "sidecar truncated inside the key table".into(),
            })?;
        let key_len = scratch[0] as usize;
        if key_len > self.key_width as usize {
            return Err(IndexError::Corrupt {
                offset: at,
                reason: format!("entry key length {key_len} exceeds column width"),
            });
        }
        let tail = 1 + self.key_width as usize;
        let offset = u64::from_le_bytes(scratch[tail..tail + 8].try_into().expect("8 bytes"));
        let ordinal = u16::from_le_bytes(scratch[tail + 8..tail + 10].try_into().expect("2 bytes"));
        scratch.truncate(1 + key_len);
        scratch.remove(0);
        Ok((offset, ordinal))
    }

    /// The key of the `i`-th entry in sorted key order — how
    /// `serve_bench` samples a seeded mix of known-present keys.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] when `i` is out of range or the sidecar
    /// is truncated.
    pub fn key_at(&self, i: u64) -> Result<String, IndexError> {
        if i >= self.entries {
            return Err(IndexError::Corrupt {
                offset: 0,
                reason: format!("entry {i} out of range 0..{}", self.entries),
            });
        }
        let mut scratch = Vec::new();
        self.entry_at(i, &mut scratch)?;
        String::from_utf8(scratch).map_err(|_| IndexError::Corrupt {
            offset: 0,
            reason: format!("entry {i} key is not UTF-8"),
        })
    }

    /// The stored record for canonical graph6 `key`, or `None` when
    /// the key is not in the store — a binary search of O(log N)
    /// sidecar reads plus one record read, never a replay.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] when the sidecar or the record frame it
    /// points at is malformed, [`IndexError::Io`] on read failure.
    pub fn lookup(&self, key: &str) -> Result<Option<WindowRecord>, IndexError> {
        let mut buf = Vec::new();
        self.lookup_with(key, &mut buf)
    }

    /// [`MappedAtlas::lookup`] with a caller-owned scratch buffer, so
    /// a request loop reuses one allocation across lookups.
    pub fn lookup_with(
        &self,
        key: &str,
        buf: &mut Vec<u8>,
    ) -> Result<Option<WindowRecord>, IndexError> {
        if key.len() > self.key_width as usize {
            return Ok(None); // longer than every stored key
        }
        let mut lo = 0u64;
        let mut hi = self.entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (offset, ordinal) = self.entry_at(mid, buf)?;
            match buf.as_slice().cmp(key.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return self.record_at_location(offset, ordinal, buf).map(Some)
                }
            }
        }
        Ok(None)
    }

    /// The `idx`-th record of `order`'s engine-order table — the same
    /// record `complete_sweep(order)[idx]` produces — or `None` when
    /// `order` has no table or `idx` is past its end.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] / [`IndexError::Io`] as for
    /// [`MappedAtlas::lookup`].
    pub fn record_at(&self, order: usize, idx: u64) -> Result<Option<WindowRecord>, IndexError> {
        let Ok(order) = u16::try_from(order) else {
            return Ok(None);
        };
        let Some(table) = self.sweeps.iter().find(|s| s.order == order) else {
            return Ok(None);
        };
        if idx >= table.count {
            return Ok(None);
        }
        let mut loc_buf = [0u8; 10];
        let at = table.locations_at + idx * 10;
        self.index
            .read_exact_at(&mut loc_buf, at)
            .map_err(|_| IndexError::Corrupt {
                offset: at,
                reason: "sidecar truncated inside a sweep table".into(),
            })?;
        let offset = u64::from_le_bytes(loc_buf[..8].try_into().expect("8 bytes"));
        let ordinal = u16::from_le_bytes(loc_buf[8..10].try_into().expect("2 bytes"));
        let mut buf = Vec::new();
        self.record_at_location(offset, ordinal, &mut buf).map(Some)
    }

    /// Streams `order`'s catalogue in engine enumeration order, calling
    /// `f` once per record with one record resident at a time; returns
    /// how many records were streamed, or `None` (calling `f` never)
    /// when `order` has no engine-order table.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] / [`IndexError::Io`] as for
    /// [`MappedAtlas::lookup`].
    pub fn stream_sweep(
        &self,
        order: usize,
        mut f: impl FnMut(WindowRecord),
    ) -> Result<Option<u64>, IndexError> {
        let Ok(order) = u16::try_from(order) else {
            return Ok(None);
        };
        let Some(table) = self.sweeps.iter().find(|s| s.order == order).copied() else {
            return Ok(None);
        };
        let mut buf = Vec::new();
        // Call-local block cache: consecutive locations usually hit the
        // same v4 block, so a sequentially written store decodes each
        // block once. Call-local (not a field) keeps `&self` methods
        // free of interior mutability — one MappedAtlas stays shareable
        // across threads.
        let mut cached: Option<(u64, Vec<WindowRecord>)> = None;
        // The location table is read a window at a time, so a replay
        // holds 40 KiB of it rather than 10 bytes per record.
        let mut locations = Vec::new();
        let mut streamed = 0u64;
        while streamed < table.count {
            let window = (table.count - streamed).min(LOCATION_WINDOW);
            let at = table.locations_at + streamed * 10;
            locations.resize((window * 10) as usize, 0);
            self.index
                .read_exact_at(&mut locations, at)
                .map_err(|_| IndexError::Corrupt {
                    offset: at,
                    reason: "sidecar truncated inside a sweep table".into(),
                })?;
            streamed += window;
            for chunk in locations.chunks_exact(10) {
                let offset = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
                let ordinal = u16::from_le_bytes(chunk[8..10].try_into().expect("2 bytes"));
                let cache_hit = cached.as_ref().is_some_and(|(at, _)| *at == offset);
                if !cache_hit {
                    let corrupt = |reason: String| IndexError::Corrupt { offset, reason };
                    self.read_frame(offset, &mut buf)?;
                    match buf[0] {
                        FRAME_RECORD => {
                            if ordinal != 0 {
                                return Err(corrupt(format!("ordinal {ordinal} into a row frame")));
                            }
                            f(decode_record(&buf[1..]).map_err(corrupt)?);
                            continue;
                        }
                        FRAME_RECORD_BLOCK => {
                            cached = Some((offset, decode_block(&buf[1..]).map_err(corrupt)?));
                        }
                        t => {
                            return Err(corrupt(format!(
                                "indexed offset points at frame tag {t}, not a record"
                            )))
                        }
                    }
                }
                let (_, records) = cached.as_ref().expect("cache just filled");
                let rec = records
                    .get(usize::from(ordinal))
                    .ok_or(IndexError::Corrupt {
                        offset,
                        reason: format!("ordinal {ordinal} past a {}-record block", records.len()),
                    })?;
                f(rec.clone());
            }
        }
        Ok(Some(table.count))
    }

    /// Reads the frame at store byte `offset` (tag + body) into `buf`.
    fn read_frame(&self, offset: u64, buf: &mut Vec<u8>) -> Result<(), IndexError> {
        let corrupt = |reason: String| IndexError::Corrupt { offset, reason };
        let mut len_buf = [0u8; 4];
        self.store
            .read_exact_at(&mut len_buf, offset)
            .map_err(|_| corrupt("store truncated at an indexed offset".into()))?;
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > max_frame_len(self.version) {
            return Err(corrupt(format!(
                "implausible frame length {len} (the v{} cap is {})",
                self.version,
                max_frame_len(self.version)
            )));
        }
        buf.resize(len as usize, 0);
        self.store
            .read_exact_at(buf, offset + 4)
            .map_err(|_| corrupt(format!("record frame of {len} bytes truncated")))
    }

    /// Reads and decodes the record at `(offset, ordinal)`: a row frame
    /// decodes directly (ordinal must be 0); a v4 block frame is
    /// validated whole but only its `ordinal`-th record is materialized.
    fn record_at_location(
        &self,
        offset: u64,
        ordinal: u16,
        buf: &mut Vec<u8>,
    ) -> Result<WindowRecord, IndexError> {
        let corrupt = |reason: String| IndexError::Corrupt { offset, reason };
        self.read_frame(offset, buf)?;
        match buf[0] {
            FRAME_RECORD => {
                if ordinal != 0 {
                    return Err(corrupt(format!("ordinal {ordinal} into a row frame")));
                }
                decode_record(&buf[1..]).map_err(corrupt)
            }
            FRAME_RECORD_BLOCK => {
                decode_block_record(&buf[1..], usize::from(ordinal)).map_err(corrupt)
            }
            t => Err(corrupt(format!(
                "indexed offset points at frame tag {t}, not a record"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use crate::store::ClassificationAtlas;
    use bnf_graph::Graph;

    fn scratch_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-mapped-{tag}-{}-{n}.bnfatlas",
            std::process::id()
        ))
    }

    fn classified(g6: &str) -> bnf_core::WindowRecord {
        let g = Graph::from_graph6(g6).unwrap();
        let mut scratch = bnf_graph::BfsScratch::new();
        bnf_core::WindowRecord::classify(&g, &mut scratch)
    }

    /// All 6 connected topologies on 4 vertices, by explicit edge list.
    fn n4_catalogue() -> Vec<Graph> {
        [
            &[(0, 1), (1, 2), (2, 3)][..],                         // path
            &[(0, 1), (0, 2), (0, 3)][..],                         // star
            &[(0, 1), (1, 2), (2, 3), (3, 0)][..],                 // C4
            &[(0, 1), (1, 2), (2, 0), (0, 3)][..],                 // paw
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)][..],         // diamond
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)][..], // K4
        ]
        .iter()
        .map(|edges| Graph::from_edges(4, edges.iter().copied()).unwrap())
        .collect()
    }

    fn cleanup(store: &Path) {
        let _ = std::fs::remove_file(store);
        let _ = std::fs::remove_file(index_path(store));
    }

    #[test]
    fn lookup_hits_and_misses() {
        let path = scratch_path("lookup");
        let recs = [classified("D?{"), classified("DQw")];
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(recs.iter()).unwrap();
        }
        build_index(&path).unwrap();
        let mapped = MappedAtlas::open(&path).unwrap();
        assert_eq!(mapped.len(), 2);
        for rec in &recs {
            assert_eq!(mapped.lookup(&rec.key).unwrap().as_ref(), Some(rec));
        }
        assert_eq!(mapped.lookup("D??").unwrap(), None);
        assert_eq!(mapped.lookup("").unwrap(), None);
        assert_eq!(mapped.lookup("a-key-longer-than-any-stored").unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn missing_sidecar_is_an_io_error() {
        let path = scratch_path("nosidecar");
        let _ = ClassificationAtlas::open(&path).unwrap();
        match MappedAtlas::open(&path) {
            Err(IndexError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_sidecar_is_rejected_until_rebuilt() {
        let path = scratch_path("stale");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&classified("D?{")]).unwrap();
        }
        build_index(&path).unwrap();
        // Grow the store after indexing: the sidecar must refuse.
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&classified("DQw")]).unwrap();
        }
        match MappedAtlas::open(&path) {
            Err(IndexError::Stale { indexed, actual }) => assert!(actual > indexed),
            other => panic!("expected Stale, got {other:?}"),
        }
        build_index(&path).unwrap();
        assert_eq!(MappedAtlas::open(&path).unwrap().len(), 2);
        cleanup(&path);
    }

    #[test]
    fn truncated_sidecar_is_a_typed_corruption_error() {
        let path = scratch_path("truncated");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas
                .append_records([&classified("D?{"), &classified("DQw")])
                .unwrap();
            atlas.mark_complete(5, 2).unwrap();
        }
        build_index(&path).unwrap();
        let sidecar = index_path(&path);
        let full = std::fs::read(&sidecar).unwrap();
        // Cut inside the key table: open() must fail with Corrupt.
        std::fs::write(&sidecar, &full[..INDEX_HEADER_LEN as usize + 3]).unwrap();
        match MappedAtlas::open(&path) {
            Err(IndexError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Cut inside the sweep table directory instead.
        std::fs::write(&sidecar, &full[..full.len() - 4]).unwrap();
        match MappedAtlas::open(&path) {
            Err(IndexError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn record_at_and_stream_follow_engine_order() {
        let path = scratch_path("engineorder");
        let mut scratch = bnf_graph::BfsScratch::new();
        let recs: Vec<_> = n4_catalogue()
            .iter()
            .map(|g| bnf_core::WindowRecord::classify(g, &mut scratch))
            .collect();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(recs.iter()).unwrap();
            atlas.mark_complete(4, 6).unwrap();
        }
        build_index(&path).unwrap();
        let expected = ClassificationAtlas::open(&path)
            .unwrap()
            .complete_sweep(4)
            .unwrap();
        let mapped = MappedAtlas::open(&path).unwrap();
        assert_eq!(mapped.coverage(4), Some(6));
        assert_eq!(mapped.orders(), vec![(4, 6)]);
        let mut streamed = Vec::new();
        assert_eq!(
            mapped.stream_sweep(4, |r| streamed.push(r)).unwrap(),
            Some(6)
        );
        assert_eq!(streamed, expected);
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(mapped.record_at(4, i as u64).unwrap().as_ref(), Some(want));
        }
        assert_eq!(mapped.record_at(4, 6).unwrap(), None);
        assert_eq!(mapped.record_at(5, 0).unwrap(), None);
        assert_eq!(mapped.stream_sweep(5, |_| ()).unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn v3_row_stores_read_through_the_same_seam() {
        let path = scratch_path("v3row");
        let mut scratch = bnf_graph::BfsScratch::new();
        let recs: Vec<_> = n4_catalogue()
            .iter()
            .map(|g| bnf_core::WindowRecord::classify(g, &mut scratch))
            .collect();
        {
            let mut atlas = ClassificationAtlas::open_with_version(&path, 3).unwrap();
            atlas.append_records(recs.iter()).unwrap();
            atlas.mark_complete(4, 6).unwrap();
        }
        build_index(&path).unwrap();
        let expected = ClassificationAtlas::open(&path)
            .unwrap()
            .complete_sweep(4)
            .unwrap();
        let mapped = MappedAtlas::open(&path).unwrap();
        assert_eq!(mapped.version(), 3);
        for rec in &recs {
            assert_eq!(mapped.lookup(&rec.key).unwrap().as_ref(), Some(rec));
        }
        let mut streamed = Vec::new();
        assert_eq!(
            mapped.stream_sweep(4, |r| streamed.push(r)).unwrap(),
            Some(6)
        );
        assert_eq!(streamed, expected);
        cleanup(&path);
    }
}
