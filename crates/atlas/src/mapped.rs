//! The indexed read path: point lookups and streaming replays against
//! an atlas store through its `<store>.idx` sidecar, via positioned
//! reads (`pread`) — no replay, no resident record map.
//!
//! [`MappedAtlas::open`] validates both headers (store magic/version,
//! sidecar magic/version/staleness) and then holds just the two file
//! handles plus the parsed sweep-table directory: a few hundred bytes
//! resident regardless of store size. [`MappedAtlas::lookup`] binary
//! searches the sorted key table with O(log N) entry reads;
//! [`MappedAtlas::stream_sweep`] walks one engine-order table through
//! the store's engine-order reader, decoding each block once.
//!
//! Positioned reads leave no shared cursor, so one `MappedAtlas` is
//! usable from many threads through a shared reference — `bnf-serve`
//! keeps a single instance behind an `Arc` for its whole worker pool.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bnf_core::WindowRecord;

use crate::index::{index_path, INDEX_HEADER_LEN, INDEX_MAGIC, INDEX_VERSION};
use crate::store::{
    check_header, read_block_record, AtlasError, Loc, OrderedReader, ATLAS_VERSION,
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
/// and streaming replays over the on-disk store that hold one decoded
/// block per sorted run of it (one block for an engine-ordered store).
///
/// Every indexed location is a columnar block frame plus an
/// intra-block ordinal. A point lookup reads that block and walks it
/// once through
/// [`crate::codec::decode_block_record`]: the CRC and every column of
/// every record are checked, but only the requested record is
/// materialized — one pass over ≤ [`crate::codec::BLOCK_RECORDS`]
/// records with no per-record allocation (0.2–0.3 ms for a full 78 KB
/// n = 9 block on a 2 vCPU Xeon, under half the cost of decoding it
/// whole).
/// [`MappedAtlas::stream_sweep`] goes through the engine-order reader,
/// which decodes each block once per call however the store
/// interleaves its ranges.
#[derive(Debug)]
pub struct MappedAtlas {
    store_path: PathBuf,
    store: File,
    index: File,
    /// Store length the sidecar vouches for; every location lies below.
    store_len: u64,
    entries: u64,
    key_width: u16,
    sweeps: Vec<SweepTable>,
}

impl MappedAtlas {
    /// Opens the store at `path` through its `<path>.idx` sidecar.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] / [`AtlasError::VersionMismatch`] for a
    /// store the strict readers refuse, [`AtlasError::BadIndex`] for a
    /// foreign, other-version or truncated sidecar,
    /// [`AtlasError::StaleIndex`] when the store changed size since the
    /// sidecar was built (rebuild with [`crate::build_index`]), and
    /// [`AtlasError::Io`] on filesystem failure (including a missing
    /// sidecar).
    pub fn open(path: impl AsRef<Path>) -> Result<MappedAtlas, AtlasError> {
        let store_path = path.as_ref().to_path_buf();
        let store = File::open(&store_path)?;
        let mut header = [0u8; 12];
        // A store torn inside its header is no atlas, as for a walk.
        store
            .read_exact_at(&mut header, 0)
            .map_err(|_| AtlasError::BadMagic)?;
        check_header(&header, false)?;

        let index = File::open(index_path(&store_path))?;
        let index_len = index.metadata()?.len();
        let span = |at: u64, count: u64, size: u64, what: &str| {
            sidecar_span(at, count, size, index_len, what)
        };
        let mut head = [0u8; INDEX_HEADER_LEN as usize];
        span(0, 1, INDEX_HEADER_LEN, "the header")?;
        index.read_exact_at(&mut head, 0)?;
        let field = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
        let half = |at: usize| u16::from_le_bytes(head[at..at + 2].try_into().expect("2 bytes"));
        let refuse = |offset: u64, reason: String| Err(AtlasError::BadIndex { offset, reason });
        if head[..8] != INDEX_MAGIC {
            return refuse(0, "not an atlas index file (bad magic)".into());
        }
        if word(8) != INDEX_VERSION {
            let reason = format!(
                "index version {} != supported {INDEX_VERSION}; rebuild the sidecar",
                word(8)
            );
            return refuse(8, reason);
        }
        if word(12) != ATLAS_VERSION {
            // Built over a store of another format than the one now
            // beside it: the locations are meaningless.
            let reason = format!(
                "sidecar indexes an atlas v{} store; rebuild the sidecar",
                word(12)
            );
            return refuse(12, reason);
        }
        let (indexed, actual) = (field(16), store.metadata()?.len());
        if indexed != actual {
            return Err(AtlasError::StaleIndex { indexed, actual });
        }
        let (entries, key_width, sweep_count) = (field(24), half(32), half(34));

        let entry_size = 11 + u64::from(key_width);
        let mut at = span(INDEX_HEADER_LEN, entries, entry_size, "the key table")?;
        let mut sweeps = Vec::with_capacity(sweep_count as usize);
        for _ in 0..sweep_count {
            let mut th = [0u8; 10];
            span(at, 1, 10, "a sweep-table header")?;
            index.read_exact_at(&mut th, at)?;
            let order = u16::from_le_bytes(th[..2].try_into().expect("2 bytes"));
            let count = u64::from_le_bytes(th[2..10].try_into().expect("8 bytes"));
            let locations_at = at + 10;
            at = span(locations_at, count, 10, "a sweep table")?;
            sweeps.push(SweepTable {
                order,
                count,
                locations_at,
            });
        }

        Ok(MappedAtlas {
            store_path,
            store,
            index,
            store_len: actual,
            entries,
            key_width,
            sweeps,
        })
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
    /// record's location.
    fn entry_at(&self, i: u64, scratch: &mut Vec<u8>) -> Result<Loc, AtlasError> {
        let entry_size = 11 + self.key_width as usize;
        scratch.resize(entry_size, 0);
        let at = INDEX_HEADER_LEN + i * entry_size as u64;
        self.index.read_exact_at(scratch, at)?;
        let key_len = scratch[0] as usize;
        if key_len > self.key_width as usize {
            return Err(AtlasError::BadIndex {
                offset: at,
                reason: format!("entry key length {key_len} exceeds column width"),
            });
        }
        let tail = 1 + self.key_width as usize;
        let loc = self.location(&scratch[tail..tail + 10])?;
        scratch.truncate(1 + key_len);
        scratch.remove(0);
        Ok(loc)
    }

    /// A 10-byte sidecar location: `u64` frame offset, `u16` ordinal.
    fn location(&self, bytes: &[u8]) -> Result<Loc, AtlasError> {
        let offset = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let ordinal = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if offset >= self.store_len {
            return Err(AtlasError::BadIndex {
                offset,
                reason: format!("location past the {}-byte store", self.store_len),
            });
        }
        Ok(Loc::new(offset, usize::from(ordinal)))
    }

    /// The key of the `i`-th entry in sorted key order — how
    /// `serve_bench` samples a seeded mix of known-present keys.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadIndex`] when `i` is out of range or the entry
    /// is malformed.
    pub fn key_at(&self, i: u64) -> Result<String, AtlasError> {
        if i >= self.entries {
            return Err(AtlasError::BadIndex {
                offset: 0,
                reason: format!("entry {i} out of range 0..{}", self.entries),
            });
        }
        let mut scratch = Vec::new();
        self.entry_at(i, &mut scratch)?;
        String::from_utf8(scratch).map_err(|_| AtlasError::BadIndex {
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
    /// [`AtlasError::BadIndex`] when the sidecar is malformed,
    /// [`AtlasError::Corrupt`] when the record frame it points at is,
    /// [`AtlasError::Io`] on read failure.
    pub fn lookup(&self, key: &str) -> Result<Option<WindowRecord>, AtlasError> {
        let mut buf = Vec::new();
        self.lookup_with(key, &mut buf)
    }

    /// [`MappedAtlas::lookup`] with a caller-owned scratch buffer, so
    /// a request loop reuses one allocation across lookups.
    pub fn lookup_with(
        &self,
        key: &str,
        buf: &mut Vec<u8>,
    ) -> Result<Option<WindowRecord>, AtlasError> {
        if key.len() > self.key_width as usize {
            return Ok(None); // longer than every stored key
        }
        let mut lo = 0u64;
        let mut hi = self.entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let loc = self.entry_at(mid, buf)?;
            match buf.as_slice().cmp(key.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Ok(Some(read_block_record(
                        &self.store,
                        self.store_len,
                        loc,
                        buf,
                    )?))
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
    /// As for [`MappedAtlas::lookup`].
    pub fn record_at(&self, order: usize, idx: u64) -> Result<Option<WindowRecord>, AtlasError> {
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
        self.index
            .read_exact_at(&mut loc_buf, table.locations_at + idx * 10)?;
        let loc = self.location(&loc_buf)?;
        let record = read_block_record(&self.store, self.store_len, loc, &mut Vec::new())?;
        Ok(Some(record))
    }

    /// Streams `order`'s catalogue in engine enumeration order, calling
    /// `f` once per record; returns how many records were streamed, or
    /// `None` (calling `f` never) when `order` has no engine-order
    /// table. Records come through the engine-order reader: each block
    /// is decoded once and dropped after its last record is yielded.
    ///
    /// # Errors
    ///
    /// As for [`MappedAtlas::lookup`].
    pub fn stream_sweep(
        &self,
        order: usize,
        mut f: impl FnMut(WindowRecord),
    ) -> Result<Option<u64>, AtlasError> {
        let Ok(order) = u16::try_from(order) else {
            return Ok(None);
        };
        let Some(table) = self.sweeps.iter().find(|s| s.order == order).copied() else {
            return Ok(None);
        };
        // Two passes over the table: the first lists every location, so
        // the reader knows when a block's last record has gone out.
        let mut reader = OrderedReader::new(&self.store, self.store_len, ATLAS_VERSION);
        self.for_each_location(table, |loc| {
            reader.list(loc);
            Ok(())
        })?;
        self.for_each_location(table, |loc| {
            f(reader.take(loc)?);
            Ok(())
        })?;
        Ok(Some(table.count))
    }

    /// Calls `f` on each location of `table`, in order. The table is
    /// read a window at a time, so a replay holds 40 KiB of it rather
    /// than 10 bytes per record.
    fn for_each_location(
        &self,
        table: SweepTable,
        mut f: impl FnMut(Loc) -> Result<(), AtlasError>,
    ) -> Result<(), AtlasError> {
        let mut window = Vec::new();
        let mut done = 0u64;
        while done < table.count {
            let len = (table.count - done).min(LOCATION_WINDOW);
            let at = table.locations_at + done * 10;
            window.resize((len * 10) as usize, 0);
            self.index.read_exact_at(&mut window, at)?;
            for chunk in window.chunks_exact(10) {
                f(self.location(chunk)?)?;
            }
            done += len;
        }
        Ok(())
    }
}

/// The end of the sidecar span of `count` entries of `size` bytes that
/// starts at `at`, or [`AtlasError::BadIndex`] at `at` when the span
/// overflows or runs past the `len`-byte sidecar — so every later read
/// of a span [`MappedAtlas::open`] checked lies inside the file.
fn sidecar_span(at: u64, count: u64, size: u64, len: u64, what: &str) -> Result<u64, AtlasError> {
    count
        .checked_mul(size)
        .and_then(|bytes| bytes.checked_add(at))
        .filter(|&end| end <= len)
        .ok_or_else(|| AtlasError::BadIndex {
            offset: at,
            reason: format!(
                "sidecar truncated: {what} ({count} × {size} bytes from byte {at}) runs past \
                 its {len} bytes"
            ),
        })
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
            Err(AtlasError::Io(_)) => {}
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
            Err(AtlasError::StaleIndex { indexed, actual }) => assert!(actual > indexed),
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
            Err(AtlasError::BadIndex { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Cut inside the sweep table directory instead.
        std::fs::write(&sidecar, &full[..full.len() - 4]).unwrap();
        match MappedAtlas::open(&path) {
            Err(AtlasError::BadIndex { .. }) => {}
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
    fn v3_stores_are_refused_naming_atlas_compact() {
        let path = scratch_path("v3refused");
        std::fs::write(&path, include_bytes!("../tests/fixtures/v3-n6.bnfatlas")).unwrap();
        match build_index(&path) {
            Err(e @ AtlasError::VersionMismatch { found: 3 }) => {
                assert!(e.to_string().contains("atlas_compact"), "{e}");
            }
            other => panic!("expected VersionMismatch {{ found: 3 }}, got {other:?}"),
        }
        // A sidecar left over from before a downgrade does not help.
        std::fs::write(index_path(&path), b"not consulted").unwrap();
        match MappedAtlas::open(&path) {
            Err(e @ AtlasError::VersionMismatch { found: 3 }) => {
                assert!(e.to_string().contains("atlas_compact"), "{e}");
            }
            other => panic!("expected VersionMismatch {{ found: 3 }}, got {other:?}"),
        }
        cleanup(&path);
    }
}
