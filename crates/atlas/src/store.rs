//! The persistent classification atlas: an append-only on-disk store of
//! [`WindowRecord`]s keyed by canonical graph6 string.
//!
//! Classification is a pure function of the canonical key, so records
//! never change — the store only ever grows, and a warm atlas lets every
//! sweep (any α grid, any enumeration path, any follow-up workload on
//! the engine seam) skip the expensive window extraction for keys it
//! has already seen. See `docs/ATLAS_FORMAT.md` for the byte-level
//! format and the invalidation rules.
//!
//! Every whole-store reader goes through the frame walker (header,
//! length caps, torn tail vs corruption, tag dispatch) and sorts by one
//! engine key. The streaming readers, which must not hold the
//! catalogue, take their records through the engine-order reader (the
//! records at a list of locations, each block decoded at most once); a
//! warm replay, which returns the catalogue, keeps each record as the
//! walk decodes it and permutes them in place.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::{DefaultHasher, Hasher};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bnf_core::WindowRecord;
use bnf_graph::Graph;

use crate::codec::{decode_block, decode_block_record, encode_block, BLOCK_RECORDS};
use crate::shard::{decode_shard_meta, encode_shard_meta, ShardMeta};

/// Leading magic bytes of an atlas file.
pub const ATLAS_MAGIC: [u8; 8] = *b"BNFATLAS";

/// Current format *and semantics* version. Bump whenever the byte layout
/// **or the meaning of a stored record** changes (e.g. a classifier fix
/// that alters windows) — version-mismatched files are rejected, never
/// silently reinterpreted.
///
/// Version 2 added the shard-segment metadata frame (tag 3) for
/// multi-process sweeps; version 3 extended it with the
/// orchestrator-run tag ([`ShardMeta::orchestrator_run`]).
///
/// Version 4 packs records into **columnar block frames** (tag 4, see
/// [`crate::codec`]): prefix-delta keys, zigzag-varint delta columns,
/// presence-bitmap windows, one CRC + record count per block. Coverage
/// and shard-metadata frames are unchanged, and so are the recovery
/// and `--resume` commit semantics — they apply at block granularity.
/// v4 is the only version this build opens, appends to, indexes or
/// serves; a v3 row store is readable only as `atlas_compact` input,
/// which rewrites it as v4.
pub const ATLAS_VERSION: u32 = 4;

/// The row-frame version `atlas_compact` still reads as input.
const V3: u32 = 3;

/// Hard ceiling on one frame's encoded length in a v3 row store. Real
/// v3 frames are tiny — a record is ~100 bytes — so a length field
/// beyond this is mid-store corruption, never a tear.
const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard ceiling on one frame's encoded length. A full 4096-record
/// columnar block tops out well under 1 MiB today, but the cap leaves
/// headroom for the window-heavy record shapes the follow-up models add
/// without another version bump; a length field beyond it is mid-store
/// corruption, never a tear. Without the cap a corrupted length field
/// could swallow the rest of the file and masquerade as a torn tail,
/// silently "recovering" away good frames.
pub const MAX_BLOCK_FRAME_LEN: u32 = 1 << 26;

/// The frame-length corruption bound of a store of `version`.
fn max_frame_len(version: u32) -> u32 {
    if version == V3 {
        MAX_FRAME_LEN
    } else {
        MAX_BLOCK_FRAME_LEN
    }
}

/// Why an atlas file could not be opened, read or appended to.
#[derive(Debug)]
pub enum AtlasError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`ATLAS_MAGIC`] — not an atlas.
    BadMagic,
    /// The file's version is not [`ATLAS_VERSION`]: a v3 store must be
    /// migrated with `atlas_compact` first; any other stale cache must
    /// be deleted (or kept for an old build), never reinterpreted.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
    },
    /// Structurally invalid record data at `offset` (truncation counts:
    /// a half-written record means the producing run died mid-append).
    Corrupt {
        /// Byte offset of the offending record frame.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// An append tried to bind `key` to a record different from the one
    /// already stored — classification is pure, so this indicates a
    /// classifier change without an [`ATLAS_VERSION`] bump.
    KeyConflict {
        /// The canonical graph6 key with two distinct records.
        key: String,
    },
    /// Two complete-coverage declarations for one order disagree on the
    /// topology count — the enumeration universe is fixed per order, so
    /// this indicates a corrupted or hand-edited store.
    CoverageConflict {
        /// The order with conflicting coverage counts.
        order: usize,
    },
    /// Two shard-metadata entries claim the same shard of the same
    /// partition but disagree on its range or emission count — the
    /// enumeration is deterministic per (order, partition, index), so
    /// this indicates segments from incompatible builds or a corrupted
    /// store.
    ShardConflict {
        /// The order whose shard metadata conflicts.
        order: usize,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The store changed length since its index sidecar was built, so
    /// the sidecar's locations can no longer be trusted; rebuild it
    /// with [`crate::build_index`].
    StaleIndex {
        /// Store length recorded at index time.
        indexed: u64,
        /// Store length found now.
        actual: u64,
    },
    /// Structurally invalid index sidecar bytes at `offset`: a foreign
    /// file, another sidecar layout version, or a truncated table (a
    /// half-written sidecar never survives [`crate::build_index`]'s
    /// atomic rename, so this means tampering). Rebuild the sidecar.
    BadIndex {
        /// Byte offset of the offending sidecar data.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl fmt::Display for AtlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtlasError::Io(e) => write!(f, "atlas I/O error: {e}"),
            AtlasError::BadMagic => write!(f, "not an atlas file (bad magic)"),
            AtlasError::VersionMismatch { found: V3 } => write!(
                f,
                "atlas version 3 is readable only by atlas_compact; migrate the store with \
                 `atlas_compact --atlas <store>` first"
            ),
            AtlasError::VersionMismatch { found } => write!(
                f,
                "atlas version {found} is not the supported v{ATLAS_VERSION}; delete the file to \
                 rebuild"
            ),
            AtlasError::Corrupt { offset, reason } => {
                write!(f, "corrupt atlas record at byte {offset}: {reason}")
            }
            AtlasError::KeyConflict { key } => write!(
                f,
                "conflicting record for key {key}: classifier changed without a version bump?"
            ),
            AtlasError::CoverageConflict { order } => {
                write!(f, "conflicting complete-coverage counts for order {order}")
            }
            AtlasError::ShardConflict { order, reason } => {
                write!(f, "conflicting shard metadata for order {order}: {reason}")
            }
            AtlasError::StaleIndex { indexed, actual } => write!(
                f,
                "index is stale: store was {indexed} bytes at index time, {actual} now; \
                 rebuild the sidecar"
            ),
            AtlasError::BadIndex { offset, reason } => {
                write!(f, "corrupt index data at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for AtlasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AtlasError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AtlasError {
    fn from(e: std::io::Error) -> Self {
        AtlasError::Io(e)
    }
}

/// An open classification atlas. It keeps no records: open walks the
/// store once and keeps its coverage declarations, shard metadata,
/// per-order record counts and a key-hash → location table; a record
/// is read from disk when asked for ([`ClassificationAtlas::get`],
/// [`ClassificationAtlas::complete_sweep`]). Appends are written
/// through to disk.
#[derive(Debug)]
pub struct ClassificationAtlas {
    path: PathBuf,
    /// Read handle for positioned record reads.
    file: File,
    /// Key hash → location of the record stored under that key.
    locations: HashMap<u64, Loc>,
    /// The locations of further stored keys whose hash an earlier key
    /// already owns in `locations`.
    collided: HashMap<u64, Vec<Loc>>,
    /// Stored records (distinct keys) per order.
    counts: HashMap<u32, u64>,
    /// Orders whose *complete* connected enumeration is stored, with
    /// the topology count recorded at completion time.
    coverage: HashMap<u16, u64>,
    /// Shard-segment metadata, one entry per distinct shard slot (see
    /// [`ShardMeta::identity`]).
    shards: Vec<ShardMeta>,
    /// The key hash — a field only so tests can force collisions.
    hash: fn(&str) -> u64,
}

/// Frame tag (v3 stores only): the payload is one row-encoded record.
const FRAME_RECORD: u8 = 1;
/// Frame tag: the payload declares complete sweep coverage for one
/// order (`u16` order + `u64` topology count).
const FRAME_COVERAGE: u8 = 2;
/// Frame tag: the payload is one encoded [`ShardMeta`].
const FRAME_SHARD_META: u8 = 3;
/// Frame tag: the payload is one columnar block of up to
/// [`BLOCK_RECORDS`] records (see [`crate::codec`]).
const FRAME_RECORD_BLOCK: u8 = 4;

/// The stored-key hash (SipHash with fixed keys). A hit is always
/// confirmed by reading the stored key, so a collision costs a read,
/// never a wrong answer.
fn key_hash(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(key.as_bytes());
    h.finish()
}

impl ClassificationAtlas {
    /// Opens the atlas at `path`, creating an empty one (header only) if
    /// the file is missing or zero-length.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] for foreign files,
    /// [`AtlasError::VersionMismatch`] for any version but
    /// [`ATLAS_VERSION`] (a v3 store must go through `atlas_compact`
    /// first), [`AtlasError::Corrupt`] for truncated or malformed
    /// frames, [`AtlasError::Io`] on filesystem failure.
    pub fn open(path: impl AsRef<Path>) -> Result<ClassificationAtlas, AtlasError> {
        Self::open_strict(path.as_ref(), true)
    }

    /// The strict open: a torn tail is *recoverable*, but only on
    /// explicit request ([`ClassificationAtlas::open_recovering`]), so
    /// the walk ends through [`WalkEnd::strict`] rather than silently
    /// shortening a store the caller believed complete. With `create`
    /// unset, nothing is written: a missing file is an I/O error and an
    /// empty one is torn inside its header, as for every strict reader.
    pub(crate) fn open_strict(path: &Path, create: bool) -> Result<Self, AtlasError> {
        let (atlas, end) = Self::load(path, key_hash, create)?;
        end.strict()?;
        Ok(atlas)
    }

    /// Opens an atlas at `path` like [`ClassificationAtlas::open`], but
    /// **recovers from a torn tail**: when the file ends mid-frame (a
    /// producer died mid-append — SIGKILL, power loss), the clean frame
    /// prefix is kept, the torn bytes are truncated off the file, and
    /// the [`RecoveryReport`] says exactly what was dropped.
    ///
    /// Only the *tail* is recoverable. A fully-present frame that fails
    /// to decode, or a frame length over [`MAX_BLOCK_FRAME_LEN`], is
    /// mid-store corruption and stays a typed [`AtlasError::Corrupt`] —
    /// recovery never invents a truncation point inside the clean
    /// prefix, and never drops bytes silently (the report is the
    /// contract). A torn block frame is dropped whole; a fully-present
    /// block failing its CRC is corruption.
    ///
    /// Truncation shrinks the file, so a `.bnfatlas.idx` sidecar built
    /// over the pre-crash store self-invalidates (its recorded store
    /// length no longer matches) — rebuild it after recovery.
    ///
    /// # Errors
    ///
    /// As [`ClassificationAtlas::open`], minus the torn-tail cases.
    pub fn open_recovering(path: impl AsRef<Path>) -> Result<RecoveredAtlas, AtlasError> {
        Self::recover(path.as_ref(), true)
    }

    /// The recovering open. With `create` unset, nothing is stamped
    /// before the walk: a missing file is an I/O error and an empty one
    /// is torn inside its header, recovered like any other such tear.
    pub(crate) fn recover(path: &Path, create: bool) -> Result<RecoveredAtlas, AtlasError> {
        let (atlas, end) = Self::load(path, key_hash, create)?;
        let file_len = std::fs::metadata(path)?.len();
        let report = match end.torn {
            None => RecoveryReport {
                dropped_bytes: 0,
                recovered_len: file_len.max(12),
                torn: None,
            },
            Some(reason) => {
                if end.clean_len < 12 {
                    // The tear is inside the 12-byte header: nothing
                    // decodable survives; re-stamp a fresh store.
                    stamp_header(path)?;
                } else {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(end.clean_len)?;
                    f.sync_all()?;
                }
                RecoveryReport {
                    dropped_bytes: file_len.saturating_sub(end.clean_len),
                    recovered_len: end.clean_len.max(12),
                    torn: Some(reason),
                }
            }
        };
        Ok(RecoveredAtlas { atlas, report })
    }

    /// The shared body of both opens: stamps a missing or empty store
    /// when `create` is set, then walks it into the location table and
    /// the commit state.
    fn load(
        path: &Path,
        hash: fn(&str) -> u64,
        create: bool,
    ) -> Result<(Self, WalkEnd), AtlasError> {
        match std::fs::metadata(path) {
            Ok(meta) if meta.len() > 0 || !create => {}
            Err(e) if e.kind() != ErrorKind::NotFound || !create => return Err(e.into()),
            _ => stamp_header(path)?,
        }
        let mut atlas = ClassificationAtlas {
            path: path.to_path_buf(),
            file: File::open(path)?,
            locations: HashMap::new(),
            collided: HashMap::new(),
            counts: HashMap::new(),
            coverage: HashMap::new(),
            shards: Vec::new(),
            hash,
        };
        let end = walk(File::open(path)?, false, |offset, _, frame| {
            atlas.absorb(offset, frame)
        })?;
        Ok((atlas, end))
    }

    /// Files one walked frame into the open state.
    fn absorb(&mut self, offset: u64, frame: Frame) -> Result<(), AtlasError> {
        let corrupt = |reason: String| AtlasError::Corrupt { offset, reason };
        match frame {
            Frame::Records(records) => {
                let mut buf = Vec::new();
                for (ordinal, rec) in records.iter().enumerate() {
                    let h = (self.hash)(&rec.key);
                    let loc = Loc::new(offset, ordinal);
                    // A later copy of a stored key replaces the earlier
                    // location: the newest copy wins, as in every reader.
                    match self.find(h, &rec.key, &mut buf)? {
                        Some((which, _)) => self.relocate(h, which, loc),
                        None => self.insert(h, rec.order, loc),
                    }
                }
            }
            Frame::Coverage { order, count } => match self.coverage.insert(order, count) {
                Some(stored) if stored != count => {
                    return Err(corrupt(format!(
                        "conflicting coverage counts for order {order}: {stored} vs {count}"
                    )))
                }
                _ => {}
            },
            Frame::Shard(meta) => {
                match self.shards.iter().find(|m| m.identity() == meta.identity()) {
                    Some(stored) if !stored.compatible(&meta) => {
                        return Err(corrupt(format!(
                            "conflicting metadata for shard {}/{} of order {}",
                            meta.shard_index, meta.shard_count, meta.order
                        )))
                    }
                    Some(_) => {} // identical slot: dedup on read too
                    None => self.shards.push(meta),
                }
            }
        }
        Ok(())
    }

    /// The stored locations whose key hashes to `h`.
    fn candidates(&self, h: u64) -> impl Iterator<Item = Loc> + '_ {
        let extra = self.collided.get(&h).into_iter().flatten();
        self.locations.get(&h).into_iter().chain(extra).copied()
    }

    /// The stored record for `key` (hash `h`), with its position among
    /// [`Self::candidates`] — each candidate confirmed by reading its
    /// key from disk.
    fn find(
        &self,
        h: u64,
        key: &str,
        buf: &mut Vec<u8>,
    ) -> Result<Option<(usize, WindowRecord)>, AtlasError> {
        for (which, loc) in self.candidates(h).enumerate() {
            let store_len = self.file.metadata()?.len();
            let rec = read_block_record(&self.file, store_len, loc, buf)?;
            if rec.key == key {
                return Ok(Some((which, rec)));
            }
        }
        Ok(None)
    }

    /// Records a new key of `order` at `loc`.
    fn insert(&mut self, h: u64, order: u32, loc: Loc) {
        match self.locations.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(loc);
            }
            Entry::Occupied(_) => self.collided.entry(h).or_default().push(loc),
        }
        *self.counts.entry(order).or_default() += 1;
    }

    /// Moves the `which`-th candidate of hash `h` to `loc`.
    fn relocate(&mut self, h: u64, which: usize, loc: Loc) {
        let slot = match which {
            0 => self.locations.get_mut(&h),
            i => self.collided.get_mut(&h).and_then(|v| v.get_mut(i - 1)),
        };
        if let Some(slot) = slot {
            *slot = loc;
        }
    }

    /// The record stored for canonical graph6 `key`, read from disk: a
    /// hash probe, one positioned block read per candidate, and a key
    /// compare — never a record stored under another key.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Corrupt`] when the located block no longer
    /// decodes, [`AtlasError::Io`] on read failure.
    pub fn get(&self, key: &str) -> Result<Option<WindowRecord>, AtlasError> {
        let found = self.find((self.hash)(key), key, &mut Vec::new())?;
        Ok(found.map(|(_, rec)| rec))
    }

    /// Number of stored records (distinct keys).
    pub fn len(&self) -> usize {
        self.counts.values().sum::<u64>() as usize
    }

    /// Number of stored records (distinct keys) of `order`.
    pub fn stored(&self, order: usize) -> u64 {
        let order = u32::try_from(order).ok();
        order
            .and_then(|o| self.counts.get(&o).copied())
            .unwrap_or(0)
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends every record whose key is not yet stored; returns how
    /// many were newly written. Records whose key is present must be
    /// *identical* to the stored ones.
    ///
    /// # Errors
    ///
    /// [`AtlasError::KeyConflict`] if any key — already stored *or*
    /// duplicated within this batch — maps to a different record
    /// (records appended before the conflict was seen stay appended;
    /// they are valid), [`AtlasError::Io`] on write failure.
    pub fn append_records<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a WindowRecord>,
    ) -> Result<usize, AtlasError> {
        let records: Vec<&WindowRecord> = records.into_iter().collect();
        let stored = self.already_stored(&records)?;
        if stored.iter().all(|&s| s) {
            return Ok(0);
        }
        let write_started = std::time::Instant::now();
        let file = OpenOptions::new().append(true).open(&self.path)?;
        // Where the next block frame lands: its records' location.
        let mut frame_at = file.metadata()?.len();
        let mut w = BufWriter::new(file);
        let mut payload = Vec::new();
        // Every block is full at BLOCK_RECORDS except possibly the
        // last, and the whole batch is on disk when this call returns —
        // no frame ever spans append calls, so torn-tail recovery and
        // the `append_commit_frame` ordering hold at block granularity.
        let mut block: Vec<&WindowRecord> = Vec::new();
        // The enumeration only yields distinct keys within one batch,
        // but defend against caller-supplied duplicates: an identical
        // duplicate is skipped, a conflicting one is the KeyConflict
        // invariant violation — never silently dropped.
        let mut fresh: HashMap<&str, &WindowRecord> = HashMap::new();
        for (rec, _) in records.iter().zip(&stored).filter(|(_, &s)| !s) {
            match fresh.entry(rec.key.as_str()) {
                Entry::Occupied(first) if first.get() == rec => continue,
                Entry::Occupied(_) => {
                    // Records blocked before the conflict stay appended
                    // — they are individually valid.
                    write_block_frame(&mut w, &mut payload, &mut block)?;
                    w.flush()?;
                    return Err(AtlasError::KeyConflict {
                        key: rec.key.clone(),
                    });
                }
                Entry::Vacant(slot) => slot.insert(rec),
            };
            self.insert(
                (self.hash)(&rec.key),
                rec.order,
                Loc::new(frame_at, block.len()),
            );
            block.push(rec);
            if block.len() == BLOCK_RECORDS {
                frame_at += write_block_frame(&mut w, &mut payload, &mut block)?;
            }
        }
        write_block_frame(&mut w, &mut payload, &mut block)?;
        w.flush()?;
        let recorder = bnf_obs::Recorder::global();
        recorder.add_span_ms("atlas_write", write_started.elapsed().as_millis() as u64);
        recorder.add("atlas_records_appended", fresh.len() as u64);
        Ok(fresh.len())
    }

    /// Which of `records` are already stored, identically: every hash
    /// hit is confirmed from disk, each touched block decoded once.
    ///
    /// # Errors
    ///
    /// [`AtlasError::KeyConflict`] naming the first record in batch
    /// order whose key is stored with a different record.
    fn already_stored(&self, records: &[&WindowRecord]) -> Result<Vec<bool>, AtlasError> {
        let mut hits: Vec<(Loc, usize)> = records
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                self.candidates((self.hash)(&r.key))
                    .map(move |loc| (loc, i))
            })
            .collect();
        hits.sort_unstable();
        let mut stored = vec![false; records.len()];
        let mut conflict: Option<usize> = None;
        let groups = || hits.chunk_by(|a, b| a.0 == b.0);
        let store_len = self.file.metadata()?.len();
        let mut reader = OrderedReader::new(&self.file, store_len, ATLAS_VERSION);
        groups().for_each(|g| reader.list(g[0].0));
        for group in groups() {
            let rec = reader.take(group[0].0)?;
            for &(_, i) in group.iter().filter(|&&(_, i)| records[i].key == rec.key) {
                if *records[i] == rec {
                    stored[i] = true;
                } else if conflict.is_none_or(|c| i < c) {
                    conflict = Some(i);
                }
            }
        }
        match conflict {
            Some(i) => Err(AtlasError::KeyConflict {
                key: records[i].key.clone(),
            }),
            None => Ok(stored),
        }
    }

    /// Declares that every connected topology on `order` vertices is
    /// stored (`count` of them) — call after appending a *full* sweep's
    /// records. Warm runs then replay the whole catalogue from the
    /// store ([`ClassificationAtlas::complete_sweep`]) without touching
    /// the enumerator. Idempotent for matching counts.
    ///
    /// # Errors
    ///
    /// [`AtlasError::CoverageConflict`] when coverage for `order` is
    /// already declared with a different count, [`AtlasError::Io`] on
    /// write failure.
    pub fn mark_complete(&mut self, order: usize, count: usize) -> Result<(), AtlasError> {
        match self.coverage.get(&(order as u16)) {
            Some(&stored) if stored == count as u64 => return Ok(()),
            Some(_) => return Err(AtlasError::CoverageConflict { order }),
            None => {}
        }
        let mut payload = vec![FRAME_COVERAGE];
        payload.extend_from_slice(&(order as u16).to_le_bytes());
        payload.extend_from_slice(&(count as u64).to_le_bytes());
        self.append_commit_frame(&payload)?;
        self.coverage.insert(order as u16, count as u64);
        Ok(())
    }

    /// The declared complete-sweep topology count for `order`, if a
    /// full sweep has been persisted.
    pub fn coverage(&self, order: usize) -> Option<u64> {
        u16::try_from(order)
            .ok()
            .and_then(|o| self.coverage.get(&o).copied())
    }

    /// The full connected catalogue for `order` in **engine enumeration
    /// order** (edge count, then canonical key), served entirely from
    /// the store — or `None` when coverage was never declared, the
    /// stored records do not match the declared count, or the store no
    /// longer reads cleanly (defensive: fall back to classifying).
    ///
    /// One walk over the store decodes each block once and moves the
    /// order's records into the result; sorting their engine keys then
    /// gives the permutation applied in place. No record is read twice
    /// and no graph is built.
    pub fn complete_sweep(&self, order: usize) -> Option<Vec<WindowRecord>> {
        let declared = self.coverage(order)?;
        bnf_obs::Recorder::global().time("warm_replay", || self.replay_sweep(order, declared))
    }

    /// The [`ClassificationAtlas::complete_sweep`] body, split out so
    /// the telemetry span covers exactly the replay work: the walk moves
    /// each record of `order` into `records` and keeps an `(engine key,
    /// index)` row beside it; [`engine_order`] sorts the rows (the
    /// newest copy of a re-appended key wins), and the records are
    /// gathered into that order in place.
    fn replay_sweep(&self, order: usize, declared: u64) -> Option<Vec<WindowRecord>> {
        let order = u32::try_from(order).ok()?;
        if self.counts.get(&order) != Some(&declared) {
            return None;
        }
        let mut records = Vec::with_capacity(declared as usize);
        let mut rows = Vec::with_capacity(declared as usize);
        walk(File::open(&self.path).ok()?, false, |offset, _, frame| {
            if let Frame::Records(block) = frame {
                for rec in block.into_iter().filter(|rec| rec.order == order) {
                    let key = engine_key(&rec).map_err(corrupt_at(offset))?;
                    rows.push((key, records.len()));
                    records.push(rec);
                }
            }
            Ok(())
        })
        .and_then(WalkEnd::strict)
        .ok()?;
        engine_order(&mut rows);
        if rows.len() as u64 != declared {
            return None;
        }
        gather(&mut records, &mut rows);
        Some(records)
    }

    /// The shard-segment metadata stored in this file, one entry per
    /// distinct shard slot.
    pub fn shard_metas(&self) -> &[ShardMeta] {
        &self.shards
    }

    /// Appends one shard's metadata; returns `false` (writing nothing)
    /// when an entry for the same shard slot with the same range and
    /// emission count is already stored — merging the same segment
    /// twice is a no-op, and per-slot uniqueness is what the coverage
    /// arithmetic in [`ClassificationAtlas::declare_sharded_coverage`]
    /// rests on.
    ///
    /// # Errors
    ///
    /// [`AtlasError::ShardConflict`] when the stored entry for the slot
    /// disagrees on range or emission count (the enumeration is
    /// deterministic, so a disagreeing "re-run" means incompatible
    /// builds), [`AtlasError::Io`] on write failure.
    pub fn append_shard_meta(&mut self, meta: &ShardMeta) -> Result<bool, AtlasError> {
        if let Some(stored) = self.shards.iter().find(|m| m.identity() == meta.identity()) {
            if stored.compatible(meta) {
                return Ok(false);
            }
            return Err(AtlasError::ShardConflict {
                order: meta.order as usize,
                reason: format!(
                    "shard {}/{} stored as parents {}..{} ({} emitted) vs new {}..{} ({} emitted)",
                    meta.shard_index,
                    meta.shard_count,
                    stored.parent_lo,
                    stored.parent_hi,
                    stored.emitted,
                    meta.parent_lo,
                    meta.parent_hi,
                    meta.emitted,
                ),
            });
        }
        let mut payload = vec![FRAME_SHARD_META];
        encode_shard_meta(meta, &mut payload);
        self.append_commit_frame(&payload)?;
        self.shards.push(meta.clone());
        Ok(true)
    }

    /// Appends one *commit* frame (shard metadata or coverage) with the
    /// crash-safety discipline the resume workflow rests on: the file is
    /// `fsync`ed **before** the frame — so every record the frame
    /// vouches for is durable first — and again after, so the commit
    /// itself survives the crash. Record appends deliberately skip the
    /// sync (they are re-derivable); a `ShardMeta` frame present after a
    /// crash therefore *guarantees* its range's records are present too,
    /// which is what lets `--resume` skip completed ranges outright.
    fn append_commit_frame(&self, payload: &[u8]) -> Result<(), AtlasError> {
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        f.sync_all()?;
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        f.write_all(&frame)?;
        f.sync_all()?;
        Ok(())
    }

    /// Folds another (typically segment) atlas into this one: records,
    /// coverage declarations, and shard metadata. The other store's
    /// records stream in, one block per [`append_records`] batch.
    ///
    /// Merge semantics — exercised by the conflict-matrix tests, never
    /// last-write-wins:
    ///
    /// * records sharing a key with an **identical** stored record are
    ///   deduplicated silently; a **divergent** record is a hard
    ///   [`AtlasError::KeyConflict`];
    /// * coverage frames for the same order with the **same** count are
    ///   deduplicated; a **divergent** count is a hard
    ///   [`AtlasError::CoverageConflict`];
    /// * shard metadata for the same slot with the same range/count is
    ///   deduplicated; a divergent slot is a hard
    ///   [`AtlasError::ShardConflict`].
    ///
    /// Frames appended before a conflict was detected stay appended —
    /// they are individually valid; the merge is resumable after the
    /// offending segment is removed.
    ///
    /// [`append_records`]: ClassificationAtlas::append_records
    ///
    /// # Errors
    ///
    /// The typed conflicts above, [`AtlasError::Corrupt`] when the
    /// other store no longer reads cleanly, or [`AtlasError::Io`].
    pub fn merge_from(&mut self, other: &ClassificationAtlas) -> Result<MergeOutcome, AtlasError> {
        let mut appended = 0;
        walk(File::open(&other.path)?, false, |_, _, frame| {
            if let Frame::Records(records) = frame {
                appended += self.append_records(&records)?;
            }
            Ok(())
        })?
        .strict()?;
        let mut outcome = MergeOutcome {
            appended,
            duplicates: other.len() - appended,
            metas_added: 0,
        };
        for meta in &other.shards {
            if self.append_shard_meta(meta)? {
                outcome.metas_added += 1;
            }
        }
        for (&order, &count) in &other.coverage {
            self.mark_complete(order as usize, count as usize)?;
        }
        Ok(outcome)
    }

    /// Declares complete coverage for every order whose stored shard
    /// metadata contains a full partition — all indices `0..count` of
    /// one [`ShardMeta::partitions`] entry — whose summed emission
    /// count equals the number of stored records of that order. Orders
    /// already covered are reported as such; incomplete or
    /// count-mismatched orders are reported, not errors (merge more
    /// segments and call again — the sharded workflow is incremental).
    ///
    /// # Errors
    ///
    /// [`AtlasError::CoverageConflict`] when a declaration contradicts
    /// a stored coverage frame, [`AtlasError::Io`] on write failure.
    pub fn declare_sharded_coverage(&mut self) -> Result<Vec<(usize, ShardCoverage)>, AtlasError> {
        let mut out = Vec::new();
        let partitions = ShardMeta::partitions(&self.shards);
        for own in partitions.chunk_by(|a, b| a.order == b.order) {
            let order = own[0].order;
            if let Some(count) = self.coverage.get(&order) {
                out.push((order as usize, ShardCoverage::AlreadyDeclared(*count)));
                continue;
            }
            let stored = self.stored(order.into());
            let mut status = ShardCoverage::Incomplete { have: 0, want: 0 };
            for p in own {
                let (have, want) = (p.done.len(), p.shard_count as usize);
                if have < want {
                    // Keep the fullest incomplete partition as the status
                    // (a CountMismatch from an earlier partition wins).
                    let fuller = matches!(status, ShardCoverage::Incomplete { have: h, want: w }
                        if have > h || w == 0);
                    if fuller {
                        status = ShardCoverage::Incomplete { have, want };
                    }
                    continue;
                }
                if p.emitted != stored {
                    status = ShardCoverage::CountMismatch {
                        emitted: p.emitted,
                        stored,
                    };
                    continue;
                }
                self.mark_complete(order as usize, p.emitted as usize)?;
                status = ShardCoverage::Declared(p.emitted);
                break;
            }
            out.push((order as usize, status));
        }
        Ok(out)
    }
}

/// What [`ClassificationAtlas::merge_from`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Records newly appended.
    pub appended: usize,
    /// Records skipped as identical duplicates of stored ones.
    pub duplicates: usize,
    /// Shard-metadata entries newly appended (identical slots dedup).
    pub metas_added: usize,
}

/// Per-order outcome of
/// [`ClassificationAtlas::declare_sharded_coverage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCoverage {
    /// Coverage was declared now, with the topology count.
    Declared(u64),
    /// A coverage frame already existed (warm store), with its count.
    AlreadyDeclared(u64),
    /// No partition group is complete yet: the best group has `have`
    /// of `want` shards.
    Incomplete {
        /// Shard slots present in the fullest partition group.
        have: usize,
        /// Shard count that group needs.
        want: usize,
    },
    /// A partition group is complete but its summed emissions disagree
    /// with the stored record population of the order — mixed
    /// provenance; coverage stays undeclared (the cache re-classifies).
    CountMismatch {
        /// Sum of the group's per-shard emission counts.
        emitted: u64,
        /// Stored records of this order.
        stored: u64,
    },
}

/// A [`ClassificationAtlas`] opened through the torn-tail-tolerant
/// path ([`ClassificationAtlas::open_recovering`]), paired with the
/// report of what recovery did.
#[derive(Debug)]
pub struct RecoveredAtlas {
    /// The opened (possibly tail-truncated) store.
    pub atlas: ClassificationAtlas,
    /// What was dropped, if anything.
    pub report: RecoveryReport,
}

/// What [`ClassificationAtlas::open_recovering`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes truncated off the tail (0: the store was already clean).
    pub dropped_bytes: u64,
    /// File length after recovery — the last clean frame boundary (at
    /// least 12, the header).
    pub recovered_len: u64,
    /// Diagnosis of the torn tail, when bytes were dropped.
    pub torn: Option<String>,
}

impl RecoveryReport {
    /// Whether recovery found a tear — an empty file opened without
    /// creation is torn inside its header with 0 bytes to drop.
    pub fn was_torn(&self) -> bool {
        self.torn.is_some()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.torn {
            None => write!(f, "store clean ({} bytes)", self.recovered_len),
            Some(reason) => write!(
                f,
                "recovered: dropped {} torn tail byte(s) at offset {} ({reason})",
                self.dropped_bytes, self.recovered_len
            ),
        }
    }
}

/// Stamps a fresh current-version header into `path`, durably.
fn stamp_header(path: &Path) -> Result<(), AtlasError> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    f.write_all(&ATLAS_MAGIC)?;
    f.write_all(&ATLAS_VERSION.to_le_bytes())?;
    f.sync_all()?;
    Ok(())
}

/// Where a record lives: its frame's byte offset and its ordinal within
/// the frame, packed into one word (`offset << 16 | ordinal`; store
/// offsets stay far below 2^48) so the location table spends 8 bytes
/// per record. Orders like `(offset, ordinal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Loc(u64);

impl Loc {
    pub(crate) fn new(offset: u64, ordinal: usize) -> Loc {
        Loc(offset << 16 | ordinal as u64)
    }

    pub(crate) fn offset(self) -> u64 {
        self.0 >> 16
    }

    pub(crate) fn ordinal(self) -> u16 {
        self.0 as u16
    }
}

/// One decoded frame, as the walker hands it out.
pub(crate) enum Frame {
    /// A record frame's records: a v4 block, or one v3 row.
    Records(Vec<WindowRecord>),
    /// A coverage declaration.
    Coverage { order: u16, count: u64 },
    /// One shard's metadata.
    Shard(ShardMeta),
}

/// Where a [`walk`] stopped.
#[derive(Debug)]
pub(crate) struct WalkEnd {
    /// The header's format version (0 when the header itself is torn).
    pub(crate) version: u32,
    /// One past the last fully decoded frame (0 when the tear is inside
    /// the 12-byte header).
    pub(crate) clean_len: u64,
    /// `Some(diagnosis)` when the file ends mid-frame — recoverable by
    /// truncating to `clean_len`; `None` when it ends exactly on a
    /// frame boundary. Only [`ClassificationAtlas::open_recovering`]
    /// reads it; every other reader ends through [`WalkEnd::strict`].
    torn: Option<String>,
}

impl WalkEnd {
    /// The one rule for how a strict reader's walk ends (open, merge,
    /// warm replay, index build, compaction): on a frame boundary it
    /// passes; a tear inside the 12-byte header is
    /// [`AtlasError::BadMagic`], as nothing there is an atlas yet; a
    /// torn tail is [`AtlasError::Corrupt`] at the clean length, naming
    /// the way to recover it.
    pub(crate) fn strict(self) -> Result<WalkEnd, AtlasError> {
        match self.torn {
            None => Ok(self),
            Some(_) if self.clean_len < 12 => Err(AtlasError::BadMagic),
            Some(reason) => Err(AtlasError::Corrupt {
                offset: self.clean_len,
                reason: format!(
                    "{reason} — torn tail; recover the store first (`--resume`, \
                     `shard_merge --recover`, or `ClassificationAtlas::open_recovering`)"
                ),
            }),
        }
    }
}

/// The frame walker every reader of a whole store goes through (open,
/// recovery, merge, replay, index build, compaction): checks the header
/// — v4, or v3 where `accept_v3` (compaction input only) — caps each
/// frame length, decodes each frame and hands it to `visit` with its
/// byte offset and raw payload.
///
/// Torn vs corrupt: the file ending *mid-frame* (a partial length field
/// or a short payload) is a tear — the producing process died
/// mid-append — reported in [`WalkEnd::torn`]; a fully present frame
/// that fails to decode, or a length field over the version's cap, is
/// mid-store corruption and errors here. A payload buffer grows only as
/// bytes arrive, so a length field never allocates more than the file
/// holds.
pub(crate) fn walk(
    r: impl Read,
    accept_v3: bool,
    mut visit: impl FnMut(u64, &[u8], Frame) -> Result<(), AtlasError>,
) -> Result<WalkEnd, AtlasError> {
    let mut r = BufReader::new(r);
    let mut header = [0u8; 12];
    let got = read_full(&mut r, &mut header)?;
    if got < 12 {
        // A truncated header prefix that could still become a valid
        // one (magic prefix, then a readable version byte and zero
        // padding): torn at creation.
        let magic_ok = header[..got.min(8)] == ATLAS_MAGIC[..got.min(8)];
        let version_ok = got <= 8
            || (readable(u32::from(header[8]), accept_v3)
                && header[9..got].iter().all(|&b| b == 0));
        if !(magic_ok && version_ok) {
            return Err(AtlasError::BadMagic);
        }
        return Ok(WalkEnd {
            version: 0,
            clean_len: 0,
            torn: Some(format!("file ends {got} bytes into the 12-byte header")),
        });
    }
    let version = check_header(&header, accept_v3)?;
    let cap = max_frame_len(version);
    let mut end = WalkEnd {
        version,
        clean_len: 12,
        torn: None,
    };
    let mut payload = Vec::new();
    loop {
        let offset = end.clean_len;
        let mut len_buf = [0u8; 4];
        let got = read_full(&mut r, &mut len_buf)?;
        if got == 0 {
            break; // clean frame boundary
        }
        if got < 4 {
            end.torn = Some(format!(
                "file ends {got} bytes into a frame length field at byte {offset}"
            ));
            break;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > cap {
            return Err(corrupt_at(offset)(format!(
                "frame length {len} outside 1..={cap} (the v{version} cap)"
            )));
        }
        let got = read_payload(&mut r, len as usize, &mut payload)?;
        if got < len as usize {
            end.torn = Some(format!(
                "frame of {len} bytes truncated ({got} present) at byte {offset}"
            ));
            break;
        }
        let frame = decode_frame(&payload, version).map_err(corrupt_at(offset))?;
        visit(offset, &payload, frame)?;
        end.clean_len += 4 + u64::from(len);
    }
    Ok(end)
}

/// Whether this build reads stores of `version`.
fn readable(version: u32, accept_v3: bool) -> bool {
    version == ATLAS_VERSION || (accept_v3 && version == V3)
}

/// Checks a full 12-byte store header and returns its version.
pub(crate) fn check_header(header: &[u8; 12], accept_v3: bool) -> Result<u32, AtlasError> {
    if header[..8] != ATLAS_MAGIC {
        return Err(AtlasError::BadMagic);
    }
    let found = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if !readable(found, accept_v3) {
        return Err(AtlasError::VersionMismatch { found });
    }
    Ok(found)
}

/// A `String` diagnosis → [`AtlasError::Corrupt`] at `offset`.
pub(crate) fn corrupt_at(offset: u64) -> impl Fn(String) -> AtlasError {
    move |reason| AtlasError::Corrupt { offset, reason }
}

/// Reads `buf.len()` bytes unless EOF comes first; returns how many
/// arrived — what tells a clean frame boundary (0 bytes of the next
/// length field) from a torn tail (a partial length field).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads up to `len` payload bytes into `buf`, growing it 64 KiB at a
/// time as bytes arrive; returns how many arrived.
fn read_payload(r: &mut impl Read, len: usize, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    buf.clear();
    while buf.len() < len {
        let at = buf.len();
        let step = (len - at).min(1 << 16);
        buf.resize(at + step, 0);
        let got = read_full(r, &mut buf[at..])?;
        buf.truncate(at + got);
        if got < step {
            break;
        }
    }
    Ok(buf.len())
}

/// Decodes one frame (tag byte + body) of a store of `version`. Block
/// frames are v4-only and row frames v3-only: a tag from the other
/// version is corruption, never guessed at.
fn decode_frame(payload: &[u8], version: u32) -> Result<Frame, String> {
    let (&tag, body) = payload.split_first().ok_or("empty frame")?;
    match tag {
        FRAME_RECORD_BLOCK if version == V3 => {
            Err("columnar block frame (tag 4) in a v3 store".into())
        }
        FRAME_RECORD_BLOCK => Ok(Frame::Records(decode_block(body)?)),
        FRAME_RECORD if version == V3 => {
            Ok(Frame::Records(vec![crate::compact::decode_row(body)?]))
        }
        FRAME_RECORD => Err("row frame (tag 1) in a v4 store".into()),
        FRAME_COVERAGE => match body {
            [o0, o1, count @ ..] if count.len() == 8 => Ok(Frame::Coverage {
                order: u16::from_le_bytes([*o0, *o1]),
                count: u64::from_le_bytes(count.try_into().expect("8 bytes")),
            }),
            _ => Err("coverage frame is not 11 bytes".into()),
        },
        FRAME_SHARD_META => Ok(Frame::Shard(decode_shard_meta(body)?)),
        t => Err(format!("unknown frame tag {t}")),
    }
}

/// Reads the frame at store byte `offset` (tag + body) by positioned
/// read from a store of `store_len` bytes. The length field is checked
/// against the cap and the store length before the buffer grows, so a
/// bad location never allocates what the store does not hold.
fn read_frame_at(
    file: &File,
    store_len: u64,
    version: u32,
    offset: u64,
    buf: &mut Vec<u8>,
) -> Result<(), AtlasError> {
    let mut len_buf = [0u8; 4];
    file.read_exact_at(&mut len_buf, offset)
        .map_err(|_| corrupt_at(offset)("store ends inside a located frame".into()))?;
    let len = u32::from_le_bytes(len_buf);
    let cap = max_frame_len(version);
    if len == 0 || len > cap || offset + 4 + u64::from(len) > store_len {
        return Err(corrupt_at(offset)(format!(
            "located frame length {len} outside 1..={cap} or past the {store_len}-byte store"
        )));
    }
    buf.resize(len as usize, 0);
    file.read_exact_at(buf, offset + 4)?;
    Ok(())
}

/// The record at `loc` of a v4 store of `store_len` bytes: one
/// positioned block read and one validating block walk that
/// materializes only that record.
pub(crate) fn read_block_record(
    file: &File,
    store_len: u64,
    loc: Loc,
    buf: &mut Vec<u8>,
) -> Result<WindowRecord, AtlasError> {
    let corrupt = corrupt_at(loc.offset());
    read_frame_at(file, store_len, ATLAS_VERSION, loc.offset(), buf)?;
    match buf[0] {
        FRAME_RECORD_BLOCK => {
            decode_block_record(&buf[1..], usize::from(loc.ordinal())).map_err(corrupt)
        }
        t => Err(corrupt(format!(
            "location points at frame tag {t}, not a record block"
        ))),
    }
}

/// The engine-order reader: the records at a list of locations, taken
/// in the list's order, each frame decoded at most once. A decoded
/// frame stays resident only until its last listed record is taken,
/// and records are moved out, never cloned — so an engine-ordered
/// store keeps one block resident, and a store whose ranges were
/// committed in completion order about one block per sorted run.
pub(crate) struct OrderedReader<'f> {
    file: &'f File,
    store_len: u64,
    version: u32,
    /// Listed records not yet taken, per frame offset.
    pending: HashMap<u64, u32>,
    /// Decoded frames with records still to take.
    resident: HashMap<u64, Vec<Option<WindowRecord>>>,
    buf: Vec<u8>,
}

impl<'f> OrderedReader<'f> {
    /// A reader over the `store_len`-byte store of `version` in `file`,
    /// with nothing listed yet.
    pub(crate) fn new(file: &'f File, store_len: u64, version: u32) -> Self {
        OrderedReader {
            file,
            store_len,
            version,
            pending: HashMap::new(),
            resident: HashMap::new(),
            buf: Vec::new(),
        }
    }

    /// Lists `loc` as a location [`OrderedReader::take`] will be asked
    /// for. List every location before taking any.
    pub(crate) fn list(&mut self, loc: Loc) {
        *self.pending.entry(loc.offset()).or_insert(0) += 1;
    }

    /// The record at `loc` — one of the listed locations, each taken
    /// once.
    pub(crate) fn take(&mut self, loc: Loc) -> Result<WindowRecord, AtlasError> {
        let offset = loc.offset();
        let corrupt = corrupt_at(offset);
        let Some(left) = self.pending.get_mut(&offset).filter(|n| **n > 0) else {
            return Err(corrupt("location was not listed".into()));
        };
        *left -= 1;
        let last = *left == 0;
        if !self.resident.contains_key(&offset) {
            read_frame_at(
                self.file,
                self.store_len,
                self.version,
                offset,
                &mut self.buf,
            )?;
            let Frame::Records(records) =
                decode_frame(&self.buf, self.version).map_err(&corrupt)?
            else {
                return Err(corrupt("location points at a frame without records".into()));
            };
            self.resident
                .insert(offset, records.into_iter().map(Some).collect());
        }
        let records = self.resident.get_mut(&offset);
        let taken = records.and_then(|r| r.get_mut(usize::from(loc.ordinal()))?.take());
        if last {
            self.pending.remove(&offset);
            self.resident.remove(&offset);
        }
        taken.ok_or_else(|| {
            corrupt(format!(
                "ordinal {} is past its frame or listed twice",
                loc.ordinal()
            ))
        })
    }
}

/// A record's place in global engine order, `(order, edges, sort
/// word)`: the word is the leading word of the packed canonical
/// adjacency ([`Graph::packed_self_key`]), read straight from the key's
/// graph6 bytes by [`Graph::graph6_prefix_word`] — no graph is built,
/// no canonical search runs, and the word is exact for every
/// enumerable order (n ≤ 11: the packed triangle fits the word), so
/// equal keys mean one canonical graph.
pub(crate) fn engine_key(rec: &WindowRecord) -> Result<(u16, u64, u64), String> {
    let order = u16::try_from(rec.order).map_err(|_| format!("order {} exceeds u16", rec.order))?;
    let word = Graph::graph6_prefix_word(&rec.key)
        .map_err(|e| format!("undecodable key {:?}: {e:?}", rec.key))?;
    Ok((order, rec.edges, word))
}

/// Sorts `(engine key, place)` rows into engine order and collapses
/// identical keys to their last place — a store may hold idempotent
/// re-appends, and the newest copy wins in every reader. A place is a
/// store location or a walk-order index: either grows with file
/// position.
pub(crate) fn engine_order<T: Ord + Copy>(rows: &mut Vec<((u16, u64, u64), T)>) {
    rows.sort_unstable();
    rows.dedup_by(|next, prev| {
        // dedup_by drops `next` on true; rows are place-ordered within
        // a key, so keep the later place in the survivor.
        let same = next.0 == prev.0;
        if same {
            prev.1 = next.1;
        }
        same
    });
}

/// Reorders `items` so that `items[k]` is the item first at index
/// `rows[k].1`, then drops the items no row names. The indices must be
/// distinct. In place, the way `slice::sort_by_cached_key` applies its
/// sorted indices: an index below `k` names an item already swapped
/// away, and the index stored at its own step says where it went.
fn gather<K, T>(items: &mut Vec<T>, rows: &mut [(K, usize)]) {
    for k in 0..rows.len() {
        let mut at = rows[k].1;
        while at < k {
            at = rows[at].1;
        }
        rows[k].1 = at;
        items.swap(k, at);
    }
    items.truncate(rows.len());
}

/// Writes the pending `block` (if non-empty) as one columnar block
/// frame and clears it; returns the bytes written.
pub(crate) fn write_block_frame(
    w: &mut impl Write,
    payload: &mut Vec<u8>,
    block: &mut Vec<&WindowRecord>,
) -> std::io::Result<u64> {
    if block.is_empty() {
        return Ok(0);
    }
    payload.clear();
    payload.push(FRAME_RECORD_BLOCK);
    encode_block(block, payload);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    block.clear();
    Ok(4 + payload.len() as u64)
}

/// A cursor over one frame payload; every getter errors (with a string
/// diagnosis) instead of panicking so corrupt files surface as
/// [`AtlasError::Corrupt`].
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload ends {n} bytes short"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn i64(&mut self) -> Result<i64, String> {
        self.array().map(i64::from_le_bytes)
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold};
    use bnf_games::Ratio;
    use bnf_stream::PruneCounters;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique throwaway path under the system temp dir (no tempfile
    /// crate offline; unique per process × counter).
    fn scratch_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-atlas-test-{}-{k}-{tag}.bnfatlas",
            std::process::id()
        ))
    }

    fn sample_records() -> Vec<WindowRecord> {
        vec![
            WindowRecord {
                key: "D?{".into(),
                order: 5,
                edges: 4,
                total_distance: 32,
                stability: Some(StabilityWindow {
                    lower: LowerBound {
                        value: Ratio::new(1, 2),
                        inclusive: false,
                    },
                    upper: Threshold::Infinite,
                }),
                transfer: Some(ClosedInterval {
                    lo: Ratio::new(3, 4),
                    hi: Threshold::Finite(Ratio::from(9)),
                }),
                ucg_support: vec![
                    ClosedInterval {
                        lo: Ratio::ONE,
                        hi: Threshold::Finite(Ratio::from(2)),
                    },
                    ClosedInterval {
                        lo: Ratio::from(5),
                        hi: Threshold::Infinite,
                    },
                ],
            },
            WindowRecord {
                key: "DQw".into(),
                order: 5,
                edges: 5,
                total_distance: 30,
                stability: None,
                transfer: None,
                ucg_support: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trips_through_reopen() {
        let path = scratch_path("roundtrip");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            assert!(atlas.is_empty());
            assert_eq!(atlas.append_records(&records).unwrap(), 2);
            // Idempotent: same records append nothing.
            assert_eq!(atlas.append_records(&records).unwrap(), 0);
            assert_eq!(atlas.len(), 2);
        }
        let reopened = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        for rec in &records {
            assert_eq!(reopened.get(&rec.key).unwrap().as_ref(), Some(rec));
        }
        assert_eq!(reopened.get("Bw").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_accumulates_across_sessions() {
        let path = scratch_path("accumulate");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records[..1]).unwrap();
        }
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            assert_eq!(atlas.len(), 1);
            assert_eq!(atlas.append_records(&records).unwrap(), 1);
        }
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.len(), 2);
        for rec in &records {
            assert_eq!(atlas.get(&rec.key).unwrap().as_ref(), Some(rec));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let path = scratch_path("badmagic");
        std::fs::write(&path, b"NOTANATLASFILE").unwrap();
        assert!(matches!(
            ClassificationAtlas::open(&path),
            Err(AtlasError::BadMagic)
        ));
        // Too short for even the magic: also BadMagic, not a panic.
        std::fs::write(&path, b"BNF").unwrap();
        assert!(matches!(
            ClassificationAtlas::open(&path),
            Err(AtlasError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = scratch_path("version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ATLAS_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match ClassificationAtlas::open(&path) {
            Err(AtlasError::VersionMismatch { found: 99 }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_record_is_corrupt() {
        let path = scratch_path("truncated");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&sample_records()).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match ClassificationAtlas::open(&path) {
            Err(AtlasError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_payload_is_corrupt_with_offset() {
        let path = scratch_path("malformed");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ATLAS_MAGIC);
        bytes.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
        // A block frame of 7 bytes claiming 400 records.
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.push(FRAME_RECORD_BLOCK);
        bytes.extend_from_slice(&400u16.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();
        match ClassificationAtlas::open(&path) {
            Err(AtlasError::Corrupt { offset: 12, .. }) => {}
            other => panic!("expected Corrupt at offset 12, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_recovering_on_clean_store_is_lossless() {
        let path = scratch_path("recover-clean");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records).unwrap();
            atlas.mark_complete(5, records.len()).unwrap();
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        let recovered = ClassificationAtlas::open_recovering(&path).unwrap();
        assert!(!recovered.report.was_torn());
        assert_eq!(recovered.report.dropped_bytes, 0);
        assert_eq!(recovered.report.recovered_len, len_before);
        assert_eq!(recovered.atlas.len(), 2);
        assert_eq!(recovered.atlas.coverage(5), Some(2));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert!(recovered.report.to_string().contains("clean"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_recovering_truncates_torn_tail_and_reports() {
        let path = scratch_path("recover-torn");
        let records = sample_records();
        let boundary;
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records[..1]).unwrap();
            boundary = std::fs::metadata(&path).unwrap().len();
            atlas.append_records(&records[1..]).unwrap();
        }
        // Tear the second record frame: keep its length field plus two
        // payload bytes. The strict open refuses; recovery keeps the
        // clean prefix and truncates the tail off the file.
        let bytes = std::fs::read(&path).unwrap();
        let torn_len = boundary + 6;
        std::fs::write(&path, &bytes[..torn_len as usize]).unwrap();
        assert!(matches!(
            ClassificationAtlas::open(&path),
            Err(AtlasError::Corrupt { .. })
        ));
        let recovered = ClassificationAtlas::open_recovering(&path).unwrap();
        assert!(recovered.report.was_torn());
        assert_eq!(recovered.report.dropped_bytes, 6);
        assert_eq!(recovered.report.recovered_len, boundary);
        assert_eq!(recovered.atlas.len(), 1);
        assert_eq!(
            recovered.atlas.get(&records[0].key).unwrap().as_ref(),
            Some(&records[0])
        );
        assert!(recovered.report.to_string().contains("dropped 6"));
        // The file is clean again: the strict open succeeds and the
        // store is appendable from where recovery left it.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary);
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.append_records(&records).unwrap(), 1);
        assert_eq!(ClassificationAtlas::open(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_recovering_restamps_torn_header() {
        let path = scratch_path("recover-header");
        ClassificationAtlas::open(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..5]).unwrap();
        assert!(matches!(
            ClassificationAtlas::open(&path),
            Err(AtlasError::BadMagic)
        ));
        let recovered = ClassificationAtlas::open_recovering(&path).unwrap();
        assert_eq!(recovered.report.dropped_bytes, 5);
        assert_eq!(recovered.report.recovered_len, 12);
        assert!(recovered.atlas.is_empty());
        assert!(ClassificationAtlas::open(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_frame_length_is_corrupt_not_a_tear() {
        // A legitimate multi-megabyte block frame stays under the cap;
        // one byte past it is corruption.
        let path = scratch_path("recover-hugelen");
        let cap = MAX_BLOCK_FRAME_LEN;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ATLAS_MAGIC);
        bytes.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(cap + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        // Both paths refuse: a corrupted length field must not be
        // "recovered" by swallowing the rest of the file as a tear —
        // and the diagnosis names the offending length and the cap.
        match ClassificationAtlas::open(&path) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(
                    reason.contains(&(cap + 1).to_string()) && reason.contains(&cap.to_string()),
                    "diagnosis omits the offending length or the cap: {reason}"
                );
            }
            other => panic!("expected Corrupt at offset 12, got {other:?}"),
        }
        assert!(matches!(
            ClassificationAtlas::open_recovering(&path),
            Err(AtlasError::Corrupt { offset: 12, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_frame_cap_admits_what_a_v4_block_needs() {
        // A v4 block frame can legally exceed the v3 cap; the v3 cap
        // still applies to v3 stores.
        assert_eq!(max_frame_len(3), MAX_FRAME_LEN);
        assert_eq!(max_frame_len(4), MAX_BLOCK_FRAME_LEN);
        assert!(max_frame_len(4) > max_frame_len(3));
    }

    /// The committed v3 fixture: the n = 6 catalogue with its coverage
    /// frame, written by the last build that still wrote v3.
    const V3_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v3-n6.bnfatlas");

    #[test]
    fn v3_stores_are_refused_naming_atlas_compact() {
        let path = scratch_path("v3-refused");
        std::fs::write(&path, V3_FIXTURE).unwrap();
        for result in [
            ClassificationAtlas::open(&path).map(|_| ()),
            ClassificationAtlas::open_recovering(&path).map(|_| ()),
        ] {
            match result {
                Err(e @ AtlasError::VersionMismatch { found: 3 }) => {
                    assert!(e.to_string().contains("atlas_compact"), "{e}");
                }
                other => panic!("expected VersionMismatch {{ found: 3 }}, got {other:?}"),
            }
        }
        // Refusal leaves the store as it was: compaction can still read it.
        assert_eq!(std::fs::read(&path).unwrap(), V3_FIXTURE);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v4_appends_pack_block_frames() {
        let path = scratch_path("v4-blocks");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records).unwrap();
        }
        // One batch, fewer than BLOCK_RECORDS records: exactly one
        // block frame after the header.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[8..12], &ATLAS_VERSION.to_le_bytes());
        assert_eq!(bytes[16], FRAME_RECORD_BLOCK);
        let frame_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 12 + 4 + frame_len, "exactly one frame");
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.len(), records.len());
        for rec in &records {
            assert_eq!(atlas.get(&rec.key).unwrap().as_ref(), Some(rec));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_frame_in_a_v3_store_is_corrupt() {
        let path = scratch_path("v3-blocktag");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records).unwrap();
        }
        // Rewrite the header to claim v3: `open` refuses the version,
        // and compaction — the one v3 reader — finds the block tag
        // corrupt (a v3 reader the block writer predates never guesses).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ClassificationAtlas::open(&path),
            Err(AtlasError::VersionMismatch { found: 3 })
        ));
        match crate::compact_store(&path, &path) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains("tag 4"), "unexpected diagnosis: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coverage_round_trips_and_replays_in_engine_order() {
        let path = scratch_path("coverage");
        // Classify the real n=4 connected catalogue (6 topologies) so
        // the replay order is checkable against a fresh classification.
        let mut scratch = bnf_graph::BfsScratch::new();
        let records: Vec<WindowRecord> = bnf_graph_enumeration_n4()
            .iter()
            .map(|g| WindowRecord::classify(g, &mut scratch))
            .collect();
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records(&records).unwrap();
            assert_eq!(atlas.coverage(4), None);
            assert_eq!(atlas.complete_sweep(4), None, "no coverage declared yet");
            atlas.mark_complete(4, records.len()).unwrap();
            atlas.mark_complete(4, records.len()).unwrap(); // idempotent
            assert!(matches!(
                atlas.mark_complete(4, records.len() + 1),
                Err(AtlasError::CoverageConflict { order: 4 })
            ));
        }
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.coverage(4), Some(records.len() as u64));
        assert_eq!(atlas.coverage(5), None);
        let replayed = atlas.complete_sweep(4).expect("coverage declared");
        // Engine order: non-decreasing edge count, same record set.
        assert_eq!(replayed.len(), records.len());
        assert!(replayed.windows(2).all(|w| w[0].edges <= w[1].edges));
        let mut by_key: Vec<&str> = replayed.iter().map(|r| r.key.as_str()).collect();
        by_key.sort_unstable();
        let mut expect: Vec<&str> = records.iter().map(|r| r.key.as_str()).collect();
        expect.sort_unstable();
        assert_eq!(by_key, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_keys_fail_replay_index_and_compaction() {
        // "H" is an order-9 graph6 header with no payload: a CRC-valid
        // block holds it, but it has no engine sort word.
        let path = scratch_path("undecodable");
        let bad = WindowRecord {
            key: "H".into(),
            order: 9,
            ..sample_records()[0].clone()
        };
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&bad]).unwrap();
            atlas.mark_complete(9, 1).unwrap();
        }
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.get("H").unwrap(), Some(bad));
        assert_eq!(atlas.coverage(9), Some(1));
        assert_eq!(atlas.complete_sweep(9), None);
        match crate::build_index(&path) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains("undecodable key"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let dst = scratch_path("undecodable-compacted");
        match crate::compact_store(&path, &dst) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains("undecodable key"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!dst.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gather_applies_a_sorted_selection_in_place() {
        // Seeded selections of distinct indices, as engine_order leaves
        // them after dropping older duplicates, against a copying gather.
        let mut state = 0x6A7Eu64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for len in [0usize, 1, 2, 7, 64, 300] {
            for _ in 0..20 {
                let items: Vec<String> = (0..len).map(|i| format!("item {i}")).collect();
                let mut picked: Vec<usize> = (0..len).filter(|_| next(4) != 0).collect();
                for i in (1..picked.len()).rev() {
                    picked.swap(i, next(i + 1));
                }
                let expect: Vec<String> = picked.iter().map(|&i| items[i].clone()).collect();
                let mut rows: Vec<((), usize)> = picked.iter().map(|&i| ((), i)).collect();
                let mut got = items;
                gather(&mut got, &mut rows);
                assert_eq!(got, expect, "len {len}, picked {picked:?}");
            }
        }
    }

    /// The six connected graphs on 4 vertices, hand-listed (the atlas
    /// crate does not depend on bnf-enumerate).
    fn bnf_graph_enumeration_n4() -> Vec<Graph> {
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

    #[test]
    fn key_conflicts_are_rejected() {
        let path = scratch_path("conflict");
        let records = sample_records();
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        atlas.append_records(&records).unwrap();
        let mut altered = records[0].clone();
        altered.edges += 1;
        match atlas.append_records([&altered]) {
            Err(AtlasError::KeyConflict { key }) => assert_eq!(key, records[0].key),
            other => panic!("expected KeyConflict, got {other:?}"),
        }
        // Nothing was written: the stored record is unchanged.
        assert_eq!(
            atlas.get(&records[0].key).unwrap().as_ref(),
            Some(&records[0])
        );
        // A conflicting duplicate *within one batch* is also rejected,
        // never silently dropped (identical duplicates are skipped).
        let mut third = records[0].clone();
        third.key = "Dhc".into();
        let mut third_conflict = third.clone();
        third_conflict.total_distance += 1;
        match atlas.append_records([&third, &third, &third_conflict]) {
            Err(AtlasError::KeyConflict { key }) => assert_eq!(key, "Dhc"),
            other => panic!("expected intra-batch KeyConflict, got {other:?}"),
        }
        // The first copy made it in and survives a reopen.
        drop(atlas);
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.get("Dhc").unwrap().as_ref(), Some(&third));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render() {
        assert!(AtlasError::BadMagic.to_string().contains("magic"));
        assert!(AtlasError::VersionMismatch { found: 3 }
            .to_string()
            .contains("atlas_compact"));
        assert!(AtlasError::VersionMismatch { found: 9 }
            .to_string()
            .contains('9'));
        assert!(AtlasError::KeyConflict { key: "Bw".into() }
            .to_string()
            .contains("Bw"));
        assert!(AtlasError::ShardConflict {
            order: 8,
            reason: "slot 1/4".into()
        }
        .to_string()
        .contains("slot 1/4"));
    }

    /// A shard meta for order 5 over a 2-parent "frontier" of 6.
    fn sample_meta(index: u32, count: u32) -> ShardMeta {
        let frontier_len = 6u64;
        let lo = frontier_len * u64::from(index) / u64::from(count);
        let hi = frontier_len * u64::from(index + 1) / u64::from(count);
        ShardMeta {
            order: 5,
            shard_index: index,
            shard_count: count,
            frontier_len,
            parent_lo: lo,
            parent_hi: hi,
            emitted: 1,
            elapsed_ms: 17 + u64::from(index),
            peak_rss_kb: Some(2048 + u64::from(index) * 1024),
            orchestrator_run: None,
            frontier_prune: PruneCounters {
                candidates: 10,
                orbit_skipped: 2,
                cheap_rejected: 3,
                search_rejected: 1,
                duplicates: 0,
            },
            final_prune: PruneCounters {
                candidates: 5 + u64::from(index),
                cheap_rejected: 4,
                ..PruneCounters::default()
            },
        }
    }

    #[test]
    fn shard_meta_round_trips_through_reopen() {
        let path = scratch_path("shardmeta");
        let metas = [sample_meta(0, 2), sample_meta(1, 2)];
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            assert!(atlas.append_shard_meta(&metas[0]).unwrap());
            assert!(atlas.append_shard_meta(&metas[1]).unwrap());
            // Same slot, same range/count (different timing): dedup.
            let mut rerun = metas[0].clone();
            rerun.elapsed_ms = 9999;
            rerun.peak_rss_kb = None;
            assert!(!atlas.append_shard_meta(&rerun).unwrap());
            // Same slot, different emission count: typed conflict.
            let mut bad = metas[0].clone();
            bad.emitted += 1;
            assert!(matches!(
                atlas.append_shard_meta(&bad),
                Err(AtlasError::ShardConflict { order: 5, .. })
            ));
        }
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.shard_metas(), &metas);
        assert_eq!(
            ShardMeta::rss_summary(atlas.shard_metas()),
            Some((3072, 5120))
        );
        let [p] = &ShardMeta::partitions(atlas.shard_metas())[..] else {
            panic!("one partition expected");
        };
        assert_eq!((p.done.as_slice(), p.emitted), (&[0, 1][..], 2));
        let mut total = p.frontier_prune.unwrap();
        total.merge(&p.final_prune);
        // Frontier share once, final shares summed: 10 + 5 + 6.
        assert_eq!(total.candidates, 21);
        assert_eq!(total.cheap_rejected, 11);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_counters_and_rss_handle_edge_sets() {
        assert_eq!(ShardMeta::partitions(&[]), vec![]);
        // Mixed partitions fold apart, sorted by range count; a repeated
        // slot counts once.
        let parts =
            ShardMeta::partitions(&[sample_meta(0, 3), sample_meta(0, 2), sample_meta(0, 2)]);
        let cut: Vec<(u32, &[usize], u64)> = parts
            .iter()
            .map(|p| (p.shard_count, p.done.as_slice(), p.emitted))
            .collect();
        assert_eq!(cut, vec![(2, &[0][..], 1), (3, &[0][..], 1)]);
        // Ranges that disagree on the frontier share have no total.
        let mut other_build = sample_meta(1, 2);
        other_build.frontier_prune.candidates += 1;
        let parts = ShardMeta::partitions(&[sample_meta(0, 2), other_build]);
        assert_eq!(parts[0].frontier_prune, None);
        let mut no_rss = sample_meta(0, 1);
        no_rss.peak_rss_kb = None;
        assert_eq!(ShardMeta::rss_summary(&[no_rss]), None);
    }

    #[test]
    fn orchestrated_ranges_count_one_process_in_rss_summary() {
        let path = scratch_path("orchmeta");
        // Two in-process ranges of one orchestrator run plus one
        // standalone shard process.
        let mut a = sample_meta(0, 3);
        a.orchestrator_run = Some(42);
        a.peak_rss_kb = Some(4096);
        let mut b = sample_meta(1, 3);
        b.orchestrator_run = Some(42);
        b.peak_rss_kb = Some(5120);
        let mut c = sample_meta(2, 3);
        c.peak_rss_kb = Some(1024);
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            for m in [&a, &b, &c] {
                assert!(atlas.append_shard_meta(m).unwrap());
            }
        }
        let atlas = ClassificationAtlas::open(&path).unwrap();
        // The run tag round-trips through the shard-metadata frame.
        assert_eq!(atlas.shard_metas(), &[a, b, c]);
        // The run contributes max(4096, 5120) once; the standalone
        // process adds its own 1024 — never 4096 + 5120 + 1024.
        assert_eq!(
            ShardMeta::rss_summary(atlas.shard_metas()),
            Some((5120, 6144))
        );
        assert_eq!(ShardMeta::process_count(atlas.shard_metas()), 2);
        // The orchestrator stamps an identical frontier share per range,
        // so the counter fold is unaffected by the run tag, which the
        // fold lists once per run.
        let parts = ShardMeta::partitions(atlas.shard_metas());
        assert!(parts[0].frontier_prune.is_some());
        assert_eq!(parts[0].runs, [None, Some(42)].into_iter().collect());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_from_conflict_matrix() {
        // Two segments sharing a key with identical records dedup
        // cleanly; divergent records are a hard typed error; identical
        // coverage frames dedup; divergent coverage counts are a hard
        // typed error — never last-write-wins.
        let records = sample_records();
        let path_a = scratch_path("merge-a");
        let path_b = scratch_path("merge-b");
        let path_out = scratch_path("merge-out");

        let mut seg_a = ClassificationAtlas::open(&path_a).unwrap();
        seg_a.append_records(&records).unwrap();
        seg_a.mark_complete(5, 21).unwrap();
        // Overlapping segment: one shared identical record, one fresh.
        let mut fresh = records[1].clone();
        fresh.key = "Dhc".into();
        let mut seg_b = ClassificationAtlas::open(&path_b).unwrap();
        seg_b.append_records([&records[0], &fresh]).unwrap();
        seg_b.mark_complete(5, 21).unwrap();

        let mut out = ClassificationAtlas::open(&path_out).unwrap();
        let a = out.merge_from(&seg_a).unwrap();
        assert_eq!((a.appended, a.duplicates), (2, 0));
        let b = out.merge_from(&seg_b).unwrap();
        assert_eq!((b.appended, b.duplicates), (1, 1));
        assert_eq!(out.len(), 3);
        assert_eq!(out.coverage(5), Some(21));
        // Identical re-merge is a no-op.
        let again = out.merge_from(&seg_b).unwrap();
        assert_eq!((again.appended, again.duplicates), (0, 2));

        // Divergent record for a shared key: hard error, stored record
        // untouched.
        let path_c = scratch_path("merge-c");
        let mut divergent = records[0].clone();
        divergent.total_distance += 1;
        let mut seg_c = ClassificationAtlas::open(&path_c).unwrap();
        seg_c.append_records([&divergent]).unwrap();
        match out.merge_from(&seg_c) {
            Err(AtlasError::KeyConflict { key }) => assert_eq!(key, records[0].key),
            other => panic!("expected KeyConflict, got {other:?}"),
        }
        assert_eq!(
            out.get(&records[0].key).unwrap().as_ref(),
            Some(&records[0])
        );

        // Divergent coverage count: hard error.
        let path_d = scratch_path("merge-d");
        let mut seg_d = ClassificationAtlas::open(&path_d).unwrap();
        seg_d.mark_complete(5, 22).unwrap();
        assert!(matches!(
            out.merge_from(&seg_d),
            Err(AtlasError::CoverageConflict { order: 5 })
        ));

        // Divergent shard slot: hard error.
        let path_e = scratch_path("merge-e");
        let mut seg_e = ClassificationAtlas::open(&path_e).unwrap();
        seg_e.append_shard_meta(&sample_meta(0, 2)).unwrap();
        out.append_shard_meta(&{
            let mut m = sample_meta(0, 2);
            m.emitted += 5;
            m
        })
        .unwrap();
        assert!(matches!(
            out.merge_from(&seg_e),
            Err(AtlasError::ShardConflict { order: 5, .. })
        ));

        for p in [&path_a, &path_b, &path_c, &path_d, &path_e, &path_out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sharded_coverage_declares_only_complete_matching_partitions() {
        let path = scratch_path("shard-coverage");
        let records = sample_records(); // two order-5 records
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        atlas.append_records(&records).unwrap();
        // Half a partition: incomplete, nothing declared.
        let mut m0 = sample_meta(0, 2);
        m0.emitted = 1;
        atlas.append_shard_meta(&m0).unwrap();
        assert_eq!(
            atlas.declare_sharded_coverage().unwrap(),
            vec![(5, ShardCoverage::Incomplete { have: 1, want: 2 })]
        );
        assert_eq!(atlas.coverage(5), None);
        // Complete partition whose emissions match the stored records:
        // coverage declared and persisted.
        let mut m1 = sample_meta(1, 2);
        m1.emitted = 1;
        atlas.append_shard_meta(&m1).unwrap();
        assert_eq!(
            atlas.declare_sharded_coverage().unwrap(),
            vec![(5, ShardCoverage::Declared(2))]
        );
        assert_eq!(atlas.coverage(5), Some(2));
        // Idempotent afterwards.
        assert_eq!(
            atlas.declare_sharded_coverage().unwrap(),
            vec![(5, ShardCoverage::AlreadyDeclared(2))]
        );
        drop(atlas);
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.coverage(5), Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_coverage_reports_count_mismatch() {
        let path = scratch_path("shard-mismatch");
        let records = sample_records();
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        atlas.append_records(&records[..1]).unwrap();
        // A "complete" 1-shard partition claiming 2 emissions over a
        // store holding 1 record of that order: not declared.
        let mut m = sample_meta(0, 1);
        m.emitted = 2;
        atlas.append_shard_meta(&m).unwrap();
        assert_eq!(
            atlas.declare_sharded_coverage().unwrap(),
            vec![(
                5,
                ShardCoverage::CountMismatch {
                    emitted: 2,
                    stored: 1
                }
            )]
        );
        assert_eq!(atlas.coverage(5), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distinct_keys_sharing_a_hash_are_both_stored() {
        // Every key hashes alike: each probe must confirm the key it
        // reads, and a new key must never displace a stored one.
        let path = scratch_path("collision");
        let records = sample_records();
        let (mut atlas, _) = ClassificationAtlas::load(&path, |_| 7, true).unwrap();
        assert_eq!(atlas.append_records(&records).unwrap(), 2);
        assert_eq!(atlas.append_records(&records).unwrap(), 0);
        let mut altered = records[1].clone();
        altered.edges += 1;
        assert!(matches!(
            atlas.append_records([&altered]),
            Err(AtlasError::KeyConflict { .. })
        ));
        let check = |atlas: &ClassificationAtlas| {
            assert_eq!(atlas.len(), 2);
            for rec in &records {
                assert_eq!(atlas.get(&rec.key).unwrap().as_ref(), Some(rec));
            }
            assert_eq!(
                atlas.get("Dhc").unwrap(),
                None,
                "an absent key sharing the hash"
            );
        };
        check(&atlas);
        // The open walk files colliding keys the same way.
        check(&ClassificationAtlas::load(&path, |_| 7, true).unwrap().0);
        check(&ClassificationAtlas::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn intra_batch_duplicates_are_written_once() {
        let path = scratch_path("intra-batch");
        let records = sample_records();
        let batch = [&records[0], &records[1], &records[0], &records[1]];
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            assert_eq!(atlas.append_records(batch).unwrap(), 2);
            assert_eq!(atlas.len(), 2);
        }
        // One block frame of two records: nothing was written twice.
        let bytes = std::fs::read(&path).unwrap();
        let frame_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 16 + frame_len);
        assert_eq!(crate::codec::decode_block(&bytes[17..]).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn claimed_lengths_are_never_allocated() {
        // A walk grows its payload buffer only as bytes arrive...
        let mut buf = Vec::new();
        let claimed = MAX_BLOCK_FRAME_LEN as usize;
        assert_eq!(
            read_payload(&mut &[7u8; 10][..], claimed, &mut buf).unwrap(),
            10
        );
        assert!(
            buf.capacity() <= 1 << 16,
            "{} bytes reserved",
            buf.capacity()
        );
        // ...and a located frame must fit in the store before it is read.
        let path = scratch_path("claimed");
        let mut bytes = ATLAS_MAGIC.to_vec();
        bytes.extend_from_slice(&ATLAS_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(MAX_BLOCK_FRAME_LEN - 1).to_le_bytes());
        bytes.extend_from_slice(&[FRAME_RECORD_BLOCK, 1, 0]);
        std::fs::write(&path, &bytes).unwrap();
        let mut buf = Vec::new();
        let file = File::open(&path).unwrap();
        assert!(matches!(
            read_block_record(&file, bytes.len() as u64, Loc::new(12, 0), &mut buf),
            Err(AtlasError::Corrupt { offset: 12, .. })
        ));
        assert_eq!(buf.capacity(), 0);
        std::fs::remove_file(&path).ok();
    }
}
