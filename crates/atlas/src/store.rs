//! The persistent classification atlas: an append-only on-disk store of
//! [`WindowRecord`]s keyed by canonical graph6 string.
//!
//! Classification is a pure function of the canonical key, so records
//! never change — the store only ever grows, and a warm atlas lets every
//! sweep (any α grid, any enumeration path, any follow-up workload on
//! the engine seam) skip the expensive window extraction for keys it
//! has already seen. See `crates/atlas/README.md` for the byte-level
//! format and the invalidation rules.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;
use bnf_graph::Graph;
use bnf_stream::PruneCounters;

/// Leading magic bytes of an atlas file.
pub const ATLAS_MAGIC: [u8; 8] = *b"BNFATLAS";

/// Current format *and semantics* version. Bump whenever the byte layout
/// **or the meaning of a stored record** changes (e.g. a classifier fix
/// that alters windows) — version-mismatched files are rejected, never
/// silently reinterpreted.
///
/// Version 2 added the shard-segment metadata frame (tag 3) for
/// multi-process sweeps; record and coverage frames are unchanged.
///
/// Version 3 extends the shard-metadata frame with the orchestrator-run
/// tag ([`ShardMeta::orchestrator_run`]), distinguishing in-process
/// work-stolen ranges (which share one process, hence one peak-RSS
/// value) from standalone `--shard` processes; record and coverage
/// frames are unchanged.
///
/// Version 4 packs records into **columnar block frames** (tag 4, see
/// [`crate::codec`]): prefix-delta keys, zigzag-varint delta columns,
/// presence-bitmap windows, one CRC + record count per block. Coverage
/// and shard-metadata frames are unchanged, and so are the recovery
/// and `--resume` commit semantics — they now apply at block
/// granularity. v3 stores stay fully readable *and appendable* (in
/// their own row format); new stores are stamped v4 unless
/// `BNF_ATLAS_FORMAT=3` (see [`default_new_version`]).
pub const ATLAS_VERSION: u32 = 4;

/// Oldest format version this build still reads and appends. Anything
/// older (or newer than [`ATLAS_VERSION`]) is rejected as
/// [`AtlasError::VersionMismatch`] — delete the file to rebuild, or
/// keep it for an old build.
pub const MIN_ATLAS_VERSION: u32 = 3;

/// Hard ceiling on one frame's encoded length in a **v3** store. Real
/// v3 frames are tiny — a record is ~100 bytes, a shard-metadata frame
/// ~170 — so a length field beyond this is mid-store corruption.
/// Without the cap a corrupted length field could swallow the rest of
/// the file and masquerade as a torn tail, silently "recovering" away
/// good frames.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard ceiling on one frame's encoded length in a **v4** store. A
/// full 4096-record columnar block tops out well under 1 MiB today,
/// but the cap leaves headroom for the window-heavy record shapes the
/// follow-up models add without another version bump; a length field
/// beyond it is still mid-store corruption, never a tear.
pub const MAX_BLOCK_FRAME_LEN: u32 = 1 << 26;

/// The frame-length corruption bound for a store of `version` —
/// [`MAX_FRAME_LEN`] for v3 row frames, [`MAX_BLOCK_FRAME_LEN`] for v4
/// block frames. Version-aware so a legitimate multi-megabyte block is
/// never misdiagnosed as mid-store corruption.
pub fn max_frame_len(version: u32) -> u32 {
    if version >= 4 {
        MAX_BLOCK_FRAME_LEN
    } else {
        MAX_FRAME_LEN
    }
}

/// Why an atlas file could not be opened, read or appended to.
#[derive(Debug)]
pub enum AtlasError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`ATLAS_MAGIC`] — not an atlas.
    BadMagic,
    /// The file's version is outside the supported
    /// [`MIN_ATLAS_VERSION`]`..=`[`ATLAS_VERSION`] range; stale caches
    /// must be deleted (or kept for an old build), never reinterpreted.
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
}

impl fmt::Display for AtlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtlasError::Io(e) => write!(f, "atlas I/O error: {e}"),
            AtlasError::BadMagic => write!(f, "not an atlas file (bad magic)"),
            AtlasError::VersionMismatch { found } => write!(
                f,
                "atlas version {found} outside supported \
                 {MIN_ATLAS_VERSION}..={ATLAS_VERSION}; delete the file to rebuild"
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

/// Metadata of one shard segment: which contiguous range of the sorted
/// level-`n − 1` parent frontier one sweep invocation classified, what
/// it cost, and its pruning-counter shares — written into the segment
/// file by `--shard i/m` runs and folded by `shard_merge` into
/// coverage declarations and the merged work/RSS report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Graph order of the sweep this shard belongs to.
    pub order: u16,
    /// Zero-based shard index within the partition.
    pub shard_index: u32,
    /// Total shards in the partition.
    pub shard_count: u32,
    /// Size of the full parent frontier the range was cut from — the
    /// partition is a pure function of `(frontier_len, shard_count)`,
    /// so equal values here mean compatible segments.
    pub frontier_len: u64,
    /// First owned parent index (inclusive).
    pub parent_lo: u64,
    /// One past the last owned parent index.
    pub parent_hi: u64,
    /// Final-level graphs this shard classified and stored.
    pub emitted: u64,
    /// Wall-clock of the shard invocation in milliseconds.
    pub elapsed_ms: u64,
    /// Peak RSS in KiB of the process that ran this shard, at the time
    /// the shard completed (`None` where unmeasurable, e.g. off Linux).
    /// For a standalone `--shard` process this is that process's own
    /// `VmHWM`; for an in-process orchestrated range it is a snapshot
    /// of the *shared* process's high-water mark — see
    /// [`ShardMeta::orchestrator_run`] and [`ShardMeta::rss_summary`].
    pub peak_rss_kb: Option<u64>,
    /// `None` for a standalone `--shard` process invocation; `Some(id)`
    /// for a range executed inside an in-process orchestrator run,
    /// where `id` identifies the run. All ranges of one run share one
    /// process, so honest RSS accounting must count the run **once**
    /// (its max snapshot), not sum 256 copies of the same high-water
    /// mark — [`ShardMeta::rss_summary`] groups by this field.
    pub orchestrator_run: Option<u64>,
    /// Pruning counters of the frontier build (levels `1..n − 1`) —
    /// identical across every shard of one partition; kept separate so
    /// a merge counts this shared work once, not `m` times.
    pub frontier_prune: PruneCounters,
    /// Pruning counters of the final level restricted to this shard's
    /// parent range — these sum across a partition.
    pub final_prune: PruneCounters,
}

impl ShardMeta {
    /// The fields that identify a shard slot: two metas with equal
    /// identity describe the same range of the same deterministic
    /// partition and must agree on everything but timings.
    fn identity(&self) -> (u16, u32, u64, u32) {
        (
            self.order,
            self.shard_count,
            self.frontier_len,
            self.shard_index,
        )
    }

    /// Whether `other` is a legitimate re-run of the same shard slot:
    /// same range and emission count (wall-clock and RSS may differ).
    fn compatible(&self, other: &ShardMeta) -> bool {
        self.parent_lo == other.parent_lo
            && self.parent_hi == other.parent_hi
            && self.emitted == other.emitted
    }

    /// This range's run-manifest provenance entry.
    pub fn provenance(&self) -> bnf_obs::ShardProvenance {
        bnf_obs::ShardProvenance {
            order: u32::from(self.order),
            index: self.shard_index,
            count: self.shard_count,
            parent_lo: self.parent_lo,
            parent_hi: self.parent_hi,
            emitted: self.emitted,
            elapsed_ms: self.elapsed_ms,
            peak_rss_kb: self.peak_rss_kb,
            orchestrator_run: self.orchestrator_run,
        }
    }

    /// Folds one partition's worth of metas into total enumeration
    /// counters: the (shared, identical) frontier-build share once plus
    /// every shard's final-level share. `None` when the metas span
    /// mixed partitions or disagree on the frontier share — no single
    /// total exists then.
    pub fn merged_counters(metas: &[ShardMeta]) -> Option<PruneCounters> {
        let first = metas.first()?;
        let group = (first.order, first.shard_count, first.frontier_len);
        let mut total = first.frontier_prune;
        for m in metas {
            if (m.order, m.shard_count, m.frontier_len) != group
                || m.frontier_prune != first.frontier_prune
            {
                return None;
            }
            total.merge(&m.final_prune);
        }
        Some(total)
    }

    /// Max and sum of peak RSS **per process**, over the metas that
    /// report one — `None` when none do (non-Linux shards stay
    /// gracefully unreported rather than counting as zero).
    ///
    /// Each standalone shard meta (`orchestrator_run: None`) is its own
    /// process and contributes its value directly; all metas sharing an
    /// `orchestrator_run` id ran in one process and contribute a single
    /// value — the max of their snapshots — so an orchestrated run's
    /// `VmHWM` is counted once, not once per range.
    pub fn rss_summary(metas: &[ShardMeta]) -> Option<(u64, u64)> {
        let mut runs: HashMap<u64, u64> = HashMap::new();
        let mut seen = None;
        for m in metas {
            let Some(kb) = m.peak_rss_kb else { continue };
            match m.orchestrator_run {
                None => {
                    let (max, sum) = seen.unwrap_or((0u64, 0u64));
                    seen = Some((max.max(kb), sum + kb));
                }
                Some(id) => {
                    let peak = runs.entry(id).or_insert(0);
                    *peak = (*peak).max(kb);
                }
            }
        }
        for &kb in runs.values() {
            let (max, sum) = seen.unwrap_or((0, 0));
            seen = Some((max.max(kb), sum + kb));
        }
        seen
    }

    /// How many distinct OS processes produced these metas: one per
    /// standalone shard plus one per distinct orchestrator run — the
    /// denominator the merged provenance report labels its RSS line
    /// with.
    pub fn process_count(metas: &[ShardMeta]) -> usize {
        let mut runs: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut standalone = 0usize;
        for m in metas {
            match m.orchestrator_run {
                None => standalone += 1,
                Some(id) => {
                    runs.insert(id);
                }
            }
        }
        standalone + runs.len()
    }
}

/// An open classification atlas: the whole store buffered into an
/// in-memory key → record map (bufread on open; the n = 10 record
/// population is ~12 M entries of ~100 bytes — RAM-sized by design),
/// with appends written through to disk.
#[derive(Debug)]
pub struct ClassificationAtlas {
    path: PathBuf,
    /// On-disk format version (parsed from the header; the creation
    /// version for fresh stores). Governs how appends are framed.
    version: u32,
    map: HashMap<String, WindowRecord>,
    /// Orders whose *complete* connected enumeration is stored, with
    /// the topology count recorded at completion time.
    coverage: HashMap<u16, u64>,
    /// Shard-segment metadata, one entry per distinct shard slot (see
    /// [`ShardMeta::identity`]).
    shards: Vec<ShardMeta>,
}

/// Frame tag: the payload is one encoded [`WindowRecord`].
pub(crate) const FRAME_RECORD: u8 = 1;
/// Frame tag: the payload declares complete sweep coverage for one
/// order (`u16` order + `u64` topology count).
pub(crate) const FRAME_COVERAGE: u8 = 2;
/// Frame tag: the payload is one encoded [`ShardMeta`].
pub(crate) const FRAME_SHARD_META: u8 = 3;
/// Frame tag (v4 stores only): the payload is one columnar block of up
/// to [`crate::codec::BLOCK_RECORDS`] records (see [`crate::codec`]).
pub(crate) const FRAME_RECORD_BLOCK: u8 = 4;

/// The version stamped into newly created stores: [`ATLAS_VERSION`],
/// unless the `BNF_ATLAS_FORMAT` environment variable selects another
/// supported format (e.g. `BNF_ATLAS_FORMAT=3` keeps producing row
/// stores an older build can read). Unset, empty, or out-of-range
/// values fall back to [`ATLAS_VERSION`]. Existing stores always keep
/// their own version — this only affects creation.
pub fn default_new_version() -> u32 {
    version_from_env(std::env::var("BNF_ATLAS_FORMAT").ok())
}

/// The pure core of [`default_new_version`], split out for tests (the
/// process environment is shared across threads).
pub(crate) fn version_from_env(raw: Option<String>) -> u32 {
    match raw
        .as_deref()
        .map(str::trim)
        .and_then(|s| s.parse::<u32>().ok())
    {
        Some(v) if (MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&v) => v,
        _ => ATLAS_VERSION,
    }
}

impl ClassificationAtlas {
    /// Opens an atlas at `path`, creating an empty one (header only) if
    /// the file is missing or zero-length.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] / [`AtlasError::VersionMismatch`] for
    /// foreign or stale files, [`AtlasError::Corrupt`] for truncated or
    /// malformed records, [`AtlasError::Io`] on filesystem failure.
    ///
    /// A fresh store is stamped [`default_new_version`]; an existing
    /// store keeps (and is appended in) its own format version.
    pub fn open(path: impl AsRef<Path>) -> Result<ClassificationAtlas, AtlasError> {
        Self::open_with_version(path, default_new_version())
    }

    /// [`ClassificationAtlas::open`] with an explicit format version
    /// for *newly created* stores — the programmatic form of
    /// `BNF_ATLAS_FORMAT`, immune to environment races in threaded
    /// callers. Existing stores keep their own version regardless.
    ///
    /// # Errors
    ///
    /// As [`ClassificationAtlas::open`], plus
    /// [`AtlasError::VersionMismatch`] when `new_version` itself is
    /// unsupported.
    pub fn open_with_version(
        path: impl AsRef<Path>,
        new_version: u32,
    ) -> Result<ClassificationAtlas, AtlasError> {
        if !(MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&new_version) {
            return Err(AtlasError::VersionMismatch { found: new_version });
        }
        let path = path.as_ref().to_path_buf();
        let loaded = match load_store(&path)? {
            None => {
                stamp_header(&path, new_version)?;
                LoadedStore {
                    version: new_version,
                    ..LoadedStore::default()
                }
            }
            Some(loaded) => loaded,
        };
        if let Some(reason) = loaded.torn {
            // A torn tail is *recoverable* — but only on explicit
            // request ([`ClassificationAtlas::open_recovering`]): the
            // default open refuses rather than silently shortening a
            // store the caller believed complete.
            if loaded.clean_len < 12 {
                return Err(AtlasError::BadMagic);
            }
            return Err(AtlasError::Corrupt {
                offset: loaded.clean_len,
                reason,
            });
        }
        Ok(ClassificationAtlas {
            path,
            version: loaded.version,
            map: loaded.map,
            coverage: loaded.coverage,
            shards: loaded.shards,
        })
    }

    /// Opens an atlas at `path` like [`ClassificationAtlas::open`], but
    /// **recovers from a torn tail**: when the file ends mid-frame (a
    /// producer died mid-append — SIGKILL, power loss), the clean frame
    /// prefix is kept, the torn bytes are truncated off the file, and
    /// the [`RecoveryReport`] says exactly what was dropped.
    ///
    /// Only the *tail* is recoverable. A fully-present frame that fails
    /// to decode, or a frame length over the store's version-aware
    /// bound ([`max_frame_len`]), is mid-store corruption and stays a
    /// typed [`AtlasError::Corrupt`] — recovery never invents a
    /// truncation point inside the clean prefix, and never drops bytes
    /// silently (the report is the contract). In a v4 store the same
    /// rule holds at block granularity: a torn block frame is dropped
    /// whole, a fully-present block failing its CRC is corruption.
    ///
    /// Truncation shrinks the file, so a `.bnfatlas.idx` sidecar built
    /// over the pre-crash store self-invalidates (its recorded store
    /// length no longer matches) — rebuild it after recovery.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] / [`AtlasError::VersionMismatch`] for
    /// foreign or stale files, [`AtlasError::Corrupt`] for mid-store
    /// corruption, [`AtlasError::Io`] on filesystem failure.
    pub fn open_recovering(path: impl AsRef<Path>) -> Result<RecoveredAtlas, AtlasError> {
        let new_version = default_new_version();
        let path = path.as_ref().to_path_buf();
        let mut loaded = match load_store(&path)? {
            None => {
                stamp_header(&path, new_version)?;
                LoadedStore {
                    version: new_version,
                    ..LoadedStore::default()
                }
            }
            Some(loaded) => loaded,
        };
        let report = match &loaded.torn {
            None => RecoveryReport {
                dropped_bytes: 0,
                recovered_len: std::fs::metadata(&path)?.len().max(12),
                torn: None,
            },
            Some(reason) => {
                let file_len = std::fs::metadata(&path)?.len();
                let f = OpenOptions::new().write(true).open(&path)?;
                if loaded.clean_len < 12 {
                    // The tear is inside the 12-byte header: nothing
                    // decodable survives; re-stamp a fresh store (the
                    // intended version may itself be torn off, so the
                    // re-stamp uses the creation default).
                    f.set_len(0)?;
                    drop(f);
                    stamp_header(&path, new_version)?;
                    loaded.version = new_version;
                } else {
                    f.set_len(loaded.clean_len)?;
                    f.sync_all()?;
                }
                RecoveryReport {
                    dropped_bytes: file_len.saturating_sub(loaded.clean_len),
                    recovered_len: loaded.clean_len.max(12),
                    torn: Some(reason.clone()),
                }
            }
        };
        Ok(RecoveredAtlas {
            atlas: ClassificationAtlas {
                path,
                version: loaded.version,
                map: loaded.map,
                coverage: loaded.coverage,
                shards: loaded.shards,
            },
            report,
        })
    }

    /// The on-disk format version of this store (3 or 4) — parsed from
    /// the header on open, [`default_new_version`] for fresh stores.
    /// Appends are framed in this version: row frames for v3, columnar
    /// blocks for v4.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The record stored for a canonical graph6 `key`, if any.
    pub fn get(&self, key: &str) -> Option<&WindowRecord> {
        self.map.get(key)
    }

    /// Whether `key` is already classified.
    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Iterates over all stored records (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &WindowRecord> {
        self.map.values()
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
        let mut fresh: Vec<&WindowRecord> = Vec::new();
        for rec in records {
            match self.map.get(&rec.key) {
                Some(stored) if stored == rec => {}
                Some(_) => {
                    return Err(AtlasError::KeyConflict {
                        key: rec.key.clone(),
                    })
                }
                None => fresh.push(rec),
            }
        }
        if fresh.is_empty() {
            return Ok(0);
        }
        let write_started = std::time::Instant::now();
        let mut w = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        let mut payload = Vec::new();
        // v4 stores pack this batch into columnar block frames (every
        // block full at BLOCK_RECORDS except possibly the last); v3
        // stores keep one row frame per record. Either way the whole
        // batch is on disk when this call returns — no frame ever
        // spans append calls, so torn-tail recovery and the
        // `append_commit_frame` ordering are unchanged.
        let mut block: Vec<&WindowRecord> = Vec::new();
        // The enumeration can only yield distinct keys within one
        // batch, but defend against caller-supplied duplicates: an
        // identical duplicate is skipped, a conflicting one is the
        // KeyConflict invariant violation — never silently dropped.
        let mut appended = 0usize;
        for rec in fresh {
            if let Some(stored) = self.map.get(&rec.key) {
                if stored == rec {
                    continue;
                }
                // Records blocked before the conflict stay appended —
                // they are individually valid.
                write_block_frame(&mut w, &mut payload, &mut block)?;
                w.flush()?;
                return Err(AtlasError::KeyConflict {
                    key: rec.key.clone(),
                });
            }
            if self.version >= 4 {
                block.push(rec);
                if block.len() == crate::codec::BLOCK_RECORDS {
                    write_block_frame(&mut w, &mut payload, &mut block)?;
                }
            } else {
                payload.clear();
                payload.push(FRAME_RECORD);
                encode_record(rec, &mut payload);
                w.write_all(&(payload.len() as u32).to_le_bytes())?;
                w.write_all(&payload)?;
            }
            self.map.insert(rec.key.clone(), rec.clone());
            appended += 1;
        }
        write_block_frame(&mut w, &mut payload, &mut block)?;
        w.flush()?;
        let recorder = bnf_obs::Recorder::global();
        recorder.add_span_ms("atlas_write", write_started.elapsed().as_millis() as u64);
        recorder.add("atlas_records_appended", appended as u64);
        Ok(appended)
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
    /// the store — or `None` when coverage was never declared or the
    /// stored records do not match the declared count (defensive: fall
    /// back to classifying).
    ///
    /// Sort keys are recovered with [`Graph::packed_self_key`] on the
    /// decoded canonical forms — O(n²) per record, no canonical search
    /// — which reproduces the engine's `(edges, canonical key)` order
    /// exactly for every enumerable order (n ≤ 10: the packed triangle
    /// fits the key's leading word).
    pub fn complete_sweep(&self, order: usize) -> Option<Vec<WindowRecord>> {
        let declared = self.coverage(order)?;
        bnf_obs::Recorder::global().time("warm_replay", || self.replay_sweep(order, declared))
    }

    /// The [`ClassificationAtlas::complete_sweep`] body, split out so
    /// the telemetry span covers exactly the replay work.
    fn replay_sweep(&self, order: usize, declared: u64) -> Option<Vec<WindowRecord>> {
        let mut tagged: Vec<(u64, u64, &WindowRecord)> = self
            .map
            .values()
            .filter(|r| r.order as usize == order)
            .map(|r| {
                let g = Graph::from_graph6(&r.key).ok()?;
                Some((r.edges, g.packed_self_key().prefix_word(), r))
            })
            .collect::<Option<Vec<_>>>()?;
        if tagged.len() as u64 != declared {
            return None;
        }
        tagged.sort_by_key(|t| (t.0, t.1));
        Some(tagged.into_iter().map(|(_, _, r)| r.clone()).collect())
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
    /// coverage declarations, and shard metadata.
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
    /// # Errors
    ///
    /// The typed conflicts above, or [`AtlasError::Io`] on write
    /// failure.
    pub fn merge_from(&mut self, other: &ClassificationAtlas) -> Result<MergeOutcome, AtlasError> {
        let appended = self.append_records(other.iter())?;
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
    /// one `(shard_count, frontier_len)` group — whose summed emission
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
        let mut orders: Vec<u16> = self.shards.iter().map(|m| m.order).collect();
        orders.sort_unstable();
        orders.dedup();
        let mut out = Vec::new();
        for order in orders {
            if let Some(count) = self.coverage.get(&order) {
                out.push((order as usize, ShardCoverage::AlreadyDeclared(*count)));
                continue;
            }
            let stored = self
                .map
                .values()
                .filter(|r| r.order == u32::from(order))
                .count() as u64;
            let mut groups: Vec<(u32, u64)> = self
                .shards
                .iter()
                .filter(|m| m.order == order)
                .map(|m| (m.shard_count, m.frontier_len))
                .collect();
            groups.sort_unstable();
            groups.dedup();
            let mut status = ShardCoverage::Incomplete { have: 0, want: 0 };
            for (count, frontier_len) in groups {
                let members: Vec<&ShardMeta> = self
                    .shards
                    .iter()
                    .filter(|m| {
                        m.order == order && m.shard_count == count && m.frontier_len == frontier_len
                    })
                    .collect();
                // Per-slot uniqueness is enforced at append time, so
                // membership count is the distinct-index count.
                if members.len() < count as usize {
                    // Keep the fullest incomplete group as the status
                    // (a CountMismatch from an earlier group wins).
                    if let ShardCoverage::Incomplete { have, want } = status {
                        if members.len() > have || want == 0 {
                            status = ShardCoverage::Incomplete {
                                have: members.len(),
                                want: count as usize,
                            };
                        }
                    }
                    continue;
                }
                let emitted: u64 = members.iter().map(|m| m.emitted).sum();
                if emitted != stored {
                    status = ShardCoverage::CountMismatch { emitted, stored };
                    continue;
                }
                self.mark_complete(order as usize, emitted as usize)?;
                status = ShardCoverage::Declared(emitted);
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
    /// Whether recovery actually truncated anything.
    pub fn was_torn(&self) -> bool {
        self.dropped_bytes > 0
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

/// Everything [`load_store`] decoded, plus where the clean prefix ends.
#[derive(Debug, Default)]
struct LoadedStore {
    /// Header format version (0 only when the header itself is torn —
    /// the caller restamps with the creation default).
    version: u32,
    map: HashMap<String, WindowRecord>,
    coverage: HashMap<u16, u64>,
    shards: Vec<ShardMeta>,
    /// One past the last fully decoded frame (0 only when the tear is
    /// inside the 12-byte header).
    clean_len: u64,
    /// `Some(diagnosis)` when the file ends mid-frame — recoverable by
    /// truncating to `clean_len`; `None` when it ends exactly on a
    /// frame boundary.
    torn: Option<String>,
}

/// Reads `buf.len()` bytes unless EOF comes first; returns how many
/// arrived — the byte count [`load_store`] needs to tell a clean frame
/// boundary (0 bytes of the next length field) from a torn tail (a
/// partial length field or short payload).
pub(crate) fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
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

/// Stamps a fresh header (magic + `version`) into `path`, durably.
fn stamp_header(path: &Path, version: u32) -> Result<(), AtlasError> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    f.write_all(&ATLAS_MAGIC)?;
    f.write_all(&version.to_le_bytes())?;
    f.sync_all()?;
    Ok(())
}

/// The shared read path of [`ClassificationAtlas::open`] and
/// [`ClassificationAtlas::open_recovering`]: decodes the clean frame
/// prefix and classifies the tail. `None` means the file is missing or
/// empty (the caller stamps a fresh header). Torn-vs-corrupt
/// distinction: the file ending *mid-frame* (partial length field or
/// short payload) is a tear — the producing process died mid-append —
/// while a fully present frame that fails to decode, or a length field
/// over the version's bound ([`max_frame_len`]), is mid-store
/// corruption and errors here.
fn load_store(path: &Path) -> Result<Option<LoadedStore>, AtlasError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if file.metadata()?.len() == 0 {
        return Ok(None);
    }
    let mut r = BufReader::new(file);
    let mut header = [0u8; 12];
    let got = read_full(&mut r, &mut header)?;
    if got < 12 {
        // A truncated header prefix that could still become a valid
        // one (magic prefix, then a supported little-endian version
        // byte and zero padding): torn at creation.
        let magic_ok = header[..got.min(8)] == ATLAS_MAGIC[..got.min(8)];
        let version_ok = got <= 8
            || (u32::from(header[8]) >= MIN_ATLAS_VERSION
                && u32::from(header[8]) <= ATLAS_VERSION
                && header[9..got].iter().all(|&b| b == 0));
        if magic_ok && version_ok {
            return Ok(Some(LoadedStore {
                clean_len: 0,
                torn: Some(format!("file ends {got} bytes into the 12-byte header")),
                ..LoadedStore::default()
            }));
        }
        return Err(AtlasError::BadMagic);
    }
    if header[..8] != ATLAS_MAGIC {
        return Err(AtlasError::BadMagic);
    }
    let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if !(MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&found) {
        return Err(AtlasError::VersionMismatch { found });
    }
    let frame_cap = max_frame_len(found);
    let mut out = LoadedStore {
        version: found,
        clean_len: 12,
        ..LoadedStore::default()
    };
    loop {
        let mut len_buf = [0u8; 4];
        let got = read_full(&mut r, &mut len_buf)?;
        if got == 0 {
            break; // clean frame boundary
        }
        if got < 4 {
            out.torn = Some(format!(
                "file ends {got} bytes into a frame length field at byte {}",
                out.clean_len
            ));
            break;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > frame_cap {
            return Err(AtlasError::Corrupt {
                offset: out.clean_len,
                reason: format!("frame length {len} outside 1..={frame_cap} (the v{found} cap)"),
            });
        }
        let mut payload = vec![0u8; len as usize];
        let got = read_full(&mut r, &mut payload)?;
        if got < len as usize {
            out.torn = Some(format!(
                "record frame of {len} bytes truncated ({got} present) at byte {}",
                out.clean_len
            ));
            break;
        }
        decode_frame(
            &payload,
            found,
            &mut out.map,
            &mut out.coverage,
            &mut out.shards,
        )
        .map_err(|reason| AtlasError::Corrupt {
            offset: out.clean_len,
            reason,
        })?;
        out.clean_len += 4 + len as u64;
    }
    Ok(Some(out))
}

/// Parses one frame (tag byte + payload) into the maps. `version` is
/// the store's header version: block frames (tag 4) are only legal in
/// v4 stores — in a v3 file the tag is corruption, never silently
/// decoded by a reader the v3 writer predates.
fn decode_frame(
    payload: &[u8],
    version: u32,
    map: &mut HashMap<String, WindowRecord>,
    coverage: &mut HashMap<u16, u64>,
    shards: &mut Vec<ShardMeta>,
) -> Result<(), String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty frame".to_string())?;
    match tag {
        FRAME_RECORD => {
            let record = decode_record(body)?;
            map.insert(record.key.clone(), record);
            Ok(())
        }
        FRAME_RECORD_BLOCK => {
            if version < 4 {
                return Err("columnar block frame (tag 4) in a v3 store".into());
            }
            for record in crate::codec::decode_block(body)? {
                map.insert(record.key.clone(), record);
            }
            Ok(())
        }
        FRAME_SHARD_META => {
            let meta = decode_shard_meta(body)?;
            match shards.iter().find(|m| m.identity() == meta.identity()) {
                Some(stored) if !stored.compatible(&meta) => Err(format!(
                    "conflicting metadata for shard {}/{} of order {}",
                    meta.shard_index, meta.shard_count, meta.order
                )),
                Some(_) => Ok(()), // identical slot: dedup on read too
                None => {
                    shards.push(meta);
                    Ok(())
                }
            }
        }
        FRAME_COVERAGE => {
            let mut c = Cursor { buf: body, pos: 0 };
            let order = c.u16()?;
            let count = c.u64()?;
            if c.pos != body.len() {
                return Err("trailing bytes after coverage frame".into());
            }
            match coverage.get(&order) {
                Some(&stored) if stored != count => Err(format!(
                    "conflicting coverage counts for order {order}: {stored} vs {count}"
                )),
                _ => {
                    coverage.insert(order, count);
                    Ok(())
                }
            }
        }
        t => Err(format!("unknown frame tag {t}")),
    }
}

fn put_counters(out: &mut Vec<u8>, c: &PruneCounters) {
    for v in [
        c.candidates,
        c.orbit_skipped,
        c.cheap_rejected,
        c.search_rejected,
        c.duplicates,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn encode_shard_meta(meta: &ShardMeta, out: &mut Vec<u8>) {
    out.extend_from_slice(&meta.order.to_le_bytes());
    out.extend_from_slice(&meta.shard_index.to_le_bytes());
    out.extend_from_slice(&meta.shard_count.to_le_bytes());
    for v in [
        meta.frontier_len,
        meta.parent_lo,
        meta.parent_hi,
        meta.emitted,
        meta.elapsed_ms,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match meta.peak_rss_kb {
        None => out.push(0),
        Some(kb) => {
            out.push(1);
            out.extend_from_slice(&kb.to_le_bytes());
        }
    }
    match meta.orchestrator_run {
        None => out.push(0),
        Some(id) => {
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    put_counters(out, &meta.frontier_prune);
    put_counters(out, &meta.final_prune);
}

fn decode_shard_meta(payload: &[u8]) -> Result<ShardMeta, String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let order = c.u16()?;
    let shard_index = c.u32()?;
    let shard_count = c.u32()?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(format!(
            "shard index {shard_index} out of range 0..{shard_count}"
        ));
    }
    let frontier_len = c.u64()?;
    let parent_lo = c.u64()?;
    let parent_hi = c.u64()?;
    let emitted = c.u64()?;
    let elapsed_ms = c.u64()?;
    let peak_rss_kb = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        t => return Err(format!("unknown peak-RSS tag {t}")),
    };
    let orchestrator_run = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        t => return Err(format!("unknown orchestrator-run tag {t}")),
    };
    let frontier_prune = c.counters()?;
    let final_prune = c.counters()?;
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after shard metadata",
            payload.len() - c.pos
        ));
    }
    Ok(ShardMeta {
        order,
        shard_index,
        shard_count,
        frontier_len,
        parent_lo,
        parent_hi,
        emitted,
        elapsed_ms,
        peak_rss_kb,
        orchestrator_run,
        frontier_prune,
        final_prune,
    })
}

/// Writes the pending `block` (if non-empty) as one v4 columnar block
/// frame and clears it. A no-op for v3 appends, whose block stays
/// empty.
fn write_block_frame(
    w: &mut impl Write,
    payload: &mut Vec<u8>,
    block: &mut Vec<&WindowRecord>,
) -> std::io::Result<()> {
    if block.is_empty() {
        return Ok(());
    }
    payload.clear();
    payload.push(FRAME_RECORD_BLOCK);
    crate::codec::encode_block(block, payload);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    block.clear();
    Ok(())
}

fn put_ratio(out: &mut Vec<u8>, r: Ratio) {
    out.extend_from_slice(&r.numer().to_le_bytes());
    out.extend_from_slice(&r.denom().to_le_bytes());
}

fn put_threshold(out: &mut Vec<u8>, t: Threshold) {
    match t {
        Threshold::Finite(r) => {
            out.push(0);
            put_ratio(out, r);
        }
        Threshold::Infinite => out.push(1),
    }
}

fn put_interval(out: &mut Vec<u8>, iv: ClosedInterval) {
    put_ratio(out, iv.lo);
    put_threshold(out, iv.hi);
}

pub(crate) fn encode_record(rec: &WindowRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&(rec.key.len() as u16).to_le_bytes());
    out.extend_from_slice(rec.key.as_bytes());
    out.extend_from_slice(&(rec.order as u16).to_le_bytes());
    out.extend_from_slice(&(rec.edges as u32).to_le_bytes());
    out.extend_from_slice(&rec.total_distance.to_le_bytes());
    match rec.stability {
        None => out.push(0),
        Some(w) => {
            out.push(1);
            put_ratio(out, w.lower.value);
            out.push(u8::from(w.lower.inclusive));
            put_threshold(out, w.upper);
        }
    }
    match rec.transfer {
        None => out.push(0),
        Some(iv) => {
            out.push(1);
            put_interval(out, iv);
        }
    }
    out.extend_from_slice(&(rec.ucg_support.len() as u16).to_le_bytes());
    for iv in &rec.ucg_support {
        put_interval(out, *iv);
    }
}

/// A cursor over one record payload; every getter errors (with a
/// string diagnosis) instead of panicking so corrupt files surface as
/// [`AtlasError::Corrupt`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload ends {n} bytes short"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn ratio(&mut self) -> Result<Ratio, String> {
        let num = self.i64()?;
        let den = self.i64()?;
        if den == 0 {
            return Err("ratio with zero denominator".into());
        }
        Ok(Ratio::new(num, den))
    }

    fn threshold(&mut self) -> Result<Threshold, String> {
        match self.u8()? {
            0 => Ok(Threshold::Finite(self.ratio()?)),
            1 => Ok(Threshold::Infinite),
            t => Err(format!("unknown threshold tag {t}")),
        }
    }

    fn interval(&mut self) -> Result<ClosedInterval, String> {
        Ok(ClosedInterval {
            lo: self.ratio()?,
            hi: self.threshold()?,
        })
    }

    fn counters(&mut self) -> Result<PruneCounters, String> {
        Ok(PruneCounters {
            candidates: self.u64()?,
            orbit_skipped: self.u64()?,
            cheap_rejected: self.u64()?,
            search_rejected: self.u64()?,
            duplicates: self.u64()?,
        })
    }
}

pub(crate) fn decode_record(payload: &[u8]) -> Result<WindowRecord, String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let key_len = c.u16()? as usize;
    let key = std::str::from_utf8(c.take(key_len)?)
        .map_err(|_| "key is not UTF-8".to_string())?
        .to_string();
    let order = u32::from(c.u16()?);
    let edges = u64::from(c.u32()?);
    let total_distance = c.u64()?;
    let stability = match c.u8()? {
        0 => None,
        1 => {
            let value = c.ratio()?;
            let inclusive = match c.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("unknown inclusivity tag {t}")),
            };
            let upper = c.threshold()?;
            Some(StabilityWindow {
                lower: LowerBound { value, inclusive },
                upper,
            })
        }
        t => return Err(format!("unknown stability tag {t}")),
    };
    let transfer = match c.u8()? {
        0 => None,
        1 => Some(c.interval()?),
        t => return Err(format!("unknown transfer tag {t}")),
    };
    let n_support = c.u16()? as usize;
    let mut ucg_support = Vec::with_capacity(n_support);
    for _ in 0..n_support {
        ucg_support.push(c.interval()?);
    }
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after record",
            payload.len() - c.pos
        ));
    }
    Ok(WindowRecord {
        key,
        order,
        edges,
        total_distance,
        stability,
        transfer,
        ucg_support,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(reopened.get(&rec.key), Some(rec));
        }
        assert!(!reopened.contains("Bw"));
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
        assert_eq!(atlas.iter().count(), 2);
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
        // A record frame of 7 bytes whose key length claims 400.
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.push(super::FRAME_RECORD);
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
        assert_eq!(recovered.atlas.get(&records[0].key), Some(&records[0]));
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
        // The cap is version-aware: a v3 store trips at MAX_FRAME_LEN,
        // a v4 store only at the (larger) block cap — a legitimate
        // multi-megabyte block frame must never be misdiagnosed.
        for (version, cap) in [(3u32, MAX_FRAME_LEN), (4u32, MAX_BLOCK_FRAME_LEN)] {
            let path = scratch_path(&format!("recover-hugelen-v{version}"));
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&ATLAS_MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&(cap + 1).to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            std::fs::write(&path, &bytes).unwrap();
            // Both paths refuse: a corrupted length field must not be
            // "recovered" by swallowing the rest of the file as a tear
            // — and the diagnosis names the offending length.
            match ClassificationAtlas::open(&path) {
                Err(AtlasError::Corrupt { offset: 12, reason }) => {
                    assert!(
                        reason.contains(&(cap + 1).to_string()),
                        "diagnosis omits the offending length: {reason}"
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
    }

    #[test]
    fn v3_frame_cap_admits_what_a_v4_block_needs() {
        // A v4 block frame can legally exceed the v3 cap; the v3 cap
        // still applies to v3 stores.
        assert_eq!(max_frame_len(3), MAX_FRAME_LEN);
        assert_eq!(max_frame_len(4), MAX_BLOCK_FRAME_LEN);
        assert!(max_frame_len(4) > max_frame_len(3));
    }

    #[test]
    fn v3_stores_stay_writable_in_row_format() {
        let path = scratch_path("v3-append");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open_with_version(&path, 3).unwrap();
            assert_eq!(atlas.version(), 3);
            atlas.append_records(&records).unwrap();
            atlas.mark_complete(5, records.len()).unwrap();
        }
        // The header says v3 and every record frame is a row frame.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        assert_eq!(bytes[16], FRAME_RECORD);
        // A plain reopen keeps the store's own version (no silent
        // upgrade) and replays losslessly.
        let atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.version(), 3);
        assert_eq!(atlas.len(), records.len());
        assert_eq!(atlas.coverage(5), Some(records.len() as u64));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v4_appends_pack_block_frames() {
        let path = scratch_path("v4-blocks");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open_with_version(&path, ATLAS_VERSION).unwrap();
            assert_eq!(atlas.version(), ATLAS_VERSION);
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
            assert_eq!(atlas.get(&rec.key), Some(rec));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_frame_in_a_v3_store_is_corrupt() {
        let path = scratch_path("v3-blocktag");
        let records = sample_records();
        {
            let mut atlas = ClassificationAtlas::open_with_version(&path, ATLAS_VERSION).unwrap();
            atlas.append_records(&records).unwrap();
        }
        // Rewrite the header to claim v3: the block tag is now corrupt
        // (a v3 reader the block writer predates must never guess).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match ClassificationAtlas::open(&path) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains("tag 4"), "unexpected diagnosis: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn new_store_version_tracks_the_env_override() {
        assert_eq!(version_from_env(None), ATLAS_VERSION);
        assert_eq!(version_from_env(Some("3".into())), 3);
        assert_eq!(version_from_env(Some(" 3 ".into())), 3);
        assert_eq!(version_from_env(Some("4".into())), 4);
        // Unsupported or unparsable values fall back to the default.
        assert_eq!(version_from_env(Some("2".into())), ATLAS_VERSION);
        assert_eq!(version_from_env(Some("99".into())), ATLAS_VERSION);
        assert_eq!(version_from_env(Some("v3".into())), ATLAS_VERSION);
        assert_eq!(version_from_env(Some(String::new())), ATLAS_VERSION);
        // And the programmatic constructor rejects them as typed
        // errors instead.
        let path = scratch_path("bad-new-version");
        assert!(matches!(
            ClassificationAtlas::open_with_version(&path, 2),
            Err(AtlasError::VersionMismatch { found: 2 })
        ));
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
        assert_eq!(atlas.get(&records[0].key), Some(&records[0]));
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
        assert_eq!(atlas.get("Dhc"), Some(&third));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render() {
        assert!(AtlasError::BadMagic.to_string().contains("magic"));
        assert!(AtlasError::VersionMismatch { found: 3 }
            .to_string()
            .contains('3'));
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
        let total = ShardMeta::merged_counters(atlas.shard_metas()).unwrap();
        // Frontier share once, final shares summed: 10 + 5 + 6.
        assert_eq!(total.candidates, 21);
        assert_eq!(total.cheap_rejected, 11);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_counters_and_rss_handle_edge_sets() {
        assert_eq!(ShardMeta::merged_counters(&[]), None);
        // Mixed partitions have no single total.
        assert_eq!(
            ShardMeta::merged_counters(&[sample_meta(0, 2), sample_meta(0, 3)]),
            None
        );
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
        // The run tag round-trips through the v3 frame.
        assert_eq!(atlas.shard_metas(), &[a, b, c]);
        // The run contributes max(4096, 5120) once; the standalone
        // process adds its own 1024 — never 4096 + 5120 + 1024.
        assert_eq!(
            ShardMeta::rss_summary(atlas.shard_metas()),
            Some((5120, 6144))
        );
        assert_eq!(ShardMeta::process_count(atlas.shard_metas()), 2);
        // The orchestrator stamps an identical frontier share per range,
        // so the counter fold is unaffected by the run tag.
        assert!(ShardMeta::merged_counters(atlas.shard_metas()).is_some());
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
        assert_eq!(out.get(&records[0].key), Some(&records[0]));

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
}
