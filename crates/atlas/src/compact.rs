//! Streaming store compaction: rewrite an atlas into a fresh v4 store
//! with its records in global engine order — the `atlas_compact`
//! binary, and the only reader of v3 row stores left: a v3 store is
//! migrated here before anything else will open it.
//!
//! [`compact_store`] makes two passes, neither of which materializes
//! the catalogue:
//!
//! 1. **Scan**: walk the source frames once ([`crate::store`]'s frame
//!    walker), keeping only a light row per record — its engine key
//!    `(order, edges, sort word)` and its location, 32 bytes — plus the
//!    coverage and shard-metadata frames verbatim.
//! 2. **Gather + write**: sort the rows into global engine order, then
//!    read the records through the engine-order reader, which decodes
//!    each source block once however the source interleaves them, and
//!    pack them into [`crate::codec`] blocks. Provenance (shard
//!    metadata) and coverage frames are copied through unchanged, so
//!    `--resume` bookkeeping and warm replay gates survive the rewrite.
//!
//! The output is written to `<dst>.tmp` and atomically renamed over
//! `dst`, so a crashed compaction never leaves a half-written store —
//! and in-place compaction (`dst == src`) is safe. A `<store>.idx`
//! sidecar built over the source self-invalidates (the store length
//! changes); rebuild it with [`crate::build_index`] afterwards.
//!
//! Identical duplicate records (legal in the source: idempotent
//! re-appends may sit on disk twice) collapse to the last occurrence,
//! as in every reader. Equality of the engine key identifies the
//! canonical graph exactly for every enumerable order (n ≤ 11 — the
//! packed triangle fits the sort word), the same assumption every
//! engine-order replay rests on.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;

use crate::codec::BLOCK_RECORDS;
use crate::store::{
    corrupt_at, engine_key, engine_order, walk, write_block_frame, AtlasError, Cursor, Frame, Loc,
    OrderedReader, ATLAS_MAGIC, ATLAS_VERSION,
};

/// What [`compact_store`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactSummary {
    /// Output store path.
    pub path: PathBuf,
    /// Format version of the source store (3 or 4); the output is
    /// always [`ATLAS_VERSION`].
    pub source_version: u32,
    /// Records written (after identical-duplicate collapse).
    pub records: u64,
    /// Columnar block frames written.
    pub frames: u64,
    /// Source store size in bytes.
    pub input_bytes: u64,
    /// Output store size in bytes.
    pub output_bytes: u64,
    /// Highest order with at least one record (0 when empty).
    pub max_order: u16,
}

impl CompactSummary {
    /// Output bytes per record, the gated size metric — `None` for an
    /// empty store.
    pub fn bytes_per_record(&self) -> Option<f64> {
        (self.records > 0).then(|| self.output_bytes as f64 / self.records as f64)
    }

    /// Input/output size ratio (> 1 means the store shrank) — `None`
    /// for an empty output.
    pub fn shrink_ratio(&self) -> Option<f64> {
        (self.output_bytes > 0).then(|| self.input_bytes as f64 / self.output_bytes as f64)
    }
}

/// Rewrites the v3 or v4 store at `src` as a v4 store at `dst`
/// (`dst == src` compacts in place), returning what was written. See
/// the module docs for the two-pass shape and the guarantees.
///
/// # Errors
///
/// [`AtlasError::BadMagic`] / [`AtlasError::VersionMismatch`] for a
/// foreign or unreadable source header; [`AtlasError::Corrupt`] for
/// malformed source bytes — a torn tail counts here: recover the source
/// first ([`crate::ClassificationAtlas::open_recovering`]), then
/// compact; [`AtlasError::Io`] on filesystem failure.
pub fn compact_store(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
) -> Result<CompactSummary, AtlasError> {
    let src = src.as_ref();
    let dst = dst.as_ref();
    bnf_obs::Recorder::global().time("atlas_compact", || compact_store_inner(src, dst))
}

fn compact_store_inner(src: &Path, dst: &Path) -> Result<CompactSummary, AtlasError> {
    // Pass 1: walk the source once into engine-keyed locations plus
    // carried frames.
    let source = File::open(src)?;
    let input_bytes = source.metadata()?.len();
    let mut rows = Vec::new();
    let mut carried: Vec<Vec<u8>> = Vec::new(); // coverage + shard frames, file order
    let end = walk(&source, true, |offset, payload, frame| {
        match frame {
            Frame::Records(records) => {
                for (ordinal, rec) in records.iter().enumerate() {
                    let key = engine_key(rec).map_err(corrupt_at(offset))?;
                    rows.push((key, Loc::new(offset, ordinal)));
                }
            }
            Frame::Coverage { .. } | Frame::Shard(_) => carried.push(payload.to_vec()),
        }
        Ok(())
    })?
    .strict()?;
    engine_order(&mut rows);
    let records = rows.len() as u64;
    let max_order = rows.last().map_or(0, |r| r.0 .0);

    // Pass 2: gather the records in engine order into a temporary,
    // renamed into place on success.
    let tmp_path = {
        let mut name = dst.as_os_str().to_owned();
        name.push(".tmp");
        PathBuf::from(name)
    };
    let mut reader = OrderedReader::new(&source, end.clean_len, end.version);
    rows.iter().for_each(|r| reader.list(r.1));
    let frames = match write_target(&tmp_path, &rows, reader, &carried) {
        Ok(frames) => frames,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
    };
    std::fs::rename(&tmp_path, dst)?;
    let output_bytes = std::fs::metadata(dst)?.len();

    let recorder = bnf_obs::Recorder::global();
    recorder.add("compact_records", records);
    recorder.add("compact_frames", frames);
    recorder.add("compact_output_bytes", output_bytes);
    Ok(CompactSummary {
        path: dst.to_path_buf(),
        source_version: end.version,
        records,
        frames,
        input_bytes,
        output_bytes,
        max_order,
    })
}

/// Writes the full target store (header, record blocks, carried
/// frames) to `path`, durably; returns the block count.
fn write_target(
    path: &Path,
    rows: &[((u16, u64, u64), Loc)],
    mut reader: OrderedReader<'_>,
    carried: &[Vec<u8>],
) -> Result<u64, AtlasError> {
    let f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    let mut w = BufWriter::new(f);
    w.write_all(&ATLAS_MAGIC)?;
    w.write_all(&ATLAS_VERSION.to_le_bytes())?;

    let mut payload = Vec::new();
    for chunk in rows.chunks(BLOCK_RECORDS) {
        let block = chunk
            .iter()
            .map(|row| reader.take(row.1))
            .collect::<Result<Vec<_>, _>>()?;
        write_block_frame(&mut w, &mut payload, &mut block.iter().collect())?;
    }
    for frame in carried {
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(frame)?;
    }
    w.flush()?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(rows.len().div_ceil(BLOCK_RECORDS) as u64)
}

/// Decodes one v3 row frame body (after the tag byte) — the v3 record
/// reader compaction keeps. Layout: `u16` key length and key, `u16`
/// order, `u32` edges, `u64` total distance, then tagged stability and
/// transfer windows and the counted UCG intervals, with `i64/i64`
/// ratios (see `docs/ATLAS_FORMAT.md`).
pub(crate) fn decode_row(body: &[u8]) -> Result<WindowRecord, String> {
    fn ratio(c: &mut Cursor<'_>) -> Result<Ratio, String> {
        let (num, den) = (c.i64()?, c.i64()?);
        if den == 0 {
            return Err("ratio with zero denominator".into());
        }
        // The v4 codec's check: no well-formed `Ratio` stores a term
        // whose magnitude `Ratio::new` cannot hold.
        if num == i64::MIN || den == i64::MIN {
            return Err("ratio term i64::MIN has no magnitude in i64".into());
        }
        Ok(Ratio::new(num, den))
    }
    fn threshold(c: &mut Cursor<'_>) -> Result<Threshold, String> {
        match c.u8()? {
            0 => Ok(Threshold::Finite(ratio(c)?)),
            1 => Ok(Threshold::Infinite),
            t => Err(format!("unknown threshold tag {t}")),
        }
    }
    fn interval(c: &mut Cursor<'_>) -> Result<ClosedInterval, String> {
        Ok(ClosedInterval {
            lo: ratio(c)?,
            hi: threshold(c)?,
        })
    }
    let mut c = Cursor::new(body);
    let key_len = usize::from(c.u16()?);
    let key = std::str::from_utf8(c.take(key_len)?)
        .map_err(|_| "key is not UTF-8".to_string())?
        .to_string();
    let order = u32::from(c.u16()?);
    let edges = u64::from(c.u32()?);
    let total_distance = c.u64()?;
    let stability = match c.u8()? {
        0 => None,
        1 => {
            let value = ratio(&mut c)?;
            let inclusive = match c.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("unknown inclusivity tag {t}")),
            };
            let upper = threshold(&mut c)?;
            Some(StabilityWindow {
                lower: LowerBound { value, inclusive },
                upper,
            })
        }
        t => return Err(format!("unknown stability tag {t}")),
    };
    let transfer = match c.u8()? {
        0 => None,
        1 => Some(interval(&mut c)?),
        t => return Err(format!("unknown transfer tag {t}")),
    };
    let n_support = usize::from(c.u16()?);
    let ucg_support = (0..n_support)
        .map(|_| interval(&mut c))
        .collect::<Result<Vec<_>, _>>()?;
    if c.remaining() != 0 {
        return Err(format!("{} trailing bytes after record", c.remaining()));
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
    use crate::store::ClassificationAtlas;
    use bnf_graph::Graph;

    fn scratch_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-compact-{tag}-{}-{n}.bnfatlas",
            std::process::id()
        ))
    }

    /// The committed v3 fixture: the n = 6 catalogue (112 records, one
    /// row frame each) and its coverage frame, written by the last
    /// build that still wrote v3.
    const V3_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v3-n6.bnfatlas");

    /// The fixture's catalogue classified afresh, in engine order.
    fn n6_reference() -> Vec<WindowRecord> {
        let mut scratch = bnf_graph::BfsScratch::new();
        let mut records = Vec::new();
        bnf_stream::for_each_connected(6, |g, _| {
            records.push(WindowRecord::classify(&g, &mut scratch));
        });
        records.sort_by_key(|r| engine_key(r).unwrap());
        records
    }

    /// All 6 connected topologies on 4 vertices, classified.
    fn n4_records() -> Vec<WindowRecord> {
        let mut scratch = bnf_graph::BfsScratch::new();
        [
            &[(0, 1), (1, 2), (2, 3)][..],
            &[(0, 1), (0, 2), (0, 3)][..],
            &[(0, 1), (1, 2), (2, 3), (3, 0)][..],
            &[(0, 1), (1, 2), (2, 0), (0, 3)][..],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)][..],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)][..],
        ]
        .iter()
        .map(|edges| {
            let g = Graph::from_edges(4, edges.iter().copied()).unwrap();
            WindowRecord::classify(&g, &mut scratch)
        })
        .collect()
    }

    /// A v4 store of the n = 4 catalogue, appended out of engine order.
    fn build_store(path: &Path) -> Vec<WindowRecord> {
        let records = n4_records();
        let mut atlas = ClassificationAtlas::open(path).unwrap();
        atlas.append_records(records.iter().rev().take(3)).unwrap();
        atlas.append_records(records.iter()).unwrap();
        atlas.mark_complete(4, records.len()).unwrap();
        records
    }

    #[test]
    fn v3_to_v4_preserves_catalogue_coverage_and_replay() {
        let src = scratch_path("v3src");
        let dst = scratch_path("v4dst");
        std::fs::write(&src, V3_FIXTURE).unwrap();
        let reference = n6_reference();

        let summary = compact_store(&src, &dst).unwrap();
        assert_eq!(summary.source_version, 3);
        assert_eq!(summary.records, 112);
        assert_eq!(summary.frames, 1, "112 records fit one block");
        assert_eq!(summary.max_order, 6);
        assert!(summary.shrink_ratio().unwrap() >= 2.5);

        let compacted = ClassificationAtlas::open(&dst).unwrap();
        assert_eq!(&std::fs::read(&dst).unwrap()[8..12], &4u32.to_le_bytes());
        assert_eq!(compacted.len(), reference.len());
        assert_eq!(compacted.coverage(6), Some(112));
        assert_eq!(compacted.complete_sweep(6).unwrap(), reference);
        assert!(compacted.shard_metas().is_empty());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn in_place_compaction_is_atomic_and_lossless() {
        let path = scratch_path("inplace");
        build_store(&path);
        let reference = ClassificationAtlas::open(&path).unwrap().complete_sweep(4);
        let before = std::fs::metadata(&path).unwrap().len();

        let summary = compact_store(&path, &path).unwrap();
        assert_eq!(summary.source_version, 4);
        assert_eq!(summary.input_bytes, before);
        assert_eq!(
            summary.output_bytes,
            std::fs::metadata(&path).unwrap().len()
        );
        assert!(summary.bytes_per_record().unwrap() > 0.0);

        let compacted = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(compacted.complete_sweep(4), reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_store_serves_through_the_mapped_seam() {
        let src = scratch_path("mapsrc");
        let dst = scratch_path("mapdst");
        std::fs::write(&src, V3_FIXTURE).unwrap();
        let expected = n6_reference();
        compact_store(&src, &dst).unwrap();
        crate::build_index(&dst).unwrap();
        let mapped = crate::MappedAtlas::open(&dst).unwrap();
        for rec in &expected {
            assert_eq!(mapped.lookup(&rec.key).unwrap().as_ref(), Some(rec));
        }
        let mut streamed = Vec::new();
        assert_eq!(
            mapped.stream_sweep(6, |r| streamed.push(r)).unwrap(),
            Some(expected.len() as u64)
        );
        assert_eq!(streamed, expected);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
        std::fs::remove_file(crate::index_path(&dst)).ok();
    }

    #[test]
    fn empty_store_compacts_to_an_empty_store() {
        let src = scratch_path("emptysrc");
        let dst = scratch_path("emptydst");
        std::fs::write(&src, &V3_FIXTURE[..12]).unwrap(); // a bare v3 header
        let summary = compact_store(&src, &dst).unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.bytes_per_record(), None);
        assert!(ClassificationAtlas::open(&dst).unwrap().is_empty());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    /// A v3 store of one row frame — the order-2 edge `A_` — whose
    /// stability lower bound is the ratio `num/den`.
    fn v3_one_row(num: i64, den: i64) -> Vec<u8> {
        let mut row = vec![1u8]; // the v3 row frame tag
        row.extend_from_slice(&2u16.to_le_bytes());
        row.extend_from_slice(b"A_");
        row.extend_from_slice(&2u16.to_le_bytes()); // order
        row.extend_from_slice(&1u32.to_le_bytes()); // edges
        row.extend_from_slice(&2u64.to_le_bytes()); // total distance
        row.push(1); // a stability window: lower bound num/den, exclusive, no upper
        row.extend_from_slice(&num.to_le_bytes());
        row.extend_from_slice(&den.to_le_bytes());
        row.extend_from_slice(&[0, 1]);
        row.push(0); // no transfer window
        row.extend_from_slice(&0u16.to_le_bytes()); // no UCG intervals
        let mut bytes = ATLAS_MAGIC.to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&(row.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&row);
        bytes
    }

    #[test]
    fn v3_ratio_with_an_i64_min_term_is_corrupt_and_writes_nothing() {
        let src = scratch_path("v3min");
        let dst = scratch_path("v3min-out");
        std::fs::write(&src, v3_one_row(0, 1)).unwrap();
        assert_eq!(compact_store(&src, &dst).unwrap().records, 1);
        std::fs::remove_file(&dst).unwrap();
        for (num, den) in [(i64::MIN, 1), (1, i64::MIN), (i64::MIN, i64::MIN)] {
            let bytes = v3_one_row(num, den);
            std::fs::write(&src, &bytes).unwrap();
            match compact_store(&src, &dst) {
                Err(AtlasError::Corrupt { offset, reason }) => {
                    assert_eq!(offset, 12, "{num}/{den}");
                    assert_eq!(reason, "ratio term i64::MIN has no magnitude in i64");
                }
                other => panic!("{num}/{den}: expected Corrupt, got {other:?}"),
            }
            assert!(!dst.exists(), "{num}/{den}: output written");
            assert_eq!(std::fs::read(&src).unwrap(), bytes, "source touched");
        }
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn unsupported_source_version_is_rejected() {
        let src = scratch_path("badver");
        for found in [2u32, 5] {
            let mut bytes = ATLAS_MAGIC.to_vec();
            bytes.extend_from_slice(&found.to_le_bytes());
            std::fs::write(&src, &bytes).unwrap();
            match compact_store(&src, &src) {
                Err(AtlasError::VersionMismatch { found: f }) => assert_eq!(f, found),
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&src).ok();
    }
}
