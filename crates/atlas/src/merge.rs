//! Folding per-shard atlas segments into one coverage-complete store.
//!
//! A sharded sweep leaves `m` segment files, each holding one
//! contiguous parent-range's records plus a [`ShardMeta`] frame
//! (`--shard i/m --atlas seg-i` on the sweep binaries). This module —
//! and the `shard_merge` binary wrapping it — folds them into a single
//! [`ClassificationAtlas`]: records and coverage frames merge under the
//! conflict semantics of [`ClassificationAtlas::merge_from`] (identical
//! duplicates dedup, divergence is a typed error, never
//! last-write-wins), and complete partitions promote to coverage
//! declarations so `--atlas`-warm runs replay the whole catalogue.
//!
//! Merging is incremental: fold segments as they finish, in any order,
//! across any number of `shard_merge` invocations — coverage is
//! declared on whichever merge completes a partition.
//!
//! Segments are folded one block at a time, so a merge holds no more
//! than one segment block and the output's location table. A v3
//! segment from an older build is refused with a typed
//! [`AtlasError::VersionMismatch`] naming `atlas_compact`: compact it
//! first, then fold.
//!
//! The in-process orchestrator (`--shards auto` on the sweep binaries)
//! reproduces these merge semantics without intermediate segment files:
//! completed ranges append straight into one store and coverage is
//! declared when the partition closes. This file-level fold is for
//! sweeps distributed across machines or runs too large for one
//! process's lifetime.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::shard::{ShardMeta, ShardPartition};
use crate::store::{AtlasError, ClassificationAtlas, RecoveryReport, ShardCoverage};

/// What one [`merge_segments`] call did, plus the output store's
/// per-order coverage status afterwards.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Segment files folded in.
    pub segments: usize,
    /// Records newly appended across all segments.
    pub appended: usize,
    /// Records skipped as identical duplicates.
    pub duplicates: usize,
    /// Shard-metadata entries newly appended.
    pub metas_added: usize,
    /// Segments whose torn tail was truncated before folding — always
    /// empty outside [`merge_segments_recovering`].
    pub salvaged: Vec<(PathBuf, RecoveryReport)>,
    /// Per-order coverage outcome after the fold.
    pub coverage: Vec<(usize, ShardCoverage)>,
}

/// A merge failure, carrying which segment file it surfaced in (the
/// output store keeps every frame appended before the conflict — remove
/// or fix the offending segment and re-run).
#[derive(Debug)]
pub struct SegmentError {
    /// The segment being folded when the error occurred, or the output
    /// path for coverage-declaration failures.
    pub path: PathBuf,
    /// The underlying store error.
    pub error: AtlasError,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Folds every segment file into `out` and declares coverage for each
/// order whose shard set became a complete partition
/// ([`ClassificationAtlas::declare_sharded_coverage`]).
///
/// # Errors
///
/// [`SegmentError`] wrapping the first conflict or I/O failure; frames
/// merged before it stay merged (the fold is resumable).
pub fn merge_segments(
    out: &mut ClassificationAtlas,
    segments: &[impl AsRef<Path>],
) -> Result<MergeReport, SegmentError> {
    bnf_obs::Recorder::global().time("merge", || merge_segments_inner(out, segments, false))
}

/// [`merge_segments`], but a segment whose producer died mid-append is
/// **salvaged** instead of refused: its torn tail is truncated off (in
/// place, via [`ClassificationAtlas::open_recovering`]) and the clean
/// frame prefix folds in normally. Every salvage is itemized in
/// [`MergeReport::salvaged`] — bytes are never dropped silently.
///
/// A tear usually lands on the segment's trailing [`ShardMeta`] frame,
/// so a salvaged shard typically folds its records but leaves its slot
/// unfilled ([`ShardCoverage::Incomplete`]): re-run that shard (its
/// surviving records dedup as identical duplicates) or re-stamp its
/// metadata, then fold again.
///
/// # Errors
///
/// As [`merge_segments`]; mid-store corruption (a fully-present frame
/// that fails to decode) is still a typed error, never a salvage.
pub fn merge_segments_recovering(
    out: &mut ClassificationAtlas,
    segments: &[impl AsRef<Path>],
) -> Result<MergeReport, SegmentError> {
    bnf_obs::Recorder::global().time("merge", || merge_segments_inner(out, segments, true))
}

/// The [`merge_segments`] body, split out so the `merge` telemetry span
/// covers the whole fold including the coverage declaration.
fn merge_segments_inner(
    out: &mut ClassificationAtlas,
    segments: &[impl AsRef<Path>],
    recover: bool,
) -> Result<MergeReport, SegmentError> {
    let mut report = MergeReport {
        segments: segments.len(),
        appended: 0,
        duplicates: 0,
        metas_added: 0,
        salvaged: Vec::new(),
        coverage: Vec::new(),
    };
    for path in segments {
        let path = path.as_ref();
        let wrap = |error| SegmentError {
            path: path.to_path_buf(),
            error,
        };
        // `open` creates missing or empty stores — right for the
        // output, wrong for an input: a typo'd segment path must fail,
        // not fold an empty store it just invented. Inputs open without
        // creation, so an empty segment is torn inside its header:
        // refused by the strict fold, salvaged by the recovering one.
        if !path.exists() {
            return Err(wrap(AtlasError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "segment file does not exist",
            ))));
        }
        let segment = if recover {
            let recovered = ClassificationAtlas::recover(path, false).map_err(wrap)?;
            if recovered.report.was_torn() {
                report
                    .salvaged
                    .push((path.to_path_buf(), recovered.report.clone()));
            }
            recovered.atlas
        } else {
            ClassificationAtlas::open_strict(path, false).map_err(wrap)?
        };
        let outcome = out.merge_from(&segment).map_err(wrap)?;
        report.appended += outcome.appended;
        report.duplicates += outcome.duplicates;
        report.metas_added += outcome.metas_added;
    }
    report.coverage = out
        .declare_sharded_coverage()
        .map_err(|error| SegmentError {
            path: out.path().to_path_buf(),
            error,
        })?;
    let recorder = bnf_obs::Recorder::global();
    recorder.add("merge_segments", report.segments as u64);
    recorder.add("merge_appended", report.appended as u64);
    recorder.add("merge_duplicates", report.duplicates as u64);
    if !report.salvaged.is_empty() {
        recorder.add("merge_salvaged_segments", report.salvaged.len() as u64);
        recorder.add(
            "merge_salvaged_bytes",
            report.salvaged.iter().map(|(_, r)| r.dropped_bytes).sum(),
        );
    }
    Ok(report)
}

/// One human-readable line per shard slot, plus partition totals —
/// shared by `shard_merge` and the sweep binaries' warm-replay
/// diagnostics. Each order's slots are listed by `(shard_count,
/// shard_index)`, not in store order, so two merges of the same
/// segments render the same text whatever order they were folded in.
pub fn render_shard_report(metas: &[ShardMeta]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for own in ShardMeta::partitions(metas).chunk_by(|a, b| a.order == b.order) {
        let order = own[0].order;
        let mut group: Vec<ShardMeta> =
            metas.iter().filter(|m| m.order == order).cloned().collect();
        group.sort_by_key(|m| (m.shard_count, m.shard_index, m.frontier_len));
        for m in &group {
            // `unavailable` is an explicit outcome (non-Linux shard, no
            // /proc): a dash read as a placeholder someone forgot to
            // fill in.
            let rss = m.peak_rss_kb.map_or_else(
                || "unavailable".to_string(),
                |kb| format!("{:.1} MiB", kb as f64 / 1024.0),
            );
            // In-process orchestrated ranges share one process; their
            // RSS values are snapshots of the same high-water mark, not
            // independent per-process peaks.
            let origin = if m.orchestrator_run.is_some() {
                " (in-process range)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n={} shard {}/{}: parents {}..{} of {}, {} records, {} ms, peak RSS \
                 {}{origin}",
                m.order,
                m.shard_index,
                m.shard_count,
                m.parent_lo,
                m.parent_hi,
                m.frontier_len,
                m.emitted,
                m.elapsed_ms,
                rss,
            );
        }
        // Merged counters exist only for an order whose ranges form one
        // partition of one build.
        if let [ShardPartition {
            frontier_prune: Some(mut total),
            final_prune,
            ..
        }] = own
        {
            total.merge(final_prune);
            let _ = writeln!(
                out,
                "  n={order} merged enumeration counters: {} candidates, {} orbit-skipped, \
                 {} cheap-rejected, {} search-rejected, {} duplicates, {} accepted \
                 ({:.2} candidates/survivor)",
                total.candidates,
                total.orbit_skipped,
                total.cheap_rejected,
                total.search_rejected,
                total.duplicates,
                total.accepted(),
                total.candidates_per_survivor(),
            );
        }
        if let Some((max, sum)) = ShardMeta::rss_summary(&group) {
            let _ = writeln!(
                out,
                "  n={order} peak RSS across {} process(es): max {:.1} MiB, sum {:.1} MiB",
                ShardMeta::process_count(&group),
                max as f64 / 1024.0,
                sum as f64 / 1024.0,
            );
        }
        let wall: u64 = group.iter().map(|m| m.elapsed_ms).sum();
        let _ = writeln!(
            out,
            "  n={order} total shard wall-clock: {wall} ms across {} invocations",
            group.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnf_core::WindowRecord;
    use bnf_graph::{BfsScratch, Graph};
    use bnf_stream::PruneCounters;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-merge-test-{}-{k}-{tag}.bnfatlas",
            std::process::id()
        ))
    }

    /// Builds real order-4 records split across two segment files with
    /// consistent shard metadata, merges them, and checks the merged
    /// store replays the complete catalogue.
    #[test]
    fn segments_fold_into_coverage_complete_store() {
        let edges: [&[(usize, usize)]; 6] = [
            &[(0, 1), (1, 2), (2, 3)],
            &[(0, 1), (0, 2), (0, 3)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            &[(0, 1), (1, 2), (2, 0), (0, 3)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        ];
        let mut scratch = BfsScratch::new();
        let records: Vec<WindowRecord> = edges
            .iter()
            .map(|e| {
                let g = Graph::from_edges(4, e.iter().copied()).unwrap();
                WindowRecord::classify(&g, &mut scratch)
            })
            .collect();
        let meta = |index: u32, emitted: u64| ShardMeta {
            order: 4,
            shard_index: index,
            shard_count: 2,
            frontier_len: 2,
            parent_lo: u64::from(index),
            parent_hi: u64::from(index) + 1,
            emitted,
            elapsed_ms: 5,
            peak_rss_kb: Some(1024 * (1 + u64::from(index))),
            orchestrator_run: None,
            frontier_prune: PruneCounters::default(),
            final_prune: PruneCounters::default(),
        };
        let seg_paths = [scratch_path("seg0"), scratch_path("seg1")];
        for (i, path) in seg_paths.iter().enumerate() {
            let mut seg = ClassificationAtlas::open(path).unwrap();
            let slice = if i == 0 { &records[..2] } else { &records[2..] };
            seg.append_records(slice).unwrap();
            seg.append_shard_meta(&meta(i as u32, slice.len() as u64))
                .unwrap();
        }
        let out_path = scratch_path("out");
        let mut out = ClassificationAtlas::open(&out_path).unwrap();
        // First segment alone: incomplete.
        let partial = merge_segments(&mut out, &seg_paths[..1]).unwrap();
        assert_eq!(partial.appended, 2);
        assert_eq!(
            partial.coverage,
            vec![(4, ShardCoverage::Incomplete { have: 1, want: 2 })]
        );
        // Second merge completes the partition and declares coverage.
        let full = merge_segments(&mut out, &seg_paths).unwrap();
        assert_eq!(full.appended, 4);
        assert_eq!(full.duplicates, 2);
        assert_eq!(full.coverage, vec![(4, ShardCoverage::Declared(6))]);
        let replay = out.complete_sweep(4).expect("coverage declared");
        assert_eq!(replay.len(), 6);
        assert!(replay.windows(2).all(|w| w[0].edges <= w[1].edges));
        // The report renderer mentions every shard and both RSS stats.
        let text = render_shard_report(out.shard_metas());
        assert!(text.contains("shard 0/2"));
        assert!(text.contains("shard 1/2"));
        assert!(text.contains("peak RSS 1.0 MiB"));
        assert!(text.contains("max 2.0 MiB, sum 3.0 MiB"));
        // A missing segment path is a wrapped error naming the file.
        let missing = scratch_path("missing");
        let err = merge_segments(&mut out, std::slice::from_ref(&missing)).unwrap_err();
        assert!(err.to_string().contains(missing.to_str().unwrap()));
        for p in seg_paths.iter().chain([&out_path]) {
            std::fs::remove_file(p).ok();
        }
    }

    /// A producer killed mid-append leaves its segment ending inside
    /// the trailing `ShardMeta` frame. The strict fold must refuse it;
    /// the recovering fold salvages the clean record prefix, itemizes
    /// the dropped bytes, leaves the shard slot unfilled — and folding
    /// again after the slot is re-stamped completes coverage.
    #[test]
    fn recovering_merge_salvages_torn_final_segment() {
        let mut scratch = BfsScratch::new();
        let records: Vec<WindowRecord> =
            [&[(0, 1), (1, 2), (2, 3)][..], &[(0, 1), (0, 2), (0, 3)][..]]
                .iter()
                .map(|e| {
                    let g = Graph::from_edges(4, e.iter().copied()).unwrap();
                    WindowRecord::classify(&g, &mut scratch)
                })
                .collect();
        let meta = |index: u32, emitted: u64| ShardMeta {
            order: 4,
            shard_index: index,
            shard_count: 2,
            frontier_len: 2,
            parent_lo: u64::from(index),
            parent_hi: u64::from(index) + 1,
            emitted,
            elapsed_ms: 1,
            peak_rss_kb: None,
            orchestrator_run: None,
            frontier_prune: PruneCounters::default(),
            final_prune: PruneCounters::default(),
        };
        let seg_paths = [scratch_path("sv-seg0"), scratch_path("sv-seg1")];
        for (i, path) in seg_paths.iter().enumerate() {
            let mut seg = ClassificationAtlas::open(path).unwrap();
            seg.append_records(std::slice::from_ref(&records[i]))
                .unwrap();
            seg.append_shard_meta(&meta(i as u32, 1)).unwrap();
        }
        // Tear 5 bytes off segment 1: mid-ShardMeta-frame, exactly what
        // a SIGKILL during the final append leaves behind.
        let intact_len = std::fs::metadata(&seg_paths[1]).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg_paths[1])
            .unwrap();
        f.set_len(intact_len - 5).unwrap();
        drop(f);

        // The strict fold refuses the torn segment, naming it.
        let out_path = scratch_path("sv-out");
        let mut out = ClassificationAtlas::open(&out_path).unwrap();
        let err = merge_segments(&mut out, &seg_paths).unwrap_err();
        assert_eq!(err.path, seg_paths[1]);
        assert!(matches!(err.error, AtlasError::Corrupt { .. }), "{err}");

        // The recovering fold salvages it. The failed strict fold had
        // already merged segment 0 (frames merged before a conflict
        // stay merged), so this pass dedups segment 0 and appends only
        // the salvaged record; the torn shard slot stays unfilled.
        let report = merge_segments_recovering(&mut out, &seg_paths).unwrap();
        assert_eq!(report.appended, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.metas_added, 0);
        assert_eq!(report.salvaged.len(), 1);
        let (salvaged_path, recovery) = &report.salvaged[0];
        assert_eq!(salvaged_path, &seg_paths[1]);
        assert!(recovery.was_torn());
        assert_eq!(
            recovery.dropped_bytes,
            (intact_len - 5) - recovery.recovered_len,
            "every byte of the torn file is accounted for"
        );
        assert_eq!(
            report.coverage,
            vec![(4, ShardCoverage::Incomplete { have: 1, want: 2 })]
        );

        // Recovery truncated the segment in place, so the strict opener
        // accepts it now; re-stamp the lost slot and fold again.
        let mut seg1 = ClassificationAtlas::open(&seg_paths[1]).unwrap();
        assert_eq!(seg1.len(), 1, "salvage kept the record frame");
        seg1.append_shard_meta(&meta(1, 1)).unwrap();
        drop(seg1);
        let finished = merge_segments_recovering(&mut out, &seg_paths).unwrap();
        assert!(finished.salvaged.is_empty(), "nothing left to salvage");
        assert_eq!(finished.coverage, vec![(4, ShardCoverage::Declared(2))]);
        for p in seg_paths.iter().chain([&out_path]) {
            std::fs::remove_file(p).ok();
        }
    }

    /// A shard that could not measure its RSS (non-Linux producer) must
    /// say so explicitly; the per-order RSS summary over a group with
    /// no measurements is omitted entirely, not rendered as zero.
    #[test]
    fn report_renders_unavailable_rss_explicitly() {
        let meta = ShardMeta {
            order: 5,
            shard_index: 0,
            shard_count: 1,
            frontier_len: 3,
            parent_lo: 0,
            parent_hi: 3,
            emitted: 21,
            elapsed_ms: 2,
            peak_rss_kb: None,
            orchestrator_run: None,
            frontier_prune: PruneCounters::default(),
            final_prune: PruneCounters::default(),
        };
        let text = render_shard_report(std::slice::from_ref(&meta));
        assert!(text.contains("peak RSS unavailable"), "{text}");
        assert!(!text.contains("peak RSS -"), "{text}");
        assert!(!text.contains("max"), "{text}");
        // A mixed group still summarizes over the processes that did
        // measure, while the unmeasured shard keeps its explicit line.
        let measured = ShardMeta {
            shard_index: 1,
            shard_count: 2,
            peak_rss_kb: Some(3072),
            ..meta.clone()
        };
        let both = render_shard_report(&[
            ShardMeta {
                shard_count: 2,
                ..meta
            },
            measured,
        ]);
        assert!(both.contains("peak RSS unavailable"), "{both}");
        assert!(both.contains("peak RSS 3.0 MiB"), "{both}");
    }

    /// Segments folded in another order, or ranges committed in
    /// another completion order, store the same metas in another order:
    /// the report must not change.
    #[test]
    fn report_ignores_store_order() {
        let meta = |order: u16, shard_count: u32, shard_index: u32| ShardMeta {
            order,
            shard_index,
            shard_count,
            frontier_len: 8,
            parent_lo: u64::from(shard_index),
            parent_hi: u64::from(shard_index) + 1,
            emitted: 10 + u64::from(shard_index),
            elapsed_ms: 3 * u64::from(shard_index),
            peak_rss_kb: Some(1024 * (1 + u64::from(shard_index))),
            orchestrator_run: (shard_count == 4).then_some(9),
            frontier_prune: PruneCounters::default(),
            final_prune: PruneCounters::default(),
        };
        let sorted: Vec<ShardMeta> = [(5, 2, 0), (5, 2, 1), (5, 4, 0), (5, 4, 2), (6, 8, 7)]
            .iter()
            .map(|&(order, count, index)| meta(order, count, index))
            .collect();
        let expected = render_shard_report(&sorted);
        for shuffle in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 0, 3, 2, 4]] {
            let shuffled: Vec<ShardMeta> = shuffle.iter().map(|&i| sorted[i].clone()).collect();
            assert_eq!(render_shard_report(&shuffled), expected, "{shuffle:?}");
        }
        let slots: Vec<&str> = expected
            .lines()
            .filter(|l| l.contains(": parents "))
            .collect();
        assert_eq!(slots.len(), 5, "{expected}");
        assert!(slots[0].contains("n=5 shard 0/2") && slots[3].contains("n=5 shard 2/4"));
    }
}
