//! Folds per-shard atlas segments into one coverage-complete
//! classification atlas — the merge half of the multi-process sharded
//! sweep (see `crates/atlas/README.md`, "Sharded sweeps").
//!
//! Usage: `shard_merge --out merged.bnfatlas [--recover]
//! [--report-json report.json] seg0.bnfatlas seg1.bnfatlas …`
//!
//! Each segment's records and shard metadata fold into `--out` under
//! the strict conflict semantics (identical duplicates dedup cleanly;
//! divergent records, coverage counts or shard slots are hard errors —
//! exit 1 with the offending file named). When the folded shard set
//! completes a partition of some order, complete coverage is declared
//! and warm `--atlas` runs replay the whole catalogue without
//! enumerating. Merging is incremental: fold segments as they finish,
//! in any order, across any number of invocations.
//!
//! `--recover` salvages segments whose producer died mid-append: the
//! torn tail is truncated off in place, the clean frame prefix folds
//! normally, and every salvage is printed with its dropped byte count
//! (and counted in the manifest). A tear usually lands on the trailing
//! shard-metadata frame, so the salvaged shard's slot stays unfilled —
//! re-run that shard (surviving records dedup) and fold again.
//! Mid-store corruption is still a hard error, with or without the
//! flag.
//!
//! The report — per-shard wall-clock and peak RSS (max and sum across
//! the shard *processes*, which a single-process `VmHWM` read would
//! understate ~m-fold), merged enumeration counters, coverage status —
//! goes to stdout in plain lines so CI can upload it as an artifact;
//! `--report-json` writes the same numbers as a versioned
//! [`bnf_obs::RunManifest`] with one shard-provenance entry per stored
//! shard slot.
//!
//! Flag mistakes — an unknown flag, a flag without its value, a missing
//! `--out` or no segment at all — print one `error:` line and exit 2
//! before any work.

use std::process::ExitCode;

use bnf_atlas::{
    merge_segments, merge_segments_recovering, render_shard_report, ClassificationAtlas,
    ShardCoverage, ShardMeta,
};
use bnf_obs::cli::Flags;

const USAGE: &str = "shard_merge --out merged.bnfatlas [--recover] [--report-json report.json] \
     segment.bnfatlas ...";

fn main() -> ExitCode {
    let (flags, segments) = Flags::parse(&["--out", "--report-json"], &["--recover"], true, USAGE);
    let out_path = flags.require("--out");
    if segments.is_empty() {
        flags.fail("no segment files given");
    }
    // Scope the global recorder to this invocation so the manifest's
    // `merge` span covers exactly this fold.
    bnf_obs::Recorder::global().take();
    let merge_started = std::time::Instant::now();
    let mut out = match ClassificationAtlas::open(out_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot open output atlas {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fold = if flags.switch("--recover") {
        merge_segments_recovering(&mut out, &segments)
    } else {
        merge_segments(&mut out, &segments)
    };
    let report = match fold {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: merge failed at {e}");
            return ExitCode::FAILURE;
        }
    };
    // The manifest goes first: a path that cannot be written is one
    // `error:` line with nothing on stdout, not a report followed by a
    // failure.
    if let Some(path) = flags.get("--report-json") {
        let mut manifest = bnf_obs::RunManifest::new("shard_merge", 0, "merge");
        manifest.emitted = out.len() as u64;
        manifest.elapsed_ms = merge_started.elapsed().as_millis() as u64;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.set_counter("shard_slots", out.shard_metas().len() as u64);
        manifest.shards = out
            .shard_metas()
            .iter()
            .map(ShardMeta::provenance)
            .collect();
        if let Err(e) = manifest.write(path) {
            eprintln!("error: cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (path, recovery) in &report.salvaged {
        println!("salvaged {}: {recovery}", path.display());
    }
    println!(
        "merged {} segments into {out_path}: {} records appended, {} identical duplicates \
         skipped, {} shard slots added ({} stored records)",
        report.segments,
        report.appended,
        report.duplicates,
        report.metas_added,
        out.len(),
    );
    print!("{}", render_shard_report(out.shard_metas()));
    for (order, status) in &report.coverage {
        match status {
            ShardCoverage::Declared(count) => {
                println!("coverage: order {order} complete with {count} topologies — warm runs replay from this store");
            }
            ShardCoverage::AlreadyDeclared(count) => {
                println!("coverage: order {order} was already complete ({count} topologies)");
            }
            ShardCoverage::Incomplete { have, want } => {
                println!("coverage: order {order} incomplete — {have}/{want} shards merged so far");
            }
            ShardCoverage::CountMismatch { emitted, stored } => {
                println!(
                    "coverage: order {order} NOT declared — shards emitted {emitted} records \
                     but the store holds {stored} of that order (mixed provenance?)"
                );
            }
        }
    }
    ExitCode::SUCCESS
}
