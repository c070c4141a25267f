//! Rewrites an atlas store as a compacted v4 store: packed columnar
//! blocks in global engine order — and the migration path for v3 row
//! stores, which nothing else in this build opens.
//!
//! Usage: `atlas_compact --atlas store.bnfatlas [--out compacted.bnfatlas]
//! [--report-json report.json]`
//!
//! Without `--out` the store is compacted in place; either way the
//! rewrite lands in a temporary file renamed over the destination, so
//! an interrupted run never leaves a half-written store. Records come
//! out in global engine order `(order, edges, canonical key)`
//! regardless of the source's append order, and coverage +
//! shard-provenance frames are carried through unchanged, so warm
//! replays and `--resume` gates are unaffected. A `<store>.idx` sidecar
//! over the source is invalidated by the rewrite — rerun `atlas_index`
//! afterwards. Flag mistakes print one `error:` line and exit 2.
//!
//! The run manifest (`--report-json`) carries the gated size metric
//! `manifest/atlas_bytes_per_record/{max_order}`.

use std::process::ExitCode;

use bnf_atlas::{compact_store, ATLAS_VERSION};
use bnf_obs::cli::Flags;

const USAGE: &str =
    "atlas_compact --atlas store.bnfatlas [--out compacted.bnfatlas] [--report-json report.json]";

fn main() -> ExitCode {
    let (flags, _) = Flags::parse(&["--atlas", "--out", "--report-json"], &[], false, USAGE);
    let store = flags.require("--atlas");
    let out = flags.get("--out").unwrap_or(store);

    bnf_obs::Recorder::global().take();
    let started = std::time::Instant::now();
    let summary = match compact_store(store, out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: compaction failed for {store}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "compacted {store} (v{}) -> {} (v{ATLAS_VERSION}): {} records in {} frames, {} -> {} bytes{}",
        summary.source_version,
        summary.path.display(),
        summary.records,
        summary.frames,
        summary.input_bytes,
        summary.output_bytes,
        summary
            .shrink_ratio()
            .map(|r| format!(" ({r:.2}x)"))
            .unwrap_or_default(),
    );
    println!(
        "rebuild the index sidecar: atlas_index --atlas {}",
        summary.path.display()
    );

    if let Some(path) = flags.get("--report-json") {
        let mut manifest =
            bnf_obs::RunManifest::new("atlas_compact", u32::from(summary.max_order), "compact");
        manifest.emitted = summary.records;
        manifest.elapsed_ms = started.elapsed().as_millis() as u64;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.set_counter("compact_input_bytes", summary.input_bytes);
        manifest.set_counter("compact_source_version", u64::from(summary.source_version));
        if let Some(bpr) = summary.bytes_per_record() {
            manifest.push_metric(
                &format!("manifest/atlas_bytes_per_record/{}", summary.max_order),
                bpr,
            );
        }
        if let Err(e) = manifest.write(path) {
            eprintln!("error: cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
