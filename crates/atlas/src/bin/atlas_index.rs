//! Builds (or rebuilds) the `<store>.idx` index sidecar over an atlas
//! store — the one-time pass that turns the append-only store into a
//! random-access catalogue for `MappedAtlas` and `bnf-serve`.
//!
//! Usage: `atlas_index --atlas store.bnfatlas [--report-json report.json]`
//!
//! The walk streams the store frame by frame (no record map, no
//! replay), sorts the key table, and writes the sidecar atomically
//! (tmp + rename), so an interrupted build never leaves a torn index.
//! Rerun after every store mutation — `MappedAtlas::open` rejects a
//! stale sidecar rather than serving wrong offsets. Flag mistakes print
//! one `error:` line and exit 2. See `docs/ATLAS_FORMAT.md` for the
//! sidecar layout.

use std::process::ExitCode;

use bnf_atlas::build_index;
use bnf_obs::cli::Flags;

fn main() -> ExitCode {
    let (flags, _) = Flags::parse(
        &["--atlas", "--report-json"],
        &[],
        false,
        "atlas_index --atlas store.bnfatlas [--report-json report.json]",
    );
    let store = flags.require("--atlas");
    bnf_obs::Recorder::global().take();
    let started = std::time::Instant::now();
    let summary = match build_index(store) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: index build failed for {store}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "indexed {store}: {} records, {} bytes of sidecar at {}",
        summary.records,
        summary.index_bytes,
        summary.path.display(),
    );
    for (order, count) in &summary.sweeps {
        println!("engine-order table: order {order} with {count} records");
    }
    if let Some(path) = flags.get("--report-json") {
        let max_order = summary.sweeps.iter().map(|&(o, _)| o).max().unwrap_or(0);
        let mut manifest = bnf_obs::RunManifest::new("atlas_index", u32::from(max_order), "index");
        manifest.emitted = summary.records;
        manifest.elapsed_ms = started.elapsed().as_millis() as u64;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.set_counter("index_sweep_tables", summary.sweeps.len() as u64);
        manifest.set_counter("index_key_width", u64::from(summary.key_width));
        if let Err(e) = manifest.write(path) {
            eprintln!("error: cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
