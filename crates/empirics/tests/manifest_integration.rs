//! Cross-layer telemetry integration: the run manifest built from an
//! orchestrated sweep must carry *exactly* the counters an unsharded
//! enumeration computes — the counter-recombination law (frontier
//! prune once + Σ per-range final prune) surfaced through `bnf-obs` —
//! and the document must survive a serialize → parse round trip.

use bnf_empirics::build_sweep_manifest;
use bnf_empirics::sweep::{WindowJob, WindowSweep};
use bnf_engine::{Analysis, WorkerScratch};
use bnf_obs::RunManifest;

const N: usize = 7;

/// The references: the materialized catalogue classified in a plain
/// loop, and the serial enumeration's ground-truth `StreamStats`.
fn unsharded() -> (WindowSweep, bnf_stream::StreamStats) {
    let mut scratch = WorkerScratch::new();
    let records = bnf_enumerate::connected_graphs(N)
        .iter()
        .map(|g| WindowJob.classify(g, &mut scratch))
        .collect();
    let stats = bnf_stream::for_each_connected_stats(N, |_, _| {});
    (WindowSweep { n: N, records }, stats)
}

#[test]
fn orchestrated_manifest_counters_equal_unsharded_stats_exactly() {
    let (base_windows, base_stats) = unsharded();
    let (windows, orch) = WindowSweep::run_orchestrated(N, 2, None, None, |_| {});
    assert_eq!(
        windows.records, base_windows.records,
        "byte-identical output"
    );

    let manifest = build_sweep_manifest(N, "orchestrated", 0, &windows, Some(&orch.stats));
    // Every named pruning counter matches the unsharded run exactly —
    // not approximately: the frontier is counted once and the
    // final-level shares recombine losslessly.
    for (name, want) in base_stats.prune.named() {
        assert_eq!(
            manifest.counter(name),
            Some(want),
            "counter {name} diverged from the unsharded StreamStats"
        );
    }
    assert_eq!(manifest.level_sizes, base_stats.level_sizes);
    assert_eq!(manifest.emitted, base_stats.emitted());
    assert_eq!(
        manifest.emitted, 853,
        "A001349: connected graphs on 7 vertices"
    );

    // The gated metric is seeded from the same counters.
    let ratio = manifest
        .metrics
        .iter()
        .find(|m| m.id == format!("manifest/candidates_per_survivor/{N}"))
        .expect("gated metric present");
    assert_eq!(ratio.value, base_stats.prune.candidates_per_survivor());
}

#[test]
fn sweep_manifest_round_trips_through_json() {
    let (windows, orch) = WindowSweep::run_orchestrated(N, 2, None, None, |_| {});
    let stats = orch.stats;
    let mut manifest = build_sweep_manifest(N, "orchestrated", 42, &windows, Some(&stats));
    manifest.set_counter("atlas_hits", 0);
    manifest.set_counter("atlas_appended", windows.records.len() as u64);
    let parsed = RunManifest::from_json(&manifest.to_json()).expect("valid manifest");
    assert_eq!(parsed, manifest);
    // The stderr report renders from the same document, so the numbers
    // it shows are the numbers the JSON carries.
    let report = bnf_obs::render_run_report(&parsed);
    assert!(report.contains("classified 853 topologies"), "{report}");
    assert!(
        report.contains(&format!("{} candidates", stats.prune.candidates)),
        "{report}"
    );
}
