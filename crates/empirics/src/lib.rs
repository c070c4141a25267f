//! Empirical harness reproducing the evaluation of Corbo & Parkes
//! (PODC 2005).
//!
//! Each figure of the paper has a module and a binary:
//!
//! | Paper item | Module | Binary |
//! |---|---|---|
//! | Figure 1 (stable-graph gallery) | [`gallery`] | `fig1_gallery` |
//! | Figure 2 (average PoA vs link cost) | [`sweep`] | `fig2_avg_poa` |
//! | Figure 3 (average #links vs link cost) | [`sweep`] | `fig3_avg_links` |
//! | Propositions 3–4 (PoA bounds) | [`bounds`] | `poa_bounds` |
//! | Lemma 6 (cycle windows) | [`cycles`] | `lemma6_cycles` |
//! | Lemmas 4–5 (efficiency) | [`efficiency`] | `efficiency_scan` |
//!
//! Run any of them with `cargo run --release -p bnf-empirics --bin <name>`.
//!
//! Every module is a thin job definition over `bnf-engine`'s
//! [`AnalysisEngine`](bnf_engine::AnalysisEngine): the engine owns
//! enumeration, work-stealing execution and per-worker scratch reuse;
//! the modules own only what to compute per item and how to aggregate.
//!
//! The sweep-driven binaries accept `--streaming` to classify
//! topologies as the enumeration generates them: bit-identical output,
//! no materialized graph list (the enumeration side holds one level's
//! frontier — see `bnf-stream`; the classified records themselves still
//! scale with the topology count). All exhaustive scans honour the
//! `BNF_MAX_N` environment variable ([`max_sweep_n`]) so `n = 9/10`
//! opt-ins need no recompile.
//!
//! Classification is **windows-first** ([`sweep::WindowSweep`]): each
//! topology yields one α-independent window record, any α grid is a
//! post-pass ([`grid`], `--grid paper|linear:..|log2:..`), and
//! `--atlas <path>` persists the records in an append-only store
//! ([`bnf_atlas::ClassificationAtlas`]) so re-runs — finer grids,
//! `--streaming`, follow-up workloads — skip classification for keys
//! already seen.
//!
//! Paper-scale sweeps run the **in-process orchestrator**: `--shards
//! auto` (optionally `--jobs N` for the worker count) builds the parent
//! frontier once, splits it into ≈ 16× threads work-stolen ranges, and
//! streams completed ranges straight into the `--atlas` store with
//! coverage declared when the partition closes — one command, one
//! process, one VmHWM. The multi-process escape hatch remains: `--shard
//! i/m` (with `--atlas` naming the per-shard segment file) classifies
//! one contiguous range and exits; the `shard_merge` binary in
//! `bnf-atlas` folds segments into one coverage-complete store that
//! every binary replays warm. See `crates/atlas/README.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod cycles;
pub mod efficiency;
pub mod gallery;
pub mod grid;
pub mod sweep;
pub mod tables;

use bnf_games::Ratio;

pub use bounds::{prop3_series, prop4_rows, window_top_poa, LowerBoundRow, UpperBoundRow};
// Re-exported so the executor keeps its pre-engine `empirics` path; the
// implementation lives in `bnf-engine` now.
pub use bnf_engine::{default_threads, parallel_map};
pub use cycles::{lemma6_rows, CycleRow};
pub use efficiency::{
    efficiency_rows, efficiency_rows_streaming, efficiency_scan_windows, EfficiencyRow,
    EfficiencyScan, MinimizerShape,
};
pub use gallery::{extended_gallery, figure1_gallery, GalleryEntry};
pub use grid::{GridFold, GridSpec, GridSpecError, MAX_GRID_POINTS};
pub use sweep::{
    stable_catalog, EquilibriumStats, GraphRecord, SweepConfig, SweepJob, SweepResult, WindowJob,
    WindowSweep,
};
pub use tables::{fmt_stat, render_csv, render_table};

/// Default ceiling on exhaustive sweep orders without an explicit
/// opt-in: the UCG orientation solve over all 261 080 9-vertex graphs
/// needs a deliberate decision (minutes of CPU), not a typo.
pub const DEFAULT_MAX_SWEEP_N: usize = 8;

/// The sweep-order ceiling, overridable at *runtime* via the
/// `BNF_MAX_N` environment variable (clamped to the enumeration bound
/// of 10) so CI smoke steps and `n = 9/10` runs need no recompile.
///
/// Unset or unparsable values fall back to [`DEFAULT_MAX_SWEEP_N`].
pub fn max_sweep_n() -> usize {
    max_sweep_n_from(std::env::var("BNF_MAX_N").ok())
}

/// Pure core of [`max_sweep_n`], split out for testing.
fn max_sweep_n_from(raw: Option<String>) -> usize {
    raw.and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MAX_SWEEP_N)
        .min(10)
}

// Re-exported from bnf-core (where the shard-segment writers can reach
// it too): each process of a multi-process sweep stamps its own VmHWM.
pub use bnf_core::peak_rss_kb;

/// Shared front-end of the sweep-driven binaries: honours
/// `--streaming`, `--atlas <path>` and `--grid <spec>`, runs the
/// windows-first classification, evaluates the α grid as a post-pass
/// ([`grid::evaluate`]), and prints the shared diagnostics (path,
/// topology count, classification wall time, atlas hit counts, peak
/// RSS) to stderr — so each binary carries one call instead of a
/// drifting copy of this block.
pub fn run_sweep_cli(config: &SweepConfig, args: &[String]) -> SweepResult {
    // Parse the grid *before* the sweep: a typo in --grid must fail in
    // milliseconds, not after minutes of classification.
    let alphas = grid_from_args(args, || config.alphas.clone());
    let windows = run_window_sweep_cli(config.n, config.threads, args);
    grid::evaluate(&windows, &alphas)
}

/// The α grid selected by `--grid <spec>`, or `default()` when the flag
/// is absent — the one shared grid-flag front-end of every sweep
/// binary.
///
/// # Panics
///
/// Panics (with the parse diagnostic) on a malformed spec — a CLI
/// front-end, not a library error path.
pub fn grid_from_args(args: &[String], default: impl FnOnce() -> Vec<Ratio>) -> Vec<Ratio> {
    match arg_value(args, "--grid") {
        Some(spec) => GridSpec::parse(&spec)
            .unwrap_or_else(|e| panic!("bad --grid: {e}"))
            .alphas(),
        None => default(),
    }
}

/// The windows-first half of [`run_sweep_cli`], also used directly by
/// `efficiency_scan`: parses `--streaming` / `--atlas` / `--shards
/// auto|R` / `--jobs N` / `--shard i/m` / `--report-json <path>`,
/// classifies all connected topologies on `n` vertices into a
/// [`WindowSweep`], appends fresh records back to the atlas, and
/// reports the classification wall time in milliseconds (the number
/// the CI cold/warm ≥ 10× gate reads) plus atlas hit counts and peak
/// RSS to stderr.
///
/// Every stderr diagnostic line is rendered from a
/// [`bnf_obs::RunManifest`] ([`build_sweep_manifest`]); with
/// `--report-json <path>` the same manifest — plus the spans, counters
/// and histograms drained from [`bnf_obs::Recorder::global`] — is
/// written as a versioned JSON document. A rate-limited heartbeat
/// (`BNF_PROGRESS`, default every 10 s) reports emitted/expected with
/// an ETA while the enumeration runs.
///
/// With `--shards auto` (or an explicit range count) the sweep runs the
/// **in-process orchestrator** ([`WindowSweep::run_orchestrated`]): the
/// parent frontier is built once, worker threads (`--jobs N`, default
/// `--threads`) steal ranges dynamically, and each completed range is
/// appended to the `--atlas` store with its [`bnf_atlas::ShardMeta`]
/// as it finishes — coverage is declared when the partition closes, so
/// one command replaces the whole `--shard`×m + `shard_merge` cycle.
/// `--jobs N` alone implies `--shards auto`. (A store already holding
/// complete coverage for `n`, or a trivial order `n < 2`, falls back to
/// the standard warm/streaming path.)
///
/// With `--resume` (requires `--atlas`) an interrupted orchestrated run
/// picks up where it was killed: the store is opened through
/// torn-tail recovery ([`bnf_atlas::ClassificationAtlas::open_recovering`]
/// — a frame cut mid-write by the crash is truncated and reported, not
/// refused as corruption), the completed ranges are reconstructed from
/// its [`bnf_atlas::ShardMeta`] frames, and only the missing ranges
/// execute; coverage is declared when the partition closes across runs
/// and the figure output replays from the completed store —
/// byte-identical to an uninterrupted run. Resume provenance (ranges
/// recovered/redone, prior run count, dropped tail bytes) lands in the
/// stderr report and the `--report-json` manifest, whose only
/// gate-facing metric becomes `manifest/ranges_redone_on_resume/{n}`.
///
/// With `--shard i/m` (requires `--atlas`, which names the **segment**
/// file) the invocation classifies only shard `i` of the `m`-way
/// partition of the parent frontier, persists the records plus a
/// [`bnf_atlas::ShardMeta`] frame — range, emission count, wall-clock,
/// this process's peak RSS, pruning-counter shares — into the segment,
/// and **exits the process**: a partial sweep has no meaningful figure
/// output. Fold the segments with `shard_merge` (bnf-atlas) and re-run
/// with `--atlas merged` to replay the complete catalogue. This is the
/// distributed / out-of-core escape hatch; on one machine prefer
/// `--shards auto`.
///
/// # Panics
///
/// Panics (with a diagnostic) when the atlas cannot be opened or
/// appended to, when `--shard` is malformed or lacks `--atlas`, when
/// `--shards` / `--jobs` are malformed, or when `--shard` and
/// `--shards` are combined — a CLI front-end, not a library error path.
pub fn run_window_sweep_cli(n: usize, threads: usize, args: &[String]) -> WindowSweep {
    let streaming = arg_flag(args, "--streaming");
    let path = if streaming {
        "streaming"
    } else {
        "materializing"
    };
    let jobs: Option<usize> = arg_value(args, "--jobs").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--jobs wants a worker-thread count, got {v:?}"))
    });
    let threads = jobs.unwrap_or(threads).max(1);
    let shards = arg_value(args, "--shards");
    let shard = arg_value(args, "--shard")
        .map(|s| bnf_stream::ShardSpec::parse(&s).unwrap_or_else(|e| panic!("bad --shard: {e}")));
    let report_json = arg_value(args, "--report-json");
    let resume = arg_flag(args, "--resume");
    let mut dropped_tail = 0u64;
    let mut atlas = arg_value(args, "--atlas").map(|p| {
        if resume {
            // A store left behind by a killed run may end mid-frame:
            // recovery truncates the torn tail (reporting what it
            // dropped) instead of refusing the whole store as Corrupt.
            let recovered = bnf_atlas::ClassificationAtlas::open_recovering(&p)
                .unwrap_or_else(|e| panic!("cannot recover atlas {p}: {e}"));
            if recovered.report.was_torn() {
                eprintln!("atlas {p}: {}", recovered.report);
            }
            dropped_tail = recovered.report.dropped_bytes;
            recovered.atlas
        } else {
            bnf_atlas::ClassificationAtlas::open(&p)
                .unwrap_or_else(|e| panic!("cannot open atlas {p}: {e}"))
        }
    });
    assert!(
        !resume || atlas.is_some(),
        "--resume reconstructs completed ranges from the interrupted run's store: \
         pass --atlas <path>"
    );
    // Scope the process-wide recorder to this run, then let the
    // enumeration layers heartbeat progress against the known connected
    // count for this order.
    bnf_obs::Recorder::global().take();
    bnf_obs::heartbeat::install(
        &format!("n={n} sweep"),
        bnf_obs::heartbeat::expected_connected(n),
    );
    if let Some(shard) = shard {
        assert!(
            shards.is_none(),
            "--shard (one process of a multi-process partition) and --shards (in-process \
             orchestrator) are mutually exclusive"
        );
        let atlas = atlas
            .as_mut()
            .expect("--shard writes a segment store: pass --atlas <segment path>");
        write_shard_segment(n, threads, shard, atlas, report_json);
    }
    if let Some(atlas) = &atlas {
        // Merged-store provenance: a store assembled by shard_merge or
        // the orchestrator carries per-shard metadata; the RSS summary
        // counts each *process* once (in-process ranges share one), so
        // multi-process truth is neither understated nor double-counted.
        if let Some((max, sum)) = bnf_atlas::ShardMeta::rss_summary(atlas.shard_metas()) {
            eprintln!(
                "atlas provenance: {} shard segments merged across {} process(es); \
                 peak RSS: max {:.1} MiB, sum {:.1} MiB",
                atlas.shard_metas().len(),
                bnf_atlas::ShardMeta::process_count(atlas.shard_metas()),
                max as f64 / 1024.0,
                sum as f64 / 1024.0,
            );
        }
    }
    // `--shards`/`--jobs`/`--resume` opt into the orchestrated path
    // wherever it applies: a frontier exists (n ≥ 2) and the store
    // cannot already replay the order warm. (`--resume` against a store
    // whose coverage already closed falls through to the warm path —
    // there is nothing left to redo.)
    if (shards.is_some() || jobs.is_some() || resume)
        && n >= 2
        && atlas.as_ref().is_none_or(|a| a.coverage(n).is_none())
    {
        let ranges =
            match shards.as_deref() {
                None | Some("auto") => None,
                Some(v) => Some(v.parse().unwrap_or_else(|_| {
                    panic!("--shards wants `auto` or a range count, got {v:?}")
                })),
            };
        return run_orchestrated_cli(
            n,
            threads,
            ranges,
            atlas,
            report_json,
            resume.then_some(dropped_tail),
        );
    }
    eprintln!(
        "classifying all connected topologies on n={n} vertices ({path} enumeration{})...",
        match &atlas {
            Some(a) => format!(", atlas-backed: {} stored records", a.len()),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let (windows, stats) = WindowSweep::run_with_stats(n, threads, streaming, atlas.as_ref());
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();
    // The report is rendered *from the manifest* (bnf-obs), so the
    // stderr lines and the --report-json numbers cannot disagree.
    let mut manifest = build_sweep_manifest(n, path, elapsed_ms, &windows, stats.as_ref());
    eprintln!("{}", bnf_obs::render_classified_line(&manifest));
    if let Some(line) = bnf_obs::render_enumeration_line(&manifest) {
        eprintln!("{line}");
    }
    if let Some(atlas) = atlas.as_mut() {
        let appended = atlas
            .append_records(&windows.records)
            .unwrap_or_else(|e| panic!("atlas append failed: {e}"));
        // This was a full sweep of order n: declare coverage so the
        // next run replays the catalogue without enumerating at all.
        atlas
            .mark_complete(n, windows.records.len())
            .unwrap_or_else(|e| panic!("atlas coverage update failed: {e}"));
        manifest.set_counter("atlas_hits", (windows.records.len() - appended) as u64);
        manifest.set_counter("atlas_appended", appended as u64);
        push_atlas_density_metric(&mut manifest, atlas, n);
        eprintln!(
            "atlas {}: {} hits, {appended} new records appended ({} stored)",
            atlas.path().display(),
            windows.records.len() - appended,
            atlas.len()
        );
    }
    manifest.peak_rss_kb = peak_rss_kb();
    eprintln!("{}", bnf_obs::format_peak_rss(manifest.peak_rss_kb, path));
    finish_manifest(manifest, report_json);
    windows
}

/// The run-manifest skeleton every sweep CLI path shares: identity
/// (tool, order, path, exact argv), outcome (emitted, wall-clock) and —
/// when the run enumerated — the exact [`bnf_stream::StreamStats`]
/// level sizes and pruning counters, plus the gated
/// `manifest/candidates_per_survivor/{n}` metric.
///
/// Counters are seeded from `stats` (deterministic, exactly what the
/// run computed), never from the global recorder — recorder values are
/// [`bnf_obs::RunManifest::absorb`]ed separately at write time so
/// auxiliary telemetry cannot perturb the gated numbers.
pub fn build_sweep_manifest(
    n: usize,
    path: &str,
    elapsed_ms: u64,
    windows: &WindowSweep,
    stats: Option<&bnf_stream::StreamStats>,
) -> bnf_obs::RunManifest {
    let tool = std::env::args()
        .next()
        .as_deref()
        .map(|arg0| {
            std::path::Path::new(arg0)
                .file_stem()
                .map_or_else(|| arg0.to_owned(), |s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "sweep".to_owned());
    let mut manifest = bnf_obs::RunManifest::new(&tool, n as u32, path);
    manifest.emitted = windows.records.len() as u64;
    manifest.elapsed_ms = elapsed_ms;
    manifest.peak_rss_kb = peak_rss_kb();
    if let Some(stats) = stats {
        manifest.level_sizes = stats.level_sizes.clone();
        for (name, value) in stats.prune.named() {
            manifest.set_counter(name, value);
        }
        manifest.push_metric(
            &format!("manifest/candidates_per_survivor/{n}"),
            stats.prune.candidates_per_survivor(),
        );
    }
    manifest
}

/// Pushes `manifest/atlas_bytes_per_record/{n}` — the gated on-disk
/// density of the store the sweep wrote — skipped for an empty atlas
/// (no records to divide by). The v4 columnar format exists to push
/// this number down; the gate keeps it from regressing.
fn push_atlas_density_metric(
    manifest: &mut bnf_obs::RunManifest,
    atlas: &bnf_atlas::ClassificationAtlas,
    n: usize,
) {
    let Ok(meta) = std::fs::metadata(atlas.path()) else {
        return;
    };
    if atlas.is_empty() {
        return;
    }
    manifest.push_metric(
        &format!("manifest/atlas_bytes_per_record/{n}"),
        meta.len() as f64 / atlas.len() as f64,
    );
}

/// Folds the global recorder's spans / counters / histograms into the
/// manifest and writes it to `report_json` when given. Draining the
/// recorder even when no report was requested keeps consecutive runs in
/// one process (tests, warm replays after a cold run) from leaking
/// telemetry into each other.
fn finish_manifest(mut manifest: bnf_obs::RunManifest, report_json: Option<String>) {
    manifest.absorb(bnf_obs::Recorder::global().take());
    if let Some(path) = report_json {
        std::fs::write(&path, manifest.to_json())
            .unwrap_or_else(|e| panic!("cannot write run manifest to {path}: {e}"));
        eprintln!("run manifest written to {path}");
    }
}

/// The `--shards auto|R` / `--resume` body: one in-process orchestrated
/// sweep — frontier built once, ranges work-stolen across `threads`
/// workers, each completed range streamed into the `--atlas` store
/// (when given) with its [`bnf_atlas::ShardMeta`] provenance, coverage
/// declared when the partition closes.
///
/// `resume_dropped_tail` is `Some(bytes)` when `--resume` was passed
/// (`bytes` = torn tail dropped by recovery, 0 on a clean store): the
/// partition of the interrupted run is reconstructed from the store's
/// shard metadata ([`resume_plan_from_metas`]) and only its missing
/// ranges execute; once coverage closes across runs, the figure output
/// is replayed from the store, never taken from the partial merge.
fn run_orchestrated_cli(
    n: usize,
    threads: usize,
    ranges: Option<usize>,
    mut atlas: Option<bnf_atlas::ClassificationAtlas>,
    report_json: Option<String>,
    resume_dropped_tail: Option<u64>,
) -> WindowSweep {
    // Two handles on the same store: the orchestrator's workers read
    // classifications through a second read-only handle while the
    // writer callback appends through the original — `open` reads the
    // file fully up front, so the snapshot is stable.
    let lookup = match &atlas {
        Some(a) if !a.is_empty() => Some(
            bnf_atlas::ClassificationAtlas::open(a.path())
                .unwrap_or_else(|e| panic!("cannot reopen atlas for lookups: {e}")),
        ),
        _ => None,
    };
    let plan = match (resume_dropped_tail, &atlas) {
        (Some(_), Some(a)) => resume_plan_from_metas(n, a.shard_metas()),
        _ => None,
    };
    let run_id = orchestrator_run_id();
    match &plan {
        Some((plan, prior_runs)) => eprintln!(
            "resuming the n={n} sweep: {}/{} range(s) durably complete from {prior_runs} \
             prior run(s); {threads} worker thread(s) redoing the remaining {}...",
            plan.completed.len(),
            plan.ranges,
            plan.ranges - plan.completed.len(),
        ),
        None => eprintln!(
            "orchestrating the n={n} sweep in-process: {threads} worker thread(s) stealing \
             {} frontier ranges{}...",
            ranges.unwrap_or_else(|| bnf_engine::auto_range_count(threads)),
            match &lookup {
                Some(a) => format!(", atlas-backed: {} stored records", a.len()),
                None => String::new(),
            }
        ),
    }
    let started = std::time::Instant::now();
    let mut appended_total = 0usize;
    let mut hits_total = 0usize;
    let mut provenance: Vec<bnf_obs::ShardProvenance> = Vec::new();
    let mut on_segment = |seg: bnf_engine::RangeSegment<'_, bnf_core::WindowRecord>| {
        provenance.push(bnf_obs::ShardProvenance {
            order: n as u32,
            index: seg.index as u32,
            count: seg.ranges as u32,
            parent_lo: seg.parent_lo,
            parent_hi: seg.parent_hi,
            emitted: seg.emitted,
            elapsed_ms: seg.elapsed_ms,
            peak_rss_kb: peak_rss_kb(),
            orchestrator_run: Some(run_id),
        });
        if let Some(atlas) = atlas.as_mut() {
            let appended = atlas
                .append_records(seg.records)
                .unwrap_or_else(|e| panic!("atlas append failed: {e}"));
            appended_total += appended;
            hits_total += seg.records.len() - appended;
            let meta = bnf_atlas::ShardMeta {
                order: n as u16,
                shard_index: seg.index as u32,
                shard_count: seg.ranges as u32,
                frontier_len: seg.frontier_len,
                parent_lo: seg.parent_lo,
                parent_hi: seg.parent_hi,
                emitted: seg.emitted,
                elapsed_ms: seg.elapsed_ms,
                peak_rss_kb: peak_rss_kb(),
                orchestrator_run: Some(run_id),
                frontier_prune: seg.frontier_prune,
                final_prune: seg.final_prune,
            };
            atlas
                .append_shard_meta(&meta)
                .unwrap_or_else(|e| panic!("atlas metadata append failed: {e}"));
            // The crash-safety kill point of the whole sweep stack:
            // this range is now durably committed (records + meta
            // fsynced), so a fault armed here (BNF_FAULT, see
            // bnf-faults) crashes with exactly N ranges recoverable.
            bnf_faults::trip_with_file("range_commit", atlas.path());
        }
    };
    let (mut windows, stats) = match &plan {
        Some((plan, _)) => WindowSweep::run_orchestrated_resumed(
            n,
            threads,
            plan,
            lookup.as_ref(),
            &mut on_segment,
        ),
        None => WindowSweep::run_orchestrated(n, threads, ranges, lookup.as_ref(), &mut on_segment),
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();
    let mut manifest =
        build_sweep_manifest(n, "orchestrated", elapsed_ms, &windows, Some(&stats.stats));
    manifest.set_counter("ranges", stats.ranges as u64);
    manifest.set_counter("threads", stats.threads as u64);
    manifest.set_counter("frontier_len", stats.frontier_len);
    // Steal-balance quality: the heaviest range's share of the emitted
    // total. 1/ranges is perfect balance; near 1.0 means one range
    // dominated the run and the oversplit is too coarse.
    if manifest.emitted > 0 {
        let heaviest = provenance.iter().map(|s| s.emitted).max().unwrap_or(0);
        manifest.push_metric(
            &format!("manifest/heaviest_range_share/{n}"),
            heaviest as f64 / manifest.emitted as f64,
        );
    }
    if let Some(dropped_tail) = resume_dropped_tail {
        let recovered = plan.as_ref().map_or(0, |(p, _)| p.completed.len());
        let prior_runs = plan.as_ref().map_or(0, |(_, runs)| *runs);
        let redone = (stats.ranges - recovered) as u64;
        manifest.set_counter("resume_recovered_ranges", recovered as u64);
        manifest.set_counter("resume_redone_ranges", redone);
        manifest.set_counter("resume_prior_runs", prior_runs);
        manifest.set_counter("resume_dropped_tail_bytes", dropped_tail);
        // A resumed manifest carries exactly one gate-facing metric:
        // the standard ones are computed from executed-ranges-only
        // stats (not comparable to a cold run), and bench_gate refuses
        // duplicate metric ids across the estimate files of one gate
        // invocation.
        manifest.metrics.clear();
        manifest.push_metric(
            &format!("manifest/ranges_redone_on_resume/{n}"),
            redone as f64,
        );
        eprintln!(
            "resumed sweep: recovered {recovered}/{} completed range(s) from {prior_runs} \
             prior run(s), redoing {redone}; torn tail: {dropped_tail} byte(s) dropped",
            stats.ranges,
        );
    }
    manifest.shards = provenance;
    eprintln!("{}", bnf_obs::render_classified_line(&manifest));
    if let Some(line) = bnf_obs::render_enumeration_line(&manifest) {
        eprintln!("{line}");
    }
    if let Some(atlas) = atlas.as_mut() {
        let coverage = atlas
            .declare_sharded_coverage()
            .unwrap_or_else(|e| panic!("atlas coverage declaration failed: {e}"));
        for (order, outcome) in coverage {
            if order != n {
                continue;
            }
            match outcome {
                bnf_atlas::ShardCoverage::Declared(count)
                | bnf_atlas::ShardCoverage::AlreadyDeclared(count) => eprintln!(
                    "orchestrated sweep: coverage complete for order {order} ({count} topologies)"
                ),
                other => eprintln!(
                    "orchestrated sweep: coverage NOT declared for order {order} — {other:?}"
                ),
            }
        }
        if plan.is_some() {
            // The resumed run's merge holds only the redone ranges —
            // figure output always replays from the now-complete store,
            // byte-identical to what an uninterrupted run returns.
            windows.records = atlas.complete_sweep(n).unwrap_or_else(|| {
                panic!("resumed n={n} sweep did not close coverage — store still partial")
            });
        }
        manifest.set_counter("atlas_hits", hits_total as u64);
        manifest.set_counter("atlas_appended", appended_total as u64);
        if resume_dropped_tail.is_none() {
            // A resumed manifest keeps exactly one gate-facing metric
            // (see above), so the density metric is cold-run only.
            push_atlas_density_metric(&mut manifest, atlas, n);
        }
        eprintln!(
            "atlas {}: {hits_total} hits, {appended_total} new records appended ({} stored)",
            atlas.path().display(),
            atlas.len()
        );
    }
    // One process, one VmHWM: the honest memory number, versus the
    // max + sum ambiguity of a 16-process shard fleet.
    manifest.peak_rss_kb = peak_rss_kb();
    eprintln!(
        "{}",
        bnf_obs::format_peak_rss(manifest.peak_rss_kb, "orchestrated")
    );
    finish_manifest(manifest, report_json);
    windows
}

/// A per-invocation tag linking the `ShardMeta` frames of one
/// orchestrated run, so provenance readers can tell in-process ranges
/// (one process, one RSS peak) from a fleet of shard processes. Unique
/// per run on one machine; collisions across machines merge two runs'
/// RSS groups, which only ever *under*-reports the process count.
fn orchestrator_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
        .unwrap_or(0);
    (u64::from(std::process::id()) << 32) ^ nanos
}

/// Reconstructs an interrupted orchestrated run's partition from the
/// [`bnf_atlas::ShardMeta`] frames its store already holds: metadata
/// for order `n` is grouped by `(shard_count, frontier_len)` — the pair
/// that fully determines the range boundaries — and the group with the
/// most completed ranges wins (a store holds one live partition per
/// order in practice; a stray experiment's stale metas must not hijack
/// the resume). Returns the [`bnf_engine::ResumePlan`] plus the number
/// of distinct prior runs that contributed, or `None` when the store
/// has no usable metadata (cold start: resume degenerates to a full
/// orchestrated run).
///
/// The plan's `frontier_len` is re-asserted against the rebuilt
/// frontier inside the engine before any range executes, so metadata
/// from an incompatible build fails loudly rather than skipping the
/// wrong parents.
fn resume_plan_from_metas(
    n: usize,
    metas: &[bnf_atlas::ShardMeta],
) -> Option<(bnf_engine::ResumePlan, u64)> {
    use std::collections::{BTreeMap, BTreeSet};
    type Group = (BTreeSet<usize>, BTreeSet<Option<u64>>);
    let mut groups: BTreeMap<(u32, u64), Group> = BTreeMap::new();
    for meta in metas {
        if usize::from(meta.order) != n || meta.shard_index >= meta.shard_count {
            continue;
        }
        let (completed, runs) = groups
            .entry((meta.shard_count, meta.frontier_len))
            .or_default();
        completed.insert(meta.shard_index as usize);
        runs.insert(meta.orchestrator_run);
    }
    let ((shard_count, frontier_len), (completed, runs)) = groups
        .into_iter()
        .max_by_key(|(key, (completed, _))| (completed.len(), key.0))?;
    Some((
        bnf_engine::ResumePlan {
            ranges: shard_count as usize,
            completed: completed.into_iter().collect(),
            frontier_len,
        },
        runs.len() as u64,
    ))
}

/// The `--shard i/m` body: classifies one frontier shard, persists the
/// records and metadata into the segment atlas, reports, and exits the
/// process (0 on success) — partial sweeps never reach the figure
/// renderers.
fn write_shard_segment(
    n: usize,
    threads: usize,
    shard: bnf_stream::ShardSpec,
    atlas: &mut bnf_atlas::ClassificationAtlas,
    report_json: Option<String>,
) -> ! {
    eprintln!(
        "classifying shard {}/{} of the n={n} parent frontier into segment {} \
         ({} stored records)...",
        shard.index,
        shard.count,
        atlas.path().display(),
        atlas.len(),
    );
    let started = std::time::Instant::now();
    let (windows, run) = WindowSweep::run_shard(n, threads, shard, Some(&*atlas));
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let appended = atlas
        .append_records(&windows.records)
        .unwrap_or_else(|e| panic!("segment append failed: {e}"));
    let meta = bnf_atlas::ShardMeta {
        order: n as u16,
        shard_index: shard.index as u32,
        shard_count: shard.count as u32,
        frontier_len: run.frontier_len,
        parent_lo: run.parent_lo,
        parent_hi: run.parent_hi,
        emitted: run.stats.emitted(),
        elapsed_ms,
        peak_rss_kb: peak_rss_kb(),
        orchestrator_run: None,
        frontier_prune: run.frontier_prune(),
        final_prune: run.final_prune,
    };
    atlas
        .append_shard_meta(&meta)
        .unwrap_or_else(|e| panic!("segment metadata append failed: {e}"));
    bnf_obs::heartbeat::finish();
    eprintln!(
        "shard {}/{}: parents {}..{} of {}, {} records in {elapsed_ms} ms \
         ({appended} newly classified, {} atlas hits)",
        shard.index,
        shard.count,
        run.parent_lo,
        run.parent_hi,
        run.frontier_len,
        windows.records.len(),
        windows.records.len() - appended,
    );
    // The shard path has no whole-run StreamStats — its counters cover
    // the final level only — so the manifest is seeded by hand and the
    // shard-flavoured enumeration line rendered from it.
    let mut manifest = build_sweep_manifest(n, "shard", elapsed_ms, &windows, None);
    for (name, value) in run.final_prune.named() {
        manifest.set_counter(name, value);
    }
    manifest.set_counter("atlas_hits", (windows.records.len() - appended) as u64);
    manifest.set_counter("atlas_appended", appended as u64);
    manifest.push_metric(
        &format!("manifest/candidates_per_survivor/{n}"),
        run.final_prune.candidates_per_survivor(),
    );
    manifest.shards = vec![bnf_obs::ShardProvenance {
        order: n as u32,
        index: shard.index as u32,
        count: shard.count as u32,
        parent_lo: run.parent_lo,
        parent_hi: run.parent_hi,
        emitted: run.stats.emitted(),
        elapsed_ms,
        peak_rss_kb: meta.peak_rss_kb,
        orchestrator_run: None,
    }];
    if let Some(line) = bnf_obs::render_enumeration_line(&manifest) {
        eprintln!("{line}");
    }
    manifest.peak_rss_kb = peak_rss_kb();
    eprintln!(
        "{}",
        bnf_obs::format_peak_rss(manifest.peak_rss_kb, "shard")
    );
    finish_manifest(manifest, report_json);
    eprintln!(
        "segment written; fold segments with `shard_merge --out merged.bnfatlas <segments>` \
         and re-run with --atlas merged.bnfatlas"
    );
    std::process::exit(0);
}

/// Prints this process's peak RSS to stderr; `path` labels which
/// enumeration path produced it. Where the value is unmeasurable
/// (non-Linux: [`peak_rss_kb`] is `None`) the line says `unavailable`
/// explicitly — silently omitting it made those reports look truncated.
pub fn report_peak_rss(path: &str) {
    eprintln!("{}", bnf_obs::format_peak_rss(peak_rss_kb(), path));
}

/// Parses `--name value` from a raw argument list (first occurrence).
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_sweep_n_parsing() {
        assert_eq!(max_sweep_n_from(None), DEFAULT_MAX_SWEEP_N);
        assert_eq!(max_sweep_n_from(Some("9".into())), 9);
        assert_eq!(max_sweep_n_from(Some(" 10 ".into())), 10);
        // Clamped to the enumeration bound.
        assert_eq!(max_sweep_n_from(Some("12".into())), 10);
        // Garbage falls back to the default.
        assert_eq!(max_sweep_n_from(Some("many".into())), DEFAULT_MAX_SWEEP_N);
        assert_eq!(max_sweep_n_from(Some(String::new())), DEFAULT_MAX_SWEEP_N);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--n", "7", "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--n"), Some("7".into()));
        assert_eq!(arg_value(&args, "--threads"), None);
        assert!(arg_flag(&args, "--csv"));
        assert!(!arg_flag(&args, "--json"));
    }
}
