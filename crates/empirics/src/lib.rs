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
//! Every cold sweep runs the **orchestrator**: the parent frontier is
//! built once, split into ≈ 16× threads work-stolen ranges, and each
//! range is classified as the enumeration generates it — no
//! materialized graph list (the classified records themselves still
//! scale with the topology count). All exhaustive scans honour the
//! `BNF_MAX_N` environment variable ([`max_sweep_n`]) so `n = 9/10`
//! opt-ins need no recompile.
//!
//! Classification is **windows-first** ([`sweep::WindowSweep`]): each
//! topology yields one α-independent window record, any α grid is a
//! post-pass ([`grid`], `--grid paper|linear:..|log2:..`), and
//! `--atlas <path>` persists the records in an append-only store
//! ([`bnf_atlas::ClassificationAtlas`]) so re-runs — finer grids,
//! follow-up workloads — skip classification for keys already seen.
//!
//! The sweep binaries share one front-end ([`run_window_sweep_cli`]):
//! `--shards auto|R` commits each range into the `--atlas` store as it
//! finishes (crash-safe, `--resume` redoes only the missing ranges),
//! and `--shard i/m` runs one process's block of a multi-process fleet
//! into a per-process segment file; the `shard_merge` binary in
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
    efficiency_rows, efficiency_scan_windows, EfficiencyRow, EfficiencyScan, MinimizerShape,
};
pub use gallery::{extended_gallery, figure1_gallery, GalleryEntry};
pub use grid::{GridFold, GridSpec, GridSpecError, MAX_GRID_COMPONENT, MAX_GRID_POINTS};
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

use bnf_engine::{RangeSegment, RangeSelection};
use bnf_stream::ShardSpec;

/// Shared front-end of the sweep-driven binaries: honours `--atlas
/// <path>`, `--grid <spec>` and the range flags of
/// [`run_window_sweep_cli`], runs the windows-first classification, and
/// evaluates the α grid as a post-pass ([`grid::evaluate`]) — so each
/// binary carries one call instead of a drifting copy of this block.
pub fn run_sweep_cli(config: &SweepConfig, args: &[String]) -> SweepResult {
    // Parse the grid *before* the sweep: a typo in --grid must fail in
    // milliseconds, not after minutes of classification.
    let alphas = grid_from_args(args, || config.alphas.clone());
    let windows = run_window_sweep_cli(config.n, config.threads, args);
    grid::evaluate(&windows, &alphas)
}

/// The α grid selected by `--grid <spec>`, or `default()` when the flag
/// is absent — the one shared grid-flag front-end of every sweep
/// binary. A malformed spec prints one `error:` line and exits with
/// status 2.
pub fn grid_from_args(args: &[String], default: impl FnOnce() -> Vec<Ratio>) -> Vec<Ratio> {
    match flag_value(args, "--grid").unwrap_or_else(|e| e.exit()) {
        Some(spec) => GridSpec::parse(&spec)
            .unwrap_or_else(|e| CliError::Usage(format!("bad --grid: {e}")).exit())
            .alphas(),
        None => default(),
    }
}

/// An operator error of a sweep binary: printed as one `error:` line,
/// then the process exits — status 2 for a bad or contradictory flag,
/// status 1 when the `--atlas` store cannot be opened, appended to or
/// committed, so scripts can tell the two apart.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Atlas(String),
}

impl CliError {
    fn atlas(what: &str, e: impl std::fmt::Display) -> CliError {
        CliError::Atlas(format!("{what}: {e}"))
    }

    fn exit(self) -> ! {
        let (status, message) = match self {
            CliError::Usage(m) => (2, m),
            CliError::Atlas(m) => (1, m),
        };
        eprintln!("error: {message}");
        std::process::exit(status)
    }
}

/// The number after `--name`, or `default` when the flag is absent. A
/// value that does not parse (or a missing value) is a usage error: one
/// `error:` line, then exit status 2.
pub fn numeric_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name).unwrap_or_else(|e| e.exit()) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            CliError::Usage(format!("{name} wants a number, got {v:?}")).exit()
        }),
    }
}

/// `--name value`, or a usage error when the flag is present without a
/// value.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    match arg_value(args, name) {
        None if arg_flag(args, name) => Err(CliError::Usage(format!("{name} wants a value"))),
        value => Ok(value),
    }
}

/// The range flags of one sweep invocation, validated up front.
struct SweepFlags {
    /// `--shards`: `None` absent, `Some(None)` auto, `Some(Some(r))`.
    shards: Option<Option<usize>>,
    /// `--shard i/m` as its block of the oversplit fleet partition.
    shard: Option<RangeSelection>,
    resume: bool,
    atlas: Option<String>,
    report_json: Option<String>,
}

impl SweepFlags {
    fn parse(n: usize, args: &[String]) -> Result<SweepFlags, CliError> {
        let usage = |m: &str| Err(CliError::Usage(m.to_owned()));
        // `ShardMeta` stores range indices as u32.
        let max_ranges = u32::MAX as usize;
        let shards = match flag_value(args, "--shards")?.as_deref() {
            None => None,
            Some("auto") => Some(None),
            Some(v) => match v.parse() {
                Ok(r) if (1..=max_ranges).contains(&r) => Some(Some(r)),
                _ => {
                    return usage(&format!(
                        "--shards wants `auto` or a range count from 1 to {max_ranges}, got {v:?}"
                    ))
                }
            },
        };
        let shard = match flag_value(args, "--shard")? {
            None => None,
            Some(v) => {
                let spec = ShardSpec::parse(&v)
                    .map_err(|e| CliError::Usage(format!("bad --shard: {e}")))?;
                match RangeSelection::shard(spec).filter(|s| s.ranges <= max_ranges) {
                    None => return usage(&format!("bad --shard: more than {max_ranges} ranges")),
                    block => block,
                }
            }
        };
        let flags = SweepFlags {
            shards,
            shard,
            resume: arg_flag(args, "--resume"),
            atlas: flag_value(args, "--atlas")?,
            report_json: flag_value(args, "--report-json")?,
        };
        match (&flags.shard, flags.atlas.is_some()) {
            (Some(_), _) if flags.shards.is_some() => {
                usage("--shard (one process of a fleet) and --shards are mutually exclusive")
            }
            (Some(_), false) => usage("--shard writes a segment store: pass --atlas <segment>"),
            (Some(_), _) if n < 2 => usage("--shard needs n >= 2 (a parent frontier to split)"),
            (None, false) if flags.resume => {
                usage("--resume recovers ranges from the interrupted run's store: pass --atlas")
            }
            _ => Ok(flags),
        }
    }
}

/// The windows-first half of [`run_sweep_cli`], also used directly by
/// `efficiency_scan`: classifies all connected topologies on `n`
/// vertices into a [`WindowSweep`] and reports the classification wall
/// time in milliseconds (the number the CI cold/warm ≥ 10× gate reads),
/// the pruning counters, atlas hit counts and peak RSS to stderr.
///
/// One flow serves every mode. A store that already covers `n` replays
/// warm, an order below 2 classifies directly, and everything else runs
/// the orchestrator ([`WindowSweep::run_selected`]) over a
/// [`RangeSelection`] of the frontier partition:
///
/// * no range flag — every range of the automatic split; with
///   `--atlas`, the fresh records are appended once, in engine order,
///   followed by the coverage marker;
/// * `--shards auto|R` — every range of that split, each committed into
///   the `--atlas` store with its [`bnf_atlas::ShardMeta`] as it
///   finishes; coverage is declared when the partition closes;
/// * `--resume` (requires `--atlas`) — the store is opened through
///   torn-tail recovery, the interrupted partition is reconstructed from
///   its `ShardMeta` frames, only the missing ranges execute, and the
///   figure output replays from the completed store. The manifest's
///   only gate-facing metric becomes
///   `manifest/ranges_redone_on_resume/{n}`;
/// * `--shard i/m` (requires `--atlas`, which names the **segment**
///   file) — ranges `[16i, 16(i + 1))` of the `16m`-range partition,
///   i.e. exactly parent range `i` of `m`, committed range by range; the
///   process then **exits** without figure output. Fold the segments
///   with `shard_merge` (bnf-atlas).
///
/// Every stderr line is rendered from a [`bnf_obs::RunManifest`]
/// ([`build_sweep_manifest`]), which `--report-json <path>` writes —
/// plus the recorder's spans, counters and histograms — as JSON. A
/// rate-limited heartbeat (`BNF_PROGRESS`) reports progress meanwhile.
///
/// Operator errors — a bad `--shards`, a malformed or out-of-range
/// `--shard`, `--shard`/`--resume` without `--atlas`, `--shard` with
/// `--shards` — print one `error:` line and exit with status 2; a store
/// that cannot be opened, appended to or committed exits with status 1.
pub fn run_window_sweep_cli(n: usize, threads: usize, args: &[String]) -> WindowSweep {
    let flags = SweepFlags::parse(n, args).unwrap_or_else(|e| e.exit());
    sweep_cli(n, threads.max(1), flags).unwrap_or_else(|e| e.exit())
}

fn sweep_cli(n: usize, threads: usize, flags: SweepFlags) -> Result<WindowSweep, CliError> {
    use bnf_atlas::{ClassificationAtlas, ShardCoverage, ShardMeta};
    let mut dropped_tail = 0u64;
    let mut atlas = match &flags.atlas {
        None => None,
        Some(p) if flags.resume => {
            // A store left behind by a killed run may end mid-frame:
            // recovery truncates the torn tail (reporting what it
            // dropped) instead of refusing the whole store as Corrupt.
            let recovered = ClassificationAtlas::open_recovering(p)
                .map_err(|e| CliError::atlas(&format!("cannot recover atlas {p}"), e))?;
            if recovered.report.was_torn() {
                eprintln!("atlas {p}: {}", recovered.report);
            }
            dropped_tail = recovered.report.dropped_bytes;
            Some(recovered.atlas)
        }
        Some(p) => Some(
            ClassificationAtlas::open(p)
                .map_err(|e| CliError::atlas(&format!("cannot open atlas {p}"), e))?,
        ),
    };
    // Scope the process-wide recorder to this run, then let the
    // enumeration layers heartbeat progress against the known connected
    // count for this order.
    bnf_obs::Recorder::global().take();
    bnf_obs::heartbeat::install(
        &format!("n={n} sweep"),
        bnf_obs::heartbeat::expected_connected(n),
    );
    let block = flags.shard.as_ref();
    if let (None, Some(atlas)) = (block, &atlas) {
        // Merged-store provenance: the RSS summary counts each
        // *process* once (a run's ranges share one VmHWM), so fleet
        // truth is neither understated nor double-counted.
        let metas = atlas.shard_metas();
        if let Some((max, sum)) = ShardMeta::rss_summary(metas) {
            eprintln!(
                "atlas provenance: {} shard segments merged across {} process(es); \
                 peak RSS: max {:.1} MiB, sum {:.1} MiB",
                metas.len(),
                ShardMeta::process_count(metas),
                max as f64 / 1024.0,
                sum as f64 / 1024.0,
            );
        }
    }

    // What runs: nothing to partition when the store replays the order
    // warm (a fleet process always classifies its block) or the order
    // has no frontier; otherwise one selection of the partition.
    let warm = block.is_none() && atlas.as_ref().is_some_and(|a| a.coverage(n).is_some());
    let mut prior_runs = 0;
    let selection = (!warm && n >= 2).then(|| {
        let base = block.cloned().unwrap_or_else(|| {
            let auto = bnf_engine::auto_range_count(threads);
            RangeSelection::all(flags.shards.flatten().unwrap_or(auto))
        });
        let resumed = atlas
            .as_ref()
            .filter(|_| flags.resume)
            .and_then(|a| resume_selection(n, a.shard_metas(), block));
        match resumed {
            Some((selection, runs)) => {
                prior_runs = runs;
                selection
            }
            None => base,
        }
    });
    // Range commits (records + ShardMeta per range, crash-safe) whenever
    // a range flag asked for them; otherwise one append after the run.
    let commit_ranges =
        selection.is_some() && (flags.shards.is_some() || flags.resume || block.is_some());
    eprintln!(
        "classifying all connected topologies on n={n} vertices ({}{})...",
        match &selection {
            None if warm => "replaying the stored catalogue".to_owned(),
            None => "no parent frontier below n=2".to_owned(),
            Some(sel) => format!(
                "{threads} worker thread(s) stealing {} of {} frontier ranges",
                sel.indices().count(),
                sel.ranges
            ),
        },
        atlas.as_ref().map_or(String::new(), |a| format!(
            ", atlas-backed: {} stored records",
            a.len()
        ))
    );

    let started = std::time::Instant::now();
    let run_id = orchestrator_run_id();
    let mut provenance: Vec<bnf_obs::ShardProvenance> = Vec::new();
    let (mut hits, mut appended) = (0usize, 0usize);
    let (mut windows, orch) = match &selection {
        None => (WindowSweep::run(n, threads, atlas.as_ref()), None),
        Some(selection) => {
            // Range commits append through the store while workers read
            // it, so lookups go through a second, read-only handle
            // (`open` reads the file fully up front: a stable snapshot).
            let reopened = match &atlas {
                Some(a) if commit_ranges && !a.is_empty() => Some(
                    ClassificationAtlas::open(a.path())
                        .map_err(|e| CliError::atlas("cannot reopen atlas for lookups", e))?,
                ),
                _ => None,
            };
            let (lookup, mut writer) = if commit_ranges {
                (reopened.as_ref(), atlas.as_mut())
            } else {
                (atlas.as_ref(), None)
            };
            let on_segment = |seg: RangeSegment<'_, bnf_core::WindowRecord>| {
                let meta = ShardMeta {
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
                provenance.push(meta.provenance());
                let Some(atlas) = writer.as_deref_mut() else {
                    return;
                };
                let fresh = atlas
                    .append_records(seg.records)
                    .unwrap_or_else(|e| CliError::atlas("atlas append failed", e).exit());
                appended += fresh;
                hits += seg.records.len() - fresh;
                atlas
                    .append_shard_meta(&meta)
                    .unwrap_or_else(|e| CliError::atlas("atlas metadata append failed", e).exit());
                // The crash-safety kill point of the whole sweep stack:
                // this range is now durably committed (records + meta
                // fsynced), so a fault armed here (BNF_FAULT, see
                // bnf-faults) crashes with exactly N ranges recoverable.
                bnf_faults::trip_with_file("range_commit", atlas.path());
            };
            let (windows, stats) =
                WindowSweep::run_selected(n, threads, selection, lookup, on_segment);
            (windows, Some(stats))
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();

    // The report is rendered *from the manifest* (bnf-obs), so the
    // stderr lines and the --report-json numbers cannot disagree.
    let path = match (&orch, warm) {
        (Some(_), _) => "orchestrated",
        (None, true) => "replay",
        (None, false) => "trivial",
    };
    let stats = orch.as_ref().map(|o| &o.stats);
    let mut manifest = build_sweep_manifest(n, path, elapsed_ms, &windows, stats);
    if let Some(orch) = &orch {
        manifest.set_counter("ranges", orch.ranges as u64);
        manifest.set_counter("threads", orch.threads as u64);
        manifest.set_counter("frontier_len", orch.frontier_len);
        // Steal-balance quality: the heaviest range's share of the
        // emitted total. 1/ranges is perfect balance; near 1.0 means one
        // range dominated the run and the oversplit is too coarse.
        if manifest.emitted > 0 {
            let heaviest = provenance.iter().map(|s| s.emitted).max().unwrap_or(0);
            manifest.push_metric(
                &format!("manifest/heaviest_range_share/{n}"),
                heaviest as f64 / manifest.emitted as f64,
            );
        }
    }
    let resumed = flags.resume && selection.is_some();
    if let (true, Some(selection)) = (resumed, &selection) {
        let recovered = selection.done.len() as u64;
        let redone = provenance.len() as u64;
        manifest.set_counter("resume_recovered_ranges", recovered);
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
            recovered + redone,
        );
    }
    manifest.shards = provenance;
    eprintln!("{}", bnf_obs::render_classified_line(&manifest));
    if let Some(line) = bnf_obs::render_enumeration_line(&manifest) {
        eprintln!("{line}");
    }
    if let Some(atlas) = atlas.as_mut() {
        if !commit_ranges {
            appended = atlas
                .append_records(&windows.records)
                .map_err(|e| CliError::atlas("atlas append failed", e))?;
            hits = windows.records.len() - appended;
            // This was a full sweep of order n: declare coverage so the
            // next run replays the catalogue without enumerating at all.
            atlas
                .mark_complete(n, windows.records.len())
                .map_err(|e| CliError::atlas("atlas coverage update failed", e))?;
        } else if block.is_none() {
            let coverage = atlas
                .declare_sharded_coverage()
                .map_err(|e| CliError::atlas("atlas coverage declaration failed", e))?;
            for (order, outcome) in coverage.into_iter().filter(|(order, _)| *order == n) {
                match outcome {
                    ShardCoverage::Declared(count) | ShardCoverage::AlreadyDeclared(count) => {
                        eprintln!(
                            "orchestrated sweep: coverage complete for order {order} \
                             ({count} topologies)"
                        )
                    }
                    other => eprintln!(
                        "orchestrated sweep: coverage NOT declared for order {order} — {other:?}"
                    ),
                }
            }
        }
        if !resumed {
            // A resumed manifest keeps exactly one gate-facing metric
            // (see above), so the density metric is cold-run only.
            push_atlas_density_metric(&mut manifest, atlas, n);
        } else if block.is_none() {
            // The resumed run's merge holds only the redone ranges —
            // figure output always replays from the now-complete store,
            // byte-identical to an uninterrupted run.
            windows.records = atlas.complete_sweep(n).ok_or_else(|| {
                CliError::Atlas(format!("resumed n={n} sweep did not close coverage"))
            })?;
        }
        manifest.set_counter("atlas_hits", hits as u64);
        manifest.set_counter("atlas_appended", appended as u64);
        eprintln!(
            "atlas {}: {hits} hits, {appended} new records appended ({} stored)",
            atlas.path().display(),
            atlas.len()
        );
    }
    manifest.peak_rss_kb = peak_rss_kb();
    eprintln!("{}", bnf_obs::format_peak_rss(manifest.peak_rss_kb, path));
    finish_manifest(manifest, flags.report_json);
    if block.is_some() {
        eprintln!(
            "segment written; fold segments with `shard_merge --out merged.bnfatlas <segments>` \
             and re-run with --atlas merged.bnfatlas"
        );
        std::process::exit(0);
    }
    Ok(windows)
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

/// A per-invocation tag linking the `ShardMeta` frames of one run, so
/// provenance readers count one process per run id (one RSS peak)
/// however many ranges it committed. Unique per run on one machine;
/// collisions across machines merge two runs' RSS groups, which only
/// ever *under*-reports the process count.
fn orchestrator_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
        .unwrap_or(0);
    (u64::from(std::process::id()) << 32) ^ nanos
}

/// Reconstructs an interrupted run's partition from the
/// [`bnf_atlas::ShardMeta`] frames its store holds: metas of order `n`
/// (of `block`'s partition, for a `--shard` process) are grouped by
/// `(shard_count, frontier_len)` — the pair that fixes the range
/// boundaries — and the group with the most completed ranges wins, so a
/// stray experiment's stale metas cannot hijack the resume. Returns the
/// selection still to run (its `frontier_len` is re-asserted against
/// the rebuilt frontier before any range executes) plus the number of
/// distinct prior runs, or `None` for a store without usable metadata.
fn resume_selection(
    n: usize,
    metas: &[bnf_atlas::ShardMeta],
    block: Option<&RangeSelection>,
) -> Option<(RangeSelection, u64)> {
    use std::collections::{BTreeMap, BTreeSet};
    type Group = (Vec<usize>, BTreeSet<Option<u64>>);
    let mut groups: BTreeMap<(u32, u64), Group> = BTreeMap::new();
    for meta in metas {
        if usize::from(meta.order) != n
            || meta.shard_index >= meta.shard_count
            || block.is_some_and(|b| b.ranges != meta.shard_count as usize)
        {
            continue;
        }
        let (done, runs) = groups
            .entry((meta.shard_count, meta.frontier_len))
            .or_default();
        done.push(meta.shard_index as usize);
        runs.insert(meta.orchestrator_run);
    }
    let ((shard_count, frontier_len), (done, runs)) = groups
        .into_iter()
        .max_by_key(|(key, (done, _))| (done.len(), key.0))?;
    let base = block
        .cloned()
        .unwrap_or_else(|| RangeSelection::all(shard_count as usize));
    Some((base.resuming(&done, frontier_len), runs.len() as u64))
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
