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
//! ([`bnf_atlas::ClassificationAtlas`]). Once a store covers an order,
//! re-runs — finer grids, follow-up workloads — replay it without
//! enumerating; a sweep never looks single keys up, so a store that
//! does not cover the order is only appended to.
//!
//! The sweep binaries share one front-end ([`run_window_sweep_cli`]):
//! `--shards auto|R` commits each range into the `--atlas` store as it
//! finishes (crash-safe, `--resume` redoes only the missing ranges),
//! and `--shard i/m` runs one process's block of a multi-process fleet
//! into a per-process segment file; the `shard_merge` binary in
//! `bnf-atlas` folds segments into one coverage-complete store that
//! every binary replays warm. See `crates/atlas/README.md`.
//!
//! The enumeration-only `stream_count` binary counts over the same
//! partition ([`run_count_cli`]); its `--checkpoint` store is committed
//! and resumed through the same range ledger as a sweep's `--atlas`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod cycles;
pub mod efficiency;
pub mod gallery;
pub mod grid;
#[cfg(test)]
mod per_alpha;
pub mod sweep;
pub mod tables;

use bnf_games::Ratio;

pub use bounds::{prop3_series, prop4_rows, window_top_poa, LowerBoundRow, UpperBoundRow};
// Re-exported so the sweep configs' thread default keeps its
// pre-engine `empirics` path; the implementation lives in `bnf-engine`.
pub use bnf_engine::default_threads;
pub use cycles::{lemma6_rows, CycleRow};
pub use efficiency::{
    efficiency_rows, efficiency_scan_windows, EfficiencyRow, EfficiencyScan, MinimizerShape,
};
pub use gallery::{extended_gallery, figure1_gallery, GalleryEntry};
pub use grid::{GridFold, GridSpec, GridSpecError, MAX_GRID_COMPONENT, MAX_GRID_POINTS};
pub use sweep::{
    stable_catalog, EquilibriumStats, SweepConfig, SweepResult, WindowJob, WindowSweep,
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

use bnf_engine::RangeSegment;
use bnf_obs::cli::Flags;
use bnf_obs::peak_rss_kb;
use bnf_stream::{RangeSelection, ShardSpec};

/// The valued flags every sweep binary declares; [`parse_sweep_flags`]
/// adds the one sweep switch, `--resume`.
const SWEEP_FLAGS: &[&str] = &[
    "--n",
    "--threads",
    "--atlas",
    "--shards",
    "--shard",
    "--grid",
    "--report-json",
];

/// Parses a sweep binary's command line: the sweep flags (`--n`,
/// `--threads`, `--atlas`, `--shards`, `--shard`, `--grid`,
/// `--report-json`), `--resume` and the binary's own `switches`
/// (fig2/fig3's `--csv`), which the usage line names too. Anything else
/// is a usage error: one `error:` line, exit status 2.
pub fn parse_sweep_flags(binary: &str, switches: &[&'static str]) -> Flags {
    let own: String = switches.iter().map(|s| format!(" [{s}]")).collect();
    let usage = format!(
        "{binary} [--n 7] [--threads T]{own} [--atlas PATH] [--shards auto|R | --shard i/m] \
         [--resume] [--grid paper|linear:LO:HI:STEPS|log2:LO:HI:PER_OCT] [--report-json PATH]"
    );
    let switches = [&["--resume"], switches].concat();
    Flags::parse(SWEEP_FLAGS, &switches, false, &usage).0
}

/// Shared front-end of the sweep-driven binaries: honours `--atlas
/// <path>`, `--grid <spec>` and the range flags of
/// [`run_window_sweep_cli`], runs the windows-first classification, and
/// evaluates the α grid as a post-pass ([`grid::evaluate`]) — so each
/// binary carries one call instead of a drifting copy of this block.
pub fn run_sweep_cli(config: &SweepConfig, flags: &Flags) -> SweepResult {
    // Parse the grid *before* the sweep: a typo in --grid must fail in
    // milliseconds, not after minutes of classification.
    let alphas = grid_from_args(flags, || config.alphas.clone());
    let windows = run_window_sweep_cli(config.n, config.threads, flags);
    grid::evaluate(&windows, &alphas)
}

/// The α grid selected by `--grid <spec>`, or `default()` when the flag
/// is absent — the one shared grid-flag front-end of every sweep
/// binary. A malformed spec is a usage error (exit status 2).
pub fn grid_from_args(flags: &Flags, default: impl FnOnce() -> Vec<Ratio>) -> Vec<Ratio> {
    match flags.get("--grid") {
        Some(spec) => GridSpec::parse(spec)
            .unwrap_or_else(|e| flags.fail(&format!("bad --grid: {e}")))
            .alphas(),
        None => default(),
    }
}

/// A file of a sweep run failed — the `--atlas` store cannot be opened,
/// appended to or committed, or the `--report-json` manifest cannot be
/// written: printed as one `error:` line, then the process exits with
/// status 1 (a usage error exits 2, see [`Flags::fail`]), so scripts
/// can tell the two apart.
#[derive(Debug)]
struct CliError(String);

impl CliError {
    fn io(what: &str, e: impl std::fmt::Display) -> CliError {
        CliError(format!("{what}: {e}"))
    }

    fn exit(self) -> ! {
        eprintln!("error: {}", self.0);
        std::process::exit(1)
    }
}

/// The `--n` of a sweep binary (`default` when absent), refused up
/// front when it exceeds [`max_sweep_n`]: one `error:` line naming
/// `BNF_MAX_N`, then exit status 2 — before any output or enumeration.
pub fn sweep_order_flag(flags: &Flags, default: usize) -> usize {
    let n = flags.number("--n", default);
    let cap = max_sweep_n();
    if n > cap {
        flags.fail(&format!(
            "--n {n} is above the sweep cap n={cap}: set BNF_MAX_N (at most 10) \
             to opt in to larger orders"
        ))
    }
    n
}

/// The most ranges a partition may have: `ShardMeta` stores range
/// indices as `u32`.
const MAX_RANGES: usize = u32::MAX as usize;

/// `--shards auto|R`, the range count of a partitioned run — the one
/// validator the sweep binaries and `stream_count` share: `None`
/// absent, `Some(None)` for `auto`, `Some(Some(r))` for an explicit
/// count. Anything but `auto` or a count from 1 to [`MAX_RANGES`] is a
/// usage error.
fn shards_flag(flags: &Flags) -> Option<Option<usize>> {
    flags.get("--shards").map(|v| match v {
        "auto" => None,
        v => match v.parse() {
            Ok(r) if (1..=MAX_RANGES).contains(&r) => Some(r),
            _ => flags.fail(&format!(
                "--shards wants `auto` or a range count from 1 to {MAX_RANGES}, got {v:?}"
            )),
        },
    })
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
    fn parse(flags: &Flags) -> SweepFlags {
        let shards = shards_flag(flags);
        let shard = flags.get("--shard").map(|v| {
            let spec =
                ShardSpec::parse(v).unwrap_or_else(|e| flags.fail(&format!("bad --shard: {e}")));
            RangeSelection::shard(spec)
                .filter(|s| s.ranges <= MAX_RANGES)
                .unwrap_or_else(|| {
                    flags.fail(&format!("bad --shard: more than {MAX_RANGES} ranges"))
                })
        });
        let sweep = SweepFlags {
            shards,
            shard,
            resume: flags.switch("--resume"),
            atlas: flags.get("--atlas").map(str::to_owned),
            report_json: flags.get("--report-json").map(str::to_owned),
        };
        match (&sweep.shard, sweep.atlas.is_some()) {
            (Some(_), _) if sweep.shards.is_some() => {
                flags.fail("--shard (one process of a fleet) and --shards are mutually exclusive")
            }
            (Some(_), false) => {
                flags.fail("--shard writes a segment store: pass --atlas <segment>")
            }
            (None, false) if sweep.resume => flags
                .fail("--resume recovers ranges from the interrupted run's store: pass --atlas"),
            _ => sweep,
        }
    }
}

/// The windows-first half of [`run_sweep_cli`], also used directly by
/// `efficiency_scan`: classifies all connected topologies on `n`
/// vertices into a [`WindowSweep`] and reports the classification wall
/// time in milliseconds (the number the CI cold/warm ≥ 10× gate reads),
/// the pruning counters, atlas hit counts and peak RSS to stderr.
///
/// One flow serves every mode, with one store handle. A store that
/// covers `n` and replays cleanly serves the run, and everything else
/// classifies every topology with the orchestrator
/// ([`WindowSweep::run_selected`]) over a [`RangeSelection`] of the
/// frontier partition:
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
///   file) — its block of the fleet partition (up to 16 ranges, at most
///   one per parent; see [`RangeSelection::shard`]), i.e. exactly parent
///   range `i` of `m`, committed range by range; the process then
///   **exits** without figure output. Fold the segments
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
/// that cannot be opened, appended to or committed (a stored record
/// that disagrees with classification is a `KeyConflict`), or whose
/// stored partition was cut from another frontier, exits with status 1.
pub fn run_window_sweep_cli(n: usize, threads: usize, flags: &Flags) -> WindowSweep {
    let flags = SweepFlags::parse(flags);
    sweep_cli(n, threads.max(1), flags).unwrap_or_else(|e| e.exit())
}

fn sweep_cli(n: usize, threads: usize, flags: SweepFlags) -> Result<WindowSweep, CliError> {
    use bnf_atlas::{ShardCoverage, ShardMeta};
    let (mut atlas, dropped_tail) = open_store(flags.atlas.as_deref(), flags.resume)?;
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

    // What runs: a store that covers n and replays cleanly serves the
    // run (a fleet process always classifies its block); anything else
    // runs one selection of the partition.
    let started = std::time::Instant::now();
    let replayed = atlas
        .as_ref()
        .filter(|_| block.is_none())
        .and_then(|a| a.complete_sweep(n));
    let mut prior_runs = 0;
    let selection = replayed
        .is_none()
        .then(|| {
            let base = block.cloned().unwrap_or_else(|| {
                let auto = bnf_stream::auto_range_count(threads);
                RangeSelection::all(flags.shards.flatten().unwrap_or(auto))
            });
            let resumed = atlas
                .as_ref()
                .filter(|_| flags.resume)
                .and_then(|a| resume_selection(n, a.shard_metas(), &base));
            let stored = atlas.as_ref().map_or(0, |a| a.stored(n));
            match resumed {
                // A committed range vouches for its records, so a store
                // holding fewer (a stream_count checkpoint holds none)
                // cannot be continued: refused before any range runs.
                Some((_, partition)) if partition.emitted > stored => Err(CliError(format!(
                    "cannot resume {}: its committed n={n} ranges emitted {} records but \
                     the store holds {stored} of that order (a stream_count checkpoint \
                     holds none; resume it with stream_count)",
                    flags.atlas.as_deref().unwrap_or(""),
                    partition.emitted,
                ))),
                Some((selection, partition)) => {
                    prior_runs = partition.runs.len() as u64;
                    Ok(selection)
                }
                None => Ok(base),
            }
        })
        .transpose()?;
    // Range commits (records + ShardMeta per range, crash-safe) whenever
    // a range flag asked for them; otherwise one append after the run.
    let commit_ranges =
        selection.is_some() && (flags.shards.is_some() || flags.resume || block.is_some());
    eprintln!(
        "classifying all connected topologies on n={n} vertices ({}{})...",
        match &selection {
            None => "replaying the stored catalogue".to_owned(),
            // The range count is fixed once the frontier is built (a
            // whole partition gets at most one range per parent); the
            // report after the run names it.
            Some(_) => format!("{threads} worker thread(s) stealing frontier ranges"),
        },
        atlas.as_ref().map_or(String::new(), |a| format!(
            ", atlas-backed: {} stored records",
            a.len()
        ))
    );

    let run_id = orchestrator_run_id();
    let mut provenance: Vec<bnf_obs::ShardProvenance> = Vec::new();
    let (mut hits, mut appended) = (0usize, 0usize);
    let (mut windows, orch) = match (&selection, replayed) {
        (Some(selection), _) => {
            let mut writer = atlas.as_mut().filter(|_| commit_ranges);
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
                    .unwrap_or_else(|e| CliError::io("atlas append failed", e).exit());
                appended += fresh;
                hits += seg.records.len() - fresh;
                commit_range(atlas, &meta);
            };
            let (windows, stats) = WindowSweep::run_selected(n, threads, selection, on_segment)
                .map_err(|e| {
                    CliError(format!(
                        "cannot resume {}: {e}",
                        flags.atlas.as_deref().unwrap_or("")
                    ))
                })?;
            (windows, Some(stats))
        }
        // No selection: the replay served every record.
        (None, records) => (
            WindowSweep {
                n,
                records: records.unwrap_or_default(),
            },
            None,
        ),
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();

    // The report is rendered *from the manifest* (bnf-obs), so the
    // stderr lines and the --report-json numbers cannot disagree.
    let path = if orch.is_some() {
        "orchestrated"
    } else {
        "replay"
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
        if selection.is_none() {
            hits = windows.records.len();
        } else if !commit_ranges {
            appended = atlas
                .append_records(&windows.records)
                .map_err(|e| CliError::io("atlas append failed", e))?;
            hits = windows.records.len() - appended;
            // This was a full sweep of order n: declare coverage so the
            // next run replays the catalogue without enumerating at all.
            atlas
                .mark_complete(n, windows.records.len())
                .map_err(|e| CliError::io("atlas coverage update failed", e))?;
        } else if block.is_none() {
            let coverage = atlas
                .declare_sharded_coverage()
                .map_err(|e| CliError::io("atlas coverage declaration failed", e))?;
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
            windows.records = atlas
                .complete_sweep(n)
                .ok_or_else(|| CliError(format!("resumed n={n} sweep did not close coverage")))?;
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
    // Drained even without a report, so consecutive runs in one
    // process (tests, warm replays after a cold run) never leak
    // telemetry into each other.
    match &flags.report_json {
        Some(path) => manifest
            .write(path)
            .map_err(|e| CliError::io(&format!("cannot write run manifest to {path}"), e))?,
        None => drop(bnf_obs::Recorder::global().take()),
    }
    if block.is_some() {
        eprintln!(
            "segment written; fold segments with `shard_merge --out merged.bnfatlas <segments>` \
             and re-run with --atlas merged.bnfatlas"
        );
        std::process::exit(0);
    }
    Ok(windows)
}

/// The front-end of the `stream_count` binary: counts the connected
/// topologies on `n` vertices without classifying them, over the
/// frontier partition `--shards auto|R` selects (validated as the sweep
/// binaries validate it). Returns the unsharded-equivalent
/// [`bnf_stream::StreamStats`], the range count, and how many ranges a
/// `--resume` recovered.
///
/// `--checkpoint PATH` is the count's range ledger: an atlas store that
/// holds only [`bnf_atlas::ShardMeta`] frames, one committed per
/// finished range through the sweeps' `range_commit` kill point.
/// `--resume` (requires `--checkpoint`) rebuilds the interrupted
/// partition from it exactly as a sweep `--resume` does — torn-tail
/// recovery, then the same resume rule — folds the recovered ranges'
/// emissions and final-level counters back into the totals, and counts
/// only the missing ranges.
///
/// `--resume` without `--checkpoint` prints one `error:` line and exits
/// with status 2; a checkpoint that is not an atlas store, cannot be
/// appended to, or holds a partition cut from another frontier exits
/// with status 1.
pub fn run_count_cli(
    n: usize,
    threads: usize,
    flags: &Flags,
) -> (bnf_stream::StreamStats, usize, usize) {
    let shards = shards_flag(flags);
    let checkpoint = flags.get("--checkpoint");
    let resume = flags.switch("--resume");
    if resume && checkpoint.is_none() {
        flags
            .fail("--resume recovers completed ranges from the checkpoint: pass --checkpoint PATH");
    }
    let ranges = shards
        .flatten()
        .unwrap_or_else(|| bnf_stream::auto_range_count(threads));
    count_cli(n, threads, ranges, checkpoint, resume).unwrap_or_else(|e| e.exit())
}

fn count_cli(
    n: usize,
    threads: usize,
    ranges: usize,
    checkpoint: Option<&str>,
    resume: bool,
) -> Result<(bnf_stream::StreamStats, usize, usize), CliError> {
    use bnf_stream::{FrontierPartition, ParentFrontier, RangeStats};
    let (mut ledger, dropped_tail) = open_store(checkpoint, resume)?;
    // Scope the global recorder to this run, then let the enumeration
    // heartbeat report progress against the known connected count.
    bnf_obs::Recorder::global().take();
    bnf_obs::heartbeat::install(
        &format!("n={n} count"),
        bnf_obs::heartbeat::expected_connected(n),
    );
    eprintln!(
        "counting the connected topologies on n={n} vertices ({threads} worker thread(s) \
         stealing frontier ranges)..."
    );
    // The stored partition wins: range boundaries are a pure function
    // of (frontier_len, ranges), so resuming must reuse the interrupted
    // run's cut exactly.
    let base = RangeSelection::all(ranges);
    let resumed = ledger
        .as_ref()
        .filter(|_| resume)
        .and_then(|a| resume_selection(n, a.shard_metas(), &base));
    let selection = resumed.as_ref().map_or(base, |(s, _)| s.clone());
    let frontier = ParentFrontier::build(n, threads);
    let partition = FrontierPartition::new(&frontier, &selection).map_err(|e| {
        CliError(format!(
            "cannot resume {}: {e}",
            checkpoint.unwrap_or_default()
        ))
    })?;
    let run_id = orchestrator_run_id();
    let mut total = partition.run(
        threads,
        || (),
        |(), lo, hi| (frontier.stream_range(lo, hi, |_, _| {}), ()),
        |run| {
            let Some(atlas) = ledger.as_mut() else {
                return;
            };
            let meta = bnf_atlas::ShardMeta {
                order: n as u16,
                shard_index: run.index as u32,
                shard_count: partition.ranges as u32,
                frontier_len: frontier.len() as u64,
                parent_lo: run.lo as u64,
                parent_hi: run.hi as u64,
                emitted: run.stats.emitted,
                elapsed_ms: run.elapsed_ms,
                peak_rss_kb: peak_rss_kb(),
                orchestrator_run: Some(run_id),
                frontier_prune: frontier.frontier_prune(),
                final_prune: run.stats.prune,
            };
            commit_range(atlas, &meta);
        },
    );
    bnf_obs::heartbeat::finish();
    let recovered = selection.done.len();
    if let Some((_, prior)) = &resumed {
        // Fold the recovered ranges back in: the reported count and
        // counters describe the *whole* partition, identical to an
        // uninterrupted run — recovery changes what was re-enumerated,
        // not what is true.
        total.merge(&RangeStats {
            emitted: prior.emitted,
            prune: prior.final_prune,
        });
    }
    if resume {
        eprintln!(
            "resumed count: recovered {recovered}/{} completed range(s) from checkpoint, \
             redoing {}; torn tail: {dropped_tail} byte(s) dropped",
            partition.ranges,
            partition.ranges - recovered,
        );
    }
    Ok((frontier.stream_stats(total), partition.ranges, recovered))
}

/// The run-manifest skeleton every sweep CLI path shares: identity
/// (tool, order, path, exact argv), outcome (emitted, wall-clock) and —
/// when the run enumerated — its stream stats ([`push_stream_stats`]).
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
    let mut manifest = bnf_obs::RunManifest::new("sweep", n as u32, path);
    // The tool is the binary's name, from the argv the manifest captured.
    if let Some(arg0) = manifest.command.first() {
        let stem = std::path::Path::new(arg0).file_stem();
        manifest.tool = stem.map_or_else(|| arg0.clone(), |s| s.to_string_lossy().into_owned());
    }
    manifest.emitted = windows.records.len() as u64;
    manifest.elapsed_ms = elapsed_ms;
    manifest.peak_rss_kb = peak_rss_kb();
    if let Some(stats) = stats {
        push_stream_stats(&mut manifest, n, stats);
    }
    manifest
}

/// Sets an enumerating run's [`bnf_stream::StreamStats`] on its
/// manifest: the level sizes, the named pruning counters and the gated
/// `manifest/candidates_per_survivor/{n}` metric — the one block the
/// sweep and `stream_count` manifests share.
pub fn push_stream_stats(
    manifest: &mut bnf_obs::RunManifest,
    n: usize,
    stats: &bnf_stream::StreamStats,
) {
    manifest.level_sizes = stats.level_sizes.clone();
    for (name, value) in stats.prune.named() {
        manifest.set_counter(name, value);
    }
    manifest.push_metric(
        &format!("manifest/candidates_per_survivor/{n}"),
        stats.prune.candidates_per_survivor(),
    );
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

/// Opens the store a run reads and commits to, if it names one. Under
/// `--resume` it goes through torn-tail recovery — a killed run may
/// have died mid-frame — and reports what it dropped; returns the store
/// and the dropped bytes.
fn open_store(
    path: Option<&str>,
    resume: bool,
) -> Result<(Option<bnf_atlas::ClassificationAtlas>, u64), CliError> {
    use bnf_atlas::ClassificationAtlas;
    let Some(path) = path else {
        return Ok((None, 0));
    };
    if !resume {
        let atlas = ClassificationAtlas::open(path)
            .map_err(|e| CliError::io(&format!("cannot open atlas {path}"), e))?;
        return Ok((Some(atlas), 0));
    }
    let recovered = ClassificationAtlas::open_recovering(path)
        .map_err(|e| CliError::io(&format!("cannot recover atlas {path}"), e))?;
    if recovered.report.was_torn() {
        eprintln!("atlas {path}: {}", recovered.report);
    }
    Ok((Some(recovered.atlas), recovered.report.dropped_bytes))
}

/// Commits one finished range: its [`bnf_atlas::ShardMeta`] frame,
/// fsynced on both sides (after the range's records, when the run
/// stores any), then the `range_commit` kill point — the crash-safety
/// point of every range-committing run. A fault armed there (BNF_FAULT,
/// see bnf-faults) crashes with exactly N ranges recoverable.
fn commit_range(atlas: &mut bnf_atlas::ClassificationAtlas, meta: &bnf_atlas::ShardMeta) {
    atlas
        .append_shard_meta(meta)
        .unwrap_or_else(|e| CliError::io("atlas metadata append failed", e).exit());
    bnf_faults::trip_with_file("range_commit", atlas.path());
}

/// The resume rule of every range-committing run: of the stored
/// partitions of order `n` ([`bnf_atlas::ShardMeta::partitions`]) that
/// `base` can continue ([`RangeSelection::resuming`]), the one with the
/// most completed ranges in `base`'s block wins (ties: the finer cut),
/// so a stray experiment's stale metas cannot hijack the resume.
/// Returns the selection still to run — its `frontier_len` is checked
/// against the rebuilt frontier before any range executes — and the
/// partition it continues, or `None` for a store without usable
/// metadata.
fn resume_selection(
    n: usize,
    metas: &[bnf_atlas::ShardMeta],
    base: &RangeSelection,
) -> Option<(RangeSelection, bnf_atlas::ShardPartition)> {
    bnf_atlas::ShardMeta::partitions(metas)
        .into_iter()
        .filter(|p| usize::from(p.order) == n)
        .filter_map(|p| {
            let count = p.shard_count as usize;
            Some((base.clone().resuming(count, &p.done, p.frontier_len)?, p))
        })
        .max_by_key(|(selection, p)| (selection.done.len(), p.shard_count))
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
}
