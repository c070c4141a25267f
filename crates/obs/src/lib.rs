//! Structured run telemetry for the sweep stack.
//!
//! Every paper-scale run used to describe itself through ad-hoc
//! `eprintln!` + `Instant::now` pairs scattered across the binaries;
//! this crate is the one instrument panel they all report through:
//!
//! * [`Recorder`] — named **spans** (accumulated phase timers: frontier
//!   build, enumeration, sort, atlas write, merge, warm replay),
//!   **counters** (prune shares, steal counts, queue high-water marks)
//!   and log-bucketed [`Histogram`]s (per-range wall-clock, per-level
//!   candidate rates). A process-wide instance ([`Recorder::global`])
//!   lets deep library code record without plumbing a handle through
//!   every signature; the CLI drains it into the run manifest.
//! * [`heartbeat`] — a rate-limited progress line to stderr with an ETA
//!   derived from the known connected-graph counts (`BNF_PROGRESS=off |
//!   N-seconds`, default 10 s, carriage-return overwrite only when
//!   stderr is a TTY so CI logs stay line-oriented).
//! * [`RunManifest`] — the versioned machine-readable summary written
//!   by `--report-json <path>`: spans, counters, histograms, peak RSS,
//!   shard/orchestrator provenance and the exact CLI, round-trippable
//!   through its own hand-rolled JSON (the container builds offline;
//!   no serde).
//! * [`report`] — the one stderr formatter over the same manifest, so
//!   the human report and the machine report can never disagree.
//! * [`json`] — the minimal JSON reader/writer under the manifest,
//!   public so offline JSON consumers and producers elsewhere in the
//!   workspace (`bnf-serve`) share one implementation.
//! * [`cli`] — the one flag parser every binary uses: unknown, repeated
//!   or stray arguments are a usage error (one `error:` line, exit 2).
//!
//! Std-only and dependency-free, like the shims: telemetry must never
//! be the thing that fails to build.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod heartbeat;
pub mod json;
pub mod manifest;
pub mod recorder;
pub mod report;
pub mod sys;

pub use manifest::{HistogramSummary, Metric, RunManifest, ShardProvenance, MANIFEST_VERSION};
pub use recorder::{Histogram, Recorder, Snapshot};
pub use report::{
    format_peak_rss, render_classified_line, render_enumeration_line, render_run_report,
};
pub use sys::peak_rss_kb;
